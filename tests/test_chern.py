"""Cyclic cocycle values: exact partial sums, exact totals, trace oracle."""

import json
import math
import random
from fractions import Fraction

import pytest

from treeboundary import chern, operators, verify
from treeboundary.cli import main
from treeboundary import (
    CocycleInput,
    Cylinder,
    FreeGroup,
    GaussianRational,
    IDENTITY,
    LocallyConstantFunction,
    QQ_I,
    QQ_ZERO,
    TraceOracleReport,
    Truncation,
    VerifyContext,
    VisualStructure,
    cocycle_value,
    expectation,
    mul,
    pushforward_mass,
    random_unit_function,
    sphere_series,
    trace_identity,
    trace_oracle_dense,
    trace_oracle_report,
    translate,
    word_to_str,
)

F2 = FreeGroup(2)

IND = {
    s: LocallyConstantFunction.indicator(F2, F2.word(s))
    for s in ("a", "A", "b", "B")
}

# degree-3 input with product a A b B... reordered to multiply to e:
# a * A = e, b * B = e, so g-sequence (a, A, b, B) has product e.
REGRESSION_TERMS = [
    (IND["a"], F2.word("a")),
    (IND["b"], F2.word("A")),
    (IND["A"], F2.word("b")),
    (IND["B"], F2.word("B")),
]
COMPLEX_TERMS = [
    (QQ_I * IND["a"] + IND["b"], F2.word("a")),
    (IND["b"], F2.word("A")),
    (IND["A"], F2.word("b")),
    (IND["B"], F2.word("B")),
]


def test_vanishing_when_product_not_identity():
    inp = CocycleInput(1, [(IND["a"], F2.word("a")), (IND["b"], F2.word("b"))])
    cv = cocycle_value(inp, 3)
    assert cv.value == 0j
    assert cv.exact_partial == QQ_ZERO
    assert cv.total == QQ_ZERO


def test_identical_argument_symmetry_exact_zero():
    # psi_1 = psi_3 makes the two cyclic pairings equal term by term
    inp = CocycleInput(
        3,
        [
            (IND["a"], IDENTITY),
            (IND["b"], IDENTITY),
            (IND["a"], IDENTITY),
            (IND["b"], IDENTITY),
        ],
    )
    cv = cocycle_value(inp, 4)
    assert cv.exact_partial == QQ_ZERO
    assert cv.value == 0j
    assert cv.total == QQ_ZERO


def test_frozen_partial_sums():
    inp = CocycleInput(3, REGRESSION_TERMS)
    cv4 = cocycle_value(inp, 4)
    assert cv4.exact_partial == GaussianRational(Fraction(52003, 3779136))
    cv5 = cocycle_value(inp, 5)
    assert cv5.exact_partial == GaussianRational(Fraction(470935, 34012224))
    # the sum over the whole group does not depend on the radius
    assert cv4.total == cv5.total == GaussianRational(Fraction(1, 72))


def test_frozen_complex_partial():
    inp = CocycleInput(3, COMPLEX_TERMS)
    cv = cocycle_value(inp, 4)
    assert cv.exact_partial == GaussianRational(
        Fraction(-52003, 3779136), Fraction(52003, 3779136)
    )


def test_multilinearity_exact():
    scaled = [(Fraction(3, 7) * REGRESSION_TERMS[0][0], REGRESSION_TERMS[0][1])]
    scaled += REGRESSION_TERMS[1:]
    a = cocycle_value(CocycleInput(3, REGRESSION_TERMS), 3).exact_partial
    b = cocycle_value(CocycleInput(3, scaled), 3).exact_partial
    assert b == GaussianRational(Fraction(3, 7)) * a


def test_degree_one_total_is_exactly_zero():
    # degree 1 allows a constant term in the sphere series, but the pairing
    # is symmetric, cov(psi_0, psi_1) = cov(psi_1, psi_0), so every summand
    # and the total vanish exactly
    inp = CocycleInput(
        1, [(QQ_I * IND["a"] + IND["b"], F2.word("a")), (IND["b"], F2.word("A"))]
    )
    cv = cocycle_value(inp, 3)
    assert cv.spheres == [QQ_ZERO] * 4
    assert cv.total == QQ_ZERO


def test_input_validation():
    with pytest.raises(ValueError):
        CocycleInput(2, [(IND["a"], IDENTITY)] * 3)  # even degree
    with pytest.raises(ValueError):
        CocycleInput(3, [(IND["a"], IDENTITY)] * 3)  # wrong arity
    with pytest.raises(ValueError):
        CocycleInput(0, [(IND["a"], IDENTITY)])


def test_budget_guard():
    from treeboundary import BudgetError

    inp = CocycleInput(3, REGRESSION_TERMS)
    with pytest.raises(BudgetError):
        cocycle_value(inp, 6, budget=100)


def test_trace_routes_agree():
    inp = CocycleInput(3, REGRESSION_TERMS)
    trunc = Truncation(F2, 3, 4)
    sparse = trace_oracle_report(inp, trunc).value
    dense = trace_oracle_dense(inp, trunc)
    assert abs(sparse - dense) <= 1e-12


def test_trace_routes_agree_complex():
    inp = CocycleInput(3, COMPLEX_TERMS)
    trunc = Truncation(F2, 3, 4)
    assert abs(trace_oracle_report(inp, trunc).value - trace_oracle_dense(inp, trunc)) <= 1e-12


# degree 1 and degree 5, each with a complex term; both products are e.
# In degree 1 every fiber trace vanishes: the two commutators' diagonals
# commute, so the bilinear pairing is symmetric and the summand is 0
OTHER_DEGREES = {
    "degree 1": (1, [(QQ_I * IND["a"] + IND["b"], F2.word("a")), (IND["A"], F2.word("A"))]),
    "degree 5": (5, COMPLEX_TERMS + [(IND["a"], F2.word("ab")), (IND["b"], F2.word("BA"))]),
}


@pytest.mark.parametrize("name", sorted(OTHER_DEGREES))
def test_trace_routes_agree_at_other_degrees(name):
    degree, terms = OTHER_DEGREES[name]
    inp = CocycleInput(degree, terms)
    trunc = Truncation(F2, 3, 4)
    dense = trace_oracle_dense(inp, trunc)
    assert abs(trace_oracle_report(inp, trunc).value - dense) <= 1e-12
    if degree == 1:
        assert abs(dense) <= 1e-12
    else:
        assert abs(dense) > 1e-4  # the agreement is not between two zeros


def test_trace_vanishes_off_identity_product():
    inp = CocycleInput(
        3,
        [
            (IND["a"], F2.word("a")),
            (IND["b"], F2.word("b")),
            (IND["A"], F2.word("a")),
            (IND["B"], F2.word("B")),
        ],
    )
    trunc = Truncation(F2, 3, 4)
    report = trace_oracle_report(inp, trunc)
    assert report.value == 0j
    # no chain returns to its own fiber: no h has a trace, the sum no summand
    assert (report.traces, report.chain_exits, report.inexact_blocks) == ({}, 0, 0)
    identity = trace_identity(inp, trunc, cocycle_value(inp, 3), report)
    assert (identity.compared, identity.gap) == (0, 0.0)


def _exact_h(inp, trunc):
    """The h whose chain stays in B_R on exact blocks, found apart from the
    oracle: every p_i h, p_i = g_i ... g_n, in B_R with depth(phi_i) + |p_i h|
    at most m."""
    suffixes = [IDENTITY] * len(inp.terms)
    for i in range(len(inp.terms)):
        for _, g in inp.terms[i:]:
            suffixes[i] = mul(suffixes[i], g)
    return {
        h
        for h in trunc.group_basis
        if all(
            len(mul(p, h)) <= trunc.R and phi.depth + len(mul(p, h)) <= trunc.m
            for p, (phi, _) in zip(suffixes, inp.terms)
        )
    }


def test_trace_cross_validates_formula():
    # at every exact h the fiber trace is the signed summand at h, here
    # from the per-h loop, not from cocycle_value's classes
    inp = CocycleInput(3, REGRESSION_TERMS)
    cv = cocycle_value(inp, 4)
    trunc = Truncation(F2, 4, 4)
    report = trace_oracle_report(inp, trunc)
    summand = _per_h_summand(inp)
    assert set(report.traces) == _exact_h(inp, trunc)
    for h, trace in report.traces.items():
        assert abs(trace - summand(h).to_complex()) <= 1e-15
    identity = trace_identity(inp, trunc, cv, report)
    assert identity.holds and identity.compared == len(report.traces) == 17
    assert identity.gap <= 1e-15
    # the wide window R=5, m=6 reproduces the R=4 exact partial closely
    wide = trace_oracle_report(inp, Truncation(F2, 5, 6))
    assert abs(wide.value - cv.value) <= 1e-8
    assert wide.inexact_blocks == 0


def test_trace_complex_input_locks_bilinear_pairing():
    # under a sesquilinear (conjugating) pairing the formula would flip the
    # sign of the imaginary part and disagree with the trace by ~2 Im
    inp = CocycleInput(3, COMPLEX_TERMS)
    cv = cocycle_value(inp, 4)
    report = trace_oracle_report(inp, Truncation(F2, 5, 6))
    assert abs(report.value - cv.value) <= 1e-8
    assert abs(cv.value.imag) > 1e-3  # the lock is non-vacuous


@pytest.mark.parametrize("terms", [REGRESSION_TERMS, COMPLEX_TERMS], ids=["real", "complex"])
def test_cyclicity_negates_the_total(terms):
    # the cyclic-cocycle sign (-1)^n: rotating the arguments by one
    # negates the sum over the whole group exactly, not its partial sums
    rotated = terms[1:] + terms[:1]
    cv = cocycle_value(CocycleInput(3, terms), 5)
    cv_rot = cocycle_value(CocycleInput(3, rotated), 5)
    assert cv.total != QQ_ZERO
    assert cv_rot.total == -cv.total
    assert cv_rot.exact_partial != -cv.exact_partial


def test_report_counts():
    inp = CocycleInput(3, REGRESSION_TERMS)
    trunc = Truncation(F2, 4, 4)
    report = trace_oracle_report(inp, trunc)
    assert report.chain_exits > 0  # R=4 window does lose chains
    assert report.inexact_blocks > 0  # m=4 < depth + |p_i h| in places
    # every h left after both has its trace compared, and the identity holds
    assert len(report.traces) == trunc.dim_group - report.chain_exits - report.inexact_blocks
    identity = trace_identity(inp, trunc, cocycle_value(inp, 4), report)
    assert identity.compared == len(report.traces) > 0 and identity.holds


def test_an_empty_comparison_holds_nothing(monkeypatch):
    # a zero gap over no h is no verdict, for chern and for verify-all
    assert not chern.TraceIdentity(0, 0.0, 1.0).holds
    assert chern.TraceIdentity(1, 0.0, 1.0).holds
    ctx = VerifyContext(F2, VisualStructure(F2, math.log(3)), 2, 0, 1.0)
    oracle = chern.trace_oracle_report
    monkeypatch.setattr(
        chern, "trace_oracle_report",
        lambda inp, trunc: TraceOracleReport(oracle(inp, trunc).value, 0, 0, {}),
    )
    assert verify._chern(ctx) == (False, "no group element has an exact chain to compare")


# ----------------------------------------------------------------------
# the staying chains: the oracle walks only the h whose chain stays in B_R


def _staying_brute_force(inp, trunc):
    return [
        h.letters for h in trunc.group_basis
        if max(len(mul(s, h)) for s in inp.suffixes) <= trunc.R
    ]


@pytest.mark.parametrize("degree", [1, 3, 5])
def test_staying_h_are_the_ball_filtered_in_order(degree):
    # product-1 chains of translations drawn from B_3, |s_i| <= 3; the
    # oracle counts every other h of B_R as a chain exit
    rng = random.Random(degree)
    words = list(F2.iter_ball(3))
    cases, longest = 0, 0
    while cases < 5:
        gs = [rng.choice(words) for _ in range(degree)]
        product = IDENTITY
        for g in gs:
            product = mul(product, g)
        inp = CocycleInput(degree, [(IND["a"], g) for g in gs + [product.inverse()]])
        top = max(map(len, inp.suffixes))
        if top > 3:
            continue
        cases, longest = cases + 1, max(longest, top)
        for R in range(5):
            trunc = Truncation(F2, R, 1)
            want = _staying_brute_force(inp, trunc)
            assert list(chern.staying_h(inp, trunc)) == want
            if all(len(g) <= R for _, g in inp.terms):
                exits = trace_oracle_report(inp, trunc).chain_exits
                assert exits == trunc.dim_group - len(want)
    assert longest == 3


def test_staying_h_skip_a_sphere_where_two_required_prefixes_disagree():
    # s_1 = A and s_3 = B: at |h| = R each chain needs one letter to cancel,
    # h[:1] = a for one and h[:1] = b for the other, though each alone keeps
    # some h of sphere R
    inp = CocycleInput(3, REGRESSION_TERMS)
    for R in (1, 2, 3):
        trunc = Truncation(F2, R, 1)
        staying = list(chern.staying_h(inp, trunc))
        assert staying == _staying_brute_force(inp, trunc)
        assert staying and not any(len(h) == R for h in staying)
        for s in ("A", "B"):
            assert any(len(mul(F2.word(s), h)) <= R for h in F2.iter_sphere(R))


# ----------------------------------------------------------------------
# per-prefix-class sums against the per-h loop


def _fraction_expectation(phi, h):
    """E(phi)(h) as a sum of Fractions, one cell at a time."""
    return sum(
        (v * pushforward_mass(h, Cylinder(w), phi.group) for w, v in phi.values.items()),
        QQ_ZERO,
    )


def _per_h_summand(inp, expectation=expectation):
    """The shifted-table formula, kept here only as the oracle: h -> the
    signed sign * (term_a - term_b) at h, evaluated at h itself on the
    translates psi_i = (g_0 ... g_{i-1}).phi_i and their pair products, in
    Gaussian rationals from ``expectation``."""
    psis, prefix = [], IDENTITY
    for phi, g in inp.terms:
        psis.append(translate(prefix, phi))
        prefix = mul(prefix, g)
    n = inp.degree
    pairs_a = [(i, i + 1) for i in range(0, n, 2)]
    pairs_b = [(n, 0)] + [(i, i + 1) for i in range(1, n - 1, 2)]
    products = {(i, j): psis[i] * psis[j] for i, j in pairs_a + pairs_b}
    sign = GaussianRational(Fraction((-1) ** ((n + 1) // 2)))

    def summand(h):
        means = [expectation(psi, h) for psi in psis]
        cov = {
            (i, j): expectation(prod, h) - means[i] * means[j]
            for (i, j), prod in products.items()
        }
        term_a = term_b = GaussianRational(Fraction(1))
        for pair in pairs_a:
            term_a = term_a * cov[pair]
        for pair in pairs_b:
            term_b = term_b * cov[pair]
        return sign * (term_a - term_b)

    return summand


def _per_h_sphere_sums(inp, radius):
    """The per-h loop: the exact sum of the signed summand over every h of
    each sphere, evaluated one h at a time."""
    summand = _per_h_summand(inp)
    return [sum(map(summand, inp.group.iter_sphere(m)), QQ_ZERO) for m in range(radius + 1)]


def _random_function(group, depth, seed):
    rng = random.Random(seed)

    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((3, 5, 7, 11)))

    return LocallyConstantFunction(
        group, depth, {w: GaussianRational(part(), part()) for w in group.sphere(depth)}
    )


def _terms(group, depths, elements, seed):
    return [
        (_random_function(group, d, seed + i), group.word(g))
        for i, (d, g) in enumerate(zip(depths, elements))
    ]


F3 = FreeGroup(3)
# name: (input, largest radius, whether some partial sum is nonzero); a
# constant term, or degree 1 with its symmetric pairing, gives exact zeros
CLASS_CASES = {
    "F2 degree 3 depth 1": (CocycleInput(3, REGRESSION_TERMS), 5, True),
    "F2 degree 3 depths 1-2": (
        CocycleInput(3, _terms(F2, (2, 1, 1, 2), ("a", "b", "B", "A"), 1)), 5, True
    ),
    "F2 degree 3 depths 0-2": (
        CocycleInput(3, _terms(F2, (1, 0, 2, 1), ("b", "a", "A", "B"), 3)), 3, False
    ),
    "F2 degree 1 depths 1-2": (CocycleInput(1, _terms(F2, (2, 1), ("ab", "BA"), 5)), 4, False),
    "F2 degree 1 depth 0, K = 0": (CocycleInput(1, _terms(F2, (0, 0), ("1", "1"), 7)), 5, False),
    "F3 degree 3 depths 1-2": (
        CocycleInput(3, _terms(F3, (1, 2, 2, 1), ("c", "C", "b", "B"), 9)), 3, True
    ),
    "F3 degree 1 depth 1": (CocycleInput(1, _terms(F3, (1, 1), ("B", "b"), 11)), 3, False),
    # words of length 2; K = 4 comes from depth 2 at |p_4| = |ba| = 2
    "F2 degree 5 depths 1-2": (
        CocycleInput(5, _terms(F2, (2, 1, 1, 2, 2, 1), ("ab", "BA", "b", "a", "A", "B"), 15)),
        4,
        True,
    ),
    "F2 degree 5 depths 0-2": (
        CocycleInput(5, _terms(F2, (1, 2, 0, 1, 2, 1), ("ab", "BA", "b", "a", "A", "B"), 17)),
        3,
        False,
    ),
    "F2 product not the identity": (
        CocycleInput(3, _terms(F2, (1, 1, 1, 1), ("a", "b", "A", "B"), 13)), 3, False
    ),
}


@pytest.mark.parametrize("name", sorted(CLASS_CASES))
def test_class_sums_equal_the_per_h_loop(name):
    inp, radius, nonzero = CLASS_CASES[name]
    if inp.group_product != IDENTITY:
        for r in range(radius + 1):
            cv = cocycle_value(inp, r)
            assert (cv.exact_partial, cv.spheres, cv.total) == (QQ_ZERO, [], QQ_ZERO)
        return
    sums = _per_h_sphere_sums(inp, radius)
    for r in range(radius + 1):
        cv = cocycle_value(inp, r)
        assert cv.exact_partial == sum(sums[: r + 1], QQ_ZERO)
        assert cv.spheres == sums[: r + 1]
    assert any(sums) == nonzero


def test_cocycle_value_evaluates_each_prefix_class_once(monkeypatch):
    # 8 expectations (4 phi_i, 4 pair tables) per prefix class
    # (prefix_K h, |h|); K = 2 for the regression input
    calls = []
    sums = chern._sums

    def counted(phi, h):
        calls.append(h)
        return sums(phi, h)

    monkeypatch.setattr(chern, "_sums", counted)
    cocycle_value(CocycleInput(3, REGRESSION_TERMS), 6)
    K = 2
    assert len(calls) == 8 * sum(F2.sphere_count(min(m, K)) for m in range(7))


# ----------------------------------------------------------------------
# the per-h identity: fiber trace at h = signed summand at h


@pytest.mark.parametrize("name", sorted(CLASS_CASES))
def test_summand_is_the_per_h_formula_at_every_h(name, monkeypatch):
    # classes past the cocycle's radius are evaluated on demand
    inp, radius, _ = CLASS_CASES[name]
    translated = []
    translate_ = chern.translate

    def counted(g, phi):
        translated.append(g)
        return translate_(g, phi)

    monkeypatch.setattr(chern, "translate", counted)
    if inp.group_product != IDENTITY:
        # no pair table is built and no class is evaluated
        cv = cocycle_value(inp, radius)
        assert (cv.classes, cv.total, translated) == ({}, QQ_ZERO, [])
        return
    cv = cocycle_value(inp, 1)
    assert translated == [g for _, g in inp.terms]  # one pair table per term
    per_h = _per_h_summand(inp)
    for h in inp.group.iter_ball(min(radius, 3)):
        assert cv(h) == per_h(h)


@pytest.mark.parametrize("seed", range(4))
def test_pair_table_is_the_product_with_the_translate(seed):
    # phi (g.psi) on the numerators against Gaussian-rational products of
    # the values, cell by cell, on random tables of depth 1-3 and |g| <= 2
    rng = random.Random(seed)
    for group in (F2, FreeGroup(3)):
        phi = random_unit_function(group, rng.randint(1, 3), rng)
        psi = random_unit_function(group, rng.randint(1, 3), rng)
        (dp, _), (dq, _) = phi.numerators, psi.numerators
        for g in rng.sample(group.ball(2), 8):
            pair = phi * translate(g, psi)
            depth = max(phi.depth, psi.depth + len(g))
            oracle = {
                u: phi.values[u.prefix(phi.depth)] * psi.values[mul(g.inverse(), u).prefix(psi.depth)]
                for u in group.sphere(depth)
            }
            assert (pair.depth, list(pair.values.items())) == (depth, list(oracle.items()))
            # over D_phi D_psi, not the lcm of the values' denominators, the
            # expectations that read the table are the same
            assert pair.numerators[0] == dp * dq
            reduced = LocallyConstantFunction(group, depth, oracle)
            for h in (IDENTITY, g, group.word("aab")):
                assert expectation(pair, h) == expectation(reduced, h)


def test_summand_evaluates_a_class_past_the_radius_once(monkeypatch):
    calls = []
    sums = chern._sums

    def counted(phi, h):
        calls.append(h)
        return sums(phi, h)

    monkeypatch.setattr(chern, "_sums", counted)
    cv = cocycle_value(CocycleInput(3, REGRESSION_TERMS), 2)
    before = len(calls)
    # K = 2: aab and aaB are one class (aa, 3) of sphere 3; aa and ab are
    # classes of B_2, evaluated already
    for s in ("aab", "aaB", "aa", "ab", "aab"):
        cv(F2.word(s))
    assert len(calls) - before == 8  # 4 phi_i and 4 pair tables, once


DENSE_TERMS = _terms(F2, (1, 1, 1, 1), ("a", "A", "b", "B"), 21)


@pytest.mark.parametrize(
    "terms", [REGRESSION_TERMS, COMPLEX_TERMS, DENSE_TERMS], ids=["regression", "complex", "dense"]
)
def test_summand_classes_equal_a_fraction_recomputation(terms):
    # the summand's Gaussian-integer combination against Fraction
    # expectations summed cell by cell and combined in Gaussian rationals;
    # only the dense terms pair two complex means
    inp = CocycleInput(3, terms)
    cv = cocycle_value(inp, 5)
    oracle = _per_h_summand(inp, _fraction_expectation)
    classes = [
        (prefix, m, member)
        for m in range(6)
        for prefix, member, _ in F2.prefix_classes(m, cv.depth)
    ]
    assert len(cv.classes) == len(classes) == 1 + 4 + 12 * 4
    for prefix, m, member in classes:
        assert (prefix, m) in cv.classes
        assert cv(member) == oracle(member)
    assert len(cv.classes) == 53  # no call evaluated a class anew


@pytest.mark.parametrize("terms", [COMPLEX_TERMS, DENSE_TERMS], ids=["complex", "dense"])
def test_trace_identity_on_exact_blocks(terms):
    inp = CocycleInput(3, terms)
    trunc = Truncation(F2, 5, 5)
    report = trace_oracle_report(inp, trunc)
    identity = trace_identity(inp, trunc, cocycle_value(inp, 4), report)
    assert identity.compared == len(_exact_h(inp, trunc)) == 53
    scale = math.prod(phi.sup_norm() for phi, _ in terms)
    assert identity.gap <= 1e-15 * scale
    assert identity.holds


def _per_block_oracle(inp, trunc):
    """The oracle's loop with every point built, the chain exit read off the
    points' lengths and ``fiber_runs`` called once per block, no walk
    shared: (value, chain_exits, inexact_blocks, traces)."""
    w = operators.fiber_unit(trunc)[0][1] ** 2
    total, exits, inexact, traces = 0j, 0, 0, {}
    for h in trunc.group_basis:
        points = [mul(s, h) for s in inp.suffixes]
        if max(map(len, points)) > trunc.R:
            exits += 1
            continue
        exact = all(phi.depth + len(x) <= trunc.m for (phi, _), x in zip(inp.terms, points))
        inexact += not exact
        runs = [operators.fiber_runs(phi, x, trunc) for (phi, _), x in zip(inp.terms, points)]
        trace = chern._fiber_trace(runs, w, trunc.dim_fiber)
        total += trace
        if exact:
            traces[h] = trace
    return total, exits, inexact, traces


def _bits(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("R, m", [(5, 5), (3, 6)])
@pytest.mark.parametrize(
    "terms",
    [REGRESSION_TERMS, COMPLEX_TERMS, DENSE_TERMS, CLASS_CASES["F2 degree 3 depths 1-2"][0].terms],
    ids=["regression", "complex", "dense", "depths 1-2"],
)
def test_oracle_walks_and_exit_test_match_the_per_block_loop(terms, R, m):
    # one walk per shape and the exit decided from letters give the same
    # bits as a walk per block and the exit read off built points; the
    # depths 1-2 terms put two depths at one point
    inp, trunc = CocycleInput(3, terms), Truncation(F2, R, m)
    report = trace_oracle_report(inp, trunc)
    value, exits, inexact, traces = _per_block_oracle(inp, trunc)
    assert (report.chain_exits, report.inexact_blocks) == (exits, inexact)
    assert exits > 0 and len(traces) > 0
    assert _bits(report.value) == _bits(value)
    assert list(report.traces) == list(traces)
    assert [_bits(t) for t in report.traces.values()] == [_bits(t) for t in traces.values()]


# the benchmark's seed-1 terms: dense depth-1 functions times a, A, b, B
BENCHMARK_TERMS = [
    (LocallyConstantFunction.from_json_obj({"depth": 1, "values": values}, F2), F2.word(g))
    for g, values in (
        ("a", {"A": ["4/7", "5/11"], "B": ["-7/13", "-9/17"], "a": ["4/5", "5/7"], "b": ["-10/11", "-11/13"]}),
        ("A", {"A": ["1/7", "3/11"], "B": ["-11/13", "1/17"], "a": ["3/5", "-4/7"], "b": ["-7/11", "-3/13"]}),
        ("b", {"A": ["-1/7", "-9/11"], "B": ["-10/13", "-14/17"], "a": ["4/5", "-1/7"], "b": ["1/11", "-7/13"]}),
        ("B", {"A": ["-4/7", "6/11"], "B": ["-1/13", "-13/17"], "a": ["-3/5", "2/7"], "b": ["-10/11", "-1/13"]}),
    )
]


def test_oracle_walks_each_fiber_shape_once(monkeypatch):
    # the benchmark's terms at (5, 5) read 644 blocks at 323 distinct
    # (point, depth), of 19 shapes
    walks = []
    walk = FreeGroup.product_runs

    def counted(self, h, k, prefix=()):
        walks.append((h, k))
        return walk(self, h, k, prefix)

    monkeypatch.setattr(FreeGroup, "product_runs", counted)
    trace_oracle_report(CocycleInput(3, BENCHMARK_TERMS), Truncation(F2, 5, 5))
    assert len(walks) <= 19


def test_benchmark_terms_total_is_pinned():
    cv = cocycle_value(CocycleInput(3, BENCHMARK_TERMS), 4)
    assert cv.total == GaussianRational(
        Fraction(5234513494351164563, 66591200218368325500),
        Fraction(634330460324606953, 4439413347891221700),
    )
    # the exact tail past radius 20 is about 3.5e-11 in modulus
    tail = cv.total - cocycle_value(CocycleInput(3, BENCHMARK_TERMS), 20, 10**10).exact_partial
    assert 3e-11 < math.sqrt(float(tail.abs2())) < 4e-11


SERIES_CASES = {
    "regression": CocycleInput(3, REGRESSION_TERMS),
    "complex": CocycleInput(3, COMPLEX_TERMS),
    "benchmark": CocycleInput(3, BENCHMARK_TERMS),
    "degree 5": CocycleInput(*OTHER_DEGREES["degree 5"]),
    **{name: case[0] for name, case in CLASS_CASES.items() if case[2]},
}


@pytest.mark.parametrize("name", sorted(SERIES_CASES))
def test_series_predicts_spheres_K_to_K_plus_8(name):
    # solved from spheres start..start+J-1, the series must predict sphere
    # start+J; sliding start from K covers spheres K+J..K+8, each predicted
    # by the one series fitted on K..K+J-1, and the total never moves
    inp = SERIES_CASES[name]
    cv, q = cocycle_value(inp, 0), 2 * inp.group.n - 1
    K, lo, hi = max(cv.depth, 1), (inp.degree - 1) // 2, inp.degree
    assert cv.total != QQ_ZERO
    for start in range(K, K + 9 - (hi - lo + 1)):
        assert sphere_series(cv.sphere, q, start, lo, hi) == cv.total


def _nudged(monkeypatch, length):
    """The summand of one class, (aa, length), off by 1e-9: its numerators
    moved by scale / 10^9 (over 10^9 times the scale)."""
    evaluate = chern.CocycleValue._evaluate

    def nudged(self, h):
        re, im, scale = evaluate(self, h)
        if len(h) == length and h.letters[: self.depth] == (0, 0):
            return re * 10**9 + scale, im * 10**9, scale * 10**9
        return re, im, scale

    monkeypatch.setattr(chern.CocycleValue, "_evaluate", nudged)


def test_series_check_sphere_has_teeth(monkeypatch, tmp_path):
    inp = CocycleInput(3, REGRESSION_TERMS)
    cv = cocycle_value(inp, 0)
    assert cv.depth == 2
    # the lowest power dropped
    with pytest.raises(AssertionError, match="sphere 4 is off the series"):
        sphere_series(cv.sphere, 3, 2, 2, 3)
    # one class of sphere K = 2, or of the check sphere 5, moved by 1e-9
    for length in (2, 5):
        monkeypatch.undo()
        _nudged(monkeypatch, length)
        with pytest.raises(AssertionError, match="sphere 5 is off the series"):
            cocycle_value(inp, 1).total
    # the CLI reads the total: an off check sphere is an invariant violation
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps({
        "rank": 2,
        "terms": [{"phi": phi.to_json_obj(), "g": word_to_str(g)} for phi, g in REGRESSION_TERMS],
    }))
    assert main(["chern", "--input", str(terms), "--radius", "4", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "chern.json").exists()


def test_series_budget_charges_its_classes():
    from treeboundary import BudgetError

    # K = 2 and powers 1..3: spheres 2..5, 4 x |S_2| = 48 classes past
    # radius 1; at radius 0 the head sphere 1 adds its |S_1| = 4 classes
    inp = CocycleInput(3, REGRESSION_TERMS)
    with pytest.raises(BudgetError, match="48 prefix classes exceed budget 47"):
        cocycle_value(inp, 1, budget=47).total
    assert cocycle_value(inp, 1, budget=48).total == GaussianRational(Fraction(1, 72))
    with pytest.raises(BudgetError, match="52 prefix classes exceed budget 51"):
        cocycle_value(inp, 0, budget=51).total
    assert cocycle_value(inp, 0, budget=52).total == GaussianRational(Fraction(1, 72))


def _perturbed(monkeypatch):
    """Every fiber diagonal off by 1e-8 in its first cell, which is split
    out of its run."""
    original = chern.fiber_runs

    def perturbed(phi, h, trunc):
        (end, value), *rest = original(phi, h, trunc)
        head = [(1, value + 1e-8)] + ([(end, value)] if end > 1 else [])
        return head + rest

    monkeypatch.setattr(chern, "fiber_runs", perturbed)


def test_trace_identity_fails_at_the_inverse(monkeypatch):
    inp = CocycleInput(3, COMPLEX_TERMS)
    trunc = Truncation(F2, 5, 5)
    cv = cocycle_value(inp, 4)
    report = trace_oracle_report(inp, trunc)
    assert trace_identity(inp, trunc, cv, report).holds
    # the summand read at h^-1 instead of h
    flipped = TraceOracleReport(
        report.value,
        report.chain_exits,
        report.inexact_blocks,
        {h.inverse(): trace for h, trace in report.traces.items()},
    )
    identity = trace_identity(inp, trunc, cv, flipped)
    assert not identity.holds and identity.gap > 1e-3
    # a fiber diagonal off by 1e-8 in one cell
    _perturbed(monkeypatch)
    identity = trace_identity(inp, trunc, cv, trace_oracle_report(inp, trunc))
    assert not identity.holds


def test_perturbed_fiber_diagonal_fails_both_consistency_verdicts(monkeypatch, tmp_path):
    ctx = VerifyContext(F2, VisualStructure(F2, math.log(3)), 2, 0, 1.0)
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps({
        "rank": 2,
        "terms": [{"phi": phi.to_json_obj(), "g": word_to_str(g)} for phi, g in REGRESSION_TERMS],
    }))
    argv = ["chern", "--input", str(terms), "--radius", "4", "--oracle-R", "4", "--oracle-m", "4"]
    assert verify._chern(ctx)[0]
    assert main(argv + ["--out", str(tmp_path / "ok")]) == 0

    _perturbed(monkeypatch)
    ok, detail = verify._chern(ctx)
    assert not ok and "off the signed summand" in detail
    assert main(argv + ["--out", str(tmp_path / "bad")]) == 1
    oracle = json.loads((tmp_path / "bad" / "chern.json").read_text())["oracle"]
    assert oracle["consistent"] is False and oracle["identity_h"] == 17
    assert float(oracle["identity_gap"]) > float(oracle["identity_tolerance"])
