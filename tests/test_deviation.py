"""Expectation, deviation, covariance: exact identities and envelopes."""

import csv
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeboundary import (
    Cylinder,
    DeviationProfile,
    FreeGroup,
    GaussianRational,
    IDENTITY,
    LocallyConstantFunction,
    QQ_I,
    VisualStructure,
    Word,
    covariance,
    deviation_sq,
    deviation_sq_pairsum,
    expectation,
    lp_report,
    mul,
    pushforward_mass,
    pushforward_weights,
    random_unit_function,
    sigma_envelope,
    word_to_str,
)
from treeboundary.deviation import _expectation_abs_sq, _sums, mean_and_deviation_sq
from treeboundary.words import common_prefix_len

F2 = FreeGroup(2)
F3 = FreeGroup(3)

IA = LocallyConstantFunction.indicator(F2, F2.word("a"))


def test_pinned_expectation_values():
    # at the identity, E is the plain integral
    assert expectation(IA, IDENTITY) == GaussianRational(Fraction(1, 4))
    # pushing forward by a floods [a]: 3 of 4 depth-2 preimages land there
    assert expectation(IA, F2.word("a")) == GaussianRational(Fraction(3, 4))
    assert expectation(IA, F2.word("A")) == GaussianRational(Fraction(1, 12))


def test_pinned_deviation_values():
    assert deviation_sq(IA, IDENTITY) == Fraction(3, 16)
    assert deviation_sq(IA, F2.word("a")) == Fraction(3, 16)
    assert deviation_sq(IA, F2.word("b")) == Fraction(11, 144)
    assert deviation_sq(IA, F2.word("A")) == Fraction(11, 144)


def value_table_functions(depth):
    """All functions of the given depth with values in {0, 1, 1/2, i}."""
    values = [
        GaussianRational(),
        GaussianRational(Fraction(1)),
        GaussianRational(Fraction(1, 2)),
        QQ_I,
    ]
    cells = F2.sphere(depth)
    tables = [[]]
    for _ in cells:
        tables = [t + [v] for t in tables for v in values]
    return [
        LocallyConstantFunction(F2, depth, dict(zip(cells, t)))
        for t in tables
    ]


def test_deviation_identity_exhaustive_depth1():
    # pair-sum formula == E|phi|^2 - |E phi|^2, exact, all depth-<=1 tables
    for phi in value_table_functions(0) + value_table_functions(1):
        for g in F2.ball(2):
            assert deviation_sq(phi, g) == deviation_sq_pairsum(phi, g)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from([0, 1, Fraction(1, 2), 1j]),
        min_size=12,
        max_size=12,
    ),
    st.integers(0, 52),
)
def test_deviation_identity_random_depth2(vals, gi):
    phi = LocallyConstantFunction(F2, 2, dict(zip(F2.sphere(2), vals)))
    g = F2.ball(3)[gi]
    assert deviation_sq(phi, g) == deviation_sq_pairsum(phi, g)


def test_pairsum_charges_its_depth_before_walking(monkeypatch):
    # F26 at |g| = 5 on a depth-1 function: the depth-6 sphere holds
    # 52 * 51^5 cells, past the default budget, so the pair sum raises
    # before it walks; a shape met again reads the memo, charged once
    from treeboundary import BudgetError

    F26 = FreeGroup(26)
    walks = []
    walk = FreeGroup.product_runs

    def counted(self, h, k, prefix=()):
        walks.append((h, k))
        return walk(self, h, k, prefix)

    monkeypatch.setattr(FreeGroup, "product_runs", counted)
    phi = LocallyConstantFunction.indicator(F26, F26.word("a"))
    with pytest.raises(BudgetError):
        deviation_sq_pairsum(phi, F26.word("abcde"))
    assert walks == [] and F26.shape_counts == {}
    g = F26.word("abc")  # depth 4: 52 * 51^3 cells, inside the budget
    assert deviation_sq_pairsum(phi, g) == deviation_sq(phi, g)
    assert len(walks) == 1
    charges = []
    monkeypatch.setattr(FreeGroup, "check_budget", lambda *args, **kw: charges.append(args))
    assert deviation_sq_pairsum(phi, F26.word("abc")) == deviation_sq(phi, g)
    assert (len(walks), charges) == (1, [])


def test_deviation_invariant_under_inverse_direction():
    # sigma^2 depends on g through g^-1's action; check a != A symmetry holds
    # only where the geometry forces it: |g| is what the envelope sees.
    for g in F2.ball(3):
        assert deviation_sq(IA, g) >= 0


def test_covariance_diagonal_is_deviation():
    for g in F2.ball(2):
        c = covariance(IA, IA, g)
        assert c.im == 0
        assert c.re == deviation_sq(IA, g)


def test_covariance_sesquilinear():
    ib = LocallyConstantFunction.indicator(F2, F2.word("b"))
    g = F2.word("ab")
    lhs = covariance(IA, QQ_I * ib, g)
    rhs = covariance(IA, ib, g) * QQ_I.conjugate()
    assert lhs == rhs
    assert covariance(QQ_I * IA, ib, g) == QQ_I * covariance(IA, ib, g)


def test_covariance_cauchy_schwarz():
    ib = LocallyConstantFunction.indicator(F2, F2.word("b"))
    for g in F2.ball(2):
        c = covariance(IA, ib, g)
        assert c.abs2() <= deviation_sq(IA, g) * deviation_sq(ib, g)


# ----------------------------------------------------------------------
# the integer route against the Fraction-per-cell oracle


def _fraction_moments(phi, g):
    """E(phi)(g) and E(|phi|^2)(g) as sums of Fractions, one cell at a
    time: sum over depth-k cells of phi(w) (g_*mu)([w])."""
    re = im = abs_sq = Fraction(0)
    for w, v in phi.values.items():
        if v:
            mass = pushforward_mass(g, Cylinder(w), phi.group)
            re += v.re * mass
            im += v.im * mass
            abs_sq += v.abs2() * mass
    return GaussianRational(re, im), abs_sq


def _integer_route_mismatches(phi, radius=4):
    """(statistic, g) for every g in B_radius where the library's integer
    sums differ from the Fraction-per-cell oracle."""
    out = []
    for g in phi.group.iter_ball(radius):
        e, abs_sq = _fraction_moments(phi, g)
        try:
            sigma_sq = deviation_sq(phi, g)
        except AssertionError:  # a negative deviation
            sigma_sq = None
        for name, value, oracle in (
            ("expectation", expectation(phi, g), e),
            ("abs_sq", _expectation_abs_sq(phi, g), abs_sq),
            ("deviation_sq", sigma_sq, abs_sq - e.abs2()),
        ):
            if value != oracle:
                out.append((name, g))
    return out


# zero parts often, so that zero cells and purely real or imaginary values
# occur; denominators mixed, so that D is a proper lcm
PARTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 7, 9, 11, 25, 101])),
)


def _tables(group, depth):
    cells = group.sphere(depth)
    return st.lists(st.tuples(PARTS, PARTS), min_size=len(cells), max_size=len(cells)).map(
        lambda values: LocallyConstantFunction(group, depth, dict(zip(cells, values)))
    )


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
def test_integer_sums_equal_the_fraction_per_cell_oracle(group, depth):
    # every g of B_4 per table; F3 at depth 3 is 150 cells by 937 elements.
    # Derandomized, the first table is all zeros and the next two mix zero
    # cells with nonzero ones over several denominators
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(_tables(group, depth))
    def check(phi):
        assert _integer_route_mismatches(phi) == []

    check()


def _dense_depth2():
    """Every depth-2 cell of F2 nonzero, with mixed denominators."""
    return LocallyConstantFunction(F2, 2, {
        w: (Fraction(i + 1, 3 + i % 4), Fraction(-2 * i - 1, 7 + i % 3))
        for i, w in enumerate(F2.sphere(2))
    })


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_integer_sums_fail_with_a_weight_off_by_one(monkeypatch, ell):
    import treeboundary.deviation as deviation_module

    phi = _dense_depth2()
    assert _integer_route_mismatches(phi) == []
    original = deviation_module.pushforward_weights

    def broken(length, depth, group):
        total, weights = original(length, depth, group)
        return total, tuple(c + (i == ell) for i, c in enumerate(weights))

    # the oracle's pushforward_mass still reads the true weights
    monkeypatch.setattr(deviation_module, "pushforward_weights", broken)
    failed = {name for name, _ in _integer_route_mismatches(phi)}
    assert failed == {"expectation", "abs_sq", "deviation_sq"}


def _cell_sums(phi, g):
    """The integer sums of ``_sums``, one cell at a time: each nonzero cell w
    times the weight of its common prefix length with g.  The pass over the
    cells that the prefix sums replace, kept here as the oracle."""
    den, cells = phi.numerators
    total, weights = pushforward_weights(len(g), phi.depth, phi.group)
    re = im = sq = 0
    for w, (a, b) in cells.items():
        if a or b:
            c = weights[common_prefix_len(g.letters, w)]
            re += a * c
            im += b * c
            sq += (a * a + b * b) * c
    return re, im, sq, den, total


def _random_word(group, length, rng):
    letters = []
    for _ in range(length):
        letters.append(rng.choice(
            [x for x in range(group.alphabet_size) if not letters or x != letters[-1] ^ 1]
        ))
    return Word(tuple(letters))


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
def test_prefix_sums_equal_the_cell_by_cell_pass(group, depth):
    # tables with every cell zero, with some and with none; g over B_2 and
    # words of length k and k + 3, so |g| < k and |g| >= k both occur
    rng = random.Random(10 * group.n + depth)
    parts = [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)]
    cells = group.sphere(depth)
    tables = [
        {w: 0 for w in cells},
        {w: GaussianRational(rng.choice(parts), rng.choice(parts)) for w in cells},
        {w: GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, -1), 11)) for w in cells},
    ]
    elements = [*group.iter_ball(2)]
    elements += [_random_word(group, length, rng) for length in (depth, depth + 3) for _ in range(8)]
    for values in tables:
        phi = LocallyConstantFunction(group, depth, values)
        # S(p) for every reduced prefix p of length 0..k, summed cell by cell
        oracle = {}
        for w, (a, b) in phi.numerators[1].items():
            for ell in range(depth + 1):
                x, y, z = oracle.get(w[:ell], (0, 0, 0))
                oracle[w[:ell]] = (x + a, y + b, z + a * a + b * b)
        assert phi.prefix_sums == oracle
        assert sorted(oracle) == sorted(g.letters for g in group.iter_ball(depth))
        for g in elements:
            assert _sums(phi, g) == _cell_sums(phi, g), (values, g)


class _CountedReads(dict):
    """A dict that counts its reads: each subscript and each item iterated."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def items(self):
        for item in super().items():
            self.reads += 1
            yield item


def test_an_expectation_at_depth_5_reads_at_most_6_prefix_entries():
    # a pass over the cells would read all |S_5| = 324 of them
    phi = random_unit_function(F2, 5, random.Random(5))
    den, cells = phi.numerators
    phi.__dict__["numerators"] = (den, _CountedReads(cells))
    phi.__dict__["prefix_sums"] = _CountedReads(phi.prefix_sums)  # once per function
    tables = (phi.numerators[1], phi.prefix_sums)
    fresh = random_unit_function(F2, 5, random.Random(5))
    for s in ("1", "ab", "aBBab", "BBabaBab"):
        g = F2.word(s)
        before = sum(t.reads for t in tables)
        assert expectation(phi, g) == expectation(fresh, g)
        assert sum(t.reads for t in tables) - before == min(len(g), 5) + 1 <= 6


def test_covariance_equals_the_fraction_oracle():
    phi, psi = _dense_depth2(), QQ_I * IA + LocallyConstantFunction.constant(F2, Fraction(1, 3))
    for g in F2.ball(3):
        oracle = (
            _fraction_moments(phi * psi.conjugate(), g)[0]
            - _fraction_moments(phi, g)[0] * _fraction_moments(psi, g)[0].conjugate()
        )
        assert covariance(phi, psi, g) == oracle


def test_envelope_constant_closed_form():
    # K(1) = sqrt(2) * 1 * 2 = 2 sqrt(2) for a depth-1 indicator in F_2, the
    # envelope at sphere k = 1
    assert sigma_envelope(IA, 1) == pytest.approx(2.0 * math.sqrt(2.0))


def test_envelope_dominates_all_spheres():
    for group, radius in ((F2, 6), (F3, 4)):
        phi = LocallyConstantFunction.indicator(group, group.word("a"))
        profile = DeviationProfile.compute(phi, radius)
        for m, s in enumerate(profile.sphere_max_sq()):
            bound = sigma_envelope(phi, m)
            assert math.sqrt(float(s)) <= bound + 1e-12


def test_envelope_valid_below_depth():
    phi = LocallyConstantFunction.indicator(F2, F2.word("ab"))
    # m < depth(phi): envelope must still dominate sigma <= sup norm
    assert sigma_envelope(phi, 0) >= math.sqrt(float(deviation_sq(phi, IDENTITY)))


def test_powers_of_a_frozen_values():
    # numerators obey x -> 3x + 2 over denominators 16 * 9^(m-1)
    expected = [
        Fraction(3, 16),
        Fraction(11, 144),
        Fraction(35, 1296),
        Fraction(107, 11664),
        Fraction(323, 104976),
        Fraction(971, 944784),
    ]
    g = IDENTITY
    for m, want in enumerate(expected, start=1):
        g = mul(g, F2.word("a"))
        s = deviation_sq(IA, g)
        assert s == want
        if m >= 2:
            assert Fraction(1, 3) < s / expected[m - 2] < Fraction(1, 2)


def test_profile_rows_match_per_element_statistics():
    # prefix-class sharing must reproduce the per-g values exactly; the
    # depth-2 function exercises the directly evaluated rows with |g| < k
    rng = random.Random(7)
    values = [0, 1, Fraction(1, 2), 1j, (Fraction(-2, 3), 1)]
    random_depth2 = LocallyConstantFunction(
        F2, 2, {w: rng.choice(values) for w in F2.sphere(2)}
    )
    dense_f3 = LocallyConstantFunction(
        F3,
        1,
        {
            w: GaussianRational(Fraction(i + 1, 7), Fraction(3 - i, 5))
            for i, w in enumerate(F3.sphere(1))
        },
    )
    for phi, radius in ((random_depth2, 4), (dense_f3, 3)):
        profile = DeviationProfile.compute(phi, radius)
        assert [r.g for r in profile.rows] == phi.group.ball(radius)
        for row in profile.rows:
            assert row.length == len(row.g)
            assert row.expectation == expectation(phi, row.g)
            assert row.deviation_sq == deviation_sq(phi, row.g)


@pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_profile_walks_prefix_classes_without_enumerating_the_ball(monkeypatch, group, depth):
    import treeboundary.deviation as deviation_module

    phi = _dense_function(group, depth, seed=depth)
    vs = VisualStructure(group, math.log(2 * group.n - 1))
    calls = []

    def counted(phi, g):
        calls.append(g)
        return mean_and_deviation_sq(phi, g)

    def refuse(*args):
        raise AssertionError("a profile enumerated group elements")

    monkeypatch.setattr(FreeGroup, "iter_ball", refuse)
    monkeypatch.setattr(FreeGroup, "iter_sphere", refuse)
    monkeypatch.setattr(deviation_module, "mean_and_deviation_sq", counted)
    profile = DeviationProfile.compute(phi, 5)
    lp_report(profile, 2.0, vs)
    lp_report(profile, 3.0, vs)
    profile.write_json(io.StringIO(), rank=group.n)
    profile.write_csv(io.StringIO())
    assert len(calls) == sum(group.sphere_count(min(m, depth)) for m in range(6))


def test_profile_golden_csv_row():
    profile = DeviationProfile.compute(IA, 2, label="indicator_a")
    buf = io.StringIO()
    profile.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "g,|g|,Re E,Im E,sigma^2"
    assert "b,1,1/12,0/1,11/144" in lines
    assert len(lines) == 1 + 17  # header + |B_2|


def test_profile_json_shape():
    profile = DeviationProfile.compute(IA, 2)
    buf = io.StringIO()
    profile.write_json(buf, rank=2)
    obj = json.loads(buf.getvalue())
    assert obj["radius"] == 2
    assert obj["rank"] == 2
    assert len(obj["rows"]) == 17
    row_b = next(r for r in obj["rows"] if r["g"] == "b")
    assert row_b == {
        "g": "b",
        "length": 1,
        "expectation": ["1/12", "0/1"],
        "deviation_sq": "11/144",
    }


def test_profile_budget():
    from treeboundary import BudgetError

    # the budget charges the 1 + 9 x 4 = 37 prefix classes of B_9, not
    # the 14,581 elements that no profile enumerates
    assert F2.prefix_class_count(9, 1) == 37
    assert sum(len(s) for s in DeviationProfile.compute(IA, 9, budget=37).spheres) == 37
    with pytest.raises(BudgetError, match="37 prefix classes"):
        DeviationProfile.compute(IA, 9, budget=36)
    # a depth-3 function: 1 + 4 + 12 + 36 x 7 classes at radius 9
    assert F2.prefix_class_count(9, 3) == 269 == sum(
        F2.sphere_count(min(m, 3)) for m in range(10)
    )
    assert F2.prefix_class_count(2, 3) == F2.growth_count(2)



@pytest.mark.parametrize("group", [F2, FreeGroup(3)], ids=["F2", "F3"])
def test_class_budget_by_length_counts_each_class_by_its_sphere(group):
    from treeboundary import BudgetError

    # spheres first..last are charged their classes and sum m |S_min(m,k)|,
    # both from the radii alone; it raises exactly when one passes the budget
    for k in range(4):
        for first in range(6):
            for last in range(first, 9):
                classes = sum(group.sphere_count(min(m, k)) for m in range(first, last + 1))
                radii = sum(m * group.sphere_count(min(m, k)) for m in range(first, last + 1))
                group.check_class_budget(max(classes, radii), k, first, last, by_length=True)
                if radii > classes:
                    with pytest.raises(BudgetError, match=f"^{radii} class sphere radii exceed"):
                        group.check_class_budget(radii - 1, k, first, last, by_length=True)

# a label that JSON must escape: a quote, a backslash and a non-ASCII letter
ODD_LABEL = 'we"ird\\lab\u00e9l'


def _dense_function(group, depth, seed):
    rng = random.Random(seed)
    values = [0, 1, Fraction(-2, 3), 1j, (Fraction(5, 7), Fraction(-1, 3))]
    return LocallyConstantFunction(
        group, depth, {w: rng.choice(values) for w in group.sphere(depth)}
    )


def _row_by_row_reports(profile, rank):
    """The deviation report as it was written one row at a time: a dict
    through json.dumps, and csv.writer over per-row "p/q" strings."""
    frac = lambda x: f"{x.numerator}/{x.denominator}"
    obj = {
        "phi": profile.phi_label,
        "radius": profile.radius,
        "rank": rank,
        "rows": [
            {
                "g": word_to_str(r.g),
                "length": r.length,
                "expectation": [frac(r.expectation.re), frac(r.expectation.im)],
                "deviation_sq": frac(r.deviation_sq),
            }
            for r in profile.rows
        ],
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g", "|g|", "Re E", "Im E", "sigma^2"])
    for r in profile.rows:
        writer.writerow(
            [
                word_to_str(r.g),
                r.length,
                frac(r.expectation.re),
                frac(r.expectation.im),
                frac(r.deviation_sq),
            ]
        )
    return json.dumps(obj, indent=2, sort_keys=True) + "\n", buf.getvalue()


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
def test_profile_writers_match_the_row_by_row_oracle(group, depth):
    phi = _dense_function(group, depth, seed=10 * group.n + depth)
    for radius in range(6):
        profile = DeviationProfile.compute(phi, radius, label=ODD_LABEL)
        want_json, want_csv = _row_by_row_reports(profile, group.n)
        got_json, got_csv = io.StringIO(), io.StringIO()
        profile.write_json(got_json, rank=group.n)
        profile.write_csv(got_csv)
        assert got_json.getvalue() == want_json
        assert got_csv.getvalue() == want_csv


def test_profile_writer_streams_its_rows(monkeypatch):
    import treeboundary.deviation as deviation_module

    # 39,365 rows, about 7 MB of JSON: the writer holds a run of rows at a
    # time, where it held a list of every row and their join (and every
    # member string, cached on the profile)
    profile = DeviationProfile.compute(_dense_function(F2, 1, seed=1), 9)
    buf = io.StringIO()
    tracemalloc.start()
    try:
        profile.write_json(buf, rank=2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = len(buf.getvalue())
    assert size > 7 * 10**6
    assert peak - kept < size // 10  # kept: the text in buf
    # runs of 3 members, not up to 729: the same bytes
    want_csv = io.StringIO()
    profile.write_csv(want_csv)
    monkeypatch.setattr(deviation_module, "_RUN", 1)
    got_json, got_csv = io.StringIO(), io.StringIO()
    profile.write_json(got_json, rank=2)
    profile.write_csv(got_csv)
    assert got_json.getvalue() == buf.getvalue()
    assert got_csv.getvalue() == want_csv.getvalue()
