"""Finite truncations of the regular representation and their identities."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from treeboundary import operators
from treeboundary import (
    BudgetError,
    FreeGroup,
    GaussianRational,
    IDENTITY,
    LocallyConstantFunction,
    QQ_ZERO,
    Truncation,
    Word,
    commutator_singular_values,
    conditional_lower_bound_check,
    deviation_sq,
    expectation,
    fiber_diagonal,
    fiber_unit,
    homotopy_projection,
    homotopy_projection_check,
    mul,
    operator_norm,
    projection_P,
    random_unit_function,
    rep_crossed,
    rep_function,
    rep_group,
    translate,
    verify_compression_identity,
    verify_pi_identity,
)

F2 = FreeGroup(2)

IA = LocallyConstantFunction.indicator(F2, F2.word("a"))
IB = LocallyConstantFunction.indicator(F2, F2.word("b"))


@pytest.fixture(scope="module")
def t23():
    return Truncation(F2, 2, 3)


@pytest.fixture(scope="module")
def t12():
    return Truncation(F2, 1, 2)


def test_dimensions(t23, t12):
    assert t23.dim_group == 17
    assert t23.dim_fiber == 36
    assert t23.dim == 612
    assert t12.dim == 5 * 12
    tiny = Truncation(F2, 0, 1)
    assert tiny.dim == 4


def test_truncation_charges_its_ball_and_its_sphere():
    # |B_0| = 1 and |S_3| = 36 are charged one at a time, ball first
    with pytest.raises(BudgetError, match="^enumeration of 36 elements exceeds budget 35$"):
        Truncation(FreeGroup(2, 35), 0, 3)
    assert Truncation(FreeGroup(2, 36), 0, 3).dim == 36
    with pytest.raises(BudgetError, match="^enumeration of 5 elements exceeds budget 4$"):
        Truncation(FreeGroup(2, 4), 1, 1)  # |S_1| = 4 fits, |B_1| = 5 does not
    # and not their product: dim 5 x 36 = 180
    assert Truncation(FreeGroup(2, 36), 1, 3).dim == 180


def test_dense_budget_guard(t23):
    # a dense oracle past OPERATOR_BUDGET = 6000: dim = |B_3| |S_5| = 53 x 324
    with pytest.raises(BudgetError) as err:
        projection_P(Truncation(F2, 3, 5))
    assert err.value.requested == 17172
    # block-wise paths ignore the dense budget: 2 |B_2| values of dim 612
    values = commutator_singular_values(IA, t23)
    assert len(values) == 2 * t23.dim_group == 34


def test_projection_is_projection(t12):
    P = projection_P(t12).matrix
    assert np.max(np.abs(P @ P - P)) <= 1e-12
    assert np.max(np.abs(P - P.conj().T)) <= 1e-12
    assert round(float(np.trace(P).real)) == t12.dim_group  # rank |B_R|


def test_rep_function_multiplicativity(t12):
    La = rep_function(IA, t12).matrix
    Lb = rep_function(IB, t12).matrix
    Lab = rep_function(IA * IB, t12).matrix
    assert np.max(np.abs(La @ Lb - Lab)) <= 1e-12
    one = LocallyConstantFunction.constant(F2, 1)
    assert np.max(np.abs(rep_function(one, t12).matrix - np.eye(t12.dim))) == 0.0


def test_rep_function_adjoint_is_conjugate(t12):
    phi = IA + (0, 1) * IB  # complex-valued
    L = rep_function(phi, t12).matrix
    Lc = rep_function(phi.conjugate(), t12).matrix
    assert np.max(np.abs(L.conj().T - Lc)) <= 1e-12


def test_rep_group_isometry_on_surviving_columns(t12):
    for g in (F2.word("a"), F2.word("ab")):
        U = rep_group(g, t12).matrix
        col_norms = np.linalg.norm(U, axis=0)
        assert set(np.round(col_norms, 12)) <= {0.0, 1.0}
    assert np.max(np.abs(rep_group(IDENTITY, t12).matrix - np.eye(t12.dim))) == 0.0


def test_rep_group_covariance(t12):
    # lambda(g) M(phi) lambda(g)^* = M(g.phi) on columns that stay in the ball
    g = F2.word("a")
    U = rep_group(g, t12).matrix
    L = rep_function(IB, t12).matrix
    Lt = rep_function(translate(g, IB), t12).matrix
    lhs = U @ L @ U.conj().T
    # compare only on the range of U (columns h with gh still in B_R)
    proj = U @ U.conj().T
    assert np.max(np.abs(lhs - proj @ Lt @ proj)) <= 1e-12


def test_pi_identity_frozen_truncation(t23):
    report = verify_pi_identity(IA, t23)
    assert report.pi_error <= 1e-10
    assert report.compression_error <= 1e-10


def test_pi_identity_complex_function(t12):
    phi = IA + (0, 1) * IB
    report = verify_pi_identity(phi, t12)
    assert report.pi_error <= 1e-12
    assert report.compression_error <= 1e-12


# a dense complex depth-1 function: every value nonzero, real and imaginary
DENSE = (
    (Fraction(2, 5), Fraction(-3, 7)) * IA
    + (Fraction(-1, 3), Fraction(5, 11)) * IB
    + (Fraction(4, 13), Fraction(1, 2)) * LocallyConstantFunction.indicator(F2, F2.word("A"))
    + (Fraction(-6, 17), Fraction(-2, 9)) * LocallyConstantFunction.indicator(F2, F2.word("B"))
)


def _group_embedding(trunc):
    """Isometry l2(B_R) -> truncation sending delta_h to delta_h x constant 1."""
    v = operators.expand_runs(fiber_unit(trunc))
    return np.kron(np.eye(trunc.dim_group), v.reshape(-1, 1))


def test_pi_identity_matches_dense_oracle(t23):
    # the dense 612 x 612 route, kept here only as the oracle
    assert t23.dim == 612
    P = projection_P(t23).matrix
    L = rep_function(DENSE, t23).matrix
    L_star = rep_function(DENSE.conjugate(), t23).matrix
    Pi = (np.eye(t23.dim) - P) @ L_star @ P
    v = operators.expand_runs(fiber_unit(t23))
    sigma_sq = [float(deviation_sq(DENSE, h)) for h in t23.group_basis]
    target = np.kron(np.diag(sigma_sq), np.outer(v, v))
    dense_pi_error = float(np.max(np.abs(Pi.conj().T @ Pi - target)))
    V = _group_embedding(t23)
    means = np.diag([expectation(DENSE, h).to_complex() for h in t23.group_basis])
    dense_compression_error = float(np.max(np.abs(V.conj().T @ L @ V - means)))

    report = verify_pi_identity(DENSE, t23)
    assert abs(report.pi_error - dense_pi_error) <= 1e-13
    assert abs(report.compression_error - dense_compression_error) <= 1e-13
    assert report.pi_error <= 1e-10
    assert report.compression_error <= 1e-10


def test_commutator_values_match_dense_svd(t23):
    P = projection_P(t23).matrix
    L = rep_function(DENSE, t23).matrix
    want = np.linalg.svd(P @ L - L @ P, compute_uv=False)
    got = np.array(commutator_singular_values(DENSE, t23))
    assert got.size == 2 * t23.dim_group
    assert np.max(np.abs(got - want[: got.size])) <= 1e-12
    assert np.max(want[got.size :]) <= 1e-12  # the rest of the 612 are zeros


def _translated_fiber_diagonal(phi, h, trunc):
    """The translated-table route, kept here only as the oracle: build
    h^-1.phi at depth k + |h|, then refine it to depth m, or average it over
    each depth-m cell when it is deeper."""
    shifted = translate(h.inverse(), phi)
    if shifted.depth <= trunc.m:
        refined = shifted.refine(trunc.m)
        return np.array([refined.values[c].to_complex() for c in trunc.group.iter_sphere(trunc.m)])
    sums = {}
    for u, value in shifted.values.items():
        key = u.letters[: trunc.m]
        sums[key] = sums.get(key, QQ_ZERO) + value
    q = trunc.group.alphabet_size - 1
    weight = Fraction(1, q ** (shifted.depth - trunc.m))
    return np.array(
        [(sums[c.letters] * weight).to_complex() for c in trunc.group.iter_sphere(trunc.m)]
    )


def _random_complex_function(group, depth, rng):
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((3, 7, 11)))

    cells = group.sphere(depth)
    return LocallyConstantFunction(
        group, depth, {w: GaussianRational(part(), part()) for w in cells}
    )


# (rank, depth, m) -> how many h of B_{m+1} to draw, where not every h is tried
_FIBER_SAMPLES = {(3, 2, 3): 8, (2, 1, 4): 80, (2, 2, 4): 30, (2, 1, 5): 40}


@pytest.mark.parametrize(
    "rank, depth, m",
    [(2, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1), (2, 0, 3), (3, 0, 2),
     *_FIBER_SAMPLES],
)
def test_fiber_diagonal_matches_translated_tables(rank, depth, m):
    # h in B_{m+1}, every h or a seeded sample: exact blocks
    # (depth + |h| <= m), averaged ones, and blocks with |h| > m
    group = FreeGroup(rank)
    trunc = Truncation(group, 0, m)
    phi = _random_complex_function(group, depth, random.Random(10 * rank + depth))
    hs = list(group.iter_ball(m + 1))
    if (rank, depth, m) in _FIBER_SAMPLES:
        rng = random.Random(100 * m + depth)
        hs = rng.sample(hs, _FIBER_SAMPLES[rank, depth, m]) + [h for h in hs if len(h) <= 1]
    assert any(len(h) > m for h in hs)
    values = {v.to_complex() for v in phi.values.values()}
    averaged = False
    for h in hs:
        want = _translated_fiber_diagonal(phi, h, trunc)
        got = fiber_diagonal(phi, h, trunc)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), h  # bitwise, not approximate
        averaged = averaged or not values.issuperset(want.tolist())
    assert averaged or depth == 0  # some cell took a conditional average, not one value

    # teeth: moving a single value of phi changes some block
    w = next(iter(phi.values))
    moved = LocallyConstantFunction(
        group, depth, {**phi.values, w: phi.values[w] + Fraction(1, 10**6)}
    )
    assert any(
        not np.array_equal(
            fiber_diagonal(moved, h, trunc), _translated_fiber_diagonal(phi, h, trunc)
        )
        for h in hs
    )


def _reduced(a, b):
    """The reduced product of two reduced letter tuples."""
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1] == b[j] ^ 1:
        i, j = i - 1, j + 1
    return a[:i] + b[j:]


def _cell_by_cell(phi, h, m, table):
    """The fiber diagonal at h, one cell c at a time: phi at the key
    mul(h, c)[:k], or, where the key is not fixed (k >= 1 and all of c
    cancels, or |h c| < k), the exact average of phi(h .) over the
    extensions of c, the mean of its children's averages."""
    group, k, a = phi.group, phi.depth, h.letters

    def average(c):
        r = _reduced(a, c)
        if (k >= 1 and len(r) == len(a) - len(c)) or len(r) < k:
            children = [average(c + (y,)) for y in group.follow[c[-1]]]
            return sum(children, QQ_ZERO) * Fraction(1, len(children))
        return phi.values[Word(r[:k])]

    out = []
    for c in group.iter_sphere_letters(m):
        r = _reduced(a, c)
        if (k >= 1 and len(r) == len(a) - m) or len(r) < k:
            out.append(average(c).to_complex())
        else:
            out.append(table[r[:k]])
    return np.array(out, dtype=complex)


def _fiber_runs_mismatches(group, radius, depth, m):
    """Check ``fiber_runs`` at every h in B_radius on a complex function of
    the depth with three values, so that runs of different keys can merge;
    return the blocks whose expansion is not byte-equal to
    ``_cell_by_cell``."""
    rng = random.Random(100 * group.n + 10 * depth + m)
    values = [
        QQ_ZERO, GaussianRational(Fraction(1)), GaussianRational(Fraction(1, 3), Fraction(-2, 7))
    ]
    phi = LocallyConstantFunction(
        group, depth, {w: rng.choice(values) for w in group.sphere(depth)}
    )
    table = {w.letters: v.to_complex() for w, v in phi.values.items()}
    trunc = Truncation(group, 0, m)
    bad = []
    for h in group.iter_ball(radius):
        runs = operators.fiber_runs(phi, h, trunc)
        ends = [end for end, _ in runs]
        assert ends == sorted(set(ends)) and ends[-1] == trunc.dim_fiber
        # adjacent runs differ in value
        assert all(x != y for (_, x), (_, y) in zip(runs, runs[1:]))
        if depth == 1:
            assert len(runs) <= 2 * group.n + 1, (h, runs)
        got = np.repeat(np.array([v for _, v in runs], dtype=complex), np.diff([0] + ends))
        if got.tobytes() != _cell_by_cell(phi, h, m, table).tobytes():
            bad.append(h)
    return bad


@pytest.mark.parametrize("group, radius", [(F2, 4), (FreeGroup(3), 3)], ids=["F2", "F3"])
def test_fiber_runs_expand_to_the_cell_by_cell_block(group, radius):
    for depth, m in itertools.product(range(4), range(1, 5)):
        assert _fiber_runs_mismatches(group, radius, depth, m) == [], (depth, m)


def test_fiber_runs_keep_the_sign_of_a_zero():
    # -1/10^400 rounds to -0.0, which == 0.0 but is another binary64 value,
    # so its runs must not merge with those of 0
    tiny = GaussianRational(Fraction(-1, 10**400))
    phi = LocallyConstantFunction(
        F2, 1, {w: tiny if w.letters == (1,) else QQ_ZERO for w in F2.sphere(1)}
    )
    table = {w.letters: v.to_complex() for w, v in phi.values.items()}
    trunc = Truncation(F2, 0, 2)
    for h in F2.iter_ball(3):
        want = _cell_by_cell(phi, h, 2, table)
        assert fiber_diagonal(phi, h, trunc).tobytes() == want.tobytes(), h
    assert len(operators.fiber_runs(phi, IDENTITY, trunc)) == 3  # a, A, then b and B


def test_fiber_runs_fail_with_the_cancellation_cylinder_one_letter_short(monkeypatch):
    # q = h^-1[:t + 1]: the cells with exactly t letters cancelled would
    # take h[:k] by arithmetic, although their key is h[:k-1] c[t]
    original = FreeGroup.cancellation_cylinder

    def shifted(self, h, k, m):
        q, start = original(self, h, k, m)
        if not q:  # t = 0 when |h| < k: no cell has the key h[:k]
            return q, start
        q = tuple(x ^ 1 for x in reversed(h.letters))[: min(len(q) + 1, m)]
        return q, self.lex_rank(q) * self.run_sizes(m)[len(q)]

    monkeypatch.setattr(FreeGroup, "cancellation_cylinder", shifted)
    # at depth 1, t = min(|h|, m) already, so the shift moves nothing
    for depth in (2, 3):
        assert _fiber_runs_mismatches(F2, 3, depth, 3)


def _same_runs(a, b):
    """Equal ends and bitwise equal values (``_same``)."""
    return [end for end, _ in a] == [end for end, _ in b] and all(
        map(operators._same, [x for _, x in a], [x for _, x in b])
    )


def _shared_walk_mismatches(group, radius, depths):
    """Read every block of B_radius for two complex functions of each depth
    and every m from 1 to depth + radius through one shared truncation per
    (depth, m), and compare each with ``fiber_runs`` on a fresh truncation.
    Return the mismatched (depth, m, h), and the numbers of blocks read with
    t = 0 and with extended cells: blocks whose walk has a run longer than
    m, so that a depth-m cell takes the average of the runs under it."""
    rng = random.Random(group.n)
    values = [
        QQ_ZERO, GaussianRational(Fraction(1)), GaussianRational(Fraction(1, 3), Fraction(-2, 7))
    ]
    bad, whole, extended = [], 0, 0
    for depth in depths:
        cells = group.sphere(depth)
        phis = [
            LocallyConstantFunction(group, depth, {w: rng.choice(values) for w in cells})
            for _ in range(2)
        ]
        for m in range(1, depth + radius + 1):
            shared = Truncation(group, 0, m)
            for h in group.iter_ball(radius):
                whole += not group.cancellation_cylinder(h, depth, m)[0]
                for phi in phis:
                    trunc = Truncation(group, 0, m)
                    fresh = operators.fiber_runs(phi, h, trunc)
                    (_, _, shape), = trunc.cylinders.values()
                    extended += any(len(p) > m for p, _ in trunc.walks[shape])
                    if not _same_runs(operators.fiber_runs(phi, h, shared), fresh):
                        bad.append((depth, m, h))
    return bad, whole, extended


@pytest.mark.parametrize("group, radius", [(F2, 4), (FreeGroup(3), 3)], ids=["F2", "F3"])
def test_shared_shape_walks_give_the_fresh_walk_runs(group, radius):
    bad, whole, extended = _shared_walk_mismatches(group, radius, range(4))
    assert bad == []
    assert whole > 0 and extended > 0


@pytest.mark.parametrize(
    "shape",
    [
        lambda letters, t, k: (letters[: len(letters) - t + 1], k),  # without |h|
        lambda letters, t, k: (letters[: len(letters) - t], len(letters), k),  # without h[|h| - t]
    ],
    ids=["no length", "no last letter"],
)
def test_shared_shape_walks_fail_with_a_shape_short_of_a_part(shape, monkeypatch):
    monkeypatch.setattr(operators, "fiber_shape", shape)
    assert _shared_walk_mismatches(F2, 3, (1, 2))[0]


def test_pi_identity_has_teeth(t12, monkeypatch):
    exact_sq, exact_mean = operators.deviation_sq, operators.expectation
    with monkeypatch.context() as m:
        m.setattr(operators, "deviation_sq", lambda phi, h: exact_sq(phi, h) + 1e-6)
        report = verify_pi_identity(DENSE, t12)
        assert report.pi_error > 1e-10
        # the max-abs residual of Pi*Pi - sigma^2 vv*: 1e-6 times v_i v_j
        assert report.pi_error == pytest.approx(1e-6 / t12.dim_fiber, rel=1e-6)
        assert report.compression_error <= 1e-12
    with monkeypatch.context() as m:
        m.setattr(
            operators,
            "expectation",
            lambda phi, h: exact_mean(phi, h) + Fraction(1, 10**6),
        )
        report = verify_pi_identity(DENSE, t12)
        assert report.compression_error > 1e-10
        assert report.pi_error <= 1e-12


def test_pi_and_commutator_routes_share_the_truncation_walks(monkeypatch):
    # the spectrum report's two routes on one truncation walk its 9 fiber
    # shapes once, not once per route
    walks = []
    walk = FreeGroup.product_runs

    def counted(self, h, k, prefix=()):
        walks.append((h, k))
        return walk(self, h, k, prefix)

    monkeypatch.setattr(FreeGroup, "product_runs", counted)
    trunc = Truncation(F2, 2, 3)
    verify_pi_identity(DENSE, trunc)
    assert len(walks) == 9
    commutator_singular_values(DENSE, trunc)
    assert len(walks) == 9


def test_pi_identity_window_enforced():
    deep = LocallyConstantFunction.indicator(F2, F2.word("ab"))
    with pytest.raises(ValueError):
        verify_pi_identity(deep, Truncation(F2, 2, 3))  # 2 + 2 > 3


def test_commutator_values_match_deviation_table(t12):
    values = np.array(commutator_singular_values(IA, t12))
    expected = []
    for h in t12.group_basis:
        s = math.sqrt(float(deviation_sq(IA, h)))
        expected.extend([s, s])
    expected = np.array(sorted(expected, reverse=True))
    nonzero = values[values > 1e-12]
    assert nonzero.size == expected[expected > 1e-12].size
    assert np.max(np.abs(nonzero - expected[: nonzero.size])) <= 1e-9
    # sqrt(3)/4 = 0.43301... is the top value, from sigma^2 = 3/16
    assert nonzero[0] == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-12)


def test_commutator_spectrum_at_612(t23):
    values = np.array(commutator_singular_values(IA, t23))
    top = math.sqrt(3.0) / 4.0
    assert values[0] == pytest.approx(top, abs=1e-9)
    assert values[1] == pytest.approx(top, abs=1e-9)
    assert np.all(values >= -1e-15)


def test_homotopy_projection_identity_case(t12):
    one = LocallyConstantFunction.constant(F2, 1)
    P_eta = homotopy_projection(one, t12).matrix
    P = projection_P(t12).matrix
    assert np.max(np.abs(P_eta - P)) <= 1e-12


def test_homotopy_projection_is_projection(t12):
    eta = random_unit_function(F2, 1, random.Random(2))
    Q = homotopy_projection(eta, t12).matrix
    assert np.max(np.abs(Q @ Q - Q)) <= 1e-12
    assert np.max(np.abs(Q - Q.conj().T)) <= 1e-12


def test_homotopy_inequality_random_pairs(t12):
    rng = random.Random(4)
    for _ in range(20):
        eta1 = random_unit_function(F2, 1, rng)
        eta2 = random_unit_function(F2, 2, rng)
        norm_diff, bound = homotopy_projection_check(eta1, eta2, t12)
        assert norm_diff <= bound + 1e-12
    # identical pair: both sides exactly zero
    norm_diff, bound = homotopy_projection_check(eta1, eta1, t12)
    assert norm_diff == 0.0 and bound == 0.0


def test_homotopy_check_raises_on_violation(t12, monkeypatch):
    # an explicit raise, so the check still fails under python -O
    rng = random.Random(6)
    eta1 = random_unit_function(F2, 1, rng)
    eta2 = random_unit_function(F2, 2, rng)
    _, bound = homotopy_projection_check(eta1, eta2, t12)
    monkeypatch.setattr(operators, "rank_one_difference_norm", lambda w1, w2: bound + 1)
    with pytest.raises(AssertionError):
        homotopy_projection_check(eta1, eta2, t12)


def test_homotopy_requires_exact_unit(t12):
    near_one = LocallyConstantFunction.constant(F2, Fraction(99, 100))
    with pytest.raises(ValueError):
        homotopy_projection(near_one, t12)


@pytest.fixture(scope="module")
def t24():
    return Truncation(F2, 2, 4)


# a crossed-product element supported in B_1 with dense complex coefficients;
# two terms share g = a, so their fiber vectors land on one target
CROSSED = [
    (DENSE, IDENTITY),
    (DENSE.conjugate() * IB, F2.word("a")),
    (IA, F2.word("a")),
    (IA + IB, F2.word("B")),
]


def _dense_crossed_oracle(terms, trunc):
    """The dense route, kept here only as the oracle: lambda(a) from
    rep_crossed and P from projection_P; returns the compression error on
    B_R and ||Pi(a) delta_h|| for h in B_{R//2}."""
    A = rep_crossed(terms, trunc).matrix
    V = _group_embedding(trunc)
    expected = np.zeros((trunc.dim_group, trunc.dim_group), dtype=complex)
    for phi, g in terms:
        for j, h in enumerate(trunc.group_basis):
            i = trunc.group_index.get(mul(g, h))
            if i is not None:
                expected[i, j] += expectation(phi, mul(g, h)).to_complex()
    compression_error = float(np.max(np.abs(V.conj().T @ A @ V - expected)))
    P = projection_P(trunc).matrix
    norms = {}
    for h in F2.iter_ball(trunc.R // 2):
        column = V[:, trunc.group_index[h]]
        y = A.conj().T @ (P @ column)
        norms[h] = float(np.linalg.norm(y - P @ y))
    return compression_error, norms


@pytest.fixture(scope="module")
def crossed_oracle(t24):
    return _dense_crossed_oracle(CROSSED, t24)


def test_crossed_product_routes_match_dense_oracle(t24, crossed_oracle):
    # the dense 1,836 x 1,836 route against the block-wise one
    assert t24.dim == 1836
    dense_error, dense_norms = crossed_oracle
    error = verify_compression_identity(CROSSED, t24)
    assert abs(error - dense_error) <= 1e-12
    assert error <= 1e-12
    norms = operators.pi_delta_norms(CROSSED, t24)
    assert list(norms) == list(dense_norms) == list(F2.iter_ball(1))
    for h, norm in norms.items():
        assert abs(norm - dense_norms[h]) <= 1e-12, h
    assert min(norms.values()) > 0.1  # nonzero, so the comparison means something
    assert conditional_lower_bound_check(CROSSED, t24)


def test_crossed_product_routes_have_teeth(t24, crossed_oracle, monkeypatch):
    # moving one value of one term's function moves the block-wise operator
    # side but not the expectation table, nor the dense oracle's norms
    _, dense_norms = crossed_oracle
    w = next(iter(DENSE.values))
    moved = LocallyConstantFunction(
        F2, 1, {**DENSE.values, w: DENSE.values[w] + Fraction(1, 10**6)}
    )
    exact = operators.fiber_runs
    monkeypatch.setattr(
        operators,
        "fiber_runs",
        lambda phi, h, trunc: exact(moved if phi is DENSE else phi, h, trunc),
    )
    assert verify_compression_identity(CROSSED, t24) > 1e-10
    norms = operators.pi_delta_norms(CROSSED, t24)
    assert max(abs(norms[h] - dense_norms[h]) for h in norms) > 1e-10


def test_conditional_lower_bound(t23):
    terms = [(IA, IDENTITY), (IB, F2.word("a"))]
    assert conditional_lower_bound_check(terms, t23)


def test_conditional_lower_bound_can_fail(t23, monkeypatch):
    monkeypatch.setattr(
        operators, "pi_delta_norms", lambda terms, trunc: {IDENTITY: 0.0}
    )
    # sigma(E(a))(1) = sigma(IA)(1) = sqrt(3)/4 > 0, so a zero left side fails
    assert not conditional_lower_bound_check([(IA, IDENTITY)], t23)


def test_conditional_lower_bound_validates_support(t23):
    with pytest.raises(ValueError):
        conditional_lower_bound_check([(IA, F2.word("ab"))], t23)  # |g| > R//2


def test_compression_identity(t23):
    terms = [(IA, F2.word("a")), (IB, F2.word("B")), (IA + IB, IDENTITY)]
    assert verify_compression_identity(terms, t23) <= 1e-12


def test_compression_identity_depth_guard(t23):
    deep = LocallyConstantFunction.indicator(F2, F2.word("ab"))
    with pytest.raises(ValueError):
        verify_compression_identity([(deep, IDENTITY)], t23)


def test_rep_crossed_is_sum_of_products(t12):
    terms = [(IA, F2.word("a")), (IB, IDENTITY)]
    A = rep_crossed(terms, t12).matrix
    parts = sum(
        rep_function(phi, t12).matrix @ rep_group(g, t12).matrix
        for phi, g in terms
    )
    assert np.max(np.abs(A - parts)) == 0.0


def test_fiber_unit_is_unit(t12):
    v = fiber_unit(t12)
    assert [end for end, _ in v] == [t12.dim_fiber]  # one run: v is constant
    assert operators.run_dot(v, v) == pytest.approx(1.0, abs=1e-14)


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(F2, -1, 2)
    with pytest.raises(ValueError):
        Truncation(F2, 1, 0)
    assert Truncation(F2, 1, 2).window_exact(1)
    assert not Truncation(F2, 1, 2).window_exact(2)


def test_expectation_compression_entries(t12):
    # spot-check the documented matrix law: entry (gh, h) = E(phi_g)(gh)
    g = F2.word("a")
    A = rep_crossed([(IB, g)], t12).matrix
    V = np.zeros((t12.dim, t12.dim_group), dtype=complex)
    v = operators.expand_runs(fiber_unit(t12))
    for i in range(t12.dim_group):
        V[i * t12.dim_fiber : (i + 1) * t12.dim_fiber, i] = v
    compressed = V.conj().T @ A @ V
    for j, h in enumerate(t12.group_basis):
        gh = mul(g, h)
        i = t12.group_index.get(gh)
        if i is None:
            continue
        want = expectation(IB, gh).to_complex()
        assert compressed[i, j] == pytest.approx(want, abs=1e-12)


# ----------------------------------------------------------------------
# the closed forms on fiber runs against dense fiber blocks


def _bent(runs, factor):
    return [(end, x * factor) for end, x in runs]


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("factor", [1.0, 1 + 1e-6, 1.1, 1 + 0.1j])
def test_projection_identities_match_the_dense_block(rank, factor):
    # P^2 - P = (v.v - 1) outer(v, v), P - P* = 2i Im outer(v, v) and
    # tr P = |B_R| v.v, read from the runs of v; a bent v makes them nonzero
    trunc = Truncation(FreeGroup(rank), 1, 2)
    v = _bent(fiber_unit(trunc), factor)
    block = np.outer(operators.expand_runs(v), operators.expand_runs(v))
    vv = operators.run_dot(v, v)
    values = [x for _, x in v]
    idempotence = abs(vv - 1) * max(abs(x) for x in values) ** 2
    adjointness = 2 * max(abs((x * y).imag) for x in values for y in values)
    assert abs(idempotence - np.max(np.abs(block @ block - block))) <= 1e-12
    assert abs(adjointness - np.max(np.abs(block - block.conj().T))) <= 1e-12
    assert abs(trunc.dim_group * vv - trunc.dim_group * np.trace(block)) <= 1e-12
    u = operators.expand_runs(fiber_unit(trunc))
    assert np.array_equal(operators.fiber_projection(trunc), np.outer(u, u))


@pytest.mark.parametrize("rank", [2, 3])
def test_commutator_values_match_dense_block_svds(rank):
    # each block [outer(v, v), diag d_h] through LAPACK, against the Gram form
    group = FreeGroup(rank)
    trunc = Truncation(group, 1, 2)
    phi = _random_complex_function(group, 1, random.Random(rank))
    P = operators.fiber_projection(trunc)
    want = []
    for h in trunc.group_basis:
        D = np.diag(fiber_diagonal(phi, h, trunc))
        want.extend(np.linalg.svd(P @ D - D @ P, compute_uv=False))
    want.sort(reverse=True)
    got = commutator_singular_values(phi, trunc)
    assert len(want) == trunc.dim
    assert len(got) == 2 * trunc.dim_group
    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-12
    assert max(want[len(got) :]) <= 1e-12  # the other dim - 2 |B_1| are zeros
    assert min(got) > 1e-3


@pytest.mark.parametrize("rank", [2, 3])
def test_homotopy_difference_norm_matches_the_dense_block(rank):
    group = FreeGroup(rank)
    trunc = Truncation(group, 1, 2)
    rng = random.Random(10 + rank)
    etas = [random_unit_function(group, 1 + i % 2, rng) for i in range(6)]
    etas.append(LocallyConstantFunction.constant(group, 1))
    for eta1, eta2 in itertools.product(etas, repeat=2):
        w1 = operators.homotopy_vector(eta1, trunc)
        w2 = operators.homotopy_vector(eta2, trunc)
        x, y = operators.expand_runs(w1), operators.expand_runs(w2)
        dense = operator_norm(np.outer(x, x.conj()) - np.outer(y, y.conj()))
        got = operators.rank_one_difference_norm(w1, w2)
        assert abs(got - dense) <= 1e-12
        if eta1 is eta2:
            assert got == 0.0
