"""Invariant suite behind ``treeboundary verify-all``.

Each check is a module-level function registered with a stable name; the
runner executes them in registration order and reports (name, ok, detail)
triples.  Details are deterministic strings (exact rationals or 17-digit
floats, never timings), so two runs with the same configuration produce
identical reports.

The word and measure checks enumerate every case on letter tuples and
integers and leave none out by the tree's symmetry; what they share is
computed once per shape: the closed-form weights and the pair-sum walks.

The operator and cocycle checks read fiber vectors as runs:
``operator-pi-identity`` checks P through the rank-one identities of
outer(v, v) and compares ||u||^2 with the exact sigma^2 per h, and
``chern-consistency`` the fiber trace at each exact h with the signed
cocycle summand at h.  No check builds a matrix or needs numpy; the dense
oracles belong to the tests.

``tol_scale`` multiplies every floating-point tolerance.  Scale 1 is the
standard gate; scale 0 demands exact float equality and is expected to fail
(it exercises the nonzero-exit path of the CLI).  Checks that compare exact
rationals ignore the scale.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat
from typing import Callable

from . import chern as chern_mod
from . import operators as ops
from .boundary import (
    BoundaryPoint,
    Cylinder,
    CylinderMeasure,
    VisualStructure,
    cylinder_image,
    cylinder_measure,
    mass_sum,
    pushforward_table,
    pushforward_weights,
    weak_distance_to_delta,
)
from .deviation import (
    DeviationProfile,
    deviation_sq,
    deviation_sq_pairsum,
    sigma_envelope,
)
from .functions import QQ_I, LocallyConstantFunction, float_str, random_unit_function
from .summability import (
    dplus_surrogate_check,
    exact_sphere_sum,
    hausdorff_dimension,
    lp_report,
    summability_threshold,
)
from .words import (
    DEFAULT_BUDGET,
    IDENTITY,
    BudgetError,
    FreeGroup,
    Frozen,
    Word,
    common_prefix_len,
    gromov_inverse,
    mul,
    word_to_str,
)


class VerifyContext(Frozen):
    def __init__(
        self,
        group: FreeGroup,
        vs: VisualStructure,
        radius: int,
        seed: int,
        tol_scale: float,
        budget: int = DEFAULT_BUDGET,
    ):
        self.__dict__.update(
            group=group, vs=vs, radius=radius, seed=seed, tol_scale=tol_scale, budget=budget
        )


class CheckResult:
    def __init__(self, name: str, ok: bool, detail: str):
        self.name = name
        self.ok = ok
        self.detail = detail


CheckFn = Callable[[VerifyContext], tuple[bool, str]]
_REGISTRY: list[tuple[str, CheckFn]] = []


def _check(name: str):
    def register(fn: CheckFn) -> CheckFn:
        _REGISTRY.append((name, fn))
        return fn

    return register


def check_names() -> list[str]:
    return [name for name, _ in _REGISTRY]


def _indicators(group: FreeGroup) -> list[LocallyConstantFunction]:
    return [
        LocallyConstantFunction.indicator(group, Word((letter,)))
        for letter in range(group.alphabet_size)
    ]


def _charge(ctx: VerifyContext, count: int, unit: str) -> None:
    """Charge a check's work before it enumerates anything (exit 3).  The
    measure checks have |B_2| (|S_1| + |S_2|) = |B_2| (|B_2| - 1) cases."""
    if count > ctx.budget:
        raise BudgetError(count, ctx.budget, f"{count} {unit} exceed budget {ctx.budget}")


@_check("growth-closed-form")
def _growth(ctx: VerifyContext) -> tuple[bool, str]:
    rmax = max(ctx.radius, 4)
    groups = [FreeGroup(n) for n in (2, 3)]
    # |B_r| grows with r and n, so the largest ball of each rank is charged
    # before any ball is enumerated
    for group in groups:
        group.check_budget(ctx.budget, R=rmax)
    for group in groups:
        for r in range(rmax + 1):
            if len(group.ball(r, budget=ctx.budget)) != group.growth_count(r):
                return False, f"ball enumeration mismatch at n={group.n}, R={r}"
    return True, f"enumerated balls match the closed form for n=2,3 up to R={rmax}"


@_check("hyperbolicity")
def _hyperbolicity(ctx: VerifyContext) -> tuple[bool, str]:
    """(x, y) >= min((x, z), (y, z)) on every triple of B_2, from the matrix
    G of Gromov products, one ``gromov_inverse`` call per pair on letters:
    the pair (x, y) fails iff S_t(x) & S_t(y) != 0, with t = G[x][y] + 1 and
    S_t(x) the bit set {z : G[x][z] >= t}, and the lowest set bit names the
    first failing z in (x, y, z) order."""
    _charge(ctx, ctx.group.growth_count(2) ** 2, "Gromov pairs")
    ball = ctx.group.ball(2, budget=ctx.budget)
    letters = [x.letters for x in ball]
    # row x of G as bytes; reversed, each value >= t read as a 1, it is S_t(x)
    rows = [bytes(map(gromov_inverse, repeat(x.inverse().letters), letters)) for x in ball]
    ones = [bytes(48 + (v >= t) for v in range(256)) for t in range(max(map(max, rows)) + 2)]
    above = [[int(row[::-1].translate(table), 2) for table in ones] for row in rows]
    for i, x in enumerate(ball):
        for j, t in enumerate(rows[i]):
            fails = above[i][t + 1] & above[j][t + 1]
            if fails:
                z = (fails & -fails).bit_length() - 1
                return False, f"0-hyperbolicity fails at ({x}, {ball[j]}, {ball[z]})"
    return True, f"Gromov product 0-hyperbolic on {len(ball) ** 3} triples from B_2"


@_check("measure-partition")
def _measure(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    _charge(ctx, group.growth_count(2) * (group.growth_count(2) - 1), "(g, w) cases")
    masses = {}
    for depth in range(1, 4):
        level = {w.letters: cylinder_measure(Cylinder(w), group) for w in group.sphere(depth)}
        total, den = mass_sum(level.values())
        if total != den:
            return False, f"depth-{depth} masses sum to {Fraction(total, den)}"
        masses.update(level)
    cells = group.sphere(2)
    for w in cells:
        mass = masses[w.letters]
        total, den = mass_sum(masses[u] for u in group.iter_sphere_letters(3, w.letters))
        if total * mass.denominator != mass.numerator * den:
            return False, f"children of [{w}] do not partition it"
    for g in group.ball(2):
        # only a failing table makes the CylinderMeasure, to name the fault
        total, weights = pushforward_table(g, 2, group)
        if min(weights) < 0 or sum(weights) != total:
            CylinderMeasure(group, 2, {w: Fraction(c, total) for w, c in zip(cells, weights)})
    return True, "partitions of unity and pushforward tables exact at depths 1-3"


@_check("preimage-decomposition")
def _preimage(ctx: VerifyContext) -> tuple[bool, str]:
    """The pieces of each case (g, w), sorted, must be prefix-free (the
    verdict of testing all pairs for disjointness), and their mass,
    sum q^(D - |p|) over 2n q^(D-1), must be c_l / M, q = 2n - 1."""
    group = ctx.group
    _charge(ctx, group.growth_count(2) * (group.growth_count(2) - 1), "(g, w) cases")
    q, deep = 2 * group.n - 1, 4  # |g| + |w|, the deepest piece
    den = 2 * group.n * q ** (deep - 1)
    scaled = [den] + [q ** (deep - d) for d in range(1, deep + 1)]  # den * mu of a depth-d piece
    # the closed form once per shape (|g|, |w|, l): M and the weight c_l
    shapes = {(m, k): pushforward_weights(m, k, group) for m in range(3) for k in (1, 2)}
    cells = [w.letters for depth in (1, 2) for w in group.sphere(depth)]
    cases = 0
    for g in group.ball(2):
        a, ginv = g.letters, g.inverse().letters
        first = a[0] if a else None
        for w in cells:
            pieces = cylinder_image(ginv, w, group)
            if len(pieces) == 1:
                mass = scaled[len(pieces[0])]
            else:
                pieces.sort()
                if any(p == r[: len(p)] for p, r in zip(pieces, pieces[1:])):
                    return False, f"overlap in preimage of [{word_to_str(w)}] under {g}"
                mass = sum([scaled[len(p)] for p in pieces])
            total, weights = shapes[len(a), len(w)]
            if mass * total != weights[common_prefix_len(a, w) if w[0] == first else 0] * den:
                return False, f"mass mismatch for g={g}, w={word_to_str(w)}"
            cases += 1
    return True, f"preimage covers disjoint with exact mass on {cases} cases"


@_check("deviation-identity")
def _deviation_identity(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    phis = _indicators(group)
    phis.append(phis[0] * QQ_I + phis[1])
    cases = 0
    for phi in phis:
        for g in group.ball(2):
            if deviation_sq(phi, g) != deviation_sq_pairsum(phi, g):
                return False, f"pair-sum identity fails at g={g}"
            cases += 1
    return True, f"sigma^2 equals the pair-sum form exactly on {cases} cases"


@_check("deviation-envelope")
def _envelope(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    rmax = max(ctx.radius, 4)
    worst = 0.0
    for phi in (_indicators(group)[0], _indicators(group)[0] * QQ_I + _indicators(group)[1]):
        profile = DeviationProfile.compute(phi, rmax, budget=ctx.budget)
        for m, s in enumerate(profile.sphere_max_sq()):
            bound = sigma_envelope(phi, m) ** 2
            if float(s) > bound:
                return False, f"envelope violated at sphere {m}"
            if bound > 0:
                worst = max(worst, float(s) / bound)
    return True, f"sphere maxima under the envelope up to R={rmax}; max ratio {float_str(worst)}"


@_check("furstenberg-rate")
def _furstenberg(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    a = Word((0,))
    omega = BoundaryPoint(IDENTITY, a)
    n2 = 2 * group.n
    g = IDENTITY
    for m in range(1, 9):
        g = mul(g, a)
        expected = 2 * Fraction(1, n2) * Fraction(1, n2 - 1) ** (m - 1)
        got = weak_distance_to_delta(g, omega, 1, group)
        if got != expected:
            return False, f"distance at m={m} is {got}, expected {expected}"
    return True, "weak distance to the endpoint matches 2 (1/2n) (2n-1)^(1-m) for m<=8"


@_check("dimension-formula")
def _dimension(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    vs = VisualStructure(group)
    d = hausdorff_dimension(vs)
    tol = 1e-15 * ctx.tol_scale
    if abs(d - 1.0) > tol:
        return False, f"dimension at eps=ln(2n-1) is {float_str(d)}"
    threshold = summability_threshold(ctx.vs)
    expected = max(2.0, hausdorff_dimension(ctx.vs))
    if threshold != expected:
        return False, f"threshold {float_str(threshold)} != max(2, D)"
    return True, f"D(eps=ln(2n-1)) = {float_str(d)}; threshold = {float_str(threshold)}"


@_check("summability-witness")
def _summability(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    vs = ctx.vs
    phi = _indicators(group)[0]
    radius = max(ctx.radius, 5)
    profile = DeviationProfile.compute(phi, radius, budget=ctx.budget)
    above = lp_report(profile, 3.0, vs)
    limit = (2 * group.n - 1) ** -0.5 + 0.1
    tail = above.tail_ratios[2:]
    if any(r > limit for r in tail):
        return False, f"p=3 sphere ratio {float_str(max(tail))} above {float_str(limit)}"
    # sigma^2(1_[a])(e) = mu[a] (1 - mu[a]), mu[a] = 1/2n: the p=2 sphere
    # sums start there at m = 0 and rise towards 1/n
    witness = Fraction(2 * group.n - 1, 4 * group.n**2)
    sums = [exact_sphere_sum(sphere, 1) for sphere in profile.spheres]
    if min(sums) < witness:
        return False, f"p=2 sphere sum {min(sums)} below the divergence witness {witness}"
    surrogate = dplus_surrogate_check(group, vs, radius)
    if not surrogate.ok:
        return False, f"sorted-decay surrogate ratio {float_str(surrogate.max_ratio)}"
    return True, (
        f"p=3 ratios <= {float_str(limit)}, p=2 sphere sums >= {witness} (least past "
        f"m=0 {float_str(min(sums[1:]))}), sorted-decay ratio {float_str(surrogate.max_ratio)}"
    )


@_check("operator-pi-identity")
def _pi_identity(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    R = min(ctx.radius, 2)
    trunc = ops.Truncation(group, R, 1 + R)
    phi = _indicators(group)[0]
    # P = I x outer(v, v): P^2 - P = (v.v - 1) outer(v, v), P - P* has the
    # entries 2i Im(v_i v_j), and the trace of P is |B_R| v.v
    v = ops.fiber_unit(trunc)
    vv = ops.run_dot(v, v)
    values = [x for _, x in v]
    tol_p = 1e-12 * ctx.tol_scale
    if abs(vv - 1) * max(abs(x) for x in values) ** 2 > tol_p:
        return False, "P is not idempotent"
    if 2 * max(abs((x * y).imag) for x in values for y in values) > tol_p:
        return False, "P is not self-adjoint"
    rank = trunc.dim_group * vv.real
    if abs(rank - trunc.dim_group) > 1e-9 * ctx.tol_scale:
        return False, f"rank of P is {float_str(rank)}, expected {trunc.dim_group}"
    report = ops.verify_pi_identity(phi, trunc)
    tol = 1e-10 * ctx.tol_scale
    if report.pi_error > tol:
        return False, f"Pi*Pi error {float_str(report.pi_error)} above {float_str(tol)}"
    if report.compression_error > tol:
        return False, f"compression error {float_str(report.compression_error)}"
    return True, (
        f"R={R}, m={1 + R}: Pi*Pi error {float_str(report.pi_error)}, "
        f"P lambda P error {float_str(report.compression_error)}"
    )


@_check("commutator-spectrum")
def _commutator(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    trunc = ops.Truncation(group, 1, 2)
    phi = _indicators(group)[0]
    values = ops.commutator_singular_values(phi, trunc)
    match = ops.match_deviation_table(phi, trunc, values)
    if len(match.nonzero) != match.expected:
        return False, f"got {len(match.nonzero)} nonzero values, expected {match.expected}"
    gap = match.error
    tol = 1e-9 * ctx.tol_scale
    if gap > tol:
        return False, f"singular values off the deviation table by {float_str(gap)}"
    return True, f"multiset matches the deviation table, max gap {float_str(gap)}"


@_check("homotopy-inequality")
def _homotopy(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    trunc = ops.Truncation(group, 1, 2)
    rng = random.Random(ctx.seed)
    one = LocallyConstantFunction.constant(group, 1)
    # P(1) has the block outer(w, conj w), P the block outer(v, v): their
    # max-abs gap over the pairs of runs of (w, v)
    w = ops.homotopy_vector(one, trunc)
    pairs = [(y, x) for _, y, x in ops.segments(w, ops.fiber_unit(trunc))]
    gap = max(abs(y * t.conjugate() - x * u) for y, x in pairs for t, u in pairs)
    if gap > 1e-12 * ctx.tol_scale:
        return False, "P(1) differs from the fiberwise mean projection"
    worst = 0.0
    for _ in range(10):
        eta1 = random_unit_function(group, rng.choice((1, 2)), rng)
        eta2 = random_unit_function(group, rng.choice((1, 2)), rng)
        try:
            norm_diff, bound = ops.homotopy_projection_check(eta1, eta2, trunc)
        except AssertionError:
            return False, "projection distance exceeds 2||eta1 - eta2||"
        if bound > 0:
            worst = max(worst, norm_diff / bound)
    return True, f"10 random unit pairs; max ||P(e1)-P(e2)|| / bound = {float_str(worst)}"


@_check("compression-identity")
def _compression(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    trunc = ops.Truncation(group, 2, 3)
    # dense random values, so that the residual is rounding noise, not 0
    rng = random.Random(ctx.seed)
    terms = [
        (random_unit_function(group, 1, rng), IDENTITY),
        (random_unit_function(group, 1, rng), Word((0,))),
    ]
    err = ops.verify_compression_identity(terms, trunc)
    tol = 1e-12 * ctx.tol_scale
    if err > tol:
        return False, f"compressed matrix off by {float_str(err)}"
    return True, f"P lambda(a) P matches translation-by-expectation, error {float_str(err)}"


@_check("conditional-lower-bound")
def _conditional(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    trunc = ops.Truncation(group, 2, 4)
    ind = _indicators(group)
    terms = [(ind[0], IDENTITY), (ind[1], Word((0,)))]
    if not ops.conditional_lower_bound_check(terms, trunc, tol=1e-9 * ctx.tol_scale):
        return False, "||Pi(a) delta_h|| fell below sigma(E(a))(h)"
    return True, "||Pi(a) delta_h|| >= sigma(E(a))(h) on B_{R//2}"


@_check("chern-consistency")
def _chern(ctx: VerifyContext) -> tuple[bool, str]:
    group = ctx.group
    ind = _indicators(group)
    e = IDENTITY
    a, b, A, B = Word((0,)), Word((2,)), Word((1,)), Word((3,))

    off = [(ind[0], a), (ind[1], e), (ind[0], e), (ind[1], e)]
    for name, terms in (("identical-argument", [(ind[0], e)] * 4), ("nontrivial-product", off)):
        cv = chern_mod.cocycle_value(chern_mod.CocycleInput(3, terms), 3, budget=ctx.budget)
        if cv.exact_partial or cv.total:
            return False, f"{name} cocycle: partial sum or total not exactly 0"

    trunc = ops.Truncation(group, 2, 3)
    terms = [(ind[0], a), (ind[2], A), (ind[1], b), (ind[3], B)]
    nonzero = chern_mod.CocycleInput(3, terms)
    report = chern_mod.trace_oracle_report(nonzero, trunc)
    value = chern_mod.cocycle_value(nonzero, 2, budget=ctx.budget)
    identity = chern_mod.trace_identity(nonzero, trunc, value, report)
    if not identity.compared:
        return False, "no group element has an exact chain to compare"
    tol = identity.tolerance * ctx.tol_scale
    margin = f"on {identity.compared} h, max gap {float_str(identity.gap)}"
    if identity.gap > tol:
        return False, f"fiber trace off the signed summand {margin} above {float_str(tol)}"
    return True, f"exact vanishing holds; fiber trace = signed summand {margin} <= {float_str(tol)}"


def run_all(ctx: VerifyContext, workers: int = 1) -> list[CheckResult]:
    """Run every registered check serially, in registration order.

    A check that raises has failed, except that a ``BudgetError`` propagates:
    running out of budget is no invariant violation.  ``workers`` is
    ignored; the checks always run in this process.
    """
    results = []
    for name, fn in _REGISTRY:
        try:
            ok, detail = fn(ctx)
        except BudgetError:
            raise
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, ok=ok, detail=detail))
    return results
