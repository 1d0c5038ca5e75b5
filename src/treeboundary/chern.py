"""Cyclic cocycle evaluation, exact over the whole group, and a trace oracle.

Two independent routes to the same number:

* ``cocycle_value`` evaluates the covariance-product formula: for terms
  a^i = phi_i . g_i with g_0 g_1 ... g_n = 1 (n odd, sign (-1)^((n+1)/2)),

      sum_h cov_0 cov_2 ... cov_{n-1}(h) - sum_h cov_1 cov_3 ... cov_n(h)

  where cov_i pairs the consecutive arguments i and i+1 (mod n+1).  In the
  crossed product they multiply to a^i a^(i+1) = pair_i . g_i g_(i+1),
  pair_i = phi_i (g_i.phi_(i+1)), the table ``phi_i * translate(g_i,
  phi_(i+1))`` of the function algebra, and cov_i is the bilinear pairing
  E(pair_i) - E(phi_i) E(g_i.phi_(i+1)) read at s_i h, s_i = g_i ... g_n
  (``CocycleInput.suffixes``), and E(g_i.phi_(i+1)) is E(phi_(i+1)) at
  s_(i+1) h (the trace of a product of commutators is multilinear in the
  phi_i, so no conjugation enters).  The partial sum over B_R is exact
  rational, and so is the sum over the whole group (``CocycleValue.total``,
  a series that ``summability.group_sum`` charges, solves and checks).  The
  signed summand at h (a ``CocycleValue`` called at h) depends on h only
  through the prefix class (prefix_K h, |h|), K = max_i depth(phi_i) +
  |s_i|, so sphere m is summed over ``FreeGroup.prefix_classes(m, K)``:
  |S_min(m,K)| class terms, each evaluated once at the class's member and
  weighted by its size |S_m| / |S_min(m,K)|, the same walk that deviation
  profiles use.  A class reads the integer sums of its expectations
  (O(depth) prefix lookups each, see ``deviation``) and combines them into
  Gaussian-integer numerators over one scale; a sphere adds size times
  numerators over the lcm of its classes' scales and makes one Gaussian
  rational.

* ``trace_oracle_report`` computes the truncated trace of
  (2P - 1)[P, lambda(a^0)] ... [P, lambda(a^n)] directly.  Every commutator
  block is [outer(v,v), diag d] = X J X^T with X = [v, d v] and
  J = [[0, 1], [-1, 0]], so by cyclicity each fiber trace is the trace of
  a product of 2x2 transfer matrices made of 2n + 2 dot products, and the
  dense matrix is never materialized (the dense budget does not apply;
  only enumeration budgets do).  The fiber blocks come from
  ``operators.fiber_runs``, which evaluates (s_i h)^-1 . phi_i on the
  depth-m cylinders as a few lexicographic runs of cells with one value,
  from phi_i's own table, not from a translated table, and uses no
  pushforward closed form, so the oracle stays independent of
  ``cocycle_value``.  Only the h whose chain stays in B_R are enumerated
  (``staying_h``): |s_i h| = |s_i| + |h| - 2 cpl(s_i^-1, h), so on each
  sphere they are the words that extend one prefix read off the chain, and
  the other h of B_R are counted, not walked.  The points s_i h are built
  on letter tuples.  The walk of a block's cancellation cylinder (one
  ``product_runs`` walk at depth k + |h|) depends on the point only
  through its shape (``words.fiber_shape``), so it is made once per shape,
  valued once per shape and function, and kept on the truncation; each
  further block of that shape is shifted into place, and a point that
  comes back with another function reads its cylinder from the
  truncation.  v is constant, so each dot product with v is a sum over
  the runs of one block and each dot product of two blocks a merge of their
  run ends (``operators.run_sum``, ``operators.run_dot``): a fiber costs
  O(runs), not O(dim_fiber), and no array is built.
  ``trace_oracle_report`` enumerates the staying h of B_R with no budget
  of its own; callers charge B_R and the depth-m sphere against their
  budget as caps on the truncation, though the oracle enumerates neither.

Both routes read phi_i at s_i h, and they meet one group element at a
time (``trace_identity``): at every h whose chain stays in B_R on exact
fiber blocks (depth(phi_i) + |s_i h| <= m), the fiber trace at h is the
signed summand at h, up to rounding; a comparison of no h holds nothing.
``trace_oracle_dense`` forms the same traces from dim_fiber x dim_fiber
products; it is a test oracle that imports numpy in its own body, and no
route here calls it.

For degree 1 the two pairings are one, cov_0 = cov_1 (the pair tables
phi_0 (g_0.phi_1) and phi_1 (g_1.phi_0) agree after the shift by g_0), so
the two terms cancel at every h and the value is exactly 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .deviation import _sums
from .functions import QQ_ZERO, GaussianRational, LocallyConstantFunction, translate
from .operators import (
    Runs,
    Truncation,
    fiber_diagonal,
    fiber_projection,
    fiber_runs,
    fiber_unit,
    run_dot,
    run_sum,
)
from .summability import group_sum
from .words import (
    DEFAULT_BUDGET, IDENTITY, FreeGroup, Frozen, Word, common_prefix_len, mul, reduced_word,
)

# the per-h identity's tolerance per fiber cell, relative to
# prod_i ||phi_i||_sup, which bounds both sides.  The gap on exact blocks is
# rounding alone and does not grow with dim_fiber: on the benchmark's seed-1
# terms it stays 3e-17 to 7e-17 from m = 5 to 80, while the tolerance grows
# as 3^m (7.8e-14 at m = 5, 3.9e3 at m = 40), so past m = 33 it cannot fail
IDENTITY_TOLERANCE = 2.0**-52


class CocycleInput(Frozen):
    """Degree-n cocycle arguments a^i = phi_i . g_i, i = 0..n."""

    def __init__(self, degree: int, terms: tuple[tuple[LocallyConstantFunction, Word], ...]):
        terms = tuple((phi, g) for phi, g in terms)
        if degree < 1 or degree % 2 == 0:
            raise ValueError("degree must be odd and >= 1")
        if len(terms) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} terms, got {len(terms)}")
        group = terms[0][0].group
        for phi, g in terms:
            if phi.group != group:
                raise ValueError("all functions must share one group")
            group.check_letters(g.letters)
        self.__dict__.update(degree=degree, terms=terms)

    @property
    def group(self) -> FreeGroup:
        return self.terms[0][0].group

    @cached_property
    def suffixes(self) -> tuple[Word, ...]:
        """The chain s_i = g_i g_(i+1) ... g_n, i = 0..n."""
        out, suffix = [], IDENTITY
        for _, g in reversed(self.terms):
            suffix = mul(g, suffix)
            out.append(suffix)
        return tuple(reversed(out))

    @property
    def group_product(self) -> Word:
        return self.suffixes[0]


class CocycleValue:
    """The cocycle sum of ``inp``.  Called at h, it gives the signed summand
    sign * (term_a - term_b) at h, from the n+1 functions phi_i and the n+1
    pair tables pair_i = ``phi_i * translate(g_i, phi_(i+1))``, Gaussian
    integers over D_i D_(i+1), each read at s_i h (see the module
    docstring): term_a multiplies the cov_i of even i, term_b those of odd
    i.

    Every expectation depends on h only through (prefix_K h, |h|),
    K = ``depth``, so each class is evaluated at the first of its elements
    asked for and looked up after; ``classes`` holds the values so far.  A
    class reads the integer sums of its 2(n+1) expectations from
    ``deviation._sums`` and puts them over the lcm T of their denominators
    D M, with no Fraction in between; the covariances are then Gaussian
    integers over T^2 and each term over T^(degree+1), and the class keeps
    its Gaussian-integer numerators over that scale (``numerators``).  A
    sphere sums size times numerators over the lcm of its classes' scales
    and makes one ``GaussianRational``; only a call at h makes the class's
    own.

    For a group product other than 1 no pair table is built (``pairs`` is
    None), and every sum is exactly 0.
    """

    def __init__(self, inp: CocycleInput, radius: int, budget: int = DEFAULT_BUDGET):
        self.group, self.degree, self.radius, self.budget = inp.group, inp.degree, radius, budget
        self.sign = 1 if ((inp.degree + 1) // 2) % 2 == 0 else -1
        self.classes: dict[tuple[tuple[int, ...], int], tuple[int, int, int]] = {}
        self.spheres: list[GaussianRational] = []  # the exact sphere sums, m = 0..radius
        self.pairs: list[LocallyConstantFunction] | None = None
        if inp.group_product == IDENTITY:
            self.phis, self.suffixes = [phi for phi, _ in inp.terms], inp.suffixes
            self.pairs = [
                phi * translate(g, self.phis[(i + 1) % len(self.phis)])
                for i, (phi, g) in enumerate(inp.terms)
            ]
            self.depth = max(phi.depth + len(s) for phi, s in zip(self.phis, self.suffixes))
            self.group.check_class_budget(budget, self.depth, 0, radius, by_length=True)
            self.spheres = [self.sphere(m) for m in range(radius + 1)]
        self.exact_partial = sum(self.spheres, QQ_ZERO)
        self.value = self.exact_partial.to_complex()

    def __call__(self, h: Word) -> GaussianRational:
        re, im, scale = self.numerators(h)
        return GaussianRational(Fraction(re, scale), Fraction(im, scale))

    def numerators(self, h: Word) -> tuple[int, int, int]:
        """The signed summand at h as (re, im, scale), the Gaussian integer
        re + i im over scale, evaluated once per class."""
        key = (h.letters[: self.depth], len(h))
        value = self.classes.get(key)
        if value is None:
            value = self.classes[key] = self._evaluate(h)
        return value

    def sphere(self, m: int) -> GaussianRational:
        """The exact sum over sphere m: kept up to the radius, and summed
        class by class past it, size times numerators over the lcm of the
        class scales."""
        if m < len(self.spheres):
            return self.spheres[m]
        classes = self.group.prefix_classes(m, self.depth)
        terms = [(self.numerators(h), size) for _, h, size in classes]
        den = math.lcm(*(scale for (_, _, scale), _ in terms))
        re = im = 0
        for (r, i, scale), size in terms:
            weight = size * (den // scale)
            re += r * weight
            im += i * weight
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def _evaluate(self, h: Word) -> tuple[int, int, int]:
        points = [mul(s, h) for s in self.suffixes]
        # the integer sums of the 2(n+1) expectations, E = (re + i im) / (D M)
        sums = [_sums(f, x) for fs in (self.phis, self.pairs) for f, x in zip(fs, points)]
        den = math.lcm(*(d * total for _, _, _, d, total in sums))
        over = [(re * (den // (d * total)), im * (den // (d * total)))
                for re, im, _, d, total in sums]
        m, prods = over[: len(points)], over[len(points):]
        covs = []
        for i, (pr, pi) in enumerate(prods):
            (ar, ai), (br, bi) = m[i], m[(i + 1) % len(m)]
            covs.append((pr * den - ar * br + ai * bi, pi * den - ar * bi - ai * br))

        def term(factors: list[tuple[int, int]]) -> tuple[int, int]:
            re, im = 1, 0
            for cr, ci in factors:
                re, im = re * cr - im * ci, re * ci + im * cr
            return re, im

        (ar, ai), (br, bi) = term(covs[0::2]), term(covs[1::2])
        # both terms have (degree + 1) / 2 factors over den^2
        return self.sign * (ar - br), self.sign * (ai - bi), den ** len(covs)

    @cached_property
    def total(self) -> GaussianRational:
        """The exact sum over the whole group, from ``group_sum``.

        Past K = ``depth`` a class has size (2n-1)^(m-K) and a summand of
        (degree + 1)/2 covariances, polynomials in x = (2n-1)^-m with no
        constant term: powers (degree - 1)/2 .. degree of x, J of them, and
        only degree 1, whose summands vanish, has x^0.  The classes of the
        spheres past the radius that the series reads, up to K+J, are
        charged against the budget first.
        """
        if self.pairs is None:
            return QQ_ZERO
        return group_sum(
            self.sphere, self.group, self.depth, self.radius,
            (self.degree - 1) // 2, self.degree, self.budget,
        )


def cocycle_value(inp: CocycleInput, radius: int, budget: int = DEFAULT_BUDGET) -> CocycleValue:
    """Exact partial sum over B_radius; the exact total over the group is
    ``total``, computed on first access.

    Each sphere is summed per prefix class (see the module docstring); the
    class sums are exact, so the result equals the sum over every h.  Each
    class is charged m times at sphere m, as its arithmetic grows with m.
    """
    return CocycleValue(inp, radius, budget)


# ----------------------------------------------------------------------
# truncated trace of (2P-1) [P, lambda(a^0)] ... [P, lambda(a^n)]

class TraceOracleReport:
    def __init__(
        self,
        value: complex,
        chain_exits: int,
        inexact_blocks: int,
        # the fiber trace at every h whose chain stays in B_R on exact blocks
        traces: dict[Word, complex],
    ):
        self.value = value
        self.chain_exits = chain_exits
        self.inexact_blocks = inexact_blocks
        self.traces = traces


def _check_oracle_terms(inp: CocycleInput, trunc: Truncation) -> None:
    """Each term's translation must stay in B_R and its function must be no
    deeper than the fiber level."""
    for phi, g in inp.terms:
        if len(g) > trunc.R:
            raise ValueError("term translation leaves the group ball")
        if phi.depth > trunc.m:
            raise ValueError("term function deeper than the fiber level")


def _fiber_trace(runs: list[Runs], w: float, dim_fiber: int) -> complex:
    """The trace of (2P - 1)[P, diag d_0] ... [P, diag d_n] on one fiber,
    from the fiber blocks d_i as runs and w = v_c^2, the same in every cell.

    [outer(v,v), diag(d_i)] = v y_i^T - y_i v^T = X_i J X_i^T with
    X_i = [v, y_i], y_i = d_i * v; by cyclicity the fiber trace is
    tr(J G_01 J G_12 ... J G_{n-1,n} J H), G_ij = X_i^T X_j and
    H = X_n^T (2 outer(v,v) - 1) X_0, 2x2 matrices of plain dots; v is
    constant, so each dot is w times a sum over the runs of the blocks.
    """
    vv = dim_fiber * w
    vy = [w * run_sum(r) for r in runs]
    a, b, c, e = 0.0, 1.0, -1.0, 0.0  # J = [[0, 1], [-1, 0]]
    for i in range(len(runs) - 1):
        # [[a, b], [c, e]] G_{i,i+1} J, G = [[vv, vy_{i+1}], [vy_i, y_i.y_{i+1}]]
        yy = w * run_dot(runs[i], runs[i + 1])
        x00, x01 = a * vv + b * vy[i], a * vy[i + 1] + b * yy
        x10, x11 = c * vv + e * vy[i], c * vy[i + 1] + e * yy
        a, b, c, e = -x01, x00, -x11, x10
    # H = 2 outer((vv, vy_n), (vv, vy_0)) - [[vv, vy_0], [vy_n, y_n.y_0]]
    h00, h01 = 2.0 * vv * vv - vv, 2.0 * vv * vy[0] - vy[0]
    h10 = 2.0 * vy[-1] * vv - vy[-1]
    h11 = 2.0 * vy[-1] * vy[0] - w * run_dot(runs[-1], runs[0])
    return complex(a * h00 + b * h10 + c * h01 + e * h11)


def staying_h(inp: CocycleInput, trunc: Truncation) -> Iterator[tuple[int, ...]]:
    """The letters of every h in B_R whose chain stays in B_R, |s_i h| <= R
    for every i, in the canonical order of ``trunc.group_basis``.

    At |h| = L, |s_i h| = |s_i| + L - 2 cpl(s_i^-1, h), so the chain stays
    exactly when h starts with s_i^-1[:need_i] for every i,
    need_i = ceil((|s_i| + L - R) / 2).  Sphere L's staying h are the words
    that extend the longest of those prefixes; there are none when some
    need_i exceeds min(|s_i|, L) or two prefixes disagree.
    """
    inverses = [s.inverse().letters for s in inp.suffixes]
    R = trunc.R
    for L in range(R + 1):
        prefix: tuple[int, ...] = ()
        for inv in inverses:
            need = max(0, (len(inv) + L - R + 1) // 2)
            if need > min(len(inv), L):
                break
            short, long = sorted((inv[:need], prefix), key=len)
            if long[: len(short)] != short:
                break
            prefix = long
        else:
            yield from trunc.group.iter_sphere_letters(L, prefix)


def trace_oracle_report(inp: CocycleInput, trunc: Truncation) -> TraceOracleReport:
    """Transfer-matrix evaluation of the truncated trace, fiber by fiber.

    Only the h whose chain stays in B_R are walked (``staying_h``); the
    others are dropped (zero padding) and counted in ``chain_exits``.  An h
    with a block past the exactness window still adds its fiber trace to
    the value, is counted in ``inexact_blocks`` and is left out of
    ``traces``.
    """
    _check_oracle_terms(inp, trunc)
    if inp.group_product != IDENTITY:
        # every chain lands in an off-diagonal block: the trace is exactly 0
        return TraceOracleReport(0j, 0, 0, {})

    # s_i h = s_i[:|s_i| - c] + h[c:], c = cpl(s_i^-1, h) the letters that cancel
    chains = [
        (s.letters, s.inverse().letters, phi) for s, (phi, _) in zip(inp.suffixes, inp.terms)
    ]
    w = fiber_unit(trunc)[0][1] ** 2
    total = 0j
    inexact_blocks = 0
    traces: dict[Word, complex] = {}
    for letters in staying_h(inp, trunc):
        runs, exact = [], True
        for s, inv, phi in chains:
            c = common_prefix_len(inv, letters)
            point = s[: len(s) - c] + letters[c:]
            exact = exact and phi.depth + len(point) <= trunc.m
            runs.append(fiber_runs(phi, reduced_word(point), trunc))
        trace = _fiber_trace(runs, w, trunc.dim_fiber)
        total += trace
        if exact:
            traces[reduced_word(letters)] = trace
        else:
            inexact_blocks += 1
    return TraceOracleReport(
        value=complex(total),
        chain_exits=trunc.dim_group - len(traces) - inexact_blocks,
        inexact_blocks=inexact_blocks,
        traces=traces,
    )


class TraceIdentity:
    """The per-h identity between the fiber traces and the summands."""

    def __init__(
        self,
        compared: int,  # the exact h of the oracle
        gap: float,  # largest |fiber trace - signed summand| over them
        tolerance: float,  # IDENTITY_TOLERANCE * dim_fiber * prod_i ||phi_i||_sup
    ):
        self.compared = compared
        self.gap = gap
        self.tolerance = tolerance

    @property
    def holds(self) -> bool:
        """The gap is within the tolerance on at least one h: an empty
        comparison holds nothing."""
        return self.compared > 0 and self.gap <= self.tolerance


def trace_identity(
    inp: CocycleInput, trunc: Truncation, value: CocycleValue, oracle: TraceOracleReport
) -> TraceIdentity:
    """Compare each of ``oracle.traces``, the oracle of ``inp`` on ``trunc``,
    with the signed summand at its h, from ``value.numerators(h)`` (a class
    past its radius is evaluated once)."""
    def summand(h: Word) -> complex:
        re, im, scale = value.numerators(h)
        return complex(re / scale, im / scale)  # each part correctly rounded

    gap = max((abs(trace - summand(h)) for h, trace in oracle.traces.items()), default=0.0)
    scale = trunc.dim_fiber * math.prod(phi.sup_norm() for phi, _ in inp.terms)
    return TraceIdentity(len(oracle.traces), gap, IDENTITY_TOLERANCE * scale)


def trace_oracle_dense(inp: CocycleInput, trunc: Truncation) -> complex:
    """Same trace through explicit fiber-block matrix products.

    A test oracle for the transfer-matrix algebra above, independent of it;
    still block-diagonal in h, so only dim_fiber^2 matrices appear.
    """
    import numpy as np

    _check_oracle_terms(inp, trunc)
    if inp.group_product != IDENTITY:
        return 0j
    p_fiber = fiber_projection(trunc)
    sign_block = 2.0 * p_fiber - np.eye(trunc.dim_fiber, dtype=complex)
    total = 0j
    for h in trunc.group_basis:
        points = [mul(s, h) for s in inp.suffixes]
        if any(len(point) > trunc.R for point in points):
            continue
        block = sign_block
        for (phi, _), point in zip(inp.terms, points):
            d = fiber_diagonal(phi, point, trunc)
            block = block @ (p_fiber @ np.diag(d) - np.diag(d) @ p_fiber)
        total += complex(np.trace(block))
    return total
