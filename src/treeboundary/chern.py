"""Cyclic cocycle evaluation with certified tails and a trace oracle.

Two independent routes to the same number:

* ``cocycle_value`` evaluates the covariance-product formula: for terms
  a^i = phi_i . g_i with g_0 g_1 ... g_n = 1 (n odd, sign (-1)^((n+1)/2)),

      sum_h cov(psi_0, psi_1) ... cov(psi_{n-1}, psi_n)(h)
    - sum_h cov(psi_n, psi_0) cov(psi_1, psi_2) ... cov(psi_{n-2}, psi_{n-1})(h)

  where psi_i shifts phi_i by the prefix product g_0 ... g_{i-1} and cov is
  the bilinear pairing E(phi psi) - E(phi) E(psi) (the trace of a product of
  commutators is multilinear in the phi_i, so no conjugation enters).  The
  partial sum over B_R is exact rational; the tail over |h| > R is bounded
  by per-sphere envelopes summed as a geometric series.  With K the largest
  depth among the psi_i and the pair products, every expectation in the
  summand depends on h only through the prefix class (prefix_K h, |h|), so
  sphere m is summed over ``FreeGroup.prefix_classes(m, K)``: |S_min(m,K)|
  class terms, each evaluated at the class's member and weighted by its
  size |S_m| / |S_min(m,K)|, the same walk that deviation profiles use.

* ``trace_oracle_report`` computes the truncated trace of
  (2P - 1)[P, lambda(a^0)] ... [P, lambda(a^n)] directly.  Every commutator
  is block rank <= 2, so the product collapses to at most 2^(n+1) rank-one
  chains per group basis element and the dense matrix is never materialized
  (the dense budget does not apply; only enumeration budgets do).  The
  fiber blocks come from ``operators.fiber_diagonal``, which evaluates
  (p_i h)^-1 . phi_i on the depth-m cylinders, run by run of cells with one
  value, from phi_i's own table, not from a translated table, and uses no
  pushforward closed form, so the oracle stays independent of
  ``cocycle_value``.  ``trace_oracle_report`` enumerates B_R and walks the
  depth-m cells with no budget of its own; callers guard both with
  ``Truncation.check_enumeration_budget``.

For degree 1 the per-sphere bounds do not decay and the tail is reported as
infinity; the value is still computed but uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .deviation import expectation, sigma_envelope, sphere_envelope_constant
from .functions import QQ_ONE, QQ_ZERO, GaussianRational, LocallyConstantFunction, translate
from .operators import Truncation, fiber_diagonal, fiber_projection, fiber_unit
from .words import DEFAULT_BUDGET, IDENTITY, FreeGroup, Word, mul


@dataclass(frozen=True)
class CocycleInput:
    """Degree-n cocycle arguments a^i = phi_i . g_i, i = 0..n."""

    degree: int
    terms: tuple[tuple[LocallyConstantFunction, Word], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((phi, g) for phi, g in self.terms)
        )
        if self.degree < 1 or self.degree % 2 == 0:
            raise ValueError("degree must be odd and >= 1")
        if len(self.terms) != self.degree + 1:
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 1} terms, "
                f"got {len(self.terms)}"
            )
        group = self.terms[0][0].group
        for phi, g in self.terms:
            if phi.group != group:
                raise ValueError("all functions must share one group")
            group.check_letters(g.letters)

    @property
    def group(self) -> FreeGroup:
        return self.terms[0][0].group

    @property
    def group_product(self) -> Word:
        out = IDENTITY
        for _, g in self.terms:
            out = mul(out, g)
        return out


def shifted_functions(inp: CocycleInput) -> list[LocallyConstantFunction]:
    """psi_i = (g_0 ... g_{i-1}).phi_i; psi_0 = phi_0."""
    out = []
    prefix = IDENTITY
    for phi, g in inp.terms:
        out.append(translate(prefix, phi))
        prefix = mul(prefix, g)
    return out


def _pairings(degree: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    pairs_a = [(i, i + 1) for i in range(0, degree, 2)]
    pairs_b = [(degree, 0)] + [(i, i + 1) for i in range(1, degree - 1, 2)]
    return pairs_a, pairs_b


def sphere_term_bound(
    psis: Sequence[LocallyConstantFunction], m: int, group: FreeGroup
) -> float:
    """Certified bound on |sum over sphere m of term_A - term_B|.

    Each cyclic block uses every psi_i exactly once, and every covariance
    factor obeys |cov(psi, psi')(h)| <= sigma(psi)(h) sigma(psi')(h), so a
    single product of sphere envelopes bounds both blocks.
    """
    product = 1.0
    for psi in psis:
        product *= sigma_envelope(psi, m)
    return 2.0 * group.sphere_count(m) * product


@dataclass
class CertifiedValue:
    value: complex
    radius: int
    tail_bound: float
    exact_partial: GaussianRational
    sphere_abs: list[float]
    sphere_bounds: list[float]

    @property
    def certified(self) -> bool:
        return math.isfinite(self.tail_bound)


def cocycle_value(
    inp: CocycleInput, radius: int, budget: int = DEFAULT_BUDGET
) -> CertifiedValue:
    """Exact partial sum over B_radius plus a closed-form geometric tail.

    Each sphere is summed per prefix class (see the module docstring); the
    class sums are exact, so the result equals the sum over every h.
    """
    group = inp.group
    group.check_budget(budget, R=radius)
    if inp.group_product != IDENTITY:
        return CertifiedValue(0j, radius, 0.0, QQ_ZERO, [], [])
    psis = shifted_functions(inp)
    pairs_a, pairs_b = _pairings(inp.degree)
    sign = QQ_ONE if ((inp.degree + 1) // 2) % 2 == 0 else -QQ_ONE
    # the bilinear pairing cov(psi_i, psi_j)(h) = E(psi_i psi_j)(h) -
    # E(psi_i)(h) E(psi_j)(h); each pair's product is built once
    products = {pair: psis[pair[0]] * psis[pair[1]] for pair in pairs_a + pairs_b}
    # every E(.)(h) above depends on h only through (prefix_K h, |h|)
    K = max(f.depth for f in (*psis, *products.values()))

    partial = QQ_ZERO
    sphere_abs: list[float] = []
    sphere_bounds: list[float] = []
    for m in range(radius + 1):
        sphere_sum = QQ_ZERO
        for _, h, size in group.prefix_classes(m, K):
            means = [expectation(psi, h) for psi in psis]
            covs = {
                (i, j): expectation(prod, h) - means[i] * means[j]
                for (i, j), prod in products.items()
            }
            term_a = QQ_ONE
            for pair in pairs_a:
                term_a = term_a * covs[pair]
            term_b = QQ_ONE
            for pair in pairs_b:
                term_b = term_b * covs[pair]
            sphere_sum = sphere_sum + (term_a - term_b) * size
        partial = partial + sphere_sum
        sphere_abs.append(math.sqrt(float(sphere_sum.abs2())))
        sphere_bounds.append(sphere_term_bound(psis, m, group))

    partial = sign * partial
    # ratio of consecutive per-sphere bounds: sphere count grows by (2n-1),
    # each of the (n+1)/2 envelope pairs shrinks by (2n-1)^-1
    ratio = (2 * group.n - 1) ** ((1 - inp.degree) / 2.0)
    if ratio >= 1.0:
        tail = math.inf
    else:
        tail = sphere_term_bound(psis, radius + 1, group) / (1.0 - ratio)
    return CertifiedValue(
        value=partial.to_complex(),
        radius=radius,
        tail_bound=tail,
        exact_partial=partial,
        sphere_abs=sphere_abs,
        sphere_bounds=sphere_bounds,
    )


# ----------------------------------------------------------------------
# truncated trace of (2P-1) [P, lambda(a^0)] ... [P, lambda(a^n)]

@dataclass
class TraceOracleReport:
    value: complex
    window_correction: float
    chain_exits: int
    inexact_blocks: int


def _suffix_products(inp: CocycleInput) -> list[Word]:
    """p_i = g_i g_{i+1} ... g_n; p_0 is the full product."""
    out = [IDENTITY] * (inp.degree + 1)
    suffix = IDENTITY
    for i in range(inp.degree, -1, -1):
        suffix = mul(inp.terms[i][1], suffix)
        out[i] = suffix
    return out


def _per_h_envelope(
    inp: CocycleInput, points: list[Word], constants: list[float]
) -> float:
    """Certified bound on a single fiber trace: 2 prod_i sigma-envelopes.

    The fiber factor of [P, lambda(a^i)] at group position p_i h is a rank-2
    commutator with both singular values equal to sigma(phi_i)(p_i h); the
    product of the n+1 factors has rank <= 2, so its trace against the
    unitary (2P-1) is at most 2 prod_i sigma_i, and compression to depth m
    only shrinks each variance.  ``constants`` holds each term's
    ``sphere_envelope_constant``, computed once per report.
    """
    bound = 2.0
    for (phi, _), point, constant in zip(inp.terms, points, constants):
        bound *= sigma_envelope(phi, len(point), constant)
    return bound


def _check_oracle_terms(inp: CocycleInput, trunc: Truncation) -> None:
    """Each term's translation must stay in B_R and its function must be no
    deeper than the fiber level."""
    for phi, g in inp.terms:
        if len(g) > trunc.R:
            raise ValueError("term translation leaves the group ball")
        if phi.depth > trunc.m:
            raise ValueError("term function deeper than the fiber level")


def trace_oracle_report(inp: CocycleInput, trunc: Truncation) -> TraceOracleReport:
    """Rank-one-chain evaluation of the truncated trace, with the certified
    correction for chains that exit B_R or pass through inexact blocks."""
    _check_oracle_terms(inp, trunc)
    if inp.group_product != IDENTITY:
        # every chain lands in an off-diagonal block: the trace is exactly 0
        return TraceOracleReport(0j, 0.0, 0, 0)

    suffixes = _suffix_products(inp)
    constants = [sphere_envelope_constant(phi) for phi, _ in inp.terms]
    v = fiber_unit(trunc)
    total = 0j
    correction = 0.0
    chain_exits = 0
    inexact_blocks = 0
    for h in trunc.group_basis:
        points = [mul(p, h) for p in suffixes]
        if any(len(point) > trunc.R for point in points):
            chain_exits += 1
            correction += _per_h_envelope(inp, points, constants)
            continue
        if any(
            phi.depth + len(point) > trunc.m
            for (phi, _), point in zip(inp.terms, points)
        ):
            inexact_blocks += 1
            correction += 2.0 * _per_h_envelope(inp, points, constants)
        # chain of rank-2 blocks [outer(v,v), diag(d_i)] = v y^T - y v^T
        # with y = d_i * v; products of rank-1 terms stay rank one:
        # (x y^T)(z w^T) = (y . z) (x w^T), plain dots throughout.
        chains: list[tuple[complex, np.ndarray, np.ndarray]] = [(1.0 + 0j, None, None)]
        first = True
        for (phi, _), point in zip(inp.terms, points):
            d = fiber_diagonal(phi, point, trunc)
            y = d * v
            if first:
                chains = [(1.0 + 0j, v, y), (-1.0 + 0j, y, v)]
                first = False
                continue
            new_chains = []
            for coeff, x, w in chains:
                new_chains.append((coeff * np.dot(w, v), x, y))
                new_chains.append((-coeff * np.dot(w, y), x, v))
            chains = new_chains
        # tr((2 outer(v,v) - 1)(x w^T)) = 2 (v.x)(w.v) - (w.x)
        for coeff, x, w in chains:
            total += coeff * (
                2.0 * np.dot(v, x) * np.dot(w, v) - np.dot(w, x)
            )
    return TraceOracleReport(
        value=complex(total),
        window_correction=correction,
        chain_exits=chain_exits,
        inexact_blocks=inexact_blocks,
    )


def trace_oracle_dense(inp: CocycleInput, trunc: Truncation) -> complex:
    """Same trace through explicit fiber-block matrix products.

    Independent of the rank-one-chain algebra above (used to cross-check
    it); still block-diagonal in h, so only dim_fiber^2 matrices appear.
    """
    _check_oracle_terms(inp, trunc)
    if inp.group_product != IDENTITY:
        return 0j
    suffixes = _suffix_products(inp)
    p_fiber = fiber_projection(trunc)
    sign_block = 2.0 * p_fiber - np.eye(trunc.dim_fiber, dtype=complex)
    total = 0j
    for h in trunc.group_basis:
        points = [mul(p, h) for p in suffixes]
        if any(len(point) > trunc.R for point in points):
            continue
        block = sign_block
        for (phi, _), point in zip(inp.terms, points):
            d = fiber_diagonal(phi, point, trunc)
            block = block @ (p_fiber @ np.diag(d) - np.diag(d) @ p_fiber)
        total += complex(np.trace(block))
    return total
