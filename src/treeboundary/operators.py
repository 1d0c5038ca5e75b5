"""Finite truncations of the regular representation on l2(G, L2(dX, mu)).

The Hilbert space is truncated in both factors: the group factor keeps the
ball B_R (canonical length-then-lex order), the function factor keeps the
span of normalized indicators 1_c / sqrt(mu(c)) of depth-m cylinders (lex
order).  Basis index of the pair (h, c) is ``h_index * dim_fiber + c_index``,
matching ``numpy.kron(group_factor, fiber_factor)``.

Truncation convention: group translation maps a basis vector whose image
leaves B_R to zero (zero-padding), and multiplication operators are
compressed to the depth-m span, which replaces a deeper-than-m function by
its conditional averages on depth-m cylinders.  Identity checks are
therefore only claimed on the exactness window ``function depth + R <= m``,
where both effects vanish; operators built outside the window carry
``window_exact=False`` instead of raising.

Every operator here is block-structured over h in B_R: P = I x outer(v, v)
with v = ``fiber_unit``, the constant unit vector of the fiber, made from
depth_mass(m) alone; lambda(phi) is block-diagonal with diagonal blocks, and
lambda(g) permutes blocks with zero padding.  Every fiber is read one way:
the diagonal block at h is a list of lexicographic runs of cells with one
value (``fiber_runs``), read off phi's own table: every cell outside one
cancellation cylinder has the key h[:k], and inside it the runs of
``FreeGroup.product_runs`` give each depth-m cylinder c the key
prefix_k(h c), or the exact average over its extensions where no key is
fixed.  ``fiber_diagonal`` expands the runs into the dense vector; no
translated table is built, and P(eta) reads eta as the block at the
identity.  Every identity and inequality here is checked block by
block and never holds a matrix larger than dim_fiber x dim_fiber; the Pi
identity and the Pi(a) delta_h norms need no matrix at all, as
Pi_h = outer(u, v) is read from the fiber vector u (``_off_constants``).
The constructors ``projection_P``, ``rep_function``, ``rep_group``,
``rep_crossed`` and ``homotopy_projection`` materialize dense complex
binary64 dim x dim matrices, guarded by ``check_dense_budget``; they are
only a small test oracle, and no route here calls them.  Everything is
single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .boundary import depth_mass
from .deviation import deviation_sq, expectation
from .functions import LocallyConstantFunction
from .svd import operator_norm, singular_values
from .words import IDENTITY, FreeGroup, Word, mul

OPERATOR_BUDGET = 6000

CrossedTerms = Sequence[tuple[LocallyConstantFunction, Word]]


@dataclass(frozen=True)
class Truncation:
    """Basis data for the truncation B_R x {depth-m cylinders}."""

    group: FreeGroup
    R: int
    m: int

    def __post_init__(self):
        if self.R < 0:
            raise ValueError("radius must be nonnegative")
        if self.m < 1:
            raise ValueError("function level must be >= 1")

    @cached_property
    def group_basis(self) -> tuple[Word, ...]:
        return tuple(self.group.iter_ball(self.R))

    @cached_property
    def group_index(self) -> dict[Word, int]:
        return {h: i for i, h in enumerate(self.group_basis)}

    @property
    def dim_group(self) -> int:
        return self.group.growth_count(self.R)

    @property
    def dim_fiber(self) -> int:
        return self.group.sphere_count(self.m)

    @property
    def dim(self) -> int:
        return self.dim_group * self.dim_fiber

    def check_dense_budget(self, budget: int = OPERATOR_BUDGET) -> None:
        """Guard dense materialization; block-wise algorithms skip this."""
        self.group.check_budget(budget, R=self.R, m=self.m)

    def check_enumeration_budget(self, budget: int) -> None:
        """Guard the enumerations of the block-wise routes: B_R and the
        depth-m sphere, each against ``budget``."""
        self.group.check_budget(budget, R=self.R)
        self.group.check_budget(budget, m=self.m)

    def window_exact(self, depth: int) -> bool:
        return depth + self.R <= self.m

    def require_window(self, *depths: int) -> None:
        """Raise ValueError unless every function depth is on the window."""
        if not all(map(self.window_exact, depths)):
            raise ValueError("exactness window requires depth(phi) + R <= m")


@dataclass
class TruncatedOperator:
    matrix: np.ndarray
    label: str
    trunc: Truncation
    window_exact: bool = True

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def fiber_unit(trunc: Truncation) -> np.ndarray:
    """Coordinates of the constant function 1 (a unit vector) in the fiber
    basis: sqrt(mu(c)) in every depth-m cell c."""
    return np.full(trunc.dim_fiber, math.sqrt(float(depth_mass(trunc.m, trunc.group))))


def fiber_projection(trunc: Truncation) -> np.ndarray:
    """The fiber block outer(v, v) of P, with v = ``fiber_unit(trunc)``."""
    v = fiber_unit(trunc)
    return np.outer(v, v).astype(complex)


def _same(a: complex, b: complex) -> bool:
    """Bitwise equality of two finite complex values: == and the same sign
    on every zero part."""
    return (
        a == b
        and math.copysign(1.0, a.real) == math.copysign(1.0, b.real)
        and math.copysign(1.0, a.imag) == math.copysign(1.0, b.imag)
    )


def fiber_runs(
    phi: LocallyConstantFunction, h: Word, trunc: Truncation
) -> list[tuple[int, complex]]:
    """The fiber diagonal at h (``fiber_diagonal``) as lexicographic runs
    (end, value): the cells from the previous run's end (0 for the first)
    up to ``end`` all take ``value``, and adjacent runs differ in value.

    Every cell outside the cancellation cylinder [q] of
    ``FreeGroup.cancellation_cylinder(h, k, m)``, k = depth(phi), takes
    phi(h[:k]), so those cells are at most two runs, counted by arithmetic;
    only the cells of [q] are walked, along ``FreeGroup.product_runs(h, k,
    m, q)``, each run taking phi(prefix_k(h c)).  A cell whose key is not
    fixed takes the exact average of phi(h .) over its extensions to depth
    k + |h| (``_extension_average``).  A depth-1 block has at most 2n + 1
    runs.
    """
    k, m = phi.depth, trunc.m
    group = trunc.group
    as_complex = phi.letter_complex
    sizes = group.run_sizes(m)
    q, start = group.cancellation_cylinder(h, k, m)
    pieces = [(start, as_complex[h.letters[:k]])] if start else []
    end = start
    for p, key in group.product_runs(h, k, m, q):
        if key is None:
            end += 1
            pieces.append((end, _extension_average(phi, h, p)))
        else:
            end += sizes[len(p)]
            pieces.append((end, as_complex[key]))
    if end < sizes[0]:
        pieces.append((sizes[0], as_complex[h.letters[:k]]))
    out = pieces[:1]
    for end, value in pieces[1:]:
        if _same(value, out[-1][1]):
            out[-1] = (end, value)
        else:
            out.append((end, value))
    return out


def _extension_average(phi: LocallyConstantFunction, h: Word, c: tuple[int, ...]) -> complex:
    """The exact average of phi(h .) over the depth-m cell c, read from the
    runs under it at depth k + |h|, where every key is fixed, as integer
    cell counts times phi's Gaussian-integer numerators; each part is one
    correctly rounded integer division."""
    group = phi.group
    den, numerators = phi.numerators
    deep = group.run_sizes(phi.depth + len(h))
    re = im = 0
    for u, key in group.product_runs(h, phi.depth, len(deep) - 1, c):
        (a, b), n = numerators[key], deep[len(u)]
        re += a * n
        im += b * n
    count = den * deep[len(c)]
    return complex(re / count, im / count)


def fiber_diagonal(
    phi: LocallyConstantFunction, h: Word, trunc: Truncation
) -> np.ndarray:
    """Diagonal of multiplication by h^{-1}.phi compressed to the depth-m span.

    Multiplication by a function preserves every cylinder, so the compression
    is always diagonal; the entry at c is the conditional average of
    h^{-1}.phi over c, i.e. of phi(h .) over [c].  It is the dense expansion
    of ``fiber_runs(phi, h, trunc)``, cell by cell.
    """
    runs = fiber_runs(phi, h, trunc)
    values = np.array([value for _, value in runs], dtype=complex)
    return np.repeat(values, np.diff([0] + [end for end, _ in runs]))


def projection_P(trunc: Truncation, budget: int = OPERATOR_BUDGET) -> TruncatedOperator:
    """Orthogonal projection onto the constants in every fiber (rank |B_R|)."""
    trunc.check_dense_budget(budget)
    matrix = np.kron(np.eye(trunc.dim_group), fiber_projection(trunc))
    return TruncatedOperator(matrix, "P", trunc)


def rep_function(
    phi: LocallyConstantFunction, trunc: Truncation, budget: int = OPERATOR_BUDGET
) -> TruncatedOperator:
    """lambda_mu(phi): block-diagonal, block at h = multiplication by h^{-1}.phi."""
    if phi.group != trunc.group:
        raise ValueError("function and truncation use different groups")
    trunc.check_dense_budget(budget)
    dim_f = trunc.dim_fiber
    matrix = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for i, h in enumerate(trunc.group_basis):
        diag = fiber_diagonal(phi, h, trunc)
        matrix[i * dim_f : (i + 1) * dim_f, i * dim_f : (i + 1) * dim_f] = np.diag(diag)
    return TruncatedOperator(
        matrix, "lambda(phi)", trunc, window_exact=trunc.window_exact(phi.depth)
    )


def rep_group(g: Word, trunc: Truncation, budget: int = OPERATOR_BUDGET) -> TruncatedOperator:
    """lambda(g): delta_h -> delta_{gh}, zero when gh leaves B_R."""
    trunc.group.check_letters(g.letters)
    trunc.check_dense_budget(budget)
    dim_f = trunc.dim_fiber
    matrix = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    eye = np.eye(dim_f, dtype=complex)
    for j, h in enumerate(trunc.group_basis):
        target = mul(g, h)
        i = trunc.group_index.get(target)
        if i is None:
            continue
        matrix[i * dim_f : (i + 1) * dim_f, j * dim_f : (j + 1) * dim_f] = eye
    return TruncatedOperator(matrix, f"lambda({g})", trunc)


def rep_crossed(
    terms: CrossedTerms, trunc: Truncation, budget: int = OPERATOR_BUDGET
) -> TruncatedOperator:
    """Representation of sum_g phi_g . g as sum lambda(phi_g) lambda(g)."""
    trunc.check_dense_budget(budget)
    matrix = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    exact = True
    for phi, g in terms:
        lf = rep_function(phi, trunc, budget)
        lg = rep_group(g, trunc, budget)
        matrix += lf.matrix @ lg.matrix
        exact = exact and lf.window_exact
    return TruncatedOperator(matrix, "lambda(a)", trunc, window_exact=exact)


@dataclass
class PiIdentityReport:
    pi_error: float
    compression_error: float


def _off_constants(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(1 - outer(v, v)) x: the fiber vector x without its constant part."""
    return x - (v @ x) * v


def verify_pi_identity(
    phi: LocallyConstantFunction, trunc: Truncation
) -> PiIdentityReport:
    """Check Pi(phi)*Pi(phi) = diag(sigma^2) and P lambda(phi) P = diag(E).

    Pi(phi) = (1 - P) lambda(phi*) P.  Its absolute value is multiplication
    by the deviation function of phi on the group factor, so Pi*Pi must match
    kron(diag(sigma^2(phi)(h)), outer(v, v)) with v the constant unit vector;
    the compression of P lambda(phi) P to l2(B_R) must be diag(E(phi)(h)).
    Both comparisons use exact rational deviation data on the right side.

    Every operator involved is block-diagonal over h, and each block is read
    from fiber vectors: Pi_h = outer(u, v) with u = (1 - vv*)(conj d_h * v),
    d_h the fiber diagonal of phi at h, so Pi_h* Pi_h = ||u||^2 outer(v, v),
    whose max-abs gap to sigma^2(h) outer(v, v) is |||u||^2 - sigma^2(h)| /
    dim_fiber; the compression at h is v* diag(d_h) v.  The errors are
    maxima over h; off-diagonal blocks vanish on both sides.
    """
    trunc.require_window(phi.depth)
    v = fiber_unit(trunc)
    pi_error = 0.0
    compression_error = 0.0
    for h in trunc.group_basis:
        d = fiber_diagonal(phi, h, trunc)
        u = _off_constants(np.conj(d) * v, v)
        gap = abs(float(np.vdot(u, u).real) - float(deviation_sq(phi, h)))
        pi_error = max(pi_error, gap / trunc.dim_fiber)
        mean = complex((v * d) @ v)
        compression_error = max(
            compression_error, abs(mean - expectation(phi, h).to_complex())
        )
    return PiIdentityReport(pi_error=pi_error, compression_error=compression_error)


def commutator_singular_values(
    phi: LocallyConstantFunction, trunc: Truncation
) -> np.ndarray:
    """Singular values of [P, lambda(phi)], descending.

    The commutator is block-diagonal over h with rank-<=2 blocks
    [outer(v, v), diag(d_h)], so the values are computed per block without
    materializing the full matrix.  On the exactness window the nonzero
    values are {sigma(phi)(h)} each twice, for complex phi as well as real:
    v is real, so the block is outer(v, w) - outer(w, v) with w = d_h v, and
    the 2x2 Gram problem of this rank-2 block has trace 2 sigma^2 and
    determinant sigma^4.  The values are still computed numerically from
    the actual blocks, so that comparing them with the deviation table
    remains a cross-check that can fail.
    """
    trunc.require_window(phi.depth)
    v = fiber_unit(trunc)
    out: list[np.ndarray] = []
    for h in trunc.group_basis:
        d = fiber_diagonal(phi, h, trunc)
        block = np.outer(v, d * v) - np.outer(d * v, v)
        out.append(singular_values(block))
    values = np.concatenate(out)
    values[::-1].sort()
    return values


@dataclass
class DeviationMatch:
    """Commutator singular values paired with the deviation table."""

    nonzero: list[float]  # the values above 1e-9, descending
    expected: int  # twice the number of h with sigma(phi)(h) above 1e-9
    error: float  # largest gap of the pairing; inf when the counts differ


def match_deviation_table(
    phi: LocallyConstantFunction, trunc: Truncation, values: np.ndarray
) -> DeviationMatch:
    """Pair the nonzero values of ``commutator_singular_values(phi, trunc)``
    with the sorted table {sigma(phi)(h) : h in B_R}, each taken twice."""
    expected = []
    for h in trunc.group_basis:
        s = math.sqrt(float(deviation_sq(phi, h)))
        if s > 1e-9:
            expected.extend([s, s])
    expected.sort(reverse=True)
    nonzero = [float(v) for v in values if v > 1e-9]
    error = (
        max((abs(x - y) for x, y in zip(nonzero, expected)), default=0.0)
        if len(nonzero) == len(expected)
        else math.inf
    )
    return DeviationMatch(nonzero=nonzero, expected=len(expected), error=error)


def homotopy_projection(
    eta: LocallyConstantFunction, trunc: Truncation, budget: int = OPERATOR_BUDGET
) -> TruncatedOperator:
    """P(eta) = M(conj(eta)) P M(eta) for an exactly L2-normalized eta."""
    block = homotopy_block(eta, trunc)
    trunc.check_dense_budget(budget)
    matrix = np.kron(np.eye(trunc.dim_group), block)
    return TruncatedOperator(matrix, "P(eta)", trunc)


def homotopy_block(eta: LocallyConstantFunction, trunc: Truncation) -> np.ndarray:
    """The fiber block outer(w, conj w), w = conj(eta) v, of P(eta)."""
    if eta.group != trunc.group:
        raise ValueError("function and truncation use different groups")
    if eta.l2_norm_sq() != 1:
        raise ValueError("eta must satisfy ||eta||_{L2(mu)} = 1 exactly")
    if eta.depth > trunc.m:
        raise ValueError("eta deeper than the fiber level m")
    w = np.conj(fiber_diagonal(eta, IDENTITY, trunc)) * fiber_unit(trunc)
    return np.outer(w, np.conj(w))


def homotopy_projection_check(
    eta1: LocallyConstantFunction,
    eta2: LocallyConstantFunction,
    trunc: Truncation,
) -> tuple[float, float]:
    """Return (||P(eta1) - P(eta2)||, 2 ||eta1 - eta2||_{L2}).

    Raises AssertionError when the inequality fails (also under ``-O``).

    P(eta) is block-diagonal with the same rank-one block in every fiber, so
    the operator norm of the difference is the norm of a single block.
    """
    diff_block = homotopy_block(eta1, trunc) - homotopy_block(eta2, trunc)
    norm_diff = operator_norm(diff_block)
    bound = 2.0 * math.sqrt(float((eta1 - eta2).l2_norm_sq()))
    if not norm_diff <= bound + 1e-12:
        raise AssertionError((norm_diff, bound))
    return norm_diff, bound


def pi_delta_norms(terms: CrossedTerms, trunc: Truncation) -> dict[Word, float]:
    """||Pi(a) delta_h||_2 for every h in B_{R//2}, with delta_h standing
    for delta_h x v and a = sum phi_g . g supported in B_{R//2}, so that
    every vector in play stays inside the truncation.

    Pi(a) = (1 - P) lambda(a)* P, and P fixes delta_h x v, which
    lambda(a)* sends to the sum of delta_{g^-1 h} x conj(d_h(phi_g)) v.
    These fiber vectors are summed per target and 1 - P removes the
    constant part of each; no operator is formed.
    """
    half = trunc.R // 2
    for phi, g in terms:
        if len(g) > half:
            raise ValueError("support must lie in the half ball B_{R//2}")
        if phi.depth + half > trunc.m:
            raise ValueError("exactness window requires depth(phi) + R//2 <= m")
    v = fiber_unit(trunc)
    norms = {}
    for h in trunc.group.iter_ball(half):
        fibers: dict[Word, np.ndarray] = {}
        for phi, g in terms:
            target = mul(g.inverse(), h)
            x = np.conj(fiber_diagonal(phi, h, trunc)) * v
            fibers[target] = fibers.get(target, 0) + x
        norm_sq = 0.0
        for x in fibers.values():
            y = _off_constants(x, v)
            norm_sq += float(np.vdot(y, y).real)
        norms[h] = math.sqrt(norm_sq)
    return norms


def conditional_lower_bound_check(
    terms: CrossedTerms, trunc: Truncation, tol: float = 1e-9
) -> bool:
    """Check ||Pi(a) delta_h||_2 >= sigma(E(a))(h) for h in B_{R//2}.

    E(a) is the coefficient of a = sum phi_g . g at the identity; the left
    side comes from ``pi_delta_norms``.
    """
    norms = pi_delta_norms(terms, trunc)
    zero = LocallyConstantFunction.constant(trunc.group, 0)
    identity_part = sum((phi for phi, g in terms if g.is_identity), zero)
    return all(
        lhs >= math.sqrt(float(deviation_sq(identity_part, h))) - tol
        for h, lhs in norms.items()
    )


def verify_compression_identity(terms: CrossedTerms, trunc: Truncation) -> float:
    """Max-abs error of P lambda(a) P against multiplication-by-E composed
    with translation on l2(B_R): entry (gh, h) must equal E(phi_g)(gh).

    lambda(phi_g) lambda(g) sends delta_h x v to delta_gh x d_gh(phi_g) v, so
    the compressed entry (gh, h) is v* diag(d_gh(phi_g)) v, summed over the
    terms.  Out-of-ball targets gh are dropped on both sides (zero-padding),
    so the comparison is entrywise on the full |B_R| x |B_R| compressed
    matrix.
    """
    trunc.require_window(*(phi.depth for phi, _ in terms))
    v = fiber_unit(trunc)
    error = np.zeros((trunc.dim_group, trunc.dim_group), dtype=complex)
    for phi, g in terms:
        for j, h in enumerate(trunc.group_basis):
            target = mul(g, h)
            i = trunc.group_index.get(target)
            if i is not None:
                error[i, j] += (v * fiber_diagonal(phi, target, trunc)) @ v
                error[i, j] -= expectation(phi, target).to_complex()
    return float(np.max(np.abs(error)))
