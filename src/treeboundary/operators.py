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
lambda(g) permutes blocks with zero padding.  Every fiber vector is a list
of lexicographic runs of cells with one value.  The diagonal block at h is
read off phi's own table (``fiber_runs``): every cell outside one
cancellation cylinder has the key h[:k], and inside it the runs of
``FreeGroup.product_runs``, walked at depth k + |h| where every key
prefix_k(h c) is fixed, give each depth-m cylinder c the value at its key,
or, where the walk splits c, the exact average of the runs under c; no
translated table is built, and P(eta) reads eta as the block at
the identity.  The runs inside the cylinder depend on h only through its
shape (``fiber_shape``), so each shape is walked once per truncation
(``Truncation.walks``), shared by every route that reads it, and its runs
are shifted to each point of that shape.

Every identity, inequality and spectrum here is a rank-one identity or a
2 x 2 Gram problem in each fiber, evaluated in plain complex arithmetic as
sums over the common runs of its fiber vectors (``segments``): the Pi
identity and the Pi(a) delta_h norms read Pi_h = outer(u, v) from the fiber
vector u, the commutator block [outer(v, v), diag d] has rank <= 2 and the
singular values of the Gram problem of (v, d v), and P(eta1) - P(eta2) is a
difference of two rank-one blocks.  Each value is computed from the fiber
data, not asserted from a closed form, so every cross-check against the
exact deviation table can still fail.  No route here needs numpy.

``expand_runs`` and ``fiber_diagonal`` (the dense expansions of a run list
and of the fiber runs), ``fiber_projection`` and the constructors
``projection_P``, ``rep_function``, ``rep_group``, ``rep_crossed`` and
``homotopy_projection``, which materialize dense complex binary64 dim x dim
matrices guarded by ``check_dense_budget`` against ``OPERATOR_BUDGET``, are
a small test oracle: they import numpy in their own bodies, and no route
here calls them.  Everything is single-threaded.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .boundary import depth_mass
from .deviation import deviation_sq, expectation
from .functions import LocallyConstantFunction
from .words import IDENTITY, FreeGroup, Frozen, Word, fiber_shape, mul

if TYPE_CHECKING:
    import numpy as np

OPERATOR_BUDGET = 6000

CrossedTerms = Sequence[tuple[LocallyConstantFunction, Word]]
# a fiber vector: runs (end, value) of lexicographic cells with one value,
# the cells from the previous run's end (0 for the first) up to ``end``
Runs = list[tuple[int, complex]]


class Truncation(Frozen):
    """Basis data for the truncation B_R x {depth-m cylinders}."""

    def __init__(self, group: FreeGroup, R: int, m: int):
        if R < 0:
            raise ValueError("radius must be nonnegative")
        if m < 1:
            raise ValueError("function level must be >= 1")
        self.__dict__.update(group=group, R=R, m=m)

    @cached_property
    def group_basis(self) -> tuple[Word, ...]:
        return tuple(self.group.iter_ball(self.R))

    @cached_property
    def group_index(self) -> dict[Word, int]:
        return {h: i for i, h in enumerate(self.group_basis)}

    @cached_property
    def walks(self) -> dict:
        """``fiber_runs``' memo: each shape's ``product_runs`` list, and its
        valued runs per function."""
        return {}

    @cached_property
    def cylinders(self) -> dict:
        """``fiber_runs``' memo of (q, start, shape) per (point letters, depth):
        the cancellation cylinder of the point and its shape."""
        return {}

    @property
    def dim_group(self) -> int:
        return self.group.growth_count(self.R)

    @cached_property
    def dim_fiber(self) -> int:
        return self.group.sphere_count(self.m)

    @property
    def dim(self) -> int:
        return self.dim_group * self.dim_fiber

    def check_dense_budget(self, budget: int = OPERATOR_BUDGET) -> None:
        """Cap dim = |B_R| |S_m|: a dense operator's size, or the values spectrum writes."""
        self.group.check_budget(budget, R=self.R, m=self.m)

    def window_exact(self, depth: int) -> bool:
        return depth + self.R <= self.m

    def require_window(self, *depths: int) -> None:
        """Raise ValueError unless every function depth is on the window."""
        if not all(map(self.window_exact, depths)):
            raise ValueError("exactness window requires depth(phi) + R <= m")


def fiber_unit(trunc: Truncation) -> Runs:
    """Coordinates of the constant function 1 (a unit vector) in the fiber
    basis, as one run: sqrt(mu(c)) in every depth-m cell c."""
    return [(trunc.dim_fiber, math.sqrt(float(depth_mass(trunc.m, trunc.group))))]


def segments(a: Runs, b: Runs) -> Iterator[tuple[int, complex, complex]]:
    """(count, a_c, b_c) over the maximal cell ranges on which two run lists
    of one fiber are both constant, in order: a merge of their run ends."""
    start, j = 0, 0
    for end, x in a:
        while start < end:
            end_b, y = b[j]
            stop = end if end < end_b else end_b
            yield stop - start, x, y
            start, j = stop, j + (stop == end_b)


def run_sum(runs: Runs) -> complex:
    """sum_c d_c over the cells of a run list."""
    total, start = 0j, 0
    for end, value in runs:
        total += (end - start) * value
        start = end
    return total


def run_dot(a: Runs, b: Runs) -> complex:
    """sum_c a_c b_c over the cells of two run lists of one fiber (no
    conjugation), summed over ``segments(a, b)`` in order, written out."""
    total, start, j = 0j, 0, 0
    for end, x in a:
        while start < end:
            end_b, y = b[j]
            stop = end if end < end_b else end_b
            total += (stop - start) * (x * y)
            start, j = stop, j + (stop == end_b)
    return total


def run_map(f: Callable[[complex, complex], complex], a: Runs, b: Runs) -> Runs:
    """The fiber vector f(a_c, b_c), cell by cell, as runs."""
    out, end = [], 0
    for n, x, y in segments(a, b):
        end += n
        out.append((end, f(x, y)))
    return out


def _abs_sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _conj_times(x: complex, y: complex) -> complex:
    return x.conjugate() * y


def _norm_sq(x: Runs) -> float:
    return run_sum([(end, _abs_sq(value)) for end, value in x]).real


def _residual_sq(x: Runs, v: Runs, c: complex) -> float:
    """||x - c v||^2."""
    return sum(n * _abs_sq(a - c * b) for n, a, b in segments(x, v))


def _off_constants_sq(x: Runs, v: Runs) -> float:
    """||(1 - outer(v, v)) x||^2: the fiber vector x without its constant
    part (v real, so outer(v, v) is P's block)."""
    return _residual_sq(x, v, run_dot(v, x))


def _gram(x: Runs, y: Runs) -> tuple[float, float]:
    """(||x||^2, r) for the Gram matrix of (x, y), with r = ||y - (<x, y> /
    ||x||^2) x||^2, so that its determinant ||x||^2 ||y||^2 - |<x, y>|^2 is
    ||x||^2 r, a sum of squares free of cancellation."""
    xx = _norm_sq(x)
    if not xx:
        return xx, _norm_sq(y)
    xy = sum((n * _conj_times(a, b) for n, a, b in segments(x, y)), 0j)
    return xx, _residual_sq(y, x, xy / xx)


def _compress(d: Runs, v: Runs) -> complex:
    """v* diag(d) v, v real: the fiber diagonal d compressed to the
    constants."""
    return sum((n * (x * y * x) for n, x, y in segments(v, d)), 0j)


def _same(a: complex, b: complex) -> bool:
    """Bitwise equality of two finite complex values: == and the same sign
    on every zero part."""
    return (
        a == b
        and math.copysign(1.0, a.real) == math.copysign(1.0, b.real)
        and math.copysign(1.0, a.imag) == math.copysign(1.0, b.imag)
    )


def fiber_runs(phi: LocallyConstantFunction, h: Word, trunc: Truncation) -> Runs:
    """The fiber diagonal at h (``fiber_diagonal``) as lexicographic runs
    (end, value): the cells from the previous run's end (0 for the first) up
    to ``end`` all take ``value``, and adjacent runs differ in value.

    Every cell outside the cancellation cylinder [q] of
    ``FreeGroup.cancellation_cylinder(h, k, m)``, k = depth(phi), takes
    phi(h[:k]), so those cells are at most two runs, counted by arithmetic;
    only the cells of [q] are walked, along ``FreeGroup.product_runs(h, k,
    q)`` at depth k + |h|, where every key is fixed.  A walk run (p, key)
    with |p| <= m covers ``run_sizes(m)[|p|]`` depth-m cells, each taking
    phi(key); the walk runs with |p| > m lie in the one depth-m cell p[:m],
    which takes their exact average: ``run_sizes(k + |h|)[|p|]`` times
    phi's Gaussian-integer numerators over D ``run_sizes(k + |h|)[m]``, one
    correctly rounded integer division per part.  A depth-1 block has at
    most 2n + 1 runs.

    The walk of [q] depends on h only through its shape (``fiber_shape``),
    up to a shift by the position of [q].  Each shape is walked once per
    truncation and its runs are valued and merged once per function, both
    kept in ``trunc.walks``, the function with its runs.  A point that comes
    back with another function of its depth reads [q], its position and its
    shape from ``trunc.cylinders``.
    """
    walks = trunc.walks
    group, k, letters = trunc.group, phi.depth, h.letters
    cylinder = trunc.cylinders.get((letters, k))
    if cylinder is None:
        q, start = group.cancellation_cylinder(h, k, trunc.m)
        cylinder = trunc.cylinders[letters, k] = (q, start, fiber_shape(letters, len(q), k))
    q, start, shape = cylinder
    known = walks.get((shape, id(phi)))
    if known is None:
        if shape not in walks:
            walks[shape] = group.product_runs(h, k, q)
        runs, m = walks[shape], trunc.m
        sizes, deep = group.run_sizes(m), group.run_sizes(k + len(h))
        as_complex, (den, numerators) = phi.letter_complex, phi.numerators
        inner, end, i = [], 0, 0
        while i < len(runs):
            p, key = runs[i]
            if len(p) <= m:
                i += 1
                end += sizes[len(p)]
                x = as_complex[key]
            else:
                # one depth-m cell: the exact average of the runs under it,
                # each weighted by its cell count at depth k + |h|
                cell, re, im = p[:m], 0, 0
                while i < len(runs) and runs[i][0][:m] == cell:
                    p, key = runs[i]
                    i += 1
                    a, b = numerators[key]
                    re += a * deep[len(p)]
                    im += b * deep[len(p)]
                end += 1
                count = den * deep[m]
                x = complex(re / count, im / count)
            if inner and _same(x, inner[-1][1]):
                inner[-1] = (end, x)
            else:
                inner.append((end, x))
        # phi rides along, so that its id names it while the truncation lives
        known = walks[shape, id(phi)] = (phi, as_complex[letters[:k]] if q else None, inner)
    _, head, inner = known
    out = [(start + end, x) for end, x in inner]
    if start and not _same(head, out[0][1]):
        out.insert(0, (start, head))
    cells = trunc.dim_fiber
    if out[-1][0] < cells:
        if _same(head, out[-1][1]):
            out[-1] = (cells, head)
        else:
            out.append((cells, head))
    return out


def expand_runs(runs: Runs) -> np.ndarray:
    """The dense complex vector of a run list, cell by cell: a test oracle."""
    import numpy as np

    values = np.array([value for _, value in runs], dtype=complex)
    return np.repeat(values, np.diff([0] + [end for end, _ in runs]))


def fiber_diagonal(
    phi: LocallyConstantFunction, h: Word, trunc: Truncation
) -> np.ndarray:
    """Diagonal of multiplication by h^{-1}.phi compressed to the depth-m span.

    Multiplication by a function preserves every cylinder, so the compression
    is always diagonal; the entry at c is the conditional average of
    h^{-1}.phi over c, i.e. of phi(h .) over [c].  It is the dense expansion
    of ``fiber_runs(phi, h, trunc)``, cell by cell: a test oracle.
    """
    return expand_runs(fiber_runs(phi, h, trunc))


def fiber_projection(trunc: Truncation) -> np.ndarray:
    """The dense fiber block outer(v, v) of P, with v = ``fiber_unit(trunc)``:
    a test oracle."""
    import numpy as np

    v = expand_runs(fiber_unit(trunc))
    return np.outer(v, v)


class TruncatedOperator:
    def __init__(
        self, matrix: np.ndarray, label: str, trunc: Truncation, window_exact: bool = True
    ):
        self.matrix = matrix
        self.label = label
        self.trunc = trunc
        self.window_exact = window_exact

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def projection_P(trunc: Truncation) -> TruncatedOperator:
    """Orthogonal projection onto the constants in every fiber (rank |B_R|)."""
    import numpy as np

    trunc.check_dense_budget()
    matrix = np.kron(np.eye(trunc.dim_group), fiber_projection(trunc))
    return TruncatedOperator(matrix, "P", trunc)


def rep_function(phi: LocallyConstantFunction, trunc: Truncation) -> TruncatedOperator:
    """lambda_mu(phi): block-diagonal, block at h = multiplication by h^{-1}.phi."""
    import numpy as np

    if phi.group != trunc.group:
        raise ValueError("function and truncation use different groups")
    trunc.check_dense_budget()
    dim_f = trunc.dim_fiber
    matrix = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for i, h in enumerate(trunc.group_basis):
        diag = fiber_diagonal(phi, h, trunc)
        matrix[i * dim_f : (i + 1) * dim_f, i * dim_f : (i + 1) * dim_f] = np.diag(diag)
    return TruncatedOperator(
        matrix, "lambda(phi)", trunc, window_exact=trunc.window_exact(phi.depth)
    )


def rep_group(g: Word, trunc: Truncation) -> TruncatedOperator:
    """lambda(g): delta_h -> delta_{gh}, zero when gh leaves B_R."""
    import numpy as np

    trunc.group.check_letters(g.letters)
    trunc.check_dense_budget()
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


def rep_crossed(terms: CrossedTerms, trunc: Truncation) -> TruncatedOperator:
    """Representation of sum_g phi_g . g as sum lambda(phi_g) lambda(g)."""
    import numpy as np

    trunc.check_dense_budget()
    matrix = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    exact = True
    for phi, g in terms:
        lf = rep_function(phi, trunc)
        lg = rep_group(g, trunc)
        matrix += lf.matrix @ lg.matrix
        exact = exact and lf.window_exact
    return TruncatedOperator(matrix, "lambda(a)", trunc, window_exact=exact)


class PiIdentityReport:
    def __init__(self, pi_error: float, compression_error: float):
        self.pi_error = pi_error
        self.compression_error = compression_error


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
    whose max-abs gap to sigma^2(h) outer(v, v) is |||u||^2 - sigma^2(h)|
    max_c v_c^2, maximized over h, as off-diagonal blocks vanish on both
    sides.  The compression error is ``verify_compression_identity`` of the
    one term phi . 1, on the blocks that the Pi loop has walked.
    """
    trunc.require_window(phi.depth)
    v = fiber_unit(trunc)
    scale = max(_abs_sq(x) for _, x in v)
    pi_error = 0.0
    for h in trunc.group_basis:
        u_sq = _off_constants_sq(run_map(_conj_times, fiber_runs(phi, h, trunc), v), v)
        pi_error = max(pi_error, abs(u_sq - float(deviation_sq(phi, h))) * scale)
    return PiIdentityReport(
        pi_error=pi_error, compression_error=verify_compression_identity([(phi, IDENTITY)], trunc)
    )


def commutator_singular_values(
    phi: LocallyConstantFunction, trunc: Truncation
) -> list[float]:
    """Singular values of [P, lambda(phi)], descending, all ``trunc.dim`` of
    them.

    The commutator is block-diagonal over h, and its block [outer(v, v),
    diag(d_h)] = outer(v, y) - outer(y, v), y = d_h v, is zero off the span
    of v and y: its nonzero singular values are those of the 2 x 2 problem
    J G with G the Gram matrix of (v, y) and J = [[0, 1], [-1, 0]], a
    complex skew-symmetric pair, so both are sqrt(det G) (``_gram``), and
    the other dim_fiber - 2 values are exact zeros.  On the exactness window
    sqrt(det G) = sigma(phi)(h), for complex phi as well as real.  The values
    are computed from the fiber vectors, so that comparing them with the
    deviation table remains a cross-check that can fail.
    """
    trunc.require_window(phi.depth)
    v = fiber_unit(trunc)
    values: list[float] = []
    for h in trunc.group_basis:
        vv, r = _gram(v, run_map(operator.mul, fiber_runs(phi, h, trunc), v))
        s = math.sqrt(vv * r)
        values += [s, s]
    values.sort(reverse=True)
    return values + [0.0] * (trunc.dim - len(values))


class DeviationMatch:
    """Commutator singular values paired with the deviation table."""

    def __init__(
        self,
        nonzero: list[float],  # the values above 1e-9, descending
        expected: int,  # twice the number of h with sigma(phi)(h) above 1e-9
        error: float,  # largest gap of the pairing; inf when the counts differ
    ):
        self.nonzero = nonzero
        self.expected = expected
        self.error = error


def match_deviation_table(
    phi: LocallyConstantFunction, trunc: Truncation, values: Sequence[float]
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


def homotopy_vector(eta: LocallyConstantFunction, trunc: Truncation) -> Runs:
    """The fiber vector w = conj(eta) v at the identity; P(eta) = M(conj(eta))
    P M(eta) has the block outer(w, conj w) in every fiber."""
    if eta.group != trunc.group:
        raise ValueError("function and truncation use different groups")
    if eta.l2_norm_sq() != 1:
        raise ValueError("eta must satisfy ||eta||_{L2(mu)} = 1 exactly")
    if eta.depth > trunc.m:
        raise ValueError("eta deeper than the fiber level m")
    return run_map(_conj_times, fiber_runs(eta, IDENTITY, trunc), fiber_unit(trunc))


def homotopy_projection(eta: LocallyConstantFunction, trunc: Truncation) -> TruncatedOperator:
    """P(eta) = M(conj(eta)) P M(eta) for an exactly L2-normalized eta."""
    import numpy as np

    w = expand_runs(homotopy_vector(eta, trunc))
    trunc.check_dense_budget()
    matrix = np.kron(np.eye(trunc.dim_group), np.outer(w, np.conj(w)))
    return TruncatedOperator(matrix, "P(eta)", trunc)


def rank_one_difference_norm(w1: Runs, w2: Runs) -> float:
    """||outer(w1, conj w1) - outer(w2, conj w2)||, from the Gram matrix of
    (w1, w2): on their span the difference has trace a - b and determinant
    -(a b - |<w1, w2>|^2) = -a r (``_gram``), a = ||w1||^2, b = ||w2||^2,
    so its norm is (|a - b| + sqrt((a - b)^2 + 4 a r)) / 2."""
    a, r = _gram(w1, w2)
    b = _norm_sq(w2)
    return (abs(a - b) + math.sqrt((a - b) ** 2 + 4.0 * a * r)) / 2.0


def homotopy_projection_check(
    eta1: LocallyConstantFunction,
    eta2: LocallyConstantFunction,
    trunc: Truncation,
) -> tuple[float, float]:
    """Return (||P(eta1) - P(eta2)||, 2 ||eta1 - eta2||_{L2}).

    Raises AssertionError when the inequality fails (also under ``-O``).

    P(eta) is block-diagonal with the same rank-one block in every fiber, so
    the operator norm of the difference is that of a single block, a
    difference of two rank-one blocks (``rank_one_difference_norm``).
    """
    norm_diff = rank_one_difference_norm(
        homotopy_vector(eta1, trunc), homotopy_vector(eta2, trunc)
    )
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
        fibers: dict[Word, Runs] = {}
        for phi, g in terms:
            target = mul(g.inverse(), h)
            x = run_map(_conj_times, fiber_runs(phi, h, trunc), v)
            fibers[target] = run_map(operator.add, fibers[target], x) if target in fibers else x
        norms[h] = math.sqrt(sum(_off_constants_sq(x, v) for x in fibers.values()))
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
    matrix, whose other entries are 0 on both sides.
    """
    trunc.require_window(*(phi.depth for phi, _ in terms))
    v = fiber_unit(trunc)
    error: dict[tuple[int, int], complex] = {}
    for phi, g in terms:
        for j, h in enumerate(trunc.group_basis):
            target = mul(g, h)
            i = trunc.group_index.get(target)
            if i is not None:
                entry = error.get((i, j), 0j)
                entry += _compress(fiber_runs(phi, target, trunc), v)
                entry -= expectation(phi, target).to_complex()
                error[i, j] = entry
    return max(map(abs, error.values()), default=0.0)
