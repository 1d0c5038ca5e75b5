"""The boundary of the 2n-valent tree: infinite reduced words.

Cylinder sets (finite reduced prefixes), the canonical visual metric
``exp(-epsilon * (. , .))`` (``VisualStructure``, epsilon = ln(2n-1) unless
given), the normalized Hausdorff measure

    mu([w]) = (1/2n) * (1/(2n-1))^(|w|-1),        mu([empty]) = 1,

the boundary action of the group, and exact pushforward measures g_*mu.

Pushforward masses have one closed form, on integers.  For |g| = L, a
cylinder [w] of depth k >= 1 and l the common prefix length of g and w,

    (g_*mu)([w]) = c_l / M,       M = 2n (2n-1)^(L+k-1),
    c_l = (2n-1)^(2l)             if l < k,
    c_k = M - (2n-1)^(2k-1)       (l = k, only when L >= k),

that is depth_mass(L + k - 2l) for l < k and 1 - depth_mass(L - k + 1) for
l = k.  So the mass depends on g only through l and L; in particular, for
L >= k it depends only on (prefix_k g, L).  ``pushforward_weights`` gives M
and the c_l, so that an expectation is a sum of integers over the one
denominator M; ``pushforward_mass`` is c_l / M, and ``pushforward_table``
the c_l of every depth-k cell.  ``cylinder_image`` (on letter tuples) and
``preimage_cylinder`` write the preimage out as disjoint cylinders; it is
the independent decomposition that tests and ``verify-all`` check the
closed form against.

Measures are exact ``fractions.Fraction`` values throughout; the visual
metric is the only float-valued object in the module.  Distances carry a
default relative tolerance of 1e-12 in downstream float comparisons.

Boundary points are restricted to eventually periodic infinite words
``head . period^infinity``: these are dense, exactly representable, and
enough for every convergence statement the package checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .words import (
    DEFAULT_BUDGET,
    FreeGroup,
    Frozen,
    IDENTITY,
    Word,
    common_prefix_len,
    mul,
    reduced_word,
    word_to_str,
)


class VisualStructure(Frozen):
    """Visual parameter and derived constants for one group.

    ``epsilon`` defaults to the growth rate ln(2n-1), the parameter at which
    the boundary has Hausdorff dimension 1; ``entropy`` is that growth rate.
    """

    def __init__(self, group: FreeGroup, epsilon: float | None = None):
        entropy = math.log(2 * group.n - 1)
        if epsilon is None:
            epsilon = entropy
        if not (epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.__dict__.update(group=group, epsilon=epsilon, entropy=entropy)


class Cylinder(Frozen):
    """Clopen set of boundary points sharing a finite reduced prefix."""

    def __init__(self, prefix: Word = IDENTITY):
        self.__dict__.update(prefix=prefix)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.prefix == other.prefix
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.prefix,))

    @property
    def depth(self) -> int:
        return len(self.prefix)

    def __str__(self) -> str:
        return f"[{word_to_str(self.prefix)}]"

    def disjoint(self, other: "Cylinder") -> bool:
        """Neither prefix extends the other: they differ within the shorter."""
        p, q = self.prefix.letters, other.prefix.letters
        t = min(len(p), len(q))
        return p[:t] != q[:t]


class BoundaryPoint(Frozen):
    """The eventually periodic infinite reduced word head.period^inf."""

    def __init__(self, head: Word, period: Word):
        if not period.letters:
            raise ValueError("period must be nonempty")
        # head.period.period must be reduced as written, i.e. neither
        # junction cancels; that guarantees an infinite reduced word.
        if len(mul(head, period)) != len(head) + len(period):
            raise ValueError("head/period junction cancels")
        if len(mul(period, period)) != 2 * len(period):
            raise ValueError("period/period junction cancels")
        # strip redundant trailing period copies so repeated boundary
        # actions do not inflate the head
        h, p = head.letters, period.letters
        while len(h) >= len(p) and h[-len(p):] == p:
            h = h[: -len(p)]
        self.__dict__.update(head=Word(h), period=period)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.head, self.period) == (other.head, other.period)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.head, self.period))

    def letter(self, i: int) -> int:
        h = len(self.head)
        if i < h:
            return self.head.letters[i]
        return self.period.letters[(i - h) % len(self.period)]

    def prefix(self, k: int) -> Word:
        return Word(tuple(self.letter(i) for i in range(k)))

    def __str__(self) -> str:
        return f"{word_to_str(self.head)}.({word_to_str(self.period)})^inf"


@lru_cache(maxsize=None)
def depth_mass(k: int, group: FreeGroup) -> Fraction:
    """Mass of any single depth-k cylinder."""
    if k == 0:
        return Fraction(1)
    return Fraction(1, 2 * group.n) * Fraction(1, 2 * group.n - 1) ** (k - 1)


def cylinder_measure(c: Cylinder, group: FreeGroup) -> Fraction:
    return depth_mass(c.depth, group)


def boundary_action(g: Word, omega: BoundaryPoint) -> BoundaryPoint:
    """g . omega as an eventually periodic point with the same period."""
    p = len(omega.period)
    reps = len(g) // p + 1  # enough that cancellation stays in the expansion
    expanded = Word(omega.head.letters + omega.period.letters * reps)
    return BoundaryPoint(mul(g, expanded), omega.period)


def _point_agree_len(x: BoundaryPoint, y: BoundaryPoint) -> int | None:
    """Common prefix length of two points; None means they are equal.

    Eventually periodic words agreeing beyond both heads plus two full
    least-common-multiple windows of the periods are equal.
    """
    window = math.lcm(len(x.period), len(y.period))
    limit = len(x.head) + len(y.head) + 2 * window
    for i in range(limit):
        if x.letter(i) != y.letter(i):
            return i
    return None


def visual_distance(
    x: Union[Cylinder, BoundaryPoint],
    y: Union[Cylinder, BoundaryPoint],
    vs: VisualStructure,
) -> float:
    """exp(-epsilon t), t the common prefix length.

    Cylinder arguments must be disjoint (and a point must not lie in a
    cylinder argument), otherwise the prefixes do not determine the
    distance and a ValueError is raised.  Identical points have distance 0.
    """
    if isinstance(x, Cylinder) and isinstance(y, Cylinder):
        if not x.disjoint(y):
            raise ValueError(f"cylinders {x} and {y} overlap")
        t = common_prefix_len(x.prefix.letters, y.prefix.letters)
    elif isinstance(x, BoundaryPoint) and isinstance(y, BoundaryPoint):
        agree = _point_agree_len(x, y)
        if agree is None:
            return 0.0
        t = agree
    else:
        point, cyl = (x, y) if isinstance(x, BoundaryPoint) else (y, x)
        t = common_prefix_len(point.prefix(cyl.depth).letters, cyl.prefix.letters)
        if t == cyl.depth:
            raise ValueError(f"point {point} lies in cylinder {cyl}")
    return math.exp(-vs.epsilon * t)


def preimage_cylinder(g: Word, c: Cylinder, group: FreeGroup) -> list[Cylinder]:
    """Pairwise disjoint cylinders with union {xi : g.xi in c}: the pieces of
    ``cylinder_image`` for g^-1 and the prefix of c, as cylinders."""
    pieces = cylinder_image(g.inverse().letters, c.prefix.letters, group)
    return [Cylinder(reduced_word(p)) for p in pieces]


def cylinder_image(
    h: tuple[int, ...], w: tuple[int, ...], group: FreeGroup
) -> list[tuple[int, ...]]:
    """h[w], the preimage of [w] under g = h^-1, as the letter tuples of
    pairwise disjoint cylinders.  With j <= |w| the letters of w that cancel
    against h (the common prefix length of g and w): for j < |w| it is the
    single cylinder [h w]; for j = |w|, g.xi keeps the prefix w exactly when
    the cancellation stops before |g| - |w|, so it is the complement of [u],
    u = prefix_{|g|-|w|+1}(g^-1), as its canonical cover: u[:t] + (x,) for
    t < |u| and each letter x other than u[t] that may follow u[:t]."""
    k, m = len(w), len(h)
    if k == 0:
        return [()]
    j = 0
    while j < k and j < m and h[m - 1 - j] == w[j] ^ 1:
        j += 1
    if j < k:
        return [h[: m - j] + w[j:]]
    u, follow = h[: m - k + 1], group.follow
    return [
        u[:t] + (x,)
        for t in range(len(u))
        for x in (follow[u[t - 1]] if t else range(2 * group.n))
        if x != u[t]
    ]


@lru_cache(maxsize=None)
def pushforward_weights(length: int, depth: int, group: FreeGroup) -> tuple[int, tuple[int, ...]]:
    """M and (c_0, ..., c_k) with (g_*mu)([w]) = c_l / M for |g| = ``length``,
    |w| = k = ``depth`` and l the common prefix length of g and w.

    For depth 0 the one cell is the whole boundary: M = 1 and c_0 = 1.
    """
    if depth == 0:
        return 1, (1,)
    q = 2 * group.n - 1
    total = 2 * group.n * q ** (length + depth - 1)
    weights = [q ** (2 * ell) for ell in range(depth)]
    return total, (*weights, total - q ** (2 * depth - 1))


def pushforward_mass(g: Word, c: Cylinder, group: FreeGroup) -> Fraction:
    """(g_* mu)(c) = mu{xi : g.xi in c}, exact: c_l / M by the closed form of
    ``pushforward_weights``.

    Same case split as ``cylinder_image``: for l < k the single cylinder
    [g^-1 w] has depth |g| + k - 2l, and for l = k the complement of
    [prefix_{|g|-k+1}(g^-1)] has mass 1 - depth_mass(|g| - k + 1).
    """
    w = c.prefix.letters
    total, weights = pushforward_weights(len(g), len(w), group)
    return Fraction(weights[common_prefix_len(g.letters, w)], total)


def mass_sum(masses: Iterable[Fraction]) -> tuple[int, int]:
    """The exact sum of ``masses`` as integers (S, L), sum = S / L with L the
    lcm of their denominators; no Fraction is built or added."""
    masses = list(masses)
    den = math.lcm(*(m.denominator for m in masses))
    return sum(m.numerator * (den // m.denominator) for m in masses), den


class CylinderMeasure:
    """A probability measure tabulated on the depth-k cylinder partition."""

    def __init__(self, group: FreeGroup, depth: int, table: dict[Word, Fraction]):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        expected = group.sphere_count(depth)
        if len(table) != expected:
            raise ValueError(
                f"table has {len(table)} entries, expected {expected} at depth {depth}"
            )
        for w, mass in table.items():
            if len(w) != depth:
                raise ValueError(f"key {w!r} has depth {len(w)}, table depth {depth}")
            if mass.numerator < 0:
                raise ValueError(f"negative mass at {w!r}")
        total, den = mass_sum(table.values())
        if total != den:
            raise ValueError(f"masses sum to {Fraction(total, den)}, not 1")
        self.group = group
        self.depth = depth
        self.table = dict(sorted(table.items()))


def pushforward_table(g: Word, depth: int, group: FreeGroup) -> tuple[int, list[int]]:
    """M and the weight c_l of each depth-k cell in lexicographic order,
    (g_*mu)([w]) = c_l / M: c_0 everywhere, then the block of the cells
    that extend g[:l] overwritten with c_l for l = 1, 2, ...."""
    group.check_budget(DEFAULT_BUDGET, m=depth)
    total, weights = pushforward_weights(len(g), depth, group)
    sizes = group.run_sizes(depth)
    table = [weights[0]] * sizes[0]
    for ell in range(1, min(len(g), depth) + 1):
        start = group.lex_rank(g.letters[:ell]) * sizes[ell]
        table[start : start + sizes[ell]] = [weights[ell]] * sizes[ell]
    return total, table


def pushforward(g: Word, depth: int, group: FreeGroup) -> CylinderMeasure:
    """The measure g_*mu on the depth-k partition, exact."""
    if depth < 1:
        raise ValueError("pushforward needs depth >= 1")
    total, table = pushforward_table(g, depth, group)
    masses = {w: Fraction(c, total) for w, c in zip(group.sphere(depth), table)}
    return CylinderMeasure(group, depth, masses)


def comparability_constants(g: Word, depth: int, group: FreeGroup) -> tuple[Fraction, Fraction]:
    """min and max of (g_*mu)([w]) / mu([w]) over depth-k cylinders."""
    if depth < 1:
        raise ValueError("comparability needs depth >= 1")
    total, table = pushforward_table(g, depth, group)
    base = depth_mass(depth, group) * total
    return min(table) / base, max(table) / base


def weak_distance_to_delta(g: Word, omega: BoundaryPoint, depth: int, group: FreeGroup) -> Fraction:
    """Total variation distance sum |g_*mu([w]) - delta_omega([w])| at depth k.

    Every cell but [prefix_k omega] adds its mass, and that one adds 1 minus
    its mass, so the sum is 2 (1 - (g_*mu)([prefix_k omega])).
    """
    if depth < 1:
        raise ValueError("weak distance needs depth >= 1")
    return 2 * (1 - pushforward_mass(g, Cylinder(omega.prefix(depth)), group))
