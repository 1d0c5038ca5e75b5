"""Locally constant functions on the boundary with Gaussian-rational values.

A level-k function is a table over the depth-k cylinder partition.  Values
are complex numbers with rational real and imaginary parts, so every algebra
operation, integral and statistic downstream stays exact.  The group acts by
``(g.phi)(xi) = phi(g^-1 xi)``; translating a level-k function gives a level
``k + |g|`` function.  Tables are never pruned back to a coarser level
(translations stay cheap); equality refines both sides first.

``frac_str`` ("p/q") and ``float_str`` (17 significant digits) are the one
rendering of each kind of number that the reports hold.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Union

from .words import FreeGroup, Frozen, Word, mul, reduced_word, word_from_str, word_to_str
from .boundary import BoundaryPoint, Cylinder, depth_mass

RationalLike = Union[int, Fraction, "GaussianRational", tuple, complex]


class GaussianRational(Frozen):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.re, self.im) == (other.re, other.im)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    @staticmethod
    def of(value: RationalLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, tuple):
            return GaussianRational(Fraction(value[0]), Fraction(value[1]))
        if isinstance(value, complex):
            # convenience for literals like 1j in tests; exact binary floats
            return GaussianRational(Fraction(value.real), Fraction(value.imag))
        return GaussianRational(Fraction(value))

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        """of(), but None for foreign types so dunders can defer."""
        try:
            return GaussianRational.of(value)
        except TypeError:
            return None

    def __add__(self, other: RationalLike) -> "GaussianRational":
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: RationalLike) -> "GaussianRational":
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: RationalLike) -> "GaussianRational":
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: RationalLike) -> "GaussianRational":
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "GaussianRational":
        o = GaussianRational.of(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(o.re / d, -o.im / d)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        return f"{self.re}+{self.im}i" if self.im else str(self.re)


QQ_ZERO = GaussianRational()
QQ_ONE = GaussianRational(Fraction(1))
QQ_I = GaussianRational(Fraction(0), Fraction(1))


def frac_str(x: Fraction) -> str:
    """The report rendering of an exact rational: "p/q", also for integers."""
    return f"{x.numerator}/{x.denominator}"


def float_str(x: float) -> str:
    """The report rendering of a float: 17 significant digits, which
    round-trip every binary64 value."""
    return f"{float(x):.17g}"


class LocallyConstantFunction:
    """A level-k table of Gaussian-rational values, one per depth-k cylinder.

    Instances are immutable by convention; all operations return new objects.
    """

    def __init__(
        self,
        group: FreeGroup,
        depth: int,
        values: Mapping[Word, RationalLike],
    ):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        expected = group.sphere_count(depth)
        if len(values) != expected:
            raise ValueError(
                f"{len(values)} values given, the depth-{depth} partition has {expected} cells"
            )
        table: dict[Word, GaussianRational] = {}
        for w, v in values.items():
            if len(w) != depth:
                raise ValueError(f"key {w!r} does not have depth {depth}")
            group.check_letters(w.letters)
            table[w] = GaussianRational.of(v)
        self.group = group
        self.depth = depth
        self.values = dict(sorted(table.items()))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _of_table(
        cls, group: FreeGroup, depth: int, values: dict[Word, GaussianRational]
    ) -> "LocallyConstantFunction":
        """The function of a table that is valid by construction, as the
        algebra and ``translate`` build them from valid tables: one
        GaussianRational for each depth-k cell, keyed in canonical order.
        Nothing is checked; the public constructor checks everything."""
        phi = cls.__new__(cls)
        phi.group, phi.depth, phi.values = group, depth, values
        return phi

    @classmethod
    def _of_numerators(cls, group: FreeGroup, depth: int, den: int, cells: dict):
        """The function of ``numerators`` (den, cells), cells in canonical
        order; its table is made when read.  Nothing is checked."""
        phi = cls.__new__(cls)
        phi.group, phi.depth, phi.numerators = group, depth, (den, cells)
        return phi

    @cached_property
    def values(self) -> dict[Word, GaussianRational]:
        """The table of a function made by ``_of_numerators``."""
        den, cells = self.numerators
        return {reduced_word(w): GaussianRational(Fraction(a, den), Fraction(b, den))
                for w, (a, b) in cells.items()}

    @classmethod
    def constant(cls, group: FreeGroup, value: RationalLike) -> "LocallyConstantFunction":
        return cls(group, 0, {Word(): value})

    @classmethod
    def indicator(cls, group: FreeGroup, c: Cylinder | Word) -> "LocallyConstantFunction":
        w = c.prefix if isinstance(c, Cylinder) else c
        vals = {u: (1 if u == w else 0) for u in group.sphere(len(w))}
        return cls(group, len(w), vals)

    # ------------------------------------------------------------------
    # evaluation and refinement

    def eval(self, xi: Union[BoundaryPoint, Cylinder, Word]) -> GaussianRational:
        if isinstance(xi, BoundaryPoint):
            return self.values[xi.prefix(self.depth)]
        w = xi.prefix if isinstance(xi, Cylinder) else xi
        if len(w) < self.depth:
            raise ValueError(
                f"cylinder of depth {len(w)} does not determine a level-{self.depth} value"
            )
        return self.values[w.prefix(self.depth)]

    @cached_property
    def letter_complex(self) -> dict[tuple[int, ...], complex]:
        """The table keyed by the letter tuples of its cells, each value
        converted to complex once."""
        return {w.letters: v.to_complex() for w, v in self.values.items()}

    @cached_property
    def numerators(self) -> tuple[int, dict[tuple[int, ...], tuple[int, int]]]:
        """D, the lcm of the denominators of the values' parts (a common
        denominator for ``_of_numerators``), and the Gaussian-integer
        numerator (a, b) of each cell's value (a + ib) / D, keyed by the
        cell's letter tuple."""
        den = math.lcm(*(x.denominator for v in self.values.values() for x in (v.re, v.im)))
        return den, {
            w.letters: (v.re.numerator * (den // v.re.denominator),
                         v.im.numerator * (den // v.im.denominator))
            for w, v in self.values.items()
        }

    @cached_property
    def prefix_sums(self) -> dict[tuple[int, ...], tuple[int, int, int]]:
        """S(p) = (sum a, sum b, sum (a^2 + b^2)) over the depth-k cells that
        extend p, for every reduced prefix p of length 0..k, with (a, b) the
        ``numerators`` of each cell; each level is summed from the one below."""
        _, cells = self.numerators
        level = {w: (a, b, a * a + b * b) for w, (a, b) in cells.items()}
        sums = dict(level)
        for _ in range(self.depth):
            parents: dict[tuple[int, ...], tuple[int, int, int]] = {}
            for w, (a, b, s) in level.items():
                x = parents.get(w[:-1])
                parents[w[:-1]] = (a, b, s) if x is None else (x[0] + a, x[1] + b, x[2] + s)
            sums.update(parents)
            level = parents
        return sums

    def refine(self, depth: int) -> "LocallyConstantFunction":
        if depth < self.depth:
            raise ValueError("cannot refine to a coarser level")
        if depth == self.depth:
            return self
        vals = {
            u: self.values[u.prefix(self.depth)]
            for u in self.group.sphere(depth)
        }
        return LocallyConstantFunction._of_table(self.group, depth, vals)

    def _pair(self, other: "LocallyConstantFunction"):
        if other.group != self.group:
            raise ValueError("functions live over different groups")
        d = max(self.depth, other.depth)
        return self.refine(d), other.refine(d)

    # ------------------------------------------------------------------
    # *-algebra operations, all exact

    def __add__(self, other) -> "LocallyConstantFunction":
        if not isinstance(other, LocallyConstantFunction):
            other = LocallyConstantFunction.constant(self.group, other)
        f, g = self._pair(other)
        return LocallyConstantFunction._of_table(
            f.group, f.depth, {w: f.values[w] + g.values[w] for w in f.values}
        )

    __radd__ = __add__

    def __neg__(self) -> "LocallyConstantFunction":
        return LocallyConstantFunction._of_table(
            self.group, self.depth, {w: -v for w, v in self.values.items()}
        )

    def __sub__(self, other) -> "LocallyConstantFunction":
        return self + (-other if isinstance(other, LocallyConstantFunction)
                       else -GaussianRational.of(other))

    def __mul__(self, other) -> "LocallyConstantFunction":
        if not isinstance(other, LocallyConstantFunction):
            c = GaussianRational.of(other)
            return LocallyConstantFunction._of_table(
                self.group, self.depth, {w: v * c for w, v in self.values.items()}
            )
        f, g = self._pair(other)
        return LocallyConstantFunction._of_table(
            f.group, f.depth, {w: f.values[w] * g.values[w] for w in f.values}
        )

    __rmul__ = __mul__

    def conjugate(self) -> "LocallyConstantFunction":
        return LocallyConstantFunction._of_table(
            self.group, self.depth, {w: v.conjugate() for w, v in self.values.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocallyConstantFunction):
            return NotImplemented
        f, g = self._pair(other)
        return f.values == g.values

    __hash__ = None  # refinement-based equality; not usable as a dict key

    # ------------------------------------------------------------------
    # norms and integrals

    def sup_norm_sq(self) -> Fraction:
        return max(v.abs2() for v in self.values.values())

    def sup_norm(self) -> float:
        return float(self.sup_norm_sq()) ** 0.5

    def integral(self) -> GaussianRational:
        m = depth_mass(self.depth, self.group)
        total = QQ_ZERO
        for v in self.values.values():
            total = total + v * m
        return total

    def l2_norm_sq(self) -> Fraction:
        """sum |v|^2 mu on the numerators; each depth-k cell has mass 1 / |S_k|."""
        den, nums = self.numerators
        total = sum(a * a + b * b for a, b in nums.values())
        return Fraction(total, den * den * self.group.sphere_count(self.depth))

    def l2_distance_sq(self, other: "LocallyConstantFunction") -> Fraction:
        """||self - other||^2 from both numerator tables at the finer depth."""
        if other.group != self.group:
            raise ValueError("functions live over different groups")
        (df, f), (dg, g) = self.numerators, other.numerators
        k, l, total = self.depth, other.depth, 0
        for u in self.group.iter_sphere_letters(max(k, l)):
            (a, b), (c, e) = f[u[:k]], g[u[:l]]
            x, y = a * dg - c * df, b * dg - e * df
            total += x * x + y * y
        return Fraction(total, (df * dg) ** 2 * self.group.sphere_count(max(k, l)))

    # ------------------------------------------------------------------
    # serialization

    def to_json_obj(self) -> dict:
        return {
            "depth": self.depth,
            "values": {
                word_to_str(w): [frac_str(v.re), frac_str(v.im)]
                for w, v in self.values.items()
            },
        }

    @classmethod
    def from_json_obj(cls, obj: dict, group: FreeGroup) -> "LocallyConstantFunction":
        vals = {
            word_from_str(k, group.n): GaussianRational(Fraction(v[0]), Fraction(v[1]))
            for k, v in obj["values"].items()
        }
        return cls(group, obj["depth"], vals)

    def __repr__(self) -> str:
        return f"<LocallyConstantFunction depth={self.depth} on F_{self.group.n}>"


def translate(g: Word, phi: LocallyConstantFunction) -> LocallyConstantFunction:
    """(g.phi)(xi) = phi(g^-1 xi), a level k + |g| function.

    For |u| = k + |g| the cancellation of g^-1 against any point of [u] is
    decided by u alone, and |g^-1 u| >= k, so the depth-k value of phi at
    the reduced product determines g.phi on all of [u].
    """
    if g.is_identity:
        return phi
    d = phi.depth + len(g)
    ginv = g.inverse()
    vals = {
        u: phi.values[mul(ginv, u).prefix(phi.depth)]
        for u in phi.group.sphere(d)
    }
    return LocallyConstantFunction._of_table(phi.group, d, vals)


def random_unit_function(
    group: FreeGroup, depth: int, rng: random.Random
) -> LocallyConstantFunction:
    """A random Gaussian-rational function with exact L2(mu) norm 1.

    Rational points on the ellipsoid sum mu_c |z_c|^2 = 1 are produced by
    intersecting a rational line through the constant function 1 (a known
    rational point) with the ellipsoid a second time.  With the direction
    (a_c + i b_c) / 2520, each part drawn as randint(-9, 9) / randint(1, 9),
    the equal masses cancel: the point is (q - 2 s (a_c + i b_c)) / q,
    q = sum (a^2 + b^2) and s = sum a, and q = 0 or s = 0 is drawn again.
    """
    cells = group.sphere(depth)
    while True:  # per cell: re numerator, re denominator, im numerator, im denominator
        nums = [(rng.randint(-9, 9) * (2520 // rng.randint(1, 9)),
                 rng.randint(-9, 9) * (2520 // rng.randint(1, 9))) for _ in cells]
        q, s = sum(a * a + b * b for a, b in nums), sum(a for a, _ in nums)
        if q == 0 or s == 0:
            continue
        vals = {w: GaussianRational(Fraction(q - 2 * s * a, q), Fraction(-2 * s * b, q))
                for w, (a, b) in zip(cells, nums)}
        phi = LocallyConstantFunction(group, depth, vals)
        assert phi.l2_norm_sq() == 1
        return phi
