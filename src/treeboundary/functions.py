"""Locally constant functions on the boundary with Gaussian-rational values.

A level-k function is one table over the depth-k cylinder partition: a
common denominator D and a Gaussian-integer numerator per cell
(``LocallyConstantFunction.numerators``), so every algebra operation,
integral and statistic downstream stays exact and runs on Python ints.  Only
this module builds that table; other modules read it.  The table of
``GaussianRational`` values (``values``) is a view made from it when read.
The group acts by ``(g.phi)(xi) = phi(g^-1 xi)``; translating a level-k
function gives a level ``k + |g|`` function.  Tables are never pruned back
to a coarser level (translations stay cheap); sums, products and equality
refine both sides to the finer level first.

``frac_str`` ("p/q") and ``float_str`` (17 significant digits) are the one
rendering of each kind of number that the reports hold.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Union

from .words import (
    FreeGroup, Frozen, Word, _product_letters, reduced_word, word_from_str, word_to_str,
)
from .boundary import BoundaryPoint, Cylinder

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
    """A level-k function, one Gaussian-rational value per depth-k cylinder.

    Its one table is ``numerators`` = (D, cells): a positive common
    denominator D and, keyed by the letter tuple of each depth-k cell in
    canonical order, the Gaussian-integer numerator (a, b) of the cell's
    value (a + ib) / D.  D need not be the least one; the public constructor
    takes the lcm of the values' denominators, ``+`` and ``-`` the lcm of
    the operands' D and ``*`` their product.  ``values``, the table of
    ``GaussianRational``s keyed by ``Word``, is a view made from it when read.

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
        table: dict[tuple[int, ...], GaussianRational] = {}
        for w, v in values.items():
            if len(w) != depth:
                raise ValueError(f"key {w!r} does not have depth {depth}")
            group.check_letters(w.letters)
            table[w.letters] = GaussianRational.of(v)
        den = math.lcm(*(x.denominator for v in table.values() for x in (v.re, v.im)))
        self.group = group
        self.depth = depth
        self.numerators = den, {
            u: (v.re.numerator * (den // v.re.denominator),
                v.im.numerator * (den // v.im.denominator))
            for u, v in sorted(table.items())
        }

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _of_numerators(cls, group: FreeGroup, depth: int, den: int, cells: dict):
        """The function of ``numerators`` (den, cells), valid by
        construction, as the algebra and ``translate`` build them from valid
        tables: den > 0 and one Gaussian integer for each depth-k cell, in
        canonical order.  Nothing is checked; the public constructor checks
        everything."""
        phi = cls.__new__(cls)
        phi.group, phi.depth, phi.numerators = group, depth, (den, cells)
        return phi

    @cached_property
    def values(self) -> dict[Word, GaussianRational]:
        """The table as Gaussian rationals keyed by ``Word``, made from
        ``numerators`` when first read."""
        den, cells = self.numerators
        return {reduced_word(w): GaussianRational(Fraction(a, den), Fraction(b, den))
                for w, (a, b) in cells.items()}

    @classmethod
    def constant(cls, group: FreeGroup, value: RationalLike) -> "LocallyConstantFunction":
        return cls(group, 0, {Word(): value})

    @classmethod
    def indicator(cls, group: FreeGroup, c: Cylinder | Word) -> "LocallyConstantFunction":
        w = (c.prefix if isinstance(c, Cylinder) else c).letters
        group.check_letters(w)
        cells = {u.letters: (int(u.letters == w), 0) for u in group.sphere(len(w))}
        return cls._of_numerators(group, len(w), 1, cells)

    # ------------------------------------------------------------------
    # evaluation and refinement

    def eval(self, xi: Union[BoundaryPoint, Cylinder, Word]) -> GaussianRational:
        if isinstance(xi, BoundaryPoint):
            w = xi.prefix(self.depth)
        else:
            w = xi.prefix if isinstance(xi, Cylinder) else xi
            if len(w) < self.depth:
                raise ValueError(
                    f"cylinder of depth {len(w)} does not determine a level-{self.depth} value"
                )
        den, cells = self.numerators
        a, b = cells[w.letters[: self.depth]]
        return GaussianRational(Fraction(a, den), Fraction(b, den))

    @cached_property
    def letter_complex(self) -> dict[tuple[int, ...], complex]:
        """The table keyed by the letter tuples of its cells, each value
        converted to complex once: a / D and b / D are correctly rounded
        integer divisions, the bits of ``GaussianRational.to_complex``."""
        den, cells = self.numerators
        return {w: complex(a / den, b / den) for w, (a, b) in cells.items()}

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
        self.group.check_budget(m=depth)
        k, (den, cells) = self.depth, self.numerators
        return self._of_numerators(
            self.group, depth, den, {u: cells[u[:k]] for u in self.group.iter_sphere_letters(depth)}
        )

    def _pair(self, other):
        """Both numerator tables at the finer depth d, a scalar ``other`` as
        a constant function: (d, D_self, D_other, the pairs of cell
        numerators in canonical order)."""
        if not isinstance(other, LocallyConstantFunction):
            other = LocallyConstantFunction.constant(self.group, other)
        if other.group != self.group:
            raise ValueError("functions live over different groups")
        d = max(self.depth, other.depth)
        (df, f), (dg, g) = self.refine(d).numerators, other.refine(d).numerators
        return d, df, dg, zip(f.items(), g.values())

    # ------------------------------------------------------------------
    # *-algebra operations, all exact on the numerators

    def __add__(self, other) -> "LocallyConstantFunction":
        d, df, dg, cells = self._pair(other)
        den = math.lcm(df, dg)
        x, y = den // df, den // dg
        return self._of_numerators(self.group, d, den, {
            u: (a * x + c * y, b * x + e * y) for (u, (a, b)), (c, e) in cells
        })

    __radd__ = __add__

    def __neg__(self) -> "LocallyConstantFunction":
        den, cells = self.numerators
        return self._of_numerators(
            self.group, self.depth, den, {u: (-a, -b) for u, (a, b) in cells.items()}
        )

    def __sub__(self, other) -> "LocallyConstantFunction":
        return self + (-other if isinstance(other, LocallyConstantFunction)
                       else -GaussianRational.of(other))

    def __mul__(self, other) -> "LocallyConstantFunction":
        d, df, dg, cells = self._pair(other)
        return self._of_numerators(self.group, d, df * dg, {
            u: (a * c - b * e, a * e + b * c) for (u, (a, b)), (c, e) in cells
        })

    __rmul__ = __mul__

    def conjugate(self) -> "LocallyConstantFunction":
        den, cells = self.numerators
        return self._of_numerators(
            self.group, self.depth, den, {u: (a, -b) for u, (a, b) in cells.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocallyConstantFunction):
            return NotImplemented
        if other.group != self.group:  # functions on different boundaries
            return False
        _, df, dg, cells = self._pair(other)
        return all(a * dg == c * df and b * dg == e * df for (_, (a, b)), (c, e) in cells)

    __hash__ = None  # refinement-based equality; not usable as a dict key

    # ------------------------------------------------------------------
    # norms and integrals; each depth-k cell has mass 1 / |S_k|

    def sup_norm_sq(self) -> Fraction:
        den, cells = self.numerators
        return Fraction(max(a * a + b * b for a, b in cells.values()), den * den)

    def sup_norm(self) -> float:
        return float(self.sup_norm_sq()) ** 0.5

    def l2_norm_sq(self) -> Fraction:
        den, cells = self.numerators
        total = sum(a * a + b * b for a, b in cells.values())
        return Fraction(total, den * den * self.group.sphere_count(self.depth))

    # ------------------------------------------------------------------
    # serialization

    def to_json_obj(self) -> dict:
        den, cells = self.numerators
        return {
            "depth": self.depth,
            "values": {
                word_to_str(w): [frac_str(Fraction(a, den)), frac_str(Fraction(b, den))]
                for w, (a, b) in cells.items()
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
    group, k = phi.group, phi.depth
    d, ginv, (den, cells) = k + len(g), g.inverse().letters, phi.numerators
    group.check_budget(m=d)
    return LocallyConstantFunction._of_numerators(
        group, d, den,
        {u: cells[_product_letters(ginv, u)[:k]] for u in group.iter_sphere_letters(d)},
    )


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
        phi = LocallyConstantFunction._of_numerators(group, depth, q, {
            w.letters: (q - 2 * s * a, -2 * s * b) for w, (a, b) in zip(cells, nums)
        })
        assert phi.l2_norm_sq() == 1
        return phi
