"""Expectation, deviation and covariance of boundary functions over the group.

For a level-k function phi and a group element g:

    E(phi)(g)      = integral of phi against g_*mu          (exact)
    sigma^2(phi)(g) = E(|phi|^2)(g) - |E(phi)(g)|^2          (exact, >= 0)
    cov(phi,psi)(g) = E(phi psi*)(g) - E(phi)(g) E(psi)(g)*  (exact)

``deviation_sq_pairsum`` recomputes sigma^2 through the double-integral
formula (1/2) iint |phi(gx) - phi(gy)|^2 dmu dmu on the common refinement of
depth k + |g|, where the action is cylinder-constant; the two routes must
agree exactly and tests enforce that agreement as a hard identity.

Prefix classes: the pushforward mass of a depth-k cylinder [w] under g
depends on g only through |g| and the common prefix length of g and w (see
``boundary``).  So for |g| = m >= k, E(phi)(g) and sigma^2(phi)(g) depend
only on the class (prefix_k g, m).  ``DeviationProfile.compute`` evaluates
each class once; a sphere of radius m >= k has |S_k| classes, each of
multiplicity |S_m| / |S_k|.  Everything after ``compute`` works per class
too: a ``ProfileClass`` formats its three "p/q" strings once, the CSV and
JSON writers fill each row into its class's fragments (so a row costs its
word string and one concatenation), and ``summability`` sums spheres by
class and multiplicity.

Profiles are exact and their rows stay in canonical ball order, so CSV/JSON
output is deterministic: ``write_json`` writes the very bytes of
``json.dumps(..., indent=2, sort_keys=True)`` of the row-by-row object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import IO, Callable, NamedTuple

from .words import DEFAULT_BUDGET, BudgetError, Word, word_to_str
from .boundary import Cylinder, depth_mass, pushforward_mass
from .functions import GaussianRational, LocallyConstantFunction

_frac = lambda x: f"{x.numerator}/{x.denominator}"


def expectation(phi: LocallyConstantFunction, g: Word) -> GaussianRational:
    """E(phi)(g) = sum over depth-k cells of phi(w) * (g_*mu)([w])."""
    re = im = Fraction(0)
    for w, v in phi.values.items():
        if v:
            mass = pushforward_mass(g, Cylinder(w), phi.group)
            re += v.re * mass
            im += v.im * mass
    return GaussianRational(re, im)


def _expectation_abs_sq(phi: LocallyConstantFunction, g: Word) -> Fraction:
    total = Fraction(0)
    for w, v in phi.values.items():
        if v:
            total += v.abs2() * pushforward_mass(g, Cylinder(w), phi.group)
    return total


def deviation_sq(phi: LocallyConstantFunction, g: Word) -> Fraction:
    e = expectation(phi, g)
    s = _expectation_abs_sq(phi, g) - e.abs2()
    if s < 0:
        raise AssertionError(f"negative deviation {s} at {g}")
    return s


def deviation(phi: LocallyConstantFunction, g: Word) -> float:
    return math.sqrt(float(deviation_sq(phi, g)))


def deviation_sq_pairsum(
    phi: LocallyConstantFunction, g: Word, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """sigma^2 via (1/2) iint |phi(gx)-phi(gy)|^2, grouped by value.

    On a depth k+|g| cell [u] the value phi(g .) is phi at the depth-k
    prefix of the reduced product g u, so the double integral collapses to
    a finite sum over distinct value pairs weighted by their masses.

    Every cell is visited as a letter tuple; the cells are counted by the
    depth-k prefix of g u, and each prefix is then mapped to its value once.
    """
    group = phi.group
    k, m = phi.depth, len(g)
    d = k + m
    if group.sphere_count(d) > budget:
        raise BudgetError(group.sphere_count(d), budget)
    a, ginv = g.letters, g.inverse().letters
    prefixes: dict[tuple[int, ...], int] = {}
    for u in group.iter_sphere_letters(d):
        # g u cancels exactly the common prefix of g^-1 and u
        j = 0
        while j < m and u[j] == ginv[j]:
            j += 1
        key = (a[: m - j] + u[j : j + k])[:k]
        prefixes[key] = prefixes.get(key, 0) + 1
    counts: dict[GaussianRational, int] = {}
    for key, c in prefixes.items():
        v = phi.values[Word(key)]
        counts[v] = counts.get(v, 0) + c
    total = Fraction(0)
    for (v1, c1), (v2, c2) in combinations(counts.items(), 2):
        total += (v1 - v2).abs2() * (c1 * c2)
    return total * depth_mass(d, group) ** 2


def covariance(
    phi: LocallyConstantFunction, psi: LocallyConstantFunction, g: Word
) -> GaussianRational:
    e_prod = expectation(phi * psi.conjugate(), g)
    return e_prod - expectation(phi, g) * expectation(psi, g).conjugate()


# ----------------------------------------------------------------------
# certified sphere envelope

def sphere_envelope_constant(phi: LocallyConstantFunction) -> float:
    """K(k) with sigma(phi)(g) <= K(k) (2n-1)^(-(|g|-k)/2) for every g.

    Write m = |g|, k = depth(phi).  For m >= k the set where the value of
    phi(g .) is not pinned to phi(prefix_k(g)) is the cylinder
    [prefix_{m-k+1}(g^-1)] of mass rho = (1/2n)(2n-1)^(k-m); the pair-sum
    form of sigma^2 then gives sigma^2 <= 4 ||phi||^2 rho.  For m < k use
    sigma <= ||phi||.  Both cases sit under
    sqrt(2) ||phi|| sqrt(2n) (2n-1)^((k-1)/2) * (2n-1)^(-(m-k)/2).
    """
    n2 = 2 * phi.group.n
    return (
        math.sqrt(2.0)
        * phi.sup_norm()
        * math.sqrt(n2)
        * (n2 - 1) ** ((phi.depth - 1) / 2.0)
    )


def sigma_envelope(
    phi: LocallyConstantFunction, m: int, constant: float | None = None
) -> float:
    """The certified bound K(k) (2n-1)^(-(m-k)/2) on sigma(phi) at sphere m.

    ``constant`` passes a precomputed ``sphere_envelope_constant(phi)``.
    """
    if constant is None:
        constant = sphere_envelope_constant(phi)
    n2 = 2 * phi.group.n
    return constant * (n2 - 1) ** (-(m - phi.depth) / 2.0)


# ----------------------------------------------------------------------
# profiles

@dataclass(eq=False)
class ProfileClass:
    """The statistics shared by the rows of one prefix class (prefix_k g, |g|).

    The three "p/q" strings are formatted once, when the class is made;
    ``multiplicity`` counts the rows of the class.
    """

    length: int
    expectation: GaussianRational
    deviation_sq: Fraction
    multiplicity: int = 0
    re_str: str = field(init=False)
    im_str: str = field(init=False)
    sigma_str: str = field(init=False)

    def __post_init__(self) -> None:
        self.re_str = _frac(self.expectation.re)
        self.im_str = _frac(self.expectation.im)
        self.sigma_str = _frac(self.deviation_sq)


class ProfileRow(NamedTuple):
    """One element g of the ball and the prefix class it belongs to."""

    g: Word
    cls: ProfileClass

    @property
    def length(self) -> int:
        return self.cls.length

    @property
    def expectation(self) -> GaussianRational:
        return self.cls.expectation

    @property
    def deviation_sq(self) -> Fraction:
        return self.cls.deviation_sq


@dataclass
class DeviationProfile:
    """Rows in canonical ball order, and the prefix classes of each sphere.

    ``spheres[m]`` lists the classes of sphere m in order of first row; the
    rows of one class are consecutive (canonical order is lexicographic, so
    a depth-k prefix is a run), so sphere m's rows are its classes, each
    repeated ``multiplicity`` times, in that order.
    """

    phi_label: str
    radius: int
    rows: list[ProfileRow]
    spheres: list[list[ProfileClass]]

    @classmethod
    def compute(
        cls,
        phi: LocallyConstantFunction,
        radius: int,
        label: str = "phi",
        budget: int = DEFAULT_BUDGET,
    ) -> "DeviationProfile":
        """Rows for every g in B_radius, one evaluation per prefix class.

        The class key (prefix_k g, |g|) is g itself when |g| < k, so short
        words are evaluated directly.
        """
        group = phi.group
        if group.growth_count(radius) > budget:
            raise BudgetError(group.growth_count(radius), budget)
        k = phi.depth
        classes: dict[tuple[tuple[int, ...], int], ProfileClass] = {}
        spheres: list[list[ProfileClass]] = [[] for _ in range(radius + 1)]
        rows = []
        for g in group.iter_ball(radius):
            m = len(g)
            key = (g.letters[:k], m)
            c = classes.get(key)
            if c is None:
                e = expectation(phi, g)
                c = classes[key] = ProfileClass(m, e, _expectation_abs_sq(phi, g) - e.abs2())
                spheres[m].append(c)
            c.multiplicity += 1
            rows.append(ProfileRow(g, c))
        return cls(label, radius, rows, spheres)

    def sphere_max_sq(self) -> list[Fraction]:
        """max sigma^2 per sphere, index = word length."""
        return [max(c.deviation_sq for c in s) for s in self.spheres]

    def sphere_rows(self, m: int) -> list[ProfileRow]:
        start = sum(c.multiplicity for s in self.spheres[:m] for c in s)
        return self.rows[start : start + sum(c.multiplicity for c in self.spheres[m])]

    @cached_property
    def _words(self) -> list[str]:
        return [word_to_str(r.g) for r in self.rows]

    def _render(self, fragments: Callable[[ProfileClass], tuple[str, str]]) -> list[str]:
        """Each row as its class's prefix, its word and its class's suffix;
        the fragments are made once per class, whose rows are a run."""
        out, words, start = [], self._words, 0
        for sphere in self.spheres:
            for c in sphere:
                prefix, suffix = fragments(c)
                end = start + c.multiplicity
                out += [prefix + w + suffix for w in words[start:end]]
                start = end
        return out

    def write_csv(self, fp: IO[str]) -> None:
        """Columns g, |g|, Re E, Im E, sigma^2; no field needs quoting."""
        rows = self._render(lambda c: ("", f",{c.length},{c.re_str},{c.im_str},{c.sigma_str}\n"))
        fp.write("g,|g|,Re E,Im E,sigma^2\n")
        fp.write("".join(rows))

    def write_json(self, fp: IO[str], rank: int) -> None:
        """The bytes of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``
        for obj = {"phi", "radius", "rank", "rows"}, each row an object with
        keys "deviation_sq", "expectation" ([re, im]), "g" and "length".

        The header goes through ``json.dumps`` (its keys sort before
        "rows"); each row is filled into its class's fragments, which need
        no escaping.
        """
        head = {"phi": self.phi_label, "radius": self.radius, "rank": rank}
        rows = self._render(
            lambda c: (
                f'    {{\n      "deviation_sq": "{c.sigma_str}",\n      "expectation": [\n'
                f'        "{c.re_str}",\n        "{c.im_str}"\n      ],\n      "g": "',
                f'",\n      "length": {c.length}\n    }}',
            )
        )
        fp.write(json.dumps(head, indent=2, sort_keys=True)[:-2])
        fp.write(',\n  "rows": [\n')
        fp.write(",\n".join(rows))
        fp.write("\n  ]\n}\n")
