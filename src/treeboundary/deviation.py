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
each class once and shares the values across its rows; a sphere of radius
m >= k has at most |S_k| classes.

Profiles (all statistics over a ball) are exact row-by-row and stream in
canonical order, so CSV/JSON output is deterministic.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import IO, Iterable

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

@dataclass(frozen=True)
class ProfileRow:
    g: Word
    length: int
    expectation: GaussianRational
    deviation_sq: Fraction


@dataclass
class DeviationProfile:
    phi_label: str
    radius: int
    rows: list[ProfileRow]

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
        classes: dict[tuple[tuple[int, ...], int], tuple[GaussianRational, Fraction]] = {}
        rows = []
        for g in group.iter_ball(radius):
            m = len(g)
            key = (g.letters[:k], m)
            stats = classes.get(key)
            if stats is None:
                e = expectation(phi, g)
                stats = classes[key] = (e, _expectation_abs_sq(phi, g) - e.abs2())
            rows.append(ProfileRow(g, m, *stats))
        return cls(label, radius, rows)

    def sphere_max_sq(self) -> list[Fraction]:
        """max sigma^2 per sphere, index = word length."""
        out = [Fraction(0)] * (self.radius + 1)
        for row in self.rows:
            if row.deviation_sq > out[row.length]:
                out[row.length] = row.deviation_sq
        return out

    def sphere_rows(self, m: int) -> Iterable[ProfileRow]:
        return (r for r in self.rows if r.length == m)

    def write_csv(self, fp: IO[str]) -> None:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["g", "|g|", "Re E", "Im E", "sigma^2"])
        for r in self.rows:
            writer.writerow(
                [
                    word_to_str(r.g),
                    r.length,
                    _frac(r.expectation.re),
                    _frac(r.expectation.im),
                    _frac(r.deviation_sq),
                ]
            )

    def to_json_obj(self) -> dict:
        return {
            "phi": self.phi_label,
            "radius": self.radius,
            "rows": [
                {
                    "g": word_to_str(r.g),
                    "length": r.length,
                    "expectation": [_frac(r.expectation.re), _frac(r.expectation.im)],
                    "deviation_sq": _frac(r.deviation_sq),
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)
