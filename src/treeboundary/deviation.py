"""Expectation, deviation and covariance of boundary functions over the group.

For a level-k function phi and a group element g:

    E(phi)(g)      = integral of phi against g_*mu          (exact)
    sigma^2(phi)(g) = E(|phi|^2)(g) - |E(phi)(g)|^2          (exact, >= 0)
    cov(phi,psi)(g) = E(phi psi*)(g) - E(phi)(g) E(psi)(g)*  (exact)

E and sigma^2 come from one set of integer sums, ``_sums``, and cov from
three expectations: with phi(w) = (a + ib) / D
(``LocallyConstantFunction.numerators``) and (g_*mu)([w]) = c_l / M
(``boundary.pushforward_weights``, l the common prefix length of g and w),
the sums are the Python ints A = sum a c_l, B = sum b c_l and
S = sum (a^2 + b^2) c_l, so that E(phi)(g) = (A + iB) / (D M) and
sigma^2(phi)(g) = (M S - A^2 - B^2) / (D M)^2.  The weight of a cell depends
on it only through l, so the sums need no pass over the cells: phi keeps
the sums of its numerators under every prefix
(``LocallyConstantFunction.prefix_sums``, built once per function), and
each of A, B and S is min(|g|, k) + 1 lookups along the prefixes of g,
O(depth) per expectation.  ``mean_and_deviation_sq`` makes E and sigma^2
from one call, for profile classes and ``deviation_sq`` alike; each
statistic is a Fraction made once, at the end.

``deviation_sq_pairsum`` recomputes sigma^2 through the double-integral
formula (1/2) iint |phi(gx) - phi(gy)|^2 dmu dmu on the common refinement of
depth k + |g|, where the action is cylinder-constant: it counts the cells
outside the cancellation cylinder by arithmetic and those inside along
``FreeGroup.product_runs``, the walk of the tree action on cells that
operator fibers also read, and uses no pushforward closed form.  The two
routes must agree exactly and tests enforce that agreement as a hard
identity.

Prefix classes: the pushforward mass of a depth-k cylinder [w] under g
depends on g only through |g| and the common prefix length of g and w (see
``boundary``).  So E(phi)(g) and sigma^2(phi)(g) depend only on the class
(prefix_k g, |g|), which is g itself when |g| < k.  ``FreeGroup.prefix_classes``
walks those classes; ``DeviationProfile.compute`` evaluates each once, at
one member, and enumerates no element of the ball: a profile holds its
classes, each with its prefix and its size |S_m| / |S_min(m,k)|.  The CSV
and JSON writers stream the word strings of each class's members, a run of
them at a time, into the class's "p/q" fragments, so their memory does not
grow with the ball; ``summability`` sums spheres by class and multiplicity;
the per-row view ``rows`` is built only when asked for.

Profiles are exact and their rows come in canonical ball order, so CSV/JSON
output is deterministic: ``write_json`` writes the very bytes of
``json.dumps(..., indent=2, sort_keys=True)`` of the row-by-row object.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import IO, Callable, Iterator, NamedTuple

from .words import FreeGroup, Word, word_to_str
from .boundary import depth_mass, pushforward_weights
from .functions import GaussianRational, LocallyConstantFunction, frac_str


def _sums(phi: LocallyConstantFunction, g: Word) -> tuple[int, int, int, int, int]:
    """Integer sums over the depth-k cells w of phi, with phi(w) = (a + ib) / D
    and (g_*mu)([w]) = c_l / M from ``pushforward_weights``, l the common
    prefix length of g and w: (sum a c_l, sum b c_l, sum (a^2 + b^2) c_l, D,
    M).  So E(phi)(g) = (sum a c_l + i sum b c_l) / (D M) and E(|phi|^2)(g) =
    sum (a^2 + b^2) c_l / (D^2 M).

    The cells with common prefix length l are those under g[:l] but not
    under g[:l+1], and all of those under g[:L], L = min(|g|, k), for l = L;
    so with S the ``prefix_sums`` of phi the sums telescope to
    c_0 S(()) + sum_{1 <= l <= L} (c_l - c_(l-1)) S(g[:l]): L + 1 lookups."""
    den, _ = phi.numerators
    total, weights = pushforward_weights(len(g), phi.depth, phi.group)
    sums, letters = phi.prefix_sums, g.letters
    re = im = sq = below = 0
    for ell in range(min(len(letters), phi.depth) + 1):
        a, b, s = sums[letters[:ell]]
        c = weights[ell] - below
        below = weights[ell]
        re += a * c
        im += b * c
        sq += s * c
    return re, im, sq, den, total


def expectation(phi: LocallyConstantFunction, g: Word) -> GaussianRational:
    """E(phi)(g) = sum over depth-k cells of phi(w) * (g_*mu)([w])."""
    re, im, _, den, total = _sums(phi, g)
    den *= total
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _expectation_abs_sq(phi: LocallyConstantFunction, g: Word) -> Fraction:
    """E(|phi|^2)(g)."""
    _, _, sq, den, total = _sums(phi, g)
    return Fraction(sq, den * den * total)


def _gap(phi: LocallyConstantFunction, g: Word) -> tuple[int, int, int, int]:
    """(sum a c, sum b c, M sum (a^2 + b^2) c - |sum (a + ib) c|^2, D M)
    from one pass of ``_sums``, so that E = (re + i im) / (D M) and sigma^2
    = gap / (D M)^2; a negative gap raises AssertionError."""
    re, im, sq, den, total = _sums(phi, g)
    gap = sq * total - re * re - im * im
    if gap < 0:
        raise AssertionError(f"negative deviation {Fraction(gap, (den * total) ** 2)} at {g}")
    return re, im, gap, den * total


def mean_and_deviation_sq(
    phi: LocallyConstantFunction, g: Word
) -> tuple[GaussianRational, Fraction]:
    """E(phi)(g) and sigma^2(phi)(g) from one pass of ``_sums`` (``_gap``)."""
    re, im, gap, den = _gap(phi, g)
    return GaussianRational(Fraction(re, den), Fraction(im, den)), Fraction(gap, den * den)


def deviation_sq(phi: LocallyConstantFunction, g: Word) -> Fraction:
    """sigma^2(phi)(g) = E(|phi|^2)(g) - |E(phi)(g)|^2, with no mean built."""
    _, _, gap, den = _gap(phi, g)
    return Fraction(gap, den * den)


def deviation_sq_pairsum(phi: LocallyConstantFunction, g: Word) -> Fraction:
    """sigma^2 via (1/2) iint |phi(gx)-phi(gy)|^2, grouped by value.

    On a depth k+|g| cell [u] the value phi(g .) is phi at the depth-k
    prefix of the reduced product g u, so the double integral collapses to
    a finite sum over distinct value pairs weighted by their masses.

    The cells are counted by that prefix (``FreeGroup.key_counts``, walked
    once per shape of g, which charges the depth-(k + |g|) sphere against
    the group's budget when the shape is new); each prefix is then mapped to
    its value's numerators once.
    """
    group = phi.group
    # values as Gaussian-integer numerators (a, b) over one denominator D
    den, numerators = phi.numerators
    counts: dict[tuple[int, int], int] = {}
    for key, c in group.key_counts(g, phi.depth).items():
        v = numerators[key]
        counts[v] = counts.get(v, 0) + c
    total = sum(
        ((a1 - a2) ** 2 + (b1 - b2) ** 2) * c1 * c2
        for ((a1, b1), c1), ((a2, b2), c2) in combinations(counts.items(), 2)
    )
    mass = depth_mass(phi.depth + len(g), group)
    return Fraction(total * mass.numerator**2, (den * mass.denominator) ** 2)


def covariance(
    phi: LocallyConstantFunction, psi: LocallyConstantFunction, g: Word
) -> GaussianRational:
    e_prod = expectation(phi * psi.conjugate(), g)
    return e_prod - expectation(phi, g) * expectation(psi, g).conjugate()


# ----------------------------------------------------------------------
# certified sphere envelope

def sigma_envelope(phi: LocallyConstantFunction, m: int) -> float:
    """A certified bound K(k) (2n-1)^(-(m-k)/2) on sigma(phi)(g), |g| = m.

    Write k = depth(phi).  For m >= k the set where the value of
    phi(g .) is not pinned to phi(prefix_k(g)) is the cylinder
    [prefix_{m-k+1}(g^-1)] of mass rho = (1/2n)(2n-1)^(k-m); the pair-sum
    form of sigma^2 then gives sigma^2 <= 4 ||phi||^2 rho.  For m < k use
    sigma <= ||phi||.  Both cases sit under the bound with
    K(k) = sqrt(2) ||phi|| sqrt(2n) (2n-1)^((k-1)/2).
    """
    n2 = 2 * phi.group.n
    constant = math.sqrt(2.0) * phi.sup_norm() * math.sqrt(n2) * (n2 - 1) ** ((phi.depth - 1) / 2.0)
    return constant * (n2 - 1) ** (-(m - phi.depth) / 2.0)


# ----------------------------------------------------------------------
# profiles

# rows per write of a profile's writers: a run is a lead and its (2n-1)^width
# suffixes, width the largest (at least 1) that keeps a run within _RUN
_RUN = 1024


class ProfileClass:
    """One prefix class (prefix_k g, |g|) of a profile and its statistics.

    The class holds the ``multiplicity`` words of length ``length`` that
    extend ``prefix``; the three "p/q" strings are formatted once, when the
    class is made.
    """

    def __init__(
        self,
        length: int,
        prefix: tuple[int, ...],
        expectation: GaussianRational,
        deviation_sq: Fraction,
        multiplicity: int,
    ):
        self.length = length
        self.prefix = prefix
        self.expectation = expectation
        self.deviation_sq = deviation_sq
        self.multiplicity = multiplicity
        self.re_str = frac_str(expectation.re)
        self.im_str = frac_str(expectation.im)
        self.sigma_str = frac_str(deviation_sq)


class ProfileRow(NamedTuple):
    """One element g of the ball and the statistics of its class."""

    g: Word
    length: int
    expectation: GaussianRational
    deviation_sq: Fraction


def sphere_classes(phi: LocallyConstantFunction, m: int) -> list[ProfileClass]:
    """The prefix classes of sphere m, each evaluated once, at one member."""
    classes = []
    for prefix, g, size in phi.group.prefix_classes(m, phi.depth):
        classes.append(ProfileClass(m, prefix, *mean_and_deviation_sq(phi, g), size))
    return classes


class DeviationProfile:
    """The prefix classes of each sphere of B_radius.

    ``spheres[m]`` lists the classes of sphere m in lexicographic order of
    prefix, which is canonical order of their members: sphere m's rows are
    the members of its classes, class by class.
    """

    def __init__(
        self,
        phi_label: str,
        radius: int,
        phi: LocallyConstantFunction,
        spheres: list[list[ProfileClass]],
    ):
        self.phi_label = phi_label
        self.radius = radius
        self.phi = phi
        self.spheres = spheres
        self.beyond: dict[int, list[ProfileClass]] = {}  # the spheres read past the radius
        self.totals: dict[int, Fraction | None] = {}  # the even-p sums over the group

    @classmethod
    def compute(
        cls,
        phi: LocallyConstantFunction,
        radius: int,
        label: str = "phi",
    ) -> "DeviationProfile":
        """One evaluation per prefix class of each sphere of B_radius.

        The group's budget is charged the classes and their sphere radii,
        here and by the sums over the whole group that read the profile; no
        element of the ball is enumerated here, so |B_R| is charged only by
        the callers that expand the rows (the ``deviation`` writers).
        """
        phi.group.check_class_budget(phi.depth, 0, radius)
        return cls(label, radius, phi, [sphere_classes(phi, m) for m in range(radius + 1)])

    @property
    def group(self) -> FreeGroup:
        return self.phi.group

    def sphere(self, m: int) -> list[ProfileClass]:
        """Sphere m's classes; past the profile's radius they are evaluated
        on first use and kept in ``beyond``, so that the series of several
        p read each sphere once."""
        if m <= self.radius:
            return self.spheres[m]
        if m not in self.beyond:
            self.beyond[m] = sphere_classes(self.phi, m)
        return self.beyond[m]

    def sphere_max_sq(self) -> list[Fraction]:
        """max sigma^2 per sphere, index = word length."""
        return [max(c.deviation_sq for c in s) for s in self.spheres]

    @cached_property
    def rows(self) -> list[ProfileRow]:
        """Every g in B_radius with its class, in canonical ball order;
        built on first access."""
        return [
            ProfileRow(Word(u), c.length, c.expectation, c.deviation_sq)
            for sphere in self.spheres
            for c in sphere
            for u in self.group.iter_sphere_letters(c.length, c.prefix)
        ]

    def _runs(self) -> Iterator[tuple[ProfileClass, str, list[str]]]:
        """The members of each class in runs, in canonical ball order: each
        run is a lead string and the suffix strings that complete it.

        A lead is a word of the class's length less at most ``width``
        letters that extends its prefix, and its suffixes are the words of
        the remaining length that may follow its last letter (any letter
        after an empty lead), so a run holds at most about ``_RUN`` members.
        The suffix strings are built once per (last letter, length), in
        lexicographic order, which is the order of the members.
        """
        group = self.group
        follow, size = group.follow, group.alphabet_size
        chars = [word_to_str((x,)) for x in range(size)]
        width = 1
        while (size - 1) ** (width + 1) <= _RUN:
            width += 1
        tails: dict[tuple[int, int], list[str]] = {}

        def suffixes(last: int, length: int) -> list[str]:
            # last = -1 stands for the empty lead
            if length == 0:
                return [""]
            key = (last, length)
            if key not in tails:
                ys = follow[last] if last >= 0 else range(size)
                tails[key] = [chars[y] + t for y in ys for t in suffixes(y, length - 1)]
            return tails[key]

        for sphere in self.spheres:
            for c in sphere:
                if not c.length:  # the identity
                    yield c, "1", [""]
                    continue
                free = min(c.length - len(c.prefix), width)
                for lead in group.iter_sphere_letters(c.length - free, c.prefix):
                    head = "".join([chars[x] for x in lead])
                    yield c, head, suffixes(lead[-1] if lead else -1, free)

    def _write_rows(
        self, fp: IO[str], fragments: Callable[[ProfileClass], tuple[str, str]], sep: str
    ) -> None:
        """Each row as its class's head, its word and its class's tail, rows
        separated by ``sep``; one write per run of members, whose
        fragments are made once per run."""
        glue = ""
        for c, lead, suffixes in self._runs():
            head, tail = fragments(c)
            head += lead
            fp.write(glue + head + (tail + sep + head).join(suffixes) + tail)
            glue = sep

    def write_csv(self, fp: IO[str]) -> None:
        """Columns g, |g|, Re E, Im E, sigma^2; no field needs quoting."""
        fp.write("g,|g|,Re E,Im E,sigma^2\n")
        self._write_rows(
            fp, lambda c: ("", f",{c.length},{c.re_str},{c.im_str},{c.sigma_str}\n"), ""
        )

    def write_json(self, fp: IO[str], rank: int) -> None:
        """The bytes of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``
        for obj = {"phi", "radius", "rank", "rows"}, each row an object with
        keys "deviation_sq", "expectation" ([re, im]), "g" and "length".

        The header goes through ``json.dumps`` (its keys sort before
        "rows"); each row is filled into its class's fragments, which need
        no escaping.
        """
        head = {"phi": self.phi_label, "radius": self.radius, "rank": rank}
        fp.write(json.dumps(head, indent=2, sort_keys=True)[:-2])
        fp.write(',\n  "rows": [\n')
        self._write_rows(
            fp,
            lambda c: (
                f'    {{\n      "deviation_sq": "{c.sigma_str}",\n      "expectation": [\n'
                f'        "{c.re_str}",\n        "{c.im_str}"\n      ],\n      "g": "',
                f'",\n      "length": {c.length}\n    }}',
            ),
            ",\n",
        )
        fp.write("\n  ]\n}\n")
