"""Summability of deviation profiles, summed exactly over the group.

The boundary has Hausdorff dimension D = log(2n-1) / epsilon for the visual
metric of parameter epsilon, and the operator-theoretic threshold of
interest is max(2, D).

For a level-k function and |h| = m >= k, E(phi)(h) = phi(prefix_k h) + A x
with x = (2n-1)^-m, so every covariance is a polynomial in x with no
constant term, and past the largest depth K the |S_K| prefix classes of a
sphere, each of size (2n-1)^(m-K), sum to a finite series in powers of x:
``sphere_series`` sums it exactly, and ``group_sum`` charges the classes of
the spheres it reads first, for the cocycle (``chern``) and for sigma^p at
even p (powers p/2 - 1 .. p - 1).  As sigma decays like
(2n-1)^(-m/2), the sum of sigma^p diverges iff p <= 2 and the p = 2
constant c_0 is nonzero, that is, sigma does not vanish past depth k.

Sphere sums work on the profile's prefix classes with their multiplicities,
summed exactly and rounded once: for odd or fractional p the terms are
each class's float sigma^p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

from .words import FreeGroup
from .boundary import VisualStructure
from .deviation import DeviationProfile, ProfileClass
from .functions import frac_str

T = TypeVar("T")  # an exact number: Fraction or GaussianRational


def hausdorff_dimension(vs: VisualStructure) -> float:
    return vs.entropy / vs.epsilon


def summability_threshold(vs: VisualStructure) -> float:
    return max(2.0, hausdorff_dimension(vs))


def sphere_series(sphere: Callable[[int], T], q: int, K: int, lo: int, hi: int) -> T | None:
    """The exact sum over m >= 0 of ``sphere(m)``, which for m >= K must be
    sum_{lo <= j <= hi} c_j q^(-jm), lo >= 0.

    The J = hi - lo + 1 coefficients are solved from spheres K..K+J-1, as
    the polynomial S(m) q^(lo m) in y = q^-m by Newton divided differences,
    and must predict sphere K+J exactly: a mismatch (a wrong K or power
    range) raises AssertionError.  Returns sum_{m<K} S(m) +
    sum_j c_j q^(-jK) / (1 - q^-j), or None when the sum diverges (c_0 != 0).
    """
    J = hi - lo + 1
    ys = [Fraction(1, q**m) for m in range(K, K + J + 1)]
    values = [sphere(m) * q ** (lo * m) for m in range(K, K + J + 1)]
    coef = values[:J]
    for level in range(1, J):
        for i in range(J - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (ys[i] - ys[i - level])
    # expand the Newton form into c_lo..c_hi, and evaluate it at y_{K+J}
    c, predicted = [coef[-1]], coef[-1]
    for i in range(J - 2, -1, -1):
        predicted = predicted * (ys[J] - ys[i]) + coef[i]
        c = [coef[i] - c[0] * ys[i]] + [c[t - 1] - c[t] * ys[i] for t in range(1, len(c))] + [c[-1]]
    if predicted != values[J]:
        raise AssertionError(
            f"sphere {K + J} is off the series in powers {lo}..{hi} of spheres {K}..{K + J - 1}"
        )
    if any(cj for j, cj in enumerate(c, lo) if j <= 0):
        return None
    head = sum((sphere(m) for m in range(K)), values[0] * 0)
    # sum_{m >= K} q^(-jm) = 1 / (q^(j(K-1)) (q^j - 1))
    tail = (cj * Fraction(1, q ** (j * (K - 1)) * (q**j - 1)) for j, cj in enumerate(c, lo) if j)
    return sum(tail, head)


def group_sum(
    sphere: Callable[[int], T],
    group: FreeGroup,
    depth: int,
    radius: int,
    lo: int,
    hi: int,
) -> T | None:
    """``sphere_series`` over ``group`` (q = 2n - 1) from K = max(depth, 1),
    where ``sphere`` has spheres 0..``radius`` summed already, after
    charging the classes it evaluates, and their sphere radii, against the
    group's budget: the depth-K classes of spheres min(radius + 1, K)..K+J,
    J = hi - lo + 1, that is the head spheres past the radius, the J
    solving spheres and the check sphere."""
    K = max(depth, 1)
    group.check_class_budget(K, min(radius + 1, K), K + hi - lo + 1)
    return sphere_series(sphere, 2 * group.n - 1, K, lo, hi)


class SummabilityReport:
    def __init__(
        self,
        phi_label: str,
        p: float,
        radius: int,
        sphere_sums: list[float],  # index m = 0..radius
        partial_sum: float,
        tail_ratios: list[float],  # consecutive nonzero sphere-sum ratios
        verdict: str,  # converging | diverging
        threshold: float,
        total: Fraction | None = None,  # even p: the exact sum, None if it diverges
    ):
        self.phi_label = phi_label
        self.p = p
        self.radius = radius
        self.sphere_sums = sphere_sums
        self.partial_sum = partial_sum
        self.tail_ratios = tail_ratios
        self.verdict = verdict
        self.threshold = threshold
        self.total = total

    def to_json_obj(self) -> dict:
        obj = {
            "phi": self.phi_label,
            "p": self.p,
            "radius": self.radius,
            "sphere_sums": self.sphere_sums,
            "partial_sum": self.partial_sum,
            "tail_ratios": self.tail_ratios,
            "verdict": self.verdict,
            "threshold": self.threshold,
        }
        if _even(self.p):
            total = self.total
            obj["total_exact"] = None if total is None else frac_str(total)
        return obj


def _even(p: float) -> bool:
    return p == int(p) and int(p) % 2 == 0


def exact_sphere_sum(classes: Sequence[ProfileClass], half: int) -> Fraction:
    """sum of sigma^(2 half) over the rows of one sphere, given as its
    classes, exact."""
    return sum((c.multiplicity * c.deviation_sq**half for c in classes), Fraction(0))


def _sphere_sum(classes: Sequence[ProfileClass], p: float) -> float:
    """sum of sigma^p over the rows of one sphere, given as its classes: for
    odd or fractional p, the exact sum of each class's float sigma^p times
    its multiplicity, rounded once."""
    if _even(p):
        return float(exact_sphere_sum(classes, int(p) // 2))
    terms = (Fraction(float(c.deviation_sq) ** (p / 2.0)) * c.multiplicity for c in classes)
    return float(sum(terms, Fraction(0)))


def _even_total(profile: DeviationProfile, p: int) -> Fraction | None:
    """The exact sum of sigma^p over the group, p even, once per profile and
    kept in ``profile.totals``: powers p/2 - 1 .. p - 1 past depth(phi),
    charged against the group's budget."""
    if p not in profile.totals:
        profile.totals[p] = group_sum(
            lambda m: exact_sphere_sum(profile.sphere(m), p // 2),
            profile.group, profile.phi.depth, profile.radius, p // 2 - 1, p - 1
        )
    return profile.totals[p]


def lp_report(profile: DeviationProfile, p: float, vs: VisualStructure) -> SummabilityReport:
    if profile.radius < 4:
        raise ValueError("summability reports need a profile of radius >= 4")
    if p <= 0:
        raise ValueError("p must be positive")
    sums = [_sphere_sum(classes, p) for classes in profile.spheres]
    ratios = [cur / prev for prev, cur in zip(sums, sums[1:]) if prev > 0.0 and cur > 0.0]
    diverging = p <= 2 and _even_total(profile, 2) is None
    return SummabilityReport(
        phi_label=profile.phi_label,
        p=p,
        radius=profile.radius,
        sphere_sums=sums,
        partial_sum=math.fsum(sums),
        tail_ratios=ratios,
        verdict="diverging" if diverging else "converging",
        threshold=summability_threshold(vs),
        total=_even_total(profile, int(p)) if _even(p) else None,
    )


def decay_exponent_fit(profile: DeviationProfile) -> float | None:
    """Least-squares slope of log(max sigma over sphere m) against m, m >= 1;
    None when sigma vanishes on every such sphere, as for a constant
    function, where there is no decay to fit.

    The identity row is skipped: sigma there is the plain
    (untranslated) deviation and always equals the sphere-1 maximum for
    depth-1 indicators, which flattens the head of the regression line and
    biases the asymptotic rate estimate.  Each log is taken of the exact
    maximum, whose float may underflow to 0 at large radii.
    """
    maxima = profile.sphere_max_sq()[1:]
    if maxima and not any(maxima):
        return None
    xs, ys = [], []
    for m, s in enumerate(maxima, 1):
        if s > 0:
            xs.append(float(m))
            ys.append(0.5 * (math.log(s.numerator) - math.log(s.denominator)))
    if len(xs) < 4:
        raise ValueError("need at least 4 spheres with nonzero deviation")
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    return sxy / sxx


class SortedDecayCheck:
    """The multiplication-operator comparison T(g) = exp(-eps |g|).

    Sorting the values of T over a ball, the j-th largest is exp(-eps m)
    for |B_{m-1}| < j <= |B_m|; since |B_m| <= (2n/(2n-2)) (2n-1)^m and
    (2n-1)^(m/D) = exp(eps m), the sorted sequence obeys

        value_j <= C j^(-1/D),     C = (n/(n-1))^(1/D).

    ``max_ratio`` records the observed sup of value_j j^(1/D) / C.
    """

    def __init__(self, C: float, dimension: float, max_ratio: float, ok: bool):
        self.C = C
        self.dimension = dimension
        self.max_ratio = max_ratio
        self.ok = ok


def dplus_surrogate_check(group: FreeGroup, vs: VisualStructure, radius: int) -> SortedDecayCheck:
    D = hausdorff_dimension(vs)
    C = (group.n / (group.n - 1)) ** (1.0 / D)
    q = 2 * group.n - 1
    worst = 0.0
    for m in range(radius + 1):
        j = group.growth_count(m)  # last (smallest-index) slot of value exp(-eps m)
        # value_j j^(1/D) / C = (j / q^m)^(1/D) / C, as eps D = log q: one
        # correctly rounded integer quotient, where j passes the float range
        # and exp(-eps m) underflows at large radii
        worst = max(worst, (j / q**m) ** (1.0 / D) / C)
    return SortedDecayCheck(C=C, dimension=D, max_ratio=worst, ok=worst <= 1.0 + 1e-12)
