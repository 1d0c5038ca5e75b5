"""Summability diagnostics for deviation profiles.

The boundary has Hausdorff dimension D = log(2n-1) / epsilon for the visual
metric of parameter epsilon, and the operator-theoretic threshold of
interest is max(2, D): profiles of non-constant functions diverge in l^2 and
converge for exponents above the threshold.  Verdicts from finite data are
necessarily heuristic; reports always carry the raw sphere sums so callers
can assert ratios instead of truth of an infinite statement.

Sphere sums work on the profile's prefix classes with their multiplicities:
for even integer p they are computed exactly first as rationals and
converted once; for any other p each class's sigma^p is computed once and
the rows' terms accumulate in canonical enumeration order with compensated
(Kahan) summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .words import FreeGroup
from .boundary import VisualStructure
from .deviation import DeviationProfile, ProfileClass


def hausdorff_dimension(vs: VisualStructure) -> float:
    return vs.entropy / vs.epsilon


def summability_threshold(vs: VisualStructure) -> float:
    return max(2.0, hausdorff_dimension(vs))


def _kahan_sum(xs: Iterable[float]) -> float:
    total = 0.0
    carry = 0.0
    for x in xs:
        y = x - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


@dataclass
class SummabilityReport:
    phi_label: str
    p: float
    radius: int
    sphere_sums: list[float]          # index m = 0..radius
    partial_sum: float
    tail_ratios: list[float]          # consecutive nonzero sphere-sum ratios
    verdict: str                      # converging | diverging | inconclusive
    threshold: float

    def to_json_obj(self) -> dict:
        return {
            "phi": self.phi_label,
            "p": self.p,
            "radius": self.radius,
            "sphere_sums": self.sphere_sums,
            "partial_sum": self.partial_sum,
            "tail_ratios": self.tail_ratios,
            "verdict": self.verdict,
            "threshold": self.threshold,
        }


def _sphere_sum(classes: Sequence[ProfileClass], p: float) -> float:
    """sum of sigma^p over the rows of one sphere, given as its classes.

    Even p: the exact rational sum of multiplicity * (sigma^2)^(p/2),
    converted once.  Any other p: each class's float sigma^p once, then a
    Kahan sum over the rows in canonical order (each class a run of
    ``multiplicity`` equal terms), bitwise the row-by-row sum.
    """
    if p == int(p) and int(p) % 2 == 0:
        half = int(p) // 2
        return float(sum((c.multiplicity * c.deviation_sq**half for c in classes), Fraction(0)))
    return _kahan_sum(
        chain.from_iterable(
            repeat(float(c.deviation_sq) ** (p / 2.0), c.multiplicity) for c in classes
        )
    )


def _verdict(sphere_sums: Sequence[float], ratios: Sequence[float]) -> str:
    """The trend of the last three ratios; one within 5% of 1 is no trend."""
    if all(s == 0.0 for s in sphere_sums):
        return "converging"
    if len(ratios) < 3:
        return "inconclusive"
    last = ratios[-3:]
    if all(r < 0.95 for r in last):
        return "converging"
    if all(r > 1.05 for r in last):
        return "diverging"
    return "inconclusive"


def lp_report(profile: DeviationProfile, p: float, vs: VisualStructure) -> SummabilityReport:
    if profile.radius < 4:
        raise ValueError("summability reports need a profile of radius >= 4")
    if p <= 0:
        raise ValueError("p must be positive")
    sums = [_sphere_sum(classes, p) for classes in profile.spheres]
    ratios = []
    for prev, cur in zip(sums, sums[1:]):
        if prev > 0.0 and cur > 0.0:
            ratios.append(cur / prev)
    return SummabilityReport(
        phi_label=profile.phi_label,
        p=p,
        radius=profile.radius,
        sphere_sums=sums,
        partial_sum=_kahan_sum(sums),
        tail_ratios=ratios,
        verdict=_verdict(sums, ratios),
        threshold=summability_threshold(vs),
    )


def decay_exponent_fit(profile: DeviationProfile) -> float:
    """Least-squares slope of log(max sigma over sphere m) against m, m >= 1.

    The identity row is skipped: sigma there is the plain
    (untranslated) deviation and always equals the sphere-1 maximum for
    depth-1 indicators, which flattens the head of the regression line and
    biases the asymptotic rate estimate.
    """
    xs, ys = [], []
    for m, s in enumerate(profile.sphere_max_sq()):
        if m >= 1 and s > 0:
            xs.append(float(m))
            ys.append(0.5 * math.log(float(s)))
    if len(xs) < 4:
        raise ValueError("need at least 4 spheres with nonzero deviation")
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)


@dataclass
class SortedDecayCheck:
    """The multiplication-operator comparison T(g) = exp(-eps |g|).

    Sorting the values of T over a ball, the j-th largest is exp(-eps m)
    for |B_{m-1}| < j <= |B_m|; since |B_m| <= (2n/(2n-2)) (2n-1)^m and
    (2n-1)^(m/D) = exp(eps m), the sorted sequence obeys

        value_j <= C j^(-1/D),     C = (n/(n-1))^(1/D).

    ``max_ratio`` records the observed sup of value_j j^(1/D) / C.
    """

    C: float
    dimension: float
    max_ratio: float
    ok: bool


def dplus_surrogate_check(group: FreeGroup, vs: VisualStructure, radius: int) -> SortedDecayCheck:
    D = hausdorff_dimension(vs)
    C = (group.n / (group.n - 1)) ** (1.0 / D)
    worst = 0.0
    for m in range(radius + 1):
        j = group.growth_count(m)  # last (smallest-index) slot of value exp(-eps m)
        value = math.exp(-vs.epsilon * m)
        bound = C * j ** (-1.0 / D)
        worst = max(worst, value / bound)
    return SortedDecayCheck(C=C, dimension=D, max_ratio=worst, ok=worst <= 1.0 + 1e-12)
