"""Output checks for the benchmark's reports.

Each check takes a parsed report and returns None when the report is right,
or one line saying what is wrong.  The checks recompute what they compare
against by routes other than the one the report took, and run outside the
timed region.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from treeboundary.boundary import depth_mass
from treeboundary.deviation import deviation_sq_pairsum
from treeboundary.functions import LocallyConstantFunction
from treeboundary.verify import check_names
from treeboundary.words import FreeGroup, Word, mul

SAMPLED_ROWS = 6
SPECTRUM_TOLERANCES = {
    "pi_identity_error": 1e-10,
    "compression_error": 1e-10,
    "deviation_match_error": 1e-9,
}
ORACLE_RELATIVE_GAP = 1e-12


def load_function(path: Path) -> LocallyConstantFunction:
    obj = json.loads(Path(path).read_text())
    return LocallyConstantFunction.from_json_obj(obj, FreeGroup(int(obj["rank"])))


def sample_rows(row_count: int, rng: random.Random) -> list[int]:
    return sorted(rng.sample(range(row_count), min(SAMPLED_ROWS, row_count)))


def expectation_by_cells(phi: LocallyConstantFunction, g) -> tuple[Fraction, Fraction]:
    """E(phi)(g) summed over the depth-(k+|g|) cells u: phi(prefix_k(g u)) mu([u])."""
    depth = phi.depth + len(g)
    prefixes = Counter(mul(g, u).letters[: phi.depth] for u in phi.group.iter_sphere(depth))
    re = sum((phi.values[Word(p)].re * n for p, n in prefixes.items()), Fraction(0))
    im = sum((phi.values[Word(p)].im * n for p, n in prefixes.items()), Fraction(0))
    mass = depth_mass(depth, phi.group)
    return re * mass, im * mass


def check_deviation(report: dict, phi: LocallyConstantFunction, radius: int, sample: list[int]) -> str | None:
    rows = report["rows"]
    expected = phi.group.growth_count(radius)
    if len(rows) != expected:
        return f"deviation: {len(rows)} rows, expected {expected}"
    for index in sample:
        row = rows[index]
        g = phi.group.word(row["g"])
        if Fraction(row["deviation_sq"]) != deviation_sq_pairsum(phi, g):
            return f"deviation: sigma^2 at g={row['g']} differs from the pair-sum form"
        got = tuple(Fraction(x) for x in row["expectation"])
        if got != expectation_by_cells(phi, g):
            return f"deviation: E at g={row['g']} differs from direct enumeration"
    return None


def check_summability(report: dict, deviation_report: dict) -> str | None:
    """The p=2 sphere sums must equal the deviation report's sigma^2 sums."""
    sums = [Fraction(0)] * (deviation_report["radius"] + 1)
    for row in deviation_report["rows"]:
        sums[row["length"]] += Fraction(row["deviation_sq"])
    p2 = [r for r in report["reports"] if float(r["p"]) == 2.0]
    if len(p2) != 1:
        return "summability: no single p=2 report"
    got = [float(s) for s in p2[0]["sphere_sums"]]
    if got != [float(s) for s in sums]:
        return "summability: p=2 sphere sums differ from the deviation report"
    return None


def check_spectrum(report: dict) -> str | None:
    for field, tol in SPECTRUM_TOLERANCES.items():
        value = float(report[field])
        if not value <= tol:
            return f"spectrum: {field} = {report[field]} above {tol}"
    return None


def check_chern(report: dict) -> str | None:
    """The trace oracle at (R+1, R+1) must reproduce the exact B_R sum."""
    oracle = report["oracle"]["value"]
    value = complex(float(oracle["re"]), float(oracle["im"]))
    exact = report["partial_exact"]
    partial = complex(float(Fraction(exact["re"])), float(Fraction(exact["im"])))
    gap = abs(value - partial)
    if not gap <= ORACLE_RELATIVE_GAP * max(1.0, abs(partial)):
        return f"chern: |oracle - partial_exact| = {gap:.3g}"
    return None


def check_verify(report: dict) -> str | None:
    names = [c["name"] for c in report["checks"]]
    if names != check_names():
        return f"verify-all: checks {names} are not the registered ones"
    failed = [c["name"] for c in report["checks"] if c["ok"] is not True]
    if failed or report["ok"] is not True:
        return f"verify-all: failed checks {failed}"
    return None
