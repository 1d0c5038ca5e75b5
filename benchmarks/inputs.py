"""Seeded input files for the benchmark workloads.

Every function is a dense depth-1 table: each cell holds a Gaussian rational
whose real and imaginary parts are both nonzero.  The denominators are fixed
primes per cell and part, and the seed draws only the signs and the
numerators, which lie strictly between 0 and the denominator.  Every value
is therefore nonzero and already in lowest terms, and the sizes of the
rationals the program meets do not depend on the seed.  ``expectation``
skips zero cells, so a dense table also keeps the work per report fixed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

RE_DENOMINATORS = (5, 7, 11, 13, 17, 19)
IM_DENOMINATORS = (7, 11, 13, 17, 19, 23)
TERM_ELEMENTS = ("a", "A", "b", "B")  # product a.A.b.B is the identity


def depth1_cells(rank: int) -> list[str]:
    """The depth-1 cylinders of F_rank in the library's letter order."""
    out = []
    for j in range(rank):
        out += [chr(ord("a") + j), chr(ord("A") + j)]
    return out


def _part(rng: random.Random, denominator: int) -> str:
    numerator = rng.randint(1, denominator - 1) * rng.choice((-1, 1))
    return f"{numerator}/{denominator}"


def dense_function(rank: int, rng: random.Random) -> dict:
    """A function file: every depth-1 value nonzero, in lowest terms."""
    values = {}
    for i, cell in enumerate(depth1_cells(rank)):
        values[cell] = [
            _part(rng, RE_DENOMINATORS[i % len(RE_DENOMINATORS)]),
            _part(rng, IM_DENOMINATORS[i % len(IM_DENOMINATORS)]),
        ]
    return {"rank": rank, "depth": 1, "values": values}


def terms_file(rng: random.Random) -> dict:
    """Degree-3 cocycle terms phi_i . g_i with g = a, A, b, B."""
    return {
        "rank": 2,
        "degree": 3,
        "terms": [{"phi": dense_function(2, rng), "g": g} for g in TERM_ELEMENTS],
    }


def write_inputs(directory: Path, seed: int) -> dict[str, Path]:
    """Write every input file for ``seed``; return their paths by role.

    Each file draws from its own stream, so adding a file never changes the
    values of another.
    """
    directory.mkdir(parents=True, exist_ok=True)
    objects = {
        "phi_f2": dense_function(2, random.Random(f"{seed}:phi_f2")),
        "phi_f3": dense_function(3, random.Random(f"{seed}:phi_f3")),
        "phi_spectrum": dense_function(2, random.Random(f"{seed}:phi_spectrum")),
        "terms": terms_file(random.Random(f"{seed}:terms")),
    }
    paths = {}
    for role, obj in objects.items():
        path = directory / f"{role}.json"
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        paths[role] = path
    return paths
