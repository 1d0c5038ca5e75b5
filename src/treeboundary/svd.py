"""Singular values, operator norms and Schatten norms of dense complex matrices.

A thin layer over LAPACK (``numpy.linalg.svd`` without singular vectors),
kept as a test oracle: every operator of this package is block-structured,
and each spectrum and norm that a report needs is a closed form on fiber
vectors (``operators``), so no report route calls this module.  Each
function imports numpy in its own body.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """All singular values of a 2-d complex array, descending."""
    import numpy as np

    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise ValueError("need a 2-d array")
    if 0 in a.shape:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def operator_norm(matrix: np.ndarray) -> float:
    values = singular_values(matrix)
    return float(values[0]) if values.size else 0.0


def schatten_norm(matrix: np.ndarray, p: float) -> float:
    import numpy as np

    if p <= 0:
        raise ValueError("p must be positive")
    values = singular_values(matrix)
    return float(np.sum(values**p)) ** (1.0 / p)
