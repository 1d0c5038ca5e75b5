"""Singular values and Schatten norms: shape contract and numerical identities."""

import numpy as np
import pytest

from treeboundary import operator_norm, schatten_norm, singular_values


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal(
        (rows, cols)
    )


@pytest.mark.parametrize("rows,cols", [(1, 1), (3, 3), (5, 2), (2, 7), (20, 20)])
def test_matches_lapack(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    for _ in range(6):
        a = random_complex(rng, rows, cols)
        got = singular_values(a)
        want = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(got - want)) <= 1e-10
        assert np.all(np.diff(got) <= 1e-12)  # descending


def test_rank_deficient_and_zero():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 4, 2)
    padded = np.hstack([a, a])  # rank 2 in a 4x4 frame
    got = singular_values(padded)
    want = np.linalg.svd(padded, compute_uv=False)
    assert np.max(np.abs(got - want)) <= 1e-10
    assert np.allclose(got[2:], 0.0, atol=1e-12)
    assert np.all(singular_values(np.zeros((3, 3))) == 0.0)


def test_hermitian_input_gives_abs_eigenvalues():
    rng = np.random.default_rng(5)
    a = random_complex(rng, 6, 6)
    h = a + a.conj().T
    got = singular_values(h)
    want = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]
    assert np.max(np.abs(got - want)) <= 1e-10


def test_operator_and_schatten_norms():
    a = np.diag([3.0, 4.0]).astype(complex)
    assert operator_norm(a) == pytest.approx(4.0)
    assert schatten_norm(a, 1) == pytest.approx(7.0)
    assert schatten_norm(a, 2) == pytest.approx(5.0)
    # p -> infinity limit sits above every finite-p norm / counted scale
    assert schatten_norm(a, 100) == pytest.approx(4.0, abs=1e-1)


def test_unitary_invariance():
    rng = np.random.default_rng(9)
    a = random_complex(rng, 5, 5)
    q, _ = np.linalg.qr(random_complex(rng, 5, 5))
    assert np.max(
        np.abs(singular_values(q @ a) - singular_values(a))
    ) <= 1e-10


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_rejects_non_matrix(shape):
    with pytest.raises(ValueError):
        singular_values(np.ones(shape))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_empty_shapes_give_no_values(shape):
    values = singular_values(np.zeros(shape))
    assert values.shape == (0,)
    assert operator_norm(np.zeros(shape)) == 0.0
