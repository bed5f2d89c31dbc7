import numpy as np
import pytest

import risdet.hermitian_numerics as hn

from oracles import random_spd


def solve(f, b):
    """A^-1 b, entry by entry, as quad_form(e_k, f, b) = e_k† A^-1 b."""
    return np.array([hn.quad_form(e, f, b) for e in np.eye(f.dim)])


def test_cholesky_identity():
    f = hn.cholesky(np.eye(4))
    assert np.allclose(f.lower, np.eye(4))
    assert f.dim == 4


def test_cholesky_2x2_hand_factorization():
    f = hn.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
    expected = np.array([
        [np.sqrt(2.0), 0.0],
        [1.0 / np.sqrt(2.0), np.sqrt(1.5)],
    ])
    assert np.allclose(f.lower, expected, atol=1e-14)


def test_cholesky_rejects_indefinite():
    with pytest.raises(hn.NotPositiveDefinite):
        hn.cholesky(np.diag([1.0, -1.0]))


def test_cholesky_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hn.cholesky(a)


def test_cholesky_rejects_non_square():
    with pytest.raises(ValueError):
        hn.cholesky(np.ones((2, 3)))


def test_logdet_identity_and_diag():
    assert hn.logdet(hn.cholesky(np.eye(5))) == pytest.approx(0.0)
    assert hn.logdet(hn.cholesky(np.diag([2.0, 3.0]))) == pytest.approx(
        np.log(6.0), rel=1e-14)


def test_logdet_matches_eigenvalue_product(rng):
    a = random_spd(rng, 8)
    eigs = np.linalg.eigvalsh(a)
    assert hn.logdet(hn.cholesky(a)) == pytest.approx(
        float(np.sum(np.log(eigs))), rel=1e-10)


def test_solve_identity_and_diagonal():
    b = np.array([1.0 + 2.0j, -3.0j, 2.0])
    assert np.allclose(solve(hn.cholesky(np.eye(3)), b), b)
    d = np.array([2.0, 4.0, 5.0])
    assert np.allclose(solve(hn.cholesky(np.diag(d)), b), b / d)


def test_solve_matches_explicit_inverse(rng):
    a = random_spd(rng, 4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(solve(hn.cholesky(a), b), np.linalg.inv(a) @ b,
                       rtol=1e-10, atol=1e-12)


def test_quad_form_projection_and_orthogonality():
    v = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3.0)
    f = hn.cholesky(np.eye(3))
    assert hn.quad_form(v, f, v) == pytest.approx(1.0)
    assert hn.quad_form(v, f, 3.0 * v) == pytest.approx(3.0)
    w = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert abs(hn.quad_form(np.array([1.0, 0.0, -1.0]), f, w)) < 1e-14


def test_quad_form_matches_solve_then_dot(rng):
    a = random_spd(rng, 3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    expected = complex(np.conj(v) @ np.linalg.solve(a, z))
    assert hn.quad_form(v, hn.cholesky(a), z) == pytest.approx(expected,
                                                               rel=1e-10)


def test_whiten_inverts_lower_factor(rng):
    a = random_spd(rng, 5)
    f = hn.cholesky(a)
    x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    assert np.allclose(f.lower @ hn.whiten(f, x), x)


def test_logdet_plus_outer_matches_direct(rng):
    # Determinant lemma through the factor of A:
    # log det(A + X X†) = log det(A) + log det(I + W† W), W = L^-1 X.
    a = random_spd(rng, 6)
    x = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    direct = hn.logdet(hn.cholesky(a + x @ x.conj().T))
    f = hn.cholesky(a)
    w = hn.whiten(f, x)
    lemma = hn.logdet(f) + hn.logdet(hn.cholesky(np.eye(2) + w.conj().T @ w))
    assert lemma == pytest.approx(direct, rel=1e-10)


def test_batched_operations_match_per_slice(rng):
    stack = np.stack([random_spd(rng, 4) for _ in range(7)])
    f = hn.cholesky(stack)
    lds = hn.logdet(f)
    b = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    ws = hn.whiten(f, b)
    qs = hn.quad_form(b, f, b)
    for k in range(7):
        fk = hn.cholesky(stack[k])
        assert lds[k] == pytest.approx(hn.logdet(fk), rel=1e-12)
        assert np.allclose(ws[k], hn.whiten(fk, b[k]))
        assert qs[k] == pytest.approx(hn.quad_form(b[k], fk, b[k]), rel=1e-12)


def test_random_sweep_solve_residuals(rng):
    # Residual check over a spread of sizes; no shared code with the kernels.
    for n in (1, 2, 3, 5, 8, 13):
        for _ in range(5):
            a = random_spd(rng, n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = solve(hn.cholesky(a), b)
            assert np.linalg.norm(a @ x - b) < 1e-9 * np.linalg.norm(b)
