"""Cholesky kernels of the signal model and the detection engine.

The signal model factors the disturbance covariance once per call
(`_covariance_factor`, behind `synthesize_batch` and `alpha_from_sinr`);
the engine factors the training scatter S_S, whitens the window and
steering vectors by that factor, and takes small log-dets (`_GramWorkspace`,
`_small_logdet`).  No explicit inverse is formed on either side.
"""

import numpy as np
import pytest

import risdet.detectors as det
from risdet.signal_model import (
    NotPositiveDefinite,
    _covariance_factor,
    alpha_from_sinr,
    synthesize_batch,
    trial_rng,
)

from conftest import make_steering
from oracles import random_spd

# The two callers of the checked covariance factor.
FACTOR_CALLERS = (
    lambda m: synthesize_batch(None, m, 3, len(m), 0, np.arange(2)),
    lambda m: alpha_from_sinr(0.0, m, np.ones(len(m))),
)


def workspace(a, cells):
    """Engine workspace of one trial whose training scatter S_S = R R† is A
    (R the Cholesky factor of A, so K_S = N) and whose window holds cells."""
    r = np.linalg.cholesky(a).astype(complex)
    return det._GramWorkspace(np.asarray(cells, dtype=complex)[None], r[None],
                              make_steering(len(a)))


def solve(a, b):
    """A^-1 b through the engine's whitening: with window cells [I, b, b],
    Gram entry (k, N) is e_k† A^-1 b."""
    n = len(b)
    return workspace(a, np.column_stack([np.eye(n), b, b])).g[0, :n, n]


def test_cholesky_identity():
    lower = _covariance_factor(np.eye(4))
    assert np.allclose(lower, np.eye(4))
    assert lower.shape == (4, 4)


def test_cholesky_2x2_hand_factorization():
    lower = _covariance_factor(np.array([[2.0, 1.0], [1.0, 2.0]]))
    expected = np.array([
        [np.sqrt(2.0), 0.0],
        [1.0 / np.sqrt(2.0), np.sqrt(1.5)],
    ])
    assert np.allclose(lower, expected, atol=1e-14)


def test_cholesky_rejects_indefinite():
    for call in FACTOR_CALLERS:
        with pytest.raises(NotPositiveDefinite):
            call(np.diag([1.0, -1.0]))


def test_cholesky_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    for call in FACTOR_CALLERS:
        with pytest.raises(ValueError, match="Hermitian"):
            call(a)


def test_cholesky_rejects_non_square():
    for call in FACTOR_CALLERS:
        with pytest.raises(ValueError, match="square"):
            call(np.ones((2, 3)))


def test_logdet_identity_and_diag():
    assert det._small_logdet(np.eye(5)) == pytest.approx(0.0)
    assert det._small_logdet(np.diag([2.0, 3.0])) == pytest.approx(
        np.log(6.0), rel=1e-14)


def test_logdet_matches_eigenvalue_product(rng):
    a = random_spd(rng, 8)
    eigs = np.linalg.eigvalsh(a)
    assert det._small_logdet(a) == pytest.approx(
        float(np.sum(np.log(eigs))), rel=1e-10)


def test_solve_identity_and_diagonal():
    b = np.array([1.0 + 2.0j, -3.0j, 2.0])
    assert np.allclose(solve(np.eye(3), b), b)
    d = np.array([2.0, 4.0, 5.0])
    assert np.allclose(solve(np.diag(d), b), b / d)


def test_solve_matches_explicit_inverse(rng):
    a = random_spd(rng, 4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(solve(a, b), np.linalg.inv(a) @ b,
                       rtol=1e-10, atol=1e-12)


def test_quad_form_projection_and_orthogonality():
    # alpha_from_sinr meets |alpha_1|^2 v† M^-1 v = SINR; at M = I, 0 dB
    # and a unit v that is alpha_1 = 1.
    v = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3.0)
    assert alpha_from_sinr(0.0, np.eye(3), v)[0] == pytest.approx(1.0)
    assert alpha_from_sinr(0.0, np.eye(3), 3.0 * v)[0] == pytest.approx(1 / 3)
    # Through S_S = I the engine's Gram entries are plain inner products.
    g = workspace(np.eye(3), np.column_stack(
        [v, [1.0, 0.0, -1.0], [1.0, 0.0, 1.0]])).g[0]
    assert g[0, 0] == pytest.approx(1.0)
    assert abs(g[1, 2]) < 1e-14


def test_quad_form_matches_solve_then_dot(rng):
    a = random_spd(rng, 3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    qf = complex(np.conj(v) @ np.linalg.solve(a, v)).real
    a1 = alpha_from_sinr(7.0, a, v)[0]
    assert abs(a1) ** 2 * qf == pytest.approx(10.0 ** 0.7, rel=1e-10)
    # The engine's Gram row of v_R holds v_R† S_S^-1 z for every cell z.
    v_r = make_steering(3).v_r
    expected = np.conj(v_r) @ np.linalg.solve(a, z)
    assert np.allclose(workspace(a, z).g[0, 3, :3], expected,
                       rtol=1e-10, atol=0.0)


def test_whiten_inverts_lower_factor(rng):
    # synthesize_batch colours unit-variance draws by the covariance
    # factor; whitening the drawn cells by that factor recovers the draws.
    a = random_spd(rng, 5)
    z_p, r = synthesize_batch(None, a, 3, 5, 17, np.array([4]))
    raw = trial_rng(17, 4).standard_normal((5, 16))
    white = np.sqrt(0.5) * (raw[:, 0::2] + 1j * raw[:, 1::2])
    cells = np.concatenate([z_p[0], r[0]], axis=1)
    assert np.allclose(np.linalg.solve(_covariance_factor(a), cells), white)


def test_logdet_plus_outer_matches_direct(rng):
    # Determinant lemma of the engine's det-ratio numerator:
    # log det(I + X† S_S^-1 X) = log det(S_S + X X†) - log det(S_S).
    a = random_spd(rng, 6)
    x = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    direct = (np.linalg.slogdet(a + x @ x.conj().T)[1]
              - np.linalg.slogdet(a)[1])
    assert workspace(a, x).ld_num_rel[0] == pytest.approx(direct, rel=1e-10)


def test_batched_operations_match_per_slice(rng):
    stack = np.stack([random_spd(rng, 4) for _ in range(7)])
    lds = det._small_logdet(stack)
    z_p = rng.standard_normal((7, 4, 3)) + 1j * rng.standard_normal((7, 4, 3))
    r = np.linalg.cholesky(stack).astype(complex)
    ws = det._GramWorkspace(z_p, r, make_steering(4))
    for k in range(7):
        assert lds[k] == pytest.approx(det._small_logdet(stack[k]), rel=1e-12)
        one = det._GramWorkspace(z_p[k:k + 1], r[k:k + 1], make_steering(4))
        assert np.allclose(ws.g[k], one.g[0])
        assert ws.ld_num_rel[k] == pytest.approx(one.ld_num_rel[0], rel=1e-12)


def test_random_sweep_solve_residuals(rng):
    # Residual check over a spread of sizes; no shared code with the kernels.
    for n in (1, 2, 3, 5, 8, 13):
        for _ in range(5):
            a = random_spd(rng, n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = solve(a, b)
            assert np.linalg.norm(a @ x - b) < 1e-9 * np.linalg.norm(b)
