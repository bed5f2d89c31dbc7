import numpy as np
import pytest

from risdet.geometry import BinLayout
from risdet.signal_model import (
    CovarianceModel,
    SteeringSet,
    TargetParams,
    alpha_from_sinr,
    build_covariance,
    clutter_power_from_cnr,
    steering_vector,
    synthesize_batch,
    target_mean_matrix,
    trial_rng,
)


def test_steering_boresight_all_ones():
    assert np.allclose(steering_vector(0.0, 7), np.ones(7))


def test_steering_30_degrees_n2():
    v = steering_vector(30.0, 2)
    assert np.allclose(v, np.array([1.0, 1.0j]), atol=1e-15)


def test_steering_rejects_empty():
    with pytest.raises(ValueError):
        steering_vector(0.0, 0)


def test_steering_set_combines_paths():
    s = SteeringSet.from_angles(0.5, -0.4, 16)
    assert s.dim == 16
    assert np.allclose(s.v_sr, s.v_r + s.v_s)
    assert np.allclose(s.v_r, steering_vector(0.5, 16))
    assert np.allclose(s.v_s, steering_vector(-0.4, 16))


def test_steering_set_validation():
    with pytest.raises(ValueError):
        SteeringSet(v_r=np.ones(3), v_sr=np.ones(2), v_s=np.ones(3))


def test_covariance_model_validation():
    with pytest.raises(ValueError):
        CovarianceModel(noise_power=0.0, clutter_power=1.0, one_lag=0.5, dim=4)
    with pytest.raises(ValueError):
        CovarianceModel(noise_power=1.0, clutter_power=1.0, one_lag=1.0, dim=4)


def test_covariance_white_clutter():
    model = CovarianceModel(noise_power=1.0, clutter_power=3.0,
                            one_lag=0.0, dim=4)
    assert np.allclose(build_covariance(model), 4.0 * np.eye(4))


def test_clutter_power_from_cnr():
    assert clutter_power_from_cnr(25.0) == pytest.approx(10.0 ** 2.5)
    assert clutter_power_from_cnr(0.0, noise_power=2.0) == pytest.approx(2.0)


def test_covariance_case_study_entries():
    sigma_c = clutter_power_from_cnr(25.0)
    assert sigma_c == pytest.approx(316.23, abs=0.01)
    model = CovarianceModel(noise_power=1.0, clutter_power=sigma_c,
                            one_lag=0.9, dim=2)
    m = build_covariance(model)
    assert m[0, 0].real == pytest.approx(317.23, abs=0.01)
    assert m[0, 1].real == pytest.approx(284.6, abs=0.01)
    assert np.allclose(m, m.conj().T)


def test_alpha_ratio_is_20_db():
    m = build_covariance(CovarianceModel(1.0, 10.0, 0.5, 4))
    a1, a_n, a_m = alpha_from_sinr(-3.0, m, steering_vector(0.5, 4))
    assert abs(a_n) ** 2 / abs(a1) ** 2 == pytest.approx(100.0, rel=1e-12)
    assert a_m == a_n


def test_alpha_identity_covariance():
    n = 8
    a1, _, _ = alpha_from_sinr(0.0, np.eye(n), np.ones(n))
    assert abs(a1) ** 2 == pytest.approx(1.0 / n, rel=1e-12)


def test_alpha_matches_2x2_closed_form():
    sigma_c = clutter_power_from_cnr(25.0)
    m = build_covariance(CovarianceModel(1.0, sigma_c, 0.9, 2))
    v = steering_vector(0.5, 2)
    # Solve M x = v by the 2x2 adjugate and form v† x directly.
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    x = np.array([m[1, 1] * v[0] - m[0, 1] * v[1],
                  -m[1, 0] * v[0] + m[0, 0] * v[1]]) / det
    qf = (np.conj(v) @ x).real
    sinr_db = -7.0
    a1, _, _ = alpha_from_sinr(sinr_db, m, v)
    assert abs(a1) ** 2 * qf == pytest.approx(10.0 ** (sinr_db / 10.0),
                                              rel=1e-10)


def test_dataset_requires_enough_training():
    m = np.eye(4, dtype=complex)
    # K_S < N leaves the training scatter matrix singular.
    with pytest.raises(ValueError, match="K_S >= N"):
        synthesize_batch(None, m, 6, 3, 1, np.array([0]))
    # The window mean must match the array dimension.
    with pytest.raises(ValueError):
        synthesize_batch(np.zeros((3, 6)), m, 6, 8, 1, np.array([0]))


def test_target_mean_matrix_placement():
    steering = SteeringSet.from_angles(0.5, -0.4, 4)
    params = TargetParams(alpha=(1.0, 2.0, 3.0),
                          layout=BinLayout(3, 6, 6))
    mean = target_mean_matrix(params, steering, 6)
    assert mean.shape == (4, 6)
    assert np.allclose(mean[:, 0], steering.v_r)
    assert np.allclose(mean[:, 2], 2.0 * steering.v_sr)
    assert np.allclose(mean[:, 5], 3.0 * steering.v_s)
    assert np.allclose(mean[:, [1, 3, 4]], 0.0)
    with pytest.raises(ValueError):
        target_mean_matrix(params, steering, 5)


def test_trial_rng_keying():
    a = trial_rng(7, 0).standard_normal(4)
    b = trial_rng(7, 0).standard_normal(4)
    c = trial_rng(7, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("counters", [
    [9, 3, 1 << 33, 3, 12, 0],
    [7],
    [6 << 40, (6 << 40) + (5 << 28) + 17, 5 << 40, 2**64 - 1, 2**64 - 2,
     (1 << 40) + 1],
])
def test_rekeyed_draws_equal_trial_rng(counters):
    # synthesize_batch re-keys one generator per call; each trial must still
    # draw exactly trial_rng's stream, whatever the order, repeats or chunk
    # size of the counters.  At M = I the coloring is exact, so the output
    # is the scaled draw itself.
    n, k_p, k_s, seed = 4, 3, 5, 2**63 + 11
    z_p, r = synthesize_batch(None, np.eye(n), k_p, k_s, seed,
                              np.array(counters, dtype=np.uint64))
    for j, counter in enumerate(counters):
        raw = trial_rng(seed, counter).standard_normal((n, 2 * (k_p + k_s)))
        want = raw.view(np.complex128) * np.sqrt(0.5)
        assert np.array_equal(z_p[j], want[:, :k_p])
        assert np.array_equal(r[j], want[:, k_p:])


@pytest.mark.parametrize("with_mean", [False, True])
def test_synthesis_equals_one_shot_colouring(with_mean):
    # synthesize_batch colours its one buffer block by block, in place; the
    # data must equal trial_rng's draws coloured by one product over the
    # whole stack.  701 trials is no multiple of a colouring block.
    n, k_p, k_s, seed, trials = 8, 5, 9, 21, 701
    steering = SteeringSet.from_angles(0.5, -0.4, n)
    m = build_covariance(CovarianceModel(1.0, 10.0, 0.8, n))
    mean = None
    if with_mean:
        mean = target_mean_matrix(
            TargetParams(alpha=alpha_from_sinr(5.0, m, steering.v_r),
                         layout=BinLayout(2, 4, k_p)), steering, k_p)
    counters = np.arange(3 << 28, (3 << 28) + trials, dtype=np.uint64)
    z_p, r = synthesize_batch(mean, m, k_p, k_s, seed, counters)
    draws = np.stack([
        trial_rng(seed, int(c)).standard_normal((n, 2 * (k_p + k_s)))
        for c in counters]).view(np.complex128) * np.sqrt(0.5)
    want = np.matmul(np.linalg.cholesky(m), draws)
    if mean is not None:
        want[:, :, :k_p] += mean
    assert np.array_equal(z_p, want[:, :, :k_p])
    assert np.array_equal(r, want[:, :, k_p:])
    # Both blocks are views of the one (T, N, K_P + K_S) buffer.
    assert z_p.base is not None and z_p.base is r.base
    assert z_p.base.shape == (trials, n, k_p + k_s)


def test_h0_columns_are_zero_mean():
    """Statistical check: sample mean of 1e4 draws within 5 sigma of zero."""
    n, k_p, k_s, trials = 4, 3, 8, 10_000
    m = build_covariance(CovarianceModel(1.0, 5.0, 0.5, n))
    z_p, r = synthesize_batch(None, m, k_p, k_s, 99, np.arange(trials))
    for block in (z_p, r):
        col_mean = block.mean(axis=0)
        # Each entry is CN(0, M_ii): real/imag parts have variance M_ii/2.
        sigma = np.sqrt(np.diag(m).real / 2.0 / trials)[:, None]
        assert np.all(np.abs(col_mean.real) < 5.0 * sigma)
        assert np.all(np.abs(col_mean.imag) < 5.0 * sigma)


def test_h1_dominant_signal_aligns_with_steering():
    steering = SteeringSet.from_angles(0.5, -0.4, 8)
    m = build_covariance(CovarianceModel(1.0, 10.0, 0.9, 8))
    alphas = alpha_from_sinr(60.0, m, steering.v_r)
    params = TargetParams(alpha=alphas, layout=BinLayout(3, 6, 6))
    mean = target_mean_matrix(params, steering, 6)
    z_p, _ = synthesize_batch(mean, m, 6, 16, 5, np.array([0]))
    z1 = z_p[0, :, 0]
    corr = abs(np.vdot(steering.v_r, z1)) / (
        np.linalg.norm(steering.v_r) * np.linalg.norm(z1))
    assert corr > 0.99


def test_synthesize_deterministic():
    m = build_covariance(CovarianceModel(1.0, 5.0, 0.5, 4))
    a = synthesize_batch(None, m, 3, 8, 11, np.array([42]))
    b = synthesize_batch(None, m, 3, 8, 11, np.array([42]))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_batch_slices_match_single_trials():
    # Counter keying: a trial's draw does not depend on its batch position.
    m = build_covariance(CovarianceModel(1.0, 5.0, 0.5, 4))
    zp_all, r_all = synthesize_batch(None, m, 3, 8, 11,
                                     np.array([3, 5, 9]))
    zp_one, r_one = synthesize_batch(None, m, 3, 8, 11, np.array([5]))
    assert np.array_equal(zp_all[1], zp_one[0])
    assert np.array_equal(r_all[1], r_one[0])


def test_synthesized_covariance_is_roughly_right():
    n, trials = 3, 20_000
    m = build_covariance(CovarianceModel(1.0, 4.0, 0.7, n))
    z_p, _ = synthesize_batch(None, m, 1, n, 123, np.arange(trials))
    cols = z_p[:, :, 0]
    emp = (cols[:, :, None] * cols[:, None, :].conj()).mean(axis=0)
    assert np.allclose(emp, m, atol=0.12 * np.abs(m).max())
