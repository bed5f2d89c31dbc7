"""Steering vectors, disturbance covariance, amplitudes, and data synthesis.

The window under test holds K_P cells: cell 1 may carry the direct echo
(signature v_R), cell n the single-bounce echo (v_SR = v_S + v_R in the
spatial-only setup), and cell m the double-bounce echo (v_S).  K_S training
vectors are always target free.  Disturbance is colored complex Gaussian
noise drawn by Cholesky coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BinLayout

_MASK64 = (1 << 64) - 1

# Relative asymmetry tolerated before a covariance is rejected as non-Hermitian.
HERMITIAN_RTOL = 1e-10

# Trials coloured per matrix product in synthesize_batch; the block buffer
# (about 2 MB at N = 16, K_P + K_S = 30) stays in cache.
_COLOUR_BLOCK = 256


class NotPositiveDefinite(ValueError):
    """Matrix expected to be Hermitian positive definite is not.

    Typical causes: a sample covariance built from fewer snapshots than the
    array dimension, or degenerate synthetic data.  positions holds the
    batch positions of the failing trials when the error concerns some
    trials of a batch, else None.
    """

    def __init__(self, message: str, positions: np.ndarray | None = None):
        super().__init__(message)
        self.positions = positions


def _covariance_factor(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a covariance that must be square, Hermitian
    within HERMITIAN_RTOL (it is then symmetrized) and positive definite."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    mh = m.conj().T
    scale = max(np.abs(m).max(), np.finfo(float).tiny)
    if np.abs(m - mh).max() > HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    try:
        return np.linalg.cholesky(0.5 * (m + mh))
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err


def steering_vector(theta_deg: float, n: int) -> np.ndarray:
    """Half-wavelength array response, entry k = exp(j pi k sin theta)."""
    if n < 1:
        raise ValueError("array size must be >= 1")
    k = np.arange(n)
    return np.exp(1j * np.pi * k * np.sin(np.radians(theta_deg)))


@dataclass(frozen=True)
class SteeringSet:
    """Signatures of the three echo paths: v_R direct, v_S surface, v_SR mixed."""

    v_r: np.ndarray
    v_sr: np.ndarray
    v_s: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.v_r)
        if n < 1 or len(self.v_sr) != n or len(self.v_s) != n:
            raise ValueError("steering vectors must share a common length >= 1")

    @property
    def dim(self) -> int:
        return len(self.v_r)

    @classmethod
    def from_angles(cls, theta_r_deg: float, theta_s_deg: float, n: int) -> "SteeringSet":
        """Spatial-only set: v_SR is the sum of the two one-bounce signatures."""
        v_r = steering_vector(theta_r_deg, n)
        v_s = steering_vector(theta_s_deg, n)
        return cls(v_r=v_r, v_sr=v_s + v_r, v_s=v_s)


@dataclass(frozen=True)
class CovarianceModel:
    """White noise plus exponentially correlated clutter."""

    noise_power: float
    clutter_power: float
    one_lag: float
    dim: int

    def __post_init__(self) -> None:
        if self.noise_power <= 0 or self.clutter_power < 0:
            raise ValueError("powers must be positive (noise) and nonnegative (clutter)")
        if not 0.0 <= self.one_lag < 1.0:
            raise ValueError("one-lag correlation must lie in [0, 1)")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def clutter_power_from_cnr(cnr_db: float, noise_power: float = 1.0) -> float:
    return noise_power * 10.0 ** (cnr_db / 10.0)


def build_covariance(model: CovarianceModel) -> np.ndarray:
    """M = sigma_n^2 I + M_c with M_c(i, j) = sigma_c^2 rho^|i-j|."""
    idx = np.arange(model.dim)
    lags = np.abs(idx[:, None] - idx[None, :])
    m = model.clutter_power * model.one_lag ** lags
    m[idx, idx] += model.noise_power
    return m.astype(np.complex128)


@dataclass(frozen=True)
class TargetParams:
    """Amplitudes (alpha_1, alpha_n, alpha_m) tied to a window layout."""

    alpha: tuple[complex, complex, complex]
    layout: BinLayout


def alpha_from_sinr(
    sinr_db: float, m: np.ndarray, v_r: np.ndarray, ratio: float = 10.0
) -> tuple[complex, complex, complex]:
    """Amplitudes meeting a direct-path SINR of |alpha_1|^2 v_R† M^-1 v_R.

    alpha_1 is taken real positive (every implemented statistic is phase
    invariant); the assisted-path amplitudes are ratio * alpha_1.
    """
    w = np.linalg.solve(_covariance_factor(m), np.asarray(v_r)[:, None])[:, 0]
    qf = np.sum(np.conj(w) * w).real
    alpha_1 = np.sqrt(10.0 ** (sinr_db / 10.0) / qf)
    return (complex(alpha_1), complex(ratio * alpha_1), complex(ratio * alpha_1))


def _philox_key(master_seed: int, trial_index: int) -> np.ndarray:
    return np.array([master_seed & _MASK64, trial_index & _MASK64],
                    dtype=np.uint64)


def trial_rng(master_seed: int, trial_index: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for one trial.

    Counter-based keying: the (master_seed, trial_index) pair is the Philox
    key, so any subset of trials can be drawn in any order, serial or
    parallel, with identical results.
    """
    return np.random.Generator(
        np.random.Philox(key=_philox_key(master_seed, trial_index)))


def target_mean_matrix(
    params: TargetParams, steering: SteeringSet, k_p: int
) -> np.ndarray:
    """Mean of Z_P under H1: signal components at cells 1, n, m."""
    layout = params.layout
    if layout.m > k_p:
        raise ValueError("layout does not fit the window")
    a1, a_n, a_m = params.alpha
    mean = np.zeros((steering.dim, k_p), dtype=np.complex128)
    mean[:, 0] = a1 * steering.v_r
    mean[:, layout.n - 1] = a_n * steering.v_sr
    mean[:, layout.m - 1] = a_m * steering.v_s
    return mean


def synthesize_batch(
    mean: np.ndarray | None,
    m: np.ndarray,
    k_p: int,
    k_s: int,
    master_seed: int,
    trial_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a stack of trials, one Philox stream per trial index.

    The streams are those of trial_rng, drawn through one generator per call:
    before each trial its Philox state is re-keyed to (master_seed, trial
    index) with the counter and the output buffer reset, which costs far
    less than building a generator per trial.

    Each trial's N x (K_P + K_S) draw lands in one (T, N, K_P + K_S) buffer,
    which is scaled, coloured and shifted by the mean in place: the
    coloured draws of a block of _COLOUR_BLOCK trials are written back over
    it from one reused block buffer.  Every step is per trial, so a trial's
    data do not depend on the stack around it.

    Args:
        mean: mean of the window cells (N x K_P), or None for zero mean.
        m: disturbance covariance (N x N).
        trial_indices: integer array of trial counters.

    Returns:
        (z_p, r) with shapes (T, N, K_P) and (T, N, K_S): the first K_P and
        the last K_S columns of the one buffer, as views.
    """
    lower = _covariance_factor(m)
    n = lower.shape[0]
    if mean is not None and mean.shape != (n, k_p):
        raise ValueError(f"mean must be N x K_P = {n} x {k_p}, got {mean.shape}")
    # K_S >= N keeps the training scatter matrix nonsingular w.p. 1.
    if k_s < n:
        raise ValueError(f"need K_S >= N, got K_S={k_s}, N={n}")
    k_tot = k_p + k_s
    t = len(trial_indices)
    keys = np.empty((t, 2), dtype=np.uint64)
    keys[:, 0] = master_seed & _MASK64
    keys[:, 1] = np.asarray(trial_indices).astype(np.uint64)
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    key_state = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = {"bit_generator": "Philox", "state": key_state,
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    u = np.empty((t, n, k_tot), dtype=np.complex128)
    raw = u.view(np.float64).reshape(t, n, 2 * k_tot)
    coloured = np.empty((min(t, _COLOUR_BLOCK), n, k_tot), dtype=np.complex128)
    for lo in range(0, t, _COLOUR_BLOCK):
        hi = min(lo + _COLOUR_BLOCK, t)
        for j in range(lo, hi):
            key_state["key"] = keys[j]
            bitgen.state = state
            rng.standard_normal(out=raw[j])
        block = u[lo:hi]
        block *= np.sqrt(0.5)  # unit-variance complex entries
        block[...] = np.matmul(lower, block, out=coloured[:hi - lo])
        if mean is not None:
            block[:, :, :k_p] += mean
    return u[:, :, :k_p], u[:, :, k_p:]
