"""Steering vectors, disturbance covariance, amplitudes, and data synthesis.

The window under test holds K_P cells: cell 1 may carry the direct echo
(signature v_R), cell n the single-bounce echo (v_SR = v_S + v_R in the
spatial-only setup), and cell m the double-bounce echo (v_S).  K_S training
vectors are always target free.  Disturbance is colored complex Gaussian
noise drawn by Cholesky coloring.  The Monte Carlo engine skips the
coloring: it draws white trials and maps the mean and the steering vectors
through the inverse factor instead (`whiten`), which leaves every statistic
unchanged.
"""

from __future__ import annotations

import cmath
import math
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
        raise ValueError(f"array size must be >= 1, got {n}")
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


def power_from_db(name: str, db: float, unit: float = 1.0) -> float:
    """unit 10^(db / 10), the power `db` decibels above `unit`; a ValueError
    naming the setting `name` unless it is finite."""
    try:
        power = unit * 10.0 ** (float(db) / 10.0)
    except OverflowError:
        power = math.inf
    if not math.isfinite(power):
        raise ValueError(f"{name} = {db!r} dB above {unit!r} gives a power "
                         "beyond the float range")
    return power


def clutter_power_from_cnr(cnr_db: float, noise_power: float = 1.0) -> float:
    """sigma_c^2 = sigma_n^2 10^(CNR / 10); ValueError unless it is finite."""
    return power_from_db("cnr_db", cnr_db, noise_power)


def build_covariance(noise_power: float, clutter_power: float, rho: float,
                     dim: int) -> np.ndarray:
    """M = sigma_n^2 I + M_c with M_c(i, j) = sigma_c^2 rho^|i-j|: white
    noise plus exponentially correlated clutter."""
    if not (noise_power > 0 and clutter_power >= 0):
        raise ValueError("need noise_power > 0 and clutter power >= 0, got "
                         f"{noise_power!r} and {clutter_power!r}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho!r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim!r}")
    idx = np.arange(dim)
    lags = np.abs(idx[:, None] - idx[None, :])
    m = clutter_power * rho ** lags
    m[idx, idx] += noise_power
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
    invariant); the assisted-path amplitudes are ratio * alpha_1.  A
    ValueError unless every amplitude is finite.
    """
    w = np.linalg.solve(_covariance_factor(m), np.asarray(v_r)[:, None])[:, 0]
    qf = float(np.sum(np.conj(w) * w).real)
    # Python floats: an overflow gives inf, with no numpy warning.
    alpha_1 = math.sqrt(power_from_db("sinr_db", sinr_db) / qf)
    alphas = (complex(alpha_1), complex(ratio * alpha_1),
              complex(ratio * alpha_1))
    if not all(cmath.isfinite(a) for a in alphas):
        raise ValueError(f"sinr_db = {sinr_db!r} dB with alpha_ratio "
                         f"{ratio!r} gives amplitudes beyond the float range")
    return alphas


def whiten(m: np.ndarray, mean: np.ndarray | None,
           steering: SteeringSet) -> tuple[np.ndarray | None, SteeringSet]:
    """The mean and the steering vectors seen through L^-1, L the lower
    Cholesky factor of the covariance m.

    Every statistic is a function of X† S_S^-1 X, X = [Z_P, v_R, v_SR, v_S],
    and an invertible map A of the array space leaves it unchanged:
    (AX)† (A S_S A†)^-1 (AX) = X† S_S^-1 X.  With A = L^-1 the disturbance
    is white, so a trial drawn with covariance I around L^-1 mean and tested
    against L^-1 v gives the statistics of the coloured trial.

    Each statistic is also invariant to the scale of each steering vector,
    so each whitened one is scaled by the power of two 2^-e, e the binary
    exponent of its norm, which puts the norm in [0.5, 1).  The scaling is
    exact, and no quadratic form of a steering vector overflows, however
    small the noise power.
    """
    lower = _covariance_factor(m)
    cols = [steering.v_r, steering.v_sr, steering.v_s]
    w = np.linalg.solve(lower, np.column_stack(
        cols if mean is None else [*cols, mean]))
    for k in range(3):
        # The norm from the unit-peak vector, whose squares cannot overflow.
        peak = np.abs(w[:, k]).max()
        if 0.0 < peak < math.inf:
            e = math.frexp(peak * np.linalg.norm(w[:, k] / peak))[1]
            w.real[:, k] = np.ldexp(w.real[:, k], -e)
            w.imag[:, k] = np.ldexp(w.imag[:, k], -e)
    return (None if mean is None else w[:, 3:],
            SteeringSet(v_r=w[:, 0], v_sr=w[:, 1], v_s=w[:, 2]))


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
    less than building a generator per trial.  The state is set from Python
    ints, which the setter takes faster than numpy arrays.

    Each trial's N x (K_P + K_S) draw lands in one (T, N, K_P + K_S) buffer,
    which is scaled, coloured and shifted by the mean in place: the
    coloured draws of a block of _COLOUR_BLOCK trials are written back over
    it from one reused block buffer.  When the factor of m is the identity
    the product is skipped; colouring by I is exact, so the data are the
    same.  Every step is per trial, so a trial's data do not depend on the
    stack around it.

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
    counters = np.asarray(trial_indices).astype(np.uint64).tolist()
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    key = [master_seed & _MASK64, 0]
    key_state = {"counter": [0, 0, 0, 0], "key": key}
    state = {"bit_generator": "Philox", "state": key_state,
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    u = np.empty((t, n, k_tot), dtype=np.complex128)
    raw = u.view(np.float64).reshape(t, n, 2 * k_tot)
    white = np.array_equal(lower, np.eye(n))
    coloured = None if white else np.empty(
        (min(t, _COLOUR_BLOCK), n, k_tot), dtype=np.complex128)
    for lo in range(0, t, _COLOUR_BLOCK):
        hi = min(lo + _COLOUR_BLOCK, t)
        for j in range(lo, hi):
            key[1] = counters[j]
            bitgen.state = state
            rng.standard_normal(out=raw[j])
        block = u[lo:hi]
        block *= np.sqrt(0.5)  # unit-variance complex entries
        if not white:
            block[...] = np.matmul(lower, block, out=coloured[:hi - lo])
        if mean is not None:
            block[:, :, :k_p] += mean
    return u[:, :, :k_p], u[:, :, k_p:]
