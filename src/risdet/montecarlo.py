"""Monte Carlo experiment engine.

Threshold calibration, detection-probability curves, CFAR sweeps over the
clutter parameters, pair-index RMSE, cyclic-ascent convergence traces, and
the sliding-window study.  Trials are keyed by (master_seed, trial_index)
counter pairs; each experiment stage and grid point owns a disjoint block of
trial indices, so every estimate is reproducible bit-for-bit under a fixed
master seed regardless of chunking or worker scheduling.  Every curve runs
through one loop (`_sweep`) over a list of (x, mean, cov) points, each
reduced to an exceedance rate or a pair RMSE.  Calibration, the curves and
the convergence traces all schedule their (point, chunk) tasks through
`_per_point`, on one process pool per call when threads > 1.  Each point
is whitened once by its covariance factor before its chunks run, so a
chunk draws white trials around the whitened mean and tests them against
the whitened steering vectors: every statistic is invariant under that
change of array basis, and no trial is coloured.  A numerical failure in a
chunk is re-raised naming the counter of its first failing trial.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .detectors import (
    MONOTONE_SLACK,
    BatchResult,
    CGlrtConfig,
    DetectorKind,
    NonMonotonic,
    PROPOSED_KINDS,
    batch_evaluate,
    c_glrt_gain_trace,
)
from .geometry import BinLayout
from .signal_model import (
    CovarianceModel,
    NotPositiveDefinite,
    SteeringSet,
    TargetParams,
    alpha_from_sinr,
    build_covariance,
    clutter_power_from_cnr,
    synthesize_batch,
    target_mean_matrix,
    whiten,
)

ALL_KINDS = tuple(DetectorKind)

# Trials processed per batch call; bounds peak memory at a few tens of MB.
_CHUNK = 4096

# Each (stage, grid point) pair owns a disjoint counter block, so data drawn
# for calibration never overlap data drawn for any curve point.
_STAGE_STRIDE = 1 << 40
_POINT_STRIDE = 1 << 28
_STAGE_CAL = 0
_STAGE_PD = 1
_STAGE_CFAR_CNR = 2
_STAGE_CFAR_RHO = 3
_STAGE_RMSE = 4
_STAGE_CONV = 5
_STAGE_SLIDE = 6

@dataclass(frozen=True)
class ExperimentConfig:
    """Full recipe for one experiment run: scenario, model, and budgets."""

    pfa: float = 1e-3
    trials_cal: int = 100_000
    trials_pd: int = 1_000
    sinr_grid: tuple[float, ...] = tuple(float(s) for s in range(-24, 26, 2))
    master_seed: int = 20260816
    n_antennas: int = 16
    k_p: int = 6
    k_s: int = 24
    theta_r_deg: float = 0.5
    theta_s_deg: float = -0.4
    cnr_db: float = 25.0
    rho: float = 0.9
    noise_power: float = 1.0
    pair: tuple[int, int] = (3, 6)
    alpha_ratio: float = 10.0
    baseline_cell: int = 1
    cglrt: CGlrtConfig = field(default_factory=CGlrtConfig)
    threads: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.pfa < 1.0:
            raise ValueError("pfa must lie in (0, 1)")
        if self.trials_cal < math.ceil(10.0 / self.pfa):
            raise ValueError(
                f"trials_cal={self.trials_cal} too small for pfa={self.pfa}; "
                f"need at least {math.ceil(10.0 / self.pfa)}")
        if self.trials_pd < 1:
            raise ValueError("trials_pd must be >= 1")
        if self.k_p < 3:
            raise ValueError("window size k_p must be >= 3")
        if self.k_s < self.n_antennas:
            raise ValueError("need k_s >= n_antennas")
        n, m = self.pair
        if not 1 < n < m <= self.k_p:
            raise ValueError(f"pair {self.pair} must satisfy 1 < n < m <= k_p")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        try:
            clutter_power_from_cnr(self.cnr_db, self.noise_power)
        except ValueError as err:
            raise ValueError(f"cnr_db: {err}") from None
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 1 <= self.baseline_cell <= self.k_p:
            raise ValueError("baseline_cell outside the window")

    @property
    def layout(self) -> BinLayout:
        return BinLayout(n=self.pair[0], m=self.pair[1], window_size=self.k_p)

    def steering(self) -> SteeringSet:
        return SteeringSet.from_angles(
            self.theta_r_deg, self.theta_s_deg, self.n_antennas)

    def covariance(self, cnr_db: float | None = None,
                   rho: float | None = None) -> np.ndarray:
        model = CovarianceModel(
            noise_power=self.noise_power,
            clutter_power=clutter_power_from_cnr(
                self.cnr_db if cnr_db is None else cnr_db, self.noise_power),
            one_lag=self.rho if rho is None else rho,
            dim=self.n_antennas,
        )
        return build_covariance(model)


# Trial budgets selected by --profile: desk is the ExperimentConfig
# defaults, paper is the publication scale.
_BUDGET_KEYS = ("pfa", "trials_cal", "trials_pd")
PROFILES = {
    "desk": {key: getattr(ExperimentConfig(), key) for key in _BUDGET_KEYS},
    "paper": {"pfa": 1e-4, "trials_cal": 1_000_000, "trials_pd": 10_000},
}


@dataclass(frozen=True)
class ThresholdTable:
    """Detection thresholds keyed by detector, with their calibration recipe.

    hmax_hits counts the calibration trials whose cyclic ascent stopped at
    the iteration cap h_max; None when c-glrt was not calibrated.
    """

    thresholds: dict[DetectorKind, float]
    pfa: float
    master_seed: int
    trials: int
    hmax_hits: int | None = None

    def __post_init__(self) -> None:
        for kind, eta in self.thresholds.items():
            if not np.isfinite(eta):
                raise ValueError(f"threshold for {kind.value} not finite")

    def __getitem__(self, kind: DetectorKind) -> float:
        return self.thresholds[kind]


@dataclass(frozen=True)
class CurvePoint:
    """One probability estimate on a curve, with its binomial error bar."""

    detector: str
    x: float
    estimate: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError(f"estimate {self.estimate} outside [0, 1]")


@dataclass(frozen=True)
class RmsePoint:
    detector: str
    sinr_db: float
    rmse_n: float
    rmse_m: float
    trials: int
    seed: int


Point = CurvePoint | RmsePoint


@dataclass(frozen=True)
class ConvergenceTrace:
    """Mean relative-gain trace of the cyclic ascent at one cell pair."""

    pair: tuple[int, int]
    mean_gain: np.ndarray
    monotone_fraction: float
    trials: int

    def first_below(self, eps: float) -> int | None:
        """First iteration (1-based) whose mean gain drops below eps."""
        hits = np.nonzero(self.mean_gain < eps)[0]
        return int(hits[0]) + 1 if hits.size else None


def binomial_stderr(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def threshold_from_stats(stats: np.ndarray, pfa: float) -> float:
    """Empirical threshold: order statistic at 1-based index ceil((1-pfa) T).

    Matches the exceedance rule "declare when statistic > eta"; the index
    convention rounds toward the conservative (larger) threshold.
    """
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie in (0, 1)")
    stats = np.asarray(stats, dtype=float)
    if stats.ndim != 1 or stats.size == 0:
        raise ValueError("stats must be a nonempty 1-d array")
    idx = math.ceil((1.0 - pfa) * stats.size)
    return float(np.sort(stats)[idx - 1])


def rmse_from_estimates(
    n_hat: np.ndarray, m_hat: np.ndarray, true_n: int, true_m: int
) -> tuple[float, float]:
    rmse_n = float(np.sqrt(np.mean((np.asarray(n_hat) - true_n) ** 2.0)))
    rmse_m = float(np.sqrt(np.mean((np.asarray(m_hat) - true_m) ** 2.0)))
    return rmse_n, rmse_m


def _trial_block(stage: int, point: int, count: int) -> np.ndarray:
    base = stage * _STAGE_STRIDE + point * _POINT_STRIDE
    if count > _POINT_STRIDE:
        raise ValueError("trial block exceeds its reserved counter range")
    return np.arange(base, base + count, dtype=np.uint64)


@contextlib.contextmanager
def _naming_trial(cfg: ExperimentConfig, indices: np.ndarray) -> Iterator[None]:
    """Re-raise a numerical failure of the chunk `indices` with the counter
    of its first failing trial, so that trial_rng can replay it.

    The counter is decoded into its (stage, point, offset) block; a failure
    that names no trial (a bad covariance, say) passes unchanged.
    """
    try:
        yield
    except (NotPositiveDefinite, NonMonotonic) as err:
        if err.positions is None:
            raise
        counter = int(indices[int(err.positions[0])])
        stage, rest = divmod(counter, _STAGE_STRIDE)
        point, offset = divmod(rest, _POINT_STRIDE)
        raise type(err)(
            f"{err}; first failing trial: counter {counter} (stage {stage}, "
            f"point {point}, offset {offset}) under master seed "
            f"{cfg.master_seed}") from err


def _white_trials(cfg: ExperimentConfig, mean: np.ndarray | None,
                  indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chunk's trials in the whitened frame: covariance I around the
    whitened mean, so synthesis colours nothing."""
    return synthesize_batch(mean, np.eye(cfg.n_antennas), cfg.k_p, cfg.k_s,
                            cfg.master_seed, indices)


def _eval_chunk(cfg: ExperimentConfig, kinds: tuple[DetectorKind, ...],
                mean: np.ndarray | None, steering: SteeringSet,
                indices: np.ndarray) -> dict[DetectorKind, BatchResult]:
    with _naming_trial(cfg, indices):
        z_p, r = _white_trials(cfg, mean, indices)
        return batch_evaluate(z_p, r, steering, kinds, cfg.cglrt,
                              cfg.baseline_cell)


def _trace_chunk(cfg: ExperimentConfig, pair: tuple[int, int],
                 mean: np.ndarray | None, steering: SteeringSet,
                 indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    with _naming_trial(cfg, indices):
        z_p, r = _white_trials(cfg, mean, indices)
        return c_glrt_gain_trace(z_p, r, steering, pair, cfg.cglrt)


def _concat_results(
    parts: list[dict[DetectorKind, BatchResult]],
    kinds: tuple[DetectorKind, ...],
) -> dict[DetectorKind, BatchResult]:
    """Each kind's chunk results joined field by field; None stays None."""
    return {kind: BatchResult(**{
        f.name: None if getattr(parts[0][kind], f.name) is None
        else np.concatenate([getattr(p[kind], f.name) for p in parts])
        for f in fields(BatchResult)}) for kind in kinds}


def _per_point(
    fn: Callable,
    cfg: ExperimentConfig,
    stage: int,
    trials: int,
    points: Sequence[tuple[object, np.ndarray | None, np.ndarray]],
) -> Iterator[list]:
    """Run fn(cfg, key, mean, steering, chunk) on every chunk of every point.

    Point j = (key, mean, cov) draws `trials` trials from counter block
    (stage, j), cut into _CHUNK slices; with cfg.threads > 1 the chunks of
    all points share one process pool.  Each point is whitened here, once,
    and fn gets its whitened mean and steering vectors.  Yields each
    point's chunk outputs in trial order, point by point, so a caller can
    reduce and drop one point's results before it takes the next.  fn is
    pickled by name and reaches the synthesis and detectors through this
    module's globals.
    """
    starts = range(0, trials, _CHUNK)
    steering = cfg.steering()
    tasks = []
    for j, (key, mean, cov) in enumerate(points):
        idx = _trial_block(stage, j, trials)
        mean_w, steering_w = whiten(cov, mean, steering)
        tasks += [(cfg, key, mean_w, steering_w, idx[i:i + _CHUNK])
                  for i in starts]
    pool = (ProcessPoolExecutor(max_workers=min(cfg.threads, len(tasks)))
            if cfg.threads > 1 and len(tasks) > 1 else None)
    with pool or contextlib.nullcontext():
        outs = (itertools.starmap(fn, tasks) if pool is None
                else pool.map(fn, *zip(*tasks)))
        for _ in points:
            yield list(itertools.islice(outs, len(starts)))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate_thresholds(
    cfg: ExperimentConfig,
    kinds: Sequence[DetectorKind] = ALL_KINDS,
) -> ThresholdTable:
    """Thresholds at the configured pfa from a shared batch of H0 trials."""
    kinds = tuple(kinds)
    (parts,) = _per_point(_eval_chunk, cfg, _STAGE_CAL, cfg.trials_cal,
                          [(kinds, None, cfg.covariance())])
    res = _concat_results(parts, kinds)
    thresholds = {
        kind: threshold_from_stats(res[kind].statistic, cfg.pfa)
        for kind in kinds
    }
    hmax_hits = None
    if DetectorKind.C_GLRT in res:
        hmax_hits = int(np.count_nonzero(
            res[DetectorKind.C_GLRT].iterations == cfg.cglrt.h_max))
    return ThresholdTable(
        thresholds=thresholds, pfa=cfg.pfa,
        master_seed=cfg.master_seed, trials=cfg.trials_cal,
        hmax_hits=hmax_hits)


# ---------------------------------------------------------------------------
# Curves: one sweep loop over (x, mean, cov) points
# ---------------------------------------------------------------------------

def _sweep(
    kinds: tuple[DetectorKind, ...],
    cfg: ExperimentConfig,
    stage: int,
    trials: int,
    points: Sequence[tuple[float, np.ndarray | None, np.ndarray]],
    reduce: Callable[[DetectorKind, float, BatchResult], Point],
) -> dict[DetectorKind, list[Point]]:
    """Evaluate every point (x, mean, cov) on its own trial block.

    Point j draws `trials` trials from counter block (stage, j); all kinds
    share each trial, and reduce(kind, x, result) turns one kind's results
    at the point into a curve point.
    """
    out: dict[DetectorKind, list[Point]] = {k: [] for k in kinds}
    chunks = _per_point(_eval_chunk, cfg, stage, trials,
                        [(kinds, mean, cov) for _, mean, cov in points])
    for (x, _, _), parts in zip(points, chunks):
        res = _concat_results(parts, kinds)
        for kind in kinds:
            out[kind].append(reduce(kind, float(x), res[kind]))
    return out


def _exceedance(table: ThresholdTable, cfg: ExperimentConfig, trials: int):
    """Reduction to the share of trials above the detector's threshold."""
    def reduce(kind: DetectorKind, x: float, res: BatchResult) -> CurvePoint:
        p = float(np.mean(res.statistic > table[kind]))
        return CurvePoint(
            detector=kind.value, x=x, estimate=p,
            stderr=binomial_stderr(p, trials),
            trials=trials, seed=cfg.master_seed)
    return reduce


def _h1_mean(cfg: ExperimentConfig, cov: np.ndarray, steering: SteeringSet,
             sinr_db: float) -> np.ndarray:
    alphas = alpha_from_sinr(sinr_db, cov, steering.v_r, cfg.alpha_ratio)
    params = TargetParams(alpha=alphas, layout=cfg.layout)
    return target_mean_matrix(params, steering, cfg.k_p)


def _sinr_points(cfg: ExperimentConfig, sinr_grid: Sequence[float] | None):
    grid = cfg.sinr_grid if sinr_grid is None else sinr_grid
    cov = cfg.covariance()
    steering = cfg.steering()
    return [(sinr, _h1_mean(cfg, cov, steering, sinr), cov) for sinr in grid]


def pd_curves(
    kinds: Sequence[DetectorKind],
    table: ThresholdTable,
    cfg: ExperimentConfig,
    sinr_grid: Sequence[float] | None = None,
) -> dict[DetectorKind, list[CurvePoint]]:
    """Detection probability versus SINR; all detectors share each trial."""
    return _sweep(tuple(kinds), cfg, _STAGE_PD, cfg.trials_pd,
                  _sinr_points(cfg, sinr_grid),
                  _exceedance(table, cfg, cfg.trials_pd))


def cfar_sweeps(
    kinds: Sequence[DetectorKind],
    table: ThresholdTable,
    axis: str,
    values: Sequence[float],
    cfg: ExperimentConfig,
) -> dict[DetectorKind, list[CurvePoint]]:
    """Empirical P_fa under clutter parameters away from the calibration point.

    axis "cnr" sweeps the clutter-to-noise ratio in dB at the configured rho;
    axis "rho" sweeps the one-lag correlation at the configured CNR.
    """
    if axis not in ("cnr", "rho"):
        raise ValueError('axis must be "cnr" or "rho"')
    stage = _STAGE_CFAR_CNR if axis == "cnr" else _STAGE_CFAR_RHO
    points = [(v, None, cfg.covariance(cnr_db=v) if axis == "cnr"
               else cfg.covariance(rho=v)) for v in values]
    return _sweep(tuple(kinds), cfg, stage, cfg.trials_cal, points,
                  _exceedance(table, cfg, cfg.trials_cal))


def require_pair_estimators(
    kinds: Sequence[DetectorKind],
) -> tuple[DetectorKind, ...]:
    """kinds, if each is a window detector; only those estimate (n, m)."""
    for kind in kinds:
        if kind not in PROPOSED_KINDS:
            raise ValueError(f"{kind.value} does not estimate a cell pair")
    return tuple(kinds)


def rmse_curves(
    kinds: Sequence[DetectorKind],
    cfg: ExperimentConfig,
    sinr_grid: Sequence[float] | None = None,
) -> dict[DetectorKind, list[RmsePoint]]:
    """Root mean square error of the maximizing pair versus SINR."""
    kinds = require_pair_estimators(kinds)

    def reduce(kind: DetectorKind, sinr: float, res: BatchResult) -> RmsePoint:
        rmse_n, rmse_m = rmse_from_estimates(res.n_hat, res.m_hat, *cfg.pair)
        return RmsePoint(
            detector=kind.value, sinr_db=sinr, rmse_n=rmse_n, rmse_m=rmse_m,
            trials=cfg.trials_pd, seed=cfg.master_seed)

    return _sweep(kinds, cfg, _STAGE_RMSE, cfg.trials_pd,
                  _sinr_points(cfg, sinr_grid), reduce)


# ---------------------------------------------------------------------------
# Cyclic-ascent convergence
# ---------------------------------------------------------------------------

def convergence_study(
    cfg: ExperimentConfig,
    pairs: Sequence[tuple[int, int]] | None = None,
    sinr_db: float = 0.0,
    n_trials: int = 1000,
) -> list[ConvergenceTrace]:
    """Mean relative gain of the cyclic ascent per iteration, under H1.

    The ascent runs its full iteration budget (no early stop) at each
    requested cell pair; the trace averages the per-iteration gains over
    the trials.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    pairs = [cfg.pair] if pairs is None else list(pairs)
    cov = cfg.covariance()
    mean = _h1_mean(cfg, cov, cfg.steering(), sinr_db)
    k_tot = cfg.k_p + cfg.k_s
    traces = []
    chunks = _per_point(_trace_chunk, cfg, _STAGE_CONV, n_trials,
                        [(pair, mean, cov) for pair in pairs])
    for pair, parts in zip(pairs, chunks):
        gains = np.concatenate([g for g, _ in parts], axis=0)
        update_lds = np.concatenate([lds for _, lds in parts], axis=0)
        step_gain = np.expm1(k_tot * -np.diff(update_lds, axis=1))
        traces.append(ConvergenceTrace(
            pair=(int(pair[0]), int(pair[1])),
            mean_gain=gains.mean(axis=0),
            monotone_fraction=float(np.mean(step_gain >= -MONOTONE_SLACK)),
            trials=n_trials))
    return traces


# ---------------------------------------------------------------------------
# Sliding window
# ---------------------------------------------------------------------------

def sliding_window(
    kinds: Sequence[DetectorKind],
    table: ThresholdTable,
    cfg: ExperimentConfig,
    n_bins: int = 20,
    sinr_db: float = 0.0,
) -> dict[DetectorKind, list[CurvePoint]]:
    """Detection probability as a size-K_P window slides over the range bins.

    The three echo components sit at the fixed absolute bins 1, n and m of
    the configured cell pair cfg.pair = (n, m): the target mean over all
    n_bins bins.  A window starting at position p tests bins p .. p+K_P-1
    (re-indexed as window cells 1..K_P), so its mean is those columns of
    the one mean, and components outside the window contribute to no
    tested cell.  The x coordinate of each point is the window start
    position.
    """
    if n_bins < cfg.k_p:
        raise ValueError("need n_bins >= k_p")
    cov = cfg.covariance()
    steering = cfg.steering()
    alphas = alpha_from_sinr(sinr_db, cov, steering.v_r, cfg.alpha_ratio)
    layout = BinLayout(n=cfg.pair[0], m=cfg.pair[1], window_size=n_bins)
    bins = target_mean_matrix(TargetParams(alpha=alphas, layout=layout),
                              steering, n_bins)
    points = [(position, bins[:, position - 1:position - 1 + cfg.k_p], cov)
              for position in range(1, n_bins - cfg.k_p + 2)]
    return _sweep(tuple(kinds), cfg, _STAGE_SLIDE, cfg.trials_pd, points,
                  _exceedance(table, cfg, cfg.trials_pd))


# ---------------------------------------------------------------------------
# Artifact output
# ---------------------------------------------------------------------------

def write_csv(path, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """Write one CSV artifact: the header row, then the rows.

    Floats are written as repr(float(v)), so they round-trip exactly and
    read the same whatever numpy's repr of its own scalars.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def flatten_curves(curves: dict[DetectorKind, list[Point]]) -> list[Point]:
    """Deterministic row order: detector enumeration order, then x order."""
    rows: list[Point] = []
    for kind in DetectorKind:
        rows.extend(curves.get(kind, []))
    return rows
