"""Monte Carlo experiment engine.

Threshold calibration, detection-probability curves, CFAR sweeps over the
clutter parameters, pair-index RMSE, cyclic-ascent convergence traces, and
the sliding-window study.  Trials are keyed by (master_seed, trial_index)
counter pairs; each experiment stage and grid point owns a disjoint block of
trial indices, so every estimate is reproducible bit-for-bit under a fixed
master seed regardless of chunking or worker scheduling.  Every run is one
schedule (`_per_point`): a list of points, each with its own counter block,
whose chunks go to one process pool when threads > 1.  A curve that is not
handed its thresholds puts the calibration block first in its own schedule,
so calibration and curve chunks share one pool.  Chunks are reduced as
early as the information allows: a calibration chunk to each detector's
largest statistics, from which the exact threshold merges, and a curve
chunk, in the launching process, to exceedance counts or integer sums of
squared pair errors.  The det-ratio detectors are evaluated under that
reduction's cut (see `detectors.batch_evaluate`): a calibration chunk
passes its top k, and an exceedance chunk its thresholds, so a curve
chunk with a det-ratio detector starts once the calibration merges.  Each
point is whitened once by its covariance factor before its chunks run, so a
chunk draws white trials around the whitened mean and tests them against
the whitened steering vectors: every statistic is invariant under that change
of array basis, and no trial is coloured.  A numerical failure in a chunk
is re-raised naming the counter of its first failing trial.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .detectors import (
    DET_RATIO_KINDS,
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
        if self.k_s < self.n_antennas:
            raise ValueError("need k_s >= n_antennas")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 1 <= self.baseline_cell <= self.k_p:
            raise ValueError("baseline_cell outside the window")
        if not self.sinr_grid:
            raise ValueError("sinr_grid must hold at least one SINR")
        # The objects handed to the engine check their own settings: the
        # layout the pair and k_p, the steering vectors n_antennas, the
        # covariance noise_power, rho and cnr_db, and the amplitudes, built
        # on that covariance, the SINR grid with alpha_ratio.  The
        # amplitudes grow with the SINR, so the grid's largest, NaN if any
        # is, decides whether all are finite.
        _ = self.layout, self.steering()
        self.amplitudes(float(np.max(np.asarray(self.sinr_grid, dtype=float))))

    @property
    def layout(self) -> BinLayout:
        return BinLayout(n=self.pair[0], m=self.pair[1], window_size=self.k_p)

    def steering(self) -> SteeringSet:
        return SteeringSet.from_angles(
            self.theta_r_deg, self.theta_s_deg, self.n_antennas)

    def amplitudes(self, sinr_db: float) -> tuple[complex, complex, complex]:
        """The echo amplitudes at a direct-path SINR, under the configured
        covariance."""
        return alpha_from_sinr(sinr_db, self.covariance(),
                               self.steering().v_r, self.alpha_ratio)

    def covariance(self, cnr_db: float | None = None,
                   rho: float | None = None) -> np.ndarray:
        return build_covariance(
            self.noise_power,
            clutter_power_from_cnr(self.cnr_db if cnr_db is None else cnr_db,
                                   self.noise_power),
            self.rho if rho is None else rho, self.n_antennas)


# The ExperimentConfig defaults, read from its fields rather than from a
# built config: a build checks the amplitudes of every SINR of the grid,
# each through a Cholesky factor, which importing the package need not pay.
CONFIG_DEFAULTS = SimpleNamespace(**{
    f.name: f.default if f.default_factory is MISSING else f.default_factory()
    for f in fields(ExperimentConfig)})

# Trial budgets selected by --profile: desk is the ExperimentConfig
# defaults, paper is the publication scale.
_BUDGET_KEYS = ("pfa", "trials_cal", "trials_pd")
PROFILES = {
    "desk": {key: getattr(CONFIG_DEFAULTS, key) for key in _BUDGET_KEYS},
    "paper": {"pfa": 1e-4, "trials_cal": 1_000_000, "trials_pd": 10_000},
}


@dataclass(frozen=True)
class ThresholdTable:
    """Detection thresholds keyed by detector.

    ascents counts the cyclic ascents that calibration ran, one per (pair,
    trial) that could reach the chunk's top statistics, and hmax_hits those
    that stopped at the iteration cap h_max; both None when c-glrt was not
    calibrated.
    """

    thresholds: dict[DetectorKind, float]
    hmax_hits: int | None = None
    ascents: int | None = None

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


def _threshold_index(pfa: float, trials: int) -> int:
    """1-based index, in ascending order, of the threshold among `trials`
    statistics: ceil((1 - pfa) trials).

    Matches the exceedance rule "declare when statistic > eta"; the index
    convention rounds toward the conservative (larger) threshold.
    """
    return math.ceil((1.0 - pfa) * trials)


def threshold_from_stats(stats: np.ndarray, pfa: float) -> float:
    """Empirical threshold: order statistic at 1-based index ceil((1-pfa) T)."""
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie in (0, 1)")
    stats = np.asarray(stats, dtype=float)
    if stats.ndim != 1 or stats.size == 0:
        raise ValueError("stats must be a nonempty 1-d array")
    return float(np.sort(stats)[_threshold_index(pfa, stats.size) - 1])


def _largest(stats: np.ndarray, k: int) -> np.ndarray:
    """The k largest of stats in no set order; all of them if no more."""
    return stats if stats.size <= k else np.partition(stats, -k)[-k:]


def _kth_largest(parts: Iterable[np.ndarray], k: int) -> float:
    """The k-th largest statistic of a batch cut into parts, from each
    part's `_largest(part, k)`: the k largest of the batch are among them."""
    return float(np.sort(np.concatenate(list(parts)))[-k])


class CounterLayoutError(ValueError):
    """A trial block that does not fit the counter layout."""


def _trial_block(stage: int, point: int, count: int) -> np.ndarray:
    if count > _POINT_STRIDE or point >= _STAGE_STRIDE // _POINT_STRIDE:
        raise CounterLayoutError(
            f"stage {stage}, point {point} of {count} trials is outside the "
            f"counter layout: at most {_POINT_STRIDE} trials per point and "
            f"{_STAGE_STRIDE // _POINT_STRIDE} points per stage")
    base = stage * _STAGE_STRIDE + point * _POINT_STRIDE
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


def _eval_chunk(cfg: ExperimentConfig, key: tuple, mean: np.ndarray | None,
                steering: SteeringSet,
                indices: np.ndarray) -> dict[DetectorKind, BatchResult]:
    """batch_evaluate of key = (kinds, cut) on the chunk's trials."""
    kinds, cut = key
    with _naming_trial(cfg, indices):
        z_p, r = _white_trials(cfg, mean, indices)
        return batch_evaluate(z_p, r, steering, kinds, cfg.cglrt,
                              cfg.baseline_cell, cut=cut)


def _trace_chunk(cfg: ExperimentConfig, pairs: tuple[tuple[int, int], ...],
                 mean: np.ndarray | None, steering: SteeringSet,
                 indices: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (gains, update_lds) of each of pairs, in pair order, on the
    chunk's trials."""
    with _naming_trial(cfg, indices):
        z_p, r = _white_trials(cfg, mean, indices)
        return c_glrt_gain_trace(z_p, r, steering, pairs, cfg.cglrt)


class _Point(NamedTuple):
    """One point of a schedule: fn(cfg, key, mean, steering, chunk) runs on
    every chunk of the `trials` counters of block (stage, index).  A key
    that is a callable stands for key(), which may depend on the outputs
    of the points before it (see _per_point)."""

    fn: Callable
    stage: int
    index: int
    trials: int
    key: object
    mean: np.ndarray | None
    cov: np.ndarray


def _call(fn: Callable, *args):
    return fn(*args)


def _per_point(cfg: ExperimentConfig,
               points: Sequence[_Point]) -> Iterator[Iterator]:
    """Run every point's fn on every chunk of its counter block.

    Each block is cut into _CHUNK slices, and with cfg.threads > 1 the
    chunks of all points share one process pool, no wider than the task
    list.  Each point is whitened here, once, and fn gets its whitened mean
    and steering vectors.  Yields, point by point, an iterator over that
    point's chunk outputs in trial order; the caller takes each one to its
    end before it asks for the next, and can reduce each output as it
    arrives.  The chunks go to the pool at once, up to the first point with
    a callable key: that point and those after it go once the caller has
    taken every output before it, each with its key called then.  Every
    counter block is checked before any chunk runs.  fn is pickled by name
    and reaches the synthesis and detectors through this module's globals.
    """
    steering = cfg.steering()
    prepared, counts = [], []
    for p in points:
        idx = _trial_block(p.stage, p.index, p.trials)
        chunks = [idx[i:i + _CHUNK] for i in range(0, p.trials, _CHUNK)]
        prepared.append((p, *whiten(p.cov, p.mean, steering), chunks))
        counts.append(len(chunks))
    later = next((j for j, p in enumerate(points) if callable(p.key)),
                 len(points))
    pool = (ProcessPoolExecutor(max_workers=min(cfg.threads, sum(counts)))
            if cfg.threads > 1 and sum(counts) > 1 else None)

    def run(part):
        tasks = []
        for p, mean_w, steering_w, chunks in part:
            key = p.key() if callable(p.key) else p.key
            tasks += [(p.fn, cfg, key, mean_w, steering_w, c) for c in chunks]
        if pool is None or not tasks:
            return itertools.starmap(_call, tasks)
        return pool.map(_call, *zip(*tasks))

    with pool or contextlib.nullcontext():
        outs = run(prepared[:later])
        for j, count in enumerate(counts):
            if j == later:
                outs = run(prepared[later:])
            yield itertools.islice(outs, count)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def _calibration_chunk(
    cfg: ExperimentConfig, key: tuple[tuple[DetectorKind, ...], int],
    mean: None, steering: SteeringSet, indices: np.ndarray,
) -> tuple[dict[DetectorKind, np.ndarray], int, int]:
    """A calibration chunk reduced to what the thresholds need: each kind's
    `top` largest statistics, which the engine evaluates under that cut,
    and how many c-glrt ascents ran and how many of them stopped at h_max."""
    kinds, top = key
    res = _eval_chunk(cfg, (kinds, top), mean, steering, indices)
    ascents = (res[DetectorKind.C_GLRT].ascents if DetectorKind.C_GLRT in res
               else np.zeros(0))
    return ({kind: _largest(res[kind].statistic, top) for kind in kinds},
            int(np.count_nonzero(ascents == cfg.cglrt.h_max)),
            int(np.count_nonzero(ascents)))


def _top_count(cfg: ExperimentConfig) -> int:
    """k such that each threshold is the k-th largest calibration statistic."""
    return cfg.trials_cal - _threshold_index(cfg.pfa, cfg.trials_cal) + 1


def _calibration(cfg: ExperimentConfig,
                 kinds: tuple[DetectorKind, ...]) -> _Point:
    """The calibration block as a schedule point: H0 trials, all kinds
    sharing each one."""
    return _Point(_calibration_chunk, _STAGE_CAL, 0, cfg.trials_cal,
                  (kinds, _top_count(cfg)), None, cfg.covariance())


def _threshold_table(cfg: ExperimentConfig, kinds: tuple[DetectorKind, ...],
                     chunks: Iterable) -> ThresholdTable:
    """The thresholds merged from the calibration chunks' outputs."""
    tops, hits, ascents = zip(*chunks)
    cyclic = DetectorKind.C_GLRT in kinds
    return ThresholdTable(
        thresholds={kind: _kth_largest((t[kind] for t in tops),
                                       _top_count(cfg)) for kind in kinds},
        hmax_hits=sum(hits) if cyclic else None,
        ascents=sum(ascents) if cyclic else None)


def calibrate_thresholds(cfg: ExperimentConfig,
                         kinds: Sequence[DetectorKind]) -> ThresholdTable:
    """Thresholds at the configured pfa from a shared batch of H0 trials."""
    kinds = tuple(kinds)
    return _threshold_table(cfg, kinds,
                            next(_per_point(cfg, [_calibration(cfg, kinds)])))


# ---------------------------------------------------------------------------
# Curves: one sweep loop over (x, mean, cov) points
# ---------------------------------------------------------------------------

def _sweep(
    kinds: tuple[DetectorKind, ...],
    cfg: ExperimentConfig,
    stage: int,
    trials: int,
    points: Sequence[tuple[float, np.ndarray | None, np.ndarray]],
    tally: Callable,
    finish: Callable[[DetectorKind, float, object], Point],
    table: ThresholdTable | None = None,
    calibrate: bool = False,
    prune: bool = False,
) -> dict[DetectorKind, list[Point]]:
    """Evaluate every point (x, mean, cov) on its own trial block.

    Point j draws `trials` trials from counter block (stage, j), and all
    kinds share each trial.  tally(table, kind, result) reduces one kind's
    results on one chunk, as it arrives, to an integer or integer array
    that adds over the chunks; finish(kind, x, total) turns a point's total
    into a curve point.  With calibrate, the calibration block leads the
    same schedule, and tally gets the table merged from it.  With prune,
    tally reads only whether each statistic exceeds its threshold, so the
    chunks evaluate the det-ratio kinds under that cut; when calibrate
    gives the thresholds, the curve chunks start once they are merged.  A
    kind listed twice would count each trial twice, so it is an error.
    """
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"a detector is listed twice in {kinds}")
    pruned = [k for k in kinds if k in DET_RATIO_KINDS] if prune else []

    def key():
        return kinds, ({k: table[k] for k in pruned} if pruned else None)

    schedule = [_Point(_eval_chunk, stage, j, trials,
                       key if calibrate and pruned else key(), mean, cov)
                for j, (_, mean, cov) in enumerate(points)]
    if calibrate:
        schedule.insert(0, _calibration(cfg, kinds))
    runs = _per_point(cfg, schedule)
    if calibrate:
        table = _threshold_table(cfg, kinds, next(runs))
    out: dict[DetectorKind, list[Point]] = {k: [] for k in kinds}
    for (x, _, _), chunks in zip(points, runs):
        totals = dict.fromkeys(kinds, 0)
        for res in chunks:
            for kind in kinds:
                totals[kind] = totals[kind] + tally(table, kind, res[kind])
        for kind in kinds:
            out[kind].append(finish(kind, float(x), totals[kind]))
    return out


def _exceedances(table: ThresholdTable, kind: DetectorKind,
                 res: BatchResult) -> int:
    return int(np.count_nonzero(res.statistic > table[kind]))


def _exceedance_sweep(
    kinds: Sequence[DetectorKind],
    table: ThresholdTable | None,
    cfg: ExperimentConfig,
    stage: int,
    trials: int,
    points: Sequence[tuple[float, np.ndarray | None, np.ndarray]],
) -> dict[DetectorKind, list[CurvePoint]]:
    """The share of each point's trials above the detector's threshold;
    table None calibrates the thresholds in the same schedule."""
    def rate(kind: DetectorKind, x: float, count: int) -> CurvePoint:
        p = count / trials
        return CurvePoint(
            detector=kind.value, x=x, estimate=p,
            stderr=binomial_stderr(p, trials),
            trials=trials, seed=cfg.master_seed)
    return _sweep(tuple(kinds), cfg, stage, trials, points, _exceedances,
                  rate, table, calibrate=table is None, prune=True)


def _h1_mean(cfg: ExperimentConfig, sinr_db: float) -> np.ndarray:
    params = TargetParams(alpha=cfg.amplitudes(sinr_db), layout=cfg.layout)
    return target_mean_matrix(params, cfg.steering(), cfg.k_p)


def _sinr_points(cfg: ExperimentConfig):
    cov = cfg.covariance()
    return [(sinr, _h1_mean(cfg, sinr), cov) for sinr in cfg.sinr_grid]


def pd_curves(kinds: Sequence[DetectorKind], table: ThresholdTable | None,
              cfg: ExperimentConfig) -> dict[DetectorKind, list[CurvePoint]]:
    """Detection probability versus cfg.sinr_grid; detectors share trials.

    With table None the thresholds are calibrated in the same schedule.
    """
    return _exceedance_sweep(kinds, table, cfg, _STAGE_PD, cfg.trials_pd,
                             _sinr_points(cfg))


def cfar_sweeps(
    kinds: Sequence[DetectorKind],
    table: ThresholdTable | None,
    axis: str,
    values: Sequence[float],
    cfg: ExperimentConfig,
) -> dict[DetectorKind, list[CurvePoint]]:
    """Empirical P_fa under clutter parameters away from the calibration point.

    axis "cnr" sweeps the clutter-to-noise ratio in dB at the configured rho;
    axis "rho" sweeps the one-lag correlation at the configured CNR.  With
    table None the thresholds are calibrated in the same schedule.
    """
    if axis not in ("cnr", "rho"):
        raise ValueError('axis must be "cnr" or "rho"')
    stage = _STAGE_CFAR_CNR if axis == "cnr" else _STAGE_CFAR_RHO
    points = [(v, None, cfg.covariance(cnr_db=v) if axis == "cnr"
               else cfg.covariance(rho=v)) for v in values]
    return _exceedance_sweep(kinds, table, cfg, stage, cfg.trials_cal,
                             points)


def require_pair_estimators(
    kinds: Sequence[DetectorKind],
) -> tuple[DetectorKind, ...]:
    """kinds, if each is a window detector; only those estimate (n, m)."""
    for kind in kinds:
        if kind not in PROPOSED_KINDS:
            raise ValueError(f"{kind.value} does not estimate a cell pair")
    return tuple(kinds)


def rmse_curves(kinds: Sequence[DetectorKind],
                cfg: ExperimentConfig) -> dict[DetectorKind, list[RmsePoint]]:
    """Root mean square error of the maximizing pair versus cfg.sinr_grid."""
    kinds = require_pair_estimators(kinds)
    true_n, true_m = cfg.pair

    def squared_errors(_, kind: DetectorKind, res: BatchResult) -> np.ndarray:
        return np.array([np.sum((res.n_hat - true_n) ** 2),
                         np.sum((res.m_hat - true_m) ** 2)])

    def rmse(kind: DetectorKind, sinr: float, sums: np.ndarray) -> RmsePoint:
        return RmsePoint(
            detector=kind.value, sinr_db=sinr,
            rmse_n=math.sqrt(int(sums[0]) / cfg.trials_pd),
            rmse_m=math.sqrt(int(sums[1]) / cfg.trials_pd),
            trials=cfg.trials_pd, seed=cfg.master_seed)

    return _sweep(kinds, cfg, _STAGE_RMSE, cfg.trials_pd,
                  _sinr_points(cfg), squared_errors, rmse)


# ---------------------------------------------------------------------------
# Cyclic-ascent convergence
# ---------------------------------------------------------------------------

def convergence_study(cfg: ExperimentConfig, pairs: Sequence[tuple[int, int]],
                      sinr_db: float, n_trials: int) -> list[ConvergenceTrace]:
    """Mean relative gain of the cyclic ascent per iteration, under H1.

    The ascent runs its full iteration budget (no early stop) at each
    requested cell pair; the trace averages the per-iteration gains over
    the trials.  Every pair is traced on the same trials, counter block
    (_STAGE_CONV, 0), so each trial is drawn, whitened and factored once,
    and the traces of two pairs compare them on common data.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    pairs = tuple((int(n), int(m)) for n, m in pairs)
    cov = cfg.covariance()
    mean = _h1_mean(cfg, sinr_db)
    k_tot = cfg.k_p + cfg.k_s
    parts = list(next(_per_point(cfg, [_Point(
        _trace_chunk, _STAGE_CONV, 0, n_trials, pairs, mean, cov)])))
    traces = []
    for j, pair in enumerate(pairs):
        gains = np.concatenate([p[j][0] for p in parts], axis=0)
        update_lds = np.concatenate([p[j][1] for p in parts], axis=0)
        step_gain = np.expm1(k_tot * -np.diff(update_lds, axis=1))
        traces.append(ConvergenceTrace(
            pair=pair,
            mean_gain=gains.mean(axis=0),
            monotone_fraction=float(np.mean(step_gain >= -MONOTONE_SLACK)),
            trials=n_trials))
    return traces


# ---------------------------------------------------------------------------
# Sliding window
# ---------------------------------------------------------------------------

def window_starts(k_p: int, n_bins: int) -> range:
    """Start positions 1, 2, ... of a size-k_p window sliding over n_bins
    range bins; a ValueError unless it fits at least once."""
    if n_bins < k_p:
        raise ValueError(f"n_bins must be >= k_p = {k_p}, got {n_bins}")
    return range(1, n_bins - k_p + 2)


def sliding_window(kinds: Sequence[DetectorKind], table: ThresholdTable | None,
                   cfg: ExperimentConfig, n_bins: int,
                   sinr_db: float) -> dict[DetectorKind, list[CurvePoint]]:
    """Detection probability as a size-K_P window slides over the range bins.

    The three echo components sit at the fixed absolute bins 1, n and m of
    the configured cell pair cfg.pair = (n, m): the target mean over all
    n_bins bins.  A window starting at position p tests bins p .. p+K_P-1
    (re-indexed as window cells 1..K_P), so its mean is those columns of
    the one mean, and components outside the window contribute to no
    tested cell.  The x coordinate of each point is the window start
    position.  With table None the thresholds are calibrated in the same
    schedule.
    """
    starts = window_starts(cfg.k_p, n_bins)
    cov = cfg.covariance()
    layout = BinLayout(n=cfg.pair[0], m=cfg.pair[1], window_size=n_bins)
    bins = target_mean_matrix(
        TargetParams(alpha=cfg.amplitudes(sinr_db), layout=layout),
        cfg.steering(), n_bins)
    points = [(position, bins[:, position - 1:position - 1 + cfg.k_p], cov)
              for position in starts]
    return _exceedance_sweep(kinds, table, cfg, _STAGE_SLIDE, cfg.trials_pd,
                             points)


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
