"""Monte Carlo experiment engine.

Threshold calibration, detection-probability curves, CFAR sweeps over the
clutter parameters, pair-index RMSE, cyclic-ascent convergence traces, and
the sliding-window study.  Trials are keyed by (master_seed, trial_index)
counter pairs; each experiment stage owns a disjoint block of trial
indices, so every estimate is reproducible bit-for-bit under a fixed master
seed regardless of chunking or worker scheduling.  Every run is one
schedule (`_schedule`): before any chunk runs, it checks every counter
block, whitens every point, cuts each block into chunks (ranges of
counters, which a worker turns into the chunk's counters) and, when
threads > 1, opens the run's one process pool.  The run then runs each
block with the key it holds at that moment: a curve that is not handed its
thresholds runs the calibration block, merges the thresholds, and runs its
curve block with them in the same pool.  Every point of a sweep tests the
trials of its stage's one block, as the detectors of a run and the pairs
of a convergence study share each trial: a chunk draws its trials once and
tests them at every point.  Each chunk is reduced in the worker as far as
the information allows: a calibration chunk to each detector's largest
statistics, from which the exact threshold merges, and a curve chunk to
each point's exceedance counts or integer sums of squared pair errors.  The
det-ratio detectors are evaluated under that reduction's cut (see
`detectors.batch_evaluate`): a calibration chunk passes its top k, and an
exceedance chunk its thresholds.  Each point is whitened by its covariance
factor, so a chunk draws white trials, adds each point's whitened mean and
tests them against that point's whitened steering vectors: every statistic
is invariant under that change of array basis, and no trial is coloured.
A chunk of several points factors each trial's training scatter once and
re-whitens per point only the columns that point changes.
A numerical failure in a chunk is re-raised naming its point and the
counter of its first failing trial.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import sys
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
    WhitenedChunk,
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

# Each stage owns one counter block, so data drawn for calibration never
# overlap data drawn for a curve, and every point of a curve tests the same
# trials.  Every chunk of a block is submitted at once, one task each,
# which bounds a block's size well below the stride.
_STAGE_STRIDE = 1 << 40
_BLOCK_TRIALS = 1 << 28
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
        n, m = self.pair
        return BinLayout(n=n, m=m, window_size=self.k_p)

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


def _trial_block(stage: int, count: int) -> range:
    if count > _BLOCK_TRIALS:
        raise CounterLayoutError(
            f"stage {stage} block of {count} trials is outside the counter "
            f"layout: at most {_BLOCK_TRIALS} trials per stage")
    base = stage * _STAGE_STRIDE
    return range(base, base + count)


@contextlib.contextmanager
def _naming_trial(cfg: ExperimentConfig, indices: range) -> Iterator[None]:
    """Re-raise a numerical failure of the chunk `indices` with the counter
    of its first failing trial, so that trial_rng can replay it.

    The counter is decoded into its (stage, offset) block; a failure that
    names no trial (a bad covariance, say) passes unchanged.
    """
    try:
        yield
    except (NotPositiveDefinite, NonMonotonic) as err:
        if err.positions is None:
            raise
        counter = int(indices[int(err.positions[0])])
        stage, offset = divmod(counter, _STAGE_STRIDE)
        raise type(err)(
            f"{err}; first failing trial: counter {counter} (stage {stage}, "
            f"offset {offset}) under master seed {cfg.master_seed}") from err


def _white_draw(cfg: ExperimentConfig, mean: np.ndarray | None,
                indices: range) -> Callable[[int, int], tuple]:
    """draw(lo, hi): the trials of the chunk's counters lo..hi-1 in the
    whitened frame, covariance I around the whitened mean, so synthesis
    colours nothing."""
    def draw(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        counters = np.arange(indices.start + lo, indices.start + hi,
                             dtype=np.uint64)
        return synthesize_batch(mean, np.eye(cfg.n_antennas), cfg.k_p,
                                cfg.k_s, cfg.master_seed, counters)
    return draw


def _evaluations(cfg: ExperimentConfig, kinds: tuple[DetectorKind, ...],
                 cut, points: Sequence[tuple], indices: range,
                 reduce: Callable[[dict[DetectorKind, BatchResult]], object],
                 ) -> list:
    """reduce of batch_evaluate of kinds under cut at each whitened point
    (label, mean, steering), in order, on the chunk's trials; each point's
    results are reduced, and dropped, before the next point is evaluated.

    A chunk of one point draws its trials around that point's mean and
    hands them to batch_evaluate as they are, which whitens them block by
    block and keeps nothing more: no other point re-whitens them.  A chunk
    of several points
    draws and whitens its trials once, white and with zero mean, one
    whitening block at a time (detectors.WhitenedChunk): it keeps each
    trial's factor of S_S, its whitened columns, and the drawn values of
    each window cell that some point's mean reaches.  Each point adds its
    mean to those cells and re-whitens only them, and the steering columns
    when its steering differs from the first point's, so a point gets the
    values it would get drawn around its mean alone.  The other cells stay
    as drawn, which adding a zero mean would not change.  A numerical
    failure at a point names it by its label (a point labelled None is the
    only one of its block), and the counter of its first failing trial; a
    training scatter of a chunk of several points that cannot be factored
    fails before any point, so it names no point.
    """
    out = []
    with _naming_trial(cfg, indices):
        # Each point's (z_p, r) as batch_evaluate takes them.
        if len(points) == 1:
            trials = [_white_draw(cfg, points[0][1], indices)(0, len(indices))]
        else:
            means = [mean for _, mean, _ in points if mean is not None]
            cells = np.flatnonzero(np.any(means, axis=(0, 1))) if means else []
            chunk = WhitenedChunk(_white_draw(cfg, None, indices),
                                  len(indices), points[0][2], cells)
            trials = [(chunk, mean) for _, mean, _ in points]
        for (label, _, steering), (z_p, r) in zip(points, trials):
            try:
                res = batch_evaluate(z_p, r, steering, kinds, cfg.cglrt,
                                     cfg.baseline_cell, cut=cut)
            except (NotPositiveDefinite, NonMonotonic) as err:
                if label is None:
                    raise
                raise type(err)(f"{err} at {label}",
                                positions=err.positions) from err
            out.append(reduce(res))
            del res
    return out


def _trace_chunk(cfg: ExperimentConfig, pairs: tuple[tuple[int, int], ...],
                 points: Sequence[tuple],
                 indices: range) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (gains, update_lds) of each of pairs, in pair order, on the
    chunk's trials at the block's one point."""
    ((_, mean, steering),) = points
    with _naming_trial(cfg, indices):
        z_p, r = _white_draw(cfg, mean, indices)(0, len(indices))
        return c_glrt_gain_trace(z_p, r, steering, pairs, cfg.cglrt)


class _Block(NamedTuple):
    """One counter block of a schedule: fn(cfg, key, points, chunk) runs on
    every chunk of the `trials` counters of block `stage`, and tests those
    trials at each of points, given as (label, mean, cov) and handed to fn
    whitened, as (label, mean, steering)."""

    fn: Callable
    stage: int
    trials: int
    points: tuple


def __getattr__(name: str):
    # ProcessPoolExecutor is imported on first use (PEP 562): its module
    # pulls in multiprocessing, socket, subprocess and some 30 others,
    # which a run on one process never needs.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@contextlib.contextmanager
def _schedule(cfg: ExperimentConfig, blocks: Sequence[_Block],
              ) -> Iterator[tuple[Callable[[object], Iterator], ...]]:
    """A run's blocks, ready to run: yields one runner per block, and
    runner(key) runs the block's fn with that key on every chunk of the
    block, and returns an iterator over the chunk outputs in trial order.

    Before it yields, every counter block is checked and every point
    whitened, once.  Each block is cut into chunks of min(_CHUNK,
    ceil(trials / threads)) trials, so a small block still gives every
    worker a chunk; a chunk is a range of counters.  With cfg.threads > 1
    every block's chunks go to one process pool, no wider than the task
    list or the machine's CPU count, which stays open until the schedule
    closes.  A runner submits every chunk of its block at once, so the
    caller can take a block's outputs, reduce them and key the next block
    with the result.  fn is pickled by name and reaches the synthesis and
    detectors through this module's globals, and the pool class is read
    from the module when the pool opens, so a class set there replaces it.
    """
    steering = cfg.steering()
    prepared = []
    for b in blocks:
        counters = _trial_block(b.stage, b.trials)
        size = min(_CHUNK, -(-b.trials // cfg.threads))
        points = tuple((label, *whiten(cov, mean, steering))
                       for label, mean, cov in b.points)
        prepared.append((b.fn, points, [counters[i:i + size]
                                        for i in range(0, b.trials, size)]))
    width = min(cfg.threads, sum(len(chunks) for *_, chunks in prepared),
                os.cpu_count() or 1)
    pool = (sys.modules[__name__].ProcessPoolExecutor(max_workers=width)
            if width > 1 else None)

    def runner(fn, points, chunks):
        def run(key):
            args = (itertools.repeat(cfg), itertools.repeat(key),
                    itertools.repeat(points), chunks)
            return (map if pool is None else pool.map)(fn, *args)
        return run

    with pool or contextlib.nullcontext():
        yield tuple(runner(*p) for p in prepared)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def _calibration_chunk(
    cfg: ExperimentConfig, key: tuple[tuple[DetectorKind, ...], int],
    points: Sequence[tuple], indices: range,
) -> tuple[dict[DetectorKind, np.ndarray], int, int]:
    """A calibration chunk reduced to what the thresholds need: each kind's
    `top` largest statistics, which the engine evaluates under that cut,
    and how many c-glrt ascents ran and how many of them stopped at h_max."""
    kinds, top = key

    def reduce(res):
        ascents = (res[DetectorKind.C_GLRT].ascents
                   if DetectorKind.C_GLRT in res else np.zeros(0))
        return ({kind: _largest(res[kind].statistic, top) for kind in kinds},
                int(np.count_nonzero(ascents == cfg.cglrt.h_max)),
                int(np.count_nonzero(ascents)))

    (out,) = _evaluations(cfg, kinds, top, points, indices, reduce)
    return out


def _top_count(cfg: ExperimentConfig) -> int:
    """k such that each threshold is the k-th largest calibration statistic."""
    return cfg.trials_cal - _threshold_index(cfg.pfa, cfg.trials_cal) + 1


def _calibration(cfg: ExperimentConfig) -> _Block:
    """The calibration block of a schedule: H0 trials at the configured
    covariance."""
    return _Block(_calibration_chunk, _STAGE_CAL, cfg.trials_cal,
                  ((None, None, cfg.covariance()),))


def _threshold_table(cfg: ExperimentConfig, kinds: tuple[DetectorKind, ...],
                     run: Callable[[object], Iterator]) -> ThresholdTable:
    """The thresholds of kinds, all sharing each trial, merged from the
    outputs of run, the calibration block's runner."""
    top = _top_count(cfg)
    tops, hits, ascents = zip(*run((kinds, top)))
    cyclic = DetectorKind.C_GLRT in kinds
    return ThresholdTable(
        thresholds={kind: _kth_largest((t[kind] for t in tops), top)
                    for kind in kinds},
        hmax_hits=sum(hits) if cyclic else None,
        ascents=sum(ascents) if cyclic else None)


def calibrate_thresholds(cfg: ExperimentConfig,
                         kinds: Sequence[DetectorKind]) -> ThresholdTable:
    """Thresholds at the configured pfa from a shared batch of H0 trials."""
    with _schedule(cfg, [_calibration(cfg)]) as (run,):
        return _threshold_table(cfg, tuple(kinds), run)


# ---------------------------------------------------------------------------
# Curves: one sweep loop over (x, mean, cov) points
# ---------------------------------------------------------------------------

def _sweep_chunk(cfg: ExperimentConfig, key: tuple, points: Sequence[tuple],
                 indices: range) -> list[dict[DetectorKind, object]]:
    """Each point's tallies on the chunk's trials, in point order: key =
    (kinds, cut, tally, table), and tally(cfg, table, kind, result) reduces
    one kind's result to an integer or integer array."""
    kinds, cut, tally, table = key
    return _evaluations(
        cfg, kinds, cut, points, indices,
        lambda res: {kind: tally(cfg, table, kind, res[kind])
                     for kind in kinds})


def _sweep(
    kinds: tuple[DetectorKind, ...],
    cfg: ExperimentConfig,
    stage: int,
    trials: int,
    points: Sequence[tuple[float, np.ndarray | None, np.ndarray]],
    label: str,
    tally: Callable,
    finish: Callable[[DetectorKind, float, object], Point],
    table: ThresholdTable | None = None,
    calibrate: bool = False,
) -> dict[DetectorKind, list[Point]]:
    """Evaluate every point (x, mean, cov) on one shared trial block.

    Every point tests the `trials` trials of counter block `stage`, and all
    kinds share each trial: a chunk draws its trials once and tests them at
    every point (see _evaluations), so the points compare on common data.
    label.format(x) names a point in a numerical failure.  tally(cfg,
    table, kind, result) reduces one kind's results at one point on one
    chunk, in the worker, to an integer or integer array that adds over the
    chunks, so a chunk returns a few numbers per point however many points
    there are; finish(kind, x, total) turns a point's total into a curve
    point.  With calibrate, the calibration block runs first in the same
    schedule, and the sweep runs with the thresholds it merges.  A sweep
    with a table, given or calibrated, tallies only whether each statistic
    exceeds its threshold, so its chunks evaluate the det-ratio kinds under
    that cut.  A kind listed twice would count each trial twice, so it is
    an error.
    """
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"a detector is listed twice in {kinds}")
    blocks = [_Block(_sweep_chunk, stage, trials,
                     tuple((label.format(x), mean, cov)
                           for x, mean, cov in points))]
    if calibrate:
        blocks.insert(0, _calibration(cfg))
    totals = [dict.fromkeys(kinds, 0) for _ in points]
    with _schedule(cfg, blocks) as (*calibration, run):
        if calibrate:
            table = _threshold_table(cfg, kinds, *calibration)
        cut = None if table is None else {
            k: table[k] for k in kinds if k in DET_RATIO_KINDS}
        for chunk in run((kinds, cut, tally, table)):
            for total, tallies in zip(totals, chunk):
                for kind in kinds:
                    total[kind] = total[kind] + tallies[kind]
    return {kind: [finish(kind, float(x), total[kind])
                   for (x, _, _), total in zip(points, totals)]
            for kind in kinds}


def _exceedances(cfg: ExperimentConfig, table: ThresholdTable,
                 kind: DetectorKind, res: BatchResult) -> int:
    return int(np.count_nonzero(res.statistic > table[kind]))


def _squared_errors(cfg: ExperimentConfig, table: None, kind: DetectorKind,
                    res: BatchResult) -> np.ndarray:
    """The sums of squared errors of the estimated pair (n, m) against
    cfg.pair."""
    true_n, true_m = cfg.pair
    return np.array([np.sum((res.n_hat - true_n) ** 2),
                     np.sum((res.m_hat - true_m) ** 2)])


def _exceedance_sweep(
    kinds: Sequence[DetectorKind],
    table: ThresholdTable | None,
    cfg: ExperimentConfig,
    stage: int,
    trials: int,
    points: Sequence[tuple[float, np.ndarray | None, np.ndarray]],
    label: str,
) -> dict[DetectorKind, list[CurvePoint]]:
    """The share of each point's trials above the detector's threshold;
    table None calibrates the thresholds in the same schedule."""
    def rate(kind: DetectorKind, x: float, count: int) -> CurvePoint:
        p = count / trials
        return CurvePoint(
            detector=kind.value, x=x, estimate=p,
            stderr=binomial_stderr(p, trials),
            trials=trials, seed=cfg.master_seed)
    return _sweep(tuple(kinds), cfg, stage, trials, points, label,
                  _exceedances, rate, table, calibrate=table is None)


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
                             _sinr_points(cfg), "SINR {:g} dB")


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
                             points, "CNR {:g} dB" if axis == "cnr"
                             else "rho {:g}")


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

    def rmse(kind: DetectorKind, sinr: float, sums: np.ndarray) -> RmsePoint:
        return RmsePoint(
            detector=kind.value, sinr_db=sinr,
            rmse_n=math.sqrt(int(sums[0]) / cfg.trials_pd),
            rmse_m=math.sqrt(int(sums[1]) / cfg.trials_pd),
            trials=cfg.trials_pd, seed=cfg.master_seed)

    return _sweep(kinds, cfg, _STAGE_RMSE, cfg.trials_pd,
                  _sinr_points(cfg), "SINR {:g} dB", _squared_errors, rmse)


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
    with _schedule(cfg, [_Block(_trace_chunk, _STAGE_CONV, n_trials,
                                ((None, mean, cov),))]) as (run,):
        parts = list(run(pairs))
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
                             points, "window start {}")


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
