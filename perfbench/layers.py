"""Per-layer microbenchmarks: risdet's public functions timed on one probe block.

One round synthesizes a block of trials shaped like the workload's data
(H0, or H1 at a fixed SINR) and times the signal-model, detector and
threshold functions on it from outside the package.  Figures are
microseconds per trial; the detector figures subtract the whitening and
Gram cost that every batch_evaluate call pays.  The gain trace of each
round is also checked update by update (checks.check_update_steps).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import checks
from risdet.detectors import (
    MONOTONE_SLACK,
    DetectorKind,
    batch_evaluate,
    bounded_cfar_bounds,
    c_glrt_gain_trace,
)
from risdet.montecarlo import ExperimentConfig, threshold_from_stats
from risdet.signal_model import (
    TargetParams,
    alpha_from_sinr,
    synthesize_batch,
    target_mean_matrix,
    trial_rng,
)

PROBE_TRIALS = 2048


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


# Cell pair of the gain-trace probe: the pair the scenario's geometry gives.
TRACE_PAIR = (3, 6)


def probe_round(seed: int, sinr_db: float | None, kinds: tuple[str, ...],
                cal_trials: int) -> tuple[dict[str, float], list[str]]:
    """One round of every per-layer figure, and the errors of its checks.

    sinr_db None means H0 data.
    """
    cfg = ExperimentConfig(master_seed=seed)
    cov, steer = cfg.covariance(), cfg.steering()
    mean = None
    if sinr_db is not None:
        alphas = alpha_from_sinr(sinr_db, cov, steer.v_r, cfg.alpha_ratio)
        mean = target_mean_matrix(
            TargetParams(alpha=alphas, layout=cfg.layout), steer, cfg.k_p)
    idx = np.arange(PROBE_TRIALS, dtype=np.uint64)
    per_trial = 1e6 / PROBE_TRIALS
    out: dict[str, float] = {}

    start = time.perf_counter()
    for i in idx:
        trial_rng(seed, int(i))
    out["signal_model.trial_rng_us"] = (time.perf_counter() - start) * per_trial
    t, (z_p, r) = _timed(synthesize_batch, mean, cov, cfg.k_p, cfg.k_s, seed, idx)
    out["signal_model.synthesize_us"] = t * per_trial

    def evaluate(selected):
        return _timed(batch_evaluate, z_p, r, steer, selected, cfg.cglrt,
                      cfg.baseline_cell)

    # Every detector figure subtracts this one: warm up, then take a median.
    evaluate(())
    gram = statistics.median(evaluate(())[0] for _ in range(3)) * per_trial
    out["detectors.gram_us"] = gram
    t, _ = _timed(bounded_cfar_bounds, z_p, r, steer)
    out["detectors.pair_search_us"] = t * per_trial - gram
    for kind in DetectorKind:
        t, res = evaluate((kind,))
        out[f"detectors.{kind.value}_us"] = t * per_trial - gram
        if kind is DetectorKind.C_GLRT:
            iters = res[kind].iterations
            out["detectors.c-glrt.iterations_mean"] = float(iters.mean())
            out["detectors.c-glrt.hmax_hits"] = int(
                np.count_nonzero(iters == cfg.cglrt.h_max))
    t, _ = evaluate(tuple(DetectorKind(k) for k in kinds))
    out["detectors.selected_us"] = t * per_trial
    t, (_, update_lds) = _timed(c_glrt_gain_trace, z_p, r, steer, TRACE_PAIR,
                                cfg.cglrt)
    out["detectors.gain_trace_us"] = t * per_trial
    errors = [f"gain trace at pair {TRACE_PAIR}: {e}" for e in
              checks.check_update_steps(update_lds, cfg.k_p + cfg.k_s,
                                        MONOTONE_SLACK)]

    stats = np.random.default_rng([seed, 0x7E5]).standard_normal(cal_trials)
    t, _ = _timed(threshold_from_stats, stats, cfg.pfa)
    out["montecarlo.threshold_us"] = t * 1e6 / cal_trials
    return out, errors
