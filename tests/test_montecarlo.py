import math
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import risdet.detectors as det
import risdet.montecarlo as mc
from risdet.detectors import (
    DET_RATIO_KINDS,
    CGlrtConfig,
    DetectorKind,
    PROPOSED_KINDS,
    batch_evaluate,
)
from risdet.montecarlo import (
    ALL_KINDS,
    CurvePoint,
    ExperimentConfig,
    RmsePoint,
    ThresholdTable,
    binomial_stderr,
    calibrate_thresholds,
    cfar_sweeps,
    PROFILES,
    convergence_study,
    flatten_curves,
    pd_curves,
    rmse_curves,
    sliding_window,
    threshold_from_stats,
    write_csv,
)
from risdet.signal_model import NotPositiveDefinite, synthesize_batch, whiten

from conftest import every_entry

# Small-array configuration used throughout: fast but statistically useful.
TINY = ExperimentConfig(
    pfa=0.05, trials_cal=2_000, trials_pd=500,
    sinr_grid=(-10.0, 0.0, 10.0), master_seed=31415,
    n_antennas=4, k_p=4, k_s=8, cnr_db=15.0, rho=0.7, pair=(2, 4))


def test_threshold_order_statistic_example():
    stats = np.arange(1.0, 101.0)
    assert threshold_from_stats(stats, 0.05) == 95.0


def test_threshold_input_validation():
    with pytest.raises(ValueError):
        threshold_from_stats(np.array([]), 0.1)
    with pytest.raises(ValueError):
        threshold_from_stats(np.arange(10.0), 0.0)
    with pytest.raises(ValueError):
        threshold_from_stats(np.ones((3, 3)), 0.1)


def test_threshold_monotone_in_pfa(rng):
    stats = rng.standard_normal(5_000)
    grid = (0.001, 0.01, 0.05, 0.2, 0.5)
    etas = [threshold_from_stats(stats, p) for p in grid]
    assert all(a >= b for a, b in zip(etas, etas[1:]))


def test_binomial_stderr():
    assert binomial_stderr(0.5, 100) == pytest.approx(0.05)
    assert binomial_stderr(0.0, 10) == 0.0


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(pfa=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(pfa=1e-3, trials_cal=5_000)  # below 10 / pfa
    with pytest.raises(ValueError):
        ExperimentConfig(k_s=8, n_antennas=16)
    with pytest.raises(ValueError):
        ExperimentConfig(pair=(1, 6))
    with pytest.raises(ValueError):
        ExperimentConfig(pair=(3, 7), k_p=6)
    with pytest.raises(ValueError):
        ExperimentConfig(rho=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(baseline_cell=7)
    with pytest.raises(ValueError):
        ExperimentConfig(threads=0)


def test_profiles():
    assert sorted(PROFILES) == ["desk", "paper"]
    # The desk budgets are the ExperimentConfig defaults.
    assert replace(ExperimentConfig(), **PROFILES["desk"]) == ExperimentConfig()
    paper = replace(ExperimentConfig(), **PROFILES["paper"])
    assert (paper.pfa, paper.trials_cal, paper.trials_pd) == (
        1e-4, 1_000_000, 10_000)


def test_config_covariance_and_steering():
    cov = TINY.covariance()
    assert cov.shape == (4, 4)
    assert cov[0, 0].real == pytest.approx(1.0 + 10.0 ** 1.5)
    cov0 = TINY.covariance(cnr_db=-300.0, rho=0.0)
    assert np.allclose(cov0, np.eye(4), atol=1e-12)
    assert TINY.steering().dim == 4
    assert TINY.layout.n == 2 and TINY.layout.m == 4


def test_threshold_table_accessors():
    table = ThresholdTable({DetectorKind.AMF: 2.5})
    assert table[DetectorKind.AMF] == 2.5
    with pytest.raises(ValueError):
        ThresholdTable({DetectorKind.AMF: float("inf")})


def test_curve_point_validation():
    with pytest.raises(ValueError):
        CurvePoint("amf", 0.0, 1.2, 0.0, 10, 1)


def test_calibration_is_deterministic():
    a = calibrate_thresholds(TINY, (DetectorKind.A_GLRT, DetectorKind.AMF))
    b = calibrate_thresholds(TINY, (DetectorKind.A_GLRT, DetectorKind.AMF))
    assert a.thresholds == b.thresholds
    # A single-detector calibration equals that detector inside a larger one.
    single = calibrate_thresholds(TINY, (DetectorKind.AMF,))
    assert single[DetectorKind.AMF] == a[DetectorKind.AMF]


def _eval_chunk(cfg, key, points, indices):
    """batch_evaluate of key = (kinds, cut) at each point, on one chunk."""
    return mc._evaluations(cfg, *key, points, indices, lambda res: res)


def _chunks(cfg, stage, trials, kinds, cut, mean, cov):
    """The chunks of block `stage`, drawn, cut and whitened as a run does,
    each evaluated under `cut` at the one point (mean, cov)."""
    with mc._schedule(cfg, [mc._Block(_eval_chunk, stage, trials,
                                      ((None, mean, cov),))]) as (run,):
        return [res for (res,) in run((kinds, cut))]


def _cal_chunks(cfg, kinds, cut):
    """The calibration block's chunks evaluated under `cut`, as calibration
    draws and whitens them."""
    return _chunks(cfg, mc._STAGE_CAL, cfg.trials_cal, kinds, cut, None,
                   cfg.covariance())


def test_calibration_counts_hmax_hits():
    # A tight cap makes some, but not all, ascents stop at h_max.  The
    # calibration runs an ascent only at the (trial, pair) entries that can
    # reach its chunk's top statistics, and counts those ascents and, of
    # them, the ones that stopped at h_max.  The full evaluation runs the
    # ascent at every (trial, pair) of the chunk.
    cfg = replace(TINY, trials_cal=1_000, cglrt=CGlrtConfig(h_max=3))
    kinds = (DetectorKind.C_GLRT, DetectorKind.AMF)
    table = calibrate_thresholds(cfg, kinds)
    (cut,) = _cal_chunks(cfg, kinds, mc._top_count(cfg))
    idx = mc._trial_block(mc._STAGE_CAL, cfg.trials_cal)
    _, _, every = every_entry(*mc._white_draw(cfg, None, idx)(0, len(idx)),
                              whiten(cfg.covariance(), None, cfg.steering())[1],
                              (DetectorKind.C_GLRT,), cfg.cglrt)
    ran = cut[DetectorKind.C_GLRT].ascents > 0
    assert table.ascents == np.count_nonzero(ran)
    assert table.hmax_hits == np.count_nonzero(
        cut[DetectorKind.C_GLRT].ascents == cfg.cglrt.h_max)
    # The ascents that ran are those of the full evaluation, and they are
    # a small share of it.
    assert every.min() >= 1
    assert np.array_equal(cut[DetectorKind.C_GLRT].ascents[ran], every[ran])
    assert 0 < table.hmax_hits < table.ascents < every.size // 2
    no_cyclic = calibrate_thresholds(cfg, (DetectorKind.AMF,))
    assert no_cyclic.hmax_hits is None and no_cyclic.ascents is None


def test_merged_thresholds_are_the_order_statistics_of_the_block(
        monkeypatch):
    # Calibration chunks return only each kind's largest statistics; the
    # merged thresholds equal the order statistic of all the block's
    # statistics, as a full sort picks it.
    monkeypatch.setattr(mc, "_CHUNK", 97)
    cfg = replace(TINY, cglrt=CGlrtConfig(h_max=3))
    table = calibrate_thresholds(cfg, ALL_KINDS)
    parts = _cal_chunks(cfg, ALL_KINDS, None)
    for kind in ALL_KINDS:
        stats = np.concatenate([p[kind].statistic for p in parts])
        assert table[kind] == threshold_from_stats(stats, cfg.pfa)
    # The h_max count is that of the ascents the chunks ran under the cut.
    ascents = np.concatenate([p[DetectorKind.C_GLRT].ascents for p in
                              _cal_chunks(cfg, ALL_KINDS, mc._top_count(cfg))])
    assert table.hmax_hits == np.count_nonzero(ascents == 3) > 0
    assert table.ascents == np.count_nonzero(ascents)


def _convergence(cfg):
    traces = convergence_study(cfg, [(2, 4), (3, 4)], 0.0, 300)
    return [(t.pair, t.mean_gain.tolist(), t.monotone_fraction)
            for t in traces]


def test_calibration_chunk_size_invariance(monkeypatch):
    kinds = (DetectorKind.EP_GLRT_KM_1, DetectorKind.KELLY)
    base = calibrate_thresholds(TINY, kinds)
    base_conv = _convergence(TINY)
    monkeypatch.setattr(mc, "_CHUNK", 97)
    chunked = calibrate_thresholds(TINY, kinds)
    assert base.thresholds == chunked.thresholds
    assert _convergence(TINY) == base_conv


def test_worker_pool_matches_serial():
    cfg = replace(TINY, trials_cal=6_000, threads=2)
    serial = replace(cfg, threads=1)
    kinds = (DetectorKind.A_GLRT,)
    table = calibrate_thresholds(serial, kinds)
    assert calibrate_thresholds(cfg, kinds).thresholds == table.thresholds
    # One 500-trial curve block on two workers: two chunks, each tested
    # at the three points.
    assert pd_curves(kinds, table, cfg) == pd_curves(kinds, table, serial)
    assert _convergence(cfg) == _convergence(serial)


@pytest.fixture
def pool_widths(monkeypatch):
    """A thread pool in the place of the process pool, on a machine of four
    CPUs: it records the width each pool is opened with, in the returned
    list, and runs the same tasks."""
    widths = []
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
    return widths


def test_pool_has_no_more_workers_than_tasks(monkeypatch, pool_widths):
    # Under fork every worker starts with the pool, so a pool wider than its
    # task list, or than the machine, starts processes that never run a
    # task, or that wait for a CPU.  A block is cut into chunks of at most
    # ceil(trials / threads) trials.
    monkeypatch.setattr(mc, "_CHUNK", 1_000)
    kinds = (DetectorKind.KELLY,)
    serial = calibrate_thresholds(TINY, kinds)
    few = replace(TINY, trials_pd=3)
    # Eight chunks of 250 calibration trials on the four CPUs; then three
    # one-trial chunks of the curve on three workers, and two chunks of 250
    # on two.
    assert calibrate_thresholds(replace(TINY, threads=8), kinds) == serial
    assert pd_curves(kinds, serial, replace(few, threads=8)) == \
        pd_curves(kinds, serial, few)
    assert pd_curves(kinds, serial, replace(TINY, threads=2)) == \
        pd_curves(kinds, serial, TINY)
    assert pool_widths == [4, 3, 2]


@pytest.mark.parametrize("cpus, widths", [(3, [3]), (1, []), (None, [])],
                         ids=["three-cpus", "one-cpu", "unknown"])
def test_pool_is_no_wider_than_the_machine(monkeypatch, cpus, widths):
    # --threads sets the chunking, so every artifact is that of the
    # threads asked for; the pool is no wider than the CPU count, and a
    # machine of one CPU, or of an unknown count, runs on one process.  The
    # stand-in pool starts no thread or process: it records its width and
    # runs each task in turn.
    opened = []

    class StandInPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", StandInPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    kinds = (DetectorKind.KELLY,)
    serial = calibrate_thresholds(TINY, kinds)
    wide = replace(TINY, threads=500)
    assert calibrate_thresholds(wide, kinds) == serial
    assert opened == widths
    assert pd_curves(kinds, serial, wide) == pd_curves(kinds, serial, TINY)
    assert opened == widths * 2


def test_schedule_lists_no_counter_before_a_chunk_runs(monkeypatch):
    # A chunk is a range of counters, which the worker turns into the
    # chunk's counters, so entering the schedule of a 10**7-trial
    # calibration holds no list of them (76 MiB as uint64 with the chunks'
    # views).
    def no_trials(*args):
        raise AssertionError("trial drawn")

    monkeypatch.setattr(mc, "synthesize_batch", no_trials)
    cfg = ExperimentConfig(trials_cal=10_000_000)
    tracemalloc.start()
    try:
        with mc._schedule(cfg, [mc._calibration(cfg)]):
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("chunk", [4096, 997])
def test_one_pool_per_run(monkeypatch, pool_widths, chunk):
    # Handed no table, a sweep puts the calibration block first in its own
    # schedule: one pool runs calibration and curve chunks with no barrier,
    # and the curves equal a calibration followed by the sweep, serially.
    monkeypatch.setattr(mc, "_CHUNK", chunk)
    kinds = (DetectorKind.EP_GLRT_KM_1, DetectorKind.C_GLRT,
             DetectorKind.KELLY)
    serial = replace(TINY, trials_cal=3_000, trials_pd=1_500)
    table = calibrate_thresholds(serial, kinds)
    runs = {
        "pd": lambda t, cfg: pd_curves(kinds, t, cfg),
        "cfar": lambda t, cfg: cfar_sweeps(kinds, t, "rho", [0.5, 0.9], cfg),
        "slide": lambda t, cfg: sliding_window(kinds, t, cfg, 6, 0.0),
    }
    for name, run in runs.items():
        pool_widths.clear()
        assert run(None, replace(serial, threads=2)) == run(table, serial), name
        assert pool_widths == [2], name


@settings(max_examples=60, deadline=None)
@given(trials=st.integers(1, 400), pfa=st.floats(0.001, 0.999),
       levels=st.integers(1, 30), cuts=st.lists(st.integers(0, 400)),
       seed=st.integers(0, 2**32 - 1))
def test_merged_top_statistics_give_the_exact_threshold(trials, pfa, levels,
                                                        cuts, seed):
    # Chunks of any size keep their k largest statistics; merged, those
    # give the order statistic of the whole batch, ties and all.
    stats = np.random.default_rng(seed).integers(0, levels, trials) * 0.5
    bounds = sorted({0, trials, *(c for c in cuts if c < trials)})
    chunks = [stats[a:b] for a, b in zip(bounds, bounds[1:])]
    idx = math.ceil((1.0 - pfa) * trials)
    k = trials - idx + 1
    merged = mc._kth_largest([mc._largest(c, k) for c in chunks], k)
    assert merged == np.sort(stats)[idx - 1]
    assert merged == threshold_from_stats(stats, pfa)


def _plant_nan(monkeypatch, counter, block):
    """Make synthesize_batch return a NaN in `block` ("z_p" or "r") of the
    trial drawn at `counter`."""
    def planted(*args):
        z_p, r = synthesize_batch(*args)
        hit = args[-1] == counter
        (z_p if block == "z_p" else r)[hit, 0, 1] = np.nan
        return z_p, r
    monkeypatch.setattr(mc, "synthesize_batch", planted)


def test_chunk_memory_stays_near_its_data_buffer():
    # One chunk of the default model: synthesis colours its one
    # (T, N, K_P + K_S) buffer in place, and the whitening front end works
    # in blocks of trials, so drawing and evaluating the chunk with every
    # detector peaks under 1.75 times that buffer.
    cfg = ExperimentConfig()
    idx = mc._trial_block(mc._STAGE_CAL, mc._CHUNK)
    data_bytes = len(idx) * cfg.n_antennas * (cfg.k_p + cfg.k_s) * 16
    tracemalloc.start()
    try:
        z_p, r = synthesize_batch(None, cfg.covariance(), cfg.k_p, cfg.k_s,
                                  cfg.master_seed, idx)
        batch_evaluate(z_p, r, cfg.steering(), ALL_KINDS, cfg.cglrt,
                       cfg.baseline_cell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * data_bytes


def _sweep_chunk_peak(stage, points):
    """One default-model chunk of block `stage` tested at points (label,
    mean, cov) with every detector under the thresholds, as an exceedance
    sweep tests it: its tallies, and its traced peak over its data
    buffer."""
    cfg = ExperimentConfig()
    table = calibrate_thresholds(replace(cfg, pfa=0.01, trials_cal=1_000),
                                 ALL_KINDS)
    steering = cfg.steering()
    points = tuple((label, *whiten(cov, mean, steering))
                   for label, mean, cov in points)
    key = (ALL_KINDS, {k: table[k] for k in DET_RATIO_KINDS},
           mc._exceedances, table)
    idx = mc._trial_block(stage, mc._CHUNK)
    data_bytes = len(idx) * cfg.n_antennas * (cfg.k_p + cfg.k_s) * 16
    tracemalloc.start()
    try:
        counts = mc._sweep_chunk(cfg, key, points, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return counts, peak / data_bytes


def test_sweep_chunk_memory_stays_near_its_data_buffer():
    # One chunk of the default model tested at the 25 SINRs of its grid
    # with every detector, under the thresholds, as pd-curve tests it.  The
    # chunk draws and whitens its trials one block at a time, keeping each
    # trial's factor of S_S, its whitened columns and a copy of the window
    # cells the means reach, and each point's results are reduced before
    # the next point runs, so the chunk peaks under the bound of a chunk
    # tested at one point.
    cfg = ExperimentConfig()
    counts, peak = _sweep_chunk_peak(
        mc._STAGE_PD, [(f"SINR {s:g} dB", mc._h1_mean(cfg, s),
                        cfg.covariance()) for s in cfg.sinr_grid])
    assert len(counts) == 25 and counts[-1][DetectorKind.KELLY] > 4_000
    assert peak < 1.75


def test_cfar_sweep_chunk_memory_stays_near_its_data_buffer():
    # The same chunk at five CNRs: each point is whitened by its own
    # covariance, so it re-whitens the three steering columns of every
    # trial, block by block, and still peaks under the same bound.
    cfg = ExperimentConfig()
    counts, peak = _sweep_chunk_peak(
        mc._STAGE_CFAR_CNR, [(f"CNR {v:g} dB", None, cfg.covariance(cnr_db=v))
                             for v in (15.0, 20.0, 25.0, 30.0, 35.0)])
    assert len(counts) == 5
    assert peak < 1.75


@pytest.mark.parametrize("axis", ["sinr", "cnr"])
def test_sweep_chunk_factors_each_training_scatter_once(monkeypatch, axis):
    # A sweep chunk draws and whitens its trials once: each trial's S_S is
    # factored in one whitening block, however many points test the chunk,
    # and a point re-whitens only the cells its mean reaches and, when its
    # covariance differs, the steering columns.  Each point's statistics
    # equal those of its trials drawn and whitened alone, bit for bit.
    cfg = ExperimentConfig()
    kinds = (DetectorKind.EP_GLRT_KM_1, DetectorKind.KELLY, DetectorKind.AMF)
    steering = cfg.steering()
    points = [(str(x), *whiten(cfg.covariance(), mc._h1_mean(cfg, x),
                               steering)) if axis == "sinr"
              else (str(x), *whiten(cfg.covariance(cnr_db=x), None, steering))
              for x in (-10.0, 10.0, 30.0)]
    idx = mc._trial_block(mc._STAGE_PD, 700)
    factored, cholesky = [], det._cholesky

    def counted(a, first):
        factored.append((len(a), first))
        return cholesky(a, first)

    monkeypatch.setattr(det, "_cholesky", counted)
    got = mc._evaluations(cfg, kinds, None, points, idx,
                          lambda res: {k: res[k].statistic for k in kinds})
    assert factored == [(256, 0), (256, 256), (188, 512)]
    for (_, mean, steer), stats in zip(points, got):
        z_p, r = synthesize_batch(mean, np.eye(cfg.n_antennas), cfg.k_p,
                                  cfg.k_s, cfg.master_seed, idx)
        want = batch_evaluate(z_p, r, steer, kinds)
        for kind in kinds:
            assert np.array_equal(stats[kind], want[kind].statistic), kind


@pytest.mark.parametrize("sinr_db", [None, 20.0])
def test_whitened_chunk_matches_coloured_trials(sinr_db):
    # A chunk draws white trials around the whitened mean and tests them
    # against the whitened steering vectors.  On the same counters, every
    # statistic must agree with the coloured trials tested against the
    # steering vectors themselves, and every pair and iteration count must
    # be equal.  700 trials span several synthesis and whitening blocks.
    cfg = ExperimentConfig()
    cov, steering = cfg.covariance(), cfg.steering()
    mean = (None if sinr_db is None
            else mc._h1_mean(cfg, sinr_db))
    idx = mc._trial_block(mc._STAGE_PD, 700)
    z_p, r = synthesize_batch(mean, cov, cfg.k_p, cfg.k_s, cfg.master_seed,
                              idx)
    want = batch_evaluate(z_p, r, steering, ALL_KINDS, cfg.cglrt,
                          cfg.baseline_cell)
    (got,) = _chunks(cfg, mc._STAGE_PD, 700, ALL_KINDS, None, mean, cov)
    for kind in ALL_KINDS:
        assert got[kind].statistic == pytest.approx(want[kind].statistic,
                                                    rel=1e-10, abs=0)
        for name in ("n_hat", "m_hat", "iterations"):
            a, b = getattr(got[kind], name), getattr(want[kind], name)
            assert (a is None and b is None) or np.array_equal(a, b)


def test_tiny_noise_power_leaves_thresholds_alone():
    # Scaling the covariance by 1e-300 scales the whitened steering vectors
    # by 1e150 and leaves the white trials as they are; every statistic is
    # invariant to that, and no step may overflow on the way (warnings are
    # errors here).
    tiny = replace(TINY, noise_power=1e-300)
    base = calibrate_thresholds(TINY, ALL_KINDS)
    scaled = calibrate_thresholds(tiny, ALL_KINDS)
    for kind in ALL_KINDS:
        assert scaled[kind] == pytest.approx(base[kind], rel=1e-9)


def test_numerical_failure_names_its_trial_counter(monkeypatch):
    # The failing trial sits in the middle of the second of several chunks;
    # the error names its absolute counter and the block it decodes to.
    monkeypatch.setattr(mc, "_CHUNK", 97)
    _plant_nan(monkeypatch, 130, "z_p")
    with np.errstate(invalid="ignore"), pytest.raises(
            NotPositiveDefinite,
            match=r"counter 130 \(stage 0, offset 130\) under "
                  r"master seed 31415"):
        calibrate_thresholds(TINY, ALL_KINDS)
    # A trace chunk, with the NaN in the training data: every pair is
    # traced on the trials of block stage 5.
    counter = mc._STAGE_CONV * mc._STAGE_STRIDE + 42
    _plant_nan(monkeypatch, counter, "r")
    with np.errstate(invalid="ignore"), pytest.raises(
            NotPositiveDefinite,
            match=rf"counter {counter} \(stage 5, offset 42\)"):
        convergence_study(TINY, [(2, 4), (3, 4)], 0.0, 300)


def test_trace_failure_names_its_pair_and_trial_counter(monkeypatch):
    # Both pairs share each trial, so the counter alone does not say which
    # pair failed.  A NaN planted in the second pair's workspace at trial
    # 42 fails that pair's ascent; the error names the pair and the counter.
    traced, calls = det._cyclic_batch, []

    def planted(h, *args, **kwargs):
        calls.append(h.shape)
        if len(calls) == 2:
            h = h.copy()
            h[det._Z1, det._Z1, 42] = np.nan
        return traced(h, *args, **kwargs)

    monkeypatch.setattr(det, "_cyclic_batch", planted)
    counter = mc._STAGE_CONV * mc._STAGE_STRIDE + 42
    with pytest.raises(
            NotPositiveDefinite,
            match=rf"^ascent capacitance .* at pair \(3, 4\); first failing "
                  rf"trial: counter {counter} \(stage 5, offset 42\)"):
        convergence_study(TINY, [(2, 4), (3, 4)], 0.0, 300)
    assert len(calls) == 2


def test_calibrated_threshold_self_consistency():
    """Fresh H0 data tested against the calibrated threshold reproduces pfa
    within Monte Carlo error (the CFAR sweep at the calibration point)."""
    cfg = replace(TINY, trials_cal=20_000)
    kinds = (DetectorKind.EP_GLRT_KM_2, DetectorKind.A_GLRT)
    table = calibrate_thresholds(cfg, kinds)
    curves = cfar_sweeps(kinds, table, "rho", [cfg.rho], cfg)
    tol = 4.0 * binomial_stderr(cfg.pfa, cfg.trials_cal)
    for kind in kinds:
        (point,) = curves[kind]
        assert point.estimate == pytest.approx(cfg.pfa, abs=tol)


def test_cfar_single_point_equals_plain_reestimate():
    kinds = (DetectorKind.EP_GLRT_KM_1,)
    table = calibrate_thresholds(TINY, kinds)
    curves = cfar_sweeps(kinds, table, "cnr", [TINY.cnr_db], TINY)
    (point,) = curves[kinds[0]]
    # Re-run the same trial block by hand and count exceedances directly.
    idx = mc._trial_block(mc._STAGE_CFAR_CNR, TINY.trials_cal)
    z_p, r = synthesize_batch(None, TINY.covariance(), TINY.k_p, TINY.k_s,
                              TINY.master_seed, idx)
    stat = batch_evaluate(z_p, r, TINY.steering(), kinds)[kinds[0]].statistic
    manual = float(np.mean(stat > table[kinds[0]]))
    assert point.estimate == manual
    assert point.x == TINY.cnr_db
    assert point.trials == TINY.trials_cal


def test_cfar_sweep_rejects_bad_axis():
    table = ThresholdTable({DetectorKind.AMF: 1.0})
    with pytest.raises(ValueError):
        cfar_sweeps((DetectorKind.AMF,), table, "cnr_db", [0.0], TINY)


def test_pd_overwhelming_signal():
    table = calibrate_thresholds(TINY, PROPOSED_KINDS)
    curves = pd_curves(PROPOSED_KINDS, table,
                       replace(TINY, sinr_grid=(60.0,)))
    for kind in PROPOSED_KINDS:
        assert curves[kind][0].estimate >= 0.999


def test_pd_curve_wrapper_matches_full_run():
    # A single-detector run equals the same detector inside a full run.
    table = calibrate_thresholds(TINY, ALL_KINDS)
    full = pd_curves(ALL_KINDS, table, TINY)[DetectorKind.KELLY]
    solo = pd_curves((DetectorKind.KELLY,), table, TINY)[DetectorKind.KELLY]
    assert [(p.x, p.estimate) for p in solo] == \
        [(p.x, p.estimate) for p in full]
    assert [p.x for p in solo] == list(TINY.sinr_grid)


def test_pd_grows_with_sinr():
    table = calibrate_thresholds(TINY, (DetectorKind.A_GLRT,))
    pts = pd_curves((DetectorKind.A_GLRT,), table,
                    replace(TINY, sinr_grid=(-20.0, 20.0)))[DetectorKind.A_GLRT]
    assert pts[1].estimate > pts[0].estimate


def test_rmse_from_chunk_sums_equals_the_array_formula(monkeypatch):
    # Each chunk is reduced to integer sums of squared pair errors as it
    # arrives; the RMSE from those sums equals the formula on all of the
    # point's trials at once, bit for bit.
    monkeypatch.setattr(mc, "_CHUNK", 97)
    kinds = (DetectorKind.EP_GLRT_KM_1, DetectorKind.A_GLRT)
    curves = rmse_curves(kinds, replace(TINY, sinr_grid=(-20.0,)))
    cov = TINY.covariance()
    mean = mc._h1_mean(TINY, -20.0)
    parts = _chunks(TINY, mc._STAGE_RMSE, TINY.trials_pd, kinds, None, mean,
                    cov)
    assert len(parts) == 6
    for kind in kinds:
        (point,) = curves[kind]
        for name, true in (("n_hat", 2), ("m_hat", 4)):
            est = np.concatenate([getattr(p[kind], name) for p in parts])
            want = float(np.sqrt(np.mean((est - true) ** 2.0)))
            assert getattr(point, "rmse_" + name[0]) == want
        assert point.rmse_n > 0.0 and point.rmse_m > 0.0


def test_rmse_rejects_single_cell_detectors():
    with pytest.raises(ValueError):
        rmse_curves((DetectorKind.KELLY,), TINY)


def test_rmse_curve_shrinks_with_sinr():
    curves = rmse_curves((DetectorKind.A_GLRT,),
                         replace(TINY, sinr_grid=(-30.0, 30.0)))[DetectorKind.A_GLRT]
    assert curves[1].rmse_n <= curves[0].rmse_n
    assert curves[1].rmse_n == pytest.approx(0.0, abs=0.2)
    assert curves[1].rmse_m == pytest.approx(0.0, abs=0.2)


def test_convergence_trace_shape_and_tail():
    traces = convergence_study(TINY, [(2, 4)], 0.0, 200)
    (trace,) = traces
    assert trace.pair == (2, 4)
    assert trace.mean_gain.shape == (TINY.cglrt.h_max,)
    assert trace.monotone_fraction == 1.0
    assert np.all(trace.mean_gain >= -1e-12)
    first = trace.first_below(1e-5)
    assert first is not None and first <= 10
    # The mean gain shrinks by orders of magnitude over the budget.
    assert trace.mean_gain[-1] < 1e-3 * max(trace.mean_gain[0], 1e-300)


def test_convergence_single_iteration_budget():
    cfg = replace(TINY, cglrt=CGlrtConfig(h_max=1))
    (trace,) = convergence_study(cfg, [cfg.pair], 0.0, 50)
    assert trace.mean_gain.shape == (1,)
    assert trace.first_below(1e30) == 1


def test_convergence_rejects_empty_budget():
    with pytest.raises(ValueError, match="n_trials"):
        convergence_study(TINY, [TINY.pair], 0.0, 0)


def test_sliding_window_pure_h0_positions():
    cfg = replace(TINY, pfa=0.1, trials_cal=20_000, trials_pd=2_000)
    kinds = (DetectorKind.EP_GLRT_KM_1, DetectorKind.A_GLRT)
    table = calibrate_thresholds(cfg, kinds)
    curves = sliding_window(kinds, table, cfg, n_bins=12, sinr_db=0.0)
    for kind in kinds:
        pts = curves[kind]
        assert [p.x for p in pts] == [float(p) for p in range(1, 10)]
        # Window starting at 5 has left every populated bin: H0 data only.
        for p in pts:
            if p.x >= 5:
                assert cfg.pfa / 2 <= p.estimate <= 2 * cfg.pfa


def test_a_point_reads_the_same_alone_and_inside_a_grid(monkeypatch):
    # Every point of a sweep tests the trials of its stage's one block,
    # drawn once per chunk, and each point rewrites the window cells from
    # the white draws: a point's row does not depend on the points around
    # it, nor on the chunking.
    kinds = (DetectorKind.EP_GLRT_KM_1, DetectorKind.A_GLRT,
             DetectorKind.C_GLRT, DetectorKind.KELLY)
    table = calibrate_thresholds(TINY, kinds)
    sinrs, values = (-10.0, 0.0, 10.0), (0.2, 0.5, 0.9)
    sweeps = {
        "pd": lambda xs: pd_curves(kinds, table,
                                   replace(TINY, sinr_grid=tuple(xs))),
        "rmse": lambda xs: rmse_curves(kinds[:3],
                                       replace(TINY, sinr_grid=tuple(xs))),
        "cfar": lambda xs: cfar_sweeps(kinds, table, "rho", xs, TINY),
    }
    for name, run in sweeps.items():
        xs = values if name == "cfar" else sinrs
        monkeypatch.setattr(mc, "_CHUNK", 97)
        grid = run(xs)
        monkeypatch.setattr(mc, "_CHUNK", 4096)
        for j, x in enumerate(xs):
            alone = run([x])
            for kind in alone:
                assert alone[kind] == [grid[kind][j]], (name, x)
    # The sliding window over 10 bins, and each start alone.
    monkeypatch.setattr(mc, "_CHUNK", 97)
    grid = sliding_window(kinds, table, TINY, 10, 0.0)
    monkeypatch.setattr(mc, "_CHUNK", 4096)
    for start in (1, 4, 7):
        monkeypatch.setattr(mc, "window_starts", lambda k_p, n_bins: [start])
        alone = sliding_window(kinds, table, TINY, 10, 0.0)
        for kind in kinds:
            assert alone[kind] == [grid[kind][start - 1]], start
    # Starts 5 to 7 hold no target component: the same data at the same
    # thresholds, so the same rows.
    for kind in kinds:
        assert [p.estimate for p in grid[kind][4:]] == \
            [grid[kind][4].estimate] * 3


def test_sliding_window_requires_enough_bins():
    table = ThresholdTable({DetectorKind.AMF: 1.0})
    with pytest.raises(ValueError):
        sliding_window((DetectorKind.AMF,), table, TINY, 3, 0.0)


def test_trial_blocks_are_disjoint():
    seen = set()
    for stage in range(7):
        ids = set(mc._trial_block(stage, 1_000))
        assert not ids & seen
        seen |= ids
    with pytest.raises(ValueError):
        mc._trial_block(0, mc._BLOCK_TRIALS + 1)


def test_curve_csv_bytes_deterministic(tmp_path):
    pts = [
        CurvePoint("amf", -3.0, 0.125, 0.011692679333668567, 800, 7),
        CurvePoint("kelly", 1.0, 0.5, 0.01767766952966369, 800, 7),
    ]
    header = [f.name for f in fields(CurvePoint)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, header, [astuple(p) for p in pts])
    write_csv(p2, header, [astuple(p) for p in pts])
    body = p1.read_bytes()
    assert body == p2.read_bytes()
    lines = body.decode().strip().split("\r\n")
    assert lines[0] == "detector,x,estimate,stderr,trials,seed"
    assert lines[1].startswith("amf,-3.0,0.125,")
    assert len(lines) == 3
    rmse = tmp_path / "rmse.csv"
    write_csv(rmse, [f.name for f in fields(RmsePoint)],
              [astuple(RmsePoint("a-glrt", 0.0, 0.1, 1 / 3, 50, 7))])
    assert rmse.read_bytes() == (b"detector,sinr_db,rmse_n,rmse_m,trials,seed\r\n"
                                 b"a-glrt,0.0,0.1,0.3333333333333333,50,7\r\n")
    # numpy scalars are written as the plain float they hold.
    scalars = tmp_path / "scalars.csv"
    write_csv(scalars, ("gain", "count"), [(np.float64(0.1), np.int64(3))])
    assert scalars.read_bytes() == b"gain,count\r\n0.1,3\r\n"


def test_flatten_curves_orders_by_detector():
    mk = lambda name, x: CurvePoint(name, x, 0.0, 0.0, 1, 1)
    curves = {
        DetectorKind.KELLY: [mk("kelly", 0.0)],
        DetectorKind.EP_GLRT_KM_1: [mk("ep-glrt-km-1", 0.0),
                                    mk("ep-glrt-km-1", 1.0)],
    }
    flat = flatten_curves(curves)
    assert [p.detector for p in flat] == ["ep-glrt-km-1", "ep-glrt-km-1",
                                          "kelly"]


def test_replace_config():
    cfg = replace(TINY, rho=0.5)
    assert cfg.rho == 0.5 and cfg.pfa == TINY.pfa
    # A replaced config is validated again.
    with pytest.raises(ValueError):
        replace(TINY, k_s=2)


def test_trial_blocks_stay_inside_the_counter_layout():
    # A stage's one block holds at most _BLOCK_TRIALS counters, so its
    # last counter stays below the first of the next stage; a larger block
    # is refused before its counters are listed.
    last = mc._STAGE_PD * mc._STAGE_STRIDE + mc._BLOCK_TRIALS - 1
    assert last < mc._trial_block(mc._STAGE_CFAR_CNR, 1)[0]
    for stage in (mc._STAGE_CAL, mc._STAGE_PD):
        with pytest.raises(mc.CounterLayoutError, match="counter layout"):
            mc._trial_block(stage, mc._BLOCK_TRIALS + 1)
    assert issubclass(mc.CounterLayoutError, ValueError)


def test_sweeps_reject_a_repeated_detector(monkeypatch):
    # A kind listed twice would add each chunk's tally twice.
    def no_trials(*args):
        raise AssertionError("trial drawn")

    monkeypatch.setattr(mc, "synthesize_batch", no_trials)
    table = ThresholdTable({DetectorKind.AMF: 1.0, DetectorKind.A_GLRT: 1.0})
    twice = (DetectorKind.A_GLRT, DetectorKind.AMF, DetectorKind.A_GLRT)
    with pytest.raises(ValueError, match="listed twice"):
        pd_curves(twice, table, TINY)
    with pytest.raises(ValueError, match="listed twice"):
        pd_curves(twice, None, TINY)
    with pytest.raises(ValueError, match="listed twice"):
        rmse_curves((DetectorKind.A_GLRT, DetectorKind.A_GLRT), TINY)


@pytest.mark.parametrize("bad, match", [
    ({"n_antennas": 0}, "array size"),
    ({"pair": (3, 7)}, "n < m <= window_size"),
    ({"k_p": 2}, "n < m <= window_size"),
    ({"rho": -0.1}, "rho"),
    ({"noise_power": 0.0}, "noise_power"),
    ({"cnr_db": 4000.0}, "cnr_db"),
    ({"sinr_grid": (0.0, 5000.0)}, "sinr_db"),
    ({"sinr_grid": ()}, "at least one SINR"),
    ({"noise_power": 1e300, "sinr_grid": (3000.0,)}, "amplitudes"),
    ({"alpha_ratio": 1e308, "sinr_grid": (10.0,)}, "amplitudes"),
])
def test_config_is_checked_by_what_it_builds(bad, match):
    # The layout, the steering vectors and the covariance hold the rules of
    # the settings they are built from, and the SINR grid goes through the
    # dB-to-power rule of the amplitudes; the config builds them.
    with pytest.raises(ValueError, match=match):
        replace(TINY, **bad)
