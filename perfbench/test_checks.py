"""Tests of the benchmark's output checks on small synthetic inputs.

    python3 -m pytest perfbench/test_checks.py
"""

import math

import numpy as np
import pytest

import checks

PFA, TRIALS, SEED, K_S, N = 1e-3, 12288, 7, 24, 16
SLACK = 1e-8
MODEL = {"n_antennas": N, "k_s": K_S, "theta_r_deg": 0.5, "cnr_db": 25.0,
         "rho": 0.9, "noise_power": 1.0}


def kelly_eta(pfa: float) -> float:
    """Exact inverse of Kelly's law (1 - eta)^(K_S - N + 1) = pfa."""
    return 1.0 - pfa ** (1.0 / (K_S - N + 1))


def threshold_rows(**eta):
    return [{"detector": name, "threshold": repr(value), "pfa": repr(PFA),
             "trials": str(TRIALS), "seed": str(SEED)}
            for name, value in eta.items()]


def check(rows):
    return checks.check_thresholds(rows, [r["detector"] for r in rows], PFA,
                                   TRIALS, SEED, K_S, N, SLACK)


def test_exact_kelly_threshold_passes():
    assert check(threshold_rows(**{"c-glrt": 5.0, "a-glrt": 5.0,
                                   "kelly": kelly_eta(PFA)})) == []


@pytest.mark.parametrize("scale", [0.8, 1.2])
def test_wrong_kelly_threshold_is_rejected(scale):
    errors = check(threshold_rows(kelly=scale * kelly_eta(PFA)))
    assert len(errors) == 1 and "kelly" in errors[0]


def test_kelly_threshold_at_three_times_the_pfa_is_rejected():
    assert check(threshold_rows(kelly=kelly_eta(3 * PFA)))


def test_cglrt_threshold_below_aglrt_is_rejected():
    errors = check(threshold_rows(**{"c-glrt": 4.99, "a-glrt": 5.0}))
    assert len(errors) == 1 and "c-glrt" in errors[0]


def test_threshold_recipe_mismatch_is_rejected():
    rows = threshold_rows(kelly=kelly_eta(PFA))
    rows[0]["seed"] = str(SEED + 1)
    assert check(rows)


def trace_rows(gains_by_pair):
    return [{"pair": pair, "iteration": str(h), "mean_gain": repr(g),
             "trials": "100", "seed": str(SEED)}
            for pair, gains in gains_by_pair.items()
            for h, g in enumerate(gains, start=1)]


def check_trace(gains_by_pair, fractions):
    return checks.check_convergence(trace_rows(gains_by_pair),
                                    list(gains_by_pair), h_max=20, trials=100,
                                    seed=SEED, fractions=fractions)


GOOD_TRACE = [0.1 * 10.0 ** -h for h in range(20)]


def test_converging_monotone_trace_passes():
    assert check_trace({"3-6": GOOD_TRACE, "2-5": GOOD_TRACE},
                       {"3-6": 1.0, "2-5": 1.0}) == []


def test_non_monotone_trace_is_rejected():
    errors = check_trace({"3-6": GOOD_TRACE}, {"3-6": 0.9997})
    assert len(errors) == 1 and "monotone" in errors[0]


def test_trace_that_converges_late_is_rejected():
    slow = [1e-3] * 10 + [1e-6] * 10
    errors = check_trace({"3-6": slow}, {"3-6": 1.0})
    assert len(errors) == 1 and "iteration 11" in errors[0]


def test_trace_with_missing_rows_is_rejected():
    assert check_trace({"3-6": GOOD_TRACE[:19]}, {"3-6": 1.0})


def test_descending_update_log_dets_pass():
    lds = np.array([[0.0, -0.1, -0.15, -0.15], [0.0, -0.2, -0.2, -0.2]])
    assert checks.check_update_steps(lds, 10, 1e-8) == []


def test_one_update_that_raises_the_log_det_is_rejected():
    # One update in 6 raises the log det: the printed fraction would read
    # 0.8333, and in a long trace it would round to 1.0000.
    lds = np.array([[0.0, -0.1, -0.15, -0.15], [0.0, -0.2, -0.19, -0.2]])
    errors = checks.check_update_steps(lds, 10, 1e-8)
    assert len(errors) == 1 and "1 of 6" in errors[0] and "trial 1" in errors[0]


def test_monotone_fractions_are_read_from_the_command_output():
    out = ("pair (3, 6): mean gain < 1e-05 at h = 4  (monotone fraction 1.0000)\n"
           "pair (2, 5): mean gain < 1e-05 at h = 4  (monotone fraction 0.9990)\n")
    assert checks.monotone_fractions(out) == {"3-6": 1.0, "2-5": 0.999}


def test_pd_inside_band_passes():
    assert checks.pd_band_errors("kelly", [0.0, 6.0], [0.30, 1.0], 1000,
                                 [1240, 4000], 4000) == []


def test_pd_outside_band_is_rejected():
    errors = checks.pd_band_errors("kelly", [0.0, 6.0], [0.40, 1.0], 1000,
                                   [1240, 4000], 4000)
    assert len(errors) == 1 and "+0 dB" in errors[0]


def test_pd_curve_without_detection_at_the_top_is_rejected():
    grid = [0.0, 24.0]
    rows = [{"detector": "kelly", "x": repr(x), "estimate": repr(p),
             "stderr": "0.0", "trials": "1000", "seed": str(SEED)}
            for x, p in zip(grid, [0.31, 0.98])]
    errors = checks.check_pd_curve(rows, ["kelly"], grid, 1000, SEED,
                                   {"kelly": [1240, 3925]}, 4000)
    assert len(errors) == 1 and "below 0.99" in errors[0]


def test_reference_generator_meets_kelly_law_under_h0():
    # At vanishing SINR the reference Kelly statistic must false-alarm at the
    # closed-form rate; this checks the generator the P_d check relies on.
    pfa, trials = 0.1, 5000
    hits = checks.reference_pd(MODEL, [-300.0], {"kelly": kelly_eta(pfa),
                                                 "amf": math.inf},
                               trials, SEED)
    sd = math.sqrt(pfa * (1 - pfa) * trials)
    assert abs(hits["kelly"][0] - pfa * trials) < 5 * sd
    assert hits["amf"] == [0]


def test_reference_generator_detects_at_high_sinr():
    hits = checks.reference_pd(MODEL, [30.0], {"kelly": kelly_eta(1e-3),
                                               "amf": 20.0}, 500, SEED)
    assert hits == {"kelly": [500], "amf": [500]}


def test_kelly_interval_covers_the_nominal_rate():
    lo, hi = checks.kelly_interval(PFA, TRIALS)
    assert lo < PFA < hi
    assert np.isclose(checks.kelly_pfa(kelly_eta(PFA), K_S, N), PFA)
