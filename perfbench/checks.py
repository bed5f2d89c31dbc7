"""Output checks for the benchmark's workloads.

Every check here is made apart from risdet: from a closed-form law, from a
property the method must have, or from a plain-numpy Monte Carlo with its
own generator.  Nothing in this module imports the package, so the checks
stay valid whatever the package computes.  Each check returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np
from scipy.stats import beta

# Two-sided tail mass of the order-statistic interval used for the Kelly
# threshold law: a correct program fails it once in 1e5 checks.  At pfa
# 1e-3 and 12288 trials the interval is [2.2e-4, 2.9e-3].
KELLY_TAIL = 1e-5

# Half-width of the binomial agreement band for P_d, in standard deviations
# of the difference of two independent estimates.
PD_BAND_SIGMAS = 5.0

# Least P_d of every detector at the top of the SINR grid.  Kelly's P_d at
# +24 dB is below 1: a rare training set costs it most of the SINR, so one
# miss in 1000 trials happens on some seeds.
TOP_PD_MIN = 0.99

# Paper claim checked on the convergence trace (acceptance criterion 6).
CONVERGENCE_EPSILON = 1e-5
CONVERGENCE_BY_ITERATION = 10


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def kelly_pfa(eta: float, k_s: int, n: int) -> float:
    """Kelly's closed-form false-alarm law: P_fa = (1 - eta)^(K_S - N + 1)."""
    return (1.0 - eta) ** (k_s - n + 1)


def kelly_interval(pfa: float, trials: int) -> tuple[float, float]:
    """Range of the true exceedance probability of the calibrated threshold.

    The threshold is the order statistic at 1-based index ceil((1-pfa) T),
    so T - idx trials exceed it and its true exceedance probability is
    Beta(T - idx + 1, idx) distributed, whatever the statistic.
    """
    idx = math.ceil((1.0 - pfa) * trials)
    dist = beta(trials - idx + 1, idx)
    return float(dist.ppf(KELLY_TAIL / 2)), float(dist.ppf(1.0 - KELLY_TAIL / 2))


def check_thresholds(rows: list[dict[str, str]], detectors: list[str],
                     pfa: float, trials: int, seed: int, k_s: int, n: int,
                     slack: float) -> list[str]:
    """Thresholds CSV: one finite row per detector, Kelly's law, c >= a."""
    errors = []
    got = [row["detector"] for row in rows]
    if got != detectors:
        return [f"thresholds.csv lists {got}, expected {detectors}"]
    eta = {}
    for row in rows:
        value = float(row["threshold"])
        if not math.isfinite(value):
            errors.append(f"{row['detector']}: threshold {value} not finite")
        if (float(row["pfa"]) != pfa or int(row["trials"]) != trials
                or int(row["seed"]) != seed):
            errors.append(f"{row['detector']}: recipe {row} does not match "
                          f"pfa={pfa} trials={trials} seed={seed}")
        eta[row["detector"]] = value
    if "kelly" in eta:
        lo, hi = kelly_interval(pfa, trials)
        p = kelly_pfa(eta["kelly"], k_s, n)
        if not lo <= p <= hi:
            errors.append(f"kelly threshold {eta['kelly']:.6g} has closed-form "
                          f"P_fa {p:.3e}, outside [{lo:.3e}, {hi:.3e}]")
    if "c-glrt" in eta and "a-glrt" in eta:
        # The ascent starts at the a-glrt amplitudes and never descends, so
        # every c-glrt statistic, and so its threshold, is at least a-glrt's.
        if eta["c-glrt"] < eta["a-glrt"] * (1.0 - slack):
            errors.append(f"c-glrt threshold {eta['c-glrt']:.9g} below a-glrt "
                          f"threshold {eta['a-glrt']:.9g}")
    return errors


# ---------------------------------------------------------------------------
# pd-curve
# ---------------------------------------------------------------------------

def covariance(n: int, cnr_db: float, rho: float, noise: float) -> np.ndarray:
    """M = noise I + clutter rho^|i-j|, clutter = noise 10^(cnr/10)."""
    idx = np.arange(n)
    m = noise * 10.0 ** (cnr_db / 10.0) * rho ** np.abs(idx[:, None] - idx)
    return (m + noise * np.eye(n)).astype(np.complex128)


def steering(theta_deg: float, n: int) -> np.ndarray:
    return np.exp(1j * np.pi * np.arange(n) * np.sin(np.radians(theta_deg)))


def reference_pd(model: dict, sinr_grid: list[float], eta: dict[str, float],
                 trials: int, seed: int) -> dict[str, list[int]]:
    """Detections of Kelly and the AMF per SINR, from explicit inverses.

    The cell under test carries alpha v_R with |alpha|^2 v_R^H M^-1 v_R equal
    to the SINR; K_S target-free training vectors share the covariance M.
    Returns detection counts out of `trials` per grid point.
    """
    n, k_s = int(model["n_antennas"]), int(model["k_s"])
    m = covariance(n, float(model["cnr_db"]), float(model["rho"]),
                   float(model["noise_power"]))
    v = steering(float(model["theta_r_deg"]), n)
    lower = np.linalg.cholesky(m)
    v_m_v = np.real(v.conj() @ np.linalg.inv(m) @ v)
    rng = np.random.default_rng([seed, 0x9D1])
    hits: dict[str, list[int]] = {"kelly": [], "amf": []}
    for sinr in sinr_grid:
        alpha = math.sqrt(10.0 ** (sinr / 10.0) / v_m_v)
        white = (rng.standard_normal((trials, n, k_s + 1))
                 + 1j * rng.standard_normal((trials, n, k_s + 1))) / math.sqrt(2)
        d = lower @ white
        z = d[:, :, 0] + alpha * v
        r = d[:, :, 1:]
        s_inv = np.linalg.inv(r @ np.conj(np.swapaxes(r, 1, 2)))
        s_z = np.einsum("tij,tj->ti", s_inv, z)
        s_v = s_inv @ v
        amf = np.abs(s_z @ v.conj()) ** 2 / np.real(s_v @ v.conj())
        kelly = amf / (1.0 + np.real(np.einsum("ti,ti->t", z.conj(), s_z)))
        for name, stat in (("kelly", kelly), ("amf", amf)):
            hits[name].append(int(np.count_nonzero(stat > eta[name])))
    return hits


def pd_band_errors(name: str, x: list[float], estimate: list[float],
                   trials: int, ref_hits: list[int], ref_trials: int) -> list[str]:
    """Points where a P_d curve leaves the binomial band of a reference.

    The band is PD_BAND_SIGMAS standard deviations of the difference of two
    independent binomial estimates, at the pooled rate with one pseudo-count
    on each side so that rates of 0 and 1 still get a nonzero width.
    """
    errors = []
    for sinr, p, hits in zip(x, estimate, ref_hits):
        pooled = (p * trials + hits + 1.0) / (trials + ref_trials + 2.0)
        sd = math.sqrt(pooled * (1.0 - pooled) * (1.0 / trials + 1.0 / ref_trials))
        q = hits / ref_trials
        if abs(p - q) > PD_BAND_SIGMAS * sd:
            errors.append(f"{name} P_d({sinr:+g} dB) = {p:.4f}, reference "
                          f"{q:.4f}, band +/-{PD_BAND_SIGMAS * sd:.4f}")
    return errors


def check_pd_curve(rows: list[dict[str, str]], detectors: list[str],
                   sinr_grid: list[float], trials: int, seed: int,
                   ref_hits: dict[str, list[int]], ref_trials: int) -> list[str]:
    """P_d CSV: full grid per detector, P_d near 1 at the top, baselines in band."""
    errors = []
    curves: dict[str, list[dict[str, str]]] = {}
    for row in rows:
        curves.setdefault(row["detector"], []).append(row)
    if list(curves) != detectors:
        return [f"pd_curve.csv lists {list(curves)}, expected {detectors}"]
    for name, pts in curves.items():
        x = [float(p["x"]) for p in pts]
        est = [float(p["estimate"]) for p in pts]
        if x != sinr_grid:
            errors.append(f"{name}: grid {x} is not {sinr_grid}")
            continue
        if any(int(p["trials"]) != trials or int(p["seed"]) != seed for p in pts):
            errors.append(f"{name}: rows do not all carry trials={trials} seed={seed}")
        if est[-1] < TOP_PD_MIN:
            errors.append(f"{name}: P_d({x[-1]:+g} dB) = {est[-1]} is below "
                          f"{TOP_PD_MIN}")
        if name in ref_hits:
            errors += pd_band_errors(name, x, est, trials, ref_hits[name], ref_trials)
    return errors


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

_MONOTONE_LINE = re.compile(
    r"pair \((\d+), (\d+)\): .*\(monotone fraction ([0-9.]+)\)")


def monotone_fractions(stdout: str) -> dict[str, float]:
    """Per-pair monotone fraction as the convergence command prints it."""
    return {f"{n}-{m}": float(frac)
            for n, m, frac in _MONOTONE_LINE.findall(stdout)}


def check_convergence(rows: list[dict[str, str]], pairs: list[str],
                      h_max: int, trials: int, seed: int,
                      fractions: dict[str, float]) -> list[str]:
    """Gain trace: pairs x h_max rows, monotone ascent, early convergence.

    The command prints the monotone fraction to 4 decimals, over
    trials x 3 h_max coordinate updates per pair, so a few decreasing
    updates still read 1.0000 here; check_update_steps catches each one.
    """
    errors = []
    if len(rows) != len(pairs) * h_max:
        errors.append(f"convergence.csv has {len(rows)} rows, expected "
                      f"{len(pairs)} x {h_max}")
    traces: dict[str, list[dict[str, str]]] = {}
    for row in rows:
        traces.setdefault(row["pair"], []).append(row)
    if list(traces) != pairs:
        return errors + [f"convergence.csv pairs {list(traces)}, expected {pairs}"]
    for pair, pts in traces.items():
        if [int(p["iteration"]) for p in pts] != list(range(1, h_max + 1)):
            errors.append(f"pair {pair}: iterations are not 1..{h_max}")
        if any(int(p["trials"]) != trials or int(p["seed"]) != seed for p in pts):
            errors.append(f"pair {pair}: rows do not all carry trials={trials} seed={seed}")
        gains = [float(p["mean_gain"]) for p in pts]
        first = next((i for i, g in enumerate(gains, start=1) if g < CONVERGENCE_EPSILON), None)
        if first is None or first > CONVERGENCE_BY_ITERATION:
            errors.append(f"pair {pair}: mean gain first below "
                          f"{CONVERGENCE_EPSILON:g} at iteration {first}, "
                          f"not by {CONVERGENCE_BY_ITERATION}")
        if fractions.get(pair) != 1.0:
            errors.append(f"pair {pair}: monotone fraction "
                          f"{fractions.get(pair)} is not 1.0")
    return errors


def check_update_steps(update_lds: np.ndarray, k_tot: int,
                       slack: float) -> list[str]:
    """Every coordinate update of a gain trace must not lower the likelihood.

    update_lds holds the log det after each update, one row per trial; the
    likelihood is det^-k_tot, so an update's relative gain is
    exp(-k_tot * step) - 1 and must be at least -slack.
    """
    step_gain = np.expm1(-k_tot * np.diff(update_lds, axis=1))
    bad = np.argwhere(step_gain < -slack)
    if not len(bad):
        return []
    trial, step = bad[0]
    return [f"{len(bad)} of {step_gain.size} coordinate updates lower the "
            f"likelihood; first trial {trial}, update {step + 1}, relative "
            f"gain {step_gain[trial, step]:.3e}"]
