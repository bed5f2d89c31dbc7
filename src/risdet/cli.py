"""Command-line entry point.

Parses a sectioned JSON config (scenario / model / detectors / experiment),
applies profile and dotted-key overrides, resolves the subcommand's flags
from the one table that declares them (_COMMANDS), runs one experiment, and
writes its CSV artifact plus a JSON run manifest next to it.  The manifest
embeds the resolved config and the resolved subcommand flags, so running
any subcommand with --config <manifest> reproduces its artifact byte for
byte; flags passed explicitly alongside --config still win.  Exit status 2
flags configuration or usage errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import datetime
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable

# risdet's parallelism is the --threads process pool, and its matrices are a
# few tens of columns wide, so a BLAS thread pool only costs CPU.  OpenBLAS
# reads this when numpy loads, which is next; forked workers inherit it.  A
# value the user has set stands.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS setting)

from . import __version__
from .detectors import (
    CGlrtConfig,
    DetectorKind,
    NonMonotonic,
    PROPOSED_KINDS,
)
from .geometry import (
    BinLayout,
    InfeasibleGeometry,
    WindowTooSmall,
    bin_layout,
    check_feasibility,
    compute_delays,
    path_distances,
    ris_angles,
    scenario_from_config,
)
from .montecarlo import (
    ALL_KINDS,
    CONFIG_DEFAULTS,
    CounterLayoutError,
    CurvePoint,
    ExperimentConfig,
    PROFILES,
    RmsePoint,
    calibrate_thresholds,
    cfar_sweeps,
    convergence_study,
    flatten_curves,
    pd_curves,
    require_pair_estimators,
    rmse_curves,
    sliding_window,
    window_starts,
    write_csv,
)
from .ris_design import (
    EchoPath,
    LinkBudget,
    crossover_rcs,
    dbsm,
    from_dbsm,
    min_size,
    received_power,
    tapering_comparison,
)
from .signal_model import NotPositiveDefinite

# The "model" and "experiment" sections hold these ExperimentConfig fields;
# the defaults of ExperimentConfig and CGlrtConfig fill in DEFAULT_CONFIG.
_MODEL_KEYS = ("n_antennas", "k_p", "k_s", "theta_r_deg", "theta_s_deg",
               "cnr_db", "rho", "noise_power", "alpha_ratio")
_EXPERIMENT_KEYS = ("pfa", "trials_cal", "trials_pd", "sinr_grid",
                    "master_seed", "threads")
_DEFAULTS = CONFIG_DEFAULTS

DEFAULT_CONFIG = {
    "scenario": {
        "radar_pos": [-30_000.0, 200.0],
        "ris_pos": [0.0, 0.0],
        "target_pos": [1_000.0, 500.0],
        "delta_r": 20.0,
        "fc": 3.0e9,
        "p_t": 10_000.0,
        "g_t_dbi": 37.0,
        "sigma_rtr": 0.01,
        "sigma_str": 1.0,
        "sigma_sts": 1.0,
    },
    "model": {**{key: getattr(_DEFAULTS, key) for key in _MODEL_KEYS},
              "pair": None},
    "detectors": {"epsilon": _DEFAULTS.cglrt.epsilon,
                  "h_max": _DEFAULTS.cglrt.h_max,
                  "baseline_cell": _DEFAULTS.baseline_cell},
    "experiment": {**{key: getattr(_DEFAULTS, key) for key in _EXPERIMENT_KEYS},
                   "sinr_grid": list(_DEFAULTS.sinr_grid)},
}


class ConfigError(Exception):
    """Bad configuration document, override, or flag combination."""


def _merge(base: dict, extra: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {where!r} must be an object")
            out[key] = _merge(out[key], value, where)
        else:
            out[key] = value
    return out


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(doc: dict, items: list[str]) -> dict:
    """Apply dotted-key overrides such as model.rho=0.5."""
    for item in items:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        section, key = parts
        doc = _merge(doc, {section: {key: _parse_override_value(raw)}})
    return doc


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(loaded, dict):
        raise ConfigError("config document must be a JSON object")
    return loaded


# ---------------------------------------------------------------------------
# Subcommand flags
# ---------------------------------------------------------------------------

def _parse_detectors(text: str) -> tuple[DetectorKind, ...]:
    try:
        kinds = tuple(DetectorKind.from_name(tok) for tok in str(text).split(","))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if len(set(kinds)) < len(kinds):
        raise ConfigError(f"a detector is listed twice in {text!r}")
    return kinds


def _detector_list(text) -> str:
    return ",".join(kind.value for kind in _parse_detectors(text))


def _pair_detector_list(text) -> str:
    return ",".join(kind.value for kind in
                    require_pair_estimators(_parse_detectors(text)))


def _float_list(text) -> str:
    return ",".join(repr(float(v)) for v in str(text).split(","))


def _pair_list(tokens) -> list[str]:
    pairs = []
    for token in tokens:
        n, m = str(token).split(",")
        pair = f"{int(n)},{int(m)}"
        if pair in pairs:
            raise ValueError(f"pair {pair} is listed twice")
        pairs.append(pair)
    return pairs


def _axis(text) -> str:
    if text not in _CFAR_GRIDS:
        raise ValueError(f"choose from {', '.join(_CFAR_GRIDS)}")
    return text


def _real(value) -> float:
    """A number: a finite int or float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a finite number")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def _whole(value) -> int:
    """An integer: an int, or a float with no fractional part."""
    if not _real(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _seed(value) -> int:
    """A master seed: an integer in [0, 2**64), one word of the Philox key."""
    seed = _whole(value)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{seed} is outside [0, 2**64)")
    return seed


def _count(value) -> int:
    count = _whole(value)
    if count < 1:
        raise ValueError("must be >= 1")
    return count


def _positive(value) -> float:
    x = _real(value)
    if not x > 0.0:
        raise ValueError("must be positive")
    return x


def _dbsm(value) -> float:
    """An RCS in dBsm whose value in square meters is finite and positive."""
    x = _real(value)
    from_dbsm(x)
    return x


_NUMBER_TYPES = (_real, _whole, _count, _positive, _dbsm)


@dataclasses.dataclass(frozen=True)
class Flag:
    """One subcommand option, --name with dashes for underscores.

    type turns the option's text, or the value a run manifest recorded for
    it, into the value the manifest records, and raises ValueError on a bad
    one.  A number flag (type in _NUMBER_TYPES) reads its text as a float
    first, so only a manifest record can be a bool or a string.  A None
    default leaves the value to the subcommand; its help then says what the
    subcommand uses.
    """

    name: str
    type: Callable
    default: object
    help: str
    repeat: bool = False


_CFAR_GRIDS = {"cnr": "-15,-10,-5,0,5,10,15,20,25,30",
               "rho": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"}
_ALL_DETECTORS = Flag("detectors", _detector_list,
                      ",".join(kind.value for kind in ALL_KINDS),
                      "comma-separated detector list")
_WINDOW_DETECTORS = Flag("detectors", _detector_list,
                         ",".join(kind.value for kind in PROPOSED_KINDS),
                         "comma-separated detector list")
_PAIR_DETECTORS = dataclasses.replace(
    _WINDOW_DETECTORS, type=_pair_detector_list,
    help="comma-separated list of window detectors")
_SINR = Flag("sinr", _real, 0.0, "SINR in dB")


def _resolve_flags(args: argparse.Namespace, recorded: dict) -> dict:
    """Each flag of the subcommand: its explicit value, else the manifest
    record, else its default; the result is what the new manifest records."""
    opts = {}
    for flag in _COMMANDS[args.subcommand][2]:
        raw = getattr(args, flag.name)
        if raw is None:
            raw = recorded.get(flag.name, flag.default)
        elif flag.type in _NUMBER_TYPES:
            with contextlib.suppress(ValueError):
                raw = float(raw)
        try:
            opts[flag.name] = (None if raw is None and flag.default is None
                               else flag.type(raw))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad --{flag.name.replace('_', '-')} "
                              f"{raw!r}: {err}") from err
    return opts


def load_run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Resolve the config document and the subcommand's flags."""
    doc = copy.deepcopy(DEFAULT_CONFIG)
    recorded: dict = {}
    if args.config is not None:
        loaded = _read_config_file(args.config)
        # A run manifest embeds the resolved config under "config" and the
        # resolved subcommand flags under "flags".
        if "config" in loaded and "scenario" not in loaded:
            recorded = dict(loaded.get("flags") or {})
            loaded = loaded["config"]
        doc = _merge(doc, loaded)
    if args.profile is not None:
        doc["experiment"].update(PROFILES[args.profile])
    doc = apply_overrides(doc, args.override)
    if args.seed is not None:
        doc["experiment"]["master_seed"] = args.seed
    if args.threads is not None:
        doc["experiment"]["threads"] = args.threads
    # Every subcommand's manifest records the seed and the scenario,
    # including those that never build an ExperimentConfig.
    _setting(_seed, "experiment.master_seed", doc["experiment"]["master_seed"])
    _link_budget(doc["scenario"])
    return doc, _resolve_flags(args, recorded)


def _setting(rule: Callable, where: str, value):
    """rule(value) for the config key `where`; a bad value is a ConfigError."""
    try:
        return rule(value)
    except ValueError as err:
        raise ConfigError(f"bad {where}: {err}") from err


def _link_budget(sc: dict) -> LinkBudget:
    """The scenario section as a link budget; every value must be a number
    or a list of numbers, and a bad one is a ConfigError."""
    for key, value in sc.items():
        for v in value if isinstance(value, list) else [value]:
            _setting(_real, f"scenario.{key}", v)
    try:
        return LinkBudget.from_geometry(
            scenario_from_config(sc), p_t=float(sc["p_t"]),
            g_t_dbi=float(sc["g_t_dbi"]), sigma_rtr=float(sc["sigma_rtr"]),
            sigma_str=float(sc["sigma_str"]), sigma_sts=float(sc["sigma_sts"]))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad scenario: {err}") from err


def _derive_pair(doc: dict) -> tuple[int, int]:
    explicit = doc["model"]["pair"]
    if explicit is not None:
        return tuple(_setting(_whole, "model.pair", i) for i in explicit)
    k_p = _setting(_whole, "model.k_p", doc["model"]["k_p"])
    geom = scenario_from_config(doc["scenario"])
    delays = compute_delays(*path_distances(geom))
    layout = bin_layout(delays, geom.range_resolution, k_p)
    return layout.n, layout.m


def _coerce(section: str, key: str, value, defaults=_DEFAULTS):
    """Cast a config value to the type of its default in `defaults`."""
    where = f"{section}.{key}"
    default = getattr(defaults, key)
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"bad {where}: {value!r} is not a list")
        return tuple(_setting(_real, where, v) for v in value)
    if isinstance(default, int):
        return _setting(_whole, where, value)
    return _setting(_real, where, value)


def experiment_config(doc: dict) -> ExperimentConfig:
    model, det, exp = doc["model"], doc["detectors"], doc["experiment"]
    try:
        return ExperimentConfig(
            **{key: _coerce("model", key, model[key]) for key in _MODEL_KEYS},
            **{key: _coerce("experiment", key, exp[key])
               for key in _EXPERIMENT_KEYS},
            pair=_derive_pair(doc),
            baseline_cell=_coerce("detectors", "baseline_cell",
                                  det["baseline_cell"]),
            cglrt=CGlrtConfig(**{key: _coerce("detectors", key, det[key],
                                              _DEFAULTS.cglrt)
                                 for key in ("epsilon", "h_max")}),
        )
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, (InfeasibleGeometry, WindowTooSmall)):
            raise
        raise ConfigError(f"bad experiment configuration: {err}") from err


# ---------------------------------------------------------------------------
# Subcommand bodies: each prints its summary and returns its CSV artifact as
# (file name, header, rows) with the flags the manifest records, or None.
# ---------------------------------------------------------------------------

def _point_table(point_type: type, curves) -> tuple[list[str], list[tuple]]:
    return ([f.name for f in dataclasses.fields(point_type)],
            [dataclasses.astuple(p) for p in flatten_curves(curves)])


def _cmd_calibrate(doc, opts):
    cfg = experiment_config(doc)
    kinds = _parse_detectors(opts["detectors"])
    table = calibrate_thresholds(cfg, kinds)
    for kind in kinds:
        print(f"{kind.value:>14s}  eta = {table[kind]:.6g}")
    if table.ascents is not None:
        print(f"c-glrt: {table.hmax_hits} of {table.ascents} ascents run "
              f"stopped at h_max = {cfg.cglrt.h_max}")
    rows = [(kind.value, table[kind], cfg.pfa, cfg.trials_cal, cfg.master_seed)
            for kind in kinds]
    return ("thresholds.csv", ("detector", "threshold", "pfa", "trials", "seed"),
            rows, opts)


def _cmd_pd_curve(doc, opts):
    cfg = experiment_config(doc)
    kinds = _parse_detectors(opts["detectors"])
    curves = pd_curves(kinds, None, cfg)
    for kind in kinds:
        top = curves[kind][-1]
        print(f"{kind.value:>14s}  P_d({top.x:+.0f} dB) = {top.estimate:.3f}")
    return ("pd_curve.csv", *_point_table(CurvePoint, curves), opts)


def _cmd_cfar_sweep(doc, opts):
    cfg = experiment_config(doc)
    kinds = _parse_detectors(opts["detectors"])
    axis = opts["axis"]
    values = [float(v) for v in (opts["values"] or _CFAR_GRIDS[axis]).split(",")]
    try:
        for v in values:
            cfg.covariance(**{"cnr_db" if axis == "cnr" else "rho": v})
    except ValueError as err:
        raise ConfigError(f"bad --values for axis {axis}: {err}") from err
    curves = cfar_sweeps(kinds, None, axis, values, cfg)
    worst = max(abs(p.estimate / cfg.pfa - 1.0)
                for pts in curves.values() for p in pts)
    print(f"axis={axis}  points={len(values)}  "
          f"max |P_fa/pfa - 1| = {worst:.3f}")
    return ("cfar_sweep.csv", *_point_table(CurvePoint, curves),
            {**opts, "values": ",".join(repr(v) for v in values)})


def _cmd_rmse(doc, opts):
    cfg = experiment_config(doc)
    kinds = _parse_detectors(opts["detectors"])
    curves = rmse_curves(kinds, cfg)
    for kind in kinds:
        last = curves[kind][-1]
        print(f"{kind.value:>14s}  rmse_n({last.sinr_db:+.0f} dB) = "
              f"{last.rmse_n:.3f}  rmse_m = {last.rmse_m:.3f}")
    return ("rmse.csv", *_point_table(RmsePoint, curves), opts)


def _cmd_convergence(doc, opts):
    cfg = experiment_config(doc)
    tokens = opts["pair"] or [f"{cfg.pair[0]},{cfg.pair[1]}"]
    pairs = [tuple(int(i) for i in token.split(",")) for token in tokens]
    try:
        for n, m in pairs:
            BinLayout(n, m, cfg.k_p)
    except ValueError as err:
        raise ConfigError(f"bad --pair: {err}") from err
    _setting(cfg.amplitudes, "--sinr", opts["sinr"])
    traces = convergence_study(cfg, pairs, sinr_db=opts["sinr"],
                               n_trials=opts["conv_trials"])
    for trace in traces:
        first = trace.first_below(cfg.cglrt.epsilon)
        print(f"pair {trace.pair}: mean gain < {cfg.cglrt.epsilon:g} at "
              f"h = {first}  (monotone fraction {trace.monotone_fraction:.4f})")
    rows = [(f"{trace.pair[0]}-{trace.pair[1]}", h, gain, trace.trials,
             cfg.master_seed)
            for trace in traces
            for h, gain in enumerate(trace.mean_gain, start=1)]
    return ("convergence.csv",
            ("pair", "iteration", "mean_gain", "trials", "seed"),
            rows, {**opts, "pair": tokens})


def _cmd_sliding_window(doc, opts):
    cfg = experiment_config(doc)
    kinds = _parse_detectors(opts["detectors"])
    _setting(lambda n_bins: window_starts(cfg.k_p, n_bins), "--n-bins",
             opts["n_bins"])
    _setting(cfg.amplitudes, "--sinr", opts["sinr"])
    curves = sliding_window(kinds, None, cfg, n_bins=opts["n_bins"],
                            sinr_db=opts["sinr"])
    for kind in kinds:
        drop = next((p.x for p in curves[kind] if p.estimate < 0.5), None)
        print(f"{kind.value:>14s}  first position with P_d < 0.5: {drop}")
    return ("sliding_window.csv", *_point_table(CurvePoint, curves), opts)


def _cmd_link_budget(doc, opts):
    lb = _link_budget(doc["scenario"])
    grid = np.linspace(opts["sigma_min_dbsm"], opts["sigma_max_dbsm"],
                       opts["sigma_points"])
    try:
        rows = [(s_db, *(received_power(path, lb, from_dbsm(s_db))
                         for path in EchoPath))
                for s_db in grid.tolist()]
    except OverflowError as err:
        raise ConfigError(
            f"bad dBsm grid {opts['sigma_min_dbsm']!r} to "
            f"{opts['sigma_max_dbsm']!r}: received power overflows") from err
    for mode in ("rstr", "rstsr", "total"):
        sigma = crossover_rcs(lb, mode)
        print(f"crossover ({mode:>5s} = direct): sigma_RIS = "
              f"{dbsm(sigma):.2f} dBsm")
    return ("link_budget.csv",
            ("sigma_ris_dbsm", "p_rtr_w", "p_rstr_w", "p_rstsr_w"), rows, opts)


def _cmd_ris_design(doc, opts):
    lam = scenario_from_config(doc["scenario"]).wavelength
    design = min_size(from_dbsm(opts["sigma_dbsm"]), lam)
    print(f"target RCS {opts['sigma_dbsm']:.1f} dBsm -> side "
          f"{design.side:.3f} m, {design.n_elements} elements/side, "
          f"HPBW {design.hpbw_deg:.2f} deg")
    l_grid = np.geomspace(opts["l_min_wl"] * lam, opts["l_max_wl"] * lam,
                          opts["l_points"])
    rows = [dataclasses.astuple(row)
            for row in tapering_comparison(lam, opts["phi0"], l_grid)]
    return ("ris_design.csv", ("side_m", "uniform_m2", "sinc_m2", "lfm_m2"),
            rows, opts)


def _cmd_scenario_check(doc, opts):
    k_p = _setting(_whole, "model.k_p", doc["model"]["k_p"])
    geom = scenario_from_config(doc["scenario"])
    d_rt, d_rs, d_st = path_distances(geom)
    delays = compute_delays(d_rt, d_rs, d_st)
    feasible = check_feasibility(d_rt, d_rs, d_st, geom.range_resolution)
    theta_si, theta_so = ris_angles(geom)
    print(f"d_RT = {d_rt:.2f} m   d_RS = {d_rs:.2f} m   d_ST = {d_st:.2f} m")
    print(f"tau_1 = {delays.tau1 * 1e6:.3f} us   "
          f"tau_2 = {delays.tau2 * 1e6:.3f} us   "
          f"tau_3 = {delays.tau3 * 1e6:.3f} us")
    print(f"surface angles: incidence {theta_si:.2f} deg from normal, "
          f"departure {theta_so:.2f} deg")
    print(f"separability: {'ok' if feasible else 'VIOLATED'} "
          f"(slack {d_rs + d_st - d_rt - 2 * geom.range_resolution:.2f} m)")
    layout = bin_layout(delays, geom.range_resolution, k_p)
    print(f"window cells: direct = 1, single bounce = {layout.n}, "
          f"double bounce = {layout.m}  (K_P = {layout.window_size})")
    return None


# Per subcommand: body, help line, and its flags.  scenario-check takes the
# detector list too, so that it accepts the same common flags as the
# experiments it sets up.
_COMMANDS = {
    "calibrate": (_cmd_calibrate, "calibrate detection thresholds under H0",
                  (_ALL_DETECTORS,)),
    "pd-curve": (_cmd_pd_curve, "detection probability versus SINR",
                 (_ALL_DETECTORS,)),
    "cfar-sweep": (_cmd_cfar_sweep, "false-alarm rate under clutter mismatch", (
        _WINDOW_DETECTORS,
        Flag("axis", _axis, "cnr", "sweep axis, cnr or rho"),
        Flag("values", _float_list, None,
             f"comma-separated axis values (default: {_CFAR_GRIDS['cnr']} "
             f"for cnr, {_CFAR_GRIDS['rho']} for rho)"),
    )),
    "rmse": (_cmd_rmse, "RMSE of the estimated cell pair versus SINR",
             (_PAIR_DETECTORS,)),
    "convergence": (_cmd_convergence, "cyclic-ascent mean gain trace", (
        Flag("pair", _pair_list, None,
             "cell pair n,m, repeatable (default: model.pair, else the "
             "pair the scenario geometry gives)", repeat=True),
        _SINR,
        Flag("conv_trials", _count, 1000, "trials per pair"),
    )),
    "sliding-window": (_cmd_sliding_window,
                       "P_d as the window slides over range bins", (
        _ALL_DETECTORS,
        Flag("n_bins", _whole, 20, "range bins to slide over, at least k_p"),
        _SINR,
    )),
    "link-budget": (_cmd_link_budget,
                    "received power per path versus surface RCS", (
        Flag("sigma_min_dbsm", _dbsm, 10.0, "grid start, dBsm"),
        Flag("sigma_max_dbsm", _dbsm, 80.0, "grid end, dBsm"),
        Flag("sigma_points", _count, 71, "grid size"),
    )),
    "ris-design": (_cmd_ris_design, "aperture sizing and tapering comparison", (
        Flag("sigma_dbsm", _dbsm, 55.0, "target RCS in dBsm"),
        Flag("phi0", _positive, 10.0, "beamwidth target, degrees"),
        Flag("l_min_wl", _positive, 1.0, "smallest side, wavelengths"),
        Flag("l_max_wl", _positive, 100.0, "largest side, wavelengths"),
        Flag("l_points", _count, 20, "grid size"),
    )),
    "scenario-check": (_cmd_scenario_check,
                       "distances, delays, angles, and cell layout",
                       (_ALL_DETECTORS,)),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (or a run manifest)")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--profile", choices=sorted(PROFILES),
                        help="trial-budget profile")
    common.add_argument("--out-dir", default=".", help="artifact directory")
    common.add_argument("--threads", type=int, help="worker processes")
    common.add_argument("override", nargs="*", metavar="section.key=value",
                        help="dotted config overrides")

    parser = argparse.ArgumentParser(
        prog="risdet",
        description="Surface-assisted radar detection experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        # Flags default to None here so that an explicit value can be told
        # apart from the manifest record and the table default.
        for flag in flags:
            default = "" if flag.default is None else f" (default: {flag.default})"
            p.add_argument(f"--{flag.name.replace('_', '-')}",
                           action="append" if flag.repeat else "store",
                           help=flag.help + default)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse the command line, taking section.key=value tokens as overrides
    wherever they stand.

    The override positional takes one unbroken run of tokens, so a flag
    between two overrides leaves the later ones to parse_known_args; those
    join the overrides in command-line order.  Any other stray token exits
    2 as an unrecognized argument.
    """
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    stray = [tok for tok in rest if tok.startswith("-") or "=" not in tok]
    if stray:
        parser.error(f"unrecognized arguments: {' '.join(stray)}")
    args.override += rest
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        doc, opts = load_run(args)
        artifact = _COMMANDS[args.subcommand][0](doc, opts)
    except (ConfigError, CounterLayoutError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NotPositiveDefinite, NonMonotonic, InfeasibleGeometry,
            WindowTooSmall, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 3
    if artifact is None:
        return 0
    csv_name, header, rows, flags = artifact
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / csv_name
    manifest_path = out_dir / f"{args.subcommand.replace('-', '_')}_manifest.json"
    write_csv(csv_path, header, rows)
    manifest = {
        "subcommand": args.subcommand,
        "config": doc,
        "flags": flags,
        "master_seed": int(doc["experiment"]["master_seed"]),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [str(csv_path)],
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for path in (csv_path, manifest_path):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
