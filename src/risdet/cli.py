"""Command-line entry point.

Parses a sectioned JSON config (scenario / model / detectors / experiment),
applies profile and dotted-key overrides, dispatches one experiment, and
writes CSV artifacts plus a JSON run manifest next to them.  The manifest
embeds the resolved config and the resolved subcommand flags, so running
any subcommand with --config <manifest> reproduces its artifacts byte for
byte; flags passed explicitly alongside --config still win.  Exit status 2
flags configuration or usage errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .detectors import (
    CGlrtConfig,
    DetectorKind,
    NonMonotonic,
    PROPOSED_KINDS,
)
from .geometry import (
    InfeasibleGeometry,
    WindowTooSmall,
    bin_layout,
    check_feasibility,
    compute_delays,
    path_distances,
    ris_angles,
    scenario_from_config,
)
from .hermitian_numerics import NotPositiveDefinite
from .montecarlo import (
    ALL_KINDS,
    CurvePoint,
    ExperimentConfig,
    PROFILES,
    RmsePoint,
    calibrate_thresholds,
    cfar_sweeps,
    convergence_study,
    flatten_curves,
    pd_curves,
    rmse_curves,
    sliding_window,
    write_points_csv,
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

THREADS_ENV_VAR = "RISDET_THREADS"

# The "model" and "experiment" sections hold these ExperimentConfig fields;
# the defaults of ExperimentConfig and CGlrtConfig fill in DEFAULT_CONFIG.
_MODEL_KEYS = ("n_antennas", "k_p", "k_s", "theta_r_deg", "theta_s_deg",
               "cnr_db", "rho", "noise_power", "alpha_ratio")
_EXPERIMENT_KEYS = ("pfa", "trials_cal", "trials_pd", "sinr_grid",
                    "master_seed", "threads")
_DEFAULTS = ExperimentConfig()

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
        if isinstance(out[key], dict) and isinstance(value, dict):
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
    out = copy.deepcopy(doc)
    for item in items:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        section, key = parts
        if section not in out:
            raise ConfigError(f"unknown config section {section!r}")
        if key not in out[section]:
            raise ConfigError(f"unknown config key {dotted!r}")
        out[section][key] = _parse_override_value(raw)
    return out


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


def load_run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Resolve the config document plus any manifest-recorded run flags."""
    doc = copy.deepcopy(DEFAULT_CONFIG)
    flags: dict = {}
    if args.config is not None:
        loaded = _read_config_file(args.config)
        # A run manifest embeds the resolved config under "config" and the
        # resolved subcommand flags under "flags".
        if "config" in loaded and "scenario" not in loaded:
            flags = dict(loaded.get("flags") or {})
            loaded = loaded["config"]
        doc = _merge(doc, loaded)
    if args.profile is not None:
        profile_cfg = PROFILES[args.profile]()
        doc["experiment"]["pfa"] = profile_cfg.pfa
        doc["experiment"]["trials_cal"] = profile_cfg.trials_cal
        doc["experiment"]["trials_pd"] = profile_cfg.trials_pd
    doc = apply_overrides(doc, args.override)
    if args.seed is not None:
        doc["experiment"]["master_seed"] = args.seed
    threads = args.threads
    if threads is None and os.environ.get(THREADS_ENV_VAR):
        try:
            threads = int(os.environ[THREADS_ENV_VAR])
        except ValueError as err:
            raise ConfigError(
                f"{THREADS_ENV_VAR} must be an integer: {err}") from err
    if threads is not None:
        doc["experiment"]["threads"] = threads
    return doc, flags


def _derive_pair(doc: dict) -> tuple[int, int]:
    explicit = doc["model"]["pair"]
    if explicit is not None:
        return int(explicit[0]), int(explicit[1])
    geom = scenario_from_config(doc["scenario"])
    delays = compute_delays(*path_distances(geom))
    layout = bin_layout(delays, geom.range_resolution, doc["model"]["k_p"])
    return layout.n, layout.m


def _coerce(key: str, value):
    """Cast a config value to the type of its ExperimentConfig default."""
    default = getattr(_DEFAULTS, key)
    if isinstance(default, tuple):
        return tuple(float(v) for v in value)
    return type(default)(value)


def experiment_config(doc: dict) -> ExperimentConfig:
    model, det, exp = doc["model"], doc["detectors"], doc["experiment"]
    try:
        return ExperimentConfig(
            **{key: _coerce(key, model[key]) for key in _MODEL_KEYS},
            **{key: _coerce(key, exp[key]) for key in _EXPERIMENT_KEYS},
            pair=_derive_pair(doc),
            baseline_cell=int(det["baseline_cell"]),
            cglrt=CGlrtConfig(epsilon=float(det["epsilon"]),
                              h_max=int(det["h_max"])),
        )
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, (InfeasibleGeometry, WindowTooSmall)):
            raise
        raise ConfigError(f"bad experiment configuration: {err}") from err


def _parse_detectors(arg: str | None, default: tuple[DetectorKind, ...]) -> tuple[DetectorKind, ...]:
    if arg is None:
        return default
    try:
        kinds = tuple(DetectorKind.from_name(tok) for tok in arg.split(","))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if not kinds:
        raise ConfigError("empty detector list")
    return kinds


def _run_flag(args: argparse.Namespace, flags: dict, name: str, default):
    """Flag precedence: explicit CLI value, then manifest record, then default."""
    value = getattr(args, name)
    if value is not None:
        return value
    return flags.get(name, default)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every artifact."""

    subcommand: str
    config: dict
    flags: dict
    master_seed: int
    version: str
    timestamp: str
    outputs: tuple[str, ...]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _emit_manifest(subcommand: str, doc: dict, out_dir: Path,
                   outputs: list[Path], flags: dict) -> Path:
    manifest = RunManifest(
        subcommand=subcommand,
        config=doc,
        flags=flags,
        master_seed=int(doc["experiment"]["master_seed"]),
        version=__version__,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs=tuple(str(p) for p in outputs),
    )
    path = out_dir / f"{subcommand.replace('-', '_')}_manifest.json"
    manifest.write(path)
    return path


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _detector_flags(kinds: tuple[DetectorKind, ...]) -> dict:
    return {"detectors": ",".join(kind.value for kind in kinds)}


def _cmd_calibrate(args, doc, flags):
    cfg = experiment_config(doc)
    kinds = _parse_detectors(_run_flag(args, flags, "detectors", None),
                             ALL_KINDS)
    table = calibrate_thresholds(cfg, kinds)
    out = _out_dir(args) / "thresholds.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("detector", "threshold", "pfa", "trials", "seed"))
        for kind in kinds:
            writer.writerow([kind.value, repr(table[kind]), repr(cfg.pfa),
                             cfg.trials_cal, cfg.master_seed])
    for kind in kinds:
        print(f"{kind.value:>14s}  eta = {table[kind]:.6g}")
    if table.hmax_hits is not None:
        print(f"c-glrt: {table.hmax_hits} of {table.trials} trials stopped "
              f"at h_max = {cfg.cglrt.h_max}")
    return [out], _detector_flags(kinds)


def _require_sinr_grid(cfg: ExperimentConfig) -> None:
    if not cfg.sinr_grid:
        raise ConfigError("experiment.sinr_grid must hold at least one SINR")


def _cmd_pd_curve(args, doc, flags):
    cfg = experiment_config(doc)
    _require_sinr_grid(cfg)
    kinds = _parse_detectors(_run_flag(args, flags, "detectors", None),
                             ALL_KINDS)
    table = calibrate_thresholds(cfg, kinds)
    curves = pd_curves(kinds, table, cfg)
    out = _out_dir(args) / "pd_curve.csv"
    write_points_csv(out, CurvePoint, flatten_curves(curves))
    for kind in kinds:
        top = curves[kind][-1]
        print(f"{kind.value:>14s}  P_d({top.x:+.0f} dB) = {top.estimate:.3f}")
    return [out], _detector_flags(kinds)


def _cmd_cfar_sweep(args, doc, flags):
    cfg = experiment_config(doc)
    kinds = _parse_detectors(_run_flag(args, flags, "detectors", None),
                             PROPOSED_KINDS)
    axis = _run_flag(args, flags, "axis", "cnr")
    if axis not in ("cnr", "rho"):
        raise ConfigError(f"axis must be cnr or rho, got {axis!r}")
    values_arg = _run_flag(args, flags, "values", None)
    if values_arg is not None:
        try:
            values = [float(v) for v in str(values_arg).split(",")]
        except ValueError as err:
            raise ConfigError(f"bad --values {values_arg!r}: {err}") from err
    elif axis == "cnr":
        values = [float(v) for v in range(-15, 31, 5)]
    else:
        values = [round(0.1 * k, 1) for k in range(1, 10)]
    table = calibrate_thresholds(cfg, kinds)
    curves = cfar_sweeps(kinds, table, axis, values, cfg)
    out = _out_dir(args) / "cfar_sweep.csv"
    write_points_csv(out, CurvePoint, flatten_curves(curves))
    worst = max(abs(p.estimate / cfg.pfa - 1.0)
                for pts in curves.values() for p in pts)
    print(f"axis={axis}  points={len(values)}  "
          f"max |P_fa/pfa - 1| = {worst:.3f}")
    return [out], {**_detector_flags(kinds), "axis": axis,
                   "values": ",".join(repr(v) for v in values)}


def _cmd_rmse(args, doc, flags):
    cfg = experiment_config(doc)
    _require_sinr_grid(cfg)
    kinds = _parse_detectors(_run_flag(args, flags, "detectors", None),
                             PROPOSED_KINDS)
    curves = rmse_curves(kinds, cfg)
    out = _out_dir(args) / "rmse.csv"
    write_points_csv(out, RmsePoint, flatten_curves(curves))
    for kind in kinds:
        last = curves[kind][-1]
        print(f"{kind.value:>14s}  rmse_n({last.sinr_db:+.0f} dB) = "
              f"{last.rmse_n:.3f}  rmse_m = {last.rmse_m:.3f}")
    return [out], _detector_flags(kinds)


def _cmd_convergence(args, doc, flags):
    cfg = experiment_config(doc)
    pair_tokens = _run_flag(args, flags, "pair", None)
    if pair_tokens:
        pairs = []
        for token in pair_tokens:
            try:
                n_str, m_str = str(token).split(",")
                pairs.append((int(n_str), int(m_str)))
            except ValueError as err:
                raise ConfigError(
                    f"bad pair {token!r}: expected n,m") from err
    else:
        pairs = [cfg.pair]
    for n, m in pairs:
        if not 1 < n < m <= cfg.k_p:
            raise ConfigError(f"pair {n},{m} must satisfy "
                              f"1 < n < m <= k_p = {cfg.k_p}")
    sinr = float(_run_flag(args, flags, "sinr", 0.0))
    conv_trials = int(_run_flag(args, flags, "conv_trials", 1000))
    if conv_trials < 1:
        raise ConfigError(f"conv_trials must be >= 1, got {conv_trials}")
    traces = convergence_study(cfg, pairs, sinr_db=sinr,
                               n_trials=conv_trials)
    out = _out_dir(args) / "convergence.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("pair", "iteration", "mean_gain", "trials", "seed"))
        for trace in traces:
            for h, gain in enumerate(trace.mean_gain, start=1):
                writer.writerow([f"{trace.pair[0]}-{trace.pair[1]}", h,
                                 repr(float(gain)), trace.trials,
                                 cfg.master_seed])
    for trace in traces:
        first = trace.first_below(cfg.cglrt.epsilon)
        print(f"pair {trace.pair}: mean gain < {cfg.cglrt.epsilon:g} at "
              f"h = {first}  (monotone fraction {trace.monotone_fraction:.4f})")
    return [out], {"pair": [f"{n},{m}" for n, m in pairs],
                   "sinr": sinr, "conv_trials": conv_trials}


def _cmd_sliding_window(args, doc, flags):
    cfg = experiment_config(doc)
    kinds = _parse_detectors(_run_flag(args, flags, "detectors", None),
                             ALL_KINDS)
    n_bins = int(_run_flag(args, flags, "n_bins", 20))
    if n_bins < cfg.k_p:
        raise ConfigError(f"n_bins must be >= k_p = {cfg.k_p}, got {n_bins}")
    sinr = float(_run_flag(args, flags, "sinr", 0.0))
    table = calibrate_thresholds(cfg, kinds)
    curves = sliding_window(kinds, table, cfg, n_bins=n_bins, sinr_db=sinr)
    out = _out_dir(args) / "sliding_window.csv"
    write_points_csv(out, CurvePoint, flatten_curves(curves))
    for kind in kinds:
        drop = next((p.x for p in curves[kind] if p.estimate < 0.5), None)
        print(f"{kind.value:>14s}  first position with P_d < 0.5: {drop}")
    return [out], {**_detector_flags(kinds), "n_bins": n_bins, "sinr": sinr}


def _link_budget_from_doc(doc: dict) -> LinkBudget:
    sc = doc["scenario"]
    geom = scenario_from_config(sc)
    return LinkBudget.from_geometry(
        geom, p_t=float(sc["p_t"]), g_t_dbi=float(sc["g_t_dbi"]),
        sigma_rtr=float(sc["sigma_rtr"]), sigma_str=float(sc["sigma_str"]),
        sigma_sts=float(sc["sigma_sts"]))


def _cmd_link_budget(args, doc, flags):
    lb = _link_budget_from_doc(doc)
    sigma_min = float(_run_flag(args, flags, "sigma_min_dbsm", 10.0))
    sigma_max = float(_run_flag(args, flags, "sigma_max_dbsm", 80.0))
    sigma_points = int(_run_flag(args, flags, "sigma_points", 71))
    grid = np.linspace(sigma_min, sigma_max, sigma_points)
    out = _out_dir(args) / "link_budget.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sigma_ris_dbsm", "p_rtr_w", "p_rstr_w", "p_rstsr_w"))
        for s_db in grid:
            sigma = from_dbsm(float(s_db))
            writer.writerow([
                repr(float(s_db)),
                repr(received_power(EchoPath.RTR, lb, sigma)),
                repr(received_power(EchoPath.RSTR, lb, sigma)),
                repr(received_power(EchoPath.RSTSR, lb, sigma)),
            ])
    for mode in ("rstr", "rstsr", "total"):
        sigma = crossover_rcs(lb, mode)
        print(f"crossover ({mode:>5s} = direct): sigma_RIS = "
              f"{dbsm(sigma):.2f} dBsm")
    return [out], {"sigma_min_dbsm": sigma_min, "sigma_max_dbsm": sigma_max,
                   "sigma_points": sigma_points}


def _cmd_ris_design(args, doc, flags):
    sc = doc["scenario"]
    geom = scenario_from_config(sc)
    lam = geom.wavelength
    sigma_dbsm = float(_run_flag(args, flags, "sigma_dbsm", 55.0))
    phi0 = float(_run_flag(args, flags, "phi0", 10.0))
    l_min_wl = float(_run_flag(args, flags, "l_min_wl", 1.0))
    l_max_wl = float(_run_flag(args, flags, "l_max_wl", 100.0))
    l_points = int(_run_flag(args, flags, "l_points", 20))
    design = min_size(from_dbsm(sigma_dbsm), lam)
    print(f"target RCS {sigma_dbsm:.1f} dBsm -> side {design.side:.3f} m, "
          f"{design.n_elements} elements/side, HPBW {design.hpbw_deg:.2f} deg")
    l_grid = np.geomspace(l_min_wl * lam, l_max_wl * lam, l_points)
    rows = tapering_comparison(lam, phi0, l_grid)
    out = _out_dir(args) / "ris_design.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("side_m", "uniform_m2", "sinc_m2", "lfm_m2"))
        for row in rows:
            writer.writerow([repr(row.side), repr(row.uniform_m2),
                             repr(row.sinc_m2), repr(row.lfm_m2)])
    return [out], {"sigma_dbsm": sigma_dbsm, "phi0": phi0,
                   "l_min_wl": l_min_wl, "l_max_wl": l_max_wl,
                   "l_points": l_points}


def _cmd_scenario_check(args, doc, flags):
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
    layout = bin_layout(delays, geom.range_resolution, doc["model"]["k_p"])
    print(f"window cells: direct = 1, single bounce = {layout.n}, "
          f"double bounce = {layout.m}  (K_P = {layout.window_size})")
    return [], {}


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "pd-curve": _cmd_pd_curve,
    "cfar-sweep": _cmd_cfar_sweep,
    "rmse": _cmd_rmse,
    "convergence": _cmd_convergence,
    "sliding-window": _cmd_sliding_window,
    "link-budget": _cmd_link_budget,
    "ris-design": _cmd_ris_design,
    "scenario-check": _cmd_scenario_check,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (or a run manifest)")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--profile", choices=sorted(PROFILES),
                        help="trial-budget profile")
    common.add_argument("--out-dir", default=".", help="artifact directory")
    common.add_argument("--detectors",
                        help="comma-separated detector list (default: all)")
    common.add_argument("--threads", type=int,
                        help=f"worker processes (or ${THREADS_ENV_VAR})")
    common.add_argument("override", nargs="*", metavar="section.key=value",
                        help="dotted config overrides")

    parser = argparse.ArgumentParser(
        prog="risdet",
        description="Surface-assisted radar detection experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("calibrate", parents=[common],
                   help="calibrate detection thresholds under H0")
    sub.add_parser("pd-curve", parents=[common],
                   help="detection probability versus SINR")

    # Subcommand flags default to None here; the handlers resolve them as
    # CLI value, then manifest "flags" record, then the built-in default.
    p_cfar = sub.add_parser("cfar-sweep", parents=[common],
                            help="false-alarm rate under clutter mismatch")
    p_cfar.add_argument("--axis", choices=("cnr", "rho"),
                        help="sweep axis (default: cnr)")
    p_cfar.add_argument("--values", help="comma-separated axis values")

    sub.add_parser("rmse", parents=[common],
                   help="RMSE of the estimated cell pair versus SINR")

    p_conv = sub.add_parser("convergence", parents=[common],
                            help="cyclic-ascent mean gain trace")
    p_conv.add_argument("--pair", action="append",
                        help="cell pair n,m (repeatable)")
    p_conv.add_argument("--sinr", type=float, help="SINR in dB (default: 0)")
    p_conv.add_argument("--conv-trials", type=int,
                        help="trials per pair (default: 1000)")

    p_slide = sub.add_parser("sliding-window", parents=[common],
                             help="P_d as the window slides over range bins")
    p_slide.add_argument("--n-bins", type=int,
                         help="range bins to slide over (default: 20)")
    p_slide.add_argument("--sinr", type=float, help="SINR in dB (default: 0)")

    p_lb = sub.add_parser("link-budget", parents=[common],
                          help="received power per path versus surface RCS")
    p_lb.add_argument("--sigma-min-dbsm", type=float,
                      help="grid start (default: 10)")
    p_lb.add_argument("--sigma-max-dbsm", type=float,
                      help="grid end (default: 80)")
    p_lb.add_argument("--sigma-points", type=int,
                      help="grid size (default: 71)")

    p_rd = sub.add_parser("ris-design", parents=[common],
                          help="aperture sizing and tapering comparison")
    p_rd.add_argument("--sigma-dbsm", type=float,
                      help="target RCS in dBsm (default: 55)")
    p_rd.add_argument("--phi0", type=float,
                      help="beamwidth target, degrees (default: 10)")
    p_rd.add_argument("--l-min-wl", type=float,
                      help="smallest side, wavelengths (default: 1)")
    p_rd.add_argument("--l-max-wl", type=float,
                      help="largest side, wavelengths (default: 100)")
    p_rd.add_argument("--l-points", type=int,
                      help="grid size (default: 20)")

    sub.add_parser("scenario-check", parents=[common],
                   help="distances, delays, angles, and cell layout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, flags = load_run(args)
        outputs, run_flags = _COMMANDS[args.subcommand](args, doc, flags)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NotPositiveDefinite, NonMonotonic, InfeasibleGeometry,
            WindowTooSmall, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 3
    if outputs:
        manifest = _emit_manifest(args.subcommand, doc, _out_dir(args),
                                  outputs, run_flags)
        for path in [*outputs, manifest]:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
