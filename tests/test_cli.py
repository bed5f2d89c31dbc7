import copy
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risdet
import risdet.montecarlo as mc
from risdet.cli import (
    DEFAULT_CONFIG,
    ConfigError,
    _derive_pair,
    apply_overrides,
    build_parser,
    experiment_config,
    load_run,
    main,
)
from risdet.montecarlo import ExperimentConfig
from risdet.signal_model import SteeringSet, synthesize_batch, whiten

SMALL_MODEL = ["model.n_antennas=4", "model.k_s=8"]
SMALL_CAL = ["experiment.pfa=0.05", "experiment.trials_cal=400"]


def test_scenario_check_reports_layout(tmp_path, capsys):
    rc = main(["scenario-check", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "single bounce = 3" in out
    assert "double bounce = 6" in out
    assert "separability: ok" in out
    assert "tau_1 = 206.8" in out
    # Pure report: no artifact and no manifest.
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_profile_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--profile", "lab"])
    assert exc.value.code == 2


def test_bad_overrides_exit_2(capsys):
    assert main(["scenario-check", "norho"]) == 2
    assert main(["scenario-check", "a.b.c=1"]) == 2
    assert main(["scenario-check", "nosection.x=1"]) == 2
    assert main(["scenario-check", "model.bogus=1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_overrides_may_stand_between_flags(tmp_path, capsys):
    # A flag between two overrides ends the override positional's run; the
    # later overrides still apply, in command-line order.
    rc = main(["link-budget", "model.rho=0.5", "--seed", "3",
               "experiment.pfa=0.05", "--out-dir", str(tmp_path),
               "--sigma-points", "2", "experiment.pfa=0.07"])
    assert rc == 0
    manifest = json.loads((tmp_path / "link_budget_manifest.json").read_text())
    assert manifest["config"]["model"]["rho"] == 0.5
    assert manifest["config"]["experiment"]["pfa"] == 0.07
    assert manifest["master_seed"] == 3
    # Any other stray token is still an unrecognized argument.
    for stray in ("stray", "--bogus", "--bogus=1"):
        with pytest.raises(SystemExit) as exc:
            main(["link-budget", "model.rho=0.5", "--seed", "3", stray,
                  "--out-dir", str(tmp_path / "stray")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {stray}" in capsys.readouterr().err
    assert not (tmp_path / "stray").exists()


def test_config_file_errors_exit_2(tmp_path):
    assert main(["scenario-check", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["scenario-check", "--config", str(bad)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["scenario-check", "--config", str(arr)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"bogus": {"x": 1}}')
    assert main(["scenario-check", "--config", str(unknown)]) == 2
    not_a_section = tmp_path / "not_a_section.json"
    not_a_section.write_text('{"model": 5}')
    assert main(["scenario-check", "--config", str(not_a_section)]) == 2
    assert main(["link-budget", "--config", str(not_a_section),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["cfar-sweep", "--values", "1,x"],
    ["cfar-sweep", "--values="],
    ["convergence", "--conv-trials", "0"],
    ["convergence", "--pair", "5,9"],
    ["convergence", "--pair", "1,2"],
    ["convergence", "--pair", "4,3"],
    ["sliding-window", "--n-bins", "3"],
    ["pd-curve", "experiment.sinr_grid=[]"],
    ["rmse", "experiment.sinr_grid=[]"],
    ["cfar-sweep", "--axis", "rho", "--values", "1.0"],
    ["link-budget", "--sigma-points", "-1"],
    ["link-budget", "--sigma-points", "0"],
    ["ris-design", "--l-min-wl", "0"],
    ["ris-design", "--phi0", "0"],
    ["ris-design", "--l-points", "0"],
    ["link-budget", 'experiment.master_seed="abc"'],
    ["calibrate", "experiment.trials_cal=400.9", "model.k_p=6.7"],
    ["calibrate", "experiment.threads=true"],
    ["calibrate", "detectors.h_max=2.5"],
    ["calibrate", "detectors.baseline_cell=true"],
    ["calibrate", "model.pair=[2.5,4]"],
    ["link-budget", "experiment.master_seed=1.5"],
    ["scenario-check", "model.k_p=6.7"],
    ["link-budget", "scenario.fc=-1"],
    ["ris-design", "scenario.fc=0"],
    ["scenario-check", "scenario.delta_r=-5"],
    ["link-budget", "scenario.ris_pos=[1,2,3]"],
    ["calibrate", "model.theta_r_deg=true"],
    ["calibrate", "detectors.epsilon=true"],
    ["pd-curve", "experiment.sinr_grid=[true]"],
    ["link-budget", "scenario.p_t=true"],
    ["calibrate", 'model.rho="0.5"'],
    ["rmse", 'experiment.sinr_grid="12"'],
    ["convergence", "--sinr", "true"],
    ["convergence", "--conv-trials", "10.5"],
    ["calibrate", "model.cnr_db=NaN"],
    ["convergence", "--sinr", "nan"],
    ["ris-design", "--sigma-dbsm", "4000"],
    ["ris-design", "--sigma-dbsm", "-4000"],
    ["link-budget", "--sigma-max-dbsm", "4000"],
    ["link-budget", "--sigma-max-dbsm", "3000"],
    ["rmse", "--detectors", "kelly"],
    ["rmse", "--detectors", "ep-glrt-ka,amf"],
    ["calibrate", "model.n_antennas=0"],
    ["pd-curve", "--detectors", "amf,amf"],
    ["rmse", "--detectors", "a-glrt,c-glrt,a-glrt"],
    ["convergence", "--pair", "2,4", "--pair", "2,4"],
    ["pd-curve", "experiment.sinr_grid=[5000]"],
    ["sliding-window", "--sinr", "5000"],
    ["calibrate", "experiment.sinr_grid=[]"],
])
def test_bad_subcommand_flags_exit_2(argv, tmp_path, capsys, monkeypatch):
    # Each is rejected before any trial runs: no experiment is entered, no
    # line is printed and no artifact is written.
    _forbid_trials(monkeypatch)
    # Subcommand first, then the positional overrides as one run, then the
    # case's own flags and overrides.
    rc = main([argv[0], "--out-dir", str(tmp_path), *SMALL_MODEL, *SMALL_CAL,
               *argv[1:]])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def _forbid_trials(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("experiment started")

    for name in ("calibrate_thresholds", "convergence_study", "pd_curves",
                 "rmse_curves"):
        monkeypatch.setattr(f"risdet.cli.{name}", no_trials)


@pytest.mark.parametrize("subcommand, flags", [
    ("convergence", {"conv_trials": 10.7}),
    ("convergence", {"sinr": True}),
    ("sliding-window", {"n_bins": 8.5}),
    ("ris-design", {"phi0": "10"}),
    ("link-budget", {"sigma_max_dbsm": None}),
    ("rmse", {"detectors": "amf"}),
])
def test_bad_recorded_flags_exit_2(subcommand, flags, tmp_path, capsys,
                                   monkeypatch):
    # A manifest records number flags as numbers; anything else is rejected
    # before any trial runs instead of being cast.
    _forbid_trials(monkeypatch)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": {}, "flags": flags}))
    out_dir = tmp_path / "out"
    rc = main([subcommand, "--config", str(manifest), "--out-dir", str(out_dir)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: bad --") and out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("seed", [1 << 64, -1, 10 ** 400],
                         ids=["2**64", "-1", "10**400"])
@pytest.mark.parametrize("route", ["flag", "override", "manifest"])
def test_seed_outside_philox_key_range_exits_2(route, seed, tmp_path, capsys,
                                               monkeypatch):
    # The seed is one 64-bit word of the Philox key; a seed outside
    # [0, 2**64) would alias one inside it, so each route rejects it.
    _forbid_trials(monkeypatch)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"config": {"experiment": {"master_seed": seed}}, "flags": {}}))
    argv = {"flag": ["--seed", str(seed)],
            "override": [f"experiment.master_seed={seed}"],
            "manifest": ["--config", str(manifest)]}[route]
    out_dir = tmp_path / "out"
    rc = main(["calibrate", "--out-dir", str(out_dir), *argv])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: bad experiment.master_seed") and out == ""
    assert not out_dir.exists()


def test_largest_seed_is_accepted(tmp_path):
    seed = (1 << 64) - 1
    assert main(["link-budget", "--out-dir", str(tmp_path), "--seed",
                 str(seed), "--sigma-points", "2"]) == 0
    manifest = json.loads((tmp_path / "link_budget_manifest.json").read_text())
    assert manifest["master_seed"] == seed


@pytest.mark.parametrize("argv, message", [
    (["convergence", "--conv-trials", "0"], "bad --conv-trials '0': "),
    (["convergence", "--conv-trials", "00"], "bad --conv-trials '00': "),
    (["ris-design", "--l-points", "0"], "bad --l-points '0': "),
    (["sliding-window", "--n-bins", "8.50"],
     "bad --n-bins '8.50': 8.5 is not an integer"),
], ids=["conv-trials-0", "conv-trials-00", "l-points-0", "n-bins-8.50"])
def test_bad_number_flags_echo_their_token(argv, message, tmp_path, capsys,
                                           monkeypatch):
    # A number flag's text is read as a float, but the message quotes the
    # text as it was given.
    _forbid_trials(monkeypatch)
    rc = main([argv[0], "--out-dir", str(tmp_path), *argv[1:]])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {message}") and out == ""


def test_collinear_geometry_exits_3(capsys):
    rc = main(["scenario-check", "scenario.radar_pos=[-100,0]",
               "scenario.target_pos=[50,0]"])
    assert rc == 3
    assert "InfeasibleGeometry" in capsys.readouterr().err


def test_failing_trial_exits_3_with_its_counter(tmp_path, capsys,
                                                monkeypatch):
    def planted(*args):
        z_p, r = synthesize_batch(*args)
        z_p[args[-1] == 7, 0, 0] = np.nan
        return z_p, r

    monkeypatch.setattr(mc, "synthesize_batch", planted)
    with np.errstate(invalid="ignore"):
        rc = main(["calibrate", "--out-dir", str(tmp_path), "--seed", "5",
                   *SMALL_MODEL, *SMALL_CAL])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: NotPositiveDefinite: ")
    assert "counter 7 (stage 0, offset 7) under master seed 5" in err
    assert list(tmp_path.iterdir()) == []
    # Every point of a sweep tests the same trials, so the error names the
    # point as well: here trial 7 fails at the second SINR only.
    evaluate, calls = mc.batch_evaluate, []

    def planted_at_point(z_p, *args, **kwargs):
        calls.append(len(z_p))
        if len(calls) == 3:  # the calibration chunk, then one per point
            # z_p is the chunk whitened once; its drawn copy of window
            # cell 1, which the means reach, is re-whitened at each point.
            z_p = copy.copy(z_p)
            z_p.raw = z_p.raw.copy()
            z_p.raw[0, 0, 7] = np.nan
        return evaluate(z_p, *args, **kwargs)

    monkeypatch.setattr(mc, "synthesize_batch", synthesize_batch)
    monkeypatch.setattr(mc, "batch_evaluate", planted_at_point)
    with np.errstate(invalid="ignore"):
        rc = main(["pd-curve", "--out-dir", str(tmp_path), "--seed", "5",
                   *SMALL_MODEL, *SMALL_CAL, "experiment.trials_pd=50",
                   "experiment.sinr_grid=[-5,5,15]"])
    assert rc == 3 and calls == [400, 50, 50]
    counter = mc._STAGE_PD * mc._STAGE_STRIDE + 7
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: NotPositiveDefinite: ")
    assert (f" at SINR 5 dB; first failing trial: counter {counter} "
            f"(stage 1, offset 7) under master seed 5") in err
    assert list(tmp_path.iterdir()) == []


def test_singular_training_in_a_sweep_exits_3_naming_no_point(
        tmp_path, capsys, monkeypatch):
    # A sweep chunk factors each trial's training scatter once, before any
    # point tests it, so a scatter that is not positive definite names the
    # trial's counter and no point: every point shares it.
    counter = mc._STAGE_PD * mc._STAGE_STRIDE + 7

    def planted(*args):
        z_p, r = synthesize_batch(*args)
        r[args[-1] == counter] = 0.0
        return z_p, r

    monkeypatch.setattr(mc, "synthesize_batch", planted)
    rc = main(["pd-curve", "--out-dir", str(tmp_path), "--seed", "5",
               *SMALL_MODEL, *SMALL_CAL, "experiment.trials_pd=50",
               "experiment.sinr_grid=[-5,5,15]"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "numerical failure: NotPositiveDefinite: training scatter matrix is "
        "not positive definite in 1 trial(s), first at batch position 7; "
        f"first failing trial: counter {counter} (stage 1, offset 7) under "
        "master seed 5")
    assert " at SINR" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, setting", [
    (["calibrate", "model.cnr_db=4000"], "bad experiment configuration: cnr_db"),
    (["cfar-sweep", "--axis", "cnr", "--values", "25,4000"],
     "bad --values for axis cnr"),
])
def test_overflowing_cnr_exits_2(argv, setting, tmp_path, capsys,
                                 monkeypatch):
    # 10^400 is beyond the float range: the clutter power cannot be built,
    # which is a bad setting, not a numerical failure.
    _forbid_trials(monkeypatch)
    rc = main([argv[0], "--out-dir", str(tmp_path), *SMALL_MODEL, *SMALL_CAL,
               *argv[1:]])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {setting}") and "Traceback" not in err
    assert "4000" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_non_finite_baseline_statistics_exit_3(tmp_path, capsys,
                                               monkeypatch):
    # Whitened steering vectors of norm 2^520 (whitening scales them to
    # norms below 1, so they are planted here) make v† S_S^-1 v overflow in
    # every trial.  Each detector that divides by such a norm, or by its
    # form through S_{n,m}, checks it, and c-glrt's bound checks the pivots
    # of its steering Gram matrix: the run stops at the first trial instead
    # of calibrating on NaN statistics, and prints no numpy warning on the
    # way (warnings are errors here).
    def huge(m, mean, steering):
        mean_w, s = whiten(m, mean, steering)
        return mean_w, SteeringSet(*(2.0 ** 520 * v
                                     for v in (s.v_r, s.v_sr, s.v_s)))

    monkeypatch.setattr(mc, "whiten", huge)
    for detectors, what in (("kelly,amf", "v_R† S_S^-1 v_R"),
                            ("ep-glrt-km-1", "v_R† S_S^-1 v_R"),
                            ("ep-glrt-km-2", "v_R† S_{n,m}^-1 v_R"),
                            ("c-glrt", "steering Gram through S_S + S_P")):
        rc = main(["calibrate", "--out-dir", str(tmp_path), "--seed", "5",
                   "--detectors", detectors, *SMALL_MODEL, *SMALL_CAL])
        assert rc == 3, detectors
        out, err = capsys.readouterr()
        assert err.startswith(f"numerical failure: NotPositiveDefinite: "
                              f"{what} is not positive definite"), err
        assert "counter 0 (stage 0, offset 0) under master seed 5" \
            in err
        assert err.count("\n") == 1 and out == ""
        assert list(tmp_path.iterdir()) == []


def test_window_too_small_exits_3(tmp_path, capsys):
    rc = main(["calibrate", "--out-dir", str(tmp_path), "model.k_p=5"])
    assert rc == 3
    assert "WindowTooSmall" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_experiment_value_exits_2(capsys):
    rc = main(["scenario-check", "model.rho=1.5"])
    assert rc == 0  # scenario-check never builds the experiment config
    rc = main(["calibrate", "model.rho=1.5"])
    assert rc == 2
    assert "rho" in capsys.readouterr().err


def test_unknown_detector_exits_2(tmp_path, capsys):
    rc = main(["calibrate", "--out-dir", str(tmp_path), "--detectors", "foo",
               *SMALL_MODEL, *SMALL_CAL])
    assert rc == 2
    assert "unknown detector" in capsys.readouterr().err


def test_convergence_rows_at_the_rounding_floor_read_zero(tmp_path, capsys):
    # From each trial's first gain below epsilon * 1e-6 on, the trial adds
    # 0.0 to the mean gain of each iteration: the tail rows of this run,
    # which read rounding noise of both signs without that floor, read
    # exactly 0.0, and no mean gain is negative.
    assert main(["convergence", "--pair", "2,4", "--pair", "3,4", "--seed",
                 "11", *SMALL_MODEL, "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    gains = {pair: [float(row["mean_gain"]) for row in rows
                    if row["pair"] == pair] for pair in ("2-4", "3-4")}
    assert all(len(g) == 20 and min(g) >= 0.0 for g in gains.values())
    assert gains["2-4"][11:] == [0.0] * 9 and 0.0 not in gains["2-4"][:11]
    assert gains["3-4"][13:] == [0.0] * 7 and 0.0 not in gains["3-4"][:13]


def test_calibrate_smoke(tmp_path, capsys):
    rc = main(["calibrate", "--out-dir", str(tmp_path),
               *SMALL_MODEL, *SMALL_CAL])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eta =" in out and "wrote" in out
    # The counts of the calibration that the run makes: the ascents that
    # ran, and those of them that stopped at h_max.
    cfg = experiment_config(apply_overrides(copy.deepcopy(DEFAULT_CONFIG),
                                            [*SMALL_MODEL, *SMALL_CAL]))
    table = mc.calibrate_thresholds(cfg, mc.ALL_KINDS)
    assert f"\nc-glrt: {table.hmax_hits} of {table.ascents} ascents run " \
        "stopped at h_max = 20\n" in out
    assert 0 < table.ascents < 400 * 10
    csv_path = tmp_path / "thresholds.csv"
    manifest_path = tmp_path / "calibrate_manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "detector,threshold,pfa,trials,seed"
    assert len(lines) == 8
    assert lines[1].startswith("ep-glrt-km-1,")
    assert lines[7].startswith("amf,")
    for line in lines[1:]:
        float(line.split(",")[1])
    manifest = json.loads(manifest_path.read_text())
    assert manifest["subcommand"] == "calibrate"
    assert manifest["master_seed"] == 20260816
    assert manifest["config"]["experiment"]["pfa"] == 0.05
    assert manifest["config"]["model"]["n_antennas"] == 4
    assert manifest["outputs"] == [str(csv_path)]
    # Defaults are recorded resolved, not as "absent".
    assert manifest["flags"] == {
        "detectors": "ep-glrt-km-1,ep-glrt-km-2,ep-glrt-ka,c-glrt,a-glrt,"
                     "kelly,amf"}


def test_manifest_reload_reproduces_artifact(tmp_path):
    dir1, dir2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["calibrate", "--out-dir", str(dir1),
                 *SMALL_MODEL, *SMALL_CAL]) == 0
    manifest = dir1 / "calibrate_manifest.json"
    assert main(["calibrate", "--config", str(manifest),
                 "--out-dir", str(dir2)]) == 0
    assert (dir1 / "thresholds.csv").read_bytes() == \
        (dir2 / "thresholds.csv").read_bytes()


def test_manifest_reload_restores_detector_selection(tmp_path):
    dir1, dir2, dir3 = tmp_path / "run1", tmp_path / "run2", tmp_path / "run3"
    assert main(["pd-curve", "--out-dir", str(dir1), "--seed", "7",
                 "--detectors", "a-glrt,kelly", *SMALL_MODEL, *SMALL_CAL,
                 "experiment.trials_pd=100", "experiment.sinr_grid=[0]"]) == 0
    manifest_path = dir1 / "pd_curve_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["flags"] == {"detectors": "a-glrt,kelly"}
    assert main(["pd-curve", "--config", str(manifest_path),
                 "--out-dir", str(dir2)]) == 0
    assert (dir1 / "pd_curve.csv").read_bytes() == \
        (dir2 / "pd_curve.csv").read_bytes()
    reloaded = json.loads((dir2 / "pd_curve_manifest.json").read_text())
    assert reloaded["flags"] == manifest["flags"]
    # An explicit flag still beats the manifest record.
    assert main(["pd-curve", "--config", str(manifest_path),
                 "--detectors", "kelly", "--out-dir", str(dir3)]) == 0
    rows = (dir3 / "pd_curve.csv").read_text().strip().splitlines()[1:]
    assert rows and all(row.startswith("kelly,") for row in rows)


def test_manifest_reload_restores_cfar_flags(tmp_path):
    dir1, dir2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["cfar-sweep", "--out-dir", str(dir1),
                 "--axis", "rho", "--values", "0.5",
                 "--detectors", "ep-glrt-km-1", *SMALL_MODEL, *SMALL_CAL]) == 0
    manifest_path = dir1 / "cfar_sweep_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["flags"] == {"detectors": "ep-glrt-km-1",
                                 "axis": "rho", "values": "0.5"}
    assert main(["cfar-sweep", "--config", str(manifest_path),
                 "--out-dir", str(dir2)]) == 0
    assert (dir1 / "cfar_sweep.csv").read_bytes() == \
        (dir2 / "cfar_sweep.csv").read_bytes()


@pytest.mark.parametrize("argv, flag, first, second", [
    (["convergence", *SMALL_MODEL, *SMALL_CAL], "conv_trials", 60, 40),
    (["sliding-window", *SMALL_MODEL, *SMALL_CAL, "experiment.trials_pd=50"],
     "n_bins", 8, 7),
    (["link-budget"], "sigma_points", 5, 3),
    (["ris-design"], "l_points", 4, 3),
], ids=["convergence", "sliding-window", "link-budget", "ris-design"])
def test_manifest_reload_restores_subcommand_flags(argv, flag, first, second,
                                                   tmp_path):
    option = "--" + flag.replace("_", "-")
    dirs = [tmp_path / f"run{k}" for k in range(3)]
    assert main([*argv, option, str(first), "--out-dir", str(dirs[0])]) == 0
    name = argv[0].replace("-", "_")
    manifest_path = dirs[0] / f"{name}_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["flags"][flag] == first
    (csv_name,) = [Path(p).name for p in manifest["outputs"]]
    assert main([argv[0], "--config", str(manifest_path),
                 "--out-dir", str(dirs[1])]) == 0
    assert (dirs[0] / csv_name).read_bytes() == \
        (dirs[1] / csv_name).read_bytes()
    reloaded = json.loads((dirs[1] / f"{name}_manifest.json").read_text())
    assert reloaded["flags"] == manifest["flags"]
    # An explicit flag still beats the manifest record.
    assert main([argv[0], "--config", str(manifest_path),
                 option, str(second), "--out-dir", str(dirs[2])]) == 0
    overridden = json.loads((dirs[2] / f"{name}_manifest.json").read_text())
    assert overridden["flags"] == {**manifest["flags"], flag: second}
    assert (dirs[2] / csv_name).read_bytes() != \
        (dirs[0] / csv_name).read_bytes()


def test_pd_curve_runs_are_byte_identical(tmp_path):
    args = ["pd-curve", "--profile", "desk", "--seed", "7",
            "--detectors", "a-glrt,kelly", *SMALL_MODEL,
            "experiment.trials_cal=10000", "experiment.trials_pd=400",
            "experiment.sinr_grid=[-24,0,24]"]
    dir1, dir2 = tmp_path / "run1", tmp_path / "run2"
    assert main([*args, "--out-dir", str(dir1)]) == 0
    assert main([*args, "--out-dir", str(dir2)]) == 0
    body = (dir1 / "pd_curve.csv").read_bytes()
    assert body == (dir2 / "pd_curve.csv").read_bytes()
    lines = body.decode().strip().split("\r\n")
    assert lines[0] == "detector,x,estimate,stderr,trials,seed"
    assert len(lines) == 7  # two detectors, three grid points
    assert all(line.endswith(",7") for line in lines[1:])
    manifest = json.loads((dir1 / "pd_curve_manifest.json").read_text())
    assert manifest["master_seed"] == 7


def test_threads_resolution():
    parser = build_parser()
    args = parser.parse_args(["calibrate"])
    assert load_run(args)[0]["experiment"]["threads"] == 1
    flagged = parser.parse_args(["calibrate", "--threads", "3"])
    assert load_run(flagged)[0]["experiment"]["threads"] == 3


def test_default_config_comes_from_experiment_defaults():
    cfg = experiment_config(apply_overrides(DEFAULT_CONFIG, ["model.pair=[3,6]"]))
    assert cfg == ExperimentConfig()
    # An integer setting may be written as a float with no fractional part.
    whole = apply_overrides(DEFAULT_CONFIG, [
        "model.pair=[3.0,6]", "model.k_p=6.0", "experiment.trials_cal=1e5",
        "detectors.h_max=20.0"])
    assert experiment_config(whole) == ExperimentConfig()
    assert DEFAULT_CONFIG["model"]["pair"] is None


def test_apply_overrides_values():
    doc = apply_overrides(DEFAULT_CONFIG, [
        "model.rho=0.5", "model.pair=[2,5]", "scenario.fc=6e9"])
    assert doc["model"]["rho"] == 0.5
    assert doc["model"]["pair"] == [2, 5]
    assert doc["scenario"]["fc"] == 6e9
    assert DEFAULT_CONFIG["model"]["rho"] == 0.9  # untouched original
    with pytest.raises(ConfigError):
        apply_overrides(DEFAULT_CONFIG, ["experiment.bogus=1"])


def test_derive_pair():
    assert _derive_pair(copy.deepcopy(DEFAULT_CONFIG)) == (3, 6)
    doc = apply_overrides(DEFAULT_CONFIG, ["model.pair=[2,5]"])
    assert _derive_pair(doc) == (2, 5)


def test_link_budget_smoke(tmp_path, capsys):
    rc = main(["link-budget", "--out-dir", str(tmp_path),
               "--sigma-points", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "crossover" in out and "dBsm" in out
    lines = (tmp_path / "link_budget.csv").read_text().strip().splitlines()
    assert lines[0] == "sigma_ris_dbsm,p_rtr_w,p_rstr_w,p_rstsr_w"
    assert len(lines) == 6
    assert (tmp_path / "link_budget_manifest.json").exists()


def test_ris_design_smoke(tmp_path, capsys):
    rc = main(["ris-design", "--out-dir", str(tmp_path), "--l-points", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "80 elements/side" in out
    assert "HPBW 1.27 deg" in out
    lines = (tmp_path / "ris_design.csv").read_text().strip().splitlines()
    assert lines[0] == "side_m,uniform_m2,sinc_m2,lfm_m2"
    assert len(lines) == 5
    assert (tmp_path / "ris_design_manifest.json").exists()


def _child_env() -> dict:
    # A child runs from an unrelated directory, where a relative PYTHONPATH
    # (such as "src") resolves to nothing; hand it the absolute directory
    # that holds the package this process imported.
    src_dir = str(Path(risdet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "risdet.cli", "scenario-check"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "single bounce = 3" in proc.stdout
    assert proc.stderr == ""  # scenario-check reports on stdout only


_BLAS_SCRIPT = """
import os
import risdet.cli
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir("/proc/self/task")))
"""


@pytest.mark.parametrize("preset, want", [(None, "1 1"), ("2", "2 ")])
def test_cli_runs_blas_on_one_thread(tmp_path, preset, want):
    # The process pool is risdet's parallelism: importing the CLI starts
    # OpenBLAS on one thread, so the process holds no thread but its own,
    # unless the user chose a BLAS thread count, which stands.
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(want)


_STARTUP_SCRIPT = """
import sys
from risdet.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

assert main(["scenario-check"]) == 0
assert main(["calibrate", "--out-dir", "cal", "model.n_antennas=4",
             "model.k_s=8", "experiment.trials_cal=1000",
             "experiment.pfa=0.05"]) == 0
print("before ris-design:", scipy_modules())
assert main(["ris-design", "--out-dir", "design", "--l-points", "3"]) == 0
print("after ris-design:", "scipy.special" in scipy_modules())
"""


def test_startup_loads_no_scipy(tmp_path):
    # Only the sine integral of the sinc taper needs scipy, so a fresh
    # process that sets up and calibrates never imports it; ris-design
    # imports it on its first Si call and still writes its artifact.
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "before ris-design: []" in proc.stdout
    assert "after ris-design: True" in proc.stdout
    assert (tmp_path / "cal" / "thresholds.csv").exists()
    lines = (tmp_path / "design" / "ris_design.csv").read_text().splitlines()
    assert lines[0] == "side_m,uniform_m2,sinc_m2,lfm_m2" and len(lines) == 4


_POOL_SCRIPT = """
import sys
from risdet.cli import main

def pool_modules():
    return sorted(m for m in ("multiprocessing", "concurrent.futures.process")
                  if m in sys.modules)

small = ["model.n_antennas=4", "model.k_s=8", "experiment.trials_cal=1000",
         "experiment.pfa=0.05"]
assert main(["scenario-check"]) == 0
assert main(["calibrate", "--out-dir", "one", "--threads", "1", *small]) == 0
print("one process:", pool_modules())
assert main(["calibrate", "--out-dir", "two", "--threads", "2", *small]) == 0
print("two processes:", pool_modules())
"""


def test_runs_on_one_process_load_no_pool_machinery(tmp_path):
    # The process pool's module pulls in multiprocessing and some 30 other
    # modules, so a fresh process imports it only when a run opens a pool:
    # here a calibration of two chunks on two workers, which writes the
    # thresholds of the run on one process.
    proc = subprocess.run([sys.executable, "-c", _POOL_SCRIPT],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "one process: []" in proc.stdout
    assert ("two processes: ['concurrent.futures.process', "
            "'multiprocessing']") in proc.stdout
    one, two = (tmp_path / d / "thresholds.csv" for d in ("one", "two"))
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("argv, setting", [
    (["pd-curve", "model.noise_power=1e300", "experiment.sinr_grid=[3000]"],
     "bad experiment configuration: sinr_db = 3000.0 dB"),
    (["pd-curve", "model.alpha_ratio=1e308", "experiment.sinr_grid=[10]"],
     "bad experiment configuration: sinr_db = 10.0 dB with alpha_ratio"),
    (["convergence", "model.noise_power=1e300", "--sinr", "3000"],
     "bad --sinr: sinr_db = 3000.0 dB"),
    (["sliding-window", "model.noise_power=1e300", "--sinr", "3000"],
     "bad --sinr: sinr_db = 3000.0 dB"),
    (["sliding-window", "--n-bins", "3"],
     "bad --n-bins: n_bins must be >= k_p = 6, got 3"),
], ids=["noise-power", "alpha-ratio", "convergence-sinr", "sliding-sinr",
        "n-bins"])
def test_settings_built_by_the_sweep_exit_2_before_any_trial(
        argv, setting, tmp_path, capsys, monkeypatch):
    # Amplitudes beyond the float range, and a window longer than the bins
    # it slides over, are bad settings: the rules that build the amplitudes
    # and the window starts reject them before a trial is drawn, with one
    # line on stderr and no numpy warning (warnings are errors here).
    def no_trials(*args):
        raise AssertionError("trial drawn")

    monkeypatch.setattr(mc, "synthesize_batch", no_trials)
    rc = main([argv[0], "--out-dir", str(tmp_path), *SMALL_MODEL, *SMALL_CAL,
               *argv[1:]])
    out, err = capsys.readouterr()
    assert rc == 2, err
    assert err.startswith(f"error: {setting}") and err.count("\n") == 1
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand, pair, message", [
    ("pd-curve", "[2,3,4]", "[2, 3, 4] is not a list of two cell indices"),
    ("rmse", "[2,3,4]", "[2, 3, 4] is not a list of two cell indices"),
    ("pd-curve", "5", "5 is not a list of two cell indices"),
    ("rmse", "5", "5 is not a list of two cell indices"),
], ids=["pd-three", "rmse-three", "pd-int", "rmse-int"])
def test_pair_of_other_than_two_cells_exits_2(subcommand, pair, message,
                                              tmp_path, capsys, monkeypatch):
    # model.pair names two cells: a longer list, or one number, is a bad
    # setting, rejected before a trial is drawn with one line on stderr.
    def no_trials(*args):
        raise AssertionError("trial drawn")

    monkeypatch.setattr(mc, "synthesize_batch", no_trials)
    rc = main([subcommand, "--out-dir", str(tmp_path), *SMALL_MODEL,
               *SMALL_CAL, f"model.pair={pair}"])
    out, err = capsys.readouterr()
    assert rc == 2, err
    assert err == f"error: bad model.pair: {message}\n"
    assert out == "" and list(tmp_path.iterdir()) == []


def test_subnormal_noise_power_calibrates(tmp_path, capsys):
    # Every statistic is invariant to the scale of the covariance.  At a
    # subnormal noise power the whitened steering vectors would have
    # entries near 1e155, and their quadratic forms would overflow; the
    # whitening scales each by a power of two, so the run calibrates the
    # thresholds of noise power 1.
    cmd = ["calibrate", "--detectors",
           "ep-glrt-km-1,ep-glrt-km-2,ep-glrt-ka,c-glrt,a-glrt,kelly",
           *SMALL_MODEL, *SMALL_CAL]
    etas = []
    for noise_power in ("1e-310", "1"):
        out_dir = tmp_path / noise_power
        assert main([cmd[0], "--out-dir", str(out_dir), *cmd[1:],
                     f"model.noise_power={noise_power}"]) == 0
        rows = (out_dir / "thresholds.csv").read_text().splitlines()[1:]
        etas.append([float(row.split(",")[1]) for row in rows])
    capsys.readouterr()
    assert etas[0] == pytest.approx(etas[1], rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["calibrate", "experiment.trials_cal=300000000"],
    ["pd-curve", "experiment.trials_pd=300000000"],
    ["convergence", "--conv-trials", "300000000"],
], ids=["trials-cal", "trials-pd", "conv-trials"])
def test_counter_layout_limits_exit_2_before_any_trial(argv, tmp_path, capsys,
                                                       monkeypatch):
    # A stage's one block holds at most 2**28 trial counters.  The
    # experiment builds every trial block before its first chunk, so a
    # block outside the layout exits 2 with one line on stderr, before a
    # trial is drawn or a file written.
    def no_trials(*args):
        raise AssertionError("trial drawn")

    monkeypatch.setattr(mc, "synthesize_batch", no_trials)
    rc = main([argv[0], "--out-dir", str(tmp_path), *argv[1:]])
    out, err = capsys.readouterr()
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "counter layout" in err and out == ""
    assert list(tmp_path.iterdir()) == []
