"""The names perfbench reaches in the package, checked without editing it.

perfbench/layers.py calls public functions of the package on a probe
block, and perfbench/traced_cli.py wraps attributes of risdet.cli and
risdet.montecarlo from outside.  A change under src/ that drops or renames
one of them would break `perfbench/run.py --trace 1`; these tests make it
fail here first.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risdet
import risdet.cli
import risdet.montecarlo

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(risdet.__file__).resolve().parent.parent

# Every figure layers.probe_round returns.
PROBE_FIGURES = {
    "signal_model.trial_rng_us", "signal_model.synthesize_us",
    "detectors.gram_us", "detectors.pair_search_us",
    "detectors.ep-glrt-km-1_us", "detectors.ep-glrt-km-2_us",
    "detectors.ep-glrt-ka_us", "detectors.c-glrt_us", "detectors.a-glrt_us",
    "detectors.kelly_us", "detectors.amf_us", "detectors.selected_us",
    "detectors.c-glrt.iterations_mean", "detectors.c-glrt.hmax_hits",
    "detectors.gain_trace_us", "montecarlo.threshold_us",
}


@pytest.fixture
def perfbench(monkeypatch):
    """Import a module of perfbench/ as its scripts import each other."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


@pytest.mark.parametrize("sinr_db", [None, 0.0], ids=["h0", "0db"])
def test_layer_probe_runs(perfbench, monkeypatch, sinr_db):
    layers = perfbench("layers")
    monkeypatch.setattr(layers, "PROBE_TRIALS", 256)
    figures, errors = layers.probe_round(
        7, sinr_db, ("ep-glrt-km-1", "kelly", "amf"), 1000)
    assert errors == []
    assert set(figures) == PROBE_FIGURES


def test_traced_attributes_exist(perfbench):
    traced_cli = perfbench("traced_cli")
    for name in (*traced_cli._RESOLVE, *traced_cli._EXPERIMENTS):
        assert callable(getattr(risdet.cli, name)), name
    for name in ("synthesize_batch", "batch_evaluate", "c_glrt_gain_trace",
                 "ProcessPoolExecutor"):
        assert callable(getattr(risdet.montecarlo, name)), name


def test_traced_calibration_records_work_spans(perfbench, tmp_path):
    traced_cli = perfbench("traced_cli")
    spans = tmp_path / "spans.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans),
         "calibrate", "--out-dir", str(tmp_path / "out"),
         "model.n_antennas=4", "model.k_s=8", "experiment.pfa=0.05",
         "experiment.trials_cal=400"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in traced_cli.load_spans(spans)]
    for name in ("montecarlo.synthesize", "montecarlo.evaluate",
                 "montecarlo.run", "cli.resolve"):
        assert name in names, name
    figures = traced_cli.summarize(traced_cli.load_spans(spans))
    assert figures["montecarlo.synthesize_s"] > 0
    assert figures["montecarlo.evaluate_s"] > 0
