"""Benchmark of the risdet CLI: three workloads, end-to-end and per-layer figures.

Run from the repository root; the package need not be installed:

    python3 perfbench/run.py --workload calibrate-all --seed 1 --seconds 20 --trace 0

Every CLI run is a child process of this one, launched as
`python -m risdet.cli` with src/ on PYTHONPATH and the master seed passed
as `--seed`.  With `--trace 0` the command is repeated in whole rounds for
`--seconds` and the end-to-end metrics are medians over the rounds.  With
`--trace 1` one plain run, one run under perfbench/traced_cli.py and the
per-layer microbenchmarks of perfbench/layers.py give the per-layer
metrics.  Every run checks the command's outputs (perfbench/checks.py).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

ALL_DETECTORS = ("ep-glrt-km-1", "ep-glrt-km-2", "ep-glrt-ka", "c-glrt",
                 "a-glrt", "kelly", "amf")
SETUP_REPEATS = 3
REFERENCE_TRIALS = 4000
# Plain and traced runs alternate this many times in a --trace 1 run, and
# the layer probe runs at least PROBE_ROUNDS times after them.
TRACE_PAIRS = 2
PROBE_ROUNDS = 3
# A child still running this many seconds after the run started is killed.
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    subcommand: str
    common: tuple[str, ...]   # flags that scenario-check accepts as well
    extra: tuple[str, ...]    # flags of the subcommand alone
    csv_name: str
    detectors: tuple[str, ...]
    probe_sinr_db: float | None   # data of the layer probe; None is H0
    threshold_block: int          # stats sorted by the threshold probe


WORKLOADS = {
    "calibrate-all": Workload(
        subcommand="calibrate",
        common=("--detectors", ",".join(ALL_DETECTORS), "--threads", "1",
                "experiment.trials_cal=12288"),
        extra=(),
        csv_name="thresholds.csv",
        detectors=ALL_DETECTORS,
        probe_sinr_db=None,
        threshold_block=12288,
    ),
    "pd-light": Workload(
        subcommand="pd-curve",
        common=("--detectors", "ep-glrt-km-1,kelly,amf", "--threads", "2",
                "experiment.trials_cal=16384", "experiment.trials_pd=1000"),
        extra=(),
        csv_name="pd_curve.csv",
        detectors=("ep-glrt-km-1", "kelly", "amf"),
        probe_sinr_db=0.0,
        threshold_block=16384,
    ),
    "ascent-trace": Workload(
        subcommand="convergence",
        common=(),
        extra=("--pair", "3,6", "--pair", "2,5", "--pair", "4,6",
               "--conv-trials", "2000"),
        csv_name="convergence.csv",
        detectors=("c-glrt",),
        probe_sinr_db=0.0,
        threshold_block=12288,
    ),
}


@dataclass(frozen=True)
class ChildRun:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_dir: Path

    def stdout(self) -> str:
        return (self.out_dir / "stdout.txt").read_text()

    def file(self, name: str) -> Path:
        return self.out_dir / name


class Bench:
    """One benchmark invocation: its children, their counts, check errors."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []

    def argv(self, subcommand: str, common: tuple[str, ...],
             extra: tuple[str, ...] = ()) -> list[str]:
        return [subcommand, *common, *extra, "--seed", str(self.seed)]

    def workload_argv(self) -> list[str]:
        return self.argv(self.wl.subcommand, self.wl.common, self.wl.extra)

    def run(self, label: str, cli_argv: list[str],
            launcher: tuple[str, ...] = ("-m", "risdet.cli")) -> ChildRun:
        """Run one CLI command to completion and account for it."""
        out_dir = self.work_dir / label
        out_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        argv = [sys.executable, *launcher, *cli_argv, "--out-dir", str(out_dir)]
        self.attempted += 1
        with open(out_dir / "stdout.txt", "w") as out, \
                open(out_dir / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                    stderr=err, start_new_session=True)
            timer = threading.Timer(
                max(self.started + HARD_LIMIT_S - time.monotonic(), 1.0),
                _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            self.failed += 1
            tail = (out_dir / "stderr.txt").read_text().strip().splitlines()[-3:]
            self.failures.append(f"{label}: exit {proc.returncode}: {' | '.join(tail)}")
        # wait4 folds in the reaped pool workers: their CPU time adds up and
        # ru_maxrss is the largest resident set of the command or a worker.
        return ChildRun(ok=ok, wall_s=wall,
                        cpu_s=usage.ru_utime + usage.ru_stime,
                        rss_mb=usage.ru_maxrss / 1024.0, out_dir=out_dir)

    def check(self, errors: list[str]) -> None:
        self.errors += [f"{self.name}: {e}" for e in errors]

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# Output checks of one workload run
# ---------------------------------------------------------------------------

def verify(bench: Bench, run: ChildRun, slack: float) -> None:
    """Check one run's outputs; pd-curve also gets its worker-invariance run."""
    if not run.ok:
        return
    wl = bench.wl
    manifest = json.loads(run.file(
        f"{wl.subcommand.replace('-', '_')}_manifest.json").read_text())
    cfg = manifest["config"]
    rows = checks.read_csv(run.file(wl.csv_name))
    if wl.subcommand == "calibrate":
        bench.check(_check_thresholds(rows, cfg, list(wl.detectors), slack))
    elif wl.subcommand == "pd-curve":
        verify_pd_curve(bench, run, rows, cfg, slack)
    elif wl.subcommand == "convergence":
        flags = manifest["flags"]
        bench.check(checks.check_convergence(
            rows, [p.replace(",", "-") for p in flags["pair"]],
            h_max=int(cfg["detectors"]["h_max"]),
            trials=int(flags["conv_trials"]), seed=bench.seed,
            fractions=checks.monotone_fractions(run.stdout())))


def _check_thresholds(rows, cfg, detectors, slack) -> list[str]:
    exp, model = cfg["experiment"], cfg["model"]
    return checks.check_thresholds(
        rows, detectors, pfa=float(exp["pfa"]), trials=int(exp["trials_cal"]),
        seed=int(exp["master_seed"]), k_s=int(model["k_s"]),
        n=int(model["n_antennas"]), slack=slack)


def verify_pd_curve(bench: Bench, run: ChildRun, rows, cfg, slack) -> None:
    """Baselines against a plain-numpy Monte Carlo, and worker invariance.

    The Monte Carlo uses the thresholds the CLI calibrates from the same
    block, so both sides estimate the same P_d.
    """
    wl = bench.wl
    baselines = ("kelly", "amf")
    cal = bench.run("baseline-thresholds", bench.argv(
        "calibrate", _with_flag(wl.common, "--detectors", ",".join(baselines))))
    threads_1 = bench.run("threads-1", bench.argv(
        wl.subcommand, _with_flag(wl.common, "--threads", "1"), wl.extra))
    if cal.ok:
        cal_rows = checks.read_csv(cal.file("thresholds.csv"))
        bench.check(_check_thresholds(cal_rows, cfg, list(baselines), slack))
        eta = {row["detector"]: float(row["threshold"]) for row in cal_rows}
        grid = [float(s) for s in cfg["experiment"]["sinr_grid"]]
        ref = checks.reference_pd(cfg["model"], grid, eta, REFERENCE_TRIALS,
                                  bench.seed)
        bench.check(checks.check_pd_curve(
            rows, list(wl.detectors), grid,
            trials=int(cfg["experiment"]["trials_pd"]), seed=bench.seed,
            ref_hits=ref, ref_trials=REFERENCE_TRIALS))
    if threads_1.ok and _bytes(threads_1, wl.csv_name) != _bytes(run, wl.csv_name):
        bench.check([f"{wl.csv_name} at --threads 1 differs from --threads 2"])


def _with_flag(flags: tuple[str, ...], flag: str, value: str) -> tuple[str, ...]:
    out = list(flags)
    out[out.index(flag) + 1] = value
    return tuple(out)


def _bytes(run: ChildRun, name: str) -> bytes:
    return run.file(name).read_bytes()


def same_outputs(bench: Bench, runs: list[ChildRun]) -> None:
    """Every round of one seed must write the same CSV bytes."""
    ok = [r for r in runs if r.ok]
    for r in ok[1:]:
        if _bytes(r, bench.wl.csv_name) != _bytes(ok[0], bench.wl.csv_name):
            bench.check([f"{r.out_dir.name} wrote other {bench.wl.csv_name} "
                         f"bytes than {ok[0].out_dir.name}"])


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def end_to_end(bench: Bench, seconds: float, slack: float) -> dict:
    setup = []
    for k in range(SETUP_REPEATS):
        run = bench.run(f"setup-{k}", bench.argv("scenario-check", bench.wl.common))
        if run.ok:
            if "separability: ok" not in run.stdout():
                bench.check([f"{run.out_dir.name}: scenario not separable"])
            setup.append(run.wall_s)
    rounds: list[ChildRun] = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(bench.run(f"round-{len(rounds)}", bench.workload_argv()))
    ok = [r for r in rounds if r.ok]
    same_outputs(bench, rounds)
    if ok:
        verify(bench, ok[0], slack)
    print(f"{bench.name}: {len(ok)} of {len(rounds)} rounds ok, wall_s "
          + " ".join(f"{r.wall_s:.3f}" for r in ok))
    print(f"{bench.name}: {len(setup)} of {SETUP_REPEATS} set-ups ok, setup_s "
          + " ".join(f"{s:.3f}" for s in setup))
    if not ok or not setup:
        return {}
    return {
        "wall_s": (statistics.median(r.wall_s for r in ok), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in ok), "MB"),
    }


def per_layer(bench: Bench, seconds: float, slack: float) -> dict:
    import layers
    from traced_cli import load_spans, summarize

    plain, traced, spans = [], [], []
    for k in range(TRACE_PAIRS):
        plain.append(bench.run(f"plain-{k}", bench.workload_argv()))
        spans.append(bench.work_dir / f"spans-{k}.jsonl")
        traced.append(bench.run(f"traced-{k}", bench.workload_argv(),
                                launcher=(str(BENCH / "traced_cli.py"),
                                          str(spans[-1]))))
    same_outputs(bench, plain + traced)
    verify(bench, plain[0], slack)
    wl = bench.wl
    probes = []
    while len(probes) < PROBE_ROUNDS or bench.elapsed() < seconds:
        figures, errors = layers.probe_round(bench.seed, wl.probe_sinr_db,
                                             wl.detectors, wl.threshold_block)
        probes.append(figures)
        bench.check(errors)
    print(f"{bench.name}: {len(probes)} probe rounds of {layers.PROBE_TRIALS} trials")
    if not all(r.ok for r in plain + traced):
        return {}
    metrics = {name: statistics.median(p[name] for p in probes)
               for name in probes[0]}
    traces = [summarize(load_spans(path)) for path in spans]
    metrics.update({name: statistics.median(t[name] for t in traces)
                    for name in traces[0]})
    metrics["montecarlo.cores_busy"] = statistics.median(
        r.cpu_s / r.wall_s for r in plain)
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in plain))
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "cores" if name.endswith("cores_busy") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "risdet" / "cli.py").is_file():
        print(f"error: no risdet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from risdet.detectors import MONOTONE_SLACK

    work_dir = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work_dir)
    mode = per_layer if args.trace else end_to_end
    metrics = mode(bench, args.seconds, MONOTONE_SLACK)
    for failure in bench.failures:
        print(f"RUN FAILED {failure}")
    for err in bench.errors:
        print(f"CHECK FAILED {err}")
    correct = not bench.errors and bool(metrics)
    if correct and not bench.failed:
        shutil.rmtree(work_dir)
    else:
        print(f"outputs kept in {work_dir}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:12.6g} {unit}")
    print(f"attempted {bench.attempted}, failed {bench.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct and not bench.failed else 1


if __name__ == "__main__":
    sys.exit(main())
