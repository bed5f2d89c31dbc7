"""Run one risdet CLI command with spans recorded around its module calls.

    python3 perfbench/traced_cli.py SPANS_FILE risdet-subcommand [flags...]

The package's modules are wrapped from outside, before `risdet.cli.main`
runs; nothing under src/ changes.  A span is (name, pid, start, end) on the
monotonic clock that every process of the host shares.  The launching
process keeps its spans in memory and writes them to SPANS_FILE when the
command ends.  Pool workers are forked from it and inherit the wrappers;
each appends its spans to SPANS_FILE.<pid> as it records them, because a
worker has no end-of-run hook of its own.

Span names:
  cli.resolve           config resolution, detector parsing, geometry
  cli.write             each CSV or manifest file, open to close
  montecarlo.run        each calibration, P_d curve or convergence study
  montecarlo.synthesize each synthesize_batch call
  montecarlo.evaluate   each batch_evaluate or c_glrt_gain_trace call
  montecarlo.pool       each process pool opened
"""

from __future__ import annotations

import builtins
import functools
import json
import os
import sys
import time
from pathlib import Path

_RESOLVE = ("load_run", "experiment_config", "_parse_detectors")
_EXPERIMENTS = ("calibrate_thresholds", "pd_curves", "convergence_study")


class Tracer:
    def __init__(self, path: Path):
        self.path = path
        self.main_pid = os.getpid()
        self.spans: list[tuple[str, int, float, float]] = []

    def record(self, name: str, start: float, end: float) -> None:
        pid = os.getpid()
        span = (name, pid, start, end)
        if pid == self.main_pid:
            self.spans.append(span)
        else:
            with builtins.open(f"{self.path}.{pid}", "a") as fh:
                fh.write(json.dumps(span) + "\n")

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, start, time.perf_counter())

        setattr(module, attr, traced)

    def traced_open(self, file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _TimedFile(fh, self) if "w" in mode else fh

    def install(self, cli, montecarlo) -> None:
        for attr in _RESOLVE:
            self.wrap(cli, attr, "cli.resolve")
        for attr in _EXPERIMENTS:
            self.wrap(cli, attr, "montecarlo.run")
        self.wrap(montecarlo, "synthesize_batch", "montecarlo.synthesize")
        self.wrap(montecarlo, "batch_evaluate", "montecarlo.evaluate")
        self.wrap(montecarlo, "c_glrt_gain_trace", "montecarlo.evaluate")
        # A module global named `open` shadows the builtin for that module.
        cli.open = self.traced_open
        montecarlo.open = self.traced_open
        tracer = self

        class CountingPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                start = time.perf_counter()
                super().__init__(*args, **kwargs)
                tracer.record("montecarlo.pool", start, time.perf_counter())

        montecarlo.ProcessPoolExecutor = CountingPool

    def flush(self) -> None:
        with builtins.open(self.path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _TimedFile:
    """File proxy that records one cli.write span from open to close."""

    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self._tracer = tracer
        self._start = time.perf_counter()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self._fh.close()
        self._tracer.record("cli.write", self._start, time.perf_counter())
        return False


def load_spans(path: Path) -> list[tuple[str, int, float, float]]:
    """Spans of the launching process and of every worker it forked."""
    spans = []
    for part in sorted(path.parent.glob(path.name + "*")):
        with open(part) as fh:
            spans += [tuple(json.loads(line)) for line in fh if line.strip()]
    return spans


def _covered(interval: tuple[float, float],
             others: list[tuple[float, float]]) -> float:
    """Length of the part of `interval` that the union of `others` covers."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others if b > lo and a < hi)
    total, end = 0.0, lo
    for a, b in clipped:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: list[tuple[str, int, float, float]]) -> dict[str, float]:
    """Per-layer figures of one traced run.

    montecarlo.self_s is the time inside the experiment calls during which
    no process was synthesizing or evaluating: scheduling, pool start-up,
    pickling, concatenation and reductions.
    """
    def spans_of(name):
        return [(s, e) for n, _, s, e in spans if n == name]

    work = spans_of("montecarlo.synthesize") + spans_of("montecarlo.evaluate")
    runs = spans_of("montecarlo.run")
    return {
        "montecarlo.synthesize_s": sum(e - s for s, e in spans_of("montecarlo.synthesize")),
        "montecarlo.evaluate_s": sum(e - s for s, e in spans_of("montecarlo.evaluate")),
        "montecarlo.self_s": sum((e - s) - _covered((s, e), work) for s, e in runs),
        "montecarlo.batches": len(spans_of("montecarlo.evaluate")),
        "montecarlo.pool_starts": len(spans_of("montecarlo.pool")),
        "cli.resolve_ms": 1e3 * sum(e - s for s, e in spans_of("cli.resolve")),
        "cli.write_ms": 1e3 * sum(e - s for s, e in spans_of("cli.write")),
    }


def main(argv: list[str]) -> int:
    from risdet import cli, montecarlo

    tracer = Tracer(Path(argv[0]))
    tracer.install(cli, montecarlo)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
