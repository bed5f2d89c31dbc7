"""Compare the artifacts of two source trees byte for byte.

    python3 tests/compare_artifacts.py OTHER_TREE [--work DIR]

Runs one fixed command set of `risdet` subcommands with the `src` of the
tree holding this script and with OTHER_TREE's `src`, in one process per
(tree, montecarlo._CHUNK, --threads), _CHUNK in (4096, 997) and --threads
in (1, 2).  Each command leaves its CSV, its manifest and its stdout.  It
prints every file whose bytes differ between the two trees at a layout,
then every CSV whose bytes differ between the layouts of one tree, and
exits 1 if it printed any, else 0.  A stdout is compared with its
command's run directory replaced by <run-dir>, and a manifest without its
`timestamp` and `outputs`.  Only the CSVs are compared between layouts: a
manifest records its --threads, and calibrate prints how many c-glrt
ascents its chunks ran, which depends on the chunking.  The artifacts stay
under --work (default: a fresh temporary directory), one directory per
tree, layout and command.

The command set: the small model (N = 4, K_S = 8, pfa 0.05) through every
experiment subcommand, link-budget and ris-design; the default model
through calibrate, sliding-window, a seven-detector pd-curve up to +24 dB,
the three-pair convergence trace, a CNR cfar-sweep (each point whitened by
its own covariance, so its steering differs from the chunk's) and rmse (the
five window detectors uncut), once more at -20 and -10 dB alone, where
most (pair, trial) entries reach the second pass of the det-ratio rule;
and the minimal training set N = K_S = 4 through calibrate.  Its file name keeps it out of pytest's
collection.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

CHUNKS = (4096, 997)
THREADS = (1, 2)

_SMALL = ("--seed", "11", "model.n_antennas=4", "model.k_s=8",
          "experiment.pfa=0.05")
_SEVEN = ("--detectors",
          "ep-glrt-km-1,ep-glrt-km-2,ep-glrt-ka,c-glrt,a-glrt,kelly,amf")

# name -> CLI arguments; each writes one CSV into its own directory.
COMMANDS = {
    "calibrate": ("calibrate", *_SMALL, "experiment.trials_cal=400"),
    "pd-curve": ("pd-curve", *_SMALL, "experiment.trials_cal=400"),
    "rmse": ("rmse", *_SMALL, "experiment.trials_cal=400"),
    "sliding-window": ("sliding-window", *_SMALL,
                       "experiment.trials_cal=400"),
    "cfar-cnr": ("cfar-sweep", "--axis", "cnr", *_SMALL,
                 "experiment.trials_cal=9000"),
    "cfar-rho": ("cfar-sweep", "--axis", "rho", *_SMALL,
                 "experiment.trials_cal=400"),
    "cfar-rho-4000": ("cfar-sweep", "--axis", "rho", *_SMALL,
                      "experiment.trials_cal=4000"),
    "convergence-one": ("convergence", "--pair", "3,4", *_SMALL,
                        "experiment.trials_cal=400"),
    "convergence": ("convergence", "--pair", "2,4", "--pair", "3,4", *_SMALL,
                    "experiment.trials_cal=400"),
    "convergence-3000": ("convergence", "--pair", "2,4", "--pair", "3,4",
                         "--conv-trials", "3000", *_SMALL,
                         "experiment.trials_cal=400"),
    "link-budget": ("link-budget",),
    "ris-design": ("ris-design",),
    "pd-curve-seven": ("pd-curve", *_SEVEN, *_SMALL,
                       "experiment.trials_cal=9000",
                       "experiment.trials_pd=900"),
    "calibrate-default": ("calibrate", "--seed", "12",
                          "experiment.trials_cal=5000", "experiment.pfa=0.01"),
    "sliding-default": ("sliding-window", "--seed", "13", "--n-bins", "8",
                        "experiment.trials_cal=4500",
                        "experiment.trials_pd=600", "experiment.pfa=0.01"),
    "pd-curve-seven-default": ("pd-curve", "--seed", "14", *_SEVEN,
                               "experiment.trials_cal=6000",
                               "experiment.pfa=0.01",
                               "experiment.trials_pd=300",
                               "experiment.sinr_grid=[-20,-10,-5,0,10,24]"),
    "convergence-three-default": ("convergence", "--pair", "3,6", "--pair",
                                  "2,5", "--pair", "4,6", "--conv-trials",
                                  "2000"),
    "calibrate-minimal": ("calibrate", "--seed", "15", "model.n_antennas=4",
                          "model.k_s=4", "experiment.pfa=0.01",
                          "experiment.trials_cal=6000"),
    "cfar-cnr-default": ("cfar-sweep", "--axis", "cnr", "--seed", "16",
                         "experiment.trials_cal=3000", "experiment.pfa=0.01"),
    "rmse-default": ("rmse", "--seed", "17", "experiment.trials_pd=200"),
    "rmse-low-default": ("rmse", "--seed", "17", "experiment.trials_pd=200",
                         "experiment.sinr_grid=[-20,-10]"),
}


def run_layout(tree: Path, chunk: int, threads: int, out: Path) -> None:
    """Every command with tree's src at one (_CHUNK, --threads) layout, in
    this process; each command's stdout goes to stdout.txt beside its
    artifacts."""
    sys.path.insert(0, str(tree / "src"))
    from risdet import cli, montecarlo

    montecarlo._CHUNK = chunk
    for name, argv in COMMANDS.items():
        run_dir = out / name
        run_dir.mkdir(parents=True)
        with open(run_dir / "stdout.txt", "w") as fh, \
                contextlib.redirect_stdout(fh):
            code = cli.main([*argv, "--threads", str(threads),
                             "--out-dir", str(run_dir)])
        if code != 0:
            raise SystemExit(f"{tree}: {name} exited {code}")


def artifacts(out: Path) -> dict[str, bytes]:
    """Every command's files under out, keyed "command/file", as compared:
    a stdout with its run directory as <run-dir>, and a manifest without
    the fields that name the time and the run directory."""
    found = {}
    for path in sorted(out.glob("*/*")):
        data = path.read_bytes()
        if path.name == "stdout.txt":
            data = data.replace(str(path.parent).encode(), b"<run-dir>")
        elif path.name.endswith("_manifest.json"):
            manifest = json.loads(data)
            del manifest["timestamp"], manifest["outputs"]
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        found[f"{path.parent.name}/{path.name}"] = data
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path, nargs="?",
                        help="the tree to compare with")
    parser.add_argument("--work", type=Path, help="artifact directory")
    parser.add_argument("--layout", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.layout:
        tree, chunk, threads, out = args.layout
        run_layout(Path(tree), int(chunk), int(threads), Path(out))
        return 0
    if args.other is None:
        parser.error("the tree to compare with is required")

    work = args.work or Path(tempfile.mkdtemp(prefix="compare-artifacts-"))
    trees = {"this": Path(__file__).resolve().parents[1],
             "other": args.other.resolve()}
    outputs = {}
    for (side, tree), chunk, threads in itertools.product(
            trees.items(), CHUNKS, THREADS):
        out = work / side / f"chunk{chunk}-threads{threads}"
        print(f"running {side} tree at _CHUNK={chunk} --threads {threads}",
              flush=True)
        subprocess.run([sys.executable, __file__, "--layout", str(tree),
                        str(chunk), str(threads), str(out)],
                       check=True)
        outputs[side, chunk, threads] = artifacts(out)

    differ = 0
    for chunk, threads in itertools.product(CHUNKS, THREADS):
        this, other = outputs["this", chunk, threads], \
            outputs["other", chunk, threads]
        for name in sorted(this.keys() | other.keys()):
            if this.get(name) != other.get(name):
                differ += 1
                print(f"differs from the other tree at _CHUNK={chunk} "
                      f"--threads {threads}: {name}")
    for side in trees:
        first, *rest = [outputs[side, c, t]
                        for c, t in itertools.product(CHUNKS, THREADS)]
        for name in sorted(n for n in first if n.endswith(".csv")):
            if any(out.get(name) != first[name] for out in rest):
                differ += 1
                print(f"differs between layouts in the {side} tree: {name}")
    print(f"{differ} difference(s); artifacts under {work}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
