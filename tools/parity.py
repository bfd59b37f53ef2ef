"""Byte-parity listing of volgram's outputs on pinned seeds.

Usage::

    python3 tools/parity.py SRC OUTDIR

Runs a fixed four-step recipe through ``python -m volgram.cli`` with
``PYTHONPATH=SRC`` inside OUTDIR (created if needed), then prints
``sha256  path`` for each of the 22 outputs and for the stderr log of
each step, paths relative to OUTDIR.  The quotes CSV comes from the
``perfbench/quotes.py`` next to this script, so every checkout being
compared reads the same input.  To compare two commits, run it once per
checkout (a second clone or ``git worktree add``) and ``diff`` the two
listings; any line that differs names an output that moved.

Steps (all other options default):

1. ``simulate market`` of 140 windows (seed 119), then ``pipeline``
   with the inverse-gamma fit and plot data;
2. a 40-window market with the same settings, ``fit`` of all four
   models and ``summary``;
3. a seed-3 quotes day, then ``pipeline`` from the CSV with plot data;
4. ``simulate langevin`` of 5e5 steps with measurement noise, then
   ``km`` and ``markov`` on the series.

Uses only the standard library; the recipe itself needs numpy.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
VOLGRAM = [sys.executable, "-m", "volgram.cli"]

MARKET = ["--companies", "2000", "--initial", "0.93", "--fixed-point", "0.93",
          "--drift-slope", "-0.2", "--diffusion", "2e-4", "--seed", "119"]

STEPS = {
    "p1": [
        [*VOLGRAM, "simulate", "market", "--output", "m140.jsonl", "--windows", "140",
         *MARKET],
        [*VOLGRAM, "pipeline", "--input", "m140.jsonl", "--outdir", "p1",
         "--models", "inverse-gamma", "--plotdata", "--n-bins", "6",
         "--tau-max", "3", "--tau-fit", "1:3", "--min-count", "5",
         "--markov-bins", "4", "--min-cell-count", "5", "--seed", "1"],
    ],
    "p2": [
        [*VOLGRAM, "simulate", "market", "--output", "m40.jsonl", "--windows", "40",
         *MARKET],
        [*VOLGRAM, "fit", "--input", "m40.jsonl", "--output", "p2/fits.jsonl",
         "--models", "gamma,inverse-gamma,log-normal,weibull"],
        [*VOLGRAM, "summary", "--input", "p2/fits.jsonl", "--output", "p2/summary.json"],
    ],
    "p3": [
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import quotes; quotes.generate('q.csv', 3)", str(PERFBENCH)],
        [*VOLGRAM, "pipeline", "--input", "q.csv", "--outdir", "p3",
         "--models", "inverse-gamma", "--plotdata", "--n-bins", "3",
         "--tau-max", "3", "--tau-fit", "1:3", "--min-count", "3",
         "--markov-bins", "2", "--min-cell-count", "3"],
    ],
    "p4": [
        [*VOLGRAM, "simulate", "langevin", "--output", "p4/series.json",
         "--steps", "500000", "--drift-slope", "-0.02", "--diffusion", "1e-6",
         "--noise-sigma", "3e-3", "--seed", "5"],
        [*VOLGRAM, "km", "--series", "p4/series.json", "--output", "p4/km.json",
         "--tau-fit", "1:3"],
        [*VOLGRAM, "markov", "--series", "p4/series.json", "--output", "p4/markov.json",
         "--seed", "1"],
    ],
}

PLOTDATA = ["cdf-fit.csv", "drift-diffusion.csv", "moments-vs-tau.csv",
            "param-series.csv", "relerr-hist.csv"]

OUTPUTS = (
    ["p1/fits.jsonl", "p1/summary.json", "p1/km.json"]
    + [f"p1/plotdata/{name}" for name in PLOTDATA]
    + ["p2/fits.jsonl", "p2/summary.json"]
    + ["p3/windows.jsonl", "p3/fits.jsonl", "p3/summary.json", "p3/km.json"]
    + [f"p3/plotdata/{name}" for name in PLOTDATA]
    + ["p4/series.json", "p4/km.json", "p4/markov.json"]
)


def _run(argv: list[str], cwd: Path, env: dict, log) -> None:
    proc = subprocess.run(argv, cwd=cwd, env=env, stderr=subprocess.PIPE)
    log.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/parity.py SRC OUTDIR", file=sys.stderr)
        return 1
    src, outdir = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "volgram" / "cli.py").is_file():
        sys.exit(f"{src} holds no volgram package")
    outdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, commands in STEPS.items():
        with open(outdir / f"{name}.log", "wb") as log:
            for command in commands:
                _run(command, outdir, env, log)
    for rel in OUTPUTS + [f"{name}.log" for name in STEPS]:
        digest = hashlib.sha256((outdir / rel).read_bytes()).hexdigest()
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
