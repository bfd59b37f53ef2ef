"""Benchmark of the volgram CLI on four seeded workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload invgamma-pipeline --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's inputs are prepared three times
(``setup_s`` is the median), then its ``volgram`` commands run as
subprocesses in whole rounds until ``--seconds`` would be exceeded.
Each round's outputs are checked; ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` are medians over the rounds.  With ``--trace 1`` every
workload is replayed once, serially in this process, with spans around
the calls into each volgram module, and the per-layer metrics are
printed (see tracing.py).  The last line of stdout is one JSON object.

The program under test is the ``src/volgram`` package of the checkout
that holds this file; no installed copy is used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Outcome  # noqa: E402


@dataclass
class Usage:
    wall: float
    cpu: float
    rss_mb: float


class Subprocesses:
    """Runs ``python -m volgram.cli`` on this checkout's sources.

    Each command's stderr goes to ``<cwd>/<label>.log``; its CPU time and
    peak resident set include the worker processes it waited for.
    """

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if k != "VOLGRAM_JOBS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.logs: dict[str, str] = {}

    def __call__(self, argv: list[str], cwd: Path, label: str = "setup") -> Usage:
        log_path = cwd / f"{label}.log"
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "volgram.cli", *argv],
                                    cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=log)
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.logs[label] = log_path.read_text(encoding="utf-8")
        if proc.returncode != 0:
            raise RuntimeError(f"volgram {' '.join(argv)} exited with "
                               f"{proc.returncode}: {self.logs[label].strip()}")
        return Usage(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def fit_jobs() -> int:
    """--jobs for every fitting command: two workers, or fewer CPUs if fewer."""
    return min(2, len(os.sched_getaffinity(0)))


def measure(name: str, seed: int, seconds: float, work: Path) -> dict:
    workload = WORKLOADS[name]()
    run = Subprocesses()
    jobs = fit_jobs()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        truth = workload.setup(run, work, seed)
        setup_times.append(time.perf_counter() - t0)

    rounds: list[tuple[list[tuple[str, Usage]], Outcome]] = []
    start = time.perf_counter()
    while True:
        usages = [(label, run(argv, work, label))
                  for label, argv in workload.commands(work, seed, jobs)]
        rounds.append((usages, workload.check(work, seed, truth, run.logs)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break

    median = statistics.median
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median([sum(u.wall for _, u in us) for us, _ in rounds]), "s"),
        "cpu_s": (median([sum(u.cpu for _, u in us) for us, _ in rounds]), "s"),
        "peak_rss_mb": (median([max(u.rss_mb for _, u in us) for us, _ in rounds]), "MB"),
    }

    def command_wall(*labels):
        return median([u.wall for us, _ in rounds for label, u in us if label in labels])

    last = rounds[-1][1]
    extras = dict(last.info)
    if last.windows:
        extras["windows_per_s"] = (last.windows / command_wall("fit", "pipeline"),
                                   "windows/s")
    if last.rows:
        extras["rows_per_s"] = (last.rows / command_wall("ingest"), "rows/s")
    problems = sorted({p for _, o in rounds for p in o.problems})
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"{name}: seed {seed}, {len(rounds)} rounds, --jobs {jobs}")
    for key, (value, unit) in {**metrics, **extras}.items():
        print(f"  {key} = {value:.6g} {unit}")
    return {"correct": not problems,
            "attempted": sum(o.attempted for _, o in rounds),
            "failed": sum(o.failed for _, o in rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "volgram" / "cli.py").is_file():
        print(f"no volgram sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            import tracing
            result = tracing.traced_run(args.workload, args.seed, work, RUNS,
                                        fit_jobs(), Subprocesses())
        else:
            result = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
