"""Byte-parity listing and value comparison of volgram's outputs on pinned seeds.

Usage::

    python3 tools/parity.py SRC OUTDIR
    python3 tools/parity.py --compare OLD_OUTDIR NEW_OUTDIR

Runs a fixed four-step recipe through ``python -m volgram.cli`` with
``PYTHONPATH=SRC`` inside OUTDIR (created if needed), then prints
``sha256  path`` for each of the 22 outputs and for the stderr log of
each step, paths relative to OUTDIR.  The quotes CSV comes from the
``perfbench/quotes.py`` next to this script, so every checkout being
compared reads the same input.  To compare two commits, run it once per
checkout (a second clone or ``git worktree add``) and ``diff`` the two
listings; any line that differs names an output that moved.

``--compare`` reads two OUTDIRs written by the recipe (parent first) and
reports how far the values moved, for changes that cannot keep byte
parity:

* each fit row of the three ``fits.jsonl``: |dphi| and |dtheta| in units
  of the row's reported standard error (``rel_err * |param|``, the
  smaller of old and new), and whether the converged flags agree.  Per
  file and model it prints the largest moves, then every row that moved
  by more than 1e-3 SE or changed its flag;
* each number in the ``km.json``, ``markov.json`` and ``summary.json``
  files: the largest relative change per key (list entries share their
  key), a key whose number of values changed, and any other value (the
  Markov verdict) that differs;
* each window of the ``windows.jsonl`` files: the window starts and
  ``n_companies`` must be equal, and the sorted samples and ``mean_s``
  equal within 1e-12 relative (the order of the samples in a window and
  the summation order of its mean may change);
* for each Markov result (``markov.json``, and the ``markov`` entry of a
  pipeline's ``km.json``), its distance/threshold ratio, old -> new.
  This only reports; it does not enter the gate.

It exits 1 if a converged fit moved by more than 1e-3 SE, a converged
flag changed, a window or a key's value count changed, a non-numeric
value differs, or a window breaches its tolerance, and 0 otherwise.

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
import json
import math
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


FIT_FILES = [rel for rel in OUTPUTS if rel.endswith("fits.jsonl")]
NUMBER_FILES = [rel for rel in OUTPUTS
                if rel.endswith(("km.json", "markov.json", "summary.json"))]
WINDOW_FILES = [rel for rel in OUTPUTS if rel.endswith("windows.jsonl")]
SE_GATE = 1e-3
WINDOW_RTOL = 1e-12


def _fit_rows(path: Path) -> dict[float, dict]:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {row["window_start"]: row["models"] for row in rows}


def _se_move(old: dict, new: dict, param: str) -> float:
    """|new - old| of a parameter in units of the smaller of the two rows'
    reported standard errors; a stalled fit reports a huge one."""
    se = min((row[f"rel_err_{param}"] or math.nan) * abs(row[param])   # null: unknown
             for row in (old, new))
    delta = abs(new[param] - old[param])
    return delta / se if se > 0.0 else (0.0 if delta == 0.0 else math.inf)


def _describe(entry: dict) -> str:
    state = "converged" if entry["converged"] else "failed"
    return (f"phi={entry['phi']!r} theta={entry['theta']!r} "
            f"rss={entry['rss']!r} {state}")


def _compare_fits(rel: str, old_dir: Path, new_dir: Path) -> int:
    """Print the moves of one fit file; return how many breach the gate."""
    old, new = _fit_rows(old_dir / rel), _fit_rows(new_dir / rel)
    breaches = len(old.keys() ^ new.keys())
    if breaches:
        print(f"{rel}: window starts differ: only old {sorted(old.keys() - new.keys())}, "
              f"only new {sorted(new.keys() - old.keys())}")
    starts = sorted(old.keys() & new.keys())
    models = sorted({m for s in starts for m in old[s]})
    for model in models:
        moves, flagged, both, flips = {"phi": 0.0, "theta": 0.0}, [], 0, 0
        for start in starts:
            o, n = old[start].get(model), new[start].get(model)
            if o is None or n is None:
                continue
            if o["converged"] != n["converged"]:
                flips += 1
                flagged.append((start, "flag changed", o, n))
                continue
            if not o["converged"]:
                continue
            both += 1
            row = {param: _se_move(o, n, param) for param in moves}
            for param, move in row.items():
                moves[param] = max(moves[param], move)
            if max(row.values()) > SE_GATE:
                flagged.append((start, f"|dphi| {row['phi']:.3g} SE, "
                                       f"|dtheta| {row['theta']:.3g} SE", o, n))
        print(f"{rel} {model}: {len(starts)} rows, {both} converged in both, "
              f"{flips} flags differ, "
              f"max |dphi| {moves['phi']:.3g} SE, max |dtheta| {moves['theta']:.3g} SE")
        for start, why, o, n in flagged:
            print(f"  window {start!r}: {why}\n    old {_describe(o)}\n"
                  f"    new {_describe(n)}")
        breaches += len(flagged)
    return breaches


def _rel_diff(old: list[float], new: list[float]) -> float:
    """Largest |new - old| / |old| over paired values (inf if lengths differ)."""
    if len(old) != len(new):
        return math.inf
    return max((abs(b - a) / abs(a) if a != 0 else (0.0 if a == b else math.inf)
                for a, b in zip(old, new)), default=0.0)


def _compare_windows(rel: str, old_dir: Path, new_dir: Path) -> int:
    """Print the moves of one windows file; return how many breach the gate."""
    sides = []
    for root in (old_dir, new_dir):
        with open(root / rel, encoding="utf-8") as fh:
            sides.append([json.loads(line) for line in fh if line.strip()])
    old, new = sides
    if [w["window_start"] for w in old] != [w["window_start"] for w in new]:
        print(f"{rel}: window starts differ ({len(old)} -> {len(new)} windows)")
        return 1
    moves = {"samples": 0.0, "mean_s": 0.0}
    flagged = []
    for o, n in zip(old, new):
        row = {"samples": _rel_diff(sorted(o["samples"]), sorted(n["samples"])),
               "mean_s": _rel_diff([o["mean_s"]], [n["mean_s"]])}
        for key, move in row.items():
            moves[key] = max(moves[key], move)
        if o["n_companies"] != n["n_companies"] or max(row.values()) > WINDOW_RTOL:
            flagged.append(f"  window {o['window_start']!r}: n_companies "
                           f"{o['n_companies']} -> {n['n_companies']}, "
                           + ", ".join(f"{k} {v:.3g}" for k, v in row.items()))
    print(f"{rel}: {len(old)} windows, max relative change "
          + ", ".join(f"{k} {v:.3g}" for k, v in moves.items()))
    for line in flagged:
        print(line)
    return len(flagged)


def _leaves(doc, key: str = ""):
    """(key path, value) of every scalar; list indices do not enter the key."""
    if isinstance(doc, dict):
        for name, value in doc.items():
            yield from _leaves(value, f"{key}.{name}" if key else name)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value, key)
    else:
        yield key, doc


def _markov(doc: dict) -> dict | None:
    """The Markov result of a markov.json or pipeline km.json, if any."""
    doc = doc.get("markov", doc)
    return doc if isinstance(doc, dict) and "threshold" in doc else None


def _compare_numbers(rel: str, old_dir: Path, new_dir: Path) -> int:
    """Print the moves of one number file; return how many breach the gate."""
    values: dict[str, tuple[list, list]] = {}
    markov = []
    for side, root in enumerate((old_dir, new_dir)):
        doc = json.loads((root / rel).read_text(encoding="utf-8"))
        markov.append(_markov(doc))
        for key, value in _leaves(doc):
            values.setdefault(key, ([], []))[side].append(value)
    lines, breaches = [], 0
    for key, (old, new) in values.items():
        if len(old) != len(new):
            lines.append(f"  {key}: {len(old)} values -> {len(new)}")
            breaches += 1
            continue
        changes = []
        for a, b in zip(old, new):
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in (a, b)):
                if a != b:
                    lines.append(f"  {key}: {a!r} -> {b!r}")
                    breaches += 1
                continue
            delta = abs(b - a)
            changes.append(delta / abs(a) if a != 0 else (0.0 if delta == 0 else math.inf))
        if changes and max(changes) > 0.0:
            lines.append(f"  {key}: max relative change {max(changes):.3g}")
    print(f"{rel}: {len(values)} keys, {len(lines)} moved")
    for line in lines:
        print(line)
    if all(markov):
        print("  markov distance/threshold: "
              + " -> ".join(f"{r['distance'] / r['threshold']:.4g}" for r in markov))
    return breaches


def compare(old_dir: Path, new_dir: Path) -> int:
    breaches = sum(_compare_fits(rel, old_dir, new_dir) for rel in FIT_FILES)
    breaches += sum(_compare_numbers(rel, old_dir, new_dir) for rel in NUMBER_FILES)
    breaches += sum(_compare_windows(rel, old_dir, new_dir) for rel in WINDOW_FILES)
    print(f"{breaches} breaches of the value-parity gate")
    return 1 if breaches else 0


def _run(argv: list[str], cwd: Path, env: dict, log) -> None:
    proc = subprocess.run(argv, cwd=cwd, env=env, stderr=subprocess.PIPE)
    log.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 2:
        print("usage: python3 tools/parity.py SRC OUTDIR\n"
              "       python3 tools/parity.py --compare OLD_OUTDIR NEW_OUTDIR",
              file=sys.stderr)
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
