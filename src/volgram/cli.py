"""Command-line front end.

Subcommands compose the library stages::

    ingest    quotes CSV -> windows JSONL
    fit       windows JSONL -> per-window fit JSONL
    summary   fit JSONL -> error-statistics JSON
    km        fit JSONL or series JSON -> drift/diffusion JSON
    markov    fit JSONL or series JSON -> Markov-test JSON
    simulate  langevin | market generators
    pipeline  ingest -> fit -> summary -> km -> markov in one pass

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All file formats carry ``"format_version": 1`` and are strict JSON: a
value that cannot be computed (NaN or infinite) is written as ``null``.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys
from collections import deque
from itertools import chain, islice
from pathlib import Path
from typing import Iterable

# Every matrix product volgram makes is small enough for the calling
# thread, while the idle threads of the pool OpenBLAS starts when numpy
# loads cost each process CPU time (about 0.07 s per `km` on a 2-CPU
# machine).  A value the user exported wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import (distributions as dist, fitting, kramers_moyal as km_mod,
               langevin, market_data)
from .distributions import ALL_KINDS, ModelKind
from .errors import DataError, NumericalError, VolgramError, reading
from .market_data import FORMAT_VERSION, strict_dumps

log = logging.getLogger("volgram")

_FIT_CHUNK = 16     # windows JSONL lines handed to a fit worker at a time


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -2e-2 and -inf for options
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf$", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


# -- small io helpers ------------------------------------------------------

def _write_json(path: Path, payload: dict) -> None:
    payload = {"format_version": FORMAT_VERSION, **payload}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(strict_dumps(payload) + "\n")


def _write_series(path: Path, series: market_data.ParamSeries) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        market_data.write_series_json(series, fh)


def _line_chunks(path: Path, size: int):
    """(number of its first line, lines) of each run of ``size`` lines."""
    with open(path, "r", encoding="utf-8") as fh, reading(path):
        lineno = 1
        while lines := list(islice(fh, size)):
            yield lineno, lines
            lineno += len(lines)


def _parse_models(spec: str) -> tuple[ModelKind, ...]:
    kinds = []
    for name in spec.split(","):
        name = name.strip()
        try:
            kinds.append(ModelKind(name))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown model {name!r}; choose from "
                f"{', '.join(k.value for k in ALL_KINDS)}")
    return tuple(kinds)


def _parse_tau_range(spec: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tau range {spec!r}, expected LO:HI")
    if lo < 1 or hi - lo < 2:
        raise argparse.ArgumentTypeError(f"tau range {spec!r} needs 1 <= LO <= HI - 2")
    return lo, hi


def _ranged(kind, low, high=math.inf, low_open=False):
    """argparse type: a finite ``kind`` number in [low, high], or in
    (low, high] if ``low_open``."""
    rule = (f" in [{low}, {high}]" if high < math.inf
            else f" {'>' if low_open else '>='} {low}" if low > -math.inf
            else "")
    rule = f"{'an integer' if kind is int else 'a finite number'}{rule}"

    def parse(text: str):
        value = kind(text)
        above = value > low if low_open else value >= low
        if not (above and value <= high and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    # argparse names the type in its "invalid ... value" message
    parse.__name__ = kind.__name__
    return parse


_COUNT = _ranged(int, 1)
_FINITE = _ranged(float, -math.inf)


def _count_to(high: int, what: str) -> dict:
    """add_argument options of a count in [1, high], named in --help."""
    return {"type": _ranged(int, 1, high), "help": f"{what}, at most {high:,}"}


def _parse_column_map(spec: str) -> dict[str, str]:
    out = {}
    for pair in spec.split(","):
        try:
            key, value = pair.split("=")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad column mapping {pair!r}, expected name=csvcolumn")
        key = key.strip()
        if key not in market_data.REQUIRED_FIELDS:
            raise argparse.ArgumentTypeError(
                f"unknown field {key!r} in column mapping; choose from "
                f"{', '.join(market_data.REQUIRED_FIELDS)}")
        out[key] = value.strip()
    return out


# -- fit stage -------------------------------------------------------------

def _pool_size(jobs: int, n_tasks: int) -> int:
    """Workers: no more than jobs (0: any number), than the CPUs this
    process may run on, or than tasks."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(jobs or cpus, cpus, n_tasks)


def _worker_map(jobs: int):
    """A ``map(func, tasks)`` that yields in task order.  The pool is sized
    by ``_pool_size`` from the first two tasks per allowed worker and holds
    at most two tasks per worker; with one worker the tasks run here."""
    # only the pooled stages load the pool's modules, before they read a
    # task: imported with the first tasks in memory, they raised the
    # pipeline's peak RSS by about 1 MB
    from concurrent.futures import ProcessPoolExecutor

    def pooled(func, tasks):
        tasks = iter(tasks)
        head = list(islice(tasks, 2 * _pool_size(jobs, math.inf)))
        workers = _pool_size(jobs, len(head))
        if workers <= 1:
            yield from map(func, chain(head, tasks))
            return
        with ProcessPoolExecutor(max_workers=workers) as pool:
            in_flight = deque(pool.submit(func, task) for task in head)
            while in_flight:
                done = in_flight.popleft().result()
                in_flight.extend(pool.submit(func, t) for t in islice(tasks, 1))
                yield done
    return pooled


def _fit_chunk(task) -> list[tuple[dict, str | None]]:
    """Decode one chunk of windows JSONL lines; each window's fit row, and
    the data error (too few samples) that left every model of it failed."""
    source, first_lineno, lines, kinds = task
    out = []
    for window in market_data.read_windows_jsonl(lines, source, first_lineno):
        problem = None
        try:
            results = fitting.fit_window_all_models(window.samples, kinds=kinds)
        except DataError as err:
            results, problem = dict.fromkeys(kinds), f"{type(err).__name__}: {err}"
        out.append((market_data.fit_row_to_dict(window, results), problem))
    return out


def run_fit(windows_path: Path, output_path: Path,
            kinds: tuple[ModelKind, ...], jobs: int) -> list[dict]:
    """Fit every window of a windows JSONL file; write and return the rows."""
    tasks = ((windows_path, first, lines, kinds)
             for first, lines in _line_chunks(windows_path, _FIT_CHUNK))
    rows = []
    for row, problem in chain.from_iterable(_worker_map(jobs)(_fit_chunk, tasks)):
        if problem is not None:
            log.warning("fit: window_start %r not fitted: %s",
                        row["window_start"], problem)
        rows.append(row)
    if not rows:
        raise DataError(f"no windows in {windows_path}")
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(strict_dumps(row) + "\n")
    n_bad = sum(not all(m["converged"] for m in row["models"].values())
                for row in rows)
    log.info("fit: %d windows, %d with a non-converged model", len(rows), n_bad)
    return rows


def _series_from_args(args) -> km_mod.ParamSeries:
    if args.series:
        return market_data.read_series(Path(args.series))
    return market_data.fitted_series(market_data.read_fits_jsonl(args.input),
                                     ModelKind(args.model), args.param)


# -- report builders -------------------------------------------------------

def km_payload(moments: km_mod.ConditionalMoments,
               km: km_mod.KMCoefficients) -> dict:
    """The km.json report; the pipeline fills in ``markov``."""
    return {
        "bins": km.bin_centers.tolist(),
        "counts": km.counts.tolist(),
        "M1": moments.m1.tolist(),
        "M2": moments.m2.tolist(),
        "taus": moments.taus.tolist(),
        "D1": km.d1.tolist(),
        "D2": km.d2.tolist(),
        "D2_raw": km.d2_raw.tolist(),
        "a1": km.a1.tolist(),
        "a2": km.a2.tolist(),
        "noise_sigma": km.noise_sigma,
        "drift_slope": km.drift_slope,
        "phi_f": km.fixed_point,
        "sqrt_mean_d2": km.sqrt_mean_d2,
        "tau_fit_range": list(km.tau_fit_range),
        "markov": None,
    }


# -- plot data -------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v}" for v in row) + "\n")


def emit_plotdata(outdir: Path,
                  windows: Iterable[market_data.SnapshotWindow] | None = None,
                  fit_rows: list[dict] | None = None,
                  summary: dict | None = None,
                  km_report: dict | None = None) -> list[Path]:
    """Write the figure-analog CSV files for whatever reports are given.

    Files: cdf-fit.csv, param-series.csv, relerr-hist.csv,
    moments-vs-tau.csv, drift-diffusion.csv.  Empty reports produce
    header-only files.  cdf-fit.csv draws the first window whose fit row
    (``fit_rows`` in window order) has a converged model.
    """
    written = []
    names = [k.value for k in ALL_KINDS]

    if windows is not None and fit_rows is not None:
        path = outdir / "cdf-fit.csv"
        header = ["s", "F_empirical"] + [f"F_{n}" for n in names]
        rows = []
        drawn = next(((w, row["models"]) for w, row in zip(windows, fit_rows)
                      if any(m["converged"] for m in row["models"].values())),
                     None)
        if drawn:
            window, models = drawn
            ecdf = fitting.empirical_cdf(window.samples)
            cols = []
            for name in names:
                entry = models.get(name)
                if entry is None or not entry["converged"]:
                    cols.append(np.full(ecdf.s.size, np.nan))
                else:
                    params = fitting.ModelParams(ModelKind(name),
                                                 entry["phi"], entry["theta"])
                    cols.append(np.asarray(dist.cdf(params, ecdf.s)))
            for i in range(ecdf.s.size):
                rows.append([ecdf.s[i], ecdf.f[i]] + [c[i] for c in cols])
        _write_csv(path, header, rows)
        written.append(path)

    if fit_rows is not None:
        path = outdir / "param-series.csv"
        header = ["window_start"]
        for n in names:
            header += [f"phi_{n}", f"theta_{n}"]
        rows = []
        for row in sorted(fit_rows, key=lambda r: r["window_start"]):
            line = [row["window_start"]]
            for n in names:
                entry = row["models"].get(n)
                if entry is None or not entry["converged"]:
                    line += ["nan", "nan"]
                else:
                    line += [entry["phi"], entry["theta"]]
            rows.append(line)
        _write_csv(path, header, rows)
        written.append(path)

    if summary is not None:
        path = outdir / "relerr-hist.csv"
        header = ["bin_index"]
        for n in names:
            header += [f"phi_edge_{n}", f"phi_count_{n}",
                       f"theta_edge_{n}", f"theta_count_{n}"]
        rows = []
        models = summary.get("models", {})
        depth = max((len(m["hist_phi"]["counts"])
                     for m in models.values()), default=0)
        for i in range(depth):
            line = [i]
            for n in names:
                m = models.get(n)
                if m is None or i >= len(m["hist_phi"]["counts"]):
                    line += ["nan", "nan", "nan", "nan"]
                else:
                    line += [m["hist_phi"]["edges"][i], m["hist_phi"]["counts"][i],
                             m["hist_theta"]["edges"][i], m["hist_theta"]["counts"][i]]
            rows.append(line)
        _write_csv(path, header, rows)
        written.append(path)

    if km_report is not None:
        path = outdir / "moments-vs-tau.csv"
        rows = []
        bins = km_report.get("bins", [])
        taus = km_report.get("taus", [])
        for i, center in enumerate(bins):
            for j, tau in enumerate(taus):
                rows.append([center, tau,
                             km_report["M1"][i][j], km_report["M2"][i][j]])
        _write_csv(path, ["bin_center", "tau", "M1", "M2"], rows)
        written.append(path)

        path = outdir / "drift-diffusion.csv"
        rows = []
        for i, center in enumerate(bins):
            rows.append([center, km_report["counts"][i], km_report["D1"][i],
                         km_report["D2"][i], km_report["a1"][i],
                         km_report["a2"][i]])
        _write_csv(path, ["bin_center", "count", "D1", "D2", "a1", "a2"], rows)
        written.append(path)

    return written


# -- stages ----------------------------------------------------------------

def _ingest(args, output_path: Path) -> None:
    parsed = market_data.parse_quotes(args.input, args.column_map,
                                      args.window_len, _worker_map(args.jobs))
    log.info("ingest: %d records, %d malformed rows",
             parsed.n_records, parsed.n_malformed)
    built = market_data.build_windows(
        parsed.records, window_len=args.window_len,
        session_filter=args.session_filter, min_companies=args.min_companies)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w", encoding="utf-8") as fh:
        market_data.write_windows_jsonl(built.windows, fh)
    log.info("ingest: wrote %d windows (%d session-filtered, %d too small)",
             len(built.windows), built.n_session_filtered,
             built.n_below_min_companies)
    log.info("ingest: dropped %d zero-volume quotes", built.n_zero_volume_dropped)


def _km(series: km_mod.ParamSeries, args) -> dict:
    moments = km_mod.conditional_moments(series, n_bins=args.n_bins,
                                         tau_max=args.tau_max,
                                         min_count=args.min_count)
    return km_payload(moments, km_mod.km_estimate(moments, args.tau_fit))


def _markov(series: km_mod.ParamSeries, args, n_bins: int) -> dict:
    result = km_mod.markov_test(series, n_bins=n_bins, lag=args.lag,
                                min_cell_count=args.min_cell_count,
                                n_surrogates=args.surrogates,
                                threshold_percentile=args.percentile,
                                seed=args.seed)
    return {"distance": result.distance, "threshold": result.threshold,
            "pass": result.passed, "n_cells": result.n_cells}


# -- subcommand drivers ----------------------------------------------------

def _cmd_ingest(args) -> int:
    _ingest(args, Path(args.output))
    return 0


def _cmd_fit(args) -> int:
    run_fit(Path(args.input), Path(args.output), args.models, args.jobs)
    return 0


def _cmd_summary(args) -> int:
    rows = market_data.read_fits_jsonl(args.input)
    _write_json(Path(args.output), fitting.error_summary(rows, args.hist_bins))
    return 0


def _cmd_km(args) -> int:
    _write_json(Path(args.output), _km(_series_from_args(args), args))
    return 0


def _cmd_markov(args) -> int:
    _write_json(Path(args.output),
                _markov(_series_from_args(args), args, args.n_bins))
    return 0


def _cmd_simulate(args) -> int:
    out = Path(args.output)
    market = args.generator == "market"
    spec = langevin.LangevinSpec(
        dt=1.0 if market else args.dt,
        n_steps=args.windows if market else args.steps, initial=args.initial,
        seed=args.seed, drift_slope=args.drift_slope,
        fixed_point=args.fixed_point, diffusion=args.diffusion)
    if market:
        sim = langevin.simulate_market(args.companies, args.windows, spec,
                                       seed=args.seed)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            market_data.write_windows_jsonl(sim.windows, fh)
        if args.truth:
            _write_series(Path(args.truth), sim.truth)
    else:
        series = langevin.simulate_langevin(spec)
        if args.noise_sigma > 0.0:
            series = langevin.add_measurement_noise(series, args.noise_sigma,
                                                    seed=args.seed + 1)
        _write_series(out, series)
    return 0


def _cmd_pipeline(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    # a windows JSONL opens with "{" on its first non-blank line; a file
    # with none is an empty windows file
    with open(args.input, "r", encoding="utf-8") as fh, reading(args.input):
        first = next((line.strip() for line in fh if line.strip()), "{")
    windows_path = Path(args.input)
    if not first.startswith("{"):
        windows_path = outdir / "windows.jsonl"
        _ingest(args, windows_path)

    rows = run_fit(windows_path, outdir / "fits.jsonl", args.models, args.jobs)
    summary = fitting.error_summary(rows, args.hist_bins)
    _write_json(outdir / "summary.json", summary)

    series = market_data.fitted_series(rows, ModelKind(args.model), args.param)
    report = _km(series, args)
    report["markov"] = _markov(series, args, args.markov_bins)
    _write_json(outdir / "km.json", report)

    if args.plotdata:
        # decoded lazily, up to the first fitted window
        with open(windows_path, "r", encoding="utf-8") as fh:
            windows = market_data.read_jsonl(fh, windows_path,
                                             market_data.window_from_dict)
            emit_plotdata(outdir / "plotdata", windows=windows, fit_rows=rows,
                          summary=summary, km_report=report)
    return 0


# -- argument wiring -------------------------------------------------------

def _add_ingest_options(p):
    p.add_argument("--window-len", type=_ranged(float, 0.0, low_open=True), default=600.0)
    p.add_argument("--session-filter", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--min-companies", type=_COUNT, default=50)
    p.add_argument("--column-map", type=_parse_column_map, default=None,
                   help="field=column overrides, comma separated")


def _add_jobs_option(p):
    p.add_argument("--jobs", type=_ranged(int, 0), default=0,
                   help="worker processes (default 0: one per CPU)")


def _add_fit_options(p):
    p.add_argument("--models", type=_parse_models, default=ALL_KINDS,
                   help="comma list: gamma,inverse-gamma,log-normal,weibull")


def _add_model_options(p):
    p.add_argument("--model", default="inverse-gamma",
                   choices=[k.value for k in ALL_KINDS],
                   help="model whose parameter drives the Langevin analysis")
    p.add_argument("--param", choices=("phi", "theta"), default="phi")


def _add_km_options(p):
    p.add_argument("--n-bins", type=_COUNT, default=50)
    p.add_argument("--tau-max", type=_ranged(int, 3), default=10)
    p.add_argument("--tau-fit", type=_parse_tau_range, default="1:5",
                   help="lag fit range LO:HI")
    p.add_argument("--min-count", type=_COUNT, default=100)


def _add_markov_options(p, bins_flag="--n-bins"):
    p.add_argument(bins_flag, type=_COUNT, default=20)
    p.add_argument("--lag", type=_COUNT, default=1)
    p.add_argument("--min-cell-count", type=_COUNT, default=30)
    p.add_argument("--surrogates", default=100,
                   **_count_to(10**5, "shuffled series of the null"))
    p.add_argument("--percentile", type=_ranged(float, 0.0, 100.0), default=95.0)


def _add_series_source(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="fit JSONL file")
    group.add_argument("--series", help="parameter-series JSON file")
    _add_model_options(p)


def build_parser() -> _Parser:
    parser = _Parser(prog="volgram",
                     description="volume-price distribution fitting and "
                                 "tail-parameter Langevin reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="quotes CSV to windows JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_ingest_options(p)
    _add_jobs_option(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit model CDFs per window")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_fit_options(p)
    _add_jobs_option(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("summary", help="error statistics across windows")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--hist-bins", default=64,
                   **_count_to(10**5, "relative-error histogram bins"))
    p.set_defaults(func=_cmd_summary)

    p = sub.add_parser("km", help="drift/diffusion from a parameter series")
    _add_series_source(p)
    p.add_argument("--output", required=True)
    _add_km_options(p)
    p.set_defaults(func=_cmd_km)

    p = sub.add_parser("markov", help="two- vs three-point conditional test")
    _add_series_source(p)
    p.add_argument("--output", required=True)
    _add_markov_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_markov)

    p = sub.add_parser("simulate", help="synthetic generators")
    gen = p.add_subparsers(dest="generator", required=True)

    g = gen.add_parser("langevin")
    g.add_argument("--output", required=True)
    g.add_argument("--steps", default=10**5, **_count_to(10**7, "series length"))
    g.add_argument("--dt", type=_ranged(float, 0.0, low_open=True), default=1.0)
    g.add_argument("--initial", type=_FINITE, default=0.93)
    g.add_argument("--drift-slope", type=_FINITE, default=-0.05)
    g.add_argument("--fixed-point", type=_FINITE, default=0.93)
    g.add_argument("--diffusion", type=_ranged(float, 0.0), default=1e-6)
    g.add_argument("--noise-sigma", type=_ranged(float, 0.0), default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_simulate)

    g = gen.add_parser("market")
    g.add_argument("--output", required=True)
    g.add_argument("--truth", default=None,
                   help="also write the true parameter series JSON here")
    g.add_argument("--companies", default=2000,
                   **_count_to(10**5, "samples per window"))
    g.add_argument("--windows", default=1000, **_count_to(10**5, "windows"))
    g.add_argument("--initial", type=_FINITE, default=0.93)
    g.add_argument("--drift-slope", type=_FINITE, default=-0.05)
    g.add_argument("--fixed-point", type=_FINITE, default=0.93)
    g.add_argument("--diffusion", type=_ranged(float, 0.0), default=2e-4)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pipeline", help="ingest, fit, summary, km, markov")
    p.add_argument("--input", required=True,
                   help="quotes CSV or windows JSONL")
    p.add_argument("--outdir", required=True)
    _add_ingest_options(p)
    _add_fit_options(p)
    _add_jobs_option(p)
    p.add_argument("--hist-bins", default=64,
                   **_count_to(10**5, "relative-error histogram bins"))
    _add_model_options(p)
    _add_km_options(p)
    _add_markov_options(p, bins_flag="--markov-bins")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plotdata", action="store_true",
                   help="emit figure CSVs under OUTDIR/plotdata")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "pipeline" and ModelKind(args.model) not in args.models:
            parser.error(f"--model {args.model} is not among --models")
        if args.command in ("km", "pipeline") and args.tau_fit[1] > args.tau_max:
            parser.error(f"--tau-fit ends past --tau-max {args.tau_max}")
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except VolgramError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"out of memory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
