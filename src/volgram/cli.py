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
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import (distributions as dist, fitting, kramers_moyal as km_mod,
               langevin, market_data)
from .distributions import ALL_KINDS, ModelKind
from .errors import DataError, NumericalError, VolgramError
from .market_data import FORMAT_VERSION, strict_dumps

log = logging.getLogger("volgram")

_FIT_CHUNK = 16     # windows handed to a fit worker at a time
# FitResult fields stored in a fit row, after phi and theta
_FIT_FIELDS = ("rel_err_phi", "rel_err_theta", "rss", "converged", "iterations")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- small io helpers ------------------------------------------------------

def _write_json(path: Path, payload: dict) -> None:
    payload = {"format_version": FORMAT_VERSION, **payload}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(strict_dumps(payload) + "\n")


def _read_fit_rows(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if not rows:
        raise DataError(f"no fit rows in {path}")
    return rows


def _read_windows(path: Path) -> list[market_data.SnapshotWindow]:
    with open(path, "r", encoding="utf-8") as fh:
        windows = market_data.read_windows_jsonl(fh)
    if not windows:
        raise DataError(f"no windows in {path}")
    return windows


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
        lo, hi = spec.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tau range {spec!r}, expected LO:HI")


def _parse_column_map(spec: str) -> dict[str, str]:
    out = {}
    for pair in spec.split(","):
        try:
            key, value = pair.split("=")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad column mapping {pair!r}, expected name=csvcolumn")
        out[key.strip()] = value.strip()
    return out


# -- fit stage -------------------------------------------------------------

def _fit_one(args) -> dict:
    window, kinds = args
    results = fitting.fit_window_all_models(window.samples, kinds=kinds)
    models = {kind.value: {"phi": fr.params.phi, "theta": fr.params.theta,
                           **{key: getattr(fr, key) for key in _FIT_FIELDS}}
              for kind, fr in results.items()}
    return {"format_version": FORMAT_VERSION,
            "window_start": window.window_start,
            "window_len": window.window_len,
            "n_companies": window.n_companies,
            "models": models}


def _pool_size(jobs: int, n_windows: int) -> int:
    """Fit workers: no more than jobs (0: any number), than CPUs, or than chunks."""
    cpus = os.cpu_count() or 1
    return min(jobs or cpus, cpus, math.ceil(n_windows / _FIT_CHUNK))


def run_fit(windows: list[market_data.SnapshotWindow], output_path: Path,
            kinds: tuple[ModelKind, ...], jobs: int) -> list[dict]:
    """Fit every window; write and return the fit rows."""
    tasks = [(w, kinds) for w in windows]
    workers = _pool_size(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_fit_one, tasks, chunksize=_FIT_CHUNK))
    else:
        rows = [_fit_one(t) for t in tasks]
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(strict_dumps(row) + "\n")
    n_bad = sum(0 if all(m["converged"] for m in row["models"].values()) else 1
                for row in rows)
    log.info("fit: %d windows, %d with a non-converged model", len(rows), n_bad)
    return rows


def _results_from_rows(rows: list[dict]) -> list[dict[ModelKind, fitting.FitResult]]:
    def value(x):
        return math.nan if x is None else x     # strict JSON's null

    out = []
    for row in rows:
        per = {}
        for name, m in row["models"].items():
            kind = ModelKind(name)
            per[kind] = fitting.FitResult(
                params=fitting.ModelParams(kind, value(m["phi"]), value(m["theta"])),
                **{key: value(m[key]) for key in _FIT_FIELDS})
        out.append(per)
    return out


def series_from_fit_rows(rows: list[dict], model: ModelKind,
                         param: str = "phi") -> km_mod.ParamSeries:
    """Time-ordered parameter series from fit rows.

    Windows whose fit did not converge are dropped; every dropped window
    or hole in the window grid records a gap, so increments never span
    missing stretches.
    """
    rows = sorted(rows, key=lambda r: r["window_start"])
    times, values, gaps = [], [], []
    expected_next = None
    for row in rows:
        entry = row["models"].get(model.value)
        start = row["window_start"]
        step = row.get("window_len", 600.0)
        contiguous = expected_next is not None and abs(start - expected_next) < 1e-9
        if entry is not None and entry["converged"]:
            if times and not contiguous:
                gaps.append(len(times) - 1)
            times.append(start)
            values.append(entry[param])
        expected_next = start + step
    if len(values) < 2:
        raise DataError(f"fewer than 2 converged {model.value} fits")
    return km_mod.ParamSeries(times=np.asarray(times),
                              values=np.asarray(values),
                              dt=1.0, gaps=np.asarray(gaps, dtype=int))


def _series_from_args(args) -> km_mod.ParamSeries:
    if getattr(args, "series", None):
        doc = json.loads(Path(args.series).read_text(encoding="utf-8"))
        return km_mod.ParamSeries(times=np.asarray(doc["times"]),
                                  values=np.asarray(doc["values"]),
                                  dt=float(doc.get("dt", 1.0)),
                                  gaps=np.asarray(doc.get("gaps", []), dtype=int))
    rows = _read_fit_rows(Path(args.input))
    return series_from_fit_rows(rows, ModelKind(args.model), args.param)


def _series_payload(series: km_mod.ParamSeries) -> dict:
    return {"kind": "param-series",
            "dt": series.dt,
            "times": series.times.tolist(),
            "values": series.values.tolist(),
            "gaps": series.gaps.tolist()}


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
                  windows: list[market_data.SnapshotWindow] | None = None,
                  fit_rows: list[dict] | None = None,
                  summary: dict | None = None,
                  km_report: dict | None = None) -> list[Path]:
    """Write the figure-analog CSV files for whatever reports are given.

    Files: cdf-fit.csv, param-series.csv, relerr-hist.csv,
    moments-vs-tau.csv, drift-diffusion.csv.  Empty reports produce
    header-only files.
    """
    written = []
    names = [k.value for k in ALL_KINDS]

    if windows is not None and fit_rows is not None:
        path = outdir / "cdf-fit.csv"
        header = ["s", "F_empirical"] + [f"F_{n}" for n in names]
        rows = []
        if windows and fit_rows:
            window = windows[0]
            ecdf = fitting.empirical_cdf(window.samples)
            models = fit_rows[0]["models"]
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

def _ingest(input_path: Path, output_path: Path, window_len: float,
            session_filter: bool, min_companies: int,
            column_map: dict[str, str] | None) -> list[market_data.SnapshotWindow]:
    parsed = market_data.parse_quotes(input_path, column_map)
    log.info("ingest: %d records, %d malformed rows",
             len(parsed.records), parsed.n_malformed)
    built = market_data.build_windows(
        parsed.records, window_len=window_len,
        session_filter=session_filter, min_companies=min_companies)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w", encoding="utf-8") as fh:
        market_data.write_windows_jsonl(built.windows, fh)
    log.info("ingest: wrote %d windows (%d session-filtered, %d too small)",
             len(built.windows), built.n_session_filtered,
             built.n_below_min_companies)
    return built.windows


def _km(series: km_mod.ParamSeries, n_bins: int, tau_max: int, min_count: int,
        tau_range: tuple[int, int]) -> dict:
    moments = km_mod.conditional_moments(series, n_bins=n_bins, tau_max=tau_max,
                                         min_count=min_count)
    return km_payload(moments, km_mod.km_estimate(moments, tau_range))


def _markov(series: km_mod.ParamSeries, n_bins: int, lag: int,
            min_cell_count: int, surrogates: int, percentile: float,
            seed: int) -> dict:
    result = km_mod.markov_test(series, n_bins=n_bins, lag=lag,
                                min_cell_count=min_cell_count,
                                n_surrogates=surrogates,
                                threshold_percentile=percentile, seed=seed)
    return {"distance": result.distance, "threshold": result.threshold,
            "pass": result.passed, "n_cells": result.n_cells}


# -- subcommand drivers ----------------------------------------------------

def _cmd_ingest(args) -> int:
    _ingest(Path(args.input), Path(args.output), args.window_len,
            args.session_filter, args.min_companies, args.column_map)
    return 0


def _cmd_fit(args) -> int:
    run_fit(_read_windows(Path(args.input)), Path(args.output), args.models,
            args.jobs)
    return 0


def _cmd_summary(args) -> int:
    results = _results_from_rows(_read_fit_rows(Path(args.input)))
    _write_json(Path(args.output), fitting.error_summary(results, args.hist_bins))
    return 0


def _cmd_km(args) -> int:
    report = _km(_series_from_args(args), args.n_bins, args.tau_max,
                 args.min_count, args.tau_fit)
    _write_json(Path(args.output), report)
    if args.plotdata:
        emit_plotdata(Path(args.plotdata), km_report=report)
    return 0


def _cmd_markov(args) -> int:
    _write_json(Path(args.output), _markov(
        _series_from_args(args), args.n_bins, args.lag, args.min_cell_count,
        args.surrogates, args.percentile, args.seed))
    return 0


def _cmd_simulate(args) -> int:
    out = Path(args.output)
    if args.generator == "langevin":
        spec = langevin.LangevinSpec(
            dt=args.dt, n_steps=args.steps, initial=args.initial,
            seed=args.seed, drift_slope=args.drift_slope,
            fixed_point=args.fixed_point, diffusion=args.diffusion)
        series = langevin.simulate_langevin(spec)
        if args.noise_sigma > 0.0:
            series = langevin.add_measurement_noise(series, args.noise_sigma,
                                                    seed=args.seed + 1)
        _write_json(out, _series_payload(series))
    else:
        spec = langevin.LangevinSpec(
            dt=1.0, n_steps=args.windows, initial=args.initial,
            seed=args.seed, drift_slope=args.drift_slope,
            fixed_point=args.fixed_point, diffusion=args.diffusion)
        sim = langevin.simulate_market(args.companies, args.windows, spec,
                                       theta=args.theta, seed=args.seed)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            market_data.write_windows_jsonl(sim.windows, fh)
        if args.truth:
            _write_json(Path(args.truth), _series_payload(sim.truth))
    return 0


def _cmd_pipeline(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    # a windows JSONL opens with "{" on its first non-blank line; a file
    # with none is an empty windows file
    with open(args.input, "r", encoding="utf-8") as fh:
        first = next((line.strip() for line in fh if line.strip()), "{")
    if first.startswith("{"):
        windows = _read_windows(Path(args.input))
    else:
        windows = _ingest(Path(args.input), outdir / "windows.jsonl",
                          args.window_len, args.session_filter,
                          args.min_companies, args.column_map)

    rows = run_fit(windows, outdir / "fits.jsonl", args.models, args.jobs)
    summary = fitting.error_summary(_results_from_rows(rows), args.hist_bins)
    _write_json(outdir / "summary.json", summary)

    series = series_from_fit_rows(rows, ModelKind(args.model), args.param)
    report = _km(series, args.n_bins, args.tau_max, args.min_count, args.tau_fit)
    report["markov"] = _markov(series, args.markov_bins, args.lag,
                               args.min_cell_count, args.surrogates,
                               args.percentile, args.seed)
    _write_json(outdir / "km.json", report)

    if args.plotdata:
        emit_plotdata(outdir / "plotdata", windows=windows, fit_rows=rows,
                      summary=summary, km_report=report)
    return 0


# -- argument wiring -------------------------------------------------------

def _add_ingest_options(p):
    p.add_argument("--window-len", type=float, default=600.0)
    p.add_argument("--session-filter", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--min-companies", type=int, default=50)
    p.add_argument("--column-map", type=_parse_column_map, default=None,
                   help="field=column overrides, comma separated")


def _add_fit_options(p):
    p.add_argument("--models", type=_parse_models, default=ALL_KINDS,
                   help="comma list: gamma,inverse-gamma,log-normal,weibull")
    p.add_argument("--jobs", type=int, default=0,
                   help="fit worker processes (default 0: one per core)")


def _add_model_options(p):
    p.add_argument("--model", default="inverse-gamma",
                   choices=[k.value for k in ALL_KINDS],
                   help="model whose parameter drives the Langevin analysis")
    p.add_argument("--param", choices=("phi", "theta"), default="phi")


def _add_km_options(p):
    p.add_argument("--n-bins", type=int, default=50)
    p.add_argument("--tau-max", type=int, default=10)
    p.add_argument("--tau-fit", type=_parse_tau_range, default="1:5",
                   help="lag fit range LO:HI")
    p.add_argument("--min-count", type=int, default=100)


def _add_markov_options(p, bins_flag="--n-bins"):
    p.add_argument(bins_flag, type=int, default=20)
    p.add_argument("--lag", type=int, default=1)
    p.add_argument("--min-cell-count", type=int, default=30)
    p.add_argument("--surrogates", type=int, default=100)
    p.add_argument("--percentile", type=float, default=95.0)


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
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit model CDFs per window")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_fit_options(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("summary", help="error statistics across windows")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--hist-bins", type=int, default=64)
    p.set_defaults(func=_cmd_summary)

    p = sub.add_parser("km", help="drift/diffusion from a parameter series")
    _add_series_source(p)
    p.add_argument("--output", required=True)
    _add_km_options(p)
    p.add_argument("--plotdata", default=None, help="directory for CSVs")
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
    g.add_argument("--steps", type=int, default=10**5)
    g.add_argument("--dt", type=float, default=1.0)
    g.add_argument("--initial", type=float, default=0.93)
    g.add_argument("--drift-slope", type=float, default=-0.05)
    g.add_argument("--fixed-point", type=float, default=0.93)
    g.add_argument("--diffusion", type=float, default=1e-6)
    g.add_argument("--noise-sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_simulate)

    g = gen.add_parser("market")
    g.add_argument("--output", required=True)
    g.add_argument("--truth", default=None,
                   help="also write the true parameter series JSON here")
    g.add_argument("--companies", type=int, default=2000)
    g.add_argument("--windows", type=int, default=1000)
    g.add_argument("--theta", type=float, default=1.0)
    g.add_argument("--initial", type=float, default=0.93)
    g.add_argument("--drift-slope", type=float, default=-0.05)
    g.add_argument("--fixed-point", type=float, default=0.93)
    g.add_argument("--diffusion", type=float, default=2e-4)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pipeline", help="ingest, fit, summary, km, markov")
    p.add_argument("--input", required=True,
                   help="quotes CSV or windows JSONL")
    p.add_argument("--outdir", required=True)
    _add_ingest_options(p)
    _add_fit_options(p)
    p.add_argument("--hist-bins", type=int, default=64)
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


if __name__ == "__main__":
    sys.exit(main())
