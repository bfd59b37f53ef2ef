"""CLI behavior: subcommands, exit codes, file formats, composability."""

import csv
import importlib
import json
import logging
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest

import volgram
from volgram.cli import _pool_size, _worker_map, emit_plotdata, main
from volgram.kramers_moyal import (ParamSeries, conditional_moments,
                                   km_estimate)
from volgram.market_data import SnapshotWindow, write_windows_jsonl

NY = ZoneInfo("America/New_York")


def _quotes_csv(path: Path, companies=(60,) * 4):
    """One 10-minute window from 10:00 per entry, with that many companies."""
    start = datetime(2011, 3, 16, 10, 0, tzinfo=NY).timestamp()
    rng = np.random.default_rng(123)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "symbol", "last_price", "volume"])
        for w, n_symbols in enumerate(companies):
            for i in range(n_symbols):
                ts = start + 600 * w + rng.integers(0, 600)
                price = float(rng.uniform(5, 50))
                volume = float(rng.integers(1, 10_000))
                writer.writerow([ts, f"S{i:03d}", price, volume])


def _strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _simulate_market_files(tmp_path, windows=160, companies=120, seed=9):
    out = tmp_path / "windows.jsonl"
    truth = tmp_path / "truth.json"
    rc = main(["simulate", "market", "--output", str(out),
               "--truth", str(truth), "--companies", str(companies),
               "--windows", str(windows), "--diffusion", "2e-4",
               "--seed", str(seed)])
    assert rc == 0
    return out, truth


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_model_is_usage_error(tmp_path, capsys):
    out, _ = _simulate_market_files(tmp_path, windows=12, companies=30)
    rc = main(["fit", "--input", str(out), "--output",
               str(tmp_path / "f.jsonl"), "--models", "cauchy", "--jobs", "1"])
    assert rc == 1
    fits = tmp_path / "fits.jsonl"
    assert main(["fit", "--input", str(out), "--output", str(fits),
                 "--models", "inverse-gamma", "--jobs", "1"]) == 0
    capsys.readouterr()
    for stage in ("km", "markov"):
        rc = main([stage, "--input", str(fits), "--output",
                   str(tmp_path / f"{stage}.json"), "--model", "cauchy"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / f"{stage}.json").exists()
    # rejected before the fit stage runs, as is a --model that is not fitted
    for extra in (["--model", "cauchy"],
                  ["--models", "gamma", "--model", "inverse-gamma"]):
        rc = main(["pipeline", "--input", str(out), "--outdir",
                   str(tmp_path / "pipe"), "--jobs", "1"] + extra)
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "pipe" / "fits.jsonl").exists()


def test_missing_file_is_data_error(tmp_path):
    rc = main(["fit", "--input", str(tmp_path / "absent.jsonl"),
               "--output", str(tmp_path / "out.jsonl"), "--jobs", "1"])
    assert rc == 2


def test_empty_windows_file_is_data_error(tmp_path, capsys):
    empty = tmp_path / "windows.jsonl"
    empty.write_text("")
    rc = main(["fit", "--input", str(empty), "--output",
               str(tmp_path / "fits.jsonl"), "--jobs", "1"])
    assert rc == 2
    assert f"no windows in {empty}" in capsys.readouterr().err
    rc = main(["pipeline", "--input", str(empty), "--outdir",
               str(tmp_path / "pipe"), "--jobs", "1"])
    assert rc == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "fits.jsonl").exists()
    assert not (tmp_path / "pipe" / "fits.jsonl").exists()


def test_malformed_windows_line_is_data_error(tmp_path, capsys):
    out, _ = _simulate_market_files(tmp_path, windows=3, companies=20)
    good = out.read_text().splitlines()
    for name, bad in (("version", '{"format_version": 2, "window_start": 0}'),
                      ("broken", '{"window_start": 0,')):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(good[:2] + [bad] + good[2:]) + "\n")
        for argv in (["fit", "--output", str(tmp_path / f"{name}-fits.jsonl")],
                     ["pipeline", "--outdir", str(tmp_path / f"{name}-pipe")]):
            rc = main(argv + ["--input", str(path), "--jobs", "1"])
            err = capsys.readouterr().err
            assert rc == 2
            assert f"data error: {path} line 3: " in err
            assert "Traceback" not in err
        assert not (tmp_path / f"{name}-fits.jsonl").exists()


def test_pipeline_detects_windows_after_blank_lines(tmp_path, capsys):
    out, _ = _simulate_market_files(tmp_path, windows=30, companies=60)
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n  \n" + out.read_text())
    pipe_dir = tmp_path / "pipe"
    rc = main(["pipeline", "--input", str(padded), "--outdir", str(pipe_dir),
               "--models", "inverse-gamma", "--n-bins", "2", "--tau-max", "3",
               "--tau-fit", "1:3", "--min-count", "1", "--markov-bins", "2",
               "--min-cell-count", "1", "--jobs", "1"])
    assert rc == 0
    assert len((pipe_dir / "fits.jsonl").read_text().splitlines()) == 30
    assert not (pipe_dir / "windows.jsonl").exists()
    for text in ("", "\n\n"):
        blank = tmp_path / "blank.jsonl"
        blank.write_text(text)
        rc = main(["pipeline", "--input", str(blank), "--outdir",
                   str(tmp_path / "blank-pipe"), "--jobs", "1"])
        assert rc == 2
        assert f"data error: no windows in {blank}" in capsys.readouterr().err


def test_bad_column_map_is_usage_error_for_windows_input(tmp_path, capsys):
    out, _ = _simulate_market_files(tmp_path, windows=12, companies=30)
    capsys.readouterr()
    # the windows input never reaches the CSV reader; the option is still checked
    rc = main(["pipeline", "--input", str(out), "--outdir", str(tmp_path / "pipe"),
               "--column-map", "bad", "--jobs", "1"])
    assert rc == 1
    assert "bad column mapping" in capsys.readouterr().err
    assert not (tmp_path / "pipe" / "fits.jsonl").exists()


def test_misspelled_column_map_field_is_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "quotes.csv"
    _quotes_csv(csv_path)
    windows = tmp_path / "windows.jsonl"
    rc = main(["ingest", "--input", str(csv_path), "--output", str(windows),
               "--column-map", "volum=volume"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --column-map: unknown field 'volum'")
    assert "timestamp, symbol, last_price, volume" in err
    assert not windows.exists()


def test_ingest_fit_summary_from_csv(tmp_path):
    csv_path = tmp_path / "quotes.csv"
    _quotes_csv(csv_path)
    windows = tmp_path / "windows.jsonl"
    rc = main(["ingest", "--input", str(csv_path), "--output", str(windows),
               "--min-companies", "50"])
    assert rc == 0
    lines = windows.read_text().strip().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["format_version"] == 1
    assert first["n_companies"] == 60

    fits = tmp_path / "fits.jsonl"
    rc = main(["fit", "--input", str(windows), "--output", str(fits),
               "--jobs", "1"])
    assert rc == 0
    row = json.loads(fits.read_text().splitlines()[0])
    assert set(row["models"]) == {"gamma", "inverse-gamma", "log-normal",
                                  "weibull"}

    summary = tmp_path / "summary.json"
    rc = main(["summary", "--input", str(fits), "--output", str(summary)])
    assert rc == 0
    doc = json.loads(summary.read_text())
    assert doc["format_version"] == 1
    assert doc["n_windows"] == 4


def test_ingest_counts_short_row_as_malformed(tmp_path, caplog):
    csv_path = tmp_path / "quotes.csv"
    csv_path.write_text("symbol,last_price,volume,timestamp\n"
                        "IBM,100.0,5000,2011-03-16T14:40:00Z\n"
                        "GE,17.5,120\n"
                        "AA,3.0,7,2011-03-16T14:41:00Z\n")
    caplog.set_level(logging.INFO, logger="volgram")
    rc = main(["ingest", "--input", str(csv_path),
               "--output", str(tmp_path / "windows.jsonl"),
               "--min-companies", "2"])
    assert rc == 0
    assert "ingest: 2 records, 1 malformed rows" in caplog.messages


def test_ingest_logs_zero_volume_drops(tmp_path, caplog):
    csv_path = tmp_path / "quotes.csv"
    csv_path.write_text("timestamp,symbol,last_price,volume\n"
                        "2011-03-16T14:40:00Z,IBM,100.0,5000\n"
                        "2011-03-16T14:41:00Z,GE,17.5,0\n"
                        "2011-03-16T14:42:00Z,AA,3.0,7\n"
                        "2011-03-16T14:43:00Z,XOM,80.0,0\n")
    caplog.set_level(logging.INFO, logger="volgram")
    rc = main(["ingest", "--input", str(csv_path),
               "--output", str(tmp_path / "windows.jsonl"),
               "--min-companies", "2"])
    assert rc == 0
    assert caplog.messages == [
        "ingest: 4 records, 0 malformed rows",
        "ingest: wrote 1 windows (0 session-filtered, 0 too small)",
        "ingest: dropped 2 zero-volume quotes"]


def test_ingest_jobs_and_ranges_give_identical_windows(tmp_path, caplog,
                                                      monkeypatch):
    csv_path = tmp_path / "quotes.csv"
    _quotes_csv(csv_path, companies=(60, 55, 70))
    caplog.set_level(logging.INFO, logger="volgram")
    outputs = {}
    for chunk, jobs in ((None, "1"), (300, "1"), (300, "2")):
        if chunk:       # about 8 rows a range, so 2 jobs start 2 workers
            monkeypatch.setattr("volgram.market_data._INGEST_CHUNK_BYTES", chunk)
        caplog.clear()
        out = tmp_path / f"windows-{chunk}-{jobs}.jsonl"
        assert main(["ingest", "--input", str(csv_path), "--output", str(out),
                     "--min-companies", "5", "--jobs", jobs]) == 0
        outputs[chunk, jobs] = (out.read_bytes(), caplog.messages)
    reference = outputs[None, "1"]
    assert reference[1][0] == "ingest: 185 records, 0 malformed rows"
    assert len(reference[0].splitlines()) == 3
    assert outputs[300, "1"] == reference
    assert outputs[300, "2"] == reference


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", ["not-utf8", "over-field-limit"])
def test_unreadable_quotes_is_data_error(tmp_path, capsys, monkeypatch, case,
                                         jobs):
    # the bad row is last, in a range of its own when two jobs parse
    monkeypatch.setattr("volgram.market_data._INGEST_CHUNK_BYTES", 300)
    csv_path = tmp_path / "quotes.csv"
    _quotes_csv(csv_path, companies=(60,))
    with open(csv_path, "ab") as fh:
        if case == "not-utf8":
            fh.write(b"1300000000,S\xff\xfe,10.0,100\n")
        else:
            fh.write(b"1300000000,S" + b"X" * csv.field_size_limit()
                     + b",10.0,100\n")
    for stage, argv in (("ingest", ["--output", str(tmp_path / "w.jsonl")]),
                        ("pipeline", ["--outdir", str(tmp_path / "pipe")])):
        rc = main([stage, "--input", str(csv_path), "--jobs", jobs] + argv)
        err = capsys.readouterr().err
        assert rc == 2
        kind = "UnicodeDecodeError" if case == "not-utf8" else "Error: field larger"
        assert f"data error: {csv_path}: {kind}" in err
    assert not (tmp_path / "w.jsonl").exists()


@pytest.mark.parametrize("stage", ["fit", "pipeline", "summary"])
def test_unreadable_jsonl_is_data_error(tmp_path, capsys, stage):
    out, _ = _simulate_market_files(tmp_path, windows=3, companies=20)
    path = out
    if stage == "summary":
        path = tmp_path / "fits.jsonl"
        assert main(["fit", "--input", str(out), "--output", str(path),
                     "--models", "inverse-gamma", "--jobs", "1"]) == 0
    with open(path, "ab") as fh:
        fh.write(b'{"window_start": \xff}\n')
    target = {"fit": ["--output", str(tmp_path / "f.jsonl"), "--jobs", "1"],
              "pipeline": ["--outdir", str(tmp_path / "pipe"), "--jobs", "1"],
              "summary": ["--output", str(tmp_path / "s.json")]}[stage]
    rc = main([stage, "--input", str(path)] + target)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"data error: {path}: UnicodeDecodeError: " in err
    assert not (tmp_path / "f.jsonl").exists()


def test_fit_model_filter(tmp_path):
    out, _ = _simulate_market_files(tmp_path, windows=12, companies=60)
    fits = tmp_path / "fits.jsonl"
    rc = main(["fit", "--input", str(out), "--output", str(fits),
               "--models", "inverse-gamma", "--jobs", "1"])
    assert rc == 0
    for line in fits.read_text().splitlines():
        assert list(json.loads(line)["models"]) == ["inverse-gamma"]


def test_km_and_markov_from_market(tmp_path):
    out, truth = _simulate_market_files(tmp_path)
    fits = tmp_path / "fits.jsonl"
    assert main(["fit", "--input", str(out), "--output", str(fits),
                 "--models", "inverse-gamma", "--jobs", "1"]) == 0
    km_doc = tmp_path / "km.json"
    rc = main(["km", "--input", str(fits), "--output", str(km_doc),
               "--n-bins", "5", "--tau-max", "5", "--tau-fit", "1:3",
               "--min-count", "10"])
    assert rc == 0
    doc = json.loads(km_doc.read_text())
    for key in ("bins", "counts", "M1", "M2", "D1", "D2", "noise_sigma",
                "drift_slope", "phi_f", "markov"):
        assert key in doc
    assert doc["markov"] is None

    mk_doc = tmp_path / "markov.json"
    rc = main(["markov", "--input", str(fits), "--output", str(mk_doc),
               "--n-bins", "4", "--min-cell-count", "5", "--seed", "3"])
    assert rc == 0
    doc = json.loads(mk_doc.read_text())
    assert set(doc) >= {"distance", "threshold", "pass"}


def test_km_from_simulated_series(tmp_path):
    series = tmp_path / "series.json"
    assert main(["simulate", "langevin", "--output", str(series),
                 "--steps", "20000", "--seed", "4"]) == 0
    km_doc = tmp_path / "km.json"
    rc = main(["km", "--series", str(series), "--output", str(km_doc),
               "--n-bins", "20", "--tau-max", "5", "--tau-fit", "1:3",
               "--min-count", "50"])
    assert rc == 0
    doc = json.loads(km_doc.read_text())
    assert doc["drift_slope"] < 0.0


SERIES_KEYS = {"format_version", "kind", "dt", "values", "gaps"}


def test_series_files_hold_only_what_is_read(tmp_path):
    series = tmp_path / "series.json"
    assert main(["simulate", "langevin", "--output", str(series),
                 "--steps", "2000", "--seed", "4"]) == 0
    assert set(_strict_json(series.read_text())) == SERIES_KEYS
    _, truth = _simulate_market_files(tmp_path, windows=5, companies=20)
    assert set(_strict_json(truth.read_text())) == SERIES_KEYS


def test_series_with_times_gives_the_same_km(tmp_path):
    # files written before the series lost its time axis still load
    series = tmp_path / "series.json"
    assert main(["simulate", "langevin", "--output", str(series),
                 "--steps", "20000", "--seed", "4"]) == 0
    doc = json.loads(series.read_text())
    doc["times"] = [600.0 * i for i in range(len(doc["values"]))]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    opts = ["--n-bins", "20", "--tau-max", "5", "--tau-fit", "1:3",
            "--min-count", "50"]
    for src in (series, old):
        assert main(["km", "--series", str(src), "--output",
                     str(tmp_path / f"km-{src.stem}.json")] + opts) == 0
    assert ((tmp_path / "km-old.json").read_bytes()
            == (tmp_path / "km-series.json").read_bytes())


# long enough for the default km and markov bins: only the fault stops them
_SERIES_VALUES = '"values": [' + ", ".join(["0.9", "0.91", "0.93"] * 200) + "]"


@pytest.mark.parametrize("stage", ["km", "markov"])
@pytest.mark.parametrize("text", [
    '{"values": [0.9, 0.91', '{"dt": 1.0}', "[1, 2]",
    "{" + _SERIES_VALUES + ', "gaps": [5000]}',
    "{" + _SERIES_VALUES + ', "gaps": [-1]}',
    "{" + _SERIES_VALUES + ', "gaps": [1.5]}',
    '{"values": [[1, 2], [3, 4]]}',
    "{" + _SERIES_VALUES + ', "dt": "2"}',
    "{" + _SERIES_VALUES + ', "dt": true}',
    '{"values": [' + ", ".join(['"0.9"', '"0.91"', '"0.93"'] * 200) + "]}",
    '{"values": [true, ' + ", ".join(["0.5", "0.91", "0.93"] * 200) + "]}",
], ids=["truncated", "no-values", "not-object", "gap-past-end", "negative-gap",
        "fractional-gap", "nested-values", "text-dt", "boolean-dt",
        "text-values", "boolean-value"])
def test_malformed_series_is_data_error(tmp_path, capsys, stage, text):
    path = tmp_path / "series.json"
    path.write_text(text)
    output = tmp_path / "out.json"
    rc = main([stage, "--series", str(path), "--output", str(output)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"data error: {path}: " in err
    assert "Traceback" not in err
    assert not output.exists()


@pytest.mark.parametrize("stage", ["km", "markov", "summary"])
def test_malformed_fit_row_is_data_error(tmp_path, capsys, stage):
    out, _ = _simulate_market_files(tmp_path, windows=12, companies=30)
    fits = tmp_path / "fits.jsonl"
    assert main(["fit", "--input", str(out), "--output", str(fits),
                 "--models", "inverse-gamma", "--jobs", "1"]) == 0
    good = fits.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(good[:2] + ['{"window_start": 0,'] + good[2:]) + "\n")
    capsys.readouterr()
    output = tmp_path / "out.json"
    rc = main([stage, "--input", str(bad), "--output", str(output)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"data error: {bad} line 3: JSONDecodeError: " in err
    assert "Traceback" not in err
    assert not output.exists()


_FIT = {"phi": 2.0, "theta": 1.0, "rel_err_phi": 0.1, "rel_err_theta": 0.1,
        "rss": 0.01, "converged": True, "iterations": 5}


def _fit_line(models, **fields):
    """A fit row of the second window with these models and fields."""
    return json.dumps({"window_start": 600.0, "window_len": 600.0,
                       "n_companies": 12, "models": models, **fields})


@pytest.mark.parametrize("stage", ["summary", "km", "markov"])
@pytest.mark.parametrize("line", [
    '{"window_start": 0}', '[1, 2]',
    '{"window_start": "0", "models": {}}',
    '{"window_start": true, "models": {}}',
    pytest.param('{"window_start": NaN, "models": {}}', id="nan-start"),
    pytest.param(_fit_line({}, window_len="x"), id="text-len"),
    pytest.param(_fit_line({"inverse-gamma": 3}), id="number-entry"),
    pytest.param(_fit_line({"inverse-gamma": {"phi": 2.0, "theta": 1.0}}),
                 id="no-converged"),
    pytest.param(_fit_line({"inverse-gamma": {**_FIT, "phi": "x"}}),
                 id="text-phi"),
    pytest.param(_fit_line({"inverse-gamma": {**_FIT, "rel_err_phi": 1e999}}),
                 id="infinite-rel-err"),
    pytest.param(_fit_line({}, format_version=2), id="format-version-2"),
])
def test_json_line_that_is_not_a_fit_row_is_data_error(tmp_path, capsys,
                                                      stage, line):
    good = json.dumps({"window_start": 0.0, "window_len": 600.0,
                       "n_companies": 12, "models": {"inverse-gamma": _FIT}})
    bad = tmp_path / "bad.jsonl"
    bad.write_text(good + "\n" + line + "\n")
    output = tmp_path / "out.json"
    rc = main([stage, "--input", str(bad), "--output", str(output)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"data error: {bad} line 2: " in err
    assert "Traceback" not in err
    assert not output.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_window_too_small_to_fit_is_a_failed_row(tmp_path, caplog,
                                                 monkeypatch, jobs):
    # one window per chunk, so two jobs start a pool of two workers
    monkeypatch.setattr("volgram.cli._FIT_CHUNK", 1)
    csv_path = tmp_path / "quotes.csv"
    _quotes_csv(csv_path, companies=(60, 5, 60))
    windows = tmp_path / "windows.jsonl"
    assert main(["ingest", "--input", str(csv_path), "--output", str(windows),
                 "--min-companies", "5"]) == 0
    fits = tmp_path / "fits.jsonl"
    caplog.set_level(logging.INFO, logger="volgram")
    rc = main(["fit", "--input", str(windows), "--output", str(fits),
               "--models", "inverse-gamma,log-normal", "--jobs", jobs])
    assert rc == 0
    rows = [_strict_json(line) for line in fits.read_text().splitlines()]
    assert [r["n_companies"] for r in rows] == [60, 5, 60]
    small = rows[1]["models"]
    assert list(small) == ["inverse-gamma", "log-normal"]
    for entry in small.values():
        assert entry == {"phi": None, "theta": None, "rel_err_phi": None,
                         "rel_err_theta": None, "rss": None,
                         "converged": False, "iterations": 0}
    assert all(m["converged"] for r in (rows[0], rows[2])
               for m in r["models"].values())
    start = rows[1]["window_start"]
    (warning,) = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert warning.getMessage() == (
        f"fit: window_start {start!r} not fitted: "
        "TooFewSamples: need at least 10 samples, got 5")
    assert "fit: 3 windows, 1 with a non-converged model" in caplog.messages
    assert main(["summary", "--input", str(fits),
                 "--output", str(tmp_path / "summary.json")]) == 0


def test_km_underpopulated_is_data_error(tmp_path):
    out, _ = _simulate_market_files(tmp_path, windows=12, companies=30)
    fits = tmp_path / "fits.jsonl"
    assert main(["fit", "--input", str(out), "--output", str(fits),
                 "--models", "inverse-gamma", "--jobs", "1"]) == 0
    rc = main(["km", "--input", str(fits), "--output",
               str(tmp_path / "km.json"), "--n-bins", "5", "--tau-max", "5",
               "--min-count", "500"])
    assert rc == 2


def test_bad_tau_range_is_usage_error(tmp_path):
    out, _ = _simulate_market_files(tmp_path, windows=12, companies=30)
    fits = tmp_path / "fits.jsonl"
    assert main(["fit", "--input", str(out), "--output", str(fits),
                 "--models", "inverse-gamma", "--jobs", "1"]) == 0
    rc = main(["km", "--input", str(fits), "--output",
               str(tmp_path / "km.json"), "--tau-fit", "nonsense"])
    assert rc == 1


@pytest.mark.parametrize("tau", [["--tau-fit", "3:1"], ["--tau-fit", "0:3"],
                                 ["--tau-fit", "1:9", "--tau-max", "5"]],
                         ids=" ".join)
def test_tau_range_is_checked_while_parsing(tmp_path, capsys, tau):
    series = tmp_path / "series.json"
    assert main(["simulate", "langevin", "--output", str(series),
                 "--steps", "20000", "--seed", "4"]) == 0
    output = tmp_path / "km.json"
    capsys.readouterr()
    assert main(["km", "--series", str(series), "--output", str(output),
                 "--n-bins", "20", "--min-count", "50"] + tau) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not output.exists()


def test_pipeline_tau_range_past_tau_max_is_usage_error(tmp_path, capsys):
    out, _ = _simulate_market_files(tmp_path, windows=12, companies=30)
    pipe_dir = tmp_path / "pipe"
    capsys.readouterr()
    rc = main(["pipeline", "--input", str(out), "--outdir", str(pipe_dir),
               "--tau-fit", "1:9", "--tau-max", "5", "--jobs", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (pipe_dir / "fits.jsonl").exists()


def test_km_and_pipeline_on_theta(tmp_path):
    out, _ = _simulate_market_files(tmp_path)
    fits = tmp_path / "fits.jsonl"
    assert main(["fit", "--input", str(out), "--output", str(fits),
                 "--models", "inverse-gamma", "--jobs", "1"]) == 0
    rows = sorted((json.loads(line) for line in fits.read_text().splitlines()),
                  key=lambda row: row["window_start"])
    entries = [row["models"]["inverse-gamma"] for row in rows]
    # every window fitted and the grid has no hole, so the series has no gap
    assert all(entry["converged"] for entry in entries)
    assert np.allclose(np.diff([row["window_start"] for row in rows]), 600.0)
    series = ParamSeries(values=np.array([entry["theta"] for entry in entries]))
    moments = conditional_moments(series, n_bins=5, tau_max=5, min_count=10)
    want = km_estimate(moments, (1, 3))

    km_doc = tmp_path / "km.json"
    opts = ["--param", "theta", "--n-bins", "5", "--tau-max", "5",
            "--tau-fit", "1:3", "--min-count", "10"]
    assert main(["km", "--input", str(fits), "--output", str(km_doc)] + opts) == 0
    got = json.loads(km_doc.read_text())
    for key, value in (("bins", want.bin_centers), ("counts", want.counts),
                       ("D1", want.d1), ("D2", want.d2), ("a2", want.a2),
                       ("drift_slope", want.drift_slope),
                       ("phi_f", want.fixed_point),
                       ("noise_sigma", want.noise_sigma)):
        assert np.array_equal(np.asarray(got[key], dtype=float), value,
                              equal_nan=True), key

    pipe_dir = tmp_path / "pipe"
    assert main(["pipeline", "--input", str(out), "--outdir", str(pipe_dir),
                 "--models", "inverse-gamma", "--markov-bins", "4",
                 "--min-cell-count", "5", "--jobs", "1"] + opts) == 0
    pipe_km = json.loads((pipe_dir / "km.json").read_text())
    assert pipe_km.pop("markov") is not None
    assert got.pop("markov") is None
    assert pipe_km == got


def test_pipeline_matches_individual_stages(tmp_path):
    out, _ = _simulate_market_files(tmp_path)
    opts = ["--models", "inverse-gamma", "--n-bins", "6", "--tau-max", "5",
            "--tau-fit", "1:3", "--min-count", "10"]
    pipe_dir = tmp_path / "pipe"
    rc = main(["pipeline", "--input", str(out), "--outdir", str(pipe_dir),
               "--markov-bins", "4", "--min-cell-count", "5",
               "--seed", "11", "--jobs", "1"] + opts)
    assert rc == 0

    fits = tmp_path / "stage_fits.jsonl"
    assert main(["fit", "--input", str(out), "--output", str(fits),
                 "--models", "inverse-gamma", "--jobs", "1"]) == 0
    assert fits.read_text() == (pipe_dir / "fits.jsonl").read_text()

    summary = tmp_path / "stage_summary.json"
    assert main(["summary", "--input", str(fits), "--output",
                 str(summary)]) == 0
    assert json.loads(summary.read_text()) == json.loads(
        (pipe_dir / "summary.json").read_text())

    km_doc = tmp_path / "stage_km.json"
    assert main(["km", "--input", str(fits), "--output", str(km_doc)]
                + opts[2:]) == 0
    pipe_km = json.loads((pipe_dir / "km.json").read_text())
    stage_km = json.loads(km_doc.read_text())
    pipe_markov = pipe_km.pop("markov")
    assert stage_km.pop("markov") is None
    assert stage_km == pipe_km

    markov_doc = tmp_path / "stage_markov.json"
    assert main(["markov", "--input", str(fits), "--output", str(markov_doc),
                 "--n-bins", "4", "--min-cell-count", "5", "--seed", "11"]) == 0
    stage_markov = json.loads(markov_doc.read_text())
    del stage_markov["format_version"]
    assert stage_markov == pipe_markov


def test_pipeline_from_csv_fits_the_windows_it_wrote(tmp_path):
    csv_path = tmp_path / "quotes.csv"
    _quotes_csv(csv_path, companies=(60,) * 30)
    pipe_dir = tmp_path / "pipe"
    rc = main(["pipeline", "--input", str(csv_path), "--outdir", str(pipe_dir),
               "--models", "inverse-gamma", "--n-bins", "2", "--tau-max", "3",
               "--tau-fit", "1:3", "--min-count", "1", "--markov-bins", "2",
               "--min-cell-count", "1", "--plotdata", "--jobs", "1"])
    assert rc == 0
    fits = tmp_path / "stage_fits.jsonl"
    assert main(["fit", "--input", str(pipe_dir / "windows.jsonl"),
                 "--output", str(fits), "--models", "inverse-gamma",
                 "--jobs", "1"]) == 0
    assert fits.read_bytes() == (pipe_dir / "fits.jsonl").read_bytes()
    assert len(fits.read_text().splitlines()) == 30


def test_outputs_are_strict_json(tmp_path):
    out, _ = _simulate_market_files(tmp_path, windows=3, companies=200)
    # a narrow cross-section: the gamma-family fits fail with phi = NaN
    s = 1.0 + 0.01 * np.random.default_rng(0).standard_normal(2000)
    narrow = SnapshotWindow(window_start=1800.0, window_len=600.0,
                            samples=s / s.mean(), mean_s=float(s.mean()),
                            n_companies=2000)
    with open(out, "a", encoding="utf-8") as fh:
        write_windows_jsonl([narrow], fh)

    fits = tmp_path / "fits.jsonl"
    assert main(["fit", "--input", str(out), "--output", str(fits),
                 "--models", "gamma,inverse-gamma", "--jobs", "1"]) == 0
    rows = [_strict_json(line) for line in fits.read_text().splitlines()]
    assert len(rows) == 4
    failed = rows[-1]["models"]["inverse-gamma"]
    assert failed["converged"] is False
    for key in ("phi", "theta", "rel_err_phi", "rel_err_theta", "rss"):
        assert failed[key] is None          # was NaN or Infinity
    assert all(r["models"]["inverse-gamma"]["converged"] for r in rows[:-1])

    summary = tmp_path / "summary.json"
    assert main(["summary", "--input", str(fits), "--output", str(summary)]) == 0
    doc = _strict_json(summary.read_text())
    assert doc["models"]["inverse-gamma"]["n_failed"] == 1

    series = tmp_path / "series.json"
    assert main(["simulate", "langevin", "--output", str(series),
                 "--steps", "2000", "--noise-sigma", "0.003", "--seed", "5"]) == 0
    km_doc = tmp_path / "km.json"
    assert main(["km", "--series", str(series), "--output", str(km_doc),
                 "--n-bins", "1", "--tau-max", "5", "--tau-fit", "1:3",
                 "--min-count", "100"]) == 0
    doc = _strict_json(km_doc.read_text())
    assert doc["phi_f"] is None             # one bin: no drift line, was NaN
    assert doc["noise_sigma"] > 0.0


def test_pipeline_plotdata_skips_a_window_too_small_to_fit(tmp_path):
    # a first window of 5 companies gets a failed fit row; cdf-fit.csv
    # draws the first fitted window instead of stopping the pipeline
    csv_path = tmp_path / "quotes.csv"
    _quotes_csv(csv_path, companies=(5,) + (60,) * 30)
    pipe_dir = tmp_path / "pipe"
    rc = main(["pipeline", "--input", str(csv_path), "--outdir", str(pipe_dir),
               "--min-companies", "5", "--models", "inverse-gamma",
               "--n-bins", "2", "--tau-max", "3", "--tau-fit", "1:3",
               "--min-count", "1", "--markov-bins", "2",
               "--min-cell-count", "1", "--plotdata", "--jobs", "1"])
    assert rc == 0
    rows = [json.loads(line) for line in
            (pipe_dir / "fits.jsonl").read_text().splitlines()]
    assert [r["n_companies"] for r in rows[:2]] == [5, 60]
    assert not rows[0]["models"]["inverse-gamma"]["converged"]
    with open(pipe_dir / "plotdata" / "cdf-fit.csv") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 60
    assert all(0.0 < float(line["F_inverse-gamma"]) < 1.0 for line in table)


def test_cdf_fit_plotdata_without_a_converged_fit_is_header_only(tmp_path):
    samples = np.linspace(0.5, 1.5, 12)
    window = SnapshotWindow(window_start=0.0, window_len=600.0,
                            samples=samples, mean_s=1.0, n_companies=12)
    row = {"window_start": 0.0, "window_len": 600.0, "n_companies": 12,
           "models": {"gamma": {"phi": None, "theta": None,
                                "converged": False}}}
    emit_plotdata(tmp_path, windows=[window], fit_rows=[row])
    assert (tmp_path / "cdf-fit.csv").read_text().count("\n") == 1


def test_pipeline_plotdata_files(tmp_path):
    out, _ = _simulate_market_files(tmp_path)
    pipe_dir = tmp_path / "pipe"
    rc = main(["pipeline", "--input", str(out), "--outdir", str(pipe_dir),
               "--models", "inverse-gamma", "--n-bins", "6", "--tau-max", "5",
               "--tau-fit", "1:3", "--min-count", "10",
               "--markov-bins", "4", "--min-cell-count", "5",
               "--plotdata", "--jobs", "1"])
    assert rc == 0
    plot = pipe_dir / "plotdata"
    km_doc = json.loads((pipe_dir / "km.json").read_text())
    dd = (plot / "drift-diffusion.csv").read_text().strip().splitlines()
    assert dd[0] == "bin_center,count,D1,D2,a1,a2"
    assert len(dd) == 1 + len(km_doc["bins"])
    mt = (plot / "moments-vs-tau.csv").read_text().strip().splitlines()
    assert len(mt) == 1 + len(km_doc["bins"]) * len(km_doc["taus"])
    for name in ("cdf-fit.csv", "param-series.csv", "relerr-hist.csv"):
        assert (plot / name).exists()


def test_emit_plotdata_empty_reports(tmp_path):
    paths = emit_plotdata(tmp_path, windows=[], fit_rows=[],
                          summary={"models": {}},
                          km_report={"bins": [], "taus": [], "M1": [],
                                     "M2": [], "counts": [], "D1": [],
                                     "D2": [], "a1": [], "a2": []})
    for p in paths:
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 1  # header only


def test_cdf_fit_plotdata_skips_failed_fits(tmp_path):
    samples = np.linspace(0.5, 1.5, 12)
    window = SnapshotWindow(window_start=0.0, window_len=600.0,
                            samples=samples, mean_s=1.0, n_companies=12)
    fit = {"phi": 2.0, "theta": 1.0, "rel_err_phi": 0.1,
           "rel_err_theta": 0.1, "rss": 0.01, "iterations": 5}
    row = {"window_start": 0.0, "window_len": 600.0, "n_companies": 12,
           "models": {"gamma": {**fit, "converged": True},
                      "inverse-gamma": {**fit, "converged": False}}}
    emit_plotdata(tmp_path, windows=[window], fit_rows=[row])
    with open(tmp_path / "cdf-fit.csv") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 12
    # a failed fit is not drawn, even with a finite phi
    assert all(line["F_inverse-gamma"] == "nan" for line in table)
    assert all(0.0 < float(line["F_gamma"]) < 1.0 for line in table)


def test_fit_pool_is_capped(monkeypatch):
    # computed only: no pool is started.  The CPUs are those the process
    # may run on, not every CPU of the machine
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert _pool_size(64, 10**6) == 4       # by the CPUs
    assert _pool_size(64, 2) == 2           # by the tasks
    assert _pool_size(64, 1) == 1
    assert _pool_size(3, 10**6) == 3        # by the request
    assert _pool_size(0, 10**6) == 4        # 0 asks for every CPU
    # without an affinity call the machine's count is the cap
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pool_size(64, 10**6) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(64, 10**6) == 1


def test_worker_map_counts_chunks_and_keeps_order(monkeypatch):
    # a stand-in pool records its size and the most tasks it held at once:
    # a task is held from its submit until its result is taken
    started, held, most = [], [0], [0]

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            held[0] -= 1
            return self.value

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, func, task):
            held[0] += 1
            most[0] = max(most[0], held[0])
            return Done(func(task))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr("volgram.cli.ProcessPoolExecutor", Pool)
    assert list(_worker_map(64)(abs, range(-100, 0))) == list(range(100, 0, -1))
    assert started == [4]                   # by the CPUs
    assert most == [8]                      # two tasks per worker
    # sized from the first 2 x 4 tasks; a lazy task stream works too
    assert list(_worker_map(64)(abs, iter([-3, -2, -1]))) == [3, 2, 1]
    assert list(_worker_map(2)(abs, (-i for i in range(9)))) == list(range(9))
    assert started == [4, 3, 2]
    assert held == [0]
    # one task, or one job, runs in this process
    assert list(_worker_map(64)(abs, [-7])) == [7]
    assert list(_worker_map(1)(abs, range(-5, 0))) == [5, 4, 3, 2, 1]
    assert list(_worker_map(0)(abs, [])) == []
    assert started == [4, 3, 2]


def test_fit_chunks_of_lines_give_the_same_bytes_at_any_jobs(tmp_path):
    # 44 windows and a blank line after every fifth are four chunks of 16
    out, _ = _simulate_market_files(tmp_path, windows=44, companies=30)
    lines = out.read_text().splitlines(keepends=True)
    padded = tmp_path / "padded.jsonl"
    padded.write_text("".join(line + ("\n" if i % 5 == 4 else "")
                              for i, line in enumerate(lines)))
    fits = {}
    for src, jobs in ((out, "1"), (padded, "1"), (padded, "2")):
        path = tmp_path / f"fits-{src.stem}-{jobs}.jsonl"
        assert main(["fit", "--input", str(src), "--output", str(path),
                     "--models", "inverse-gamma", "--jobs", jobs]) == 0
        fits[src.stem, jobs] = path.read_bytes()
    assert len(fits["padded", "2"].splitlines()) == 44
    assert fits["padded", "1"] == fits["padded", "2"] == fits["windows", "1"]


@pytest.mark.parametrize("stage", ["fit", "pipeline"])
def test_malformed_line_in_a_later_chunk_names_its_line(tmp_path, capsys,
                                                        stage):
    # line 41 is in the third chunk of 16 lines, fitted by a worker
    out, _ = _simulate_market_files(tmp_path, windows=60, companies=30)
    lines = out.read_text().splitlines()
    lines[40] = '{"window_start": 0,'
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    target = {"fit": ["--output", str(tmp_path / "fits.jsonl")],
              "pipeline": ["--outdir", str(tmp_path)]}[stage]
    rc = main([stage, "--input", str(bad), "--models", "inverse-gamma",
               "--jobs", "2"] + target)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"data error: {bad} line 41: JSONDecodeError: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "fits.jsonl").exists()


@pytest.mark.parametrize("change", [
    {"samples": [0.0] + [1.0] * 19}, {"samples": [-1.0] + [1.0] * 19},
    {"samples": 3, "n_companies": 1}, {"samples": [], "n_companies": 0},
    {"samples": [[1.0, 1.0]], "n_companies": 1}, {"n_companies": 7},
    {"window_len": 0.0}, {"window_len": -600.0}, {"window_len": 1e999},
    {"window_start": 1e999}, {"n_companies": 1e999},
    {"samples": [True] + [0.5] * 19},
], ids=["zero-sample", "negative-sample", "number", "empty", "nested",
        "n-companies", "zero-len", "negative-len", "infinite-len",
        "infinite-start", "infinite-n-companies", "boolean-sample"])
def test_invalid_window_is_data_error(tmp_path, capsys, change):
    out, _ = _simulate_market_files(tmp_path, windows=3, companies=20)
    lines = out.read_text().splitlines()
    window = json.loads(lines[1])
    window.update(change)
    lines[1] = json.dumps(window)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    fits = tmp_path / "fits.jsonl"
    rc = main(["fit", "--input", str(bad), "--output", str(fits),
               "--models", "inverse-gamma", "--jobs", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    # int() of an infinite n_companies raises OverflowError
    assert any(f"data error: {bad} line 2: {name}: " in err
               for name in ("ValueError", "OverflowError"))
    assert "Traceback" not in err
    assert not fits.exists()


@pytest.mark.parametrize("stage", ["km", "markov"])
@pytest.mark.parametrize("dt", ["0", "-1", "1e999"])
def test_series_dt_not_above_zero_is_data_error(tmp_path, capsys, stage, dt):
    series = tmp_path / "series.json"
    assert main(["simulate", "langevin", "--output", str(series),
                 "--steps", "20000", "--seed", "4"]) == 0
    text = series.read_text()
    assert '"dt": 1.0' in text
    series.write_text(text.replace('"dt": 1.0', f'"dt": {dt}'))
    output = tmp_path / "out.json"
    capsys.readouterr()
    rc = main([stage, "--series", str(series), "--output", str(output)])
    err = capsys.readouterr().err
    assert rc == 2
    assert (f"data error: {series}: DomainError: dt must be a finite number "
            "above 0" in err)
    assert "Traceback" not in err
    assert not output.exists()


@pytest.mark.parametrize("argv", [
    ["markov", "--n-bins", "0"],
    ["markov", "--n-bins", "-2"],
    ["markov", "--surrogates", "0"],
    ["markov", "--surrogates", "-5"],
    ["markov", "--lag", "0"],
    ["markov", "--percentile", "150"],
    ["km", "--n-bins", "0"],
    ["km", "--n-bins", "-1"],
    ["km", "--tau-max", "2"],
    ["km", "--min-count", "0"],
    ["markov", "--min-cell-count", "-1"],
    ["pipeline", "--tau-max", "0"],
    ["summary", "--hist-bins", "0"],
    ["ingest", "--window-len", "0"],
    ["ingest", "--min-companies", "0"],
    ["ingest", "--min-companies", "-1"],
    ["pipeline", "--min-companies", "0"],
    ["simulate", "market", "--companies", "0"],
    ["simulate", "market", "--windows", "0"],
    ["simulate", "langevin", "--steps", "0"],
    ["simulate", "langevin", "--noise-sigma", "-1"],
    ["simulate", "langevin", "--dt", "nan"],
    ["simulate", "langevin", "--dt", "0"],
    ["simulate", "langevin", "--diffusion", "nan"],
    ["simulate", "langevin", "--diffusion", "-0.5"],
    ["simulate", "langevin", "--initial", "inf"],
    ["simulate", "langevin", "--fixed-point", "nan"],
    ["simulate", "market", "--diffusion", "nan"],
    ["simulate", "market", "--drift-slope", "nan"],
    ["simulate", "market", "--initial", "nan"],
    ["simulate", "market", "--fixed-point", "inf"],
    ["fit", "--jobs", "-3"],
    ["pipeline", "--markov-bins", "0"],
], ids=" ".join)
def test_out_of_range_number_is_usage_error(tmp_path, capsys, argv):
    output = tmp_path / "out.json"
    files = {
        "markov": ["--series", str(tmp_path / "series.json"), "--output", str(output)],
        "km": ["--series", str(tmp_path / "series.json"), "--output", str(output)],
        "summary": ["--input", str(tmp_path / "fits.jsonl"), "--output", str(output)],
        "ingest": ["--input", str(tmp_path / "quotes.csv"), "--output", str(output)],
        "simulate": ["--output", str(output)],
        "fit": ["--input", str(tmp_path / "windows.jsonl"), "--output", str(output)],
        "pipeline": ["--input", str(tmp_path / "windows.jsonl"), "--outdir", str(output)],
    }
    assert main(argv + files[argv[0]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {argv[-2]}: must be ")
    assert "Traceback" not in err
    assert not output.exists()


def test_fit_parallel_matches_serial(tmp_path):
    out, _ = _simulate_market_files(tmp_path, windows=24, companies=60)
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert main(["fit", "--input", str(out), "--output", str(serial),
                 "--models", "inverse-gamma", "--jobs", "1"]) == 0
    assert main(["fit", "--input", str(out), "--output", str(parallel),
                 "--models", "inverse-gamma", "--jobs", "2"]) == 0
    assert serial.read_text() == parallel.read_text()


def test_simulate_langevin_with_noise(tmp_path):
    out = tmp_path / "series.json"
    assert main(["simulate", "langevin", "--output", str(out),
                 "--steps", "5000", "--noise-sigma", "0.004",
                 "--seed", "6"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["values"]) == 5000
    assert doc["kind"] == "param-series"


# -- sizes and threads of a CLI process -------------------------------------

SRC = Path(volgram.__file__).parents[1]


def _child(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """``python -c code args`` on these sources; OPENBLAS_NUM_THREADS is
    only what ``env`` gives, not what an import in this process set."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**base, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True, timeout=120)


_THREADS = "import os, volgram.cli; print(len(os.listdir('/proc/self/task')))"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_cli_process_starts_no_blas_pool():
    done = _child(_THREADS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and 2 CPUs")
def test_exported_openblas_threads_win():
    done = _child(_THREADS, OPENBLAS_NUM_THREADS="2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "2"


def test_import_volgram_loads_no_numpy():
    done = _child("import sys, volgram; print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_package_names_are_their_home_module_objects():
    for name in volgram.__all__:
        home = importlib.import_module(f"volgram.{volgram._HOME[name]}")
        assert getattr(volgram, name) is getattr(home, name)
    with pytest.raises(AttributeError):
        volgram.no_such_name


_UNDER_1GB = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
              "from volgram.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", [
    ["summary", "--hist-bins"],
    ["markov", "--surrogates"],
    ["km", "--tau-max"],
    ["simulate", "langevin", "--steps"],
    ["simulate", "market", "--companies"],
    ["simulate", "market", "--windows"],
], ids=" ".join)
def test_huge_size_fails_in_one_line_under_1gb(tmp_path, argv):
    series = tmp_path / "series.json"
    assert main(["simulate", "langevin", "--output", str(series),
                 "--steps", "2000", "--seed", "4"]) == 0
    fits = tmp_path / "fits.jsonl"
    fits.write_text(_fit_line({"inverse-gamma": _FIT}) + "\n")
    output = tmp_path / "out.json"
    files = {"summary": ["--input", str(fits)],
             "markov": ["--series", str(series)],
             "km": ["--series", str(series)],
             "simulate": []}
    done = _child(_UNDER_1GB, *argv, str(10**12), *files[argv[0]],
                  "--output", str(output))
    assert done.returncode in (1, 2)
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert not output.exists()


def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch):
    series = tmp_path / "series.json"
    assert main(["simulate", "langevin", "--output", str(series),
                 "--steps", "2000", "--seed", "4"]) == 0

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")
    monkeypatch.setattr("volgram.kramers_moyal.conditional_moments", exhausted)
    capsys.readouterr()
    output = tmp_path / "km.json"
    assert main(["km", "--series", str(series), "--output", str(output)]) == 2
    assert capsys.readouterr().err == "out of memory: Unable to allocate 7.28 TiB\n"
    assert not output.exists()
