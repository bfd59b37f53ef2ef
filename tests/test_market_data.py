"""Quote parsing, windowing, session filtering, and the JSONL format."""

import ast
import csv
import io
import json
import math
import os
import threading
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path
from unittest.mock import patch
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volgram import market_data
from volgram.distributions import ModelKind
from volgram.errors import (AllWindowsFiltered, EmptyInput, MalformedLine,
                            MissingColumn, TooManyMalformed)
from volgram.market_data import (QuoteRecord, build_windows, parse_quotes,
                                 read_windows_jsonl, window_from_dict,
                                 window_to_dict, write_windows_jsonl)

NY = ZoneInfo("America/New_York")


def _epoch(year, month, day, hour, minute, tz=NY):
    return datetime(year, month, day, hour, minute, tzinfo=tz).timestamp()


HEADER = "timestamp,symbol,last_price,volume\n"


def test_parse_single_row():
    csv = HEADER + "2011-03-16T09:40:00Z,IBM,100.0,5000\n"
    result = parse_quotes(csv.encode())
    assert result.n_malformed == 0
    (rec,) = result.records
    assert rec.symbol == "IBM"
    assert rec.last_price == 100.0
    assert rec.volume == 5000.0
    assert rec.timestamp == datetime(2011, 3, 16, 9, 40,
                                     tzinfo=ZoneInfo("UTC")).timestamp()


def test_parse_epoch_seconds():
    csv = HEADER + "1300000000,GE,17.5,120\n"
    (rec,) = parse_quotes(csv.encode()).records
    assert rec.timestamp == 1300000000.0


def test_parse_counts_negative_volume_as_malformed():
    csv = HEADER + "1300000000,GE,17.5,-3\n" + "1300000001,GE,17.5,10\n"
    result = parse_quotes(csv.encode())
    assert result.n_malformed == 1
    assert result.n_records == 1
    assert len(result.records) == 1


def test_parse_keeps_the_last_quote_of_each_window_and_symbol():
    # GE quotes twice in [1299999600, 1300000200), the last at an equal
    # timestamp, and once in the next window
    csv = HEADER + ("1300000100,GE,3.0,1\n1300000000,GE,1.0,1\n"
                    "1300000100,GE,2.0,1\n1300000300,GE,4.0,1\n"
                    "1300000050,IBM,5.0,1\n")
    result = parse_quotes(csv.encode())
    assert (result.n_records, result.n_malformed) == (5, 0)
    assert [(r.symbol, r.last_price) for r in result.records] == [
        ("GE", 2.0), ("IBM", 5.0), ("GE", 4.0)]
    # a 10-second grid puts every distinct timestamp in its own window
    result = parse_quotes(csv.encode(), window_len=10.0)
    assert [r.last_price for r in result.records] == [2.0, 1.0, 4.0, 5.0]
    with pytest.raises(ValueError, match="window_len"):
        parse_quotes(csv.encode(), window_len=0.0)


def test_parse_header_only():
    result = parse_quotes(HEADER.encode())
    assert result.records == []
    assert result.n_records == 0
    assert result.n_malformed == 0


def test_parse_missing_column():
    with pytest.raises(MissingColumn):
        parse_quotes(b"timestamp,symbol,last_price\n1,GE,2\n")


def test_parse_too_many_malformed():
    rows = "\n".join(["1300000000,GE,not_a_price,10"] * 3
                     + ["1300000000,GE,5.0,10"]) + "\n"
    with pytest.raises(TooManyMalformed):
        parse_quotes((HEADER + rows).encode())


def test_parse_column_mapping_ignores_extra_fields():
    csv = ("time,ticker,price,vol,day_high,moving_avg_200d\n"
           "1300000000,AA,3.0,7,9.9,2.2\n")
    result = parse_quotes(csv.encode(), column_map={
        "timestamp": "time", "symbol": "ticker",
        "last_price": "price", "volume": "vol"})
    (rec,) = result.records
    assert rec.last_price == 3.0
    assert rec.volume == 7.0


def test_parse_accepts_stream():
    result = parse_quotes(io.StringIO(HEADER + "1300000000,GE,1.0,1\n"))
    assert len(result.records) == 1


def test_parse_short_row_is_malformed():
    # the timestamp is the last column, so the short row lacks it
    csv_text = ("symbol,last_price,volume,timestamp\n"
                "IBM,100.0,5000,2011-03-16T14:40:00Z\n"
                "GE,17.5,120\n"
                "AA,3.0,7,1300000000\n")
    result = parse_quotes(csv_text.encode())
    assert result.n_malformed == 1
    assert [r.symbol for r in result.records] == ["IBM", "AA"]


# -- the parse loop against the csv.DictReader loop it replaced ------------

def _dictreader_timestamp(raw):
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    text = raw.replace("Z", "+00:00")
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _dictreader_parse(text, column_map=None):
    """The csv.DictReader loop of parse_quotes, except that a short row,
    which handed None to the timestamp parser, counts as malformed."""
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    mapping = {k: k for k in ("timestamp", "symbol", "last_price", "volume")}
    if column_map:
        mapping.update(column_map)
    missing = [v for v in mapping.values() if v not in header]
    if missing:
        raise MissingColumn(f"missing required columns: {missing}")
    records = []
    n_malformed = 0
    n_rows = 0
    for row in reader:
        n_rows += 1
        try:
            ts = _dictreader_timestamp(row[mapping["timestamp"]])
            symbol = (row[mapping["symbol"]] or "").strip()
            price = float(row[mapping["last_price"]])
            volume = float(row[mapping["volume"]])
        except (ValueError, TypeError, KeyError, AttributeError):
            n_malformed += 1
            continue
        if not symbol or not math.isfinite(ts) or not math.isfinite(price) \
                or not math.isfinite(volume) or price <= 0.0 or volume < 0.0:
            n_malformed += 1
            continue
        records.append((ts, symbol, price, volume))
    if n_rows > 0 and n_malformed > 0.5 * n_rows:
        raise TooManyMalformed(f"{n_malformed} of {n_rows} rows malformed")
    return records, n_malformed


def _sort_and_overwrite(records, window_len=600.0):
    """The last record of each (window start, symbol): a stable sort on the
    timestamp, then each record overwrites the one kept for its key."""
    kept = {}
    for rec in sorted(records, key=lambda r: r[0]):
        kept[(math.floor(rec[0] / window_len) * window_len, rec[1])] = rec
    return kept


def _outcome(parse, *args):
    """(kept records sorted, valid rows, malformed rows) or the exception
    type; a tuple result is all valid records, reduced by the oracle."""
    try:
        result = parse(*args)
    except Exception as err:  # the exception type is part of the outcome
        return type(err)
    if isinstance(result, tuple):
        records, n_malformed = result
        kept = list(_sort_and_overwrite(records).values())
        return sorted(kept), len(records), n_malformed
    return (sorted(tuple(r) for r in result.records), result.n_records,
            result.n_malformed)


def _benchmark_malformed_rows():
    """The malformed row templates of the benchmark's seeded quotes day."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "quotes.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "_MALFORMED":
            return ast.literal_eval(node.value)
    raise LookupError(f"no _MALFORMED in {path}")


MALFORMED_ROWS = _benchmark_malformed_rows()
GOOD = {
    "timestamp": ["1300000000", " 1300000001.5 ", "2011-03-16",
                  "2011-03-16T14:40:00", "2011-03-16T14:40:00Z",
                  "2011-03-16T14:40:00.250Z", "2011-03-16T10:40:00-04:00",
                  "2011-03-16T15:40:00+01:00"],
    "symbol": ["IBM", " GE ", "S001"],
    "last_price": ["100.0", "17.5", "1e-3"],
    "volume": ["5000", "12.5", "0", "-0"],
}
BAD = {
    "timestamp": ["1e400", "nan", "inf", "", "n/a", "2013-02-30T10:00:00Z"],
    "symbol": ["", " "],
    "last_price": ["0", "-4.10", "nan", "-inf", "", "n/a", '"1,5"'],
    "volume": ["-7", "nan", "inf", ""],
}
FIELDS = tuple(GOOD)
RENAMED = {"timestamp": "time", "symbol": "ticker", "last_price": "price",
           "volume": "vol"}


@st.composite
def quote_csvs(draw):
    """A CSV text and its column map, built from the cell pools above."""
    renamed = draw(st.booleans())
    names = [RENAMED[f] if renamed else f for f in FIELDS]
    header = draw(st.permutations(names + ["day_high"]))
    if draw(st.integers(0, 9)) == 0:           # a required column is absent
        header.remove(draw(st.sampled_from(names)))
    if draw(st.booleans()):                    # a repeated header name
        header.insert(draw(st.integers(0, len(header))),
                      draw(st.sampled_from(header)))
    role = {name: field for field, name in zip(FIELDS, names)}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["good", "good", "good", "good", "bad",
                                     "malformed", "blank", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        cells = {}
        if kind == "bad":
            field = draw(st.sampled_from(FIELDS))
            cells[field] = draw(st.sampled_from(BAD[field]))
        elif kind == "malformed":
            template = draw(st.sampled_from(MALFORMED_ROWS))
            cells = dict(zip(FIELDS, template.format(
                ts=draw(st.sampled_from(GOOD["timestamp"])),
                sym=draw(st.sampled_from(GOOD["symbol"]))).split(",")))
        row = []
        for name in header:
            field = role.get(name)             # None for the extra column
            if field in cells:
                row.append(cells[field])
            else:
                row.append(draw(st.sampled_from(GOOD.get(field, BAD["volume"]))))
        if kind == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row += draw(st.lists(st.sampled_from(GOOD["volume"]),
                                 min_size=1, max_size=2))
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, (RENAMED if renamed else None)


@given(quote_csvs())
@settings(max_examples=300, deadline=None)
def test_parse_matches_dictreader_loop(case):
    text, column_map = case
    assert (_outcome(parse_quotes, text.encode(), column_map)
            == _outcome(_dictreader_parse, text, column_map))


@given(quote_csvs())
@settings(max_examples=40, deadline=None)
def test_parse_sources_agree(tmp_path_factory, case):
    text, column_map = case
    path = tmp_path_factory.mktemp("quotes") / "quotes.csv"
    path.write_text(text, encoding="utf-8", newline="")
    from_bytes = _outcome(parse_quotes, text.encode(), column_map)
    assert _outcome(parse_quotes, path, column_map) == from_bytes
    assert _outcome(parse_quotes, str(path), column_map) == from_bytes
    assert _outcome(parse_quotes, io.StringIO(text, newline=""),
                    column_map) == from_bytes


@given(quote_csvs(), st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_parse_in_byte_ranges_matches_one_range(tmp_path_factory, case, chunk):
    text, column_map = case
    path = tmp_path_factory.mktemp("quotes") / "quotes.csv"
    path.write_text(text, encoding="utf-8", newline="")

    def ordered(parse):
        try:
            result = parse()
        except Exception as err:  # the exception type is part of the outcome
            return type(err)
        return result.records, result.n_records, result.n_malformed

    one_range = ordered(lambda: parse_quotes(text.encode(), column_map))
    with patch.object(market_data, "_INGEST_CHUNK_BYTES", chunk):
        assert ordered(lambda: parse_quotes(path, column_map)) == one_range


def _recording(tasks):
    """An in-process map that also appends its tasks to ``tasks``."""
    def run(func, items):
        tasks.extend(items)
        return map(func, tasks)
    return run


def test_quoted_newline_keeps_the_file_one_range(tmp_path, monkeypatch):
    monkeypatch.setattr(market_data, "_INGEST_CHUNK_BYTES", 1)
    path = tmp_path / "quotes.csv"
    path.write_text('timestamp,symbol,last_price,volume,note\n'
                    '1300000000,IBM,100.0,5000,"two\nlines"\n'
                    '1300000060,GE,17.5,120,plain\n'
                    '1300000120,IBM,101.0,10,"a ""quote"""\n', newline="")
    tasks = []
    result = parse_quotes(path, map_fn=_recording(tasks))
    assert len(tasks) == 1
    assert result.records == [QuoteRecord(1300000120.0, "IBM", 101.0, 10.0),
                              QuoteRecord(1300000060.0, "GE", 17.5, 120.0)]
    assert (result.n_records, result.n_malformed) == (3, 0)


def test_ranges_end_after_a_newline(tmp_path, monkeypatch):
    monkeypatch.setattr(market_data, "_INGEST_CHUNK_BYTES", 40)
    path = tmp_path / "quotes.csv"      # 21 bytes a row, so 2 rows a range
    rows = [f"{1300000000 + i},S{i},1.5,{i}" for i in range(9)]
    path.write_bytes(("timestamp,symbol,last_price,volume\r\n"
                      + "\r\n".join(rows)).encode())
    data = path.read_bytes()
    tasks = []
    result = parse_quotes(path, map_fn=_recording(tasks))
    ranges = [task[1:3] for task in tasks]
    assert ranges[0][0] == data.index(b"\n") + 1
    assert ranges[-1][1] == len(data)
    assert all(a < b == c for (a, b), (c, _) in zip(ranges, ranges[1:]))
    assert all(data[b - 1:b] == b"\n" for _, b in ranges[:-1])
    assert len(ranges) == 5
    assert [r.symbol for r in result.records] == [f"S{i}" for i in range(9)]


def test_parse_reads_a_pipe_as_one_range(tmp_path):
    text = HEADER + "1300000000,IBM,100.0,5000\n1300000060,GE,17.5,120\n"
    fifo = tmp_path / "quotes.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        result = parse_quotes(fifo)
    finally:
        writer.join()
    assert result == parse_quotes(text.encode())
    assert result.n_records == 2


def _records_one_window(values, start=None):
    start = start or _epoch(2011, 3, 16, 10, 0)
    return [QuoteRecord(start + 30 * i, f"S{i}", price, volume)
            for i, (price, volume) in enumerate(values)]


def test_build_windows_normalization():
    # volume-prices 1, 2, 3 normalize to 0.5, 1.0, 1.5
    records = _records_one_window([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
    built = build_windows(records, min_companies=3)
    (w,) = built.windows
    assert sorted(w.samples.tolist()) == pytest.approx([0.5, 1.0, 1.5])
    assert w.mean_s == pytest.approx(2.0)
    assert w.n_companies == 3


def test_build_windows_last_value_per_symbol():
    start = _epoch(2011, 3, 16, 10, 0)
    records = [QuoteRecord(start + 10, "A", 1.0, 10.0),
               QuoteRecord(start + 500, "A", 2.0, 10.0),
               QuoteRecord(start + 20, "B", 4.0, 10.0)]
    built = build_windows(records, min_companies=2)
    (w,) = built.windows
    assert w.mean_s == pytest.approx((20.0 + 40.0) / 2.0)


def test_build_windows_drops_zero_volume():
    records = _records_one_window([(1.0, 0.0), (2.0, 1.0), (3.0, 1.0)])
    built = build_windows(records, min_companies=2)
    (w,) = built.windows
    assert w.n_companies == 2
    assert built.n_zero_volume_dropped == 1


def test_after_hours_record_contributes_to_no_window():
    late = QuoteRecord(_epoch(2011, 3, 16, 16, 5), "A", 1.0, 1.0)
    day = _records_one_window([(1.0, 1.0), (2.0, 1.0)])
    built = build_windows(day + [late], min_companies=1)
    assert len(built.windows) == 1
    assert built.n_session_filtered == 1
    with pytest.raises(AllWindowsFiltered):
        build_windows([late], min_companies=1)


def test_session_boundaries():
    # [15:50, 16:00) is the last admissible default window
    last = QuoteRecord(_epoch(2011, 3, 16, 15, 55), "A", 1.0, 1.0)
    built = build_windows([last], min_companies=1)
    assert len(built.windows) == 1
    first = QuoteRecord(_epoch(2011, 3, 16, 9, 31), "A", 1.0, 1.0)
    built = build_windows([first], min_companies=1)
    assert len(built.windows) == 1
    early = QuoteRecord(_epoch(2011, 3, 16, 9, 25), "A", 1.0, 1.0)
    with pytest.raises(AllWindowsFiltered):
        build_windows([early], min_companies=1)


def test_session_filter_can_be_disabled():
    late = QuoteRecord(_epoch(2011, 3, 16, 16, 5), "A", 1.0, 1.0)
    built = build_windows([late], session_filter=False, min_companies=1)
    assert len(built.windows) == 1


def test_min_companies_filter_counted():
    records = _records_one_window([(1.0, 1.0), (2.0, 1.0)])
    with pytest.raises(AllWindowsFiltered):
        build_windows(records, min_companies=50)
    try:
        build_windows(records, min_companies=50)
    except AllWindowsFiltered as err:
        assert "below minimum: 1" in str(err)


def test_min_companies_below_one_rejected():
    # below one, a window of zero-volume quotes would pass the size
    # filter with no samples to normalize
    records = _records_one_window([(1.0, 0.0), (2.0, 0.0)])
    for bad in (0, -1):
        with pytest.raises(ValueError, match="min_companies"):
            build_windows(records, min_companies=bad)


def test_empty_input():
    with pytest.raises(EmptyInput):
        build_windows([])


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=1e4),
                          st.floats(min_value=0.0, max_value=1e6)),
                min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_window_mean_is_one_by_construction(values):
    if not any(p * v > 0.0 for p, v in values):
        return
    records = _records_one_window(values)
    built = build_windows(records, min_companies=1)
    for w in built.windows:
        assert w.samples.mean() == pytest.approx(1.0, rel=1e-12)
        assert np.all(w.samples > 0.0)


def test_company_count_bounded_by_records():
    records = _records_one_window([(1.0, 1.0)] * 5)
    built = build_windows(records, min_companies=1)
    assert sum(w.n_companies for w in built.windows) <= len(records)


def test_windowing_idempotent_bytes():
    records = _records_one_window(
        [(1.0 + i, 2.0 + (i % 3)) for i in range(12)])
    outputs = []
    for _ in range(2):
        built = build_windows(records, min_companies=1)
        buf = io.StringIO()
        write_windows_jsonl(built.windows, buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]


def test_jsonl_round_trip():
    records = _records_one_window([(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)])
    built = build_windows(records, min_companies=1)
    buf = io.StringIO()
    write_windows_jsonl(built.windows, buf)
    buf.seek(0)
    loaded = read_windows_jsonl(buf)
    assert len(loaded) == len(built.windows)
    for a, b in zip(built.windows, loaded):
        assert a.window_start == b.window_start
        assert a.n_companies == b.n_companies
        assert np.allclose(a.samples, b.samples)
    line = json.loads(io.StringIO(buf.getvalue()).readline())
    assert line["format_version"] == 1


def test_window_format_version_checked():
    d = window_to_dict(build_windows(
        _records_one_window([(1.0, 2.0), (3.0, 4.0)]),
        min_companies=1).windows[0])
    d["format_version"] = 99
    with pytest.raises(ValueError):
        window_from_dict(d)


@pytest.mark.parametrize("change", [
    {"samples": [0.0, 1.0]}, {"samples": [-1.0, 1.0]},
    {"samples": [float("nan"), 1.0]}, {"samples": [float("inf"), 1.0]},
    {"samples": 3}, {"samples": []}, {"n_companies": 7},
    {"window_len": 0.0}, {"window_len": float("nan")},
    {"n_companies": 2.5}, {"window_start": "600"}, {"window_len": True},
    {"mean_s": float("nan")}, {"samples": ["0.5", "1.5"]},
    {"samples": [True, 0.5]},
], ids=["zero", "negative", "nan", "inf", "number", "empty", "n-companies",
        "zero-len", "nan-len", "fractional-n-companies", "text-start",
        "boolean-len", "nan-mean", "text-samples", "boolean-sample"])
def test_invalid_window_rejected(change):
    d = window_to_dict(build_windows(
        _records_one_window([(1.0, 2.0), (3.0, 4.0)]),
        min_companies=1).windows[0])
    window_from_dict(d)
    with pytest.raises(ValueError):
        window_from_dict({**d, **change})
    buf = io.StringIO(json.dumps(d) + "\n\n" + json.dumps({**d, **change}) + "\n")
    with pytest.raises(MalformedLine, match="^windows.jsonl line 12: ValueError: "):
        read_windows_jsonl(buf.readlines(), "windows.jsonl", 10)


def test_window_with_dropped_std_s_key_loads():
    # windows files written before std_s was dropped still carry it
    d = window_to_dict(build_windows(
        _records_one_window([(1.0, 2.0), (3.0, 4.0)]),
        min_companies=1).windows[0])
    assert "std_s" not in d
    (w,) = read_windows_jsonl([json.dumps({**d, "std_s": 1.5}) + "\n"],
                              "windows.jsonl")
    assert window_to_dict(w) == d


def test_fitted_series_gap_spans_a_failed_fit():
    def row(start, phi, converged=True):
        return {"window_start": start, "window_len": 600.0,
                "models": {"inverse-gamma": {"phi": phi, "converged": converged}}}

    rows = [row(0.0, 0.90), row(600.0, 0.91, converged=False),
            row(1200.0, 0.92), row(2400.0, 0.93)]
    series = market_data.fitted_series(rows, ModelKind.INVERSE_GAMMA)
    assert series.values.tolist() == [0.90, 0.92, 0.93]
    # 0 -> 1200 spans the failed window and 1200 -> 2400 a hole in the grid
    assert series.gaps.tolist() == [0, 1]


# -- one-pass ingest against sorting every record --------------------------

DAY_OPEN = _epoch(2011, 3, 16, 9, 30)
DAY_CLOSE = _epoch(2011, 3, 16, 16, 0)


def _oracle_windows(records, window_len=600.0):
    """Windows from all records by sort-and-overwrite: (start, n_companies,
    samples, mean_s) per session window, samples in symbol order, and the
    number of off-session windows."""
    per_window = {}
    for (start, symbol), rec in _sort_and_overwrite(records, window_len).items():
        per_window.setdefault(start, {})[symbol] = rec[2] * rec[3]
    windows, n_off = [], 0
    for start in sorted(per_window):
        if not (DAY_OPEN <= start and start + window_len <= DAY_CLOSE):
            n_off += 1
            continue
        s = np.array([v for _, v in sorted(per_window[start].items())])
        s = s[s > 0.0]
        if s.size:
            mean_s = float(s.mean())
            windows.append((start, s.size, (s / mean_s).tolist(), mean_s))
    return windows, n_off


def _windows_outcome(build, *args, **kwargs):
    try:
        built = build(*args, **kwargs)
    except Exception as err:  # the exception type is part of the outcome
        return type(err)
    return ([(w.window_start, w.n_companies, w.samples.tolist(), w.mean_s)
             for w in built.windows], built.n_session_filtered)


def _csv_bytes(rows):
    return (HEADER + "".join(f"{ts!r},{sym},{price!r},{vol!r}\n"
                             for ts, sym, price, vol in rows)).encode()


@given(st.lists(st.tuples(
    # 9:00 to 16:40 in steps of 100 s: equal timestamps, 45 windows, of
    # which the first three and the last four are off-session
    st.integers(0, 275).map(lambda k: DAY_OPEN - 1800.0 + 100.0 * k),
    st.sampled_from(["AA", "B", "GE", "IBM", "XOM"]),
    st.sampled_from([0.5, 1.0, 17.25, 3e2]),
    st.sampled_from([0.0, 1.0, 2.5, 7e3]))))
@settings(max_examples=200, deadline=None)
def test_parse_then_build_matches_sort_and_overwrite(rows):
    parsed = parse_quotes(_csv_bytes(rows))
    assert parsed.n_records == len(rows)
    got = _windows_outcome(build_windows, parsed.records, min_companies=1)
    expect = _oracle_windows(rows)
    if not rows:
        assert got is EmptyInput
    elif not expect[0]:
        assert got is AllWindowsFiltered
    else:
        assert got == expect
    # any iterable of records gives the same windows, and building again
    # from the kept records changes nothing
    records = (QuoteRecord(*row) for row in rows)
    assert _windows_outcome(build_windows, records, min_companies=1) == got
    assert parse_quotes(_csv_bytes(parsed.records)).records == parsed.records


def _quote_rows(n_rows, n_windows, n_symbols, seed):
    """Quotes at distinct timestamps from 10:00, in time order."""
    rng = np.random.default_rng(seed)
    span = 600.0 * n_windows
    ts = _epoch(2011, 3, 16, 10, 0) + np.sort(rng.choice(
        int(span * 1000), size=n_rows, replace=False)) / 1000.0
    symbols = rng.integers(0, n_symbols, size=n_rows)
    prices = rng.uniform(5.0, 50.0, size=n_rows)
    volumes = rng.integers(1, 10_000, size=n_rows).astype(float)
    return [(float(t), f"S{k:03d}", float(p), float(v))
            for t, k, p, v in zip(ts, symbols, prices, volumes)]


def test_row_order_does_not_move_the_windows():
    rows = _quote_rows(3000, 3, 40, seed=5)
    outputs = []
    for order in (rows, list(reversed(rows)),
                  [rows[i] for i in np.random.default_rng(6).permutation(len(rows))]):
        built = build_windows(parse_quotes(_csv_bytes(order)).records,
                              min_companies=1)
        buf = io.StringIO()
        write_windows_jsonl(built.windows, buf)
        outputs.append(buf.getvalue())
    assert len(outputs[0].splitlines()) == 3
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_ingest_memory_does_not_grow_with_rows(tmp_path):
    # 50k rows over 2 windows x 20 symbols keep 40 records; sorting all
    # rows held about 11 MB
    path = tmp_path / "quotes.csv"
    path.write_bytes(_csv_bytes(_quote_rows(50_000, 2, 20, seed=7)))
    tracemalloc.start()
    try:
        parsed = parse_quotes(path)
        built = build_windows(parsed.records, min_companies=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.n_records == 50_000
    assert [w.n_companies for w in built.windows] == [20, 20]
    assert peak < 1_000_000
