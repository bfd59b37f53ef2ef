"""Quote ingestion, volume-price windowing, and volgram's three JSON input
formats: windows JSONL, fits JSONL and the parameter-series JSON.

A quote file is a CSV with one row per (timestamp, company) carrying the
last trade price and interval volume.  Rows are grouped into fixed-width
windows on the UTC epoch grid; within a window each company contributes
its last quote, the volume-price s = p * V is formed, zero-volume
entries are dropped, and the remaining values are normalized by their
cross-sectional mean.  Parsing keeps only the last quote of each window
and company as it reads, so memory grows with windows times companies,
not with rows.  Each JSON format has one writer (``*_to_dict``) and
one check (``*_from_dict``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, time, timezone
from pathlib import Path
from typing import Iterable, NamedTuple
from zoneinfo import ZoneInfo

import numpy as np

from .errors import (AllWindowsFiltered, DataError, DomainError, EmptyInput,
                     MalformedLine, MissingColumn, TooManyMalformed, reading)

FORMAT_VERSION = 1

REQUIRED_FIELDS = ("timestamp", "symbol", "last_price", "volume")

SESSION_TZ = "America/New_York"
SESSION_OPEN = time(9, 30)
SESSION_CLOSE = time(16, 0)

_INGEST_CHUNK_BYTES = 4 << 20   # data-row bytes that one ingest task parses
_TS_CACHE_SIZE = 256            # parsed timestamp texts kept at a time


class QuoteRecord(NamedTuple):
    timestamp: float          # UTC seconds since epoch
    symbol: str
    last_price: float         # > 0
    volume: float             # >= 0


@dataclass(frozen=True)
class SnapshotWindow:
    """Cross-sectional normalized volume-prices for one interval."""
    window_start: float
    window_len: float
    samples: np.ndarray       # s / <s>, strictly positive
    mean_s: float             # <s> of the raw volume-prices
    n_companies: int


@dataclass(frozen=True)
class ParamSeries:
    """Fitted parameter values sampled every ``dt``.

    ``gaps`` lists indices i such that a market-closed break (or any
    other discontinuity) separates values[i] and values[i+1]; increments
    spanning such a step never enter moment estimation.  The values must
    pass the array rule and ``dt`` the number rule above 0.
    """
    values: np.ndarray
    dt: float = 1.0
    gaps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __post_init__(self):
        try:
            values = np.asarray(_finite_array(self.values, "values"), dtype=float)
            _finite(self.dt, "dt", above=0.0)
        except ValueError as err:
            raise DomainError(str(err)) from None
        gaps = np.asarray(self.gaps)
        if gaps.ndim != 1 or gaps.dtype.kind not in "iuf" or not np.all(
                (gaps == np.floor(gaps)) & (gaps >= 0) & (gaps <= values.size - 2)):
            raise DomainError(f"gaps must be integers in [0, {values.size - 2}]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "gaps", gaps.astype(int))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ParseResult:
    records: list[QuoteRecord]    # the last quote of each window and symbol
    n_records: int                # valid rows read
    n_malformed: int


@dataclass(frozen=True)
class WindowBuildResult:
    windows: list[SnapshotWindow]
    n_session_filtered: int
    n_below_min_companies: int
    n_zero_volume_dropped: int


def _parse_timestamp(raw: str) -> float:
    raw = raw.strip()
    if ":" not in raw:              # no float literal has a colon
        try:
            return float(raw)
        except ValueError:
            pass
    text = raw.replace("Z", "+00:00")
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _keep_last(records: Iterable[QuoteRecord], window_len: float
               ) -> dict[float, dict[str, QuoteRecord]]:
    """The last record of each symbol in each window, keyed by window start.

    A record replaces the kept one unless its timestamp is earlier, so of
    equal timestamps the later record wins, as with a stable sort by
    timestamp followed by overwriting.
    """
    if window_len <= 0:
        raise ValueError("window_len must be positive")
    kept: dict[float, dict[str, QuoteRecord]] = {}
    for rec in records:
        start = math.floor(rec.timestamp / window_len) * window_len
        quotes = kept.get(start)
        if quotes is None:
            quotes = kept[start] = {}
        old = quotes.get(rec.symbol)
        if old is None or rec.timestamp >= old.timestamp:
            quotes[rec.symbol] = rec
    return kept


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of a file, as a readable stream."""

    def __init__(self, path, start: int, end: int):
        self._fh = open(path, "rb", buffering=0)
        self._fh.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._fh.readinto(memoryview(buf)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


def _read_header(text) -> tuple[list[str], int]:
    """The header row of a CSV text stream, and the UTF-8 bytes it spans;
    the stream is left at the first data row."""
    n_bytes = 0

    def lines():
        nonlocal n_bytes
        while line := text.readline():
            n_bytes += len(line.encode("utf-8"))
            yield line
    return next(csv.reader(lines()), []), n_bytes


def _columns(header: list[str], column_map: dict[str, str] | None
             ) -> tuple[int, int, int, int]:
    """Indices of the timestamp, symbol, price and volume columns."""
    mapping = {k: k for k in REQUIRED_FIELDS}
    if column_map:
        mapping.update(column_map)
    missing = [mapping[k] for k in REQUIRED_FIELDS if mapping[k] not in header]
    if missing:
        raise MissingColumn(f"missing required columns: {missing}")
    # a repeated header name reads its last column
    column = {name: i for i, name in enumerate(header)}
    return tuple(column[mapping[k]] for k in REQUIRED_FIELDS)


def _data_ranges(fh, start: int) -> list[tuple[int, int]]:
    """Byte ranges of about ``_INGEST_CHUNK_BYTES`` from ``start`` to the
    end of a binary file, each but the last ending just after a newline.

    A file that holds a double quote is one range: a quoted cell may span
    lines.
    """
    size = fh.seek(0, io.SEEK_END)
    fh.seek(start)
    block = bytearray(1 << 16)
    while n := fh.readinto(block):
        if block.find(b'"', 0, n) >= 0:
            return [(start, size)]
    cuts = [start]
    while cuts[-1] < size:
        fh.seek(cuts[-1] + _INGEST_CHUNK_BYTES)
        fh.readline()
        cuts.append(min(fh.tell(), size))
    return list(zip(cuts, cuts[1:]))


def _parse_rows(reader, columns: tuple[int, int, int, int],
                window_len: float) -> ParseResult:
    """The row loop: the last quote of each window and symbol among the
    data rows of a CSV reader, with the row counts."""
    i_ts, i_sym, i_price, i_vol = columns
    n_malformed = 0
    n_rows = 0
    seconds: dict[str, float] = {}      # timestamp text -> parsed value

    def valid_records():
        nonlocal n_malformed, n_rows
        for row in reader:
            if not row:         # a blank line is not a data row
                continue
            n_rows += 1
            try:
                text = row[i_ts]
                ts = seconds.get(text)
                if ts is None:
                    ts = _parse_timestamp(text)
                    if len(seconds) >= _TS_CACHE_SIZE:
                        seconds.clear()
                    seconds[text] = ts
                symbol = row[i_sym].strip()
                price = float(row[i_price])
                volume = float(row[i_vol])
            except (ValueError, IndexError):
                n_malformed += 1
                continue
            if not symbol or not math.isfinite(ts) or not math.isfinite(price) \
                    or not math.isfinite(volume) or price <= 0.0 or volume < 0.0:
                n_malformed += 1
                continue
            yield QuoteRecord(ts, symbol, price, volume)

    kept = _keep_last(valid_records(), window_len)
    return ParseResult(
        records=[rec for quotes in kept.values() for rec in quotes.values()],
        n_records=n_rows - n_malformed, n_malformed=n_malformed)


def _parse_range(task) -> ParseResult:
    """``_parse_rows`` over bytes [start, end) of a quotes file."""
    path, start, end, columns, window_len = task
    with reading(path), _ByteRange(path, start, end) as raw:
        text = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        return _parse_rows(csv.reader(text), columns, window_len)


def parse_quotes(source, column_map: dict[str, str] | None = None,
                 window_len: float = 600.0, map_fn=map) -> ParseResult:
    """Read quote records from a CSV source in one pass.

    ``source`` may be a filesystem path (str or Path), a byte string of
    CSV content, or an open text stream.  Malformed rows (bad timestamp,
    non-positive price, negative volume, missing cells) are counted, not
    fatal, unless they exceed half of the data rows.  Blank lines are
    skipped and not counted.  Of the valid rows only the last quote of
    each symbol in each window of ``window_len`` seconds is kept (see
    ``build_windows``), window by window in the order in which each
    window, and each symbol within it, first appears; ``n_records``
    counts all valid rows.  Text that is not UTF-8, or a cell the csv
    module cannot read, raises ``UnreadableInput``.

    The data rows of a file are cut into byte ranges of about
    ``_INGEST_CHUNK_BYTES`` (one range if the file holds a double quote)
    and ``map_fn(func, tasks)``, which must yield results in task order,
    parses them; the partial results merge in file order.  A byte string,
    a stream or a file that cannot seek (a pipe) is one range.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh, reading(source):
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            if not fh.seekable():       # a pipe is read as a stream
                return parse_quotes(text, column_map, window_len)
            header, start = _read_header(text)
            columns = _columns(header, column_map)
            parts = map_fn(_parse_range, [
                (source, a, b, columns, window_len)
                for a, b in _data_ranges(text.detach(), start)])
    else:
        if isinstance(source, bytes):
            source = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8",
                                      newline="")
        with reading(getattr(source, "name", "quotes CSV")):
            columns = _columns(_read_header(source)[0], column_map)
            parts = [_parse_rows(csv.reader(source), columns, window_len)]
    n_records = n_malformed = 0

    def in_file_order():
        nonlocal n_records, n_malformed
        for part in parts:
            n_records += part.n_records
            n_malformed += part.n_malformed
            yield from part.records

    kept = _keep_last(in_file_order(), window_len)
    n_rows = n_records + n_malformed
    if n_rows > 0 and n_malformed > 0.5 * n_rows:
        raise TooManyMalformed(f"{n_malformed} of {n_rows} rows malformed")
    return ParseResult(
        records=[rec for quotes in kept.values() for rec in quotes.values()],
        n_records=n_records, n_malformed=n_malformed)


def _in_session(start: float, window_len: float, tz: ZoneInfo) -> bool:
    begin = datetime.fromtimestamp(start, tz)
    end = datetime.fromtimestamp(start + window_len, tz)
    if begin.date() != end.date():
        return False
    return begin.time() >= SESSION_OPEN and end.time() <= SESSION_CLOSE


def build_windows(records: Iterable[QuoteRecord], window_len: float = 600.0,
                  session_filter: bool = True,
                  min_companies: int = 50) -> WindowBuildResult:
    """Group records into fixed windows of normalized volume-prices.

    Per window and symbol only the last quote counts (of equal
    timestamps, the later record); each window's samples are in symbol
    order, so the windows do not depend on the order of the records.
    Zero-volume entries are dropped before normalization; windows outside
    the trading session or with too few companies are excluded and
    counted.  Records from ``parse_quotes`` must come from the same
    ``window_len``.
    """
    if min_companies < 1:
        raise ValueError("min_companies must be at least 1")
    per_window = _keep_last(records, window_len)
    if not per_window:
        raise EmptyInput("no quote records")
    tz = ZoneInfo(SESSION_TZ)

    windows: list[SnapshotWindow] = []
    n_session = 0
    n_small = 0
    n_zero_vol = 0
    for start in sorted(per_window):
        if session_filter and not _in_session(start, window_len, tz):
            n_session += 1
            continue
        quotes = per_window[start]
        s = np.array([q.last_price * q.volume for _, q in sorted(quotes.items())])
        nonzero = s > 0.0
        n_zero_vol += int(s.size - nonzero.sum())
        s = s[nonzero]
        # entries so small that normalization underflows to zero are
        # indistinguishable from zero volume; drop and renormalize
        while s.size:
            mean_s = float(s.mean())
            samples = s / mean_s
            keep = samples > 0.0
            if keep.all():
                break
            n_zero_vol += int(s.size - keep.sum())
            s = s[keep]
        if s.size < min_companies:
            n_small += 1
            continue
        windows.append(SnapshotWindow(
            window_start=float(start),
            window_len=float(window_len),
            samples=samples,
            mean_s=mean_s,
            n_companies=int(s.size),
        ))
    if not windows:
        raise AllWindowsFiltered(
            f"all {len(per_window)} windows removed "
            f"(session: {n_session}, below minimum: {n_small})")
    return WindowBuildResult(windows=windows, n_session_filtered=n_session,
                            n_below_min_companies=n_small,
                            n_zero_volume_dropped=n_zero_vol)


def _finite(value, name: str, above: float = -math.inf, integer: bool = False):
    """The number rule: ``value`` as a float (an int if ``integer``) if it
    is a JSON number, not a string or boolean, that is finite, above
    ``above`` and, if ``integer``, integral; else ``ValueError``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (math.isfinite(value) and value > above)
            or integer and value % 1):
        rule = "" if above == -math.inf else f" above {above:g}"
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {kind}{rule}, got {value!r}")
    return int(value) if integer else float(value)


def _finite_array(value, name: str, above: float = -math.inf) -> np.ndarray:
    """The array rule: ``np.asarray(value)`` if it is 1-D, non-empty, of integer
    or float kind, with no boolean in a list, and finite and above
    ``above``; else ``ValueError``."""
    a = np.asarray(value)
    if (a.dtype.kind not in "iuf" or a.ndim != 1 or a.size == 0
            or not np.all(np.isfinite(a) & (a > above))
            # numpy reads [true, 0.5] as [1.0, 0.5]
            or isinstance(value, list) and bool in map(type, value)):
        rule = "" if above == -math.inf else f" above {above:g}"
        raise ValueError(f"{name} must be a non-empty list of finite numbers{rule}")
    return a


def _check_version(d: dict) -> None:
    version = _finite(d.get("format_version", 1), "format_version", integer=True)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version}")


def window_to_dict(w: SnapshotWindow) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "window_start": w.window_start,
        "window_len": w.window_len,
        "samples": w.samples.tolist(),
        "mean_s": w.mean_s,
        "n_companies": w.n_companies,
    }


def window_from_dict(d: dict) -> SnapshotWindow:
    """A window from its JSON object; raises ``ValueError`` unless its
    numbers pass the number rule and its samples the array rule, above 0
    and one per company."""
    _check_version(d)
    w = SnapshotWindow(
        window_start=_finite(d["window_start"], "window_start"),
        window_len=_finite(d["window_len"], "window_len", above=0.0),
        samples=_finite_array(d["samples"], "samples", above=0.0),
        mean_s=_finite(d["mean_s"], "mean_s", above=0.0),
        n_companies=_finite(d["n_companies"], "n_companies", integer=True),
    )
    if w.n_companies != w.samples.size:
        raise ValueError(f"n_companies {w.n_companies} but {w.samples.size} samples")
    return w


# FitResult fields stored in a fit row, after phi and theta
_FIT_FIELDS = ("rel_err_phi", "rel_err_theta", "rss", "converged", "iterations")


def fit_row_to_dict(window: SnapshotWindow, results: dict) -> dict:
    """The fit row of a window from its ``{ModelKind: FitResult}``; a model
    whose result is ``None`` was not fitted and is written as failed."""
    failed = {**dict.fromkeys(("phi", "theta", *_FIT_FIELDS)),
              "converged": False, "iterations": 0}
    models = {kind.value: failed if fr is None else
              {"phi": fr.params.phi, "theta": fr.params.theta,
               **{key: getattr(fr, key) for key in _FIT_FIELDS}}
              for kind, fr in results.items()}
    return {"format_version": FORMAT_VERSION,
            "window_start": window.window_start,
            "window_len": window.window_len,
            "n_companies": window.n_companies,
            "models": models}


def fit_row_from_dict(row) -> dict:
    """A fit row from its JSON value; raises ``ValueError`` unless every
    field that summary, km and markov read is valid."""
    if not isinstance(row, dict) or not isinstance(row.get("models"), dict):
        raise ValueError('not a JSON object with a "models" object')
    _check_version(row)
    _finite(row["window_start"], "window_start")
    if "window_len" in row:
        _finite(row["window_len"], "window_len", above=0.0)
    for name, entry in row["models"].items():
        if not (isinstance(entry, dict)
                and isinstance(entry.get("converged"), bool)):
            raise ValueError(f"model {name!r} has no boolean converged")
        if entry["converged"]:
            for key in ("phi", "theta", "rel_err_phi", "rel_err_theta"):
                _finite(entry[key], key)
    return row


def read_fits_jsonl(path) -> list[dict]:
    """The checked rows of a fits JSONL file; a file with none is a data error."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(read_jsonl(fh, path, fit_row_from_dict))
    if not rows:
        raise EmptyInput(f"no fit rows in {path}")
    return rows


def fitted_series(rows: list[dict], model, param: str = "phi") -> ParamSeries:
    """Time-ordered series of one ``ModelKind``'s parameter from fit rows.

    Windows whose fit did not converge are dropped; a kept window that
    does not start where the previous kept one ended records a gap, so
    increments never span a dropped window or a hole in the window grid.
    """
    values, gaps, expected_next = [], [], None
    for row in sorted(rows, key=lambda r: r["window_start"]):
        entry = row["models"].get(model.value)
        if entry is not None and entry["converged"]:
            if values and not abs(row["window_start"] - expected_next) < 1e-9:
                gaps.append(len(values) - 1)
            values.append(entry[param])
            expected_next = row["window_start"] + row.get("window_len", 600.0)
    if len(values) < 2:
        raise DataError(f"fewer than 2 converged {model.value} fits")
    return ParamSeries(values=np.asarray(values), dt=1.0,
                       gaps=np.asarray(gaps, dtype=int))


def series_to_dict(series: ParamSeries) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": "param-series",
            "dt": series.dt, "values": series.values.tolist(),
            "gaps": series.gaps.tolist()}


def series_from_dict(d: dict) -> ParamSeries:
    """A series from its JSON object; ``ParamSeries`` checks the fields."""
    _check_version(d)
    return ParamSeries(values=d["values"], dt=d.get("dt", 1.0),
                       gaps=d.get("gaps", []))


def read_series(path) -> ParamSeries:
    """The checked series of a parameter-series JSON file."""
    with reading(path):
        return _decode(Path(path).read_text(encoding="utf-8"),
                       series_from_dict, path)


def strict_dumps(obj) -> str:
    """``json.dumps`` for every volgram file: strict JSON, with each NaN or
    infinite float written as ``null``."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError:
        # floats round-trip through their repr, so only the constants move
        obj = json.loads(json.dumps(obj), parse_constant=lambda name: None)
        return json.dumps(obj, allow_nan=False)


def write_windows_jsonl(windows, fh) -> None:
    for w in windows:
        fh.write(strict_dumps(window_to_dict(w)) + "\n")


def _decode(text: str, decode, source, lineno=None):
    """``decode(json.loads(text))``; a text either call rejects raises
    ``MalformedLine`` naming ``source`` and, if given, ``lineno``."""
    try:
        record = json.loads(text)
        del text    # a series file is megabytes: free it before decoding
        return decode(record)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
            DomainError) as err:
        where = source if lineno is None else f"{source} line {lineno}"
        raise MalformedLine(f"{where}: {type(err).__name__}: {err}") from None


def read_jsonl(lines, source, decode, first_lineno=1):
    """``_decode`` of each non-blank line, numbered from ``first_lineno``;
    non-UTF-8 text raises ``UnreadableInput``."""
    with reading(source):
        for lineno, line in enumerate(lines, start=first_lineno):
            if line := line.strip():
                yield _decode(line, decode, source, lineno)


def read_windows_jsonl(fh, source=None, first_lineno=1) -> list[SnapshotWindow]:
    """Windows from a JSON-lines stream or list of lines (see
    ``read_jsonl``); ``source`` defaults to the stream's name."""
    return list(read_jsonl(fh, source or getattr(fh, "name", "windows JSONL"),
                           window_from_dict, first_lineno))
