"""Quote ingestion, volume-price windowing, and the JSON-lines window format.

A quote file is a CSV with one row per (timestamp, company) carrying the
last trade price and interval volume.  Rows are grouped into fixed-width
windows on the UTC epoch grid; within a window each company contributes
its last quote, the volume-price s = p * V is formed, zero-volume
entries are dropped, and the remaining values are normalized by their
cross-sectional mean.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, time, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from .errors import (AllWindowsFiltered, EmptyInput, MalformedWindow,
                     MissingColumn, TooManyMalformed)

FORMAT_VERSION = 1

REQUIRED_FIELDS = ("timestamp", "symbol", "last_price", "volume")

SESSION_TZ = "America/New_York"
SESSION_OPEN = time(9, 30)
SESSION_CLOSE = time(16, 0)


@dataclass(frozen=True)
class QuoteRecord:
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
    std_s: float              # population std of the raw volume-prices
    n_companies: int


@dataclass(frozen=True)
class ParseResult:
    records: list[QuoteRecord]
    n_malformed: int


@dataclass(frozen=True)
class WindowBuildResult:
    windows: list[SnapshotWindow]
    n_session_filtered: int
    n_below_min_companies: int
    n_zero_volume_dropped: int


def _parse_timestamp(raw: str) -> float:
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


def parse_quotes(source, column_map: dict[str, str] | None = None) -> ParseResult:
    """Read quote records from a CSV source.

    ``source`` may be a filesystem path (str or Path), a byte string of
    CSV content, or an open text stream.  Malformed rows (bad timestamp,
    non-positive price, negative volume, missing cells) are counted, not
    fatal, unless they exceed half of the data rows.
    """
    close_after = False
    if isinstance(source, (str, Path)):
        fh = open(source, "r", encoding="utf-8", newline="")
        close_after = True
    elif isinstance(source, bytes):
        fh = io.StringIO(source.decode("utf-8"))
    else:
        fh = source
    try:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        mapping = {k: k for k in REQUIRED_FIELDS}
        if column_map:
            mapping.update(column_map)
        missing = [mapping[k] for k in REQUIRED_FIELDS if mapping[k] not in header]
        if missing:
            raise MissingColumn(f"missing required columns: {missing}")
        records: list[QuoteRecord] = []
        n_malformed = 0
        n_rows = 0
        for row in reader:
            n_rows += 1
            try:
                ts = _parse_timestamp(row[mapping["timestamp"]])
                symbol = (row[mapping["symbol"]] or "").strip()
                price = float(row[mapping["last_price"]])
                volume = float(row[mapping["volume"]])
            except (ValueError, TypeError, KeyError):
                n_malformed += 1
                continue
            if not symbol or not math.isfinite(ts) or not math.isfinite(price) \
                    or not math.isfinite(volume) or price <= 0.0 or volume < 0.0:
                n_malformed += 1
                continue
            records.append(QuoteRecord(ts, symbol, price, volume))
        if n_rows > 0 and n_malformed > 0.5 * n_rows:
            raise TooManyMalformed(
                f"{n_malformed} of {n_rows} rows malformed")
        return ParseResult(records=records, n_malformed=n_malformed)
    finally:
        if close_after:
            fh.close()


def _in_session(start: float, window_len: float, tz: ZoneInfo) -> bool:
    begin = datetime.fromtimestamp(start, tz)
    end = datetime.fromtimestamp(start + window_len, tz)
    if begin.date() != end.date():
        return False
    return begin.time() >= SESSION_OPEN and end.time() <= SESSION_CLOSE


def build_windows(records: list[QuoteRecord], window_len: float = 600.0,
                  session_filter: bool = True,
                  min_companies: int = 50) -> WindowBuildResult:
    """Group records into fixed windows of normalized volume-prices.

    Per window and symbol only the last quote counts; zero-volume entries
    are dropped before normalization; windows outside the trading session
    or with too few companies are excluded and counted.
    """
    if not records:
        raise EmptyInput("no quote records")
    if window_len <= 0:
        raise ValueError("window_len must be positive")
    ordered = sorted(records, key=lambda r: r.timestamp)
    tz = ZoneInfo(SESSION_TZ)

    per_window: dict[float, dict[str, QuoteRecord]] = {}
    for rec in ordered:
        start = math.floor(rec.timestamp / window_len) * window_len
        per_window.setdefault(start, {})[rec.symbol] = rec

    windows: list[SnapshotWindow] = []
    n_session = 0
    n_small = 0
    n_zero_vol = 0
    for start in sorted(per_window):
        if session_filter and not _in_session(start, window_len, tz):
            n_session += 1
            continue
        quotes = per_window[start]
        s = np.array([q.last_price * q.volume for q in quotes.values()])
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
            std_s=float(s.std()),
            n_companies=int(s.size),
        ))
    if not windows:
        raise AllWindowsFiltered(
            f"all {len(per_window)} windows removed "
            f"(session: {n_session}, below minimum: {n_small})")
    return WindowBuildResult(windows=windows, n_session_filtered=n_session,
                            n_below_min_companies=n_small,
                            n_zero_volume_dropped=n_zero_vol)


def window_to_dict(w: SnapshotWindow) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "window_start": w.window_start,
        "window_len": w.window_len,
        "samples": w.samples.tolist(),
        "mean_s": w.mean_s,
        "std_s": w.std_s,
        "n_companies": w.n_companies,
    }


def window_from_dict(d: dict) -> SnapshotWindow:
    version = d.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported window format_version {version}")
    return SnapshotWindow(
        window_start=float(d["window_start"]),
        window_len=float(d["window_len"]),
        samples=np.asarray(d["samples"], dtype=float),
        mean_s=float(d["mean_s"]),
        std_s=float(d["std_s"]),
        n_companies=int(d["n_companies"]),
    )


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


def read_windows_jsonl(fh) -> list[SnapshotWindow]:
    """Windows from a JSON-lines stream; blank lines are skipped.

    A line that is not a window of this format version raises
    ``MalformedWindow`` naming the stream and the line number.
    """
    out = []
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(window_from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            source = getattr(fh, "name", "windows JSONL")
            raise MalformedWindow(
                f"{source} line {lineno}: {type(err).__name__}: {err}") from None
    return out
