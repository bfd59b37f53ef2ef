"""Seeded quotes CSV for the quotes-ingest workload, and its reduction.

The generator knows every row it writes, so it can say, without the
program, what ingest must produce: the window starts inside the trading
session, how many windows the session filter drops, how many rows are
malformed, and each window's last-quote volume-prices.

Layout of one file: one trading day in New York from 07:00 to 18:00
local time on a 10-minute grid.  Every in-session window quotes all
symbols; pre- and after-market windows quote about a third of them.
Each (window, symbol) pair gets several quote updates at distinct
seconds; only the last one counts.  Some updates carry zero volume,
some pairs end on a zero-volume quote (the symbol then drops out of
that window), and about half a percent of the rows are malformed.

The last in-session window (15:50-16:00) is fixed and does not depend
on the seed: one company holds 99.9% of the volume-price.  volgram's
inverse-gamma fit stops on it with "singular Jacobian"; the benchmark
counts that fit as a failed operation.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass
from zoneinfo import ZoneInfo

import numpy as np

WINDOW_LEN = 600
N_SYMBOLS = 150
MEAN_UPDATES = 50            # quote updates per (window, symbol), mean
OFF_SESSION_SHARE = 1 / 3    # share of symbols quoting outside the session
DAY_START = _dt.time(7, 0)
DAY_END = _dt.time(18, 0)
SESSION_OPEN = _dt.time(9, 30)
SESSION_CLOSE = _dt.time(16, 0)
PHI_MEAN = 2.0               # inverse-gamma tail of the seeded windows
PHI_SD = 0.25
PHI_MIN = 1.2
SCALE = 1e5                  # volume-price scale, so volumes are share counts
ZERO_LAST_SHARE = 0.02       # pairs whose last quote has zero volume
MALFORMED_SHARE = 0.005
CONCENTRATED_SHARE = 0.999   # volume-price share of the dominant company
TZ = ZoneInfo("America/New_York")

_MALFORMED = (
    "2013-02-30T10:00:00Z,{sym},10.00,100",   # no such date
    "{ts},{sym},-4.10,100",                   # negative price
    "{ts},{sym},0,100",                       # zero price
    "{ts},{sym},12.50,-7",                    # negative volume
    "{ts},{sym},n/a,100",                     # not a number
    "{ts},{sym},12.50,",                      # missing volume
    "{ts},,12.50,100",                        # missing symbol
    "{ts},{sym},nan,100",                     # not finite
)


@dataclass(frozen=True)
class Reduction:
    """What ingest must produce from the generated file."""
    n_rows: int
    n_malformed: int
    session_starts: list[float]          # sorted in-session window starts
    n_session_filtered: int
    samples: dict[float, np.ndarray]     # window start -> sorted s / <s>
    phi_true: dict[float, float]         # seeded windows only
    concentrated_start: float


def trading_day(seed: int) -> _dt.date:
    """A weekday of 2013 picked by the seed; DST and standard time both occur."""
    day = _dt.date(2013, 1, 2) + _dt.timedelta(days=seed % 360)
    while day.weekday() >= 5:
        day += _dt.timedelta(days=1)
    return day


def _epoch(day: _dt.date, t: _dt.time) -> int:
    return int(_dt.datetime.combine(day, t, TZ).timestamp())


def _iso_column(epochs: np.ndarray, styles: np.ndarray, fracs: np.ndarray,
                day: _dt.date, offset_s: int) -> list[str]:
    """ISO 8601 texts in three styles: Z, +00:00, or the local offset.

    All epochs fall on ``day`` in both UTC and local time (07:00-18:00
    in New York is 11:00-23:00 UTC).
    """
    sign = "-" if offset_s < 0 else "+"
    local_off = f"{sign}{abs(offset_s) // 3600:02d}:{abs(offset_s) % 3600 // 60:02d}"
    suffixes = ("Z", "+00:00", local_off)
    tod = (epochs + np.where(styles == 2, offset_s, 0)) % 86400
    hh, rem = np.divmod(tod, 3600)
    mm, ss = np.divmod(rem, 60)
    date = day.isoformat()
    frac_text = ("", ".250", ".5")
    return [f"{date}T{h:02d}:{m:02d}:{s:02d}{frac_text[f]}{suffixes[st]}"
            for h, m, s, f, st in zip(hh.tolist(), mm.tolist(), ss.tolist(),
                                      fracs.tolist(), styles.tolist())]


def _concentrated_volumes(n: int) -> np.ndarray:
    # n-1 small companies spread over a factor of 30, one holding the rest
    small = np.rint(1e6 / np.linspace(1.0 / 30.0, 1.0, n - 1))
    big = np.rint(small.sum() * CONCENTRATED_SHARE / (1.0 - CONCENTRATED_SHARE))
    return np.r_[small, big]


def generate(path, seed: int) -> Reduction:
    """Write the quotes CSV for ``seed`` to ``path`` and return its reduction."""
    rng = np.random.default_rng([seed, 7001])
    day = trading_day(seed)
    offset_s = int(_dt.datetime.combine(day, _dt.time(12, 0), TZ)
                   .utcoffset().total_seconds())
    first, last = _epoch(day, DAY_START), _epoch(day, DAY_END)
    open_s, close_s = _epoch(day, SESSION_OPEN), _epoch(day, SESSION_CLOSE)
    starts = list(range(first, last, WINDOW_LEN))
    concentrated = close_s - WINDOW_LEN
    symbols = [f"S{i:03d}" for i in range(N_SYMBOLS)]
    base_price = np.round(np.exp(rng.normal(3.5, 0.7, N_SYMBOLS)), 2).clip(0.5)

    lines = ["timestamp,symbol,last_price,volume"]
    n_malformed = 0
    samples: dict[float, np.ndarray] = {}
    phi_true: dict[float, float] = {}
    n_filtered = 0
    phi = PHI_MEAN
    for start in starts:
        in_session = open_s <= start and start + WINDOW_LEN <= close_s
        if in_session:
            quoting = np.arange(N_SYMBOLS)
        else:
            n_filtered += 1
            quoting = np.sort(rng.choice(N_SYMBOLS, int(N_SYMBOLS * OFF_SESSION_SHARE),
                                         replace=False))
        # last-quote targets: seeded inverse-gamma draws, or the fixed window
        if start == concentrated:
            prices = np.full(quoting.size, 20.0)
            volumes = _concentrated_volumes(quoting.size)
        else:
            phi = max(PHI_MIN, PHI_MEAN + 0.8 * (phi - PHI_MEAN)
                      + PHI_SD * math.sqrt(1 - 0.64) * rng.standard_normal())
            draws = SCALE / rng.gamma(phi, 1.0, quoting.size)
            prices = base_price[quoting]
            volumes = np.maximum(1.0, np.rint(draws / prices))
            zero = rng.random(quoting.size) < ZERO_LAST_SHARE
            volumes[zero] = 0.0
        if in_session:
            pv = np.array([float(f"{p:.2f}") * float(f"{v:.0f}")
                           for p, v in zip(prices, volumes)])
            pv = pv[pv > 0.0]
            samples[float(start)] = np.sort(pv / pv.mean())
            if start != concentrated:
                phi_true[float(start)] = phi
        n_updates = 1 + rng.poisson(MEAN_UPDATES - 1, quoting.size)
        owner = np.repeat(np.arange(quoting.size), n_updates)
        offs = np.concatenate([np.sort(rng.choice(np.arange(1, WINDOW_LEN - 1), m,
                                                  replace=False)) for m in n_updates])
        is_last = np.zeros(owner.size, dtype=bool)
        is_last[np.cumsum(n_updates) - 1] = True
        price = base_price[quoting[owner]] * np.exp(0.01 * rng.standard_normal(owner.size))
        vol = rng.integers(1, 5000, owner.size).astype(float)
        vol[rng.random(owner.size) < 0.05] = 0.0
        price[is_last] = prices
        vol[is_last] = volumes
        styles = rng.integers(0, 3, owner.size)
        frac_idx = rng.integers(0, 3, owner.size)
        bad = rng.random(owner.size) < MALFORMED_SHARE
        bad_kind = rng.integers(0, len(_MALFORMED), owner.size)
        bad_sym = rng.integers(0, N_SYMBOLS, owner.size)
        order = np.lexsort((owner, offs))
        stamps = _iso_column(start + offs[order], styles[order], frac_idx[order],
                             day, offset_s)
        for ts, i in zip(stamps, order.tolist()):
            if bad[i]:
                lines.append(_MALFORMED[bad_kind[i]].format(ts=ts, sym=symbols[bad_sym[i]]))
                n_malformed += 1
            lines.append(f"{ts},{symbols[quoting[owner[i]]]},{price[i]:.2f},{vol[i]:.0f}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return Reduction(n_rows=len(lines) - 1, n_malformed=n_malformed,
                     session_starts=sorted(samples), n_session_filtered=n_filtered,
                     samples=samples, phi_true=phi_true,
                     concentrated_start=float(concentrated))
