"""Drift/diffusion reconstruction from a fitted-parameter time series.

The parameter series is treated as a realization of
``d phi = D1(phi) dt + sqrt(D2(phi)) dW`` with the Wiener normalization
``<W_t W_t'> = 2 delta(t - t')``, so a simulated step carries variance
``2 D2 dt``.  Conditional moments of the tau-step increments are fitted
linearly in tau with an intercept; the slopes give D1 and D2 (the latter
halved, from the 1/n! in the coefficient definition) and the intercept
of the second moment at the mean-value bin gives the measurement-noise
amplitude sqrt(a2 / 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllBinsUnderpopulated, InsufficientTauPoints, SeriesTooShort
from .market_data import ParamSeries


@dataclass(frozen=True)
class ConditionalMoments:
    """Binned conditional moments M1, M2 of tau-step increments.

    Only bins whose conditioning count reaches the ``min_count`` of
    ``conditional_moments`` at every tau are reported; arrays are indexed
    [bin, tau-1].
    """
    bin_centers: np.ndarray
    counts: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    taus: np.ndarray
    dt: float
    mean_value: float
    bin_width: float


@dataclass(frozen=True)
class KMCoefficients:
    """Per-bin drift/diffusion estimates plus the global drift line."""
    bin_centers: np.ndarray
    counts: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d2_raw: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    m1_line_rss: np.ndarray
    m2_line_rss: np.ndarray
    noise_sigma: float
    drift_slope: float
    fixed_point: float
    sqrt_mean_d2: float
    tau_fit_range: tuple[int, int]


def _gap_prefix(series: ParamSeries) -> np.ndarray:
    """Prefix sums G with G[t2] - G[t1] == 0 iff no gap inside (t1, t2]."""
    flags = np.zeros(len(series), dtype=np.int64)
    flags[series.gaps + 1] = 1
    return np.cumsum(flags)


def _bin_index(v: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges of n_bins equal-width bins over the range of v, and the bin
    of each value."""
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        # constant series: give the grid a token width so the single
        # populated bin reports its (zero) moments
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.searchsorted(edges, v, side="right")
    idx -= 1
    return edges, np.clip(idx, 0, n_bins - 1, out=idx)


def conditional_moments(series: ParamSeries, n_bins: int = 50,
                        tau_max: int = 10, min_count: int = 100,
                        ) -> ConditionalMoments:
    """Average tau-step increments and their squares, conditioned on the
    equal-width bin of the starting value."""
    if tau_max < 3:
        raise InsufficientTauPoints("tau_max must be at least 3")
    n = len(series)
    if n < 10 * n_bins:
        raise SeriesTooShort(f"need at least {10 * n_bins} points for "
                             f"{n_bins} bins, got {n}")
    if tau_max >= n:
        raise SeriesTooShort(f"need more than tau_max={tau_max} points, got {n}")
    v = series.values
    edges, idx = _bin_index(v, n_bins)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    prefix = _gap_prefix(series) if series.gaps.size else None

    counts = np.zeros((n_bins, tau_max), dtype=np.int64)
    m1 = np.full((n_bins, tau_max), np.nan)
    m2 = np.full((n_bins, tau_max), np.nan)
    work = np.empty(n - 1)
    for tau in range(1, tau_max + 1):
        inc = np.subtract(v[tau:], v[:-tau], out=work[:n - tau])
        b = idx[:-tau]
        if prefix is not None:
            valid = (prefix[tau:] - prefix[:-tau]) == 0
            b, inc = b[valid], inc[valid]
        cnt = np.bincount(b, minlength=n_bins)
        s1 = np.bincount(b, weights=inc, minlength=n_bins)
        s2 = np.bincount(b, weights=np.multiply(inc, inc, out=inc),
                         minlength=n_bins)
        col = tau - 1
        counts[:, col] = cnt
        nz = cnt > 0
        m1[nz, col] = s1[nz] / cnt[nz]
        m2[nz, col] = s2[nz] / cnt[nz]

    reported = counts.min(axis=1) >= min_count
    if not np.any(reported):
        raise AllBinsUnderpopulated(
            f"no bin reaches min_count={min_count} at every tau")
    return ConditionalMoments(
        bin_centers=centers[reported],
        counts=counts[reported],
        m1=m1[reported],
        m2=m2[reported],
        taus=np.arange(1, tau_max + 1),
        dt=series.dt,
        mean_value=float(v.mean()),
        bin_width=float(width),
    )


def _line_fit(y: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row OLS of y against tau; returns (intercept, slope, rss)."""
    tm = taus.mean()
    dtau = taus - tm
    denom = float((dtau * dtau).sum())
    ym = y.mean(axis=1)
    slope = ((y - ym[:, None]) * dtau).sum(axis=1) / denom
    intercept = ym - slope * tm
    resid = y - (intercept[:, None] + slope[:, None] * taus)
    return intercept, slope, (resid * resid).sum(axis=1)


def _mean_bin_index(moments: ConditionalMoments) -> int | None:
    """The reported bin that contains the series mean, or None if that bin
    fell below min_count."""
    i = int(np.argmin(np.abs(moments.bin_centers - moments.mean_value)))
    half = 0.5 * moments.bin_width
    if abs(moments.bin_centers[i] - moments.mean_value) > half * (1.0 + 1e-9):
        return None
    return i


def km_estimate(moments: ConditionalMoments,
                tau_fit_range: tuple[int, int] = (1, 5)) -> KMCoefficients:
    """Extract D1, D2, the measurement-noise amplitude, and the affine
    drift line from the conditional moments.

    Per bin, M_n(tau) is fitted as a_n + b_n tau over the requested lag
    range; D1 = b1/dt and D2 = b2/(2 dt).  The drift line is a weighted
    least-squares fit of D1 against the bin centers with the conditioning
    counts as weights; its zero crossing is the fixed point.  The noise
    amplitude is read at the bin containing the series mean; it is NaN
    when that bin was not reported.
    """
    tau_lo, tau_hi = int(tau_fit_range[0]), int(tau_fit_range[1])
    if tau_lo < 1 or tau_hi > int(moments.taus[-1]) or tau_hi - tau_lo + 1 < 3:
        raise InsufficientTauPoints(
            f"need >= 3 lag points inside [1, {int(moments.taus[-1])}], "
            f"got [{tau_lo}, {tau_hi}]")
    sel = slice(tau_lo - 1, tau_hi)
    taus = moments.taus[sel].astype(float)
    a1, b1, rss1 = _line_fit(moments.m1[:, sel], taus)
    a2, b2, rss2 = _line_fit(moments.m2[:, sel], taus)
    d1 = b1 / moments.dt
    d2_raw = b2 / (2.0 * moments.dt)
    d2 = np.where(d2_raw < 0.0, 0.0, d2_raw)

    mean_bin = _mean_bin_index(moments)
    noise_sigma = (float("nan") if mean_bin is None
                   else float(np.sqrt(max(a2[mean_bin], 0.0) / 2.0)))

    w = moments.counts[:, tau_lo - 1].astype(float)
    centers = moments.bin_centers
    wsum = w.sum()
    xm = float((w * centers).sum() / wsum)
    ym = float((w * d1).sum() / wsum)
    var = float((w * (centers - xm) ** 2).sum())
    if var <= 0.0:
        slope = 0.0
        fixed_point = float("nan")
    else:
        slope = float((w * (centers - xm) * (d1 - ym)).sum() / var)
        intercept = ym - slope * xm
        fixed_point = -intercept / slope if slope != 0.0 else float("nan")

    return KMCoefficients(
        bin_centers=centers,
        counts=moments.counts[:, tau_lo - 1].copy(),
        d1=d1,
        d2=d2,
        d2_raw=d2_raw,
        a1=a1,
        a2=a2,
        m1_line_rss=rss1,
        m2_line_rss=rss2,
        noise_sigma=noise_sigma,
        drift_slope=slope,
        fixed_point=fixed_point,
        sqrt_mean_d2=float(np.sqrt(d2.mean())),
        tau_fit_range=(tau_lo, tau_hi),
    )


@dataclass(frozen=True)
class MarkovTestResult:
    distance: float
    threshold: float
    passed: bool
    n_cells: int


def _triple_counts(idx: np.ndarray, valid: np.ndarray | None, n_bins: int,
                   lag: int) -> np.ndarray:
    """Counts c3[x1, x2, x3] of the lag-spaced bin triples whose span
    ``valid`` marks gap-free (None: every triple)."""
    h = idx[:-2 * lag]
    i = idx[lag:-lag]
    j = idx[2 * lag:]
    if valid is not None:
        h, i, j = h[valid], i[valid], j[valid]
    code = h * n_bins
    code += i
    code *= n_bins
    code += j
    return np.bincount(code, minlength=n_bins ** 3).reshape(n_bins, n_bins, n_bins)


def _markov_distance(c3: np.ndarray, min_cell: int) -> tuple[float, int]:
    """Count-weighted mean |p(x3|x2,x1) - p(x3|x2)| over conditioning
    cells (x1, x2) with at least ``min_cell`` events."""
    c2 = c3.sum(axis=0)       # the (x2, x3) counts of the same events
    n3 = c3.sum(axis=2)
    n2 = c2.sum(axis=1)
    keep = n3 >= min_cell
    if not keep.any():
        return float("nan"), 0
    with np.errstate(invalid="ignore", divide="ignore"):
        p3 = c3 / np.maximum(n3, 1)[:, :, None]
        p2 = c2 / np.maximum(n2, 1)[:, None]
    diff = np.abs(p3 - p2[None, :, :]).mean(axis=2)
    w = n3 * keep
    return float((w * diff).sum() / w.sum()), int(keep.sum())


def markov_test(series: ParamSeries, n_bins: int = 20, lag: int = 1,
                min_cell_count: int = 30, n_surrogates: int = 100,
                threshold_percentile: float = 95.0,
                seed: int = 0) -> MarkovTestResult:
    """Compare two-point and three-point conditional probabilities.

    The distance between p(x3|x2) and p(x3|x2,x1) on a bin grid is
    calibrated against Theiler's i.i.d. surrogate null, which keeps the
    marginal and destroys all temporal structure; the series passes when
    its distance stays below the surrogate percentile.  The distance
    reads only the triple counts, so a surrogate is drawn as counts, not
    as a series: Multinomial(m, p x p x p), with m the number of gap-free
    triples and p the marginal bin frequencies, one level at a time (the
    x1 counts, then the x2 counts per x1, then the x3 counts per
    (x1, x2)).  This treats the m overlapping triples of a shuffled
    series as independent draws, which its counts approach as the series
    grows; no surrogate costs a pass over the series.
    """
    n = len(series)
    if n < 10 * n_bins or n < 2 * lag + 1:
        raise SeriesTooShort(f"series of length {n} too short for the "
                             f"{n_bins}-bin Markov test")
    _, idx = _bin_index(series.values, n_bins)
    valid, m = None, n - 2 * lag
    if series.gaps.size:
        prefix = _gap_prefix(series)
        valid = (prefix[2 * lag:] - prefix[:-2 * lag]) == 0
        m = int(valid.sum())

    distance, n_cells = _markov_distance(
        _triple_counts(idx, valid, n_bins, lag), min_cell_count)
    if n_cells == 0:
        raise AllBinsUnderpopulated(
            f"no conditioning cell reaches {min_cell_count} events")

    rng = np.random.default_rng(seed)
    p = np.bincount(idx, minlength=n_bins) / n
    stats = np.empty(n_surrogates)
    for k in range(n_surrogates):
        c3 = rng.multinomial(rng.multinomial(rng.multinomial(m, p), p), p)
        stats[k], _ = _markov_distance(c3, min_cell_count)
    if np.any(np.isnan(stats)):
        raise AllBinsUnderpopulated(
            "surrogate calibration found no qualifying cells; reduce "
            "n_bins or min_cell_count for a series of this length")
    threshold = float(np.percentile(stats, threshold_percentile,
                                    method="higher"))
    return MarkovTestResult(distance=distance, threshold=threshold,
                            passed=bool(distance <= threshold),
                            n_cells=n_cells)
