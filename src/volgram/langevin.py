"""Synthetic ground-truth generators.

``simulate_langevin`` integrates ``d phi = D1 dt + sqrt(D2) dW`` by
Euler-Maruyama under the 2-delta Wiener normalization, so each step adds
noise of variance ``2 D2 dt``.  ``simulate_market`` builds on it: an
inverse-gamma cross section per window whose tail parameter follows a
Langevin trajectory.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import ModelKind, ModelParams
from .errors import DomainError
from .market_data import ParamSeries, SnapshotWindow

_MIN_MARKET_PHI = 0.05
_NOISE_SLICE = 1 << 16   # noise values converted to Python floats at a time


@dataclass(frozen=True)
class LangevinSpec:
    """Drift/diffusion description of one trajectory.

    Drift is affine, ``D1(x) = drift_slope * (x - fixed_point)`` (a
    restoring force has negative slope), and diffusion is a constant
    ``D2``.
    """
    dt: float
    n_steps: int
    initial: float
    seed: int
    drift_slope: float
    fixed_point: float
    diffusion: float

    def __post_init__(self):
        for name in ("dt", "initial", "drift_slope", "fixed_point", "diffusion"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise DomainError("dt must be positive")
        if self.n_steps < 1:
            raise DomainError("n_steps must be >= 1")
        if self.diffusion < 0.0:
            raise DomainError("D2 must be non-negative")


@dataclass(frozen=True)
class MarketSim:
    """Synthetic market windows plus the tail-parameter ground truth."""
    windows: list[SnapshotWindow]
    truth: ParamSeries


def simulate_langevin(spec: LangevinSpec) -> ParamSeries:
    """Euler-Maruyama trajectory of length n_steps.

    Update rule: x += D1(x) dt + sqrt(2 D2 dt) xi, with xi standard
    normal; the factor two implements the 2-delta Wiener convention.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_steps
    noise = rng.standard_normal(n - 1) if n > 1 else np.empty(0)
    dt = spec.dt
    slope, fp = float(spec.drift_slope), float(spec.fixed_point)
    scale = math.sqrt(2.0 * spec.diffusion * dt)
    x = float(spec.initial)
    path = np.empty(n)
    path[0] = x
    # the noise goes to Python floats one slice at a time, so the loop
    # holds at most _NOISE_SLICE of them next to the float64 path
    for start in range(0, n - 1, _NOISE_SLICE):
        for i, xi in enumerate(noise[start:start + _NOISE_SLICE].tolist(),
                               start + 1):
            x += slope * (x - fp) * dt + scale * xi
            path[i] = x
    return ParamSeries(values=path, dt=dt)


def add_measurement_noise(series: ParamSeries, sigma_m: float,
                          seed: int) -> ParamSeries:
    """Superimpose i.i.d. N(0, sigma_m^2) on the values; gaps survive."""
    if sigma_m < 0.0:
        raise DomainError("sigma_m must be non-negative")
    if sigma_m == 0.0:
        return series
    rng = np.random.default_rng(seed)
    noisy = series.values + rng.normal(0.0, sigma_m, size=len(series))
    return ParamSeries(values=noisy, dt=series.dt, gaps=series.gaps.copy())


def simulate_market(n_companies: int, n_windows: int,
                    phi_process: LangevinSpec, seed: int,
                    window_len: float = 600.0) -> MarketSim:
    """Inverse-gamma market driven by a stochastic tail parameter.

    Window t draws n_companies volume-prices from InverseGamma(phi(t), 1)
    and normalizes them by their mean; the clamped phi trajectory is
    returned for oracle comparisons.  Each window consumes an independent
    substream of the seed, so any window is reproducible on its own.
    """
    if n_companies < 1 or n_windows < 1:
        raise DomainError("n_companies and n_windows must be >= 1")
    proc = dataclasses.replace(phi_process, n_steps=n_windows)
    truth = simulate_langevin(proc)
    phis = np.maximum(truth.values, _MIN_MARKET_PHI)
    windows = []
    for t in range(n_windows):
        raw = dist.sample(ModelParams(ModelKind.INVERSE_GAMMA, float(phis[t]), 1.0),
                          n_companies, seed=[seed, t])
        mean_s = float(raw.mean())
        windows.append(SnapshotWindow(
            window_start=t * window_len,
            window_len=window_len,
            samples=raw / mean_s,
            mean_s=mean_s,
            n_companies=n_companies,
        ))
    return MarketSim(windows=windows, truth=ParamSeries(values=phis, dt=1.0))
