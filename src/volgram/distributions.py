"""The four bi-parametric volume-price models and the empirical CDF.

Each model carries a shape-like parameter ``phi`` and a scale-like
parameter ``theta`` (for the log-normal, ``phi`` is the log-mean).  PDFs
are evaluated in log space and exponentiated at the end, which keeps the
inverse-gamma factor exp(-theta/s) finite for s near zero.  Everything
that differs between the models lives in one ``_Model`` record per
``ModelKind``; the public functions only look the record up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSample, DomainError, TooFewSamples
from .special_functions import erf, ln_gamma, reg_inc_gamma_lower, reg_inc_gamma_upper

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


class ModelKind(enum.Enum):
    GAMMA = "gamma"
    INVERSE_GAMMA = "inverse-gamma"
    LOG_NORMAL = "log-normal"
    WEIBULL = "weibull"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ModelParams:
    kind: ModelKind
    phi: float
    theta: float

    def is_valid(self) -> bool:
        if not (math.isfinite(self.phi) and math.isfinite(self.theta)):
            return False
        if self.theta <= 0.0:
            return False
        return self.phi > 0.0 or not _MODELS[self.kind].phi_positive


@dataclass(frozen=True)
class Moments:
    """Analytic mean/variance; ``None`` marks a moment that does not exist."""
    mean: float | None
    variance: float | None


@dataclass(frozen=True)
class EmpiricalCDF:
    """Sorted sample values with plotting-position probabilities."""
    s: np.ndarray
    f: np.ndarray
    n: int


def empirical_cdf(samples) -> EmpiricalCDF:
    """Empirical CDF with positions F_k = (k - 1/2)/n, k = 1..n.

    Tied sample values are collapsed to a single point carrying the
    largest position, so F stays strictly increasing and never touches
    0 or 1.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size < 10:
        raise TooFewSamples(f"need at least 10 samples, got {arr.size}")
    s = np.sort(arr)
    n = s.size
    f = (np.arange(1, n + 1) - 0.5) / n
    keep = np.r_[s[1:] != s[:-1], True]
    return EmpiricalCDF(s=s[keep], f=f[keep], n=n)


# -- the model table ---------------------------------------------------------

def _gamma_draws(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """Unit-scale gamma variates by squeeze-based rejection.

    Shapes below one are boosted: draw from shape+1 and multiply by
    U^(1/shape).
    """
    boosted = shape < 1.0
    d = (shape + 1.0 if boosted else shape) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        m = int(need * 1.2) + 16
        z = rng.standard_normal(m)
        u = rng.random(m)
        v = (1.0 + c * z) ** 3
        pos = v > 0.0
        logv = np.log(np.where(pos, v, 1.0))
        accept = pos & (
            (u < 1.0 - 0.0331 * z ** 4)
            | (np.log(u) < 0.5 * z * z + d * (1.0 - v + logv))
        )
        got = d * v[accept]
        take = min(got.size, need)
        out[filled:filled + take] = got[:take]
        filled += take
    if boosted:
        out *= rng.random(n) ** (1.0 / shape)
    return out


def _inverse_gamma_moments(phi, theta):
    mean = theta / (phi - 1.0) if phi > 1.0 else None
    var = (theta * theta / ((phi - 1.0) ** 2 * (phi - 2.0))
           if phi > 2.0 else None)
    return Moments(mean, var)


def _log_moment_shape(y):
    """Gamma shape from log moments (Minka, "Estimating a Gamma
    distribution", 2002), and the mean of y.

    With s = ln mean(y) - mean(ln y), the closed form
    (3 - s + sqrt((s - 3)^2 + 24 s)) / (12 s) is within 1.5% of the
    maximum-likelihood shape, and it needs no variance, which the
    heavy-tailed windows do not have.
    """
    m = float(y.mean())
    s = -float(np.log(y / m).mean())
    if s <= 0.0:
        raise DegenerateSample("log-moment spread is zero")
    return (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s), m


def _gamma_guess(arr, ecdf):
    phi, m = _log_moment_shape(arr)
    return phi, m / phi


def _inverse_gamma_guess(arr, ecdf):
    # 1/s is Gamma(phi, scale 1/theta)
    phi, m = _log_moment_shape(1.0 / arr)
    return phi, phi / m


def _log_normal_log_pdf(phi, theta, s):
    log_s = np.log(s)
    z = (log_s - phi) / theta
    return -log_s - math.log(theta) - _LOG_SQRT_TWO_PI - 0.5 * z * z


def _log_normal_derivs(phi, theta, s):
    z = (np.log(s) - phi) / theta
    # from a far start z * z overflows to inf, where the density is 0
    with np.errstate(over="ignore"):
        density = np.exp(-0.5 * z * z - _LOG_SQRT_TWO_PI)
    return -density / theta, -z * density


def _log_normal_guess(arr, ecdf):
    logs = np.log(arr)
    spread = float(logs.std())
    if spread <= 0.0:
        raise DegenerateSample("log-sample variance is zero")
    return float(logs.mean()), spread


def _weibull_cdf(phi, theta, s):
    # (s/theta)^phi overflows to inf at a large shape, where F is 1
    with np.errstate(over="ignore"):
        return 1.0 - np.exp(-np.exp(phi * (np.log(s) - np.log(theta))))


def _weibull_log_pdf(phi, theta, s):
    log_s = np.log(s)
    ratio_pow = np.exp(phi * (log_s - math.log(theta)))
    return math.log(phi) - phi * math.log(theta) + (phi - 1.0) * log_s - ratio_pow


def _weibull_moments(phi, theta):
    g1 = math.exp(ln_gamma(1.0 + 1.0 / phi))
    g2 = math.exp(ln_gamma(1.0 + 2.0 / phi))
    return Moments(theta * g1, theta * theta * (g2 - g1 * g1))


def _weibull_derivs(phi, theta, s):
    log_ratio = np.log(s) - math.log(theta)
    log_u = phi * log_ratio
    u_exp_u = np.exp(log_u - np.exp(log_u))      # u e^-u, finite for any u
    # a scale family too: dF/dln(theta) = -s f(s) = -phi u e^-u
    return u_exp_u * log_u, -phi * u_exp_u


def _weibull_guess(arr, ecdf):
    if ecdf is None:
        ecdf = empirical_cdf(arr)
    y = np.log(-np.log1p(-ecdf.f))
    x = np.log(ecdf.s)
    xm, ym = x.mean(), y.mean()
    denom = float(((x - xm) ** 2).sum())
    if denom <= 0.0:
        raise DegenerateSample("sample spread too small for the Weibull regression")
    slope = float(((x - xm) * (y - ym)).sum()) / denom
    intercept = ym - slope * xm
    return slope, math.exp(-intercept / slope)


@dataclass(frozen=True)
class _Model:
    """Everything that differs between the model kinds.

    ``cdf`` takes phi and theta as columns broadcast against a row of s,
    so one call covers a whole probe grid; it looks the special functions
    up as module globals when called.  The other entries take scalar
    parameters.  ``derivs`` gives the derivatives of F over s, in closed
    form, in the fitter's parameters q = (ln phi, ln theta), or
    (phi, ln theta) where phi may be negative; its dF/dq0 is None for
    the gamma family, where the fitter takes the shape derivative of the
    incomplete gamma function as a one-row forward difference.
    """
    cdf: Callable          # (phi, theta, s) -> F
    log_pdf: Callable      # (phi, theta, s) -> ln f
    derivs: Callable       # (phi, theta, s) -> (dF/dq0 or None, dF/dq1)
    moments: Callable      # (phi, theta) -> Moments
    draw: Callable         # (rng, phi, theta, n) -> n samples
    guess: Callable        # (samples, EmpiricalCDF or None) -> (phi, theta)
    phi_positive: bool = True


def _gamma_log_pdf(phi, theta, s):
    return ((phi - 1.0) * np.log(s) - s / theta
            - phi * math.log(theta) - ln_gamma(phi))


def _inverse_gamma_log_pdf(phi, theta, s):
    return (phi * math.log(theta) - ln_gamma(phi)
            - (phi + 1.0) * np.log(s) - theta / s)


def _gamma_family_derivs(log_pdf):
    """No shape derivative; theta is a scale, F(s) = G(s/theta), so
    dF/dln(theta) = -s f(s)."""
    def derivs(phi, theta, s):
        return None, -np.exp(log_pdf(phi, theta, s) + np.log(s))
    return derivs


_MODELS = {
    ModelKind.GAMMA: _Model(
        cdf=lambda phi, theta, s: reg_inc_gamma_lower(phi, s / theta),
        log_pdf=_gamma_log_pdf,
        derivs=_gamma_family_derivs(_gamma_log_pdf),
        moments=lambda phi, theta: Moments(phi * theta, phi * theta * theta),
        draw=lambda rng, phi, theta, n: theta * _gamma_draws(rng, phi, n),
        guess=_gamma_guess),
    ModelKind.INVERSE_GAMMA: _Model(
        cdf=lambda phi, theta, s: reg_inc_gamma_upper(phi, theta / s),
        log_pdf=_inverse_gamma_log_pdf,
        derivs=_gamma_family_derivs(_inverse_gamma_log_pdf),
        moments=_inverse_gamma_moments,
        # reciprocal of Gamma(phi, scale 1/theta)
        draw=lambda rng, phi, theta, n: theta / _gamma_draws(rng, phi, n),
        guess=_inverse_gamma_guess),
    ModelKind.LOG_NORMAL: _Model(
        cdf=lambda phi, theta, s: 0.5 * (1.0 + np.asarray(
            erf((np.log(s) - phi) / (theta * math.sqrt(2.0))))),
        log_pdf=_log_normal_log_pdf,
        derivs=_log_normal_derivs,
        moments=lambda phi, theta: Moments(
            math.exp(phi + 0.5 * theta * theta),
            (math.exp(theta * theta) - 1.0) * math.exp(2.0 * phi + theta * theta)),
        draw=lambda rng, phi, theta, n: np.exp(phi + theta * rng.standard_normal(n)),
        guess=_log_normal_guess,
        phi_positive=False),
    ModelKind.WEIBULL: _Model(
        cdf=_weibull_cdf,
        log_pdf=_weibull_log_pdf,
        derivs=_weibull_derivs,
        moments=_weibull_moments,
        draw=lambda rng, phi, theta, n: theta * rng.standard_exponential(n) ** (1.0 / phi),
        guess=_weibull_guess),
}


def _check_params(params: ModelParams) -> None:
    if not params.is_valid():
        raise DomainError(f"invalid parameters for {params.kind}: "
                          f"phi={params.phi}, theta={params.theta}")


def _check_support(s: np.ndarray) -> None:
    # a NaN fails both comparisons
    if s.size and not (s.min() > 0.0 and s.max() < math.inf):
        raise DomainError("model support is s > 0")


def pdf(params: ModelParams, s):
    """Probability density at s > 0."""
    _check_params(params)
    arr = np.asarray(s, dtype=float)
    _check_support(arr)
    out = np.exp(_MODELS[params.kind].log_pdf(params.phi, params.theta, arr))
    return float(out) if arr.ndim == 0 else out


def cdf(params: ModelParams, s):
    """Cumulative probability at s > 0.

    Gamma: P(phi, s/theta).  Inverse gamma: Q(phi, theta/s).
    Log-normal: (1 + erf((ln s - phi) / (theta sqrt(2)))) / 2.
    Weibull: 1 - exp(-(s/theta)^phi).
    """
    _check_params(params)
    arr = np.asarray(s, dtype=float)
    _check_support(arr)
    out = _MODELS[params.kind].cdf(np.array([[params.phi]]),
                                   np.array([[params.theta]]), arr.reshape(1, -1))
    out = np.asarray(out).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def cdf_grid(kind: ModelKind, phis, thetas, s) -> np.ndarray:
    """CDF of one model at several parameter pairs over a common grid.

    Returns an array of shape (len(phis), len(s)).  Every pair must pass
    ``ModelParams.is_valid``.  This is the bulk entry point the fitter
    uses for its gamma-family shape probe.
    """
    phi_col = np.asarray(phis, dtype=float).reshape(-1, 1)
    theta_col = np.asarray(thetas, dtype=float).reshape(-1, 1)
    if phi_col.shape != theta_col.shape:
        raise DomainError("phis and thetas must have equal length")
    for phi, theta in zip(phi_col.ravel().tolist(), theta_col.ravel().tolist()):
        _check_params(ModelParams(kind, phi, theta))
    arr = np.asarray(s, dtype=float).reshape(1, -1)
    _check_support(arr)
    return np.asarray(_MODELS[kind].cdf(phi_col, theta_col, arr))


def analytic_moments(params: ModelParams) -> Moments:
    """Mean and variance where they exist (inverse-gamma moments require
    phi > 1 and phi > 2 respectively)."""
    _check_params(params)
    return _MODELS[params.kind].moments(params.phi, params.theta)


def sample(params: ModelParams, n: int, seed) -> np.ndarray:
    """n deterministic draws from the model, all strictly positive.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; callers
    building substreams pass sequences like ``[seed, stream]``.
    """
    _check_params(params)
    if n < 1:
        raise DomainError("sample size must be >= 1")
    rng = np.random.default_rng(seed)
    return _MODELS[params.kind].draw(rng, params.phi, params.theta, n)


def initial_guess(kind: ModelKind, samples,
                  ecdf: EmpiricalCDF | None = None) -> ModelParams:
    """Closed-form starting point for the CDF fit.

    Gamma and inverse gamma start from Minka's log-moment shape (of the
    samples and of their reciprocals), which exists where the variance
    does not.  Log-normal takes the mean and spread of ln s; Weibull
    regresses ln(-ln(1-F)) on ln s over the empirical CDF, ``ecdf`` if
    the caller already holds that of ``samples``.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size < 10:
        raise TooFewSamples(f"need at least 10 samples, got {arr.size}")
    _check_support(arr)
    if float(arr.var()) <= 0.0:
        raise DegenerateSample("sample variance is zero")
    phi, theta = _MODELS[kind].guess(arr, ecdf)
    return ModelParams(kind, phi, theta)


ALL_KINDS = tuple(ModelKind)
