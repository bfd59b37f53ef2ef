"""Least-squares fitting of model CDFs to per-window empirical CDFs.

The optimizer is a damped Gauss-Newton iteration with a Levenberg-style
multiplier on the normal-equation diagonal.  Its Jacobian comes from the
closed-form derivatives in the model table; only the gamma family's
shape column is a forward difference, one ``cdf_grid`` row per
iteration.  Parameter errors come from the usual linearization
``cov = (J^T J)^{-1} rss / (m - 2)``; the relative errors
``stderr(phi)/|phi|`` and ``stderr(theta)/|theta|`` are the per-window
quality measure that the cross-model ranking aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import (ALL_KINDS, EmpiricalCDF, ModelKind, ModelParams,
                            empirical_cdf)
from .errors import NoConvergedFits, VolgramError

_PARAM_FLOOR = 1e-12
_STEP_TOL = 1e-9
_GRAD_TOL = 1e-10
_MAX_ITER = 200
_MAX_CLAMPS = 20
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    rel_err_phi: float
    rel_err_theta: float
    rss: float
    converged: bool
    iterations: int
    message: str = ""


@dataclass(frozen=True)
class ModelErrorStats:
    avg_rel_err_phi: float
    std_rel_err_phi: float
    avg_rel_err_theta: float
    std_rel_err_theta: float
    n_converged: int
    n_failed: int
    hist_phi: tuple[np.ndarray, np.ndarray]
    hist_theta: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ErrorSummary:
    per_model: dict[ModelKind, ModelErrorStats]
    n_windows: int
    n_failed: int


def _lower_bounds(kind: ModelKind) -> np.ndarray:
    phi_floor = _PARAM_FLOOR if dist._MODELS[kind].phi_positive else -np.inf
    return np.array([phi_floor, _PARAM_FLOOR])


def _residual(kind: ModelKind, p: np.ndarray, ecdf: EmpiricalCDF) -> np.ndarray:
    model = dist.cdf(ModelParams(kind, float(p[0]), float(p[1])), ecdf.s)
    return np.asarray(model) - ecdf.f


def _jacobian(kind: ModelKind, p: np.ndarray, r: np.ndarray,
              ecdf: EmpiricalCDF) -> np.ndarray:
    d_phi, d_theta = dist._MODELS[kind].derivs(float(p[0]), float(p[1]), ecdf.s)
    if d_phi is None:
        # forward difference, step max(1e-6 phi, 1e-9), from the model
        # CDF that the residual r already holds
        hi = p[0] + max(1e-6 * p[0], 1e-9)
        probe = dist.cdf_grid(kind, [hi], [p[1]], ecdf.s)[0]
        d_phi = (probe - (r + ecdf.f)) / (hi - p[0])
    return np.column_stack([d_phi, d_theta])


def fit_cdf(kind: ModelKind, ecdf: EmpiricalCDF, guess: ModelParams) -> FitResult:
    """Fit one model's CDF to an empirical CDF, from ``guess`` (usually
    ``initial_guess``, whose log-moment start keeps the gamma-family
    fits off the saturated CDF of heavy-tailed windows).

    Each iteration costs one Jacobian from the model table's derivatives
    (plus one ``cdf_grid`` row for the gamma-family shape) and one
    residual per damping trial.  Converges when the relative parameter
    step drops below 1e-9 or the gradient norm below 1e-10, capped at
    200 iterations.  A step that leaves the parameter domain is
    clamped; twenty consecutive clamped steps abort the fit.  Singular normal equations are reported in the
    result rather than raised.
    """
    if guess.kind is not kind:
        raise VolgramError(f"guess is for {guess.kind}, expected {kind}")
    if not guess.is_valid():
        raise VolgramError(f"initial guess outside the {kind} domain")
    m = ecdf.s.size
    if m < 3:
        return FitResult(guess, np.inf, np.inf, np.inf, False, 0,
                         "fewer than 3 distinct CDF points")
    lb = _lower_bounds(kind)
    p = np.array([guess.phi, guess.theta], dtype=float)
    r = _residual(kind, p, ecdf)
    rss = float(r @ r)
    lam = _LAMBDA_INIT
    converged = False
    message = "iteration cap reached"
    clamp_streak = 0
    for iters in range(1, _MAX_ITER + 1):
        jac = _jacobian(kind, p, r, ecdf)
        # the last iteration's J^T J also gives the covariance below
        jtj = jac.T @ jac
        grad = jac.T @ r
        if float(np.linalg.norm(grad)) < _GRAD_TOL:
            converged = True
            message = "gradient norm below tolerance"
            break
        diag = np.diag(jtj).copy()
        if not np.all(np.isfinite(jtj)) or np.any(diag <= 0.0):
            message = "singular Jacobian"
            break
        # why the fit stops after this step; None carries on
        stop = "damping exhausted without improvement"
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                stop = "singular Jacobian"
                break
            trial = p + step
            clamped = np.any(trial < lb)
            trial = np.maximum(trial, lb)
            r_trial = _residual(kind, trial, ecdf)
            rss_trial = float(r_trial @ r_trial)
            if np.isfinite(rss_trial) and rss_trial <= rss:
                rel_step = float(np.max(np.abs(trial - p)
                                        / np.maximum(np.abs(p), _PARAM_FLOOR)))
                p, r, rss = trial, r_trial, rss_trial
                lam = max(lam / 10.0, 1e-12)
                clamp_streak = clamp_streak + 1 if clamped else 0
                stop = None
                if clamp_streak >= _MAX_CLAMPS:
                    stop = "domain escape: step clamping repeated"
                elif rel_step < _STEP_TOL:
                    converged = True
                    stop = "parameter step below tolerance"
                break
            lam *= 10.0
        if stop is not None:
            message = stop
            break
    params = ModelParams(kind, float(p[0]), float(p[1]))
    rel_phi = rel_theta = np.inf
    try:
        cov = np.linalg.inv(jtj) * rss / (m - 2)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
        rel_phi = float(se[0] / max(abs(p[0]), _PARAM_FLOOR))
        rel_theta = float(se[1] / max(abs(p[1]), _PARAM_FLOOR))
    except np.linalg.LinAlgError:
        converged = False
        message = "singular Jacobian"
    return FitResult(params, rel_phi, rel_theta, rss, converged, iters, message)


def fit_window_all_models(window, kinds: tuple[ModelKind, ...] = ALL_KINDS,
                          ) -> dict[ModelKind, FitResult]:
    """Independent fits of the requested models to one window.

    Accepts a SnapshotWindow or a bare sample array.  Per-model failures
    (bad guess, non-convergence) are embedded in the returned results;
    only an unusable sample set raises.
    """
    samples = getattr(window, "samples", window)
    ecdf = empirical_cdf(samples)
    out: dict[ModelKind, FitResult] = {}
    for kind in kinds:
        try:
            guess = dist.initial_guess(kind, samples)
            out[kind] = fit_cdf(kind, ecdf, guess)
        except VolgramError as err:
            fallback = ModelParams(kind, np.nan, np.nan)
            out[kind] = FitResult(fallback, np.inf, np.inf, np.inf,
                                  False, 0, str(err))
    return out


def error_summary(results: list[dict[ModelKind, FitResult]],
                  hist_bins: int = 64) -> ErrorSummary:
    """Average/std of the relative parameter errors per model, over the
    converged fits, with histogram arrays for the error distributions."""
    if not results:
        raise NoConvergedFits("no fit results to summarize")
    kinds = [k for k in ALL_KINDS if any(k in row for row in results)]
    per_model: dict[ModelKind, ModelErrorStats] = {}
    total_failed = 0
    for kind in kinds:
        rows = [row[kind] for row in results if kind in row]
        good = [fr for fr in rows if fr.converged]
        n_failed = len(rows) - len(good)
        total_failed += n_failed
        if not good:
            raise NoConvergedFits(f"model {kind} has no converged fits")
        rp = np.array([fr.rel_err_phi for fr in good])
        rt = np.array([fr.rel_err_theta for fr in good])
        hist_phi = np.histogram(rp, bins=hist_bins)
        hist_theta = np.histogram(rt, bins=hist_bins)
        per_model[kind] = ModelErrorStats(
            avg_rel_err_phi=float(rp.mean()),
            std_rel_err_phi=float(rp.std()),
            avg_rel_err_theta=float(rt.mean()),
            std_rel_err_theta=float(rt.std()),
            n_converged=len(good),
            n_failed=n_failed,
            hist_phi=(hist_phi[1], hist_phi[0]),
            hist_theta=(hist_theta[1], hist_theta[0]),
        )
    return ErrorSummary(per_model=per_model, n_windows=len(results),
                        n_failed=total_failed)
