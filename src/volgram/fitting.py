"""Least-squares fitting of model CDFs to per-window empirical CDFs.

The optimizer is a damped Gauss-Newton iteration with a Levenberg-style
multiplier on the normal-equation diagonal.  It iterates on
q = (ln phi, ln theta), with the log-normal's phi (a log-mean) kept
linear, so no step can leave the parameter domain.  Its Jacobian comes
from the closed-form derivatives in q of the model table; only the
gamma family's shape column is a forward difference, one ``cdf_grid``
row per iteration.  Parameter errors come from the usual linearization
``cov = (J^T J)^{-1} rss / (m - 2)`` in q, so the relative errors
``stderr(phi)/|phi|`` and ``stderr(theta)/|theta|`` are the standard
errors of ln phi and ln theta (of phi over |phi| for the log-normal);
they are the per-window quality measure that the cross-model ranking
aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import (ALL_KINDS, EmpiricalCDF, ModelKind, ModelParams,
                            empirical_cdf)
from .errors import NoConvergedFits, NumericalError, VolgramError

_OFFSET_TOL = 1e-4
_SHAPE_STEP = 1e-6
_MAX_ITER = 200
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


def _params(kind: ModelKind, q: np.ndarray) -> ModelParams:
    """(phi, theta) at q.  An exp that overflows gives inf and one that
    underflows gives 0, both outside the domain."""
    with np.errstate(over="ignore"):
        phi, theta = np.exp(q)
    if not dist._MODELS[kind].phi_positive:
        phi = q[0]
    return ModelParams(kind, float(phi), float(theta))


def _residual(params: ModelParams, ecdf: EmpiricalCDF) -> np.ndarray:
    return np.asarray(dist.cdf(params, ecdf.s)) - ecdf.f


def _jacobian(params: ModelParams, r: np.ndarray, ecdf: EmpiricalCDF) -> np.ndarray:
    kind, phi, theta = params.kind, params.phi, params.theta
    d_q0, d_q1 = dist._MODELS[kind].derivs(phi, theta, ecdf.s)
    if d_q0 is None:
        # forward difference in ln phi, from the model CDF that the
        # residual r already holds
        probe = dist.cdf_grid(kind, [phi * math.exp(_SHAPE_STEP)], [theta], ecdf.s)[0]
        d_q0 = (probe - (r + ecdf.f)) / _SHAPE_STEP
    return np.column_stack([d_q0, d_q1])


def fit_cdf(kind: ModelKind, ecdf: EmpiricalCDF, guess: ModelParams) -> FitResult:
    """Fit one model's CDF to an empirical CDF, from ``guess`` (usually
    ``initial_guess``, whose log-moment start keeps the gamma-family
    fits off the saturated CDF of heavy-tailed windows).

    Each iteration costs one Jacobian from the model table's derivatives
    (plus one ``cdf_grid`` row for the gamma-family shape) and one
    residual per damping trial.  A trial outside the parameter domain
    (where exp(q) overflows or underflows), one whose CDF overflows or
    raises a ``NumericalError``, and one with a non-finite rss are all
    rejected like one that raises the rss.  Singular normal equations
    are reported in the result rather than raised.

    The fit stops on the relative-offset criterion of Bates and Watts
    (Technometrics 23, 1981), tested at the top of each iteration before
    any trial.  With g = J^T r at the current point, ``g^T (J^T J)^{-1} g``
    is the part of the rss that a full Gauss-Newton step would remove,
    and the fit has converged when
    ``sqrt(that / p) <= tau * sqrt((rss - that) / (m - p))``, p = 2.  The
    left side over the right is about the length of the remaining
    Gauss-Newton step, measured in the linearized covariance of q,
    divided by sqrt(p).  So at tau = 1e-4 the step still open moves no
    parameter by more than about 1.4e-4 of its standard error, well
    inside the 1e-3 standard errors that value parity allows, while the
    digits beyond it, down to the rounding floor of the rss, are left
    unchased.  A converged fit's errors come from J^T J at the point it
    returns.  The fit is capped at 200 iterations.
    """
    if guess.kind is not kind:
        raise VolgramError(f"guess is for {guess.kind}, expected {kind}")
    if not guess.is_valid():
        raise VolgramError(f"initial guess outside the {kind} domain")
    m = ecdf.s.size
    if m < 3:
        return FitResult(guess, np.inf, np.inf, np.inf, False, 0,
                         "fewer than 3 distinct CDF points")
    log_phi = dist._MODELS[kind].phi_positive
    q = np.array([math.log(guess.phi) if log_phi else guess.phi,
                  math.log(guess.theta)])
    params = guess
    r = _residual(params, ecdf)
    rss = float(r @ r)
    lam = _LAMBDA_INIT
    converged = False
    message = "iteration cap reached"
    for iters in range(1, _MAX_ITER + 1):
        jac = _jacobian(params, r, ecdf)
        # the last iteration's J^T J also gives the covariance below
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(jtj).copy()
        if not np.all(np.isfinite(jtj)) or np.any(diag <= 0.0):
            message = "singular Jacobian"
            break
        try:
            reducible = float(grad @ np.linalg.solve(jtj, grad))
        except np.linalg.LinAlgError:
            message = "singular Jacobian"
            break
        if reducible / 2 <= _OFFSET_TOL ** 2 * (rss - reducible) / (m - 2):
            converged = True
            message = "relative offset below tolerance"
            break
        # why the fit stops after this step; None carries on
        stop = "damping exhausted without improvement"
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                stop = "singular Jacobian"
                break
            trial = _params(kind, q + step)
            try:
                # dist.cdf raises DomainError outside the parameter domain
                with np.errstate(over="raise"):
                    r_trial = _residual(trial, ecdf)
                rss_trial = float(r_trial @ r_trial)
            except (NumericalError, FloatingPointError):
                rss_trial = math.inf
            if math.isfinite(rss_trial) and rss_trial < rss:
                q, params, r, rss = q + step, trial, r_trial, rss_trial
                lam = max(lam / 10.0, 1e-12)
                stop = None
                break
            lam *= 10.0
        if stop is not None:
            message = stop
            break
    rel_phi = rel_theta = np.inf
    try:
        cov = np.linalg.inv(jtj) * rss / (m - 2)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
        rel_phi = float(se[0] if log_phi else se[0] / abs(params.phi))
        rel_theta = float(se[1])
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
            guess = dist.initial_guess(kind, samples, ecdf)
            out[kind] = fit_cdf(kind, ecdf, guess)
        except VolgramError as err:
            fallback = ModelParams(kind, np.nan, np.nan)
            out[kind] = FitResult(fallback, np.inf, np.inf, np.inf,
                                  False, 0, str(err))
    return out


def error_summary(rows: list[dict], hist_bins: int = 64) -> dict:
    """The summary report from fit rows (the ``fits.jsonl`` records):
    average/std of the relative parameter errors per model, over the
    converged fits, with histograms of the error distributions, keyed by
    model name."""
    if not rows:
        raise NoConvergedFits("no fit results to summarize")
    models = {}
    for kind in ALL_KINDS:
        entries = [row["models"][kind.value] for row in rows
                   if kind.value in row["models"]]
        if not entries:
            continue
        good = [m for m in entries if m["converged"]]
        if not good:
            raise NoConvergedFits(f"model {kind} has no converged fits")
        rp = np.array([m["rel_err_phi"] for m in good], dtype=float)
        rt = np.array([m["rel_err_theta"] for m in good], dtype=float)
        counts_phi, edges_phi = np.histogram(rp, bins=hist_bins)
        counts_theta, edges_theta = np.histogram(rt, bins=hist_bins)
        models[kind.value] = {
            "avg_rel_err_phi": float(rp.mean()),
            "std_rel_err_phi": float(rp.std()),
            "avg_rel_err_theta": float(rt.mean()),
            "std_rel_err_theta": float(rt.std()),
            "n_converged": len(good),
            "n_failed": len(entries) - len(good),
            "hist_phi": {"edges": edges_phi.tolist(), "counts": counts_phi.tolist()},
            "hist_theta": {"edges": edges_theta.tolist(), "counts": counts_theta.tolist()},
        }
    return {"models": models, "n_windows": len(rows),
            "n_failed": sum(m["n_failed"] for m in models.values())}
