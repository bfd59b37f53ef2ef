"""Special functions backing the model CDFs.

Everything here is plain numpy so that a whole empirical-CDF grid can be
evaluated in one call.  The incomplete gamma uses the standard split:
series expansion for ``x < a + 1``, continued fraction (modified Lentz)
otherwise, both iterated to 1e-15 with a cap of 500 terms.  The error
function is the standard library's ``math.erf``, applied elementwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergence

_MAX_ITER = 500
_TOL = 1e-15
_TINY = 1e-300

# Lanczos coefficients, g = 7, 9 terms.  Relative error of ln(gamma) is a
# few ulp over the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.9189385332046727417803297

_MATH_ERF = np.frompyfunc(math.erf, 1, 1)


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ln_gamma_core(x: np.ndarray) -> np.ndarray:
    # valid for x >= 0.5; callers shift smaller arguments
    z = x - 1.0
    acc = np.full_like(z, _LANCZOS[0])
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc = acc + c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(acc)


def ln_gamma(x):
    """Natural log of the gamma function for x > 0.

    Arguments below 0.5 are lifted with ``ln G(x) = ln G(x+1) - ln x`` to
    keep the Lanczos sum well conditioned.
    """
    arr, scalar = _as_array(x)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    small = arr < 0.5
    shifted = np.where(small, arr + 1.0, arr)
    out = _ln_gamma_core(shifted)
    out = np.where(small, out - np.log(arr), out)
    return float(out) if scalar else out


def _inc_gamma_series(a: np.ndarray, x: np.ndarray):
    """Ascending series for P(a, x), x < a + 1, 8 terms per step.

    Yields the converged mask and the partial sums; sending an index
    array compacts the working arrays to those entries.  Overshooting a
    converged element only shrinks its (already negligible) terms.
    """
    ap = a.copy()
    term = 1.0 / ap
    total = term.copy()
    while True:
        for _ in range(8):
            ap += 1.0
            term *= x / ap
            total += term
        keep = yield np.abs(term) < np.abs(total) * _TOL, total
        if keep is not None:
            x, ap, term, total = x[keep], ap[keep], term[keep], total[keep]


def _inc_gamma_cf(a: np.ndarray, x: np.ndarray):
    """Continued fraction (modified Lentz) for Q(a, x), x >= a + 1.

    Same protocol as ``_inc_gamma_series``.  Extra Lentz iterations past
    convergence are stable (delta stays 1), so testing only at the end
    of each step is safe.
    """
    # here x >= a + 1, so b starts at 2 or above
    b = x + 1.0 - a
    c = np.full_like(b, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while True:
        for _ in range(8):
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            np.copyto(d, _TINY, where=np.abs(d) < _TINY)
            c = b + an / c
            np.copyto(c, _TINY, where=np.abs(c) < _TINY)
            d = 1.0 / d
            delta = d * c
            h *= delta
        keep = yield np.abs(delta - 1.0) < _TOL, h
        if keep is not None:
            a, b, c, d, h = a[keep], b[keep], c[keep], d[keep], h[keep]


def _sum_to_convergence(terms, a: np.ndarray, x: np.ndarray, lng: np.ndarray,
                        message: str) -> np.ndarray:
    """Run the recurrence ``terms`` on (a, x > 0) until each element converges.

    ``lng`` carries ln(gamma(a)) precomputed by the caller.  Converged
    elements get ``sum * x^a e^-x / gamma(a)`` and are compacted out of
    the working set, so long input vectors do not pay for their slowest
    entry.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    steps = terms(a, x)
    keep = None
    for _ in range(_MAX_ITER // 8):
        done, acc = steps.send(keep)
        keep = None
        if done.any():
            fin = idx[done]
            out[fin] = acc[done] * np.exp(-x[fin] + a[fin] * np.log(x[fin]) - lng[fin])
            keep = np.nonzero(~done)[0]
            idx = idx[keep]
            if idx.size == 0:
                return out
    raise NonConvergence(message)


def _inc_gamma(name: str, a, x, upper: bool):
    """Validate and broadcast (a, x), then evaluate P, or Q if ``upper``.

    Each element is computed on whichever representation is direct,
    series P below x = a + 1 and continued-fraction Q above, and the
    other function is one minus it.
    """
    a_arr, a_scalar = _as_array(a)
    x_arr, x_scalar = _as_array(x)
    if np.any(~np.isfinite(a_arr)) or np.any(a_arr <= 0.0):
        raise DomainError(f"{name} requires a > 0, got {a!r}")
    if np.any(~np.isfinite(x_arr)) or np.any(x_arr < 0.0):
        raise DomainError(f"{name} requires x >= 0, got {x!r}")
    a_b, x_b = np.broadcast_arrays(a_arr, x_arr)
    shape = x_b.shape
    a_b = np.ascontiguousarray(a_b, dtype=float).ravel()
    x_flat = np.ascontiguousarray(x_b, dtype=float).ravel()
    # ln(gamma) over the pre-broadcast argument, so a scalar or per-row
    # shape parameter costs one evaluation, not one per grid point
    lng_base = np.asarray(ln_gamma(a_arr if a_arr.ndim else float(a_arr)))
    lng = np.ascontiguousarray(np.broadcast_to(lng_base, shape)).ravel()
    # P(a, 0) = 0 exactly
    out = np.full(x_flat.shape, 1.0 if upper else 0.0)
    ser = (x_flat > 0.0) & (x_flat < a_b + 1.0)
    if np.any(ser):
        p = _sum_to_convergence(_inc_gamma_series, a_b[ser], x_flat[ser], lng[ser],
                                "incomplete gamma series hit the iteration cap")
        out[ser] = 1.0 - p if upper else p
    cf = x_flat >= a_b + 1.0
    if np.any(cf):
        q = _sum_to_convergence(_inc_gamma_cf, a_b[cf], x_flat[cf], lng[cf],
                                "incomplete gamma continued fraction hit the iteration cap")
        out[cf] = q if upper else 1.0 - q
    out = np.clip(out, 0.0, 1.0).reshape(shape)
    return float(out) if (a_scalar and x_scalar) else out


def reg_inc_gamma_lower(a, x):
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    return _inc_gamma("reg_inc_gamma_lower", a, x, upper=False)


def reg_inc_gamma_upper(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Each element is computed on whichever representation is direct, so
    the pair satisfies P + Q = 1 to machine precision.
    """
    return _inc_gamma("reg_inc_gamma_upper", a, x, upper=True)


def erf(x):
    """Error function of finite x, ``math.erf`` over each element."""
    arr, scalar = _as_array(x)
    if np.any(~np.isfinite(arr)):
        raise DomainError(f"erf requires finite x, got {x!r}")
    out = np.asarray(_MATH_ERF(arr), dtype=float)
    return float(out) if scalar else out
