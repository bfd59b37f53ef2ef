"""Special functions backing the model CDFs.

Everything here is plain numpy so that a whole empirical-CDF grid can be
evaluated in one call.  The incomplete gamma sums the series for P when
``x < max(a + 1, 10)`` and the continued fraction (modified Lentz) for Q
otherwise, both iterated to 1e-15 with a cap of 500 terms, and takes
the other function as one minus it.  The split at a + 1 alone would
minimise the number of terms; below x = 10 the series still needs fewer
numpy operations, which is what a call costs.  Accuracy is absolute,
about 1e-15: a small Q with a + 1 <= x < 10 is 1 - P and carries P's
absolute error, not a relative one.  Log-gamma
and the error function are the standard library's ``math.lgamma`` and
``math.erf``, applied elementwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergence

_MAX_ITER = 500
_TOL = 1e-15
_TINY = 1e-300
# the series serves every x below max(a + 1, _SERIES_X)
_SERIES_X = 10.0

_MATH_ERF = np.frompyfunc(math.erf, 1, 1)


def _lgamma(x: float) -> float:
    # past x ~ 2.6e305 ln(gamma) exceeds the float range: math.lgamma
    # raises and sets the overflow flag, and the answer is inf
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


_MATH_LGAMMA = np.frompyfunc(_lgamma, 1, 1)


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def ln_gamma(x):
    """Natural log of the gamma function for finite x > 0,
    ``math.lgamma`` over each element."""
    arr, scalar = _as_array(x)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    with np.errstate(over="ignore"):
        out = np.asarray(_MATH_LGAMMA(arr), dtype=float)
    return float(out) if scalar else out


def _take(v, index):
    """``v[index]`` for a per-element array; a float shared by every
    element stays as it is."""
    return v[index] if isinstance(v, np.ndarray) else v


def _inc_gamma_series(a, x: np.ndarray):
    """Ascending series for P(a, x), x < max(a + 1, 10), 8 terms per step.

    ``a`` is one float shared by every element of ``x``, or an array
    like ``x``.  Yields the converged mask and the partial sums; sending
    an index array compacts the working arrays to those entries.
    Overshooting a converged element only shrinks its (already
    negligible) terms.
    """
    ap = a
    term = np.full_like(x, 1.0) / a
    total = term.copy()
    while True:
        for _ in range(8):
            ap = ap + 1.0
            term *= x / ap
            total += term
        # x > 0 and a > 0, so every term and sum is positive
        keep = yield term < total * _TOL, total
        if keep is not None:
            x, ap, term, total = x[keep], _take(ap, keep), term[keep], total[keep]


def _inc_gamma_cf(a, x: np.ndarray):
    """Continued fraction (modified Lentz) for Q(a, x), x >= max(a + 1, 10).

    Below x = 10 the series serves even for x >= a + 1, because it needs
    fewer numpy operations there; Q is then 1 - P, accurate to about
    1e-15 absolute but not relative.  Same protocol and ``a`` as
    ``_inc_gamma_series``.  Extra Lentz
    iterations past convergence are stable (delta stays 1), so testing
    only at the end of each step is safe.  Lentz's guards against a zero
    d or c are left out, because for x >= a + 1 neither comes near zero:
    for a < 1 this is the even part of a Stieltjes fraction with positive
    coefficients, and over 4e5 pairs with a in [1e-3, 3e3] and x from
    a + 1 to 1e3 (a + 1) no d fell below 3.5 and no c below 4.
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
            d *= an
            d += b
            np.divide(an, c, out=c)
            c += b
            np.divide(1.0, d, out=d)
            delta = d * c
            h *= delta
        keep = yield np.abs(delta - 1.0) < _TOL, h
        if keep is not None:
            a, b, c, d, h = _take(a, keep), b[keep], c[keep], d[keep], h[keep]


def _sum_to_convergence(terms, a, x: np.ndarray, lng, message: str) -> np.ndarray:
    """Run the recurrence ``terms`` on (a, x > 0) until each element converges.

    ``a`` and ``lng``, ln(gamma(a)) precomputed by the caller, are
    floats or arrays like ``x``.  Converged elements get
    ``sum * x^a e^-x / gamma(a)`` and are compacted out of the working
    set, so long input vectors do not pay for their slowest entry.
    """
    out = np.empty_like(x)
    scale = np.exp(-x + a * np.log(x) - lng)
    idx = np.arange(x.size)
    steps = terms(a, x)
    keep = None
    for _ in range(_MAX_ITER // 8):
        done, acc = steps.send(keep)
        keep = None
        if done.any():
            fin = idx[done]
            out[fin] = acc[done] * scale[fin]
            keep = np.nonzero(~done)[0]
            idx = idx[keep]
            if idx.size == 0:
                return out
    raise NonConvergence(message)


def _inc_gamma(name: str, a, x, upper: bool):
    """Validate and broadcast (a, x), then evaluate P, or Q if ``upper``.

    Each element is computed on whichever representation is direct,
    series P below x = max(a + 1, 10) and continued-fraction Q above, and
    the other function is one minus it.  A shape given as one element, as
    in a single CDF row, reaches the recurrences as a float.
    """
    a_arr, a_scalar = _as_array(a)
    x_arr, x_scalar = _as_array(x)
    if np.any(~np.isfinite(a_arr)) or np.any(a_arr <= 0.0):
        raise DomainError(f"{name} requires a > 0, got {a!r}")
    if np.any(~np.isfinite(x_arr)) or np.any(x_arr < 0.0):
        raise DomainError(f"{name} requires x >= 0, got {x!r}")
    shape = np.broadcast_shapes(a_arr.shape, x_arr.shape)
    x_flat = np.ascontiguousarray(np.broadcast_to(x_arr, shape)).ravel()
    if a_arr.size == 1:
        a_w = a_arr.item()
        lng = _lgamma(a_w)
    else:
        a_w = np.ascontiguousarray(np.broadcast_to(a_arr, shape)).ravel()
        # ln(gamma) over the pre-broadcast argument, so a per-row shape
        # costs one evaluation per row, not one per grid point
        lng = np.ascontiguousarray(np.broadcast_to(ln_gamma(a_arr), shape)).ravel()
    # P(a, 0) = 0 exactly
    out = np.full(x_flat.shape, 1.0 if upper else 0.0)
    below = x_flat < np.maximum(a_w + 1.0, _SERIES_X)
    ser = below & (x_flat > 0.0)
    if np.any(ser):
        p = _sum_to_convergence(_inc_gamma_series, _take(a_w, ser), x_flat[ser],
                                _take(lng, ser),
                                "incomplete gamma series hit the iteration cap")
        out[ser] = 1.0 - p if upper else p
    cf = ~below
    if np.any(cf):
        q = _sum_to_convergence(_inc_gamma_cf, _take(a_w, cf), x_flat[cf], _take(lng, cf),
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
    the pair satisfies P + Q = 1 to machine precision.  The error is
    absolute (see the module docstring): below x = 10 a small Q is
    1 - P.
    """
    return _inc_gamma("reg_inc_gamma_upper", a, x, upper=True)


def erf(x):
    """Error function of finite x, ``math.erf`` over each element."""
    arr, scalar = _as_array(x)
    if np.any(~np.isfinite(arr)):
        raise DomainError(f"erf requires finite x, got {x!r}")
    out = np.asarray(_MATH_ERF(arr), dtype=float)
    return float(out) if scalar else out
