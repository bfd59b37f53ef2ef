"""Special functions backing the model CDFs.

Everything here is plain numpy so that a whole empirical-CDF grid can be
evaluated in one call.  The incomplete gamma is evaluated one shape at a
time: the elements of each distinct shape form a row, in their order,
and one kernel takes the row.  It sums the series for P when
``x < max(a + 1, 10)`` and the continued fraction (modified Lentz) for Q
otherwise, both iterated to 1e-15 with a cap of 500 terms, and takes
the other function as one minus it.  The series runs once per row, as
a scalar recurrence at the row's largest point xm, and each point's sum
is then a polynomial in x/xm taken in blocks of 8 terms: one matrix
product and a Horner pass, a fixed handful of numpy calls per row.  So
a value's last bits depend on its row's xm.  The split at a + 1 alone
would minimise the number of terms; below x = 10 the series still needs
fewer numpy operations, which is what a call costs.  Accuracy is absolute, about 1e-15: a small
Q with a + 1 <= x < 10 is 1 - P and carries P's absolute error, not a
relative one.  Log-gamma and the error function are the standard
library's ``math.lgamma`` and ``math.erf``, applied elementwise.
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
    if arr.size and not (arr.min() > 0.0 and arr.max() < math.inf):
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    with np.errstate(over="ignore"):
        out = np.asarray(_MATH_LGAMMA(arr), dtype=float)
    return float(out) if scalar else out


def _series_row(a: float, x: np.ndarray, lng: float) -> np.ndarray:
    """P(a, x) for one shape ``a`` over a row 0 < x < max(a + 1, 10).

    The ascending series sum_k t_k(x), t_0 = 1/a, t_k = t_(k-1) x/(a + k),
    runs as a scalar recurrence at xm, the row's largest point, until a
    term falls below 1e-15 of the sum, tested every 8 terms (its terms
    fall faster at every smaller x).  With u = x/xm each element's sum is
    the polynomial sum_k t_k(xm) u^k, taken in blocks of 8 terms: one
    product of the (J, 8) coefficients with the powers u^0..u^7, then
    Horner in u^8 over the J block sums.  Every coefficient is at most
    the largest term and u <= 1, so nothing overflows.  ``lng`` is
    ln(gamma(a)).  A value's last bits depend on xm, so the row, not the
    element, is the unit of evaluation.
    """
    xm = float(x.max())
    ap = a
    term = 1.0 / a
    total = term
    terms = [term]
    for _ in range(_MAX_ITER // 8):
        for _ in range(8):
            ap += 1.0
            term *= xm / ap
            total += term
            terms.append(term)
        # x > 0 and a > 0, so every term and sum is positive
        if term < total * _TOL:
            break
    else:
        raise NonConvergence("incomplete gamma series hit the iteration cap")
    # 8 J + 1 terms, padded with zeros to J + 1 whole blocks
    coef = np.zeros(-(-len(terms) // 8) * 8)
    coef[:len(terms)] = terms
    powers = np.empty((8, x.size))
    powers[0] = 1.0
    u = np.divide(x, xm, out=powers[1])
    for i in range(2, 8):
        np.multiply(powers[i - 1], u, out=powers[i])
    u8 = powers[7] * u
    coef = coef.reshape(-1, 8)
    blocks = np.empty((len(coef), x.size))
    # OpenBLAS hands a product of about 1e6 multiply-adds to its thread
    # pool; column slices of at most 2**19 multiply-adds stay on this one.
    # The CLI starts no pool, so this serves library callers whose numpy
    # keeps one.
    width = max(1, 2**16 // len(coef))
    for i in range(0, x.size, width):
        np.matmul(coef, powers[:, i:i + width], out=blocks[:, i:i + width])
    p = blocks[-1]
    for block in blocks[-2::-1]:
        p *= u8
        p += block
    return p * np.exp(-x + a * np.log(x) - lng)


def _inc_gamma_cf(a: float, x: np.ndarray, lng: float) -> np.ndarray:
    """Q(a, x) by continued fraction (modified Lentz), x >= max(a + 1, 10).

    ``lng`` is ln(gamma(a)).  Each element is taken at the first block of
    8 iterations that converges it, and converged elements are compacted
    out of the working set, so long input vectors do not pay for their
    slowest entry.  Extra Lentz iterations past convergence are stable
    (delta stays 1), so testing only at the end of each block is safe.
    Lentz's guards against a zero d or c are left out, because for
    x >= a + 1 neither comes near zero: for a < 1 this is the even part
    of a Stieltjes fraction with positive coefficients, and over 4e5
    pairs with a in [1e-3, 3e3] and x from a + 1 to 1e3 (a + 1) no d fell
    below 3.5 and no c below 4.
    """
    out = np.empty_like(x)
    scale = np.exp(-x + a * np.log(x) - lng)
    idx = np.arange(x.size)
    # here x >= a + 1, so b starts at 2 or above
    b = x + 1.0 - a
    c = np.full_like(b, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    i = 0
    for _ in range(_MAX_ITER // 8):
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
        done = np.abs(delta - 1.0) < _TOL
        if done.any():
            fin = idx[done]
            out[fin] = h[done] * scale[fin]
            keep = np.flatnonzero(~done)
            idx = idx[keep]
            if idx.size == 0:
                return out
            b, c, d, h = b[keep], c[keep], d[keep], h[keep]
    raise NonConvergence("incomplete gamma continued fraction hit the iteration cap")


def _inc_gamma_row(a: float, x: np.ndarray, upper: bool) -> np.ndarray:
    """P(a, x), or Q if ``upper``, for one shape over a 1-d row x >= 0:
    series P below x = max(a + 1, 10), continued-fraction Q above, and
    the other function as one minus it."""
    lng = _lgamma(a)
    below = x < max(a + 1.0, _SERIES_X)
    # P(a, 0) = 0 exactly
    out = np.full(x.shape, 1.0 if upper else 0.0)
    ser = below & (x > 0.0)
    if ser.any():
        p = _series_row(a, x[ser], lng)
        out[ser] = 1.0 - p if upper else p
    cf = ~below
    if cf.any():
        q = _inc_gamma_cf(a, x[cf], lng)
        out[cf] = q if upper else 1.0 - q
    return out


def _inc_gamma(name: str, a, x, upper: bool):
    """Validate and broadcast (a, x), then evaluate P, or Q if ``upper``.

    The elements of one distinct shape form one row, in their order, and
    each row goes through ``_inc_gamma_row``: rows of a stacked call with
    distinct shapes equal their single-row calls bit for bit.
    """
    a_arr, a_scalar = _as_array(a)
    x_arr, x_scalar = _as_array(x)
    if a_arr.size and not (a_arr.min() > 0.0 and a_arr.max() < math.inf):
        raise DomainError(f"{name} requires a > 0, got {a!r}")
    if x_arr.size and not (x_arr.min() >= 0.0 and x_arr.max() < math.inf):
        raise DomainError(f"{name} requires x >= 0, got {x!r}")
    shape = np.broadcast_shapes(a_arr.shape, x_arr.shape)
    if a_arr.size == 1:
        out = _inc_gamma_row(a_arr.item(), x_arr.ravel(), upper)
    else:
        a_flat = np.broadcast_to(a_arr, shape).ravel()
        x_flat = np.broadcast_to(x_arr, shape).ravel()
        out = np.empty(a_flat.shape)
        # stable, so each shape's elements keep their order
        order = np.argsort(a_flat, kind="stable")
        cuts = np.flatnonzero(np.diff(a_flat[order])) + 1
        # np.split of an empty order still gives one (empty) row
        for row in np.split(order, cuts) if order.size else ():
            out[row] = _inc_gamma_row(a_flat[row[0]].item(), x_flat[row], upper)
    out = np.clip(out, 0.0, 1.0).reshape(shape)
    return float(out) if (a_scalar and x_scalar) else out


def reg_inc_gamma_lower(a, x):
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    return _inc_gamma("reg_inc_gamma_lower", a, x, upper=False)


def reg_inc_gamma_upper(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Each element is computed on whichever representation is direct, so
    the pair satisfies P + Q = 1 to machine precision.  The error is
    absolute, about 1e-15 (see the module docstring): below x = 10 a
    small Q is 1 - P, summed as a blocked polynomial in x/xm over the
    row of points that share its shape, so its last bits depend on that
    row's largest point xm.
    """
    return _inc_gamma("reg_inc_gamma_upper", a, x, upper=True)


def erf(x):
    """Error function of finite x, ``math.erf`` over each element."""
    arr, scalar = _as_array(x)
    if arr.size and not (arr.min() > -math.inf and arr.max() < math.inf):
        raise DomainError(f"erf requires finite x, got {x!r}")
    out = np.asarray(_MATH_ERF(arr), dtype=float)
    return float(out) if scalar else out
