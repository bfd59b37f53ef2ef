"""Special-function accuracy against the frozen quadrature oracle."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volgram.errors import DomainError
from volgram.special_functions import (erf, ln_gamma, reg_inc_gamma_lower,
                                       reg_inc_gamma_upper)

ORACLE = json.loads(
    (Path(__file__).parent / "data" / "specfun_oracle.json").read_text())


def test_ln_gamma_known_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
    assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)
    # past x ~ 2.6e305 ln(gamma) exceeds the float range
    assert ln_gamma(1e306) == math.inf
    assert ln_gamma(np.array([1e306]))[0] == math.inf


def test_ln_gamma_vectorized():
    x = np.array([0.25, 1.0, 3.5, 40.0])
    out = ln_gamma(x)
    assert out.shape == x.shape
    for xi, oi in zip(x, out):
        assert oi == pytest.approx(ln_gamma(float(xi)), rel=1e-15)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_ln_gamma_recurrence(x):
    lhs = ln_gamma(x + 1.0)
    rhs = ln_gamma(x) + math.log(x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-2.5)


def test_inc_gamma_against_quadrature_oracle():
    for point in ORACLE["gamma"]:
        a, x, expected = point["a"], point["x"], point["p"]
        assert reg_inc_gamma_lower(a, x) == pytest.approx(expected, abs=1e-10)
        assert reg_inc_gamma_upper(a, x) == pytest.approx(1.0 - expected,
                                                          abs=1e-10)


def test_inc_gamma_exponential_special_case():
    # P(1, x) is 1 - exp(-x)
    for x in (0.1, 1.0, 2.5, 7.0):
        assert reg_inc_gamma_lower(1.0, x) == pytest.approx(
            1.0 - math.exp(-x), rel=1e-12)
    assert reg_inc_gamma_lower(1.0, 1.0) == pytest.approx(0.6321205588, abs=1e-9)


def test_inc_gamma_at_zero():
    for a in (0.1, 1.0, 12.0):
        assert reg_inc_gamma_lower(a, 0.0) == 0.0
        assert reg_inc_gamma_upper(a, 0.0) == 1.0


def test_inc_gamma_derived_quadrature_point():
    # integral of t^1.5 exp(-t) / Gamma(2.5) over [0, 1.7], frozen from
    # the adaptive-Simpson oracle
    assert reg_inc_gamma_lower(2.5, 1.7) == pytest.approx(
        ORACLE["named"]["p_2p5_1p7"], abs=1e-10)


def test_inc_gamma_complement_identity_grid():
    a = np.array([0.1, 0.5, 0.93, 2.0, 5.0, 13.0, 27.0, 50.0])
    x = np.array([0.0, 0.05, 0.7, 1.0, 3.0, 10.0, 40.0, 100.0])
    A, X = np.meshgrid(a, x)
    p = reg_inc_gamma_lower(A, X)
    q = reg_inc_gamma_upper(A, X)
    assert np.all(np.abs(p + q - 1.0) <= 1e-12)
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_inc_gamma_vector_equals_elementwise():
    # both branches, with elements that converge after 1 to 19 blocks of
    # 8 terms: dropping converged elements from the working set must not
    # change the value of any element left in it.  The series evaluates
    # the elements of one shape as a row, whose largest point sets the
    # last bits, so a scalar call matches it to _MOVED_TOL and the
    # one-shape call on the same elements matches it bit for bit.
    shapes = np.geomspace(0.05, 5e3, 9)
    a = np.repeat(shapes, 7)
    x = np.concatenate([[1e-5, 0.01 * s, 0.3 * s, 0.8 * s, s + 1.0,
                         1.5 * s + 2.0, 4.0 * s + 10.0] for s in shapes])
    series = x < np.maximum(a + 1.0, 10.0)
    for fn in (reg_inc_gamma_lower, reg_inc_gamma_upper):
        vector = fn(a, x)
        for shape in shapes:
            mine = a == shape
            assert np.array_equal(vector[mine], fn(shape, x[mine]))
        one_by_one = np.array([fn(float(ai), float(xi)) for ai, xi in zip(a, x)])
        assert np.array_equal(vector[~series], one_by_one[~series])
        assert np.all(np.abs(vector[series] - one_by_one[series]) <= _MOVED_TOL)
        # an empty or zero-size broadcast gives an empty array of its shape
        for a_empty, x_empty in ((np.empty(0), np.empty(0)), (2.0, np.empty(0)),
                                 (np.empty((0, 1)), np.ones((1, 3)))):
            out = fn(a_empty, x_empty)
            assert isinstance(out, np.ndarray)
            assert out.shape == np.broadcast_shapes(np.shape(a_empty),
                                                    np.shape(x_empty))


@given(st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_inc_gamma_monotone_in_x(a):
    x = np.linspace(0.0, 5.0 * a + 10.0, 60)
    p = reg_inc_gamma_lower(a, x)
    assert np.all(np.diff(p) >= -1e-14)


def test_inc_gamma_domain():
    with pytest.raises(DomainError):
        reg_inc_gamma_lower(0.0, 1.0)
    with pytest.raises(DomainError):
        reg_inc_gamma_lower(2.0, -0.5)
    with pytest.raises(DomainError):
        reg_inc_gamma_upper(-1.0, 1.0)


# -- differential test against the previous kernel -------------------------
#
# The kernel before the series took over a + 1 <= x < 10: series P below
# x = a + 1, continued fraction Q (modified Lentz with its zero guards)
# above, 8 terms per block, each element taken at the first block that
# converges it.  In the continued fraction, x >= max(a + 1, 10), the
# current kernel does the same arithmetic and must match it bit for bit.
# Below that it sums the series as a polynomial in x over the row's
# largest point, and must match it to _MOVED_TOL.

def _oracle_series(a, x):
    ap = a.copy()
    term = 1.0 / ap
    total = term.copy()
    while True:
        for _ in range(8):
            ap += 1.0
            term *= x / ap
            total += term
        yield np.abs(term) < np.abs(total) * 1e-15, total


def _oracle_cf(a, x):
    b = x + 1.0 - a
    c = np.full_like(b, 1.0 / 1e-300)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while True:
        for _ in range(8):
            i += 1
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            np.copyto(d, 1e-300, where=np.abs(d) < 1e-300)
            c = b + an / c
            np.copyto(c, 1e-300, where=np.abs(c) < 1e-300)
            d = 1.0 / d
            delta = d * c
            h *= delta
        yield np.abs(delta - 1.0) < 1e-15, h


def _oracle_sum(terms, a, x):
    lng = np.array([math.lgamma(v) for v in a])
    out = np.full(x.shape, np.nan)
    for _, (done, acc) in zip(range(500 // 8), terms(a, x)):
        new = done & np.isnan(out)
        out[new] = acc[new] * np.exp(-x[new] + a[new] * np.log(x[new]) - lng[new])
        if not np.isnan(out).any():
            return out
    raise AssertionError("oracle hit the iteration cap")


def _oracle_p_q(a, x):
    """P and Q of the previous kernel, elementwise over 1-d a and x."""
    p, q = np.zeros(x.shape), np.ones(x.shape)
    ser = (x > 0.0) & (x < a + 1.0)
    cf = x >= a + 1.0
    p[ser] = _oracle_sum(_oracle_series, a[ser], x[ser])
    q[ser] = 1.0 - p[ser]
    q[cf] = _oracle_sum(_oracle_cf, a[cf], x[cf])
    p[cf] = 1.0 - q[cf]
    return np.clip(p, 0.0, 1.0), np.clip(q, 0.0, 1.0)


# ~80 ulp: up to 60 series terms, each with the rounding of its power of
# x/xm, plus the rounding of the prefactor exponent |x| + |a ln x| +
# |ln gamma(a)| below x = 10
_MOVED_TOL = 2e-14


def _check_against_oracle(a, x, p, q):
    p_old, q_old = _oracle_p_q(a, x)
    moved = (x > 0.0) & (x < np.maximum(a + 1.0, 10.0))
    assert np.array_equal(p[~moved], p_old[~moved])
    assert np.array_equal(q[~moved], q_old[~moved])
    assert np.all(np.abs(p[moved] - p_old[moved]) <= _MOVED_TOL)
    assert np.all(np.abs(q[moved] - q_old[moved]) <= _MOVED_TOL)


_LOG_SHAPE = st.floats(min_value=math.log(1e-3), max_value=math.log(60.0))
_POINT = st.floats(min_value=0.0, max_value=40.0)


@given(_LOG_SHAPE, st.lists(_POINT, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_inc_gamma_one_shape_row_against_previous_kernel(log_a, points):
    a = math.exp(log_a)
    x = np.array(points + [a + 1.0, 10.0, np.nextafter(10.0, 0.0)])
    p = reg_inc_gamma_lower(np.array([[a]]), x.reshape(1, -1))[0]
    q = reg_inc_gamma_upper(np.array([[a]]), x.reshape(1, -1))[0]
    _check_against_oracle(np.full(x.shape, a), x, p, q)
    # the one-float-shape path and the per-element path agree bit for bit
    a_vec = np.full(x.shape, a)
    assert np.array_equal(p, reg_inc_gamma_lower(a_vec, x))
    assert np.array_equal(q, reg_inc_gamma_upper(a_vec, x))


@given(st.lists(st.tuples(_LOG_SHAPE, _POINT), min_size=2, max_size=40))
@settings(max_examples=150, deadline=None)
def test_inc_gamma_per_element_vector_against_previous_kernel(pairs):
    a = np.exp([la for la, _ in pairs])
    x = np.array([xi for _, xi in pairs])
    # each shape also at its own a + 1 and at both sides of 10
    a = np.concatenate([a, a, a, a])
    x = np.concatenate([x, a[:len(pairs)] + 1.0, np.full(len(pairs), 10.0),
                        np.full(len(pairs), np.nextafter(10.0, 0.0))])
    _check_against_oracle(a, x, reg_inc_gamma_lower(a, x), reg_inc_gamma_upper(a, x))


def test_inc_gamma_row_longer_than_one_product_slice():
    # the block product runs on column slices of at most 2**19
    # multiply-adds: 50000 points need several at any number of blocks
    for a in (0.93, 9.5, 50.0):
        x = np.linspace(0.0, max(a + 1.0, 10.0) * 1.5, 50_000)
        p = reg_inc_gamma_lower(np.array([[a]]), x.reshape(1, -1))[0]
        q = reg_inc_gamma_upper(np.array([[a]]), x.reshape(1, -1))[0]
        _check_against_oracle(np.full(x.shape, a), x, p, q)


_EDGE_SHAPES = (1e-8, 1e-3, 0.93, 9.0, 9.5, 50.0, 3e3)


@pytest.mark.parametrize("a", _EDGE_SHAPES)
def test_inc_gamma_edges_do_not_warn(a):
    # pytest turns any RuntimeWarning into an error
    xs = [0.0, 1e-300, 0.5, 10.0 - 1e-6, 10.0, 10.0 + 1e-6, a + 1.0, 1e3, 1e8]
    for k, x in enumerate(xs):
        other = xs[(k + 1) % len(xs)]
        for fn in (reg_inc_gamma_lower, reg_inc_gamma_upper):
            value = fn(a, x)
            assert 0.0 <= value <= 1.0
            row = fn(np.array([[a]]), np.array([[x, other]]))
            assert row.shape == (1, 2)
            # in the series the last bits depend on the row's largest point
            if 0.0 < x < max(a + 1.0, 10.0):
                assert abs(row[0, 0] - value) <= _MOVED_TOL
            else:
                assert row[0, 0] == value


def test_erf_against_oracle():
    for point in ORACLE["erf"]:
        assert erf(point["x"]) == pytest.approx(point["erf"], abs=1e-12)


def test_erf_odd_and_zero():
    assert erf(0.0) == 0.0
    for x in (0.3, 1.0, 2.2, 4.5):
        assert erf(-x) == -erf(x)
    assert erf(1.0) == pytest.approx(ORACLE["named"]["erf_1"], abs=1e-12)


def test_erf_vectorized_bounds():
    x = np.linspace(-8.0, 8.0, 33)
    out = erf(x)
    assert out.shape == x.shape
    assert np.all(np.abs(out) <= 1.0)
    assert np.all(np.diff(out) >= 0.0)
    # finite arguments whose square overflows
    assert np.array_equal(erf(np.array([1e155, -1e155])), [1.0, -1.0])


def test_erf_rejects_non_finite():
    with pytest.raises(DomainError):
        erf(float("nan"))
    with pytest.raises(DomainError):
        erf(float("inf"))
