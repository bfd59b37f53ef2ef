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
    # change the value of any element left in it
    shapes = np.geomspace(0.05, 5e3, 9)
    a = np.repeat(shapes, 7)
    x = np.concatenate([[1e-5, 0.01 * s, 0.3 * s, 0.8 * s, s + 1.0,
                         1.5 * s + 2.0, 4.0 * s + 10.0] for s in shapes])
    for fn in (reg_inc_gamma_lower, reg_inc_gamma_upper):
        one_by_one = [fn(float(ai), float(xi)) for ai, xi in zip(a, x)]
        assert np.array_equal(fn(a, x), one_by_one)


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
