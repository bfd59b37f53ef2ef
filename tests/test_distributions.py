"""Model PDFs, CDFs, moments, sampling, and initial guesses."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrature_oracle as oracle
from volgram.distributions import (_MODELS, ALL_KINDS, ModelKind, ModelParams,
                                   analytic_moments, cdf, cdf_grid,
                                   empirical_cdf, initial_guess, pdf, sample)
from volgram.errors import DegenerateSample, DomainError, TooFewSamples

INV_GAMMA = ModelKind.INVERSE_GAMMA


def test_pdf_closed_forms():
    assert pdf(ModelParams(ModelKind.GAMMA, 1.0, 1.0), 0.7) == pytest.approx(
        math.exp(-0.7), rel=1e-12)
    assert pdf(ModelParams(INV_GAMMA, 1.0, 1.0), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-12)
    assert pdf(ModelParams(ModelKind.WEIBULL, 1.0, 2.0), 2.0) == pytest.approx(
        0.5 * math.exp(-1.0), rel=1e-12)


def test_cdf_closed_forms():
    assert cdf(ModelParams(ModelKind.LOG_NORMAL, 0.0, 1.0), 1.0) == pytest.approx(0.5)
    assert cdf(ModelParams(ModelKind.WEIBULL, 1.0, 1.0), 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-12)
    # Q(2, x) = (1 + x) exp(-x)
    assert cdf(ModelParams(INV_GAMMA, 2.0, 1.0), 0.5) == pytest.approx(
        3.0 * math.exp(-2.0), rel=1e-12)


def test_pdf_cdf_reject_bad_arguments():
    good = ModelParams(ModelKind.GAMMA, 1.0, 1.0)
    with pytest.raises(DomainError):
        pdf(good, 0.0)
    with pytest.raises(DomainError):
        cdf(good, -1.0)
    with pytest.raises(DomainError):
        pdf(ModelParams(ModelKind.GAMMA, -1.0, 1.0), 1.0)
    with pytest.raises(DomainError):
        cdf(ModelParams(ModelKind.WEIBULL, 2.0, 0.0), 1.0)


def test_log_normal_phi_may_be_negative():
    params = ModelParams(ModelKind.LOG_NORMAL, -0.4, 0.9)
    assert params.is_valid()
    assert 0.0 < cdf(params, 1.0) < 1.0


_QUAD_CASES = [
    (ModelKind.GAMMA, 1.7, 0.8),
    (ModelKind.GAMMA, 3.2, 1.4),
    (INV_GAMMA, 0.93, 1.0),
    (INV_GAMMA, 2.4, 0.6),
    (ModelKind.LOG_NORMAL, 0.3, 0.8),
    (ModelKind.LOG_NORMAL, -0.2, 0.5),
    (ModelKind.WEIBULL, 1.5, 2.0),
    (ModelKind.WEIBULL, 3.0, 0.7),
]


@pytest.mark.parametrize("kind,phi,theta", _QUAD_CASES)
def test_cdf_matches_pdf_quadrature(kind, phi, theta):
    params = ModelParams(kind, phi, theta)
    mean = analytic_moments(params).mean or theta
    probes = np.linspace(0.2, 3.0, 7) * mean
    prev_s, acc = 0.0, 0.0
    for s in probes:
        def f(t):
            return pdf(params, t) if t > 0.0 else 0.0
        acc += oracle.adaptive_simpson(f, prev_s, float(s), tol=1e-12)
        prev_s = float(s)
        assert cdf(params, float(s)) == pytest.approx(acc, abs=1e-8)


@given(st.sampled_from(ALL_KINDS),
       st.floats(min_value=0.6, max_value=4.0),
       st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_cdf_nondecreasing_with_limits(kind, phi, theta):
    if kind is ModelKind.LOG_NORMAL:
        phi = phi - 2.0  # exercise negative log-means too
    params = ModelParams(kind, phi, theta)
    grid = np.geomspace(1e-4, 1e4, 200) * theta
    values = np.asarray(cdf(params, grid))
    assert np.all(np.diff(values) >= -1e-12)
    assert values[0] < 0.05
    assert values[-1] > 0.95


def test_cdf_limits():
    params = ModelParams(ModelKind.GAMMA, 1.3, 0.9)
    assert cdf(params, 1e-9) < 1e-6
    assert cdf(params, 1e6) > 1.0 - 1e-12
    inv = ModelParams(INV_GAMMA, 0.93, 1.0)
    assert cdf(inv, 1e-9) < 1e-12
    assert cdf(inv, 1e9) > 1.0 - 1e-6


def test_weibull_cdf_saturates_without_warning():
    # (s/theta)^phi overflows at a large shape, where F is exactly 0 or 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = cdf(ModelParams(ModelKind.WEIBULL, 1e4, 1.0), [0.5, 2.0])
    assert values.tolist() == [0.0, 1.0]


def test_inverse_gamma_power_law_tail():
    # survival density falls off as s^-(phi+1) with amplitude
    # theta^phi / Gamma(phi)
    for phi, theta in ((0.93, 1.0), (1.5, 2.0), (2.5, 0.5)):
        params = ModelParams(INV_GAMMA, phi, theta)
        s = 1e3 * theta
        amplitude = pdf(params, s) * s ** (phi + 1.0)
        expected = theta ** phi / math.exp(math.lgamma(phi))
        assert amplitude == pytest.approx(expected, rel=0.02)


def test_analytic_moments_formulas():
    inv = analytic_moments(ModelParams(INV_GAMMA, 3.0, 2.0))
    assert inv.mean == pytest.approx(1.0)
    assert inv.variance == pytest.approx(1.0)
    undef = analytic_moments(ModelParams(INV_GAMMA, 0.93, 1.0))
    assert undef.mean is None and undef.variance is None
    partial = analytic_moments(ModelParams(INV_GAMMA, 1.5, 1.0))
    assert partial.mean == pytest.approx(2.0)
    assert partial.variance is None
    gam = analytic_moments(ModelParams(ModelKind.GAMMA, 2.0, 3.0))
    assert gam.mean == pytest.approx(6.0)
    assert gam.variance == pytest.approx(18.0)
    weib = analytic_moments(ModelParams(ModelKind.WEIBULL, 2.0, 1.0))
    assert weib.mean == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
    logn = analytic_moments(ModelParams(ModelKind.LOG_NORMAL, 0.3, 0.8))
    assert logn.mean == pytest.approx(math.exp(0.3 + 0.32), rel=1e-12)


def test_sampling_deterministic_and_positive():
    params = ModelParams(ModelKind.GAMMA, 2.0, 1.0)
    a = sample(params, 5000, seed=42)
    b = sample(params, 5000, seed=42)
    c = sample(params, 5000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a > 0.0)


def test_inverse_gamma_sampling_is_reciprocal_gamma():
    # same generator stream: InverseGamma(phi, theta) = theta / Gamma(phi, 1)
    phi, theta, seed = 1.5, 2.0, 7
    inv = sample(ModelParams(INV_GAMMA, phi, theta), 4000, seed=seed)
    gamma_unit = sample(ModelParams(ModelKind.GAMMA, phi, 1.0), 4000, seed=seed)
    assert np.allclose(inv, theta / gamma_unit, rtol=1e-12)


def test_sampling_statistics():
    x = sample(ModelParams(ModelKind.GAMMA, 2.0, 1.0), 10**6, seed=2024)
    assert abs(x.mean() - 2.0) / 2.0 < 0.005
    w = sample(ModelParams(ModelKind.WEIBULL, 2.0, 1.0), 10**6, seed=2025)
    assert abs(w.mean() - math.sqrt(math.pi) / 2.0) / (math.sqrt(math.pi) / 2.0) < 0.01
    small_shape = sample(ModelParams(ModelKind.GAMMA, 0.5, 1.0), 10**6, seed=2026)
    assert abs(small_shape.mean() - 0.5) / 0.5 < 0.01


def test_initial_guess_log_moment_formulas():
    # five samples at 1 and five at 4: mean 5/2, mean log ln 2, so
    # s = ln(5/4) = 0.2231435513 and phi = (3 - s + sqrt((s - 3)^2 + 24 s))
    # / (12 s) = (2.7768564487 + sqrt(13.0663797)) / 2.6777226 = 2.3869540
    samples = np.array([1.0, 4.0] * 5)
    guess = initial_guess(ModelKind.GAMMA, samples)
    assert guess.phi == pytest.approx(2.386954047, rel=1e-9)
    assert guess.theta == pytest.approx(2.5 / 2.386954047, rel=1e-9)
    # the reciprocals 1 and 1/4 have mean 5/8 and the same s
    guess = initial_guess(INV_GAMMA, samples)
    assert guess.phi == pytest.approx(2.386954047, rel=1e-9)
    assert guess.theta == pytest.approx(2.386954047 / 0.625, rel=1e-9)


@pytest.mark.parametrize("kind,phi,theta", [
    (ModelKind.GAMMA, 2.0, 1.0), (ModelKind.GAMMA, 0.6, 3.0),
    (INV_GAMMA, 0.93, 1.0), (INV_GAMMA, 3.5, 0.4)])
def test_initial_guess_gamma_family_recovery(kind, phi, theta):
    # the log-moment shape is within 1.5% of maximum likelihood; at
    # phi = 0.93 the inverse-gamma variance does not exist
    guess = initial_guess(kind, sample(ModelParams(kind, phi, theta), 10**5, seed=13))
    assert guess.phi == pytest.approx(phi, rel=0.03)
    assert guess.theta == pytest.approx(theta, rel=0.03)


def test_initial_guess_log_normal_recovery():
    true = ModelParams(ModelKind.LOG_NORMAL, 0.3, 0.8)
    guess = initial_guess(ModelKind.LOG_NORMAL, sample(true, 10**5, seed=11))
    assert guess.phi == pytest.approx(0.3, rel=0.05)
    assert guess.theta == pytest.approx(0.8, rel=0.05)


def test_initial_guess_weibull_recovery():
    true = ModelParams(ModelKind.WEIBULL, 2.0, 1.5)
    samples = sample(true, 10**5, seed=12)
    guess = initial_guess(ModelKind.WEIBULL, samples)
    assert guess.phi == pytest.approx(2.0, rel=0.05)
    assert guess.theta == pytest.approx(1.5, rel=0.05)
    # the caller's ECDF of the same samples gives the same guess
    assert initial_guess(ModelKind.WEIBULL, samples, empirical_cdf(samples)) == guess


def test_initial_guess_rejects_bad_samples():
    with pytest.raises(TooFewSamples):
        initial_guess(ModelKind.GAMMA, [1.0] * 9)
    with pytest.raises(DegenerateSample):
        initial_guess(ModelKind.GAMMA, [1.0] * 20)


_DERIV_POINTS = [(0.5, 0.3), (0.93, 1.0), (2.5, 4.0), (7.0, 0.2)]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_table_derivatives_match_central_difference(kind):
    s = np.geomspace(1e-3, 1e3, 200)
    points = _DERIV_POINTS + ([(-0.7, 0.6)] if kind is ModelKind.LOG_NORMAL else [])
    # derivatives in q = (ln phi, ln theta), and (phi, ln theta) for the
    # log-normal
    h = 1e-5
    for phi, theta in points:
        d_q0, d_q1 = _MODELS[kind].derivs(phi, theta, s)
        if kind is ModelKind.LOG_NORMAL:
            phis = [phi + h, phi - h]
        else:
            phis = [phi * np.exp(h), phi * np.exp(-h)]
        probes = cdf_grid(kind, [*phis, phi, phi],
                          [theta, theta, theta * np.exp(h), theta * np.exp(-h)], s)
        columns = [(d_q1, (probes[2] - probes[3]) / (2.0 * h))]
        if d_q0 is not None:
            columns.append((d_q0, (probes[0] - probes[1]) / (2.0 * h)))
        else:
            assert kind in (ModelKind.GAMMA, INV_GAMMA)
        for exact, central in columns:
            # atol covers the tails, where the difference of two CDFs
            # near 0 or 1 keeps few digits
            np.testing.assert_allclose(exact, central, rtol=1e-5,
                                       atol=1e-9 * np.abs(central).max())


def test_cdf_grid_matches_scalar_cdf():
    s = np.geomspace(0.05, 20.0, 25)
    for kind in ALL_KINDS:
        phis = [0.8, 1.7]
        thetas = [1.2, 0.6]
        grid = cdf_grid(kind, phis, thetas, s)
        assert grid.shape == (2, s.size)
        for row, (phi, theta) in enumerate(zip(phis, thetas)):
            expect = cdf(ModelParams(kind, phi, theta), s)
            assert np.allclose(grid[row], expect, rtol=1e-12, atol=1e-14)
        # a pair the scalar CDF rejects fails the whole grid
        for bad in (math.nan, math.inf):
            for phi, theta in ((bad, 1.2), (0.8, bad)):
                with pytest.raises(DomainError):
                    cdf(ModelParams(kind, phi, theta), s)
                with pytest.raises(DomainError):
                    cdf_grid(kind, [1.7, phi], [0.6, theta], s)
