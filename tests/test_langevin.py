"""Synthetic process generators and their statistical contracts."""

import math

import numpy as np
import pytest

from volgram.errors import DomainError
from volgram.fitting import empirical_cdf, fit_cdf
from volgram import distributions as dist
from volgram.distributions import ModelKind
from volgram.kramers_moyal import conditional_moments, km_estimate
from volgram.langevin import (LangevinSpec, add_measurement_noise,
                              simulate_langevin, simulate_market)


def test_langevin_spec_validation():
    with pytest.raises(DomainError):
        LangevinSpec(dt=0.0, n_steps=10, initial=1.0, seed=0,
                     drift_slope=-0.1, fixed_point=1.0, diffusion=1e-6)
    with pytest.raises(DomainError):
        LangevinSpec(dt=1.0, n_steps=10, initial=1.0, seed=0,
                     drift_slope=-0.1, fixed_point=1.0, diffusion=-1e-6)


def test_noise_free_relaxation_is_exact():
    k, fp = 0.05, 0.93
    spec = LangevinSpec(dt=1.0, n_steps=200, initial=1.5, seed=0,
                        drift_slope=-k, fixed_point=fp, diffusion=0.0)
    series = simulate_langevin(spec)
    t = np.arange(200)
    expected = fp + (1.5 - fp) * (1.0 - k) ** t
    assert np.allclose(series.values, expected, rtol=1e-12)
    gap = np.abs(series.values - fp)
    assert np.all(np.diff(gap) <= 0.0)


def test_pure_diffusion_variance_grows_linearly():
    # var(phi_t) = 2 c t under the doubled Wiener normalization
    c, n_paths, n_steps = 1e-4, 10_000, 50
    finals = np.empty(n_paths)
    for i in range(n_paths):
        spec = LangevinSpec(dt=1.0, n_steps=n_steps + 1, initial=0.0,
                            seed=1000 + i, drift_slope=0.0, fixed_point=0.0,
                            diffusion=c)
        finals[i] = simulate_langevin(spec).values[-1]
    assert finals.var() == pytest.approx(2.0 * c * n_steps, rel=0.05)


def test_ou_stationary_variance():
    # var = D2 / k for the 2-delta convention
    k, d2 = 0.05, 1e-6
    spec = LangevinSpec(dt=1.0, n_steps=10**6, initial=0.93, seed=77,
                        drift_slope=-k, fixed_point=0.93, diffusion=d2)
    series = simulate_langevin(spec)
    assert series.values.var() == pytest.approx(d2 / k, rel=0.10)


def test_langevin_determinism():
    spec = LangevinSpec(dt=1.0, n_steps=5000, initial=0.9, seed=123,
                        drift_slope=-0.02, fixed_point=0.9, diffusion=1e-5)
    a = simulate_langevin(spec)
    b = simulate_langevin(spec)
    assert np.array_equal(a.values, b.values)


def _reference_euler(spec):
    # one plain Euler-Maruyama step per loop turn, read off the update rule
    noise = np.random.default_rng(spec.seed).standard_normal(spec.n_steps - 1)
    x = spec.initial
    out = [x]
    for xi in noise:
        d1 = spec.drift_slope * (x - spec.fixed_point)
        x += d1 * spec.dt + math.sqrt(2.0 * spec.diffusion * spec.dt) * float(xi)
        out.append(x)
    return np.array(out)


def test_euler_matches_reference_loop():
    spec = LangevinSpec(dt=0.5, n_steps=3000, initial=0.9, seed=17,
                        drift_slope=-0.07, fixed_point=0.95, diffusion=2e-5)
    assert np.array_equal(simulate_langevin(spec).values, _reference_euler(spec))


def test_add_measurement_noise_contracts():
    spec = LangevinSpec(dt=1.0, n_steps=100_000, initial=0.0, seed=9,
                        drift_slope=-0.1, fixed_point=0.0, diffusion=1e-6)
    series = simulate_langevin(spec)
    same = add_measurement_noise(series, 0.0, seed=10)
    assert np.array_equal(same.values, series.values)
    noisy = add_measurement_noise(series, 4e-3, seed=10)
    added = noisy.values - series.values
    assert added.std() == pytest.approx(4e-3, rel=0.03)
    lag1 = np.corrcoef(added[:-1], added[1:])[0, 1]
    assert abs(lag1) < 0.01
    assert np.array_equal(noisy.gaps, series.gaps)


def test_convention_round_trip_pure_diffusion():
    # simulate with D2, estimate D2 back; a convention mismatch would
    # come back as 2 D2 or D2 / 2
    d2 = 1e-6
    spec = LangevinSpec(dt=1.0, n_steps=10**5, initial=0.0, seed=31,
                        drift_slope=0.0, fixed_point=0.0, diffusion=d2)
    series = simulate_langevin(spec)
    km = km_estimate(conditional_moments(series, 30, 5, 200), (1, 3))
    med = float(np.median(km.d2))
    assert med == pytest.approx(d2, rel=0.10)
    assert not med == pytest.approx(2.0 * d2, rel=0.4)
    assert not med == pytest.approx(0.5 * d2, rel=0.4)


def test_market_windows_shape_and_truth():
    spec = LangevinSpec(dt=1.0, n_steps=1, initial=0.9, seed=1,
                        drift_slope=-0.05, fixed_point=0.9, diffusion=1e-6)
    sim = simulate_market(50, 1, spec, theta=1.0, seed=2)
    assert len(sim.windows) == 1
    assert sim.truth.gaps.size == 0
    w = sim.windows[0]
    assert w.n_companies == 50
    assert w.samples.mean() == pytest.approx(1.0, rel=1e-12)


def test_market_determinism_and_substreams():
    spec = LangevinSpec(dt=1.0, n_steps=3, initial=0.9, seed=1,
                        drift_slope=-0.05, fixed_point=0.9, diffusion=1e-5)
    a = simulate_market(40, 3, spec, theta=1.0, seed=9)
    b = simulate_market(40, 3, spec, theta=1.0, seed=9)
    for wa, wb in zip(a.windows, b.windows):
        assert np.array_equal(wa.samples, wb.samples)
    # windows use distinct substreams
    assert not np.array_equal(a.windows[0].samples, a.windows[1].samples)


def test_market_phi_clamped():
    spec = LangevinSpec(dt=1.0, n_steps=20, initial=0.02, seed=4,
                        drift_slope=-0.01, fixed_point=0.02, diffusion=1e-8)
    sim = simulate_market(30, 20, spec, theta=1.0, seed=5)
    assert np.all(sim.truth.values >= 0.05)


def test_market_fit_recovers_constant_phi():
    # constant tail parameter: per-window fits scatter around the truth
    phi_true = 1.2
    spec = LangevinSpec(dt=1.0, n_steps=100, initial=phi_true, seed=6,
                        drift_slope=-0.05, fixed_point=phi_true, diffusion=0.0)
    sim = simulate_market(800, 100, spec, theta=1.0, seed=7)
    fitted = []
    for w in sim.windows:
        res = fit_cdf(ModelKind.INVERSE_GAMMA, empirical_cdf(w.samples),
                      dist.initial_guess(ModelKind.INVERSE_GAMMA, w.samples))
        assert res.converged
        fitted.append(res.params.phi)
    fitted = np.array(fitted)
    spread = fitted.std()
    assert abs(fitted.mean() - phi_true) < 4.0 * spread / math.sqrt(100)
    assert spread / phi_true < 0.15


def test_market_rejects_bad_arguments():
    spec = LangevinSpec(dt=1.0, n_steps=1, initial=0.9, seed=1,
                        drift_slope=-0.05, fixed_point=0.9, diffusion=1e-6)
    with pytest.raises(DomainError):
        simulate_market(0, 5, spec, theta=1.0, seed=1)
    with pytest.raises(DomainError):
        simulate_market(5, 5, spec, theta=0.0, seed=1)
