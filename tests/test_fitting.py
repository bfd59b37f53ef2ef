"""Empirical CDFs, the damped least-squares fit, and error summaries."""

import numpy as np
import pytest

from test_acceptance import _cramer_rao_rel_sd
from volgram import distributions as dist
from volgram import fitting
from volgram.distributions import ALL_KINDS, ModelKind, ModelParams
from volgram.errors import NoConvergedFits, TooFewSamples
from volgram.fitting import (EmpiricalCDF, _jacobian, empirical_cdf,
                             error_summary, fit_cdf, fit_window_all_models)
from volgram.langevin import LangevinSpec, simulate_market

INV_GAMMA = ModelKind.INVERSE_GAMMA


def test_empirical_cdf_plotting_positions():
    e = empirical_cdf(np.array([3.0, 1.0, 4.0, 2.0] + [10.0] * 6))
    assert e.n == 10
    assert e.s[0] == 1.0
    assert e.f[0] == pytest.approx(0.05)
    assert e.f[3] == pytest.approx(0.35)


def test_empirical_cdf_four_values():
    # F = (k - 1/2)/4 over the sorted values
    e = empirical_cdf(np.array([1.0, 2.0, 3.0, 4.0] * 3))
    # with 12 samples ties collapse; rebuild with exactly 4 distinct
    values = np.array([1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 3.5, 0.5, 4.5, 5.0])
    e = empirical_cdf(values)
    assert np.allclose(e.f, (np.arange(1, 11) - 0.5) / 10)


def test_empirical_cdf_tie_collapse():
    values = np.array([2.0, 2.0, 5.0] + [7.0] * 9)
    e = empirical_cdf(values)
    # ties keep the largest plotting position
    assert e.s[0] == 2.0
    assert e.f[0] == pytest.approx((2 - 0.5) / 12)
    assert e.s[1] == 5.0
    assert e.f[1] == pytest.approx((3 - 0.5) / 12)


def test_empirical_cdf_single_value_degenerate():
    e = empirical_cdf(np.array([3.3] * 12))
    assert e.s.size == 1
    assert e.f[0] == pytest.approx((12 - 0.5) / 12)


def test_empirical_cdf_requires_ten_samples():
    with pytest.raises(TooFewSamples):
        empirical_cdf(np.arange(1.0, 10.0))


def _exact_ecdf(kind, phi, theta, n=100, lo=0.05, hi=3.0):
    s = np.geomspace(lo, hi, n) * theta
    f = np.asarray(dist.cdf(ModelParams(kind, phi, theta), s))
    return EmpiricalCDF(s=s, f=f, n=n)


def test_fit_exact_weibull_grid_is_fixed_point():
    ecdf = _exact_ecdf(ModelKind.WEIBULL, 2.0, 1.0)
    result = fit_cdf(ModelKind.WEIBULL, ecdf,
                     ModelParams(ModelKind.WEIBULL, 1.3, 1.6))
    assert result.converged
    assert result.params.phi == pytest.approx(2.0, abs=1e-6)
    assert result.params.theta == pytest.approx(1.0, abs=1e-6)
    assert result.rss < 1e-18


def test_fit_exact_gamma_grid_identifies_gamma():
    ecdf = _exact_ecdf(ModelKind.GAMMA, 2.0, 1.0, lo=0.02, hi=5.0)
    rss = {}
    guesses = {
        ModelKind.GAMMA: ModelParams(ModelKind.GAMMA, 1.5, 1.5),
        INV_GAMMA: ModelParams(INV_GAMMA, 2.5, 1.5),
        ModelKind.LOG_NORMAL: ModelParams(ModelKind.LOG_NORMAL, 0.5, 0.8),
        ModelKind.WEIBULL: ModelParams(ModelKind.WEIBULL, 1.3, 2.0),
    }
    for kind, guess in guesses.items():
        rss[kind] = fit_cdf(kind, ecdf, guess).rss
    assert rss[ModelKind.GAMMA] < 1e-16
    for kind in (INV_GAMMA, ModelKind.LOG_NORMAL, ModelKind.WEIBULL):
        assert rss[kind] > 1e-4


def test_fit_invgamma_sampled_window():
    # 2000-sample window, seed chosen in advance and held fixed
    true = ModelParams(INV_GAMMA, 1.5, 1.0)
    samples = dist.sample(true, 2000, seed=99)
    result = fit_cdf(INV_GAMMA, empirical_cdf(samples),
                     dist.initial_guess(INV_GAMMA, samples))
    assert result.converged
    assert result.params.phi == pytest.approx(1.5, rel=0.05)
    assert result.rel_err_phi < 0.05


def test_fit_boundary_guess_never_nan():
    true = ModelParams(INV_GAMMA, 1.5, 1.0)
    samples = dist.sample(true, 500, seed=5)
    guess = ModelParams(INV_GAMMA, 1.5, 1e-12)
    result = fit_cdf(INV_GAMMA, empirical_cdf(samples), guess)
    assert np.isfinite(result.params.phi)
    assert np.isfinite(result.params.theta)
    assert np.isfinite(result.rss)
    if not result.converged:
        assert result.message


@pytest.mark.parametrize("guess", [ModelParams(INV_GAMMA, 1.5, 1e300),
                                   ModelParams(INV_GAMMA, 1e300, 1.0),
                                   ModelParams(ModelKind.LOG_NORMAL, -1e300, 1.0)])
def test_fit_from_extreme_start_stays_finite(guess):
    # starts so far out that the model CDF is saturated, and the
    # log-normal's z overflows its square
    samples = dist.sample(ModelParams(INV_GAMMA, 1.5, 1.0), 500, seed=5)
    result = fit_cdf(guess.kind, empirical_cdf(samples), guess)
    assert np.isfinite(result.params.phi)
    assert np.isfinite(result.params.theta)
    if not result.converged:
        assert result.message


def test_refit_from_solution_is_fixed_point():
    true = ModelParams(ModelKind.GAMMA, 2.0, 1.0)
    samples = dist.sample(true, 2000, seed=17)
    ecdf = empirical_cdf(samples)
    first = fit_cdf(ModelKind.GAMMA, ecdf,
                    dist.initial_guess(ModelKind.GAMMA, samples))
    second = fit_cdf(ModelKind.GAMMA, ecdf, first.params)
    assert second.rss <= first.rss * (1.0 + 1e-12)
    assert abs(second.rss - first.rss) <= 1e-12 * first.rss


def test_recovery_error_shrinks_as_root_n():
    # quadrupling n halves the actual parameter recovery error (within a
    # factor 1.3 over the seed average)
    true = ModelParams(INV_GAMMA, 1.5, 1.0)
    err_small, err_large, rep_small, rep_large = [], [], [], []
    for seed in range(12):
        s1 = dist.sample(true, 2000, seed=100 + seed)
        s2 = dist.sample(true, 8000, seed=200 + seed)
        f1 = fit_cdf(INV_GAMMA, empirical_cdf(s1),
                     dist.initial_guess(INV_GAMMA, s1))
        f2 = fit_cdf(INV_GAMMA, empirical_cdf(s2),
                     dist.initial_guess(INV_GAMMA, s2))
        err_small.append(abs(f1.params.phi - 1.5) / 1.5)
        err_large.append(abs(f2.params.phi - 1.5) / 1.5)
        rep_small.append(f1.rel_err_phi)
        rep_large.append(f2.rel_err_phi)
    ratio = np.mean(err_small) / np.mean(err_large)
    assert 2.0 / 1.3 < ratio < 2.0 * 1.3
    # the reported linearized error bar instead contracts like 1/n on
    # empirical-CDF residuals (they are strongly correlated, so rss and
    # J^T J both scale with n); pin that behavior so it stays visible
    reported_ratio = np.mean(rep_small) / np.mean(rep_large)
    assert 4.0 / 1.5 < reported_ratio < 4.0 * 1.5


def test_fit_window_all_models_on_invgamma_data():
    true = ModelParams(INV_GAMMA, 1.5, 1.0)
    samples = dist.sample(true, 2000, seed=31)
    results = fit_window_all_models(samples)
    assert set(results) == set(ALL_KINDS)
    assert all(r.converged for r in results.values())
    best = min(results, key=lambda k: results[k].rss)
    assert best is INV_GAMMA


def test_jacobian_matches_central_difference():
    # the columns are dF/dq, q = (ln phi, ln theta), and (phi, ln theta)
    # for the log-normal
    s = np.geomspace(0.01, 100.0, 120)
    ecdf = EmpiricalCDF(s=s, f=np.linspace(0.01, 0.99, s.size), n=s.size)
    h = 1e-5
    for kind, phi, theta in [(ModelKind.GAMMA, 0.8, 1.3), (INV_GAMMA, 0.93, 1.0),
                             (ModelKind.LOG_NORMAL, -0.4, 0.9),
                             (ModelKind.WEIBULL, 1.7, 0.6)]:
        params = ModelParams(kind, phi, theta)
        r = np.asarray(dist.cdf(params, s)) - ecdf.f
        jac = _jacobian(params, r, ecdf)
        if kind is ModelKind.LOG_NORMAL:
            phis = [phi + h, phi - h]
        else:
            phis = [phi * np.exp(h), phi * np.exp(-h)]
        probes = dist.cdf_grid(kind, [*phis, phi, phi],
                               [theta, theta, theta * np.exp(h), theta * np.exp(-h)], s)
        central = np.column_stack([(probes[0] - probes[1]) / (2.0 * h),
                                   (probes[2] - probes[3]) / (2.0 * h)])
        # the gamma family's shape column is a forward difference
        np.testing.assert_allclose(jac, central, rtol=1e-5,
                                   atol=1e-8 * np.abs(central).max())


def test_concentrated_window_fits_inverse_gamma():
    # 149 companies, and one holding 99.9% of the volume-price
    s = np.rint(1e6 / np.linspace(1.0 / 30.0, 1.0, 149))
    s = np.r_[s, np.rint(s.sum() * 999.0)]
    result = fit_window_all_models(s / s.mean(), kinds=(INV_GAMMA,))[INV_GAMMA]
    assert result.converged, result.message
    assert result.rss < 1.0


def test_heavy_tailed_market_window_fits_inverse_gamma():
    # window 14 of this market has phi 0.907 and one company holding
    # 99.98% of the volume-price; a start from the (non-existent)
    # variance stalled there at phi 1.41, rss 666
    spec = LangevinSpec(dt=1.0, n_steps=40, initial=0.93, seed=119,
                        drift_slope=-0.2, fixed_point=0.93, diffusion=2e-4)
    sim = simulate_market(2000, 40, spec, seed=119)
    phi_true = float(sim.truth.values[14])
    result = fit_window_all_models(sim.windows[14], kinds=(INV_GAMMA,))[INV_GAMMA]
    assert result.converged, result.message
    assert result.rss < 1.0
    rel_sd, _ = _cramer_rao_rel_sd(INV_GAMMA, phi_true, 1.0, 2000)
    assert abs(result.params.phi - phi_true) < 4.0 * rel_sd * phi_true


def test_stalled_start_is_never_converged():
    # from the variance-based start of seed-119 window 14 the CDF is
    # saturated and the fit stalls at rss 666; an absolute gradient stop
    # once called that converged
    spec = LangevinSpec(dt=1.0, n_steps=40, initial=0.93, seed=119,
                        drift_slope=-0.2, fixed_point=0.93, diffusion=2e-4)
    window = simulate_market(2000, 40, spec, seed=119).windows[14]
    guess = ModelParams(INV_GAMMA, 2.0005004302798013, 1.0005004302798006)
    result = fit_cdf(INV_GAMMA, empirical_cdf(window.samples), guess)
    assert not (result.converged and result.rss > 1.0), result


def _market_windows(companies, windows, seed):
    spec = LangevinSpec(dt=1.0, n_steps=windows, initial=0.93, seed=seed,
                        drift_slope=-0.2, fixed_point=0.93, diffusion=2e-4)
    return simulate_market(companies, windows, spec, seed=seed).windows


def test_far_trial_is_rejected_not_raised():
    # from (10 phi0, 10 theta0) on window 13 of this market a gamma trial
    # reaches phi 7.6e32, theta 2.1e-321 (subnormal), where s / theta
    # overflows and the incomplete gamma raised DomainError
    window = _market_windows(2000, 140, 4001)[13]
    ecdf = empirical_cdf(window.samples)
    guess = dist.initial_guess(ModelKind.GAMMA, window.samples)
    far = fit_cdf(ModelKind.GAMMA, ecdf,
                  ModelParams(ModelKind.GAMMA, 10.0 * guess.phi, 10.0 * guess.theta))
    near = fit_cdf(ModelKind.GAMMA, ecdf, guess)
    assert far.converged and near.converged, (far, near)
    assert far.rss == pytest.approx(near.rss, rel=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_converged_fit_never_ends_above_its_start(kind):
    windows = _market_windows(500, 10, 307)
    stalled = ModelParams(INV_GAMMA, 2.0005004302798013, 1.0005004302798006)
    for window in windows:
        ecdf = empirical_cdf(window.samples)
        guess = dist.initial_guess(kind, window.samples, ecdf)
        starts = [guess] + [ModelParams(kind, guess.phi * k, guess.theta * k)
                            for k in (0.1, 10.0)]
        if kind is INV_GAMMA:
            starts.append(stalled)
        for start in starts:
            result = fit_cdf(kind, ecdf, start)
            r = np.asarray(dist.cdf(start, ecdf.s)) - ecdf.f
            assert not result.converged or result.rss <= r @ r, (start, result)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_offset_stop_agrees_with_a_tighter_stop(kind, monkeypatch):
    # at tau = 1e-8 many fits reach the rounding floor of the rss first
    # and end "damping exhausted"; where they stop is still the reference
    windows = _market_windows(200, 40, 211)
    loose = [fit_window_all_models(w, kinds=(kind,))[kind] for w in windows]
    monkeypatch.setattr(fitting, "_OFFSET_TOL", 1e-8)
    tight = [fit_window_all_models(w, kinds=(kind,))[kind] for w in windows]
    for a, b in zip(loose, tight):
        assert a.converged, a
        for old, new, rel in [(a.params.phi, b.params.phi, b.rel_err_phi),
                              (a.params.theta, b.params.theta, b.rel_err_theta)]:
            assert abs(old - new) <= 1e-3 * rel * abs(new), (a, b)


def test_flat_trial_is_rejected_at_the_rss_floor(monkeypatch):
    # a trial that only equals the rss must not be accepted: at tau = 1e-8
    # fits reach the rounding floor before the offset test is met, and
    # walking flat steps from there ran 16 of these 40 fits to the cap
    windows = _market_windows(200, 40, 211)
    monkeypatch.setattr(fitting, "_OFFSET_TOL", 1e-8)
    calls = []
    residual = fitting._residual

    def counted(params, ecdf):
        calls.append(params)
        return residual(params, ecdf)

    monkeypatch.setattr(fitting, "_residual", counted)
    per_fit = []
    for window in windows:
        start = len(calls)
        result = fit_window_all_models(window, kinds=(INV_GAMMA,))[INV_GAMMA]
        per_fit.append(len(calls) - start)
        assert result.iterations < fitting._MAX_ITER, result
    assert max(per_fit) <= 60, per_fit


def test_fit_window_too_few_samples():
    with pytest.raises(TooFewSamples):
        fit_window_all_models(np.arange(1.0, 10.0))


def test_fit_window_model_subset():
    samples = dist.sample(ModelParams(INV_GAMMA, 1.5, 1.0), 500, seed=3)
    results = fit_window_all_models(samples, kinds=(INV_GAMMA,))
    assert list(results) == [INV_GAMMA]


def _mk_row(rel_phi, rel_theta=0.01, converged=True):
    """A fits.jsonl row with one inverse-gamma entry."""
    return {"window_start": 0.0, "window_len": 600.0, "n_companies": 2000,
            "models": {INV_GAMMA.value: {
                "phi": 1.0, "theta": 1.0, "rel_err_phi": rel_phi,
                "rel_err_theta": rel_theta, "rss": 1e-4,
                "converged": converged, "iterations": 5}}}


def test_error_summary_singleton():
    rows = [_mk_row(0.02)]
    summary = error_summary(rows)
    stats = summary["models"][INV_GAMMA.value]
    assert stats["avg_rel_err_phi"] == pytest.approx(0.02)
    assert stats["std_rel_err_phi"] == 0.0
    assert summary["n_windows"] == 1


def test_error_summary_population_std():
    rows = [_mk_row(0.01), _mk_row(0.03)]
    stats = error_summary(rows)["models"][INV_GAMMA.value]
    assert stats["avg_rel_err_phi"] == pytest.approx(0.02)
    assert stats["std_rel_err_phi"] == pytest.approx(0.01)


def test_error_summary_excludes_failures_and_counts():
    # a failed fit's errors are null in fits.jsonl and are never read
    rows = [_mk_row(0.01), _mk_row(None, None, converged=False)]
    summary = error_summary(rows)
    stats = summary["models"][INV_GAMMA.value]
    assert stats["n_converged"] == 1
    assert stats["n_failed"] == 1
    assert stats["avg_rel_err_phi"] == pytest.approx(0.01)


def test_error_summary_no_converged_fits():
    rows = [_mk_row(0.5, converged=False)]
    with pytest.raises(NoConvergedFits):
        error_summary(rows)


def test_error_summary_histogram_shape():
    rows = [_mk_row(0.01 * (i + 1)) for i in range(10)]
    hist = error_summary(rows, hist_bins=16)["models"][INV_GAMMA.value]["hist_phi"]
    assert len(hist["edges"]) == 17
    assert sum(hist["counts"]) == 10
