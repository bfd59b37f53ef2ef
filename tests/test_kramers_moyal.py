"""Conditional moments, drift/diffusion extraction, noise amplitude,
and the Markov property test."""

import tracemalloc

import numpy as np
import pytest

from volgram.errors import (AllBinsUnderpopulated, DomainError,
                            InsufficientTauPoints, SeriesTooShort)
from volgram.kramers_moyal import (ConditionalMoments, ParamSeries,
                                   _bin_index, _gap_prefix, _markov_distance,
                                   _triple_counts, conditional_moments,
                                   km_estimate, markov_test)
from volgram.langevin import LangevinSpec, add_measurement_noise, simulate_langevin


def _series(values, gaps=()):
    values = np.asarray(values, dtype=float)
    return ParamSeries(values=values, dt=1.0, gaps=np.asarray(gaps, dtype=int))


def _ou(n, seed, k=0.05, fixed_point=0.93, d2=1e-6):
    spec = LangevinSpec(dt=1.0, n_steps=n, initial=fixed_point, seed=seed,
                        drift_slope=-k, fixed_point=fixed_point, diffusion=d2)
    return simulate_langevin(spec)


def test_constant_series_has_zero_moments():
    mom = conditional_moments(_series(np.full(500, 3.7)), n_bins=5,
                              tau_max=3, min_count=10)
    assert np.allclose(mom.m1, 0.0)
    assert np.allclose(mom.m2, 0.0)


def test_deterministic_ramp_moments():
    # phi(t) = 0.5 + 0.001 t: every tau-step increment is exactly 0.001 tau
    n = 10_000
    series = _series(0.5 + 0.001 * np.arange(n))
    mom = conditional_moments(series, n_bins=50, tau_max=5, min_count=100)
    for j, tau in enumerate(mom.taus):
        assert np.allclose(mom.m1[:, j], 0.001 * tau, rtol=1e-12)
        assert np.allclose(mom.m2[:, j], (0.001 * tau) ** 2, rtol=1e-12)


def test_ou_moment_slope_matches_drift_at_bin_centers():
    series = _ou(400_000, seed=91)
    mom = conditional_moments(series, n_bins=30, tau_max=5, min_count=2000)
    km = km_estimate(mom, (1, 3))
    centers = km.bin_centers
    offsets = centers - 0.93
    # compare where the drift signal is clearly nonzero
    strong = np.abs(offsets) > series.values.std()
    expected = -0.05 * offsets[strong]
    assert np.all(np.abs(km.d1[strong] - expected)
                  <= 0.10 * np.abs(expected) + 3e-5)


def test_km_estimate_exact_linear_moments():
    taus = np.arange(1, 6)
    n_bins = 4
    m1 = np.tile(0.002 * taus, (n_bins, 1)).astype(float)
    m2 = np.tile(0.0004 * taus, (n_bins, 1)).astype(float)
    mom = ConditionalMoments(
        bin_centers=np.linspace(0.8, 1.1, n_bins),
        counts=np.full((n_bins, 5), 1000, dtype=np.int64),
        m1=m1, m2=m2, taus=taus, dt=1.0, mean_value=0.95,
        bin_width=0.1)
    km = km_estimate(mom, (1, 5))
    assert np.allclose(km.d1, 0.002, atol=1e-15)
    assert np.allclose(km.d2, 0.0002, atol=1e-15)
    assert np.allclose(km.a1, 0.0, atol=1e-15)
    assert np.allclose(km.a2, 0.0, atol=1e-15)
    assert km.noise_sigma == pytest.approx(0.0, abs=1e-12)


def test_km_estimate_requires_three_tau_points():
    mom = conditional_moments(_ou(20_000, seed=5), n_bins=10, tau_max=5,
                              min_count=100)
    with pytest.raises(InsufficientTauPoints):
        km_estimate(mom, (1, 2))
    with pytest.raises(InsufficientTauPoints):
        km_estimate(mom, (4, 9))


def test_conditional_moments_validation():
    with pytest.raises(SeriesTooShort):
        conditional_moments(_series(np.ones(99) + np.arange(99)), n_bins=10)
    with pytest.raises(SeriesTooShort):
        # raised before the (n_bins, tau_max) arrays are allocated
        conditional_moments(_ou(5000, seed=1), n_bins=10, tau_max=10**12)
    with pytest.raises(InsufficientTauPoints):
        conditional_moments(_ou(5000, seed=1), n_bins=10, tau_max=2)
    with pytest.raises(AllBinsUnderpopulated):
        conditional_moments(_ou(5000, seed=2), n_bins=10, tau_max=3,
                            min_count=10**6)


def test_min_count_monotonicity():
    series = _ou(50_000, seed=43)
    low = conditional_moments(series, n_bins=25, tau_max=4, min_count=50)
    high = conditional_moments(series, n_bins=25, tau_max=4, min_count=100)
    assert high.bin_centers.size <= low.bin_centers.size


def test_gap_exclusion_keeps_estimates_stable():
    series = _ou(300_000, seed=44)
    gapped = ParamSeries(values=series.values, dt=1.0,
                         gaps=np.arange(999, series.values.size - 2, 1000))
    km_plain = km_estimate(conditional_moments(series, 30, 5, 1000), (1, 3))
    km_gapped = km_estimate(conditional_moments(gapped, 30, 5, 1000), (1, 3))
    assert km_gapped.drift_slope == pytest.approx(km_plain.drift_slope,
                                                  rel=0.03)
    assert np.median(km_gapped.d2) == pytest.approx(np.median(km_plain.d2),
                                                    rel=0.03)


def test_gap_increments_never_used():
    # two flat segments at different levels; all mixing increments span
    # the single gap, so every reported moment must be exactly zero
    values = np.r_[np.full(300, 1.0), np.full(300, 2.0)]
    series = _series(values, gaps=[299])
    mom = conditional_moments(series, n_bins=2, tau_max=3, min_count=10)
    assert np.allclose(mom.m1, 0.0)
    assert np.allclose(mom.m2, 0.0)


@pytest.mark.parametrize("dt", [0.0, -1.0, np.inf, np.nan])
def test_series_dt_must_be_finite_and_positive(dt):
    with pytest.raises(DomainError, match="dt must be a finite number above 0"):
        ParamSeries(values=[0.9, 0.91, 0.92], dt=dt)


def _masked_sums(series, n_bins, tau_max):
    """Counts and moment sums of each tau through a gap mask that keeps
    every increment: the gapped path of conditional_moments."""
    v = series.values
    _, idx = _bin_index(v, n_bins)
    sums = []
    for tau in range(1, tau_max + 1):
        valid = np.ones(v.size - tau, dtype=bool)
        b, inc = idx[:-tau][valid], (v[tau:] - v[:-tau])[valid]
        sums.append((np.bincount(b, minlength=n_bins),
                     np.bincount(b, weights=inc, minlength=n_bins),
                     np.bincount(b, weights=inc * inc, minlength=n_bins)))
    return sums


def test_gap_free_moments_equal_the_masked_form():
    series = _ou(20_000, seed=23)
    mom = conditional_moments(series, n_bins=30, tau_max=4, min_count=1)
    sums = _masked_sums(series, 30, 4)
    kept = np.min([cnt for cnt, _, _ in sums], axis=0) >= 1
    for j, (cnt, s1, s2) in enumerate(sums):
        assert np.array_equal(mom.counts[:, j], cnt[kept])
        assert mom.m1[:, j].tobytes() == (s1[kept] / cnt[kept]).tobytes()
        assert mom.m2[:, j].tobytes() == (s2[kept] / cnt[kept]).tobytes()


@pytest.mark.parametrize("estimate", [
    lambda s: conditional_moments(s, n_bins=50, tau_max=5, min_count=1000),
    lambda s: markov_test(s, n_bins=40, seed=1),
], ids=["conditional_moments", "markov_test"])
def test_gap_free_series_takes_two_work_arrays(estimate):
    # one bin index and one increment or triple code per value; the gap
    # masks and their copies took 3 to 5 arrays more
    n = 500_000
    series = _ou(n, seed=24)
    tracemalloc.start()
    try:
        estimate(series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n + 2**20


def test_noise_sigma_on_constant_plus_noise():
    # unconditioned second moment of increments is exactly 2 sigma^2, so
    # the single-bin intercept recovers sigma
    rng = np.random.default_rng(7)
    sigma = 3e-3
    series = _series(0.93 + rng.normal(0.0, sigma, 100_000))
    mom = conditional_moments(series, n_bins=1, tau_max=5, min_count=100)
    est = km_estimate(mom, (1, 3)).noise_sigma
    assert est == pytest.approx(sigma, rel=0.02)


def test_noise_sigma_shrinks_under_tight_conditioning():
    # with many narrow bins the conditioning pins the observation noise,
    # biasing the intercept formula low by about 1/sqrt(2); this test
    # documents that regime so the single-bin convention stays motivated
    rng = np.random.default_rng(8)
    sigma = 3e-3
    series = _series(0.93 + rng.normal(0.0, sigma, 200_000))
    mom = conditional_moments(series, n_bins=50, tau_max=5, min_count=500)
    est = km_estimate(mom, (1, 3)).noise_sigma
    assert est == pytest.approx(sigma / np.sqrt(2.0), rel=0.05)


def test_noise_sigma_small_on_noise_free_ou():
    # gentle relaxation keeps the extrapolation residual well under the
    # per-step noise scale sqrt(2 D2 dt)
    series = _ou(10**6, seed=45, k=0.005, d2=1e-6)
    mom = conditional_moments(series, n_bins=1, tau_max=5, min_count=100)
    est = km_estimate(mom, (1, 3)).noise_sigma
    step_scale = np.sqrt(2.0 * 1e-6 * 1.0)
    assert est < 0.10 * step_scale


def test_noise_sigma_added_noise_recovered():
    series = _ou(400_000, seed=46)
    noisy = add_measurement_noise(series, 5e-3, seed=47)
    mom = conditional_moments(noisy, n_bins=1, tau_max=5, min_count=100)
    est = km_estimate(mom, (1, 3)).noise_sigma
    assert est == pytest.approx(5e-3, rel=0.10)


def test_mean_bin_unpopulated_raises():
    # bimodal series whose central bin is empty
    rng = np.random.default_rng(9)
    values = np.r_[rng.normal(0.0, 0.01, 5000), rng.normal(1.0, 0.01, 5000)]
    series = _series(values)
    mom = conditional_moments(series, n_bins=20, tau_max=3, min_count=50)
    # no noise from a distant bin
    assert np.isnan(km_estimate(mom, (1, 3)).noise_sigma)


def test_markov_iid_passes():
    rng = np.random.default_rng(11)
    series = _series(rng.uniform(size=30_000))
    result = markov_test(series, n_bins=20, lag=1, seed=12)
    assert result.passed


def _ma3(n, seed):
    eps = np.random.default_rng(seed).standard_normal(n + 2)
    return _series((eps[2:] + eps[1:-1] + eps[:-2]) / 3.0)


def test_markov_moving_average_fails():
    result = markov_test(_ma3(100_000, seed=13), n_bins=20, lag=1, seed=14)
    assert not result.passed
    assert result.distance > result.threshold


def test_markov_ou_passes():
    series = _ou(200_000, seed=15)
    result = markov_test(series, n_bins=40, lag=1, seed=16)
    assert result.passed


def test_markov_series_too_short():
    with pytest.raises(SeriesTooShort):
        markov_test(_series(np.arange(100.0)), n_bins=20)


def test_markov_deterministic_given_seed():
    rng = np.random.default_rng(17)
    series = _series(rng.uniform(size=20_000))
    a = markov_test(series, n_bins=10, seed=18)
    b = markov_test(series, n_bins=10, seed=18)
    assert a == b


def _two_bincount_distance(idx, valid, n_bins, lag, min_cell):
    """The Markov distance with the pair counts from their own bincount."""
    h, i, j = idx[:-2 * lag][valid], idx[lag:-lag][valid], idx[2 * lag:][valid]
    c3 = np.bincount((h * n_bins + i) * n_bins + j,
                     minlength=n_bins ** 3).reshape(n_bins, n_bins, n_bins)
    c2 = np.bincount(i * n_bins + j,
                     minlength=n_bins ** 2).reshape(n_bins, n_bins)
    n3 = c3.sum(axis=2)
    n2 = c2.sum(axis=1)
    keep = n3 >= min_cell
    p3 = c3 / np.maximum(n3, 1)[:, :, None]
    p2 = c2 / np.maximum(n2, 1)[:, None]
    diff = np.abs(p3 - p2[None, :, :]).mean(axis=2)
    w = n3 * keep
    return float((w * diff).sum() / w.sum()), int(keep.sum())


@pytest.mark.parametrize("gaps", [(), (5, 999, 4_000, 12_345)])
@pytest.mark.parametrize("n_bins", [20, 40])
def test_markov_distance_equals_two_bincount_form(gaps, n_bins):
    series = _series(_ou(20_000, seed=21).values, gaps=gaps)
    _, idx = _bin_index(series.values, n_bins)
    prefix = _gap_prefix(series)
    valid = (prefix[2:] - prefix[:-2]) == 0
    assert valid.all() == (not gaps)
    rng = np.random.default_rng(22)
    surrogate = idx.copy()
    for _ in range(5):
        c3 = _triple_counts(surrogate, valid, n_bins, 1)
        assert (_markov_distance(c3, 30)
                == _two_bincount_distance(surrogate, valid, n_bins, 1, 30))
        rng.shuffle(surrogate)


def _shuffle_threshold(series, n_bins, min_cell, seed, n_surrogates=100):
    """The surrogate threshold of a permutation null: shuffle the bin
    codes, recount the triples."""
    _, idx = _bin_index(series.values, n_bins)
    valid = np.ones(len(series) - 2, dtype=bool)
    rng = np.random.default_rng(seed)
    surrogate = idx.copy()
    stats = np.empty(n_surrogates)
    for k in range(n_surrogates):
        rng.shuffle(surrogate)
        stats[k], _ = _markov_distance(
            _triple_counts(surrogate, valid, n_bins, 1), min_cell)
    return float(np.percentile(stats, 95.0, method="higher"))


@pytest.mark.parametrize("make, n_bins, min_cell", [
    (lambda: _ou(50_000, seed=31), 40, 30),
    (lambda: _ma3(20_000, seed=32), 20, 30),
    (lambda: _ou(140, seed=33, k=0.2, d2=2e-4), 4, 5),
], ids=["ou", "ma3", "short"])
def test_multinomial_null_matches_the_shuffle_null(make, n_bins, min_cell):
    # a shuffle keeps the series' composition and overlaps its triples;
    # the multinomial draws m independent triples from the marginal.
    # Over seeds the two mean thresholds agree within Monte Carlo error
    series = make()
    seeds = range(40, 60)
    drawn = np.array([markov_test(series, n_bins=n_bins,
                                  min_cell_count=min_cell, seed=s).threshold
                      for s in seeds])
    shuffled = np.array([_shuffle_threshold(series, n_bins, min_cell, s)
                         for s in seeds])
    se = np.sqrt((drawn.var(ddof=1) + shuffled.var(ddof=1)) / len(seeds))
    assert abs(drawn.mean() - shuffled.mean()) <= 2.0 * se, (
        drawn.mean(), shuffled.mean(), se)


@pytest.mark.parametrize("n, n_bins, min_cell", [(40, 2, 3), (140, 4, 5)])
def test_iid_false_failures_stay_at_the_level_on_short_series(n, n_bins,
                                                               min_cell):
    # 400 i.i.d. series at the 95th percentile: the false-failure count
    # stays within the 0.999 quantile of Binomial(400, 0.05).  The drawn
    # counts run a little above the level at these sizes (6-7% over
    # many series sets, against 5% for a shuffle), inside this bound
    rng = np.random.default_rng([n, n_bins])
    false_fails = sum(
        not markov_test(_series(rng.uniform(size=n)), n_bins=n_bins,
                        min_cell_count=min_cell, seed=rep).passed
        for rep in range(400))
    assert false_fails <= 35, false_fails


def test_underpopulated_surrogates_raise():
    # 20 zeros then 20 ones: the (0, 0) cell holds 19 triples, but an
    # i.i.d. draw of 38 triples from a fair marginal almost never puts
    # 19 in one cell
    series = _series(np.r_[np.zeros(20), np.ones(20)])
    with pytest.raises(AllBinsUnderpopulated, match="surrogate"):
        markov_test(series, n_bins=2, min_cell_count=19)
