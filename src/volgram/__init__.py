"""Volume-price distribution fitting and Langevin reconstruction toolkit."""

from .distributions import (ALL_KINDS, EmpiricalCDF, ModelKind, ModelParams,
                            analytic_moments, cdf, empirical_cdf, initial_guess,
                            pdf, sample)
from .fitting import (FitResult, error_summary, fit_cdf,
                      fit_window_all_models)
from .kramers_moyal import (ConditionalMoments, KMCoefficients,
                            MarkovTestResult, ParamSeries, conditional_moments,
                            estimate_measurement_noise, km_estimate,
                            markov_test)
from .langevin import (LangevinSpec, MarketSim, add_measurement_noise,
                       simulate_langevin, simulate_market)
from .market_data import (QuoteRecord, SnapshotWindow, build_windows,
                          parse_quotes, read_windows_jsonl,
                          write_windows_jsonl)

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS", "ModelKind", "ModelParams", "analytic_moments", "cdf",
    "initial_guess", "pdf", "sample",
    "EmpiricalCDF", "FitResult", "empirical_cdf",
    "error_summary", "fit_cdf", "fit_window_all_models",
    "ConditionalMoments", "KMCoefficients", "MarkovTestResult", "ParamSeries",
    "conditional_moments", "estimate_measurement_noise", "km_estimate",
    "markov_test",
    "LangevinSpec", "MarketSim", "add_measurement_noise",
    "simulate_langevin", "simulate_market",
    "QuoteRecord", "SnapshotWindow", "build_windows", "parse_quotes",
    "read_windows_jsonl", "write_windows_jsonl",
]
