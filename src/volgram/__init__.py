"""Volume-price distribution fitting and Langevin reconstruction toolkit.

The names below load their home module on first use, so ``import
volgram`` loads no numpy: the CLI sets up the environment numpy reads
at import (``volgram.cli``) before it loads the library.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "distributions": ("ALL_KINDS", "EmpiricalCDF", "ModelKind", "ModelParams",
                      "analytic_moments", "cdf", "empirical_cdf",
                      "initial_guess", "pdf", "sample"),
    "fitting": ("FitResult", "error_summary", "fit_cdf",
                "fit_window_all_models"),
    "kramers_moyal": ("ConditionalMoments", "KMCoefficients",
                      "MarkovTestResult", "conditional_moments",
                      "km_estimate", "markov_test"),
    "langevin": ("LangevinSpec", "MarketSim", "add_measurement_noise",
                 "simulate_langevin", "simulate_market"),
    "market_data": ("ParamSeries", "QuoteRecord", "SnapshotWindow",
                    "build_windows", "parse_quotes", "read_windows_jsonl",
                    "write_windows_jsonl"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
