"""The four workloads: their inputs, their volgram commands, their checks.

Every check compares the program's outputs with values the benchmark
knows without the program (the simulated truth, the generated quotes)
or with properties the method must have.  None compares with a saved
copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import quotes

MODELS = ("gamma", "inverse-gamma", "log-normal", "weibull")

# simulated market: inverse-gamma cross-sections whose tail parameter phi
# follows an Euler-discretised OU process around the paper's 0.93
COMPANIES = 2000
PHI_FIXED_POINT = 0.93
MARKET_DRIFT_SLOPE = -0.2
MARKET_D2 = 2e-4

# reference OU series of the km-markov-series workload (criteria 4-6)
OU_STEPS = 500_000
OU_DRIFT_SLOPE = -0.02
OU_D2 = 1e-6
OU_NOISE_SIGMA = 5e-3
MA3_LENGTH = 100_000

CRB_MULTIPLE = 4.0      # phi within this many Cramer-Rao deviations...
FIT_EFFICIENCY = 1.5    # ...for a CDF fit whose spread is up to 1.5x the floor
MISS_PROBABILITY = 1e-6  # allowed chance that a correct fit fails the count
# simulated windows where one company holds this share of the volume-price
# are removed before the program sees the file (see README, "Checks")
CONCENTRATED_SHARE = 0.99
# KM settings of the pipeline, scaled to its 140-point series
PIPELINE_KM = {"n_bins": 6, "tau_max": 3, "min_count": 5, "tau_fit": (1, 3)}


@dataclass
class Outcome:
    """Result of checking one round's outputs."""
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    windows: int = 0                       # windows fitted by the round
    rows: int = 0                          # quote rows ingested by the round
    info: dict[str, tuple[float, str]] = field(default_factory=dict)


def _strict(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _read_jsonl(path: Path, strict: bool = True) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [(_strict(line) if strict else json.loads(line))
                for line in fh if line.strip()]


def _read_json(path: Path, strict: bool = True) -> dict:
    text = path.read_text(encoding="utf-8")
    return _strict(text) if strict else json.loads(text)


def trigamma(x: float) -> float:
    """psi'(x) for x > 0: recurrence up to x >= 6, then the asymptotic series."""
    acc = 0.0
    while x < 6.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    return acc + inv + inv2 / 2.0 + inv * inv2 * (
        1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0)))


def crb_phi_rel_sd(phi: float, n: int) -> float:
    """Cramer-Rao deviation of the inverse-gamma shape, relative to phi.

    The Fisher information in (shape, scale) is [[psi'(phi), 1/theta],
    [1/theta, phi/theta^2]], so sd(phi)/phi = 1/sqrt(n phi (phi psi'(phi) - 1)).
    """
    return 1.0 / math.sqrt(n * phi * (phi * trigamma(phi) - 1.0))


def allowed_misses(n: int, p_miss: float, tail: float = MISS_PROBABILITY) -> int:
    """Smallest k with P(Binomial(n, p_miss) > k) < tail."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p_miss ** k * (1.0 - p_miss) ** (n - k)
        if 1.0 - cdf < tail:
            return k
    return n


def km_report(rows: list[dict], n_bins: int, tau_max: int, min_count: int,
              tau_fit: tuple[int, int]) -> dict:
    """The KM drift/diffusion report of the inverse-gamma phi series.

    Written from the method's definition, apart from the program: the
    series is the converged phi in window order, with a break wherever
    the window grid has a hole; M1 and M2 are the mean tau-step
    increment and its square per equal-width bin of the start value,
    for bins holding at least min_count increments at every tau; per
    bin, a line in tau over the fit range gives D1 = slope and
    D2 = max(slope of M2, 0) / 2; the count-weighted line of D1 over
    the bin centres crosses zero at the fixed point.
    """
    rows = sorted(rows, key=lambda r: r["window_start"])
    values, breaks = [], []
    last_start = None
    for r in rows:
        fit = r["models"]["inverse-gamma"]
        if not fit["converged"]:
            continue
        if last_start is not None and r["window_start"] - last_start != r["window_len"]:
            breaks.append(len(values))
        values.append(fit["phi"])
        last_start = r["window_start"]
    v = np.asarray(values)
    segment = np.zeros(v.size, dtype=int)
    for i in breaks:
        segment[i:] += 1
    edges = np.linspace(v.min(), v.max(), n_bins + 1)
    idx = np.clip(np.searchsorted(edges, v, side="right") - 1, 0, n_bins - 1)
    counts = np.zeros((n_bins, tau_max))
    m1 = np.zeros((n_bins, tau_max))
    m2 = np.zeros((n_bins, tau_max))
    for tau in range(1, tau_max + 1):
        for t in range(v.size - tau):
            if segment[t] == segment[t + tau]:
                inc = v[t + tau] - v[t]
                counts[idx[t], tau - 1] += 1
                m1[idx[t], tau - 1] += inc
                m2[idx[t], tau - 1] += inc * inc
    keep = counts.min(axis=1) >= min_count
    lo, hi = tau_fit
    taus = np.arange(lo, hi + 1, dtype=float)
    dt = taus - taus.mean()

    def slope(m):
        y = (m / counts)[keep][:, lo - 1:hi]
        return ((y - y.mean(axis=1, keepdims=True)) * dt).sum(axis=1) / (dt * dt).sum()

    centers = (0.5 * (edges[:-1] + edges[1:]))[keep]
    d1 = slope(m1)
    w = counts[keep][:, lo - 1]
    xm = (w * centers).sum() / w.sum()
    ym = (w * d1).sum() / w.sum()
    drift = (w * (centers - xm) * (d1 - ym)).sum() / (w * (centers - xm) ** 2).sum()
    return {"bins": centers, "counts": w, "D1": d1, "D2": np.maximum(slope(m2), 0.0) / 2.0,
            "drift_slope": drift, "phi_f": xm - ym / drift}


def _phi_checks(rows: list[dict], truth: np.ndarray, out: Outcome) -> None:
    """Inverse-gamma phi against the simulated truth, window by window."""
    n_out = 0
    errs = []
    for row in rows:
        fit = row["models"]["inverse-gamma"]
        if not fit["converged"]:
            continue
        phi = truth[int(round(row["window_start"] / 600.0))]
        err = abs(fit["phi"] - phi)
        errs.append(err / phi)
        if err > CRB_MULTIPLE * phi * crb_phi_rel_sd(phi, row["n_companies"]):
            n_out += 1
    p_miss = math.erfc(CRB_MULTIPLE / FIT_EFFICIENCY / math.sqrt(2.0))
    limit = allowed_misses(len(rows), p_miss)
    if n_out > limit:
        out.problems.append(f"{n_out} of {len(rows)} inverse-gamma phi outside "
                            f"{CRB_MULTIPLE:g} Cramer-Rao deviations (allowed {limit})")
    if errs:
        out.info["phi_rel_err"] = (statistics.median(errs), "1")


def _market_setup(run, d: Path, seed: int, windows: int) -> int:
    """Simulate the market; drop concentrated windows; return the count kept."""
    path = d / "windows.jsonl"
    run(["simulate", "market", "--output", str(path),
         "--truth", str(d / "truth.json"), "--companies", str(COMPANIES),
         "--windows", str(windows), "--initial", str(PHI_FIXED_POINT),
         "--fixed-point", str(PHI_FIXED_POINT),
         "--drift-slope", str(MARKET_DRIFT_SLOPE),
         "--diffusion", str(MARKET_D2), "--seed", str(seed)], d)
    kept = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            samples = json.loads(line)["samples"]
            if max(samples) < CONCENTRATED_SHARE * math.fsum(samples):
                kept.append(line)
    if len(kept) < windows:
        path.write_text("".join(kept), encoding="utf-8")
    return len(kept)


def _truth(d: Path) -> np.ndarray:
    return np.asarray(_read_json(d / "truth.json")["values"])


class InvGammaPipeline:
    """The paper's main path on a simulated inverse-gamma market."""
    name = "invgamma-pipeline"
    windows = 140

    def setup(self, run, d: Path, seed: int) -> int:
        return _market_setup(run, d, seed, self.windows)

    def commands(self, d: Path, seed: int, jobs: int) -> list[tuple[str, list[str]]]:
        km = PIPELINE_KM
        return [("pipeline", [
            "pipeline", "--input", str(d / "windows.jsonl"), "--outdir", str(d / "out"),
            "--models", "inverse-gamma", "--plotdata", "--jobs", str(jobs),
            "--n-bins", str(km["n_bins"]), "--tau-max", str(km["tau_max"]),
            "--tau-fit", "{}:{}".format(*km["tau_fit"]),
            "--min-count", str(km["min_count"]),
            "--markov-bins", "4", "--min-cell-count", "5", "--seed", str(seed)])]

    def fit_command(self, d: Path, jobs: int) -> list[str]:
        return ["fit", "--input", str(d / "windows.jsonl"), "--output",
                str(d / "fits-speedup.jsonl"), "--models", "inverse-gamma",
                "--jobs", str(jobs)]

    def check(self, d: Path, seed: int, truth, logs: dict[str, str]) -> Outcome:
        out_dir = d / "out"
        rows = _read_jsonl(out_dir / "fits.jsonl")
        out = Outcome(attempted=len(rows) + 2, failed=0, windows=len(rows))
        out.failed = sum(not r["models"]["inverse-gamma"]["converged"] for r in rows)
        if out.failed:
            out.problems.append(f"{out.failed} inverse-gamma fits did not converge")
        if len(rows) != truth:
            out.problems.append(f"{len(rows)} fit rows for {truth} windows")
        _phi_checks(rows, _truth(d), out)
        _read_json(out_dir / "summary.json")
        km = _read_json(out_dir / "km.json")
        for key, want in km_report(rows, **PIPELINE_KM).items():
            got = np.asarray(km[key], dtype=float)
            if got.shape != np.shape(want) or not np.allclose(got, want, rtol=1e-9,
                                                              atol=1e-12):
                out.problems.append(f"km.json {key} differs from the recomputed "
                                    f"KM report: {km[key]} vs {want}")
        with open(out_dir / "plotdata" / "param-series.csv", encoding="utf-8") as fh:
            n_series = sum(1 for _ in csv.reader(fh)) - 1
        if n_series != len(rows):
            out.problems.append(f"param-series.csv has {n_series} rows, "
                                f"{len(rows)} windows")
        return out


class FourModelRanking:
    """All four models on fewer windows of the same market, then summary."""
    name = "four-model-ranking"
    windows = 40

    def setup(self, run, d: Path, seed: int) -> int:
        return _market_setup(run, d, seed, self.windows)

    def commands(self, d: Path, seed: int, jobs: int) -> list[tuple[str, list[str]]]:
        return [("fit", self.fit_command(d, jobs, "fits.jsonl")),
                ("summary", ["summary", "--input", str(d / "fits.jsonl"),
                             "--output", str(d / "summary.json")])]

    def fit_command(self, d: Path, jobs: int, name: str = "fits-speedup.jsonl") -> list[str]:
        return ["fit", "--input", str(d / "windows.jsonl"), "--output", str(d / name),
                "--models", ",".join(MODELS), "--jobs", str(jobs)]

    def check(self, d: Path, seed: int, truth, logs: dict[str, str]) -> Outcome:
        rows = _read_jsonl(d / "fits.jsonl")
        out = Outcome(attempted=len(rows) * len(MODELS), failed=0, windows=len(rows))
        out.failed = sum(not r["models"][m]["converged"] for r in rows for m in MODELS)
        if out.failed:
            out.problems.append(f"{out.failed} window-model fits did not converge")
        if len(rows) != truth:
            out.problems.append(f"{len(rows)} fit rows for {truth} windows")
        rss_wins = sum(min(MODELS, key=lambda m: r["models"][m]["rss"]) == "inverse-gamma"
                       for r in rows)
        if rss_wins != len(rows):
            out.problems.append(f"inverse gamma has the lowest rss in {rss_wins} "
                                f"of {len(rows)} windows")
        summary = _read_json(d / "summary.json")["models"]
        best = min(MODELS, key=lambda m: summary[m]["avg_rel_err_phi"])
        if best != "inverse-gamma":
            out.problems.append(f"lowest avg_rel_err_phi is {best}, not inverse-gamma")
        for m in MODELS:
            good = [r["models"][m] for r in rows if r["models"][m]["converged"]]
            expect = {"n_converged": len(good), "n_failed": len(rows) - len(good)}
            for key in ("phi", "theta"):
                errs = np.array([g[f"rel_err_{key}"] for g in good])
                expect[f"avg_rel_err_{key}"] = float(errs.mean())
                expect[f"std_rel_err_{key}"] = float(errs.std())
            for key, value in expect.items():
                got = summary[m][key]
                if not math.isclose(got, value, rel_tol=1e-12, abs_tol=0.0):
                    out.problems.append(f"summary {m} {key} = {got}, "
                                        f"recomputed {value}")
        _phi_checks(rows, _truth(d), out)
        return out


class KMMarkovSeries:
    """KM and Markov on an OU series, its noisy copy and an MA(3) series."""
    name = "km-markov-series"

    def setup(self, run, d: Path, seed: int):
        common = ["--steps", str(OU_STEPS), "--initial", str(PHI_FIXED_POINT),
                  "--fixed-point", str(PHI_FIXED_POINT),
                  "--drift-slope", str(OU_DRIFT_SLOPE), "--diffusion", str(OU_D2),
                  "--seed", str(seed)]
        run(["simulate", "langevin", "--output", str(d / "ou.json"), *common], d)
        run(["simulate", "langevin", "--output", str(d / "noisy.json"),
             "--noise-sigma", str(OU_NOISE_SIGMA), *common], d)
        # a 3-step moving average of white noise is not Markov; volgram has
        # no generator for it, so the benchmark writes the series JSON
        eps = np.random.default_rng([seed, 3]).standard_normal(MA3_LENGTH + 2)
        ma3 = (eps[2:] + eps[1:-1] + eps[:-2]) / 3.0
        doc = {"format_version": 1, "kind": "param-series", "dt": 1.0,
               "times": list(range(MA3_LENGTH)), "values": ma3.tolist(), "gaps": []}
        (d / "ma3.json").write_text(json.dumps(doc), encoding="utf-8")

    def commands(self, d: Path, seed: int, jobs: int) -> list[tuple[str, list[str]]]:
        # criterion 4-6 settings: lag fit 1:3, 50 bins with a 1000-count
        # floor, a single bin for the noise intercept, 40 Markov bins on OU
        return [
            ("km", ["km", "--series", str(d / "ou.json"), "--output", str(d / "km-ou.json"),
                    "--n-bins", "50", "--tau-max", "5", "--tau-fit", "1:3",
                    "--min-count", "1000"]),
            ("km", ["km", "--series", str(d / "noisy.json"),
                    "--output", str(d / "km-noisy.json"), "--n-bins", "1",
                    "--tau-max", "5", "--tau-fit", "1:3", "--min-count", "100"]),
            ("markov", ["markov", "--series", str(d / "ou.json"),
                        "--output", str(d / "markov-ou.json"), "--n-bins", "40",
                        "--seed", str(seed)]),
            ("markov", ["markov", "--series", str(d / "ma3.json"),
                        "--output", str(d / "markov-ma3.json"), "--n-bins", "20",
                        "--seed", str(seed)]),
        ]

    def fit_command(self, d: Path, jobs: int):
        return None

    def check(self, d: Path, seed: int, truth, logs: dict[str, str]) -> Outcome:
        out = Outcome(attempted=4, failed=0)
        km = _read_json(d / "km-ou.json")
        slope_err = abs(km["drift_slope"] - OU_DRIFT_SLOPE) / abs(OU_DRIFT_SLOPE)
        fp_err = abs(km["phi_f"] - PHI_FIXED_POINT)
        d2_err = abs(float(np.median(km["D2"])) - OU_D2) / OU_D2
        # with a single bin there is no drift line, and km writes phi_f: NaN
        noise = _read_json(d / "km-noisy.json", strict=False)["noise_sigma"]
        noise_err = abs(noise - OU_NOISE_SIGMA) / OU_NOISE_SIGMA
        for label, value, limit in (("drift slope rel err", slope_err, 0.10),
                                    ("fixed point abs err", fp_err, 0.02),
                                    ("median D2 rel err", d2_err, 0.15),
                                    ("noise sigma rel err", noise_err, 0.10)):
            if not value <= limit:
                out.problems.append(f"{label} {value:.4g} above {limit}")
        if _read_json(d / "markov-ou.json")["pass"] is not True:
            out.problems.append("OU series fails the Markov test")
        if _read_json(d / "markov-ma3.json")["pass"] is not False:
            out.problems.append("MA(3) series passes the Markov test")
        return out


_INGEST_READ = re.compile(r"ingest: (\d+) records, (\d+) malformed rows")
_INGEST_WROTE = re.compile(
    r"ingest: wrote (\d+) windows \((\d+) session-filtered, (\d+) too small\)")


class QuotesIngest:
    """Ingest of a seeded quotes CSV, then the inverse-gamma fit."""
    name = "quotes-ingest"

    def setup(self, run, d: Path, seed: int):
        return quotes.generate(d / "quotes.csv", seed)

    def commands(self, d: Path, seed: int, jobs: int) -> list[tuple[str, list[str]]]:
        return [("ingest", ["ingest", "--input", str(d / "quotes.csv"),
                            "--output", str(d / "windows.jsonl")]),
                ("fit", self.fit_command(d, jobs, "fits.jsonl"))]

    def fit_command(self, d: Path, jobs: int, name: str = "fits-speedup.jsonl") -> list[str]:
        return ["fit", "--input", str(d / "windows.jsonl"), "--output", str(d / name),
                "--models", "inverse-gamma", "--jobs", str(jobs)]

    def check(self, d: Path, seed: int, truth: quotes.Reduction,
              logs: dict[str, str]) -> Outcome:
        windows = _read_jsonl(d / "windows.jsonl")
        # the fixed concentrated window's failed fit writes Infinity
        rows = _read_jsonl(d / "fits.jsonl", strict=False)
        out = Outcome(attempted=1 + len(rows), failed=0, windows=len(rows),
                      rows=truth.n_rows)
        read = _INGEST_READ.search(logs.get("ingest", ""))
        wrote = _INGEST_WROTE.search(logs.get("ingest", ""))
        if not (read and wrote):
            out.problems.append("ingest did not log its counts")
        else:
            got = tuple(int(g) for g in read.groups() + wrote.groups())
            expect = (truth.n_rows - truth.n_malformed, truth.n_malformed,
                      len(truth.session_starts), truth.n_session_filtered, 0)
            if got != expect:
                out.problems.append(f"ingest counts (records, malformed, windows, "
                                    f"session-filtered, too small) {got}, "
                                    f"expected {expect}")
        starts = [w["window_start"] for w in windows]
        if starts != truth.session_starts:
            out.problems.append("window starts differ from the session windows "
                                "of the generated quotes")
        else:
            for w in windows:
                want = truth.samples[w["window_start"]]
                got_s = np.sort(np.asarray(w["samples"]))
                if got_s.shape != want.shape or not np.allclose(got_s, want,
                                                                rtol=1e-12, atol=0.0):
                    out.problems.append(f"window {w['window_start']:.0f}: samples "
                                        f"differ from last-quote p*V / mean")
        errs = []
        for r in rows:
            fit = r["models"]["inverse-gamma"]
            if not fit["converged"]:
                out.failed += 1
                if r["window_start"] != truth.concentrated_start:
                    out.problems.append(f"fit of window {r['window_start']:.0f} "
                                        f"did not converge")
            elif r["window_start"] in truth.phi_true:
                phi = truth.phi_true[r["window_start"]]
                errs.append(abs(fit["phi"] - phi) / phi)
        if errs:
            out.info["phi_rel_err"] = (statistics.median(errs), "1")
        return out


WORKLOADS = {w.name: w for w in (InvGammaPipeline, FourModelRanking,
                                 KMMarkovSeries, QuotesIngest)}
