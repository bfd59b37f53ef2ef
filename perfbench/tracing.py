"""Traced replay: per-layer metrics from spans around volgram's modules.

The traced run replays each workload once, serially in this process:
its set-up and its commands go through ``volgram.cli.main`` with
``--jobs 1``.  While a replay runs, the public functions of every
volgram module are replaced by wrappers that record a span (name,
start, end, parent, and a few facts about the call).  The fit's
counters come from the same wrappers: ``distributions.cdf`` and
``cdf_grid`` and the incomplete-gamma and ``erf`` names that
``distributions`` imports.  No file of the program changes.

The requested workload is replayed first and every metric it produces
is its own.  The other three follow, and fill in the metrics of layers
or models that the requested workload never calls; the printed report
names the workload each value came from.  Spans are kept in memory and
written to ``perfbench/runs/spans-<workload>-s<seed>.jsonl`` at the end.
"""

from __future__ import annotations

import contextlib
import json
import logging
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import MODELS, WORKLOADS

LAYERS = ("cli", "market_data", "fitting", "distributions", "special_functions",
          "kramers_moyal", "langevin")
SPECIAL = {"reg_inc_gamma_upper": "inc_gamma_upper",
           "reg_inc_gamma_lower": "inc_gamma_lower", "erf": "erf"}
CLI_STAGES = ("simulate", "pipeline", "ingest", "fit", "summary", "km", "markov")
# fit_cdf messages that end on an accepted step
_ENDS_ACCEPTED = ("parameter step below tolerance", "iteration cap reached",
                  "domain escape: step clamping repeated")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [(f"cli.{stage}.s", "s", "lower") for stage in CLI_STAGES]
    out.append(("cli.fit.speedup", "1", "higher"))
    out += [(f"special_functions.{fn}.ns_per_point", "ns", "lower")
            for fn in SPECIAL.values()]
    # the Weibull CDF calls no special function
    out += [(f"special_functions.points_per_window.{m}", "count", "lower")
            for m in MODELS if m != "weibull"]
    for m in MODELS:
        out += [(f"distributions.cdf.calls_per_window.{m}", "count", "lower"),
                (f"distributions.cdf_grid.rows_per_window.{m}", "count", "lower"),
                (f"distributions.cdf.self_ms_per_window.{m}", "ms", "lower"),
                (f"distributions.initial_guess.ms.{m}", "ms", "lower"),
                (f"fitting.fit.ms_per_window.{m}", "ms", "lower"),
                (f"fitting.fit.iterations_per_window.{m}", "count", "lower"),
                (f"fitting.fit.accepted_step_ratio.{m}", "1", "higher")]
    out += [("fitting.empirical_cdf.ms_per_window", "ms", "lower"),
            ("fitting.error_summary.s", "s", "lower"),
            ("market_data.parse_quotes.rows_per_s", "rows/s", "higher"),
            ("market_data.build_windows.s", "s", "lower"),
            ("market_data.write_windows_jsonl.s", "s", "lower"),
            ("market_data.windows_jsonl.bytes_per_window", "bytes", "lower"),
            ("market_data.read_windows_jsonl.s", "s", "lower"),
            ("kramers_moyal.conditional_moments.s", "s", "lower"),
            ("kramers_moyal.km_estimate.s", "s", "lower"),
            ("kramers_moyal.markov_test.s", "s", "lower"),
            ("kramers_moyal.markov_test.ms_per_surrogate", "ms", "lower"),
            ("langevin.simulate_langevin.s_per_1e6_steps", "s", "lower"),
            ("langevin.simulate_market.s", "s", "lower"),
            ("trace.overhead_share", "1", "lower")]
    return out


def _fit_info(args, kwargs, result, _):
    accepted = 0
    if result.iterations:
        accepted = result.iterations - 1 + (result.message in _ENDS_ACCEPTED)
    return {"model": args[0].value, "iterations": result.iterations,
            "accepted": accepted}


def _targets(v) -> list[tuple]:
    """(module, attribute, layer, before-hook, after-hook) of each wrapped name."""
    def points(a, k, r, s):
        return {"points": int(np.size(r))}

    def model_of_params(a, k, r, s):
        return {"model": a[0].kind.value}

    def model_of_kind(a, k, r, s):
        return {"model": a[0].value}

    def grid(a, k, r, s):
        return {"model": a[0].value, "rows": int(np.size(a[1]))}

    def tell(a, k):
        return a[1].tell()

    def written(a, k, r, s):
        return {"windows": len(a[0]), "bytes": a[1].tell() - s}

    return [
        *[(v.distributions, name, "special_functions", None, points) for name in SPECIAL],
        (v.distributions, "cdf", "distributions", None, model_of_params),
        (v.distributions, "cdf_grid", "distributions", None, grid),
        (v.distributions, "initial_guess", "distributions", None, model_of_kind),
        (v.distributions, "sample", "distributions", None, None),
        (v.fitting, "fit_cdf", "fitting", None, _fit_info),
        (v.fitting, "empirical_cdf", "fitting", None, None),
        (v.fitting, "fit_window_all_models", "fitting", None, None),
        (v.fitting, "error_summary", "fitting", None, None),
        (v.market_data, "parse_quotes", "market_data", None,
         lambda a, k, r, s: {"rows": len(r.records) + r.n_malformed}),
        (v.market_data, "build_windows", "market_data", None, None),
        (v.market_data, "write_windows_jsonl", "market_data", tell, written),
        (v.market_data, "read_windows_jsonl", "market_data", None, None),
        (v.market_data, "window_from_dict", "market_data", None, None),
        (v.kramers_moyal, "conditional_moments", "kramers_moyal", None, None),
        (v.kramers_moyal, "km_estimate", "kramers_moyal", None, None),
        (v.kramers_moyal, "markov_test", "kramers_moyal", None,
         lambda a, k, r, s: {"surrogates": k.get("n_surrogates", 100)}),
        (v.langevin, "simulate_langevin", "langevin", None,
         lambda a, k, r, s: {"steps": a[0].n_steps}),
        (v.langevin, "simulate_market", "langevin", None, None),
        (v.langevin, "add_measurement_noise", "langevin", None, None),
        (v.cli, "main", "cli", None, lambda a, k, r, s: {"stage": a[0][0]}),
        (v.cli, "run_fit", "cli", None, None),
        (v.cli, "emit_plotdata", "cli", None, None),
    ]


class Tracer:
    """Spans in memory: [name, layer, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, layer, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            state = before(args, kwargs) if before else None
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after:
                span[5] = after(args, kwargs, result, state)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, volgram):
        saved = []
        try:
            for module, attr, layer, before, after in _targets(volgram):
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                name = f"{layer}.{SPECIAL.get(attr, attr)}"
                setattr(module, attr, self.wrap(fn, name, layer, before, after))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def span_cost() -> float:
    """Seconds a wrapper adds to one call, measured on an empty function."""
    def empty():
        return None
    traced = Tracer().wrap(empty, "x", "x")
    n = 20000
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        traced()
    t1 = clock()
    for _ in range(n):
        empty()
    t2 = clock()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)


def layer_metrics(spans: list[list], cost: float) -> dict[str, float]:
    """Per-layer metrics of one replay; a metric whose calls never happened
    is left out."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    fit_of = [-1] * n
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, (name, _, _, _, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            child[parent] += dur[i]
        fit_of[i] = i if name == "fitting.fit_cdf" else (fit_of[parent] if parent >= 0 else -1)
    own = [dur[i] - child[i] for i in range(n)]
    info = [s[5] or {} for s in spans]

    def total(name, values=dur):
        return sum(values[i] for i in by_name[name])

    def summed(name, key):
        return sum(info[i][key] for i in by_name[name])

    m: dict[str, float] = {}
    for layer in LAYERS:
        idx = [i for i in range(n) if spans[i][1] == layer]
        if idx:
            m[f"{layer}.self_s"] = sum(own[i] for i in idx)
    for i in by_name["cli.main"]:
        key = f"cli.{info[i]['stage']}.s"
        m[key] = m.get(key, 0.0) + dur[i]
    for fn in SPECIAL.values():
        name = f"special_functions.{fn}"
        if by_name[name]:
            m[f"{name}.ns_per_point"] = 1e9 * total(name) / summed(name, "points")

    inside: dict[str, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))
    for i in range(n):
        f = fit_of[i]
        if 0 <= f != i:
            inside[info[f]["model"]][spans[i][0]].append(i)
    for model in MODELS:
        fits = [i for i in by_name["fitting.fit_cdf"] if info[i]["model"] == model]
        if not fits:
            continue
        w = len(fits)
        calls = inside[model]["distributions.cdf"]
        grid = inside[model]["distributions.cdf_grid"]
        trials = len(calls) - w       # each fit's first residual is no trial
        m[f"fitting.fit.ms_per_window.{model}"] = 1e3 * sum(dur[i] for i in fits) / w
        m[f"fitting.fit.iterations_per_window.{model}"] = (
            sum(info[i]["iterations"] for i in fits) / w)
        if trials > 0:
            m[f"fitting.fit.accepted_step_ratio.{model}"] = (
                sum(info[i]["accepted"] for i in fits) / trials)
        m[f"distributions.cdf.calls_per_window.{model}"] = len(calls) / w
        m[f"distributions.cdf_grid.rows_per_window.{model}"] = (
            sum(info[i]["rows"] for i in grid) / w)
        m[f"distributions.cdf.self_ms_per_window.{model}"] = (
            1e3 * sum(own[i] for i in calls) / w)
        if model != "weibull":
            pts = sum(info[i]["points"] for fn in SPECIAL.values()
                      for i in inside[model][f"special_functions.{fn}"])
            m[f"special_functions.points_per_window.{model}"] = pts / w
        guesses = [i for i in by_name["distributions.initial_guess"]
                   if info[i]["model"] == model]
        if guesses:
            m[f"distributions.initial_guess.ms.{model}"] = (
                1e3 * sum(dur[i] for i in guesses) / len(guesses))

    if by_name["fitting.empirical_cdf"]:
        m["fitting.empirical_cdf.ms_per_window"] = (
            1e3 * total("fitting.empirical_cdf") / len(by_name["fitting.empirical_cdf"]))
    for name in ("fitting.error_summary", "market_data.build_windows",
                 "market_data.write_windows_jsonl", "market_data.read_windows_jsonl",
                 "kramers_moyal.conditional_moments", "kramers_moyal.km_estimate",
                 "kramers_moyal.markov_test", "langevin.simulate_market"):
        if by_name[name]:
            m[f"{name}.s"] = total(name)
    if by_name["market_data.parse_quotes"]:
        m["market_data.parse_quotes.rows_per_s"] = (
            summed("market_data.parse_quotes", "rows") / total("market_data.parse_quotes"))
    if by_name["market_data.write_windows_jsonl"]:
        m["market_data.windows_jsonl.bytes_per_window"] = (
            summed("market_data.write_windows_jsonl", "bytes")
            / summed("market_data.write_windows_jsonl", "windows"))
    if by_name["kramers_moyal.markov_test"]:
        m["kramers_moyal.markov_test.ms_per_surrogate"] = (
            1e3 * total("kramers_moyal.markov_test")
            / (summed("kramers_moyal.markov_test", "surrogates")
               + len(by_name["kramers_moyal.markov_test"])))
    if by_name["langevin.simulate_langevin"]:
        m["langevin.simulate_langevin.s_per_1e6_steps"] = (
            1e6 * total("langevin.simulate_langevin")
            / summed("langevin.simulate_langevin", "steps"))
    roots = sum(dur[i] for i in range(n) if spans[i][4] < 0)
    if roots > 0:
        m["trace.overhead_share"] = cost * n / roots
    return m


class InProcess:
    """Runs volgram commands through ``volgram.cli.main`` in this process,
    collecting each command's log lines."""

    def __init__(self, volgram):
        self.cli = volgram.cli
        self.logs: dict[str, str] = {}

    def __call__(self, argv: list[str], cwd: Path, label: str = "setup") -> None:
        lines: list[str] = []
        handler = logging.Handler()
        handler.emit = lambda record: lines.append(record.getMessage())
        logger = logging.getLogger("volgram")
        logger.addHandler(handler)
        try:
            code = self.cli.main(argv)
        finally:
            logger.removeHandler(handler)
        self.logs[label] = "\n".join(lines)
        if code != 0:
            raise RuntimeError(f"volgram {' '.join(argv)} returned {code}")


def traced_run(name: str, seed: int, work: Path, runs: Path, jobs: int,
               subprocesses) -> dict:
    import volgram
    import volgram.cli  # noqa: F401  (loads every module the CLI uses)

    cost = span_cost()
    order = [name] + [w for w in WORKLOADS if w != name]
    metrics: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    attempted = failed = 0
    span_lines: list[str] = []
    for wname in order:
        workload = WORKLOADS[wname]()
        d = work / wname
        d.mkdir(parents=True)
        tracer = Tracer()
        run = InProcess(volgram)
        with tracer.installed(volgram):
            truth = workload.setup(run, d, seed)
            for label, argv in workload.commands(d, seed, 1):
                run(argv, d, label)
        outcome = workload.check(d, seed, truth, run.logs)
        found = layer_metrics(tracer.spans, cost)
        fit_argv = workload.fit_command(d, jobs)
        if fit_argv:
            serial = sum(s[3] - s[2] for s in tracer.spans if s[0] == "cli.run_fit")
            found["cli.fit.speedup"] = serial / subprocesses(fit_argv, d, "speedup").wall
        for key, value in found.items():
            metrics.setdefault(key, (value, wname))
        if wname == name:
            attempted, failed = outcome.attempted, outcome.failed
        problems += [f"{wname}: {p}" for p in outcome.problems]
        span_lines += [json.dumps({"workload": wname, "name": s[0], "start": s[2],
                                   "end": s[3], "parent": s[4], "info": s[5]})
                       for s in tracer.spans]
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"spans-{name}-s{seed}.jsonl").write_text("\n".join(span_lines) + "\n",
                                                      encoding="utf-8")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"{name}: seed {seed}, traced replay, span cost {cost * 1e9:.0f} ns")
    out = {}
    for key, unit, _ in per_layer_metrics():
        if key not in metrics:
            print(f"  {key}: MISSING, no replay called it")
            continue
        value, source = metrics[key]
        print(f"  {key} = {value:.6g} {unit}"
              + ("" if source == name else f"  [from {source}]"))
        out[key] = {"value": value, "unit": unit}
    return {"correct": not problems and len(out) == len(per_layer_metrics()),
            "attempted": attempted, "failed": failed, "metrics": out}
