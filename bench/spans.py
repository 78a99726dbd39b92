"""Spans around the calls into polycap's modules, for the traced run.

``install`` replaces each traced function at every module that imports it
by name with a wrapper that records a span: a name, a start, an end, the
span open when it was called, and the job id. Spans stay in memory; the
per-layer metrics are read off them after each pass. A layer's self time is
its span's duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace


class Recorder:
    """Spans of one pass, in columns, plus counters read off return values."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.jobs = array("l")
        self.stack = []
        self.counts = Counter()
        self.job = -1

    def open(self, name) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, count=None):
        """fn, recording a span per call; count(counter, args, result)
        adds to the counters after the call returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper

    def totals(self):
        """(duration, self time, calls) per span name."""
        child = defaultdict(float)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        dur, own, calls = Counter(), Counter(), Counter()
        for i, name in enumerate(self.names):
            d = self.end[i] - self.start[i]
            dur[name] += d
            own[name] += d - child[i]
            calls[name] += 1
        return dur, own, calls

    def write_jsonl(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "span": i, "name": name,
                    "start": self.start[i] - origin,
                    "end": self.end[i] - origin,
                    "parent": self.parent[i] if self.parent[i] >= 0 else None,
                    "job": self.jobs[i]}) + "\n")


def _count_terms(counts, args, result):
    counts["ryser_terms"] += (1 << len(args[0])) - 1


def _count_points(counts, args, result):
    counts["mixed_form_points"] += 1 << args[0].degree


def _count_newton(counts, args, result):
    counts["capacity_runs"] += 1
    counts["capacity_converged"] += result.status == "converged"
    counts["newton_iters"] += result.iterations


def _count_sinkhorn(counts, args, result):
    counts["sinkhorn_iters"] += result.iterations


def _count_base_calls(counts, args, result):
    counts["approx_base_calls"] += result.oracle_calls


def install(rec: Recorder):
    """Wrap polycap's public functions at their import sites."""
    import polycap.approx as approx
    import polycap.bounds as bounds
    import polycap.capacity as capacity
    import polycap.cli as cli
    import polycap.hyperbolicity as hyperbolicity
    import polycap.oracles as oracles
    import polycap.polynomials as polynomials

    sites = [
        ("io.load_polynomial", None, [cli]),
        ("oracles.permanent_ryser", _count_terms, [cli, bounds, oracles]),
        ("oracles.mixed_discriminant", None, [cli]),
        ("oracles.mixed_form", _count_points, [oracles]),
        ("oracles.exact_mixed_partial", None, [bounds]),
        ("capacity.capacity_minimize", _count_newton, [cli, bounds, approx]),
        ("capacity.sinkhorn_scale", _count_sinkhorn, [cli]),
        ("bounds.rank_ladder_bound", None, [cli]),
        ("approx.estimate_mixed_partial", _count_base_calls, [cli]),
        ("hyperbolicity.real_rootedness_check", None, [cli]),
        ("hyperbolicity.root_profile", None, [hyperbolicity]),
        ("hyperbolicity.half_plane_sample_check", None, [cli]),
    ]
    for name, count, modules in sites:
        attr = name.split(".", 1)[1]
        for module in modules:
            setattr(module, attr, rec.wrap(name, getattr(module, attr), count))

    make_objective = capacity.log_objective

    def log_objective(poly):
        obj = make_objective(poly)
        return SimpleNamespace(**{
            method: rec.wrap(f"capacity.objective.{method}", getattr(obj, method))
            for method in ("value", "gradient", "hessian")})

    capacity.log_objective = log_objective

    evaluate = polynomials.EvaluationOracle.evaluate
    slice_oracle = approx.DerivativeSliceOracle

    def traced_evaluate(self, point):
        i = rec.open("approx.slice_eval" if isinstance(self, slice_oracle)
                     else "polynomials.evaluate")
        try:
            return evaluate(self, point)
        finally:
            rec.close(i)

    polynomials.EvaluationOracle.evaluate = traced_evaluate
    cli.main = rec.wrap("cli.main", cli.main)


def _ratio(a, b):
    return a / b if b else 0.0


# name, unit, better, value from (duration, self time, calls, counters).
LAYER_METRICS = [
    ("cli.main.self_s", "s", "lower", lambda d, o, c, k: o["cli.main"]),
    ("io.load_polynomial.s", "s", "lower",
     lambda d, o, c, k: d["io.load_polynomial"]),
    ("polynomials.evaluate.calls", "count", "lower",
     lambda d, o, c, k: c["polynomials.evaluate"]),
    ("polynomials.evaluate.s", "s", "lower",
     lambda d, o, c, k: d["polynomials.evaluate"]),
    ("oracles.permanent_ryser.s", "s", "lower",
     lambda d, o, c, k: d["oracles.permanent_ryser"]),
    ("oracles.permanent_ryser.terms", "count", "lower",
     lambda d, o, c, k: k["ryser_terms"]),
    ("oracles.mixed_form.s", "s", "lower",
     lambda d, o, c, k: d["oracles.mixed_form"]),
    ("oracles.mixed_form.self_s", "s", "lower",
     lambda d, o, c, k: o["oracles.mixed_form"]),
    ("oracles.mixed_form.points", "count", "lower",
     lambda d, o, c, k: k["mixed_form_points"]),
    ("capacity.capacity_minimize.s", "s", "lower",
     lambda d, o, c, k: d["capacity.capacity_minimize"]),
    ("capacity.newton_iters", "count", "lower",
     lambda d, o, c, k: k["newton_iters"]),
    ("capacity.converged_per_run", "ratio", "higher",
     lambda d, o, c, k: _ratio(k["capacity_converged"], k["capacity_runs"])),
    ("capacity.objective.value_calls", "count", "lower",
     lambda d, o, c, k: c["capacity.objective.value"]),
    ("capacity.objective.gradient_s", "s", "lower",
     lambda d, o, c, k: d["capacity.objective.gradient"]),
    ("capacity.objective.hessian_s", "s", "lower",
     lambda d, o, c, k: d["capacity.objective.hessian"]),
    ("capacity.sinkhorn_scale.s", "s", "lower",
     lambda d, o, c, k: d["capacity.sinkhorn_scale"]),
    ("capacity.sinkhorn_iters", "count", "lower",
     lambda d, o, c, k: k["sinkhorn_iters"]),
    ("bounds.rank_ladder_bound.self_s", "s", "lower",
     lambda d, o, c, k: o["bounds.rank_ladder_bound"]),
    ("approx.estimate_mixed_partial.s", "s", "lower",
     lambda d, o, c, k: d["approx.estimate_mixed_partial"]),
    ("approx.slice_evals", "count", "lower",
     lambda d, o, c, k: c["approx.slice_eval"]),
    ("approx.base_calls", "count", "lower",
     lambda d, o, c, k: k["approx_base_calls"]),
    ("hyperbolicity.real_rootedness_check.s", "s", "lower",
     lambda d, o, c, k: d["hyperbolicity.real_rootedness_check"]),
    ("hyperbolicity.root_profile.calls", "count", "lower",
     lambda d, o, c, k: c["hyperbolicity.root_profile"]),
    ("hyperbolicity.half_plane_sample_check.s", "s", "lower",
     lambda d, o, c, k: d["hyperbolicity.half_plane_sample_check"]),
]


def layer_values(rec: Recorder) -> dict:
    """Every per-layer metric for the pass the recorder holds."""
    dur, own, calls = rec.totals()
    return {name: float(fn(dur, own, calls, rec.counts))
            for name, _, _, fn in LAYER_METRICS}
