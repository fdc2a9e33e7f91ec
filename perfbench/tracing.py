#!/usr/bin/env python3
"""Traced ranktree CLI invocation, and the per-layer metrics drawn from it.

    python3 perfbench/tracing.py SPANS.json constants --kmax 6

runs ``ranktree.cli.main`` on the given arguments after wrapping every
public function of the measured modules (``cli``, ``genfun``, ``plring``,
``oracle``, ``montecarlo``) in a span.  ``conjecture`` is left unwrapped:
no workload spends measurable time in it.  The wrappers live here; the
package itself is not changed, and stdout is the CLI's own.

Spans are kept in memory and written to SPANS.json when the command
returns, together with work counters taken at the same boundaries.
``layer_metrics`` turns that file into the per-layer metrics.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "genfun", "plring", "oracle", "montecarlo")

# arithmetic dunders of PLExpr that are part of its public interface
PLEXPR_OPS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
}

# plring.rational builds one coefficient and is called once per term
# while decoding records; a span around it would cost more than it measures
UNWRAPPED = {"plring.rational"}

class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters taken at the span boundaries ---------------------------

    def _mul(self, args, kwargs, result):
        a, b = args
        if isinstance(b, type(a)):
            self.counters["plring.mul.calls"] += 1
            self.counters["plring.mul.term_pairs"] += len(a) * len(b)
            self.counters["plring.mul.terms_out"] += len(result)

    def _series(self, args, kwargs, result):
        self.counters["plring.series.coeffs"] += len(args[0]) * len(result)

    def _count_result(self, name):
        def after(args, kwargs, result):
            self.counters[name] += result

        return after

    def _build_tree(self, args, kwargs, result):
        self.counters["montecarlo.vertices"] += result.n

    def hooks(self):
        return {
            "plring.mul": self._mul,
            "plring.series": self._series,
            "cli.load_cache": self._count_result("cli.load_cache.entries"),
            "cli.save_cache": self._count_result("cli.save_cache.entries"),
            "montecarlo.build_tree": self._build_tree,
        }


def _instrument(tracer: Tracer, modules: dict) -> None:
    hooks = tracer.hooks()

    def wrap(owner, attr, name, fn):
        if name not in UNWRAPPED:
            setattr(owner, attr, tracer.wrap(name, fn, hooks.get(name)))

    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            public = not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            if public and inspect.isfunction(obj):
                wrap(module, attr, f"{layer}.{attr}", obj)
    classes = [(modules["plring"].PLExpr, "plring"), (modules["oracle"].RankDP, "oracle.RankDP")]
    for cls, prefix in classes:
        for attr, obj in list(vars(cls).items()):
            if attr in PLEXPR_OPS:
                wrap(cls, attr, f"plring.{PLEXPR_OPS[attr]}", obj)
            elif attr.startswith("_"):
                continue
            elif isinstance(obj, classmethod):
                name = f"{prefix}.{attr}"
                setattr(cls, attr, classmethod(tracer.wrap(name, obj.__func__, hooks.get(name))))
            elif inspect.isfunction(obj):
                wrap(cls, attr, f"{prefix}.{attr}", obj)


def _coeff_bits(memo) -> int:
    bits = 0
    for expr in memo.values():
        for a in expr.terms.values():
            bits = max(bits, int(a.numerator).bit_length(), int(a.denominator).bit_length())
    return bits


def _dp_cells(dp) -> int:
    """Table entries the RankDP filled, over all of its tables."""
    return sum(len(row) for tables in (dp._p, dp._e, dp._f, dp._g, dp._x) for row in tables.values())


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    modules = {layer: importlib.import_module(f"ranktree.{layer}") for layer in LAYERS}
    snapshot = modules["genfun"].cache_snapshot  # unwrapped, so reading the memo adds no span
    tracer = Tracer()
    _instrument(tracer, modules)
    memo_before = len(snapshot())
    code = modules["cli"].main(cli_args)
    sys.stdout.flush()
    memo = snapshot()
    counters = tracer.counters
    # memo misses: entries the run added, less those load_cache read from disk
    counters["genfun.gf_builds"] = len(memo) - memo_before - counters["cli.load_cache.entries"]
    counters["plring.max_coeff_bits"] = _coeff_bits(memo)
    counters["oracle.dp_cells"] = _dp_cells(modules["oracle"]._DEFAULT)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": counters}, fh)
    return code


# ---------------------------------------------------------------------------
# Aggregation, done by run.py

COUNTS = (
    "plring.mul.calls",
    "plring.mul.term_pairs",
    "plring.mul.terms_out",
    "plring.max_coeff_bits",
    "plring.series.coeffs",
    "cli.load_cache.entries",
    "cli.save_cache.entries",
    "genfun.gf_builds",
    "oracle.dp_cells",
    "montecarlo.vertices",
)
SELF_TIMES = (
    "plring.mul",
    "plring.antiderivative",
    "plring.integral01",
    "plring.add",
    "plring.series",
    "plring.from_records",
    "plring.to_records",
    "oracle.moment_gf_ratio",
    "montecarlo.build_tree",
    "montecarlo.rank_census",
    "montecarlo.subtree_sizes",
    "montecarlo.greedy_path_length",
    "montecarlo.estimate",
)
INCLUSIVE_TIMES = ("cli.load_cache", "cli.save_cache", "genfun.partial_sum", "genfun.rank_constant")


def span_times(spans: list[list]) -> tuple[dict, dict]:
    """Per span name: summed self time, and summed time of outermost calls."""
    duration = [end - start for _, start, end, _ in spans]
    self_time = list(duration)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= duration[i]
    self_by_name: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for i, (name, _, _, parent) in enumerate(spans):
        self_by_name[name] += self_time[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # not nested in a call of the same function
            inclusive[name] += duration[i]
    return self_by_name, inclusive


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (zero where a layer never ran)."""
    self_by_name, inclusive = span_times(doc["spans"])
    counters = doc["counters"]

    def layer_self(layer: str, exclude=()) -> float:
        return sum(
            t for name, t in self_by_name.items()
            if name.split(".", 1)[0] == layer and name not in exclude
        )

    m: dict[str, float] = {name: counters.get(name, 0) for name in COUNTS}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = self_by_name.get(name, 0.0)
    for name in INCLUSIVE_TIMES:
        m[f"{name}.s"] = inclusive.get(name, 0.0)
    m["plring.self_s"] = layer_self("plring")
    m["cli.self_s"] = layer_self("cli", exclude=("cli.load_cache", "cli.save_cache"))
    m["genfun.self_s"] = layer_self("genfun")
    m["genfun.gf_calls"] = sum(
        1 for name, *_ in doc["spans"] if name.startswith("genfun.") and name.endswith("_gf")
    )
    m["oracle.tables.self_s"] = layer_self("oracle", exclude=("oracle.moment_gf_ratio",))
    estimate_s = inclusive.get("montecarlo.estimate", 0.0)
    m["montecarlo.vertices_per_s"] = m["montecarlo.vertices"] / estimate_s if estimate_s else 0.0
    m["trace.spans_s"] = sum(end - start for _, start, end, parent in doc["spans"] if parent < 0)
    m["trace.spans"] = len(doc["spans"])
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
