#!/usr/bin/env python3
"""Compare the end-to-end metrics of two results files.

    python3 perfbench/compare.py BASE.json NEW.json

A results file is what run.py writes for one run or sweep.py for many:
``{"env": {...}, "runs": [...]}``.  For every end-to-end metric in
BENCHMARK.json this prints one row per workload with each side's median
and quartiles over its runs, the change of the medians, and a verdict
judged against the metric's bound:

* unresolved - either side's quartile spread (as a share of its median)
  exceeds the bound, unless every NEW run beats every BASE run (better);
* worse      - NEW's median is worse than BASE's by more than the bound;
* better     - NEW's median is better by more than BASE's own spread and
  NEW wins at least nine tenths of the (base, new) run pairs;
* unchanged  - otherwise.

Differences in Python, numpy, the Rational backend or the machine
between the two files are flagged first, since they void the comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what must match for two results files to be comparable
MACHINE_KEYS = ("python", "backend", "numpy", "nproc", "cpu_model")


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile), as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summarize(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    mb, mn = summarize(base)[0], summarize(new)[0]
    gain = sign * (mb - mn) / mb  # > 0: NEW is better
    pairs = [sign * (b - n) for b in base for n in new]
    if max(spread(base), spread(new)) > bound:
        return "better" if all(p > 0 for p in pairs) else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread(base) and sum(p > 0 for p in pairs) >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def load(path: Path) -> dict:
    doc = json.loads(path.read_text())
    return {"env": doc["env"], "runs": [r for r in doc["runs"] if r["trace"] == 0]}


def by_workload(doc: dict, metric: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for run in doc["runs"]:
        out.setdefault(run["workload"], []).append(run["metrics"][metric])
    return out


def error_rates(doc: dict) -> dict[str, str]:
    tally: dict[str, list[int]] = {}
    for run in doc["runs"]:
        t = tally.setdefault(run["workload"], [0, 0])
        t[0] += run["failed"]
        t[1] += run["attempted"]
    return {w: f"{f / a:g} ({f}/{a})" for w, (f, a) in tally.items()}


def compare(base: dict, new: dict, spec: dict) -> list[str]:
    lines = []
    for key in MACHINE_KEYS:
        if base["env"].get(key) != new["env"].get(key):
            lines.append(f"WARNING {key} differs: {base['env'].get(key)!r} vs {new['env'].get(key)!r}")
    for key in ("commit", "source_sha256"):
        lines.append(f"{key}: {base['env'].get(key)} -> {new['env'].get(key)}")
    base_err, new_err = error_rates(base), error_rates(new)
    for workload in sorted(base_err.keys() | new_err.keys()):
        lines.append(f"error_rate {workload}: {base_err.get(workload, '-')} -> {new_err.get(workload, '-')}")
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        lines.append("")
        lines.append(f"{name} ({metric['unit']}, {better} is better, bound {bound:.0%})")
        lines.append(f"  {'workload':16s} {'base median [q1, q3]':>30s} {'new median [q1, q3]':>30s} {'change':>8s}  verdict")
        b_runs, n_runs = by_workload(base, name), by_workload(new, name)
        for workload in sorted(b_runs.keys() & n_runs.keys()):
            b, n = b_runs[workload], n_runs[workload]
            mb, mn = summarize(b), summarize(n)
            cells = [f"{m[0]:.4g} [{m[1]:.4g}, {m[2]:.4g}] n={len(v)}" for m, v in ((mb, b), (mn, n))]
            change = (mn[0] - mb[0]) / mb[0]
            lines.append(
                f"  {workload:16s} {cells[0]:>30s} {cells[1]:>30s} {change:>+8.1%}  "
                f"{verdict(b, n, better, bound)}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(load(args.base), load(args.new), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
