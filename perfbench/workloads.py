"""The benchmark's workloads and the output check each invocation must pass.

Every workload is one real ``ranktree`` CLI command.  Two sizes exist:
``full`` is what the benchmark measures, ``small`` is the same command at
a size that runs in about a second, for the benchmark's own tests.

Output checks:

* the exact workloads compare stdout byte for byte against a golden file
  in ``golden/``; the cold and warm constants workloads share one golden
  file, so a cache that changes a single digit is caught;
* ``simulate-n1000`` compares every ``rank_fraction/k``, ``leaf_fraction``
  and ``root_rank_freq/k`` against exact oracle values stored in
  ``golden/`` (never computed during a run), with a 4-standard-error
  window.

Regenerate the golden files with ``python3 perfbench/make_golden.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SIZES = ("full", "small")
SIGMAS = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    args: dict[str, tuple[str, ...]]  # size -> CLI arguments; "{seed}" is filled in
    golden: str | None = None  # stem of the golden stdout file
    exact: str | None = None  # stem of the stored oracle values (simulate)
    cache: str | None = None  # "cold": empty --cache-dir per invocation; "warm": filled in set-up

    def argv(self, size: str, seed: int, cache_dir: Path | None) -> list[str]:
        argv = [a.replace("{seed}", str(seed)) for a in self.args[size]]
        if self.cache is not None:
            argv += ["--cache-dir", str(cache_dir)]
        return argv


_CONSTANTS = {"full": ("constants", "--kmax", "6"), "small": ("constants", "--kmax", "3")}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("constants-cold", _CONSTANTS, golden="constants", cache="cold"),
        Workload("constants-warm", _CONSTANTS, golden="constants", cache="warm"),
        Workload(
            "oracle-n400",
            {
                "full": ("oracle", "--n", "400", "--kmax", "5", "--rho", "7/5", "--series-order", "50"),
                "small": ("oracle", "--n", "40", "--kmax", "3", "--rho", "7/5", "--series-order", "12"),
            },
            golden="oracle",
        ),
        Workload(
            "simulate-n1000",
            {
                "full": ("simulate", "--n", "1000", "--trials", "2000", "--seed", "{seed}"),
                "small": ("simulate", "--n", "100", "--trials", "200", "--seed", "{seed}"),
            },
            exact="simulate",
        ),
    )
}


def golden_path(stem: str, size: str, suffix: str) -> Path:
    return GOLDEN_DIR / f"{stem}-{size}{suffix}"


def check_output(workload: Workload, size: str, stdout: bytes) -> str | None:
    """None if the invocation's stdout is correct, else the reason it is not."""
    if workload.golden is not None:
        expected = golden_path(workload.golden, size, ".out").read_bytes()
        if stdout != expected:
            return f"stdout differs from golden/{workload.golden}-{size}.out"
        return None
    exact = json.loads(golden_path(workload.exact, size, ".exact.json").read_text())
    return check_simulation(stdout, exact)


def check_simulation(stdout: bytes, exact: dict) -> str | None:
    """Every stored statistic must lie within SIGMAS standard errors of its exact value.

    A root-rank frequency is the mean of Bernoulli trials, so its standard
    error is sqrt(p (1 - p) / trials) with p the exact value; the sample
    estimate would be zero whenever a rare rank happens not to occur.  The
    vertex fractions use the reported sample standard error.
    """
    try:
        report = json.loads(stdout)
        stats = report["statistics"]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a simulate report"
    if report.get("n") != exact["n"] or report.get("trials") != exact["trials"]:
        return "report has the wrong n or trials"
    for name, value in sorted(exact["values"].items()):
        if name not in stats:
            return f"{name} missing from the report"
        mean = stats[name]["mean"]
        if name.startswith("root_rank_freq/"):
            stderr = math.sqrt(value * (1 - value) / exact["trials"])
        else:
            stderr = stats[name]["stderr"]
        slack = SIGMAS * stderr if stderr > 0 else 1e-12
        if not abs(mean - value) <= slack:
            return f"{name}: mean {mean} is outside {value} +- {SIGMAS:g} x {stderr}"
    return None
