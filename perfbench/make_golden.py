#!/usr/bin/env python3
"""Regenerate the benchmark's golden outputs and stored oracle values.

    python3 perfbench/make_golden.py            # both sizes, about a minute
    python3 perfbench/make_golden.py --size small

Run this only when a change is meant to alter stdout; the golden files pin
the current bytes.  The constants command is run cold and then warm
against the cache the cold run wrote, and the two outputs must be
byte-identical before one golden file is written for both workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import GOLDEN_DIR, SIZES, WORKLOADS, golden_path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cli_stdout(argv: list[str]) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "ranktree.cli", *argv]
    return subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True).stdout


def write_constants(size: str) -> None:
    cold, warm = WORKLOADS["constants-cold"], WORKLOADS["constants-warm"]
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        cache = Path(tmp) / "cache"
        first = cli_stdout(cold.argv(size, 0, cache))
        second = cli_stdout(warm.argv(size, 0, cache))
    if first != second:
        sys.exit("cold and warm constants runs differ; refusing to write a golden file")
    golden_path("constants", size, ".out").write_bytes(first)


def write_oracle(size: str) -> None:
    out = cli_stdout(WORKLOADS["oracle-n400"].argv(size, 0, None))
    golden_path("oracle", size, ".out").write_bytes(out)


def write_simulate_exact(size: str) -> None:
    sys.path.insert(0, str(SRC))
    from ranktree import oracle

    args = WORKLOADS["simulate-n1000"].args[size]
    n, trials = int(args[args.index("--n") + 1]), int(args[args.index("--trials") + 1])
    kmax = 5  # the simulate subcommand's default
    counts = oracle.expected_rank_counts(n, kmax)
    values = {"leaf_fraction": float(counts[0] / n)}
    for k in range(kmax + 1):
        values[f"rank_fraction/{k}"] = float(counts[k] / n)
        values[f"root_rank_freq/{k}"] = float(oracle.root_rank_prob(n, k))
    blob = {"n": n, "trials": trials, "kmax": kmax, "values": values}
    text = json.dumps(blob, sort_keys=True, indent=2) + "\n"
    golden_path("simulate", size, ".exact.json").write_text(text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=SIZES, action="append")
    sizes = parser.parse_args().size or list(SIZES)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for size in sizes:
        write_constants(size)
        write_oracle(size)
        write_simulate_exact(size)
        print(f"wrote golden files for size {size}")


if __name__ == "__main__":
    main()
