#!/usr/bin/env python3
"""Run the benchmark on several seeds and collect one results file.

    python3 perfbench/sweep.py --runs 10 --out perfbench/out/base.json
    python3 perfbench/sweep.py --runs 5 --workload oracle-n400 --out perfbench/out/t.json

Runs ``run.py`` once per (seed, workload), seeds ``--first-seed`` onward,
cycling through the workloads within each seed so that a drift of the
machine spreads over all of them.  It writes every run into one results
file for compare.py and prints, per workload and end-to-end metric, the
median, quartiles and spread (quartile distance over median) against the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from compare import MACHINE_KEYS, spread, summarize
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        out = Path(tmp) / "results.json"
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--out", str(out),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd[1:])} failed:\n{proc.stderr}")
        return json.loads(out.read_text())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    (BENCH / "out").mkdir(exist_ok=True)
    env, runs = None, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            doc = run_once(workload, seed, args.seconds)
            if env is None:
                env = doc["env"]
            elif any(doc["env"].get(k) != env.get(k) for k in MACHINE_KEYS):
                print(f"WARNING: environment changed during the sweep: {doc['env']}")
            run = doc["runs"][0]
            runs.append(run)
            print(f"seed {seed} {workload}: failed {run['failed']}/{run['attempted']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in sorted(run["metrics"].items())), flush=True)
    args.out.write_text(json.dumps({"env": env, "runs": runs}, indent=1) + "\n")

    print(f"\n{'workload':16s} {'metric':12s} {'unit':5s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs if r["workload"] == workload]
            med, q1, q3 = summarize(values)
            s, bound = spread(values), metric["bound"]
            flag = "" if s < bound / 3 else (" > bound/3" if s <= bound else " > BOUND")
            print(f"{workload:16s} {metric['name']:12s} {metric['unit']:5s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{s:8.2%} {bound:6.0%}{flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"\n{len(runs)} runs, {failed} failed invocations; results in {args.out}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
