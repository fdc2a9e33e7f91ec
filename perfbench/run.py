#!/usr/bin/env python3
"""Time real ranktree CLI invocations on one workload: the benchmark's entry point.

    python3 perfbench/run.py --workload constants-cold --seed 0 --seconds 12 --trace 0

Run it from a source checkout; the CLI runs from ``src/`` and nothing is
installed.  Every invocation is a fresh child process.  This process
starts one child at a time, waits for it, and runs no threads, so nothing
contends with the child on a two-core machine.  Invocations repeat until
``--seconds`` have passed (at least one runs) and timings are medians.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``wall_s``      wall time of one invocation, from spawn to exit;
* ``cpu_s``       user + system time of the child;
* ``setup_s``     the import of ``ranktree.cli`` in a fresh interpreter, timed
                  by the child itself; the median over separate child
                  processes, half of them run before the invocations and
                  half after;
* ``peak_rss_mb`` peak resident memory of the child.

``--trace 1`` alternates untraced and traced invocations (see tracing.py)
and reports the per-layer metrics of the traced ones, with the tracing
overhead: median traced wall time minus median untraced wall time.  A
traced invocation fails if more than MAX_UNCOVERED_S of its wall time lies
outside both ``setup_s`` and its root span, so spans that miss work show.

Each invocation's exit code and stdout are checked (workloads.py).  Failed
invocations over attempted ones is the error rate.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A results file holding the environment and every sample goes to
``perfbench/out/`` (or ``--out``); compare.py reads it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import layer_metrics
from workloads import SIZES, WORKLOADS, Workload, check_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup probes before and again after the invocations: on a shared machine
# the median then spans the run instead of one moment of it
SETUP_REPEATS = 5
# timed inside the child, so neither the spawn nor the interpreter's start-up is in it
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import ranktree.cli; print(time.perf_counter() - t)"
)
# traced wall time allowed outside setup_s and the root span: interpreter
# start, instrumenting, writing the spans and exit
MAX_UNCOVERED_S = 0.5
ENV_PROBE = (
    "import json, numpy, ranktree.cli\n"
    "from ranktree.plring import Rational\n"
    "print(json.dumps({'backend': f'{Rational.__module__}.{Rational.__qualname__}',"
    " 'numpy': numpy.__version__}))"
)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    error: str | None
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    # only this checkout's sources, whatever else is installed
    return dict(os.environ, PYTHONPATH=str(SRC))


def invoke(
    workload: Workload, size: str, seed: int, workdir: Path, index: int, traced: bool, cache: Path
) -> Sample:
    if workload.cache == "cold":
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir()
    argv = workload.argv(size, seed, cache)
    spans = workdir / f"spans-{index}.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), *argv]
    else:
        cmd = [sys.executable, "-m", "ranktree.cli", *argv]
    out, err = workdir / f"{index}.out", workdir / f"{index}.err"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out.read_bytes()
    if code != 0:
        lines = err.read_text(errors="replace").strip().splitlines() or [""]
        error = f"exit code {code}: {lines[-1]}"
    else:
        error = check_output(workload, size, stdout)
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stdout, error)
    if traced and code == 0:
        sample.layers = layer_metrics(json.loads(spans.read_text()))
    return sample


def warm_cache(workload: Workload, size: str, seed: int, workdir: Path) -> tuple[Path, list[Sample]]:
    """The filled cache for warm invocations, and the filling invocation if this run made it.

    Filling is untimed set-up whose result depends only on the sources, so
    one fill serves every later run in this checkout.  A fill whose output
    fails its check is counted as failed and used for this run only.
    """
    kept = OUT / f"warm-cache-{size}-{_source_digest()}"
    if kept.is_dir():
        return kept, []
    cache = workdir / "cache"
    fill = invoke(workload, size, seed, workdir, 0, False, cache)
    if fill.error is not None:
        return cache, [fill]
    try:
        cache.rename(kept)
    except OSError:  # a concurrent run kept its fill first
        return cache, [fill]
    return kept, [fill]


def setup_sample() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported checkout
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ranktree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    """Machine and software facts for the results file.

    The probe child also byte-compiles the package, so the timed children
    that follow do not pay for it.
    """
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    return {
        "python": platform.python_version(),
        **json.loads(probe.stdout),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def measure(workload: Workload, size: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    env = environment()
    setup = [setup_sample() for _ in range(SETUP_REPEATS)]
    cache, fill = workdir / "cache", []
    if workload.cache == "warm":
        cache, fill = warm_cache(workload, size, seed, workdir)
    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        plain.append(invoke(workload, size, seed, workdir, len(plain) + len(traced) + 1, False, cache))
        if trace:
            traced.append(invoke(workload, size, seed, workdir, len(plain) + len(traced) + 1, True, cache))
    samples = fill + plain + traced
    for s in samples[1:]:  # one seed, one output: the simulator is reproducible
        if s.error is None and s.stdout != samples[0].stdout:
            s.error = "stdout differs from the first invocation with the same seed"
    setup += [setup_sample() for _ in range(SETUP_REPEATS)]

    median = statistics.median
    for s in traced:
        if s.layers:
            uncovered = s.wall_s - median(setup) - s.layers["trace.spans_s"]
            s.layers["trace.uncovered_s"] = uncovered
            if s.error is None and uncovered > MAX_UNCOVERED_S:
                s.error = f"{uncovered:.3f} s of the traced wall time lies outside set-up and spans"
    if trace:
        names = set().union(*(s.layers for s in traced))
        metrics = {name: median([s.layers.get(name, 0.0) for s in traced]) for name in names}
        metrics["trace.wall_s"] = median([s.wall_s for s in traced])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median([s.wall_s for s in plain])
    else:
        metrics = {
            "wall_s": median([s.wall_s for s in plain]),
            "cpu_s": median([s.cpu_s for s in plain]),
            "setup_s": median(setup),
            "peak_rss_mb": median([s.peak_rss_mb for s in plain]),
        }
    failures = [s.error for s in samples if s.error is not None]
    return {
        "env": env,
        "run": {
            "workload": workload.name,
            "size": size,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "attempted": len(samples),
            "failed": len(failures),
            "error_rate": len(failures) / len(samples),
            "failures": failures,
            "metrics": metrics,
            "samples": {
                "setup_s": setup,
                "wall_s": [s.wall_s for s in plain],
                "cpu_s": [s.cpu_s for s in plain],
                "peak_rss_mb": [s.peak_rss_mb for s in plain],
                "traced_wall_s": [s.wall_s for s in traced],
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="small: the tests' reduced size")
    parser.add_argument("--out", type=Path, default=None, help="results file (default: perfbench/out/)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ranktree" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a ranktree source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    try:
        result = measure(workload, args.size, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run = result["run"]
    out = args.out or OUT / f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": result["env"], "runs": [run]}, indent=1) + "\n")

    missing = sorted(set(units) - set(run["metrics"]))
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics the run did not produce: {missing}")
    metrics = {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()}
    samples = len(run["samples"]["wall_s"])
    print(
        f"{workload.name} seed={args.seed} size={args.size} trace={args.trace}: "
        f"{run['attempted']} invocations, error_rate {run['error_rate']:g} "
        f"({run['failed']}/{run['attempted']}), wall_s median of {samples}"
    )
    for reason in run["failures"]:
        print(f"  FAILED: {reason}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  results file: {out}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
