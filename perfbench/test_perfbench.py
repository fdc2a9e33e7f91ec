"""Tests of the benchmark itself: python3 -m pytest perfbench

Each workload runs once at its small size, traced and untraced, and the
output checks are shown to fail on a corrupted golden file and on a
simulated mean moved outside its window.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(capsys, tmp_path, workload, trace=0):
    code = run.main([
        "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace),
        "--size", "small", "--out", str(tmp_path / "results.json"),
    ])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_check(capsys, tmp_path, workload):
    result = bench(capsys, tmp_path, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    saved = json.loads((tmp_path / "results.json").read_text())
    assert {"python", "backend", "numpy", "nproc", "cpu_model", "commit"} <= set(saved["env"])


# the layer each workload must show in its traced run, and one it must bypass
LAYER_SIGNS = {
    "constants-cold": ("cli.save_cache.entries", "montecarlo.vertices"),
    "constants-warm": ("cli.load_cache.entries", "genfun.gf_builds"),
    "oracle-n400": ("oracle.dp_cells", "cli.save_cache.entries"),
    "simulate-n1000": ("montecarlo.vertices", "plring.mul.calls"),
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(capsys, tmp_path, workload):
    result = bench(capsys, tmp_path, workload, trace=1)
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    used, bypassed = LAYER_SIGNS[workload]
    assert metrics[used] > 0
    assert metrics[bypassed] == 0
    assert metrics["trace.wall_s"] > 0 and "trace.overhead_s" in metrics


def test_simulation_counts_every_vertex(capsys, tmp_path):
    result = bench(capsys, tmp_path, "simulate-n1000", trace=1)
    assert result["metrics"]["montecarlo.vertices"]["value"] == 100 * 200


def test_traced_time_outside_the_spans_fails_the_run(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MAX_UNCOVERED_S", 0.0)  # interpreter start alone is more
    result = bench(capsys, tmp_path, "oracle-n400", trace=1)
    assert result["attempted"] == 2 and result["failed"] == 1


def _corrupt_golden(tmp_path, monkeypatch, name):
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN_DIR, golden)
    path = golden / name
    text = path.read_text()
    i = next(i for i, ch in enumerate(text) if ch in "123456789")
    path.write_text(text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:])
    monkeypatch.setattr(workloads, "GOLDEN_DIR", golden)


@pytest.mark.parametrize(
    "workload, golden",
    [
        ("constants-cold", "constants-small.out"),
        ("constants-warm", "constants-small.out"),
        ("oracle-n400", "oracle-small.out"),
    ],
)
def test_corrupted_golden_fails_every_invocation(capsys, tmp_path, monkeypatch, workload, golden):
    _corrupt_golden(tmp_path, monkeypatch, golden)
    result = bench(capsys, tmp_path, workload)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.fixture(scope="module")
def simulate_small():
    args = workloads.WORKLOADS["simulate-n1000"].argv("small", 7, None)
    cmd = [sys.executable, "-m", "ranktree.cli", *args]
    out = subprocess.run(cmd, env=run.child_env(), check=True, capture_output=True).stdout
    exact = json.loads(workloads.golden_path("simulate", "small", ".exact.json").read_text())
    return json.loads(out), exact


def _moved(report, name, shift):
    moved = json.loads(json.dumps(report))
    moved["statistics"][name]["mean"] += shift
    return json.dumps(moved).encode()


def test_simulation_check_passes_real_output(simulate_small):
    report, exact = simulate_small
    assert workloads.check_simulation(json.dumps(report).encode(), exact) is None


@pytest.mark.parametrize("name", ["rank_fraction/2", "leaf_fraction"])
def test_simulation_check_window_on_fractions(simulate_small, name):
    report, exact = simulate_small
    stat = report["statistics"][name]
    offset = exact["values"][name] - stat["mean"]  # move the mean onto the exact value first
    inside = _moved(report, name, offset + 3.9 * stat["stderr"])
    outside = _moved(report, name, offset + 4.1 * stat["stderr"])
    assert workloads.check_simulation(inside, exact) is None
    assert name in workloads.check_simulation(outside, exact)


def test_simulation_check_window_on_root_rank_frequency(simulate_small):
    report, exact = simulate_small
    name = "root_rank_freq/3"
    p = exact["values"][name]
    se = math.sqrt(p * (1 - p) / exact["trials"])
    offset = p - report["statistics"][name]["mean"]
    assert workloads.check_simulation(_moved(report, name, offset - 3.9 * se), exact) is None
    assert name in workloads.check_simulation(_moved(report, name, offset - 4.1 * se), exact)


def test_simulation_check_rejects_an_impossible_rank(simulate_small):
    report, exact = simulate_small
    assert exact["values"]["root_rank_freq/0"] == 0
    assert "root_rank_freq/0" in workloads.check_simulation(
        _moved(report, "root_rank_freq/0", 1 / exact["trials"]), exact
    )


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-n400", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_span_self_and_inclusive_times():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["a", 2.0, 3.0, 1],  # a nested inside itself: counted once inclusively
        ["c", 5.0, 9.0, 0],
    ]
    self_time, inclusive = tracing.span_times(spans)
    assert self_time == {"a": 3.0 + 1.0, "b": 2.0, "c": 4.0}
    assert inclusive == {"a": 10.0, "b": 3.0, "c": 4.0}
    assert sum(self_time.values()) == 10.0


@pytest.mark.parametrize(
    "new, expected",
    [
        ([10.1, 9.9, 10.0, 10.2, 9.8], "unchanged"),
        ([12.1, 11.9, 12.0, 12.2, 11.8], "worse"),
        ([8.1, 7.9, 8.0, 8.2, 7.8], "better"),
        ([5.0, 15.0, 10.0, 6.0, 14.0], "unresolved"),
    ],
)
def test_compare_verdicts(new, expected):
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(base, new, "lower", 0.1) == expected
