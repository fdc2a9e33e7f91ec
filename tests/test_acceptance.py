"""Acceptance suite: one pass/fail line per check (run with -s to see them).

The checks that ``ranktree verify`` also runs come from ranktree.checks;
each test adds only the assertions verify does not make.

Criterion 1 is split: the printed approximation for the k = 3 constant in
the source table is inconsistent with its own exactly-stated denominator
factorization and with the surrounding data, so the +-0.001 window around
0.105 is recorded as a strict expected failure, and a companion test pins
the independently cross-validated exact value (~0.10915) instead.  See
the decisions ledger for the full evidence.
"""

import json
from pathlib import Path

import pytest

from exact_values import C3_DEN_FACTORS, C5_DEN_FACTORS, C_EXACT, F_OVER_C, G_OVER_C
from ranktree import checks, cli, conjecture, genfun, montecarlo, oracle
from ranktree.plring import PLExpr

GOLDEN = Path(__file__).parent / "golden"


def report(tag: str, *results: checks.Check) -> None:
    """Print one line per (name, ok, detail) result, then require them all."""
    for name, ok, detail in results:
        print(f"ACCEPTANCE {tag} {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    failed = [name for name, ok, _ in results if not ok]
    assert not failed, f"criterion {tag} failed: {failed}"


def test_criterion_1_exact_constants():
    c5_factors = conjecture.check_conjectures(5, genfun.rank_constant(5)).denominator.factors
    report(
        "1",
        checks.constants_exact(),
        checks.constants_windows(),
        ("c4-exact", genfun.rank_constant(4) == C_EXACT[4], "c_4 equals the frozen value"),
        ("c5-factorization", c5_factors == C5_DEN_FACTORS, "denominator of c_5"),
    )


@pytest.mark.xfail(
    strict=True,
    reason="the printed approximation 0.105 for k = 3 contradicts the"
    " exactly-stated denominator factorization, the partial sum S_3 ~ 0.955,"
    " the k = 4 printed fraction, and the finite-n oracle limit ~ 0.1091;"
    " the engine's exact value is 0.109153...",
)
def test_criterion_1_c3_printed_window():
    c3 = float(genfun.rank_constant(3))
    report("1", ("c3-window", abs(c3 - 0.105) <= 1e-3, f"c_3 ~ {c3:.6f}"))


def test_criterion_1_c3_corrected_value():
    c3 = genfun.rank_constant(3)
    factors = conjecture.check_conjectures(3, c3).denominator.factors
    # the finite-n oracle converges to the same limit from above
    finite = float(oracle.expected_rank_counts(300, 3)[3]) / 300
    ok = (
        c3 == C_EXACT[3]
        and factors == C3_DEN_FACTORS
        and abs(float(c3) - 0.109153) < 1e-5
        and abs(finite - float(c3)) < 2e-3
    )
    report(
        "1",
        ("c3-corrected", ok, f"c_3 = {c3} ~ {float(c3):.6f}, E_300/300 ~ {finite:.6f}"),
    )


def test_criterion_2_pair_constants():
    report("2", checks.pair_constants_exact())


def test_criterion_3_partial_sums():
    report("3", checks.partial_sum_windows())


def test_criterion_4_tail_bounds():
    dual = all(
        genfun.tail_moment(k, t)
        == (PLExpr.term(1, t, 0) * genfun.greedy_tail_gf(k)).integral01()
        for k in range(7)
        for t in range(1, 5)
    )
    report(
        "4",
        checks.tail_bounds(),
        ("tail-moment-dual-routes", dual, "recurrence equals the integral for k <= 6, t <= 4"),
    )


def test_criterion_5_coefficient_equivalence():
    report("5", checks.series_vs_oracle())


def test_criterion_6_symbolic_residuals():
    report("6", checks.ode_residuals())


def test_criterion_7_structure_and_conjectures():
    report("7", checks.structure_and_factorizations())


def test_criterion_8_monte_carlo_vs_oracle():
    trials = 2000
    report(
        "8",
        checks.simulation_rank_fractions(1000, trials, seed=0),
        checks.simulation_root_rank(trials, seed=1),
        checks.simulation_greedy_walk(trials, seed=2),
    )


def test_criterion_9_asymptotic_behavior():
    # pairwise factorization of rank counts at n = 10^4
    n, trials = 10**4, 300
    rep = montecarlo.estimate(n, trials, seed=5, kmax=2)
    pairs_ok = True
    for k1 in range(3):
        for k2 in range(3):
            stat = rep[f"pair_joint/{k1},{k2}"]
            product = float(genfun.rank_constant(k1) * genfun.rank_constant(k2))
            pairs_ok = pairs_ok and abs(stat.mean - product) <= 4 * stat.stderr

    # per-vertex descendant-leaf ratios at n = 10^5
    big = montecarlo.estimate(10**5, 8, seed=6, kmax=2)
    ratios_ok = all(
        abs(big[f"{stat}/{k}"].mean - float(exact[k])) <= 0.05 * float(exact[k])
        for stat, exact in (("leaf_ratio", F_OVER_C), ("closest_ratio", G_OVER_C))
        for k in range(3)
    )

    report(
        "9",
        checks.moment_ratio_stability("7/5"),
        ("pair-factorization", pairs_ok, f"n={n}, trials={trials}"),
        ("per-vertex-ratios", ratios_ok, "n=100000, 8 trials"),
        checks.alpha0_window(),
    )


def test_criterion_10_verify_determinism(capsys):
    argv = ["verify", "--n", "150", "--trials", "200", "--seed", "3"]
    code_a = cli.main(list(argv))
    out_a = capsys.readouterr().out
    code_b = cli.main(list(argv))
    out_b = capsys.readouterr().out
    golden = (GOLDEN / "verify-n150.out").read_text()
    payload = json.loads(out_a[out_a.index("{") :])
    ok = code_a == 0 and code_b == 0 and out_a == out_b == golden and payload["pass"] is True
    report("10", ("verify-determinism", ok, "verify twice is byte-identical to the golden output"))
