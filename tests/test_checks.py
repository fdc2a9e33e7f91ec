"""The shared verification checks report a failure when a value they read is wrong."""

import pytest

from ranktree import checks, genfun, oracle
from ranktree.plring import PLExpr, Rational


def shift(delta):
    return lambda fn: lambda *args: fn(*args) + delta


def scale(factor):
    return lambda fn: lambda *args: fn(*args) * factor


def times_n(fn):
    return lambda n, *args: n * fn(n, *args)


# (check, its arguments, module, function the check reads, how to break it)
BROKEN = [
    (checks.constants_exact, (), genfun, "rank_constant", shift(Rational(1, 10**30))),
    (checks.constants_windows, (), genfun, "rank_constant", shift(Rational(1, 1000))),
    (checks.pair_constants_exact, (), genfun, "leaf_pair_constant", shift(1)),
    (checks.pair_constants_exact, (), genfun, "closest_leaf_constant", shift(1)),
    (checks.partial_sum_windows, (), genfun, "partial_sum", shift(Rational(-1, 100))),
    (checks.tail_bounds, (), genfun, "tail_moment", scale(10)),
    (checks.tail_bounds, (), genfun, "partial_sum", shift(-1)),
    (checks.cdf_series_vs_oracle, (3, 12), oracle, "root_rank_tail", shift(Rational(1, 10**9))),
    (checks.series_vs_oracle, (), oracle, "root_rank_tail", shift(Rational(1, 10**9))),
    (checks.series_vs_oracle, (), oracle, "expected_leaf_pairs_tail", shift(1)),
    (checks.series_vs_oracle, (), oracle, "expected_closest_pairs", shift(1)),
    # the prime 1009 in every denominator breaks the smoothness bound
    (checks.structure_and_factorizations, (), genfun, "rank_constant", scale(Rational(1, 1009))),
    (checks.alpha0_window, (), genfun, "alpha0", scale(2)),
    (checks.moment_ratio_stability, ("7/5",), oracle, "moment_gf_ratio", times_n),
]


@pytest.mark.parametrize(
    "check,args,module,attr,breaker",
    BROKEN,
    ids=[f"{check.__name__}-{attr}" for check, _, _, attr, _ in BROKEN],
)
def test_check_fails_on_a_wrong_value(monkeypatch, check, args, module, attr, breaker):
    assert check(*args)[1] is True
    monkeypatch.setattr(module, attr, breaker(getattr(module, attr)))
    assert check(*args)[1] is False


def test_approx_refuses_a_value_past_the_float_range():
    assert checks.approx(Rational(10) ** 300 / 7) == 1.42857142857e299
    with pytest.raises(ValueError, match="past the float range"):
        checks.approx(Rational(10) ** 400)


def test_moment_ratio_stability_takes_a_rho_past_the_float_range():
    # the ratios, about rho^(n-1), are compared exactly; only their spread
    # becomes a float
    name, ok, detail = checks.moment_ratio_stability("1e200")
    assert name == "moment-ratio-stability"
    assert ok is False
    assert detail == "rho=1e200, spread 100.0% over n in 100..400"


def test_ode_residuals_fails_on_a_perturbed_memo_entry(fresh_memo):
    wrong = genfun.root_rank_gf(1) + PLExpr.term(1, 5, 0)
    fresh_memo()
    genfun.cache_insert("root_rank", 1, wrong)
    assert checks.ode_residuals()[1] is False


@pytest.mark.parametrize("kind, k", [("closest_leaf", 4), ("leaf_pair_tail", 3)])
def test_series_vs_oracle_sees_a_changed_constant_term(monkeypatch, kind, k):
    # the numerator of x^0 one off, as in a corrupted cache entry: d/dx
    # kills constants, so only coefficient 0 of the series can see it
    genfun.gf_by_kind(kind, 5)  # the entries above k are built from the right one
    expr = genfun.gf_by_kind(kind, k)
    wrong = expr + PLExpr.term(Rational(1, expr.denominator))
    assert wrong.series(order=30)[1:] == expr.series(order=30)[1:]
    cache = genfun.cache_snapshot()
    cache[(kind, k)] = wrong
    monkeypatch.setattr(genfun, "_CACHE", cache)
    assert checks.series_vs_oracle()[1] is False


@pytest.mark.parametrize(
    "check,args",
    [
        (checks.simulation_rank_fractions, (50, 1, 0)),
        (checks.simulation_root_rank, (1, 0)),
        (checks.simulation_greedy_walk, (1, 0)),
    ],
)
def test_simulation_checks_refuse_fewer_than_two_trials(check, args):
    # a one-trial summary has no standard error to set the window
    with pytest.raises(ValueError, match="trials >= 2"):
        check(*args)
