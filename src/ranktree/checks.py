"""Verification criteria, each defined once as a function returning (name, ok, detail).

Run by ``ranktree verify`` (verify_checks), ``ranktree oracle
--series-order`` (cdf_series_vs_oracle) and the acceptance tests.  Monte
Carlo checks accept a sample mean within 4 standard errors of the exact
value.  The details use the CLI's text forms of numbers (approx, flat_rat).
"""

from __future__ import annotations

from fractions import Fraction

from . import conjecture, genfun, montecarlo, oracle
from .plring import Rational

__all__ = [
    "Check",
    "ODE_RESIDUAL_RANGES",
    "approx",
    "flat_rat",
    "parse_rational",
    "constants_exact",
    "constants_windows",
    "pair_constants_exact",
    "partial_sum_windows",
    "tail_bounds",
    "ode_residuals",
    "cdf_series_vs_oracle",
    "series_vs_oracle",
    "structure_and_factorizations",
    "alpha0_window",
    "moment_ratio_stability",
    "simulation_rank_fractions",
    "simulation_root_rank",
    "simulation_greedy_walk",
    "verify_checks",
]

Check = tuple[str, bool, str]

# the k over which each family's defining equation is checked
ODE_RESIDUAL_RANGES = {
    "root_rank": range(0, 6),
    "root_rank_cdf": range(0, 6),
    "leaf_pair_tail": range(0, 4),
    "closest_leaf": range(1, 4),
    "greedy_tail": range(0, 7),
}


def approx(x) -> float:
    """x as a float rounded to 12 significant digits; ValueError past the float range."""
    try:
        return float(f"{float(x):.12g}")
    except OverflowError:  # only an exact value can be past it
        bits = int(x.numerator).bit_length() - int(x.denominator).bit_length()
        raise ValueError(f"a value near 2^{bits} is past the float range") from None


def flat_rat(x: Rational) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Rational:
    frac = Fraction(text)
    return Rational(frac.numerator) / frac.denominator


# ---------------------------------------------------------------------------
# Exact values


_C_EXACT = [Rational(1) / 3, Rational(3) / 10, Rational(1721) / 8100]


def constants_exact() -> Check:
    """c_0..c_2 against their values by hand; rank_constant checks a second route."""
    c = [genfun.rank_constant(k) for k in range(3)]
    return "constants-exact", c == _C_EXACT, f"c_0..c_2 = {[flat_rat(x) for x in c]}"


def constants_windows() -> Check:
    c4, c5 = genfun.rank_constant(4), genfun.rank_constant(5)
    ok = abs(float(c4) - 0.0364) <= 5e-4 and abs(float(c5) - 0.0074) <= 5e-4
    return "constants-windows", ok, f"c_4 ~ {approx(c4)}, c_5 ~ {approx(c5)}"


def pair_constants_exact() -> Check:
    """f_k, g_k and the per-vertex ratios f_k/c_k, g_k/c_k for k <= 2."""
    f = [genfun.leaf_pair_constant(k) for k in range(3)]
    g = [genfun.closest_leaf_constant(k) for k in range(3)]
    ratios = [genfun.per_vertex_ratios(k) for k in range(3)]
    f_exp = [Rational(1) / 3, Rational(17) / 30, Rational(152389) / 170100]
    g_exp = [Rational(1) / 3, Rational(1) / 3, Rational(49) / 180]
    r_exp = [(fk / ck, gk / ck) for fk, gk, ck in zip(f_exp, g_exp, _C_EXACT)]
    ok = f == f_exp and g == g_exp and ratios == r_exp
    return (
        "pair-constants-exact",
        ok,
        f"f = {[flat_rat(x) for x in f]}, g = {[flat_rat(x) for x in g]}",
    )


def partial_sum_windows() -> Check:
    s = [float(genfun.partial_sum(k)) for k in range(3, 6)]
    ok = 0.954 < s[0] < 0.956 and 0.9913 < s[1] < 0.9915 and 0.9987 < s[2] < 0.9988
    return "partial-sum-windows", ok, f"S_3..S_5 ~ {[approx(x) for x in s]}"


def tail_bounds() -> Check:
    """I_{0,1}/3^k <= I_{k,1} <= half the tail envelope, and 1 - S_k <= 2 I_{k,1}."""
    i01 = genfun.tail_moment(0, 1)
    ok = all(
        i01 / Rational(3) ** k <= genfun.tail_moment(k, 1) <= genfun.tail_envelope(k) / 2
        for k in range(11)
    ) and all(1 - genfun.partial_sum(k) <= 2 * genfun.tail_moment(k, 1) for k in range(6))
    return "tail-bounds", ok, "moment bounds hold for k <= 10, tails for k <= 5"


def ode_residuals() -> Check:
    ok = all(
        genfun.ode_residual(kind, k).is_zero()
        for kind, ks in ODE_RESIDUAL_RANGES.items()
        for k in ks
    )
    return "ode-residuals", ok, "all five defining equations have zero residual"


def _series_agree(gf, dp, ks: range, order: int) -> bool:
    """Coefficients 0..order of gf(k) equal the exact DP values dp(n, k), k in ks."""
    for k in ks:
        coeffs = gf(k).series(order)
        # largest n first: the DP's tables then grow once, not once per n
        if any(coeffs[n] != dp(n, k) for n in range(order, -1, -1)):
            return False
    return True


def cdf_series_vs_oracle(kmax: int, order: int) -> Check:
    def cdf_by_dp(n: int, k: int) -> Rational:
        return 1 - oracle.root_rank_tail(n, k)

    ok = _series_agree(genfun.root_rank_cdf_gf, cdf_by_dp, range(kmax + 1), order)
    return "cdf-series-vs-oracle", ok, f"k <= {kmax}, coefficients 0..{order}"


# (levels k, order) of the pair families' series checks
_PAIR_SERIES_ORDERS = ((range(4), 25), (range(4, 5), 80), (range(5, 6), 160))


def series_vs_oracle() -> Check:
    ok = cdf_series_vs_oracle(5, 50)[1] and all(
        _series_agree(gf, dp, ks, order)
        for gf, dp in (
            (genfun.leaf_pair_tail_gf, oracle.expected_leaf_pairs_tail),
            (genfun.closest_leaf_gf, oracle.expected_closest_pairs),
        )
        for ks, order in _PAIR_SERIES_ORDERS
    )
    return "series-vs-oracle", ok, "coefficients match the exact DP tables"


def _structure_ok(k: int) -> bool:
    verdict = conjecture.check_conjectures(k, genfun.rank_constant(k))
    return conjecture.factor_pass(verdict, conjecture.check_pl_structure(k))


def structure_and_factorizations() -> Check:
    """Denominator smoothness for k <= 5, gap-freeness for 2 <= k <= 5, B_k structure."""
    return "structure-and-factorizations", all(_structure_ok(k) for k in range(6)), "k <= 5"


def alpha0_window() -> Check:
    a0 = genfun.alpha0()
    return "alpha0-window", 0.3725 < a0 < 0.3735, f"alpha0 ~ {approx(a0)}"


def moment_ratio_stability(rho: str) -> Check:
    value = parse_rational(rho)
    ratios = [oracle.moment_gf_ratio(n, value) for n in (100, 200, 400)]
    # the ratios grow like rho^(n-1), past the float range for a large rho;
    # their relative spread is at most 1
    spread = float((max(ratios) - min(ratios)) / max(ratios))
    return (
        "moment-ratio-stability",
        spread < 0.05,
        f"rho={rho}, spread {approx(spread * 100)}% over n in 100..400",
    )


# ---------------------------------------------------------------------------
# Seeded simulation against exact values


def _within(stat, exact) -> bool:
    slack = 4 * stat.stderr if stat.stderr > 0 else 1e-12
    return abs(stat.mean - float(exact)) <= slack


def _estimate(n: int, trials: int, seed: int, kmax: int) -> montecarlo.EstimateReport:
    # each window is a multiple of the standard error, which needs two trials
    if trials < 2:
        raise ValueError("the simulation checks need trials >= 2")
    return montecarlo.estimate(n, trials, seed, kmax)


def simulation_rank_fractions(n: int, trials: int, seed: int) -> Check:
    rep = _estimate(n, trials, seed, kmax=3)
    counts = oracle.expected_rank_counts(n, 3)
    ok = all(_within(rep[f"rank_fraction/{k}"], counts[k] / n) for k in range(4))
    ok = ok and _within(rep["leaf_fraction"], counts[0] / n)
    return "simulation-rank-fractions", ok, f"n={n}, trials={trials}"


def simulation_root_rank(trials: int, seed: int) -> Check:
    rep = _estimate(200, trials, seed, kmax=3)
    ok = all(
        _within(rep[f"root_rank_freq/{k}"], oracle.root_rank_prob(200, k)) for k in range(4)
    )
    return "simulation-root-rank", ok, f"n=200, trials={trials}"


def simulation_greedy_walk(trials: int, seed: int) -> Check:
    rep = _estimate(30, trials, seed, kmax=5)
    ok = all(
        _within(rep[f"greedy_gt/{k}"], genfun.greedy_tail_gf(k).series(30)[30])
        for k in range(6)
    )
    return "simulation-greedy-walk", ok, f"n=30, trials={trials}"


def verify_checks(n: int, trials: int, seed: int, rho: str) -> list[Check]:
    """Every check of ``ranktree verify``, in report order."""
    return [
        constants_exact(),
        constants_windows(),
        pair_constants_exact(),
        partial_sum_windows(),
        tail_bounds(),
        ode_residuals(),
        series_vs_oracle(),
        structure_and_factorizations(),
        alpha0_window(),
        moment_ratio_stability(rho),
        simulation_rank_fractions(n, trials, seed),
        simulation_root_rank(trials, seed + 1),
        simulation_greedy_walk(trials, seed + 2),
    ]
