"""Generating-function layer: recurrences, constants, moments, bounds."""

import pytest

from exact_values import (
    C_EXACT,
    F_EXACT,
    F_OVER_C,
    G_EXACT,
    G_OVER_C,
    I1_EXACT,
    cdf_square,
    square_integral,
)
from ranktree import checks, genfun, oracle, plring
from ranktree.plring import ONE, PLExpr, Rational, U, UINV, X, square_integral01
from ranktree.residues import Moduli


def test_rank_gf_base_case():
    assert genfun.root_rank_gf(0) == X


def test_rank_gf_first_level_closed_form():
    # 2 log(1/(1-x)) - 7/3 + 3(1-x) - (1-x)^2 + (1-x)^3/3
    expected = PLExpr(
        {
            (0, 1): Rational(2),
            (0, 0): Rational(-7, 3),
            (1, 0): Rational(3),
            (2, 0): Rational(-1),
            (3, 0): Rational(1, 3),
        }
    )
    assert genfun.root_rank_gf(1) == expected


def test_rank_gf_vanishes_at_origin():
    for k in range(5):
        assert genfun.root_rank_gf(k).series(0) == [0]


def test_cdf_is_sum_of_levels():
    for k in range(5):
        total = sum((genfun.root_rank_gf(j) for j in range(k + 1)), start=PLExpr({}))
        assert genfun.root_rank_cdf_gf(k) == total


def test_constants_exact_low_orders():
    for k, expected in C_EXACT.items():
        assert genfun.rank_constant(k) == expected


def test_constants_are_positive_and_summable():
    s_prev = Rational(0)
    for k in range(6):
        c = genfun.rank_constant(k)
        s = genfun.partial_sum(k)
        assert c > 0
        assert s == s_prev + c
        assert s < 1
        s_prev = s


@pytest.mark.parametrize("k", range(7))
def test_the_partial_sum_route_matches_the_exact_square(k):
    # S_k is 4/3 minus the integral exactly, and the check's residues are the integral's
    exact = square_integral(k)
    assert genfun.partial_sum(k) == Rational(4, 3) - exact
    moduli = Moduli(2**40)
    assert square_integral01(cdf_square(k), moduli) == [
        int(exact.numerator) * pow(int(exact.denominator), -1, p) % p for p in moduli.q.tolist()
    ]


def test_partial_sum_windows():
    s = [float(genfun.partial_sum(k)) for k in range(6)]
    assert 0.954 < s[3] < 0.956
    assert 0.9913 < s[4] < 0.9915
    assert 0.9987 < s[5] < 0.9988


def test_leaf_pair_constants_exact():
    assert [genfun.leaf_pair_constant(k) for k in range(3)] == F_EXACT
    assert [genfun.closest_leaf_constant(k) for k in range(3)] == G_EXACT


def test_per_vertex_ratios_exact():
    for k in range(3):
        assert genfun.per_vertex_ratios(k) == (F_OVER_C[k], G_OVER_C[k])


def test_pair_ratios_bracket_each_other():
    # every vertex has at least one closest descendant leaf, and at most
    # as many closest leaves as descendant leaves
    for k in range(4):
        f_ratio, g_ratio = genfun.per_vertex_ratios(k)
        assert 1 <= g_ratio <= f_ratio


@pytest.mark.parametrize("kind,ks", list(checks.ODE_RESIDUAL_RANGES.items()))
def test_ode_residuals_identically_zero(kind, ks):
    for k in ks:
        assert genfun.ode_residual(kind, k).is_zero()


@pytest.mark.parametrize("kind", genfun.KINDS)
@pytest.mark.parametrize("step", [0, 1])
def test_ode_residual_sees_a_perturbed_memo_entry(fresh_memo, kind, step):
    # the residual shares its right-hand side with the build, so it must
    # still catch a wrong F_k; u^5 survives two differentiations
    k = min(checks.ODE_RESIDUAL_RANGES[kind]) + step
    wrong = genfun.gf_by_kind(kind, k) + PLExpr.term(1, 5, 0)
    fresh_memo()
    genfun.cache_insert(kind, k, wrong)
    assert genfun.gf_by_kind(kind, k) == wrong
    assert not genfun.ode_residual(kind, k).is_zero()


def test_greedy_tail_base_and_first_level():
    assert genfun.greedy_tail_gf(-1) == UINV - ONE
    # P_{>0} = 1/(1-x) - 2 + (1-x)
    assert genfun.greedy_tail_gf(0) == UINV - 2 * ONE + U


def test_tail_moment_base_and_values():
    assert genfun.tail_moment(-1, 1) == Rational(1, 2)
    assert genfun.tail_moment(-1, 3) == Rational(1, 12)
    for k, expected in enumerate(I1_EXACT):
        assert genfun.tail_moment(k, t=1) == expected


def test_tail_moment_recurrence_matches_integral():
    # the recurrence route is cross-checked internally for k <= 6; force
    # a fresh comparison here for a grid of (k, t)
    for k in range(5):
        for t in range(1, 4):
            direct = (PLExpr.term(1, t, 0) * genfun.greedy_tail_gf(k)).integral01()
            assert genfun.tail_moment(k, t) == direct


def test_tail_moment_bounds_through_k10():
    i01 = genfun.tail_moment(0, 1)
    for k in range(11):
        ik1 = genfun.tail_moment(k, 1)
        assert ik1 <= Rational(6 * k + 7) / 6 / Rational(3) ** k
        assert ik1 >= i01 / Rational(3) ** k


def test_tail_report_rows_and_invariants():
    table = genfun.tail_report(5)
    assert table.alpha0 == genfun.alpha0()
    assert [row.k for row in table.rows] == list(range(6))
    for row in table.rows:
        assert row.exact_tail <= row.moment_bound
        assert row.exact_tail <= row.theorem_bound == genfun.tail_envelope(row.k)
        assert 0 < row.exact_tail / row.exact_tail_prev < 1
        # the exponential reference is a guide, never an assertion
        assert row.lower_reference > 0
    # spot value: the k=5 tail leaves about 0.125 percent of vertices
    assert float(table.rows[5].exact_tail) == pytest.approx(0.0012461, abs=1e-6)


def test_series_coefficients_are_probabilities():
    for k in range(5):
        coeffs = genfun.root_rank_cdf_gf(k).series(30)
        assert coeffs[0] == 0
        for n in range(1, 31):
            assert 0 <= coeffs[n] <= 1
        # cdf is monotone in k at every coefficient
        if k:
            prev = genfun.root_rank_cdf_gf(k - 1).series(30)
            assert all(coeffs[n] >= prev[n] for n in range(31))


def test_high_order_series_matches_the_oracle():
    # far past the order-50 checks: each coefficient through x^150 is the
    # exact finite-n probability that the root rank is at most 4
    coeffs = genfun.root_rank_cdf_gf(4).series(150)
    for n in range(1, 151):
        assert coeffs[n] == 1 - oracle.root_rank_tail(n, 4)


def test_constants_table_shape():
    rows = genfun.constants_table(2)
    assert [row.k for row in rows] == [0, 1, 2]
    assert rows[2].c == C_EXACT[2]
    assert rows[2].f_over_c == F_OVER_C[2]


def test_gf_by_kind_dispatch():
    assert genfun.gf_by_kind("root_rank", 0) == X
    with pytest.raises(ValueError):
        genfun.gf_by_kind("nope", 0)


def test_cache_insert_rejects_unknown_kind():
    with pytest.raises(ValueError):
        genfun.cache_insert("nope", 0, X)


def test_cache_insert_is_idempotent():
    expr = genfun.root_rank_gf(1)
    genfun.cache_insert("root_rank", 1, PLExpr({}))  # ignored: already present
    assert genfun.root_rank_gf(1) == expr


# the families whose level-K entry constants_table(K) does not build
_TOP_KINDS = ("root_rank", "leaf_pair_tail", "closest_leaf")


@pytest.mark.parametrize("k", range(7))
def test_the_top_level_identities_equal_the_entry_route(fresh_memo, k):
    # c_k = ∫u²·rhs_k, f_k = ∫u²·(Bcal′_{>k-1} - rhs^cal_k), g_k = ∫u²·rhs^hat_k
    row = genfun.constants_table(k)[k]
    memo = genfun.cache_snapshot()
    for kind in _TOP_KINDS:
        if k > genfun._FAMILIES[kind].first:
            assert (kind, k) not in memo and (kind, k, "rhs") in memo
    # the entry route, from the entries built now out of the memoized right-hand sides
    assert row.c == 2 * genfun.root_rank_gf(k).integral01(1)
    assert row.f == genfun.leaf_pair_constant(k)
    assert row.g == genfun.closest_leaf_constant(k)
    assert row.partial_sum == Rational(4, 3) - square_integral(k)
    if k in C_EXACT:
        assert row.c == C_EXACT[k]
    if k < len(F_EXACT):
        assert (row.f, row.g) == (F_EXACT[k], G_EXACT[k])
    assert not any(len(key) == 3 for key in genfun.cache_snapshot())


@pytest.mark.parametrize("k", [1, 4])
def test_tail_report_takes_c_k_from_the_top_level_right_hand_side(fresh_memo, k):
    table = genfun.tail_report(k)
    assert ("root_rank", k) not in genfun.cache_snapshot()
    assert table.rows[k].exact_tail == square_integral(k) - Rational(1, 3)


def test_constants_table_computes_no_product_twice(fresh_memo, monkeypatch):
    # every product of two operands of two terms or more is recorded; the
    # entries of level 6, built after the table, reuse its right-hand sides
    monkeypatch.setattr(plring, "_RESIDUE_PAIRS", 1)
    real, seen = plring._product_table, []

    def product_table(a, b, moduli):
        seen.append(tuple(sorted(hash(frozenset(x.items())) for x in (a, b))))
        return real(a, b, moduli)

    monkeypatch.setattr(plring, "_product_table", product_table)
    genfun.constants_table(6)
    table_products = len(seen)
    for kind in _TOP_KINDS:
        genfun.gf_by_kind(kind, 6)
    assert len(seen) == table_products > 20
    assert len(set(seen)) == len(seen)


def test_fresh_memo_empties_the_memoized_right_hand_sides(fresh_memo):
    genfun.constants_table(2)
    assert ("root_rank", 2, "rhs") in genfun.cache_snapshot()
    fresh_memo()
    assert genfun.cache_snapshot() == {}


@pytest.mark.parametrize("kind", genfun.KINDS)
def test_ode_residual_sees_a_corrupted_memoized_right_hand_side(fresh_memo, kind):
    # the entry is built from the memoized right-hand side, and the residual
    # recomputes the right one
    k = min(checks.ODE_RESIDUAL_RANGES[kind]) + 1
    wrong = genfun._FAMILIES[kind].rhs(k) + PLExpr.term(1, 5, 0)
    fresh_memo()
    genfun.cache_insert(kind, k, wrong, rhs=True)
    assert not genfun.ode_residual(kind, k).is_zero()
    assert (kind, k, "rhs") not in genfun.cache_snapshot()


def test_cache_insert_of_a_right_hand_side_defers_to_the_entry(fresh_memo):
    genfun.root_rank_gf(1)
    genfun.cache_insert("root_rank", 1, ONE, rhs=True)  # ignored: B_1 is memoized
    genfun.cache_insert("root_rank", 2, ONE, rhs=True)
    assert genfun.cache_snapshot()[("root_rank", 2, "rhs")] == ONE
    genfun.cache_insert("root_rank", 2, X)  # the entry drops it
    memo = genfun.cache_snapshot()
    assert memo[("root_rank", 2)] == X
    assert not any(len(key) == 3 for key in memo)
    with pytest.raises(ValueError):
        genfun.cache_insert("root_rank", 0, X, rhs=True)  # B_0 is the base value
