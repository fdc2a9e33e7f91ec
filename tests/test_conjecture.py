"""Factorization verdicts, structure checks, and the alpha_0 constant."""

import math

import pytest

from exact_values import C3_DEN_FACTORS, C5_DEN_FACTORS
from ranktree import conjecture, genfun


def test_factor_smooth_complete():
    rep = conjecture.factor_smooth(2**5 * 3**2 * 35, 7)
    assert rep.fully_factored
    assert rep.factors == [(2, 5), (3, 2), (5, 1), (7, 1)]
    assert math.prod(p**e for p, e in rep.factors) * rep.residual == rep.input


def test_factor_smooth_residual():
    rep = conjecture.factor_smooth(12 * 101, 10)
    assert rep.factors == [(2, 2), (3, 1)]
    assert rep.residual == 101
    assert not rep.fully_factored
    assert math.prod(p**e for p, e in rep.factors) * rep.residual == rep.input


def test_factor_smooth_prime_residual_within_bound():
    # a residual that is itself a prime below the bound gets folded in
    rep = conjecture.factor_smooth(97, 100)
    assert rep.fully_factored
    assert rep.factors == [(97, 1)]


def test_factor_smooth_rejects_bad_input():
    with pytest.raises(ValueError):
        conjecture.factor_smooth(0, 10)
    with pytest.raises(ValueError):
        conjecture.factor_smooth(5, 1)


@pytest.mark.parametrize("k", range(6))
def test_denominator_verdicts(k):
    verdict = conjecture.check_conjectures(k, genfun.rank_constant(k))
    assert verdict.smoothness_pass
    assert verdict.largest_prime <= verdict.threshold == 2 ** (k + 1) + 1
    if k >= 2:
        assert verdict.gap_free is True
    else:
        assert verdict.gap_free is None


def test_frozen_denominator_factorizations():
    v3 = conjecture.check_conjectures(3, genfun.rank_constant(3))
    assert v3.denominator.factors == C3_DEN_FACTORS
    v5 = conjecture.check_conjectures(5, genfun.rank_constant(5))
    assert v5.denominator.factors == C5_DEN_FACTORS


@pytest.mark.parametrize("k", range(6))
def test_pl_structure_bounds(k):
    report = conjecture.check_pl_structure(k)
    assert report.passed
    assert report.bound == 2 ** (k + 1) - 1
    assert 0 <= report.min_upow
    assert report.max_upow <= report.bound
    assert report.max_vpow <= report.bound
    assert report.max_denom_prime <= report.bound


def _pl_structure_by_term(k):
    """check_pl_structure with every term's denominator factored on its own."""
    bound = 2 ** (k + 1) - 1
    max_u = max_v = max_prime = min_u = 0
    for (b, c), a in sorted(genfun.root_rank_gf(k).terms.items()):
        max_u, min_u, max_v = max(max_u, b), min(min_u, b), max(max_v, c)
        if a.denominator > 1:
            rep = conjecture.factor_smooth(int(a.denominator), bound)
            max_prime = max(max_prime, rep.factors[-1][0] if rep.fully_factored else rep.residual)
    passed = min_u >= 0 and max_u <= bound and max_v <= bound and max_prime <= bound
    return conjecture.PLStructureReport(k, bound, max_u, max_v, min_u, max_prime, passed)


@pytest.mark.parametrize("k", range(7))
def test_pl_structure_matches_a_per_term_factorization(k):
    assert conjecture.check_pl_structure(k) == _pl_structure_by_term(k)


def test_alpha0_window_and_residual():
    a0 = genfun.alpha0()
    assert 0.3725 < a0 < 0.3735
    assert abs(a0 + a0 * math.log(2.0 / a0) - 1.0) < 1e-10


def test_lower_envelope_report():
    # the lower reference must be (2/3) e^{-k/alpha0}, with genfun's alpha0
    report = genfun.tail_report(5)
    assert report.alpha0 == pytest.approx(genfun.alpha0())
    assert [row.k for row in report.rows] == list(range(6))
    for row in report.rows:
        assert row.exact_tail <= row.theorem_bound
        # the exponential reference is a guide, never an assertion
        assert row.lower_reference > 0
        assert row.lower_reference == pytest.approx(
            (2.0 / 3.0) * math.exp(-row.k / report.alpha0)
        )
    ratios = [
        float(row.exact_tail / prev.exact_tail)
        for prev, row in zip(report.rows, report.rows[1:])
    ]
    assert all(0 < r < 1 for r in ratios)
