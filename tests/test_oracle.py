"""Exact finite-n tables, checked against combinatorics (the checks against
the GF series are in ranktree.checks, run by the acceptance tests)."""

import math

import pytest

from ranktree import oracle
from ranktree.plring import Rational, rational


def test_small_root_rank_probabilities_by_hand():
    # n = 1: the root is a leaf; n = 2: the root always has rank 1
    assert oracle.root_rank_prob(1, 0) == 1
    assert oracle.root_rank_prob(2, 1) == 1
    # n = 3: a one-child root sits atop a 2-chain (rank 2), probability 2/3
    assert oracle.root_rank_prob(3, 1) == rational(1, 3)
    assert oracle.root_rank_prob(3, 2) == rational(2, 3)
    # n = 4: rank 3 needs the full chain, 8 of the 24 permutations
    assert oracle.root_rank_tail(4, 2) == rational(1, 3)


def _root_stats(perm):
    """Independent recursive computation: (root rank, leaves, root-closest)."""

    def rec(vals):
        if not vals:
            return None
        top = vals.index(max(vals))
        left, right = rec(vals[:top]), rec(vals[top + 1 :])
        if left is None and right is None:
            return 0, 1, 1
        ranks = [s[0] for s in (left, right) if s is not None]
        leaves = sum(s[1] for s in (left, right) if s is not None)
        best = min(ranks)
        closest = sum(s[2] for s in (left, right) if s is not None and s[0] == best)
        return best + 1, leaves, closest

    return rec(list(perm))


def test_tables_match_brute_force_enumeration():
    from itertools import permutations

    for n in range(1, 7):
        fact = math.factorial(n)
        rank_hist: dict[int, int] = {}
        leaf_tot: dict[int, int] = {}
        closest_tot: dict[int, int] = {}
        for perm in permutations(range(1, n + 1)):
            r, leaves, closest = _root_stats(perm)
            rank_hist[r] = rank_hist.get(r, 0) + 1
            leaf_tot[r] = leaf_tot.get(r, 0) + leaves
            closest_tot[r] = closest_tot.get(r, 0) + closest
        for k in range(n):
            assert oracle.root_rank_prob(n, k) == Rational(rank_hist.get(k, 0)) / fact
            assert oracle.expected_leaf_pairs(n, k) == Rational(leaf_tot.get(k, 0)) / fact
            assert (
                oracle.expected_closest_pairs(n, k)
                == Rational(closest_tot.get(k, 0)) / fact
            )


def test_tail_is_zero_iff_chain_is_too_short():
    for k in range(5):
        for n in range(1, 12):
            tail = oracle.root_rank_tail(n, k)
            if n <= k + 1:
                assert tail == 0
            else:
                assert tail > 0


def test_root_rank_distribution_sums_to_one():
    for n in (1, 2, 5, 9):
        total = sum(
            oracle.root_rank_prob(n, k) for k in range(oracle.max_root_rank(n) + 1)
        )
        assert total == 1


def test_rank_counts_conserve_mass():
    for n in (1, 3, 8, 20):
        counts = oracle.expected_rank_counts(n, oracle.max_root_rank(n))
        assert sum(counts) == n


def test_expected_leaf_count():
    # E[# leaves] = (n+1)/3 for n >= 2
    for n in range(2, 30):
        assert oracle.expected_rank_counts(n, 0)[0] == Rational(n + 1) / 3


def test_pair_identities_at_rank_zero():
    # a rank-0 root happens only at n = 1, where it is its own closest leaf
    assert oracle.expected_closest_pairs(1, 0) == 1
    for n in range(2, 20):
        assert oracle.expected_closest_pairs(n, 0) == 0
        assert oracle.expected_leaf_pairs(n, 0) == 0


def test_leaf_pairs_dominate_closest_pairs():
    for n in range(1, 25):
        for k in range(4):
            f = oracle.expected_leaf_pairs(n, k)
            g = oracle.expected_closest_pairs(n, k)
            assert f >= g >= 0


def test_leaf_depth_profile_small_cases():
    # depth-0 leaf only for n = 1; depth 1 only when one subtree is empty
    assert oracle.leaf_depth_profile(1, 0) == 1
    assert oracle.leaf_depth_profile(2, 1) == 1
    assert oracle.leaf_depth_profile(3, 1) == rational(2, 3)
    total = sum(oracle.leaf_depth_profile(10, j) for j in range(10))
    assert total == Rational(11) / 3


def test_external_profile_dominates_leaf_profile():
    # every leaf at depth j yields external nodes at depth j+1, but the
    # cleanest domination is E[X_{n,j}] <= external profile at the same j
    for n in range(2, 40):
        for j in range(1, 9):
            assert oracle.leaf_depth_profile(n, j) <= oracle.external_depth_profile(
                n, j
            )


def test_external_profile_row_sums():
    # summing 2^j |s(n,j)| over j gives (n+1)!/2, i.e. n+1 external nodes...
    for n in range(1, 15):
        total = sum(oracle.external_depth_profile(n, j) for j in range(n + 1))
        assert total == n + 1


def test_subtree_counts_match_closed_form():
    # the accessor asserts DP == closed form internally
    for n in (1, 2, 10, 60):
        for ell in {1, n} | ({2, 3} if n >= 3 else set()):
            value = oracle.expected_subtrees_atleast(n, ell)
            assert value == (n + 1) * (Rational(2) / (ell + 1) - Rational(1) / (n + 1))


def test_subtree_counts_reject_bad_input():
    with pytest.raises(ValueError):
        oracle.expected_subtrees_atleast(3, 0)
    with pytest.raises(ValueError):
        oracle.expected_subtrees_atleast(3, 4)


def test_moment_ratio_at_one_is_unity():
    for n in (1, 5, 30):
        assert oracle.moment_gf_ratio(n, 1) == 1


def test_moment_ratio_stability():
    rho = rational(7, 5)
    values = [float(oracle.moment_gf_ratio(n, rho)) for n in (100, 200, 400)]
    spread = (max(values) - min(values)) / max(values)
    assert spread < 0.05


def test_moment_ratio_rejects_nonpositive_rho():
    with pytest.raises(ValueError):
        oracle.moment_gf_ratio(5, 0)


def test_denominators_divide_factorial():
    for n in (7, 12):
        for k in range(3):
            value = oracle.root_rank_tail(n, k)
            assert math.factorial(n) % value.denominator == 0


def test_binomial_convolutions_match_math_comb():
    dp = oracle.RankDP()
    # sizes out of order, so rows are built ahead of use and then reused
    for n in (9, 1, 2, 12, 5, 6, 11, 3):
        m = n - 1
        a = [0 if j % 4 == 1 else 3 * j + 1 for j in range(n)]
        b = [(-1) ** j * (j + 2) for j in range(n)]
        assert dp._conv(a, b, n) == sum(math.comb(m, j) * a[j] * b[m - j] for j in range(n))
        assert dp._conv_self(a, n) == sum(
            math.comb(m, j) * a[j] * a[m - j] for j in range(n)
        )
    for m in range(12):
        assert dp._binom_half(m) == [math.comb(m, j) for j in range(m // 2 + 1)]
