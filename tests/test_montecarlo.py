"""Simulator: tree construction, census, greedy walk, seeded estimates."""

import time
from dataclasses import asdict
from itertools import permutations

import numpy as np
import pytest

import reference_census as ref
from ranktree import montecarlo as mc
from ranktree import genfun, oracle


def test_build_tree_single_vertex():
    t = mc.build_tree([1])
    assert t.n == 1 and t.root == 0
    assert t.left == (mc.NO_CHILD,) and t.right == (mc.NO_CHILD,)


def test_build_tree_rejects_non_permutations():
    for bad in ([], [0, 1], [1, 1], [2, 3]):
        with pytest.raises(ValueError):
            mc.build_tree(bad)


def test_build_tree_matches_naive_on_all_small_permutations():
    for n in range(1, 7):
        for perm in permutations(range(1, n + 1)):
            assert mc.build_tree(perm) == ref.build_tree_naive(perm)


def test_tree_is_heap_ordered_and_in_order():
    perm = [3, 1, 4, 7, 2, 6, 5]
    t = mc.build_tree(perm)
    for v in range(t.n):
        for ch in (t.left[v], t.right[v]):
            if ch != mc.NO_CHILD:
                assert t.labels[ch] < t.labels[v]
    # in-order traversal recovers positions left to right
    order = []

    def walk(v):
        if v == mc.NO_CHILD:
            return
        walk(t.left[v])
        order.append(v)
        walk(t.right[v])

    walk(t.root)
    assert order == list(range(t.n))


def test_census_chain_and_balanced():
    chain = mc.rank_census(mc.build_tree([4, 3, 2, 1]))
    assert chain.root_rank == 3
    assert chain.rank_counts == {0: 1, 1: 1, 2: 1, 3: 1}
    assert chain.leaf_count == 1
    balanced = mc.rank_census(mc.build_tree([2, 7, 1, 5, 3, 6, 4]))
    assert balanced.leaf_count == sum(
        1
        for v in range(7)
        if mc.build_tree([2, 7, 1, 5, 3, 6, 4]).left[v] == mc.NO_CHILD
        and mc.build_tree([2, 7, 1, 5, 3, 6, 4]).right[v] == mc.NO_CHILD
    )


def test_census_totals_are_consistent():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        perm = (rng.permutation(n) + 1).tolist()
        census = mc.rank_census(mc.build_tree(perm))
        assert sum(census.rank_counts.values()) == n
        assert census.leaf_count == census.rank_counts.get(0, 0)
        # every leaf is someone's descendant leaf; the root contributes all
        assert census.leaf_pair_counts.get(census.root_rank, 0) >= census.leaf_count
        for k, c in census.closest_pair_counts.items():
            assert 0 < c <= census.leaf_pair_counts[k]


def test_subtree_sizes_sum():
    perm = [5, 2, 6, 1, 9, 3, 8, 4, 7]
    t = mc.build_tree(perm)
    sizes = mc.subtree_sizes(t)
    assert sizes[t.root] == t.n
    assert min(sizes) == 1


def assert_kernel_matches_reference(perms):
    """Every row of one kernel call against the per-vertex reference census."""
    perms = np.asarray(perms)
    n = perms.shape[1]
    forest = mc._forest(perms)
    tot = mc._totals(forest)
    for row, perm in enumerate(perms.tolist()):
        t = mc.build_tree(perm)
        assert asdict(mc._census(tot, n, row)) == asdict(ref.rank_census(t)), perm
        first = row * (n + 1) + 1  # position of vertex 0 of this row
        span = slice(first, first + n)
        assert forest.size[span].tolist() == ref.subtree_sizes(t), perm
        for got, want in ((forest.left, t.left), (forest.right, t.right)):
            assert [c if c == mc.NO_CHILD else c - first for c in got[span].tolist()] == list(want)
        assert forest.roots[row] - first == t.root


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_matches_reference_on_all_small_permutations(n):
    assert_kernel_matches_reference(list(permutations(range(1, n + 1))))


@pytest.mark.parametrize("n", [2, 50, 1000])
def test_kernel_matches_reference_on_a_random_chunk(n):
    rng = np.random.default_rng(2024)
    trees = max(1, mc._CHUNK_LABELS // (n + 1))
    assert_kernel_matches_reference([rng.permutation(n) + 1 for _ in range(trees)])


def peaks_and_leaves(m: int) -> list[int]:
    """A decreasing run of m peaks, then an increasing run of m larger peaks,
    each peak followed by a small label (a leaf); n = 4m and ranks stay below 3."""
    first = [x for i in range(m) for x in (3 * m - i, i + 1)]
    second = [x for i in range(m) for x in (3 * m + 1 + i, m + 1 + i)]
    return first + second


def test_kernel_matches_reference_on_chains():
    # long runs of smaller labels between a vertex and its nearest larger
    # one, and many rank passes: sorted runs, a staircase, peaks and leaves
    n = 300
    up = list(range(1, n + 1))
    perms = [up, up[::-1], up[-2::-1] + [n], peaks_and_leaves(n // 4)]
    assert_kernel_matches_reference(perms)
    for perm in perms:
        t = mc.build_tree(perm)
        assert mc.rank_census(t) == ref.rank_census(t)
        assert mc.subtree_sizes(t) == ref.subtree_sizes(t)


def test_one_tree_census_is_fast_on_long_runs():
    # every peak of the second run lies beyond m/2 smaller peaks of the
    # first: a search moving one candidate per round takes m/2 rounds over
    # m/2 vertices here, about a minute at this n; binary lifting takes
    # 18 rounds
    t = mc.build_tree(peaks_and_leaves(50_000))
    start = time.perf_counter()
    census, sizes = mc.rank_census(t), mc.subtree_sizes(t)
    assert time.perf_counter() - start < 2.0
    assert census == ref.rank_census(t)
    assert sizes == ref.subtree_sizes(t)


def test_greedy_walk_bounds():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 80))
        t = mc.build_tree((rng.permutation(n) + 1).tolist())
        census = mc.rank_census(t)
        glen = mc.greedy_path_length(t, rng)
        assert census.root_rank <= glen <= n - 1


def test_greedy_walk_deterministic_on_chain():
    t = mc.build_tree([4, 3, 2, 1])
    rng = np.random.default_rng(0)
    assert mc.greedy_path_length(t, rng) == 3


def test_trial_streams_are_independent_of_order():
    a = mc.trial_rng(42, 3).random(4)
    mc.trial_rng(42, 0).random(1)  # unrelated draw in between
    b = mc.trial_rng(42, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, mc.trial_rng(42, 4).random(4))


def test_estimate_is_deterministic():
    r1 = mc.estimate(40, 30, seed=7, kmax=3)
    r2 = mc.estimate(40, 30, seed=7, kmax=3)
    assert r1.to_dict() == r2.to_dict()
    r3 = mc.estimate(40, 30, seed=8, kmax=3)
    assert r1.to_dict() != r3.to_dict()


def test_estimate_statistics_within_four_stderr_of_oracle():
    n, trials = 120, 400
    rep = mc.estimate(n, trials, seed=3, kmax=3)
    for k in range(4):
        stat = rep[f"rank_fraction/{k}"]
        exact = float(oracle.expected_rank_counts(n, k)[k]) / n
        assert abs(stat.mean - exact) <= 4 * stat.stderr
        freq = rep[f"root_rank_freq/{k}"]
        assert abs(freq.mean - float(oracle.root_rank_prob(n, k))) <= 4 * freq.stderr


def test_estimate_greedy_tail_within_four_stderr_of_gf():
    n, trials = 30, 400
    rep = mc.estimate(n, trials, seed=9, kmax=4)
    for k in range(5):
        stat = rep[f"greedy_gt/{k}"]
        exact = float(genfun.greedy_tail_gf(k).series(n)[n])
        assert abs(stat.mean - exact) <= 4 * stat.stderr


def test_estimate_emits_expected_statistic_names():
    rep = mc.estimate(25, 5, seed=0, kmax=2)
    names = set(rep.statistics)
    assert {"leaf_fraction", "root_rank_mean", "greedy_mean"} <= names
    assert {f"rank_fraction/{k}" for k in range(3)} <= names
    assert "pair_joint/0,0" in names and "pair_joint/2,2" in names


def test_estimate_rejects_bad_trials():
    with pytest.raises(ValueError):
        mc.estimate(10, 0, seed=0)


@pytest.mark.parametrize("n, trials", [(40, 30), (200, 64)])
def test_estimate_does_not_depend_on_the_chunk_size(monkeypatch, n, trials):
    monkeypatch.setattr(mc, "_CHUNK_LABELS", 1)  # one trial per chunk
    one_by_one = mc.estimate(n, trials, seed=12).to_dict()
    monkeypatch.setattr(mc, "_CHUNK_LABELS", trials * (n + 1))  # all at once
    assert mc.estimate(n, trials, seed=12).to_dict() == one_by_one
