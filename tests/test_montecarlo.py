"""Simulator: tree construction, census, greedy walk, seeded estimates."""

import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

import reference_census as ref
from ranktree import montecarlo as mc
from ranktree import genfun, oracle


def census_of_row(tot, n: int, row: int = 0) -> ref.Census:
    """The kernel's totals of one tree of a chunk, as a reference record."""
    counts, leaf_pairs, closest_pairs = (
        a[row].tolist() for a in (tot.rank_counts, tot.leaf_pairs, tot.closest_pairs)
    )
    ranks = [k for k, c in enumerate(counts) if c]
    return ref.Census(
        n=n,
        rank_counts={k: counts[k] for k in ranks},
        leaf_count=counts[0],
        root_rank=int(tot.root_rank[row]),
        leaf_pair_counts={k: leaf_pairs[k] for k in ranks},
        closest_pair_counts={k: closest_pairs[k] for k in ranks},
    )


def kernel_census(perm) -> ref.Census:
    return census_of_row(mc._totals(mc._forest([perm])), len(perm))


def kernel_sizes(perms) -> np.ndarray:
    """Subtree sizes R - L - 1 of every vertex, one row per permutation."""
    _, _, lpos, rpos, n = mc._bounds(perms)
    return (rpos - lpos - 1).reshape(-1, n)


def test_build_tree_matches_naive_on_all_small_permutations():
    for n in range(1, 7):
        for perm in permutations(range(1, n + 1)):
            assert ref.build_tree_stack(perm) == ref.build_tree_naive(perm)


def test_tree_is_heap_ordered_and_in_order():
    perm = [3, 1, 4, 7, 2, 6, 5]
    t = ref.build_tree_naive(perm)
    for v in range(t.n):
        for ch in (t.left[v], t.right[v]):
            if ch != ref.NO_CHILD:
                assert t.labels[ch] < t.labels[v]
    # in-order traversal recovers positions left to right
    order = []

    def walk(v):
        if v == ref.NO_CHILD:
            return
        walk(t.left[v])
        order.append(v)
        walk(t.right[v])

    walk(t.root)
    assert order == list(range(t.n))


def test_census_chain_and_balanced():
    chain = kernel_census([4, 3, 2, 1])
    assert chain.root_rank == 3
    assert chain.rank_counts == {0: 1, 1: 1, 2: 1, 3: 1}
    assert chain.leaf_count == 1
    perm = [2, 7, 1, 5, 3, 6, 4]
    t = ref.build_tree_naive(perm)
    assert kernel_census(perm).leaf_count == sum(
        1 for v in range(7) if t.left[v] == t.right[v] == ref.NO_CHILD
    )


def test_census_totals_are_consistent():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        census = kernel_census((rng.permutation(n) + 1).tolist())
        assert sum(census.rank_counts.values()) == n
        assert census.leaf_count == census.rank_counts.get(0, 0)
        # every leaf is someone's descendant leaf; the root contributes all
        assert census.leaf_pair_counts.get(census.root_rank, 0) >= census.leaf_count
        for k, c in census.closest_pair_counts.items():
            assert 0 < c <= census.leaf_pair_counts[k]


def test_subtree_sizes_sum():
    perm = [5, 2, 6, 1, 9, 3, 8, 4, 7]
    sizes = kernel_sizes([perm])[0]
    assert sizes[perm.index(9)] == len(perm)
    assert min(sizes) == 1


def assert_kernel_matches_reference(perms):
    """Every row of one kernel call against the per-vertex reference census."""
    perms = np.asarray(perms)
    n = perms.shape[1]
    forest = mc._forest(perms)
    tot = mc._totals(forest)
    sizes = kernel_sizes(perms)
    for row, perm in enumerate(perms.tolist()):
        t = ref.build_tree_naive(perm)
        assert census_of_row(tot, n, row) == ref.rank_census(t), perm
        assert sizes[row].tolist() == ref.subtree_sizes(t), perm
        assert forest.roots[row] - (row * (n + 1) + 1) == t.root


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


def nearest_larger_scan(labels: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """Nearest larger label left and right of every vertex of a flat chunk
    (see montecarlo._Forest), scanning out from each vertex within its row."""
    left, right = [], []
    ends = np.flatnonzero(labels > n).tolist()
    for a, b in zip(ends, ends[1:]):
        row = labels[a : b + 1]
        for i in range(1, b - a):
            larger = row > row[i]
            left.append(a + i - 1 - int(np.argmax(larger[i - 1 :: -1])))
            right.append(a + i + 1 + int(np.argmax(larger[i + 1 :])))
    return left, right


def assert_bounds_match_scan(perms):
    labels, vertices, lpos, rpos, n = mc._bounds(perms)
    assert vertices.tolist() == np.flatnonzero(labels <= n).tolist()
    assert (lpos.tolist(), rpos.tolist()) == nearest_larger_scan(labels, n)


def test_nearest_larger_at_the_seam_of_short_steps_and_lifting():
    # vertex 5 of each row has its nearest larger label at distance d on
    # the left and e on the right, 1..5 or the row's sentinel at 6: bounds
    # settled by each of the short steps, and just past them
    n, v, rows = 11, 5, []
    for d in range(1, 7):
        for e in range(1, 7):
            larger = [p for p in (v - d, v + e) if 0 <= p < n]
            row = [0] * n
            row[v] = n - len(larger)
            for i, p in enumerate(larger):
                row[p] = row[v] + 1 + i
            rest = iter(range(1, n))
            rows.append([x or next(rest) for x in row])
            _, _, lpos, rpos, _ = mc._bounds([rows[-1]])
            assert (v + 1 - lpos[v], rpos[v] - v - 1) == (d, e)
    assert_bounds_match_scan(rows)


@pytest.mark.parametrize("n", range(1, 8))
def test_nearest_larger_on_all_small_permutations(n):
    assert_bounds_match_scan(list(permutations(range(1, n + 1))))


def staircase(n: int, step: int) -> list[int]:
    """Decreasing runs of ``step`` labels, each run above the one before."""
    return [x for top in range(step, n + step, step) for x in range(min(top, n), top - step, -1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 100, 1024, 1025, 5000])
def test_nearest_larger_on_chains(n):
    # row 0 rises, so its far left bounds end on the sentinel at position 0
    # and the lifting reads windows before it; the last row falls, so its
    # right bounds end on the closing sentinel
    up = list(range(1, n + 1))
    perms = [up, staircase(n, 3), staircase(n, 7), up[-2::-1] + [n], up[::-1]]
    assert_bounds_match_scan(perms)


def test_one_tree_census_is_fast_on_long_runs():
    # every peak of the second run lies beyond m/2 smaller peaks of the
    # first: a search moving one candidate per round takes m/2 rounds over
    # m/2 vertices here, about a minute at this n.  The short steps settle
    # the leaves and one side of every peak; binary lifting takes the
    # other side in 18 rounds
    perm = peaks_and_leaves(50_000)
    start = time.perf_counter()
    tot = mc._totals(mc._forest([perm]))
    assert time.perf_counter() - start < 2.0
    t = ref.build_tree_stack(perm)
    assert census_of_row(tot, len(perm)) == ref.rank_census(t)
    assert kernel_sizes([perm])[0].tolist() == ref.subtree_sizes(t)


def test_census_memory_per_label_on_a_full_chunk():
    # one kernel call on a full chunk at n = 1000 peaks at 80 bytes per
    # label (about 1.28 MB at 16,016 labels): the arrays the kernel holds
    # at once.  One more intp array over the chunk, 8 bytes a label, breaks
    # the budget
    n = 1000
    trees = mc._CHUNK_LABELS // (n + 1)
    rng = np.random.default_rng(7)
    perms = np.stack([rng.permutation(n) for _ in range(trees)]) + 1
    tracemalloc.start()
    try:
        mc._totals(mc._forest(perms), 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (trees * (n + 1)) < 86


def kernel_walks(perms, seed: int) -> list[tuple[int, float]]:
    """Greedy walk of every row of one kernel call, each on its own stream,
    with the stream's next draw after it."""
    perms = np.asarray(perms)
    width = perms.shape[1] + 1
    labels = mc._forest(perms).labels
    out = []
    for row in range(len(perms)):
        rng = np.random.default_rng([seed, row])
        out.append((mc._greedy_walk(labels, row * width, (row + 1) * width, rng), rng.random()))
    return out


def reference_walks(perms, seed: int) -> list[tuple[int, float]]:
    out = []
    for row, perm in enumerate(np.asarray(perms).tolist()):
        rng = np.random.default_rng([seed, row])
        out.append((ref.greedy_walk(ref.build_tree_naive(perm), rng), rng.random()))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_greedy_walk_matches_reference_on_all_small_permutations(n):
    perms = list(permutations(range(1, n + 1)))
    for seed in range(4):
        assert kernel_walks(perms, seed) == reference_walks(perms, seed)


@pytest.mark.parametrize("n", [50, 1000])
def test_greedy_walk_matches_reference_on_a_random_chunk(n):
    rng = np.random.default_rng(2025)
    perms = [rng.permutation(n) + 1 for _ in range(mc._CHUNK_LABELS // (n + 1))]
    assert kernel_walks(perms, 3) == reference_walks(perms, 3)


def test_greedy_walk_matches_reference_on_chains():
    # small: a step scans the subtree it enters, O(n^2) on a sorted row
    n = 60
    up = list(range(1, n + 1))
    perms = [up, up[::-1], up[-2::-1] + [n], peaks_and_leaves(n // 4), staircase(n, 7)]
    assert kernel_walks(perms, 1) == reference_walks(perms, 1)


def test_greedy_walk_bounds():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 80))
        forest = mc._forest([rng.permutation(n) + 1])
        glen = mc._greedy_walk(forest.labels, 0, n + 1, rng)
        assert mc._totals(forest).root_rank[0] <= glen <= n - 1


def test_greedy_walk_deterministic_on_chain():
    for perm in ([4, 3, 2, 1], [1, 2, 3, 4]):
        labels = mc._forest([perm]).labels
        assert mc._greedy_walk(labels, 0, 5, np.random.default_rng(0)) == 3


def test_trial_streams_are_independent_of_order():
    a = mc.trial_rng(42, 3).random(4)
    mc.trial_rng(42, 0).random(1)  # unrelated draw in between
    b = mc.trial_rng(42, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, mc.trial_rng(42, 4).random(4))


def test_the_seeded_stream_is_pinned():
    # NumPy keeps the bit generators' raw output stable (NEP 19), but not the
    # Generator methods estimate draws with, in its order: a permutation,
    # then the walk's uniforms.  The golden simulate and verify files rest on
    # both, so a numpy whose methods changed fails here, with that cause
    raw = mc.trial_rng(0, 0).bit_generator.random_raw(2).tolist()
    assert raw == [17394127715520444142, 5835390491061343638], "trial_rng's seeding changed"
    rng = mc.trial_rng(0, 0)
    numpy = f"numpy {np.__version__}"
    assert rng.permutation(8).tolist() == [5, 3, 0, 1, 2, 4, 7, 6], f"{numpy} changed Generator.permutation"
    assert rng.random() == 0.6480380975872828, f"{numpy} changed Generator.random"


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


def test_estimate_rejects_bad_n():
    with pytest.raises(ValueError, match="n must be"):
        mc.estimate(0, 5, seed=0)


def test_estimate_rejects_bad_kmax():
    with pytest.raises(ValueError, match="kmax must be"):
        mc.estimate(10, 5, seed=0, kmax=-1)


@pytest.mark.parametrize("n, trials", [(40, 30), (200, 64), (1000, 37)])
def test_estimate_does_not_depend_on_the_chunk_size(monkeypatch, n, trials):
    # (1000, 37) at the default size: two full chunks and a partial one
    default = mc.estimate(n, trials, seed=12).to_dict()
    monkeypatch.setattr(mc, "_CHUNK_LABELS", 1)  # one trial per chunk
    assert mc.estimate(n, trials, seed=12).to_dict() == default
    monkeypatch.setattr(mc, "_CHUNK_LABELS", trials * (n + 1))  # all at once
    assert mc.estimate(n, trials, seed=12).to_dict() == default
