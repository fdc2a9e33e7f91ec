"""Random decreasing binary trees and seeded empirical rank statistics.

A permutation p of 1..n maps to the tree whose root carries the largest
label, with the left/right subtrees built from the substrings on either
side.  Trees are stored as flat child-index arrays and every per-tree
statistic is computed iteratively, so n = 10^6 works without recursion.

Reproducibility contract: estimate(n, trials, seed, ...) derives one
PCG64 stream per trial from numpy's SeedSequence(seed).spawn, so the
report depends only on (n, trials, seed, kmax), trials never share a
stream, and any execution order yields the same aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

__all__ = [
    "DecreasingTree",
    "CensusReport",
    "StatSummary",
    "EstimateReport",
    "build_tree",
    "build_tree_naive",
    "rank_census",
    "greedy_path_length",
    "subtree_sizes",
    "estimate",
]

NO_CHILD = -1


@dataclass(frozen=True)
class DecreasingTree:
    """Flat tree: vertex i is position i of the permutation, label perm[i]."""

    n: int
    labels: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    root: int


def _validate(perm) -> list[int]:
    perm = list(perm)
    n = len(perm)
    if n < 1 or sorted(perm) != list(range(1, n + 1)):
        raise ValueError("input must be a permutation of 1..n")
    return perm


def build_tree(perm) -> DecreasingTree:
    """Monotone-stack construction, O(n)."""
    perm = _validate(perm)
    n = len(perm)
    left = [NO_CHILD] * n
    right = [NO_CHILD] * n
    stack: list[int] = []
    for i, val in enumerate(perm):
        last = NO_CHILD
        while stack and perm[stack[-1]] < val:
            last = stack.pop()
        if last != NO_CHILD:
            left[i] = last
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    return DecreasingTree(
        n=n, labels=tuple(perm), left=tuple(left), right=tuple(right), root=stack[0]
    )


def build_tree_naive(perm) -> DecreasingTree:
    """Quadratic recursive-max construction; test oracle for build_tree."""
    perm = _validate(perm)
    n = len(perm)
    left = [NO_CHILD] * n
    right = [NO_CHILD] * n

    def rec(lo: int, hi: int) -> int:  # [lo, hi) -> root index
        top = max(range(lo, hi), key=perm.__getitem__)
        if lo < top:
            left[top] = rec(lo, top)
        if top + 1 < hi:
            right[top] = rec(top + 1, hi)
        return top

    root = rec(0, n)
    return DecreasingTree(
        n=n, labels=tuple(perm), left=tuple(left), right=tuple(right), root=root
    )


def _postorder(t: DecreasingTree) -> list[int]:
    """Vertices in an order that visits children before parents."""
    order: list[int] = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        order.append(v)
        if t.left[v] != NO_CHILD:
            stack.append(t.left[v])
        if t.right[v] != NO_CHILD:
            stack.append(t.right[v])
    order.reverse()
    return order


@dataclass(frozen=True)
class CensusReport:
    """Per-tree totals for one sampled tree."""

    n: int
    rank_counts: dict[int, int]          # V_{n,k}
    leaf_count: int                      # L_n = V_{n,0}
    root_rank: int                       # S_n
    leaf_pair_counts: dict[int, int]     # rank-k vertex x descendant leaf
    closest_pair_counts: dict[int, int]  # rank-k vertex x closest leaf


def rank_census(t: DecreasingTree) -> CensusReport:
    """One iterative post-order pass computing every per-vertex statistic.

    rank(leaf) = 0, rank(v) = 1 + min over existing children; the
    closest-leaf count of v adds up the counts of the children achieving
    the minimum.
    """
    n = t.n
    rank = [0] * n
    leaves_below = [0] * n
    closest = [0] * n
    rank_counts: dict[int, int] = {}
    leaf_pairs: dict[int, int] = {}
    closest_pairs: dict[int, int] = {}
    for v in _postorder(t):
        l, r = t.left[v], t.right[v]
        if l == NO_CHILD and r == NO_CHILD:
            rank[v] = 0
            leaves_below[v] = 1
            closest[v] = 1
        else:
            best = None
            lv = 0
            for ch in (l, r):
                if ch != NO_CHILD:
                    lv += leaves_below[ch]
                    if best is None or rank[ch] < best:
                        best = rank[ch]
            rank[v] = best + 1
            leaves_below[v] = lv
            closest[v] = sum(
                closest[ch] for ch in (l, r) if ch != NO_CHILD and rank[ch] == best
            )
        k = rank[v]
        rank_counts[k] = rank_counts.get(k, 0) + 1
        leaf_pairs[k] = leaf_pairs.get(k, 0) + leaves_below[v]
        closest_pairs[k] = closest_pairs.get(k, 0) + closest[v]
    return CensusReport(
        n=n,
        rank_counts=rank_counts,
        leaf_count=rank_counts.get(0, 0),
        root_rank=rank[t.root],
        leaf_pair_counts=leaf_pairs,
        closest_pair_counts=closest_pairs,
    )


def subtree_sizes(t: DecreasingTree) -> list[int]:
    sizes = [1] * t.n
    for v in _postorder(t):
        for ch in (t.left[v], t.right[v]):
            if ch != NO_CHILD:
                sizes[v] += sizes[ch]
    return sizes


def greedy_path_length(t: DecreasingTree, rng, sizes: list[int] | None = None) -> int:
    """Length of the randomized greedy root-to-leaf walk.

    At a branching vertex one subtree is deleted with probability
    proportional to its size and the walk descends into the other one;
    a lone child is followed deterministically.
    """
    if sizes is None:
        sizes = subtree_sizes(t)
    v = t.root
    length = 0
    while True:
        l, r = t.left[v], t.right[v]
        if l == NO_CHILD and r == NO_CHILD:
            return length
        if l == NO_CHILD:
            v = r
        elif r == NO_CHILD:
            v = l
        else:
            sl, sr = sizes[l], sizes[r]
            # delete the left subtree with probability sl/(sl+sr)
            v = r if rng.random() * (sl + sr) < sl else l
        length += 1


# ---------------------------------------------------------------------------
# Aggregated estimation


@dataclass(frozen=True)
class StatSummary:
    mean: float
    stderr: float | None  # None with fewer than 2 trials
    trials: int

    def to_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr, "trials": self.trials}


@dataclass(frozen=True)
class EstimateReport:
    n: int
    trials: int
    seed: int
    kmax: int
    statistics: dict[str, StatSummary] = field(default_factory=dict)

    def __getitem__(self, name: str) -> StatSummary:
        return self.statistics[name]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "kmax": self.kmax,
            "statistics": {
                name: s.to_dict() for name, s in sorted(self.statistics.items())
            },
        }


class _Welford:
    """Streaming mean/variance; order-independent up to float rounding."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        d = x - self.mean
        self.mean += d / self.count
        self.m2 += d * (x - self.mean)

    def summary(self) -> StatSummary:
        if self.count < 2:  # one sample gives no error estimate
            return StatSummary(mean=self.mean, stderr=None, trials=self.count)
        var = self.m2 / (self.count - 1)
        return StatSummary(
            mean=self.mean, stderr=sqrt(max(var, 0.0) / self.count), trials=self.count
        )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible per-trial stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(ss))


def estimate(
    n: int,
    trials: int,
    seed: int,
    kmax: int = 5,
    pair_kmax: int | None = None,
) -> EstimateReport:
    """Monte Carlo estimates of every per-tree statistic.

    Emitted statistic names (k, k1, k2 range over 0..kmax resp. 0..pair_kmax):

    * ``rank_fraction/k``    -- V_{n,k}/n
    * ``leaf_fraction``      -- L_n/n
    * ``root_rank_freq/k``   -- 1{root rank = k}
    * ``root_rank_mean``     -- S_n
    * ``greedy_gt/k``        -- 1{greedy walk length > k}
    * ``greedy_mean``        -- greedy walk length
    * ``pair_joint/k1,k2``   -- frequency of ordered distinct vertex pairs
                                with ranks (k1, k2), averaged within a tree
    * ``leaf_ratio/k``       -- (descendant-leaf pairs at rank k) / V_{n,k}
    * ``closest_ratio/k``    -- (closest-leaf pairs at rank k) / V_{n,k}
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if pair_kmax is None:
        pair_kmax = min(kmax, 2)
    stats: dict[str, _Welford] = {}

    def push(name: str, value: float) -> None:
        stats.setdefault(name, _Welford()).add(value)

    for trial in range(trials):
        rng = trial_rng(seed, trial)
        perm = rng.permutation(n) + 1
        tree = build_tree(perm.tolist())
        census = rank_census(tree)
        glen = greedy_path_length(tree, rng)
        if glen < census.root_rank:
            raise AssertionError("greedy walk shorter than the root rank")

        counts = census.rank_counts
        push("leaf_fraction", census.leaf_count / n)
        push("root_rank_mean", census.root_rank)
        push("greedy_mean", glen)
        for k in range(kmax + 1):
            push(f"rank_fraction/{k}", counts.get(k, 0) / n)
            push(f"root_rank_freq/{k}", 1.0 if census.root_rank == k else 0.0)
            push(f"greedy_gt/{k}", 1.0 if glen > k else 0.0)
        if n > 1:
            denom = n * (n - 1)
            for k1 in range(pair_kmax + 1):
                v1 = counts.get(k1, 0)
                for k2 in range(pair_kmax + 1):
                    v2 = counts.get(k2, 0)
                    same = v1 if k1 == k2 else 0
                    push(f"pair_joint/{k1},{k2}", (v1 * v2 - same) / denom)
        for k in range(kmax + 1):
            vk = counts.get(k, 0)
            if vk:
                push(f"leaf_ratio/{k}", census.leaf_pair_counts.get(k, 0) / vk)
                push(f"closest_ratio/{k}", census.closest_pair_counts.get(k, 0) / vk)

    return EstimateReport(
        n=n,
        trials=trials,
        seed=seed,
        kmax=kmax,
        statistics={name: w.summary() for name, w in stats.items()},
    )
