"""Random decreasing binary trees and seeded empirical rank statistics.

A permutation p of 1..n maps to the tree whose root carries the largest
label, with the left/right subtrees built from the substrings on either
side.  No child pointers are stored: the subtree of a vertex is an
interval of positions, and the root of a subtree its largest label.

The census runs as one numpy kernel on a chunk of trees at once.  The
chunk's labels sit side by side in one flat int32 array, each row behind
a sentinel larger than every label.  Every step is a whole-array
operation: the nearest larger label on either side of each vertex (L, R)
by a few single steps, then binary lifting over window maxima for the
bounds still short of it; the subtree of a vertex is the open interval
(L, R), so its size is R - L - 1 and its leaves are the local minima in
it; its parent is whichever of L and R carries the smaller label.  Ranks
are then filled in passes k = 0, 1, 2, ... from the leaves upwards, and
per-tree totals come from bincount.

Cost: the search for L and R takes _SHORT_STEPS = 3 single steps on
each side, which settle a bound at distance at most 4: about 80 % of the
bounds of a random permutation, since a vertex is the largest of its 5
nearest labels on one side with probability 1/5.  Only the other, far
bounds go through the ceil(log2 n) lifting rounds, so the search does
O(n log n) work on any input.  The lifting needs no padding in front of
the array: a window that would start before position 0 is read at a
negative index, which wraps onto the array's tail, and every window
there holds the closing sentinel, so the bound stays put.  Each rank
pass touches only the vertices ranked in it, so the passes do O(n) work
in all, but there is one pass per rank: a chunk of random permutations
needs about 8 at n = 1000 and 11 at n = 10^6, a sorted permutation n.
So the kernel on one sorted permutation of 10^5 takes about 0.8 s, most
of it per-pass numpy overhead, where a per-vertex walk takes about
0.2 s.  estimate() feeds the kernel chunks of about _CHUNK_LABELS =
16,384 labels, a fixed budget that sets its peak memory: about 80 bytes
a label, 1.3 MB a chunk.  A chunk holds at least one tree, so a single
trial at n = 10^6 takes well under a second and about 157 MB.

Reproducibility contract: estimate(n, trials, seed, ...) derives one
PCG64 stream per trial from numpy's SeedSequence, so the report depends
only on (n, trials, seed, kmax) and trials never share a stream.  Each
stream draws its permutation, then the random choices of that trial's
greedy walk.  The samples are folded into the running means and
variances in trial order, whatever the chunking, which is what makes the
report reproducible bit for bit: Welford accumulation taken in another
order differs in the last bits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import sqrt
from typing import NamedTuple

import numpy as np

from .residues import InternalInconsistency

__all__ = ["StatSummary", "EstimateReport", "estimate"]

# labels per census kernel call in estimate(); 16,384 keeps the kernel's
# arrays within about 1.3 MB (80 bytes a label), and larger chunks buy
# fewer numpy calls with peak memory: 65,536 cost 9 MB more
_CHUNK_LABELS = 16_384
# single steps each bound takes before the far ones go to binary lifting
_SHORT_STEPS = 3


# ---------------------------------------------------------------------------
# Batched census kernel


class _Forest(NamedTuple):
    """Per-position arrays of a chunk of trees laid out side by side.

    Position t*(n+1) is the sentinel in front of row t, and vertex i of
    row t sits at t*(n+1) + 1 + i; one more sentinel closes the array.
    The per-vertex entries at sentinels are meaningless.
    """

    n: int
    labels: np.ndarray   # the flat labels, sentinels n + 1 included
    rank: np.ndarray     # distance to the nearest leaf
    leaves: np.ndarray   # leaves in the subtree
    closest: np.ndarray  # leaves at distance rank
    roots: np.ndarray    # position of each row's root, in row order


def _nearest_larger(
    labels: np.ndarray, vertices: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the nearest larger label left and right of each vertex.

    Each vertex starts its two bounds at its neighbours, and a bound moves
    one position out while it sits on a smaller label: _SHORT_STEPS such
    steps settle most bounds of a random permutation.  The bounds left on
    a smaller label go on by binary lifting over window maxima: level k
    holds, at each position j, the largest label in positions
    j .. j + 2^k - 1 (cut at the array end), and for k from the top level
    down a bound moves 2^k further out whenever the window it would step
    over holds only smaller labels.  The sentinels stop every row, so a
    bound moves at most n - 1 positions and ceil(log2 n) levels suffice.

    A left window that would start before position 0 is read at a
    negative index, which wraps onto the array's tail: every window
    there holds the closing sentinel, larger than any label, so such a
    bound stays put, as it must in front of the sentinel at position 0.
    """
    lab = labels[vertices]
    lpos, rpos = vertices - 1, vertices + 1
    for _ in range(_SHORT_STEPS):
        lpos -= labels[lpos] < lab
        rpos += labels[rpos] < lab
    lfar = np.flatnonzero(labels[lpos] < lab)
    rfar = np.flatnonzero(labels[rpos] < lab)
    levels = [labels]
    for k in range(1, max(1, (n - 1).bit_length())):
        prev, s = levels[-1], 1 << (k - 1)
        level = prev.copy()
        np.maximum(prev[:-s], prev[s:], out=level[:-s])
        levels.append(level)
    lp, llab = lpos[lfar], lab[lfar]
    rp, rlab = rpos[rfar], lab[rfar]
    for k in range(len(levels) - 1, -1, -1):
        level, s = levels[k], 1 << k
        lp -= s * (level[lp - (s - 1)] < llab)
        rp += s * (level[rp] < rlab)
    lpos[lfar], rpos[rfar] = lp, rp
    return lpos, rpos


def _bounds(perms) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Flat labels of the rows of ``perms`` (see _Forest), vertex positions, L, R and n."""
    perms = np.asarray(perms)
    trees, n = perms.shape
    labels = np.full(trees * (n + 1) + 1, n + 1, dtype=np.int32)
    labels[:-1].reshape(trees, n + 1)[:, 1:] = perms
    vertices = np.flatnonzero(labels <= n)
    return (labels, vertices, *_nearest_larger(labels, vertices, n), n)


def _forest(perms) -> _Forest:
    """Tree structure and census of every row of ``perms`` (permutations of 1..n)."""
    labels, vertices, lpos, rpos, n = _bounds(perms)
    llab, rlab = labels[lpos], labels[rpos]

    # the subtree of a vertex is the open interval (L, R), a leaf's holds
    # only the vertex; the parent is the smaller of the two bounding labels,
    # and both are sentinels at a root
    parent = np.zeros(labels.size, dtype=np.intp)
    parent[vertices] = np.where(llab < rlab, lpos, rpos)
    is_lchild = np.zeros(labels.size, dtype=bool)  # the child of R
    is_lchild[vertices] = rlab < llab

    leaf_pos = vertices[rpos - lpos == 2]
    prefix = np.zeros(labels.size, dtype=np.int32)
    prefix[leaf_pos] = 1
    np.cumsum(prefix, out=prefix)
    leaves = np.zeros(labels.size, dtype=np.int32)
    leaves[vertices] = prefix[rpos - 1] - prefix[lpos]

    # pass k gives rank k to every vertex not yet ranked that has a child
    # of rank k-1, and sums the closest-leaf counts of those children; a
    # parent has at most one left and one right child, so the two sides
    # are scattered one after the other
    rank = np.zeros(labels.size, dtype=np.int32)
    closest = np.zeros(labels.size, dtype=np.int32)
    unranked = labels <= n
    unranked[leaf_pos] = False
    closest[leaf_pos] = 1
    frontier = leaf_pos
    k = 0
    while frontier.size:
        k += 1
        side = is_lchild[frontier]
        lkid, rkid = frontier[side], frontier[~side]
        lpar, rpar = parent[lkid], parent[rkid]
        keep = unranked[lpar]
        lkid, lpar = lkid[keep], lpar[keep]
        keep = unranked[rpar]
        rkid, rpar = rkid[keep], rpar[keep]
        closest[lpar] = closest[lkid]
        closest[rpar] += closest[rkid]
        unranked[lpar] = False
        fresh = unranked[rpar]  # not reached through a left child as well
        unranked[rpar] = False
        frontier = np.concatenate((lpar, rpar[fresh]))
        rank[frontier] = k

    roots = vertices[llab == rlab]
    return _Forest(n, labels, rank, leaves, closest, roots)


class _Totals(NamedTuple):
    """Per-tree sums over the vertices of each rank; row t, column k."""

    rank_counts: np.ndarray
    leaf_pairs: np.ndarray     # descendant leaves
    closest_pairs: np.ndarray  # closest leaves
    root_rank: np.ndarray      # one entry per tree


def _totals(forest: _Forest, min_ranks: int = 1) -> _Totals:
    """Per-tree totals of a forest, with at least ``min_ranks`` columns."""
    trees, width = forest.roots.size, forest.n + 1

    def rows(a: np.ndarray) -> np.ndarray:
        return a[:-1].reshape(trees, width)[:, 1:].ravel()

    rank = rows(forest.rank)
    ranks = max(min_ranks, int(rank.max()) + 1)
    key = rank + ranks * np.repeat(np.arange(trees), forest.n)

    def per_rank(weights=None) -> np.ndarray:
        # float64 weights add integers exactly while the sums stay below 2^53
        out = np.bincount(key, weights, minlength=trees * ranks).reshape(trees, ranks)
        return out.astype(np.int64)

    return _Totals(
        rank_counts=per_rank(),
        leaf_pairs=per_rank(rows(forest.leaves)),
        closest_pairs=per_rank(rows(forest.closest)),
        root_rank=forest.rank[forest.roots].astype(np.int64),
    )


def _greedy_walk(labels: np.ndarray, lo: int, hi: int, rng) -> int:
    """Length of the randomized greedy walk down the tree of labels[lo+1:hi].

    The walk starts at the root, the largest label between the sentinels
    at lo and hi.  A vertex v whose subtree is the open interval (lo, hi)
    has a left subtree of v - lo - 1 vertices and a right one of
    hi - v - 1, each rooted at the largest label on its side.  At a
    branching vertex one subtree is deleted with probability proportional
    to its size and the walk descends into the other one; a lone child is
    followed deterministically.  A step scans the subtree it enters, so a
    walk down a sorted row costs O(n^2); a random one is short.
    """
    visited = 0
    while hi - lo > 1:
        v = lo + 1 + int(labels[lo + 1 : hi].argmax())
        sl, sr = v - lo - 1, hi - v - 1
        # delete the left subtree with probability sl/(sl+sr)
        if sr and (not sl or rng.random() * (sl + sr) < sl):
            lo = v  # into the right subtree, (v, hi)
        else:
            hi = v  # into the left one, (lo, v); past a leaf, empty
        visited += 1
    return visited - 1


# ---------------------------------------------------------------------------
# Aggregated estimation


@dataclass(frozen=True)
class StatSummary:
    mean: float
    stderr: float | None  # None with fewer than 2 trials
    trials: int

    def to_dict(self) -> dict:
        return asdict(self)


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
        return asdict(self)


class _Welford:
    """Streaming mean/variance of several statistics, one trial at a time.

    Each update is the scalar Welford step applied elementwise, so every
    statistic goes through the same float operations, in the same order,
    as an accumulator fed its samples one by one.
    """

    def __init__(self, names: list[str]):
        self.names = names
        self.count = np.zeros(len(names), dtype=np.int64)
        self.mean = np.zeros(len(names))
        self.m2 = np.zeros(len(names))

    def add(self, x: np.ndarray, present: np.ndarray) -> None:
        """Fold in one trial's samples; only the ``present`` ones count."""
        self.count += present
        d = x - self.mean
        self.mean += np.divide(d, self.count, out=np.zeros_like(d), where=present)
        self.m2 += np.where(present, d * (x - self.mean), 0.0)

    def summaries(self) -> dict[str, StatSummary]:
        out = {}
        for name, count, mean, m2 in zip(
            self.names, self.count.tolist(), self.mean.tolist(), self.m2.tolist()
        ):
            if count == 0:
                continue
            stderr = None  # one sample gives no error estimate
            if count >= 2:
                stderr = sqrt(max(m2 / (count - 1), 0.0) / count)
            out[name] = StatSummary(mean=mean, stderr=stderr, trials=count)
        return out


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible per-trial stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(ss))


def _samples(
    tot: _Totals, glen: np.ndarray, n: int, kmax: int
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every statistic's sample in each tree of a chunk, one column each.

    Returns the column names, the samples (one row per tree) and whether
    each sample exists: the ratios at rank k only where the tree has a
    vertex of rank k.  Integer counts are divided as floats, which matches
    Python's int division while they stay below 2^53.
    """
    counts, root = tot.rank_counts, tot.root_rank
    ks = np.arange(kmax + 1)
    vk = counts[:, ks]
    names = ["leaf_fraction", "root_rank_mean", "greedy_mean"]
    blocks = [counts[:, :1] / n, root[:, None], glen[:, None]]
    for stat, block in (
        ("rank_fraction", vk / n),
        ("root_rank_freq", root[:, None] == ks),
        ("greedy_gt", glen[:, None] > ks),
    ):
        names += [f"{stat}/{k}" for k in ks]
        blocks.append(block)
    if n > 1:
        pks = np.arange(min(kmax, 2) + 1)
        v = counts[:, pks]
        joint = v[:, :, None] * v[:, None, :]
        joint[:, pks, pks] -= v  # ordered pairs of distinct vertices
        names += [f"pair_joint/{k1},{k2}" for k1 in pks for k2 in pks]
        blocks.append(joint.reshape(root.size, -1) / (n * (n - 1)))
    always = sum(block.shape[1] for block in blocks)
    present = vk > 0
    for stat, pairs in (("leaf_ratio", tot.leaf_pairs), ("closest_ratio", tot.closest_pairs)):
        names += [f"{stat}/{k}" for k in ks]
        blocks.append(np.divide(pairs[:, ks], vk, out=np.zeros(vk.shape), where=present))
    exists = np.hstack([np.ones((root.size, always), dtype=bool), present, present])
    return names, np.hstack(blocks, dtype=float), exists


def estimate(n: int, trials: int, seed: int, kmax: int = 5) -> EstimateReport:
    """Monte Carlo estimates of every per-tree statistic.

    Emitted statistic names (k ranges over 0..kmax, k1 and k2 over
    0..min(kmax, 2)):

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

    ``leaf_ratio/k`` and ``closest_ratio/k`` average over the trials that
    have a vertex of rank k.  Trials run in chunks of about _CHUNK_LABELS
    labels through the census kernel; the report does not depend on it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    width = n + 1
    per_chunk = max(1, _CHUNK_LABELS // width)
    acc = None
    for first in range(0, trials, per_chunk):
        rngs = [trial_rng(seed, t) for t in range(first, min(first + per_chunk, trials))]
        forest = _forest(np.stack([rng.permutation(n) for rng in rngs]) + 1)
        tot = _totals(forest, kmax + 1)
        glen = np.array([
            _greedy_walk(forest.labels, row * width, (row + 1) * width, rng)
            for row, rng in enumerate(rngs)
        ])
        if np.any(glen < tot.root_rank):
            raise InternalInconsistency("greedy walk shorter than the root rank")
        names, values, exists = _samples(tot, glen, n, kmax)
        if acc is None:
            acc = _Welford(names)
        for x, present in zip(values, exists):
            acc.add(x, present)

    return EstimateReport(
        n=n,
        trials=trials,
        seed=seed,
        kmax=kmax,
        statistics=acc.summaries(),
    )
