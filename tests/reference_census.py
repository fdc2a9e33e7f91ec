"""Reference census: one tree at a time, vertex by vertex, with child arrays.

This is the plain-Python census and greedy walk that ranktree.montecarlo
computed before its batched numpy kernel.  A tree is built by the
quadratic recursive maximum and kept as child-index arrays; the census
visits children before parents and keeps every per-vertex value in a
list, so the tests can require the kernel to give exactly the same
counts.  It is slow and only meant for small inputs.
"""

from dataclasses import dataclass

NO_CHILD = -1


@dataclass(frozen=True)
class Tree:
    """Flat tree: vertex i is position i of the permutation, label perm[i]."""

    n: int
    labels: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    root: int


@dataclass(frozen=True)
class Census:
    """Per-tree totals for one tree."""

    n: int
    rank_counts: dict[int, int]          # V_{n,k}
    leaf_count: int                      # L_n = V_{n,0}
    root_rank: int                       # S_n
    leaf_pair_counts: dict[int, int]     # rank-k vertex x descendant leaf
    closest_pair_counts: dict[int, int]  # rank-k vertex x closest leaf


def build_tree_naive(perm) -> Tree:
    """Quadratic recursive-max construction of the tree of a permutation."""
    perm = list(perm)
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
    return Tree(n=n, labels=tuple(perm), left=tuple(left), right=tuple(right), root=root)


def build_tree_stack(perm) -> Tree:
    """Linear-time construction for long rows: a stack holds the right
    spine of the tree of the labels read so far."""
    perm = list(perm)
    n = len(perm)
    left = [NO_CHILD] * n
    right = [NO_CHILD] * n
    stack: list[int] = []
    for i, label in enumerate(perm):
        below = NO_CHILD  # the last spine vertex smaller than label
        while stack and perm[stack[-1]] < label:
            below = stack.pop()
        left[i] = below
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    return Tree(n=n, labels=tuple(perm), left=tuple(left), right=tuple(right), root=stack[0])


def postorder(t: Tree) -> list[int]:
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


def rank_census(t: Tree) -> Census:
    """rank(leaf) = 0, rank(v) = 1 + min over existing children; the
    closest-leaf count of v adds up the counts of the children achieving
    the minimum."""
    n = t.n
    rank = [0] * n
    leaves_below = [0] * n
    closest = [0] * n
    rank_counts: dict[int, int] = {}
    leaf_pairs: dict[int, int] = {}
    closest_pairs: dict[int, int] = {}
    for v in postorder(t):
        children = [ch for ch in (t.left[v], t.right[v]) if ch != NO_CHILD]
        if not children:
            rank[v] = 0
            leaves_below[v] = 1
            closest[v] = 1
        else:
            best = min(rank[ch] for ch in children)
            rank[v] = best + 1
            leaves_below[v] = sum(leaves_below[ch] for ch in children)
            closest[v] = sum(closest[ch] for ch in children if rank[ch] == best)
        k = rank[v]
        rank_counts[k] = rank_counts.get(k, 0) + 1
        leaf_pairs[k] = leaf_pairs.get(k, 0) + leaves_below[v]
        closest_pairs[k] = closest_pairs.get(k, 0) + closest[v]
    return Census(
        n=n,
        rank_counts=rank_counts,
        leaf_count=rank_counts.get(0, 0),
        root_rank=rank[t.root],
        leaf_pair_counts=leaf_pairs,
        closest_pair_counts=closest_pairs,
    )


def subtree_sizes(t: Tree) -> list[int]:
    sizes = [1] * t.n
    for v in postorder(t):
        for ch in (t.left[v], t.right[v]):
            if ch != NO_CHILD:
                sizes[v] += sizes[ch]
    return sizes


def greedy_walk(t: Tree, rng) -> int:
    """Length of the randomized greedy root-to-leaf walk.

    At a branching vertex one subtree is deleted with probability
    proportional to its size and the walk descends into the other one;
    a lone child is followed deterministically.
    """
    size = subtree_sizes(t)
    v, length = t.root, 0
    while True:
        l, r = t.left[v], t.right[v]
        if l == NO_CHILD and r == NO_CHILD:
            return length
        if l == NO_CHILD:
            v = r
        elif r == NO_CHILD:
            v = l
        else:
            sl, sr = size[l], size[r]
            # delete the left subtree with probability sl/(sl+sr)
            v = r if rng.random() * (sl + sr) < sl else l
        length += 1
