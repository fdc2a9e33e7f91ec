"""Reference census: one iterative post-order walk per tree, vertex by vertex.

This is the plain-Python census that ranktree.montecarlo computed before its
batched numpy kernel.  It works on a single DecreasingTree, visits children
before parents and keeps every per-vertex value in a list, so the tests can
require the kernel to give exactly the same counts.  It is slow and only
meant for small inputs.
"""

from ranktree.montecarlo import NO_CHILD, CensusReport, DecreasingTree, _validate


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


def postorder(t: DecreasingTree) -> list[int]:
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


def rank_census(t: DecreasingTree) -> CensusReport:
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
    for v in postorder(t):
        for ch in (t.left[v], t.right[v]):
            if ch != NO_CHILD:
                sizes[v] += sizes[ch]
    return sizes
