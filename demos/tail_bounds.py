"""Exact tails squeezed between proven envelopes.

1 - S_k, the limiting fraction of vertices at distance more than k from
their nearest descendant leaf, decays geometrically.  The moments
I_{k,1} of a randomized greedy root-to-leaf walk give the sharp upper
bound 2 I_{k,1}; the constant alpha_0 ~ 0.373 governs the exponential
lower reference.  Whether the decay rate of the tails itself converges
is open, so the last column is reported, never asserted.
"""

from ranktree import genfun

table = genfun.tail_report(5)
a0 = table.alpha0
print(f"alpha_0 = {a0:.12f}  (root of a + a log(2/a) = 1)")
print()
print(f"{'k':>2} {'1-S_k':>12} {'2 I_k1':>12} {'(6k+7)/3^k+1':>13} {'lower ref':>12}")
for row in table.rows:
    print(
        f"{row.k:>2} {float(row.exact_tail):>12.8f} {float(row.moment_bound):>12.8f}"
        f" {float(row.theorem_bound):>13.8f} {row.lower_reference:>12.8f}"
    )

print()
print("successive tail ratios (open question: do they converge?)")
for row in table.rows[1:]:
    ratio = float(row.exact_tail / row.exact_tail_prev)
    print(f"k={row.k}: (1 - S_k)/(1 - S_(k-1)) = {ratio:.6f}")
print(f"for comparison: 1/3 = {1 / 3:.6f}, e^(-1/alpha_0) = {2.718281828 ** (-1 / a0):.6f}")
