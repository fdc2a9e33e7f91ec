"""Seeded simulation against the exact answers.

Builds random binary search trees from random permutations, takes a
per-vertex rank census of each, and compares the empirical averages
with the exact oracle values at the same n.  Everything is reproducible
from the seed alone.
"""

from ranktree import montecarlo, oracle

N, TRIALS, SEED = 500, 400, 2024

print(f"n = {N}, trials = {TRIALS}, seed = {SEED}")
report = montecarlo.estimate(N, TRIALS, SEED, kmax=3)

print()
print("empirical rank fractions vs the exact oracle (z = sigmas of deviation)")
print(f"{'k':>2} {'empirical':>12} {'stderr':>10} {'exact':>12} {'z':>7}")
for k, count in enumerate(oracle.expected_rank_counts(N, 3)):
    stat = report[f"rank_fraction/{k}"]
    exact = float(count) / N
    z = (stat.mean - exact) / stat.stderr if stat.stderr else 0.0
    print(f"{k:>2} {stat.mean:>12.6f} {stat.stderr:>10.6f} {exact:>12.6f} {z:>7.2f}")

print()
print("root rank frequencies vs exact probabilities")
for k in range(4):
    stat = report[f"root_rank_freq/{k}"]
    exact = float(oracle.root_rank_prob(N, k))
    print(f"k={k}: empirical {stat.mean:.4f} +- {stat.stderr:.4f}, exact {exact:.4f}")

print()
print("randomized greedy walk: always at least the root rank, usually longer")
root_mean = report["root_rank_mean"]
greedy_mean = report["greedy_mean"]
print(f"mean root rank   {root_mean.mean:.4f} +- {root_mean.stderr:.4f}")
print(f"mean greedy walk {greedy_mean.mean:.4f} +- {greedy_mean.stderr:.4f}")
