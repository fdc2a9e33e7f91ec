"""Exact finite-n dynamic programs for rank statistics of random trees.

Ground truth for everything the generating-function layer and the
simulator predict.  All probabilities p_{n,k} and expectations E_{n,k},
f_{n,k}, g_{n,k} have denominators dividing n!, so the tables are kept
as integer numerators scaled by n!; the convolutions then run on big
ints with binomial weights, which is far cheaper than reducing a
fraction per addition.  Public accessors return exact Rationals.
"""

from __future__ import annotations

import math

from .genfun import InternalInconsistency
from .plring import Rational

__all__ = [
    "RankDP",
    "DEFAULT_N_CAP",
    "root_rank_tail",
    "root_rank_prob",
    "expected_rank_counts",
    "expected_leaf_pairs",
    "expected_leaf_pairs_tail",
    "expected_closest_pairs",
    "leaf_depth_profile",
    "external_depth_profile",
    "expected_subtrees_atleast",
    "moment_gf_ratio",
    "max_root_rank",
]

# The DPs are O(n^2 kmax) in big-int arithmetic; the CLI refuses larger n
# unless asked explicitly.
DEFAULT_N_CAP = 500


def max_root_rank(n: int) -> int:
    """Largest achievable root rank: a chain of n vertices has root rank n-1."""
    return n - 1


def _scaled_prefix(tab: list[int], fact: list[int]) -> int:
    """(m-1)! * sum_{j<m} tab[j]/j!  for m = len(tab)."""
    m = len(tab)
    total = 0
    ratio = 1  # (m-1)!/j!, built from j = m-1 downward
    for j in range(m - 1, -1, -1):
        total += tab[j] * ratio
        ratio *= j if j else 1
    return total


class RankDP:
    """Lazily grown exact tables; entry n of each list is n! times the value.

    p_gt[k][n]  = n! * P(root rank of the n-tree > k),      k >= -1
    e[k][n]     = n! * E[# vertices of rank k]
    f_gt[k][n]  = n! * E[1{root rank > k} * (leaf count)]
    g[k][n]     = n! * E[1{root rank = k} * (closest-leaf count)]
    x[j][n]     = n! * E[# leaves at depth j]
    """

    def __init__(self, n: int = 0, kmax: int = -1):
        self._fact = [1]
        self._p: dict[int, list[int]] = {}
        self._e: dict[int, list[int]] = {}
        self._f: dict[int, list[int]] = {}
        self._g: dict[int, list[int]] = {}
        self._x: dict[int, list[int]] = {}
        self._binom: list[list[int]] = []  # half rows, see _binom_half
        if n > 0 and kmax >= 0:
            self.ensure(n, kmax)

    def _factorials(self, n: int) -> list[int]:
        f = self._fact
        while len(f) <= n:
            f.append(f[-1] * len(f))
        return f

    def ensure(self, n: int, kmax: int) -> None:
        for k in range(kmax + 1):
            self._p_table(k, n)

    def _binom_half(self, m: int) -> list[int]:
        """C(m, j) for j <= m // 2; the rest follows from C(m, j) = C(m, m - j).

        Rows are built once per m and kept, since every table convolves at
        the same sizes.
        """
        rows = self._binom
        while len(rows) <= m:
            r = len(rows)
            row = [1]
            c = 1
            for j in range(1, r // 2 + 1):
                c = c * (r - j + 1) // j
                row.append(c)
            rows.append(row)
        return rows[m]

    def _conv(self, a: list[int], b: list[int], n: int) -> int:
        """sum_{j=0}^{n-1} C(n-1, j) a[j] b[n-1-j]."""
        m = n - 1
        half = self._binom_half(m)
        total = 0
        for j in range(n):
            aj = a[j]
            if aj:
                bj = b[m - j]
                if bj:
                    total += half[j if 2 * j <= m else m - j] * aj * bj
        return total

    def _conv_self(self, a: list[int], n: int) -> int:
        """sum_{j=0}^{n-1} C(n-1, j) a[j] a[n-1-j], halved by symmetry."""
        row = self._binom_half(n - 1)
        total = 0
        half = (n - 1) // 2
        for j in range(half + 1):
            aj = a[j]
            if aj:
                bj = a[n - 1 - j]
                if bj:
                    term = row[j] * aj * bj
                    total += term if 2 * j == n - 1 else 2 * term
        return total

    # -- root rank ---------------------------------------------------------

    def _p_table(self, k: int, n: int) -> list[int]:
        fact = self._factorials(n)
        if k <= -1:
            return fact  # p_{n,>-1} = 1, and p_{n,>k} = 1 below that
        tab = self._p.setdefault(k, [1, 0])  # p_{0,>k} := 1, p_{1,>k} = 0
        if len(tab) <= n:
            prev = self._p_table(k - 1, n)
            for m in range(len(tab), n + 1):
                if m <= k + 1:
                    tab.append(0)  # even a chain is too short for rank > k
                else:
                    tab.append(self._conv_self(prev, m))
        return tab

    def p_gt(self, n: int, k: int) -> Rational:
        if n < 0:
            raise ValueError("n must be >= 0")
        tab = self._p_table(k, n)
        return Rational(tab[n]) / self._fact[n]

    def p_eq(self, n: int, k: int) -> Rational:
        return self.p_gt(n, k - 1) - self.p_gt(n, k)

    # -- expected rank counts ----------------------------------------------

    def _e_table(self, k: int, n: int) -> list[int]:
        tab = self._e.setdefault(k, [0, 1 if k == 0 else 0])
        if len(tab) <= n:
            hi = self._p_table(k - 1, n)
            lo = self._p_table(k, n)
            fact = self._factorials(n)
            run = _scaled_prefix(tab, fact)
            for m in range(len(tab), n + 1):
                val = (hi[m] - lo[m]) + 2 * run
                tab.append(val)
                run = run * m + val
        return tab

    def e_count(self, n: int, k: int) -> Rational:
        if n < 1:
            raise ValueError("n must be >= 1")
        tab = self._e_table(k, n)
        return Rational(tab[n]) / self._factorials(n)[n]

    # -- descendant-leaf pairs ---------------------------------------------

    def _f_table(self, k: int, n: int) -> list[int]:
        fact = self._factorials(n)
        if k == -1:
            # f_{n,>-1} = E[L_n]: 1 at n = 1, (n+1)/3 for n >= 2
            tab = self._f.setdefault(-1, [0, 1])
            for m in range(len(tab), n + 1):
                tab.append(fact[m] * (m + 1) // 3)
            return tab
        tab = self._f.setdefault(k, [0, 0])  # f_{0,>k} = 0, f_{1,>k} = 0
        if len(tab) <= n:
            fprev = self._f_table(k - 1, n)
            pprev = self._p_table(k - 1, n)
            for m in range(len(tab), n + 1):
                tab.append(2 * self._conv(fprev, pprev, m))
        return tab

    def f_gt(self, n: int, k: int) -> Rational:
        tab = self._f_table(k, n)
        return Rational(tab[n]) / self._factorials(n)[n]

    def f_eq(self, n: int, k: int) -> Rational:
        return self.f_gt(n, k - 1) - self.f_gt(n, k)

    # -- closest-leaf pairs --------------------------------------------------

    def _g_table(self, k: int, n: int) -> list[int]:
        if k == 0:
            tab = self._g.setdefault(0, [0, 1])  # Bhat_0 = x
            tab.extend([0] * (n + 1 - len(tab)))
            return tab
        tab = self._g.setdefault(k, [0, 0])
        if len(tab) <= n:
            gprev = self._g_table(k - 1, n)
            # p_{m,>=k-1} = p_{m,>k-2}, with p_{0,>=.} = 1 already built in
            pprev = self._p_table(k - 2, n)
            for m in range(len(tab), n + 1):
                tab.append(2 * self._conv(gprev, pprev, m))
        return tab

    def g_eq(self, n: int, k: int) -> Rational:
        tab = self._g_table(k, n)
        return Rational(tab[n]) / self._factorials(n)[n]

    # -- leaf depth profile --------------------------------------------------

    def _x_table(self, j: int, n: int) -> list[int]:
        tab = self._x.setdefault(j, [0, 1 if j == 0 else 0])
        if j == 0:
            tab.extend([0] * (n + 1 - len(tab)))
            return tab
        if len(tab) <= n:
            prev = self._x_table(j - 1, n)
            fact = self._factorials(n)
            run = _scaled_prefix([prev[i] for i in range(len(tab))], fact)
            for m in range(len(tab), n + 1):
                tab.append(2 * run)
                run = run * m + prev[m]
        return tab

    def x_profile(self, n: int, j: int) -> Rational:
        tab = self._x_table(j, n)
        return Rational(tab[n]) / self._factorials(n)[n]


_DEFAULT = RankDP()


# ---------------------------------------------------------------------------
# Module-level accessors (shared lazily grown table)


def root_rank_tail(n: int, k: int) -> Rational:
    """Exact P(root rank of the random n-tree exceeds k)."""
    return _DEFAULT.p_gt(n, k)


def root_rank_prob(n: int, k: int) -> Rational:
    """Exact P(root rank of the random n-tree equals k)."""
    return _DEFAULT.p_eq(n, k)


def expected_rank_counts(n: int, kmax: int) -> list[Rational]:
    """Exact E_{n,k} for k = 0..kmax."""
    return [_DEFAULT.e_count(n, k) for k in range(kmax + 1)]


def expected_leaf_pairs(n: int, k: int) -> Rational:
    """Exact f_{n,k}: E[1{root rank = k} * leaf count]."""
    return _DEFAULT.f_eq(n, k)


def expected_leaf_pairs_tail(n: int, k: int) -> Rational:
    """Exact f_{n,>k}: E[1{root rank > k} * leaf count]."""
    return _DEFAULT.f_gt(n, k)


def expected_closest_pairs(n: int, k: int) -> Rational:
    """Exact g_{n,k}: E[1{root rank = k} * closest-leaf count]."""
    return _DEFAULT.g_eq(n, k)


def leaf_depth_profile(n: int, j: int) -> Rational:
    """Exact E[X_{n,j}], the expected number of leaves at depth j."""
    return _DEFAULT.x_profile(n, j)


def external_depth_profile(n: int, j: int) -> Rational:
    """Exact expected external-node depth profile: 2^j |s(n,j)| / n!."""
    if n < 1 or j < 0:
        raise ValueError("need n >= 1, j >= 0")
    return Rational(2) ** j * _stirling_cycle(n, j) / Rational(math.factorial(n))


def _stirling_cycle(n: int, j: int) -> int:
    """Unsigned Stirling number of the first kind |s(n, j)|."""
    if j > n:
        return 0
    row = [1]  # |s(0, 0)|
    for m in range(1, n + 1):
        new = [0] * (min(m, j) + 1)
        for t in range(len(new)):
            above = row[t] if t < len(row) else 0
            left = row[t - 1] if 0 < t <= len(row) else 0
            new[t] = left + (m - 1) * above
        row = new
    return row[j] if j < len(row) else 0


def expected_subtrees_atleast(n: int, ell: int) -> Rational:
    """Exact E[Y_{n,ell}], the number of subtrees on >= ell vertices.

    Computed by the recurrence E[Y_n] = 1 + (2/n) sum_{j<n} E[Y_j] (n >= ell)
    and asserted equal to the closed form (n+1)(2/(ell+1) - 1/(n+1)).
    """
    if ell < 1 or n < ell:
        raise ValueError("need 1 <= ell <= n")
    fact = [1]
    for m in range(1, n + 1):
        fact.append(fact[-1] * m)
    tab = [0] * ell  # m! * E[Y_{m,ell}] = 0 for m < ell
    run = 0  # (m-1)! * sum_{j<m} E[Y_j], zero while m <= ell
    for m in range(ell, n + 1):
        val = fact[m] + 2 * run
        tab.append(val)
        run = run * m + val if m > 0 else val
    value = Rational(tab[n]) / fact[n]
    closed = (n + 1) * (Rational(2) / (ell + 1) - Rational(1) / (n + 1))
    if value != closed:
        raise InternalInconsistency(
            f"subtree-count DP {value} != closed form {closed} at n={n}, ell={ell}"
        )
    return value


def moment_gf_ratio(n: int, rho) -> Rational:
    """Exact (1/n) * sum_k rho^k E_{n,k} for rational rho > 0."""
    rho = Rational(rho)
    if not rho > 0:
        raise ValueError("rho must be positive")
    total = Rational(0)
    for k in range(n):  # vertices of rank k exist only for k <= n-1
        total += rho**k * _DEFAULT.e_count(n, k)
    return total / n
