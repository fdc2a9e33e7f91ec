"""Reference oracle: the finite-n dynamic programs on big integers.

This is the DP that ranktree.oracle ran before its residue tables.  Entry n
of each table is n! times the value, and the convolutions carry binomial
weights, so every entry is an exact integer.  The tests require the
multimodular engine to give exactly the same Rationals.  It is slow and
only meant for n up to a few hundred.
"""

from ranktree.plring import Rational


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
    """

    def __init__(self):
        self._fact = [1]
        self._p: dict[int, list[int]] = {}
        self._e: dict[int, list[int]] = {}
        self._f: dict[int, list[int]] = {}
        self._g: dict[int, list[int]] = {}
        self._binom: list[list[int]] = []  # half rows, see _binom_half

    def _factorials(self, n: int) -> list[int]:
        f = self._fact
        while len(f) <= n:
            f.append(f[-1] * len(f))
        return f

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
