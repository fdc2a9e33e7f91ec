"""Exact finite-n dynamic programs for rank statistics of random trees.

Ground truth for everything the generating-function layer and the
simulator predict.  Every table value v at size n (P(root rank > k), the
expectations E_{n,k}, f_{n,>k} and g_{n,k}) has a
denominator dividing n! and lies in [0, n], so n!·v is an integer in
[0, n·n!] (at n = 0 the one value is 1).

Residue form.  The tables hold v itself, not n!·v, modulo word-size primes:
each level is an int32 numpy array of shape (sizes, primes), 4 bytes per
size and prime, row m holding the value at size m modulo every prime.  In
this probability form the binomial weights of the recurrences cancel, e.g.

    P_k[m] = (1/m) sum_j P_{k-1}[j] P_{k-1}[m-1-j],

and since P_{k-1}[j] = 0 for 1 <= j <= k, the self-convolution visits only
j = 0 and k+1 <= j <= (m-1)/2, each pair j < m-1-j once.  So P_k is zero
at the sizes 1..k+1 and only the band from k+2 on is computed: there the
pair j = 0 is 2 P_{k-1}[m-1], with no product; the pairs with both
indices >= k+1 start at the size 2k+4 and the middle term at 2k+3, so
from k >= (n-2)/2 on a level is its predecessor shifted by one size,
P_k[m] = 2 P_{k-1}[m-1]/m.  The leaf-pair and closest-leaf tables are
(2/m) times a cross-convolution, and each rank count follows from one
weighted sum over a root-rank level pair, with no table of its own,

    E_{n,k} = d_n + 2(n+1) sum_{m<n} d_m / ((m+1)(m+2)),
    d_m = P_{k-1}[m] - P_k[m].

A level is computed whole, in whole-array steps, one per index j of the
convolution, for all sizes and primes at once.

Primes and CRT.  Tables up to size n use the moduli of ranktree.residues
for the bound n·n!: an accessor rebuilds n!·v there, requires it >= 0 and
divides by n!.  Every prime exceeds n + 2, so the inverses of m and
(m+1)(m+2) exist for every size in the tables.  Every level spans its
basis, the sizes 0..n, so a level once held is never refilled; a request
above n chooses new primes and drops every table.

Overflow.  The kernels read levels as int64 and write them as int32.  A
product of two residues is below 2^52.  The convolutions add one product
per step to int64 accumulators and reduce them modulo q every _CADENCE
steps, the most that the prime bound allows without reaching 2^63, so no
sum overflows at any n; the weighted sums add raw products in chunks of
_CADENCE sizes.  A root-rank level takes one more reduction, at the end:
the reduced pair sum plus the j = 0 term (below 2q), times 2/m, plus the
reduced middle term times 1/m, is below 3·2^52.

Cost: level k at size n takes about (n - 2k)^2/4 products per prime, with
about n log2(n)/26 primes, and from k >= (n-2)/2 on no product at all.
moment_gf_ratio(n, rho) needs all n levels, about n^3/24 products per
prime; it streams them on the primes for n, writing them into two
preallocated level buffers in turn and keeping one residue row of
E_{n,k} per level, and reads the levels already held, on the engine's
basis if it was built for n.  The exact E_{n,k} are kept per n, so
another rho at the same n costs no DP.  The stream takes 0.45-0.5 s at
n = 400, nearly all of it in the pair loop at numpy's int64 speed (about
1.35 ns a product and its add), and about 24 s at n = 1000 (2-core Xeon,
Python 3.11.7, numpy 2.4.6).  The counts are kept as the integers
n!·E_{n,k}, and the moment ratio sums them in integers with one division
at the end.

The stream in a worker.  rank_counts_in_background(n) forks one child
that runs the stream on the levels the engine holds at the fork and
writes its n residue rows (int64, one per k) into an anonymous shared
mmap.  `oracle --rho` fills the table's root-rank levels 0..kmax first
and then fills its pair levels and runs the series check in the parent
meanwhile, since neither reads the stream; the first rank_counts(n) or
moment_gf_ratio(n, rho) waits for the child and does the CRT rebuild and
the check-prime test, so every check runs in the parent.  It forks only
where os.fork exists, the affinity mask holds two CPUs or more and no
other thread runs; otherwise, and when the child exits non-zero, the
stream runs in process.  A child not
joined is killed and reaped however the body ends, and a child whose
parent is gone stops at its next level.  The child calls private kernels
only and leaves through os._exit, so it runs no exit handler and flushes
nothing of the parent's.  At n = 400 the parent's pair levels and series
check (about 0.2 s) overlap the child's stream: `oracle --n 400 --kmax 5
--rho 7/5 --series-order 50` takes 7-22 % less wall time, and from 2 %
less to 17 % more CPU time, the child's included (medians of four rounds
of 10 alternating pairs of benchmark runs).  How much depends on the
second CPU: single pairs ranged from 2 % slower with 25 % more CPU time
to 22 % faster with none.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from contextlib import contextmanager

import numpy as np

from .plring import Rational
from .residues import _CADENCE, InternalInconsistency, Moduli

__all__ = [
    "RankDP",
    "DEFAULT_N_CAP",
    "root_rank_tail",
    "root_rank_prob",
    "expected_rank_counts",
    "expected_leaf_pairs",
    "expected_leaf_pairs_tail",
    "expected_closest_pairs",
    "expected_subtrees_atleast",
    "moment_gf_ratio",
    "max_root_rank",
    "rank_counts_in_background",
]

# The CLI warns above this n.  A level costs O(n^2) residue products per
# prime and there are about n log2(n)/26 primes, so the rows k <= kmax grow
# about like n^3; --rho needs all n levels, about n^4.  Measured (2-core
# Xeon, Python 3.11.7): `oracle --kmax 5` takes 0.5-1.1 s at n = 500 and
# 4.2-4.7 s at n = 1000, and with --rho 7/5, whose stream runs in a worker
# beside the table, 1.3-1.8 s and 25-26 s (28 s with the stream in process).
DEFAULT_N_CAP = 500


def max_root_rank(n: int) -> int:
    """Largest achievable root rank: a chain of n vertices has root rank n-1."""
    return n - 1


class _Basis:
    """The moduli for tables up to size cap = n, and the per-size constants.

    Every level built on the basis has rows = cap + 1 rows, the sizes
    0..cap.  q is the moduli's q, the CRT primes then the check prime;
    fact[m], inv[m] and inv2[m] are m!, 1/m and 2/m modulo each of them,
    and w[m] = 1/((m+1)(m+2)).
    """

    def __init__(self, n: int):
        self.moduli = moduli = Moduli(max(n, 1) * math.factorial(n))
        if moduli.check <= n + 2:
            raise ValueError("n is too large for primes below 2^26")
        self.cap = n
        self.rows = n + 1
        self.q = q = moduli.q
        size = n + 3  # inv[3], read for E[L_n], exists from n = 1 on
        fact = np.ones((size, len(q)), np.int64)
        for m in range(1, size):
            fact[m] = fact[m - 1] * m % q
        inv_fact = np.empty_like(fact)
        inv_fact[-1] = [pow(int(f), -1, int(p)) for f, p in zip(fact[-1], q)]
        for m in range(size - 1, 0, -1):
            inv_fact[m - 1] = inv_fact[m] * m % q
        self.fact = fact
        self.inv = np.zeros_like(fact)
        self.inv[1:] = inv_fact[1:] * fact[:-1] % q
        self.inv2 = 2 * self.inv % q
        self.w = self.inv[1 : n + 2] * self.inv[2 : n + 3] % q

    def ones(self) -> np.ndarray:
        return np.ones((self.rows, len(self.q)), np.int32)

    def scaled(self, residues: np.ndarray, n: int) -> list[int]:
        """n! times the exact values at size n, from their residue rows, one row each."""
        bound = max(n, 1) * math.factorial(n)
        scaled = self.moduli.rebuild(residues * self.fact[n] % self.q, bound)
        if min(scaled) < 0:
            raise InternalInconsistency(f"oracle residues at n={n} give a negative value")
        return scaled

    def values(self, residues: np.ndarray, n: int) -> list[Rational]:
        """Exact values at size n from their residue rows, one row each."""
        fact = math.factorial(n)
        return [Rational(x) / fact for x in self.scaled(residues, n)]


def _p_level(
    prev: np.ndarray, k: int, q: np.ndarray, inv: np.ndarray, inv2: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write level k of the root-rank tail into the int64 out, from level k-1 in prev.

    Row m of out becomes P_k[m] mod q for m < len(out): 1 at m = 0, and
    (1/m) sum_{j+i=m-1} prev[j] prev[i] from m = 2 on.  Row 0 of prev must
    be 1 and rows 1..k of prev zero, so rows 1..k+1 of the level are zero
    and only the band from k+2 on is computed.  There the pair j = 0 gives
    2 prev[m-1], the pairs k+1 <= j < i exist from m = 2k+4 on and count
    twice, and the middle term prev[(m-1)/2]^2 falls on odd m >= 2k+3.
    inv and inv2 hold 1/m and 2/m; the band is reduced once, at the end.
    """
    rows = len(out)
    lo = k + 2
    prev = prev.astype(np.int64, copy=False)
    out[0] = 1
    out[1:lo] = 0
    if lo >= rows:
        return out
    band = out[lo:]
    band[:] = prev[lo - 1 : rows - 1]
    first = 2 * k + 4
    if first < rows:
        acc = np.zeros((rows - first, out.shape[1]), np.int64)
        terms = 0
        for j in range(k + 1, (rows - 1) // 2):
            acc[2 * j + 2 - first :] += prev[j] * prev[j + 1 : rows - 1 - j]
            terms += 1
            if terms == _CADENCE:
                acc %= q
                terms = 0
        band[first - lo :] += acc % q
    band *= inv2[lo:rows]
    if first - 1 < rows:
        mid = prev[k + 1 : rows // 2]
        band[k + 1 :: 2] += mid * mid % q * inv[first - 1 : rows : 2]
    band %= q
    return out


def _weighted(a: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_m a[m] w[m] mod q, reduced once per _CADENCE rows of raw products."""
    total = np.zeros(a.shape[1], np.int64)
    for start in range(0, len(a), _CADENCE):
        stop = start + _CADENCE
        total += (a[start:stop] * w[start:stop]).sum(axis=0) % q
    return total % q


def _cross_conv(a: np.ndarray, b: np.ndarray, lo: int, q: np.ndarray) -> np.ndarray:
    """sum_{j+i=m-1} a[j] b[i] mod q for the sizes 2 <= m < len(a), over the
    rows j of a from lo (those below must be zero) to the last nonzero one."""
    rows = len(a)
    a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
    nonzero = np.flatnonzero(a[: rows - 1].any(axis=1))
    acc = np.zeros((rows - 2, a.shape[1]), np.int64)
    terms = 0
    for j in range(lo, nonzero[-1] + 1 if len(nonzero) else lo):
        m0 = max(2, j + 1)
        acc[m0 - 2 :] += a[j] * b[m0 - 1 - j : rows - 1 - j]
        terms += 1
        if terms == _CADENCE:
            acc %= q
            terms = 0
    return acc % q


class RankDP:
    """Lazily grown residue tables; level k of each dict is an int32 array
    whose row m holds the value at size m modulo every prime of the basis.

    _p[k][m]  = P(root rank of the m-tree > k),      k >= 0 (1 for k < 0)
    _f[k][m]  = E[1{root rank > k} * (leaf count)],   k >= -1
    _g[k][m]  = E[1{root rank = k} * (closest-leaf count)]

    E[# vertices of rank k] at size n is one weighted sum over _p[k-1] and
    _p[k].  Accessors return exact Rationals.  Requests may come in any
    order.  Every held level spans the basis (_basis.rows sizes), so a
    level is computed once per basis and never refilled; a request above
    the basis' capacity starts again with more primes and drops every
    level.  A level past the largest root rank of an n-tree
    (max_root_rank(n) = n-1) is 0 at size n, and the accessors return that
    0 without any table.  At n = 0 no level is filled: p_gt is 1, f_gt and
    g_eq are 0 at every level they have, and e_count raises.
    """

    def __init__(self):
        self._basis: _Basis | None = None
        self._p: dict[int, np.ndarray] = {}
        self._f: dict[int, np.ndarray] = {}
        self._g: dict[int, np.ndarray] = {}
        self._e: dict[int, np.ndarray] = {}  # always empty, as _x; perfbench/tracing.py reads both
        self._x: dict[int, np.ndarray] = {}
        self._counts: dict[int, list[int]] = {}  # n! times rank_counts(n), by n
        self._background: dict[int, _StreamWorker] = {}  # rank_counts(n) in a worker, by n

    def _value(self, row, k: int, n: int, top: int) -> Rational:
        """Level k at size n from row(k); 0 above top, the last level that can be nonzero."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if k > top:
            return Rational(0)
        if self._basis is None or n > self._basis.cap:
            self._basis = _Basis(n)
            for table in (self._p, self._f, self._g):
                table.clear()
        return self._basis.values(row(k), n)[0]

    @staticmethod
    def _grow(table: dict, first: int, k: int, extend) -> np.ndarray:
        """Level k of a chain of levels.

        Filled bottom-up from the first level below k that is held, so a
        deep request needs no recursion; extend(level) computes a level
        whole.
        """
        if k < first:
            raise ValueError(f"level must be >= {first}")
        low = k
        while low >= first and low not in table:
            low -= 1
        for level in range(low + 1, k + 1):
            table[level] = extend(level)
        return table[k]

    # -- root rank ---------------------------------------------------------

    def _p_rows(self, k: int) -> np.ndarray:
        if k < 0:
            return self._basis.ones()  # p_{n,>k} = 1 for k <= -1
        return self._grow(self._p, 0, k, self._extend_p)

    def _extend_p(self, k: int) -> np.ndarray:
        b = self._basis
        prev = self._p_rows(k - 1)
        out = _p_level(prev, k, b.q, b.inv, b.inv2, np.empty(prev.shape, np.int64))
        return out.astype(np.int32)

    def p_gt(self, n: int, k: int) -> Rational:
        if n == 0:
            return Rational(1)  # p_{0,>k} := 1 at every k
        return self._value(lambda k: self._p_rows(k)[n : n + 1], k, n, max_root_rank(n) - 1)

    def p_eq(self, n: int, k: int) -> Rational:
        return self.p_gt(n, k - 1) - self.p_gt(n, k)

    # -- expected rank counts ----------------------------------------------

    def _e_row(self, k: int, n: int) -> np.ndarray:
        """E_{n,k} = d_n + 2(n+1) sum_{m<n} d_m w_m, d = P_{k-1} - P_k, as a residue row."""
        b = self._basis
        d = (self._p_rows(k - 1)[: n + 1] - self._p_rows(k)[: n + 1]) % b.q
        return (d[n : n + 1] + 2 * (n + 1) * _weighted(d[:n], b.w[:n], b.q)) % b.q

    def e_count(self, n: int, k: int) -> Rational:
        if n < 1:
            raise ValueError("n must be >= 1")
        return self._value(lambda k: self._e_row(k, n), k, n, max_root_rank(n))

    def rank_counts(self, n: int) -> list[Rational]:
        """Exact E_{n,k} for k = 0..n-1 (vertices of rank >= n do not exist).

        The levels are streamed: one held in _p is read, any other is
        computed from the previous level and dropped, so memory stays at
        two levels and one residue row per k.  The stream uses the primes
        for n alone, the engine's basis if it was built for n: those primes
        are the first columns of any basis that covers n.  Each n is
        streamed once per engine, and the values are kept for the next
        call, e.g. the moment ratio at another rho.  Under
        rank_counts_in_background(n) the residue rows come from the worker,
        and the rebuild and its checks run here all the same.
        """
        counts, fact = self._scaled_counts(n), math.factorial(n)
        return [Rational(x) / fact for x in counts]

    def _scaled_counts(self, n: int) -> list[int]:
        """n! E_{n,k} for k = 0..n-1, integers."""
        if n < 1:
            raise ValueError("n must be >= 1")
        counts = self._counts.get(n)
        if counts is None:
            counts = self._counts[n] = self._stream_counts(n)
        return counts

    def _stream_counts(self, n: int) -> list[int]:
        worker = self._background.pop(n, None)
        rows = worker.join() if worker is not None else None
        if rows is not None:
            return worker.basis.scaled(rows, n)
        b = self._stream_basis(n)
        return b.scaled(self._stream_rows(n, b, np.empty((n, len(b.q)), np.int64)), n)

    def _stream_basis(self, n: int) -> _Basis:
        return self._basis if self._basis is not None and self._basis.cap == n else _Basis(n)

    def _stream_rows(self, n: int, b: _Basis, out: np.ndarray, each_level=None) -> np.ndarray:
        """E_{n,k} mod b.q for k = 0..n-1 into the int64 rows of out, calling
        each_level(), if given, before each level."""
        rows, width = n + 1, len(b.q)
        w = b.w[:n]
        prev = b.ones()
        prev_sum = _weighted(prev[:n], w, b.q)
        buffers = (np.empty((rows, width), np.int64), np.empty((rows, width), np.int64))
        for k in range(n):
            if each_level is not None:
                each_level()
            held = self._p.get(k)
            if held is not None and len(held) >= rows:
                cur = held[:rows, :width].astype(np.int64)
            else:  # into the buffer that prev is not
                cur = _p_level(prev, k, b.q, b.inv, b.inv2, buffers[k % 2])
            # sum_{m<n} cur[m] w_m: row 0 is 1 and rows 1..k+1 are zero
            cur_sum = (w[0] + _weighted(cur[k + 2 : n], w[k + 2 :], b.q)) % b.q
            out[k] = (prev[n] - cur[n] + 2 * (n + 1) * (prev_sum - cur_sum)) % b.q
            prev, prev_sum = cur, cur_sum
        return out

    # -- descendant-leaf pairs ---------------------------------------------

    def _f_rows(self, k: int) -> np.ndarray:
        return self._grow(self._f, -1, k, self._extend_f)

    def _extend_f(self, k: int) -> np.ndarray:
        if k == -1:
            # f_{n,>-1} = E[L_n]: 1 at n = 1, (n+1)/3 for n >= 2
            b = self._basis
            tab = np.arange(1, b.rows + 1, dtype=np.int64)[:, None] * b.inv[3] % b.q
            tab[0] = 0
            tab[1:2] = 1
            return tab.astype(np.int32)
        return self._pair_level(self._f_rows(k - 1), self._p_rows(k - 1), k + 1)

    def _pair_level(self, a: np.ndarray, p: np.ndarray, lo: int) -> np.ndarray:
        """0 at sizes 0 and 1, (2/m) sum_{j >= lo} a[j] p[m-1-j] at size m >= 2."""
        b = self._basis
        out = np.zeros(a.shape, np.int32)
        out[2:] = _cross_conv(a, p, lo, b.q) * b.inv2[2 : b.rows] % b.q
        return out

    def f_gt(self, n: int, k: int) -> Rational:
        return self._value(lambda k: self._f_rows(k)[n : n + 1], k, n, max_root_rank(n) - 1)

    def f_eq(self, n: int, k: int) -> Rational:
        return self.f_gt(n, k - 1) - self.f_gt(n, k)

    # -- closest-leaf pairs --------------------------------------------------

    def _g_rows(self, k: int) -> np.ndarray:
        return self._grow(self._g, 0, k, self._extend_g)

    def _extend_g(self, k: int) -> np.ndarray:
        if k == 0:  # Bhat_0 = x: 1 at size 1, 0 elsewhere
            return (np.arange(self._basis.rows) == 1)[:, None] * self._basis.ones()
        # p_{m,>=k-1} = p_{m,>k-2}, which is 1 at m = 0
        return self._pair_level(self._g_rows(k - 1), self._p_rows(k - 2), k)

    def g_eq(self, n: int, k: int) -> Rational:
        return self._value(lambda k: self._g_rows(k)[n : n + 1], k, n, max_root_rank(n))


class _StreamWorker:
    """A forked child that streams an engine's rank_counts(n) residue rows.

    The child inherits the engine as it stands at the fork, its held levels
    included, runs RankDP._stream_rows on the basis chosen here, and writes
    the rows into an anonymous shared mmap; the parent keeps the basis and
    does the rebuild and its checks.  The child leaves through os._exit: 0
    once the rows are written, 1 on any exception, and 1 at the next level
    once its parent is gone.  SIGINT is blocked across the fork, so the
    child cannot raise out of the parent's frames before its try, and the
    parent raises a KeyboardInterrupt only once pid is set for kill.
    """

    def __init__(self, dp: RankDP, n: int):
        self.dp, self.n = dp, n
        self.basis = dp._stream_basis(n)
        self.pid = 0  # 0 before the fork, in the child, and once the worker is reaped
        self._memory: mmap.mmap | None = None

    def start(self) -> None:
        self._memory = mmap.mmap(-1, 8 * self.n * len(self.basis.q))
        parent = os.getpid()
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self.pid = os.fork()
            if self.pid == 0:
                self._work(parent)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})

    def _work(self, parent: int) -> None:
        code = 1
        try:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})

            def stop_if_orphaned():
                if os.getppid() != parent:
                    os._exit(1)

            out = np.frombuffer(self._memory, np.int64).reshape(self.n, -1)
            self.dp._stream_rows(self.n, self.basis, out, stop_if_orphaned)
            code = 0
        finally:
            os._exit(code)

    def join(self) -> np.ndarray | None:
        """The rows once the worker exits 0, else None; it is reaped either way."""
        status = os.waitpid(self.pid, 0)[1]
        self.pid = 0
        if os.waitstatus_to_exitcode(status) != 0:
            return None
        return np.frombuffer(self._memory, np.int64).reshape(self.n, -1).copy()

    def kill(self) -> None:
        """SIGKILL and reap the worker unless join has reaped it."""
        if self.pid > 0:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        if self._memory is not None:
            self._memory.close()


def _may_fork() -> bool:
    """fork exists, this process may run on two CPUs, and no other thread
    runs (a fork copies the calling thread alone)."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


_DEFAULT = RankDP()


@contextmanager
def rank_counts_in_background(n: int):
    """Stream the shared engine's rank_counts(n) in a forked worker while the
    body runs, where a second CPU is free for it.

    The worker starts from the levels the engine holds on entry, so the
    body should not need the counts before it has filled what it reads
    anyway; the first rank_counts(n) or moment_gf_ratio(n, rho) joins the
    worker, and runs the stream in process if the worker did not exit 0.
    On every way out of the body a worker not joined is killed and reaped.
    Without fork, a second CPU in the affinity mask, or with another thread
    running, nothing is forked, and a fork or mmap that fails leaves the
    stream in process too.
    """
    dp = _DEFAULT
    worker = None
    if n >= 1 and n not in dp._counts and n not in dp._background and _may_fork():
        worker = _StreamWorker(dp, n)
    try:
        if worker is not None:
            try:
                worker.start()
                dp._background[n] = worker
            except OSError:  # no process or no shared memory to be had: in process
                pass
        yield
    finally:
        if worker is not None:
            dp._background.pop(n, None)
            worker.kill()


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
    p, q = int(rho.numerator), int(rho.denominator)
    # with x_k = n! E_{n,k}, the ratio is sum_k x_k p^k q^(n-1-k) / (n n! q^(n-1)),
    # summed in integers by Horner in q: one gcd in all, where a sum of
    # rationals takes two a term
    total, power = 0, 1
    for x in _DEFAULT._scaled_counts(n):
        total = total * q + x * power
        power *= p
    return Rational(total) / (n * math.factorial(n) * q ** (n - 1))
