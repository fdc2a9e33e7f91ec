"""Word-size primes and exact integers rebuilt from their residues.

The finite-n oracle and the large products of the exact kernel both
compute modulo primes below 2^26 and rebuild exact integers by the
Chinese remainder theorem (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 5).  This module holds what they share: the prime sieve,
the moduli, the CRT rebuild, the reduction cadence of int64 accumulators,
and the exception both raise when residues do not rebuild to a
consistent value.

Moduli.  The Moduli for a bound B takes the fewest of the largest primes
below 2^26 whose product M exceeds 2·B, and the next prime as the check
prime; its q array holds the CRT primes, then the check prime.  Primes
go in decreasing order, so the q for a smaller bound is the first
columns of the q for a larger one.  A residue row is rebuilt from its
CRT columns into the symmetric range (-M/2, M/2]; a value above the
caller's bound in absolute value, or one that disagrees with the row's
check-prime column, raises InternalInconsistency.  The callers keep
their own scaling: the oracle multiplies by n! before the rebuild,
divides after it and requires values >= 0; the product maps table cells
to (b, c) terms.

The rebuild first combines the CRT primes two at a time, in numpy, into
moduli below 2^52, which halves the big-integer products per row.  Per
row it took 12-17 against 22-23 us for 66 primes and values of 1,700
bits, and 119-176 against 182-203 us for 270 primes and 7,000 bits
(best of 5, three alternating runs, 2-core Xeon, Python 3.11.7).  The
gain is less than half because a product by a two-digit int costs
CPython about twice one by a one-digit int; what is saved is the
Python-level loop and the additions.

The convolution kernels stay with their callers: the oracle's convolve
1-D levels in int64 and skip a band of zero rows, the product's convolve
(b, c) grids by FFT in float64.  Run on (rows, 1, primes) views, the
product's earlier int64 2-D kernel made one n = 400 oracle level 22-27 %
slower (6.5-7.5 ms against 5.3-6.1 ms) and made
`oracle --n 400 --kmax 5 --rho 7/5 --series-order 50` take 1.85-2.01 s
against 1.36-1.40 s in process (2-core Xeon, Python 3.11.7, numpy 2.4.6).

A product of two residues is below 2^52, so an int64 accumulator can take
_CADENCE such products on top of a reduced value before it must be
reduced modulo q again.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

__all__ = ["InternalInconsistency", "Moduli", "primes_upto"]


class InternalInconsistency(AssertionError):
    """Two independent exact routes to the same value disagreed."""


_PRIME_BOUND = 1 << 26
# Products of residues summed between two reductions: the accumulator then
# holds at most (q-1) + _CADENCE (q-1)^2 < 2^63.
_CADENCE = (2**63 - _PRIME_BOUND) // (_PRIME_BOUND - 1) ** 2
_SIEVE_WINDOW = 1 << 16


@lru_cache(maxsize=None)
def primes_upto(bound: int) -> tuple[int, ...]:
    """All primes <= bound, by sieve of Eratosthenes."""
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, is_p in enumerate(sieve) if is_p)


def _largest_primes(count: int) -> list[int]:
    """The `count` largest primes below _PRIME_BOUND, in decreasing order.

    Sieved in windows going down from the bound; every prime returned is
    above _PRIME_BOUND / 2, so each adds more than 25 bits to a product.
    """
    small_primes = primes_upto(math.isqrt(_PRIME_BOUND))
    found: list[int] = []
    hi = _PRIME_BOUND
    while len(found) < count:
        lo = hi - _SIEVE_WINDOW
        if lo < _PRIME_BOUND // 2:
            raise ValueError("too many primes asked for below 2^26")
        sieve = np.ones(hi - lo, bool)
        for p in small_primes:
            sieve[-lo % p :: p] = False
        found.extend(reversed((lo + np.flatnonzero(sieve)).tolist()))
        hi = lo
    return found[:count]


class Moduli:
    """The primes for integers of absolute value at most `bound`.

    modulus is the product M of the CRT primes, half = (M-1)/2 the largest
    bound a rebuild can check.  The rebuild combines the CRT primes two at
    a time, in order, into moduli below 2^52 (an odd last prime stays
    alone); coeffs[i] is 1 modulo the i-th of those moduli and 0 modulo
    the others.
    """

    def __init__(self, bound: int):
        # each prime is above 2^25, so the product of all candidates but the
        # last exceeds 2·bound, and the last is left over for the check
        primes = _largest_primes((2 * bound).bit_length() // 25 + 2)
        modulus, used = 1, 0
        while modulus <= 2 * bound:
            modulus *= primes[used]
            used += 1
        self.modulus = modulus
        self.half = modulus // 2
        self.check = primes[used]
        self.q = np.array(primes[: used + 1], np.int64)
        even, odd = primes[0 : used - 1 : 2], primes[1:used:2]
        # p' * ((r - r') / p' mod p) + r' is the residue modulo p·p' of the
        # integer that is r modulo p and r' modulo p'
        self._pair_inv = np.array([pow(p2, -1, p) for p, p2 in zip(even, odd)], np.int64)
        wide = [p * p2 for p, p2 in zip(even, odd)] + primes[used - 1 : used] * (used % 2)
        self.coeffs = [(modulus // m) * pow(modulus // m % m, -1, m) for m in wide]

    def rebuild(self, rows: np.ndarray, bound: int) -> list[int]:
        """The integers in [-bound, bound] with these residue rows, one per row.

        Each row is rebuilt by CRT into (-M/2, M/2] from its CRT columns; a
        value above `bound` in absolute value, or one that disagrees with
        the row's check-prime column, raises InternalInconsistency.
        """
        modulus, half, check = self.modulus, self.half, self.check
        rows = rows.astype(np.int64, copy=False)
        used = len(self.q) - 1
        r, r2 = rows[:, 0 : used - 1 : 2], rows[:, 1:used:2]
        p, p2 = self.q[0 : used - 1 : 2], self.q[1:used:2]
        wide = (r - r2) % p * self._pair_inv % p * p2 + r2
        if used % 2:
            wide = np.concatenate([wide, rows[:, used - 1 : used]], axis=1)
        out = []
        for w, last in zip(wide.tolist(), rows[:, -1].tolist()):
            x = sum(map(operator.mul, w, self.coeffs)) % modulus
            if x > half:
                x -= modulus
            if abs(x) > bound or x % check != last:
                raise InternalInconsistency(
                    f"residues give no integer within {bound.bit_length()} bits "
                    f"that agrees with the check prime {check}"
                )
            out.append(x)
        return out


def _powers(q: np.ndarray, count: int, base: int) -> np.ndarray:
    """base^j mod q for j < count: an int64 array of shape (count, primes)."""
    out = np.empty((count, len(q)), np.int64)
    out[0] = 1
    for j in range(1, count):
        out[j] = out[j - 1] * base % q
    return out
