"""Word-size primes and exact integers rebuilt from their residues.

The finite-n oracle and the large products of the exact kernel both
compute modulo primes below 2^26 and rebuild exact integers by the
Chinese remainder theorem (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 5).  This module holds what they share: the primes, the
reduction cadence of int64 accumulators, and the exception both raise
when residues do not rebuild to a consistent value.

A product of two residues is below 2^52, so an int64 accumulator can take
_CADENCE such products on top of a reduced value before it must be
reduced modulo q again.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["InternalInconsistency"]


class InternalInconsistency(AssertionError):
    """Two independent exact routes to the same value disagreed."""


_PRIME_BOUND = 1 << 26
# Products of residues summed between two reductions: the accumulator then
# holds at most (q-1) + _CADENCE (q-1)^2 < 2^63.
_CADENCE = (2**63 - _PRIME_BOUND) // (_PRIME_BOUND - 1) ** 2
_SIEVE_WINDOW = 1 << 16

def _largest_primes(count: int) -> list[int]:
    """The `count` largest primes below _PRIME_BOUND, in decreasing order.

    Sieved in windows going down from the bound; every prime returned is
    above _PRIME_BOUND / 2, so each adds more than 25 bits to a product.
    """
    root = math.isqrt(_PRIME_BOUND)
    small = np.ones(root + 1, bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    small_primes = np.flatnonzero(small).tolist()
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


def _crt_primes(bound: int) -> tuple[list[int], int, int]:
    """The fewest largest primes whose product exceeds `bound`, that
    product, and the next prime, which serves as the check prime."""
    # each prime is above 2^25, so the product of all candidates but the
    # last exceeds bound, and the last is left over for the check
    primes = _largest_primes(bound.bit_length() // 25 + 2)
    modulus, used = 1, 0
    while modulus <= bound:
        modulus *= primes[used]
        used += 1
    return primes[:used], modulus, primes[used]


def _crt_coefficients(primes: list[int], modulus: int) -> list[int]:
    """c_i with c_i = 1 mod primes[i] and 0 mod the others: an integer
    with residues r_i is then sum_i r_i c_i modulo the product."""
    return [(modulus // p) * pow(modulus // p % p, -1, p) for p in primes]


def _powers(q: np.ndarray, count: int, base: int) -> np.ndarray:
    """base^j mod q for j < count: an int64 array of shape (count, primes)."""
    out = np.empty((count, len(q)), np.int64)
    out[0] = 1
    for j in range(1, count):
        out[j] = out[j - 1] * base % q
    return out
