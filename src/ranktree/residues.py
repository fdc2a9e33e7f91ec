"""Word-size primes and the exact maps between integers and their residues.

The finite-n oracle and the large products of the exact kernel both
compute modulo primes below 2^26 and rebuild exact integers by the
Chinese remainder theorem (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 5).  This module holds what they share: the prime sieve,
the moduli with both maps, the reduction cadence of int64 accumulators,
and the exception both raise when residues do not rebuild to a
consistent value.

Moduli.  The Moduli for a bound B takes the fewest of the largest primes
below 2^26 whose product M exceeds 2·B, and the next prime as the check
prime; its q array holds the CRT primes, then the check prime.  Primes
go in decreasing order, so the q for a smaller bound is the first
columns of the q for a larger one.  Moduli.rebuild checks every value
against the caller's bound and the check prime.  The callers keep
their own scaling: the oracle multiplies by n! before the rebuild,
divides after it and requires values >= 0; the product maps table cells
to (b, c) terms.

The maps.  Integers cross into residues and back as rows of 16-bit limbs,
least significant first, and each direction is one float64 matrix
product.  Moduli.residues multiplies the limbs of the integers by the
table of 2^(16j) mod q, for all primes at once.  Moduli.rebuild
multiplies the CRT columns of the residue rows by the limbs of the CRT
coefficients, then carries each row's limb sums into one integer: the
sums are cut into four 16-bit pieces, and each piece reads back with one
int.from_bytes.  Both products are exact by one lemma: a value below
2^26 times a limb below 2^16 is below 2^42, so fewer than 2^11 such
terms sum below 2^53 in any order.  Moduli enforces it rather than round:
it refuses, with CapacityExceeded, a bound that needs 2^11 CRT primes or
more, and integers of 2^11 limbs or more.  A rebuild takes 64 rows at a
time, gathered from the caller's table when it names the rows to rebuild,
and a reduction 512 integers, which bounds the memory of their float64
matrices.  The products are numpy's `@`, a BLAS dgemm, which the
lemma keeps exact whatever order and blocking the BLAS sums in, on the
one OpenBLAS thread the package sets (see ranktree/__init__.py).  On a
k = 8 rebuild block it is about 8 times faster than numpy's einsum.

The convolution kernels stay with their callers: the oracle's convolve
1-D levels in int64 and skip a band of zero rows, the product's convolve
(b, c) grids by FFT in float64.  The product's earlier int64 2-D kernel,
run on the oracle's levels, made `oracle --n 400` about 40 % slower.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["CapacityExceeded", "InternalInconsistency", "Moduli", "primes_upto"]


class InternalInconsistency(AssertionError):
    """Two independent exact routes to the same value disagreed."""


class CapacityExceeded(ValueError):
    """A bound or an integer past what the exact float64 maps can take.

    Valid input can reach it in the middle of a run, so it is not a usage
    error; it is a ValueError for callers that treat it as any refusal.
    """


_PRIME_BOUND = 1 << 26
# Products of residues summed between two reductions: the accumulator then
# holds at most (q-1) + _CADENCE (q-1)^2 < 2^63.
_CADENCE = (2**63 - _PRIME_BOUND) // (_PRIME_BOUND - 1) ** 2
_SIEVE_WINDOW = 1 << 16
_LIMB = 16  # bits in a limb of both maps
# an exact float64 sum of the maps has fewer than _TERMS terms, each below
# 2^26 · 2^16 = 2^42
_TERMS = 1 << 11
_BLOCK = 64  # rows a rebuild turns into Python ints at a time
# integers a reduction turns into limbs at a time: 84 -> 8 MB on 9,750 of
# 14,400 bits, and within 5 % of one block's time on 2,485 of 3,500 bits
_REDUCE_BLOCK = 512


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

    Read from windows going down from the bound, each sieved once per
    process; every prime returned is above _PRIME_BOUND / 2, so each adds
    more than 25 bits to a product.
    """
    found: list[int] = []
    hi = _PRIME_BOUND
    while len(found) < count:
        lo = hi - _SIEVE_WINDOW
        if lo < _PRIME_BOUND // 2:
            raise CapacityExceeded("too many primes asked for below 2^26")
        found.extend(_window_primes(lo)[: count - len(found)].tolist())
        hi = lo
    return found


@lru_cache(maxsize=None)
def _window_primes(lo: int) -> np.ndarray:
    """The primes in [lo, lo + _SIEVE_WINDOW), in decreasing order (read-only)."""
    sieve = np.ones(_SIEVE_WINDOW, bool)
    for p in primes_upto(math.isqrt(_PRIME_BOUND)):
        sieve[-lo % p :: p] = False
    primes = lo + np.flatnonzero(sieve)[::-1]
    primes.flags.writeable = False
    return primes


class Moduli:
    """The primes for integers of absolute value at most `bound`, and both maps.

    modulus is the product M of the CRT primes, half = (M-1)/2 the largest
    bound a rebuild can check.  Row i of coeffs holds, as float64 16-bit
    limbs, the integer below M that is 1 modulo the i-th CRT prime and 0
    modulo the others; rebuild multiplies by these rows.
    """

    def __init__(self, bound: int):
        # each prime is above 2^25, so the product of all candidates but the
        # last exceeds 2·bound, and the last is left over for the check
        primes = _largest_primes((2 * bound).bit_length() // 25 + 2)
        modulus, used = 1, 0
        while modulus <= 2 * bound:
            modulus *= primes[used]
            used += 1
        if used >= _TERMS:
            raise CapacityExceeded(
                f"a bound of {bound.bit_length()} bits needs {used} primes; "
                f"fewer than {_TERMS} rebuild exactly"
            )
        self.modulus = modulus
        self.half = modulus // 2
        self.check = primes[used]
        self.q = np.array(primes[: used + 1], np.int64)
        self.coeffs = _limb_rows(
            [(modulus // p) * pow(modulus // p % p, -1, p) for p in primes[:used]]
        )

    def residues(self, nums) -> np.ndarray:
        """The integers nums modulo each prime of q: int32, one row per integer."""
        nums = list(nums)
        width = _limb_rows([max(map(abs, nums))]).shape[1]
        if width >= _TERMS:
            raise CapacityExceeded(f"integers of {width} limbs; fewer than {_TERMS} reduce exactly")
        q = self.q
        powers = np.empty((width, len(q)), np.int64)  # 2^(16j) mod q
        powers[0] = 1
        for j in range(1, width):
            powers[j] = (powers[j - 1] << _LIMB) % q
        powers = powers.astype(np.float64)
        out = np.empty((len(nums), len(q)), np.int32)
        for start in range(0, len(nums), _REDUCE_BLOCK):
            block = nums[start : start + _REDUCE_BLOCK]
            limbs = _limb_rows(block)
            rows = limbs @ powers[: limbs.shape[1]]
            rows *= [[-1.0 if n < 0 else 1.0] for n in block]
            out[start : start + _REDUCE_BLOCK] = np.mod(rows, q, out=rows)
        return out

    def rebuild(self, rows: np.ndarray, bound: int, cells: np.ndarray | None = None) -> list[int]:
        """The integers in [-bound, bound] with these residue rows, one per row.

        With ``cells``, only the rows at those indices are rebuilt, in their
        order; they are gathered one block at a time, so no copy of all of
        them is made.  Each row is rebuilt by CRT into (-M/2, M/2] from its
        CRT columns; a value above `bound` in absolute value, or one that
        disagrees with the row's check-prime column, raises
        InternalInconsistency.
        """
        modulus, half, check = self.modulus, self.half, self.check
        step = 2 * self.coeffs.shape[1]  # bytes in a row of limbs
        out = []
        for start in range(0, len(rows) if cells is None else len(cells), _BLOCK):
            block = rows[start : start + _BLOCK] if cells is None else rows[cells[start : start + _BLOCK]]
            # column j of the sums is sum_i r_i · (limb j of e_i), below 2^53;
            # its 16-bit piece m weighs 2^(16(j+m)), so the pieces m of a row
            # read back as one integer, shifted by 16m bits
            sums = (block[:, :-1].astype(np.float64) @ self.coeffs).astype("<i8")
            pieces = sums.view("<u2").reshape(len(block), -1, 4).transpose(0, 2, 1)
            data = memoryview(np.ascontiguousarray(pieces).tobytes())
            ints = [int.from_bytes(data[k : k + step], "little") for k in range(0, len(data), step)]
            for (p0, p1, p2, p3), last in zip(zip(*[iter(ints)] * 4), block[:, -1].tolist()):
                x = (p0 + (p1 << 16) + (p2 << 32) + (p3 << 48)) % modulus
                if x > half:
                    x -= modulus
                if abs(x) > bound or x % check != last:
                    raise InternalInconsistency(
                        f"residues give no integer within {bound.bit_length()} bits "
                        f"that agrees with the check prime {check}"
                    )
                out.append(x)
        return out


def _limb_rows(nums: list[int]) -> np.ndarray:
    """|n| for each n as a float64 row of 16-bit limbs, least significant first.

    Every row has the limbs of the widest |n|, and at least one.
    """
    width = max(1, -(-max(abs(n).bit_length() for n in nums) // _LIMB))
    raw = b"".join(abs(n).to_bytes(2 * width, "little") for n in nums)
    return np.frombuffer(raw, "<u2").reshape(len(nums), width).astype(np.float64)
