"""The moduli shared by the oracle and the residue product: prime choice and checked rebuild."""

import math

import numpy as np
import pytest

from ranktree import residues
from ranktree.residues import InternalInconsistency, Moduli

# increasing: one prime, two, and the oracle's bounds n·n! at n = 200 and 400
BOUNDS = [1, 2**25, 200 * math.factorial(200), 400 * math.factorial(400)]


def _rows(moduli, values):
    return np.array([[x % p for p in moduli.q.tolist()] for x in values], np.int64)


@pytest.mark.parametrize("bound", BOUNDS)
def test_values_up_to_the_bound_are_rebuilt(bound):
    moduli = Moduli(bound)
    values = [bound, -bound, 0, 1, -1, bound // 3, -(bound // 7)]
    assert moduli.rebuild(_rows(moduli, values), bound) == values


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("sign", [1, -1])
def test_one_past_the_bound_is_rejected(bound, sign):
    moduli = Moduli(bound)
    assert bound + 1 <= moduli.half  # rebuilt exactly, then refused
    with pytest.raises(InternalInconsistency, match="check prime"):
        moduli.rebuild(_rows(moduli, [sign * (bound + 1)]), bound)


@pytest.mark.parametrize("bound", BOUNDS)
def test_a_row_off_the_check_prime_is_rejected(bound):
    moduli = Moduli(bound)
    row = _rows(moduli, [bound // 3])
    row[0, -1] = (row[0, -1] + 1) % moduli.check
    with pytest.raises(InternalInconsistency, match="check prime"):
        moduli.rebuild(row, bound)
    zero_crt = np.zeros((1, len(moduli.q)), np.int64)
    zero_crt[0, -1] = 1  # the CRT residues give 0, the check prime's does not
    with pytest.raises(InternalInconsistency, match="check prime"):
        moduli.rebuild(zero_crt, bound)


@pytest.mark.parametrize("bound", BOUNDS)
def test_the_primes_are_the_fewest_whose_product_exceeds_twice_the_bound(bound):
    moduli = Moduli(bound)
    crt = moduli.q[:-1].tolist()
    assert moduli.q.tolist() == residues._largest_primes(len(crt) + 1)
    assert moduli.check == moduli.q[-1]
    assert math.prod(crt) == moduli.modulus > 2 * bound >= math.prod(crt[:-1])
    assert moduli.half == (moduli.modulus - 1) // 2


def test_smaller_bounds_use_the_first_columns_of_larger_ones():
    # RankDP.rank_counts reads levels held for a larger n on the primes for n
    qs = [Moduli(bound).q.tolist() for bound in BOUNDS]
    for small, large in zip(qs, qs[1:]):
        assert len(small) < len(large)
        assert large[: len(small)] == small


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 8])
def test_odd_and_even_numbers_of_crt_primes_rebuild(count):
    # the rebuild pairs the CRT primes; an odd last one stays alone
    crt = residues._largest_primes(count)
    bound = math.prod(crt) // 2 - 1
    moduli = Moduli(bound)
    assert moduli.q[:-1].tolist() == crt
    wide = [p * p2 for p, p2 in zip(crt[::2], crt[1::2])] + crt[count - 1 :] * (count % 2)
    assert len(moduli.coeffs) == len(wide) == (count + 1) // 2
    for i, m in enumerate(wide):
        assert [c % m for c in moduli.coeffs] == [int(j == i) for j in range(len(wide))]
    values = [bound, -bound, 0, 1, -1, bound // 3, -(bound // 7), 12345]
    assert moduli.rebuild(_rows(moduli, values), bound) == values
