"""The moduli shared by the oracle and the residue product: prime choice and checked rebuild."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ranktree import residues
from ranktree.residues import InternalInconsistency, Moduli

# increasing: one prime, two, and the oracle's bounds n·n! at n = 200 and 400
BOUNDS = [1, 2**25, 200 * math.factorial(200), 400 * math.factorial(400)]


def test_primes_upto():
    assert residues.primes_upto(1) == ()
    assert residues.primes_upto(2) == (2,)
    assert residues.primes_upto(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


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


def _limbs_value(row):
    return sum(int(limb) << (16 * j) for j, limb in enumerate(row.tolist()))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 8])
def test_odd_and_even_numbers_of_crt_primes_rebuild(count):
    # row i of coeffs, read as 16-bit limbs, is 1 modulo the i-th CRT prime
    # and 0 modulo the others
    crt = residues._largest_primes(count)
    bound = math.prod(crt) // 2 - 1
    moduli = Moduli(bound)
    assert moduli.q[:-1].tolist() == crt
    assert len(moduli.coeffs) == count
    for i, row in enumerate(moduli.coeffs):
        assert [_limbs_value(row) % p for p in crt] == [int(j == i) for j in range(count)]
    values = [bound, -bound, 0, 1, -1, bound // 3, -(bound // 7), 12345]
    assert moduli.rebuild(_rows(moduli, values), bound) == values


# the largest bounds the CLI builds: that of the products of constants
# --kmax 7, 7,105 bits (B_6·B_6 is 7,100 bits; both take 274 CRT primes),
# and the oracle's n·n! at n = 1000
EDGE_BOUNDS = [2**7105 - 1, 1000 * math.factorial(1000)]


@pytest.mark.parametrize("bound", EDGE_BOUNDS, ids=["kmax7-product", "oracle-n1000"])
def test_the_largest_limb_and_residue_sums_are_exact(bound):
    moduli = Moduli(bound)
    # every limb 0xFFFF: the largest terms of the reduction
    ones = (1 << 16 * (bound.bit_length() // 16)) - 1
    values = [ones, -ones, ones >> 16, -1, 0, bound, -bound]
    rows = moduli.residues(values)
    assert rows.tolist() == _rows(moduli, values).tolist()
    assert moduli.rebuild(rows, bound) == values
    # q - 1 in every column: the largest terms of the rebuild, and -1
    assert moduli.rebuild((moduli.q - 1)[None, :], bound) == [-1]


@pytest.mark.parametrize("bound", EDGE_BOUNDS, ids=["kmax7-product", "oracle-n1000"])
def test_blocks_of_the_largest_sums_are_exact(bound):
    # more than two rebuild blocks of worst-case rows: large enough for the
    # BLAS's blocked kernels, not only its small-matrix path
    moduli = Moduli(bound)
    rows = 2 * residues._BLOCK + 7
    top = np.broadcast_to(moduli.q - 1, (rows, len(moduli.q)))
    assert moduli.rebuild(top, bound) == [-1] * rows
    ones = (1 << 16 * (bound.bit_length() // 16)) - 1
    values = [ones if i % 2 else -ones for i in range(rows)]
    got = moduli.residues(values)
    assert got.tolist() == _rows(moduli, [-ones, ones])[np.arange(rows) % 2].tolist()
    assert moduli.rebuild(got, bound) == values


@pytest.mark.parametrize("bound", BOUNDS)
def test_the_rows_named_by_cells_are_rebuilt_in_their_order(bound):
    # more than two blocks of cells, out of order and with a row twice
    moduli = Moduli(bound)
    values = [(-1) ** i * (bound // (i + 2)) for i in range(3 * residues._BLOCK)]
    table = _rows(moduli, values)
    cells = np.array([*range(len(values) - 1, 0, -2), 5, 5])
    assert moduli.rebuild(table, bound, cells) == [values[i] for i in cells.tolist()]
    assert moduli.rebuild(table, bound, cells[:0]) == []


def test_reduction_memory_stays_bounded_on_wide_integers():
    # 3,000 integers of 8,000 bits: their limbs as one float64 matrix take
    # 12 MB; a block of rows at a time keeps the peak well under that
    moduli = Moduli(2**40)
    rng = np.random.default_rng(5)
    values = [int.from_bytes(rng.bytes(1000), "little") * (-1) ** i for i in range(3000)]
    values[-5:] = [0, 1, -1, 2**26, -(2**26)]  # a last block of narrow rows
    tracemalloc.start()
    try:
        got = moduli.residues(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert got.dtype == np.int32
    assert got.tolist() == _rows(moduli, values).tolist()


def test_sums_past_the_float64_mantissa_are_refused():
    # 2^11 terms below 2^42 could reach 2^53: such bounds and integers are refused
    with pytest.raises(ValueError, match="primes"):
        Moduli(2 ** (26 * 2048))
    moduli = Moduli(1)
    widest = (1 << 16 * 2047) - 1
    assert moduli.residues([widest]).tolist() == _rows(moduli, [widest]).tolist()
    with pytest.raises(ValueError, match="limbs"):
        moduli.residues([widest + 1])


ROOT = Path(__file__).resolve().parent.parent


def _fresh(args, threads=None):
    """Run `python args` on this checkout's sources in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    paths = [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_importing_the_package_defaults_openblas_to_one_thread(preset, expected):
    code = "import os, ranktree; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(["-c", code], preset) == expected + "\n"


def test_two_blas_threads_print_the_same_bytes():
    # bounds --kmax 5 takes its largest products by residues
    out = _fresh(["-m", "ranktree.cli", "bounds", "--kmax", "5"], "2")
    assert out == (ROOT / "tests" / "golden" / "bounds-kmax5.json").read_text()
