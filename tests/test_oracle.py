"""Exact finite-n tables, checked against combinatorics and against the
big-integer reference DP (the checks against the GF series are in
ranktree.checks, run by the acceptance tests)."""

import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import reference_oracle
from ranktree import cli, oracle, residues
from ranktree.genfun import InternalInconsistency
from ranktree.plring import Rational


def test_small_root_rank_probabilities_by_hand():
    # n = 1: the root is a leaf; n = 2: the root always has rank 1
    assert oracle.root_rank_prob(1, 0) == 1
    assert oracle.root_rank_prob(2, 1) == 1
    # n = 3: a one-child root sits atop a 2-chain (rank 2), probability 2/3
    assert oracle.root_rank_prob(3, 1) == Rational(1, 3)
    assert oracle.root_rank_prob(3, 2) == Rational(2, 3)
    # n = 4: rank 3 needs the full chain, 8 of the 24 permutations
    assert oracle.root_rank_tail(4, 2) == Rational(1, 3)


def _root_stats(perm):
    """Independent recursive computation: (root rank, leaves, root-closest)."""

    def rec(vals):
        if not vals:
            return None
        top = vals.index(max(vals))
        left, right = rec(vals[:top]), rec(vals[top + 1 :])
        if left is None and right is None:
            return 0, 1, 1
        ranks = [s[0] for s in (left, right) if s is not None]
        leaves = sum(s[1] for s in (left, right) if s is not None)
        best = min(ranks)
        closest = sum(s[2] for s in (left, right) if s is not None and s[0] == best)
        return best + 1, leaves, closest

    return rec(list(perm))


def test_tables_match_brute_force_enumeration():
    from itertools import permutations

    for n in range(1, 7):
        fact = math.factorial(n)
        rank_hist: dict[int, int] = {}
        leaf_tot: dict[int, int] = {}
        closest_tot: dict[int, int] = {}
        for perm in permutations(range(1, n + 1)):
            r, leaves, closest = _root_stats(perm)
            rank_hist[r] = rank_hist.get(r, 0) + 1
            leaf_tot[r] = leaf_tot.get(r, 0) + leaves
            closest_tot[r] = closest_tot.get(r, 0) + closest
        for k in range(n):
            assert oracle.root_rank_prob(n, k) == Rational(rank_hist.get(k, 0)) / fact
            assert oracle.expected_leaf_pairs(n, k) == Rational(leaf_tot.get(k, 0)) / fact
            assert (
                oracle.expected_closest_pairs(n, k)
                == Rational(closest_tot.get(k, 0)) / fact
            )


def test_tail_is_zero_iff_chain_is_too_short():
    for k in range(5):
        for n in range(1, 12):
            tail = oracle.root_rank_tail(n, k)
            if n <= k + 1:
                assert tail == 0
            else:
                assert tail > 0


def test_root_rank_distribution_sums_to_one():
    for n in (1, 2, 5, 9):
        total = sum(
            oracle.root_rank_prob(n, k) for k in range(oracle.max_root_rank(n) + 1)
        )
        assert total == 1


def test_rank_counts_conserve_mass():
    for n in (1, 3, 8, 20):
        counts = oracle.expected_rank_counts(n, oracle.max_root_rank(n))
        assert sum(counts) == n


def test_expected_leaf_count():
    # E[# leaves] = (n+1)/3 for n >= 2
    for n in range(2, 30):
        assert oracle.expected_rank_counts(n, 0)[0] == Rational(n + 1) / 3


def test_pair_identities_at_rank_zero():
    # a rank-0 root happens only at n = 1, where it is its own closest leaf
    assert oracle.expected_closest_pairs(1, 0) == 1
    for n in range(2, 20):
        assert oracle.expected_closest_pairs(n, 0) == 0
        assert oracle.expected_leaf_pairs(n, 0) == 0


def test_leaf_pairs_dominate_closest_pairs():
    for n in range(1, 25):
        for k in range(4):
            f = oracle.expected_leaf_pairs(n, k)
            g = oracle.expected_closest_pairs(n, k)
            assert f >= g >= 0


def test_subtree_counts_match_closed_form():
    # the accessor asserts DP == closed form internally
    for n in (1, 2, 10, 60):
        for ell in {1, n} | ({2, 3} if n >= 3 else set()):
            value = oracle.expected_subtrees_atleast(n, ell)
            assert value == (n + 1) * (Rational(2) / (ell + 1) - Rational(1) / (n + 1))


def test_subtree_counts_reject_bad_input():
    with pytest.raises(ValueError):
        oracle.expected_subtrees_atleast(3, 0)
    with pytest.raises(ValueError):
        oracle.expected_subtrees_atleast(3, 4)


def test_moment_ratio_at_one_is_unity():
    for n in (1, 5, 30):
        assert oracle.moment_gf_ratio(n, 1) == 1


def test_moment_ratio_stability():
    rho = Rational(7, 5)
    values = [float(oracle.moment_gf_ratio(n, rho)) for n in (100, 200, 400)]
    spread = (max(values) - min(values)) / max(values)
    assert spread < 0.05


def test_moment_ratio_rejects_nonpositive_rho():
    with pytest.raises(ValueError):
        oracle.moment_gf_ratio(5, 0)


def test_denominators_divide_factorial():
    for n in (7, 12):
        for k in range(3):
            value = oracle.root_rank_tail(n, k)
            assert math.factorial(n) % value.denominator == 0


def test_moment_ratio_rejects_empty_tree():
    with pytest.raises(ValueError, match="n must be >= 1"):
        oracle.moment_gf_ratio(0, Rational(7, 5))


def test_binomial_convolutions_match_math_comb():
    dp = reference_oracle.RankDP()
    # sizes out of order, so rows are built ahead of use and then reused
    for n in (9, 1, 2, 12, 5, 6, 11, 3):
        m = n - 1
        a = [0 if j % 4 == 1 else 3 * j + 1 for j in range(n)]
        b = [(-1) ** j * (j + 2) for j in range(n)]
        assert dp._conv(a, b, n) == sum(math.comb(m, j) * a[j] * b[m - j] for j in range(n))
        assert dp._conv_self(a, n) == sum(
            math.comb(m, j) * a[j] * a[m - j] for j in range(n)
        )
    for m in range(12):
        assert dp._binom_half(m) == [math.comb(m, j) for j in range(m // 2 + 1)]


# ---------------------------------------------------------------------------
# The residue engine against the big-integer reference


@pytest.fixture(scope="module")
def reference():
    return reference_oracle.RankDP()


def _rows(dp, n, ks):
    """Every accessor of dp at size n, for each k in ks."""
    return [
        (dp.p_gt(n, k), dp.p_eq(n, k), dp.e_count(n, k), dp.f_gt(n, k), dp.f_eq(n, k),
         dp.g_eq(n, k))
        for k in ks
    ]


def test_engine_matches_reference_for_small_n(reference):
    dp = oracle.RankDP()
    for n in range(1, 41):
        ks = range(oracle.max_root_rank(n) + 1)
        assert _rows(dp, n, ks) == _rows(reference, n, ks), n
        assert dp.p_gt(n, -1) == 1
        assert dp.f_gt(n, -1) == reference.f_gt(n, -1)
    assert dp.p_gt(0, 0) == reference.p_gt(0, 0) == 1


@pytest.mark.parametrize("n", [200, 400])
def test_engine_matches_reference_at_large_n(reference, n):
    assert _rows(oracle.RankDP(), n, range(6)) == _rows(reference, n, range(6))


def test_moment_ratio_matches_reference(reference):
    # the engine sums by Horner in rho; the reference by powers of rho
    for n in (100, 200, 400):
        counts = [reference.e_count(n, k) for k in range(n)]
        for rho in (Rational(7, 5), Rational(1, 3), Rational(1)):
            expected = sum(rho**k * c for k, c in enumerate(counts)) / n
            assert oracle.moment_gf_ratio(n, rho) == expected, (n, rho)


def test_requests_in_any_order_match_a_fresh_engine():
    dp = oracle.RankDP()
    for n in (120, 5, 400, 60):
        ks = range(min(n, 4))
        fresh = oracle.RankDP()
        assert _rows(dp, n, ks) == _rows(fresh, n, ks), n
        if n < 400:  # n = 400 streams in test_moment_ratio_matches_reference
            assert dp.rank_counts(n) == fresh.rank_counts(n), n


def test_levels_grow_to_larger_sizes(reference):
    dp = oracle.RankDP()
    dp.rank_counts(200)  # primes for n = 200, and no level kept
    assert _rows(dp, 50, range(4)) == _rows(reference, 50, range(4))
    assert len(dp._p[3]) == 51
    assert _rows(dp, 200, range(4)) == _rows(reference, 200, range(4))
    assert len(dp._p[3]) == 201


def test_every_held_level_spans_the_basis(monkeypatch):
    dp = oracle.RankDP()
    dp.g_eq(160, 0)
    dp.g_eq(25, 3)  # below the cap: the levels it fills span it all the same
    levels = [level for table in (dp._p, dp._e, dp._f, dp._g) for level in table.values()]
    assert len(levels) > 1
    assert {len(level) for level in levels} == {dp._basis.rows} == {161}
    expected = oracle.RankDP().g_eq(160, 3)
    calls = []

    def counted(*args):
        calls.append(args)
        return cross_conv(*args)

    cross_conv = oracle._cross_conv
    monkeypatch.setattr(oracle, "_cross_conv", counted)
    assert dp.g_eq(160, 3) == expected
    assert calls == []  # levels 1..3 are held whole, so none is refilled


def test_cli_holds_int32_levels_and_no_rank_count_table(capsys, monkeypatch):
    dp = oracle.RankDP()
    monkeypatch.setattr(oracle, "_DEFAULT", dp)
    assert cli.main(["oracle", "--n", "400", "--kmax", "5"]) == cli.EXIT_OK
    capsys.readouterr()
    assert dp._e == {}
    levels = [level for table in (dp._p, dp._f, dp._g) for level in table.values()]
    assert len(levels) > 12
    cells = dp._basis.rows * len(dp._basis.q)
    assert {(level.dtype, level.nbytes) for level in levels} == {(np.dtype(np.int32), 4 * cells)}


@pytest.mark.parametrize("n", [3, 5, 10, 37, 200])
def test_rank_counts_stream_on_the_engine_basis(n, monkeypatch):
    expected = oracle.RankDP().rank_counts(n)
    dp, wider = oracle.RankDP(), oracle.RankDP()
    dp.p_gt(n, 0)  # the basis for n, and level 0 held
    wider.p_gt(n + 40, 0)
    built = []

    def counted(m):
        built.append(m)
        return basis(m)

    basis = oracle._Basis
    monkeypatch.setattr(oracle, "_Basis", counted)
    assert dp.rank_counts(n) == expected
    assert built == []
    assert wider.rank_counts(n) == expected  # on primes of its own for n
    assert built == [n]


@pytest.mark.parametrize("last", [1, 9, 30, 38, None])
def test_cross_conv_stops_at_the_last_nonzero_row(last):
    q = np.array(residues._largest_primes(3), np.int64)
    rng = np.random.default_rng(last or 0)
    a = rng.integers(0, q, size=(40, 3)).astype(np.int32)
    b = rng.integers(0, q, size=(40, 3)).astype(np.int32)
    lo = 1 if last == 1 else 4
    a[:lo] = 0
    a[(last or 0) + 1 :] = 0  # None: a is zero throughout
    untrimmed = [  # every j, zero rows of a included
        [_residue_sums(a[:, c], b[:, c], m, int(p)) for c, p in enumerate(q)] for m in range(2, len(a))
    ]
    assert oracle._cross_conv(a, b, lo, q).tolist() == untrimmed


def test_primes_are_the_largest_below_the_bound():
    primes = residues._largest_primes(40)
    assert primes == sorted(primes, reverse=True)
    assert primes[0] < residues._PRIME_BOUND

    def is_prime(m):
        return all(m % d for d in range(2, math.isqrt(m) + 1))

    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(m) for m in range(primes[-1] + 1, residues._PRIME_BOUND) if m not in primes)


def _residue_sums(a, b, m, q):
    return sum(int(a[j]) * int(b[m - 1 - j]) for j in range(m)) % q


@pytest.mark.parametrize("kernel", ["self", "cross", "weighted"])
def test_convolutions_do_not_overflow(kernel):
    # residues next to q - 1 give products next to 2^52; more than
    # _CADENCE of them on one accumulator row would pass 2^63 unreduced,
    # and int32 levels overflow at once unless the kernels read them as int64
    q = residues._largest_primes(1)[0]
    rows = 3 * residues._CADENCE
    a = q - 1 - np.arange(rows, dtype=np.int64)[:, None] % 7
    b = q - 1 - np.arange(rows, dtype=np.int64)[:, None] % 5
    qs = np.array([q], np.int64)
    if kernel == "weighted":
        total = sum(int(x) * int(y) for x, y in zip(a[:, 0], b[:, 0]))
        assert oracle._weighted(a, b, qs).tolist() == [total % q]
        return
    sizes = np.arange(rows - 3, rows)
    if kernel == "self":
        a[0] = 1  # as in every level; level 0 has no zero rows
        b = a
    expected = [_residue_sums(a[:, 0], b[:, 0], m, q) for m in sizes]
    inv = np.array([[pow(m, -1, q) if m else 0] for m in range(rows)], np.int64)
    for dtype in (np.int64, np.int32):  # the held levels are int32
        if kernel == "self":
            out = np.empty((rows, 1), np.int64)
            level = oracle._p_level(a.astype(dtype), 0, qs, inv, 2 * inv % q, out)
            out = level[-3:] * sizes[:, None] % q  # P_0[m] is the convolution over m
        else:
            out = oracle._cross_conv(a.astype(dtype), b.astype(dtype), 0, qs)[-3:]
        assert out[:, 0].tolist() == expected, dtype


def test_reduction_cadence_does_not_change_values(monkeypatch):
    unpatched = oracle.RankDP()
    counts, rows = unpatched.rank_counts(60), _rows(unpatched, 60, range(6))
    monkeypatch.setattr(oracle, "_CADENCE", 2)
    dp = oracle.RankDP()
    assert dp.rank_counts(60) == counts
    assert _rows(dp, 60, range(6)) == rows


def test_streamed_counts_match_reference_at_the_band_edges(reference):
    # both parities of n, the levels k >= (n-2)/2 that only shift the
    # previous one, and n <= 3, where no level has a pair k+1 <= j < i
    for n in range(1, 41):
        assert oracle.RankDP().rank_counts(n) == [reference.e_count(n, k) for k in range(n)], n


def test_levels_past_the_largest_rank_hold_no_table(reference, capsys, monkeypatch):
    dp = oracle.RankDP()
    assert _rows(dp, 5, range(5, 3000, 997)) == [(0,) * 6] * 4
    assert dp.p_gt(5, 4) == dp.f_gt(5, 4) == 0
    assert dp.p_gt(0, 3000) == 1
    # n = 0 fills no level: f and g are 0 at every level, and e_count refuses it
    assert [dp.f_gt(0, k) for k in range(-1, 4)] == [0] * 5
    assert [dp.g_eq(0, k) for k in range(4)] == [0] * 4
    with pytest.raises(ValueError, match="n must be >= 1"):
        dp.e_count(0, 0)
    assert dp._basis is None
    monkeypatch.setattr(oracle, "_DEFAULT", dp)
    assert cli.main(["oracle", "--n", "5", "--kmax", "3000"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) > 3000
    for table in (dp._p, dp._e, dp._f, dp._g):
        assert max(table, default=-1) < 5
    for n in range(1, 13):
        ks = (n - 1, n, n + 1)
        assert _rows(oracle.RankDP(), n, ks) == _rows(reference, n, ks), n


def test_a_wrong_residue_fails_the_check_prime():
    dp = oracle.RankDP()
    dp.p_gt(30, 2)
    dp._p[2][30, 0] = (dp._p[2][30, 0] + 1) % dp._basis.q[0]
    with pytest.raises(InternalInconsistency, match="check prime"):
        dp.p_gt(30, 2)
    dp.g_eq(30, 2)
    dp._g[2][30, -1] = (dp._g[2][30, -1] + 1) % dp._basis.q[-1]  # the check prime's own residue
    with pytest.raises(InternalInconsistency, match="check prime"):
        dp.g_eq(30, 2)


def test_a_wrong_crt_coefficient_exits_3(capsys, monkeypatch):
    dp = oracle.RankDP()
    dp.p_gt(20, 0)
    dp._basis.moduli.coeffs[-1] += 1
    with pytest.raises(InternalInconsistency, match="check prime"):
        dp.e_count(20, 1)
    monkeypatch.setattr(oracle, "_DEFAULT", dp)
    code = cli.main(["oracle", "--n", "20", "--kmax", "1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INCONSISTENT
    assert captured.out == ""
    assert "check prime" in captured.err


# -- the rank-count stream in a forked worker (oracle --rho) -----------------

GOLDEN = Path(__file__).parent / "golden"
N200 = ["oracle", "--n", "200", "--kmax", "6", "--rho", "7/5"]


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to this test, which may fork: two CPUs in the
    affinity mask, and a fresh shared engine, so no count is held from an
    earlier test."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(oracle, "_DEFAULT", oracle.RankDP())
    return pids


def _assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def _parent_streams(monkeypatch):
    """The n of each RankDP._stream_rows call made in this process, not in a worker."""
    parent, stream, calls = os.getpid(), oracle.RankDP._stream_rows, []

    def recorded(self, n, *args):
        if os.getpid() == parent:
            calls.append(n)
        return stream(self, n, *args)

    monkeypatch.setattr(oracle.RankDP, "_stream_rows", recorded)
    return calls


def _cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("basis", ["own", "wider"])
@pytest.mark.parametrize("n", [1, 2, 3, 40, 157])
def test_the_worker_streams_the_in_process_counts(forks, monkeypatch, n, basis):
    expected = oracle.RankDP().rank_counts(n)
    dp = oracle._DEFAULT
    dp.e_count(n if basis == "own" else n + 40, 0)  # a basis, and levels 0 and 1 held
    streams = _parent_streams(monkeypatch)
    with oracle.rank_counts_in_background(n):
        pass
    _assert_reaped(forks)
    assert dp.rank_counts(n) == expected
    assert streams == []


def test_a_cli_run_joins_the_worker(capsys, forks, monkeypatch):
    streams = _parent_streams(monkeypatch)
    assert _cli(capsys, N200) == (0, (GOLDEN / "oracle-n200.json").read_text())
    assert streams == []
    _assert_reaped(forks)


def test_a_failing_series_check_kills_the_worker(capsys, forks, monkeypatch):
    monkeypatch.setattr(cli.checks, "cdf_series_vs_oracle", lambda kmax, order: ("", False, ""))
    argv = [*N200, "--kmax", "3", "--series-order", "12"]
    assert _cli(capsys, argv) == (cli.EXIT_INCONSISTENT, "")
    _assert_reaped(forks)


def test_an_interrupt_kills_the_worker(capsys, forks, monkeypatch):
    def interrupted(kmax, order):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.checks, "cdf_series_vs_oracle", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main([*N200, "--kmax", "3", "--series-order", "12"])
    _assert_reaped(forks)


def test_an_interrupt_as_the_fork_returns_kills_the_worker(forks, monkeypatch):
    # SIGINT is blocked across the fork; one that arrived meanwhile is raised
    # as the parent unblocks it
    parent, mask = os.getpid(), signal.pthread_sigmask

    def interrupted(how, signals):
        old = mask(how, signals)
        if how == signal.SIG_UNBLOCK and os.getpid() == parent:
            raise KeyboardInterrupt
        return old

    monkeypatch.setattr(signal, "pthread_sigmask", interrupted)
    oracle.expected_rank_counts(60, 0)
    with pytest.raises(KeyboardInterrupt):
        with oracle.rank_counts_in_background(60):
            raise AssertionError("the body ran")
    _assert_reaped(forks)


def test_a_failed_worker_leaves_the_stream_to_the_parent(capsys, forks, monkeypatch):
    parent, level = os.getpid(), oracle._p_level

    def fails_in_the_worker(*args):
        if os.getpid() != parent:
            raise RuntimeError("injected")
        return level(*args)

    monkeypatch.setattr(oracle, "_p_level", fails_in_the_worker)
    streams = _parent_streams(monkeypatch)
    assert _cli(capsys, N200) == (0, (GOLDEN / "oracle-n200.json").read_text())
    assert streams == [200]
    _assert_reaped(forks)


def test_a_wrong_row_from_the_worker_fails_the_check_prime_in_the_parent(forks, monkeypatch):
    parent, stream = os.getpid(), oracle.RankDP._stream_rows

    def off_by_one(self, n, b, out, each_level=None):
        stream(self, n, b, out, each_level)
        if os.getpid() != parent:
            out[n // 2, 0] = (out[n // 2, 0] + 1) % b.q[0]
        return out

    monkeypatch.setattr(oracle.RankDP, "_stream_rows", off_by_one)
    oracle.expected_rank_counts(60, 2)
    with pytest.raises(InternalInconsistency, match="check prime"):
        with oracle.rank_counts_in_background(60):
            pass  # the rows are rebuilt and checked as the block exits
    _assert_reaped(forks)
    assert 60 not in oracle._DEFAULT._counts


def test_a_block_whose_n_is_counted_forks_nothing(forks):
    counts = oracle._DEFAULT.rank_counts(30)
    with oracle.rank_counts_in_background(30):
        pass
    assert forks == []
    assert oracle._DEFAULT.rank_counts(30) == counts


def test_a_body_that_counts_in_process_still_reaps_the_worker(forks, monkeypatch):
    expected = oracle.RankDP().rank_counts(60)
    streams = _parent_streams(monkeypatch)
    with oracle.rank_counts_in_background(60):
        assert oracle._DEFAULT.rank_counts(60) == expected
    _assert_reaped(forks)
    assert streams == [60]
    assert oracle._DEFAULT.rank_counts(60) == expected


@pytest.mark.parametrize(
    "golden, argv",
    [
        (
            "oracle-n40.json",
            ["oracle", "--n", "40", "--kmax", "3", "--rho", "7/5", "--series-order", "12"],
        ),
        ("oracle-n200.json", N200),
        ("oracle-n200.csv", [*N200, "--format", "csv"]),
    ],
)
def test_one_cpu_forks_nothing_and_prints_the_same(capsys, monkeypatch, golden, argv):
    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(oracle, "_DEFAULT", oracle.RankDP())
    assert _cli(capsys, argv) == (0, (GOLDEN / golden).read_text())


def test_a_failed_fork_leaves_the_stream_in_process(capsys, forks, monkeypatch):
    def no_process():
        raise BlockingIOError("no process to be had")

    monkeypatch.setattr(os, "fork", no_process)
    streams = _parent_streams(monkeypatch)
    assert _cli(capsys, N200) == (0, (GOLDEN / "oracle-n200.json").read_text())
    assert streams == [200]


def test_another_thread_forbids_the_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert oracle._may_fork()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not oracle._may_fork()
    finally:
        release.set()
        thread.join()


def _env():
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_a_fresh_interpreter_prints_the_golden_file():
    done = subprocess.run(
        [sys.executable, "-m", "ranktree.cli", *N200], env=_env(), capture_output=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "oracle-n200.json").read_bytes()


ORPHAN = """
import os, sys
from ranktree import oracle
os.sched_getaffinity = lambda pid: {0, 1}
fork, pids = os.fork, []

def recorded():
    pid = fork()
    if pid:
        pids.append(pid)
    return pid

os.fork = recorded
oracle.expected_rank_counts(1000, 0)
with oracle.rank_counts_in_background(1000):
    with open(sys.argv[1], "w") as fh:
        fh.write(str(pids[0]))
    os._exit(0)  # as if killed: no join, no kill
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_an_orphaned_worker_stops(tmp_path):
    # the worker holds no pipe of the parent's, so run returns as the parent exits
    subprocess.run(
        [sys.executable, "-c", ORPHAN, str(tmp_path / "pid")],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60, check=True,
    )
    pid = int((tmp_path / "pid").read_text())
    deadline = time.monotonic() + 5  # the whole stream at n = 1000 takes over 30 s
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)
