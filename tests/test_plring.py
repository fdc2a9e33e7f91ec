"""Kernel tests: exact arithmetic, calculus, series, and serialization."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import reference_plring as ref
from ranktree import cli, genfun, plring, residues
from ranktree.genfun import InternalInconsistency
from ranktree.plring import (
    ONE,
    U,
    UINV,
    V,
    X,
    ZERO,
    DivergentIntegral,
    PLExpr,
    Rational,
    rational,
)

coeffs = st.builds(
    rational, st.integers(-(10**6), 10**6), st.integers(1, 10**4)
)
exponents = st.tuples(st.integers(-3, 6), st.integers(0, 5))
exprs = st.dictionaries(exponents, coeffs, max_size=6).map(PLExpr)


def test_constructor_drops_zero_coefficients():
    e = PLExpr({(1, 0): Rational(0), (2, 1): Rational(3)})
    assert len(e) == 1
    assert e.coeff(1, 0) == 0
    assert e.coeff(2, 1) == 3


def test_basic_identities():
    assert X == ONE - U
    assert U * UINV == ONE
    assert (U + V) - V == U
    assert ZERO.is_zero()
    assert (V - V).is_zero()


def test_derivative_of_building_blocks():
    # d/dx u = -1, d/dx v = 1/(1-x)
    assert U.differentiate() == PLExpr.const(-1)
    assert V.differentiate() == UINV
    assert (U * V).differentiate() == ONE - V
    assert ONE.differentiate().is_zero()


def test_antiderivative_fixes_value_at_zero():
    for e in (U, V, U * V, UINV * UINV, PLExpr.term(1, -1, 2)):
        f = e.antiderivative(7)
        assert f.value_at_0() == 7
        assert f.differentiate() == e


def test_integral01_closed_form():
    # int_0^1 u^b v^c dx = c!/(b+1)^(c+1)
    for b in range(0, 5):
        for c in range(0, 4):
            got = PLExpr.term(1, b, c).integral01()
            assert got == Rational(math.factorial(c)) / (b + 1) ** (c + 1)


def test_integral01_rejects_divergent_terms():
    with pytest.raises(DivergentIntegral):
        UINV.integral01()
    with pytest.raises(DivergentIntegral):
        PLExpr.term(1, -2, 1).integral01()


def test_integral01_matches_quadrature():
    e = 2 * U * V - PLExpr.term(rational(1, 3), 2, 2) + X
    exact = float(e.integral01())
    terms = [(float(a), b, c) for (b, c), a in e.terms.items()]

    def f(x):
        u, v = 1.0 - x, -math.log1p(-x)
        return sum(a * u**b * v**c for a, b, c in terms)

    numeric, err = integrate.quad(f, 0.0, 1.0 - 1e-13)
    assert abs(exact - numeric) < 1e-8 + 10 * err


def test_series_of_log_factor():
    # v = x + x^2/2 + x^3/3 + ...
    got = V.series(5)
    assert got == [Rational(0)] + [Rational(1) / n for n in range(1, 6)]


def test_series_of_geometric_factor():
    assert UINV.series(4) == [Rational(1)] * 5
    assert (UINV * UINV).series(4) == [Rational(n + 1) for n in range(5)]


@given(exprs, exprs)
@settings(max_examples=60, deadline=None)
def test_addition_matches_series(a, b):
    sa, sb, ss = a.series(8), b.series(8), (a + b).series(8)
    assert ss == [x + y for x, y in zip(sa, sb)]


@given(exprs, exprs)
@settings(max_examples=60, deadline=None)
def test_product_matches_series_convolution(a, b):
    sa, sb = a.series(8), b.series(8)
    conv = [sum(sa[i] * sb[n - i] for i in range(n + 1)) for n in range(9)]
    assert (a * b).series(8) == conv


@given(exprs, exprs, exprs)
@settings(max_examples=40, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(exprs)
@settings(max_examples=60, deadline=None)
def test_derivative_then_antiderivative_round_trips(e):
    c0 = e.value_at_0()
    assert e.differentiate().antiderivative(c0) == e


@given(exprs)
@settings(max_examples=60, deadline=None)
def test_records_round_trip_bit_exact(e):
    records = e.to_records()
    assert records == sorted(records, key=lambda r: (r["upow"], r["vpow"]))
    assert records == ref.records(e.terms)


@given(exprs)
@settings(max_examples=60, deadline=None)
@example(ZERO)
def test_cache_entry_round_trips_the_canonical_parts(e):
    items, den = e.parts()
    assert [key for key, _ in items] == sorted(e.exponents)
    assert den == e.denominator
    assert PLExpr.from_parts(items, den) == e
    lines = list(cli._entry_text("root_rank", 0, e))
    assert [json.loads(line) for line in lines[1:]] == [[b, c, f"{n:x}"] for (b, c), n in items]
    head, back = cli._read_entry(iter(lines))
    assert head == {"count": len(e), "den": f"{den:x}", "format": cli.CACHE_FORMAT, "k": 0, "kind": "root_rank"}
    assert back == e


@pytest.mark.parametrize(
    "items, den",
    [
        ([((0, 0), 1)], 0),
        ([((0, 0), 1)], -3),
        ([((0, 0), 1)], True),
        ([((0, 0), 1)], 3.0),
        ([((0, True), 1)], 3),
        ([((0.0, 1), 1)], 3),
        ([((0, -1), 1)], 3),
        ([((0, 0), 0), ((1, 0), 1)], 3),
        ([((0, 0), "1")], 3),
        ([((0, 0), 1), ((0, 0), 1)], 3),
        ([((0, 0), 6), ((1, 0), 9)], 3),
        ([], 2),
    ],
    ids=[
        "zero-den", "negative-den", "bool-den", "float-den", "bool-vpow", "float-upow",
        "negative-vpow", "zero-num", "str-num", "repeated-key", "shared-factor", "zero-over-2",
    ],
)
def test_from_parts_refuses_parts_that_are_not_canonical(items, den):
    with pytest.raises(ValueError):
        PLExpr.from_parts(items, den)


def test_power_operator():
    assert (U + V) ** 2 == U * U + 2 * U * V + V * V
    assert (U + ONE) ** 0 == ONE


# -- the integer-numerator kernel against the dict-of-Fraction reference -----

fractions = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))


def _nonzero(d):
    return {key: a for key, a in d.items() if a}


ref_exprs = st.dictionaries(exponents, fractions, max_size=6).map(_nonzero)
ref_convergent = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 5)), fractions, max_size=6
).map(_nonzero)


def _assert_canonical(e):
    assert e._den > 0
    assert all(e._num.values())
    if e._num:
        assert math.gcd(e._den, *e._num.values()) == 1
    else:
        assert e._den == 1


@given(ref_exprs, ref_exprs, fractions)
@settings(max_examples=80, deadline=None)
def test_ring_operations_match_reference(a, b, s):
    ea, eb = PLExpr(a), PLExpr(b)
    for got, want in (
        (ea + eb, ref.add(a, b)),
        (ea - eb, ref.sub(a, b)),
        (ea * eb, ref.mul(a, b)),
        (ea * ea, ref.mul(a, a)),
        (ea.scale(s), ref.scale(a, s)),
        (ea**3, ref.power(a, 3)),
    ):
        assert got.terms == want
        _assert_canonical(got)


# columns of b, each with gaps in its powers of v: b = -1, negative b + 1
CALCULUS_CASES = {
    "b=-1": {(-1, 0): Fraction(1, 3), (-1, 2): Fraction(-5, 7), (-1, 5): Fraction(2)},
    "b<-1": {
        (-3, 0): Fraction(2),
        (-3, 3): Fraction(-1, 5),
        (-2, 1): Fraction(7, 4),
        (-5, 4): Fraction(3),
    },
    "gaps-in-c": {
        (2, 0): Fraction(1),
        (2, 4): Fraction(-3, 2),
        (0, 1): Fraction(5),
        (0, 6): Fraction(1, 9),
    },
    "mixed": {
        (-1, 1): Fraction(4, 9),
        (-2, 0): Fraction(-1),
        (-2, 2): Fraction(6, 11),
        (3, 7): Fraction(-2, 3),
        (5, 0): Fraction(13),
        (5, 3): Fraction(1, 8),
    },
}


# inputs whose antiderivative reduces per column: F(0) over 18 shares 3 with
# the w^(t+1) = 9 and 2, 3 with the 6^2 of the columns; each c+1 divides its
# b = -1 numerator (20, 45, 8 over 5); 3 u^2 v + 2 u^2 integrates to
# -u^3 v - u^3, whose column denominator 9 cancels completely
REDUCING_CASES = {
    "f0-shares-w": ({(2, 1): Fraction(1, 5), (5, 1): Fraction(2, 7)}, Fraction(5, 18)),
    "c+1-divides": ({(-1, 1): Fraction(4), (-1, 2): Fraction(9), (-1, 3): Fraction(8, 5)}, 0),
    "column-cancels": ({(2, 1): Fraction(3), (2, 0): Fraction(2), (0, 0): Fraction(1, 4)}, 0),
}


@given(ref_exprs, fractions)
@settings(max_examples=80, deadline=None)
@example(CALCULUS_CASES["b=-1"], Fraction(-11, 6))
@example(CALCULUS_CASES["b<-1"], Fraction(-11, 6))
@example(CALCULUS_CASES["gaps-in-c"], Fraction(-11, 6))
@example(CALCULUS_CASES["mixed"], Fraction(-11, 6))
@example(*REDUCING_CASES["f0-shares-w"])
@example(*REDUCING_CASES["c+1-divides"])
@example(*REDUCING_CASES["column-cancels"])
def test_calculus_matches_reference(a, v0):
    e = PLExpr(a)
    assert e.differentiate().terms == ref.differentiate(a)
    assert e.antiderivative(v0).terms == ref.antiderivative(a, v0)
    assert e.antiderivative().terms == ref.antiderivative(a)
    assert e.value_at_0() == ref.value_at_0(a)
    _assert_canonical(e.antiderivative(v0))


# -- the checked gcd of the canonical reduction --------------------------------


def test_checked_gcd_takes_in_what_the_combination_misses():
    # den = 5·21; the true gcd is 5.  Every numerator but one shares a factor
    # with den: all are multiples of 35 except n_j = 5·(3 + 21·2^200), a
    # multiple of 15, and n_k = 5·(4 + 21·2^201), prime to 21.  As j - k = 7,
    # weights that grow by a fixed step per position give n_j and n_k the same
    # weight modulo 7, and 3 + 4 is a multiple of 7; so are both sums the
    # combination takes, and it overshoots to 35 at least
    terms = 100
    j, k = 17, 10
    den = 5 * 21
    num = {(i, 0): 35 * (2**200 + i) for i in range(terms)}
    num[(j, 0)] = 5 * (3 + 21 * 2**200)
    num[(k, 0)] = 5 * (4 + 21 * 2**201)
    values = list(num.values())
    weighted = sum(itertools.accumulate(values))  # sum of (terms - i)·n_i
    assert math.gcd(den, sum(values), weighted) % 35 == 0
    g = math.gcd(den, *values)
    assert g == 5
    assert plring._reduce(num, den) == ({key: n // g for key, n in num.items()}, den // g)


@given(
    st.integers(1, 10**30),
    st.integers(1, 10**6),
    st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=90),
)
@settings(max_examples=60, deadline=None)
def test_checked_gcd_matches_math_gcd(common, cofactor, values):
    # a factor shared by den and most values, so the combination starts above 1
    den = common * cofactor
    values = [n * common if i % 3 else n for i, n in enumerate(values)]
    assert plring._gcd(den, values) == math.gcd(den, *values)


@given(ref_convergent)
@settings(max_examples=80, deadline=None)
@example(CALCULUS_CASES["gaps-in-c"])
@example({key: f for key, f in CALCULUS_CASES["mixed"].items() if key[0] >= 0})
def test_integral01_matches_reference(a):
    assert PLExpr(a).integral01() == ref.integral01(a)


@given(ref_exprs, st.integers(0, 8))
@settings(max_examples=60, deadline=None)
@example(CALCULUS_CASES["b<-1"], 60)
@example(CALCULUS_CASES["gaps-in-c"], 60)
def test_series_matches_reference(a, order):
    assert PLExpr(a).series(order) == ref.series(a, order)


@given(ref_exprs)
@settings(max_examples=80, deadline=None)
def test_denominator_and_exponents_read_the_canonical_parts(a):
    e = PLExpr(a)
    assert e.denominator == math.lcm(*(f.denominator for f in a.values()))
    assert set(e.exponents) == set(a)


@given(ref_exprs)
@settings(max_examples=80, deadline=None)
def test_records_match_reference(a):
    e = PLExpr(a)
    assert e.to_records() == ref.records(a) == ref.records(e.terms)
    _assert_canonical(e)


@given(ref_exprs, ref_exprs, ref_exprs)
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_route_independent(a, b, c):
    ea, eb, ec = PLExpr(a), PLExpr(b), PLExpr(c)
    routes = [
        (ea + eb) * ec,
        ea * ec + eb * ec,
        ec * eb + ((ea * ec).scale(rational(3, 7)) + (ea * ec).scale(rational(4, 7))),
    ]
    for e in routes:
        _assert_canonical(e)
        assert e == routes[0]
        assert hash(e) == hash(routes[0])
    zero = ea - ea
    assert zero == ZERO and hash(zero) == hash(ZERO)
    _assert_canonical(zero)


@pytest.mark.parametrize("k", range(5))
def test_root_rank_records_match_reference_kernel(k):
    # pins the records that `constants --dump-gf` prints: to_records output
    assert genfun.root_rank_gf(k).to_records() == ref.records(ref.root_rank_gf(k))


# -- the residue route of large products --------------------------------------


@pytest.fixture
def residue_route(monkeypatch):
    """Every product of two operands of two terms or more takes the residue route."""
    monkeypatch.setattr(plring, "_RESIDUE_PAIRS", 1)


@pytest.mark.parametrize(
    "test",
    [test_ring_operations_match_reference, test_canonical_form_is_route_independent],
    ids=["ring-operations", "canonical-form"],
)
def test_residue_route_matches_reference(residue_route, test):
    test()


def _by_residues(a, b):
    """a * b by the residue route, which products by one term do not take."""
    return plring._canon(plring._residue_product(a._num, b._num), a._den * b._den)


def test_residue_route_edge_cases(residue_route):
    # one-term operands, negative b, squares, and cells that cancel
    assert _by_residues(U, UINV) == ONE
    assert _by_residues(UINV, UINV) == PLExpr.term(1, -2, 0)
    assert (U + V) * (U - V) == PLExpr({(2, 0): 1, (0, 2): -1})
    assert (UINV - V) ** 2 == PLExpr({(-2, 0): 1, (-1, 1): -2, (0, 2): 1})
    assert _by_residues(
        PLExpr.term(rational(-3, 4), 5, 2), PLExpr.term(rational(2, 9), -7, 0)
    ) == PLExpr.term(rational(-1, 6), -2, 2)


def test_a_product_by_one_term_takes_the_loop(monkeypatch):
    def refuse(a, b):
        raise AssertionError("the residue route was taken")

    monkeypatch.setattr(plring, "_residue_product", refuse)
    long = PLExpr({(b, 0): b + 1 for b in range(plring._RESIDUE_PAIRS)})
    shifted = PLExpr({(b + 1, 0): rational(b + 1, 3) for b in range(plring._RESIDUE_PAIRS)})
    term = PLExpr.term(rational(1, 3), 1, 0)
    assert term * long == shifted
    assert long * term == shifted
    # two terms times half as many make as many pairs, and take the residues
    half = PLExpr({(b, 0): 1 for b in range(plring._RESIDUE_PAIRS // 2)})
    with pytest.raises(AssertionError, match="residue route"):
        (U + V) * half


def _by_both_routes(monkeypatch, a, b):
    monkeypatch.setattr(plring, "_RESIDUE_PAIRS", 1)
    by_residues = a * b
    monkeypatch.setattr(plring, "_RESIDUE_PAIRS", float("inf"))
    return by_residues, a * b


@pytest.mark.parametrize("k", [4, 5])
def test_root_rank_squares_agree_between_routes(monkeypatch, k):
    b = genfun.root_rank_gf(k)
    by_residues, by_loop = _by_both_routes(monkeypatch, b, b)
    assert by_residues == by_loop
    _assert_canonical(by_residues)


def test_root_rank_right_hand_side_agrees_between_routes(monkeypatch):
    # the product 2 B_5 (1/(1-x) - B_{<=4}) of the B_6 recurrence
    b5, rest = genfun.root_rank_gf(5), UINV - genfun.root_rank_cdf_gf(4)
    by_residues, by_loop = _by_both_routes(monkeypatch, b5, rest)
    assert by_residues == by_loop
    _assert_canonical(by_residues)


@pytest.mark.parametrize("square", [True, False], ids=["square", "product"])
def test_residue_accumulators_are_reduced_in_time(square):
    # every residue of -1 is q - 1, so the middle cells of this product sum
    # more than _CADENCE products next to 2^52, which would pass 2^63
    terms = 2 * residues._CADENCE + 4
    a = PLExpr({(b, 0): -1 for b in range(terms)})
    b = a if square else PLExpr({(b, 0): -1 for b in range(terms)})
    assert len(a) * len(b) >= plring._RESIDUE_PAIRS
    assert a * b == PLExpr({(m, 0): min(m, 2 * terms - 2 - m) + 1 for m in range(2 * terms - 1)})


def _add_one(column, nonzero=True):
    def corrupt(flat, q, bound):
        cells = np.flatnonzero(flat.any(axis=1) == nonzero)
        if len(cells):  # some products have no zero cell
            flat[cells[0], column] += 1

    return corrupt


def _above_bound(flat, q, bound):
    # residues of bound + 1 for every prime, the check prime's included
    flat[np.flatnonzero(flat.any(axis=1))[0]] = [(bound + 1) % p for p in q]


@pytest.mark.parametrize(
    "corrupt",
    [_add_one(0), _add_one(-1), _add_one(-1, nonzero=False), _above_bound],
    ids=["crt-prime", "check-prime", "check-prime-of-a-zero-cell", "consistent-above-bound"],
)
def test_a_wrong_product_residue_is_caught(residue_route, monkeypatch, capsys, corrupt):
    real = plring._rebuild

    def rebuild(table, moduli, bound, origin):
        corrupt(table.reshape(-1, table.shape[-1]), moduli.q.tolist(), bound)
        return real(table, moduli, bound, origin)

    b = genfun.root_rank_gf(3)
    monkeypatch.setattr(plring, "_rebuild", rebuild)
    with pytest.raises(InternalInconsistency, match="check prime"):
        b * b
    monkeypatch.setattr(genfun, "_CACHE", {})
    monkeypatch.setattr(genfun, "_PARTIAL_SUMS", {})
    code = cli.main(["constants", "--kmax", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INCONSISTENT
    assert captured.out == ""
    assert "check prime" in captured.err


def test_a_rounding_error_in_the_convolution_is_caught(residue_route, monkeypatch, capsys):
    real = plring._inverse

    def inverse(*args):
        x = real(*args)
        x[(0,) * x.ndim] += 0.3
        return x

    b = genfun.root_rank_gf(3)
    monkeypatch.setattr(plring, "_inverse", inverse)
    with pytest.raises(InternalInconsistency, match="rounding check"):
        b * b
    monkeypatch.setattr(genfun, "_CACHE", {})
    monkeypatch.setattr(genfun, "_PARTIAL_SUMS", {})
    code = cli.main(["constants", "--kmax", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INCONSISTENT
    assert captured.out == ""
    assert "rounding check" in captured.err


def test_inconsistency_is_one_class_everywhere():
    assert genfun.InternalInconsistency is residues.InternalInconsistency
