"""Generating functions and exact constants for vertex ranks.

Builds, inside the (1-x)^b log(1/(1-x))^c ring:

* B_k       -- probability GF of a root of rank exactly k,
* B_{<=k}   -- its partial sums (root rank at most k),
* Bcal_{>k} -- (rank > k root, descendant leaf) pair GFs,
* Bhat_k    -- (rank k root, closest descendant leaf) GFs,
* P_{>k}    -- tail GF of the randomized greedy root-to-leaf walk,

and from them the limiting constants c_k, f_k, g_k, the tail moments
I_{k,t} = integral of (1-y)^t P_{>k}(y), the tail-bound tables and the
shortest-path constant alpha_0 of their lower reference.

Each family is described once, in the table _FAMILIES: its first k, its
value there, and the right-hand side of its first-order equation in x as
a function of k.  One generic build (gf_by_kind) antidifferentiates the
right-hand side once from 0, and ode_residual differentiates once and
subtracts the same right-hand side, computed afresh.  That residual
therefore checks the calculus layer and the memo, not the recurrences
themselves; each family keeps an independent guard:

* B_k: the partial-sum route to c_k (rank_constant), and B_{<=k} equal
  to the sum of the levels B_0..B_k;
* B_{<=k}: its series against the finite-n DP to order 50;
* Bcal_{>k}, Bhat_k: their series against the DP, and the exact f_k and
  g_k values;
* P_{>k}: the moment recurrence against the direct integral for k <= 6,
  and the simulated greedy walk at n = 30.

Whenever two independent routes to the same exact value exist (the tail
moments exactly, c_k modulo three fixed primes, product about 2^78), both
are computed and compared; any mismatch raises InternalInconsistency.

One rule for every constant, read off the memo.  If the memo holds F_k,
its constant integrates it: c_k = 2∫u·B_k, g_k = 2∫u·Bhat_k and
f_k = 2(J_{k-1} − J_k).  Otherwise it integrates level k's right-hand
side, which is memoized until gf_by_kind builds F_k from it, so no product
is computed twice and F_k is built only when a higher level or a caller
needs it.  Each entry is antidifferentiated from 0 and u²·F_k vanishes at
x = 1, so by parts 2∫u·F_k = ∫u²·F_k′, and

* c_k = ∫u²·rhs_k,  g_k = ∫u²·rhs^hat_k,
* f_k = ∫u²·(Bcal′_{>k-1} − rhs^cal_k), where each term diverges alone
  and their divergent parts must be equal.

So ``constants_table(K)`` builds no entry of level K of the three
families behind c_k, f_k and g_k (root_rank, leaf_pair_tail,
closest_leaf), and neither does ``tail_report(K)`` of root_rank.
tail_report does build P_{>K} for K <= 6, where tail_moment checks its
recurrence against the direct integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .plring import ONE, DivergentIntegral, PLExpr, Rational, U, UINV, X, ZERO, square_integral01
from .residues import InternalInconsistency, Moduli

__all__ = [
    "InternalInconsistency",
    "ConstantsRow",
    "TailTable",
    "TailRow",
    "KINDS",
    "root_rank_gf",
    "root_rank_cdf_gf",
    "rank_constant",
    "partial_sum",
    "leaf_pair_tail_gf",
    "leaf_pair_constant",
    "closest_leaf_gf",
    "closest_leaf_constant",
    "per_vertex_ratios",
    "greedy_tail_gf",
    "tail_moment",
    "tail_envelope",
    "alpha0",
    "tail_report",
    "ode_residual",
    "constants_table",
    "gf_by_kind",
    "cache_snapshot",
    "cache_insert",
]


# ---------------------------------------------------------------------------
# The five families


class _Family(NamedTuple):
    first: int                      # smallest k of the family
    base: PLExpr                    # its value at k = first
    rhs: Callable[[int], PLExpr]    # d/dx F_k, for k > first


def _root_rank_rhs(k: int) -> PLExpr:
    # summed from the levels, not read from B_{<=k-2}, so that the two
    # routes to c_k share no generating function
    prev = root_rank_gf(k - 1)
    below = sum((root_rank_gf(j) for j in range(k - 1)), ZERO)
    return prev * (2 * (UINV - below) - prev)


def _greedy_tail_rhs(k: int) -> PLExpr:
    # P″_{>k} = 2P′_{>k-1} + 2u^{-2}P_{>k-1} integrated once from 0, where
    # P′_{>k}(0) = [x^1]P_{>k} = 0 and P_{>k-1}(0) = 0
    prev = 2 * greedy_tail_gf(k - 1)
    return prev + (PLExpr.term(1, -2, 0) * prev).antiderivative()


_FAMILIES: dict[str, _Family] = {
    "root_rank": _Family(0, X, _root_rank_rhs),
    # d/dx(1/(1-x) - B_{<=k}) = (1/(1-x) - B_{<=k-1})^2 - 1
    "root_rank_cdf": _Family(
        -1, ZERO,
        lambda k: UINV * UINV - ((UINV - root_rank_cdf_gf(k - 1)) ** 2 - ONE),
    ),
    # base: the GF of E[L_n] = (n+1)/3 for n >= 2, 1 for n = 1
    "leaf_pair_tail": _Family(
        -1, PLExpr({(-2, 0): Rational(1, 3), (1, 0): Rational(-1, 3)}),
        lambda k: 2 * (UINV - root_rank_cdf_gf(k - 1)) * leaf_pair_tail_gf(k - 1),
    ),
    # bracket 1 + B_{>=k-1}(x) read as 1/(1-x) - B_{<=k-2}(x)
    "closest_leaf": _Family(
        0, X,
        lambda k: 2 * (UINV - root_rank_cdf_gf(k - 2)) * closest_leaf_gf(k - 1),
    ),
    "greedy_tail": _Family(-1, UINV - ONE, _greedy_tail_rhs),
}

KINDS = tuple(_FAMILIES)


# In-memory memo.  F_k is kept under (kind, k), and a right-hand side whose
# F_k is not built yet under (kind, k, "rhs"): gf_by_kind takes it out to
# build F_k, so no F_k has both.  Idempotent fill: recomputation is
# deterministic, so concurrent duplicate writes store identical values.
_CACHE: dict[tuple, PLExpr] = {}


def _family(kind: str) -> _Family:
    try:
        return _FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown GF kind {kind!r}") from None


def cache_snapshot() -> dict[tuple, PLExpr]:
    """The memo: F_k under (kind, k), a right-hand side under (kind, k, "rhs")."""
    return dict(_CACHE)


def cache_insert(kind: str, k: int, expr: PLExpr, rhs: bool = False) -> None:
    """Seed the memo (e.g. from an on-disk cache) with F_k, which drops a
    memoized right-hand side of F_k, or with that right-hand side (``rhs``,
    for k above the family's first), which is ignored once F_k is memoized."""
    first = _family(kind).first
    if not rhs:
        _CACHE.setdefault((kind, k), expr)
        _CACHE.pop((kind, k, "rhs"), None)
    elif k <= first:
        raise ValueError(f"{kind} has no right-hand side at k = {k}")
    elif (kind, k) not in _CACHE:
        _CACHE.setdefault((kind, k, "rhs"), expr)


def _memo_rhs(kind: str, k: int) -> PLExpr:
    """The right-hand side of F_k, memoized until gf_by_kind builds F_k;
    for a k above the family's first whose F_k is not memoized."""
    key = (kind, k, "rhs")
    hit = _CACHE.get(key)
    if hit is None:
        hit = _CACHE.setdefault(key, _FAMILIES[kind].rhs(k))
    return hit


def gf_by_kind(kind: str, k: int) -> PLExpr:
    """F_k of one family: its base value, or its right-hand side (taken out
    of the memo when there) antidifferentiated from 0; memoized."""
    first, expr, rhs = _family(kind)
    if k < first:
        raise ValueError(f"k must be >= {first}")
    key = (kind, k)
    hit = _CACHE.get(key)
    if hit is None:
        if k > first:
            expr = _CACHE.pop((kind, k, "rhs"), None)
            if expr is None:
                expr = rhs(k)
            expr = expr.antiderivative()
        hit = _CACHE.setdefault(key, expr)
    return hit


def ode_residual(kind: str, k: int) -> PLExpr:
    """Plug the computed F_k back into its defining equation.

    Returns the derivative minus the right-hand side (at the first k, the
    value minus the base value), which must be the zero element: any
    nonzero residual means the calculus layer, or a memo entry, is broken.  The right-hand side is recomputed, never read from
    the memo, from which the entry may have been built.
    """
    expr = gf_by_kind(kind, k)  # rejects an unknown kind or k
    first, base, rhs = _FAMILIES[kind]
    if k == first:
        return expr - base
    return expr.differentiate() - rhs(k)


# ---------------------------------------------------------------------------
# Root rank generating functions


def root_rank_gf(k: int) -> PLExpr:
    """B_k: sum of x^n P(root of the random n-tree has rank k)."""
    return gf_by_kind("root_rank", k)


def root_rank_cdf_gf(k: int) -> PLExpr:
    """B_{<=k}: sum of x^n P(root rank <= k); B_{<=-1} = 0."""
    return gf_by_kind("root_rank_cdf", k)


@functools.cache
def _check_moduli() -> Moduli:  # three primes near 2^26, far above 2^(k+1)+1
    return Moduli(2**40)


def _u_integral(kind: str, k: int) -> Rational:
    """2∫u·F_k over [0, 1]: with F_k not memoized, ∫u²·rhs_k from the
    memoized right-hand side, and F_k is not built (see the module
    docstring)."""
    if k > _FAMILIES[kind].first and (kind, k) not in _CACHE:
        return _memo_rhs(kind, k).integral01(2)
    return 2 * gf_by_kind(kind, k).integral01(1)


@functools.cache
def _constant_and_sum(k: int) -> tuple[Rational, Rational]:
    """(c_k, S_k), memoized once c_k has passed the check: c_k = 2∫u·B_k
    (_u_integral), and S_k = S_{k-1} + c_k checked against
    4/3 - ∫(1 - u·B_{<=k-1})² modulo each prime of _check_moduli."""
    # B_{<=k-1}'s route first: with B_k built first, a cold k = 7 run peaked 1.5 MB higher
    moduli = _check_moduli()
    square = square_integral01(ONE - U * root_rank_cdf_gf(k - 1), moduli)
    c = _u_integral("root_rank", k)
    s = c + (_constant_and_sum(k - 1)[1] if k else 0)
    t = Rational(4, 3) - s
    for p, r in zip(moduli.q.tolist(), square):
        if not t.denominator % p or (t.numerator - r * t.denominator) % p:
            raise InternalInconsistency(f"c_{k}: the partial-sum route disagrees modulo {p}")
    return c, s


def partial_sum(k: int) -> Rational:
    """S_k = c_0 + ... + c_k exactly, each c_k checked modulo three primes (rank_constant)."""
    if k < -1:
        raise ValueError("k must be >= -1")
    return _constant_and_sum(k)[1] if k >= 0 else Rational(0)


def rank_constant(k: int) -> Rational:
    """Exact c_k = 2∫u·B_k, checked against S_k = 4/3 - ∫(1 - u·B_{<=k-1})².

    The check is taken modulo three fixed primes near 2^26, not exactly: a
    wrong c_k passes only if their product, about 2^78, divides the
    numerator of its error.  It guards against bugs, not an adversary.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _constant_and_sum(k)[0]


# ---------------------------------------------------------------------------
# Descendant-leaf pair families


def leaf_pair_tail_gf(k: int) -> PLExpr:
    """Bcal_{>k}: GF of expected (root rank > k) x (leaf count) products."""
    return gf_by_kind("leaf_pair_tail", k)


@functools.cache
def _tail_integral(k: int) -> tuple[Rational, PLExpr]:
    """(J_k, D_k), memoized: J_k = ∫u·G_k over [0, 1], where Bcal_{>k} = G_k + D_k
    and D_k holds the terms u^b v^c with b <= -2, whose integrals against u diverge."""
    return leaf_pair_tail_gf(k).integral01(1, split=True)


def _difference(above: tuple[Rational, PLExpr], below: tuple[Rational, PLExpr], s: int) -> Rational:
    """∫u^s·(F - G) from the split integrals of F and G (integral01(s,
    split=True)).  Their divergent parts must be equal: DivergentIntegral
    names the least term of u^s·(F - G) that diverges otherwise."""
    (value_above, divergent_above), (value, divergent) = above, below
    if divergent_above != divergent:
        b, c = min((divergent_above - divergent).exponents)
        raise DivergentIntegral(f"term u^{b + s} v^{c} diverges on [0, 1]")
    return value_above - value


def leaf_pair_constant(k: int) -> Rational:
    """Exact f_k = 2∫u·Bcal_k, Bcal_k = Bcal_{>k-1} - Bcal_{>k}.

    With Bcal_{>k} memoized it is 2(J_{k-1} - J_k): each tail is integrated
    once (J_k is memoized and shared by f_k and f_{k+1}), and no difference
    expression is built.  Otherwise it is ∫u²·(Bcal′_{>k-1} - rhs^cal_k),
    and Bcal_{>k} is not built.  Bcal′_{>k-1} is not formed (its canonical
    form took 40 ms at k = 7): with Bcal_{>k-1} = G + D split as in J_{k-1},
    the divergent terms of its derivative against u² are those of D′, and
    by parts, since Bcal_{>k-1}(0) = 0 and u²G vanishes at x = 1, the
    integral of the others is 2J_{k-1} + D(0).

    The divergent parts of the two terms must be equal: DivergentIntegral
    names the least term where they differ otherwise.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if ("leaf_pair_tail", k) in _CACHE:
        return 2 * _difference(_tail_integral(k - 1), _tail_integral(k), 1)
    value, divergent = _tail_integral(k - 1)
    above = 2 * value + divergent.series(0)[0], divergent.differentiate()
    return _difference(above, _memo_rhs("leaf_pair_tail", k).integral01(2, split=True), 2)


def closest_leaf_gf(k: int) -> PLExpr:
    """Bhat_k: GF of expected (root rank = k) x (closest-leaf count) products."""
    return gf_by_kind("closest_leaf", k)


def closest_leaf_constant(k: int) -> Rational:
    """Exact g_k = 2 * integral of (1-x) Bhat_k over [0, 1]."""
    return _u_integral("closest_leaf", k)


def per_vertex_ratios(k: int) -> tuple[Rational, Rational]:
    """Limiting per-rank-k-vertex leaf counts: (f_k/c_k, g_k/c_k)."""
    c = rank_constant(k)
    return leaf_pair_constant(k) / c, closest_leaf_constant(k) / c


# ---------------------------------------------------------------------------
# Greedy-path tails


def greedy_tail_gf(k: int) -> PLExpr:
    """P_{>k}: GF of P(randomized greedy root-to-leaf walk is longer than k)."""
    return gf_by_kind("greedy_tail", k)


# the recurrence route is checked against the direct integral up to here
_TAIL_MOMENT_CHECK_KMAX = 6


def tail_moment(k: int, t: int) -> Rational:
    """I_{k,t} = integral of (1-y)^t P_{>k}(y) over [0, 1], exact."""
    if k < -1:
        raise ValueError("k must be >= -1")
    if t < 1:
        raise ValueError("t must be >= 1")
    return _tail_moment(k, t)


@functools.cache
def _tail_moment(k: int, t: int) -> Rational:
    if k == -1:
        value = Rational(1) / (t * (t + 1))
    else:
        # I_{k,t} = 2/((t+2)(t+1)) [I_{k-1,t} + (t+2) I_{k-1,t+1}]
        value = (
            2 * (_tail_moment(k - 1, t) + (t + 2) * _tail_moment(k - 1, t + 1))
            / Rational((t + 2) * (t + 1))
        )
    if k <= _TAIL_MOMENT_CHECK_KMAX:
        direct = greedy_tail_gf(k).integral01(t)
        if direct != value:
            raise InternalInconsistency(
                f"I_{{{k},{t}}}: recurrence {value} != integral {direct}"
            )
    return value


def tail_envelope(k: int) -> Rational:
    """(6k+7)/3 * (1/3)^k, the proven bound on 1 - S_k; half of it bounds I_{k,1}."""
    return Rational(6 * k + 7, 3) / Rational(3) ** k


def _g_of_alpha(a: float) -> float:
    return a + a * math.log(2.0 / a) - 1.0


def alpha0() -> float:
    """Smaller positive root of a + a log(2/a) - 1, bisected to within 1e-12."""
    lo, hi = 0.1, 1.0  # g(0.1) < 0 < g(1) = log 2
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if _g_of_alpha(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class TailRow:
    k: int
    exact_tail: Rational           # 1 - S_k
    exact_tail_prev: Rational      # 1 - S_{k-1}, the other index convention
    moment_bound: Rational         # 2 I_{k,1}
    theorem_bound: Rational        # (6k+7)/3 * (1/3)^k
    lower_reference: float         # (2/3) e^{-k/alpha0}, reported only


@dataclass(frozen=True)
class TailTable:
    alpha0: float
    rows: list[TailRow] = field(default_factory=list)
    moments: dict[tuple[int, int], Rational] = field(default_factory=dict)


def tail_report(kmax: int) -> TailTable:
    """Exact tails 1 - S_k next to both proven upper bounds, and the
    moments I_{k,t} for t = 1..4.

    Asserts 1 - S_k <= 2 I_{k,1} and 1 - S_k <= (6k+7)/3 (1/3)^k for every
    computed k; the exponential lower envelope is attached as a floating
    reference value only.
    """
    a0 = alpha0()
    rows = []
    moments = {}
    for k in range(kmax + 1):
        for t in range(1, 5):
            moments[(k, t)] = tail_moment(k, t)
        tail = 1 - partial_sum(k)
        tail_prev = 1 - partial_sum(k - 1)
        bound2i = 2 * tail_moment(k, 1)
        theorem = tail_envelope(k)
        if tail > bound2i:
            raise InternalInconsistency(f"1 - S_{k} exceeds 2 I_{{{k},1}}")
        if tail > theorem:
            raise InternalInconsistency(f"1 - S_{k} exceeds the (1/3)^k bound")
        rows.append(
            TailRow(
                k=k,
                exact_tail=tail,
                exact_tail_prev=tail_prev,
                moment_bound=bound2i,
                theorem_bound=theorem,
                lower_reference=(2.0 / 3.0) * math.exp(-k / a0),
            )
        )
    return TailTable(alpha0=a0, rows=rows, moments=moments)


# ---------------------------------------------------------------------------
# Constants table


@dataclass(frozen=True)
class ConstantsRow:
    k: int
    c: Rational
    f: Rational
    g: Rational
    partial_sum: Rational
    f_over_c: Rational
    g_over_c: Rational


def constants_table(kmax: int) -> list[ConstantsRow]:
    """The rows k = 0..kmax of c_k, f_k, g_k, S_k and the per-vertex ratios.

    InternalInconsistency unless every c_k > 0 and every S_k < 1.
    """
    rows = []
    for k in range(kmax + 1):
        c, s = rank_constant(k), partial_sum(k)
        f, g = leaf_pair_constant(k), closest_leaf_constant(k)
        if not 0 < c or not s < 1:
            raise InternalInconsistency(f"c_{k} or S_{k} out of range")
        rows.append(
            ConstantsRow(
                k=k, c=c, f=f, g=g, partial_sum=s, f_over_c=f / c, g_over_c=g / c
            )
        )
    return rows
