"""Number-theoretic and structural checks on the exact rank constants.

Factors the denominators of c_k by trial division, checks that the
largest prime divisor stays below 2^(k+1)+1 (a theorem) and that the
prime support is a gap-free interval starting at 2 (a conjecture, for
k >= 2), and verifies the term-structure bounds on B_k.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import genfun, residues
from .plring import Rational

__all__ = [
    "FactorReport",
    "ConjectureVerdict",
    "PLStructureReport",
    "factor_smooth",
    "check_conjectures",
    "check_pl_structure",
    "factor_pass",
]


@dataclass(frozen=True)
class FactorReport:
    input: int
    factors: list[tuple[int, int]]  # (prime, exponent), ascending
    residual: int                   # 1 if fully factored below the bound
    bound: int

    @property
    def fully_factored(self) -> bool:
        return self.residual == 1

    def to_dict(self) -> dict:
        return {
            "input": str(self.input),
            "factors": [[p, e] for p, e in self.factors],
            "residual": str(self.residual),
            "bound": self.bound,
        }


def factor_smooth(n: int, bound: int) -> FactorReport:
    """Factor out every prime <= bound by trial division."""
    if n < 1 or bound < 2:
        raise ValueError("need n >= 1 and bound >= 2")
    residual = n
    factors = []
    for p in residues.primes_upto(bound):
        if p * p > residual and residual <= bound:
            break
        e = 0
        while residual % p == 0:
            residual //= p
            e += 1
        if e:
            factors.append((p, e))
    if 1 < residual <= bound:
        # residual itself is a prime within the bound
        factors.append((residual, 1))
        residual = 1
        factors.sort()
    return FactorReport(input=n, factors=factors, residual=residual, bound=bound)


@dataclass(frozen=True)
class ConjectureVerdict:
    k: int
    denominator: FactorReport
    threshold: int                  # 2^(k+1) + 1
    largest_prime: int              # 0 if no prime factor found
    smoothness_pass: bool           # largest prime divisor <= threshold
    gap_free: bool | None           # prime support = all primes up to largest;
                                    # None when not applicable (k < 2)

    def to_dict(self) -> dict:
        return {**asdict(self), "denominator": self.denominator.to_dict()}


def check_conjectures(k: int, c: Rational) -> ConjectureVerdict:
    """Check both denominator conjectures for one exact constant c_k.

    Smoothness (proved in general): every prime divisor of denom(c_k) is
    at most 2^(k+1)+1.  Gap-freeness (open, stated for k >= 2): the prime
    divisors form the full interval of primes from 2 up to the largest.
    Verdicts are only asserted when the factorization is complete.
    """
    threshold = 2 ** (k + 1) + 1
    denom = int(c.denominator)
    report = factor_smooth(denom, threshold)
    primes = [p for p, _ in report.factors]
    largest = primes[-1] if primes else 0
    smooth = report.fully_factored
    # an incomplete factorization is not gap-free
    gap_free = None if k < 2 else smooth and primes == list(residues.primes_upto(largest))
    return ConjectureVerdict(k, report, threshold, largest, smooth, gap_free)


@dataclass(frozen=True)
class PLStructureReport:
    k: int
    bound: int                      # 2^(k+1) - 1
    max_upow: int
    max_vpow: int
    min_upow: int
    max_denom_prime: int
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_pl_structure(k: int) -> PLStructureReport:
    """Verify the exponent and coefficient-denominator bounds on B_k.

    The coefficient denominators are factored through their lcm, the
    expression's common denominator, once; if it does not factor below the
    bound, max_denom_prime is the rest of it.
    """
    bound = 2 ** (k + 1) - 1
    expr = genfun.root_rank_gf(k)
    max_u = max_v = min_u = 0
    for b, c in expr.exponents:
        max_u, min_u, max_v = max(max_u, b), min(min_u, b), max(max_v, c)
    den = expr.denominator
    max_prime = 0
    if den > 1:
        rep = factor_smooth(den, bound)
        max_prime = rep.factors[-1][0] if rep.fully_factored else rep.residual
    passed = min_u >= 0 and max_u <= bound and max_v <= bound and max_prime <= bound
    return PLStructureReport(k, bound, max_u, max_v, min_u, max_prime, passed)


def factor_pass(verdict: ConjectureVerdict, structure: PLStructureReport) -> bool:
    """The one pass criterion of ``factor`` and ``verify`` at a k: smoothness,
    gap-freeness where it applies (k >= 2) and the structure bounds."""
    return verdict.smoothness_pass and verdict.gap_free is not False and structure.passed
