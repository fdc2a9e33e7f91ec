"""Frozen exact values shared by the unit and acceptance tests.

The low-order constants were verified by hand; everything larger was
frozen from an independent finite-n dynamic-programming oracle and from
dual-route symbolic computation, and is pinned here so any regression in
the engine trips a hard equality failure.  The exact square route to S_k,
which the engine now takes only modulo primes, is kept here as the
reference of that check.
"""

from ranktree import genfun
from ranktree.plring import ONE, U, Rational

C_EXACT = {
    0: Rational(1, 3),
    1: Rational(3, 10),
    2: Rational(1721, 8100),
    3: Rational(250488312501647783, 2294809143026400000),
    4: Rational(
        122058464141653662196290113232646304412999902283512425580156787323,
        3353377025022449199852900725670960067418280803797231788288000000000,
    ),
}

# denominator factorizations (prime, exponent), ascending
C3_DEN_FACTORS = [(2, 8), (3, 7), (5, 5), (7, 3), (11, 3), (13, 2), (17, 1)]
C5_DEN_FACTORS = [
    (2, 48), (3, 42), (5, 28), (7, 18), (11, 16), (13, 16), (17, 17),
    (19, 16), (23, 15), (29, 12), (31, 12), (37, 10), (41, 9), (43, 8),
    (47, 7), (53, 5), (59, 3), (61, 2),
]

F_EXACT = [Rational(1, 3), Rational(17, 30), Rational(152389, 170100)]
G_EXACT = [Rational(1, 3), Rational(1, 3), Rational(49, 180)]
F_OVER_C = [Rational(1), Rational(17, 9), Rational(152389, 36141)]
G_OVER_C = [Rational(1), Rational(10, 9), Rational(2205, 1721)]

# first leaf-distance moments I_{k,1} of the greedy-walk tail
I1_EXACT = [Rational(1, 3), Rational(7, 36), Rational(109, 1080)]


def cdf_square(k):
    """1 - u·B_{<=k-1}: S_k is 4/3 minus the integral of its square."""
    return ONE - U * genfun.root_rank_cdf_gf(k - 1)


def square_integral(k):
    """∫(1 - u·B_{<=k-1})² over [0, 1], by the exact square: the reference
    of the check in genfun.rank_constant, which takes it modulo primes."""
    return (cdf_square(k) ** 2).integral01()
