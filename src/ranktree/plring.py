"""Exact arithmetic on finite combinations of (1-x)^b * log(1/(1-x))^c.

Every function handled here is a finite sum

    sum of  coeff * u^b * v^c,   u = 1 - x,  v = log(1/(1-x)),

with exact rational coefficients, integer b (possibly negative) and
nonnegative integer c.  The family {u^b v^c} is linearly independent on
[0, 1), so two expressions are equal as functions iff their canonical
term maps coincide.  The class is closed under the ring operations,
differentiation and antidifferentiation, which is what makes it the
right kernel for the generating-function recurrences in genfun.

Representation.  A PLExpr holds integer numerators over one shared
denominator: a map (b, c) -> int and a positive int ``den``.  The form is
canonical: every numerator is nonzero, gcd(den, *numerators) == 1, and
zero is the empty map over 1.  Equality and hashing therefore compare the
two parts directly.  A product multiplies integers only and reduces once
over its output; a sum rescales both sides to the lcm of their
denominators; the calculus operations scale numerators by integer
factors.  ``antiderivative`` reduces each column of b against its own
(b+1)^(t+1), t its top power of v, and each b = -1 term against its
c+1, and puts the columns over the lcm of what is left, not over the lcm
of every (b+1)^(t+1).  The canonical reduction finds gcd(den,
*numerators) by a checked combination: the gcd of den with two weighted
sums of the numerators is a multiple of the true gcd, and each numerator
it does not divide is taken into it, so it ends exact.  ``series`` is
Taylor's formula on the ring's own derivative: it differentiates the raw
numerators ``order`` times over the same denominator, and coefficient j
is the v-free part of the j-th derivative over den·j!.  No rational is
formed per term inside the kernel: ``terms``, ``coeff``, iteration and
the scalar results (``value_at_0``, ``integral01``, ``series``) hand out
reduced Rationals built from the integer parts.

Products.  A product of two term maps takes one of two routes, with the
same result to the last bit; both end in the same canonical reduction.

* Short operands go through a double loop over the terms, each square
  visiting every cross pair once.  Below _RESIDUE_PAIRS term pairs this is
  the faster route.  A product by a single term always takes it, however
  long the other operand.
* From _RESIDUE_PAIRS term pairs on, the numerators are computed modulo
  the moduli of ranktree.residues for the bound
  max|a|·max|b|·min(len a, len b), which no output numerator exceeds in
  absolute value, and rebuilt there, nonzero cells only.  Each operand
  is reduced once, for all primes, by Moduli.residues.  Each residue,
  below 2^26, is split into 13-bit halves, so a product of grids is
  three real convolutions: low·low, the cross terms and high·high, each
  cell an exact integer below 2^27 times the length of the shorter
  operand, far inside the 2^53 of a float64.  They are
  computed by numpy's rfft2 on the dense (b, c) grids, zero-padded on
  each axis to the least 5-smooth length that holds the product, so the
  cyclic convolution is the linear one; a square transforms its operand
  once.  Every output cell must lie within 1/4 of an integer, or
  InternalInconsistency names the rounding check (the error is far
  smaller: Percival 2003 bounds it; the largest seen by
  `constants --kmax 7` is 2^-15, about 3.1e-5).  The rounded cells are
  reduced modulo q and recombined as high·2^26 + cross·2^13 + low.
  The passes take _CHUNK primes at a time, each on its columns of the
  operands' residues, and fill an int32 table of cells × primes.  A pass
  holds, per prime, the low and high spectra of each operand on the
  padded grid and one or two product spectra at a time, so its memory
  grows with the primes per pass.  With 1, 4, 8 and 32 primes a pass a
  cold `constants --kmax 6` peaked at 41.2-41.3, 41.3, 41.8 and
  49.3-49.4 MB and a warm one at 38.3-38.4, 39.3-39.4, 41.2-41.3 and
  48.8-48.9 MB, and the cold runs took 1.30-1.37, 1.25-1.35, 1.22-1.33
  and 1.29-1.32 s (3 runs each): past 4 primes, more primes a pass cost
  memory and save no time.

The cutoff was measured on the products of constants_table(6) (2-core
Xeon, Python 3.11.7, numpy 2.4.6), best of 3 on each route, in three
sweeps.  Squares of B_4-sized operands (173^2 = 29,929 and 174^2 =
30,276 pairs) take 7.1-9.1 ms by residues and 7.4-10.3 ms in the loop,
so squares cross near the cutoff.  Products of distinct operands cross
between 8,650 pairs (173 × 50: 4.4-6.2 ms against 3.7-4.4 ms) and the
next size above, 31,668 pairs (174 × 182: 8.7-9.6 ms against
18.8-20.7 ms); no product of constants_table(6) lies between them.
645 × 174 takes 34-37 ms against 86-103 ms.  A single term times B_6
(2,485 pairs) shows why the cutoff counts pairs: the loop takes 6-8 ms,
while the residue route, which reduces 2,485 numerators of 3,500 bits
and transforms the whole product grid, takes 97-99 ms (best of 5, two
runs).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .residues import InternalInconsistency, Moduli

try:  # when gmpy2 is installed, exact values are handed out as its mpq
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rational

__all__ = [
    "Rational",
    "rational",
    "DivergentIntegral",
    "PLExpr",
    "ZERO",
    "ONE",
    "U",
    "UINV",
    "V",
    "X",
]


# Products of at least this many term pairs take the residue route; the
# measured crossover is in the module docstring.
_RESIDUE_PAIRS = 30_000
_CHUNK = 4  # primes per FFT pass of the residue convolution
_HALF = 13  # bits in the low half of a residue, which is below 2^(2·_HALF)


def rational(num, den=1) -> Rational:
    """Build a canonical Rational from ints, decimal strings, or Rationals."""
    if isinstance(num, str):
        num = int(num)
    if isinstance(den, str):
        den = int(den)
    return Rational(num) / Rational(den)


class DivergentIntegral(ValueError):
    """Raised when integrating a term (1-x)^b with b < 0 over [0, 1]."""


def _ratio(a) -> tuple[int, int]:
    """(numerator, positive denominator) of an int or rational coefficient."""
    if isinstance(a, int):
        return a, 1
    if isinstance(a, (Rational, Fraction)):
        return int(a.numerator), int(a.denominator)
    raise TypeError(f"cannot use {a!r} as a coefficient")


class PLExpr:
    """Canonical, immutable term map (upow, vpow) -> numerator, over one denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[tuple[int, int], object] | None = None):
        parts = []
        for (b, c), a in (terms or {}).items():
            if c < 0:
                raise ValueError("vpow must be nonnegative")
            parts.append(((int(b), int(c)), *_ratio(a)))
        den = math.lcm(*(q for _, _, q in parts))
        num: dict[tuple[int, int], int] = {}
        for key, p, q in parts:
            num[key] = num.get(key, 0) + p * (den // q)
        self._num, self._den = _reduce(num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def term(cls, coeff, upow: int = 0, vpow: int = 0) -> "PLExpr":
        return cls({(upow, vpow): coeff})

    @classmethod
    def const(cls, value) -> "PLExpr":
        return cls.term(value)

    # -- canonical access --------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Rational]:
        den = self._den
        return {key: Rational(n, den) for key, n in self._num.items()}

    @property
    def denominator(self) -> int:
        """The common denominator: the lcm of the reduced term denominators."""
        return self._den

    @property
    def exponents(self):
        """The (upow, vpow) pairs of the nonzero terms, in no set order."""
        return self._num.keys()

    def coeff(self, upow: int, vpow: int) -> Rational:
        return Rational(self._num.get((upow, vpow), 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, PLExpr):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        if not self._num:
            return "PLExpr(0)"
        bits = [f"({a})*u^{b}*v^{c}" for (b, c), a in self]
        return "PLExpr[" + " + ".join(bits) + "]"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "PLExpr":
        if isinstance(other, (int, Rational)):
            other = PLExpr.const(other)
        if not isinstance(other, PLExpr):
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        g = math.gcd(self._den, other._den)
        m1, m2 = other._den // g, self._den // g
        out = {key: n * m1 for key, n in self._num.items()} if m1 != 1 else dict(self._num)
        for key, n in other._num.items():
            out[key] = out.get(key, 0) + n * m2
        return _canon(out, self._den * m1)

    __radd__ = __add__

    def __neg__(self) -> "PLExpr":
        return _raw({key: -n for key, n in self._num.items()}, self._den)

    def __sub__(self, other) -> "PLExpr":
        if isinstance(other, (int, Rational)):
            other = PLExpr.const(other)
        if not isinstance(other, PLExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PLExpr":
        return (-self) + other

    def scale(self, a) -> "PLExpr":
        p, q = _ratio(a)
        if not p:
            return ZERO
        return _canon({key: n * p for key, n in self._num.items()}, self._den * q)

    def __mul__(self, other) -> "PLExpr":
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        if not isinstance(other, PLExpr):
            return NotImplemented
        la, lb = len(self._num), len(other._num)
        # a product by one term stays in the loop, however long the other side
        if min(la, lb) > 1 and la * lb >= _RESIDUE_PAIRS:
            return _canon(_residue_product(self._num, other._num), self._den * other._den)
        out: dict[tuple[int, int], int] = {}
        get = out.get
        if other is self:
            # a square: each cross term once, doubled
            items = list(self._num.items())
            for i, ((b1, c1), n1) in enumerate(items):
                key = (b1 + b1, c1 + c1)
                out[key] = get(key, 0) + n1 * n1
                n1 += n1
                for (b2, c2), n2 in items[i + 1 :]:
                    key = (b1 + b2, c1 + c2)
                    out[key] = get(key, 0) + n1 * n2
        else:
            right = list(other._num.items())
            for (b1, c1), n1 in self._num.items():
                for (b2, c2), n2 in right:
                    key = (b1 + b2, c1 + c2)
                    out[key] = get(key, 0) + n1 * n2
        return _canon(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PLExpr":
        if n < 0:
            raise ValueError("negative powers of PLExpr are not defined")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def differentiate(self) -> "PLExpr":
        """Exact d/dx:  u^b v^c  ->  -b u^(b-1) v^c + c u^(b-1) v^(c-1)."""
        return _canon(_derivative(self._num), self._den)

    def antiderivative(self, value_at_0=0) -> "PLExpr":
        """The antiderivative F with F(0) = value_at_0, exact.

        u^(-1) v^c integrates to v^(c+1)/(c+1).  For b != -1, with w = b+1,
        integration by parts gives

            u^b v^c  ->  -sum_{j<=c} c!/j! · w^(j-c-1) · u^w v^j,

        so the column b of numerators n_c, up to its top power t of v,
        yields at (w, j) the numerator -T_j · w^j over w^(t+1), where
        T_j = n_j w^(t-j) + (j+1) T_(j+1) is a Horner sum over c.  Each
        column is reduced on its own: its numerators and w^(t+1), a few
        hundred bits at k = 7, are divided by their gcd; so is each b = -1
        term against its c+1.  All terms then go over den * scale, where
        scale is the lcm of those reduced denominators and of the
        denominator of value_at_0, and each column is rescaled by one
        integer.  The common multiplier is thus no larger than the result
        needs.  For the right-hand side of B_7, the lcm of every
        (b+1)^(t+1) has 14,366 bits and the reduced one 7,150: putting
        every term over the larger one and dividing the 7,215 surplus bits
        back out took about half of constants_table(7).
        """
        p, q = _ratio(value_at_0)
        parts = []  # (numerators by term, reduced denominator), one per column
        for b, col in _columns(self._num).items():
            if b == -1:
                for c, n in col.items():
                    g = math.gcd(n, c + 1)
                    parts.append(({(0, c + 1): n // g}, (c + 1) // g))
                continue
            w, top = b + 1, max(col)
            powers = [w**j for j in range(top + 1)]
            d = powers[top] * w  # w^(t+1), signed
            g = abs(d)
            nums, t = {}, 0
            for c in range(top, -1, -1):
                t = col.get(c, 0) * powers[top - c] + (c + 1) * t
                n = nums[(w, c)] = -t * powers[c]
                if g != 1:
                    g = math.gcd(g, n)
            if g != 1:
                nums = {key: n // g for key, n in nums.items()}
            parts.append((nums, d // g))
        scale = math.lcm(q, *(abs(d) for _, d in parts))
        out: dict[tuple[int, int], int] = {}
        for nums, d in parts:
            m = scale // d
            for key, n in nums.items():
                out[key] = n * m
        den = self._den * scale
        # fix the constant: F(0) is the sum of the v-free numerators, and
        # no column writes (0, 0)
        at0 = sum(t for (_, c), t in out.items() if c == 0)
        out[(0, 0)] = p * (den // q) - at0
        return _canon(out, den)

    def value_at_0(self) -> Rational:
        """Exact value at x = 0, where u = 1 and v = 0."""
        return Rational(sum(n for (_, c), n in self._num.items() if c == 0), self._den)

    def integral01(self) -> Rational:
        """Exact integral over [0, 1]: each term contributes c!/(b+1)^(c+1).

        The column b, up to its top power t of v, sums by Horner over c to
        (sum_c n_c c! (b+1)^(t-c)) / (b+1)^(t+1).
        """
        for b, c in self._num:
            if b < 0:
                raise DivergentIntegral(f"term u^{b} v^{c} diverges on [0, 1]")
        columns = _columns(self._num)
        scale = math.lcm(*((b + 1) ** (max(col) + 1) for b, col in columns.items()))
        total = 0
        for b, col in columns.items():
            w, top, acc, fact = b + 1, max(col), 0, 1
            for c in range(top + 1):
                acc = acc * w + col.get(c, 0) * fact
                fact *= c + 1
            total += acc * (scale // w ** (top + 1))
        return Rational(total, self._den * scale)

    # -- power series ------------------------------------------------------

    def series(self, order: int) -> list[Rational]:
        """Exact Taylor coefficients [x^0 .. x^order] at x = 0.

        Coefficient j is F^(j)(0)/j!: the v-free numerators of the j-th
        derivative, summed, over den·j!.  The derivatives are taken on the
        raw numerators, with no reduction between steps.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        num, den = self._num, self._den
        out = []
        for j in range(order + 1):
            if j:
                num = _derivative(num)
                den *= j
            out.append(Rational(sum(n for (_, c), n in num.items() if c == 0), den))
        return out

    # -- canonical parts -----------------------------------------------------

    def parts(self) -> tuple[list[tuple[tuple[int, int], int]], int]:
        """The canonical parts: ((upow, vpow), numerator) pairs sorted by key, and den."""
        return sorted(self._num.items()), self._den

    @classmethod
    def from_parts(cls, items: Iterable[tuple[tuple[int, int], int]], den: int) -> "PLExpr":
        """The expression with these canonical parts, as ``parts`` gives them.

        ValueError unless they are canonical: den a positive int, every
        exponent an int (not a bool) with vpow >= 0, every numerator a
        nonzero int, no key twice, and gcd(den, *numerators) == 1.  On
        canonical parts that gcd is cheap: math.gcd does no more work once
        its running gcd reaches 1.
        """
        if type(den) is not int or den <= 0:
            raise ValueError("the denominator must be a positive int")
        num: dict[tuple[int, int], int] = {}
        for (b, c), n in items:
            if type(b) is not int or type(c) is not int or c < 0:
                raise ValueError(f"exponents ({b!r}, {c!r}) are not ints with vpow >= 0")
            if type(n) is not int or not n:
                raise ValueError(f"numerator {n!r} of ({b}, {c}) is not a nonzero int")
            if (b, c) in num:
                raise ValueError(f"the key ({b}, {c}) repeats")
            num[(b, c)] = n
        if math.gcd(den, *num.values()) != 1:
            raise ValueError("gcd(den, *numerators) is not 1")
        return _raw(num, den)

    # -- stable text form --------------------------------------------------

    def to_records(self) -> list[dict]:
        """Stable serialization, sorted by (upow, vpow).

        Each record holds its own coefficient in lowest terms: the form
        `constants --dump-gf` prints.  The disk cache stores ``parts``.
        """
        den = self._den
        records = []
        for (b, c), n in sorted(self._num.items()):
            g = math.gcd(n, den)
            records.append(
                {"num": str(n // g), "den": str(den // g), "upow": b, "vpow": c}
            )
        return records


def _reduce(num: dict[tuple[int, int], int], den: int) -> tuple[dict, int]:
    """Canonical parts: zero numerators dropped, common factor divided out."""
    num = {key: n for key, n in num.items() if n}
    if not num:
        return {}, 1
    g = _gcd(den, list(num.values()))
    if g != 1:
        num = {key: n // g for key, n in num.items()}
        den //= g
    return num, den


def _gcd(den: int, values: list[int]) -> int:
    """gcd(den, *values), exact, by a checked combination.

    With the prefix sums s_i = n_1 + ... + n_i of the L values, g =
    gcd(den, s_L, s_1 + ... + s_L) is the gcd of den with sum n_i and sum
    (L-i+1)·n_i, so it is a multiple of the gcd; every n_i that g does not
    divide is then taken in, g = gcd(g, n_i).  Each step keeps g a
    multiple of the gcd and only shrinks it, so at the end g divides
    every n_i and is the gcd, whatever the weights.  Two gcds of big
    integers and a pass of remainders replace the one gcd per value of
    math.gcd(den, *values), whose running gcd stays large for as long as
    the values share a factor with den.
    """
    s = t = 0  # s runs through the prefix sums, t adds them up
    for n in values:
        s += n
        t += s
    g = math.gcd(den, s, t)
    for n in values:
        if g == 1:
            break
        if n % g:
            g = math.gcd(g, n)
    return g


def _derivative(num: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The numerators of d/dx over the same denominator, not reduced."""
    out: dict[tuple[int, int], int] = {}
    for (b, c), n in num.items():
        if b:
            key = (b - 1, c)
            out[key] = out.get(key, 0) - b * n
        if c:
            key = (b - 1, c - 1)
            out[key] = out.get(key, 0) + c * n
    return out


def _columns(num: dict[tuple[int, int], int]) -> dict[int, dict[int, int]]:
    """The numerators grouped by power of u: b -> {c: numerator}."""
    columns: dict[int, dict[int, int]] = {}
    for (b, c), n in num.items():
        columns.setdefault(b, {})[c] = n
    return columns


def _raw(num: dict[tuple[int, int], int], den: int) -> PLExpr:
    """Wrap parts that are already canonical."""
    expr = PLExpr.__new__(PLExpr)
    expr._num = num
    expr._den = den
    return expr


def _canon(num: dict[tuple[int, int], int], den: int) -> PLExpr:
    return _raw(*_reduce(num, den))


def _residue_product(a: dict, b: dict) -> dict[tuple[int, int], int]:
    """The numerators of the product of two term maps, by residues; none exceeds `bound`."""
    if len(a) > len(b):
        a, b = b, a
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * len(a)
    moduli = Moduli(bound)
    table = _product_table(a, b, moduli)
    origin = tuple(map(operator.add, _origin(a), _origin(b)))
    return _rebuild(table, moduli, bound, origin)


def _product_table(a: dict, b: dict, moduli: Moduli) -> np.ndarray:
    """The product's residues on its (b, c) grid: int32, shape (rows, cols, primes).

    Each operand is reduced once for all primes; then one float64 FFT
    convolution per _CHUNK primes, on the 13-bit halves of the residues.  A
    square reduces and transforms its operand once.
    """
    a_at, a_shape = _cells(a)
    b_at, b_shape = _cells(b)
    shape = (a_shape[0] + b_shape[0] - 1, a_shape[1] + b_shape[1] - 1)
    # the least 5-smooth lengths that hold the product: the cyclic
    # convolution is then the linear one
    size = tuple(map(_smooth, shape))
    q = moduli.q
    a_res = moduli.residues(a.values())
    b_res = a_res if a is b else moduli.residues(b.values())
    table = np.empty(shape + (len(q),), np.int32)
    for start in range(0, len(q), _CHUNK):
        cols = slice(start, start + _CHUNK)
        fa = _spectra(a_at, a_shape, a_res[:, cols], size)
        fb = fa if a is b else _spectra(b_at, b_shape, b_res[:, cols], size)
        qc = q[cols, None, None]
        # high·2^26 + cross·2^13 + low, each part reduced first, stays below
        # 2^53; one product spectrum at a time keeps the pass small
        acc = _cells_mod(fa[1] * fb[1], size, shape, qc) * ((1 << 2 * _HALF) % qc)
        acc += _cells_mod(fa[0] * fb[0], size, shape, qc)
        cross = fa[0] * fb[1]
        cross += cross if a is b else fa[1] * fb[0]
        del fa, fb
        acc += _cells_mod(cross, size, shape, qc) << _HALF
        del cross  # before the next pass allocates its own
        table[..., cols] = np.moveaxis(acc % qc, 0, -1)
    return table


def _spectra(at, grid: tuple[int, int], res: np.ndarray, size) -> np.ndarray:
    """rfft2 of the low and high 13-bit halves of each prime's residue grid.

    The terms at cells `at` of a grid of shape `grid` have residues res
    (terms × primes); the grids are zero-padded to `size`.  Shape
    (2, primes, size[0], size[1]//2 + 1).
    """
    halves = np.zeros((2, res.shape[1]) + grid)
    halves[0][:, at[0], at[1]] = (res & ((1 << _HALF) - 1)).T
    halves[1][:, at[0], at[1]] = (res >> _HALF).T
    return np.fft.rfft2(halves, s=size)


def _inverse(spectrum: np.ndarray, size, shape) -> np.ndarray:
    """The real convolution of length `size` with this spectrum, cut to `shape`."""
    return np.fft.irfft2(spectrum, s=size)[..., : shape[0], : shape[1]]


def _cells_mod(spectrum: np.ndarray, size, shape, q: np.ndarray) -> np.ndarray:
    """The convolution with this spectrum, rounded to int64 and reduced modulo q.

    InternalInconsistency if a cell is more than 1/4 off an integer.
    """
    x = _inverse(spectrum, size, shape)
    r = np.rint(x)
    x -= r
    err = float(np.abs(x, out=x).max())
    if err > 0.25:
        raise InternalInconsistency(
            f"rounding check: an FFT convolution cell is {err:.3g} off an integer"
        )
    return r.astype(np.int64) % q


def _smooth(n: int) -> int:
    """The least 5-smooth integer >= n, a fast FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        m = p5
        while m < best:
            k = m
            while k < n:
                k *= 2
            best = min(best, k)
            m *= 3
        p5 *= 5
    return best


def _origin(terms) -> tuple[int, int]:
    return min(b for b, _ in terms), min(c for _, c in terms)


def _cells(terms) -> tuple[tuple[np.ndarray, np.ndarray], tuple[int, int]]:
    """Each term's row and column in the smallest grid holding them all, and its shape."""
    at = np.array(list(terms)) - _origin(terms)
    return (at[:, 0], at[:, 1]), tuple((at.max(axis=0) + 1).tolist())


def _rebuild(table, moduli: Moduli, bound: int, origin) -> dict[tuple[int, int], int]:
    """Exact numerators, keyed by term, from a residue table on the moduli's q.

    A cell whose residues are all zero holds zero; the moduli rebuild the others.
    """
    flat = table.reshape(-1, table.shape[2])
    cells = np.flatnonzero(flat.any(axis=1))
    b, c = np.divmod(cells, table.shape[1])
    keys = zip((b + origin[0]).tolist(), (c + origin[1]).tolist())
    return dict(zip(keys, moduli.rebuild(flat[cells], bound)))


ZERO = PLExpr()
ONE = PLExpr.const(1)
U = PLExpr.term(1, 1, 0)
UINV = PLExpr.term(1, -1, 0)
V = PLExpr.term(1, 0, 1)
X = ONE - U  # the identity function x
