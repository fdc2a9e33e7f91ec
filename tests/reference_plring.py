"""Reference kernel: the (1-x)^b log(1/(1-x))^c ring as plain dicts of Fractions.

An expression is a dict (b, c) -> nonzero Fraction.  Every operation here
is the textbook one, a rational per term with no shared denominator, so the
tests can require the integer-numerator kernel in ranktree.plring to give
exactly the same terms.  It is slow and only meant for small inputs.
"""

from fractions import Fraction
from math import factorial

UINV = {(-1, 0): Fraction(1)}
X = {(0, 0): Fraction(1), (1, 0): Fraction(-1)}


def _acc(out, key, a):
    s = out.get(key, 0) + a
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def add(e, f):
    out = dict(e)
    for key, a in f.items():
        _acc(out, key, a)
    return out


def scale(e, a):
    a = Fraction(a)
    return {key: c * a for key, c in e.items()} if a else {}


def sub(e, f):
    return add(e, scale(f, -1))


def mul(e, f):
    out = {}
    for (b1, c1), a1 in e.items():
        for (b2, c2), a2 in f.items():
            _acc(out, (b1 + b2, c1 + c2), a1 * a2)
    return out


def power(e, n):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = mul(out, e)
    return out


def differentiate(e):
    out = {}
    for (b, c), a in e.items():
        if b:
            _acc(out, (b - 1, c), -b * a)
        if c:
            _acc(out, (b - 1, c - 1), c * a)
    return out


def value_at_0(e):
    return sum((a for (_, c), a in e.items() if c == 0), Fraction(0))


def antiderivative(e, v0=0):
    out = {}
    for (b, c), a in e.items():
        if b == -1:
            _acc(out, (0, c + 1), a / (c + 1))
            continue
        factor = a
        while c > 0:
            _acc(out, (b + 1, c), -factor / (b + 1))
            factor = factor * c / (b + 1)
            c -= 1
        _acc(out, (b + 1, 0), -factor / (b + 1))
    _acc(out, (0, 0), Fraction(v0) - value_at_0(out))
    return out


def integral01(e):
    """Assumes every b >= 0: each term contributes c!/(b+1)^(c+1)."""
    return sum(
        (a * factorial(c) / Fraction(b + 1) ** (c + 1) for (b, c), a in e.items()),
        Fraction(0),
    )


def _convolve(s, t, n):
    return [sum(s[i] * t[m - i] for i in range(m + 1)) for m in range(n)]


def series(e, order):
    n = order + 1
    v1 = [Fraction(0)] + [Fraction(1, i) for i in range(1, n)]
    total = [Fraction(0)] * n
    for (b, c), a in e.items():
        ub = [Fraction(1)]
        for i in range(order):
            ub.append(ub[-1] * (i - b) / (i + 1))
        for _ in range(c):
            ub = _convolve(ub, v1, n)
        total = [x + a * y for x, y in zip(total, ub)]
    return total


def records(e):
    return [
        {"num": str(a.numerator), "den": str(a.denominator), "upow": b, "vpow": c}
        for (b, c), a in sorted(e.items())
    ]


def root_rank_gf(k):
    """B_k by the recurrence B_k' = 2 B_{k-1} (1/(1-x) - sum_{j<k-1} B_j) - B_{k-1}^2."""
    gfs = [X]
    for _ in range(k):
        prev = gfs[-1]
        below = {}
        for g in gfs[:-1]:
            below = add(below, g)
        rhs = sub(scale(mul(prev, sub(UINV, below)), 2), mul(prev, prev))
        gfs.append(antiderivative(rhs, 0))
    return gfs[k]
