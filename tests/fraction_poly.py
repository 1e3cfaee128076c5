"""Dense univariate polynomial arithmetic over exact rationals: the
Fraction routines that fractarith.poly ran before it moved to primitive
integer polynomials, kept as the tests' differential oracle.

Coefficient lists are constant-first: ``p[i]`` multiplies ``x**i``.  The zero
polynomial is the empty tuple.  Everything here is exact Fraction arithmetic;
no rounding happens anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Poly = tuple[Fraction, ...]


def make(coeffs: Iterable) -> Poly:
    """Build a normalized polynomial from any iterable of rational-likes."""
    return strip(tuple(Fraction(c) for c in coeffs))


def strip(p: Sequence[Fraction]) -> Poly:
    """Drop trailing zero coefficients."""
    d = len(p)
    while d > 0 and p[d - 1] == 0:
        d -= 1
    return tuple(p[:d])


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return len(p) == 0


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return strip(tuple(
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)))


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if is_zero(p) or is_zero(q):
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return strip(tuple(out))


def scale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Exact euclidean division; q must be nonzero."""
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = degree(q)
    lead = q[-1]
    quo = [Fraction(0)] * max(0, len(p) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c / lead
        quo[i - dq] = f
        for j in range(dq + 1):
            rem[i - dq + j] -= f * q[j]
    return strip(tuple(quo)), strip(tuple(rem))


def rem(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):  # already reduced; q is nonzero
        return strip(p)
    return divmod_poly(p, q)[1]


def monic(p: Poly) -> Poly:
    if is_zero(p):
        return ()
    return tuple(c / p[-1] for c in p)


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the euclidean algorithm."""
    a, b = p, q
    while not is_zero(b):
        a, b = b, rem(a, b)
    return monic(a)


def xgcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended euclid: returns (g, s, t) with s*p + t*q = g, g monic."""
    r0, r1 = p, q
    s0, s1 = make([1]), ()
    t0, t1 = (), make([1])
    while not is_zero(r1):
        quo, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(quo, s1))
        t0, t1 = t1, sub(t0, mul(quo, t1))
    if is_zero(r0):
        return (), s0, t0
    lead = r0[-1]
    inv = 1 / lead
    return monic(r0), scale(s0, inv), scale(t0, inv)


def derivative(p: Poly) -> Poly:
    return strip(tuple(p[i] * i for i in range(1, len(p))))


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'); keeps exactly the distinct roots of p."""
    if degree(p) <= 0:
        return monic(p)
    g = gcd(p, derivative(p))
    if degree(g) <= 0:
        return monic(p)
    return monic(divmod_poly(p, g)[0])


def eval_at(p: Poly, x: Fraction) -> Fraction:
    """Horner evaluation at an exact rational point."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of a squarefree polynomial."""
    chain = [p, derivative(p)]
    while not is_zero(chain[-1]) and degree(chain[-1]) > 0:
        chain.append(neg(rem(chain[-2], chain[-1])))
    if is_zero(chain[-1]):
        chain.pop()
    return chain


def _sign_variations(values: list[Fraction]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def count_roots(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]; chain from sturm_chain.

    Endpoints that are themselves roots of the squarefree polynomial make the
    half-open convention matter; callers isolate with non-root endpoints.
    """
    va = _sign_variations([eval_at(q, lo) for q in chain])
    vb = _sign_variations([eval_at(q, hi) for q in chain])
    return va - vb
