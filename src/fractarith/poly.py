"""Dense univariate polynomials with integer coefficients: the kernel under
the algebraic numbers of exactnum.

Coefficient tuples are constant-first: ``p[i]`` multiplies ``x**i``.  The
zero polynomial is the empty tuple.  Rational coefficients enter once,
through ``primitive``; every routine after that runs on Python ints.
Remainders and gcds come from pseudo-division and are returned up to a
positive constant factor, which moves no root and flips no sign.  A
rational point n/d (d > 0) is passed as its two integers.  No rounding
happens anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm
from typing import Iterable, Sequence

Poly = tuple[int, ...]


def primitive(coeffs: Iterable) -> Poly:
    """The primitive integer polynomial with a positive leading coefficient
    that is a rational multiple of the given rational-like coefficients;
    the zero polynomial stays ()."""
    cs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in cs))
    return _normalized([c.numerator * (den // c.denominator) for c in cs])


def _normalized(r: list[int]) -> Poly:
    """r without trailing zeros, divided by its content, with the sign that
    makes its leading coefficient positive."""
    r = _content_free(r)
    if r and r[-1] < 0:
        return tuple(-c for c in r)
    return r


def _content_free(r: list[int]) -> Poly:
    """r without trailing zeros, divided by its (positive) content."""
    while r and not r[-1]:
        r.pop()
    g = _igcd(*r)
    if g > 1:
        return tuple(c // g for c in r)
    return tuple(r)


def _pseudo_reduce(r: list[int], q: Sequence[int],
                   s: list[int] | None = None, qs: Sequence[int] = ()) -> None:
    """Reduce r below the degree of a nonzero q in place, one leading term
    at a time: r = m*r - c * x**k * q with m = lead(q) / gcd(lead(q), c),
    so m > 0 when lead(q) > 0.  When s is given, the same steps run on s
    with qs in place of q (s must be long enough), which keeps a
    congruence r = s*p carried by q = qs*p."""
    dq = len(q) - 1
    lead = q[-1]
    for i in range(len(r) - 1, dq - 1, -1):
        c = r[i]
        if not c:
            continue
        g = _igcd(c, lead)
        m, c = lead // g, c // g
        if m != 1:
            for j in range(i):
                r[j] *= m
            if s is not None:
                for j in range(len(s)):
                    s[j] *= m
        for j in range(dq):
            r[i - dq + j] -= c * q[j]
        if s is not None:
            for j, x in enumerate(qs, i - dq):
                s[j] -= c * x
    del r[dq:]


def rem(p: Poly, q: Poly) -> Poly:
    """A positive multiple of the remainder of p modulo a nonzero q, with
    its content divided out."""
    if q[-1] < 0:
        q = tuple(-c for c in q)
    r = list(p)
    _pseudo_reduce(r, q)
    return _content_free(r)


def gcd(p: Poly, q: Poly) -> Poly:
    """The primitive gcd with a positive leading coefficient, by a primitive
    pseudo-remainder sequence; () when both are zero."""
    a, b = p, q
    while b:
        a, b = b, rem(a, b)
    return _normalized(list(a))


def xgcd(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """(g, s) with s*p congruent to g modulo q, where g is a nonzero
    integer multiple of gcd(p, q) and deg s < deg q, for a nonzero p.

    The half of the extended euclidean algorithm that a field inverse
    needs: each pseudo-remainder carries its cofactor of p, and both lose
    their common content.  g is a constant exactly when p is invertible
    modulo q, and then p's inverse is s / g[0]."""
    r0, s0 = list(q), []
    r1, s1 = list(p), [1]
    while len(r1) > 1:
        r, s = r0, s0 + [0] * (len(r0) - len(r1) + len(s1) - len(s0))
        _pseudo_reduce(r, r1, s, s1)
        while r and not r[-1]:
            r.pop()
        while s and not s[-1]:
            s.pop()
        g = _igcd(*r, *s)
        if g > 1:
            r = [c // g for c in r]
            s = [c // g for c in s]
        r0, s0, r1, s1 = r1, s1, r, s
    if not r1:
        return tuple(r0), tuple(s0)
    return tuple(r1), tuple(s1)


def quo(p: Poly, q: Poly) -> Poly:
    """The exact quotient p / q for a q that divides p, made primitive."""
    q = _normalized(list(q))
    dq = len(q) - 1
    lead = q[-1]
    r = list(p)
    out = [0] * (len(p) - dq)
    for i in range(len(r) - 1, dq - 1, -1):
        c = r[i] // lead
        out[i - dq] = c
        for j in range(dq + 1):
            r[i - dq + j] -= c * q[j]
    return _normalized(out)


def derivative(p: Poly) -> Poly:
    return tuple(i * c for i, c in enumerate(p) if i)


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), primitive: exactly the distinct roots of p."""
    g = gcd(p, derivative(p))
    if len(g) <= 1:
        return _normalized(list(p))
    return quo(p, g)


def sign_at(p: Poly, n: int, d: int) -> int:
    """Sign of p(n/d) for d > 0: the sign of the homogeneous Horner value
    sum(p[i] * n**i * d**(deg p - i)), for a nonzero p."""
    acc = p[-1]
    dk = 1
    for c in p[-2::-1]:
        dk *= d
        acc = acc * n + c * dk
    return (acc > 0) - (acc < 0)


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of a squarefree polynomial, each member a positive
    multiple of the euclidean one."""
    chain = [p, derivative(p)]
    while len(chain[-1]) > 1:
        chain.append(tuple(-c for c in rem(chain[-2], chain[-1])))
    if not chain[-1]:
        chain.pop()
    return chain


def _sign_variations(chain: list[Poly], n: int, d: int) -> int:
    signs = [s for s in (sign_at(q, n, d) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[Poly], a: int, b: int, d: int) -> int:
    """Number of distinct real roots in (a/d, b/d] for d > 0; chain from
    sturm_chain.

    Endpoints that are themselves roots of the squarefree polynomial make the
    half-open convention matter; callers isolate with non-root endpoints.
    """
    return _sign_variations(chain, a, d) - _sign_variations(chain, b, d)
