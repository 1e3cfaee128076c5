"""Exact scalar tower: rationals, outward-rounded rational intervals, and
real algebraic numbers.

Every comparison made anywhere in the library bottoms out here and is decided
exactly: rationals by Fraction arithmetic, and every order decision on
algebraic quantities by one engine, FieldElement.sign: an interval enclosure
on the generator's isolating interval, with a polynomial gcd against the
defining polynomial and interval refinement as the fallback when the
enclosure contains 0.  Floating point never enters.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import itemgetter
from typing import Iterable, Sequence, Union

from . import poly
from ._value import Value, setfield
from .errors import DivByZeroInterval, DomainError, FractarithError

#: Denominator of the rational bounds that an irrational endpoint is
#: outward-rounded to.
DENOMINATOR_BOUND = 2 ** 64

# the width of the enclosure a field-element endpoint is rounded out from
_ROUNDING_WIDTH = Fraction(1, DENOMINATOR_BOUND)

_UNICODE_MINUS = "−"


# ---------------------------------------------------------------------------
# Rational serialization
# ---------------------------------------------------------------------------

def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" (or a bare integer string) into an exact rational.  A
    plain "p/q" or integer, with an optional sign and decimal digits
    (Unicode category Nd, as Fraction's own pattern reads them), is read
    with int() on its parts; every other string goes to Fraction(str), so
    each string gives the value or the exception Fraction(str) gives."""
    if not isinstance(s, str):
        raise FractarithError(f"expected a rational as a string, got {s!r}")
    text = s.strip().replace(_UNICODE_MINUS, "-")
    num, slash, den = text.partition("/")
    plain = ((num[1:] if num[:1] in ("-", "+") else num).isdecimal()
             and (not slash or den.isdecimal()))
    try:
        if not plain:
            return Fraction(text)
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except ZeroDivisionError as exc:
        raise FractarithError(f"rational {s!r} has a zero denominator") from exc


def rat_to_str(x: Fraction) -> str:
    """Canonical "p/q" form, bare integer when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _coeff_to_obj(c: Fraction):
    return c.numerator if c.denominator == 1 else rat_to_str(c)


def _coeff_from_obj(obj) -> Fraction:
    if isinstance(obj, str):
        return rat_from_str(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    raise FractarithError(f"expected an integer or a rational string, got {obj!r}")


# ---------------------------------------------------------------------------
# Integer helpers for outward rounding
# ---------------------------------------------------------------------------

def _iroot(n: int, k: int) -> int:
    """Floor k-th root of a non-negative integer: math.isqrt for k = 2,
    Newton iteration from above otherwise."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def pow_numerators(n: int, d: int, e: Fraction) -> tuple[int, int]:
    """Outward bounds on (n/d)**e for n/d > 0 (d > 0) and a fractional
    exponent e, as numerators over DENOMINATOR_BOUND.  The fraction n/d need
    not be in lowest terms; the bounds depend on its value alone, and
    coincide when the power is exact at that denominator."""
    if n <= 0:
        raise DomainError("fractional power of a non-positive base")
    u, v = e.numerator, e.denominator
    rn, rd = (n ** u, d ** u) if u >= 0 else (d ** -u, n ** -u)
    num = rn * DENOMINATOR_BOUND ** v
    lo = _iroot(num // rd, v)
    if lo ** v * rd == num:
        return lo, lo
    hi = _iroot(-(-num // rd), v)
    if hi ** v * rd < num:
        hi += 1
    return lo, hi


def _end_pow_bounds(x, end: Fraction, e: Fraction) -> tuple[Fraction, Fraction]:
    """Outward rational bounds on end**e, with denominators dividing
    DENOMINATOR_BOUND (see pow_numerators), for an interval end x rounded
    out to the rational end > 0; kept in the generator's memo when x is a
    field element."""
    memo = x.gen._memo if isinstance(x, FieldElement) else None
    if memo is not None:
        key = (end.numerator, end.denominator, e.numerator, e.denominator)
        bounds = memo.get(key)
        if bounds is not None:
            return bounds
    lo, hi = pow_numerators(end.numerator, end.denominator, e)
    bounds = Fraction(lo, DENOMINATOR_BOUND), Fraction(hi, DENOMINATOR_BOUND)
    if memo is not None:
        memo[key] = bounds
    return bounds


# ---------------------------------------------------------------------------
# Algebraic reals
# ---------------------------------------------------------------------------

class AlgebraicReal:
    """A real algebraic number: squarefree defining polynomial plus an
    isolating interval containing exactly one of its real roots.

    The isolating interval only ever shrinks (never past the root), so the
    represented number is fixed at construction.  A degenerate interval
    lo == hi encodes a rational root exactly.

    Everything is held on integers.  _p is the defining polynomial, primitive
    with a positive leading coefficient, so it is also the reduction rule of
    field elements over this generator: alpha**d is
    -sum(_p[i] * alpha**i for i < d) / _p[d].  The isolating interval is
    [_a/_q, _b/_q] with _q > 0 the least common denominator of its
    endpoints, and _sign_lo is the sign of _p at _a/_q, which stays fixed
    while the interval isolates the root (0 once it is degenerate).

    _memo holds results computed in this state (_p and the isolating
    interval), and is emptied whenever the state changes: the enclosure
    bounds of field elements per (reduced numerators, denominator, width),
    and the _end_pow_bounds pair of their rounded ends per (end,
    exponent), each Fraction in a key as its numerator and denominator.
    An entry is read only in the state it was computed in, where
    recomputing it would neither bisect nor give anything else.
    """

    __slots__ = ("_p", "_a", "_b", "_q", "_sign_lo", "_memo")

    def __init__(self, coeffs: Iterable, lo, hi):
        p = poly.primitive(coeffs)
        lo = Fraction(lo)
        hi = Fraction(hi)
        if len(p) < 2:
            raise FractarithError("defining polynomial must be non-constant")
        p = poly.squarefree_part(p)
        if lo > hi:
            raise FractarithError("isolating interval is empty")
        a, b, q = _over_common_denominator(lo, hi)
        if a == b:
            if poly.sign_at(p, a, q):
                raise FractarithError("degenerate interval is not a root")
        else:
            if not poly.sign_at(p, a, q) or not poly.sign_at(p, b, q):
                raise FractarithError("isolating interval endpoints must not be roots")
            if poly.count_roots(poly.sturm_chain(p), a, b, q) != 1:
                raise FractarithError("interval does not isolate exactly one root")
        self._set(p, a, b, q)

    @classmethod
    def _isolated(cls, p: poly.Poly, a: int, b: int, q: int) -> "AlgebraicReal":
        """The root of the squarefree p in [a/q, b/q], whose endpoints are
        known not to be roots (or a == b is one), with no checks."""
        self = object.__new__(cls)
        self._set(p, a, b, q)
        return self

    def _set(self, p: poly.Poly, a: int, b: int, q: int) -> None:
        self._p = p
        self._a, self._b, self._q = a, b, q
        self._sign_lo = poly.sign_at(p, a, q)
        self._memo = {}

    def __reduce__(self):
        # copy and pickle rebuild the state alone: a fresh, empty memo
        return AlgebraicReal._isolated, (self._p, self._a, self._b, self._q)

    @property
    def poly(self) -> tuple[Fraction, ...]:
        """The defining polynomial, monic, as Fractions."""
        lead = self._p[-1]
        return tuple(Fraction(c, lead) for c in self._p)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._a, self._q)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, self._q)

    @property
    def is_rational(self) -> bool:
        return self._a == self._b

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise FractarithError("number not resolved to a rational")
        return self.lo

    def _bisect_once(self) -> None:
        a, b, q = self._a, self._b, self._q
        if a == b:
            return
        a, m, b, q = _halve(a, b, q)
        s = poly.sign_at(self._p, m, q)
        self._memo.clear()  # either way the interval moves
        if not s:
            g = gcd(m, q)
            self._a = self._b = m // g
            self._q = q // g
            self._sign_lo = 0
            return
        # keep the half with the sign change
        if s == self._sign_lo:
            a = m
        else:
            b = m
        self._a, self._b, self._q = a, b, q

    def refine(self, width) -> "Interval":
        """Shrink the isolating interval to width <= width and return it."""
        width = Fraction(width)
        if width <= 0:
            raise FractarithError("refinement width must be positive")
        wn, wd = width.numerator, width.denominator
        while (self._b - self._a) * wd > wn * self._q:
            self._bisect_once()
        return Interval(self.lo, self.hi)

    def replace_defining_factor(self, factor: Iterable) -> None:
        """Swap the defining polynomial for one of its factors (any rational
        multiple of it) that still has the root in the isolating interval.
        The number itself never moves."""
        factor = poly.primitive(factor)
        if len(factor) < 2:
            raise FractarithError("factor must be non-constant")
        if self.is_rational:
            if poly.sign_at(factor, self._a, self._q):
                raise FractarithError("factor does not vanish at the root")
        else:
            chain = poly.sturm_chain(factor)
            while not poly.sign_at(factor, self._a, self._q) \
                    or not poly.sign_at(factor, self._b, self._q):
                self._bisect_once()
                if self.is_rational:
                    return self.replace_defining_factor(factor)
            if poly.count_roots(chain, self._a, self._b, self._q) != 1:
                raise FractarithError("factor does not isolate the root")
        self._set(factor, self._a, self._b, self._q)

    def __repr__(self) -> str:
        cs = ",".join(rat_to_str(c) for c in self.poly)
        return f"AlgebraicReal([{cs}], [{rat_to_str(self.lo)}, {rat_to_str(self.hi)}])"

    def to_obj(self) -> dict:
        return {
            "poly": [_coeff_to_obj(c) for c in self.poly],
            "lo": rat_to_str(self.lo),
            "hi": rat_to_str(self.hi),
        }

    @staticmethod
    def from_obj(obj: dict) -> "AlgebraicReal":
        if not isinstance(obj, dict) or not isinstance(obj.get("poly"), list) \
                or "lo" not in obj or "hi" not in obj:
            raise FractarithError("an algebraic number must be a JSON object with "
                                  f"a 'poly' list, 'lo' and 'hi', got {obj!r}")
        coeffs = [_coeff_from_obj(c) for c in obj["poly"]]
        return AlgebraicReal(coeffs, rat_from_str(obj["lo"]), rat_from_str(obj["hi"]))


def _over_common_denominator(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(a, b, q) with lo = a/q and hi = b/q, q their least common denominator."""
    q = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator), q


def _halve(a: int, b: int, q: int) -> tuple[int, int, int, int]:
    """The midpoint of [a/q, b/q] on a common denominator: (a, m, b, q)
    with midpoint m/q.  q doubles only when a + b is odd, so a least common
    denominator of a/q and b/q stays one of each half."""
    m = a + b
    if m & 1:
        return 2 * a, m, 2 * b, 2 * q
    return a, m >> 1, b, q


def root_isolate(coeffs: Iterable, window) -> list[AlgebraicReal]:
    """Isolate every distinct real root of the polynomial inside the window.

    The polynomial is made squarefree internally; the window endpoints must
    not be roots.
    """
    p = poly.primitive(coeffs)
    if len(p) < 2:
        return []
    p = poly.squarefree_part(p)
    lo, hi = window
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise FractarithError("window must have positive width")
    a, b, q = _over_common_denominator(lo, hi)
    if not poly.sign_at(p, a, q) or not poly.sign_at(p, b, q):
        raise FractarithError("window endpoints must not be roots")
    chain = poly.sturm_chain(p)
    out: list[AlgebraicReal] = []

    def go(a: int, b: int, q: int) -> None:
        k = poly.count_roots(chain, a, b, q)
        if k == 0:
            return
        if k == 1:
            out.append(AlgebraicReal._isolated(p, a, b, q))
            return
        a, m, b, q = _halve(a, b, q)
        if not poly.sign_at(p, m, q):
            # exact rational root: record it, deflate, and isolate the rest
            mid = Fraction(m, q)
            out.append(AlgebraicReal._isolated(p, mid.numerator, mid.numerator,
                                               mid.denominator))
            rest = poly.quo(p, (-mid.numerator, mid.denominator))
            out.extend(root_isolate(rest, (Fraction(a, q), mid)))
            out.extend(root_isolate(rest, (mid, Fraction(b, q))))
            return
        go(a, m, q)
        go(m, b, q)

    go(a, b, q)
    out.sort(key=lambda x: (x.lo, x.hi))
    # bisection can leave neighbors sharing an endpoint; shrink until the
    # isolating intervals are pairwise disjoint
    for x, y in zip(out, out[1:]):
        while not (x.hi < y.lo):
            x._bisect_once()
            y._bisect_once()
    return out


# ---------------------------------------------------------------------------
# Number-field elements: polynomials in one algebraic generator
# ---------------------------------------------------------------------------

class FieldElement:
    """An exact element of Q(alpha) for a fixed AlgebraicReal generator,
    stored as a polynomial in alpha with integer numerators over one
    denominator: the value is sum(num[i] * alpha**i) / den.

    The form is canonical for the generator's polynomial at construction:
    num is reduced modulo it with trailing zeros stripped, den > 0 and
    gcd(den, *num) == 1; zero is ((), 1).  Arithmetic runs on Python ints
    and reduces with the generator's rule for alpha**d.  Supports field
    arithmetic and exact sign determination, which makes it a drop-in exact
    scalar next to Fraction.  Not hashable: with a reducible defining
    polynomial, equal values can have distinct coefficient tuples.
    """

    __slots__ = ("gen", "num", "den")
    __hash__ = None

    def __init__(self, gen: AlgebraicReal, num: tuple[int, ...], den: int):
        # (num, den) must already be canonical; of() builds it from any
        # rational coefficients
        self.gen = gen
        self.num = num
        self.den = den

    @staticmethod
    def of(gen: AlgebraicReal, coeffs: Iterable) -> "FieldElement":
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return _element(gen, [c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def generator(gen: AlgebraicReal) -> "FieldElement":
        return FieldElement.of(gen, (0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant first."""
        return _fractions(self.num, self.den)

    def _coerce(self, other) -> tuple[tuple[int, ...], int] | None:
        """The operand as integer numerators over a denominator, or None."""
        if isinstance(other, FieldElement):
            if other.gen is not self.gen:
                raise FractarithError("field elements over different generators")
            return other.num, other.den
        if isinstance(other, (int, Fraction)):
            return ((other.numerator,) if other else ()), other.denominator
        return None

    def _reduced(self) -> tuple[tuple[int, ...], int]:
        """(num, den) reduced modulo the generator's current polynomial,
        which an inverse may have shrunk to a factor since self was built."""
        if len(self.num) >= len(self.gen._p):
            r = _element(self.gen, list(self.num), self.den)
            return r.num, r.den
        return self.num, self.den

    # -- ring operations ----------------------------------------------------

    def _plus(self, o: tuple[tuple[int, ...], int], s: int) -> "FieldElement":
        """self + s * o for s = 1 or -1."""
        n1, d1 = self.num, self.den
        n2, d2 = o
        if d1 == d2:
            m1, m2, den = 1, s, d1
        else:
            g = gcd(d1, d2)
            m1, m2 = d2 // g, s * (d1 // g)
            den = d1 * m1
        num = [a * m1 for a in n1] if m1 != 1 else list(n1)
        if len(num) < len(n2):
            num.extend([0] * (len(n2) - len(num)))
        for i, b in enumerate(n2):
            num[i] += m2 * b
        return _element(self.gen, num, den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.gen, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (-self)._plus(o, 1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, n2 = self.num, o[0]
        if len(n1) < len(n2):
            n1, n2 = n2, n1
        if len(n2) == 1:
            c = n2[0]
            num = [a * c for a in n1]
        else:
            num = [0] * (len(n1) + len(n2) - 1)
            for j, b in enumerate(n2):
                if b:
                    for i, a in enumerate(n1, j):
                        num[i] += a * b
        return _element(self.gen, num, self.den * o[1])

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        num, den = self._reduced()
        g, s = poly.xgcd(num, self.gen._p)
        if len(g) == 1:
            # s * num = g[0] modulo the polynomial: 1 / (num / den) = den * s / g[0]
            c = g[0]
            if c < 0:
                c, den = -c, -den
            return _element(self.gen, [den * a for a in s], c)
        # zero divisor against a reducible defining polynomial: the root lives
        # in the cofactor; shrink the defining polynomial and retry
        self.gen.replace_defining_factor(poly.quo(self.gen._p, g))
        return self.inverse()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * (other.inverse() if isinstance(other, FieldElement) else 1 / Fraction(other))

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        acc = FieldElement.of(self.gen, (1,))
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    # -- exact decisions ------------------------------------------------------

    def _nonzero_enclosure(self) -> tuple[tuple[int, ...], int, int, int] | None:
        """None when the element is exactly 0; otherwise its reduced
        numerators and denominator and the numerators (lo, hi) of the
        enclosure on the generator's current isolating interval
        (_horner_enclosure).  An enclosure that excludes 0 already proves the
        element nonzero; only one that contains 0 pays for the gcd test."""
        num, den = self._reduced()
        if not num:
            return None
        lo, hi, _ = _horner_enclosure(num, den, self.gen)
        if lo > 0 or hi < 0 or not _vanishes_at(num, self.gen):
            return num, den, lo, hi
        return None

    def is_zero(self) -> bool:
        return self._nonzero_enclosure() is None

    def sign(self) -> int:
        found = self._nonzero_enclosure()
        if found is None:
            return 0
        num, den, lo, hi = found
        while not (lo > 0 or hi < 0):
            self.gen._bisect_once()
            lo, hi, _ = _horner_enclosure(num, den, self.gen)
        return 1 if lo > 0 else -1

    def enclosure(self, width) -> tuple[Fraction, Fraction]:
        """Rational bounds of the value, at most `width` apart: the first
        interval-Horner enclosure that narrow over the generator's isolating
        interval, bisecting it until there is one (narrow_enclosure), as
        Fractions.  The bounds therefore depend on the generator's current
        isolating interval, not on the value and the width alone; they are
        kept in the generator's memo until its state changes."""
        width = Fraction(width)
        if width <= 0:
            raise FractarithError("enclosure width must be positive")
        num, den = self._reduced()
        gen = self.gen
        # integer keys: a Fraction hashes and compares in Python code
        key = (num, den, width.numerator, width.denominator)
        bounds = gen._memo.get(key)
        if bounds is None:
            lo, hi, d = narrow_enclosure(num, den, gen, width.numerator, width.denominator)
            bounds = gen._memo[key] = Fraction(lo, d), Fraction(hi, d)
        return bounds

    def is_fraction(self) -> bool:
        return len(self._reduced()[0]) <= 1

    def to_fraction(self) -> Fraction:
        num, den = self._reduced()
        if not num:
            return Fraction(0)
        if len(num) == 1:
            return Fraction(num[0], den)
        if self.gen.is_rational:
            # Horner on the degenerate interval is exact
            lo, _, d = _horner_enclosure(num, den, self.gen)
            return Fraction(lo, d)
        raise FractarithError("field element is not rational")

    # -- comparisons ----------------------------------------------------------

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            return NotImplemented  # type: ignore[return-value]
        return self._plus(o, -1).sign()

    def __eq__(self, other):
        try:
            c = self._cmp(other)
        except FractarithError:
            return NotImplemented
        if c is NotImplemented:
            return NotImplemented
        return c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self) -> str:
        cs = ",".join(rat_to_str(c) for c in self.coeffs) or "0"
        return f"FieldElement([{cs}])"


Scalar = Union[Fraction, FieldElement]


def scalar_sign(x: Scalar) -> int:
    """The sign of an exact scalar: a Fraction, an int or a FieldElement.
    A float is refused, so that no verdict rests on one."""
    if isinstance(x, (Fraction, int)):
        n = x.numerator
        return (n > 0) - (n < 0)
    if isinstance(x, FieldElement):
        return x.sign()
    raise TypeError(f"not an exact scalar: {x!r}")


def as_scalar(x) -> Scalar:
    if type(x) is Fraction or isinstance(x, FieldElement):
        return x
    if isinstance(x, AlgebraicReal):
        return FieldElement.generator(x)
    return Fraction(x)


# ---------------------------------------------------------------------------
# Rational intervals with enclosure semantics
# ---------------------------------------------------------------------------

class Interval(Value):
    """Closed interval with exact endpoints.

    Every operation returns an enclosure of the exact image set; the only
    place outward rounding can occur is pow_rational with a fractional
    exponent, where irrational endpoints are rounded out to rationals.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Scalar, hi: Scalar):
        if hi < lo:
            raise FractarithError(f"interval endpoints out of order: {lo} > {hi}")
        setfield(self, "lo", lo)
        setfield(self, "hi", hi)

    @staticmethod
    def point(x) -> "Interval":
        x = as_scalar(x)
        return Interval(x, x)

    def width(self) -> Scalar:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = as_scalar(x)
        return not (x < self.lo) and not (self.hi < x)

    def contains_zero(self) -> bool:
        return self.contains(0)

    def strictly_positive(self) -> bool:
        return scalar_sign(self.lo) > 0

    def is_subset(self, other: "Interval") -> bool:
        return not (self.lo < other.lo) and not (other.hi < self.hi)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        cands = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return Interval(min(cands), max(cands))

    def reciprocal(self) -> "Interval":
        if self.contains_zero():
            raise DivByZeroInterval("interval contains 0")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: "Interval") -> "Interval":
        return self * other.reciprocal()

    def abs(self) -> "Interval":
        if not (self.lo < 0):
            return self
        if self.hi < 0:
            return -self
        return Interval(as_scalar(0), max(-self.lo, self.hi))

    def pow_int(self, n: int) -> "Interval":
        if n == 0:
            return Interval.point(1)
        if n < 0:
            return self.pow_int(-n).reciprocal()
        plo, phi = self.lo ** n, self.hi ** n
        if n % 2 == 1:
            return Interval(plo, phi)
        if not (self.lo < 0):
            return Interval(plo, phi)
        if self.hi < 0:
            return Interval(phi, plo)
        return Interval(as_scalar(0), max(plo, phi))

    def pow_rational(self, e) -> "Interval":
        e = Fraction(e)
        if e.denominator == 1:
            return self.pow_int(e.numerator)
        lo, hi = self.lo, self.hi
        # round field-element endpoints out to rationals first; still an enclosure
        flo = lo.enclosure(_ROUNDING_WIDTH)[0] if isinstance(lo, FieldElement) else Fraction(lo)
        fhi = hi.enclosure(_ROUNDING_WIDTH)[1] if isinstance(hi, FieldElement) else Fraction(hi)
        if flo <= 0:
            raise DomainError("fractional power of an interval touching <= 0")
        lo_lo, lo_hi = _end_pow_bounds(lo, flo, e)
        hi_lo, hi_hi = _end_pow_bounds(hi, fhi, e)
        if e > 0:
            return Interval(lo_lo, hi_hi)
        return Interval(hi_lo, lo_hi)

    def to_obj(self) -> list:
        return [scalar_to_obj(self.lo), scalar_to_obj(self.hi)]

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def ends_triple(lo: int, dlo: int, hi: int, dhi: int) -> tuple[int, int, int]:
    """The interval [lo/dlo, hi/dhi], dlo and dhi > 0, as the triple (lo,
    hi, d) of [lo/d, hi/d]: over dlo when dhi is the same, else over the
    lcm d of its ends' reduced denominators, so that ends carried from
    triple to triple do not compound their denominators."""
    if dlo == dhi:
        return lo, hi, dlo
    g, h = gcd(lo, dlo), gcd(hi, dhi)
    lo, dlo, hi, dhi = lo // g, dlo // g, hi // h, dhi // h
    d = lcm(dlo, dhi)
    return lo * (d // dlo), hi * (d // dhi), d


def rational_triple(lo: Scalar, hi: Scalar) -> tuple[int, int, int] | None:
    """The interval [lo, hi] as a triple (see ends_triple); None when an
    end is a FieldElement."""
    if isinstance(lo, FieldElement) or isinstance(hi, FieldElement):
        return None
    return ends_triple(lo.numerator, lo.denominator, hi.numerator, hi.denominator)


# Interval's own slots, which a TripleInterval fills when an end is first read
_LO_SLOT, _HI_SLOT = Interval.lo, Interval.hi


def _form_end(self: "TripleInterval", slot) -> Fraction:
    try:
        return slot.__get__(self)
    except AttributeError:
        lo, hi, d = self.triple
        _LO_SLOT.__set__(self, Fraction(lo, d))
        _HI_SLOT.__set__(self, Fraction(hi, d))
        return slot.__get__(self)


class TripleInterval(Interval):
    """The rational Interval [lo/d, hi/d] held as its integer triple
    (lo, hi, d), with d > 0 and lo <= hi, not necessarily in lowest terms.
    The Fractions of its ends are formed when one is first read, and kept;
    a caller working on integers reads `triple` and never forms them.  It
    equals and hashes as the Interval of its ends, and copies and pickles
    as that Interval."""

    __slots__ = ("triple",)
    _fields = ("lo", "hi")

    def __init__(self, triple: tuple[int, int, int]):
        setfield(self, "triple", triple)

    lo = property(lambda self: _form_end(self, _LO_SLOT))
    hi = property(lambda self: _form_end(self, _HI_SLOT))

    def __eq__(self, other):
        # also serves Interval == TripleInterval, as Python asks the subclass
        # first; rational ends compare by cross-multiplication, unformed
        if not isinstance(other, Interval):
            return NotImplemented
        t = other.triple if type(other) is TripleInterval else rational_triple(other.lo, other.hi)
        if t is None:
            return self._values == other._values
        lo, hi, d = self.triple
        return lo * t[2] == t[0] * d and hi * t[2] == t[1] * d

    __hash__ = Interval.__hash__

    def __reduce__(self):
        return Interval, self._values


class IntervalLattice(Value, Sequence):
    """The intervals [l/den, (l + span)/den] for l in lefts: equal-width
    rational intervals on integer numerators over one denominator den > 0,
    lefts strictly increasing.  A sequence of Intervals, each built when
    it is read, so that a caller working on integers never forms a
    Fraction."""

    __slots__ = ("den", "lefts", "span")

    def __init__(self, den: int, lefts: tuple[int, ...], span: int):
        setfield(self, "den", den)
        setfield(self, "lefts", lefts)
        setfield(self, "span", span)

    def __len__(self) -> int:
        return len(self.lefts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return IntervalLattice(self.den, self.lefts[i], self.span)
        lo = self.lefts[i]
        return Interval(Fraction(lo, self.den), Fraction(lo + self.span, self.den))

    def within(self, window: Interval) -> "IntervalLattice":
        """The intervals that lie inside the window.  lefts and their right
        ends both increase, so they form one run, found by bisection."""
        den, span = self.den, self.span
        start = bisect_left(self.lefts, window.lo, key=lambda lo: Fraction(lo, den))
        stop = bisect_right(self.lefts, window.hi, key=lambda lo: Fraction(lo + span, den))
        return self[start:max(start, stop)]


def _horner_enclosure(num: Sequence[int], den: int,
                      gen: AlgebraicReal) -> tuple[int, int, int]:
    """Horner's scheme in interval arithmetic for the polynomial
    sum(num[i] * x**i) / den over the generator's isolating interval, carried
    out on integer numerators: returns (lo, hi, d) with d > 0, and
    [lo/d, hi/d] is exactly the rational interval-Horner enclosure of its
    value at alpha when den is the least common denominator of the
    coefficients num[i]/den."""
    if not num:  # the zero polynomial, e.g. a reduced 0/(1 - ratio)
        return 0, 0, 1
    a, b, q = gen._a, gen._b, gen._q
    lo = hi = num[-1]
    scale = 1  # q**k after k steps, so the accumulator is over den * scale
    for n in reversed(num[:-1]):
        cands = (lo * a, lo * b, hi * a, hi * b)
        scale *= q
        lo = min(cands) + n * scale
        hi = max(cands) + n * scale
    return lo, hi, den * scale


def narrow_enclosure(num: Sequence[int], den: int, gen: AlgebraicReal,
                     wn: int, wd: int) -> tuple[int, int, int]:
    """The first _horner_enclosure (lo, hi, d) of sum(num[i] * alpha**i) /
    den that is at most wn/wd wide, bisecting the generator until there is
    one."""
    while True:
        lo, hi, d = _horner_enclosure(num, den, gen)
        if (hi - lo) * wd <= wn * d:
            return lo, hi, d
        gen._bisect_once()


def _element(gen: AlgebraicReal, num: list[int], den: int) -> FieldElement:
    """The canonical FieldElement sum(num[i] * alpha**i) / den for den > 0:
    reduced modulo the generator's polynomial p, then stripped of trailing
    zeros and divided by gcd(den, *num).  num is consumed."""
    p = gen._p
    d = len(p) - 1
    lead = p[d]
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            # c * alpha**k = -c * alpha**(k-d) * sum(p[i] * alpha**i, i < d) / lead
            if lead != 1:
                for i in range(k):
                    num[i] *= lead
                den *= lead
            for i, pi in zip(range(k - d, k), p):
                if pi:
                    num[i] -= c * pi
    del num[d:]
    while num and not num[-1]:
        num.pop()
    if not num:
        return FieldElement(gen, (), 1)
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return FieldElement(gen, tuple(num), den)


def _fractions(num: Sequence[int], den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n, den) for n in num)


def _vanishes_at(num: Sequence[int], gen: AlgebraicReal) -> bool:
    """Exact test of e(alpha) == 0 for the nonzero integer polynomial e =
    num reduced modulo the generator's polynomial: alpha must be a root of
    gcd(e, poly)."""
    g = poly.gcd(num, gen._p)
    if len(g) < 2:
        return False
    chain = poly.sturm_chain(g)
    while True:
        a, b, q = gen._a, gen._b, gen._q
        if a == b:
            return not poly.sign_at(g, a, q)
        if poly.sign_at(g, a, q) and poly.sign_at(g, b, q):
            return poly.count_roots(chain, a, b, q) > 0
        gen._bisect_once()


def scalar_to_str(x: Scalar) -> str:
    if isinstance(x, FieldElement):
        if x.is_fraction():
            return rat_to_str(x.to_fraction())
        raise FractarithError("irrational scalar has no plain string form")
    return rat_to_str(Fraction(x))


def scalar_to_obj(x):
    """JSON value for an exact scalar: "p/q" for rationals, a coefficient
    vector over the ambient algebraic base otherwise, and "inf" for the
    infinite bounds of gapless systems."""
    if isinstance(x, float) and x == float("inf"):
        return "inf"
    if isinstance(x, FieldElement):
        # reduced against the generator's current polynomial, which an
        # inverse may have shrunk to a factor since x was computed
        num, den = x._reduced()
        if len(num) > 1:
            return {"coeffs": [rat_to_str(Fraction(n, den)) for n in num]}
    return scalar_to_str(x)


# ---------------------------------------------------------------------------
# Unions of disjoint closed intervals
# ---------------------------------------------------------------------------

def _merge_sorted(pieces: Iterable[Sequence]) -> tuple[tuple, ...]:
    """Closed intervals given in order of their left endpoints, each as a
    piece whose first two entries are lo and hi (a pair of scalars, or a
    triple that merge_triples passes on), with overlapping and touching
    ones merged in one pass into (lo, hi) pairs.  The open piece is kept in
    locals; only finished pieces are stored."""
    pieces = iter(pieces)
    first = next(pieces, None)
    if first is None:
        return ()
    merged: list[tuple] = []
    open_lo, open_hi = first[0], first[1]
    for piece in chain([first], pieces):
        lo, hi = piece[0], piece[1]
        if hi < lo:
            raise FractarithError("interval endpoints out of order")
        if open_hi < lo:
            merged.append((open_lo, open_hi))
            open_lo, open_hi = lo, hi
        elif open_hi < hi:
            open_hi = hi
    merged.append((open_lo, open_hi))
    return tuple(merged)


def shared_den(dens: Sequence[int]) -> int | None:
    """The one denominator of a sequence of them, the d of triples (lo, hi,
    d), when they are all equal; None when they differ or there are none."""
    return dens[0] if dens and dens.count(dens[0]) == len(dens) else None


def merge_triples(pieces: Iterable[Sequence[int]]) -> list[tuple[int, int, int]]:
    """The union of the pieces [lo/d, hi/d], given as triples (lo, hi, d)
    with d > 0, as sorted, disjoint, non-touching triples.

    When the pieces share one d, which they tell themselves, they sort on
    lo and merge on their numerators (see _merge_sorted), forming no key
    and no product.  Otherwise they sort on the floor key lo*2^p // d, with
    2^p at least the square of the largest d: two distinct endpoints with
    denominators d and d' differ by at least 1/(d*d'), so distinct left
    endpoints get distinct keys, and pieces whose keys tie share their
    left endpoint, which merges them alike in any order.  They merge by
    cross-multiplication, and a merged piece whose ends come from
    different denominators is put over the lcm of their reduced ones (see
    ends_triple)."""
    pieces = list(pieces)
    den = shared_den([d for _, _, d in pieces])
    if den is not None:
        pieces.sort(key=itemgetter(0))
        return [(lo, hi, den) for lo, hi in _merge_sorted(pieces)]
    if not pieces:
        return []
    if any(hi < lo for lo, hi, _ in pieces):
        raise FractarithError("interval endpoints out of order")
    p = 2 * max(map(itemgetter(2), pieces)).bit_length()
    pieces.sort(key=lambda t: (t[0] << p) // t[2])
    merged = []
    pieces = iter(pieces)
    lo, hi, dlo = next(pieces)
    dhi = dlo
    for a, b, d in pieces:
        if hi * d < a * dhi:
            merged.append(ends_triple(lo, dlo, hi, dhi))
            lo, hi, dlo, dhi = a, b, d, d
        elif hi * d < b * dhi:
            hi, dhi = b, d
    merged.append(ends_triple(lo, dlo, hi, dhi))
    return merged


def _ratio_str(n: int, d: int) -> str:
    """rat_to_str(Fraction(n, d)) for d > 0, formed without the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class IntervalUnion(Value):
    """Sorted union of pairwise-disjoint closed intervals; touching intervals
    are merged at construction, so the representation is canonical.

    Its one field, intervals, is a tuple of (lo, hi) pairs of scalars.  A
    union from from_merged_triples, or inflated from one, keeps its pieces
    as the integer triples (lo, hi, d) of [lo/d, hi/d], d > 0 and not
    necessarily in lowest terms, and forms the Fractions of intervals only
    when that field is read: by iteration, equality, hash, repr, copy or
    pickle.  to_obj, hull, contains_point, contains_interval, inflate and
    int_ends read the triples.  Unions from from_intervals, and any with a
    field-element endpoint, keep their scalar pairs."""

    __slots__ = ("_pairs", "_ends")
    _fields = ("intervals",)

    def __init__(self, intervals: tuple[tuple[Fraction, Fraction], ...]):
        setfield(self, "_pairs", intervals)
        setfield(self, "_ends", None)

    @staticmethod
    def from_merged_triples(triples: Sequence[Sequence[int]]) -> "IntervalUnion":
        """The union of triples (lo, hi, d) that are already sorted, disjoint
        and non-touching, as merge_triples gives them, kept as given."""
        u = object.__new__(IntervalUnion)
        setfield(u, "_pairs", None)
        setfield(u, "_ends", triples)
        return u

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        pairs = self._pairs
        if pairs is None:
            pairs = tuple((Fraction(lo, d), Fraction(hi, d)) for lo, hi, d in self._ends)
            setfield(self, "_pairs", pairs)
        return pairs

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    @staticmethod
    def from_intervals(items: Iterable[tuple]) -> "IntervalUnion":
        # ordering by left endpoints alone suffices: pieces sharing one merge
        # into the same interval in any order
        return IntervalUnion(_merge_sorted(sorted(
            ((as_scalar(lo), as_scalar(hi)) for lo, hi in items), key=itemgetter(0))))

    def int_ends(self) -> Sequence[Sequence[int]] | None:
        """The pieces as triples (lo, hi, d), the piece [lo/d, hi/d] with
        d > 0, to be read only (they may be the union's own); None when an
        endpoint is a FieldElement."""
        if self._ends is not None:
            return self._ends
        triples = [rational_triple(lo, hi) for lo, hi in self._pairs]
        return None if None in triples else triples

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self._pairs if self._ends is None else self._ends)

    def is_empty(self) -> bool:
        return not len(self)

    def hull(self) -> Interval:
        if self.is_empty():
            raise FractarithError("empty union has no hull")
        if self._ends is None:
            return Interval(self._pairs[0][0], self._pairs[-1][1])
        (lo, _, dlo), (_, hi, dhi) = self._ends[0], self._ends[-1]
        return Interval(Fraction(lo, dlo), Fraction(hi, dhi))

    def _piece_from(self, x) -> Sequence[int] | None:
        """The integer piece that contains the rational x if any piece does:
        the last one whose left end is at most x, by bisection."""
        n, d = x.numerator, x.denominator
        ends = self._ends
        a, b = 0, len(ends)
        while a < b:
            m = (a + b) // 2
            if n * ends[m][2] < ends[m][0] * d:
                b = m
            else:
                a = m + 1
        return ends[a - 1] if a else None

    def _contains(self, lo, hi) -> bool:
        """Whether one piece contains [lo, hi], lo <= hi being scalars."""
        if self._ends is None or isinstance(lo, FieldElement) or isinstance(hi, FieldElement):
            return any(not (lo < a) and not (b < hi) for a, b in self.intervals)
        piece = self._piece_from(lo)
        return piece is not None and not (piece[1] * hi.denominator < hi.numerator * piece[2])

    def contains_point(self, x) -> bool:
        x = as_scalar(x)
        return self._contains(x, x)

    def contains_interval(self, iv: Interval) -> bool:
        return self._contains(iv.lo, iv.hi)

    def is_subset(self, other: "IntervalUnion") -> bool:
        return all(other.contains_interval(Interval(lo, hi)) for lo, hi in self.intervals)

    def intersect_window(self, window: Interval) -> "IntervalUnion":
        out = []
        for lo, hi in self.intervals:
            a = max(lo, window.lo)
            b = min(hi, window.hi)
            if not (b < a):
                out.append((a, b))
        return IntervalUnion.from_intervals(out)

    def gaps(self, window: Interval) -> list[Interval]:
        """Maximal open intervals inside the window missed by the union,
        returned sorted by decreasing length."""
        clipped = self.intersect_window(window)
        out: list[Interval] = []
        cur = window.lo
        for lo, hi in clipped.intervals:
            if cur < lo:
                out.append(Interval(cur, lo))
            cur = max(cur, hi)
        if cur < window.hi:
            out.append(Interval(cur, window.hi))
        out.sort(key=lambda iv: iv.width(), reverse=True)
        return out

    def inflate(self, radius) -> "IntervalUnion":
        """Every piece widened by the radius on both sides, merged.  Shifting
        all left endpoints by one amount keeps them sorted, so one merging
        pass suffices, by merge_triples on integers when the pieces and the
        radius are rational and the radius is not negative."""
        r = as_scalar(radius)
        if self._ends is None or isinstance(r, FieldElement) or r < 0:
            return IntervalUnion(_merge_sorted((lo - r, hi + r) for lo, hi in self.intervals))
        rn, rd = r.numerator, r.denominator
        return IntervalUnion.from_merged_triples(merge_triples(
            (lo * rd - rn * d, hi * rd + rn * d, d * rd) for lo, hi, d in self._ends))

    def to_obj(self) -> list[list]:
        if self._ends is None:
            return [[scalar_to_obj(lo), scalar_to_obj(hi)] for lo, hi in self._pairs]
        return [[_ratio_str(lo, d), _ratio_str(hi, d)] for lo, hi, d in self._ends]

    @staticmethod
    def from_obj(obj: Sequence[Sequence[str]]) -> "IntervalUnion":
        return IntervalUnion.from_intervals(
            (rat_from_str(lo), rat_from_str(hi)) for lo, hi in obj)
