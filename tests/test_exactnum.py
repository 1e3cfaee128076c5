"""Tests for the exact scalar tower: intervals, algebraic reals, field
elements."""

import copy
import itertools
import json
import math
import operator
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import fraction_poly as fpoly
from fractarith import exactnum, poly
from fractarith.empirics import grid_box_count
from fractarith.errors import DivByZeroInterval, DomainError, FractarithError
from fractarith.exactnum import (DENOMINATOR_BOUND, AlgebraicReal, FieldElement,
                                 Interval, IntervalUnion, TripleInterval, pow_numerators,
                                 rat_from_str, rat_to_str, root_isolate, scalar_sign,
                                 scalar_to_obj)

QSTAR = (1, -2, -1, 1)  # x^3 - x^2 - 2x + 1, constant first


def iv(lo, hi) -> Interval:
    return Interval(Fraction(lo), Fraction(hi))


# ---------------------------------------------------------------------------
# rational serialization
# ---------------------------------------------------------------------------

def test_rat_round_trip():
    for s in ("0", "2/3", "-7/4", "5", "-12"):
        assert rat_to_str(rat_from_str(s)) == s


def test_rat_parse_normalizes():
    assert rat_from_str("14490/94221") == Fraction(1610, 10469)
    assert rat_from_str("−2/4") == Fraction(-1, 2)


def _fraction_parse(s: str):
    """("value", x) or (exception type, message) for the Fraction(str) parse
    that rat_from_str made of every string before it read plain "p/q" and
    integers with int()."""
    try:
        try:
            return "value", Fraction(s.strip().replace("−", "-"))
        except ZeroDivisionError as exc:
            raise FractarithError(f"rational {s!r} has a zero denominator") from exc
    except Exception as exc:
        return type(exc), str(exc)


# pieces of rational strings: signs, whitespace, separators, underscores,
# decimals, exponents, Unicode decimal digits (Arabic-Indic three, Devanagari
# zero, mathematical bold zero) and the superscript two, which isdigit()
# accepts and int() refuses
_RAT_PIECES = ["0", "1", "7", "12", "40", "-", "+", "−", "/", " ", "\t", "\n", "_",
               ".", "e", "E", "5", "٣", "०", "𝟎", "²", "x"]


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_RAT_PIECES), max_size=7).map("".join),
                 st.text(max_size=8)))
@example("-3/4")
@example(" +3/4\t")
@example("1_000")
@example("1_000/3")
@example("0.5")
@example("1e3")
@example("3/0")
@example("-0/0")
@example("0")
@example("3/-4")
@example("-3/+4")
@example("٣/4")
@example("²")
@example("2/²")
@example("")
@example("-")
@example("/4")
@example("3/")
@example("−7")
def test_rat_from_str_agrees_with_the_fraction_parse(s):
    try:
        got = "value", rat_from_str(s)
    except Exception as exc:
        got = type(exc), str(exc)
    assert got == _fraction_parse(s)
    if got[0] == "value":
        assert type(got[1]) is Fraction


# ---------------------------------------------------------------------------
# interval operations
# ---------------------------------------------------------------------------

def test_interval_add_unit():
    assert iv(0, 1) + iv(0, 1) == iv(0, 2)


def test_interval_div_cantor_block():
    # unit-scale block of the Cantor quotient
    assert iv(Fraction(2, 3), 1) / iv(Fraction(2, 3), 1) == \
        iv(Fraction(2, 3), Fraction(3, 2))


def test_interval_mul_mixed_signs():
    assert iv(-1, 2) * iv(3, 3) == iv(-3, 6)


def test_interval_div_by_zero_interval():
    with pytest.raises(DivByZeroInterval):
        iv(1, 2) / iv(-1, 1)


def test_interval_pow_int():
    assert iv(-2, 3).pow_int(2) == iv(0, 9)
    assert iv(-2, -1).pow_int(2) == iv(1, 4)
    assert iv(-2, 3).pow_int(3) == iv(-8, 27)
    assert iv(2, 4).pow_int(-1) == iv(Fraction(1, 4), Fraction(1, 2))


def test_interval_pow_fractional_domain():
    with pytest.raises(DomainError):
        iv(0, 1).pow_rational(Fraction(1, 2))
    with pytest.raises(DomainError):
        iv(-1, 1).pow_rational(Fraction(1, 2))


def test_interval_pow_fractional_encloses():
    out = iv(2, 2).pow_rational(Fraction(1, 2))
    assert out.lo ** 2 <= 2 <= out.hi ** 2
    assert out.hi - out.lo <= Fraction(1, 2 ** 60)


def test_interval_pow_rational_integer_and_root():
    assert iv(2, 3).pow_rational(Fraction(2)) == iv(4, 9)
    out = iv(2, 3).pow_rational(Fraction(1, 2))
    assert out.lo ** 2 <= 2 and 3 <= out.hi ** 2


@given(st.integers(-50, 50), st.integers(0, 50), st.integers(1, 60))
def test_triple_interval_is_the_interval_of_its_ends(lo, width, d):
    t = TripleInterval((lo, lo + width, d))
    plain = Interval(Fraction(lo, d), Fraction(lo + width, d))
    assert t.triple == (lo, lo + width, d)
    # equality and hash both ways, then the ends, formed once and kept
    assert t == plain and plain == t and not (t != plain) and hash(t) == hash(plain)
    assert (t.lo, t.hi) == (plain.lo, plain.hi) and t.lo is t.lo
    assert repr(t) == repr(plain) and t.to_obj() == plain.to_obj()
    assert t != Interval(plain.lo, plain.hi + 1)
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(twin) is Interval and twin == plain
    with pytest.raises(AttributeError):
        t.lo = Fraction(0)


# triples on a small range, scaled below, so that equal intervals are common
small_triples = st.tuples(st.integers(-6, 6), st.integers(0, 4), st.integers(1, 6)).map(
    lambda t: (t[0], t[0] + t[1], t[2]))


@given(small_triples, small_triples, st.integers(1, 5), st.integers(1, 5))
def test_triple_equality_is_interval_equality(a, b, k, m):
    """Triples not in lowest terms compare as the Intervals of their ends,
    by cross-multiplication, without forming those ends."""
    a, b = tuple(k * v for v in a), tuple(m * v for v in b)
    ta, tb = TripleInterval(a), TripleInterval(b)
    pa, pb = (Interval(Fraction(lo, d), Fraction(hi, d)) for lo, hi, d in (a, b))
    same = pa == pb
    assert (ta == tb) is (tb == ta) is (ta == pb) is (pb == ta) is same
    assert (ta != tb) is (ta != pb) is (not same)
    for t in (ta, tb):
        with pytest.raises(AttributeError):
            exactnum._LO_SLOT.__get__(t)
        with pytest.raises(AttributeError):
            exactnum._HI_SLOT.__get__(t)
    assert ta == ta and ta == TripleInterval(tuple(2 * v for v in a))
    if same:
        assert hash(ta) == hash(tb) == hash(pa) == hash(pb)


def test_triple_equality_with_field_element_ends():
    gen = AlgebraicReal((-2, 0, 1), 1, 2)
    one, root2 = FieldElement.of(gen, (1,)), FieldElement.generator(gen)
    t = TripleInterval((2, 4, 2))
    assert t == Interval(one, one + 1) and Interval(one, one + 1) == t
    assert t != Interval(one, root2) and not (Interval(one, root2) == t)


def pow_bounds(x: Fraction, e: Fraction) -> tuple[Fraction, Fraction]:
    """pow_numerators' bounds on x**e as rationals."""
    lo, hi = pow_numerators(x.numerator, x.denominator, e)
    return Fraction(lo, DENOMINATOR_BOUND), Fraction(hi, DENOMINATOR_BOUND)


def test_pow_numerators_exact_cases():
    lo, hi = pow_numerators(4, 1, Fraction(1, 2))
    assert lo == hi == 2 * DENOMINATOR_BOUND
    lo, hi = pow_numerators(27, 8, Fraction(2, 3))
    assert lo == hi == 9 * DENOMINATOR_BOUND // 4


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12), st.integers(1, 10 ** 6),
       st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2),
                        Fraction(-1, 2), Fraction(-5, 3), Fraction(7, 4)]))
def test_pow_numerators_bound_the_value_whatever_its_terms(n, d, k, e):
    lo, hi = pow_numerators(n, d, e)
    assert pow_numerators(n * k, d * k, e) == (lo, hi)
    assert pow_numerators(*Fraction(n, d).as_integer_ratio(), e) == (lo, hi)
    # lo/B <= (n/d)^e <= hi/B, one grid step apart unless exact
    power = Fraction(n, d) ** e.numerator
    v = e.denominator
    assert Fraction(lo, DENOMINATOR_BOUND) ** v <= power <= Fraction(hi, DENOMINATOR_BOUND) ** v
    assert hi - lo in (0, 1)
    assert (hi == lo) == (Fraction(lo, DENOMINATOR_BOUND) ** v == power)


@given(st.integers(0, 10 ** 80), st.integers(1, 5))
def test_iroot_is_the_floor_root(n, k):
    r = exactnum._iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


def test_scalar_sign_reads_exact_scalars_and_refuses_floats():
    signs = [scalar_sign(v) for v in (Fraction(-3, 7), 0, Fraction(0), 5, Fraction(1, 10 ** 30))]
    assert signs == [-1, 0, 0, 1, 1]
    root2 = FieldElement.generator(AlgebraicReal([-2, 0, 1], 1, 2))
    assert (scalar_sign(root2 - 2), scalar_sign(root2 - root2), scalar_sign(root2)) == (-1, 0, 1)
    for bad in (0.5, -0.0, "1/2"):
        with pytest.raises(TypeError):
            scalar_sign(bad)


def test_enclosure_soundness_bulk():
    # exact rational sample of each operand stays inside the interval result
    rng = random.Random(20240811)

    def rnd():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))

    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for _ in range(25_000):
            a, b, c, d = sorted((rnd(), rnd())) + sorted((rnd(), rnd()))
            i, j = Interval(a, b), Interval(c, d)
            if op is operator.truediv and j.contains_zero():
                continue
            x = a + (b - a) * Fraction(rng.randint(0, 8), 8)
            y = c + (d - c) * Fraction(rng.randint(0, 8), 8)
            assert op(i, j).contains(op(x, y))


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

def test_root_isolate_qstar_window():
    roots = root_isolate(QSTAR, (1, 2))
    assert len(roots) == 1
    enc = roots[0].refine(Fraction(1, 1000))
    assert Fraction(18, 10) <= enc.lo and enc.hi <= Fraction(181, 100)


def test_root_isolate_sqrt2():
    roots = root_isolate((-2, 0, 1), (1, 2))
    assert len(roots) == 1
    enc = roots[0].refine(Fraction(1, 10 ** 6))
    assert enc.lo <= Fraction(141_421_356, 10 ** 8) <= enc.hi + Fraction(1, 10 ** 6)


def test_root_isolate_no_real_roots():
    assert root_isolate((1, 0, 1), (-10, 10)) == []


def test_root_isolate_all_roots_of_cubic():
    # x^3 - x^2 - 2x + 1 has three real roots
    roots = root_isolate(QSTAR, (-10, 10))
    assert len(roots) == 3
    # pairwise disjoint isolating intervals, sorted
    for a, b in zip(roots, roots[1:]):
        assert a.hi < b.lo


def test_root_isolate_rational_root():
    # (x - 1/2)(x^2 - 2) over a window whose bisection lands on 1/2 exactly
    p = fpoly.mul(fpoly.make((Fraction(-1, 2), 1)), fpoly.make((-2, 0, 1)))
    roots = root_isolate(p, (-2, 3))
    assert len(roots) == 3
    exact = [r for r in roots if r.is_rational]
    assert len(exact) == 1 and exact[0].to_fraction() == Fraction(1, 2)
    for a, b in zip(roots, roots[1:]):
        assert a.hi < b.lo


def test_refine_nesting():
    r = root_isolate((-2, 0, 1), (1, 2))[0]
    outer = r.refine(Fraction(1, 1000))
    inner = r.refine(Fraction(1, 10 ** 6))
    assert outer.lo <= inner.lo and inner.hi <= outer.hi
    again = r.refine(Fraction(1, 10 ** 6))
    assert again == inner  # idempotent on repeat


def test_refine_monotone_random():
    rng = random.Random(7)
    for _ in range(20):
        c = rng.randint(2, 40)
        r = root_isolate((-c, 0, 1), (0, c))[0]
        prev = r.refine(Fraction(1, 10))
        for k in (100, 10_000, 10 ** 6):
            cur = r.refine(Fraction(1, k))
            assert prev.lo <= cur.lo and cur.hi <= prev.hi
            prev = cur


# ---------------------------------------------------------------------------
# exact signs at algebraic points
# ---------------------------------------------------------------------------

def test_sign_at_defining_polynomial():
    q = root_isolate(QSTAR, (1, 2))[0]
    assert FieldElement.of(q, QSTAR).sign() == 0


def test_sign_at_qstar_above_nine_fifths():
    q = root_isolate(QSTAR, (1, 2))[0]
    # independent bisection oracle: the defining cubic changes sign in
    # (9/5, 181/100), so the root exceeds 9/5
    p = fpoly.make(QSTAR)
    assert fpoly.eval_at(p, Fraction(9, 5)) < 0 < fpoly.eval_at(p, Fraction(181, 100))
    assert FieldElement.of(q, (Fraction(-9, 5), 1)).sign() == 1


def test_sign_at_sqrt2_below_three_halves():
    r = root_isolate((-2, 0, 1), (1, 2))[0]
    assert FieldElement.of(r, (Fraction(-3, 2), 1)).sign() == -1


def _independent_sign(expr, defining, window):
    """Sign oracle with no Sturm machinery: plain bisection on the defining
    polynomial, then endpoint evaluation with a Lipschitz error bound."""
    p = fpoly.make(defining)
    e = fpoly.make(expr)
    lo, hi = window
    for _ in range(220):
        mid = (lo + hi) / 2
        v = fpoly.eval_at(p, mid)
        if v == 0:
            lo = hi = mid
            break
        if (fpoly.eval_at(p, lo) > 0) != (v > 0):
            hi = mid
        else:
            lo = mid
    m = max(abs(lo), abs(hi), Fraction(1))
    lipschitz = sum(abs(c) * i * m ** (i - 1) for i, c in enumerate(e) if i)
    vlo = fpoly.eval_at(e, lo)
    slack = lipschitz * (hi - lo)
    if vlo - slack > 0:
        return 1
    if vlo + slack < 0:
        return -1
    return 0


def test_sign_at_agrees_with_independent_oracle():
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        defining = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        defining[3] = Fraction(rng.choice((1, 2, 3)))
        window = (Fraction(rng.randint(-6, 0)), Fraction(rng.randint(1, 7)))
        try:
            roots = root_isolate(defining, window)
        except FractarithError:
            continue
        if not roots:
            continue
        root = roots[0]
        expr = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))]
        want = _independent_sign(expr, root.poly, (root.lo, root.hi))
        if want == 0 and not root.is_rational:
            continue  # oracle margin too small to decide
        got = FieldElement.of(root, expr).sign()
        if want != 0:
            assert got == want
        checked += 1


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

def test_field_element_arithmetic_identities():
    q = AlgebraicReal(QSTAR, Fraction(9, 5), Fraction(181, 100))
    x = FieldElement.generator(q)
    assert (x ** 3 - x ** 2 - 2 * x + 1).is_zero()
    # q^3 = q^2 + 2q - 1 reduces exactly
    assert x ** 3 == x ** 2 + 2 * x - 1
    inv = 1 / x
    assert (x * inv).to_fraction() == 1
    assert x > Fraction(9, 5)
    assert x < Fraction(181, 100)
    assert abs(-x) == x


def test_field_element_enclosure():
    q = AlgebraicReal(QSTAR, Fraction(9, 5), Fraction(181, 100))
    x = FieldElement.generator(q)
    lo, hi = (1 / (x * x)).enclosure(Fraction(1, 10 ** 9))
    assert hi - lo <= Fraction(1, 10 ** 9)
    # 1/qstar^2 = 0.3079785...
    assert Fraction(307978, 10 ** 6) <= lo and hi <= Fraction(307979, 10 ** 6)


def test_field_element_different_generators_rejected():
    a = AlgebraicReal((-2, 0, 1), 1, 2)
    b = AlgebraicReal((-3, 0, 1), 1, 2)
    with pytest.raises(FractarithError):
        FieldElement.generator(a) + FieldElement.generator(b)


def test_reducible_defining_polynomial_splits_on_inverse():
    # (x^2-2)(x-3) is squarefree but reducible; inverting (x-3) at sqrt2
    # must shrink the defining factor rather than fail
    p = fpoly.mul(fpoly.make((-2, 0, 1)), fpoly.make((-3, 1)))
    r = AlgebraicReal(p, 1, 2)
    x = FieldElement.generator(r)
    g, _ = poly.xgcd((-3, 1), r._p)
    assert len(g) == 2  # the integer xgcd finds the common factor x - 3
    inv = 1 / (x - 3)  # nonzero at sqrt2
    assert inv.coeffs == (Fraction(-3, 7), Fraction(-1, 7))
    assert ((x - 3) * inv).to_fraction() == 1
    assert (x * x - 2).is_zero()
    assert r.poly == (-2, 0, 1) and r._p == (-2, 0, 1)


# Reference copies of the gcd-first sign decision that the enclosure-first
# FieldElement.is_zero/sign replaced, kept as a differential oracle.

def _reference_interval_horner(p, x: Interval) -> Interval:
    acc = Interval.point(0)
    for c in reversed(p):
        acc = acc * x + Interval.point(c)
    return acc


def _reference_is_zero(el: FieldElement) -> bool:
    e = fpoly.rem(el.coeffs, el.gen.poly)
    if fpoly.is_zero(e):
        return True
    g = fpoly.gcd(e, el.gen.poly)
    if fpoly.degree(g) < 1:
        return False
    chain = fpoly.sturm_chain(g)
    while True:
        if el.gen.is_rational:
            return fpoly.eval_at(g, el.gen.lo) == 0
        lo, hi = el.gen.lo, el.gen.hi
        if fpoly.eval_at(g, lo) != 0 and fpoly.eval_at(g, hi) != 0:
            return fpoly.count_roots(chain, lo, hi) > 0
        el.gen._bisect_once()


def _reference_sign(el: FieldElement) -> int:
    if _reference_is_zero(el):
        return 0
    e = fpoly.rem(el.coeffs, el.gen.poly)
    while True:
        enc = _reference_interval_horner(e, Interval(el.gen.lo, el.gen.hi))
        if enc.lo > 0:
            return 1
        if enc.hi < 0:
            return -1
        el.gen._bisect_once()


def _still_isolates(gen: AlgebraicReal) -> bool:
    if gen.is_rational:
        return fpoly.eval_at(gen.poly, gen.lo) == 0
    return (fpoly.eval_at(gen.poly, gen.lo) != 0 and fpoly.eval_at(gen.poly, gen.hi) != 0
            and fpoly.count_roots(fpoly.sturm_chain(gen.poly), gen.lo, gen.hi) == 1)


def _is_square(r: Fraction) -> bool:
    def square(k: int) -> bool:
        return math.isqrt(k) ** 2 == k
    return square(r.numerator) and square(r.denominator)


SQRT_C = st.fractions(min_value=Fraction(13, 4), max_value=4, max_denominator=40) \
    .filter(lambda c: Fraction(13, 4) < c < 4 and not _is_square(c))
TRIBONACCI = (-1, -1, -1, 1)  # x^3 - x^2 - x - 1, root 1.839...
REDUCIBLE = (6, -2, -3, 1)    # (x^2 - 2)(x - 3), isolated at sqrt 2 in [1, 2]
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=12)
COEFFS = st.lists(SMALL, min_size=1, max_size=4)


@st.composite
def sign_cases(draw):
    """(defining polynomial, isolating interval, element coefficients)."""
    kind = draw(st.sampled_from(["sqrt", "tribonacci", "reducible"]))
    if kind == "sqrt":
        c = draw(SQRT_C)
        gen, lo, hi = (-c, 0, 1), draw(st.sampled_from([Fraction(3, 2), Fraction(7, 4)])), 2
    elif kind == "tribonacci":
        gen, lo, hi = TRIBONACCI, draw(st.sampled_from([Fraction(7, 4), Fraction(9, 5)])), 2
    else:
        gen, lo, hi = REDUCIBLE, 1, 2
    shape = draw(st.sampled_from(["random", "near", "zero", "factor"]))
    if shape == "random":
        coeffs = draw(COEFFS)
    elif shape == "near":
        # a multiple of alpha - r for a rational r inside the isolating
        # interval: its enclosure often contains 0 until the generator bisects
        r = draw(st.fractions(min_value=lo, max_value=hi, max_denominator=10 ** 4))
        coeffs = fpoly.mul(fpoly.make((-r, 1)), fpoly.make(draw(COEFFS)))
    elif shape == "zero":
        # a multiple of the minimal polynomial of alpha: exactly 0
        minimal = (-2, 0, 1) if kind == "reducible" else gen
        coeffs = fpoly.mul(fpoly.make(minimal), fpoly.make(draw(COEFFS)))
    else:
        # a multiple of the cofactor (x - 3), nonzero at sqrt 2, or of x - 2
        cofactor = (-3, 1) if kind == "reducible" else (-2, 1)
        coeffs = fpoly.mul(fpoly.make(cofactor), fpoly.make(draw(COEFFS)))
    return gen, Fraction(lo), Fraction(hi), coeffs


@settings(max_examples=300, deadline=None)
@given(case=sign_cases())
def test_enclosure_first_sign_matches_gcd_first_reference(case):
    gen_poly, lo, hi, coeffs = case
    fast_gen = AlgebraicReal(gen_poly, lo, hi)
    ref_gen = AlgebraicReal(gen_poly, lo, hi)
    fast = FieldElement.of(fast_gen, coeffs)
    ref = FieldElement.of(ref_gen, coeffs)
    want = _reference_sign(ref)
    assert fast.is_zero() == (want == 0)
    assert fast.sign() == want
    assert _still_isolates(fast_gen) and _still_isolates(ref_gen)


@settings(max_examples=200, deadline=None)
@given(case=sign_cases(), bisections=st.integers(0, 12))
def test_horner_enclosure_equals_interval_horner(case, bisections):
    gen_poly, lo, hi, coeffs = case
    gen = AlgebraicReal(gen_poly, lo, hi)
    for _ in range(bisections):
        gen._bisect_once()
    el = FieldElement.of(gen, coeffs)
    e = el.coeffs
    n_lo, n_hi, den = exactnum._horner_enclosure(el.num, el.den, gen)
    enc = _reference_interval_horner(e, Interval(gen.lo, gen.hi))
    assert den > 0
    assert (Fraction(n_lo, den), Fraction(n_hi, den)) == (enc.lo, enc.hi)


def test_zero_field_element_enclosure_and_fractional_power():
    # 0/(1 - ratio) at the left end of an algebraic hull reduces to the
    # empty polynomial; it must still enclose as [0, 0], so a fractional
    # power of an interval starting there is a DomainError
    x = FieldElement.generator(AlgebraicReal((-5, 0, 1), 2, 3))
    zero = Fraction(0) / (1 - 1 / x)
    assert zero.coeffs == () and zero.is_zero() and zero.sign() == 0
    assert zero.enclosure(Fraction(1, 10)) == (0, 0)
    with pytest.raises(DomainError):
        Interval(zero, x).pow_rational(Fraction(1, 2))


def test_sign_decided_by_enclosure_runs_no_gcd(monkeypatch):
    sqrt2 = AlgebraicReal((-2, 0, 1), 1, 2)
    calls = []
    real_gcd = poly.gcd
    monkeypatch.setattr(poly, "gcd", lambda p, q: calls.append(1) or real_gcd(p, q))
    x = FieldElement.generator(sqrt2)
    assert (x - 10).sign() == -1 and (x + 1).sign() == 1
    assert not (3 * x).is_zero()
    assert calls == []
    # an enclosure containing 0 falls back to the exact gcd test
    assert (x * x - 2).is_zero() and calls == []  # reduces to 0 outright
    assert (x - Fraction(7, 5)).sign() == 1 and len(calls) == 1


# Reference copy of the Fraction-polynomial arithmetic that FieldElement ran
# before it moved to integer numerators over one denominator, kept as a
# differential oracle.  A reference value is its coefficient tuple; the
# generator is shared with the FieldElement under test, so both reduce
# modulo the same, possibly shrunk, defining polynomial.

def _ref_of(gen: AlgebraicReal, x) -> fpoly.Poly:
    return fpoly.rem(fpoly.make((x,)), gen.poly)


def _ref_plus(gen, a, b, s=1):
    return fpoly.rem(fpoly.add(a, b if s == 1 else fpoly.neg(b)), gen.poly)


def _ref_times(gen, a, b):
    return fpoly.rem(fpoly.mul(a, b), gen.poly)


def _ref_inverse(gen, a):
    if _reference_is_zero(SimpleNamespace(gen=gen, coeffs=a)):
        raise ZeroDivisionError
    g, s, _ = fpoly.xgcd(fpoly.rem(a, gen.poly), gen.poly)
    if fpoly.degree(g) == 0:
        return fpoly.rem(s, gen.poly)
    gen.replace_defining_factor(fpoly.divmod_poly(gen.poly, g)[0])
    return _ref_inverse(gen, a)


def _ref_pow(gen, a, n):
    if n < 0:
        return _ref_pow(gen, _ref_inverse(gen, a), -n)
    acc, base = _ref_of(gen, 1), a
    while n:
        if n & 1:
            acc = _ref_times(gen, acc, base)
        base = _ref_times(gen, base, base)
        n >>= 1
    return acc


def _ref_enclosure(gen, a, width):
    e = fpoly.rem(a, gen.poly)
    while True:
        enc = _reference_interval_horner(e, Interval(gen.lo, gen.hi))
        if enc.hi - enc.lo <= width:
            return enc.lo, enc.hi
        gen._bisect_once()


def _ref_to_obj(gen, a):
    e = fpoly.rem(a, gen.poly)
    if len(e) > 1:
        return {"coeffs": [rat_to_str(c) for c in e]}
    return rat_to_str(e[0] if e else Fraction(0))


def _field_op(gen, op, x, y):
    """Thunks computing one operation with FieldElement and with the
    reference; x is a (FieldElement, reference) pair, and y is one too, a
    rational operand, an exponent, or None."""
    fx, rx = x
    if op == "inverse":
        return fx.inverse, lambda: _ref_inverse(gen, rx)
    if op == "**":
        return lambda: fx ** y, lambda: _ref_pow(gen, rx, y)
    fy, ry = y if isinstance(y, tuple) else (y, _ref_of(gen, y))
    if op == "+":
        return lambda: fx + fy, lambda: _ref_plus(gen, rx, ry)
    if op == "-":
        return lambda: fx - fy, lambda: _ref_plus(gen, rx, ry, -1)
    if op == "*":
        return lambda: fx * fy, lambda: _ref_times(gen, rx, ry)
    if op == "/":
        return lambda: fx / fy, lambda: _ref_times(gen, rx, _ref_inverse(gen, ry))
    if op == "r+":
        return lambda: fy + fx, lambda: _ref_plus(gen, ry, rx)
    if op == "r-":
        return lambda: fy - fx, lambda: _ref_plus(gen, ry, rx, -1)
    if op == "r*":
        return lambda: fy * fx, lambda: _ref_times(gen, ry, rx)
    return lambda: fy / fx, lambda: _ref_times(gen, ry, _ref_inverse(gen, rx))


def _or_zero_division(thunk):
    try:
        return thunk()
    except ZeroDivisionError:
        return None


RATIONAL = st.one_of(st.integers(-4, 4), SMALL)
FIELD_OPS = st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*", "/"]), st.integers(0, 30),
              st.tuples(st.just("pool"), st.integers(0, 30))),
    st.tuples(st.sampled_from(["+", "-", "*", "/", "r+", "r-", "r*", "r/"]),
              st.integers(0, 30), RATIONAL),
    st.tuples(st.just("inverse"), st.integers(0, 30), st.none()),
    st.tuples(st.just("**"), st.integers(0, 30), st.integers(-3, 4)))


# no explain phase: it reruns failing examples under a line tracer, which on
# this Fraction-heavy oracle takes minutes to report a failure
@settings(max_examples=200, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(case=sign_cases(), more=COEFFS, ops=st.lists(FIELD_OPS, max_size=8),
       widths=st.lists(st.integers(0, 40), min_size=1, max_size=3))
def test_field_arithmetic_matches_fraction_polynomial_reference(case, more, ops, widths):
    gen_poly, lo, hi, coeffs = case
    gen = AlgebraicReal(gen_poly, lo, hi)
    pool = [(FieldElement.generator(gen), fpoly.rem(fpoly.make((0, 1)), gen.poly))]
    # alpha - 3 divides the reducible polynomial: inverting it shrinks that
    # to x^2 - 2 and leaves the cubic-reduced elements of the pool stale
    for c in ((-3, 1), coeffs, more):
        pool.append((FieldElement.of(gen, c), fpoly.rem(fpoly.make(c), gen.poly)))
    for op, i, y in ops:
        x = pool[i % len(pool)]
        if isinstance(y, tuple):  # ("pool", j): an operand from the pool
            y = pool[y[1] % len(pool)]
        fast_op, ref_op = _field_op(gen, op, x, y)
        fast, ref = _or_zero_division(fast_op), _or_zero_division(ref_op)
        assert (fast is None) == (ref is None)  # both divide by zero, or neither
        if fast is None:
            continue
        assert fast.coeffs == ref
        pool.append((fast, ref))
    for (fast, ref), w in zip(pool, itertools.cycle(widths)):
        want = _reference_sign(SimpleNamespace(gen=gen, coeffs=ref))
        assert fast.sign() == want and fast.is_zero() == (want == 0)
        width = Fraction(1, 2 ** w)
        assert fast.enclosure(width) == _ref_enclosure(gen, ref, width)
        assert scalar_to_obj(fast) == _ref_to_obj(gen, ref)
    assert _still_isolates(gen)


def test_enclosure_rejects_a_non_positive_width():
    x = FieldElement.generator(AlgebraicReal((-7, 0, 2), 1, 2))
    for el in (x, x - x, FieldElement.of(x.gen, (3,))):
        for width in (0, -1, Fraction(-1, 3)):
            with pytest.raises(FractarithError, match="width must be positive"):
                el.enclosure(width)
    assert (x.gen.lo, x.gen.hi) == (1, 2)  # nothing was bisected


# The integer kernel against the Fraction routines it replaced (the
# fraction_poly oracle): gcd, the half-extended xgcd behind the inverse, and
# Sturm root counts.

def _monic(p) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, p[-1]) for c in p)


def _is_positive_multiple(ints, fracs) -> bool:
    """ints is c * fracs for a rational c > 0 (both zero counts)."""
    if len(ints) != len(fracs):
        return False
    if not ints:
        return True
    c = ints[-1] / fracs[-1]
    return c > 0 and all(a == c * b for a, b in zip(ints, fracs))


def _non_root_points(p, points):
    return [x for x in points if fpoly.eval_at(p, x) != 0]


POINTS = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=24),
                  min_size=2, max_size=6, unique=True)
RANDOM_POLY = st.lists(st.integers(-6, 6), min_size=1, max_size=6)


@st.composite
def kernel_cases(draw):
    """(defining polynomial, element polynomial), both Fraction polynomials,
    the element reduced modulo the defining one: the number fields of
    sign_cases, or a random squarefree polynomial with a random element."""
    if draw(st.booleans()):
        gen_poly, _, _, coeffs = draw(sign_cases())
        p = fpoly.make(gen_poly)
    else:
        p = fpoly.squarefree_part(fpoly.make(draw(RANDOM_POLY)))
        if fpoly.degree(p) < 1:
            p = fpoly.make((-2, 0, 1))
        coeffs = draw(COEFFS)
    return p, fpoly.rem(fpoly.make(coeffs), p)


@settings(max_examples=300, deadline=None)
@given(case=kernel_cases(), points=POINTS)
def test_integer_gcd_xgcd_and_sturm_match_fraction_oracle(case, points):
    p, e = case
    ip, ie = poly.primitive(p), poly.primitive(e)
    assert ip[-1] > 0 and math.gcd(*ip) == 1
    assert _monic(ip) == fpoly.monic(p)
    g = poly.gcd(ie, ip)
    assert g[-1] > 0 and math.gcd(*g) == 1
    assert _monic(g) == fpoly.gcd(e, p)
    if e:
        ig, s = poly.xgcd(ie, ip)
        fg, fs, _ = fpoly.xgcd(e, p)
        assert _monic(ig) == fg
        # s * ie = ig modulo p, and e = ie * e[-1] / ie[-1]
        scale = Fraction(ie[-1], ig[-1]) / e[-1]
        assert tuple(c * scale for c in s) == fs
    for f, fi in ((p, ip), (fpoly.gcd(e, p), g)):
        if fpoly.degree(f) < 1:
            continue
        chain, fchain = poly.sturm_chain(fi), fpoly.sturm_chain(f)
        assert len(chain) == len(fchain)
        assert all(map(_is_positive_multiple, chain, fchain))
        xs = sorted(_non_root_points(f, points))
        for lo, hi in zip(xs, xs[1:]):
            a, b, q = exactnum._over_common_denominator(lo, hi)
            assert poly.count_roots(chain, a, b, q) == fpoly.count_roots(fchain, lo, hi)


@settings(max_examples=300, deadline=None)
@given(a=RANDOM_POLY, b=RANDOM_POLY)
def test_integer_rem_is_a_positive_multiple_of_the_fraction_remainder(a, b):
    a, b = fpoly.strip(a), fpoly.strip(b)
    if b:
        r = poly.rem(a, b)
        assert _is_positive_multiple(r, fpoly.rem(fpoly.make(a), fpoly.make(b)))
        assert not r or math.gcd(*r) == 1


@settings(max_examples=300, deadline=None)
@given(case=sign_cases())
def test_integer_inverse_matches_fraction_oracle(case):
    gen_poly, lo, hi, coeffs = case
    gen, ref_gen = AlgebraicReal(gen_poly, lo, hi), AlgebraicReal(gen_poly, lo, hi)
    fast = _or_zero_division(FieldElement.of(gen, coeffs).inverse)
    ref = _or_zero_division(lambda: _ref_inverse(ref_gen, fpoly.rem(fpoly.make(coeffs),
                                                                   ref_gen.poly)))
    assert (fast is None) == (ref is None)
    if fast is not None:
        assert fast.coeffs == ref
    # inverting a multiple of alpha - 3 over (x^2 - 2)(x - 3) shrinks both
    # generators' polynomials to x^2 - 2
    assert gen.poly == ref_gen.poly
    assert _still_isolates(gen)


# The bisection path: every isolating interval, and with it every enclosure
# and pow_rational bound, must be the one the Fraction bisection produced.

class _FractionRoot:
    """The Fraction bisection AlgebraicReal ran before it moved to integer
    endpoints, and FieldElement.enclosure on top of it."""

    def __init__(self, coeffs, lo, hi):
        self.p = fpoly.squarefree_part(fpoly.make(coeffs))
        self.lo, self.hi = Fraction(lo), Fraction(hi)

    def bisect_once(self):
        if self.lo == self.hi:
            return
        mid = (self.lo + self.hi) / 2
        v = fpoly.eval_at(self.p, mid)
        if v == 0:
            self.lo = self.hi = mid
        elif (fpoly.eval_at(self.p, self.lo) > 0) != (v > 0):
            self.hi = mid
        else:
            self.lo = mid

    def enclosure(self, coeffs, width):
        while True:
            enc = _reference_interval_horner(coeffs, Interval(self.lo, self.hi))
            if enc.hi - enc.lo <= width:
                return enc.lo, enc.hi
            self.bisect_once()


BISECTION_PATHS = [
    ((-2, 0, 1), 1, 2),
    ((Fraction(-7, 2), 0, 1), 1, 2),
    ((-7, 0, 2), Fraction(3, 2), 3),
    ((Fraction(-13, 4) - Fraction(1, 40), 0, 1), Fraction(9, 5), Fraction(5, 2)),
    (TRIBONACCI, Fraction(7, 4), Fraction(15, 8)),
    (TRIBONACCI, Fraction(11, 6), 2),
    (QSTAR, Fraction(9, 5), Fraction(181, 100)),
    (REDUCIBLE, 1, 2),
    ((-1, 0, 4), 0, 1),  # the first midpoint is the root 1/2
    ((-3, 1), Fraction(5, 4), 7),  # a rational root that no midpoint hits
]


@pytest.mark.parametrize("coeffs, lo, hi", BISECTION_PATHS)
def test_bisection_path_matches_fraction_reference(coeffs, lo, hi):
    gen, ref = AlgebraicReal(coeffs, lo, hi), _FractionRoot(coeffs, lo, hi)
    for n in range(81):
        assert (gen.lo, gen.hi) == (ref.lo, ref.hi), n
        gen._bisect_once()
        ref.bisect_once()


@pytest.mark.parametrize("coeffs, lo, hi",
                         [c for c in BISECTION_PATHS if Fraction(c[1]) > 0])
@pytest.mark.parametrize("e", [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)])
def test_pow_rational_of_field_endpoints_matches_fraction_reference(coeffs, lo, hi, e):
    gen, ref = AlgebraicReal(coeffs, lo, hi), _FractionRoot(coeffs, lo, hi)
    x = FieldElement.generator(gen)
    left, right = x / 2, x + 1
    got = Interval(left, right).pow_rational(e)
    width = Fraction(1, exactnum.DENOMINATOR_BOUND)
    flo = ref.enclosure(left.coeffs, width)[0]
    fhi = ref.enclosure(right.coeffs, width)[1]
    lo_lo, lo_hi = pow_bounds(flo, e)
    hi_lo, hi_hi = pow_bounds(fhi, e)
    assert (got.lo, got.hi) == ((lo_lo, hi_hi) if e > 0 else (hi_lo, lo_hi))
    assert (gen.lo, gen.hi) == (ref.lo, ref.hi)


# The generator's memo of enclosures and fractional-power bounds: after the
# generator's state changes, every reading must be what a fresh twin in the
# same state gives.

def _state(gen):
    return gen._p, gen._a, gen._b, gen._q


def _fresh_twin(gen):
    twin = AlgebraicReal(gen.poly, gen.lo, gen.hi)
    assert _state(twin) == _state(gen) and not twin._memo
    return twin


def _memo_elements(gen):
    x = FieldElement.generator(gen)
    return [x, x * x + x, (x + 1) / 3]


def _coarse_readings(gen):
    """Enclosures wide enough to need no bisection over the intervals used
    below: they fill the memo and leave the generator where it is."""
    return [el.enclosure(8) for el in _memo_elements(gen)]


def _readings(gen, elements=None, uncached=False):
    """Every enclosure and fractional power of the elements, each twice, so
    that the second reading comes from the memo, unless it is emptied before
    every reading; these readings bisect."""
    els = elements or _memo_elements(gen)

    def read(reading):
        if uncached:
            gen._memo.clear()
        return reading()

    out = []
    for _ in range(2):
        for width in (Fraction(1, 2 ** 10), Fraction(1, 2 ** 40)):
            out += [read(lambda: el.enclosure(width)) for el in els]
        for e in (Fraction(1, 2), Fraction(-1, 3)):
            out += [read(lambda: Interval(el + 1, el * el + 2).pow_rational(e)) for el in els]
    return out


@pytest.mark.parametrize("coeffs, lo, hi", [((Fraction(-7, 2), 0, 1), 1, 2),
                                            (TRIBONACCI, Fraction(7, 4), 2),
                                            (REDUCIBLE, 1, 2)])
def test_memo_is_emptied_when_a_bisection_moves_the_interval(coeffs, lo, hi):
    gen = AlgebraicReal(coeffs, lo, hi)
    _readings(gen)
    assert gen._memo
    before = _state(gen)
    gen._bisect_once()
    assert _state(gen) != before and not gen._memo
    twin = _fresh_twin(gen)
    assert _readings(gen) == _readings(twin, uncached=True)
    assert _state(gen) == _state(twin)


def test_memo_is_emptied_when_a_bisection_lands_on_the_root():
    # the first midpoint of [0, 1] is the root 1/2 of 4x^2 - 1
    gen = AlgebraicReal((-1, 0, 4), 0, 1)
    coarse = _coarse_readings(gen)
    assert gen._memo and (gen.lo, gen.hi) == (0, 1)
    gen._bisect_once()
    assert gen.is_rational and gen.lo == Fraction(1, 2) and not gen._memo
    twin = _fresh_twin(gen)
    assert _coarse_readings(gen) == _coarse_readings(twin) != coarse
    assert _readings(gen) == _readings(twin, uncached=True)


def test_memo_is_emptied_when_the_defining_polynomial_shrinks():
    # x^2 + x is (0, 1, 1) modulo (x^2 - 7/2)(x - 3) and 7/2 + x modulo its
    # factor x^2 - 7/2, whose interval-Horner enclosure is narrower
    gen = AlgebraicReal((Fraction(21, 2), Fraction(-7, 2), -3, 1), 1, 2)
    els = _memo_elements(gen)
    coarse = _coarse_readings(gen)
    gen.replace_defining_factor((Fraction(-7, 2), 0, 1))
    assert gen._p == (-7, 0, 2) and not gen._memo
    twin = _fresh_twin(gen)
    twin_els = [FieldElement.of(twin, el.coeffs) for el in els]
    assert [el.enclosure(8) for el in els] == _coarse_readings(twin) != coarse
    assert _readings(gen, els) == _readings(twin, twin_els, uncached=True)
    assert _state(gen) == _state(twin)


def test_copies_of_a_generator_start_with_an_empty_memo():
    gen = AlgebraicReal(TRIBONACCI, Fraction(7, 4), 2)
    _readings(gen)
    for twin in (copy.copy(gen), copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))):
        assert twin is not gen and _state(twin) == _state(gen)
        assert not twin._memo and gen._memo
        assert twin._sign_lo == gen._sign_lo


# ---------------------------------------------------------------------------
# interval unions
# ---------------------------------------------------------------------------

def test_union_merges_touching():
    u = IntervalUnion.from_intervals([(0, 1), (1, 2), (3, 4)])
    assert u.to_obj() == [["0", "2"], ["3", "4"]]


def test_union_gaps():
    u = IntervalUnion.from_intervals([(0, Fraction(1, 3)), (Fraction(2, 3), 1)])
    gaps = u.gaps(iv(0, 1))
    assert len(gaps) == 1
    assert (gaps[0].lo, gaps[0].hi) == (Fraction(1, 3), Fraction(2, 3))


def test_union_gaps_empty_union():
    gaps = IntervalUnion.empty().gaps(iv(0, 1))
    assert len(gaps) == 1 and gaps[0] == iv(0, 1)


def test_union_contains_and_subset():
    u = IntervalUnion.from_intervals([(0, 1), (2, 3)])
    assert u.contains_point(Fraction(1, 2))
    assert not u.contains_point(Fraction(3, 2))
    assert u.contains_interval(iv(2, 3))
    assert not u.contains_interval(iv(1, 2))
    v = IntervalUnion.from_intervals([(0, Fraction(1, 2)), (2, 3)])
    assert v.is_subset(u)
    assert not u.is_subset(v)


def test_union_serialization_round_trip():
    u = IntervalUnion.from_intervals([(Fraction(-1, 3), 0), (Fraction(5, 7), 1)])
    assert IntervalUnion.from_obj(u.to_obj()) == u


def triples_union(pieces) -> IntervalUnion:
    """The union of the triples (lo, hi, d), merged and kept on integers."""
    return IntervalUnion.from_merged_triples(exactnum.merge_triples(pieces))


def _union_or_error(build):
    try:
        return build()
    except FractarithError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(0, 25)), max_size=14),
       st.integers(1, 12), st.integers(-12, 30))
def test_merge_triples_and_inflate_match_from_intervals(raw, den, r):
    pairs = [(lo, lo + w) for lo, w in raw]
    u = IntervalUnion.from_intervals((Fraction(lo, den), Fraction(hi, den)) for lo, hi in pairs)
    assert triples_union((lo, hi, den) for lo, hi in pairs) == u
    radius = Fraction(r, 7)
    assert _union_or_error(lambda: u.inflate(radius)) == _union_or_error(
        lambda: IntervalUnion.from_intervals((lo - radius, hi + radius) for lo, hi in u))


def naive_union(pairs) -> tuple[tuple[int, int], ...]:
    """The closed integer intervals merged as point sets: each covers the
    points 2*lo..2*hi, so touching ones share a point, disjoint ones leave
    an odd point out, and each maximal run of points is one piece."""
    covered = sorted({p for lo, hi in pairs for p in range(2 * lo, 2 * hi + 1)})
    runs: list[list[int]] = []
    for p in covered:
        if runs and runs[-1][1] == p - 1:
            runs[-1][1] = p
        else:
            runs.append([p, p])
    return tuple((lo // 2, hi // 2) for lo, hi in runs)


# pieces on a small range, so that touching, nested and equal ones are common
small_pieces = st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 5)).map(
    lambda t: (t[0], t[0] + t[1])), max_size=10)


@settings(max_examples=300, deadline=None)
@given(small_pieces, st.integers(1, 9), st.data())
def test_merge_matches_the_naive_union(pairs, den, data):
    want = naive_union(pairs)
    assert exactnum._merge_sorted(sorted(pairs, key=operator.itemgetter(0))) == want
    assert exactnum.merge_triples((lo, hi, den) for lo, hi in pairs) == \
        [(lo, hi, den) for lo, hi in want]
    assert IntervalUnion.from_intervals(pairs).intervals == want
    # each piece over its own denominator: the naive union on the grid of
    # their lcm, where every end is an integer
    dens = data.draw(st.lists(st.integers(1, 6), min_size=len(pairs), max_size=len(pairs)))
    own = [(lo, hi, d) for (lo, hi), d in zip(pairs, dens)]
    top = math.lcm(*dens)
    on_grid = naive_union([(lo * (top // d), hi * (top // d)) for lo, hi, d in own])
    merged = exactnum.merge_triples(own)
    assert [(Fraction(lo, d), Fraction(hi, d)) for lo, hi, d in merged] == \
        [(Fraction(lo, top), Fraction(hi, top)) for lo, hi in on_grid]
    # a merged piece is over the one denominator of the pieces its ends come
    # from, or else over the lcm of its ends' reduced denominators
    for lo, hi, d in merged:
        dlos = {e for a, _, e in own if Fraction(a, e) == Fraction(lo, d)}
        dhis = {e for _, b, e in own if Fraction(b, e) == Fraction(hi, d)}
        assert d in dlos & dhis or \
            d == math.lcm(Fraction(lo, d).denominator, Fraction(hi, d).denominator)
    # one piece out of order anywhere is refused, whatever the others are,
    # on both paths of merge_triples
    lo = data.draw(st.integers(-8, 8))
    at = data.draw(st.integers(0, len(pairs)))
    bad = list(pairs)
    bad.insert(at, (lo, lo - data.draw(st.integers(1, 3))))
    bad_own = list(own)
    bad_own.insert(at, (*bad[at], data.draw(st.integers(1, 6))))
    bad_own.append((0, 0, 7))  # a denominator no other piece has
    assert exactnum.shared_den([d for _, _, d in bad_own]) is None
    for merge in (lambda: exactnum._merge_sorted(sorted(bad, key=operator.itemgetter(0))),
                  lambda: exactnum.merge_triples((lo, hi, den) for lo, hi in bad),
                  lambda: exactnum.merge_triples(bad_own),
                  lambda: IntervalUnion.from_intervals(bad)):
        with pytest.raises(FractarithError, match="interval endpoints out of order"):
            merge()


def test_merge_examples():
    assert exactnum._merge_sorted([]) == ()
    assert exactnum._merge_sorted([(0, 1), (1, 2), (3, 3)]) == ((0, 2), (3, 3))
    assert exactnum._merge_sorted([(0, 5), (1, 2), (2, 6)]) == ((0, 6),)
    assert exactnum._merge_sorted([(1, 2), (1, 2)]) == ((1, 2),)
    with pytest.raises(FractarithError, match="interval endpoints out of order"):
        exactnum._merge_sorted([(2, 1)])


def test_merge_triples_examples():
    for bad in ([(2, 1, 3)], [(0, 1, 2), (2, 1, 3)]):
        with pytest.raises(FractarithError, match="interval endpoints out of order"):
            exactnum.merge_triples(bad)
    assert exactnum.merge_triples([]) == []
    assert triples_union([]) == IntervalUnion.empty()
    assert triples_union([(4, 6, 6), (0, 2, 6), (2, 3, 6)]).to_obj() == \
        [["0", "1/2"], ["2/3", "1"]]
    # [0, 1/2] U [1/3, 2/3]: the ends 0/4 and 2/3, reduced, over 3
    assert exactnum.merge_triples([(1, 2, 3), (0, 2, 4)]) == [(0, 2, 3)]
    # touching ends over different denominators merge; a gap stays
    assert exactnum.merge_triples([(3, 4, 6), (0, 1, 2), (5, 6, 5)]) == [(0, 2, 3), (5, 6, 5)]


# Integer-backed unions (merge_triples, and inflate of one) against the same
# union built from Fractions by from_intervals, which keeps scalar pairs and
# reads them with Fraction comparisons.

def fraction_box_count(u: IntervalUnion, size: Fraction) -> int:
    """grid_box_count on Fraction endpoints: the boxes [j*size, (j+1)*size]
    from floor(lo/size) to ceil(hi/size) - 1 of each piece, a point piece
    taking floor(lo/size) alone, each box counted once."""
    count, last = 0, None
    for lo, hi in u.intervals:
        j_min = math.floor(lo / size)
        j_max = j_min if lo == hi else math.ceil(hi / size) - 1
        if last is not None and j_min <= last:
            j_min = last + 1
        if j_max >= j_min:
            count += j_max - j_min + 1
            last = j_max
    return count


def rationals(den_max: int = 12, num_max: int = 60):
    return st.builds(Fraction, st.integers(-num_max, num_max), st.integers(1, den_max))


def assert_same_union(u: IntervalUnion, ref: IntervalUnion, data) -> None:
    """Every reading of u matches the Fraction reference ref."""
    want = [[rat_to_str(lo), rat_to_str(hi)] for lo, hi in ref.intervals]
    assert json.dumps(u.to_obj()) == json.dumps(ref.to_obj()) == json.dumps(want)
    assert len(u) == len(ref) and u.is_empty() == ref.is_empty()
    if ref.is_empty():
        with pytest.raises(FractarithError, match="empty union has no hull"):
            u.hull()
    else:
        assert u.hull() == ref.hull()
    for x in data.draw(st.lists(rationals(), max_size=6)):
        assert u.contains_point(x) == ref.contains_point(x)
    for lo in data.draw(st.lists(rationals(), max_size=6)):
        hi = lo + data.draw(rationals(num_max=20).map(abs))
        assert u.contains_interval(Interval(lo, hi)) == ref.contains_interval(Interval(lo, hi))
    # every end of every piece, and the points just beside them
    eps = Fraction(1, 1000)
    for a, b in ref.intervals:
        assert u.contains_interval(Interval(a, b))
        assert not u.contains_interval(Interval(a - eps, b))
        assert not u.contains_interval(Interval(a, b + eps))
        assert u.contains_point(a) and u.contains_point(b)
        assert not u.contains_point(a - eps) and not u.contains_point(b + eps)
    lo = data.draw(rationals())
    window = Interval(lo, lo + data.draw(rationals(num_max=40).map(abs)))
    assert u.intersect_window(window) == ref.intersect_window(window)
    assert u.gaps(window) == ref.gaps(window)
    size = data.draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)))
    assert grid_box_count(u, size) == grid_box_count(ref, size) == fraction_box_count(ref, size)
    r = data.draw(rationals(den_max=7, num_max=12))
    assert _union_or_error(lambda: u.inflate(r)) == _union_or_error(lambda: ref.inflate(r))
    # equality, hash, iteration, repr, copy and pickle read the Fractions,
    # and agree with ref's whether or not they were formed before
    assert u == ref and ref == u and not u != ref
    assert hash(u) == hash(ref)
    assert list(u) == list(ref) and u.intervals == ref.intervals
    assert repr(u) == repr(ref)
    for twin in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
        assert twin == ref and twin.to_obj() == want
    assert pickle.dumps(u) == pickle.dumps(ref)


# pieces (lo, hi) on a small range, negative ones included, so that touching,
# nested, equal and point pieces are common
int_pieces = st.lists(st.tuples(st.integers(-10, 10), st.integers(0, 6)).map(
    lambda t: (t[0], t[0] + t[1])), max_size=8)


@settings(max_examples=300, deadline=None)
@given(int_pieces, st.data())
def test_int_backed_union_matches_fraction_reference(pairs, data):
    if data.draw(st.booleans(), "shared denominator"):
        dens = [data.draw(st.integers(1, 12))] * len(pairs)
    else:
        dens = data.draw(st.lists(st.integers(1, 12), min_size=len(pairs), max_size=len(pairs)))
    u = triples_union((lo, hi, d) for (lo, hi), d in zip(pairs, dens))
    ref = IntervalUnion.from_intervals(
        (Fraction(lo, d), Fraction(hi, d)) for (lo, hi), d in zip(pairs, dens))
    assert u._ends is not None and u._pairs is None
    assert_same_union(u, ref, data)
    # the radius is a Fraction >= 0, so inflate stays on integers
    r = data.draw(st.builds(Fraction, st.integers(0, 12), st.integers(1, 7)))
    inflated = u.inflate(r)
    assert inflated._ends is not None
    assert_same_union(inflated, ref.inflate(r), data)


def test_int_backed_union_of_one_point():
    u = triples_union([(-3, -3, 6)])
    assert u.to_obj() == [["-1/2", "-1/2"]]
    assert u.hull() == Interval(Fraction(-1, 2), Fraction(-1, 2))
    assert u.contains_point(Fraction(-1, 2)) and not u.contains_point(Fraction(-1, 3))
    assert grid_box_count(u, Fraction(1, 2)) == 1
    assert u.inflate(Fraction(1, 2)).to_obj() == [["-1", "0"]]
    assert u == IntervalUnion.from_intervals([(Fraction(-1, 2), Fraction(-1, 2))])


def test_int_backed_union_with_field_element_arguments():
    # a field-element point or radius reads the Fraction pairs
    u = triples_union([(0, 3, 3), (4, 6, 3)])  # [0, 1] U [4/3, 2]
    root2 = FieldElement.generator(AlgebraicReal((-2, 0, 1), 1, 2))
    ref = IntervalUnion.from_intervals([(0, 1), (Fraction(4, 3), 2)])
    assert u.contains_point(root2) and ref.contains_point(root2)
    assert u.contains_point(root2 - 1)
    assert not u.contains_point(root2 - 1 + Fraction(2, 3))  # in the gap
    assert u.contains_interval(Interval(root2 - 1, Fraction(1)))
    assert not u.contains_interval(Interval(root2 - 1, root2))
    grown = u.inflate(root2 / 8)
    assert grown == ref.inflate(root2 / 8) and len(grown) == 1
    assert grown._ends is None
