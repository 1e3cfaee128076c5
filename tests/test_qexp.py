"""Tests for q-expansions: the quasi-greedy expansion, the univoque
criterion, the embedded set K_q, and the threshold q*."""

import copy
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expansion_count import count_expansions_bruteforce
from fractarith import certifier
from fractarith.certifier import (_POINT_WIDTH, _PointTest, _size_bounds, _terms, auto_certify,
                                  certify_rectangle, check_global_condition,
                                  check_pointwise, replay)
from fractarith.errors import (CertificationFailure, DomainError, ExhaustedDepth,
                               FractarithError, NotContained, PointRefuted)
from fractarith.exactnum import (AlgebraicReal, FieldElement, Interval, ends_triple,
                                 rat_from_str, root_isolate, scalar_to_obj)
from fractarith.exprfn import compile_expr, parse
from fractarith.ifs_core import Code
from fractarith.qexp import (CORNERS, QSTAR_POLY, STREAM_WINDOW, DigitSeq, QgPrefix,
                             QuasiGreedyStream, as_base, base_above_qstar, certify_uq_arith,
                             is_univoque_seq, kq_ifs, lex_less, pi_q, qstar, quasi_greedy_one,
                             verify_kq_in_uq)

Q19 = Fraction(19, 10)


# ---------------------------------------------------------------------------
# digit sequences
# ---------------------------------------------------------------------------

def test_digitseq_canonical_form():
    assert DigitSeq("11", "01") == DigitSeq("1", "10")
    assert str(DigitSeq.parse("11(01)")) == "1(10)"
    assert DigitSeq.parse("(0101)") == DigitSeq.parse("(01)")
    assert str(DigitSeq.parse("101")) == "101(0)"
    assert str(DigitSeq.parse("10")) == "1(0)"


def test_digitseq_digits_and_tails():
    s = DigitSeq.parse("11(01)")
    assert s.digits(8) == "11010101"
    assert s.tail_from(2) == DigitSeq.parse("(01)")
    assert s.complement().digits(6) == "001010"


def test_lex_less_examples():
    assert lex_less(DigitSeq.parse("(10)"), DigitSeq.parse("11(01)"))
    s = DigitSeq.parse("1(10)")
    assert not lex_less(s, s)  # irreflexive
    assert lex_less(DigitSeq.parse("(01)"), DigitSeq.parse("0(11)"))
    assert not lex_less(DigitSeq.parse("0(11)"), DigitSeq.parse("(01)"))


DIGIT_SEQS = st.builds(DigitSeq, st.text("01", max_size=6), st.text("01", min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(DIGIT_SEQS, DIGIT_SEQS)
def test_lex_less_is_a_string_comparison_on_the_window(s, t):
    n = len(s.preperiod) + len(t.preperiod) + math.lcm(len(s.period), len(t.period)) + 1
    assert lex_less(s, t) == (s.digits(n) < t.digits(n))
    # the window separates any two distinct sequences
    assert lex_less(s, t) or lex_less(t, s) or s == t


def test_pi_q_values():
    # (10)^inf at the golden ratio projects to 1: phi^-1 + phi^-3 + ... = 1
    golden = root_isolate((-1, -1, 1), (1, 2))[0]
    x = pi_q(DigitSeq.parse("(10)"), golden)
    assert (x - 1).is_zero()
    # rational base: geometric series exactly
    assert pi_q(DigitSeq.parse("(1)"), Q19) == 1 / (Q19 - 1)
    assert pi_q(DigitSeq.parse("(0)"), Q19) == 0


# ---------------------------------------------------------------------------
# quasi-greedy expansion of 1
# ---------------------------------------------------------------------------

def test_quasi_greedy_at_qstar():
    eta = quasi_greedy_one(qstar())
    assert isinstance(eta, DigitSeq)
    assert eta == DigitSeq.parse("11(01)")


def test_quasi_greedy_at_golden_ratio():
    golden = root_isolate((-1, -1, 1), (1, 2))[0]
    assert quasi_greedy_one(golden) == DigitSeq.parse("(10)")


def test_quasi_greedy_rational_prefix():
    res = quasi_greedy_one(Q19, budget=20)
    assert isinstance(res, QgPrefix)
    assert res.digits.startswith("11101")


def test_quasi_greedy_digits_always_valid():
    res = quasi_greedy_one(Fraction(3, 2), budget=50)
    assert set(res.digits) <= {"0", "1"}
    assert res.digits.startswith("101")  # greedy would be 11000...


def test_eta_monotone_in_q():
    qs = [Fraction(n, 64) for n in range(70, 127, 7)]
    window = 40
    prefixes = []
    for q in qs:
        res = quasi_greedy_one(q, budget=window + 5)
        digits = res.digits(window) if isinstance(res, DigitSeq) else res.digits[:window]
        prefixes.append(digits)
    for a, b in zip(prefixes, prefixes[1:]):
        n = min(len(a), len(b))
        assert a[:n] <= b[:n]


def test_base_validation():
    with pytest.raises(FractarithError):
        as_base(Fraction(5, 2))
    with pytest.raises(FractarithError):
        as_base(1)
    assert as_base("19/10") == Q19
    assert base_above_qstar(Q19)
    assert not base_above_qstar(Fraction(3, 2))
    assert not base_above_qstar(FieldElement.generator(qstar()))


def test_base_above_qstar_rejects_bases_outside_the_range():
    # the cubic is positive again below its root near 0.445, so a sign test
    # alone would call 3/10 a base above q*
    sqrt10 = FieldElement.generator(AlgebraicReal((-10, 0, 1), 3, 4))
    sqrt5 = FieldElement.generator(AlgebraicReal((-5, 0, 1), 2, 3))
    for q in (Fraction(3, 10), Fraction(1), Fraction(2), Fraction(5, 2),
              1 / sqrt10, sqrt5, "root:-10,0,1@3,4"):
        with pytest.raises(FractarithError, match="1 < q < 2"):
            base_above_qstar(q)


def test_base_above_qstar_algebraic_bases():
    assert not base_above_qstar(qstar())
    assert not base_above_qstar("qstar")
    assert not base_above_qstar("root:1,-2,-1,1@9/5,181/100")
    assert not base_above_qstar(AlgebraicReal((-3, 0, 1), 1, 2))  # 1.732...
    assert base_above_qstar(AlgebraicReal((Fraction(-7, 2), 0, 1), 1, 2))  # 1.870...
    assert base_above_qstar(AlgebraicReal((-1, -1, -1, 1), 1, 2))  # tribonacci 1.839...


def _is_rational_square(c: Fraction) -> bool:
    return all(math.isqrt(n) ** 2 == n for n in (c.numerator, c.denominator))


RATIONAL_BASES = st.fractions(min_value=1, max_value=2, max_denominator=60) \
    .filter(lambda q: 1 < q < 2)
SQRT_BASES = st.fractions(min_value=1, max_value=4, max_denominator=60) \
    .filter(lambda c: 1 < c < 4 and not _is_rational_square(c))


@settings(max_examples=300, deadline=None)
@given(st.one_of(RATIONAL_BASES.map(lambda q: ("rational", q)),
                 SQRT_BASES.map(lambda c: ("sqrt", c))))
# the nearest such bases on either side of q* = 1.80193...
@example(("rational", Fraction(9, 5)))
@example(("rational", Fraction(101, 56)))
@example(("sqrt", Fraction(185, 57)))
@example(("sqrt", Fraction(13, 4)))
def test_base_above_qstar_agrees_with_bisection(base):
    # the oracle orders q against q* by AlgebraicReal bisection alone: it
    # refines both isolating intervals until they are disjoint
    kind, c = base
    if kind == "rational":
        q, enclose = c, lambda w: Interval(c, c)
    else:
        q = FieldElement.generator(AlgebraicReal((-c, 0, 1), 1, 2))
        enclose = AlgebraicReal((-c, 0, 1), 1, 2).refine
    star = qstar()
    for k in range(1, 120):
        w = Fraction(1, 2 ** k)
        enc, star_enc = enclose(w), star.refine(w)
        if enc.hi < star_enc.lo or star_enc.hi < enc.lo:
            assert base_above_qstar(q) == (star_enc.hi < enc.lo)
            return
    raise AssertionError(f"q and q* not separated for {base}")


# ---------------------------------------------------------------------------
# univoque criterion vs brute force
# ---------------------------------------------------------------------------

def test_is_univoque_examples():
    assert is_univoque_seq(DigitSeq.parse("(01)"), Q19) == "yes"
    assert is_univoque_seq(DigitSeq.parse("(0)"), Q19) == "yes"
    assert is_univoque_seq(DigitSeq.parse("(0)"), Fraction(3, 2)) == "yes"
    # 0111... equals the value of 1000... at the golden ratio and is not unique
    golden = root_isolate((-1, -1, 1), (1, 2))[0]
    assert is_univoque_seq(DigitSeq.parse("0(1)"), golden) == "no"


def test_all_ones_is_univoque():
    # the right endpoint 1/(q-1) has the all-ones expansion only
    for q in (Q19, Fraction(3, 2), Fraction(7, 4)):
        assert is_univoque_seq(DigitSeq.parse("(1)"), q) == "yes"
        assert count_expansions_bruteforce(1 / (q - 1), q, 30) == 1


def test_count_expansions_examples():
    assert count_expansions_bruteforce(Fraction(0), Q19, 25) == 1
    x = pi_q(DigitSeq.parse("(01)"), Q19)
    assert count_expansions_bruteforce(x, Q19, 30) == 1
    q = Fraction(3, 2)
    assert count_expansions_bruteforce(1 / q, q, 8) >= 2


def test_count_expansions_cap_is_lower_bound():
    q = Fraction(3, 2)
    x = Fraction(1) / q
    full = count_expansions_bruteforce(x, q, 12)
    capped = count_expansions_bruteforce(x, q, 12, cap=4)
    assert capped == min(full, 4) or capped <= full


def _random_seq(rng):
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
    return DigitSeq(pre, per)


def test_criterion_agrees_with_bruteforce_sample():
    rng = random.Random(1234)
    agree = 0
    while agree < 40:
        q = Fraction(rng.randint(11, 19), 10)
        seq = _random_seq(rng)
        verdict = is_univoque_seq(seq, q)
        if verdict == "unknown":
            continue
        count = count_expansions_bruteforce(pi_q(seq, q), q, 30, cap=8)
        assert (verdict == "yes") == (count == 1), (str(seq), q)
        agree += 1


# ---------------------------------------------------------------------------
# K_q and the threshold
# ---------------------------------------------------------------------------

def test_kq_ifs_exact_fields():
    k = kq_ifs(Q19)
    assert k.ratio == Fraction(100, 361)
    assert k.translations == (Fraction(100, 361), Fraction(10, 19))
    hull = k.convex_hull()
    assert (hull.lo, hull.hi) == (Fraction(100, 261), Fraction(190, 261))


def test_kq_hull_identity_random_bases():
    rng = random.Random(2025)
    for _ in range(50):
        q = Fraction(rng.randint(101, 199), 100)
        k = kq_ifs(q)
        hull = k.convex_hull()
        assert hull.lo == 1 / (q * q - 1)
        assert hull.hi == q / (q * q - 1)
        prof = k.gap_profile()
        assert prof.kappa / hull.width() == max(1 - 2 / (q * q), 0)


def test_kq_touches_at_sqrt2():
    sqrt2 = root_isolate((-2, 0, 1), (1, 2))[0]
    k = kq_ifs(sqrt2)
    prof = k.gap_profile()
    assert prof.kappa == 0  # g1(b) == g2(a) exactly when q^2 = 2
    just_above = Fraction(1415, 1000)
    assert kq_ifs(just_above).gap_profile().kappa > 0


def test_kq_block_coding_matches_maps():
    # prepending block 01 is g1, block 10 is g2
    k = kq_ifs(Q19)
    for blocks, digit in ((("01",), 1), (("10",), 2)):
        seq = DigitSeq.parse("(01)")
        x = pi_q(seq, Q19)
        shifted = pi_q(DigitSeq(blocks[0], seq.preperiod + seq.period), Q19)
        assert shifted == k.ratio * x + k.translations[digit - 1]


def test_verify_kq_in_uq_verdicts():
    assert verify_kq_in_uq(Q19) == "yes"
    assert verify_kq_in_uq(qstar()) == "no"
    assert verify_kq_in_uq(Fraction(3, 2)) == "no"
    assert verify_kq_in_uq(Fraction(95, 50)) == verify_kq_in_uq(Q19)


def _sqrt_base(c: Fraction) -> FieldElement:
    return FieldElement.generator(AlgebraicReal((-c, 0, 1), 1, 2))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.fractions(min_value=1, max_value=2, max_denominator=1000)
                 .filter(lambda q: 1 < q < 2),
                 SQRT_BASES.map(_sqrt_base)))
@example(Fraction(9, 5))
@example(Fraction(101, 56))
@example(_sqrt_base(Fraction(185, 57)))
@example(_sqrt_base(Fraction(13, 4)))
@example(FieldElement.generator(qstar()))
def test_verify_kq_in_uq_is_the_threshold(q):
    assert (verify_kq_in_uq(q) == "yes") == base_above_qstar(q)


def _stream_cmp_oracle(seq: DigitSeq, eta: QuasiGreedyStream) -> int | None:
    """Three-way comparison of seq with eta: read the stream until the digits
    differ or eta turns periodic, then compare both as strings over
    preperiods + lcm of periods + 1 digits."""
    def periodic_cmp():
        per = eta.seq
        n = len(seq.preperiod) + len(per.preperiod) + math.lcm(len(seq.period), len(per.period)) + 1
        a, b = seq.digits(n), per.digits(n)
        return (a > b) - (a < b)

    if eta.seq is not None:
        return periodic_cmp()
    for i in range(STREAM_WINDOW):
        d = eta.digit(i)
        if d is None:
            return None
        if seq.digit(i) != d:
            return -1 if seq.digit(i) < d else 1
        if eta.seq is not None:
            return periodic_cmp()
    return None


def _two_tail_verdict(q) -> str:
    """K_q inside U_q by the extremal tails of the block coding {01, 10}:
    1(10)^inf and (10)^inf must both lie strictly below eta."""
    eta = QuasiGreedyStream(q)
    verdict = "yes"
    for tail in (DigitSeq("1", "10"), DigitSeq("", "10")):
        c = _stream_cmp_oracle(tail, eta)
        if c is None:
            verdict = "unknown"
        elif c >= 0:
            return "no"
    return verdict


# sqrt(c) bases, and the roots in (1, 2) of x^n - x^(n-1) - ... - 1: the
# golden ratio for n = 2, the tribonacci constant for n = 3
@settings(max_examples=80, deadline=None)
@given(st.one_of(SQRT_BASES.map(lambda c: ((-c, 0, 1), 1, 2)),
                 st.integers(2, 6).map(lambda n: ((-1,) * n + (1,), 1, 2))))
@example(((-1, -1, -1, 1), 1, 2))
@example((QSTAR_POLY, Fraction(9, 5), Fraction(181, 100)))
def test_verify_kq_in_uq_matches_the_two_tail_check(args):
    # both sides read eta's digits in the same order, so they leave the
    # generator's isolating interval in the same place
    q, q_oracle = (FieldElement.generator(AlgebraicReal(*args)) for _ in range(2))
    assert verify_kq_in_uq(q) == _two_tail_verdict(q_oracle)
    assert (q.gen._a, q.gen._b, q.gen._q) == (q_oracle.gen._a, q_oracle.gen._b, q_oracle.gen._q)


def test_qstar_boundary_bracket():
    # rational brackets around q* flip the verdict from no to yes
    star = qstar()
    for width in (Fraction(1, 100), Fraction(1, 10 ** 4), Fraction(1, 10 ** 6)):
        enc = star.refine(width)
        assert verify_kq_in_uq(enc.lo) == "no"
        assert verify_kq_in_uq(enc.hi) == "yes"


def test_qstar_object():
    star = qstar()
    assert FieldElement.of(star, (1, -2, -1, 1)).sign() == 0
    assert Fraction(9, 5) <= star.lo and star.hi <= Fraction(181, 100)
    inner = star.refine(Fraction(1, 10 ** 8))
    assert Fraction(180, 100) <= inner.lo and inner.hi <= Fraction(181, 100)


# ---------------------------------------------------------------------------
# condition reports and the full certification pipeline
# ---------------------------------------------------------------------------

def kq_report(q, ftext, point, depth=8):
    """The paper's condition on K_q x K_q: the general pointwise test."""
    kq = kq_ifs(q)
    return check_pointwise(kq, kq, parse(ftext), point, depth)


def test_kq_condition_product():
    a, b = Fraction(100, 261), Fraction(190, 261)
    rep = kq_report(Q19, "x*y", (a, b))
    assert rep.lower_bound == Fraction(161, 361)
    assert rep.upper_bound == Fraction(100, 361) / Fraction(161, 361)
    assert rep.holds == "yes"
    rep2 = kq_report(Q19, "x+y", (a, b))
    assert rep2.holds == "no"


def test_kq_condition_degenerate_bounds():
    sqrt2 = root_isolate((-2, 0, 1), (1, 2))[0]
    rep = kq_report(sqrt2, "x+y", (Fraction(1), Fraction(1)), depth=2)
    assert rep.lower_bound == 0
    assert rep.upper_bound == float("inf")
    assert rep.holds == "yes"
    obj = rep.to_obj()
    assert obj["lower_bound"] == "0" and obj["upper_bound"] == "inf"


@settings(max_examples=60, deadline=None)
@given(q=st.fractions(min_value=1, max_value=2, max_denominator=60)
       .filter(lambda q: 1 < q < 2),
       ftext=st.sampled_from(["x*y", "x+y", "x/y", "x^2+y^2"]),
       corners=st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 2])),
       depth=st.integers(0, 4))
def test_kq_condition_bounds_closed_form(q, ftext, corners, depth):
    # lambda = q^-2; K_q has gaps exactly when q^2 > 2
    point = tuple(Code((), (d,)) for d in corners)
    rep = kq_report(q, ftext, point, depth)
    lam = 1 / (q * q)
    if q * q > 2:
        assert rep.lower_bound == 1 - 2 * lam
        assert rep.upper_bound == lam / (1 - 2 * lam)
    else:
        assert rep.lower_bound == 0 and rep.upper_bound == float("inf")


def test_global_condition_report_serialises_over_qstar():
    kq = kq_ifs(qstar())
    rep = check_global_condition(kq, kq)
    obj = rep.to_obj()
    assert obj == {"holds": False,
                   "lambda*(b-a)": {"coeffs": ["3", "2", "-2"]},
                   "kappa2": {"coeffs": ["-6", "-2", "3"]},
                   "kappa1": {"coeffs": ["-6", "-2", "3"]},
                   "d-c": {"coeffs": ["0", "2", "-1"]}}
    for key, value in (("lambda*(b-a)", rep.lambda_b_minus_a), ("kappa2", rep.kappa2),
                       ("kappa1", rep.kappa1), ("d-c", rep.d_minus_c)):
        coeffs = [rat_from_str(c) for c in obj[key]["coeffs"]]
        assert FieldElement.of(kq.ratio.gen, coeffs) == value


def test_certify_uq_arith_all_four_functions():
    for ftext in ("x*y", "x/y", "x^2+y^2", "x^2-y^2"):
        cert = certify_uq_arith(Q19, parse(ftext))
        assert cert.certified_interval.lo < cert.certified_interval.hi
        assert replay(cert)


def test_certify_uq_arith_below_threshold():
    with pytest.raises(NotContained):
        certify_uq_arith(Fraction(3, 2), parse("x*y"))


def test_certify_uq_arith_sign_case():
    cert = certify_uq_arith(Q19, parse("x^2-y^2"))
    assert {cert.sign_case.sx, cert.sign_case.sy} == {1, -1}


# certify_uq_arith against a copy of its loop before the corner walks were
# shared and field enclosures memoised: one auto_certify per anchor, each
# walking its codes afresh, with the generator's memo emptied before every
# enclosure

@contextmanager
def _memo_emptied_before_every_enclosure():
    enclosure = FieldElement.enclosure

    def uncached(self, width):
        self.gen._memo.clear()
        return enclosure(self, width)

    FieldElement.enclosure = uncached
    try:
        yield
    finally:
        FieldElement.enclosure = enclosure


def _certify_uq_arith_oracle(q, f, max_depth):
    q = as_base(q)
    assert verify_kq_in_uq(q) == "yes"
    kq = kq_ifs(q)
    reasons = []
    for anchor in CORNERS.values():
        try:
            return auto_certify(kq, kq, f, anchor, max_depth)
        except ExhaustedDepth as exc:
            reasons.extend(exc.reasons)
        except (CertificationFailure, DomainError) as exc:
            reasons.append((-1, str(exc)))
    raise ExhaustedDepth(reasons)


def _uq_outcome(certify, q, f, max_depth):
    """The certificate's fields as JSON values, or the ExhaustedDepth reasons."""
    try:
        cert = certify(q, f, max_depth)
    except ExhaustedDepth as exc:
        return exc.reasons
    return {"ifs1": cert.ifs1.to_obj(), "ifs2": cert.ifs2.to_obj(),
            "word1": cert.word1, "word2": cert.word2, "sign_case": str(cert.sign_case),
            "grad": [cert.grad.dx.to_obj(), cert.grad.dy.to_obj(),
                     [iv.to_obj() for iv in cert.grad.rect]],
            "orientation": cert.orientation, "m_row": scalar_to_obj(cert.m_row),
            "m_gap": scalar_to_obj(cert.m_gap),
            "certified_interval": cert.certified_interval.to_obj()}


# the f pool and the isolating intervals of the uq-algebraic benchmark workload
UQ_F_POOL = ["x*y", "x/y", "x^2-y^2", "x+y", "x^(1/2)+y^(1/2)"]
UQ_SQRT_BASES = st.tuples(
    st.fractions(min_value=Fraction(13, 4), max_value=4, max_denominator=40)
    .filter(lambda c: Fraction(13, 4) < c < 4).map(lambda c: (-c, 0, 1)),
    st.sampled_from([Fraction(3, 2), Fraction(7, 4), Fraction(9, 5)]),
    st.sampled_from([Fraction(2), Fraction(5, 2), Fraction(3)]))
UQ_TRIBONACCI_BASES = st.tuples(
    st.just((-1, -1, -1, 1)),
    st.sampled_from([Fraction(7, 4), Fraction(9, 5), Fraction(11, 6)]),
    st.sampled_from([Fraction(15, 8), Fraction(19, 10), Fraction(2)]))
# both isolate sqrt(7/2) with a reducible defining polynomial:
# (x^2 - 7/2)(x - 3) keeps it through the pipeline, and (x^2 - 7/2)(x + 1)
# is shrunk to x^2 - 7/2 inside the first walk, whose hull inverts
# 1 - q^-2, a zero divisor that vanishes at -1
UQ_REDUCIBLE_BASES = [((Fraction(21, 2), Fraction(-7, 2), -3, 1), 1, 2),
                      ((Fraction(-7, 2), Fraction(-7, 2), 1, 1), 1, 2)]


@settings(max_examples=40, deadline=None)
@given(base=st.one_of(UQ_SQRT_BASES, UQ_TRIBONACCI_BASES, st.sampled_from(UQ_REDUCIBLE_BASES)),
       ftext=st.sampled_from(UQ_F_POOL), max_depth=st.integers(0, 12))
@example(base=UQ_REDUCIBLE_BASES[0], ftext="x^(1/2)+y^(1/2)", max_depth=12)
@example(base=UQ_REDUCIBLE_BASES[1], ftext="x^(1/2)+y^(1/2)", max_depth=12)
@example(base=UQ_REDUCIBLE_BASES[1], ftext="x/y", max_depth=12)
@example(base=((Fraction(-7, 2), 0, 1), 1, 2), ftext="x+y", max_depth=12)
def test_certify_uq_arith_matches_one_uncached_descent_per_anchor(base, ftext, max_depth):
    f = parse(ftext)
    q, q_oracle = AlgebraicReal(*base), AlgebraicReal(*base)
    got = _uq_outcome(certify_uq_arith, q, f, max_depth)
    with _memo_emptied_before_every_enclosure():
        want = _uq_outcome(_certify_uq_arith_oracle, q_oracle, f, max_depth)
    assert got == want
    assert (q._p, q._a, q._b, q._q) == (q_oracle._p, q_oracle._a, q_oracle._b, q_oracle._q)


def test_the_second_reducible_base_shrinks_its_defining_polynomial():
    q = AlgebraicReal(*UQ_REDUCIBLE_BASES[1])
    with pytest.raises(ExhaustedDepth):
        certify_uq_arith(q, parse("x+y"), max_depth=0)
    assert q._p == (-7, 0, 2)


# the rational point test of auto_certify over algebraic data

@st.composite
def point_descents(draw):
    """A K_q base, an f, and a descent of the K_q pair to a rank up to 12,
    along the corner walks or random codes.  Over sqrt(c) the f also takes
    the linear (c - 2)*x + y, scaled to integers, whose k1-blocks m_row is
    exactly 0 (piece * (c - 2) = kappa), so that only the optimistic ends of
    the test's enclosures keep it from refuting a rectangle that certifies."""
    base = draw(st.one_of(UQ_SQRT_BASES, UQ_TRIBONACCI_BASES, st.sampled_from(UQ_REDUCIBLE_BASES)))
    pool = list(UQ_F_POOL)
    if len(base[0]) == 3:
        c = -Fraction(base[0][0])
        pool.append(f"{c.numerator - 2 * c.denominator}*x+{c.denominator}*y")
    digits = st.lists(st.integers(1, 2), max_size=3)
    code = st.builds(lambda pre, per: Code(tuple(pre), tuple(per)),
                     digits, digits.filter(bool))
    codes = draw(st.sampled_from(tuple(CORNERS.values())) | st.tuples(code, code))
    return base, draw(st.sampled_from(pool)), codes, draw(st.integers(0, 12))


def point_tests():
    """A K_q base, an f and the rectangle's words at the end of a descent."""
    return point_descents().map(
        lambda p: (p[0], p[1], tuple(c.prefix(p[3]) for c in p[2])))


@settings(max_examples=150, deadline=None)
@given(point_tests())
@example((UQ_REDUCIBLE_BASES[1], "x+y", ((1,), (2,))))
@example((UQ_REDUCIBLE_BASES[0], "x*y", ((), ())))
def test_a_point_refuted_rectangle_does_not_certify(problem):
    base, ftext, (word1, word2) = problem
    q = AlgebraicReal(*base)
    kq = kq_ifs(q)
    f = parse(ftext)
    terms = _terms(kq, kq)
    rect = (kq.basic_interval(word1), kq.basic_interval(word2))
    gen = kq.ratio.gen
    state = (gen._p, gen._a, gen._b, gen._q, dict(gen._memo))
    program = compile_expr(f)
    test = _PointTest(program, terms)
    try:
        test.refute(rect)
        refuted = False
    except PointRefuted:
        refuted = True
    assert (gen._p, gen._a, gen._b, gen._q, gen._memo) == state
    if refuted:
        with pytest.raises((CertificationFailure, DomainError)):
            certify_rectangle(kq, kq, f, word1, word2)
    # the terms lie on their optimistic sides, which exact ties alone would
    # not show: piece and width from above, kappa from below
    for exact, bounds in zip(terms, test._terms):
        (piece, _), (width, _), (kappa, _) = exact
        (pn, pd), (wn, wd), (kn, kd) = bounds
        assert piece <= Fraction(pn, pd) and width <= Fraction(wn, wd)
        assert 0 <= Fraction(kn, kd) <= kappa
    # and so do the sizes: over the box around the corner, the lo slot bounds
    # each partial's size at the corner from above and the hi slot from
    # below, checked where the partial's value there is exact
    corner = [iv.lo for iv in rect]
    try:
        boxes = program.gradient_triples(*map(test._triple, corner))
        exact = program.gradient(*map(Interval.point, corner))
    except DomainError:
        return
    for enc, box in zip((exact.dx, exact.dy), boxes):
        big, small, d = _size_bounds(box)
        if enc.lo == enc.hi:
            assert Fraction(small, d) <= enc.abs().lo <= Fraction(big, d)


def test_the_point_test_names_a_bound_on_each_orientation_s_margin():
    """x+y over sqrt(7/2) fails at the hull rectangle, and the bounds round
    the exact margin upward; x*y is not refuted at rank 2 of the left-right
    corner, where it certifies."""
    kq = kq_ifs(AlgebraicReal((-7, 0, 2), 1, 2))
    hull = (kq.basic_interval(()), kq.basic_interval(()))
    with pytest.raises(PointRefuted) as info:
        _PointTest(compile_expr(parse("x+y")), _terms(kq, kq)).refute(hull)
    # the exact m_row of both orientations is 2/35 - (2/35)*sqrt(7/2) = -0.04975...
    assert str(info.value) == ("at the rectangle's lower-left corner, k1-blocks m_row <= "
                               "-4.97e-2 and k2-blocks m_row <= -4.97e-2")
    assert info.value.bounds == (("k1-blocks", "m_row", "-4.97e-2"),
                                 ("k2-blocks", "m_row", "-4.97e-2"))
    words = ((1, 1), (2, 2))
    rect = tuple(kq.basic_interval(w) for w in words)
    _PointTest(compile_expr(parse("x*y")), _terms(kq, kq)).refute(rect)
    assert certify_rectangle(kq, kq, parse("x*y"), *words).orientation == "k1-blocks"


class _RecordingPointTest(_PointTest):
    """The point test, keeping each algebraic value it encloses with the
    triple it formed."""

    def __init__(self, program, terms):
        self.formed = []
        super().__init__(program, terms)

    def _triple(self, x):
        t = super()._triple(x)
        if isinstance(x, FieldElement):
            self.formed.append((x, t))
        return t


@settings(max_examples=60, deadline=None)
@given(point_descents())
def test_the_point_test_s_integer_enclosures_hold_their_values(problem):
    """Along a descent, every triple (lo, hi, d) the point test forms holds
    its value and is at most _POINT_WIDTH wide, and the shared generator is
    left as it was.  A third of each corner is enclosed after the descent:
    its numerators are mostly the corner's over another denominator, so a
    table keyed without the denominator would hand it the corner's
    triple."""
    base, ftext, codes, rank = problem
    kq = kq_ifs(AlgebraicReal(*base))
    terms = _terms(kq, kq)
    rects = [tuple(kq.basic_interval(c.prefix(k)) for c in codes) for k in range(rank + 1)]
    thirds = [iv.lo / 3 for rect in rects for iv in rect if isinstance(iv.lo, FieldElement)]
    gen = kq.ratio.gen
    state = (gen._p, gen._a, gen._b, gen._q, dict(gen._memo))
    test = _RecordingPointTest(compile_expr(parse(ftext)), terms)
    for rect in rects:
        try:
            test.refute(rect)
        except PointRefuted:
            pass
    for x in thirds:
        test._triple(x)
    assert (gen._p, gen._a, gen._b, gen._q, gen._memo) == state
    assert test.formed
    # compared over a copy, since comparisons bisect their generator
    twin = copy.copy(gen)
    for x, (lo, hi, d) in test.formed:
        value = FieldElement(twin, x.num, x.den)
        assert Fraction(lo, d) <= value <= Fraction(hi, d)
        assert Fraction(hi - lo, d) <= _POINT_WIDTH


class _EnclosureOraclePointTest(_PointTest):
    """The point test with each value enclosed as FieldElement.enclosure
    encloses it, to _POINT_WIDTH on a copy of the generator made at first
    need and bisected only as that needs, with Fraction ends."""

    def _triple(self, x):
        if not isinstance(x, FieldElement):
            return super()._triple(x)
        gen = self._copies.get(x.gen)
        if gen is None:
            gen = self._copies[x.gen] = copy.copy(x.gen)
        lo, hi = FieldElement(gen, x.num, x.den).enclosure(_POINT_WIDTH)
        return ends_triple(lo.numerator, lo.denominator, hi.numerator, hi.denominator)


@settings(max_examples=40, deadline=None)
@given(base=st.one_of(UQ_SQRT_BASES, UQ_TRIBONACCI_BASES, st.sampled_from(UQ_REDUCIBLE_BASES)),
       ftext=st.sampled_from(UQ_F_POOL), max_depth=st.integers(0, 12))
@example(base=((Fraction(-7, 2), 0, 1), 1, 2), ftext="x+y", max_depth=12)
@example(base=((-1, -1, -1, 1), Fraction(7, 4), 2), ftext="x+y", max_depth=12)
def test_the_point_test_decides_as_fraction_enclosures_do(base, ftext, max_depth):
    """certify_uq_arith ends as it does with the point test's enclosures
    taken through FieldElement.enclosure: the same certificate, or the same
    reasons, PointRefuted bounds included."""
    f = parse(ftext)
    got = _uq_outcome(certify_uq_arith, AlgebraicReal(*base), f, max_depth)
    with mock.patch.object(certifier, "_PointTest", _EnclosureOraclePointTest):
        want = _uq_outcome(certify_uq_arith, AlgebraicReal(*base), f, max_depth)
    assert got == want
