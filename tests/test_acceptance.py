"""Acceptance suite: one test per criterion, each printing a PASS line with
its timing.  Tolerances are pinned here exactly as stated; runtime limits are
asserted with a wall clock.

Criterion 5 note: the rectangle [8/27,1/3] x [2/3,7/9] with margins 1/9 and
1/27 is addressed by the words (1,2,2) x (2,1) under the library's cylinder
addressing (first digit = rank-1 piece), which is the convention all locate
and auto-certify paths use.
"""

import json
import math
import random
import time
from fractions import Fraction

from expansion_count import count_expansions_bruteforce
from fractarith.certifier import (Certificate, auto_certify, certify_rectangle,
                                  replay)
from fractarith.empirics import (box_dim_estimate, ifs_box_counts, image_cover,
                                 oracle_check, uq_product_counts)
from fractarith.exactnum import Interval, IntervalUnion
from fractarith.exprfn import grad_enclosure, parse
from fractarith.ifs_core import Code, cantor
from fractarith.qexp import (DigitSeq, certify_uq_arith, is_univoque_seq, kq_ifs,
                             pi_q, qstar, quasi_greedy_one, verify_kq_in_uq)

C = cantor()
Q19 = Fraction(19, 10)

_ISSUED: list[Certificate] = []


def _timed(limit_s):
    start = time.monotonic()

    def done(label):
        elapsed = time.monotonic() - start
        assert elapsed < limit_s, f"{label}: {elapsed:.2f}s exceeds {limit_s}s"
        print(f"PASS {label} ({elapsed:.2f}s)")

    return done


def test_criterion_01_cantor_sumset():
    done = _timed(1.0)
    cert = certify_rectangle(C, C, parse("x+y"), (), ())
    assert cert.certified_interval == Interval(Fraction(0), Fraction(2))
    assert cert.m_row == Fraction(0)
    assert cert.m_gap == Fraction(2, 3)
    _ISSUED.append(cert)
    done("criterion 1: C+C = [0,2], margins 0 and 2/3")


def test_criterion_02_cantor_difference():
    done = _timed(1.0)
    cert = certify_rectangle(C, C, parse("x-y"), (), ())
    assert cert.certified_interval == Interval(Fraction(-1), Fraction(1))
    assert cert.sign_case.sy == -1  # via sign-case reduction
    _ISSUED.append(cert)
    done("criterion 2: C-C = [-1,1] via sign-case reduction")


def test_criterion_03_cantor_quotient():
    done = _timed(10.0)
    f = parse("x/y")
    cert = auto_certify(C, C, f, (Code.parse("21(1)"), Code.parse("(2)")), 8)
    lo, hi = cert.certified_interval.lo, cert.certified_interval.hi
    assert Fraction(2, 3) <= lo and hi <= Fraction(3, 2)
    _ISSUED.append(cert)

    window = Interval(Fraction(2, 3), Fraction(1))
    blocks = IntervalUnion.from_intervals(
        [(Fraction(2, 3) * Fraction(3) ** n, Fraction(3, 2) * Fraction(3) ** n)
         for n in range(-9, 2)])
    ge = grad_enclosure(f, (Interval(Fraction(0), Fraction(1)), window))
    prev = None
    for depth in (4, 5, 6):
        cover = image_cover(C, C, f, depth, y_window=window)
        radius = Fraction(1, 3) ** depth * (
            ge.dx.abs().hi + ge.dy.abs().hi * Fraction(1, 3))
        assert cover.is_subset(blocks.inflate(radius))
        if prev is not None:
            assert cover.is_subset(prev)
        prev = cover
    assert prev.contains_interval(cert.certified_interval)
    done("criterion 3: C/C certificate in [2/3,3/2]; covers shrink onto the blocks")


def test_criterion_04_beyond_newhouse():
    done = _timed(1.0)
    tau = C.gap_profile().thickness_lb
    assert tau == Fraction(1)
    assert not tau * tau > 1  # Newhouse inapplicable
    cert = certify_rectangle(C, C, parse("x+y"), (), ())
    assert cert.certified_interval == Interval(Fraction(0), Fraction(2))
    done("criterion 4: tau(C)^2 = 1, yet the sumset certificate is issued")


def test_criterion_05_product_subinterval():
    done = _timed(30.0)
    cert = certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1))
    assert cert.certified_interval == Interval(Fraction(16, 81), Fraction(7, 27))
    assert cert.m_row == Fraction(1, 9)
    assert cert.m_gap == Fraction(1, 27)
    assert oracle_check(cert, 10)
    _ISSUED.append(cert)
    done("criterion 5: [16/81,7/27] inside C*C, margins 1/9 and 1/27, oracle depth 10")


def test_criterion_06_qstar_and_eta():
    done = _timed(5.0)
    star = qstar()
    assert star.poly == (1, -2, -1, 1)
    assert Fraction(180, 100) <= star.lo and star.hi <= Fraction(181, 100)
    eta = quasi_greedy_one(star)
    assert eta == DigitSeq.parse("11(01)")
    done("criterion 6: q* isolated in [1.80,1.81]; eta(q*) = 11(01)^inf exactly")


def test_criterion_07_kq_embedding_pipeline():
    done = _timed(5.0)
    assert verify_kq_in_uq(Q19) == "yes"
    k = kq_ifs(Q19)
    hull = k.convex_hull()
    assert (hull.lo, hull.hi) == (Fraction(100, 261), Fraction(190, 261))
    assert hull.lo == 1 / (Q19 ** 2 - 1) and hull.hi == Q19 / (Q19 ** 2 - 1)
    prof = k.gap_profile()
    assert prof.kappa / hull.width() == 1 - 2 * k.ratio == Fraction(161, 361)
    done("criterion 7: K_19/10 inside U_q; hull [100/261,190/261]; kappa/(b-a)=161/361")


def test_criterion_08_uq_arithmetic():
    done = _timed(60.0)
    for ftext in ("x*y", "x/y", "x^2+y^2", "x^2-y^2"):
        cert = certify_uq_arith(Q19, parse(ftext))
        assert cert.certified_interval.lo < cert.certified_interval.hi
        again = Certificate.from_json(cert.to_json())
        assert replay(again)
        assert oracle_check(cert, 8)
        _ISSUED.append(cert)
    done("criterion 8: four U_q arithmetic certificates, replayed and oracle-checked")


def test_criterion_09_univoque_vs_bruteforce():
    done = _timed(60.0)
    rng = random.Random(0xC0FFEE)
    checked = 0
    disagreements = 0
    while checked < 200:
        q = Fraction(rng.randint(101, 199), 100)
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        seq = DigitSeq(pre, per)
        verdict = is_univoque_seq(seq, q)
        if verdict == "unknown":
            continue
        count = count_expansions_bruteforce(pi_q(seq, q), q, 30, cap=8)
        if (verdict == "yes") != (count == 1):
            disagreements += 1
        checked += 1
    assert disagreements == 0
    done("criterion 9: lexicographic criterion vs brute force, 200 pairs, 0 disagreements")


def test_criterion_10_dimension_probes():
    done = _timed(60.0)
    est = box_dim_estimate(ifs_box_counts(C, range(4, 11)), C.ratio)
    assert abs(est.slope - math.log(2) / math.log(3)) < 0.02

    k = kq_ifs(Q19)
    est2 = box_dim_estimate(ifs_box_counts(k, range(4, 11)), k.ratio)
    assert abs(est2.slope - math.log(2) / (2 * math.log(19 / 10))) < 0.03

    # trend table over a q-grid, emitted for inspection, no asserted tolerance
    print("\n  U_q*U_q box-count trend (rank, count; slope):")
    for q in (Fraction(17, 10), Fraction(18, 10), Fraction(19, 10)):
        counts = uq_product_counts(q, parse("x*y"), range(2, 6))
        trend = box_dim_estimate(counts, 1 / q)
        print(f"  q={q}: counts={counts} slope={trend.slope:.3f} "
              f"residual={trend.residual:.3f}")
    done("criterion 10: Cantor slope within 0.02, K_q slope within 0.03, trend emitted")


def _issued_certificates() -> list[Certificate]:
    if not _ISSUED:  # regenerate when this test runs in isolation
        _ISSUED.append(certify_rectangle(C, C, parse("x+y"), (), ()))
        _ISSUED.append(certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1)))
        _ISSUED.append(certify_uq_arith(Q19, parse("x*y")))
    return _ISSUED


def test_criterion_11_certificate_integrity():
    done = _timed(30.0)
    for cert in _issued_certificates():
        again = Certificate.from_json(cert.to_json())
        assert replay(again)
        obj = json.loads(cert.to_json())
        # single-field tampers all flip replay to false
        lo, hi = obj["certified_interval"]
        widened = dict(obj, certified_interval=[lo, str(Fraction(hi) + Fraction(1, 10 ** 12))])
        assert not replay(Certificate.from_obj(widened))
        flipped = dict(obj, m_gap=str(-Fraction(obj["m_gap"]) - 1))
        assert not replay(Certificate.from_obj(flipped))
    done(f"criterion 11: {len(_ISSUED)} certificates round-trip; tampers detected")
