"""Tests for the certification core: pointwise reports, sign cases,
rectangle certificates, replay."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarith.certifier import (Certificate, auto_certify, certify_rectangle,
                                  check_global_condition, check_pointwise,
                                  condition_bounds, replay,
                                  replay_explain, sign_case_of, SignCase)
from fractarith.empirics import oracle_check
from fractarith.errors import (CertificationFailure, DomainError, ExhaustedDepth,
                               FractarithError, MarginNegative, SignIndefinite)
from fractarith.exactnum import AlgebraicReal, FieldElement, Interval
from fractarith.exprfn import eval_point, grad_enclosure, parse
from fractarith.ifs_core import Code, HomogeneousIfs, cantor

C = cantor()
HALF = HomogeneousIfs(Fraction(1, 2), (Fraction(0), Fraction(1, 2)))
SPARSE = HomogeneousIfs(Fraction(1, 5), (Fraction(0), Fraction(4, 5)))
KQ = HomogeneousIfs(Fraction(100, 361), (Fraction(100, 361), Fraction(10, 19)))


def iv(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


# ---------------------------------------------------------------------------
# pointwise condition
# ---------------------------------------------------------------------------

def test_condition_bounds_cantor():
    lower, upper = condition_bounds(C, C)
    assert lower == Fraction(1, 3) and upper == 1


def test_check_pointwise_cantor_sum_is_no():
    rep = check_pointwise(C, C, parse("x+y"), (Fraction(0), Fraction(0)), 4)
    assert rep.ratio_enclosure == iv(1, 1)
    assert (rep.lower_bound, rep.upper_bound) == (Fraction(1, 3), 1)
    assert rep.holds == "no"  # 1 is not strictly below 1


def test_check_pointwise_kq_product_is_yes():
    a, b = Fraction(100, 261), Fraction(190, 261)
    rep = check_pointwise(KQ, KQ, parse("x*y"), (a, b), 4)
    assert rep.lower_bound == Fraction(161, 361)
    assert rep.upper_bound == Fraction(100, 161)
    assert rep.ratio_enclosure.lo == Fraction(10, 19)
    assert rep.holds == "yes"


def test_check_pointwise_gapless_is_vacuously_yes():
    rep = check_pointwise(HALF, HALF, parse("x+y"), (Fraction(0), Fraction(0)), 3)
    assert rep.lower_bound == 0
    assert rep.upper_bound == math.inf
    assert rep.holds == "yes"


def test_check_pointwise_undecided_when_straddling():
    # x*y on the deep corner rectangle: ratio enclosure tightens toward 1,
    # straddling the upper bound 1 for the Cantor pair
    rep = check_pointwise(C, C, parse("x*y"), (Fraction(1), Fraction(1)), 4)
    assert rep.holds in ("no", "undecided")
    rep2 = check_pointwise(C, C, parse("x*y"), (Fraction(2, 3), Fraction(1)), 5)
    assert rep2.holds == "yes"


def test_check_global_condition_examples():
    rep = check_global_condition(C, C)
    assert not rep.holds  # 1/3 > 1/3 fails: the strict form just misses Cantor
    assert rep.lambda_b_minus_a == Fraction(1, 3) and rep.kappa2 == Fraction(1, 3)
    rep2 = check_global_condition(KQ, KQ)
    assert not rep2.holds
    assert rep2.lambda_b_minus_a == Fraction(1000, 10469)
    assert rep2.kappa2 == Fraction(14490, 94221)
    assert check_global_condition(HALF, HALF).holds


# ---------------------------------------------------------------------------
# sign cases
# ---------------------------------------------------------------------------

def test_sign_case_of_requires_definite_signs():
    g = grad_enclosure(parse("x*y"), (iv(0, 1), iv(0, 1)))
    with pytest.raises(SignIndefinite):
        sign_case_of(g)
    g2 = grad_enclosure(parse("x-y"), (iv(0, 1), iv(0, 1)))
    assert sign_case_of(g2) == SignCase(1, -1)


# ---------------------------------------------------------------------------
# rectangle certification
# ---------------------------------------------------------------------------

def test_certify_cantor_sum():
    cert = certify_rectangle(C, C, parse("x+y"), (), ())
    assert cert.certified_interval == iv(0, 2)
    assert cert.m_row == 0 and cert.m_gap == Fraction(2, 3)
    assert cert.sign_case == SignCase(1, 1)
    assert replay(cert)


def test_certify_cantor_difference():
    cert = certify_rectangle(C, C, parse("x-y"), (), ())
    assert cert.certified_interval == iv(-1, 1)
    assert cert.sign_case == SignCase(1, -1)
    assert replay(cert)


def test_certify_cantor_product_subinterval():
    cert = certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1))
    assert cert.certified_interval == iv(Fraction(16, 81), Fraction(7, 27))
    assert cert.m_row == Fraction(1, 9)
    assert cert.m_gap == Fraction(1, 27)
    assert replay(cert)


def test_certify_negated_sum_maps_back():
    cert = certify_rectangle(C, C, parse("-x-y"), (), ())
    assert cert.certified_interval == iv(-2, 0)
    assert cert.sign_case == SignCase(-1, -1)
    assert replay(cert)


def test_certified_endpoints_are_corner_values():
    cert = certify_rectangle(C, C, parse("x-y"), (2,), (1,))
    rect1 = C.basic_interval((2,))
    rect2 = C.basic_interval((1,))
    # increasing in x, decreasing in y: extremes at (lo,hi) and (hi,lo)
    assert cert.certified_interval.lo == rect1.lo - rect2.hi
    assert cert.certified_interval.hi == rect1.hi - rect2.lo


def test_certify_sign_indefinite():
    with pytest.raises(SignIndefinite):
        certify_rectangle(C, C, parse("x*y"), (), ())


def test_mismatched_ratios_rejected():
    fifth = HomogeneousIfs(Fraction(1, 5), (Fraction(0), Fraction(4, 5)))
    with pytest.raises(FractarithError):
        certify_rectangle(C, fifth, parse("x+y"), (), ())
    with pytest.raises(FractarithError):
        check_pointwise(C, fifth, parse("x+y"), (Fraction(0), Fraction(0)), 2)


def test_three_map_ifs_certifies_sum():
    # three pieces of length 1/5 with two gaps of 1/5: bridges equal gaps,
    # so the sum chains exactly like the Cantor case
    k = HomogeneousIfs(Fraction(1, 5), (Fraction(0), Fraction(2, 5), Fraction(4, 5)))
    assert k.gap_profile().kappa == Fraction(1, 5)
    cert = certify_rectangle(k, k, parse("x+y"), (), ())
    assert cert.certified_interval == iv(0, 2)
    assert cert.m_row == 0
    assert replay(cert)
    assert oracle_check(cert, 5)


def test_certify_domain_error():
    with pytest.raises(DomainError):
        certify_rectangle(C, C, parse("x/y"), (), ())


def test_certify_margin_negative_named_exactly():
    with pytest.raises(MarginNegative) as exc:
        certify_rectangle(SPARSE, SPARSE, parse("x+y"), (), ())
    assert exc.value.name == "m_row"
    assert exc.value.margin == Fraction(1, 5) - Fraction(3, 5)


def test_certify_seam_failure_for_unequal_ranks():
    # margins pass globally, but the equalized starting grid has a gap:
    # x in [0,1] cannot bridge the jump into y's deep right cylinder
    with pytest.raises(MarginNegative) as exc:
        certify_rectangle(C, C, parse("x+y"), (), (2, 2))
    assert exc.value.name == "initial-rank seam"


def test_certify_unequal_ranks_success():
    cert = certify_rectangle(C, C, parse("x+y"), (), (2,))
    assert cert.certified_interval == iv(Fraction(2, 3), 2)
    assert replay(cert)
    assert oracle_check(cert, 8)


def test_transposed_orientation_certifies():
    # steep f: within-row chaining fails for k1 blocks but the transpose holds
    cert = certify_rectangle(KQ, KQ, parse("x^2+y^2"), (1, 1), (2, 2))
    assert cert.orientation == "k2-blocks"
    assert replay(cert)


def test_margins_monotone_under_subdivision():
    f = parse("x*y")
    parent = certify_rectangle(C, C, f, (1, 2, 2), (2, 1))
    for d1 in (1, 2):
        for d2 in (1, 2):
            child = certify_rectangle(C, C, f, (1, 2, 2, d1), (2, 1, d2))
            assert not (child.m_row < parent.m_row)
            assert not (child.m_gap < parent.m_gap)


def test_margins_scale_free_for_affine():
    f = parse("x+y")
    parent = certify_rectangle(C, C, f, (2,), (2,))
    child = certify_rectangle(C, C, f, (2, 1), (2, 2))
    # scale-free margins are constant for affine f, so the rank-scaled
    # margins lambda^k * m shrink by exactly lambda per extra rank
    assert child.m_row == parent.m_row and child.m_gap == parent.m_gap
    lam = C.ratio
    assert lam ** 2 * child.m_gap == lam * (lam * parent.m_gap)


def test_sign_case_round_trip_matches_direct_negation():
    plus = certify_rectangle(C, C, parse("x+y"), (2,), (1,))
    minus = certify_rectangle(C, C, parse("-x-y"), (2,), (1,))
    assert minus.certified_interval.lo == -plus.certified_interval.hi
    assert minus.certified_interval.hi == -plus.certified_interval.lo


def test_auto_certify_quotient():
    cert = auto_certify(C, C, parse("x/y"),
                        (Code.parse("21(1)"), Code.parse("(2)")), 8)
    assert len(cert.word1) <= 3
    assert not (cert.certified_interval.lo < Fraction(2, 3))
    assert not (Fraction(3, 2) < cert.certified_interval.hi)
    assert replay(cert)


def test_auto_certify_exhausts_on_sparse_sum():
    with pytest.raises(ExhaustedDepth) as exc:
        auto_certify(SPARSE, SPARSE, parse("x+y"),
                     (Code.parse("(1)"), Code.parse("(2)")), 5)
    assert len(exc.value.reasons) == 6  # depths 0..5 all reported


def test_auto_certify_descends_past_algebraic_hull_at_zero():
    # the hull of this IFS starts at 0/(1 - 1/sqrt5), a zero field element;
    # x^(1/2) on the rank-0 cylinder is a DomainError, and the descent must
    # go on to rank 1 rather than stop there
    inv_sqrt5 = 1 / FieldElement.generator(AlgebraicReal((-5, 0, 1), 2, 3))
    k = HomogeneousIfs(inv_sqrt5, (Fraction(0), Fraction(1, 2)))
    cert = auto_certify(k, k, parse("x^(1/2)+y"),
                        (Code.parse("(2)"), Code.parse("(2)")), 4)
    assert (cert.word1, cert.word2) == ((2,), (2,))
    assert replay_explain(cert) == (True, None)


def test_auto_certify_first_success_is_deterministic():
    point = (Code.parse("21(1)"), Code.parse("(2)"))
    a = auto_certify(C, C, parse("x/y"), point, 8)
    b = auto_certify(C, C, parse("x/y"), point, 8)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# certificates: serialization, replay, tampering
# ---------------------------------------------------------------------------

def test_certificate_json_round_trip():
    cert = certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1))
    again = Certificate.from_json(cert.to_json())
    assert again.to_json() == cert.to_json()
    assert replay(again)


def test_certificate_deterministic_serialization():
    a = certify_rectangle(C, C, parse("x+y"), (), ()).to_json()
    b = certify_rectangle(C, C, parse("x+y"), (), ()).to_json()
    assert a == b


def test_replay_rejects_widened_interval():
    cert = certify_rectangle(C, C, parse("x+y"), (), ())
    bad = dataclasses.replace(
        cert, certified_interval=Interval(cert.certified_interval.lo - Fraction(1, 10 ** 9),
                                          cert.certified_interval.hi))
    ok, field = replay_explain(bad)
    assert not ok and field == "certified_interval"


def test_replay_rejects_tampered_margin():
    cert = certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1))
    bad = dataclasses.replace(cert, m_gap=-cert.m_gap)
    ok, field = replay_explain(bad)
    assert not ok and field == "m_gap"


def test_replay_rejects_every_single_field_tamper():
    cert = certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1))
    obj = cert.to_obj()
    tampers = {
        "f": "x+y",
        "word1": [1, 2, 1],
        "word2": [2, 2],
        "sign_case": "+-",
        "orientation": "k2-blocks",
        "m_row": "1/8",
        "m_gap": "-1/27",
        "certified_interval": ["16/81", "8/27"],
        "ifs2": {"ratio": "1/4", "translations": ["0", "3/4"]},
        "grad": {**obj["grad"], "dx": ["1/3", "7/9"]},
    }
    for field, value in tampers.items():
        mutated = json.loads(json.dumps(obj))
        mutated[field] = value
        assert not replay(Certificate.from_obj(mutated)), field


# ---------------------------------------------------------------------------
# soundness against the brute-force oracle
# ---------------------------------------------------------------------------

def test_certificates_contained_in_brute_force_covers():
    certs = [
        certify_rectangle(C, C, parse("x+y"), (), ()),
        certify_rectangle(C, C, parse("x-y"), (), ()),
        certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1)),
        certify_rectangle(KQ, KQ, parse("x*y"), (1, 1), (2, 2)),
    ]
    for cert in certs:
        for depth in (4, 6, 8):
            depth = max(depth, len(cert.word1), len(cert.word2))
            assert oracle_check(cert, depth)


def test_random_certificates_sound():
    rng = random.Random(88)
    issued = 0
    while issued < 12:
        lam = Fraction(1, rng.randint(3, 6))
        t2 = Fraction(rng.randint(2, 5), rng.randint(5, 9))
        try:
            k = HomogeneousIfs(lam, (Fraction(0), t2))
        except Exception:
            continue
        f = parse(rng.choice(("x+y", "x-y", "2*x+y", "x+3*y")))
        w = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 2)))
        try:
            cert = certify_rectangle(k, k, f, w, w)
        except (MarginNegative, SignIndefinite, DomainError):
            continue
        assert replay(cert)
        assert oracle_check(cert, max(6, len(w)))
        issued += 1


# every sign case, with and without fractional powers
SIGN_MIXED = ["x+y", "x-y", "y-x", "-x-y", "2*x-y", "x*y", "-x*y", "x/y", "y/x",
              "x^(-1)+y", "x^2+y^2", "x^(1/2)-y", "y^(1/3)-x^2", "-x^(1/2)-y^(1/2)"]


@st.composite
def rectangle_problems(draw):
    """Two rational systems sharing the ratio 1/m, with digit sets drawn
    from 0..m-1 and shifted to the right of 0, f from SIGN_MIXED, and words
    of equal or unequal rank."""
    m = draw(st.integers(2, 5))
    lam = Fraction(1, m)

    def ifs():
        digits = sorted(draw(st.sets(st.integers(0, m - 1), min_size=2, max_size=4)))
        offset = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
        return HomogeneousIfs(lam, [Fraction(d, m) + offset * (1 - lam) for d in digits])

    def word(k):
        return tuple(draw(st.lists(st.integers(1, k.n), max_size=2)))

    k1, k2 = ifs(), ifs()
    return k1, k2, parse(draw(st.sampled_from(SIGN_MIXED))), word(k1), word(k2)


@settings(max_examples=150, deadline=None)
@given(rectangle_problems())
def test_issued_certificates_pass_the_oracle_and_replay_from_json(problem):
    k1, k2, f, w1, w2 = problem
    try:
        cert = certify_rectangle(k1, k2, f, w1, w2)
    except (CertificationFailure, DomainError):
        return
    assert oracle_check(cert, max(len(w1), len(w2)) + 2)
    again = Certificate.from_json(cert.to_json())
    assert again.to_json() == cert.to_json()
    assert replay(again)
    # the endpoints lie between the corner values, and equal the smallest
    # and largest of them when f has no fractional power
    r1, r2 = cert.grad.rect
    corners = [eval_point(f, x, y) for x in (r1.lo, r1.hi) for y in (r2.lo, r2.hi)]
    low, high = min(c.lo for c in corners), max(c.hi for c in corners)
    assert not (cert.certified_interval.lo < low or high < cert.certified_interval.hi)
    if all(c.lo == c.hi for c in corners):
        assert cert.certified_interval == Interval(low, high)
