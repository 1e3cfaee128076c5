"""Tests for the certification core: pointwise reports, sign cases,
rectangle certificates, replay."""

import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_certify
import fraction_cylinders
from fractarith import certifier
from fractarith.certifier import (Certificate, _margins, _scalar, _terms, auto_certify,
                                  certify_rectangle,
                                  check_global_condition, check_pointwise,
                                  condition_bounds, replay,
                                  replay_explain, sign_case_of, SignCase)
from fractarith.empirics import oracle_check
from fractarith.errors import (CertificationFailure, DomainError, ExhaustedDepth,
                               FractarithError, InvalidDigit, MarginNegative,
                               SignIndefinite)
from fractarith.exactnum import AlgebraicReal, FieldElement, Interval
from fractarith.exprfn import eval_point, grad_enclosure, parse
from fractarith.ifs_core import Code, CodeWalk, HomogeneousIfs, cantor
from fractarith.qexp import CORNERS, kq_ifs

C = cantor()
HALF = HomogeneousIfs(Fraction(1, 2), (Fraction(0), Fraction(1, 2)))
SPARSE = HomogeneousIfs(Fraction(1, 5), (Fraction(0), Fraction(4, 5)))
KQ = HomogeneousIfs(Fraction(100, 361), (Fraction(100, 361), Fraction(10, 19)))


def iv(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


def tampered(cert, **changes):
    """The certificate with some fields changed, built by the constructor."""
    fields = ("ifs1", "ifs2", "f", "word1", "word2", "sign_case", "grad", "orientation",
              "m_row", "m_gap", "certified_interval")
    return Certificate(**{name: changes.get(name, getattr(cert, name)) for name in fields})


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


@st.composite
def shared_ratio_pairs(draw):
    """Two rational systems with one ratio and 2 to 4 free translations
    each, so that gapped, touching and overlapping pieces all occur."""
    lam = draw(st.fractions(Fraction(1, 20), Fraction(19, 20), max_denominator=20))

    def ifs():
        ts = draw(st.lists(st.fractions(0, 2, max_denominator=12),
                           min_size=2, max_size=4, unique=True))
        return HomogeneousIfs(lam, sorted(ts))

    return ifs(), ifs()


positive_sizes = st.fractions(Fraction(1, 50), 50, max_denominator=50)


@settings(max_examples=200, deadline=None)
@given(shared_ratio_pairs(), positive_sizes, positive_sizes)
def test_margins_bounds_and_global_condition_agree(pair, a, b):
    # a and b stand for |df/dx| and |df/dy| on a rectangle
    k1, k2 = pair
    lower, upper = condition_bounds(k1, k2)

    def k1_blocks(a, b):  # the margins at the point sizes a and b, as Fractions
        point = (a.numerator, a.numerator, a.denominator)
        other = (b.numerator, b.numerator, b.denominator)
        return map(_scalar, _margins(*_terms(k1, k2), point, other)["k1-blocks"])

    m_row, m_gap = k1_blocks(a, b)
    assert (m_row >= 0) == (upper == math.inf or b / a <= upper)
    assert (m_gap >= 0) == (b / a >= lower)
    m_row1, m_gap1 = k1_blocks(Fraction(1), Fraction(1))
    assert check_global_condition(k1, k2).holds == (m_row1 > 0 and m_gap1 > 0)


@st.composite
def rational_systems(draw):
    """A rational system of ratio a/b, a up to 5, and translations of both
    signs.  Free translations give overlapping, gapless and gapped pieces;
    otherwise n pieces of width p are spaced by drawn gaps g_i >= 0, so
    that a gap of 0 makes two pieces touch.  The piece width is then
    p = (a/b)*((n-1)*p + G)/(1 - a/b) for G the sum of the gaps, that is
    p = a*G/(b - n*a), which needs b > n*a."""
    a = draw(st.integers(1, 5))
    if draw(st.booleans()):
        lam = Fraction(a, draw(st.integers(a + 1, 13)))
        ts = draw(st.lists(st.fractions(-3, 3, max_denominator=12),
                           min_size=2, max_size=5, unique=True))
        return HomogeneousIfs(lam, sorted(ts))
    n = draw(st.integers(2, 5))
    b = draw(st.integers(n * a + 1, n * a + 12))
    gaps = draw(st.lists(st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1, 2]),
                         min_size=n - 1, max_size=n - 1).filter(any))
    piece = Fraction(a * sum(gaps), b - n * a)
    ts = [draw(st.fractions(-2, 2, max_denominator=6))]
    for gap in gaps:
        ts.append(ts[-1] + piece + gap)
    ifs = HomogeneousIfs(Fraction(a, b), ts)
    assert ifs.gap_profile().gap_set == tuple((i, g) for i, g in enumerate(gaps, 1) if g)
    return HomogeneousIfs(ifs.ratio, ifs.translations)


@settings(max_examples=300, deadline=None)
@given(rational_systems(), rational_systems())
def test_integer_terms_are_the_gap_profile(k1, k2):
    """The margins' terms of rational systems come from the integer walk's
    steps, which equal their Fraction derivation, and no GapProfile or hull
    is built for them."""
    terms = _terms(k1, k2)
    for k, t in zip((k1, k2), terms):
        assert k._gaps is None and k._hull is None and k._steps is None
        assert k._integer_steps() == fraction_cylinders.integer_steps(k)
        p = k.gap_profile()
        assert tuple(Fraction(n, d) for n, d in t) == (p.piece, p.width, p.kappa)


def test_a_loaded_rational_certificate_replays_without_fraction_geometry():
    cert = auto_certify(C, C, parse("x*y^2"), (Code.parse("(12)"), Code.parse("(21)")), 12)
    text = cert.to_json()
    loaded = Certificate.from_json(text)
    assert replay(loaded)
    again = auto_certify(loaded.ifs1, loaded.ifs2, loaded.f,
                         (Code.parse("(12)"), Code.parse("(21)")), 12)
    assert again.to_json() == text
    for k in (loaded.ifs1, loaded.ifs2):
        assert k._gaps is None and k._hull is None and k._steps is None


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


def test_auto_certify_reads_code_digits_lazily():
    # rank 0 certifies, so the descent must stop before reading any digit
    # of the endless codes, however deep max_depth allows
    point = (Code.parse("(1)"), Code.parse("(2)"))
    reads = []
    real_digits = Code.digits

    def counted(code):
        for d in real_digits(code):
            reads.append(d)
            if len(reads) > 100:
                raise AssertionError("the descent read the codes eagerly")
            yield d

    with mock.patch.object(Code, "digits", counted):
        cert = auto_certify(C, C, parse("x+y"), point, 10 ** 9)
    assert (cert.word1, cert.word2) == ((), ()) and reads == []
    cert = auto_certify(C, C, parse("x+y"), point, 10 ** 9)
    assert (cert.word1, cert.word2) == ((), ())
    assert cert.certified_interval == iv(0, 2)


def test_auto_certify_descends_along_shared_walks():
    code1, code2 = Code.parse("(12)"), Code.parse("(21)")
    walk1 = CodeWalk(C, code1)
    f = parse("x*y^2")
    cert = auto_certify(C, C, f, (walk1, code2), 5)
    assert cert == auto_certify(C, C, f, (code1, code2), 5)
    assert len(walk1._kept) == len(cert.word1) + 1
    # a second descent along the walk reads the kept steps
    again = auto_certify(C, C, f, (walk1, CodeWalk(C, code2)), 5)
    assert again.word1 is cert.word1 and again.grad.rect[0] is cert.grad.rect[0]
    with pytest.raises(FractarithError, match="through the system"):
        auto_certify(C, C, f, (CodeWalk(cantor(), code1), code2), 5)



# ---------------------------------------------------------------------------
# the descent on integer triples against the Fraction judge it replaced
# ---------------------------------------------------------------------------

# every f of the certify-rational benchmark's pool
POOL_FUNCTIONS = ["x+y", "x-y", "x*y", "x/y", "2*x+3*y", "x^2+y^2", "x^2-y^2", "x*y^2",
                  "x^3+y", "(x+y)^2", "x*y-x", "x/(y+1)", "x^(-1)+y", "x^(1/2)+y^(1/2)",
                  "x^(1/3)*y", "x^(3/2)-y^(1/2)"]


@st.composite
def rational_pairs(draw):
    """Two rational systems sharing a ratio a/b, a > 1 too, with 2 to 4
    translations each, negative and non-dyadic ones among them."""
    b = draw(st.integers(2, 12))
    lam = Fraction(draw(st.integers(1, b - 1)), b)

    def ifs():
        ts = draw(st.lists(st.fractions(-3, 3, max_denominator=15),
                           min_size=2, max_size=4, unique=True))
        return HomogeneousIfs(lam, sorted(ts))

    return ifs(), ifs()


def codes(n: int):
    digits = st.integers(1, n)
    return st.builds(lambda pre, per: Code(tuple(pre), tuple(per)),
                     st.lists(digits, max_size=3), st.lists(digits, min_size=1, max_size=3))


def outcome(run):
    """The certificate and its bytes, or the type and message raised."""
    try:
        cert = run()
    except FractarithError as exc:
        return type(exc), str(exc)
    return cert, cert.to_json()


@settings(max_examples=150, deadline=None)
@given(rational_pairs(), st.sampled_from(POOL_FUNCTIONS), st.integers(0, 8), st.data())
def test_integer_descent_matches_the_fraction_judge(pair, text, depth, data):
    k1, k2 = pair
    f = parse(text)
    point = (data.draw(codes(k1.n)), data.draw(codes(k2.n)))
    assert outcome(lambda: auto_certify(k1, k2, f, point, depth)) \
        == outcome(lambda: fraction_certify.auto_certify(k1, k2, f, point, depth))
    # walk rectangles are the basic intervals at every rank
    for ifs, code in zip(pair, point):
        steps = zip(range(depth + 1), CodeWalk(ifs, code), fraction_certify.code_walk(ifs, code))
        for _, (word, iv), (old_word, old_iv) in steps:
            assert word == old_word and iv == old_iv == ifs.basic_interval(word)
    # unequal ranks too, with the seam check
    word1 = tuple(data.draw(st.lists(st.integers(1, k1.n), max_size=3)))
    word2 = tuple(data.draw(st.lists(st.integers(1, k2.n), max_size=3)))
    assert outcome(lambda: certify_rectangle(k1, k2, f, word1, word2)) \
        == outcome(lambda: fraction_certify.certify_rectangle(k1, k2, f, word1, word2))

def test_auto_certify_checks_codes_and_ratios_once_before_descending():
    with mock.patch.object(certifier, "_certify",
                           side_effect=AssertionError("descended")):
        with pytest.raises(InvalidDigit):  # digit 3 sits deep in the period
            auto_certify(C, C, parse("x+y"), (Code.parse("(1)"), Code.parse("2(1113)")), 5)
        with pytest.raises(FractarithError, match="share one contraction ratio"):
            auto_certify(C, HALF, parse("x+y"), (Code.parse("(1)"), Code.parse("(2)")), 5)
    checks = []
    real_check = certifier.require_shared_ratio
    with mock.patch.object(certifier, "require_shared_ratio",
                           side_effect=lambda k1, k2: checks.append(1) or real_check(k1, k2)):
        with pytest.raises(ExhaustedDepth):
            auto_certify(SPARSE, SPARSE, parse("x+y"),
                         (Code.parse("(1)"), Code.parse("(2)")), 5)
    assert len(checks) == 1


def old_descent(k1, k2, f, point, max_depth):
    """The descent auto_certify replaced: certify_rectangle, which builds
    each rectangle from the hull, on each pair of prefixes in turn."""
    reasons = []
    for k in range(max_depth + 1):
        try:
            return certify_rectangle(k1, k2, f, point[0].prefix(k), point[1].prefix(k))
        except (CertificationFailure, DomainError) as exc:
            reasons.append((k, f"{type(exc).__name__}: {exc}"))
    raise ExhaustedDepth(reasons)


def descent_outcome(descend, build, f, point, max_depth):
    """What one descent over freshly built systems gives: the certificate's
    to_obj, or its fields when an irrational margin has no JSON form, or the
    ExhaustedDepth reasons.  Fresh systems give each descent its own
    generator, since an enclosure depends on how far earlier comparisons
    refined it."""
    k1, k2 = build()
    try:
        cert = descend(k1, k2, f, point, max_depth)
    except ExhaustedDepth as exc:
        return "exhausted", exc.reasons
    try:
        return "certified", cert.to_obj()
    except FractarithError:
        return "certified", repr((cert.word1, cert.word2, cert.sign_case, cert.grad,
                                  cert.orientation, cert.m_row, cert.m_gap,
                                  cert.certified_interval))


@st.composite
def codes(draw, n):
    digits = st.integers(1, n)
    return Code(tuple(draw(st.lists(digits, max_size=3))),
                tuple(draw(st.lists(digits, min_size=1, max_size=3))))


@st.composite
def rational_descents(draw):
    """Two rational systems sharing the ratio 1/m, as in rectangle_problems."""
    m = draw(st.integers(2, 5))
    specs = [(sorted(draw(st.sets(st.integers(0, m - 1), min_size=2, max_size=4))),
              draw(st.sampled_from([Fraction(0), Fraction(1, 2)]))) for _ in range(2)]

    def build():
        lam = Fraction(1, m)
        return tuple(HomogeneousIfs(lam, [Fraction(d, m) + off * (1 - lam) for d in digits])
                     for digits, off in specs)

    point = (draw(codes(len(specs[0][0]))), draw(codes(len(specs[1][0]))))
    return build, parse(draw(st.sampled_from(SIGN_MIXED))), point, draw(st.integers(0, 6))


@st.composite
def kq_descents(draw):
    """K_q twice over sqrt(c), c in (13/4, 4), or the tribonacci base."""
    if draw(st.booleans()):
        den = draw(st.integers(2, 12))
        c = Fraction(draw(st.integers(13 * den // 4 + 1, 4 * den - 1)), den)
        assume(math.isqrt(c.numerator) ** 2 != c.numerator
               or math.isqrt(c.denominator) ** 2 != c.denominator)
        args = ((-c.numerator, 0, c.denominator), 1, 2)
    else:
        args = ((-1, -1, -1, 1), Fraction(7, 4), Fraction(15, 8))

    def build():
        kq = kq_ifs(AlgebraicReal(*args))
        return kq, kq

    f = parse(draw(st.sampled_from(["x*y", "x/y", "x^2+y^2", "x^(1/2)+y^(1/2)"])))
    # the corner anchors of certify_uq_arith, the mixed ones most of all,
    # certify far more often than random codes
    anchors = tuple(CORNERS.values())
    point = draw(st.sampled_from(anchors) | st.sampled_from(anchors[:2])
                 | st.tuples(codes(2), codes(2)))
    return build, f, point, draw(st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_descents(), kq_descents()))
def test_auto_certify_matches_the_prefix_by_prefix_descent(problem):
    build, f, point, max_depth = problem
    assert (descent_outcome(auto_certify, build, f, point, max_depth)
            == descent_outcome(old_descent, build, f, point, max_depth))


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
    bad = tampered(
        cert, certified_interval=Interval(cert.certified_interval.lo - Fraction(1, 10 ** 9),
                                          cert.certified_interval.hi))
    ok, field = replay_explain(bad)
    assert not ok and field == "certified_interval"


def test_replay_rejects_tampered_margin():
    cert = certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1))
    bad = tampered(cert, m_gap=-cert.m_gap)
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
