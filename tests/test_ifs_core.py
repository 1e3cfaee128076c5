"""Tests for homogeneous IFS geometry."""

import json
import math
import os
import random
import sys
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_cylinders
from fractarith.errors import (FractarithError, InvalidDigit, NotInCover,
                               ResourceBudget)
from fractarith.exactnum import (AlgebraicReal, FieldElement, Interval, IntervalUnion,
                                 scalar_to_obj)
from fractarith.ifs_core import Code, CodeWalk, HomogeneousIfs, cantor, get_budget
from fractarith.qexp import kq_ifs

HALF = HomogeneousIfs(Fraction(1, 2), (Fraction(0), Fraction(1, 2)))  # attractor [0,1]
SPARSE = HomogeneousIfs(Fraction(1, 5), (Fraction(0), Fraction(4, 5)))


def merged_cylinders(ifs, k):
    """Union of all rank-k basic intervals, merged."""
    return IntervalUnion.from_intervals((c.lo, c.hi) for c in ifs.cylinders(k))


def test_validation_rejects_bad_ratio_and_duplicates():
    with pytest.raises(FractarithError):
        HomogeneousIfs(Fraction(1), (0, 1))
    with pytest.raises(FractarithError):
        HomogeneousIfs(Fraction(0), (0, 1))
    with pytest.raises(FractarithError):
        HomogeneousIfs(Fraction(1, 3), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(FractarithError):
        HomogeneousIfs(Fraction(1, 3), (Fraction(1, 2),))


def test_convex_hull_examples():
    assert cantor().convex_hull() == Interval(Fraction(0), Fraction(1))
    assert HALF.convex_hull() == Interval(Fraction(0), Fraction(1))
    q = Fraction(19, 10)
    kq = HomogeneousIfs(1 / q ** 2, (1 / q ** 2, 1 / q))
    assert kq.convex_hull() == Interval(1 / (q ** 2 - 1), q / (q ** 2 - 1))
    assert kq.convex_hull() == Interval(Fraction(100, 261), Fraction(190, 261))


def test_hull_endpoints_are_fixed_points():
    for ifs in (cantor(), HALF, SPARSE):
        hull = ifs.convex_hull()
        assert ifs.ratio * hull.lo + ifs.translations[0] == hull.lo
        assert ifs.ratio * hull.hi + ifs.translations[-1] == hull.hi


def test_gap_profile_cantor():
    prof = cantor().gap_profile()
    assert [(i, g) for i, g in prof.gap_set] == [(1, Fraction(1, 3))]
    assert prof.kappa == Fraction(1, 3)


def test_gap_profile_touching():
    prof = HALF.gap_profile()
    assert prof.gap_set == ()
    assert prof.kappa == 0


def test_gap_profile_kq():
    q = Fraction(19, 10)
    kq = HomogeneousIfs(1 / q ** 2, (1 / q ** 2, 1 / q))
    prof = kq.gap_profile()
    assert prof.kappa == Fraction(14490, 94221)
    assert prof.kappa / prof.hull.width() == 1 - 2 / q ** 2 == Fraction(161, 361)


def test_gap_profile_overlapping_maps_contribute_no_gap():
    overlapping = HomogeneousIfs(Fraction(2, 3), (Fraction(0), Fraction(1, 3)))
    assert overlapping.gap_profile().gap_set == ()


def test_partition_identity_gap_only():
    # n*lambda*(b-a) + sum of gaps == b-a when pieces never overlap
    for ifs in (cantor(), HALF, SPARSE):
        prof = ifs.gap_profile()
        width = prof.hull.width()
        assert ifs.n * ifs.ratio * width + sum(g for _, g in prof.gap_set) == width


def test_basic_interval_examples():
    c = cantor()
    assert c.basic_interval((2,)) == Interval(Fraction(2, 3), Fraction(1))
    assert c.basic_interval(()) == c.convex_hull()
    assert c.basic_interval((1, 2, 2)) == Interval(Fraction(8, 27), Fraction(1, 3))
    assert c.basic_interval((2, 1)) == Interval(Fraction(2, 3), Fraction(7, 9))


def test_basic_interval_length_scales():
    c = cantor()
    rng = random.Random(3)
    for _ in range(25):
        w = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 7)))
        iv = c.basic_interval(w)
        assert iv.width() == Fraction(1, 3) ** len(w)


def test_basic_interval_bad_digit():
    with pytest.raises(InvalidDigit):
        cantor().basic_interval((3,))
    with pytest.raises(InvalidDigit):
        next(islice(cantor().cylinder_walk((1, 3)), 2, None))


def reverse_replay(ifs, word):
    """The basic interval of word as the composition of its maps applied to
    the hull, the last digit's map first."""
    hull = ifs.convex_hull()
    lo, hi = hull.lo, hull.hi
    for d in reversed(word):
        lo = ifs.ratio * lo + ifs.translations[d - 1]
        hi = ifs.ratio * hi + ifs.translations[d - 1]
    return Interval(lo, hi)


@st.composite
def sqrt_bases(draw):
    """sqrt(c) as an algebraic base, c rational in (13/4, 4) and not a square."""
    den = draw(st.integers(2, 20))
    c = Fraction(draw(st.integers(13 * den // 4 + 1, 4 * den - 1)), den)
    assume(math.isqrt(c.numerator) ** 2 != c.numerator
           or math.isqrt(c.denominator) ** 2 != c.denominator)
    return AlgebraicReal((-c.numerator, 0, c.denominator), 1, 2)


TRIBONACCI = AlgebraicReal((-1, -1, -1, 1), Fraction(7, 4), Fraction(15, 8))


@st.composite
def rational_systems(draw):
    ratio = draw(st.fractions(Fraction(1, 20), Fraction(19, 20), max_denominator=20))
    ts = draw(st.lists(st.fractions(-2, 2, max_denominator=12), min_size=2, max_size=4,
                       unique=True))
    return HomogeneousIfs(ratio, sorted(ts))


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_systems(), sqrt_bases().map(kq_ifs),
                 st.just(TRIBONACCI).map(kq_ifs)),
       st.data())
def test_cylinder_walk_matches_reverse_replay(ifs, data):
    word = tuple(data.draw(st.lists(st.integers(1, ifs.n), max_size=12)))
    walk = list(ifs.cylinder_walk(word))
    assert len(walk) == len(word) + 1
    for k, iv in enumerate(walk):
        assert iv == reverse_replay(ifs, word[:k]), k
    assert ifs.basic_interval(word) == walk[-1]


def test_locate_finds_the_word_of_a_cylinder_end():
    # both systems have disjoint cylinders, so the left end of a basic
    # interval, a point of the attractor, lies in that one cylinder
    rng = random.Random(5)
    for ifs in (cantor(), _kq_sqrt_ifs()):
        for _ in range(10):
            word = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 8)))
            assert ifs.locate(ifs.basic_interval(word).lo, len(word)) == word


def test_cylinder_walk_reads_an_endless_code_lazily():
    ifs = cantor()
    walk = ifs.cylinder_walk(Code.parse("2(1)").digits())
    assert list(islice(walk, 4)) == [ifs.basic_interval(w)
                                     for w in ((), (2,), (2, 1), (2, 1, 1))]


def test_code_walk_keeps_its_steps_for_every_iteration():
    for ifs in (cantor(), _kq_sqrt_ifs()):
        walk = CodeWalk(ifs, Code.parse("2(1)"))
        first, second = iter(walk), iter(walk)
        head = list(islice(first, 3))
        assert len(walk._kept) == 3
        # a second iteration starts at rank 0 and reads the kept steps, then
        # extends them for both
        assert [next(second) for _ in range(4)][:3] == head
        assert next(first) is walk._kept[3] and len(walk._kept) == 4
        words = ((), (2,), (2, 1), (2, 1, 1))
        assert [w for w, _ in walk._kept] == list(words)
        assert [iv.to_obj() for _, iv in walk._kept] \
            == [ifs.basic_interval(w).to_obj() for w in words]


def test_code_walk_checks_the_code():
    with pytest.raises(InvalidDigit):
        CodeWalk(cantor(), Code.parse("2(13)"))


def test_level_cover_examples():
    c = cantor()
    assert merged_cylinders(c, 1).to_obj() == [["0", "1/3"], ["2/3", "1"]]
    k2 = merged_cylinders(c, 2)
    assert len(k2) == 4
    assert all(hi - lo == Fraction(1, 9) for lo, hi in k2)
    for k in range(4):
        assert merged_cylinders(HALF, k).to_obj() == [["0", "1"]]


def test_level_cover_monotone_refinement():
    c = cantor()
    prev = merged_cylinders(c, 0)
    for k in range(1, 7):
        cur = merged_cylinders(c, k)
        assert cur.is_subset(prev)
        prev = cur


def test_cylinder_nesting():
    c = cantor()
    rng = random.Random(11)
    for _ in range(30):
        w = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 6)))
        parent = c.basic_interval(w)
        for d in (1, 2):
            assert c.basic_interval(w + (d,)).is_subset(parent)


def test_cylinders_within_word():
    c = cantor()
    kids = c.cylinders(3, within=(2, 1))
    assert [k.to_obj() for k in kids] == [["2/3", "19/27"], ["20/27", "7/9"]]


def test_level_cover_budget_guard():
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": "1000"}):
        with pytest.raises(ResourceBudget):
            cantor().cylinders(30)


def test_huge_rank_is_refused_without_forming_its_power():
    """2^(10^12) has 10^12 bits: the budget check refuses the rank from its
    bit length, with the message it gives for any rank over budget."""
    for budget in ("1000", "16777216"):
        with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": budget}):
            for enumerate_at in (cantor().cylinders, cantor().cylinder_lattice):
                with pytest.raises(ResourceBudget,
                                   match=f"^2\\^1000000000000 cylinders exceed budget {budget}$"):
                    enumerate_at(10 ** 12)
            with pytest.raises(ResourceBudget, match="^2\\^999999999998 cylinders exceed"):
                cantor().cylinder_lattice(10 ** 12, within=(1, 2))
    # the bit length of 1000 is 10, and 2^9 = 512 cylinders are within it
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": "1000"}):
        assert len(cantor().cylinder_lattice(9)) == 512
        with pytest.raises(ResourceBudget, match="^2\\^10 cylinders exceed budget 1000$"):
            cantor().cylinder_lattice(10)


def test_a_rank_past_maxsize_is_refused_by_name():
    """No word is longer than sys.maxsize: prefixes and located words
    refuse such a rank by name, and enumerations still refuse it as over
    budget, as they refuse every huge rank."""
    huge = sys.maxsize + 1
    message = f"^rank {huge} exceeds the largest rank {sys.maxsize}$"
    with pytest.raises(FractarithError, match=message):
        Code.parse("21(1)").prefix(huge)
    with pytest.raises(FractarithError, match=message):
        cantor().locate(Code.parse("21(1)"), huge)
    with pytest.raises(ResourceBudget, match=f"^2\\^{huge} cylinders exceed budget"):
        cantor().cylinders(huge)
    with pytest.raises(FractarithError, match="must be non-negative"):
        cantor().cylinders(-1)
    with pytest.raises(FractarithError, match="below the restricting word length"):
        cantor().cylinders(1, within=(1, 2))


@st.composite
def coincident_systems(draw):
    """Three maps (s, s + ratio*c, s + c), whose words 13 and 21 share a
    cylinder, like ratio 1/3 with translations 0, 1/3, 1."""
    ratio = draw(st.fractions(Fraction(1, 9), Fraction(1, 2), max_denominator=9))
    c = draw(st.fractions(Fraction(1, 4), 3, max_denominator=6))
    s = draw(st.fractions(-1, 1, max_denominator=4))
    return HomogeneousIfs(ratio, (s, s + ratio * c, s + c))


def _outcome(run):
    """What run() returns, or the class and message of the error it raises."""
    try:
        return run()
    except FractarithError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_systems(), coincident_systems()), st.data())
def test_integer_cylinders_match_the_fraction_walk(ifs, data):
    within = tuple(data.draw(st.lists(st.integers(1, ifs.n), max_size=2)))
    k = data.draw(st.integers(-1, len(within) + 3))
    budget = str(data.draw(st.sampled_from([1, 8, 2 ** 24])))
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": budget}):
        want = _outcome(lambda: fraction_cylinders.cylinders(ifs, k, within))
        assert _outcome(lambda: ifs.cylinders(k, within)) == want
        assert _outcome(lambda: list(ifs.cylinder_lattice(k, within))) == want
        if not within:
            count = _outcome(lambda: fraction_cylinders.cylinder_count(ifs, k))
            assert _outcome(lambda: ifs.cylinder_count(k)) == count


def test_coincident_cylinders_collapse():
    ifs = HomogeneousIfs(Fraction(1, 3), (0, Fraction(1, 3), 1))
    assert ifs.cylinder_count(2) == 8 and ifs.n ** 2 == 9
    lattice = ifs.cylinder_lattice(2)
    assert (lattice.den, lattice.span) == (18, 3)
    assert lattice.lefts == (0, 2, 6, 8, 12, 18, 20, 24)
    assert [iv.to_obj() for iv in ifs.cylinders(2, within=(2,))] == \
        [["1/3", "1/2"], ["4/9", "11/18"], ["2/3", "5/6"]]
    assert [iv.to_obj() for iv in lattice.within(Interval(Fraction(1, 3), Fraction(3, 4)))] == \
        [["1/3", "1/2"], ["4/9", "11/18"]]
    assert len(lattice.within(Interval(Fraction(1, 10), Fraction(1, 5)))) == 0


_ROOT2 = FieldElement.generator(AlgebraicReal((-2, 0, 1), 1, 2))


@pytest.mark.parametrize("ifs", [
    HomogeneousIfs.from_obj({"ratio": {"poly": [-1, 0, 2], "lo": "0", "hi": "1"},
                             "translations": ["0", "1"]}),
    HomogeneousIfs(Fraction(1, 3), (0, _ROOT2 - 1, 1)),
], ids=["algebraic-ratio", "algebraic-translation"])
def test_algebraic_cylinders_keep_reversed_word_order(ifs):
    # over algebraic data the last digit varies slowest and the walk stays
    # on field elements, also when only a translation is irrational
    assert not ifs.rational
    words = [(d1, d2) for d2 in range(1, ifs.n + 1) for d1 in range(1, ifs.n + 1)]
    assert ifs.cylinders(2) == [ifs.basic_interval(w) for w in words]
    for build in (lambda: ifs.cylinder_count(2), lambda: ifs.cylinder_lattice(2)):
        with pytest.raises(FractarithError, match="requires rational data"):
            build()


@pytest.mark.parametrize("raw", ["abc", "0", "-1"])
def test_budget_must_be_a_positive_integer(raw):
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": raw}):
        with pytest.raises(FractarithError, match=f"bad FRACTARITH_BUDGET value '{raw}'"):
            get_budget()
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": "7"}):
        assert get_budget() == 7


def test_gap_profile_matches_endpoint_scan():
    # rank-1 brute force: scan sorted interval endpoints for gaps
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        lam = Fraction(1, rng.randint(n, 9))
        ts = sorted(rng.sample(range(0, 60), n))
        ts = tuple(Fraction(t, 60) for t in ts)
        try:
            ifs = HomogeneousIfs(lam, ts)
        except FractarithError:
            continue
        hull = ifs.convex_hull()
        pieces = [ifs.basic_interval((d,)) for d in range(1, n + 1)]
        expected = []
        for i, (a, b) in enumerate(zip(pieces, pieces[1:]), start=1):
            if b.lo > a.hi:
                expected.append((i, b.lo - a.hi))
        prof = ifs.gap_profile()
        assert list(prof.gap_set) == expected
        assert hull.lo == pieces[0].lo and hull.hi == pieces[-1].hi
        assert prof.width == hull.width() and prof.piece == lam * prof.width
        assert all(p.width() == prof.piece for p in pieces)


def test_locate_examples():
    c = cantor()
    assert c.locate(Fraction(0), 3) == (1, 1, 1)
    with pytest.raises(NotInCover):
        c.locate(Fraction(1, 2), 1)
    assert c.locate(Fraction(2, 3), 2) == (2, 1)


def test_locate_code_and_tuple_inputs():
    c = cantor()
    assert c.locate(Code.parse("21(1)"), 4) == (2, 1, 1, 1)
    assert c.locate((2, 1, 2, 1), 3) == (2, 1, 2)
    with pytest.raises(NotInCover):
        c.locate((2, 1), 3)
    assert c.locate((2, 1), 0) == ()
    for point in (Code((), (3,)), (2, 3)):
        with pytest.raises(InvalidDigit):
            c.locate(point, 2)
    for point in (Code.parse("(2)"), (2, 1), Fraction(1)):
        with pytest.raises(FractarithError, match="non-negative"):
            c.locate(point, -1)


def test_thickness_examples():
    assert cantor().gap_profile().thickness_lb == 1
    assert SPARSE.gap_profile().thickness_lb == Fraction(1, 3)
    assert HALF.gap_profile().thickness_lb == math.inf


SQRT_7_2 = AlgebraicReal((Fraction(-7, 2), 0, 1), 1, 2)


def _kq_sqrt_ifs() -> HomogeneousIfs:
    # K_q for q = sqrt(7/2), a FieldElement base; field elements compare
    # only over one shared generator
    return kq_ifs(FieldElement.generator(SQRT_7_2))


@pytest.mark.parametrize("build", [lambda: HomogeneousIfs(SPARSE.ratio, SPARSE.translations),
                                   lambda: HomogeneousIfs(Fraction(1, 4), (0, Fraction(1, 3), 1)),
                                   _kq_sqrt_ifs],
                         ids=["rational-two-maps", "rational-three-maps", "kq-sqrt"])
def test_derived_geometry_is_computed_once_and_matches_a_fresh_system(build):
    ifs, fresh = build(), build()
    blob = ifs.to_obj()
    hull, profile = ifs.convex_hull(), ifs.gap_profile()
    steps = ifs._cylinder_steps()
    assert ifs.convex_hull() is hull
    assert ifs.gap_profile() is profile
    assert ifs._cylinder_steps() is steps
    assert profile.hull is hull
    assert hull == fresh.convex_hull()
    assert profile == fresh.gap_profile()
    assert steps == fresh._cylinder_steps()
    # the caches are never serialised and the system stays immutable
    assert ifs.to_obj() == blob == fresh.to_obj()
    for name in ("ratio", "translations", "_hull", "_gaps", "_steps"):
        with pytest.raises(AttributeError):
            setattr(ifs, name, None)
    assert ifs.convex_hull() is hull


def test_cached_geometry_serialises_after_the_base_polynomial_shrinks():
    # (x^2-2)(x-3) at sqrt 2: inverting alpha - 3 shrinks the defining
    # polynomial to x^2 - 2 after the hull was cached
    gen = AlgebraicReal((6, -2, -3, 1), 1, 2)
    a = FieldElement.generator(gen)
    ifs = HomogeneousIfs(a - 1, (0, a * a / 2))
    cached = ifs.convex_hull()
    assert ((a - 3) * (1 / (a - 3))).to_fraction() == 1
    assert gen.poly == (-2, 0, 1)
    fresh = HomogeneousIfs(a - 1, (0, a * a / 2)).convex_hull()
    assert scalar_to_obj(cached.hi) == scalar_to_obj(fresh.hi) == {"coeffs": ["1", "1/2"]}


def test_serialization_round_trip_lossless():
    for ifs in (cantor(), HALF, SPARSE):
        blob = json.dumps(ifs.to_obj(), sort_keys=True)
        back = HomogeneousIfs.from_obj(json.loads(blob))
        assert back.to_obj() == ifs.to_obj()
        assert back.ratio == ifs.ratio and back.translations == ifs.translations


def test_serialization_algebraic_ratio():
    lam = {"poly": [-1, 0, 3], "lo": "0", "hi": "1"}  # 1/sqrt(3)
    ifs = HomogeneousIfs.from_obj({"ratio": lam, "translations": ["0", "1"]})
    hull = ifs.convex_hull()
    assert hull.lo == 0
    blob = ifs.to_obj()
    again = HomogeneousIfs.from_obj(blob)
    assert again.to_obj() == blob


def test_code_parse_and_prefix():
    c = Code.parse("21(1)")
    assert c.prefix(5) == (2, 1, 1, 1, 1)
    assert Code.parse("(2)").prefix(3) == (2, 2, 2)
    assert Code.parse("212").prefix(5) == (2, 1, 2, 2, 2)
    assert Code.parse("1,2,10(3)").prefix(4) == (1, 2, 10, 3)
    assert str(Code.parse("21(1)")) == "21(1)"
    assert c.prefix(0) == ()
    with pytest.raises(FractarithError, match="non-negative"):
        c.prefix(-1)
    with pytest.raises(FractarithError):
        Code.parse("")
