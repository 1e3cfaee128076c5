"""Tests for homogeneous IFS geometry."""

import json
import math
import random
from fractions import Fraction

import pytest

from fractarith.errors import (FractarithError, InvalidDigit, NotInCover,
                               ResourceBudget)
from fractarith import poly
from fractarith.exactnum import (AlgebraicReal, FieldElement, Interval, IntervalUnion,
                                 scalar_to_obj)
from fractarith.ifs_core import Code, HomogeneousIfs, cantor, locate
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
        assert ifs.map_point(1, hull.lo) == hull.lo
        assert ifs.map_point(ifs.n, hull.hi) == hull.hi


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
    with pytest.raises(ResourceBudget):
        cantor().cylinders(30, budget=1000)


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
        assert list(ifs.gap_profile().gap_set) == expected
        assert hull.lo == pieces[0].lo and hull.hi == pieces[-1].hi


def test_locate_examples():
    c = cantor()
    assert c.locate(Fraction(0), 3) == (1, 1, 1)
    with pytest.raises(NotInCover):
        c.locate(Fraction(1, 2), 1)
    assert c.locate(Fraction(2, 3), 2) == (2, 1)


def test_locate_code_and_tuple_inputs():
    c = cantor()
    assert locate(c, Code.parse("21(1)"), 4) == (2, 1, 1, 1)
    assert locate(c, (2, 1, 2, 1), 3) == (2, 1, 2)
    with pytest.raises(NotInCover):
        locate(c, (2, 1), 3)
    assert locate(c, (2, 1), 0) == ()
    for point in (Code.parse("(2)"), (2, 1), Fraction(1)):
        with pytest.raises(FractarithError, match="non-negative"):
            locate(c, point, -1)


def test_thickness_examples():
    assert cantor().thickness_lower_bound() == 1
    assert SPARSE.thickness_lower_bound() == Fraction(1, 3)
    assert HALF.thickness_lower_bound() == math.inf


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
    assert ifs.convex_hull() is hull
    assert ifs.gap_profile() is profile
    assert profile.hull is hull
    assert hull == fresh.convex_hull()
    assert profile == fresh.gap_profile()
    # the caches are never serialised and the system stays immutable
    assert ifs.to_obj() == blob == fresh.to_obj()
    for name in ("ratio", "translations", "_hull", "_gaps"):
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
    assert gen.poly == poly.make((-2, 0, 1))
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
