"""Tests for brute-force covers, gaps, U_q covers, box counting."""

import hashlib
import json
import math
import os
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import recursive_eval as oracle
import uq_walk
from fractarith import exprfn
from fractarith.certifier import Certificate, certify_rectangle
from fractarith.empirics import (DimEstimate, box_dim_estimate,
                                 grid_box_count, grid_cover, ifs_box_counts, image_cover,
                                 oracle_check, oscillation_radius, uq_cover,
                                 uq_product_counts, write_counts_csv,
                                 write_intervals_csv, write_union_svg)
from fractarith.errors import (DegenerateFit, DivByZeroInterval, DomainError,
                               FractarithError, ResourceBudget)
from fractarith.exactnum import (AlgebraicReal, Interval, IntervalLattice, IntervalUnion,
                                 as_scalar, merge_triples)
from fractarith.exprfn import (_X, _XY, _Y, X, Y, Add, Const, Div, Mul, Neg, Pow, Sub, _axis,
                               _bridged, _hoist, _pairs, eval_interval, grid_values,
                               lattice_cover, parse)
from fractarith.ifs_core import HomogeneousIfs, cantor
from fractarith.qexp import (DigitSeq, QuasiGreedyStream, as_base, base_above_qstar,
                              is_univoque_seq, kq_ifs, pi_q, qstar)

C = cantor()
HALF = HomogeneousIfs(Fraction(1, 2), (Fraction(0), Fraction(1, 2)))
Q19 = Fraction(19, 10)


def iv(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


def tampered(cert, **changes):
    """The certificate with some fields changed, built by the constructor."""
    fields = ("ifs1", "ifs2", "f", "word1", "word2", "sign_case", "grad", "orientation",
              "m_row", "m_gap", "certified_interval")
    return Certificate(**{name: changes.get(name, getattr(cert, name)) for name in fields})


def merged_cylinders(ifs, k):
    """Union of all rank-k basic intervals, merged."""
    return IntervalUnion.from_intervals((c.lo, c.hi) for c in ifs.cylinders(k))


# ---------------------------------------------------------------------------
# image covers
# ---------------------------------------------------------------------------

def test_image_cover_cantor_sum_is_full_interval():
    cov = image_cover(C, C, parse("x+y"), 8)
    assert cov.to_obj() == [["0", "2"]]


def test_image_cover_cantor_difference():
    cov = image_cover(C, C, parse("x-y"), 8)
    assert cov.to_obj() == [["-1", "1"]]


def test_image_cover_monotone_in_depth():
    prev = image_cover(C, C, parse("x*y"), 2)
    for depth in (3, 4, 5):
        cur = image_cover(C, C, parse("x*y"), depth)
        assert cur.is_subset(prev)
        prev = cur


def test_image_cover_quotient_blocks():
    window = iv(Fraction(2, 3), 1)
    blocks = IntervalUnion.from_intervals(
        [(Fraction(2, 3) * Fraction(3) ** n, Fraction(3, 2) * Fraction(3) ** n)
         for n in range(-9, 2)])
    prev_r = None
    for depth in (4, 5, 6):
        cov = image_cover(C, C, parse("x/y"), depth, y_window=window)
        g = parse("x/y")
        from fractarith.exprfn import grad_enclosure
        ge = grad_enclosure(g, (iv(0, 1), window))
        r = Fraction(1, 3) ** depth * (ge.dx.abs().hi * 1 + ge.dy.abs().hi * Fraction(1, 3))
        assert cov.is_subset(blocks.inflate(r))
        if prev_r is not None:
            assert r < prev_r
        prev_r = r


def test_image_cover_budget():
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": "1000"}):
        with pytest.raises(ResourceBudget):
            image_cover(C, C, parse("x+y"), 12)


# (f, depth, the pieces paired on each side): the bridged pieces for a
# separable f, which x^3+y keeps 19 of on x's side, and for x*y+x, in which
# y occurs once, x's 32 cylinders times y's 32 merged pieces, none of whose
# gaps every x cylinder spans
@pytest.mark.parametrize("f, depth, n, m", [("x^3+y", 6, 19, 32), ("x*y+x", 5, 32, 32)])
def test_image_cover_budget_counts_the_rectangles_paired(f, depth, n, m):
    want = image_cover(C, C, parse(f), depth)
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": str(n * m - 1)}):
        with pytest.raises(ResourceBudget, match=f"^{n}x{m} rectangles exceed budget {n * m - 1}$"):
            image_cover(C, C, parse(f), depth)
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": str(n * m)}):
        assert image_cover(C, C, parse(f), depth) == want


def test_image_cover_budget_after_bridging():
    # Cantor x+y bridges to one piece a side, so a budget that only admits
    # each axis's 2^13 cylinders admits the cover, whose grid has 2^26
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": str(2 ** 13)}):
        assert image_cover(C, C, parse("x+y"), 13).to_obj() == [["0", "2"]]
        # a DomainError in one side falls back to the grid, whose size is
        # then refused before any rectangle is evaluated
        with pytest.raises(ResourceBudget, match="^128x128 rectangles exceed budget 8192$"):
            image_cover(C, C, parse("x^(-1)+y"), 7)
    with pytest.raises(DivByZeroInterval):
        image_cover(C, C, parse("x^(-1)+y"), 7)


# every enumeration reads FRACTARITH_BUDGET when it is sized; 3 is below the
# size of each of these (x*y+x pairs x's 2 cylinders with y's 2 pieces)
@pytest.mark.parametrize("enumerate_", [
    lambda: C.cylinders(2),
    lambda: image_cover(C, C, parse("x*y+x"), 1),
    lambda: oracle_check(certify_rectangle(C, C, parse("x*y+x"), (2,), (2,)), 2),
    lambda: uq_cover(Q19, 6),
    lambda: ifs_box_counts(C, [1, 2]),
    lambda: uq_product_counts(Q19, parse("x+y"), [6]),
    lambda: certify_rectangle(C, C, parse("x+y"), (), (2, 2)),
], ids=["cylinders", "image_cover", "oracle_check", "uq_cover", "ifs_box_counts",
        "uq_product_counts", "certify_rectangle-unequal-ranks"])
def test_env_budget_caps_every_enumeration(enumerate_):
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": "3"}):
        with pytest.raises(ResourceBudget):
            enumerate_()


def test_gap_report_examples():
    gaps = merged_cylinders(C, 1).gaps(iv(0, 1))
    assert [(g.lo, g.hi) for g in gaps] == [(Fraction(1, 3), Fraction(2, 3))]
    assert image_cover(C, C, parse("x+y"), 8).gaps(iv(0, 2)) == []
    whole = IntervalUnion.empty().gaps(iv(0, 1))
    assert len(whole) == 1 and (whole[0].lo, whole[0].hi) == (0, 1)


# ---------------------------------------------------------------------------
# oracle_check
# ---------------------------------------------------------------------------

def test_oracle_check_sum_certificate():
    cert = certify_rectangle(C, C, parse("x+y"), (), ())
    assert oracle_check(cert, 8)


def test_oracle_check_product_certificate_depth_10():
    cert = certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1))
    assert oracle_check(cert, 10)


def test_oracle_check_rejects_fake_claim():
    cert = certify_rectangle(C, C, parse("x+y"), (), ())
    fake = tampered(cert, certified_interval=iv(0, 3))
    assert not oracle_check(fake, 8)


def test_oracle_check_depth_must_reach_words():
    cert = certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1))
    with pytest.raises(FractarithError):
        oracle_check(cert, 2)


def test_oscillation_radius_shrinks():
    cert = certify_rectangle(C, C, parse("x+y"), (), ())
    assert oscillation_radius(cert, 6) == Fraction(2, 729)
    assert oscillation_radius(cert, 8) < oscillation_radius(cert, 6)


# ---------------------------------------------------------------------------
# U_q covers
# ---------------------------------------------------------------------------

def test_uq_cover_depth_zero_is_full_range():
    cov = uq_cover(Q19, 0)
    assert cov.to_obj() == [["0", "10/9"]]


def test_uq_cover_contains_block_points():
    cov = uq_cover(Q19, 10)
    for text in ("(01)", "(10)"):
        assert cov.contains_point(pi_q(DigitSeq.parse(text), Q19))


def test_uq_cover_keeps_constant_codes():
    cov = uq_cover(Fraction(3, 2), 12)
    assert cov.contains_point(Fraction(0))
    assert cov.contains_point(Fraction(2))  # 1/(q-1)


def test_uq_cover_soundness_random_yes_sequences():
    rng = random.Random(31337)
    found = 0
    while found < 15:
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        seq = DigitSeq(pre, per)
        q = Fraction(rng.randint(12, 19), 10)
        if is_univoque_seq(seq, q) != "yes":
            continue
        x = pi_q(seq, q)
        for depth in (4, 8, 12):
            assert uq_cover(q, depth).contains_point(x)
        found += 1


# ---------------------------------------------------------------------------
# differential tests against the straightforward enumerators
# ---------------------------------------------------------------------------

def reference_image_cover(k1, k2, f, depth, x_window=None, y_window=None,
                          word1=(), word2=()):
    """image_cover as one eval_interval call per cylinder rectangle."""
    xs = k1.cylinders(depth, within=word1)
    ys = k2.cylinders(depth, within=word2)
    if x_window is not None:
        xs = [i for i in xs if i.is_subset(x_window)]
    if y_window is not None:
        ys = [i for i in ys if i.is_subset(y_window)]
    pieces = []
    for ix in xs:
        for iy in ys:
            enc = eval_interval(f, ix, iy)
            pieces.append((enc.lo, enc.hi))
    return IntervalUnion.from_intervals(pieces)


def reference_prefix_violates(w, eta):
    """Re-scan every position of the prefix against eta."""
    n = len(w)
    for k in range(n):
        flip = w[k] == 1
        for i in range(k + 1, n):
            d = w[i] ^ 1 if flip else w[i]
            e = eta.digit(i - k - 1)
            if e is None or d < e:
                break
            if d > e:
                return True
    return False


def reference_uq_cover(q, depth):
    """uq_cover with every candidate prefix re-scanned and every survivor's
    value rebuilt digit by digit."""
    q = as_base(q)
    eta = QuasiGreedyStream(q)
    survivors = [()]
    for _ in range(depth):
        survivors = [w + (d,) for w in survivors for d in (0, 1)
                     if not reference_prefix_violates(w + (d,), eta)]
    inv = 1 / q
    tail = inv ** depth / (q - 1)
    pieces = []
    for w in survivors:
        val, p = as_scalar(0), as_scalar(1)
        for d in w:
            p = p * inv
            if d:
                val = val + p
        pieces.append((val, val + tail))
    return IntervalUnion.from_intervals(pieces)


EXPONENTS = [Fraction(e) for e in ("2", "3", "-1", "-2", "1/2", "1/3", "3/2", "-1/2")]


def exprs(depth):
    """Expressions of the grammar with at most `depth` nested operators."""
    leaves = st.sampled_from([X, Y, Const(Fraction(1)), Const(Fraction(2)), Const(Fraction(3))])
    if depth == 0:
        return leaves
    sub = exprs(depth - 1)
    return st.one_of(
        leaves,
        *(st.builds(node, sub, sub) for node in (Add, Sub, Mul, Div)),
        st.builds(Pow, sub, st.sampled_from(EXPONENTS)),
        st.builds(Neg, sub))


@st.composite
def cover_problems(draw):
    m = draw(st.integers(3, 5))
    lam = Fraction(1, m)

    def ifs():
        digits = sorted(draw(st.sets(st.integers(0, m - 1), min_size=2, max_size=3)))
        offset = draw(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]))
        return HomogeneousIfs(lam, [Fraction(d, m) + offset * (1 - lam) for d in digits])

    def word(k, depth):
        return tuple(draw(st.lists(st.integers(1, k.n), max_size=depth - 1)))

    def window(k):
        hull = k.convex_hull()
        if not draw(st.booleans()):
            return None
        a = hull.lo + hull.width() * Fraction(draw(st.integers(0, 4)), 8)
        b = hull.lo + hull.width() * Fraction(draw(st.integers(4, 8)), 8)
        return Interval(a, b)

    k1, k2 = ifs(), ifs()
    depth = draw(st.integers(1, 3))
    return dict(k1=k1, k2=k2, f=draw(exprs(3)), depth=depth,
                x_window=window(k1), y_window=window(k2),
                word1=word(k1, depth), word2=word(k2, depth))


@settings(max_examples=150, deadline=None)
@given(cover_problems())
def test_image_cover_matches_per_rectangle_reference(problem):
    try:
        want = reference_image_cover(**problem)
    except FractarithError:
        with pytest.raises(FractarithError):
            image_cover(**problem)
        return
    assert image_cover(**problem) == want


@st.composite
def cylinder_lists(draw):
    """1 to 5 small rational intervals, of both signs, some containing 0."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        lo = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 7)))
        out.append(Interval(lo, lo + Fraction(draw(st.integers(0, 9)), draw(st.integers(1, 7)))))
    return out


def outcome(run):
    """What run() returns, or the class and message of the DomainError it
    raises."""
    try:
        return run()
    except DomainError as exc:
        return type(exc), str(exc)


def run_enclosures(f, xs, ys):
    """The enclosures of the column run on triples over xs x ys (see
    exprfn._pairs), as Fraction pairs."""
    if not xs or not ys:
        return []
    return [(Fraction(lo, d), Fraction(hi, d)) for lo, hi, d in _pairs(f, _axis(xs), _axis(ys))]


def check_grid_paths(f, xs, ys):
    """The column runs on triples and on Intervals give the walk's
    enclosures in its order, and grid_cover their union; on a DomainError
    both grid_values and grid_cover raise the walk's, by class and
    message."""
    want = outcome(lambda: [(enc.lo, enc.hi) for enc in oracle.walk_grid(f, xs, ys)])
    if isinstance(want, list):
        assert run_enclosures(f, xs, ys) == want
    assert outcome(lambda: [(enc.lo, enc.hi) for enc in grid_values(f, xs, ys)]) == want
    union = want if isinstance(want, tuple) else IntervalUnion.from_intervals(want)
    assert outcome(lambda: grid_cover(f, xs, ys)) == union


@settings(max_examples=400, deadline=None)
@given(exprs(3), cylinder_lists(), cylinder_lists())
def test_lattice_path_is_grid_path(f, xs, ys):
    check_grid_paths(f, xs, ys)


@st.composite
def lattices(draw):
    """1 to 5 equal-width intervals on integer numerators over one
    denominator, of both signs, some containing 0."""
    lefts = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=5, unique=True))
    return IntervalLattice(draw(st.integers(1, 7)), tuple(sorted(lefts)),
                           draw(st.integers(0, 6)))


@settings(max_examples=300, deadline=None)
@given(exprs(3), lattices(), lattices())
def test_lattice_axes_are_interval_axes(f, xs, ys):
    """A grid given as IntervalLattices is evaluated as the same grid given
    as lists of Intervals, and both as the walk evaluates it."""
    check_grid_paths(f, xs, ys)
    ivs_x, ivs_y = list(xs), list(ys)
    assert outcome(lambda: grid_cover(f, xs, ys)) == outcome(
        lambda: grid_cover(f, ivs_x, ivs_y))


def no_fractional_powers(e):
    if isinstance(e, Pow):
        return e.exponent.denominator == 1 and no_fractional_powers(e.base)
    if isinstance(e, Neg):
        return no_fractional_powers(e.operand)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return no_fractional_powers(e.left) and no_fractional_powers(e.right)
    return True


KQ_BASES = {"sqrt(7/2)": ((-7, 0, 2), 1, 2),
            "tribonacci": ((-1, -1, -1, 1), Fraction(7, 4), Fraction(15, 8))}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KQ_BASES)), exprs(3).filter(no_fractional_powers),
       st.integers(1, 2), st.lists(st.integers(1, 2), max_size=1).map(tuple))
def test_grid_path_over_field_elements_is_the_walk(base, f, depth, word):
    """Over K_q cylinders, whose ends are field elements, the column run on
    Intervals gives the walk's enclosures, and grid_cover their union.
    Without fractional powers every operation is exact, so the order in
    which the shared generator is refined does not change a value."""
    k = kq_ifs(AlgebraicReal(*KQ_BASES[base]))
    xs, ys = k.cylinders(depth, within=word), k.cylinders(depth)
    assert lattice_cover(f, xs, ys) is None
    want = outcome(lambda: oracle.walk_grid(f, xs, ys))
    assert outcome(lambda: grid_values(f, xs, ys)) == want
    union = want if isinstance(want, tuple) else IntervalUnion.from_intervals(
        (enc.lo, enc.hi) for enc in want)
    assert outcome(lambda: grid_cover(f, xs, ys)) == union


def cover_bytes(run):
    """The canonical JSON of the union run() returns, or the class and
    message of the FractarithError it raises."""
    try:
        return json.dumps(run().to_obj())
    except FractarithError as exc:
        return type(exc), str(exc)


def full_grid_cover(f, xs, ys):
    """The grid merged per rectangle: the walk over every rectangle of
    xs x ys, then one from_intervals."""
    return IntervalUnion.from_intervals((enc.lo, enc.hi) for enc in oracle.walk_grid(f, xs, ys))


SEPARABLE = ["x+y", "x-y", "y-x", "x*y", "x/y", "y/x", "2*x+3*y", "x^2-y^2", "x^3+y",
             "x^(-1)+y", "x^(1/2)+y^(1/2)", "x^(1/3)*y", "x/(y+1)", "(x+y)^2", "2*(x-y)",
             "-(x*y)", "((x-y)^3)/2+1", "1-(x^2+y)^2", "(x*y+1)*(2^(1/2))", "x^2+x+y"]
NOT_SEPARABLE = ["x*y-x", "x/(x+y)", "(x+y)*(x-y)", "x^2+y+x"]


def test_both_variables_hoist_on_exactly_the_separable_forms():
    """One variable hoists where the other spreads over two subtrees, and
    neither where both do or f is not in both."""
    assert all(_hoist(parse(text))[4] == _XY for text in SEPARABLE)
    assert all(_hoist(parse(text))[4] in (_X, _Y) for text in ISOLATED_FORMS)
    assert all(_hoist(parse(text)) is None or _hoist(parse(text))[4] != _XY
               for text in NOT_SEPARABLE)
    assert all(_hoist(parse(text)) is None
               for text in ("(x+y)*(x-y)", "x*y*(x+y)", "x^2", "y+1", "3"))


@settings(max_examples=200, deadline=None)
@given(cover_problems(), st.sampled_from(SEPARABLE + NOT_SEPARABLE))
def test_split_cover_is_the_full_grid_merge(problem, text):
    """grid_cover, which merges each side of a separable f before combining
    them, against every rectangle merged at once, over windows and words:
    the same bytes, or the same error class and message (x/y over a hull
    holding 0, for one)."""
    k1, k2, depth = problem["k1"], problem["k2"], problem["depth"]
    xs = k1.cylinder_lattice(depth, within=problem["word1"])
    ys = k2.cylinder_lattice(depth, within=problem["word2"])
    if problem["x_window"] is not None:
        xs = xs.within(problem["x_window"])
    if problem["y_window"] is not None:
        ys = ys.within(problem["y_window"])
    f = parse(text)
    assert cover_bytes(lambda: grid_cover(f, xs, ys)) == \
        cover_bytes(lambda: full_grid_cover(f, xs, ys))


@pytest.mark.parametrize("text, error", [
    ("x/y", DivByZeroInterval),
    ("y/x", DivByZeroInterval),
    ("x^(-1)+y", DivByZeroInterval),
    ("(x+y)/0", DivByZeroInterval),
    ("x^(1/2)+y^(1/2)", DomainError),
    ("y^(-1)+x^(1/2)", DivByZeroInterval),  # the y side comes first in postorder
    ("x^(1/2)+y^(-1)", DomainError),
])
def test_split_cover_raises_the_grid_error(text, error):
    """Over Cantor cylinders, whose first one holds 0: the error of the
    first failing rectangle, at its first failing node in postorder."""
    xs = C.cylinder_lattice(4)
    f = parse(text)
    with pytest.raises(DomainError) as first:
        oracle.walk_grid(f, xs, xs)
    assert type(first.value) is error
    assert cover_bytes(lambda: grid_cover(f, xs, xs)) == (error, str(first.value))


# thick: two maps at the ends of the hull with gap 1 - 2*ratio no wider than
# a piece, or three with (1 - 3*ratio)/2; thin: gaps wider than the pieces
THICK = [(Fraction(1, 3), 2), (Fraction(2, 5), 2), (Fraction(3, 7), 2), (Fraction(1, 2), 2),
         (Fraction(1, 4), 3), (Fraction(1, 5), 3), (Fraction(2, 7), 3), (Fraction(1, 3), 3)]
THIN = [(Fraction(1, 4), 2), (Fraction(1, 5), 2), (Fraction(2, 9), 2), (Fraction(1, 7), 3)]
BRIDGED_FORMS = ["x+y", "x-y", "y-x", "2*x+3*y", "x*y", "x/y", "y/x", "x^(-1)+y",
                 "y^(-1)-x^(-1)", "x^2-y^2", "x^(-1)*y^2", "(x+1)*y", "x*(1-y)", "(x+y)^2"]


@st.composite
def bridge_systems(draw):
    """A rational IFS, thick or thin, scaled and shifted so that the set is
    nonnegative, touches 0 from above or below, has mixed sign or is
    negative."""
    ratio, n = draw(st.sampled_from(THICK + THIN))
    scale = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)]))
    shift = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-1, 2), -scale,
                                  -2 * scale]))
    return HomogeneousIfs(ratio, [scale * i * (1 - ratio) / (n - 1) + shift * (1 - ratio)
                                  for i in range(n)])


@st.composite
def bridge_axes(draw):
    """The cylinders of a bridge_systems IFS at one depth; sometimes only a
    run of them."""
    k = draw(bridge_systems())
    lattice = k.cylinder_lattice(draw(st.integers(1, 6 if k.n == 2 else 4)))
    cut = draw(st.integers(1, len(lattice)))
    return draw(st.sampled_from([lattice, lattice[:cut], lattice[cut - 1:]]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BRIDGED_FORMS), bridge_axes(), bridge_axes())
def test_bridged_cover_is_the_full_grid_merge(text, xs, ys):
    """grid_cover, which closes every gap of one side that the other
    side's pieces span before combining them, against every rectangle
    merged at once: the same bytes, or the same error class and message.
    Reciprocals give one denominator per piece, and products over sides
    with a negative piece are only merged."""
    f = parse(text)
    assert cover_bytes(lambda: grid_cover(f, xs, ys)) == \
        cover_bytes(lambda: full_grid_cover(f, xs, ys))


@pytest.mark.parametrize("t, xs, ys, bridged_xs", [
    (Add, [(2, 3, 6), (4, 6, 6)], [(0, 1, 6)], [(2, 6, 6)]),
    (Add, [(2, 3, 6), (2, 3, 3)], [(0, 1, 6)], [(1, 3, 3)]),
    (Mul, [(1, 2, 1), (4, 8, 1)], [(1, 2, 1)], [(1, 8, 1)]),
    (Mul, [(1, 2, 1), (12, 24, 3)], [(1, 2, 1)], [(1, 8, 1)]),
], ids=["sum", "sum-per-piece", "product", "product-per-piece"])
def test_a_gap_exactly_as_wide_as_the_gauge_closes(t, xs, ys, bridged_xs):
    """[1/3, 1/2] U [2/3, 1] + [0, 1/6] = [1/3, 7/6], and
    ([1, 2] U [4, 8]) * [1, 2] = [1, 16]: the condition holds with equality,
    over one denominator and over one per piece, where the bridged piece
    goes over the lcm of its ends' reduced denominators."""
    assert _bridged(t, xs, ys) == (bridged_xs, ys)


@pytest.mark.parametrize("text, hull", [("x+y", ["0", "2"]), ("x-y", ["-1", "1"])])
def test_cantor_pairs_at_depth_12_bridge_to_one_piece(text, hull):
    """Cantor's gaps are exactly as wide as its pieces at the next rank, so
    bridging closes both sides of x+y and x-y to [0, 1]: one rectangle of
    the 4096 x 4096."""
    xs = C.cylinder_lattice(12)
    axis = _axis(xs)
    f = parse(text)
    bridged = _bridged(_hoist(f)[3], axis, axis)
    assert bridged == ([(0, xs.den, xs.den)],) * 2
    assert image_cover(C, C, f, 12).to_obj() == [hull]


# one variable hoists, x or y, and the other does not: f is not separable,
# and the hoisted subtree sits under a +, -, * or / node with either
# operand order
ISOLATED_FORMS = ["x*y-x", "y*x-y", "x*y+x", "y*x+y", "x/(x+y)", "y/(y+x)", "(x*y-x)^(1/2)",
                  "(y*x-y)^(1/2)", "x/(y-1)+x", "y/(x-1)+y", "(x+1)/y-x", "x-(y+1)/x",
                  "(x+x^2)*y-y", "y*(x^2+x)+y"]


def test_hoist_lifts_the_largest_subtree_that_holds_a_variable():
    assert _hoist(parse("x*y-x")) == (parse("x*y-x"), Y, X, Mul, _Y)
    assert _hoist(parse("x/(y-1)+x")) == (parse("x/y+x"), parse("y-1"), X, Div, _Y)
    assert _hoist(parse("-(x-(2*y+1)/x)^2")) == (parse("-(x-y/x)^2"), parse("2*y+1"), X, Div,
                                                  _Y)
    assert _hoist(parse("x-(y+1)/x")) == (parse("x-y/x"), parse("y+1"), X, Div, _Y)
    assert _hoist(parse("y^2*x-x^3")) == (parse("y*x-x^3"), parse("y^2"), X, Mul, _Y)
    assert _hoist(parse("(x+x^2)*y-y")) == (parse("x*y-y"), parse("x+x^2"), Y, Mul, _X)
    # both hoist: x's subtree, its sibling y's, and both replaced in outer
    assert _hoist(parse("x/(y+1)")) == (parse("x/y"), X, parse("y+1"), Div, _XY)
    assert _hoist(parse("1-(x^2+y)^2")) == (parse("1-(x+y)^2"), parse("x^2"), Y, Add, _XY)
    assert _hoist(parse("x^2+x+y")) == (parse("x+y"), parse("x^2+x"), Y, Add, _XY)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ISOLATED_FORMS), bridge_systems(), bridge_systems(), st.data())
def test_isolated_cover_is_the_full_grid_merge(text, k1, k2, data):
    """image_cover, which merges the once-occurring variable's subtree and
    closes the gaps that every value of its sibling spans, against every
    rectangle merged at once: the same bytes, or the same error class and
    message.  Tiling systems merge to one piece, thick ones close gaps."""
    depth = data.draw(st.integers(1, 5 if k1.n == k2.n == 2 else 3), "depth")
    f = parse(text)
    assert cover_bytes(lambda: image_cover(k1, k2, f, depth)) == \
        cover_bytes(lambda: full_grid_cover(f, k1.cylinders(depth), k2.cylinders(depth)))


def test_isolated_cover_gauges_each_sibling_value():
    """x's cylinders of T, which tile [3/2, 5/2], against Cantor's y in
    x*y-x: a gap of y closes only when every x cylinder spans it, so the
    cover keeps 3 pieces.  Against x's merged piece it would close too
    many."""
    t = HomogeneousIfs.from_obj({"ratio": "1/3", "translations": ["1", "4/3", "5/3"]})
    f = parse("x*y-x")
    cover = image_cover(t, C, f, 4)
    assert cover.to_obj() == [["-5/2", "-242/243"], ["-409/486", "-236/729"],
                              ["-421/1458", "1/81"]]
    assert cover == full_grid_cover(f, t.cylinders(4), C.cylinders(4))


@pytest.mark.parametrize("k, text, piece_digits", [
    (C, "x/(y+1)", [12]),
    (HomogeneousIfs.from_obj({"ratio": "1/3", "translations": ["1", "5/3"]}), "x^(-1)+y",
     [3, 3, 7, 7, 8, 8, 8, 8, 8, 8]),
], ids=["cantor-quotient", "reciprocal-plus-y"])
def test_bridged_covers_keep_short_denominators(k, text, piece_digits):
    """At depth 8, the digits of each cover piece's d.  A divisor side stays
    on the one denominator of its values, and a piece whose ends come from
    different denominators goes over the lcm of their reduced ones, so
    bridging rounds do not compound them: with a reciprocal divisor side
    and unreduced ends the quotient's one piece was over 828 digits, and
    the largest piece of x^(-1)+y over 106."""
    f = parse(text)
    cover = image_cover(k, k, f, 8)
    assert sorted(len(str(d)) for _, _, d in cover.int_ends()) == piece_digits
    assert cover == full_grid_cover(f, k.cylinders(8), k.cylinders(8))


# rank-1 pieces [p, p + ratio] of the hull [0, 1]: tilings by three and by
# two, touching then a gap, two that overlap, and two with gaps only
MERGE_LAYOUTS = [(Fraction(1, 3), (0, Fraction(1, 3), Fraction(2, 3))),
                 (Fraction(1, 2), (0, Fraction(1, 2))),
                 (Fraction(1, 4), (0, Fraction(1, 4), Fraction(3, 4))),
                 (Fraction(2, 5), (0, Fraction(3, 10), Fraction(3, 5))),
                 (Fraction(1, 2), (0, Fraction(1, 4), Fraction(1, 2))),
                 (Fraction(1, 3), (0, Fraction(2, 3))),
                 (Fraction(1, 5), (0, Fraction(2, 5), Fraction(4, 5)))]
# a variable that occurs once in its side, whose axis is merged first
SINGLE_USE_FORMS = ["x^(-1)+y", "x^(1/3)*y", "(2*x+1)^(1/2)*(y+1)^(-2)", "1/(x+1)-y^3",
                    "(x-1)^2+y", "y^(-1)+x", "(y-1)^2*x^(1/2)"]
# and one that occurs twice, whose axis stays per cylinder
TWICE_FORMS = ["x-x^2+y", "x*x+y", "y^2-y+x^(1/2)"]
TILING = HomogeneousIfs.from_obj({"ratio": "1/3", "translations": ["0", "1/3", "2/3"]})


@st.composite
def merge_axes(draw):
    """The rank-depth cylinders of a MERGE_LAYOUTS system whose hull is
    scaled and shifted to either sign of 0, below a word and inside a
    window, each drawn or not."""
    ratio, places = draw(st.sampled_from(MERGE_LAYOUTS))
    scale = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)]))
    shift = draw(st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
                                  Fraction(1, 3), Fraction(1)]))
    k = HomogeneousIfs(ratio, [scale * p + shift * (1 - ratio) for p in places])
    depth = draw(st.integers(1, 4 if k.n == 2 else 3))
    word = tuple(draw(st.lists(st.integers(1, k.n), max_size=depth - 1)))
    ivs = k.cylinders(depth, within=word)
    windowed = draw(st.booleans())
    if windowed:
        hull = k.convex_hull()
        window = Interval(hull.lo + hull.width() * Fraction(draw(st.integers(0, 3)), 8),
                          hull.lo + hull.width() * Fraction(draw(st.integers(5, 8)), 8))
        ivs = [iv for iv in ivs if iv.is_subset(window)]
        assume(ivs)
    return k, depth, word, ivs, windowed


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SINGLE_USE_FORMS + TWICE_FORMS), merge_axes(), merge_axes(), st.booleans())
def test_merged_axis_cover_is_the_full_grid_merge(text, xa, ya, as_lattice):
    """A side whose variable occurs once runs on its merged axis, and one
    where it occurs twice on its cylinders: the same bytes as every
    rectangle merged at once, or the same error class and message, whether
    the pieces tile, touch, overlap or leave gaps.  Over the whole of both
    axes through image_cover, and over the cylinders inside windows as a
    list or as a lattice through grid_cover."""
    (k1, depth1, word1, xs, x_windowed), (k2, depth2, word2, ys, y_windowed) = xa, ya
    f = parse(text)
    want = cover_bytes(lambda: full_grid_cover(f, xs, ys))
    if depth1 == depth2 and not x_windowed and not y_windowed:
        assert cover_bytes(lambda: image_cover(k1, k2, f, depth1, word1=word1,
                                               word2=word2)) == want
    if as_lattice:
        xs, ys = (IntervalLattice(*_lattice_fields(ivs)) for ivs in (xs, ys))
    assert cover_bytes(lambda: grid_cover(f, xs, ys)) == want


def _lattice_fields(ivs):
    """(den, lefts, span) of equal-width rational intervals in order."""
    den = math.lcm(*(end.denominator for iv in ivs for end in (iv.lo, iv.hi)))
    return den, tuple(int(iv.lo * den) for iv in ivs), int(ivs[0].width() * den)


def test_a_variable_that_occurs_twice_keeps_its_cylinders():
    """x - x^2 over TILING: each cylinder's enclosure is close to x - x^2
    on it, in [0, 1/4], while TILING's one merged piece [0, 1] would give
    [0, 1] - [0, 1] = [-1, 1].  So its side runs per cylinder, and the
    cover equals the full grid's, narrower than the merged axis's."""
    f = parse("x-x^2+y")
    assert _hoist(f)[1:3] == (parse("x-x^2"), Y)
    xs, ys = TILING.cylinders(5), C.cylinders(5)
    cover = image_cover(TILING, C, f, 5)
    assert cover == full_grid_cover(f, xs, ys)
    widened = grid_cover(f, [Interval(Fraction(0), Fraction(1))], ys)
    assert cover.is_subset(widened) and cover != widened
    assert cover.hull().lo > Fraction(-1, 100) and widened.hull().lo == -1


@pytest.mark.parametrize("text, runs", [
    ("x^(1/2)+y^(1/2)", [(_X, 1), (_Y, 2 ** 8)]),
    ("x*x+y^(1/2)", [(_X, 3 ** 8), (_Y, 2 ** 8)]),
    ("y*x^(1/2)-y", [(_X, 1), (_Y, 2 ** 8)]),
], ids=["separable", "x-twice", "isolated"])
def test_a_merged_axis_runs_its_side_once_per_piece(text, runs):
    """At depth 8 over TILING shifted to [3/2, 5/2], whose 3^8 cylinders
    merge into one piece, against Cantor shifted alike, whose 2^8 do not:
    the intervals each _side runs over.  Where x occurs once, its side runs
    on the one merged piece; x*x runs per cylinder, and so does the sibling
    y that gauges an isolated x.  The covers themselves are checked by
    test_merged_axis_cover_is_the_full_grid_merge."""
    k1 = HomogeneousIfs.from_obj({"ratio": "1/3", "translations": ["1", "4/3", "5/3"]})
    k2 = HomogeneousIfs.from_obj({"ratio": "1/3", "translations": ["1", "5/3"]})
    seen = []

    def counted(node, mask, axis):
        seen.append((mask, len(axis)))
        return side(node, mask, axis)

    side = exprfn._side
    f = parse(text)
    with mock.patch.object(exprfn, "_side", counted):
        image_cover(k1, k2, f, 8)
    assert seen == runs


def test_oracle_check_matches_per_rectangle_reference():
    cert = certify_rectangle(C, C, parse("x*y"), (1, 2, 2), (2, 1))
    cover = reference_image_cover(C, C, cert.f, 6, word1=cert.word1, word2=cert.word2)
    assert image_cover(C, C, cert.f, 6, word1=cert.word1, word2=cert.word2) == cover
    assert oracle_check(cert, 6) == cover.inflate(
        oscillation_radius(cert, 6)).contains_interval(cert.certified_interval)


SHIFTED = HomogeneousIfs(Fraction(1, 3), (Fraction(1), Fraction(5, 3)))  # hull [3/2, 5/2]
FIVE = HomogeneousIfs(Fraction(1, 5), (Fraction(1), Fraction(9, 5), Fraction(13, 5)))


@pytest.mark.parametrize("k1, k2, text, depth", [
    (C, C, "x+y", 8),
    (SHIFTED, FIVE, "x^(1/2)+y^(1/2)", 4),
    (C, SHIFTED, "x^3+y", 5),
    (FIVE, SHIFTED, "x/y", 4),
    (SHIFTED, FIVE, "x/(y+1)", 4),
    (SHIFTED, FIVE, "x^(-1)+y", 4),
    (SHIFTED, FIVE, "x/(x+y)", 4),
], ids=["cantor-sum-depth8", "square-roots", "cube-plus-y", "quotient", "shifted-quotient",
        "reciprocal-plus-y", "mixed-divisor-falls-back"])
def test_lattice_cover_equals_scalar_cover(k1, k2, text, depth):
    """x/(x+y) does not split, so it runs over the whole grid on triples."""
    f = parse(text)
    xs, ys = k1.cylinders(depth), k2.cylinders(depth)
    assert image_cover(k1, k2, f, depth) == full_grid_cover(f, xs, ys)


SQRT_7_2 = AlgebraicReal((-7, 0, 2), 1, 2)


@pytest.mark.parametrize("text", ["x+y", "x*y-x", "x^2-y^3", "x/y"])
def test_image_cover_over_field_elements_matches_reference(text):
    k = kq_ifs(SQRT_7_2)
    f = parse(text)
    assert lattice_cover(f, k.cylinders(2), k.cylinders(2)) is None
    want = reference_image_cover(k, k, f, 3, word2=(2,))
    assert image_cover(k, k, f, 3, word2=(2,)) == want


TRIBONACCI = AlgebraicReal((-1, -1, -1, 1), Fraction(7, 4), Fraction(15, 8))


@pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(17, 10), Q19, Fraction(39, 20)],
                         ids=str)
def test_uq_cover_matches_rescanning_reference(q):
    for depth in range(13):
        assert uq_cover(q, depth) == reference_uq_cover(q, depth), depth


def test_uq_cover_matches_rescanning_reference_tribonacci():
    for depth in range(13):
        got = uq_cover(TRIBONACCI, depth)
        want = reference_uq_cover(TRIBONACCI, depth)
        assert len(got) == len(want) and got == want, depth


def reference_survivor_counts(q, depth):
    """Surviving prefixes at each length 1..depth of the rescanning reference."""
    eta = QuasiGreedyStream(as_base(q))
    survivors, counts = [()], []
    for _ in range(depth):
        survivors = [w + (d,) for w in survivors for d in (0, 1)
                     if not reference_prefix_violates(w + (d,), eta)]
        counts.append(len(survivors))
    return counts


rational_bases = st.integers(2, 60).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda k: Fraction(2 * den - k, den)))


@st.composite
def sqrt_bases(draw):
    """sqrt(c) as an algebraic base, c rational in (13/4, 4) and not a square."""
    den = draw(st.integers(2, 20))
    num = draw(st.integers(13 * den // 4 + 1, 4 * den - 1))
    c = Fraction(num, den)
    assume(math.isqrt(c.numerator) ** 2 != c.numerator
           or math.isqrt(c.denominator) ** 2 != c.denominator)
    return AlgebraicReal((-c.numerator, 0, c.denominator), 1, 2)


@settings(max_examples=100, deadline=None)
@given(rational_bases, st.integers(0, 14))
def test_uq_cover_matches_reference_over_rational_bases(q, depth):
    assert uq_cover(q, depth) == reference_uq_cover(q, depth)


@settings(max_examples=40, deadline=None)
@given(st.one_of(sqrt_bases(), st.builds(qstar)), st.integers(0, 10))
def test_uq_cover_matches_reference_over_algebraic_bases(q, depth):
    assert uq_cover(q, depth) == reference_uq_cover(q, depth)


@settings(max_examples=60, deadline=None)
@given(rational_bases, st.integers(1, 12), st.data())
def test_uq_cover_budget_matches_reference_survivors(q, depth, data):
    counts = reference_survivor_counts(q, depth)
    budget = data.draw(st.sampled_from(sorted({max(n + k, 1) for n in counts for k in (-1, 0, 1)})))
    with mock.patch.dict(os.environ, {"FRACTARITH_BUDGET": str(budget)}):
        if max(counts) > budget:
            with pytest.raises(ResourceBudget):
                uq_cover(q, depth)
        else:
            uq_cover(q, depth)


# uq_cover against the survivor walk it replaced (tests/uq_walk.py): each
# side gets its own generator, so that neither sees the other's bisections

@st.composite
def uq_bases(draw):
    """(a zero-argument base maker, the largest depth to draw): a rational
    base in (q*, 2), sqrt(c), tribonacci, or sqrt(7/2) isolated on the
    reducible (x^2 - 7/2)(x - 3)."""
    kind = draw(st.sampled_from(["rational", "sqrt", "tribonacci", "reducible"]))
    if kind == "rational":
        q = draw(st.fractions(min_value=Fraction(9, 5), max_value=2, max_denominator=60)
                 .filter(lambda q: q < 2 and base_above_qstar(q)))
        return (lambda: q), 16
    if kind == "sqrt":
        base = draw(sqrt_bases())
        spec = (base.poly, base.lo, base.hi)
    elif kind == "tribonacci":
        spec = ((-1, -1, -1, 1), Fraction(7, 4), Fraction(15, 8))
    else:
        spec = ((Fraction(21, 2), Fraction(-7, 2), -3, 1), 1, 2)
    return (lambda: AlgebraicReal(*spec)), 10


@settings(max_examples=80, deadline=None)
@given(uq_bases(), st.data(), st.one_of(st.none(), st.integers(1, 600)))
def test_uq_cover_matches_the_survivor_walk(base, data, budget):
    make, max_depth = base
    depth = data.draw(st.integers(0, max_depth))
    env = {} if budget is None else {"FRACTARITH_BUDGET": str(budget)}
    with mock.patch.dict(os.environ, env):
        got = cover_bytes(lambda: uq_cover(make(), depth))
        want = cover_bytes(lambda: uq_walk.uq_cover(make(), depth))
    assert got == want


def test_uq_cover_refuses_a_deep_cover_from_its_counts():
    # the survivor walk raises the same message only once it holds all
    # 24388110 surviving prefixes of that length
    with pytest.raises(ResourceBudget, match="^24388110 surviving prefixes exceed budget$"):
        uq_cover(Q19, 40)


# piece counts and sha256 of the canonical to_obj JSON, recorded with the
# tuple-carrying walk that the automaton replaced, at depths the rescanning
# reference is too slow for
@pytest.mark.parametrize("depth, pieces, sha256", [
    (16, 1768, "515dbd9e869941a7050701a94d35de5a9fd66d6c0b0fb1769676d985d51976d2"),
    (18, 5434, "b917bbf3b07810adee9103415b2525ea9115041667c2ebab19bf8655405645ea"),
])
def test_uq_cover_pinned_deep_covers(depth, pieces, sha256):
    cover = uq_cover(Q19, depth)
    text = json.dumps(cover.to_obj(), sort_keys=True, separators=(",", ":"))
    assert len(cover) == pieces
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_uq_product_counts_of_quotients_match_the_grid_path():
    # the boxdim --q-grid path; U_q's first cell starts at 0
    def grid_counts(f, ranks):
        out = []
        for r in ranks:
            cells = [Interval(lo, hi) for lo, hi in uq_cover(Q19, r)]
            union = full_grid_cover(f, cells, cells)
            out.append((r, grid_box_count(union, Q19 ** (-r))))
        return out

    f = parse("x/(y+1)")
    assert uq_product_counts(Q19, f, range(4, 9)) == grid_counts(f, range(4, 9))
    for text in ("x/y", "x^(-1)+y"):
        with pytest.raises(DivByZeroInterval):
            grid_counts(parse(text), range(4, 9))
        with pytest.raises(DivByZeroInterval):
            uq_product_counts(Q19, parse(text), range(4, 9))


def test_uq_product_counts_unchanged():
    assert uq_product_counts(Q19, parse("x*y"), range(2, 6)) == [(2, 5), (3, 9), (4, 17), (5, 31)]
    assert uq_product_counts(Fraction(17, 10), parse("x+y"), range(2, 6)) == \
        [(2, 9), (3, 15), (4, 24), (5, 41)]
    # recorded while the cells were Intervals of Fractions
    assert uq_product_counts(Q19, parse("x+y"), [8, 12, 16]) == \
        [(8, 378), (12, 4919), (16, 64099)]


@settings(max_examples=60, deadline=None)
@given(rational_bases, st.integers(0, 14))
def test_uq_cover_pieces_are_those_merge_triples_gives(q, depth):
    # uq_cover keeps _union's pieces as they stand; merging them again
    # changes nothing
    cover = uq_cover(q, depth)
    ends = cover.int_ends()
    den = q.numerator ** depth * (q.numerator - q.denominator)
    assert all(d == den for _, _, d in ends)
    again = IntervalUnion.from_merged_triples(merge_triples(ends))
    assert again.int_ends() == ends and again == cover


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

def test_box_counts_cantor_exact_powers():
    counts = ifs_box_counts(C, range(1, 8))
    assert [n for _, n in counts] == [2 ** k for k in range(1, 8)]


def test_box_dim_cantor():
    est = box_dim_estimate(ifs_box_counts(C, range(4, 11)), C.ratio)
    assert abs(est.slope - math.log(2) / math.log(3)) < 0.02
    assert est.residual < 1e-9


def test_box_dim_full_interval():
    est = box_dim_estimate(ifs_box_counts(HALF, range(3, 9)), HALF.ratio)
    assert abs(est.slope - 1.0) < 1e-9


def test_box_dim_kq():
    k = kq_ifs(Q19)
    est = box_dim_estimate(ifs_box_counts(k, range(4, 11)), k.ratio)
    assert abs(est.slope - math.log(2) / (2 * math.log(1.9))) < 0.03


def test_box_dim_needs_three_ranks_and_growth():
    with pytest.raises(FractarithError):
        box_dim_estimate([(1, 2), (2, 4)], Fraction(1, 3))
    with pytest.raises(DegenerateFit):
        box_dim_estimate([(1, 5), (2, 5), (3, 5)], Fraction(1, 3))


def test_grid_box_count_unit_cases():
    u = IntervalUnion.from_intervals([(0, Fraction(1, 3)), (Fraction(2, 3), 1)])
    assert grid_box_count(u, Fraction(1, 3)) == 2
    assert grid_box_count(u, Fraction(1, 9)) == 6
    full = IntervalUnion.from_intervals([(0, 1)])
    assert grid_box_count(full, Fraction(1, 8)) == 8
    point = IntervalUnion.from_intervals([(Fraction(1, 2), Fraction(1, 2))])
    assert grid_box_count(point, Fraction(1, 4)) == 1


@pytest.mark.parametrize("union, size", [
    (lambda: uq_cover(qstar(), 6), lambda: Fraction(1, 8)),
    (lambda: IntervalUnion.from_intervals([(0, 1)]), lambda: 1 / as_scalar(qstar())),
], ids=["field-element-endpoints", "field-element-size"])
def test_grid_box_count_refuses_field_elements(union, size):
    with pytest.raises(FractarithError,
                       match="^grid box counts require rational endpoints and box size$"):
        grid_box_count(union(), size())


def test_uq_product_counts_trend_rows():
    counts = uq_product_counts(Q19, parse("x*y"), range(2, 6))
    assert [k for k, _ in counts] == [2, 3, 4, 5]
    assert all(n > 0 for _, n in counts)
    est = box_dim_estimate(counts, 1 / Q19)
    assert isinstance(est, DimEstimate)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def test_write_intervals_csv(tmp_path):
    path = tmp_path / "intervals.csv"
    write_intervals_csv(str(path), merged_cylinders(C, 2))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lo,hi"
    assert len(lines) == 5
    assert lines[1] == "0,1/9"


def test_write_counts_csv(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts_csv(str(path), [(4, 16), (5, 32)])
    lines = path.read_text().strip().splitlines()
    assert lines == ["rank,count", "4,16", "5,32"]


def test_write_union_svg(tmp_path):
    path = tmp_path / "cover.svg"
    write_union_svg(str(path), [(k, merged_cylinders(C, k)) for k in range(1, 4)])
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<rect") == 2 + 4 + 8
