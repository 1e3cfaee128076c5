"""Certified containment of closed intervals in f(K1, K2).

The decision procedure has two layers:

* a pointwise three-way ratio test (lower bound < |df/dy / df/dx| < upper
  bound) reported as a ConditionReport, and

* a rectangle certifier that verifies, with exact arithmetic, scale-free
  chaining inequalities strong enough to glue the images of all deeper
  cylinder grids into one closed interval.  The inequalities are non-strict:
  bounding the partials uniformly over the whole rectangle removes the
  asymptotic slack a pointwise-limit argument would need, and lets exact
  ties (touching pieces, as in the Cantor sumset) chain into closed
  intervals.

A Certificate carries everything needed to replay the check from its
serialized form alone.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from typing import Sequence

from ._value import Value, setfield
from .errors import (CertificationFailure, DomainError, ExhaustedDepth,
                     FractarithError, MarginNegative, PointRefuted, ResourceBudget,
                     SignIndefinite, decimal_up)
from .exactnum import (FieldElement, Interval, Scalar, TripleInterval, narrow_enclosure,
                       rat_from_str, scalar_sign, scalar_to_obj, scalar_to_str)
from .exprfn import (Expr, GradEnclosure, compile_expr, grad_enclosure, grid_values,
                     parse, to_text)
from .ifs_core import Code, CodeWalk, HomogeneousIfs, Word, get_budget

FORMAT_TAG = "fractarith-cert-v1"

_INF = float("inf")


class SignCase(Value):
    """Signs of the two partials over a rectangle, each +1 or -1."""

    __slots__ = ("sx", "sy")

    def __init__(self, sx: int, sy: int):
        setfield(self, "sx", sx)
        setfield(self, "sy", sy)

    def __str__(self) -> str:
        return ("+" if self.sx > 0 else "-") + ("+" if self.sy > 0 else "-")


class ConditionReport(Value):
    """Outcome of the pointwise ratio condition over one cylinder rectangle.
    upper_bound is math.inf when the second set is gapless; holds is "yes",
    "no" or "undecided"."""

    __slots__ = ("ratio_enclosure", "lower_bound", "upper_bound", "holds")

    def __init__(self, ratio_enclosure: Interval, lower_bound: Scalar, upper_bound,
                 holds: str):
        setfield(self, "ratio_enclosure", ratio_enclosure)
        setfield(self, "lower_bound", lower_bound)
        setfield(self, "upper_bound", upper_bound)
        setfield(self, "holds", holds)

    def to_obj(self) -> dict:
        return {
            "ratio": self.ratio_enclosure.to_obj(),
            "lower_bound": scalar_to_obj(self.lower_bound),
            "upper_bound": scalar_to_obj(self.upper_bound),
            "holds": self.holds,
        }


class Certificate(Value):
    """Replayable proof that certified_interval is contained in f(K1, K2)
    restricted to the cylinder rectangle word1 x word2.

    Margins are the scale-free chaining slacks of the recorded orientation:
    "k1-blocks" chains the second set's digits inside a first-set block,
    "k2-blocks" is the transpose.  Both margins are non-negative in a valid
    certificate, and the interval endpoints are f at the monotone-extreme
    corners of the rectangle, which are attractor points.
    """

    __slots__ = ("ifs1", "ifs2", "f", "word1", "word2", "sign_case", "grad",
                 "orientation", "m_row", "m_gap", "certified_interval")

    def __init__(self, ifs1: HomogeneousIfs, ifs2: HomogeneousIfs, f: Expr,
                 word1: Word, word2: Word, sign_case: SignCase, grad: GradEnclosure,
                 orientation: str, m_row: Scalar, m_gap: Scalar,
                 certified_interval: Interval):
        setfield(self, "ifs1", ifs1)
        setfield(self, "ifs2", ifs2)
        setfield(self, "f", f)
        setfield(self, "word1", word1)
        setfield(self, "word2", word2)
        setfield(self, "sign_case", sign_case)
        setfield(self, "grad", grad)
        setfield(self, "orientation", orientation)  # "k1-blocks" | "k2-blocks"
        setfield(self, "m_row", m_row)
        setfield(self, "m_gap", m_gap)
        setfield(self, "certified_interval", certified_interval)

    def to_obj(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "ifs1": self.ifs1.to_obj(),
            "ifs2": self.ifs2.to_obj(),
            "f": to_text(self.f),
            "word1": list(self.word1),
            "word2": list(self.word2),
            "sign_case": str(self.sign_case),
            "grad": {
                "dx": self.grad.dx.to_obj(),
                "dy": self.grad.dy.to_obj(),
                "rect": [self.grad.rect[0].to_obj(), self.grad.rect[1].to_obj()],
            },
            "orientation": self.orientation,
            "m_row": scalar_to_str(self.m_row),
            "m_gap": scalar_to_str(self.m_gap),
            "certified_interval": self.certified_interval.to_obj(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_obj(obj) -> "Certificate":
        if not isinstance(obj, dict):
            raise FractarithError("a certificate must be a JSON object")
        if obj.get("format") != FORMAT_TAG:
            raise FractarithError(f"unknown certificate format {obj.get('format')!r}")
        missing = [name for name in _CERT_FIELDS if "." not in name and name not in obj]
        if missing:
            raise FractarithError(f"certificate lacks: {', '.join(map(repr, missing))}")
        for name, (kind, ok) in _CERT_FIELDS.items():
            top, _, sub = name.partition(".")
            if not ok(obj[top].get(sub) if sub else obj[top]):
                raise FractarithError(f"certificate field {name!r} must be {kind}")
        grad = obj["grad"]

        def iv(pair) -> Interval:
            return Interval(rat_from_str(pair[0]), rat_from_str(pair[1]))

        sc = obj["sign_case"]
        return Certificate(
            ifs1=HomogeneousIfs.from_obj(obj["ifs1"]),
            ifs2=HomogeneousIfs.from_obj(obj["ifs2"]),
            f=parse(obj["f"]),
            word1=tuple(obj["word1"]),
            word2=tuple(obj["word2"]),
            sign_case=SignCase(1 if sc[0] == "+" else -1, 1 if sc[1] == "+" else -1),
            grad=GradEnclosure(dx=iv(grad["dx"]), dy=iv(grad["dy"]),
                               rect=(iv(grad["rect"][0]), iv(grad["rect"][1]))),
            orientation=obj["orientation"],
            m_row=rat_from_str(obj["m_row"]),
            m_gap=rat_from_str(obj["m_gap"]),
            certified_interval=iv(obj["certified_interval"]),
        )

    @staticmethod
    def from_json(text: str) -> "Certificate":
        return Certificate.from_obj(json.loads(text))


def _is_str_pair(v) -> bool:
    return type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is str


def _is_word(v) -> bool:
    return type(v) is list and set(map(type, v)) <= {int}


# JSON shape of every serialized field, parents before their members:
# (description, test)
_CERT_FIELDS = {
    "ifs1": ("an object", lambda v: type(v) is dict),
    "ifs2": ("an object", lambda v: type(v) is dict),
    "f": ("a string", lambda v: type(v) is str),
    "word1": ("a list of integers", _is_word),
    "word2": ("a list of integers", _is_word),
    "sign_case": ("one of '++', '+-', '-+', '--'", lambda v: v in ("++", "+-", "-+", "--")),
    "grad": ("an object", lambda v: type(v) is dict),
    "grad.dx": ("a pair of strings", _is_str_pair),
    "grad.dy": ("a pair of strings", _is_str_pair),
    "grad.rect": ("a pair of string pairs",
                  lambda v: type(v) is list and len(v) == 2 and all(map(_is_str_pair, v))),
    "orientation": ("a string", lambda v: type(v) is str),
    "m_row": ("a string", lambda v: type(v) is str),
    "m_gap": ("a string", lambda v: type(v) is str),
    "certified_interval": ("a pair of strings", _is_str_pair),
}


# ---------------------------------------------------------------------------
# Pointwise condition
# ---------------------------------------------------------------------------

def require_shared_ratio(k1: HomogeneousIfs, k2: HomogeneousIfs) -> None:
    """The chaining inequalities are scale-free only when both systems
    contract by the same ratio; everything here assumes that."""
    try:
        same = k1.ratio == k2.ratio
    except FractarithError:
        same = False
    if not same:
        raise FractarithError(
            f"the two systems must share one contraction ratio "
            f"(got {k1.ratio} and {k2.ratio})")


def condition_bounds(k1: HomogeneousIfs, k2: HomogeneousIfs) -> tuple[Scalar, object]:
    """(kappa1/(d-c), ratio*(b-a)/kappa2); upper bound infinite when the
    second set has no gaps."""
    require_shared_ratio(k1, k2)
    p1 = k1.gap_profile()
    p2 = k2.gap_profile()
    lower = p1.kappa / p2.width
    if scalar_sign(p2.kappa) == 0:
        return lower, _INF
    return lower, p1.piece / p2.kappa


def check_pointwise(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr,
                    point: tuple, depth: int) -> ConditionReport:
    """Pointwise three-way ratio test, with the ratio enclosed over the
    rank-`depth` cylinder rectangle containing the point; the df/dx
    enclosure there must exclude 0."""
    w1 = k1.locate(point[0], depth)
    w2 = k2.locate(point[1], depth)
    rect = (k1.basic_interval(w1), k2.basic_interval(w2))
    grad = grad_enclosure(f, rect)
    if grad.dx.contains_zero():
        raise SignIndefinite(f"df/dx enclosure {grad.dx} contains 0 on {rect}")
    ratio = grad.dy.abs() / grad.dx.abs()
    lower, upper = condition_bounds(k1, k2)
    if lower < ratio.lo and (upper == _INF or ratio.hi < upper):
        holds = "yes"
    elif not (lower < ratio.hi) or (upper != _INF and not (ratio.lo < upper)):
        holds = "no"
    else:
        holds = "undecided"
    return ConditionReport(ratio_enclosure=ratio, lower_bound=lower,
                           upper_bound=upper, holds=holds)


class GlobalConditionReport(Value):
    __slots__ = ("holds", "lambda_b_minus_a", "kappa2", "kappa1", "d_minus_c")

    def __init__(self, holds: bool, lambda_b_minus_a: Scalar, kappa2: Scalar,
                 kappa1: Scalar, d_minus_c: Scalar):
        setfield(self, "holds", holds)
        setfield(self, "lambda_b_minus_a", lambda_b_minus_a)
        setfield(self, "kappa2", kappa2)
        setfield(self, "kappa1", kappa1)
        setfield(self, "d_minus_c", d_minus_c)

    def to_obj(self) -> dict:
        return {
            "holds": self.holds,
            "lambda*(b-a)": scalar_to_obj(self.lambda_b_minus_a),
            "kappa2": scalar_to_obj(self.kappa2),
            "kappa1": scalar_to_obj(self.kappa1),
            "d-c": scalar_to_obj(self.d_minus_c),
        }


def check_global_condition(k1: HomogeneousIfs, k2: HomogeneousIfs) -> GlobalConditionReport:
    """Global strict condition: lambda*(b-a) > kappa2 and kappa1 < d-c."""
    require_shared_ratio(k1, k2)
    p1 = k1.gap_profile()
    p2 = k2.gap_profile()
    holds = (p2.kappa < p1.piece) and (p1.kappa < p2.width)
    return GlobalConditionReport(holds=holds, lambda_b_minus_a=p1.piece, kappa2=p2.kappa,
                                 kappa1=p1.kappa, d_minus_c=p2.width)


# ---------------------------------------------------------------------------
# Sign cases
# ---------------------------------------------------------------------------

def _indefinite(dx: Interval, dy: Interval) -> SignIndefinite:
    return SignIndefinite(f"gradient enclosure dx={dx}, dy={dy} contains 0")


def sign_case_of(grad: GradEnclosure) -> SignCase:
    if grad.dx.contains_zero() or grad.dy.contains_zero():
        raise _indefinite(grad.dx, grad.dy)
    return SignCase(sx=1 if grad.dx.strictly_positive() else -1,
                    sy=1 if grad.dy.strictly_positive() else -1)


def _triple_sign(t: tuple[int, int, int]) -> int:
    """The sign of every point of the triple's interval, 0 if it holds 0."""
    return 1 if t[0] > 0 else -1 if t[1] < 0 else 0


def _extremes(lo, hi, s: int) -> tuple:
    """The ends of [lo, hi] where a function increasing (s > 0) or
    decreasing (s < 0) in that variable is smallest, then largest."""
    return (lo, hi) if s > 0 else (hi, lo)


# ---------------------------------------------------------------------------
# Rectangle certification
# ---------------------------------------------------------------------------

def _initial_grid_chains(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr,
                         w1: Word, w2: Word, sign_case: SignCase) -> None:
    """For words of unequal rank, verify that the union of cell images at the
    equalized starting rank is one interval.  f is monotone on every cell
    with the signs of sign_case, so each cell's image runs from f at one
    corner to f at the opposite one (exact corner comparisons).

    Image endpoints are enclosures of f at the exact corner points, so
    irrational corner values are compared by their outward enclosures, which
    only ever under-approximates connectivity (inward-safe)."""
    k0 = max(len(w1), len(w2))
    if len(w1) == len(w2):
        return
    budget = get_budget()
    xs = k1.cylinders(k0, within=w1)
    ys = k2.cylinders(k0, within=w2)
    if len(xs) * len(ys) > budget:
        raise ResourceBudget(f"{len(xs)}x{len(ys)} starting cells exceed budget")
    x_ends = [_extremes(ix.lo, ix.hi, sign_case.sx) for ix in xs]
    y_ends = [_extremes(iy.lo, iy.hi, sign_case.sy) for iy in ys]
    lo_corners = grid_values(f, [Interval.point(a) for a, _ in x_ends],
                             [Interval.point(a) for a, _ in y_ends])
    hi_corners = grid_values(f, [Interval.point(b) for _, b in x_ends],
                             [Interval.point(b) for _, b in y_ends])
    cells = list(zip(lo_corners, hi_corners))
    cells.sort(key=lambda c: (c[0].lo, c[1].lo))
    reach = cells[0][1].lo
    for lo_enc, hi_enc in cells[1:]:
        if reach < lo_enc.hi:
            raise MarginNegative("initial-rank seam", reach - lo_enc.hi)
        if reach < hi_enc.lo:
            reach = hi_enc.lo


def _terms(k1: HomogeneousIfs, k2: HomogeneousIfs) -> tuple[tuple, tuple]:
    """Each system's rank-1 piece width, hull width and largest gap (see
    GapProfile) as (numerator, denominator) pairs: integers read off the
    integer walk's steps when both systems are rational, so that the
    margins run on integers and no GapProfile is built, and (x, 1) from the
    gap profile otherwise."""
    if k1.rational and k2.rational:
        return _integer_terms(k1), _integer_terms(k2)
    return tuple(tuple((v, 1) for v in (p.piece, p.width, p.kappa))
                 for p in (k1.gap_profile(), k2.gap_profile()))


def _integer_terms(k: HomogeneousIfs) -> tuple:
    """The rational system's _terms over b*D, for ratio a/b, hull width W*D
    over D and steps S_d = (t_d - t_1)*D (see HomogeneousIfs._integer_steps):
    a piece is a*W, the hull b*W, and the gap after piece i is
    b*(S_{i+1} - S_i) - a*W where that is positive."""
    a, b, d, _, width, steps = k._integer_steps()
    piece, den = a * width, b * d
    kappa = max(b * (t - s) - piece for s, t in zip(steps, steps[1:]))
    return (piece, den), (b * width, den), (max(kappa, 0), den)


def _slack(a: tuple, u: tuple, b: tuple, v: tuple) -> tuple:
    """a*u - b*v for (numerator, denominator) pairs, as such a pair.  No gcd
    is taken; over equal denominators, as on the scalar path's 1s, the
    products are subtracted as they stand."""
    left, dl = a[0] * u[0], a[1] * u[1]
    right, dr = b[0] * v[0], b[1] * v[1]
    if dl == dr:
        return left - right, dl
    return left * dr - right * dl, dl * dr


def _scalar(pair: tuple) -> Scalar:
    """The value of a (numerator, denominator) pair: a Fraction for integers,
    the numerator itself (over 1) for a scalar."""
    n, d = pair
    return Fraction(n, d) if isinstance(n, int) else n


def _margins(t1: tuple, t2: tuple, dx: tuple, dy: tuple) -> dict[str, tuple[tuple, tuple]]:
    """Scale-free chaining slacks for both nesting orientations, each an
    (m_row, m_gap) of (numerator, denominator) pairs.  t1 and t2 are the
    systems' _terms, and dx and dy the triples (lo, hi, d) of enclosures of
    the sizes |df/dx| and |df/dy|, each end over d.  The inequalities read
    the same in every sign case, since they depend on the sets only through
    their rank-1 piece widths, hull widths and largest gaps."""
    (piece1, width1, kappa1), (piece2, width2, kappa2) = t1, t2
    xlo, xhi, ylo, yhi = (dx[0], dx[2]), (dx[1], dx[2]), (dy[0], dy[2]), (dy[1], dy[2])
    return {
        "k1-blocks": (_slack(piece1, xlo, kappa2, yhi), _slack(width2, ylo, kappa1, xhi)),
        "k2-blocks": (_slack(piece2, ylo, kappa1, xhi), _slack(width1, xlo, kappa2, yhi)),
    }


def certify_rectangle(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr,
                      word1: Sequence[int], word2: Sequence[int]) -> Certificate:
    """Certify that f over the cylinder rectangle word1 x word2 is exactly
    the closed interval between its monotone-extreme corner values.

    Checks, with exact arithmetic: sign-definite partial enclosures over the
    rectangle; the within-block chaining slack m_row and the gap-crossing
    slack m_gap, both >= 0 for the partials' sizes, for at least one nesting
    orientation; and, when the words have unequal rank, that the starting
    grid of equalized-rank cells glues into one interval.  The sign case
    picks, per variable, the ends of the rectangle where f is smallest and
    largest.  Failure names the first violated inequality with its exact
    margin.
    """
    require_shared_ratio(k1, k2)
    word1, word2 = tuple(word1), tuple(word2)
    return _certify(k1, k2, f, word1, word2,
                    (k1.basic_interval(word1), k2.basic_interval(word2)), _terms(k1, k2))


def _certify(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr, word1: Word, word2: Word,
             rect: tuple[Interval, Interval], terms: tuple[tuple, tuple]) -> Certificate:
    """certify_rectangle, given the rectangle of word1 x word2, the
    systems' basic intervals, and the systems' _terms.

    Over two rational systems the rectangle's sides are TripleIntervals,
    and the partials, their signs, the margins and the corner values are
    decided on integer triples.  Fractions are formed only for what leaves:
    the fields of the certificate, the margin of a MarginNegative and the
    enclosures of a SignIndefinite.  Otherwise the partials are Intervals of
    scalars, and the margins run over them as pairs over 1."""
    program = compile_expr(f)
    rational = k1.rational and k2.rational
    # DomainError if f or a partial is undefined somewhere on the rectangle
    if rational:
        tx, ty = rect[0].triple, rect[1].triple
        dx, dy = program.gradient_triples(tx, ty, with_f=True)
        sx, sy = _triple_sign(dx), _triple_sign(dy)
        if not (sx and sy):
            raise _indefinite(TripleInterval(dx), TripleInterval(dy))
        sign_case = SignCase(sx, sy)
        sizes = [t if s > 0 else (-t[1], -t[0], t[2]) for t, s in ((dx, sx), (dy, sy))]
    else:
        grad = program.gradient(*rect, with_f=True)
        sign_case = sign_case_of(grad)
        sizes = [(a.lo, a.hi, 1) for a in (grad.dx.abs(), grad.dy.abs())]

    margins = _margins(*terms, *sizes)
    orientation = None
    for name in ("k1-blocks", "k2-blocks"):
        m_row, m_gap = margins[name]
        if scalar_sign(m_row[0]) >= 0 and scalar_sign(m_gap[0]) >= 0:
            orientation = name
            break
    if orientation is None:
        m_row, m_gap = margins["k1-blocks"]
        if scalar_sign(m_row[0]) < 0:
            raise MarginNegative("m_row", _scalar(m_row))
        raise MarginNegative("m_gap", _scalar(m_gap))
    m_row, m_gap = margins[orientation]

    _initial_grid_chains(k1, k2, f, word1, word2, sign_case)

    # inward rounding keeps the certified interval inside the true image:
    # f's enclosure at the smallest corner's upper end, at the largest one's
    # lower end
    if rational:
        (xlo, xhi, xd), (ylo, yhi, yd) = tx, ty
        x_min, x_max = _extremes(xlo, xhi, sign_case.sx)
        y_min, y_max = _extremes(ylo, yhi, sign_case.sy)
        _, lo_n, lo_d = program.value_triple((x_min, x_min, xd), (y_min, y_min, yd))
        hi_n, _, hi_d = program.value_triple((x_max, x_max, xd), (y_max, y_max, yd))
        if hi_n * lo_d < lo_n * hi_d:
            raise CertificationFailure("rectangle too small to certify after rounding")
        certified = TripleInterval((lo_n * hi_d, hi_n * lo_d, lo_d * hi_d))
        grad = GradEnclosure(dx=TripleInterval(dx), dy=TripleInterval(dy), rect=rect)
    else:
        x_min, x_max = _extremes(rect[0].lo, rect[0].hi, sign_case.sx)
        y_min, y_max = _extremes(rect[1].lo, rect[1].hi, sign_case.sy)
        lo_val = program.value(Interval.point(x_min), Interval.point(y_min)).hi
        hi_val = program.value(Interval.point(x_max), Interval.point(y_max)).lo
        if hi_val < lo_val:
            raise CertificationFailure("rectangle too small to certify after rounding")
        certified = Interval(lo_val, hi_val)

    return Certificate(ifs1=k1, ifs2=k2, f=f, word1=word1, word2=word2,
                       sign_case=sign_case, grad=grad, orientation=orientation,
                       m_row=_scalar(m_row), m_gap=_scalar(m_gap),
                       certified_interval=certified)


# ---------------------------------------------------------------------------
# The rational point test
# ---------------------------------------------------------------------------

#: Width of the rational enclosures the point test takes of algebraic values
_POINT_WIDTH = Fraction(1, 2 ** 40)
_WIDTH_PAIR = _POINT_WIDTH.numerator, _POINT_WIDTH.denominator


def _size_bounds(t: tuple[int, int, int]) -> tuple[int, int, int]:
    """The size |v| over the triple's interval, as a triple with the ends
    swapped: the largest size in the lo slot, the smallest (0 when the
    interval holds 0) in the hi slot."""
    lo, hi, d = t
    if lo > 0:
        return hi, lo, d
    if hi < 0:
        return -lo, -hi, d
    return max(-lo, hi), 0, d


class _PointTest:
    """The rational point test of one descent over algebraic data: the
    chaining inequalities at the lower-left corner p of a rectangle, bounded
    from above on integers.

    The exact attempt's gradient enclosure over the rectangle contains
    grad f(p), so its smallest size of a partial is at most that partial's
    size at p, and its largest at least.  Each margin of _margins is
    increasing in the piece, the width and the sizes it takes from below,
    and decreasing in kappa and the sizes it takes from above, so _margins
    over an upper bound of piece and width, a lower bound of kappa (clipped
    at 0, as kappa >= 0) and the sizes of the partials over a box around p
    with their ends swapped bounds every exact margin from above.  When
    both orientations have a negative bound, the exact attempt fails.

    Each algebraic value is enclosed on a private copy of its generator,
    made at first need and then refined once, by bisection, to
    _POINT_WIDTH: the shared generator, on whose state the exact attempts'
    enclosures depend, is never bisected.  An enclosure is the triple of one
    integer Horner pass over the copy's isolating interval, bisecting the
    copy further only while that triple is wider than _POINT_WIDTH
    (narrow_enclosure), and no Fraction is formed.  Each distinct value is
    enclosed once, into a table kept per (generator, numerators,
    denominator): a copy's interval only shrinks, so an enclosure stays one.
    The copies and the table live as long as the test, one descent."""

    __slots__ = ("_program", "_copies", "_triples", "_terms")

    def __init__(self, program, terms: tuple[tuple, tuple]):
        self._program = program
        self._copies = {}
        self._triples = {}
        self._terms = tuple(self._optimistic(*(pair[0] for pair in t)) for t in terms)

    def _triple(self, x: Scalar) -> tuple[int, int, int]:
        """A triple enclosing the scalar, at most _POINT_WIDTH wide."""
        if not isinstance(x, FieldElement):
            return x.numerator, x.numerator, x.denominator
        num, den = x._reduced()
        key = (x.gen, num, den)
        t = self._triples.get(key)
        if t is None:
            gen = self._copies.get(x.gen)
            if gen is None:
                gen = self._copies[x.gen] = copy.copy(x.gen)
                gen.refine(_POINT_WIDTH)
            t = self._triples[key] = narrow_enclosure(num, den, gen, *_WIDTH_PAIR)
        return t

    def _optimistic(self, piece: Scalar, width: Scalar, kappa: Scalar) -> tuple:
        """One system's _terms as (numerator, denominator) pairs: piece and
        width bounded from above, kappa from below."""
        (_, p_hi, p_d), (_, w_hi, w_d), (k_lo, _, k_d) = map(self._triple, (piece, width, kappa))
        return (p_hi, p_d), (w_hi, w_d), (max(k_lo, 0), k_d)

    def refute(self, rect: tuple[Interval, Interval]) -> None:
        """Raise PointRefuted when the upper bound of some margin is negative
        in each orientation; return otherwise, and where f's partials are
        undefined at the corner."""
        try:
            dx, dy = self._program.gradient_triples(self._triple(rect[0].lo),
                                                    self._triple(rect[1].lo))
        except DomainError:
            return
        failing = []
        for name, (m_row, m_gap) in _margins(*self._terms, _size_bounds(dx),
                                             _size_bounds(dy)).items():
            if m_row[0] < 0:
                failing.append((name, "m_row", decimal_up(*m_row)))
            elif m_gap[0] < 0:
                failing.append((name, "m_gap", decimal_up(*m_gap)))
            else:
                return
        raise PointRefuted(failing)


# ---------------------------------------------------------------------------
# The descent
# ---------------------------------------------------------------------------

def auto_certify(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr,
                 point: tuple[Code | CodeWalk, Code | CodeWalk],
                 max_depth: int) -> Certificate:
    """Descend the cylinder pair around the coded point, returning the first
    rank at which certify_rectangle succeeds.  Deterministic.  Both codes
    must address points of their sets: a digit outside an alphabet raises
    InvalidDigit before any descent.  Each rank's words and rectangle are one
    more step of a walk per code, so a descent to rank k costs O(k) maps.  A
    coordinate of the point may be given as the CodeWalk of its code through
    its system, which descents along the same code then share.

    Over algebraic data each rank first runs the rational point test (see
    _PointTest).  A rank it refutes records a PointRefuted and runs no exact
    attempt, which would have failed there; every other rank runs the exact
    attempt, which forms every certificate.  A skipped attempt does not
    refine the shared generator, on whose state later enclosures of
    fractional powers depend (see FieldElement.enclosure).  The test
    encloses on integers, on a copy of the generator refined once for the
    descent, and encloses each distinct value once, in a table that ends
    with the descent."""
    if max_depth < 0:
        raise FractarithError(f"max depth must be non-negative, got {max_depth}")
    walks = [p if isinstance(p, CodeWalk) else CodeWalk(k, p) for k, p in zip((k1, k2), point)]
    if walks[0].ifs is not k1 or walks[1].ifs is not k2:
        raise FractarithError("a walk must run through the system it is certified over")
    require_shared_ratio(k1, k2)
    terms = _terms(k1, k2)
    test = None if k1.rational and k2.rational else _PointTest(compile_expr(f), terms)
    reasons: list[tuple[int, str]] = []
    for k, ((word1, iv1), (word2, iv2)) in zip(range(max_depth + 1), zip(*walks)):
        try:
            if test is not None:
                test.refute((iv1, iv2))
            return _certify(k1, k2, f, word1, word2, (iv1, iv2), terms)
        except (CertificationFailure, DomainError) as exc:
            reasons.append((k, f"{type(exc).__name__}: {exc}"))
    raise ExhaustedDepth(reasons)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay_explain(cert: Certificate) -> tuple[bool, str | None]:
    """Re-derive every certificate field from the primary inputs and compare;
    returns (ok, first failing field)."""
    try:
        fresh = certify_rectangle(cert.ifs1, cert.ifs2, cert.f,
                                  cert.word1, cert.word2)
    except (CertificationFailure, DomainError, FractarithError) as exc:
        return False, f"re-certification failed: {exc}"
    checks = [
        ("sign_case", fresh.sign_case == cert.sign_case),
        ("grad.dx", fresh.grad.dx == cert.grad.dx),
        ("grad.dy", fresh.grad.dy == cert.grad.dy),
        ("grad.rect", fresh.grad.rect == cert.grad.rect),
        ("orientation", fresh.orientation == cert.orientation),
        ("m_row", fresh.m_row == cert.m_row and scalar_sign(cert.m_row) >= 0),
        ("m_gap", fresh.m_gap == cert.m_gap and scalar_sign(cert.m_gap) >= 0),
        ("certified_interval", fresh.certified_interval == cert.certified_interval),
    ]
    for name, ok in checks:
        if not ok:
            return False, name
    return True, None


def replay(cert: Certificate) -> bool:
    """True iff the certificate re-checks bit-exactly from scratch."""
    return replay_explain(cert)[0]
