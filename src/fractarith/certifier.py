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

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import (CertificationFailure, DomainError, ExhaustedDepth,
                     FractarithError, MarginNegative, ResourceBudget,
                     SignIndefinite)
from .exactnum import (Interval, Scalar, rat_from_str, scalar_sign,
                       scalar_to_obj, scalar_to_str)
from .exprfn import (Expr, GradEnclosure, eval_grid, eval_interval, eval_point,
                     grad_enclosure, parse, to_text)
from .ifs_core import Code, HomogeneousIfs, Word, get_budget, locate

FORMAT_TAG = "fractarith-cert-v1"

_INF = float("inf")


@dataclass(frozen=True)
class SignCase:
    """Signs of the two partials over a rectangle, each +1 or -1."""

    sx: int
    sy: int

    def __str__(self) -> str:
        return ("+" if self.sx > 0 else "-") + ("+" if self.sy > 0 else "-")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the pointwise ratio condition over one cylinder rectangle."""

    ratio_enclosure: Interval
    lower_bound: Scalar
    upper_bound: object  # Scalar, or math.inf when the second set is gapless
    holds: str  # "yes" | "no" | "undecided"

    def to_obj(self) -> dict:
        return {
            "ratio": self.ratio_enclosure.to_obj(),
            "lower_bound": scalar_to_obj(self.lower_bound),
            "upper_bound": scalar_to_obj(self.upper_bound),
            "holds": self.holds,
        }


@dataclass(frozen=True)
class Certificate:
    """Replayable proof that certified_interval is contained in f(K1, K2)
    restricted to the cylinder rectangle word1 x word2.

    Margins are the scale-free chaining slacks of the recorded orientation:
    "k1-blocks" chains the second set's digits inside a first-set block,
    "k2-blocks" is the transpose.  Both margins are non-negative in a valid
    certificate, and the interval endpoints are f at the monotone-extreme
    corners of the rectangle, which are attractor points.
    """

    ifs1: HomogeneousIfs
    ifs2: HomogeneousIfs
    f: Expr
    word1: Word
    word2: Word
    sign_case: SignCase
    grad: GradEnclosure
    orientation: str  # "k1-blocks" | "k2-blocks"
    m_row: Scalar
    m_gap: Scalar
    certified_interval: Interval

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
    lower = p1.kappa / p2.hull.width()
    if scalar_sign(p2.kappa) == 0:
        return lower, _INF
    upper = k1.ratio * p1.hull.width() / p2.kappa
    return lower, upper


def ratio_over_rect(f: Expr, rect: tuple[Interval, Interval]) -> tuple[Interval, GradEnclosure]:
    """|df/dy / df/dx| enclosed over the rectangle; the df/dx enclosure must
    exclude 0."""
    grad = grad_enclosure(f, rect)
    if grad.dx.contains_zero():
        raise SignIndefinite(f"df/dx enclosure {grad.dx} contains 0 on {rect}")
    return grad.dy.abs() / grad.dx.abs(), grad


def check_pointwise(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr,
                    point: tuple, depth: int) -> ConditionReport:
    """Pointwise three-way ratio test, with the ratio enclosed over the
    rank-`depth` cylinder rectangle containing the point."""
    w1 = locate(k1, point[0], depth)
    w2 = locate(k2, point[1], depth)
    rect = (k1.basic_interval(w1), k2.basic_interval(w2))
    ratio, _ = ratio_over_rect(f, rect)
    lower, upper = condition_bounds(k1, k2)
    if lower < ratio.lo and (upper == _INF or ratio.hi < upper):
        holds = "yes"
    elif not (lower < ratio.hi) or (upper != _INF and not (ratio.lo < upper)):
        holds = "no"
    else:
        holds = "undecided"
    return ConditionReport(ratio_enclosure=ratio, lower_bound=lower,
                           upper_bound=upper, holds=holds)


@dataclass(frozen=True)
class GlobalConditionReport:
    holds: bool
    lambda_b_minus_a: Scalar
    kappa2: Scalar
    kappa1: Scalar
    d_minus_c: Scalar

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
    lhs = k1.ratio * p1.hull.width()
    holds = (p2.kappa < lhs) and (p1.kappa < p2.hull.width())
    return GlobalConditionReport(holds=holds, lambda_b_minus_a=lhs, kappa2=p2.kappa,
                      kappa1=p1.kappa, d_minus_c=p2.hull.width())


# ---------------------------------------------------------------------------
# Sign cases
# ---------------------------------------------------------------------------

def sign_case_of(grad: GradEnclosure) -> SignCase:
    if grad.dx.contains_zero() or grad.dy.contains_zero():
        raise SignIndefinite(
            f"gradient enclosure dx={grad.dx}, dy={grad.dy} contains 0")
    return SignCase(sx=1 if grad.dx.strictly_positive() else -1,
                    sy=1 if grad.dy.strictly_positive() else -1)


def _extremes(iv: Interval, s: int) -> tuple[Scalar, Scalar]:
    """The ends of iv where a function increasing (s > 0) or decreasing
    (s < 0) in that variable is smallest, then largest."""
    return (iv.lo, iv.hi) if s > 0 else (iv.hi, iv.lo)


# ---------------------------------------------------------------------------
# Rectangle certification
# ---------------------------------------------------------------------------

def _initial_grid_chains(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr,
                         w1: Word, w2: Word, sign_case: SignCase,
                         budget: int) -> None:
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
    xs = k1.cylinders(k0, budget=budget, within=w1)
    ys = k2.cylinders(k0, budget=budget, within=w2)
    if len(xs) * len(ys) > budget:
        raise ResourceBudget(f"{len(xs)}x{len(ys)} starting cells exceed budget")
    x_ends = [_extremes(ix, sign_case.sx) for ix in xs]
    y_ends = [_extremes(iy, sign_case.sy) for iy in ys]
    lo_corners = eval_grid(f, [Interval.point(a) for a, _ in x_ends],
                           [Interval.point(a) for a, _ in y_ends])
    hi_corners = eval_grid(f, [Interval.point(b) for _, b in x_ends],
                           [Interval.point(b) for _, b in y_ends])
    cells = list(zip(lo_corners, hi_corners))
    cells.sort(key=lambda c: (c[0].lo, c[1].lo))
    reach = cells[0][1].lo
    for lo_enc, hi_enc in cells[1:]:
        if reach < lo_enc.hi:
            raise MarginNegative("initial-rank seam", reach - lo_enc.hi)
        if reach < hi_enc.lo:
            reach = hi_enc.lo


def _margins(k1: HomogeneousIfs, k2: HomogeneousIfs,
             dx: Interval, dy: Interval) -> dict[str, tuple[Scalar, Scalar]]:
    """Scale-free chaining slacks for both nesting orientations.  dx and dy
    enclose the sizes |df/dx| and |df/dy|: the inequalities read the same in
    every sign case, since they depend on the sets only through their ratio,
    hull widths and largest gaps."""
    p1 = k1.gap_profile()
    p2 = k2.gap_profile()
    lam = k1.ratio
    w1 = p1.hull.width()
    w2 = p2.hull.width()
    return {
        "k1-blocks": (lam * w1 * dx.lo - p2.kappa * dy.hi,
                      w2 * dy.lo - p1.kappa * dx.hi),
        "k2-blocks": (lam * w2 * dy.lo - p1.kappa * dx.hi,
                      w1 * dx.lo - p2.kappa * dy.hi),
    }


def certify_rectangle(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr,
                      word1: Sequence[int], word2: Sequence[int],
                      budget: int | None = None) -> Certificate:
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
    budget = budget if budget is not None else get_budget()
    require_shared_ratio(k1, k2)
    word1 = tuple(word1)
    word2 = tuple(word2)
    rect = (k1.basic_interval(word1), k2.basic_interval(word2))
    eval_interval(f, *rect)  # DomainError if f itself is undefined somewhere
    grad = grad_enclosure(f, rect)  # likewise for the partials
    sign_case = sign_case_of(grad)

    margins = _margins(k1, k2, grad.dx.abs(), grad.dy.abs())
    orientation = None
    for name in ("k1-blocks", "k2-blocks"):
        m_row, m_gap = margins[name]
        if scalar_sign(m_row) >= 0 and scalar_sign(m_gap) >= 0:
            orientation = name
            break
    if orientation is None:
        m_row, m_gap = margins["k1-blocks"]
        if scalar_sign(m_row) < 0:
            raise MarginNegative("m_row", m_row)
        raise MarginNegative("m_gap", m_gap)
    m_row, m_gap = margins[orientation]

    _initial_grid_chains(k1, k2, f, word1, word2, sign_case, budget)

    x_min, x_max = _extremes(rect[0], sign_case.sx)
    y_min, y_max = _extremes(rect[1], sign_case.sy)
    # inward rounding keeps the certified interval inside the true image
    lo_val = eval_point(f, x_min, y_min).hi
    hi_val = eval_point(f, x_max, y_max).lo
    if hi_val < lo_val:
        raise CertificationFailure("rectangle too small to certify after rounding")
    certified = Interval(lo_val, hi_val)

    return Certificate(ifs1=k1, ifs2=k2, f=f, word1=word1, word2=word2,
                       sign_case=sign_case, grad=grad, orientation=orientation,
                       m_row=m_row, m_gap=m_gap, certified_interval=certified)


def auto_certify(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr,
                 point: tuple[Code, Code], max_depth: int,
                 budget: int | None = None) -> Certificate:
    """Descend the cylinder pair around the coded point, returning the first
    rank at which certify_rectangle succeeds.  Deterministic."""
    if max_depth < 0:
        raise FractarithError(f"max depth must be non-negative, got {max_depth}")
    code1, code2 = point
    reasons: list[tuple[int, str]] = []
    for k in range(max_depth + 1):
        try:
            return certify_rectangle(k1, k2, f, code1.prefix(k), code2.prefix(k),
                                     budget=budget)
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
