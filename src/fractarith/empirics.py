"""Brute-force oracles and experiments that arbitrate certifier soundness.

Everything that feeds a verdict (image covers, containment checks) is exact
rational arithmetic end to end; floating point appears only in dimension
estimates, which are explicitly estimates.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Sequence

from ._value import Value, setfield
from .certifier import Certificate
from .errors import DegenerateFit, FractarithError, ResourceBudget
from .exactnum import FieldElement, Interval, IntervalUnion, TripleInterval, merge_triples
from .exprfn import Expr, grid_values, lattice_cover
from .ifs_core import HomogeneousIfs, Word, get_budget
from .qexp import QuasiGreedyStream, as_base


# ---------------------------------------------------------------------------
# Image covers
# ---------------------------------------------------------------------------

def image_cover(k1: HomogeneousIfs, k2: HomogeneousIfs, f: Expr, depth: int,
                x_window: Interval | None = None,
                y_window: Interval | None = None,
                word1: Word = (), word2: Word = ()) -> IntervalUnion:
    """Union over all rank-`depth` cylinder rectangle pairs of the interval
    enclosure of f, merged.  A superset of the true image over the covered
    part of K1 x K2 that shrinks onto it as the depth grows.

    Windows keep only cylinders contained in them; words restrict to
    descendants of fixed cylinders.  Over rational data each axis stays an
    IntervalLattice, on integers from the cylinder walk to the merged union,
    and a variable that occurs once in its hoisted subexpression runs it
    once per merged piece of its axis, not once per cylinder (see
    grid_cover).

    The budget bounds each axis's cylinders (HomogeneousIfs raises at n^k
    of them) and the rectangles paired: the merged pieces of a variable
    that hoists times the other side's, bridged pieces when both variables
    hoist and cylinders otherwise, and the whole grid when neither does
    (see grid_cover).
    """
    budget = get_budget()
    xs = _axis_cylinders(k1, depth, word1, x_window)
    ys = _axis_cylinders(k2, depth, word2, y_window)
    return grid_cover(f, xs, ys, budget)


def _axis_cylinders(k: HomogeneousIfs, depth: int, word: Word,
                    window: Interval | None) -> Sequence[Interval]:
    """The rank-depth cylinders of k below word that lie inside window."""
    if k.rational:
        lattice = k.cylinder_lattice(depth, within=word)
        return lattice if window is None else lattice.within(window)
    ivs = k.cylinders(depth, within=word)
    return ivs if window is None else [iv for iv in ivs if iv.is_subset(window)]


def grid_cover(f: Expr, xs: Sequence[Interval], ys: Sequence[Interval],
               budget: int | None = None) -> IntervalUnion:
    """The union of the enclosures of f over the rectangles of xs x ys,
    merged.

    Where every occurrence of a variable, say x, lies in one subtree g in
    x alone (see exprfn._hoist), let s be g's sibling, in y alone, at the
    +, -, * or / node o above it.  Every node between g and the root
    combines it with a constant or a subtree in y, so over one Y_j they
    form a chain F_j of operations with fixed operands, each giving the
    exact image of its operand or, for a fractional power, rounding an
    image's ends outward as it rounds each rectangle's (an end's bounds
    depend on its value alone and grow with it).  A rectangle's enclosure
    is F_j(g(X_i)), so

        U_ij f(X_i, Y_j) = U_j F_j(U_i g(X_i))

    Over rational data lattice_cover merges g's values on integer triples.
    When x occurs once in g, it first merges the x-axis, so that g runs
    once per merged piece: each node of g has x in one operand at most, so
    g's enclosure over a connected piece is its exact image, or for a
    fractional power that image with rounded ends as above, and over
    overlapping pieces the enclosures overlap and that over their union is
    the union of theirs.  So U_i g(X_i) is unchanged, and a node fails on a
    merged piece just when it fails on some closed X_i inside it.  Where x
    occurs twice, as in x - x^2, a merged piece would widen g, so g runs
    per cylinder.  Each gap [u, v] of g's union A is then closed that
    s(Y_j) spans for every j: for +, v - u <= d - c for [c, d] = s(Y_j)
    gives (A U [u, v]) + [c, d] = A + [c, d], the gap lemma behind
    Newhouse's thickness theorem and Simon and Taylor's tau1*tau2 >= 1 (for
    * and / either way round, v*c <= u*d over nonnegative sides).  f with g
    replaced by x then runs over those pieces times the Y_j.  When y hoists
    too, f is outer(g(x) o h(y)) with s = h and only constants in outer, so
    the union is outer(A o U_j h(Y_j)): h's values are merged as well, by
    the same rule for y, and each side's gaps that the other side's pieces
    span are closed, alternately, until neither changes (closing is
    monotone in both sides, so the order does not matter).  Otherwise the
    gauge reads s per Y_j, on the unmerged y-axis, since its merged pieces
    are wider and would close gaps that a row keeps.  The budget (None for
    none) counts the rectangles paired, so Cantor x+y at any depth pairs
    one piece with one.  A DomainError there falls back to the whole grid:
    a rectangle that fails also fails on the wider piece that holds it, so
    the grid raises its first failing rectangle's error.

    Any other f runs its compiled code column-wise over the grid, once per
    interval for what uses one variable and per rectangle for what uses
    both: on integer triples over rational data, merged once by
    merge_triples, and on Interval operations over field elements
    (grid_values), merged by IntervalUnion.from_intervals; the budget
    counts the whole grid, before any evaluation.  The union, or the first
    failing rectangle's error, is the same on every path."""
    lattice = lattice_cover(f, xs, ys, budget)
    if lattice is None:
        return IntervalUnion.from_intervals((enc.lo, enc.hi) for enc in grid_values(f, xs, ys))
    return IntervalUnion.from_merged_triples(merge_triples(lattice))


def oscillation_radius(cert: Certificate, depth: int) -> Fraction:
    """Rigorous bound on how far f moves across one rank-`depth` cell:
    lambda^depth * (max|dx|*(b-a) + max|dy|*(d-c))."""
    w1 = cert.ifs1.convex_hull().width()
    w2 = cert.ifs2.convex_hull().width()
    dxm = cert.grad.dx.abs().hi
    dym = cert.grad.dy.abs().hi
    return (cert.ifs1.ratio ** depth * dxm * w1
            + cert.ifs2.ratio ** depth * dym * w2)


def oracle_check(cert: Certificate, depth: int) -> bool:
    """Independent containment check of a certificate against the brute-force
    cover of its own cylinder rectangle, inflated by the rigorous
    oscillation radius.  False is a soundness alarm."""
    if depth < max(len(cert.word1), len(cert.word2)):
        raise FractarithError("oracle depth must reach the certificate words")
    cover = image_cover(cert.ifs1, cert.ifs2, cert.f, depth,
                        word1=cert.word1, word2=cert.word2)
    inflated = cover.inflate(oscillation_radius(cert, depth))
    return inflated.contains_interval(cert.certified_interval)


# ---------------------------------------------------------------------------
# Univoque-set covers
# ---------------------------------------------------------------------------

def _union(a: list, b: list) -> list:
    """The union of two sorted lists of disjoint, non-touching closed
    pieces, in the same form.  Two pieces of one list never meet, so a
    piece is compared with the last one out only when that one's right end
    came from the other list."""
    out: list = []
    src = -1  # the list that gave out[-1] its right end
    i = j = 0
    na, nb = len(a), len(b)
    while i < na or j < nb:
        if j == nb or (i < na and not (b[j][0] < a[i][0])):
            piece, s = a[i], 0
            i += 1
        else:
            piece, s = b[j], 1
            j += 1
        if s == src or not out or out[-1][1] < piece[0]:
            out.append(piece)
            src = s
        elif out[-1][1] < piece[1]:
            out[-1] = (out[-1][0], piece[1])
            src = s
    return out


def uq_cover(q, depth: int) -> IntervalUnion:
    """Superset of the univoque set: the union of [v, v + q^-depth/(q-1)]
    over the binary prefixes of length depth that survive the
    lexicographic conditions against the computed quasi-greedy window, v
    being the prefix's value.  At a 0 digit the following digits may not
    exceed eta, the quasi-greedy expansion of 1, and at a 1 digit their
    complements may not.

    The conditions run as an automaton.  A prefix's state is the tuple of
    its positions whose condition is still tied with eta over all the
    digits after them, each as (age, digit) with age the number of digits
    after it; a new digit is compared only at those positions, and a
    position leaves the state for good once its digits fall below eta (or
    eta's budget runs out).  The transitions of a state depend on eta
    alone, so each state is interned once as an integer and its successors
    s0 and s1 on 0 and 1 are tabulated the first time it is met.

    A forward pass counts the prefixes in each state at each length and
    raises ResourceBudget at the first length whose survivors exceed the
    budget.  A backward pass then merges, for each state s met at length n,
    the union of the pieces its surviving continuations reach:

        U_depth(s) = [0, q^-depth / (q - 1)]
        U_n(s) = U_{n+1}(s0) | (U_{n+1}(s1) + q^-(n+1))

    over the successors that survive.  The cover is U_0 of the empty
    prefix, and the work scales with merged pieces, not with prefixes.  For
    a rational base a/b the endpoints are integers over a^depth * (a - b),
    otherwise exact field elements.
    """
    if depth < 0:
        raise FractarithError("depth must be non-negative")
    q = as_base(q)
    budget = get_budget()
    eta = QuasiGreedyStream(q)
    keys: list[tuple[tuple[int, int], ...]] = [()]  # state id -> tied positions
    ids = {(): 0}
    table: list[tuple[int, int] | None] = [None]  # successor ids, -1 if refuted

    def successor(tied, d: int) -> int:
        still_tied = []
        for age, flip in tied:
            e = eta.digit(age)
            c = d ^ flip
            if e is None or c < e:
                continue
            if c > e:
                return -1
            still_tied.append((age + 1, flip))
        still_tied.append((0, d))
        key = tuple(still_tied)
        sid = ids.get(key)
        if sid is None:
            sid = ids[key] = len(keys)
            keys.append(key)
            table.append(None)
        return sid

    levels = [{0: 1}]  # per length: state id -> prefixes in that state
    for _ in range(depth):
        counts: dict[int, int] = {}
        for sid, n in levels[-1].items():
            succ = table[sid]
            if succ is None:
                succ = table[sid] = (successor(keys[sid], 0), successor(keys[sid], 1))
            for s in succ:
                if s >= 0:
                    counts[s] = counts.get(s, 0) + n
        total = sum(counts.values())
        if total > budget:
            raise ResourceBudget(f"{total} surviving prefixes exceed budget")
        levels.append(counts)

    rational = isinstance(q, Fraction)
    if rational:
        a, b = q.numerator, q.denominator
        # q^-n over a^depth * (a - b)
        steps = [b ** n * a ** (depth - n) * (a - b) for n in range(1, depth + 1)]
        tail = b ** (depth + 1)
    else:
        inv = 1 / q
        steps = list(accumulate(repeat(inv, depth), mul))  # q^-n
        tail = inv ** depth / (q - 1)
    unions = dict.fromkeys(levels[depth], ((0, tail),))
    for n in range(depth - 1, -1, -1):
        p = steps[n]
        merged = {}
        for sid in levels[n]:
            s0, s1 = table[sid]
            shifted = [(lo + p, hi + p) for lo, hi in unions[s1]] if s1 >= 0 else []
            merged[sid] = _union(unions[s0], shifted) if s0 >= 0 else shifted
        unions = merged
    if rational:  # _union's pieces are sorted, disjoint and non-touching
        den = a ** depth * (a - b)
        return IntervalUnion.from_merged_triples([(lo, hi, den) for lo, hi in unions[0]])
    return IntervalUnion.from_intervals(unions[0])


# ---------------------------------------------------------------------------
# Box-counting dimension estimates
# ---------------------------------------------------------------------------

class DimEstimate(Value):
    """Least-squares slope of log N_k against -k*log(lambda), with the RMS
    residual as an honesty metric."""

    __slots__ = ("counts", "slope", "residual")

    def __init__(self, counts: tuple[tuple[int, int], ...], slope: float, residual: float):
        setfield(self, "counts", counts)
        setfield(self, "slope", slope)
        setfield(self, "residual", residual)


def box_dim_estimate(counts: Iterable[tuple[int, int]], ratio) -> DimEstimate:
    """Fit log N_k = slope * (-k log lambda) + c by least squares."""
    pairs = tuple((int(k), int(n)) for k, n in counts)
    if len(pairs) < 3:
        raise FractarithError("need at least 3 ranks")
    if any(n <= 0 for _, n in pairs):
        raise FractarithError("box counts must be positive")
    if len({n for _, n in pairs}) == 1:
        raise DegenerateFit("constant box counts")
    lam = float(Fraction(ratio)) if not isinstance(ratio, float) else ratio
    xs = [-k * math.log(lam) for k, _ in pairs]
    ys = [math.log(n) for _, n in pairs]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    c = ybar - slope * xbar
    residual = math.sqrt(sum((y - (slope * x + c)) ** 2 for x, y in zip(xs, ys)) / len(xs))
    return DimEstimate(counts=pairs, slope=slope, residual=residual)


def ifs_box_counts(k: HomogeneousIfs, ranks: Iterable[int]) -> list[tuple[int, int]]:
    """Natural-scale box counts: the number of distinct rank-k basic
    intervals (boxes of size lambda^k * hull width, no double counting)."""
    return [(r, k.cylinder_count(r)) for r in ranks]


def grid_box_count(u: IntervalUnion, size: Fraction) -> int:
    """Boxes [j*size, (j+1)*size] needed to cover the union (boundary-only
    touching not counted); exact index arithmetic on the integers of the
    rational endpoints and box size."""
    ends = u.int_ends()
    if ends is None or isinstance(size, FieldElement):
        raise FractarithError("grid box counts require rational endpoints and box size")
    size = Fraction(size)
    if size <= 0:
        raise FractarithError("box size must be positive")
    sn, sd = size.numerator, size.denominator
    count = 0
    last: int | None = None
    for lo, hi, d in ends:
        j_min = lo * sd // (d * sn)  # floor(lo / size)
        # a point piece takes its own box; else the last box is ceil(hi / size) - 1
        j_max = j_min if hi == lo else -(-hi * sd // (d * sn)) - 1
        if last is not None and j_min <= last:
            j_min = last + 1
        if j_max >= j_min:
            count += j_max - j_min + 1
            last = j_max
    return count


def uq_product_counts(q, f: Expr, ranks: Iterable[int]) -> list[tuple[int, int]]:
    """Grid box counts at scale q^-k for covers of f over U_q x U_q built
    from pruned-prefix covers; inspection-grade input for trend tables."""
    q = as_base(q)
    if not isinstance(q, Fraction):
        raise FractarithError("trend tables require a rational base")
    out = []
    for r in ranks:
        # the cover's triples, over uq_cover's one denominator, read by
        # grid_cover as they stand
        cells = [TripleInterval(t) for t in uq_cover(q, r).int_ends()]
        union = grid_cover(f, cells, cells)
        out.append((r, grid_box_count(union, q ** (-r))))
    return out


# ---------------------------------------------------------------------------
# CSV / SVG emission
# ---------------------------------------------------------------------------

def _csv_cell(obj) -> str:
    """An endpoint's JSON value (see scalar_to_obj) as a cell: "p/q" for a
    rational endpoint; for an algebraic one the compact JSON of the
    coefficient vector that the JSON output prints."""
    return obj if isinstance(obj, str) else json.dumps(obj, separators=(",", ":"))


def write_intervals_csv(path: str, u: IntervalUnion) -> None:
    import csv  # imported here: only the CSV writers need it
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lo", "hi"])
        for lo, hi in u.to_obj():
            writer.writerow([_csv_cell(lo), _csv_cell(hi)])


def write_counts_csv(path: str, pairs: Iterable[tuple[int, int]]) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "count"])
        for k, n in pairs:
            writer.writerow([k, n])


def _drawing_position(x) -> float:
    """Decimal position of an endpoint, for drawing only: an algebraic one is
    placed by a rational enclosure of width 10^-9."""
    if isinstance(x, FieldElement):
        lo, hi = x.enclosure(Fraction(1, 10 ** 9))
        return float((lo + hi) / 2)
    return float(Fraction(x))


def write_union_svg(path: str, unions_by_rank: Sequence[tuple[int, IntervalUnion]]) -> None:
    """Horizontal bar stacks, one row per rank."""
    width, row_height = 800, 24  # pixels
    if not unions_by_rank:
        raise FractarithError("nothing to draw")
    hulls = [u.hull() for _, u in unions_by_rank if not u.is_empty()]
    if not hulls:
        raise FractarithError("all unions empty")
    lo = min(_drawing_position(h.lo) for h in hulls)
    hi = max(_drawing_position(h.hi) for h in hulls)
    span = (hi - lo) or 1.0
    height = row_height * len(unions_by_rank)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for row, (rank, u) in enumerate(unions_by_rank):
        y = row * row_height + 4
        lines.append(f'<text x="2" y="{y + row_height // 2}" font-size="10">k={rank}</text>')
        for seg_lo, seg_hi in u:
            x0 = 40 + (_drawing_position(seg_lo) - lo) / span * (width - 48)
            x1 = 40 + (_drawing_position(seg_hi) - lo) / span * (width - 48)
            w = max(x1 - x0, 0.5)
            lines.append(
                f'<rect x="{x0:.2f}" y="{y}" width="{w:.2f}" '
                f'height="{row_height - 8}" fill="#336699"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
