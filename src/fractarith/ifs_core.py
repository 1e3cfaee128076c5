"""One-dimensional homogeneous self-similar sets.

An IFS here is a contraction ratio 0 < lambda < 1 shared by all maps plus a
strictly sorted list of translations; map i sends x to lambda*x + t_i.  All
geometry (hull, gaps, cylinders) is computed with exact scalars, so set
relations decided downstream are never floating-point artifacts.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import accumulate, chain, cycle, islice, starmap
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from ._value import Value, setfield
from .errors import FractarithError, InvalidDigit, NotInCover, ResourceBudget
from .exactnum import (AlgebraicReal, FieldElement, Interval, IntervalLattice, Scalar,
                       TripleInterval, as_scalar, rat_from_str, scalar_sign, scalar_to_obj)

#: Hard cap on enumerated rectangles/intervals unless overridden.
DEFAULT_BUDGET = 2 ** 24

Word = tuple[int, ...]

_ONE = Fraction(1)  # lambda^0, the scale of the empty word's map


def get_budget() -> int:
    """Enumeration budget: the FRACTARITH_BUDGET env var, a positive
    integer, when set, else DEFAULT_BUDGET.  Each enumeration reads it where
    it is sized."""
    raw = os.environ.get("FRACTARITH_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0  # rejected below with the other non-positive values
    if budget <= 0:
        raise FractarithError(f"bad FRACTARITH_BUDGET value {raw!r}")
    return budget


def _check_rank(k: int) -> None:
    if k < 0:
        raise FractarithError(f"rank must be non-negative, got {k}")
    if k > sys.maxsize:  # no word or sequence can be that long
        raise FractarithError(f"rank {k} exceeds the largest rank {sys.maxsize}")


def parse_word(text: str, source: str = "") -> Word:
    """Digits of "212", or of "2,10,1" for alphabets past 9; a surrounding
    comma is ignored.  A token that is not a decimal number raises
    FractarithError naming it and the source text."""
    digits = text.strip().strip(",")
    tokens = [tok.strip() for tok in digits.split(",")] if "," in digits else list(digits)
    for tok in tokens:
        if not tok.isdecimal():
            raise FractarithError(f"bad digit {tok!r} in {source or f'word {text!r}'}")
    return tuple(map(int, tokens))


class Code(Value):
    """Eventually periodic digit code addressing a point of the attractor."""

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: Word, period: Word):
        if not period:
            raise FractarithError("code period must be nonempty")
        setfield(self, "preperiod", preperiod)
        setfield(self, "period", period)

    def digits(self) -> Iterator[int]:
        """The preperiod, then the period forever, read lazily."""
        return chain(self.preperiod, cycle(self.period))

    def prefix(self, k: int) -> Word:
        _check_rank(k)
        return tuple(islice(self.digits(), k))

    @staticmethod
    def parse(text: str) -> "Code":
        """Parse "21(1)" style text: digits, optional parenthesized period.
        Digits may be comma separated for alphabets past 9.  Without an
        explicit period the last digit repeats forever."""
        text = text.strip()
        head, paren, rest = text.partition("(")
        per, close, tail = rest.partition(")")
        if paren and not close:
            raise FractarithError(f"unclosed period parenthesis in code {text!r}")
        if tail.strip().strip(","):
            raise FractarithError(f"trailing text after period in code {text!r}")
        pre = parse_word(head, f"code {text!r}")
        period = parse_word(per, f"code {text!r}") or ((pre[-1],) if pre else ())
        if not period:
            raise FractarithError("empty code")
        return Code(pre, period)

    def __str__(self) -> str:
        pre = "".join(str(d) for d in self.preperiod)
        per = "".join(str(d) for d in self.period)
        return f"{pre}({per})"


def _append(word: Word, digit: int) -> Word:
    return word + (digit,)


class CodeWalk:
    """The descent of one code through one system: (w, basic interval of w)
    for each prefix w of the code, the empty word first.  A step is computed
    when an iteration first reads it, and kept; every iteration starts at
    rank 0, so descents along the same code share one walk.  Over rational
    data each basic interval is a TripleInterval from the integer walk (see
    HomogeneousIfs.cylinder_walk), so a step forms no Fraction."""

    __slots__ = ("ifs", "_steps", "_kept")

    def __init__(self, ifs: "HomogeneousIfs", code: Code):
        ifs.check_code(code)
        self.ifs = ifs
        self._steps = zip(accumulate(code.digits(), _append, initial=()),
                          ifs.cylinder_walk(code.digits()))
        self._kept: list[tuple[Word, Interval]] = []

    def __iter__(self) -> Iterator[tuple[Word, Interval]]:
        kept = self._kept
        k = 0
        while True:
            if k == len(kept):
                kept.append(next(self._steps))
            yield kept[k]
            k += 1


class GapProfile(Value):
    """Rank-1 geometry: the hull and its width, the width of one rank-1
    piece (ratio * width), which consecutive pieces leave empty space
    between them, and the largest such gap (kappa)."""

    __slots__ = ("hull", "width", "piece", "gap_set", "kappa", "thickness_lb")

    def __init__(self, hull: Interval, width: Scalar, piece: Scalar,
                 gap_set: tuple[tuple[int, Scalar], ...], kappa: Scalar, thickness_lb):
        setfield(self, "hull", hull)
        setfield(self, "width", width)
        setfield(self, "piece", piece)
        # (index i, length of gap after piece i)
        setfield(self, "gap_set", gap_set)
        setfield(self, "kappa", kappa)
        # min over rank-1 gaps of piece/gap, a lower bound on the Newhouse
        # thickness only (one rank-1 gap does not make it exact: the system
        # 1/5; 0, 1/5, 3/5, 4/5 has 1 here and thickness 2); math.inf when
        # gapless
        setfield(self, "thickness_lb", thickness_lb)


class HomogeneousIfs:
    """Homogeneous IFS with exact ratio and translations.

    Translations are strictly increasing after normalization; the first map
    fixes the left hull endpoint and the last map the right one, which is
    automatic for maps of the form x -> lambda*x + t.
    """

    # the derived geometry (hull, gap profile, cylinder steps) is computed on
    # first use and kept: the system never changes, and is asked for it often
    __slots__ = ("ratio", "translations", "rational", "_hull", "_gaps", "_steps", "_ints")

    def __init__(self, ratio, translations: Iterable):
        ratio = as_scalar(ratio)
        ts = tuple(as_scalar(t) for t in translations)
        if scalar_sign(ratio) <= 0 or scalar_sign(1 - ratio) <= 0:
            raise FractarithError("contraction ratio must satisfy 0 < ratio < 1")
        if len(ts) < 2:
            raise FractarithError("need at least two maps")
        for a, b in zip(ts, ts[1:]):
            if not (a < b):
                raise FractarithError("translations must be strictly increasing (duplicate maps rejected)")
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "translations", ts)
        # ratio and translations all rational: cylinders walk on integers
        object.__setattr__(self, "rational",
                           not any(isinstance(v, FieldElement) for v in (ratio, *ts)))
        for cache in ("_hull", "_gaps", "_steps", "_ints"):
            object.__setattr__(self, cache, None)

    def __setattr__(self, *a):  # immutable value type
        raise AttributeError("HomogeneousIfs is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment is refused;
        # the derived geometry is recomputed on demand
        return HomogeneousIfs, (self.ratio, self.translations)

    @property
    def n(self) -> int:
        return len(self.translations)

    def _check_digit(self, digit: int) -> None:
        if not 1 <= digit <= self.n:
            raise InvalidDigit(f"digit {digit} outside alphabet 1..{self.n}")

    def check_code(self, code: Code) -> None:
        """Raise InvalidDigit unless every digit of the code, preperiod and
        period, lies in the alphabet."""
        for d in code.preperiod + code.period:
            self._check_digit(d)

    def convex_hull(self) -> Interval:
        if self._hull is None:
            one_minus = 1 - self.ratio
            object.__setattr__(self, "_hull", Interval(self.translations[0] / one_minus,
                                                       self.translations[-1] / one_minus))
        return self._hull

    def gap_profile(self) -> GapProfile:
        if self._gaps is None:
            object.__setattr__(self, "_gaps", self._compute_gap_profile())
        return self._gaps

    def _compute_gap_profile(self) -> GapProfile:
        hull = self.convex_hull()
        width = hull.width()
        piece = self.ratio * width
        gaps: list[tuple[int, Scalar]] = []
        for i in range(self.n - 1):
            # f_{i+2}(a) - f_{i+1}(b) for the hull [a, b], maps numbered from 1
            delta = self.translations[i + 1] - self.translations[i] - piece
            if scalar_sign(delta) > 0:
                gaps.append((i + 1, delta))
        kappa = max((g for _, g in gaps), default=as_scalar(0))
        thickness = min((piece / g for _, g in gaps), default=float("inf"))
        return GapProfile(hull=hull, width=width, piece=piece, gap_set=tuple(gaps),
                          kappa=kappa, thickness_lb=thickness)

    # -- cylinder maps: a rank-k word w has the basic interval S_w(hull), with
    # S_w(y) = lambda^k*y + o_w.  Appending digit d moves its left end by
    # lambda^k*(lambda*a + t_d - a) = lambda^k*(t_d - t_1) for the hull [a, b],
    # so a walk carries only the left end and lambda^k: O(1) work per digit.

    def _cylinder_steps(self) -> tuple[tuple[Scalar, ...], Scalar]:
        """(t_d - t_1 for d = 1..n, hull width b - a)."""
        if self._steps is None:
            steps = tuple(t - self.translations[0] for t in self.translations)
            object.__setattr__(self, "_steps", (steps, self.convex_hull().width()))
        return self._steps

    def _child(self, lo: Scalar, scale: Scalar, digit: int) -> tuple[Scalar, Scalar]:
        """Left end and scale of the map of w + (digit,), from those of w."""
        self._check_digit(digit)
        step = self._cylinder_steps()[0][digit - 1]
        if scale is _ONE:  # rank 0: no product by 1
            return lo + step, self.ratio
        return lo + scale * step, scale * self.ratio

    def _maps(self, digits: Iterable[int]) -> Iterator[tuple[Scalar, Scalar]]:
        """Left end and scale of the map of each prefix of digits, shortest first."""
        lo, scale = self.convex_hull().lo, _ONE
        yield lo, scale
        for d in digits:
            lo, scale = self._child(lo, scale, d)
            yield lo, scale

    def _interval(self, lo: Scalar, scale: Scalar) -> Interval:
        """The basic interval of the map with left end lo and scale scale."""
        if scale is _ONE:
            return self.convex_hull()
        return Interval(lo, lo + scale * self._cylinder_steps()[1])

    # -- the same walk on integers, for rational data with ratio a/b: over
    # D, the lcm of the reduced denominators of the hull's left end a_0, of
    # its width W and of every t_d - t_1, a rank-k left end is an integer L
    # over D*b^k.  Appending digit d adds (a/b)^k*(t_d - t_1), so L becomes
    # b*(L + a^k*(t_d - t_1)*D) over D*b^(k+1): a walk carries L, a^k and
    # D*b^k, and takes no gcd.

    def _integer_steps(self) -> tuple[int, int, int, int, int, tuple[int, ...]]:
        """(a, b, D, a_0*D, W*D, (t_d - t_1)*D for d = 1..n), from the
        translations' integers P_d over their common denominator Q: with
        E = (b - a)*Q, a_0 = P_1*b/E, W = (P_n - P_1)*b/E and
        t_d - t_1 = (P_d - P_1)/Q, and x/y has the reduced denominator
        y/gcd(x, y).  Rational data only; no Fraction is formed."""
        if self._ints is None:
            a, b = self.ratio.numerator, self.ratio.denominator
            q = lcm(*(t.denominator for t in self.translations))
            ps = [t.numerator * (q // t.denominator) for t in self.translations]
            e = (b - a) * q
            lo, width = ps[0] * b, (ps[-1] - ps[0]) * b
            deltas = [p - ps[0] for p in ps]
            den = lcm(e // gcd(lo, e), e // gcd(width, e), *(q // gcd(s, q) for s in deltas))
            object.__setattr__(self, "_ints", (
                a, b, den, lo * den // e, width * den // e,
                tuple(s * den // q for s in deltas)))
        return self._ints

    def _triples(self, digits: Iterable[int]) -> Iterator[tuple[int, int, int]]:
        """The basic interval of each prefix of digits, the hull first, as
        the triple (L, L + a^k*W*D, D*b^k) of a rank-k one.  Rational data
        only."""
        a, b, d, lo, width, steps = self._integer_steps()
        scale = 1  # a^k
        yield lo, lo + width, d
        for digit in digits:
            self._check_digit(digit)
            lo = (lo + scale * steps[digit - 1]) * b
            scale *= a
            d *= b
            yield lo, lo + scale * width, d

    def cylinder_walk(self, digits: Iterable[int]) -> Iterator[Interval]:
        """The basic interval of each prefix of digits, the hull first.
        Digits are read lazily, so they may run forever (Code.digits()).
        Over rational data each is a TripleInterval walked on integers."""
        if self.rational:
            return map(TripleInterval, self._triples(digits))
        return starmap(self._interval, self._maps(digits))

    def basic_interval(self, word: Sequence[int]) -> Interval:
        """The basic interval of the word: a TripleInterval over rational
        data."""
        if self.rational:
            *_, last = self._triples(word)
            return TripleInterval(last)
        *_, (lo, scale) = self._maps(word)
        return self._interval(lo, scale)

    def _below(self, k: int, within: Word) -> int:
        """k - len(within) for the rank-k cylinders below within, after the
        rank and budget checks.  The budget check comes first, so that a
        rank past sys.maxsize is refused as over budget, as every huge rank
        is."""
        extra = k - len(within)
        if extra >= 0:
            budget = get_budget()
            # n >= 2, so n^extra > budget once extra reaches budget's bit
            # length: a huge rank is refused before its power is formed
            if extra >= budget.bit_length() or self.n ** extra > budget:
                raise ResourceBudget(f"{self.n}^{extra} cylinders exceed budget {budget}")
        _check_rank(k)
        if extra < 0:
            raise FractarithError("rank below the restricting word length")
        return extra

    def cylinder_lattice(self, k: int, within: Word = ()) -> IntervalLattice:
        """The rank-k basic intervals below the word within, sorted and
        distinct, on integer numerators over one denominator: the lcm of the
        reduced denominators of within's left end, of every level's steps
        scale * (t_d - t_1) and of the final width scale * (b - a), so each
        level adds integer steps to integer left ends, and coincident
        cylinders collapse in a set of integers.  Rational data only.

        All of them are integers over D*b^k, within's left end from the
        integer walk (see _triples) and the steps at rank r being
        a^r*b^(k-r)*(t_d - t_1)*D; that lcm is D*b^k over the gcd of D*b^k
        and every numerator."""
        if not self.rational:
            raise FractarithError("a cylinder lattice requires rational data")
        extra = self._below(k, within)
        a, b, _, _, width, deltas = self._integer_steps()
        *_, (lo, _, den) = self._triples(within)
        scale = a ** len(within)  # a^r at rank r
        levels = []
        for j in range(extra, 0, -1):
            levels.append([scale * b ** j * delta for delta in deltas])
            scale *= a
        lo, den, span = lo * b ** extra, den * b ** extra, scale * width
        g = gcd(den, lo, span, *chain.from_iterable(levels))
        lefts = [lo // g]
        for steps in levels:
            ints = [step // g for step in steps]
            lefts = sorted({left + step for step in ints for left in lefts})
        return IntervalLattice(den // g, tuple(lefts), span // g)

    def cylinders(self, k: int, within: Word = ()) -> list[Interval]:
        """The rank-k basic intervals, optionally restricted to descendants of
        a given word.  Rank counts from the hull, so k must be at least
        len(within).  Over rational data they are sorted and distinct: those
        of cylinder_lattice, walked on integers, as Intervals.  Over
        algebraic data they come in reversed-word order (the last digit
        varies slowest) and coincident ones are kept: sorting would compare
        field elements and refine their shared generator."""
        if self.rational:
            return list(self.cylinder_lattice(k, within))
        extra = self._below(k, within)
        *_, (lo, scale) = self._maps(within)
        deltas, width = self._cylinder_steps()
        lefts = [lo]
        for _ in range(extra):
            steps = [scale * delta for delta in deltas]
            scale *= self.ratio
            # the last digit varies slowest, as when each level applied the
            # maps to the previous one
            lefts = [left + step for step in steps for left in lefts]
        span = scale * width
        return [Interval(left, left + span) for left in lefts]

    def cylinder_count(self, k: int) -> int:
        """Number of distinct rank-k basic intervals (natural-scale box count)."""
        if not self.rational:
            raise FractarithError("cylinder counting requires rational data")
        return len(self.cylinder_lattice(k))

    def locate(self, point, k: int) -> Word:
        """Rank-k word addressing the point.  A Code or a digit tuple (at
        least k long) gives its first k digits; an exact scalar gives the
        word whose basic interval contains it, leftmost on ties, and raises
        NotInCover when it falls in a gap."""
        _check_rank(k)
        if isinstance(point, Code):
            point = point.prefix(k)
        if isinstance(point, tuple):
            if len(point) < k:
                raise NotInCover(f"code of length {len(point)} cannot address rank {k}")
            for d in point[:k]:
                self._check_digit(d)
            return point[:k]
        x = as_scalar(point)
        hull = self.convex_hull()
        if not hull.contains(x):
            raise NotInCover(f"point {point} outside hull")
        word: list[int] = []
        width = self._cylinder_steps()[1]
        lo, scale = hull.lo, _ONE
        for _ in range(k):
            for d in range(1, self.n + 1):
                nlo, nscale = self._child(lo, scale, d)
                if not (x < nlo) and not (nlo + nscale * width < x):
                    word.append(d)
                    lo, scale = nlo, nscale
                    break
            else:
                raise NotInCover(f"point {point} falls in a gap at rank {len(word) + 1}")
        return tuple(word)

    # -- serialization ------------------------------------------------------

    def to_obj(self) -> dict:
        """Rational data as "p/q" strings; algebraic data adds the "base"
        generator that its coefficient vectors refer to."""
        gens = [x.gen for x in (self.ratio, *self.translations) if isinstance(x, FieldElement)]
        return {**({"base": gens[0].to_obj()} if gens else {}),
                "ratio": scalar_to_obj(self.ratio),
                "translations": [scalar_to_obj(t) for t in self.translations]}

    @staticmethod
    def from_obj(obj: dict) -> "HomogeneousIfs":
        if not isinstance(obj, dict):
            raise FractarithError("an IFS must be a JSON object")
        allowed = {"ratio", "translations", "base"}
        unknown = set(obj) - allowed
        if unknown:
            raise FractarithError(f"unknown IFS keys: {sorted(unknown)}")
        if "ratio" not in obj or not isinstance(obj.get("translations"), list):
            raise FractarithError("an IFS needs a ratio and a list of translations")
        if "base" in obj:
            gen = AlgebraicReal.from_obj(obj["base"])

            def load(v):
                if isinstance(v, dict):
                    if set(v) != {"coeffs"} or not isinstance(v["coeffs"], list):
                        raise FractarithError("an algebraic scalar must be a JSON object "
                                              f"holding only a 'coeffs' list, got {v!r}")
                    return FieldElement.of(gen, [rat_from_str(c) for c in v["coeffs"]])
                return rat_from_str(v)

            return HomogeneousIfs(load(obj["ratio"]), [load(t) for t in obj["translations"]])
        ratio = obj["ratio"]
        ratio = AlgebraicReal.from_obj(ratio) if isinstance(ratio, dict) else rat_from_str(ratio)
        return HomogeneousIfs(ratio, [rat_from_str(t) for t in obj["translations"]])


def cantor() -> HomogeneousIfs:
    """The middle-third Cantor set."""
    return HomogeneousIfs(Fraction(1, 3), (Fraction(0), Fraction(2, 3)))
