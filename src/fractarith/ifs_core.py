"""One-dimensional homogeneous self-similar sets.

An IFS here is a contraction ratio 0 < lambda < 1 shared by all maps plus a
strictly sorted list of translations; map i sends x to lambda*x + t_i.  All
geometry (hull, gaps, cylinders) is computed with exact scalars, so set
relations decided downstream are never floating-point artifacts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import FractarithError, InvalidDigit, NotInCover, ResourceBudget
from .exactnum import (AlgebraicReal, FieldElement, Interval, Scalar,
                       as_scalar, rat_from_str, rat_to_str, scalar_sign,
                       scalar_to_obj)

#: Hard cap on enumerated rectangles/intervals unless overridden.
DEFAULT_BUDGET = 2 ** 24

Word = tuple[int, ...]


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


@dataclass(frozen=True)
class Code:
    """Eventually periodic digit code addressing a point of the attractor."""

    preperiod: Word
    period: Word

    def __post_init__(self):
        if not self.period:
            raise FractarithError("code period must be nonempty")

    def prefix(self, k: int) -> Word:
        _check_rank(k)
        out = list(self.preperiod[:k])
        i = 0
        while len(out) < k:
            out.append(self.period[i % len(self.period)])
            i += 1
        return tuple(out)

    @staticmethod
    def parse(text: str) -> "Code":
        """Parse "21(1)" style text: digits, optional parenthesized period.
        Digits may be comma separated for alphabets past 9.  Without an
        explicit period the last digit repeats forever."""
        text = text.strip()
        if "(" in text:
            head, _, rest = text.partition("(")
            per, close, tail = rest.partition(")")
            if not close:
                raise FractarithError(f"unclosed period parenthesis in code {text!r}")
            if tail.strip().strip(","):
                raise FractarithError(f"trailing text after period in code {text!r}")
        else:
            head, per = text, ""

        def digits(s: str) -> tuple[int, ...]:
            s = s.strip().strip(",")
            if not s:
                return ()
            if "," in s:
                return tuple(int(tok) for tok in s.split(","))
            return tuple(int(c) for c in s)

        pre = digits(head)
        period = digits(per) or ((pre[-1],) if pre else ())
        if not period:
            raise FractarithError("empty code")
        return Code(pre, period)

    def __str__(self) -> str:
        pre = "".join(str(d) for d in self.preperiod)
        per = "".join(str(d) for d in self.period)
        return f"{pre}({per})"


@dataclass(frozen=True)
class GapProfile:
    """Rank-1 geometry: the hull and its width, the width of one rank-1
    piece (ratio * width), which consecutive pieces leave empty space
    between them, and the largest such gap (kappa)."""

    hull: Interval
    width: Scalar
    piece: Scalar
    gap_set: tuple[tuple[int, Scalar], ...]  # (index i, length of gap after piece i)
    kappa: Scalar
    # min over rank-1 gaps of piece/gap: the exact Newhouse thickness when all
    # rank-1 gaps are equal, a lower bound otherwise; math.inf when gapless
    thickness_lb: object


class HomogeneousIfs:
    """Homogeneous IFS with exact ratio and translations.

    Translations are strictly increasing after normalization; the first map
    fixes the left hull endpoint and the last map the right one, which is
    automatic for maps of the form x -> lambda*x + t.
    """

    # the derived geometry (hull, gap profile) is computed on first use and
    # kept: the system never changes, and the certifier asks for it on every
    # attempt
    __slots__ = ("ratio", "translations", "_hull", "_gaps")

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
        object.__setattr__(self, "_hull", None)
        object.__setattr__(self, "_gaps", None)

    def __setattr__(self, *a):  # immutable value type
        raise AttributeError("HomogeneousIfs is immutable")

    @property
    def n(self) -> int:
        return len(self.translations)

    def map_point(self, digit: int, x: Scalar) -> Scalar:
        self._check_digit(digit)
        return self.ratio * x + self.translations[digit - 1]

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
        kappa: Scalar = as_scalar(0)
        for _, g in gaps:
            if kappa < g:
                kappa = g
        if gaps:
            thickness = piece / gaps[0][1]
            for _, g in gaps[1:]:
                cand = piece / g
                if cand < thickness:
                    thickness = cand
        else:
            thickness = float("inf")
        return GapProfile(hull=hull, width=width, piece=piece, gap_set=tuple(gaps),
                          kappa=kappa, thickness_lb=thickness)

    def basic_interval(self, word: Sequence[int]) -> Interval:
        hull = self.convex_hull()
        lo, hi = hull.lo, hull.hi
        for d in reversed(tuple(word)):
            self._check_digit(d)
            lo = self.ratio * lo + self.translations[d - 1]
            hi = self.ratio * hi + self.translations[d - 1]
        return Interval(lo, hi)

    def cylinders(self, k: int, within: Word = ()) -> list[Interval]:
        """All distinct rank-k basic intervals (sorted), optionally restricted
        to descendants of a given word.  Rank counts from the hull, so k must
        be at least len(within)."""
        _check_rank(k)
        if k < len(within):
            raise FractarithError("rank below the restricting word length")
        budget = get_budget()
        extra = k - len(within)
        if self.n ** extra > budget:
            raise ResourceBudget(f"{self.n}^{extra} cylinders exceed budget {budget}")
        hull = self.convex_hull()
        items = [(hull.lo, hull.hi)]
        for _ in range(extra):
            nxt = []
            for lo, hi in items:
                for t in self.translations:
                    nxt.append((self.ratio * lo + t, self.ratio * hi + t))
            # dedup exact duplicates (maps may produce coincident cylinders)
            items = sorted(set(nxt)) if not isinstance(self.ratio, FieldElement) else nxt
        # descendants of the fixed word are its map applied to every
        # rank-`extra` cylinder; the map is increasing, so order survives
        out = []
        for lo, hi in items:
            for d in reversed(within):
                self._check_digit(d)
                lo = self.ratio * lo + self.translations[d - 1]
                hi = self.ratio * hi + self.translations[d - 1]
            out.append(Interval(lo, hi))
        return out

    def cylinder_count(self, k: int) -> int:
        """Number of distinct rank-k basic intervals (natural-scale box count)."""
        if isinstance(self.ratio, FieldElement):
            raise FractarithError("cylinder counting requires rational data")
        return len(self.cylinders(k))

    def locate(self, point, k: int) -> Word:
        """Rank-k word whose basic interval contains the point; leftmost word
        on ties.  Raises NotInCover when the point falls in a gap."""
        _check_rank(k)
        x = as_scalar(point)
        hull = self.convex_hull()
        if not hull.contains(x):
            raise NotInCover(f"point {point} outside hull")
        word: list[int] = []
        # the current cylinder map is y -> scale*y + offset
        scale: Scalar = as_scalar(1)
        offset: Scalar = as_scalar(0)
        for _ in range(k):
            for d in range(1, self.n + 1):
                noff = scale * self.translations[d - 1] + offset
                nscale = scale * self.ratio
                nlo = nscale * hull.lo + noff
                nhi = nscale * hull.hi + noff
                if not (x < nlo) and not (nhi < x):
                    word.append(d)
                    scale, offset = nscale, noff
                    break
            else:
                raise NotInCover(f"point {point} falls in a gap at rank {len(word) + 1}")
        return tuple(word)

    # -- serialization ------------------------------------------------------

    def to_obj(self) -> dict:
        if isinstance(self.ratio, FieldElement) or any(
                isinstance(t, FieldElement) for t in self.translations):
            gen = self.ratio.gen if isinstance(self.ratio, FieldElement) else \
                next(t.gen for t in self.translations if isinstance(t, FieldElement))
            return {
                "base": gen.to_obj(),
                "ratio": scalar_to_obj(self.ratio),
                "translations": [scalar_to_obj(t) for t in self.translations],
            }
        return {
            "ratio": rat_to_str(Fraction(self.ratio)),
            "translations": [rat_to_str(Fraction(t)) for t in self.translations],
        }

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
        if isinstance(ratio, dict):
            ratio = AlgebraicReal.from_obj(ratio)
        else:
            ratio = rat_from_str(ratio)
        return HomogeneousIfs(ratio, [rat_from_str(t) for t in obj["translations"]])


def locate(ifs: HomogeneousIfs, point, k: int) -> Word:
    """Rank-k word addressing the point; accepts an exact scalar, a Code, or
    a digit tuple (which must be at least k long)."""
    if isinstance(point, Code):
        word = point.prefix(k)
    elif isinstance(point, tuple):
        _check_rank(k)
        if len(point) < k:
            raise NotInCover(f"code of length {len(point)} cannot address rank {k}")
        word = point[:k]
    else:
        return ifs.locate(point, k)
    for d in word:
        ifs._check_digit(d)
    return word


def cantor() -> HomogeneousIfs:
    """The middle-third Cantor set."""
    return HomogeneousIfs(Fraction(1, 3), (Fraction(0), Fraction(2, 3)))
