"""The Fraction cylinder walk that HomogeneousIfs.cylinders ran over
rational data before it walked the left ends on integers, and the Fraction
derivation of the integer walk's steps that HomogeneousIfs._integer_steps
made before it read the translations' integers, kept as the tests'
differential oracles.

Each level forms its left ends as Fractions and sorts them without
repeats, so coincident cylinders collapse as they appear.  Both read only
the system's ratio and translations.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from fractarith.errors import FractarithError, ResourceBudget
from fractarith.exactnum import Interval
from fractarith.ifs_core import get_budget


def cylinders(ifs, k: int, within: tuple[int, ...] = ()) -> list[Interval]:
    """The rank-k basic intervals below the word within, sorted and
    distinct, with the rank and budget errors of HomogeneousIfs.cylinders."""
    if k < 0:
        raise FractarithError(f"rank must be non-negative, got {k}")
    if k < len(within):
        raise FractarithError("rank below the restricting word length")
    budget = get_budget()
    extra = k - len(within)
    n = len(ifs.translations)
    if n ** extra > budget:
        raise ResourceBudget(f"{n}^{extra} cylinders exceed budget {budget}")
    lam, ts = ifs.ratio, ifs.translations
    deltas = [t - ts[0] for t in ts]
    lo, scale = ts[0] / (1 - lam), Fraction(1)
    for d in within:
        lo += scale * deltas[d - 1]
        scale *= lam
    lefts = [lo]
    for _ in range(extra):
        steps = [scale * delta for delta in deltas]
        scale *= lam
        lefts = sorted(set(left + step for step in steps for left in lefts))
    span = scale * (ts[-1] - ts[0]) / (1 - lam)
    return [Interval(left, left + span) for left in lefts]


def cylinder_count(ifs, k: int) -> int:
    return len(cylinders(ifs, k))


def integer_steps(ifs) -> tuple[int, int, int, int, int, tuple[int, ...]]:
    """(a, b, D, a_0*D, W*D, (t_d - t_1)*D for d = 1..n) for the ratio a/b,
    the hull [a_0, a_0 + W] and D the lcm of the reduced denominators of
    a_0, W and every t_d - t_1, each formed as a Fraction."""
    lam, ts = ifs.ratio, ifs.translations
    deltas = [t - ts[0] for t in ts]
    lo, hi = ts[0] / (1 - lam), ts[-1] / (1 - lam)
    width = hi - lo
    den = lcm(lo.denominator, width.denominator, *(s.denominator for s in deltas))
    return (lam.numerator, lam.denominator, den,
            lo.numerator * (den // lo.denominator),
            width.numerator * (den // width.denominator),
            tuple(s.numerator * (den // s.denominator) for s in deltas))
