"""The Fraction judge that certify_rectangle and auto_certify ran over
rational data before the descent ran on integer triples, kept as the tests'
differential oracle.

Each rank's basic intervals come from a walk that carries the left end and
lambda^k as Fractions; the partials' signs are decided on Interval
enclosures, and the chaining margins are Fraction products.  It shares with
the library only the compiled program (checked against
tests/recursive_eval.py) and the seam check of unequal ranks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from fractarith.certifier import Certificate, SignCase, _initial_grid_chains, require_shared_ratio
from fractarith.errors import (CertificationFailure, DomainError, ExhaustedDepth,
                               FractarithError, InvalidDigit, MarginNegative,
                               SignIndefinite)
from fractarith.exactnum import Interval, scalar_sign
from fractarith.exprfn import GradEnclosure, compile_expr

_ONE = Fraction(1)


def _check_digit(ifs, digit: int) -> None:
    if not 1 <= digit <= ifs.n:
        raise InvalidDigit(f"digit {digit} outside alphabet 1..{ifs.n}")


def _hull(ifs) -> Interval:
    one_minus = 1 - ifs.ratio
    return Interval(ifs.translations[0] / one_minus, ifs.translations[-1] / one_minus)


def _maps(ifs, digits):
    """Left end and scale of the map of each prefix of digits, shortest first."""
    steps = [t - ifs.translations[0] for t in ifs.translations]
    lo, scale = _hull(ifs).lo, _ONE
    yield lo, scale
    for d in digits:
        _check_digit(ifs, d)
        step = steps[d - 1]
        if scale is _ONE:  # rank 0: no product by 1
            lo, scale = lo + step, ifs.ratio
        else:
            lo, scale = lo + scale * step, scale * ifs.ratio
        yield lo, scale


def _interval(ifs, lo, scale) -> Interval:
    if scale is _ONE:
        return _hull(ifs)
    return Interval(lo, lo + scale * _hull(ifs).width())


def cylinder_walk(ifs, digits):
    """The basic interval of each prefix of digits, the hull first."""
    return (_interval(ifs, lo, scale) for lo, scale in _maps(ifs, digits))


def basic_interval(ifs, word) -> Interval:
    *_, (lo, scale) = _maps(ifs, word)
    return _interval(ifs, lo, scale)


def code_walk(ifs, code):
    """(w, basic interval of w) for each prefix w of the code."""
    ifs.check_code(code)
    return zip(accumulate(code.digits(), lambda w, d: w + (d,), initial=()),
               cylinder_walk(ifs, code.digits()))


def sign_case_of(grad: GradEnclosure) -> SignCase:
    if grad.dx.contains_zero() or grad.dy.contains_zero():
        raise SignIndefinite(
            f"gradient enclosure dx={grad.dx}, dy={grad.dy} contains 0")
    return SignCase(sx=1 if grad.dx.strictly_positive() else -1,
                    sy=1 if grad.dy.strictly_positive() else -1)


def _extremes(iv: Interval, s: int):
    return (iv.lo, iv.hi) if s > 0 else (iv.hi, iv.lo)


def margins(k1, k2, dx: Interval, dy: Interval) -> dict:
    p1 = k1.gap_profile()
    p2 = k2.gap_profile()
    return {
        "k1-blocks": (p1.piece * dx.lo - p2.kappa * dy.hi,
                      p2.width * dy.lo - p1.kappa * dx.hi),
        "k2-blocks": (p2.piece * dy.lo - p1.kappa * dx.hi,
                      p1.width * dx.lo - p2.kappa * dy.hi),
    }


def _certify(k1, k2, f, word1, word2, rect) -> Certificate:
    program = compile_expr(f)
    grad = program.gradient(*rect, with_f=True)
    sign_case = sign_case_of(grad)

    found = margins(k1, k2, grad.dx.abs(), grad.dy.abs())
    orientation = None
    for name in ("k1-blocks", "k2-blocks"):
        m_row, m_gap = found[name]
        if scalar_sign(m_row) >= 0 and scalar_sign(m_gap) >= 0:
            orientation = name
            break
    if orientation is None:
        m_row, m_gap = found["k1-blocks"]
        if scalar_sign(m_row) < 0:
            raise MarginNegative("m_row", m_row)
        raise MarginNegative("m_gap", m_gap)
    m_row, m_gap = found[orientation]

    _initial_grid_chains(k1, k2, f, word1, word2, sign_case)

    x_min, x_max = _extremes(rect[0], sign_case.sx)
    y_min, y_max = _extremes(rect[1], sign_case.sy)
    lo_val = program.value(Interval.point(x_min), Interval.point(y_min)).hi
    hi_val = program.value(Interval.point(x_max), Interval.point(y_max)).lo
    if hi_val < lo_val:
        raise CertificationFailure("rectangle too small to certify after rounding")
    certified = Interval(lo_val, hi_val)

    return Certificate(ifs1=k1, ifs2=k2, f=f, word1=word1, word2=word2,
                       sign_case=sign_case, grad=grad, orientation=orientation,
                       m_row=m_row, m_gap=m_gap, certified_interval=certified)


def certify_rectangle(k1, k2, f, word1, word2) -> Certificate:
    require_shared_ratio(k1, k2)
    word1, word2 = tuple(word1), tuple(word2)
    return _certify(k1, k2, f, word1, word2,
                    (basic_interval(k1, word1), basic_interval(k2, word2)))


def auto_certify(k1, k2, f, point, max_depth: int) -> Certificate:
    if max_depth < 0:
        raise FractarithError(f"max depth must be non-negative, got {max_depth}")
    walks = [code_walk(k, code) for k, code in zip((k1, k2), point)]
    require_shared_ratio(k1, k2)
    reasons = []
    for k, ((word1, iv1), (word2, iv2)) in zip(range(max_depth + 1), zip(*walks)):
        try:
            return _certify(k1, k2, f, word1, word2, (iv1, iv2))
        except (CertificationFailure, DomainError) as exc:
            reasons.append((k, f"{type(exc).__name__}: {exc}"))
    raise ExhaustedDepth(reasons)

