"""q-expansions with digits {0,1} for bases 1 < q < 2.

Centerpieces: the quasi-greedy expansion of 1 computed with exact remainders
(rationals, or polynomials in q reduced modulo its defining polynomial, so
periodicity verdicts are never floating-point artifacts), the lexicographic
criterion for unique expansions, and the embedded self-similar set K_q that
sits inside the univoque set for every base above the threshold q*.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

from ._value import Value, setfield
from .certifier import Certificate, auto_certify
from .errors import (CertificationFailure, DomainError, ExhaustedDepth,
                     FractarithError, NotContained)
from .exactnum import (AlgebraicReal, FieldElement, Scalar, as_scalar,
                       rat_from_str, scalar_sign)
from .exprfn import Expr
from .ifs_core import Code, CodeWalk, HomogeneousIfs

#: Default step budget for the quasi-greedy recurrence.
DEFAULT_QG_BUDGET = 10_000

#: Digits of a non-periodic expansion stream read by a lexicographic
#: comparison before it is reported undecided.
STREAM_WINDOW = 512

QSTAR_POLY = (Fraction(1), Fraction(-2), Fraction(-1), Fraction(1))  # 1 - 2x - x^2 + x^3


def qstar() -> AlgebraicReal:
    """The threshold base: unique root of x^3 - x^2 - 2x + 1 in (1, 2),
    isolated inside [1.80, 1.81]."""
    return AlgebraicReal(QSTAR_POLY, Fraction(9, 5), Fraction(181, 100))


def _root_of(spec: str) -> AlgebraicReal:
    """The root named by "<c0>,<c1>,...@<lo>,<hi>": the one root of
    c0 + c1*x + ... in [lo, hi], coefficients constant first."""
    coeffs, at, window = spec.partition("@")
    lo, comma, hi = window.partition(",")
    if not at or not comma:
        raise FractarithError(f"cannot read root:{spec} (use root:<c0>,<c1>,...@<lo>,<hi>)")
    try:
        return AlgebraicReal([rat_from_str(c) for c in coeffs.split(",")],
                             rat_from_str(lo), rat_from_str(hi))
    except ValueError as exc:
        raise FractarithError(f"cannot read root:{spec}: {exc}") from exc


def as_base(q) -> Scalar:
    """Normalize a base to an exact scalar and verify 1 < q < 2.  Text may
    name a rational "p/q", "qstar", or an algebraic base
    "root:<c0>,<c1>,...@<lo>,<hi>" (see _root_of)."""
    if isinstance(q, str):
        text = q.strip()
        if text.startswith("root:"):
            q = _root_of(text[len("root:"):])
        else:
            q = qstar() if text == "qstar" else rat_from_str(q)
    q = as_scalar(q)
    if not (1 < q and q < 2):
        raise FractarithError("base must satisfy 1 < q < 2")
    return q


def base_above_qstar(q) -> bool:
    """Exact test q > q* for a base, which must satisfy 1 < q < 2.  On (1, 2)
    q* is the only root of x^3 - x^2 - 2x + 1, which is negative below it
    and positive above."""
    q = as_base(q)
    return scalar_sign(((q - 1) * q - 2) * q + 1) > 0


# ---------------------------------------------------------------------------
# Digit sequences
# ---------------------------------------------------------------------------

class DigitSeq(Value):
    """Eventually periodic 0-1 sequence in canonical form: minimal period,
    then minimal preperiod.  Period "0" encodes terminating sequences."""

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: str, period: str):
        if not period:
            raise FractarithError("period must be nonempty")
        if set(preperiod + period) - {"0", "1"}:
            raise FractarithError("digits must be 0 or 1")
        pre, per = _canonical(preperiod, period)
        setfield(self, "preperiod", pre)
        setfield(self, "period", per)

    @staticmethod
    def parse(text: str) -> "DigitSeq":
        text = text.strip()
        if "(" in text:
            head, _, rest = text.partition("(")
            per, close, tail = rest.partition(")")
            if not close:
                raise FractarithError(f"unclosed period parenthesis in sequence {text!r}")
            if tail.strip():
                raise FractarithError(f"trailing text in sequence {text!r}")
            if not per:
                raise FractarithError("empty period")
            return DigitSeq(head.strip(), per.strip())
        return DigitSeq(text, "0")

    def digit(self, i: int) -> int:
        if i < len(self.preperiod):
            return int(self.preperiod[i])
        return int(self.period[(i - len(self.preperiod)) % len(self.period)])

    def digits(self, n: int) -> str:
        return "".join(str(self.digit(i)) for i in range(n))

    def complement(self) -> "DigitSeq":
        flip = str.maketrans("01", "10")
        return DigitSeq(self.preperiod.translate(flip), self.period.translate(flip))

    def tail_from(self, k: int) -> "DigitSeq":
        """The sequence starting at position k (0-based)."""
        if k <= len(self.preperiod):
            return DigitSeq(self.preperiod[k:], self.period)
        r = (k - len(self.preperiod)) % len(self.period)
        return DigitSeq("", self.period[r:] + self.period[:r])

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"


def _canonical(pre: str, per: str) -> tuple[str, str]:
    # minimal period
    n = len(per)
    for p in range(1, n + 1):
        if n % p == 0 and per == per[:p] * (n // p):
            per = per[:p]
            break
    # minimal preperiod: absorb matching trailing digits into the rotation
    while pre and pre[-1] == per[-1]:
        per = per[-1] + per[:-1]
        pre = pre[:-1]
    return pre, per


def lex_less(s: DigitSeq, t: DigitSeq) -> bool:
    """Exact strict lexicographic comparison of two eventually periodic
    sequences, decided within preperiods + lcm of periods + 1 positions."""
    return _lex_cmp(s, t) < 0


def _lex_cmp(seq: DigitSeq, other: DigitSeq | QuasiGreedyStream) -> int | None:
    """Three-way lexicographic comparison of an eventually periodic sequence
    with a DigitSeq or a QuasiGreedyStream, digit by digit.  Once the other
    side is known to be periodic the two are decided within preperiods + lcm
    of periods + 1 positions; before that the comparison is undecided (None)
    after STREAM_WINDOW digits or when the stream's budget runs out."""
    i = 0
    while True:
        per = other if isinstance(other, DigitSeq) else other.seq
        if per is None:
            if i >= STREAM_WINDOW:
                return None
        elif i > len(seq.preperiod) + len(per.preperiod) + lcm(len(seq.period), len(per.period)):
            return 0
        b = other.digit(i)
        if b is None:
            return None
        a = seq.digit(i)
        if a != b:
            return -1 if a < b else 1
        i += 1


def pi_q(seq: DigitSeq, q: Scalar) -> Scalar:
    """Projection: the value sum of a_n q^-n of the coded point."""
    q = as_scalar(q)
    inv = 1 / q
    pre_len = len(seq.preperiod)
    acc = as_scalar(0)
    power = as_scalar(1)
    for ch in seq.preperiod:
        power = power * inv
        if ch == "1":
            acc = acc + power
    block = as_scalar(0)
    bpow = as_scalar(1)
    for ch in seq.period:
        bpow = bpow * inv
        if ch == "1":
            block = block + bpow
    if scalar_sign(block) != 0:
        # geometric tail: block * q^-pre / (1 - q^-p)
        shift = inv ** pre_len
        acc = acc + shift * block / (1 - inv ** len(seq.period))
    return acc


# ---------------------------------------------------------------------------
# Quasi-greedy expansion of 1
# ---------------------------------------------------------------------------

class QgPrefix(Value):
    """Verified prefix of a quasi-greedy expansion whose tail is unknown
    because the step budget ran out before the remainders repeated."""

    __slots__ = ("digits",)

    def __init__(self, digits: str):
        setfield(self, "digits", digits)


class QuasiGreedyStream:
    """Digit stream of the quasi-greedy expansion of 1 in base q.

    Remainders are exact (Fractions, or coefficient vectors over the base
    field of q), so repetition detection is exact; once a repeat is seen the
    stream collapses to a DigitSeq.
    """

    def __init__(self, q, budget: int = DEFAULT_QG_BUDGET):
        if budget < 0:
            raise FractarithError(f"digit budget must be non-negative, got {budget}")
        self.q = as_base(q)
        self.budget = budget
        self._digits: list[int] = []
        # the remainder lives in the same exact domain as q
        one: Scalar = FieldElement.of(self.q.gen, (1,)) \
            if isinstance(self.q, FieldElement) else Fraction(1)
        self._state = one
        self._seen: dict = {self._key(one): 0}
        self.seq: DigitSeq | None = None

    @staticmethod
    def _key(r: Scalar):
        if isinstance(r, FieldElement):
            return r.num, r.den
        return r

    def _step(self) -> None:
        qr = self.q * self._state
        digit = 1 if scalar_sign(qr - 1) > 0 else 0
        self._digits.append(digit)
        self._state = qr - digit
        key = self._key(self._state)
        if self.seq is None:
            prev = self._seen.get(key)
            if prev is not None:
                self.seq = DigitSeq(
                    "".join(map(str, self._digits[:prev])),
                    "".join(map(str, self._digits[prev:])))
            else:
                self._seen[key] = len(self._digits)

    def digit(self, i: int) -> int | None:
        """Digit at 0-based position i, or None once the budget is exhausted."""
        if self.seq is not None:
            return self.seq.digit(i)
        while len(self._digits) <= i:
            if len(self._digits) >= self.budget:
                return None
            self._step()
            if self.seq is not None:
                return self.seq.digit(i)
        return self._digits[i]

    def known_prefix(self) -> str:
        return "".join(map(str, self._digits))

    def result(self) -> Union[DigitSeq, QgPrefix]:
        """Run out the budget; DigitSeq once periodic, else the known prefix."""
        while self.seq is None and len(self._digits) < self.budget:
            self._step()
        return self.seq if self.seq is not None else QgPrefix(self.known_prefix())


def quasi_greedy_one(q, budget: int = DEFAULT_QG_BUDGET) -> Union[DigitSeq, QgPrefix]:
    """Quasi-greedy expansion of 1: digits a_k = 1 iff q*r > 1 (exact sign
    test), r' = q*r - a.  Returns a DigitSeq once the exact remainders
    repeat, otherwise the verified prefix computed within the budget."""
    return QuasiGreedyStream(q, budget=budget).result()


def is_univoque_seq(a: DigitSeq, q) -> str:
    """Lexicographic criterion: at every position with digit 0 the tail must
    be strictly below the quasi-greedy expansion of 1; with digit 1 the
    complemented tail must be.  Returns "yes", "no", or "unknown"."""
    q = as_base(q)
    eta = QuasiGreedyStream(q)
    verdict = "yes"
    for k in range(len(a.preperiod) + len(a.period)):
        tail = a.tail_from(k + 1)
        probe = tail if a.digit(k) == 0 else tail.complement()
        c = _lex_cmp(probe, eta)
        if c is None:
            verdict = "unknown"
        elif c >= 0:
            return "no"
    return verdict


# ---------------------------------------------------------------------------
# The embedded self-similar set K_q
# ---------------------------------------------------------------------------

def kq_ifs(q) -> HomogeneousIfs:
    """IFS {(x+1)/q^2, x/q^2 + 1/q}; its attractor is coded by the block
    language {01, 10} and has hull [1/(q^2-1), q/(q^2-1)]."""
    q = as_base(q)
    lam = 1 / (q * q)
    return HomogeneousIfs(lam, (lam, 1 / q))


def verify_kq_in_uq(q) -> str:
    """Decide K_q inside U_q as the univoque criterion at 01(10)^inf.  Every
    tail that the criterion compares with eta on a coding in blocks {01, 10}
    is at most 1(10)^inf, and the tails of 01(10)^inf reach it.  Yields
    "yes" exactly for bases above q*."""
    return is_univoque_seq(DigitSeq("01", "10"), q)


_LEFT, _RIGHT = Code((), (1,)), Code((), (2,))

#: Corner anchor codes, by name: the left and right fixed points of K_q in
#: the four combinations.  certify_uq_arith tries them in this order.
CORNERS = {"left-right": (_LEFT, _RIGHT), "right-left": (_RIGHT, _LEFT),
           "left-left": (_LEFT, _LEFT), "right-right": (_RIGHT, _RIGHT)}


def certify_uq_arith(q, f: Expr, max_depth: int = 12) -> Certificate:
    """Full pipeline: verify K_q inside U_q, then certify an interval inside
    f(K_q, K_q) by descending cylinders around corner anchor points.  The
    certified interval is therefore contained in f(U_q, U_q).  The four
    anchors descend along two codes, whose walks they share."""
    q = as_base(q)
    contained = verify_kq_in_uq(q)
    if contained != "yes":
        raise NotContained(f"K_q inside U_q not established (verdict: {contained})")
    kq = kq_ifs(q)
    walks = {code: CodeWalk(kq, code) for code in (_LEFT, _RIGHT)}
    reasons: list[tuple[int, str]] = []
    for code1, code2 in CORNERS.values():
        try:
            return auto_certify(kq, kq, f, (walks[code1], walks[code2]), max_depth)
        except ExhaustedDepth as exc:
            reasons.extend(exc.reasons)
        except (CertificationFailure, DomainError) as exc:
            reasons.append((-1, str(exc)))
    raise ExhaustedDepth(reasons)
