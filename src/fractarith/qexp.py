"""q-expansions with digits {0,1} for bases 1 < q < 2.

Centerpieces: the quasi-greedy expansion of 1 computed with exact remainders
(rationals, or polynomials in q reduced modulo its defining polynomial, so
periodicity verdicts are never floating-point artifacts), the lexicographic
criterion for unique expansions, and the embedded self-similar set K_q that
sits inside the univoque set for every base above the threshold q*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import poly
from .certifier import Certificate, auto_certify
from .errors import (CertificationFailure, DomainError, ExhaustedDepth,
                     FractarithError, NotContained, UndecidableComparison)
from .exactnum import (AlgebraicReal, FieldElement, Scalar, as_scalar,
                       rat_from_str, scalar_sign)
from .exprfn import Expr
from .ifs_core import Code, HomogeneousIfs

#: Default step budget for the quasi-greedy recurrence.
DEFAULT_QG_BUDGET = 10_000

#: Default window for lexicographic comparisons against a non-periodic
#: expansion stream.
DEFAULT_WINDOW = 512

QSTAR_POLY = (Fraction(1), Fraction(-2), Fraction(-1), Fraction(1))  # 1 - 2x - x^2 + x^3


def qstar() -> AlgebraicReal:
    """The threshold base: unique root of x^3 - x^2 - 2x + 1 in (1, 2),
    isolated inside [1.80, 1.81]."""
    return AlgebraicReal(QSTAR_POLY, Fraction(9, 5), Fraction(181, 100))


def as_base(q) -> Scalar:
    """Normalize a base to an exact scalar and verify 1 < q < 2."""
    if isinstance(q, str):
        q = qstar() if q.strip() == "qstar" else rat_from_str(q)
    q = as_scalar(q)
    if not (1 < q and q < 2):
        raise FractarithError("base must satisfy 1 < q < 2")
    return q


def base_above_qstar(q: Scalar) -> bool:
    """Exact test q > q* for a base in (1, 2)."""
    if isinstance(q, FieldElement):
        alg = q.to_algebraic()
        star = qstar()
        g = poly.gcd(alg.poly, star.poly)
        if poly.degree(g) >= 1:
            lo = max(alg.lo, star.lo)
            hi = min(alg.hi, star.hi)
            if lo <= hi and poly.count_roots(poly.sturm_chain(g), lo, hi) > 0:
                return False  # q == q*
        while not (alg.hi < star.lo or star.hi < alg.lo):
            alg._bisect_once()
            star._bisect_once()
        return star.hi < alg.lo
    # on (1,2) the defining cubic is negative below q* and positive above
    return poly.eval_at(poly.make(QSTAR_POLY), Fraction(q)) > 0


# ---------------------------------------------------------------------------
# Digit sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DigitSeq:
    """Eventually periodic 0-1 sequence in canonical form: minimal period,
    then minimal preperiod.  Period "0" encodes terminating sequences."""

    preperiod: str
    period: str

    def __post_init__(self):
        if not self.period:
            raise FractarithError("period must be nonempty")
        if set(self.preperiod + self.period) - {"0", "1"}:
            raise FractarithError("digits must be 0 or 1")
        pre, per = _canonical(self.preperiod, self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @staticmethod
    def parse(text: str) -> "DigitSeq":
        text = text.strip()
        if "(" in text:
            head, _, rest = text.partition("(")
            per, _, tail = rest.partition(")")
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


def _lcm(a: int, b: int) -> int:
    from math import gcd
    return a * b // gcd(a, b)


def lex_less(s, t) -> bool:
    """Exact strict lexicographic comparison.

    Two eventually periodic sequences are decided within preperiods + lcm of
    periods + 1 positions.  Verified prefixes (QgPrefix) are accepted too and
    compared on the known window; if that window cannot separate them the
    comparison is undecidable and raises.
    """
    if isinstance(s, DigitSeq) and isinstance(t, DigitSeq):
        window = len(s.preperiod) + len(t.preperiod) + \
            _lcm(len(s.period), len(t.period)) + 1
        for i in range(window):
            a, b = s.digit(i), t.digit(i)
            if a != b:
                return a < b
        return False
    window = min(len(x.digits) for x in (s, t) if isinstance(x, QgPrefix))
    for i in range(window):
        a = int(s.digits[i]) if isinstance(s, QgPrefix) else s.digit(i)
        b = int(t.digits[i]) if isinstance(t, QgPrefix) else t.digit(i)
        if a != b:
            return a < b
    raise UndecidableComparison(
        f"sequences agree on the {window} known positions")


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

@dataclass(frozen=True)
class QgPrefix:
    """Verified prefix of a quasi-greedy expansion whose tail is unknown
    because the step budget ran out before the remainders repeated."""

    digits: str


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
            return poly.rem(r.coeffs, r.gen.poly)
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


def _cmp_seq_stream(seq: DigitSeq, eta: QuasiGreedyStream,
                    window: int = DEFAULT_WINDOW) -> int | None:
    """Three-way comparison of an eventually periodic sequence against the
    quasi-greedy stream; None when undecided within the window."""
    if eta.seq is not None:
        if seq == eta.seq:
            return 0
        return -1 if lex_less(seq, eta.seq) else 1
    for i in range(window):
        d = eta.digit(i)
        if d is None:
            return None
        a = seq.digit(i)
        if a != d:
            return -1 if a < d else 1
        if eta.seq is not None:
            if seq == eta.seq:
                return 0
            return -1 if lex_less(seq, eta.seq) else 1
    return None


def is_univoque_seq(a: DigitSeq, q, window: int = DEFAULT_WINDOW) -> str:
    """Lexicographic criterion: at every position with digit 0 the tail must
    be strictly below the quasi-greedy expansion of 1; with digit 1 the
    complemented tail must be.  Returns "yes", "no", or "unknown"."""
    q = as_base(q)
    eta = QuasiGreedyStream(q)
    verdict = "yes"
    for k in range(len(a.preperiod) + len(a.period)):
        tail = a.tail_from(k + 1)
        probe = tail if a.digit(k) == 0 else tail.complement()
        c = _cmp_seq_stream(probe, eta, window)
        if c is None:
            verdict = "unknown"
        elif c >= 0:
            return "no"
    return verdict


def count_expansions_bruteforce(x, q, depth: int, cap: int | None = None) -> int:
    """Branch-and-bound count of digit prefixes of expansions of x.

    Keeps every prefix whose exact remainder stays inside [0, 1/(q-1)]; the
    result is the count of surviving depth-long prefixes, truncated to `cap`
    when given (so always a lower bound).  A univoque point yields exactly 1
    at every depth.
    """
    q = as_base(q)
    x = as_scalar(x)
    ub = 1 / (q - 1)
    if scalar_sign(x) < 0 or scalar_sign(ub - x) < 0:
        raise FractarithError("point outside [0, 1/(q-1)]")
    frontier: list[Scalar] = [x]
    for _ in range(depth):
        nxt: list[Scalar] = []
        for r in frontier:
            qr = q * r
            for a in (0, 1):
                r2 = qr - a
                if scalar_sign(r2) >= 0 and scalar_sign(ub - r2) >= 0:
                    nxt.append(r2)
            if cap is not None and len(nxt) >= cap:
                nxt = nxt[:cap]
                break
        frontier = nxt
        if not frontier:
            return 0
    return len(frontier)


# ---------------------------------------------------------------------------
# The embedded self-similar set K_q
# ---------------------------------------------------------------------------

def kq_ifs(q) -> HomogeneousIfs:
    """IFS {(x+1)/q^2, x/q^2 + 1/q}; its attractor is coded by the block
    language {01, 10} and has hull [1/(q^2-1), q/(q^2-1)]."""
    q = as_base(q)
    lam = 1 / (q * q)
    return HomogeneousIfs(lam, (lam, 1 / q))


#: Extremal tails of the block language {01,10}: the largest tail seen after
#: a 0 digit and the largest complemented tail after a 1 digit is 1(10)^inf,
#: with (10)^inf the next candidate below it.
_EXTREMAL_TAILS = (DigitSeq("1", "10"), DigitSeq("", "10"))


def verify_kq_in_uq(q, window: int = DEFAULT_WINDOW) -> str:
    """Decide K_q inside U_q by checking the finitely many extremal tails of
    the block coding strictly below the quasi-greedy expansion of 1.  Yields
    "yes" exactly for bases above q*."""
    q = as_base(q)
    eta = QuasiGreedyStream(q)
    verdict = "yes"
    for tail in _EXTREMAL_TAILS:
        c = _cmp_seq_stream(tail, eta, window)
        if c is None:
            verdict = "unknown"
        elif c >= 0:
            return "no"
    return verdict


#: Corner anchor codes tried by certify_uq_arith: left and right fixed points
#: of K_q in the four combinations.
_ANCHORS = (
    (Code((), (1,)), Code((), (2,))),
    (Code((), (2,)), Code((), (1,))),
    (Code((), (1,)), Code((), (1,))),
    (Code((), (2,)), Code((), (2,))),
)


def certify_uq_arith(q, f: Expr, max_depth: int = 12) -> Certificate:
    """Full pipeline: verify K_q inside U_q, then certify an interval inside
    f(K_q, K_q) by descending cylinders around corner anchor points.  The
    certified interval is therefore contained in f(U_q, U_q)."""
    q = as_base(q)
    contained = verify_kq_in_uq(q)
    if contained != "yes":
        raise NotContained(f"K_q inside U_q not established (verdict: {contained})")
    kq = kq_ifs(q)
    reasons: list[tuple[int, str]] = []
    for anchor in _ANCHORS:
        try:
            return auto_certify(kq, kq, f, anchor, max_depth)
        except ExhaustedDepth as exc:
            reasons.extend(exc.reasons)
        except (CertificationFailure, DomainError) as exc:
            reasons.append((-1, str(exc)))
    raise ExhaustedDepth(reasons)
