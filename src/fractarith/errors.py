"""Exception hierarchy shared by all fractarith modules."""

from __future__ import annotations


class FractarithError(Exception):
    """Base class for all library errors."""


class ExprSyntaxError(FractarithError):
    """Malformed function text; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class ZeroExponentError(ExprSyntaxError):
    """Exponent 0 is rejected: x^0 collapses to a constant and breaks the ratio condition."""


class DomainError(FractarithError):
    """Operation left the domain where it is defined (division by an interval
    containing zero, fractional power of a non-positive base, ...)."""


class DivByZeroInterval(DomainError):
    """Interval division where the divisor contains 0."""


class InvalidDigit(FractarithError):
    """Cylinder word digit outside the IFS alphabet."""


class NotInCover(FractarithError):
    """Point falls in a gap of the level cover at some rank."""


class ResourceBudget(FractarithError):
    """Enumeration would exceed the configured rectangle budget."""


class CertificationFailure(FractarithError):
    """A certification attempt failed; subclasses say why.  Never silent:
    the message always names the violated condition."""


class SignIndefinite(CertificationFailure):
    """A partial-derivative enclosure contains 0, so no sign case applies."""


def decimal_up(n: int, d: int) -> str:
    """n/d for d > 0, rounded up to three significant decimal digits and
    written in scientific notation (-1.23e-4), on integers alone: the
    exponent comes from bit lengths, so no integer is written out."""
    if not n:
        return "0"
    a = abs(n)

    def at_least(e: int) -> bool:  # |n/d| >= 10**e
        return a * 10 ** max(-e, 0) >= d * 10 ** max(e, 0)

    # within two of the exponent: 2**(bits - 1) <= a < 2**bits, and
    # 30103/100000 is log10(2) to within 5e-8
    e = (a.bit_length() - d.bit_length()) * 30103 // 100000
    while not at_least(e):
        e -= 1
    while at_least(e + 1):
        e += 1
    s = 2 - e  # |n/d| * 10**s has three digits before the point
    m = -(-n * 10 ** max(s, 0) // (d * 10 ** max(-s, 0)))
    if m == 1000:
        m, e = 100, e + 1
    text = str(abs(m))
    return f"{'-' if m < 0 else ''}{text[0]}.{text[1:]}e{e}"


class MarginNegative(CertificationFailure):
    """A chaining inequality failed; carries the name and exact margin.  A
    rational margin too long for str() is written as an upper bound from
    decimal_up instead."""

    def __init__(self, name: str, margin):
        self.name = name
        self.margin = margin
        try:
            text = f"margin {margin}"
        except ValueError:  # past Python's limit on digits written
            if not hasattr(margin, "denominator"):  # only a rational is bounded here
                raise
            text = f"margin <= {decimal_up(margin.numerator, margin.denominator)}"
        super().__init__(f"inequality {name} violated with {text}")


class PointRefuted(CertificationFailure):
    """The chaining inequalities fail in both orientations at one point of
    the rectangle, so they fail over the whole of it; carries, per
    orientation, the failing inequality's name and an upper bound on its
    margin as a decimal string."""

    def __init__(self, bounds):
        self.bounds = tuple(bounds)
        parts = " and ".join(f"{orientation} {name} <= {bound}"
                             for orientation, name, bound in self.bounds)
        super().__init__(f"at the rectangle's lower-left corner, {parts}")


class ExhaustedDepth(CertificationFailure):
    """auto_certify ran out of depth; carries the per-depth failure reasons."""

    def __init__(self, reasons):
        self.reasons = list(reasons)
        lines = "; ".join(f"depth {k}: {r}" for k, r in self.reasons)
        super().__init__(f"no certificate up to max depth ({lines})")


class NotContained(CertificationFailure):
    """The embedded self-similar set is not verified inside the univoque set."""


class DegenerateFit(FractarithError):
    """Box-count regression is degenerate (constant counts)."""
