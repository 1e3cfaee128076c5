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


class MarginNegative(CertificationFailure):
    """A chaining inequality failed; carries the name and exact margin."""

    def __init__(self, name: str, margin):
        self.name = name
        self.margin = margin
        super().__init__(f"inequality {name} violated with margin {margin}")


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
