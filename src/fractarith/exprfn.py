"""Two-variable function expressions: parsing, symbolic partial derivatives,
and rigorous interval enclosures over rectangles and over grids of them.

Grammar (left associative, '^' binds tightest)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' rational)?
    base   := 'x' | 'y' | integer | '(' expr ')' | '-' factor

The exponent is a rational literal ('-'? digits ('/' digits)?, parentheses
allowed), so ``x^1/2`` is the square root of x, not ``(x^1)/2``.  An exponent
of 0 is rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import Callable, Iterator, Sequence, Union

from .errors import ExprSyntaxError, ZeroExponentError
from .exactnum import Interval, as_scalar


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str  # 'x' or 'y'


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Fraction


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Union[Var, Const, Add, Sub, Mul, Div, Pow, Neg]

X = Var("x")
Y = Var("y")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def error(self, msg: str) -> ExprSyntaxError:
        return ExprSyntaxError(msg, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            raise self.error(f"expected {ch!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.src[start:self.pos])

    def rational_literal(self) -> Fraction:
        paren = self.take("(")
        neg = self.take("-")
        num = self.integer()
        den = 1
        if self.take("/"):
            den = self.integer()
            if den == 0:
                raise self.error("zero denominator in exponent")
        if paren:
            self.expect(")")
        v = Fraction(num, den)
        return -v if neg else v

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            if self.take("+"):
                node = Add(node, self.parse_term())
            elif self.take("-"):
                node = Sub(node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            if self.take("*"):
                node = Mul(node, self.parse_factor())
            elif self.take("/"):
                node = Div(node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.take("^"):
            at = self.pos
            e = self.rational_literal()
            if e == 0:
                raise ZeroExponentError("exponent 0 is not allowed", at)
            node = Pow(node, e)
        return node

    def parse_base(self) -> Expr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        if c == "-":
            self.pos += 1
            return Neg(self.parse_factor())
        if c in ("x", "y"):
            self.pos += 1
            return Var(c)
        if c.isdigit():
            return Const(Fraction(self.integer()))
        raise self.error("expected a variable, number, or parenthesized expression")


def parse(src: str) -> Expr:
    """Parse function text into an AST; raises ExprSyntaxError with position."""
    p = _Parser(src)
    node = p.parse_expr()
    p.skip_ws()
    if p.pos != len(src):
        raise p.error("trailing input")
    return node


# ---------------------------------------------------------------------------
# Printing (canonical text; parse(to_text(e)) == e structurally)
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "mul": 2, "neg": 2, "pow": 3, "atom": 4}


def _render(e: Expr, parent: int) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        v = e.value
        if v < 0 or v.denominator != 1:
            s = f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
            return f"({s})" if parent > 0 else s
        return str(v.numerator)
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        s = f"{_render(e.left, _PREC['add'])} {op} {_render(e.right, _PREC['add'] + 1)}"
        return f"({s})" if parent > _PREC["add"] else s
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        s = f"{_render(e.left, _PREC['mul'])}{op}{_render(e.right, _PREC['mul'] + 1)}"
        return f"({s})" if parent > _PREC["mul"] else s
    if isinstance(e, Neg):
        s = f"-{_render(e.operand, _PREC['neg'] + 1)}"
        return f"({s})" if parent > _PREC["neg"] else s
    if isinstance(e, Pow):
        ex = e.exponent
        ex_s = str(ex.numerator) if ex.denominator == 1 else f"{ex.numerator}/{ex.denominator}"
        if ex < 0:
            ex_s = f"({ex_s})"
        return f"{_render(e.base, _PREC['atom'])}^{ex_s}"
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e: Expr) -> str:
    return _render(e, 0)


# ---------------------------------------------------------------------------
# Simplification (identity folding only; keeps domains intact for the
# derivative shapes produced below)
# ---------------------------------------------------------------------------

def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def sadd(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(b, Neg):
        return Sub(a, b.operand)
    return Add(a, b)


def ssub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if isinstance(b, Neg):
        return sadd(a, b.operand)
    if _is_const(a, 0):
        return sneg(b)
    return Sub(a, b)


def smul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(Fraction(0))
    if _is_const(a, -1):
        return sneg(b)
    if _is_const(b, -1):
        return sneg(a)
    return Mul(a, b)


def sneg(a: Expr) -> Expr:
    if isinstance(a, Neg):
        return a.operand
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Sub):
        return Sub(a.right, a.left)
    return Neg(a)


def spow(base: Expr, e: Fraction) -> Expr:
    if e == 1:
        return base
    if _is_const(base) and e.denominator == 1:
        if e >= 0:
            return Const(base.value ** e.numerator)
        if base.value != 0:
            return Const(Fraction(1) / base.value ** (-e.numerator))
    return Pow(base, e)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def differentiate(e: Expr, name: str) -> Expr:
    """Symbolic partial derivative with respect to 'x' or 'y'.  The AST is
    frozen and hashable, so each (subexpression, variable) pair is
    differentiated once and the result is shared."""
    if name not in ("x", "y"):
        raise ValueError("variable must be 'x' or 'y'")
    if isinstance(e, Var):
        return Const(Fraction(1 if e.name == name else 0))
    if isinstance(e, Const):
        return Const(Fraction(0))
    if isinstance(e, Add):
        return sadd(differentiate(e.left, name), differentiate(e.right, name))
    if isinstance(e, Sub):
        return ssub(differentiate(e.left, name), differentiate(e.right, name))
    if isinstance(e, Mul):
        return sadd(smul(differentiate(e.left, name), e.right),
                    smul(e.left, differentiate(e.right, name)))
    if isinstance(e, Div):
        # split form du/v - u*dv/v^2 keeps v from entering the enclosure twice
        du = differentiate(e.left, name)
        dv = differentiate(e.right, name)
        term1 = Const(Fraction(0)) if _is_const(du, 0) else Div(du, e.right)
        if _is_const(dv, 0):
            return term1
        term2 = Div(smul(e.left, dv), spow(e.right, Fraction(2)))
        return ssub(term1, term2)
    if isinstance(e, Pow):
        inner = differentiate(e.base, name)
        if _is_const(inner, 0):
            return Const(Fraction(0))
        return smul(smul(Const(e.exponent), spow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Neg):
        return sneg(differentiate(e.operand, name))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Interval evaluation
# ---------------------------------------------------------------------------

_BINARY_OPS = {Add: Interval.__add__, Sub: Interval.__sub__,
               Mul: Interval.__mul__, Div: Interval.__truediv__}


def _operation(e: Expr) -> tuple[Callable[..., Interval], tuple[Expr, ...]]:
    """The Interval operation of an operator node and its operands: the one
    place where node types meet interval arithmetic."""
    t = type(e)
    op = _BINARY_OPS.get(t)
    if op is not None:
        return op, (e.left, e.right)
    if t is Pow:
        return partial(Interval.pow_rational, e=e.exponent), (e.base,)
    if t is Neg:
        return Interval.__neg__, (e.operand,)
    raise TypeError(f"not an expression node: {e!r}")


def eval_interval(e: Expr, rx: Interval, ry: Interval) -> Interval:
    """Sound enclosure of f over the rectangle rx x ry.

    Exact at the corners for expressions monotone in each variable on the
    rectangle (each variable occurring once, as in the whole built-in
    function family).
    """
    t = type(e)
    if t is Var:
        return rx if e.name == "x" else ry
    if t is Const:
        return Interval.point(e.value)
    op, operands = _operation(e)
    if len(operands) == 1:
        return op(eval_interval(operands[0], rx, ry))
    left, right = operands
    return op(eval_interval(left, rx, ry), eval_interval(right, rx, ry))


# variable sets of a subtree, as bit masks
_NONE, _X, _Y, _XY = 0, 1, 2, 3


def eval_grid(e: Expr, xs: Sequence[Interval], ys: Sequence[Interval]) -> Iterator[Interval]:
    """eval_interval(e, ix, iy) for every rectangle of the grid xs x ys,
    x-major (ix outer, iy inner), as a lazy stream.

    A subtree that uses only x is evaluated once per interval of xs, one that
    uses only y once per interval of ys, and a constant one once; only
    subtrees that use both run per rectangle.  Each enclosure is the one
    eval_interval returns, since the same operations meet the same operands,
    and no operation runs that the per-rectangle loop would not run.
    Per-rectangle values stream through without being stored.
    """
    nx, ny = len(xs), len(ys)
    if not nx or not ny:
        return iter(())
    size = {_NONE: 1, _X: nx, _Y: ny, _XY: nx * ny}

    def spread(mask: int, vals, to: int):
        """The values of a subtree over the wider variable set `to`, in its
        order, repeating references rather than copying."""
        if mask == to:
            return vals
        if mask == _NONE:
            return repeat(vals, size[to])
        if mask == _X:
            return chain.from_iterable(repeat(v, ny) for v in vals)
        return chain.from_iterable(repeat(list(vals), nx))

    def walk(node: Expr):
        """(variable mask, values): one value for a constant subtree, else an
        iterator over its grid in order."""
        if isinstance(node, Var):
            return (_X, iter(xs)) if node.name == "x" else (_Y, iter(ys))
        if isinstance(node, Const):
            return _NONE, Interval.point(node.value)
        op, operands = _operation(node)
        parts = [walk(a) for a in operands]
        mask = 0
        for m, _ in parts:
            mask |= m
        if mask == _NONE:
            return _NONE, op(*[v for _, v in parts])
        return mask, map(op, *[spread(m, v, mask) for m, v in parts])

    mask, vals = walk(e)
    return spread(mask, vals, _XY)


def eval_point(e: Expr, x, y) -> Interval:
    """Enclosure of f at an exact point; degenerate except through fractional
    powers, whose irrational values are outward-rounded."""
    return eval_interval(e, Interval.point(as_scalar(x)), Interval.point(as_scalar(y)))


@dataclass(frozen=True)
class GradEnclosure:
    """Interval enclosures of both partial derivatives over one rectangle."""

    dx: Interval
    dy: Interval
    rect: tuple[Interval, Interval]


def grad_enclosure(f: Expr, rect: tuple[Interval, Interval]) -> GradEnclosure:
    """Enclose both partials of f over the rectangle; raises DomainError if a
    partial is undefined somewhere on it."""
    rx, ry = rect
    fx = differentiate(f, "x")
    fy = differentiate(f, "y")
    return GradEnclosure(dx=eval_interval(fx, rx, ry),
                         dy=eval_interval(fy, rx, ry),
                         rect=(rx, ry))
