"""Two-variable function expressions: parsing, symbolic partial derivatives,
one compiled program per expression that encloses f and both partials over
a rectangle, and rigorous interval enclosures over grids of rectangles.

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

from collections import deque
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, compress, repeat
from math import lcm
from operator import add, floordiv, gt, mul, sub
from typing import Callable, Iterable, Iterator, Sequence, Union

from ._value import Value, setfield
from .errors import (DivByZeroInterval, DomainError, ExprSyntaxError, ResourceBudget,
                     ZeroExponentError)
from .exactnum import (DENOMINATOR_BOUND, FieldElement, Interval, IntervalLattice,
                       TripleInterval, merge_int_pairs, on_own_lcms, pow_numerators)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Var(Value):
    __slots__ = ("name",)  # 'x' or 'y'

    def __init__(self, name: str):
        setfield(self, "name", name)


class Const(Value):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        setfield(self, "value", value)


class _Binary(Value):
    """The __init__ of the binary nodes, whose fields are left and right."""

    __slots__ = ()

    def __init__(self, left: "Expr", right: "Expr"):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Add(_Binary):
    __slots__ = ("left", "right")


class Sub(_Binary):
    __slots__ = ("left", "right")


class Mul(_Binary):
    __slots__ = ("left", "right")


class Div(_Binary):
    __slots__ = ("left", "right")


class Pow(Value):
    __slots__ = ("base", "exponent")

    def __init__(self, base: "Expr", exponent: Fraction):
        setfield(self, "base", base)
        setfield(self, "exponent", exponent)


class Neg(Value):
    __slots__ = ("operand",)

    def __init__(self, operand: "Expr"):
        setfield(self, "operand", operand)


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


# variable sets of a subtree, as bit masks
_NONE, _X, _Y, _XY = 0, 1, 2, 3


class _GridWalk:
    """One walk of an expression over the grid xs x ys, x-major.

    walk(node) returns (variable mask, values): one value for a constant
    subtree, else an iterator over the subtree's own grid (xs, ys or the
    whole grid) in order.  A subtree that uses only x runs its Interval
    operation once per interval of xs, one that uses only y once per
    interval of ys, and a constant one once.  A subtree that uses both runs
    per rectangle.
    """

    def __init__(self, xs: Sequence, ys: Sequence):
        self.xs, self.ys = xs, ys
        self.size = {_NONE: 1, _X: len(xs), _Y: len(ys), _XY: len(xs) * len(ys)}

    def spread(self, mask: int, vals, to: int):
        """The values of a subtree over the wider variable set `to`, in its
        order, repeating references rather than copying."""
        if mask == to:
            return vals
        if mask == _NONE:
            return repeat(vals, self.size[to])
        if mask == _X:
            return chain.from_iterable(repeat(v, self.size[_Y]) for v in vals)
        return chain.from_iterable(repeat(list(vals), self.size[_X]))

    def walk(self, node: Expr):
        if isinstance(node, Var):
            return (_X, iter(self.xs)) if node.name == "x" else (_Y, iter(self.ys))
        if isinstance(node, Const):
            return _NONE, Interval.point(node.value)
        op, operands = _operation(node)
        parts = [self.walk(a) for a in operands]
        mask = 0
        for m, _ in parts:
            mask |= m
        if mask == _NONE:
            return _NONE, op(*[v for _, v in parts])
        return mask, map(op, *[self.spread(m, v, mask) for m, v in parts])


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
    if not xs or not ys:
        return iter(())
    grid = _GridWalk(xs, ys)
    mask, vals = grid.walk(e)
    return grid.spread(mask, vals, _XY)


# ---------------------------------------------------------------------------
# Grid evaluation on integer numerators
# ---------------------------------------------------------------------------

def _common(values: list[int]) -> int | None:
    """The value all entries of a non-empty list share, or None."""
    v = values[0]
    return v if values.count(v) == len(values) else None


def _grid_products(grid: _GridWalk, rows: list[int], cols: list[int]) -> Iterator[int]:
    """rows[i]*cols[j] for each rectangle (i, j), x-major.  A list that is
    the same throughout is folded into the other, so that a product is
    formed per rectangle only when both vary."""
    cx, cy = _common(rows), _common(cols)
    if cy is not None:
        return grid.spread(_X, list(map(mul, rows, repeat(cy))), _XY)
    if cx is not None:
        return grid.spread(_Y, list(map(mul, cols, repeat(cx))), _XY)
    return (a * b for a in rows for b in cols)


def _fold(pairs: list, own: list[int], other: list[int]) -> tuple[list, list[int] | None]:
    """The pairs of a subtree in one variable times the factors `own` of its
    axis, and times those of the other axis too when they are the same
    throughout: (scaled pairs, the other axis's factors or None)."""
    c = _common(other)
    if c is not None:
        own, other = list(map(mul, own, repeat(c))), None
    if _common(own) != 1:
        pairs = [(lo * f, hi * f) for (lo, hi), f in zip(pairs, own)]
    return pairs, other


def _axis(ivs: Sequence[Interval]) -> tuple[int | list[int], list[tuple[int, int]]] | None:
    """One axis of a grid on integers: (den, pairs), the i-th interval being
    [lo/d, hi/d] for the i-th pair (lo, hi), d being den itself when it is
    an int and den[i] otherwise; None when an endpoint is a FieldElement.

    An IntervalLattice gives its own numerators over its one denominator.
    Any other sequence is lifted once, each interval as its triple (see
    _triple); when one triple's denominator is a multiple of all the
    others, as for the cylinders of a rational IFS, the axis shares it."""
    if isinstance(ivs, IntervalLattice):
        return ivs.den, ivs.pairs()
    triples = [_triple(iv) for iv in ivs]
    if None in triples:
        return None
    if not triples:
        return 1, []
    dens = [d for _, _, d in triples]
    top = lcm(*dens)
    if top in dens:
        return top, [(lo * (top // d), hi * (top // d)) for lo, hi, d in triples]
    return dens, [(lo, hi) for lo, hi, _ in triples]


def _rescaled(grid: _GridWalk, lifted: tuple, tx: list[int], ty: list[int]) -> Iterator:
    """The numerator stream of a lifted subtree over the grid, brought from
    its denominators onto tx[i]*ty[j].  A factor along the subtree's own
    axis, or one that is the same for every cylinder, is applied once per
    cylinder; only a factor that varies along an axis the subtree does not
    use costs a product per rectangle."""
    mask, dx, dy, vals = lifted
    rows = list(map(floordiv, tx, dx))
    cols = list(map(floordiv, ty, dy))
    if mask == _X:
        vals, cols = _fold(vals, rows, cols)
        factors = None if cols is None else grid.spread(_Y, cols, _XY)
    elif mask == _Y:
        vals, rows = _fold(vals, cols, rows)
        factors = None if rows is None else grid.spread(_X, rows, _XY)
    elif _common(rows) == 1 and _common(cols) == 1:
        factors = None
    else:
        factors = _grid_products(grid, rows, cols)
    stream = grid.spread(mask, vals, _XY)
    if factors is None:
        return stream
    return ((lo * f, hi * f) for (lo, hi), f in zip(stream, factors))


def _imul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    a0, a1 = a
    b0, b1 = b
    if a0 >= 0 and b0 >= 0:
        return a0 * b0, a1 * b1
    cands = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    return min(cands), max(cands)


def _ipow(a: tuple[int, int], n: int) -> tuple[int, int]:
    lo, hi = a
    plo, phi = lo ** n, hi ** n
    if n % 2 == 1 or lo >= 0:
        return plo, phi
    if hi < 0:
        return phi, plo
    return 0, max(plo, phi)


@lru_cache(maxsize=4096)
def _variables(e: Expr) -> int:
    """The variable mask of e."""
    t = type(e)
    if t is Var:
        return _X if e.name == "x" else _Y
    if t is Const:
        return _NONE
    mask = _NONE
    for a in _operation(e)[1]:
        mask |= _variables(a)
    return mask


@lru_cache(maxsize=4096)
def _on_lattice(e: Expr) -> bool:
    """Whether eval_lattice runs e: no subtree in both variables is divided
    by one in both or raised to a power other than a positive integer."""
    t = type(e)
    if t is Var or t is Const:
        return True
    if _variables(e) == _XY:
        if t is Div and _variables(e.right) == _XY:
            return False
        if t is Pow and (e.exponent <= 0 or e.exponent.denominator != 1):
            return False
    return all(map(_on_lattice, _operation(e)[1]))


def _leaf_axis(node: Expr, mask: int, axis: tuple) -> tuple[int | list[int], list]:
    """A subtree in the one variable `mask` over a non-empty axis (den,
    pairs) of that variable (see _axis), in the same form: its compiled
    code run on integer triples once per interval, the axis itself for the
    variable alone.  The denominator is the triples' shared one when all
    agree, else one per interval."""
    if type(node) is Var:
        return axis
    template, code, out = _triple_code(node)
    den, pairs = axis
    var = 0 if mask == _X else 1
    triples = []
    for (lo, hi), d in zip(pairs, repeat(den) if isinstance(den, int) else den):
        regs = template.copy()
        regs[var] = (lo, hi, d)
        _run_triples(code, regs)
        triples.append(regs[out])
    dens = [d for _, _, d in triples]
    shared = _common(dens)
    return (dens if shared is None else shared), [(lo, hi) for lo, hi, _ in triples]


class _LatticeWalk(_GridWalk):
    """The walk of eval_lattice over two axes given as (den, pairs) (see
    _axis).  lift(node) returns (mask, dx, dy, numerators), the subtree's
    value on rectangle (i, j) being a pair of numerators over dx[i]*dy[j]: a
    list of pairs, one per interval of its axis, for a subtree in one
    variable (a constant counts as one in x), a stream over the grid for one
    in both.  A shared denominator sits in dx, so that sums of shared values
    stay over the lcm of their denominators."""

    def __init__(self, ax: tuple, ay: tuple):
        super().__init__(ax[1], ay[1])
        self.axes = {_X: ax, _Y: ay}

    def _lifted(self, mask: int, den, pairs: list) -> tuple:
        ones_x, ones_y = [1] * self.size[_X], [1] * self.size[_Y]
        if isinstance(den, int):
            return mask, [den] * len(ones_x), ones_y, pairs
        return (mask, den, ones_y, pairs) if mask == _X else (mask, ones_x, den, pairs)

    def leaf(self, node: Expr, mask: int) -> tuple:
        """A subtree in one variable, or none, lifted: its compiled code run
        on integer triples once per interval of its axis (see _leaf_axis),
        or once for a constant."""
        if mask != _NONE:
            return self._lifted(mask, *_leaf_axis(node, mask, self.axes[mask]))
        template, code, out = _triple_code(node)
        regs = template.copy()
        _run_triples(code, regs)
        lo, hi, d = regs[out]
        return self._lifted(_X, d, [(lo, hi)] * self.size[_X])

    def lift(self, node: Expr) -> tuple:
        """A subtree, lifted.  In both variables it adds, subtracts,
        multiplies, negates and takes positive integer powers on integers;
        a divisor, in one variable here, is lifted as its reciprocal, so
        that dividing is multiplying."""
        mask = _variables(node)
        if mask != _XY:
            return self.leaf(node, mask)
        t = type(node)
        if t is Div:
            ops = [self.lift(node.left),
                   self.leaf(Pow(node.right, Fraction(-1)), _variables(node.right))]
        else:
            ops = [self.lift(a) for a in _operation(node)[1]]
        if t is Add or t is Sub:
            (_, ax, ay, _), (_, bx, by, _) = ops
            tx, ty = list(map(lcm, ax, bx)), list(map(lcm, ay, by))
            a, b = (_rescaled(self, op, tx, ty) for op in ops)
            if t is Add:
                return _XY, tx, ty, ((a0 + b0, a1 + b1) for (a0, a1), (b0, b1) in zip(a, b))
            return _XY, tx, ty, ((a0 - b1, a1 - b0) for (a0, a1), (b0, b1) in zip(a, b))
        streams = [self.spread(m, v, _XY) for m, _, _, v in ops]
        if t is Mul or t is Div:
            (_, ax, ay, _), (_, bx, by, _) = ops
            return _XY, list(map(mul, ax, bx)), list(map(mul, ay, by)), map(_imul, *streams)
        _, dx, dy, _ = ops[0]
        if t is Neg:
            return _XY, dx, dy, ((-hi, -lo) for lo, hi in streams[0])
        n = node.exponent.numerator  # Pow: a positive integer here
        return (_XY, list(map(pow, dx, repeat(n))), list(map(pow, dy, repeat(n))),
                map(partial(_ipow, n=n), streams[0]))


def eval_lattice(e: Expr, xs: Sequence[Interval], ys: Sequence[Interval]
                 ) -> tuple[int | Iterator[int], Iterator[tuple[int, int]]] | None:
    """eval_grid on integer numerators: (den, pairs), where the n-th pair
    (lo, hi) gives the n-th enclosure of eval_grid as [lo/d, hi/d], d being
    den when every rectangle shares one denominator and the n-th entry of
    the iterable den otherwise.

    Each axis is read once onto integers (see _axis): an IntervalLattice,
    such as the cylinders of a rational IFS, as it stands.  Subtrees in one
    variable, or none, then run their compiled code on integer triples once
    per interval of their axis, or once, and subtrees in both variables
    run per rectangle on integers (see _LatticeWalk).  Returns None, leaving
    the grid to eval_grid, when an endpoint is a FieldElement, or when a
    subtree in both variables is divided by one in both or raised to a power
    other than a positive integer.

    Every operation that can fail runs before this returns.  On a failure
    the DomainError raised is the one eval_grid raises at its first failing
    rectangle, so both paths fail alike.
    """
    ax, ay = _axis(xs), _axis(ys)
    if ax is None or ay is None:
        return None
    if not xs or not ys:
        return 1, iter(())
    if not _on_lattice(e):
        return None
    try:
        return _lattice_pairs(e, ax, ay)
    except DomainError:
        deque(eval_grid(e, xs, ys), maxlen=0)
        raise


def _lattice_pairs(e: Expr, ax: tuple, ay: tuple) -> tuple:
    """eval_lattice's (den, pairs) for e over two non-empty axes (see
    _axis).  Every operation that can fail runs before this returns."""
    walk = _LatticeWalk(ax, ay)
    mask, dx, dy, vals = walk.lift(e)
    pairs = walk.spread(mask, vals, _XY)
    cx, cy = _common(dx), _common(dy)
    if cx is not None and cy is not None:
        return cx * cy, pairs
    return _grid_products(walk, dx, dy), pairs


@lru_cache(maxsize=4096)
def _split(e: Expr) -> tuple[Expr, Expr, Expr, Expr] | None:
    """(outer, inner, ex, ey) when x and y meet in e at exactly one +, -, *
    or / node, with one operand in x alone and one in y alone, and every
    node above it combines only with constants (a constant operand, a
    negation or a power, a positive integer one under _on_lattice): ex and
    ey are the operands in x and in y, a divisor being taken as its
    reciprocal; inner is the meeting node on x and y in their places, a
    division becoming a multiplication; outer is e with the meeting node
    replaced by x.  None otherwise."""
    if _variables(e) != _XY:
        return None
    t = type(e)
    if t is Neg or t is Pow:
        split = _split(e.operand if t is Neg else e.base)
        if split is None:
            return None
        outer, *rest = split
        return (Neg(outer) if t is Neg else Pow(outer, e.exponent)), *rest
    left, right = e.left, e.right
    ml, mr = _variables(left), _variables(right)
    if {ml, mr} == {_X, _Y}:
        if t is Div:
            t, right = Mul, Pow(right, Fraction(-1))
        sides = {ml: left, mr: right}
        return X, t(X if ml == _X else Y, X if mr == _X else Y), sides[_X], sides[_Y]
    if _NONE not in (ml, mr):
        return None
    split = _split(left if mr == _NONE else right)
    if split is None:
        return None
    outer, *rest = split
    return (t(outer, right) if mr == _NONE else t(left, outer)), *rest


def _gauge(t: type, side: tuple) -> tuple[int, int, int, int]:
    """What the pieces of a sorted, merged side (see _axis) let the other
    operand of t close: (a, b, g, e), a gap (u, v) of the other operand
    closing when v*a <= u*b + g/e.

    For + and - this is a = b = 1 and g/e the width of the narrowest piece:
    [u, v] + [c, d] lies in (u + [c, d]) U (v + [c, d]) iff v - u <= d - c,
    and a piece of -B is as wide as the piece of B it mirrors.  For * over
    nonnegative operands it is g = 0 and (a, b) the numerators (c, d) of the
    piece with the smallest ratio d/c, c > 0: [u, v]*[c, d] lies in
    u*[c, d] U v*[c, d] iff v*c <= u*d.  A piece with c = 0 imposes no
    condition, so when every piece starts at 0, a = b = 0 and every gap
    closes."""
    den, pairs = side
    if t is Mul:
        a = b = 0
        for lo, hi in pairs:
            if lo > 0 and (a == 0 or hi * a < b * lo):
                a, b = lo, hi
        return a, b, 0, 1
    if isinstance(den, int):
        return 1, 1, min(hi - lo for lo, hi in pairs), den
    g, e = None, 1
    for (lo, hi), d in zip(pairs, den):
        if g is None or (hi - lo) * e < g * d:
            g, e = hi - lo, d
    return 1, 1, g, e


def _close(side: tuple, gauge: tuple) -> tuple:
    """A sorted, merged side (see _axis) with every gap (u, v) closed that
    the gauge (a, b, g, e) closes (see _gauge): v*a <= u*b + g/e, on
    integers.  The gauge is fixed, so each gap is tested on its own, all in
    one pass of mapped products.  A merged piece whose ends have different
    denominators is brought onto their lcm."""
    den, pairs = side
    if len(pairs) < 2:
        return side
    a, b, g, e = gauge
    lows, highs = zip(*pairs)
    vs, us = lows[1:], highs[:-1]
    if isinstance(den, int):  # v*a - u*b <= g*den // e on the numerators
        if a != 1 or b != 1:
            vs, us = map(mul, vs, repeat(a)), map(mul, us, repeat(b))
        opens = list(map(gt, map(sub, vs, us), repeat(g * den // e)))
    else:  # v*a*e*du <= (u*b*e + g*du)*dv over the ends' own du and dv
        du, dv = den[:-1], den[1:]
        vs, us = map(mul, vs, repeat(a * e)), map(mul, us, repeat(b * e))
        opens = list(map(gt, map(mul, vs, du),
                         map(mul, map(add, us, map(mul, du, repeat(g))), dv)))
    if all(opens):
        return side
    lows = (lows[0], *compress(lows[1:], opens))
    highs = (*compress(highs[:-1], opens), highs[-1])
    if isinstance(den, int):
        return den, list(zip(lows, highs))
    return on_own_lcms(zip(lows, (den[0], *compress(dv, opens)),
                           highs, (*compress(du, opens), den[-1])))


def _bridged(t: type, ax: tuple, ay: tuple) -> tuple[tuple, tuple]:
    """The two operands of t, each an axis in _axis's form, sorted, merged
    and bridged: every gap of one side that the other side's pieces span
    is closed (see _gauge), alternately, until neither side changes.  Each
    closing leaves A t B as it was, since the gap's ends lie in the side,
    so the pair of axes has the image of the given pair under t.  Merging
    is the case of a gap of width 0.  A product with a negative piece on
    either side is only merged."""
    a, b = (merge_int_pairs(pairs, den) for den, pairs in (ax, ay))
    if t is Mul and (a[1][0][0] < 0 or b[1][0][0] < 0):
        return a, b
    while True:
        a = _close(a, _gauge(t, b))
        closed = _close(b, _gauge(t, a))
        if closed is b:
            return a, b
        b = closed


def _within_budget(n: int, m: int, budget: int | None) -> None:
    """Refuse to pair n x m rectangles beyond the budget, None meaning no
    limit."""
    if budget is not None and n * m > budget:
        raise ResourceBudget(f"{n}x{m} rectangles exceed budget {budget}")


def lattice_cover(e: Expr, xs: Sequence[Interval], ys: Sequence[Interval],
                  budget: int | None = None
                  ) -> tuple[int | Iterable[int], Iterable[tuple[int, int]]] | None:
    """Pieces (den, pairs), in eval_lattice's form, whose union is the
    union of the enclosures eval_grid gives over xs x ys; None when
    eval_lattice returns None.

    When e splits (see _split) as outer(inner(ex(x), ey(y))), each side
    runs once per interval of its axis, as in eval_lattice.  The two sides
    are then sorted, merged and bridged on integers (see _bridged): a gap
    of one side no wider than the narrowest piece of the other is closed,
    since for + and - A + B = (A U [u, v]) + B when [u, v] is a gap of A
    and v - u <= d - c for every piece [c, d] of B (the gap lemma behind
    Newhouse's thickness theorem and Simon and Taylor's tau1*tau2 >= 1),
    and likewise v*c <= u*d for * over nonnegative sides.  inner runs over
    the bridged axes, and outer once per piece of inner's merged union, so
    the work scales with bridged pieces, not with rectangles: Cantor x+y
    closes to one piece on each side.  The union is the same because all
    of these operations give exact images (see empirics.grid_cover).
    Otherwise, and on a DomainError, this is eval_lattice, which raises the
    error eval_grid raises.

    ResourceBudget is raised when the rectangles to be paired exceed the
    budget, before they are: the bridged pieces of a split e, otherwise
    the whole grid, before anything is evaluated.  A None return has passed
    the grid's check too."""
    split = _split(e) if xs and ys and _on_lattice(e) else None
    if split is not None:
        ax, ay = _axis(xs), _axis(ys)
    if split is None or ax is None or ay is None:
        _within_budget(len(xs), len(ys), budget)
        return eval_lattice(e, xs, ys)
    outer, inner, ex, ey = split
    try:
        ax, ay = _bridged(type(inner), _leaf_axis(ex, _X, ax), _leaf_axis(ey, _Y, ay))
        _within_budget(len(ax[1]), len(ay[1]), budget)
        den, pairs = _lattice_pairs(inner, ax, ay)
        if type(outer) is Var:  # the caller merges inner's pieces
            return den, pairs
        return _leaf_axis(outer, _X, merge_int_pairs(pairs, den))
    except DomainError:
        _within_budget(len(xs), len(ys), budget)
        return eval_lattice(e, xs, ys)


# ---------------------------------------------------------------------------
# Compiled programs: f and both partials as one straight-line program
# ---------------------------------------------------------------------------

class GradEnclosure(Value):
    """Interval enclosures of both partial derivatives over one rectangle."""

    __slots__ = ("dx", "dy", "rect")

    def __init__(self, dx: Interval, dy: Interval, rect: tuple[Interval, Interval]):
        setfield(self, "dx", dx)
        setfield(self, "dy", dy)
        setfield(self, "rect", rect)


# An instruction is (opcode, destination, operand, arg): arg is the second
# operand of a binary operation, the exponent of a power (an int for an
# integer power, a Fraction for a fractional one), None for a negation.
# All are registers but the exponents.
_ADD, _SUB, _MUL, _DIV, _NEG, _IPOW, _FPOW = range(7)
_OPCODES = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}
_INTERVAL_BINARY = tuple(_BINARY_OPS[t] for t in (Add, Sub, Mul, Div))


def _triple(iv: Interval) -> tuple[int, int, int] | None:
    """A rational interval as (lo, hi, d), the interval [lo/d, hi/d] with
    d > 0: a TripleInterval's own; None when an endpoint is a
    FieldElement."""
    if type(iv) is TripleInterval:
        return iv.triple
    lo, hi = iv.lo, iv.hi
    if isinstance(lo, FieldElement) or isinstance(hi, FieldElement):
        return None
    ld, hd = lo.denominator, hi.denominator
    if ld == hd:
        return lo.numerator, hi.numerator, ld
    return lo.numerator * hd, hi.numerator * ld, ld * hd


def _interval(t: tuple[int, int, int]) -> Interval:
    lo, hi, d = t
    return Interval(Fraction(lo, d), Fraction(hi, d))


def _triple_pow(lo: int, hi: int, d: int, n: int) -> tuple[int, int, int]:
    """Interval.pow_int on a triple."""
    if n == 0:
        return 1, 1, 1
    m = abs(n)
    plo, phi = lo ** m, hi ** m
    if m % 2 == 0 and lo < 0:
        plo, phi = (phi, plo) if hi < 0 else (0, max(plo, phi))
    dm = d ** m
    if n > 0:
        return plo, phi, dm
    if plo <= 0 <= phi:
        raise DivByZeroInterval("interval contains 0")
    return dm * plo, dm * phi, plo * phi


def _run_triples(code: Sequence[tuple], regs: list) -> None:
    """Run instructions on rational triples (see _triple), in place.  No gcd
    is taken: a sum or a product is over the product of its operands'
    denominators, a sum over equal ones over that one.  Each operation
    raises what its Interval counterpart raises on the same operands."""
    for op, dst, a, b in code:
        lo, hi, d = regs[a]
        if op >= _NEG:
            if op == _NEG:
                regs[dst] = (-hi, -lo, d)
            elif op == _IPOW:
                regs[dst] = _triple_pow(lo, hi, d, b)
            else:
                if lo <= 0:
                    raise DomainError("fractional power of an interval touching <= 0")
                lo_lo, lo_hi = pow_numerators(lo, d, b)
                hi_lo, hi_hi = (lo_lo, lo_hi) if lo == hi else pow_numerators(hi, d, b)
                regs[dst] = ((lo_lo, hi_hi, DENOMINATOR_BOUND) if b.numerator > 0
                             else (hi_lo, lo_hi, DENOMINATOR_BOUND))
            continue
        blo, bhi, bd = regs[b]
        if op == _DIV:  # times the reciprocal [bd/bhi, bd/blo]
            if blo <= 0 <= bhi:
                raise DivByZeroInterval("interval contains 0")
            blo, bhi, bd = bd * blo, bd * bhi, blo * bhi
            op = _MUL
        if op == _MUL:
            if lo >= 0 and blo >= 0:
                regs[dst] = (lo * blo, hi * bhi, d * bd)
            else:
                c = (lo * blo, lo * bhi, hi * blo, hi * bhi)
                regs[dst] = (min(c), max(c), d * bd)
            continue
        if d != bd:
            lo, hi, blo, bhi, d = lo * bd, hi * bd, blo * d, bhi * d, d * bd
        regs[dst] = (lo + blo, hi + bhi, d) if op == _ADD else (lo - bhi, hi - blo, d)


def _run_intervals(code: Sequence[tuple], regs: list) -> None:
    """Run instructions on Intervals, in place: each is the Interval
    operation a recursive walk would apply to the same node."""
    for op, dst, a, b in code:
        if op == _NEG:
            regs[dst] = -regs[a]
        elif op >= _IPOW:
            regs[dst] = regs[a].pow_rational(b)
        else:
            regs[dst] = _INTERVAL_BINARY[op](regs[a], regs[b])


def _compile(exprs: Sequence[Expr]) -> tuple[list, list[int], list[tuple]]:
    """Straight-line code for exprs with shared subterms: (consts, outputs,
    walks).  Registers 0 and 1 hold x and y; each distinct constant and
    operator node has one more, consts[r] being the constant of register r
    or None.  outputs[i] is the register of exprs[i], and walks[i] the
    instructions of its full postorder, with repeats; each node's
    instruction is the same tuple in every walk."""
    regs: dict[Expr, int] = {}
    consts: list = [None, None]
    instrs: dict[int, tuple] = {}

    def visit(node: Expr, walk: list) -> int:
        t = type(node)
        if t is Var:
            return 0 if node.name == "x" else 1
        if t is Const:
            r = regs.get(node)
            if r is None:
                r = regs[node] = len(consts)
                consts.append(node.value)
            return r
        if t is Pow:
            ex = node.exponent
            op, arg = (_IPOW, ex.numerator) if ex.denominator == 1 else (_FPOW, ex)
            a = visit(node.base, walk)
        elif t is Neg:
            op, arg = _NEG, None
            a = visit(node.operand, walk)
        elif t in _OPCODES:
            op = _OPCODES[t]
            a = visit(node.left, walk)
            arg = visit(node.right, walk)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        r = regs.get(node)
        if r is None:
            r = regs[node] = len(consts)
            consts.append(None)
            instrs[r] = (op, r, a, arg)
        walk.append(instrs[r])
        return r

    outputs, walks = [], []
    for e in exprs:
        walk: list[tuple] = []
        outputs.append(visit(e, walk))
        walks.append(tuple(walk))
    return consts, outputs, walks


def _code(*walks: tuple) -> tuple:
    """The instructions of the walks, each once, in the order first met."""
    return tuple(dict.fromkeys(chain.from_iterable(walks)))


def _triple_registers(consts: list) -> list:
    return [None if c is None else (c.numerator, c.numerator, c.denominator) for c in consts]


@lru_cache(maxsize=4096)
def _triple_code(e: Expr) -> tuple[list, tuple, int]:
    """(registers, code, output) for running e alone on triples: the
    registers hold e's constants and must be copied before a run."""
    consts, (out,), (walk,) = _compile((e,))
    return _triple_registers(consts), _code(walk), out


class Program:
    """f, f_x and f_y of one expression as straight-line code (see
    _compile).

    `code` computes all three: f's operator nodes in the postorder of a
    recursive walk, then those of the partials that f has not computed, in
    theirs.  Its first instructions, `f_code`, compute f; `grad_code`
    computes the partials alone, in the order of walking f_x and then f_y.

    There are two number domains.  A rectangle with rational ends runs that
    shared code on integer triples (see _triple), and value_triple and
    gradient_triples take and return the triples themselves.  Only the
    enclosures that value and gradient return become Fractions.  Every
    operation there is exact but a fractional power, whose bounds
    (pow_numerators) depend on the value of its operand alone, so each
    enclosure equals the one the recursive walk of Interval operations
    gives.  Each node computes the same value wherever it occurs, so the
    first instruction that fails is the walk's first failing node, and the
    error is the same.

    A rectangle with a FieldElement end runs Interval operations in the
    order of that walk: `walks` holds each output's full postorder, with
    repeats, so only leaves are shared.  Comparing or rounding field
    elements refines their shared generator, and later enclosures depend on
    the order of those refinements.
    """

    __slots__ = ("outputs", "code", "f_code", "grad_code", "walks", "_triples", "_points")

    def __init__(self, e: Expr):
        consts, outputs, walks = _compile((e, differentiate(e, "x"), differentiate(e, "y")))
        self.outputs = tuple(outputs)
        self.walks = tuple(walks)
        self.code = _code(*walks)
        self.f_code = _code(walks[0])
        self.grad_code = _code(walks[1], walks[2])
        self._triples = _triple_registers(consts)
        self._points = [None if c is None else Interval.point(c) for c in consts]

    def _run(self, tx: tuple, ty: tuple, code: tuple) -> list:
        """The registers after running code on the rectangle of the triples
        tx x ty."""
        regs = self._triples.copy()
        regs[0], regs[1] = tx, ty
        _run_triples(code, regs)
        return regs

    def value_triple(self, tx: tuple, ty: tuple) -> tuple[int, int, int]:
        """value over the rectangle of the triples tx x ty, as a triple."""
        return self._run(tx, ty, self.f_code)[self.outputs[0]]

    def gradient_triples(self, tx: tuple, ty: tuple, with_f: bool = False) -> tuple[tuple, tuple]:
        """gradient's dx and dy over the rectangle of the triples tx x ty,
        as triples."""
        regs = self._run(tx, ty, self.code if with_f else self.grad_code)
        return regs[self.outputs[1]], regs[self.outputs[2]]

    def value(self, rx: Interval, ry: Interval) -> Interval:
        """Enclosure of f over the rectangle rx x ry."""
        tx, ty = _triple(rx), _triple(ry)
        if tx is not None and ty is not None:
            return _interval(self.value_triple(tx, ty))
        regs = self._points.copy()
        regs[0], regs[1] = rx, ry
        _run_intervals(self.walks[0], regs)
        return regs[self.outputs[0]]

    def gradient(self, rx: Interval, ry: Interval, with_f: bool = False) -> GradEnclosure:
        """Enclosures of both partials over the rectangle rx x ry.  With
        with_f, f is evaluated there first, so that a DomainError of f
        comes before one of a partial."""
        tx, ty = _triple(rx), _triple(ry)
        if tx is not None and ty is not None:
            dx, dy = map(_interval, self.gradient_triples(tx, ty, with_f))
        else:
            regs = self._points.copy()
            regs[0], regs[1] = rx, ry
            for walk in self.walks[0 if with_f else 1:]:
                _run_intervals(walk, regs)
            dx, dy = regs[self.outputs[1]], regs[self.outputs[2]]
        return GradEnclosure(dx=dx, dy=dy, rect=(rx, ry))


@lru_cache(maxsize=4096)
def compile_expr(e: Expr) -> Program:
    """The program of e and its partials; compiled once per expression."""
    return Program(e)


def eval_interval(e: Expr, rx: Interval, ry: Interval) -> Interval:
    """Sound enclosure of f over the rectangle rx x ry.

    Exact at the corners for expressions monotone in each variable on the
    rectangle (each variable occurring once, as in the whole built-in
    function family).
    """
    return compile_expr(e).value(rx, ry)


def eval_point(e: Expr, x, y) -> Interval:
    """Enclosure of f at an exact point; degenerate except through fractional
    powers, whose irrational values are outward-rounded."""
    return compile_expr(e).value(Interval.point(x), Interval.point(y))


def grad_enclosure(f: Expr, rect: tuple[Interval, Interval]) -> GradEnclosure:
    """Enclose both partials of f over the rectangle; raises DomainError if a
    partial is undefined somewhere on it."""
    return compile_expr(f).gradient(*rect)
