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

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat, tee
from math import lcm
from operator import add, gt, itemgetter, mul, sub, truediv
from typing import Iterable, Sequence, Union

from ._value import Value, setfield
from .errors import (DivByZeroInterval, DomainError, ExprSyntaxError, ResourceBudget,
                     ZeroExponentError)
from .exactnum import (DENOMINATOR_BOUND, Interval, IntervalLattice, TripleInterval,
                       ends_triple, merge_triples, pow_numerators, rational_triple,
                       shared_den)


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
# Grid runs: e's compiled code over every rectangle of a grid
# ---------------------------------------------------------------------------

# variable sets of a register or a subtree, as bit masks
_NONE, _X, _Y, _XY = 0, 1, 2, 3


@lru_cache(maxsize=4096)
def _grid_code(e: Expr) -> tuple[list, tuple, int, list[int], list[int]]:
    """(consts, code, out, masks, uses) for running e alone (see _compile):
    masks[r] is the variable mask of register r, the union of its
    operands', and uses[r] counts the operands, and the output, that read
    it."""
    consts, (out,), (walk,) = _compile((e,))
    code = _code(walk)
    masks = [_X, _Y] + [_NONE] * (len(consts) - 2)
    uses = [0] * len(consts)
    uses[out] = 1
    for op, dst, a, b in code:
        for r in ((a, b) if op < _NEG else (a,)):
            masks[dst] |= masks[r]
            uses[r] += 1
    return consts, code, out, masks, uses


def _spread(mask: int, value, nx: int, ny: int):
    """A register's value over the whole grid of nx x ny rectangles,
    x-major, repeating references rather than copying: one value, a list
    per x or per y interval, or already a stream over the grid."""
    if mask == _X:
        return chain.from_iterable(map(repeat, value, repeat(ny)))
    if mask == _Y:
        return chain.from_iterable(repeat(value, nx))
    return repeat(value, nx * ny) if mask == _NONE else value


def _shared(op: int, da: int | None, db: int | None, arg) -> int | None:
    """The denominator that every triple of an instruction's result shares,
    given its operands' (None where they vary), as _TRIPLE_OPS form it."""
    if da is None or (op < _NEG and db is None) or op == _DIV:
        return None
    if op == _NEG:
        return da
    if op == _IPOW:
        return da ** arg if arg >= 0 else None
    if op == _FPOW:
        return DENOMINATOR_BOUND
    return da if da == db and op != _MUL else da * db


def _run_grid(e: Expr, ops: tuple, regs: list, dens: list, nx: int, ny: int) -> tuple:
    """Run e's code column-wise over a grid of nx x ny rectangles, in one
    number domain (ops: _TRIPLE_OPS or _INTERVAL_OPS).  regs holds e's
    constants and, in registers 0 and 1, the lists of x and y values;
    dens[r] is the denominator all triples of register r share, else None.
    Returns the output's (mask, value, den).

    An instruction in x alone runs once per x interval, one in y alone
    once per y interval and a constant one once; only one in both runs
    per rectangle, as one lazy map of its opcode's function over its
    operands spread over the grid, x-major.  A register in both variables
    that several operands read is split with tee, so each stream is read
    once.  The one-variable operands of a + or - whose triples each share a
    denominator are brought onto the lcm of the two once per interval, so
    that the sum need not cross-multiply per rectangle."""
    _, code, out, masks, uses = _grid_code(e)

    def operand(r: int, to: int):
        if masks[r] == _XY:
            return regs[r].pop()
        return _spread(masks[r], regs[r], nx, ny) if to == _XY else (
            repeat(regs[r]) if masks[r] == _NONE else regs[r])

    for op, dst, a, b in code:
        binary = op < _NEG
        if op <= _SUB and None not in (dens[a], dens[b]) and dens[a] != dens[b]:
            top = lcm(dens[a], dens[b])
            for r in (a, b):
                if masks[r] in (_X, _Y) and dens[r] != top:
                    f = top // dens[r]
                    regs[r] = [(lo * f, hi * f, d * f) for lo, hi, d in regs[r]]
                    dens[r] = top
        dens[dst] = _shared(op, dens[a], dens[b] if binary else None, b)
        mask, fn = masks[dst], ops[op]
        if mask == _NONE:
            regs[dst] = fn(regs[a], regs[b] if binary else b)
            continue
        values = map(fn, operand(a, mask), operand(b, mask) if binary else repeat(b))
        if mask != _XY:
            regs[dst] = list(values)
        else:
            regs[dst] = list(tee(values, uses[dst])) if uses[dst] > 1 else [values]
    mask = masks[out]
    return mask, (regs[out].pop() if mask == _XY else regs[out]), dens[out]


def _on_triples(e: Expr, ax: list, ay: list) -> tuple:
    """_run_grid of e on triples over two axes of triples (see _axis), the
    denominator that each axis shares read from its own triples."""
    consts = _grid_code(e)[0]
    regs = _triple_registers(consts)
    dens = [None if c is None else c.denominator for c in consts]
    regs[0], regs[1] = ax, ay
    dens[0], dens[1] = (shared_den([d for _, _, d in axis]) for axis in (ax, ay))
    return _run_grid(e, _TRIPLE_OPS, regs, dens, len(ax), len(ay))


def _side(node: Expr, mask: int, axis: list) -> list:
    """A subtree in the one variable `mask` over an axis of that variable,
    both triples (see _axis): its code run once per interval."""
    return _on_triples(node, *((axis, []) if mask == _X else ([], axis)))[1]


def _image(node: Expr, mask: int, axis: list) -> list:
    """The union of _side's values, merged (see merge_triples).  When the
    variable occurs once in the subtree, every register in it read once,
    the code runs once per merged piece of the axis: each node then has the
    variable in one operand at most, so its enclosure over a union of
    overlapping intervals is the union of its enclosures over them, and a
    node fails on the union just when it fails on one of them (see
    empirics.grid_cover).  Otherwise, as in x - x^2, a merged piece would
    widen the values, and the code runs once per interval."""
    _, _, _, masks, uses = _grid_code(node)
    if all(u == 1 for m, u in zip(masks, uses) if m & mask):
        axis = merge_triples(axis)
    return merge_triples(_side(node, mask, axis))


def _pairs(e: Expr, ax: list, ay: list) -> Iterable[tuple[int, int, int]]:
    """e over every rectangle, every pair of intervals, of the grid of two
    non-empty axes of triples (see _axis), x-major, as a lazy stream of
    triples: the n-th (lo, hi, d) is the n-th enclosure [lo/d, hi/d]."""
    mask, value, _ = _on_triples(e, ax, ay)
    return _spread(mask, value, len(ax), len(ay))


def _first_failure(e: Expr, xs: Sequence[Interval], ys: Sequence[Interval]) -> None:
    """Run compile_expr(e).value over the rectangles of xs x ys, x-major,
    so that the first failing rectangle raises its DomainError, at its
    first failing node in postorder."""
    value = compile_expr(e).value
    for rx in xs:
        for ry in ys:
            value(rx, ry)


def grid_values(e: Expr, xs: Sequence[Interval], ys: Sequence[Interval]) -> list[Interval]:
    """compile_expr(e).value(rx, ry) for every rectangle of xs x ys, x-major,
    by one column run of e's code on Interval operations (see _run_grid).
    On a DomainError this raises the first failing rectangle's."""
    if not xs or not ys:
        return []
    consts = _grid_code(e)[0]
    regs = [None if c is None else Interval.point(c) for c in consts]
    regs[0], regs[1] = list(xs), list(ys)
    try:
        mask, value, _ = _run_grid(e, _INTERVAL_OPS, regs, [None] * len(regs),
                                   len(xs), len(ys))
        return list(_spread(mask, value, len(xs), len(ys)))
    except DomainError:
        _first_failure(e, xs, ys)
        raise


def _variables(e: Expr) -> int:
    """The variable mask of e: its output register's."""
    _, _, out, masks, _ = _grid_code(e)
    return masks[out]


def _axis(ivs: Sequence[Interval]) -> list[tuple[int, int, int]] | None:
    """One axis of a grid on integers: a triple (lo, hi, d) per interval,
    the interval [lo/d, hi/d] with d > 0; None when an endpoint is a
    FieldElement.

    An IntervalLattice gives its own numerators over its one denominator.
    Any other sequence is lifted once, each interval as its triple (see
    _triple); when one triple's denominator is a multiple of all the
    others, as for the cylinders of a rational IFS, every triple is put
    over it."""
    if isinstance(ivs, IntervalLattice):
        den, span = ivs.den, ivs.span
        return [(lo, lo + span, den) for lo in ivs.lefts]
    triples = [_triple(iv) for iv in ivs]
    if None in triples:
        return None
    dens = [d for _, _, d in triples]
    top = lcm(*dens)
    if top in dens:
        return [(lo * (top // d), hi * (top // d), top) for lo, hi, d in triples]
    return triples


@lru_cache(maxsize=4096)
def _hoist(e: Expr) -> tuple[Expr, Expr, Expr, type, int] | None:
    """(outer, ev, s, t, mask) when e is in both variables and every
    occurrence of a variable v, x first, lies in one subtree ev in v alone,
    the largest: t is the +, -, * or / node above ev, s its other operand,
    in the other variable w alone, and outer is e with ev replaced by v.
    mask is v's, or _XY when w hoists too (f is separable): s then holds
    every occurrence of w, and outer has s replaced by w as well.  None
    otherwise."""
    if _variables(e) != _XY:
        return None
    found = _lift(e, _X, X)
    if found is None:
        found = _lift(e, _Y, Y)
        return None if found is None else (*found, _Y)
    outer, ev, s, t = found
    both = _lift(outer, _Y, Y)  # w hoists from outer only as s, beside the bare x
    return (outer, ev, s, t, _X) if both is None else (both[0], ev, s, t, _XY)


def _lift(node: Expr, mask: int, v: Var) -> tuple[Expr, Expr, Expr, type] | None:
    """(outer, ev, s, t) of _hoist for the variable v of mask, in a node in
    both variables; None when v occurs on both sides of a node."""
    t = type(node)
    if t is Neg or t is Pow:
        found = _lift(node.operand if t is Neg else node.base, mask, v)
        if found is None:
            return None
        outer, *rest = found
        return (Neg(outer) if t is Neg else Pow(outer, node.exponent)), *rest
    left, right = node.left, node.right
    on_left, on_right = _variables(left) & mask, _variables(right) & mask
    if on_left and on_right:
        return None
    sub = left if on_left else right
    found = (v, sub, right if on_left else left, t) if _variables(sub) == mask else \
        _lift(sub, mask, v)
    if found is None:
        return None
    outer, *rest = found
    return (t(outer, right) if on_left else t(left, outer)), *rest


def _gauge(t: type, side: list) -> tuple[int, int, int, int]:
    """What the pieces of a side, triples in any order, let the other
    operand of t close: (a, b, g, e), a gap (u, v) of the other operand
    closing when v*a <= u*b + g/e, for every piece at once.

    For + and - this is a = b = 1 and g/e the width of the narrowest piece:
    [u, v] + [c, d] lies in (u + [c, d]) U (v + [c, d]) iff v - u <= d - c,
    and a piece of -B is as wide as the piece of B it mirrors.  For * over
    nonnegative operands it is g = 0 and (a, b) the numerators (c, d) of the
    piece with the smallest ratio d/c, c > 0: [u, v]*[c, d] lies in
    u*[c, d] U v*[c, d] iff v*c <= u*d.  A piece with c = 0 imposes no
    condition, so when every piece starts at 0, a = b = 0 and every gap
    closes."""
    if t is Mul:
        a = b = 0
        for lo, hi, _ in side:
            if lo > 0 and (a == 0 or hi * a < b * lo):
                a, b = lo, hi
        return a, b, 0, 1
    den = shared_den([d for _, _, d in side])
    if den is not None:
        return 1, 1, min(map(sub, map(itemgetter(1), side), map(itemgetter(0), side))), den
    g, e = None, 1
    for lo, hi, d in side:
        if g is None or (hi - lo) * e < g * d:
            g, e = hi - lo, d
    return 1, 1, g, e


def _close(side: list, gauge: tuple) -> list:
    """A sorted, merged side of triples with every gap (u, v) closed that
    the gauge (a, b, g, e) closes (see _gauge): v*a <= u*b + g/e, on
    integers.  The gauge is fixed, so each gap is tested on its own, all in
    one pass of mapped products: on the numerators when the side's triples
    share one denominator, by cross-multiplication otherwise.  A merged
    piece whose ends have different denominators is put over the lcm of
    their reduced ones (see ends_triple)."""
    if len(side) < 2:
        return side
    a, b, g, e = gauge
    lows, highs, dens = zip(*side)
    vs, us = lows[1:], highs[:-1]
    den = shared_den(dens)
    if den is not None:  # v*a - u*b <= g*den // e on the numerators
        if a != 1 or b != 1:
            vs, us = map(mul, vs, repeat(a)), map(mul, us, repeat(b))
        opens = list(map(gt, map(sub, vs, us), repeat(g * den // e)))
    else:  # v*a*e*du <= (u*b*e + g*du)*dv over the ends' own du and dv
        du, dv = dens[:-1], dens[1:]
        vs, us = map(mul, vs, repeat(a * e)), map(mul, us, repeat(b * e))
        opens = list(map(gt, map(mul, vs, du),
                         map(mul, map(add, us, map(mul, du, repeat(g))), dv)))
    if all(opens):
        return side
    lows = (lows[0], *compress(lows[1:], opens))
    highs = (*compress(highs[:-1], opens), highs[-1])
    if den is not None:
        return list(zip(lows, highs, repeat(den)))
    return list(map(ends_triple, lows, (dens[0], *compress(dv, opens)),
                    highs, (*compress(du, opens), dens[-1])))


def _bridged(t: type, a: list, b: list) -> tuple[list, list]:
    """The two operands of t, each a sorted, merged side of triples,
    bridged: every gap of one side that the other side's pieces span is
    closed (see _gauge), alternately, until neither side changes.  Each
    closing leaves A t B as it was, since the gap's ends lie in the side,
    so the pair of sides has the image of the given pair under t.  A
    product with a negative piece on either side is left as it is."""
    if t is Mul and (a[0][0] < 0 or b[0][0] < 0):
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
                  budget: int | None = None) -> Iterable[tuple[int, int, int]] | None:
    """Triples (lo, hi, d), in any order, whose pieces [lo/d, hi/d] have the
    union of the enclosures of e over the rectangles of xs x ys; None when
    an endpoint is a FieldElement.

    When a variable v hoists from e (see _hoist), its subtree ev runs over
    v's axis and is merged: once per merged piece of the axis when v occurs
    once in ev, else once per interval (see _image).  When the other
    variable hoists too, its subtree s runs by the same rule, and the two
    sides are bridged (see _bridged).  Otherwise s runs once per interval
    of the other axis, and each gap of ev's side is closed that every value
    of s spans (see _gauge; a product or quotient with a negative value on
    either side is left as it is).  e with the hoisted subtrees replaced by
    their variables then runs over ev's pieces times s's bridged pieces,
    or times the other axis (see empirics.grid_cover for why the union is
    the same).  Otherwise, and on a DomainError, e runs over the whole grid
    (see _run_grid), and a DomainError there is the first failing
    rectangle's.

    ResourceBudget is raised when the rectangles to be paired exceed the
    budget, before they are: ev's pieces times the other side's when a
    variable hoists, otherwise the whole grid, before anything is
    evaluated.  A None return
    has passed the grid's check too."""
    if not xs or not ys:
        return []
    ax, ay = _axis(xs), _axis(ys)
    hoisted = None if ax is None or ay is None else _hoist(e)
    if hoisted is not None:
        outer, ev, s, t, mask = hoisted
        v = _Y if mask == _Y else _X  # ev's variable, x when both hoist
        av, au = (ax, ay) if v == _X else (ay, ax)
        t = Mul if t is Div else t  # for / either way round the gauge is that of *
        try:
            side = _image(ev, v, av)
            if mask == _XY:
                side, au = _bridged(t, side, _image(s, _XY ^ v, au))
            else:  # the gauge reads s on each interval of the other axis
                values = _side(s, _XY ^ v, au)
                if t is not Mul or (side[0][0] >= 0 and min(values)[0] >= 0):
                    side = _close(side, _gauge(t, values))
            bx, by = (side, au) if v == _X else (au, side)
            _within_budget(len(bx), len(by), budget)
            return list(_pairs(outer, bx, by))  # run here, where a DomainError falls back
        except DomainError:
            pass
    _within_budget(len(xs), len(ys), budget)
    if ax is None or ay is None:
        return None
    try:
        return list(_pairs(e, ax, ay))
    except DomainError:
        _first_failure(e, xs, ys)
        raise


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


def _triple(iv: Interval) -> tuple[int, int, int] | None:
    """A rational interval as (lo, hi, d), the interval [lo/d, hi/d] with
    d > 0: a TripleInterval's own, else rational_triple of its ends; None
    when an endpoint is a FieldElement."""
    if type(iv) is TripleInterval:
        return iv.triple
    return rational_triple(iv.lo, iv.hi)


def _interval(t: tuple[int, int, int]) -> Interval:
    lo, hi, d = t
    return Interval(Fraction(lo, d), Fraction(hi, d))


# The triple arithmetic: each function is the Interval operation of its
# opcode on rational triples (see _triple), taking the operand and the arg,
# and raising what that operation raises on the same operands.  No gcd is
# taken: a sum or a product is over the product of its operands'
# denominators, a sum over equal ones over that one.

def t_add(a: tuple, b: tuple) -> tuple[int, int, int]:
    lo, hi, d = a
    blo, bhi, bd = b
    if d != bd:
        return lo * bd + blo * d, hi * bd + bhi * d, d * bd
    return lo + blo, hi + bhi, d


def t_sub(a: tuple, b: tuple) -> tuple[int, int, int]:
    lo, hi, d = a
    blo, bhi, bd = b
    if d != bd:
        return lo * bd - bhi * d, hi * bd - blo * d, d * bd
    return lo - bhi, hi - blo, d


def t_mul(a: tuple, b: tuple) -> tuple[int, int, int]:
    lo, hi, d = a
    blo, bhi, bd = b
    if lo >= 0 and blo >= 0:
        return lo * blo, hi * bhi, d * bd
    c = (lo * blo, lo * bhi, hi * blo, hi * bhi)
    return min(c), max(c), d * bd


def t_div(a: tuple, b: tuple) -> tuple[int, int, int]:
    """a times the reciprocal [bd/bhi, bd/blo] of b."""
    blo, bhi, bd = b
    if blo <= 0 <= bhi:
        raise DivByZeroInterval("interval contains 0")
    return t_mul(a, (bd * blo, bd * bhi, blo * bhi))


def t_neg(a: tuple, _) -> tuple[int, int, int]:
    lo, hi, d = a
    return -hi, -lo, d


def t_ipow(a: tuple, n: int) -> tuple[int, int, int]:
    """Interval.pow_int."""
    if n == 0:
        return 1, 1, 1
    lo, hi, d = a
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


def t_fpow(a: tuple, e: Fraction) -> tuple[int, int, int]:
    """Interval.pow_rational for a fractional e, over DENOMINATOR_BOUND."""
    lo, hi, d = a
    if lo <= 0:
        raise DomainError("fractional power of an interval touching <= 0")
    lo_lo, lo_hi = pow_numerators(lo, d, e)
    hi_lo, hi_hi = (lo_lo, lo_hi) if lo == hi else pow_numerators(hi, d, e)
    if e.numerator > 0:
        return lo_lo, hi_hi, DENOMINATOR_BOUND
    return hi_lo, lo_hi, DENOMINATOR_BOUND


# The two number domains, one function per opcode each: the Interval
# operations, looked up when they run, and the triple arithmetic above.
_INTERVAL_OPS = (add, sub, mul, truediv, lambda a, _: -a,
                 lambda a, e: a.pow_rational(e), lambda a, e: a.pow_rational(e))
_TRIPLE_OPS = (t_add, t_sub, t_mul, t_div, t_neg, t_ipow, t_fpow)


def _run(code: Sequence[tuple], regs: list, ops: tuple) -> None:
    """Run instructions in place in the number domain of ops."""
    for op, dst, a, b in code:
        regs[dst] = ops[op](regs[a], regs[b] if op < _NEG else b)


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

    def _run(self, x, y, codes: tuple, triples: bool) -> list:
        """The registers after running each of codes on the rectangle x x y,
        of triples or of Intervals."""
        regs = (self._triples if triples else self._points).copy()
        regs[0], regs[1] = x, y
        for code in codes:
            _run(code, regs, _TRIPLE_OPS if triples else _INTERVAL_OPS)
        return regs

    def value_triple(self, tx: tuple, ty: tuple) -> tuple[int, int, int]:
        """value over the rectangle of the triples tx x ty, as a triple."""
        return self._run(tx, ty, (self.f_code,), True)[self.outputs[0]]

    def gradient_triples(self, tx: tuple, ty: tuple, with_f: bool = False) -> tuple[tuple, tuple]:
        """gradient's dx and dy over the rectangle of the triples tx x ty,
        as triples."""
        regs = self._run(tx, ty, (self.code if with_f else self.grad_code,), True)
        return regs[self.outputs[1]], regs[self.outputs[2]]

    def value(self, rx: Interval, ry: Interval) -> Interval:
        """Enclosure of f over the rectangle rx x ry."""
        tx, ty = _triple(rx), _triple(ry)
        if tx is not None and ty is not None:
            return _interval(self.value_triple(tx, ty))
        return self._run(rx, ry, self.walks[:1], False)[self.outputs[0]]

    def gradient(self, rx: Interval, ry: Interval, with_f: bool = False) -> GradEnclosure:
        """Enclosures of both partials over the rectangle rx x ry.  With
        with_f, f is evaluated there first, so that a DomainError of f
        comes before one of a partial."""
        tx, ty = _triple(rx), _triple(ry)
        if tx is not None and ty is not None:
            dx, dy = map(_interval, self.gradient_triples(tx, ty, with_f))
        else:
            regs = self._run(rx, ry, self.walks[0 if with_f else 1:], False)
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
