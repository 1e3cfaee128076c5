"""The recursive interval walk that fractarith.exprfn.eval_interval ran before
expressions were compiled into straight-line programs, kept as the tests'
differential oracle.

Each node applies its Interval operation to its operands' enclosures, left
operand first, so the operations run in postorder and the first node that
fails raises.  `certify_walk` is the sequence the certifier ran per
rectangle: f, then f_x, then f_y, each walked in full, and `walk_grid`
the per-rectangle reference for grid runs.
"""

from __future__ import annotations

from fractarith.exactnum import Interval
from fractarith.exprfn import (Add, Const, Div, Expr, Mul, Neg, Pow, Sub, Var,
                               differentiate)

_BINARY = {Add: Interval.__add__, Sub: Interval.__sub__,
           Mul: Interval.__mul__, Div: Interval.__truediv__}


def eval_interval(e: Expr, rx: Interval, ry: Interval) -> Interval:
    t = type(e)
    if t is Var:
        return rx if e.name == "x" else ry
    if t is Const:
        return Interval.point(e.value)
    if t is Pow:
        return eval_interval(e.base, rx, ry).pow_rational(e.exponent)
    if t is Neg:
        return -eval_interval(e.operand, rx, ry)
    return _BINARY[t](eval_interval(e.left, rx, ry), eval_interval(e.right, rx, ry))


def walk_grid(e: Expr, xs, ys) -> list[Interval]:
    """eval_interval over every rectangle of xs x ys, x-major: it raises
    the first failing rectangle's DomainError, at its first failing node in
    postorder."""
    return [eval_interval(e, rx, ry) for rx in xs for ry in ys]


def grad_enclosure(f: Expr, rx: Interval, ry: Interval) -> tuple[Interval, Interval]:
    return (eval_interval(differentiate(f, "x"), rx, ry),
            eval_interval(differentiate(f, "y"), rx, ry))


def certify_walk(f: Expr, rx: Interval, ry: Interval) -> tuple[Interval, Interval]:
    """f's enclosure, for its DomainError only, then both partials'."""
    eval_interval(f, rx, ry)
    return grad_enclosure(f, rx, ry)
