"""Tests for the expression DSL: parser, derivatives, interval evaluation."""

import random
from fractions import Fraction

import pytest

from fractarith.errors import (DivByZeroInterval, DomainError, ExprSyntaxError,
                               ZeroExponentError)
from fractarith.exactnum import AlgebraicReal, FieldElement, Interval
from fractarith.exprfn import (Add, Const, Div, Mul, Neg, Pow, Sub, Var,
                               differentiate, eval_grid, eval_interval,
                               eval_lattice, eval_point, grad_enclosure, parse,
                               to_text)

X, Y = Var("x"), Var("y")


def iv(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


UNIT = iv(0, 1)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_basic_shapes():
    assert parse("x+y") == Add(X, Y)
    assert parse("x^2 - y^2") == Sub(Pow(X, Fraction(2)), Pow(Y, Fraction(2)))
    assert parse("x/y") == Div(X, Y)
    assert parse("x*y") == Mul(X, Y)
    assert parse("-x") == Neg(X)
    assert parse("2") == Const(Fraction(2))


def test_parse_precedence_and_associativity():
    assert parse("x-y-x") == Sub(Sub(X, Y), X)
    assert parse("x/y/x") == Div(Div(X, Y), X)
    assert parse("x+y*x") == Add(X, Mul(Y, X))
    assert parse("(x+y)*x") == Mul(Add(X, Y), X)
    # '^' binds tightest; its exponent is a rational literal
    assert parse("x^1/2") == Pow(X, Fraction(1, 2))
    assert parse("x^(1/2)") == Pow(X, Fraction(1, 2))
    assert parse("x^-2") == Pow(X, Fraction(-2))
    assert parse("-x^2") == Neg(Pow(X, Fraction(2)))


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x + + y")
    assert exc.value.pos == 4
    with pytest.raises(ExprSyntaxError):
        parse("x + y)")
    with pytest.raises(ExprSyntaxError):
        parse("(x + y")
    with pytest.raises(ExprSyntaxError):
        parse("")


def test_zero_exponent_rejected():
    with pytest.raises(ZeroExponentError):
        parse("x^0")


CORPUS = ["x+y", "x-y", "x*y", "x/y", "x^2+y^2", "x^2-y^2",
          "x^1/2+y^1/2", "x^1/2-y^1/2", "x^-1+y^-1", "-x-y",
          "(x+y)*(x-y)", "x/(y+1)", "2*x+3/4*y", "x^3/2"]


def test_parse_print_round_trip():
    for src in CORPUS:
        ast = parse(src)
        assert parse(to_text(ast)) == ast


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_differentiate_product():
    assert differentiate(parse("x*y"), "x") == Y
    assert differentiate(parse("x*y"), "y") == X


def test_differentiate_quotient():
    assert differentiate(parse("x/y"), "y") == Neg(Div(X, Pow(Y, Fraction(2))))
    assert differentiate(parse("x/y"), "x") == Div(Const(Fraction(1)), Y)


def test_differentiate_power_rule():
    d = differentiate(parse("x^1/2"), "x")
    assert d == Mul(Const(Fraction(1, 2)), Pow(X, Fraction(-1, 2)))
    assert differentiate(parse("x^2"), "x") == Mul(Const(Fraction(2)), X)
    assert differentiate(parse("x"), "x") == Const(Fraction(1))
    assert differentiate(parse("y"), "x") == Const(Fraction(0))


def test_differentiate_is_cached_per_expression_and_variable():
    f = parse("x^(1/2)*y + x/(y+1)")
    differentiate.cache_clear()
    first = differentiate(f, "x")
    hits = differentiate.cache_info().hits
    again = differentiate(parse("x^(1/2)*y + x/(y+1)"), "x")
    assert again is first
    assert differentiate.cache_info().hits == hits + 1
    assert first == differentiate.__wrapped__(f, "x")
    assert differentiate(f, "y") != first
    with pytest.raises(ValueError):
        differentiate(f, "z")


# ---------------------------------------------------------------------------
# interval evaluation
# ---------------------------------------------------------------------------

def test_eval_interval_examples():
    assert eval_interval(parse("x+y"), UNIT, UNIT) == iv(0, 2)
    block = iv(Fraction(2, 3), 1)
    assert eval_interval(parse("x/y"), block, block) == iv(Fraction(2, 3), Fraction(3, 2))
    assert eval_interval(parse("x*y"), iv(0, 0), iv(-5, 7)) == iv(0, 0)


def test_eval_interval_domain_errors():
    with pytest.raises(DivByZeroInterval):
        eval_interval(parse("x/y"), UNIT, iv(-1, 1))
    with pytest.raises(DomainError):
        eval_interval(parse("x^1/2"), iv(-1, 1), UNIT)


def test_eval_grid_is_eval_interval_per_rectangle_in_x_major_order():
    xs = [iv(Fraction(k, 4), Fraction(k + 1, 4)) for k in range(1, 4)]
    ys = [iv(Fraction(k, 5), Fraction(k, 3)) for k in range(1, 3)]
    for text in ("x+y", "x*y-x", "y^2-x^(1/3)", "y/(x+y)^2", "x^(-1)+y", "2*3",
                 "-y", "x/(y+1)", "x*y^2+2"):
        f = parse(text)
        want = [eval_interval(f, ix, iy) for ix in xs for iy in ys]
        assert list(eval_grid(f, xs, ys)) == want, text
    assert list(eval_grid(parse("x+y"), xs, [])) == []
    assert list(eval_grid(parse("x^(1/2)"), [], [iv(-1, 0)])) == []


def test_eval_grid_evaluates_single_variable_subtrees_once_per_interval(monkeypatch):
    calls = []
    pow_rational = Interval.pow_rational

    def counted(self, e, *args):
        calls.append(e)
        return pow_rational(self, e, *args)

    monkeypatch.setattr(Interval, "pow_rational", counted)
    xs = [iv(k, k + 1) for k in range(1, 5)]
    ys = [iv(k, k + 2) for k in range(1, 6)]
    out = list(eval_grid(parse("x^(1/2)*y^(1/3) + 2^(1/2)"), xs, ys))
    assert len(out) == 20
    assert sorted(calls) == [Fraction(1, 3)] * 5 + [Fraction(1, 2)] * 5


def test_eval_grid_raises_where_eval_interval_does():
    with pytest.raises(DivByZeroInterval):
        list(eval_grid(parse("x/y"), [UNIT], [iv(1, 2), iv(-1, 1)]))
    with pytest.raises(DomainError):
        list(eval_grid(parse("y+x^1/2"), [UNIT, iv(-1, 1)], [UNIT]))


def lattice_enclosures(f, xs, ys):
    """eval_lattice's pieces as Fractions, each over its own denominator."""
    den, pairs = eval_lattice(f, xs, ys)
    pairs = list(pairs)
    dens = [den] * len(pairs) if isinstance(den, int) else list(den)
    assert len(dens) == len(pairs)
    return [(Fraction(lo, d), Fraction(hi, d)) for (lo, hi), d in zip(pairs, dens)]


def test_eval_lattice_is_eval_grid_on_integer_numerators():
    xs = [iv(Fraction(k, 4), Fraction(k + 1, 4)) for k in range(1, 4)]
    ys = [iv(Fraction(-k, 5), Fraction(k, 3)) for k in range(1, 3)]
    # x cylinders of both signs, none containing 0, for the divisions; y
    # cylinders of one sign each, so that y^(-1/2) is defined on the positive
    signed_xs = [iv(Fraction(-3, 4), Fraction(-1, 2)), iv(Fraction(-1, 3), Fraction(-1, 5)),
                 iv(Fraction(1, 4), Fraction(1, 2)), iv(Fraction(2, 3), Fraction(7, 5))]
    positive = [iv(Fraction(1, 5), Fraction(1, 3)), iv(Fraction(1, 2), Fraction(9, 4))]
    negative = [iv(Fraction(-7, 3), Fraction(-3, 2)), iv(Fraction(-5, 4), Fraction(-6, 5))]
    quotients = ("x/y", "x^(-1)+y", "x*y/2", "x/(y+1)", "x^(-2)*y", "(x*y-1)/(y+3)",
                 "x^(-1)*(x-y)^2 - 1/y^2")
    grids = [(xs, ys, ("x+y", "x-y", "x*y-x", "y^2-x^(1/3)", "2*3", "-y", "x^2", "x*y^2+2",
                       "(x-y)^3", "-(x*y)^2", "x^(1/2)*y+x", "(2*x+3)*(y-x)^2")),
             (signed_xs, positive, quotients + ("y^(-1/2)*x",)),
             (signed_xs, negative, quotients + ("y^(-3)*x",))]
    for gx, gy, texts in grids:
        for text in texts:
            f = parse(text)
            want = [(enc.lo, enc.hi) for enc in eval_grid(f, gx, gy)]
            assert lattice_enclosures(f, gx, gy) == want, (text, gy)
    assert list(eval_lattice(parse("x+y"), xs, [])[1]) == []


def test_eval_lattice_declines_division_and_field_elements():
    xs = [iv(1, 2), iv(3, 4)]
    for text in ("(x+y)^(1/2)", "x/(x+y)", "(x*y)^(-1)", "y/(x*y+1)^2"):
        assert eval_lattice(parse(text), xs, xs) is None, text
    root2 = FieldElement.generator(AlgebraicReal((-2, 0, 1), 1, 2))
    assert eval_lattice(parse("x+y"), xs, [Interval(root2, root2 + 1)]) is None
    assert eval_lattice(parse("x/y"), xs, [Interval(root2, root2 + 1)]) is None


def test_eval_lattice_raises_where_eval_grid_does():
    with pytest.raises(DomainError):
        list(eval_lattice(parse("y+x^1/2"), [UNIT, iv(-1, 1)], [UNIT])[1])
    with pytest.raises(DivByZeroInterval):
        eval_lattice(parse("x/y"), [UNIT], [iv(1, 2), iv(-1, 1)])
    # eval_grid meets x^(1/2) on [-1, 1] in its first rectangle, before it
    # divides by the second y cylinder
    with pytest.raises(DomainError) as exc:
        eval_lattice(parse("x^(1/2)*y/y"), [iv(-1, 1)], [iv(1, 2), iv(-1, 1)])
    assert type(exc.value) is DomainError


def test_eval_point_exact():
    out = eval_point(parse("x*y+y"), Fraction(1, 3), Fraction(3, 7))
    assert out.lo == out.hi == Fraction(1, 3) * Fraction(3, 7) + Fraction(3, 7)


def test_grad_enclosure_examples():
    g = grad_enclosure(parse("x+y"), (UNIT, iv(-4, 9)))
    assert g.dx == iv(1, 1) and g.dy == iv(1, 1)
    block = iv(Fraction(2, 3), 1)
    g2 = grad_enclosure(parse("x*y"), (block, block))
    assert g2.dx == block and g2.dy == block
    g3 = grad_enclosure(parse("x-y"), (UNIT, UNIT))
    assert g3.dx == iv(1, 1) and g3.dy == iv(-1, -1)


# ---------------------------------------------------------------------------
# randomized soundness properties
# ---------------------------------------------------------------------------

def _random_expr(rng, depth):
    if depth == 0:
        return rng.choice((X, Y, Const(Fraction(rng.randint(1, 5), rng.randint(1, 3)))))
    kind = rng.choice(("add", "sub", "mul", "div", "pow", "neg"))
    if kind == "pow":
        return Pow(_random_expr(rng, depth - 1),
                   Fraction(rng.choice((1, 2, 3, -1, -2))))
    if kind == "neg":
        return Neg(_random_expr(rng, depth - 1))
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](a, b)


def _random_rect(rng):
    def side():
        lo = Fraction(rng.randint(1, 40), rng.randint(1, 10))
        return Interval(lo, lo + Fraction(rng.randint(1, 20), rng.randint(1, 10)))
    return side(), side()


def test_enclosure_soundness_grid_sampling():
    rng = random.Random(20250809)
    checked = 0
    while checked < 400:
        f = _random_expr(rng, rng.randint(1, 3))
        rx, ry = _random_rect(rng)
        try:
            enc = eval_interval(f, rx, ry)
        except DomainError:
            continue
        for i in range(4):
            for j in range(4):
                x = rx.lo + rx.width() * Fraction(i, 3)
                y = ry.lo + ry.width() * Fraction(j, 3)
                v = eval_point(f, x, y)
                assert not (v.lo < enc.lo) and not (enc.hi < v.hi)
        checked += 1


def test_derivative_soundness_difference_quotients():
    # the symmetric difference quotient is a mean of the partial over the
    # segment, so it must land inside the gradient enclosure, exactly
    rng = random.Random(424242)
    checked = 0
    while checked < 1000:
        f = _random_expr(rng, rng.randint(1, 3))
        rx, ry = _random_rect(rng)
        try:
            g = grad_enclosure(f, (rx, ry))
        except DomainError:
            continue
        h = rx.width() / 8
        x = rx.lo + rx.width() * Fraction(rng.randint(1, 7), 8)
        y = ry.lo + ry.width() * Fraction(rng.randint(0, 8), 8)
        if x - h < rx.lo or rx.hi < x + h or h == 0:
            continue
        try:
            fp = eval_point(f, x + h, y)
            fm = eval_point(f, x - h, y)
        except DomainError:
            continue
        if fp.lo != fp.hi or fm.lo != fm.hi:
            continue  # fractional powers: skip inexact corners
        quotient = (fp.lo - fm.lo) / (2 * h)
        assert not (quotient < g.dx.lo) and not (g.dx.hi < quotient)
        checked += 1
