"""Tests for the expression DSL: parser, derivatives, interval evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import recursive_eval as oracle
from fractarith.certifier import auto_certify
from fractarith.errors import (DivByZeroInterval, DomainError, ExprSyntaxError,
                               ZeroExponentError)
from fractarith.exactnum import (AlgebraicReal, FieldElement, Interval, IntervalUnion,
                                 merge_triples)
from fractarith import exprfn
from fractarith.exprfn import (Add, Const, Div, Mul, Neg, Pow, Sub, Var, _axis, _pairs,
                               compile_expr, differentiate, eval_interval, eval_point,
                               grad_enclosure, grid_values, lattice_cover, parse, to_text)
from fractarith.ifs_core import Code, cantor
from fractarith.qexp import kq_ifs

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
                 "-y", "x/(y+1)", "x*y^2+2", "(x*y)^2-x*y"):
        f = parse(text)
        assert grid_values(f, xs, ys) == oracle.walk_grid(f, xs, ys), text
    assert grid_values(parse("x+y"), xs, []) == []
    assert grid_values(parse("x^(1/2)"), [], [iv(-1, 0)]) == []


# x and y meet at two nodes, so this runs over the whole grid, not per side
HOISTED = "x^(1/2)*y^(1/3) + x*y + 2^(1/2)"


def test_eval_grid_evaluates_single_variable_subtrees_once_per_interval(monkeypatch):
    """A fractional power in one variable runs once per interval of its
    axis, and a constant one once: on triples, where pow_numerators bounds
    each end of a rational interval, and on Intervals over field
    elements."""
    ends = []
    pow_numerators = exprfn.pow_numerators

    def counted_ends(n, d, e):
        ends.append(e)
        return pow_numerators(n, d, e)

    monkeypatch.setattr(exprfn, "pow_numerators", counted_ends)
    xs = [iv(k, k + 1) for k in range(1, 5)]
    ys = [iv(k, k + 2) for k in range(1, 6)]
    cover = lattice_cover(parse(HOISTED), xs, ys)
    assert len(list(cover)) == 20
    assert sorted(ends) == [Fraction(1, 3)] * 10 + [Fraction(1, 2)] * 9

    calls = []
    pow_rational = Interval.pow_rational

    def counted(self, e, *args):
        calls.append(e)
        return pow_rational(self, e, *args)

    monkeypatch.setattr(Interval, "pow_rational", counted)
    k = kq_ifs(AlgebraicReal((-7, 0, 2), 1, 2))
    xs, ys = k.cylinders(2), k.cylinders(1)
    assert len(grid_values(parse(HOISTED), xs, ys)) == 8
    assert sorted(calls) == [Fraction(1, 3)] * 2 + [Fraction(1, 2)] * 5


def test_eval_grid_raises_where_eval_interval_does():
    """The first failing rectangle's error, at its first failing node in
    postorder, though a one-variable column fails first elsewhere."""
    cases = [("x/y", [UNIT], [iv(1, 2), iv(-1, 1)]),
             ("y+x^1/2", [UNIT, iv(-1, 1)], [UNIT]),
             ("x^(1/2)+y^(-1)", [iv(-1, 1)], [iv(1, 2), iv(-1, 1)]),
             ("y^(-1)*x^(1/2)", [iv(1, 2), iv(-1, 1)], [iv(1, 2), iv(-1, 1)]),
             ("x^(1/2)*y/y", [iv(-1, 1)], [iv(1, 2), iv(-1, 1)])]
    for text, xs, ys in cases:
        f = parse(text)
        with pytest.raises(DomainError) as want:
            oracle.walk_grid(f, xs, ys)
        for run in (grid_values, lattice_cover):
            with pytest.raises(DomainError) as got:
                run(f, xs, ys)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def run_enclosures(f, xs, ys):
    """The column run on triples (_pairs) as Fraction pairs."""
    return [(Fraction(lo, d), Fraction(hi, d)) for lo, hi, d in _pairs(f, _axis(xs), _axis(ys))]


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
                 "x^(-1)*(x-y)^2 - 1/y^2", "(x*y)^(-1)")
    grids = [(xs, ys, ("x+y", "x-y", "x*y-x", "y^2-x^(1/3)", "2*3", "-y", "x^2", "x*y^2+2",
                       "(x-y)^3", "-(x*y)^2", "x^(1/2)*y+x", "(2*x+3)*(y-x)^2")),
             (signed_xs, positive, quotients + ("y^(-1/2)*x", "((x*y)^2)^(1/3)-x")),
             (signed_xs, negative, quotients + ("y^(-3)*x",)),
             (positive, positive, ("(x+y)^(1/2)", "x/(x+y)", "(x*y)^(-2/3)+x/y"))]
    for gx, gy, texts in grids:
        for text in texts:
            f = parse(text)
            want = [(enc.lo, enc.hi) for enc in oracle.walk_grid(f, gx, gy)]
            assert run_enclosures(f, gx, gy) == want, (text, gy)
    assert lattice_cover(parse("x+y"), xs, []) == []


def test_lattice_cover_declines_only_field_elements():
    """Division by a subtree in both variables, and fractional powers of
    one, run on triples; a grid with a field-element end is left to the
    Interval run."""
    xs = [iv(1, 2), iv(3, 4)]
    for text in ("(x+y)^(1/2)", "x/(x+y)", "(x*y)^(-1)", "y/(x*y+1)^2"):
        f = parse(text)
        triples = lattice_cover(f, xs, xs)
        assert IntervalUnion.from_merged_triples(merge_triples(triples)) == IntervalUnion.from_intervals(
            (enc.lo, enc.hi) for enc in oracle.walk_grid(f, xs, xs)), text
    root2 = FieldElement.generator(AlgebraicReal((-2, 0, 1), 1, 2))
    assert lattice_cover(parse("x+y"), xs, [Interval(root2, root2 + 1)]) is None
    assert lattice_cover(parse("x/y"), xs, [Interval(root2, root2 + 1)]) is None


def test_eval_lattice_raises_where_eval_grid_does():
    with pytest.raises(DomainError, match="fractional power"):
        lattice_cover(parse("y+x^1/2"), [UNIT, iv(-1, 1)], [UNIT])
    with pytest.raises(DivByZeroInterval):
        lattice_cover(parse("x/y"), [UNIT], [iv(1, 2), iv(-1, 1)])
    # the walk meets x^(1/2) on [-1, 1] in the first rectangle, before it
    # divides by the second y cylinder
    with pytest.raises(DomainError) as exc:
        lattice_cover(parse("x^(1/2)*y/y"), [iv(-1, 1)], [iv(1, 2), iv(-1, 1)])
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
# compiled programs against the recursive walk
# ---------------------------------------------------------------------------

def test_program_shares_subterms_and_puts_f_first():
    # f = x/(y+1), f_x = 1/(y+1), f_y = -(x/(y+1)^2): y+1 is computed once
    program = compile_expr(parse("x/(y+1)"))
    assert len(program.code) == 6
    assert program.f_code == program.code[:2]
    assert len(program.grad_code) == 5
    assert [len(walk) for walk in program.walks] == [2, 2, 4]


def test_each_expression_compiles_once():
    compile_expr.cache_clear()
    f = parse("x/(y+1)")
    program = compile_expr(f)
    assert compile_expr(parse("x/(y+1)")) is program
    c = cantor()
    cert = auto_certify(c, c, f, (Code.parse("(2)"), Code.parse("(2)")), 6)
    assert len(cert.word1) == 2  # three attempts
    eval_interval(f, UNIT, UNIT)
    eval_point(f, 1, 2)
    grad_enclosure(f, (UNIT, UNIT))
    info = compile_expr.cache_info()
    assert info.misses == 1 and info.hits >= 7


def test_gradient_alone_fails_where_the_walk_of_f_x_then_f_y_does():
    # y^(1/2) fails and comes first in f's code, but f_y needs it only after
    # f_x has met x^(-2), which fails first
    f = parse("x^-1 + y^(1/2)*y^(1/2)")
    with pytest.raises(DivByZeroInterval):
        grad_enclosure(f, (iv(-1, 1), iv(-1, 1)))
    with pytest.raises(DivByZeroInterval):
        compile_expr(f).gradient(iv(-1, 1), iv(-1, 1), with_f=True)
    with pytest.raises(DomainError, match="fractional power"):
        compile_expr(f).gradient(iv(1, 2), iv(-1, 1), with_f=True)


def _outcome(fn):
    """fn()'s value, or the class and message of its DomainError."""
    try:
        return "ok", fn()
    except DomainError as exc:
        return type(exc), str(exc)


_LEAVES = st.sampled_from([X, Y]) | st.fractions(-3, 3, max_denominator=4).map(Const)
_EXPONENTS = (st.integers(-3, 3).map(Fraction)
              | st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                                 Fraction(3, 2), Fraction(-1, 2), Fraction(-5, 3)]))


def _extend(children):
    binary = st.tuples(st.sampled_from([Add, Sub, Mul, Div]), children, children)
    return (binary.map(lambda t: t[0](t[1], t[2]))
            | st.builds(Pow, children, _EXPONENTS) | st.builds(Neg, children))


def expressions(max_leaves):
    """The whole grammar, plus the zero exponents that derivatives produce."""
    return st.recursive(_LEAVES, _extend, max_leaves=max_leaves)


@st.composite
def rational_intervals(draw):
    lo = draw(st.fractions(-3, 3, max_denominator=12))
    return Interval(lo, lo + draw(st.fractions(0, 3, max_denominator=12)))


@settings(max_examples=300, deadline=None)
@given(expressions(8), rational_intervals(), rational_intervals())
def test_program_matches_recursive_walk_on_rational_rectangles(f, rx, ry):
    program = compile_expr(f)

    def gradient(with_f):
        g = program.gradient(rx, ry, with_f=with_f)
        assert g.rect == (rx, ry)
        return g.dx, g.dy

    assert _outcome(lambda: program.value(rx, ry)) == _outcome(
        lambda: oracle.eval_interval(f, rx, ry))
    assert _outcome(lambda: gradient(False)) == _outcome(
        lambda: oracle.grad_enclosure(f, rx, ry))
    assert _outcome(lambda: gradient(True)) == _outcome(
        lambda: oracle.certify_walk(f, rx, ry))
    corner = Interval.point(rx.hi), Interval.point(ry.lo)
    assert _outcome(lambda: program.value(*corner)) == _outcome(
        lambda: oracle.eval_interval(f, *corner))


def _field_key(iv: Interval):
    """An enclosure's ends, comparable across generator objects."""
    return tuple(v.coeffs if isinstance(v, FieldElement) else v for v in (iv.lo, iv.hi))


@st.composite
def kq_bases(draw):
    """sqrt(c), c in (13/4, 4) not a square, or the tribonacci base."""
    if draw(st.booleans()):
        den = draw(st.integers(2, 12))
        c = Fraction(draw(st.integers(13 * den // 4 + 1, 4 * den - 1)), den)
        assume(math.isqrt(c.numerator) ** 2 != c.numerator
               or math.isqrt(c.denominator) ** 2 != c.denominator)
        return (-c.numerator, 0, c.denominator), 1, 2
    return (-1, -1, -1, 1), Fraction(7, 4), Fraction(15, 8)


words = st.lists(st.integers(1, 2), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(kq_bases(), expressions(4), words, words)
def test_program_matches_recursive_walk_on_kq_cylinders(base, f, w1, w2):
    """Over FieldElement ends the program runs the walk's operations in the
    walk's order, so it leaves the shared generator as the walk does."""
    runs = []
    for check in (compile_expr(f), None):
        gen = AlgebraicReal(*base)
        k = kq_ifs(gen)
        rx, ry = k.basic_interval(w1), k.basic_interval(w2)
        corner = Interval.point(rx.lo), Interval.point(ry.hi)
        if check is None:
            grad = _outcome(lambda: oracle.certify_walk(f, rx, ry))
            value = _outcome(lambda: oracle.eval_interval(f, *corner))
        else:
            grad = _outcome(lambda: (lambda g: (g.dx, g.dy))(
                check.gradient(rx, ry, with_f=True)))
            value = _outcome(lambda: check.value(*corner))
        if grad[0] == "ok":
            grad = "ok", tuple(map(_field_key, grad[1]))
        if value[0] == "ok":
            value = "ok", _field_key(value[1])
        runs.append((grad, value, gen.lo, gen.hi))
    assert runs[0] == runs[1]


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
