"""Value semantics of the library's immutable value types: construction,
equality, hashing, immutability and repr.  The repr strings were recorded
when these types were still frozen dataclasses."""

import copy
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

import fractarith
from fractarith.certifier import (Certificate, ConditionReport, GlobalConditionReport,
                                  SignCase, certify_rectangle)
from fractarith.empirics import DimEstimate
from fractarith.errors import FractarithError
from fractarith.exactnum import (AlgebraicReal, FieldElement, Interval, IntervalLattice,
                                 IntervalUnion, scalar_to_obj)
from fractarith.exprfn import X, Y, Add, Const, Div, GradEnclosure, Mul, Neg, Pow, Sub, Var, parse
from fractarith.ifs_core import Code, GapProfile, HomogeneousIfs, cantor
from fractarith.qexp import DigitSeq, QgPrefix, certify_uq_arith, kq_ifs

I = Interval(F(1, 3), F(1, 2))
J = Interval(F(-1), F(2))
_CERT = certify_rectangle(cantor(), cantor(), parse("x+y"), (), ())

# (class, its fields in order, other field values, repr); the fields are
# built fresh for every use, so equal instances share no field object
CASES = [
    (Interval, lambda: {"lo": F(1, 3), "hi": F(1, 2)}, {"hi": F(2, 3)}, "[1/3, 1/2]"),
    (IntervalLattice, lambda: {"den": 9, "lefts": (0, 2, 6), "span": 1}, {"span": 2},
     "IntervalLattice(den=9, lefts=(0, 2, 6), span=1)"),
    (IntervalUnion, lambda: {"intervals": ((F(0), F(1, 3)), (F(2, 3), F(1)))},
     {"intervals": ()},
     "IntervalUnion(intervals=((Fraction(0, 1), Fraction(1, 3)), "
     "(Fraction(2, 3), Fraction(1, 1))))"),
    (Var, lambda: {"name": "x"}, {"name": "y"}, "Var(name='x')"),
    (Const, lambda: {"value": F(5, 2)}, {"value": F(1)}, "Const(value=Fraction(5, 2))"),
    (Add, lambda: {"left": Var("x"), "right": Var("y")}, {"right": X},
     "Add(left=Var(name='x'), right=Var(name='y'))"),
    (Sub, lambda: {"left": Var("x"), "right": Var("y")}, {"left": Y},
     "Sub(left=Var(name='x'), right=Var(name='y'))"),
    (Mul, lambda: {"left": Var("x"), "right": Var("y")}, {"right": Const(F(2))},
     "Mul(left=Var(name='x'), right=Var(name='y'))"),
    (Div, lambda: {"left": Var("x"), "right": Const(F(3))}, {"right": Const(F(4))},
     "Div(left=Var(name='x'), right=Const(value=Fraction(3, 1)))"),
    (Pow, lambda: {"base": Var("x"), "exponent": F(1, 2)}, {"exponent": F(2)},
     "Pow(base=Var(name='x'), exponent=Fraction(1, 2))"),
    (Neg, lambda: {"operand": Var("y")}, {"operand": X}, "Neg(operand=Var(name='y'))"),
    (GradEnclosure, lambda: {"dx": I, "dy": J, "rect": (I, J)}, {"dy": I},
     "GradEnclosure(dx=[1/3, 1/2], dy=[-1, 2], rect=([1/3, 1/2], [-1, 2]))"),
    (Code, lambda: {"preperiod": (2, 1), "period": (1,)}, {"period": (2,)},
     "Code(preperiod=(2, 1), period=(1,))"),
    (GapProfile, lambda: {"hull": Interval(F(0), F(1)), "width": F(1), "piece": F(1, 3),
                          "gap_set": ((1, F(1, 3)),), "kappa": F(1, 3),
                          "thickness_lb": F(1)},
     {"thickness_lb": float("inf")},
     "GapProfile(hull=[0, 1], width=Fraction(1, 1), piece=Fraction(1, 3), "
     "gap_set=((1, Fraction(1, 3)),), kappa=Fraction(1, 3), thickness_lb=Fraction(1, 1))"),
    (SignCase, lambda: {"sx": 1, "sy": -1}, {"sy": 1}, "SignCase(sx=1, sy=-1)"),
    (ConditionReport, lambda: {"ratio_enclosure": I, "lower_bound": F(1, 3),
                               "upper_bound": float("inf"), "holds": "yes"},
     {"holds": "undecided"},
     "ConditionReport(ratio_enclosure=[1/3, 1/2], lower_bound=Fraction(1, 3), "
     "upper_bound=inf, holds='yes')"),
    (GlobalConditionReport, lambda: {"holds": False, "lambda_b_minus_a": F(1, 3),
                                     "kappa2": F(1, 3), "kappa1": F(1, 3), "d_minus_c": F(1)},
     {"kappa1": F(1, 4)},
     "GlobalConditionReport(holds=False, lambda_b_minus_a=Fraction(1, 3), "
     "kappa2=Fraction(1, 3), kappa1=Fraction(1, 3), d_minus_c=Fraction(1, 1))"),
    (Certificate, lambda: {name: getattr(_CERT, name) for name in (
        "ifs1", "ifs2", "f", "word1", "word2", "sign_case", "grad", "orientation",
        "m_row", "m_gap", "certified_interval")},
     {"m_gap": F(1, 3)},
     "Certificate(ifs1=<fractarith.ifs_core.HomogeneousIfs object>, "
     "ifs2=<fractarith.ifs_core.HomogeneousIfs object>, "
     "f=Add(left=Var(name='x'), right=Var(name='y')), word1=(), word2=(), "
     "sign_case=SignCase(sx=1, sy=1), "
     "grad=GradEnclosure(dx=[1, 1], dy=[1, 1], rect=([0, 1], [0, 1])), "
     "orientation='k1-blocks', m_row=Fraction(0, 1), m_gap=Fraction(2, 3), "
     "certified_interval=[0, 2])"),
    (DigitSeq, lambda: {"preperiod": "01", "period": "10"}, {"period": "0"},
     "DigitSeq(preperiod='01', period='10')"),
    (QgPrefix, lambda: {"digits": "1101"}, {"digits": "1100"}, "QgPrefix(digits='1101')"),
    (DimEstimate, lambda: {"counts": ((2, 4), (3, 8)), "slope": 0.5, "residual": 0.25},
     {"slope": 0.75}, "DimEstimate(counts=((2, 4), (3, 8)), slope=0.5, residual=0.25)"),
]


@pytest.mark.parametrize("cls, fields, other, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, fields, other, text):
    values = fields()
    a = cls(*values.values())
    b = cls(**fields())
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(values.values()))
    assert [getattr(a, name) for name in values] == list(values.values())
    changed = cls(**{**fields(), **other})
    assert a != changed and not a == changed
    assert a != tuple(values.values())
    # addresses of objects without a repr of their own vary between runs
    assert re.sub(r" at 0x[0-9a-f]+", "", repr(a)) == text
    first = next(iter(values))
    for name in (first, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    assert copy.copy(a) == a
    if cls is not Certificate:  # a deep copy's systems are new, and they compare by identity
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


def _deep_copies(x):
    return [copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


def test_copies_of_a_rational_certificate():
    cert = certify_rectangle(cantor(), cantor(), parse("x*y^2"), (1, 2, 1), (2, 1, 2))
    assert copy.copy(cert) == cert
    for twin in _deep_copies(cert):
        assert twin.to_json() == cert.to_json()
        assert twin.ifs1 is not cert.ifs1 and isinstance(twin.ifs1, HomogeneousIfs)
        assert twin.grad == cert.grad and twin.certified_interval == cert.certified_interval


def test_copies_of_kq_over_an_algebraic_base():
    """A deep copy of K_q over sqrt(7/2) holds a new generator, with its own
    memo, shared by all its field elements; a shallow copy shares the
    original's field elements, and with them its generator."""
    kq = kq_ifs(AlgebraicReal((F(-7, 2), 0, 1), 1, 2))
    gen = kq.ratio.gen
    FieldElement.generator(gen).enclosure(F(1, 2 ** 30))  # fills the memo
    shallow = copy.copy(kq)
    assert shallow.to_obj() == kq.to_obj() and shallow.ratio is kq.ratio
    for twin in _deep_copies(kq):
        assert twin.to_obj() == kq.to_obj()
        twin_gen = twin.ratio.gen
        assert twin_gen is not gen and twin_gen._memo is not gen._memo
        assert all(t.gen is twin_gen for t in twin.translations)
        assert not twin_gen._memo and gen._memo
        # the derived geometry is recomputed on the copy
        assert twin.convex_hull().to_obj() == kq.convex_hull().to_obj()
        assert twin.gap_profile().kappa.coeffs == kq.gap_profile().kappa.coeffs


def test_deep_copies_of_an_algebraic_certificate_share_one_new_generator():
    cert = certify_uq_arith(AlgebraicReal((F(-7, 2), 0, 1), 1, 2), parse("x*y"))
    gen = cert.ifs1.ratio.gen
    for twin in _deep_copies(cert):
        twin_gen = twin.ifs1.ratio.gen
        assert twin_gen is not gen and twin.ifs2 is twin.ifs1
        assert twin.m_row.gen is twin_gen and twin.certified_interval.lo.gen is twin_gen
        assert (twin.word1, twin.word2) == (cert.word1, cert.word2)
        assert scalar_to_obj(twin.m_row) == scalar_to_obj(cert.m_row)
        assert twin.certified_interval.to_obj() == cert.certified_interval.to_obj()


def test_binary_nodes_of_equal_fields_differ_by_class():
    nodes = [cls(X, Y) for cls in (Add, Sub, Mul, Div)]
    assert len({*nodes}) == 4
    assert all(m != n for i, m in enumerate(nodes) for n in nodes[i + 1:])


def test_construction_checks_and_normalisation():
    with pytest.raises(FractarithError, match=r"^interval endpoints out of order: 2 > 1$"):
        Interval(2, 1)
    with pytest.raises(FractarithError, match="^code period must be nonempty$"):
        Code((1,), ())
    assert Code.parse("21") == Code((2, 1), (1,))
    seq = DigitSeq("0110", "10")
    assert (seq.preperiod, seq.period) == ("01", "10")
    assert seq == DigitSeq(preperiod="01", period="1010")
    with pytest.raises(FractarithError, match="^digits must be 0 or 1$"):
        DigitSeq("2", "0")
    with pytest.raises(FractarithError, match="^period must be nonempty$"):
        DigitSeq("1", "")


def test_interval_lattice_is_a_sequence():
    from collections.abc import Sequence
    lattice = IntervalLattice(9, (0, 2, 6), 1)
    assert isinstance(lattice, Sequence)
    assert list(lattice) == [Interval(F(0), F(1, 9)), Interval(F(2, 9), F(1, 3)),
                             Interval(F(2, 3), F(7, 9))]
    assert lattice[1:] == IntervalLattice(9, (2, 6), 1)


_FRESH_IMPORT = """
import json, sys
from fractarith.cli import main
loaded = [m for m in ("dataclasses", "inspect", "csv") if m in sys.modules]
main(["cover", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x*y", "--depth", "3",
      "--csv", "cover.csv"])
main(["boxdim", "--ifs", "cantor", "--ranks", "2:6", "--csv", "boxdim.csv"])
print(json.dumps(loaded))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_csv(tmp_path):
    """A fresh interpreter without site imports the CLI without dataclasses,
    inspect or csv, and the CSV writers still write the bytes recorded when
    csv was imported with the package."""
    src = os.path.dirname(os.path.dirname(fractarith.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-S", "-c", _FRESH_IMPORT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert (tmp_path / "cover.csv").read_bytes() == (
        b"lo,hi\r\n0,1/27\r\n4/81,1/9\r\n4/27,7/27\r\n64/243,1/3\r\n4/9,133/243\r\n"
        b"400/729,7/9\r\n64/81,25/27\r\n676/729,1\r\n")
    assert (tmp_path / "boxdim.csv").read_bytes() == (
        b"rank,count\r\n2,4\r\n3,8\r\n4,16\r\n5,32\r\n6,64\r\n")
