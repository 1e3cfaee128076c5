"""Pinned outcomes of certify_rectangle in every sign case.

`pinned_certificates.json` holds, for each case below, the certificate JSON
(or, over an algebraic base, the certificate's fields) or the failure class,
name and margin, as issued by the earlier certifier that rewrote f and
reflected one set to bring every sign case to (+,+).  The certifier now
works in the problem's own frame and must issue the same bytes.

Regenerate the file (only when outputs are meant to change) with

    PYTHONPATH=src python tests/test_certifier_pinned.py > tests/pinned_certificates.json
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fractarith.certifier import certify_rectangle
from fractarith.errors import CertificationFailure, DomainError
from fractarith.exactnum import AlgebraicReal, FieldElement, scalar_to_obj
from fractarith.exprfn import parse
from fractarith.ifs_core import HomogeneousIfs, cantor
from fractarith.qexp import kq_ifs

PINNED = Path(__file__).with_name("pinned_certificates.json")

SYSTEMS = {
    "C": cantor(),
    "SPARSE": HomogeneousIfs(Fraction(1, 5), (Fraction(0), Fraction(4, 5))),
    "FIFTHS": HomogeneousIfs(Fraction(1, 5), tuple(Fraction(i, 5) for i in range(5))),
    "KQ": HomogeneousIfs(Fraction(100, 361), (Fraction(100, 361), Fraction(10, 19))),
    # K_q over q = sqrt(7/2), as a field element
    "KQ_SQRT": kq_ifs(FieldElement.generator(AlgebraicReal((-7, 0, 2), 1, 2))),
}

# (system 1, system 2, f, word1, word2)
CASES = [
    # one case per sign case at equal and unequal ranks, Cantor pair
    ("C", "C", "x+y", (), ()),
    ("C", "C", "x+y", (2,), (2, 1)),
    ("C", "C", "x-y", (2,), (2,)),
    ("C", "C", "x-y", (2,), (2, 1)),
    ("C", "C", "y-x", (1, 1), (2, 2)),
    ("C", "C", "y-x", (1, 2, 2), (2, 1)),
    ("C", "C", "-x-y", (), ()),
    ("C", "C", "-x-y", (2, 2), (2,)),
    ("C", "C", "x^(-1)+y", (2,), (2,)),
    ("C", "C", "x^(-1)+y", (2, 2), (2,)),
    ("C", "C", "-x*y", (1, 2, 2), (2, 1)),
    # fractional powers: irrational corner values, at unequal ranks
    ("C", "C", "x^(1/2)+y", (2,), (2, 1)),
    ("C", "C", "x^(1/2)-y^(1/3)", (2, 2), (2,)),
    ("C", "C", "y^(1/2)-x", (2, 2), (2,)),
    ("C", "C", "-x^(1/2)-y^(1/2)", (1, 2, 2), (2, 1)),
    ("C", "C", "x^(-1/2)-y", (2,), (2, 1)),
    # the rational K_q pair, both orientations
    ("KQ", "KQ", "x*y", (1, 1), (2, 2)),
    ("KQ", "KQ", "x/y", (1, 1), (2, 2)),
    ("KQ", "KQ", "x^(-1)+y", (2, 2), (2,)),
    ("KQ", "KQ", "-x*y", (1, 1), (2, 2)),
    ("KQ", "KQ", "x^2+y^2", (1, 1), (2, 2)),
    ("KQ", "KQ", "2*x+y", (1, 2, 2), (2, 1)),
    ("KQ", "KQ", "y^(1/2)-x", (1, 1), (2, 2)),
    # a gappy set against a gapless one with the same ratio
    ("SPARSE", "FIFTHS", "x/y", (2,), (1, 2, 1)),
    ("SPARSE", "FIFTHS", "y-x", (1, 2, 2), (2, 1)),
    ("SPARSE", "FIFTHS", "-x-y", (2, 1, 2), (2,)),
    ("SPARSE", "FIFTHS", "x^(-1)+y", (2, 1, 2), (2,)),
    ("FIFTHS", "SPARSE", "x-y", (2,), (2, 1)),
    # over an algebraic base
    ("KQ_SQRT", "KQ_SQRT", "x*y", (1, 1), (2, 2)),
    ("KQ_SQRT", "KQ_SQRT", "x/y", (1, 1), (2, 2)),
    ("KQ_SQRT", "KQ_SQRT", "-x*y", (1, 1), (2, 2)),
    # failures: margins and starting-grid seams
    ("SPARSE", "SPARSE", "x+y", (), ()),
    ("SPARSE", "SPARSE", "y-x", (1,), (2,)),
    ("C", "C", "x/y", (2,), (2,)),
    ("C", "C", "x/y", (1, 2, 2), (2, 1)),
    ("C", "C", "-x*y", (2,), (2,)),
    ("C", "C", "x+y", (), (2, 2)),
    ("C", "C", "x-y", (2, 1, 2), (2,)),
    ("C", "C", "y-x", (2,), (1, 2, 1)),
    ("C", "C", "-x-y", (), (2, 2)),
    ("C", "C", "x^(-1)+y", (2,), (2, 1)),
    ("C", "C", "x^(1/2)+y", (2, 2), (2,)),
    ("C", "C", "-x^(1/2)-y^(1/2)", (2,), (1, 2, 1)),
    ("KQ", "KQ", "x-y", (1, 1), (2, 2)),
]


def case_id(case) -> str:
    a, b, f, w1, w2 = case
    return f"{a}x{b}:{f}@{''.join(map(str, w1))}|{''.join(map(str, w2))}"


def outcome(case) -> dict:
    """What certify_rectangle issues for a case, as a JSON-able object."""
    a, b, f, w1, w2 = case
    try:
        cert = certify_rectangle(SYSTEMS[a], SYSTEMS[b], parse(f), w1, w2)
    except (CertificationFailure, DomainError) as exc:
        margin = getattr(exc, "margin", None)
        return {"failure": type(exc).__name__, "name": getattr(exc, "name", None),
                "margin": None if margin is None else scalar_to_obj(margin)}
    if a == "KQ_SQRT":
        # to_json cannot yet write algebraic margins; pin the fields instead
        return {"fields": {
            "sign_case": str(cert.sign_case), "orientation": cert.orientation,
            "grad": [cert.grad.dx.to_obj(), cert.grad.dy.to_obj()],
            "m_row": scalar_to_obj(cert.m_row), "m_gap": scalar_to_obj(cert.m_gap),
            "certified_interval": cert.certified_interval.to_obj()}}
    return {"json": cert.to_json()}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_certify_rectangle_matches_pinned_outcome(case, pinned):
    assert outcome(case) == pinned[case_id(case)]


def test_pinned_file_covers_exactly_the_cases(pinned):
    assert sorted(pinned) == sorted(map(case_id, CASES))


def test_pins_cover_every_sign_case_and_failure_kind(pinned):
    cases = [json.loads(v["json"])["sign_case"] for v in pinned.values() if "json" in v]
    assert {"++", "+-", "-+", "--"} <= set(cases)
    failures = {(v["failure"], v["name"]) for v in pinned.values() if "failure" in v}
    assert {("MarginNegative", "m_row"), ("MarginNegative", "m_gap"),
            ("MarginNegative", "initial-rank seam")} <= failures


if __name__ == "__main__":
    table = {case_id(c): outcome(c) for c in CASES}
    sys.stdout.write(json.dumps(table, indent=1, sort_keys=True) + "\n")
