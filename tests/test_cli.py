"""CLI tests: verbs, exit codes, JSON output, artifact files."""

import csv
import json
import os
import re
import subprocess
import sys

import pytest

import fractarith
from fractarith.certifier import certify_rectangle
from fractarith.cli import main
from fractarith.empirics import image_cover, uq_cover
from fractarith.exactnum import AlgebraicReal
from fractarith.exprfn import parse
from fractarith.ifs_core import cantor
from fractarith.qexp import kq_ifs, qstar


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, (json.loads(out) if out.strip() else None)


def test_qstar_verb(capsys):
    status, obj = run(capsys, "qstar")
    assert status == 0
    assert obj == {"poly": [1, -2, -1, 1], "lo": "9/5", "hi": "181/100"}


def test_gaps_and_thickness(capsys):
    status, obj = run(capsys, "gaps", "--ifs", "cantor")
    assert status == 0
    assert obj["kappa"] == "1/3"
    assert obj["gaps"] == [{"index": 1, "length": "1/3"}]
    status, obj = run(capsys, "thickness", "--ifs", "cantor")
    assert status == 0 and obj == {"thickness_lb": "1"}


def test_thickness_infinite(capsys):
    ifs = json.dumps({"ratio": "1/2", "translations": ["0", "1/2"]})
    status, obj = run(capsys, "thickness", "--ifs", ifs)
    assert status == 0 and obj == {"thickness_lb": "inf"}


def test_certify_cantor_sum(capsys):
    status, obj = run(capsys, "certify", "--ifs1", "cantor", "--ifs2", "cantor",
                      "--f", "x+y")
    assert status == 0
    assert obj["certified_interval"] == ["0", "2"]
    assert obj["m_row"] == "0" and obj["m_gap"] == "2/3"


def test_certify_failure_exit_code(capsys):
    ifs = json.dumps({"ratio": "1/5", "translations": ["0", "4/5"]})
    status, obj = run(capsys, "certify", "--ifs1", ifs, "--ifs2", ifs, "--f", "x+y")
    assert status == 2
    assert obj["certified"] is False
    assert "m_row" in obj["reason"]


def test_certificate_pipes_back_into_replay(capsys, tmp_path):
    status, obj = run(capsys, "certify", "--ifs1", "cantor", "--ifs2", "cantor",
                      "--f", "x-y")
    assert status == 0
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    status, rep = run(capsys, "replay", "--cert", str(path))
    assert status == 0 and rep == {"replay": True}


def test_replay_detects_tamper(capsys, tmp_path):
    status, obj = run(capsys, "certify", "--ifs1", "cantor", "--ifs2", "cantor",
                      "--f", "x+y")
    obj["certified_interval"] = ["0", "3"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    status, rep = run(capsys, "replay", "--cert", str(path))
    assert status == 2
    assert rep["replay"] is False


def test_auto_certify_and_oracle(capsys, tmp_path):
    status, obj = run(capsys, "auto-certify", "--ifs1", "cantor", "--ifs2", "cantor",
                      "--f", "x/y", "--code1", "21(1)", "--code2", "(2)")
    assert status == 0
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    status, rep = run(capsys, "oracle-check", "--cert", str(path), "--depth", "8")
    assert status == 0 and rep == {"ok": True}


def test_check_with_kq_preset(capsys):
    status, obj = run(capsys, "check", "--f", "x*y", "--q", "19/10",
                      "--point-corner", "left-right")
    assert status == 0
    assert obj["holds"] == "yes"
    assert obj["lower_bound"] == "161/361"
    assert obj["upper_bound"] == "100/161"


def test_check_with_algebraic_kq_preset(capsys):
    # at q* the bounds 1 - 2/q^2 and 1/(q^2 - 2) reduce to 4q^2 - 2q - 9 and q - 1
    status, obj = run(capsys, "check", "--f", "x*y", "--q", "qstar",
                      "--point-corner", "left-right")
    assert status == 0 and obj["holds"] == "yes"
    assert obj["lower_bound"] == {"coeffs": ["-9", "-2", "4"]}
    assert obj["upper_bound"] == {"coeffs": ["-1", "1"]}


def test_check_not_established(capsys):
    status, obj = run(capsys, "check", "--f", "x+y", "--q", "19/10",
                      "--point-corner", "left-right")
    assert status == 2 and obj["holds"] == "no"


def test_check_with_explicit_pair_and_codes(capsys):
    status, obj = run(capsys, "check", "--ifs1", "cantor", "--ifs2", "cantor",
                      "--f", "x/y", "--point1", "21(1)", "--point2", "(2)",
                      "--depth", "3")
    assert status == 0 and obj["holds"] == "yes"


def test_check_domain_error_is_not_established(capsys):
    # f = x/y is undefined where the located y-cylinder reaches 0
    status, obj = run(capsys, "check", "--ifs1", "cantor", "--ifs2", "cantor",
                      "--f", "x/y", "--point1", "1", "--point2", "1", "--depth", "3")
    assert status == 2
    assert obj == {"holds": "undecided", "reason": "interval contains 0"}


def test_check_cor2(capsys):
    status, obj = run(capsys, "check-cor2", "--ifs1", "cantor", "--ifs2", "cantor")
    assert status == 2 and obj["holds"] is False


def test_cover_with_artifacts(capsys, tmp_path):
    csv_path = tmp_path / "cover.csv"
    svg_path = tmp_path / "cover.svg"
    status, obj = run(capsys, "cover", "--ifs1", "cantor", "--ifs2", "cantor",
                      "--f", "x+y", "--depth", "6",
                      "--csv", str(csv_path), "--svg", str(svg_path))
    assert status == 0
    assert obj["intervals"] == [["0", "2"]]
    assert csv_path.read_text().startswith("lo,hi")
    assert svg_path.read_text().startswith("<svg")


def test_cover_over_algebraic_base(capsys):
    # endpoints in Q(q*) serialise as coefficient vectors over the base
    status, obj = run(capsys, "cover", "--ifs1", "kq:qstar", "--ifs2", "kq:qstar",
                      "--f", "x+y", "--depth", "2")
    assert status == 0
    k = kq_ifs(qstar())
    assert obj["intervals"] == image_cover(k, k, parse("x+y"), 2).to_obj()
    assert obj["intervals"][0][0] == {"coeffs": ["-2", "-2", "2"]}


@pytest.mark.parametrize("argv", [
    ["cover", "--ifs1", "kq:qstar", "--ifs2", "kq:qstar", "--f", "x+y", "--depth", "1"],
    ["uq-cover", "--q", "qstar", "--depth", "3"],
], ids=["cover", "uq-cover"])
def test_artifacts_over_algebraic_base(capsys, tmp_path, argv):
    # CSV cells carry the JSON output's coefficient vectors; SVG bars are
    # placed from decimal enclosures
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    status, obj = run(capsys, *argv, "--csv", str(csv_path), "--svg", str(svg_path))
    assert status == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lo", "hi"]
    cells = [[cell if cell[0] != "{" else json.loads(cell) for cell in row] for row in rows[1:]]
    assert cells == obj["intervals"]
    assert any(isinstance(cell, dict) for row in cells for cell in row)
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") == len(obj["intervals"])
    xs = [float(x) for x in re.findall(r'<rect x="([^"]+)"', svg)]
    assert all(40 <= x <= 792 for x in xs)


def test_boxdim_verbs(capsys):
    status, obj = run(capsys, "boxdim", "--ifs", "cantor", "--ranks", "4:9")
    assert status == 0
    assert abs(obj["slope"] - 0.6309297535714574) < 1e-9
    status, obj = run(capsys, "boxdim", "--ranks", "2:5", "--q-grid",
                      "17/10,19/10", "--f", "x*y")
    assert status == 0
    assert [row["q"] for row in obj["trend"]] == ["17/10", "19/10"]


def test_qg_verbs(capsys):
    status, obj = run(capsys, "qg", "--q", "19/10", "--budget", "20")
    assert status == 0
    assert obj["periodic"] is False and obj["prefix"].startswith("11101")
    status, obj = run(capsys, "qg", "--q", "qstar")
    assert status == 0
    assert obj == {"periodic": True, "digits": "1(10)"}


def test_univoque_verb(capsys):
    status, obj = run(capsys, "univoque", "--seq", "(01)", "--q", "19/10")
    assert status == 0 and obj == {"verdict": "yes"}
    status, obj = run(capsys, "univoque", "--seq", "0(1)", "--q", "19/10")
    assert status == 2 and obj == {"verdict": "no"}


def test_kq_verb_round_trips_into_ifs_flag(capsys):
    status, obj = run(capsys, "kq", "--q", "19/10")
    assert status == 0
    assert obj["kq_in_uq"] == "yes"
    assert obj["ifs"] == {"ratio": "100/361", "translations": ["100/361", "10/19"]}
    status, gaps = run(capsys, "gaps", "--ifs", json.dumps(obj))
    assert status == 0 and gaps["kappa"] == "1610/10469"


def test_root_bases(capsys):
    # q* spelled as a root is q*
    assert run(capsys, "kq", "--q", "root:1,-2,-1,1@9/5,181/100") == run(capsys, "kq", "--q", "qstar")
    status, obj = run(capsys, "kq", "--q", "root:-2,0,1@1,2")
    assert status == 0 and obj["ifs"]["ratio"] == "1/2"
    assert obj["ifs"]["base"]["poly"] == [-2, 0, 1]
    status, obj = run(capsys, "uq-cover", "--q", "root:-7,0,2@1,2", "--depth", "4")
    assert status == 0
    assert obj["intervals"] == uq_cover(AlgebraicReal((-7, 0, 2), 1, 2), 4).to_obj()
    status, obj = run(capsys, "cover", "--ifs1", "kq:root:-7,0,2@1,2", "--ifs2", "cantor",
                      "--f", "x+y", "--depth", "2")
    assert status == 0 and obj["intervals"]
    status, obj = run(capsys, "uq-certify", "--q", "root:-7,0,2@1,2", "--f", "x*y",
                      "--max-depth", "0")
    assert status == 2 and obj["certified"] is False


def test_uq_cover_verb(capsys):
    status, obj = run(capsys, "uq-cover", "--q", "19/10", "--depth", "0")
    assert status == 0 and obj["intervals"] == [["0", "10/9"]]


def test_uq_certify_verb(capsys, tmp_path):
    status, obj = run(capsys, "uq-certify", "--q", "19/10", "--f", "x*y")
    assert status == 0
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    status, rep = run(capsys, "replay", "--cert", str(path))
    assert status == 0 and rep == {"replay": True}
    status, obj = run(capsys, "uq-certify", "--q", "3/2", "--f", "x*y")
    assert status == 2 and obj["certified"] is False


@pytest.mark.parametrize("q, extra, reason", [
    ("root:-7,0,2@1,2", [], "PointRefuted: "),
    ("root:-1,-1,-1,1@7/4,2", [], "PointRefuted: "),
    ("187/100", ["--max-depth", "0"], "MarginNegative: inequality m_row violated with margin <= -"),
], ids=["sqrt-7/2", "tribonacci", "rational"])
def test_uq_certify_writes_margins_past_the_digit_limit(capsys, q, extra, reason):
    # x^1000 makes margins with more digits than str() writes of an integer
    status = main(["uq-certify", "--q", q, "--f", "x^1000+y", *extra])
    captured = capsys.readouterr()
    assert status == 2 and captured.err == ""
    obj = json.loads(captured.out)
    assert obj["certified"] is False and reason in obj["reason"]


def test_outputs_deterministic(capsys):
    _, a = run(capsys, "uq-certify", "--q", "19/10", "--f", "x/y")
    _, b = run(capsys, "uq-certify", "--q", "19/10", "--f", "x/y")
    assert a == b
    s1 = json.dumps(a, sort_keys=True)
    s2 = json.dumps(b, sort_keys=True)
    assert s1 == s2


def test_input_error_exit_code(capsys):
    status = main(["gaps", "--ifs", "nonsense-name"])
    err = capsys.readouterr().err
    assert status == 1
    assert "error" in err


_IFS = {"ratio": "1/3", "translations": ["0", "2/3"]}
_SQRT2 = {"poly": [-2, 0, 1], "lo": "1", "hi": "2"}


def _cert_text(**fields):
    obj = certify_rectangle(cantor(), cantor(), parse("x+y"), (), ()).to_obj()
    obj.update(fields)
    return json.dumps(obj)


@pytest.mark.parametrize("argv, cert_text, needle", [
    (["replay", "--cert", "CERT"], '{"format":"fractarith-cert-v1"}', "sign_case"),
    (["replay", "--cert", "CERT"], "not json", "Expecting value"),
    (["certify", "--ifs1", "{bad", "--ifs2", "cantor", "--f", "x+y"], None,
     "Expecting property name"),
    (["certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y",
      "--word1", "1a"], None, "bad digit 'a' in word '1a'"),
    (["auto-certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y",
      "--code1", "2a", "--code2", "(2)"], None, "bad digit 'a' in code '2a'"),
    (["auto-certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y",
      "--code1", "(1)", "--code2", "1,,2"], None, "bad digit '' in code '1,,2'"),
    (["check", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y",
      "--point1", "-1", "--point2", "(2)"], None, "bad digit '-' in code '-1'"),
    (["auto-certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y",
      "--code1", "1(2,x)", "--code2", "(2)"], None, "bad digit 'x' in code '1(2,x)'"),
    (["qg", "--q", "abc"], None, "abc"),
    (["boxdim", "--ranks", "2:4"], None, "--q-grid"),
    (["uq-cover", "--q", "19/10", "--depth", "-1"], None, "non-negative"),
    (["replay", "--cert", "CERT"], "[1]", "JSON object"),
    (["replay", "--cert", "CERT"], _cert_text(word1=5), "'word1'"),
    (["gaps", "--ifs", json.dumps(dict(_IFS, base=5))], None, "algebraic number"),
    (["gaps", "--ifs", json.dumps(dict(_IFS, base=_SQRT2, translations=["0", {"c": ["1"]}]))],
     None, "'coeffs'"),
    (["gaps", "--ifs", json.dumps(dict(_IFS, base={"poly": [-2, 0, 1], "lo": "1"}))],
     None, "'hi'"),
    (["gaps", "--ifs", json.dumps(dict(_IFS, ratio={"poly": [-1, 0, 3], "hi": "1"}))],
     None, "'lo'"),
    (["replay", "--cert", "CERT"], _cert_text(ifs1=dict(_IFS, base=5)), "algebraic number"),
    (["gaps", "--ifs", json.dumps(dict(_IFS, ratio="1/0"))], None, "zero denominator"),
    (["qg", "--q", "1/0"], None, "zero denominator"),
    (["boxdim", "--q-grid", "1/0", "--ranks", "1:3"], None, "zero denominator"),
    (["gaps", "--ifs", "CERT"], "[1,2]", "JSON object"),
    (["check", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x*y", "--point1", "21(1)",
      "--point2", "(2)", "--depth", "-1"], None, "non-negative"),
    (["auto-certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x/y",
      "--code1", "21(1)", "--code2", "(2)", "--max-depth", "-1"], None, "non-negative"),
    (["uq-certify", "--q", "19/10", "--f", "x*y", "--max-depth", "-2"], None, "non-negative"),
    (["qg", "--q", "19/10", "--budget", "-3"], None, "non-negative"),
    (["cover", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y", "--depth", "-1"], None,
     "non-negative"),
    (["auto-certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y",
      "--code1", "3", "--code2", "1"], None, "digit 3 outside alphabet 1..2"),
    (["auto-certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y",
      "--code1", "1", "--code2", "12(0)"], None, "digit 0 outside alphabet 1..2"),
    (["univoque", "--seq", "(01", "--q", "19/10"], None, "unclosed period parenthesis"),
    (["auto-certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y",
      "--code1", "21(1", "--code2", "(2)"], None, "unclosed period parenthesis"),
    (["kq", "--q", "root:-2,a,1@1,2"], None, "cannot read root:-2,a,1@1,2"),
    (["uq-certify", "--q", "root:-7,0,2@1,x", "--f", "x*y"], None, "cannot read root:"),
    (["kq", "--q", "root:-2,0,1@3/2,2"], None, "does not isolate exactly one root"),
    (["cover", "--ifs1", "kq:root:-2,0,1@2,1", "--ifs2", "cantor", "--f", "x+y",
      "--depth", "1"], None, "isolating interval is empty"),
    (["uq-cover", "--q", "root:-2,0,1", "--depth", "2"], None, "root:<c0>,<c1>,...@<lo>,<hi>"),
    (["cover", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x/y", "--depth", "3"], None,
     "interval contains 0"),
    (["boxdim", "--ifs", "cantor", "--ranks", "a:3"], None, "bad --ranks value 'a'"),
    (["boxdim", "--ifs", "cantor", "--ranks", "2,,4"], None, "bad --ranks value ''"),
    (["boxdim", "--ifs", "cantor", "--ranks", "3:1"], None, "bad --ranks value '3:1'"),
    (["cover", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y", "--depth", "2",
      "--x-window", "0"], None, "bad --x-window value '0': use <lo>,<hi>"),
    (["cover", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y", "--depth", "2",
      "--y-window", "0,a"], None, "bad --y-window value '0,a'"),
    (["cover", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y", "--depth", "2",
      "--y-window", "1,0"], None, "bad --y-window value '1,0'"),
    (["boxdim", "--q-grid", "17/10,x", "--ranks", "1:3"], None, "bad --q-grid value 'x'"),
    (["check", "--q", "19/10", "--f", "x*y", "--point-corner", "left"], None,
     "unknown corner pair 'left'"),
    (["qg", "--q", "abc"], None, "bad --q value 'abc'"),
    (["kq", "--q", "5/2"], None, "bad --q value '5/2': base must satisfy 1 < q < 2"),
    (["univoque", "--seq", "01(10)", "--q", "1"], None,
     "bad --q value '1': base must satisfy 1 < q < 2"),
    (["uq-cover", "--q", "x", "--depth", "2"], None, "bad --q value 'x'"),
    (["uq-certify", "--q", "root:-2,0,1@3/2,2", "--f", "x*y"], None,
     "bad --q value 'root:-2,0,1@3/2,2': interval does not isolate exactly one root"),
    (["check", "--q", "2", "--f", "x*y", "--point-corner", "left-right"], None,
     "bad --q value '2': base must satisfy 1 < q < 2"),
    (["cover", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y", "--depth",
      str(10 ** 12)], None, "2^1000000000000 cylinders exceed budget"),
    (["cover", "--ifs1", "cantor", "--ifs2", "cantor", "--f",
      "(" * 2000 + "x" + ")" * 2000 + "+y", "--depth", "2"], None,
     "input nests too deeply to process"),
    (["cover", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+" * 3001 + "y",
      "--depth", "2"], None, "input nests too deeply to process"),
    (["boxdim", "--ifs", "cantor", "--ranks", "2:100000000000000000000"], None,
     "bad --ranks value '2:100000000000000000000': 99999999999999999999 ranks exceed "
     "budget 16777216"),
    (["boxdim", "--ifs", "cantor", "--ranks", "2:100000000"], None,
     "bad --ranks value '2:100000000': 99999999 ranks exceed budget 16777216"),
    (["check", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x*y", "--point1", "21(1)",
      "--point2", "(2)", "--depth", "100000000000000000000"], None,
     "rank 100000000000000000000 exceeds the largest rank"),
], ids=["replay-missing-field", "replay-not-json", "inline-ifs-not-json",
        "word-not-digits", "code-letter", "code-empty-token", "code-negative-digit",
        "code-letter-in-period", "base-not-a-number", "boxdim-without-input",
        "uq-cover-negative-depth", "replay-not-an-object", "replay-word-not-a-list",
        "ifs-base-not-an-object", "ifs-translation-without-coeffs", "ifs-base-without-hi",
        "ifs-ratio-without-lo", "replay-ifs-base-not-an-object", "ifs-zero-denominator",
        "base-zero-denominator", "q-grid-zero-denominator", "ifs-file-not-an-object",
        "check-negative-depth", "auto-certify-negative-max-depth",
        "uq-certify-negative-max-depth", "qg-negative-budget", "cover-negative-depth",
        "auto-certify-digit-outside-alphabet", "auto-certify-period-digit-outside-alphabet",
        "univoque-unclosed-period", "auto-certify-unclosed-period", "root-bad-coefficient",
        "root-bad-interval", "root-no-root", "root-empty-interval", "root-without-interval",
        "cover-quotient-over-zero", "ranks-not-a-number", "ranks-empty-token",
        "ranks-descending",
        "x-window-without-comma", "y-window-not-a-number", "y-window-out-of-order",
        "q-grid-not-a-number", "unknown-corner-pair", "qg-q-not-a-number",
        "kq-q-above-two", "univoque-q-one", "uq-cover-q-not-a-number",
        "uq-certify-q-root-not-isolated", "check-q-two", "cover-huge-rank",
        "f-deeply-parenthesized", "f-long-flat-sum", "ranks-past-any-size",
        "ranks-past-budget", "check-huge-depth"])
def test_malformed_input_is_one_line_error(capsys, tmp_path, argv, cert_text, needle):
    path = tmp_path / "cert.json"
    if cert_text is not None:
        path.write_text(cert_text)
    status = main([str(path) if a == "CERT" else a for a in argv])
    captured = capsys.readouterr()
    assert status == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err and needle in captured.err


def test_check_cor2_same_algebraic_spec_twice(capsys):
    status, obj = run(capsys, "check-cor2", "--ifs1", "kq:qstar", "--ifs2", "kq:qstar")
    assert status == 2 and obj["holds"] is False
    assert obj["kappa1"] == obj["kappa2"] == {"coeffs": ["-6", "-2", "3"]}


def test_unknown_ifs_keys_rejected(capsys):
    bad = json.dumps({"ratio": "1/3", "translations": ["0", "2/3"], "extra": 1})
    status = main(["gaps", "--ifs", bad])
    assert status == 1
    assert "unknown IFS keys" in capsys.readouterr().err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FRACTARITH_BUDGET", "100")
    status = main(["cover", "--ifs1", "cantor", "--ifs2", "cantor",
                   "--f", "x+y", "--depth", "9"])
    assert status == 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "0", "-1"])
def test_bad_budget_env_is_one_line_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("FRACTARITH_BUDGET", raw)
    status = main(["cover", "--ifs1", "cantor", "--ifs2", "cantor",
                   "--f", "x+y", "--depth", "0"])
    captured = capsys.readouterr()
    assert status == 1 and captured.out == ""
    assert captured.err == f"fractarith: error: bad FRACTARITH_BUDGET value '{raw}'\n"


def test_budget_env_read_only_when_enumerating(capsys, monkeypatch):
    # words of equal rank size no enumeration, so a bad budget goes unread
    monkeypatch.setenv("FRACTARITH_BUDGET", "abc")
    status, obj = run(capsys, "certify", "--ifs1", "cantor", "--ifs2", "cantor",
                      "--f", "x+y")
    assert status == 0 and obj["certified_interval"] == ["0", "2"]
    status = main(["certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y",
                   "--word2", "22"])
    assert status == 1 and "bad FRACTARITH_BUDGET value 'abc'" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-verb"])
    assert exc.value.code == 1


def test_closed_stdout_ends_without_a_traceback():
    # about 140 KB of failure reasons, more than a pipe buffers: the writer is
    # still writing when the reader closes its end, as under `| head -c 200`
    sparse = '{"ratio": "1/5", "translations": ["0", "4/5"]}'
    argv = ["auto-certify", "--ifs1", sparse, "--ifs2", sparse, "--f", "x+y",
            "--code1", "(1)", "--code2", "(2)", "--max-depth", "2000"]
    src = os.path.dirname(os.path.dirname(fractarith.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen([sys.executable, "-m", "fractarith.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(200)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        status = proc.wait()
    assert head.startswith(b'{"certified":false,"reason":"no certificate')
    assert err == "" and status == 1


def test_pretty_flag(capsys):
    status = main(["--pretty", "qstar"])
    out = capsys.readouterr().out
    assert status == 0 and out.startswith("{\n")
