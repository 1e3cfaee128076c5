"""CLI tests: verbs, exit codes, JSON output, artifact files."""

import json

import pytest

from fractarith.certifier import certify_rectangle
from fractarith.cli import main
from fractarith.exprfn import parse
from fractarith.ifs_core import cantor


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
      "--word1", "1a"], None, "invalid literal"),
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
], ids=["replay-missing-field", "replay-not-json", "inline-ifs-not-json",
        "word-not-digits", "base-not-a-number", "boxdim-without-input",
        "uq-cover-negative-depth", "replay-not-an-object", "replay-word-not-a-list",
        "ifs-base-not-an-object", "ifs-translation-without-coeffs", "ifs-base-without-hi",
        "ifs-ratio-without-lo", "replay-ifs-base-not-an-object", "ifs-zero-denominator",
        "base-zero-denominator", "q-grid-zero-denominator", "ifs-file-not-an-object",
        "check-negative-depth", "auto-certify-negative-max-depth",
        "uq-certify-negative-max-depth", "qg-negative-budget", "cover-negative-depth"])
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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-verb"])
    assert exc.value.code == 1


def test_pretty_flag(capsys):
    status = main(["--pretty", "qstar"])
    out = capsys.readouterr().out
    assert status == 0 and out.startswith("{\n")
