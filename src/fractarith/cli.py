"""Command-line interface: JSON on stdout, exit 0 on success, 2 when a
condition is not established, 1 on usage or input errors and when stdout
closes before the output is written."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import empirics, qexp
from .certifier import (Certificate, auto_certify, certify_rectangle,
                        check_global_condition, check_pointwise, replay_explain)
from .errors import CertificationFailure, DomainError, FractarithError
from .exactnum import Interval, rat_from_str, scalar_to_obj
from .exprfn import parse as parse_expr
from .ifs_core import Code, HomogeneousIfs, cantor, get_budget, parse_word
from .qexp import (CORNERS, DigitSeq, QgPrefix, certify_uq_arith, is_univoque_seq,
                   kq_ifs, qstar, quasi_greedy_one, verify_kq_in_uq)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_ESTABLISHED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load_ifs(spec: str) -> HomogeneousIfs:
    spec = spec.strip()
    if spec == "cantor":
        return cantor()
    if spec.startswith("kq:"):
        return kq_ifs(spec[3:])
    if spec.startswith("{"):
        obj = json.loads(spec)
    elif os.path.exists(spec):
        with open(spec) as fh:
            obj = json.load(fh)
    else:
        raise FractarithError(f"cannot interpret IFS spec {spec!r} "
                              "(use 'cantor', 'kq:<q>', a JSON file path, or inline JSON)")
    if isinstance(obj, dict):
        obj = obj.get("ifs", obj)
    return HomogeneousIfs.from_obj(obj)


def _load_ifs_pair(spec1: str, spec2: str) -> tuple[HomogeneousIfs, HomogeneousIfs]:
    """Both systems; two identical specs load once, so that algebraic data
    such as kq:qstar shares one generator and compares exactly."""
    k1 = _load_ifs(spec1)
    return k1, k1 if spec2.strip() == spec1.strip() else _load_ifs(spec2)


def _number(option: str, token: str, read=rat_from_str):
    """read(token), or a one-line error that names the option and the token."""
    try:
        return read(token)
    except ValueError:
        raise FractarithError(f"bad {option} value {token!r}") from None
    except FractarithError as exc:
        raise FractarithError(f"bad {option} value {token!r}: {exc}") from None


def _base(args):
    """The --q option as an exact base, read once."""
    return _number("--q", args.q, qexp.as_base)


def _read_window(text: str) -> Interval:
    lo, comma, hi = text.partition(",")
    if not comma:
        raise FractarithError("use <lo>,<hi>")
    return Interval(rat_from_str(lo), rat_from_str(hi))


def _parse_ranks(text: str) -> range | list[int]:
    """"lo:hi", a range that must not be empty nor hold more ranks than
    the enumeration budget, or a comma list."""
    if ":" in text:
        lo, _, hi = text.partition(":")
        lo, hi = _number("--ranks", lo, int), _number("--ranks", hi, int)
        if hi < lo:
            raise FractarithError(f"bad --ranks value {text!r}")
        budget = get_budget()
        if hi - lo >= budget:
            raise FractarithError(f"bad --ranks value {text!r}: "
                                  f"{hi - lo + 1} ranks exceed budget {budget}")
        return range(lo, hi + 1)
    return [_number("--ranks", t, int) for t in text.split(",")]


def _load_cert(path: str) -> Certificate:
    if path == "-":
        return Certificate.from_json(sys.stdin.read())
    with open(path) as fh:
        return Certificate.from_json(fh.read())


def _write_artifacts(args, union_pairs) -> None:
    if getattr(args, "csv", None):
        empirics.write_intervals_csv(args.csv, union_pairs)
    if getattr(args, "svg", None):
        empirics.write_union_svg(args.svg, [(0, union_pairs)])


# ---------------------------------------------------------------------------
# verb handlers: return (json-able object, exit status)
# ---------------------------------------------------------------------------

def _cmd_gaps(args):
    ifs = _load_ifs(args.ifs)
    prof = ifs.gap_profile()
    return {
        "hull": prof.hull.to_obj(),
        "gaps": [{"index": i, "length": scalar_to_obj(g)} for i, g in prof.gap_set],
        "kappa": scalar_to_obj(prof.kappa),
        "thickness_lb": scalar_to_obj(prof.thickness_lb),
    }, EXIT_OK


def _cmd_thickness(args):
    ifs = _load_ifs(args.ifs)
    return {"thickness_lb": scalar_to_obj(ifs.gap_profile().thickness_lb)}, EXIT_OK


def _resolve_pair(args):
    if args.q is not None:
        ifs = kq_ifs(_base(args))
        return ifs, ifs
    if not (args.ifs1 and args.ifs2):
        raise FractarithError("need --ifs1 and --ifs2 (or --q for the kq preset)")
    return _load_ifs_pair(args.ifs1, args.ifs2)


def _resolve_point(args):
    if args.point_corner:
        try:
            return CORNERS[args.point_corner]
        except KeyError:
            raise FractarithError(f"unknown corner pair {args.point_corner!r}")
    if args.point1 and args.point2:
        return Code.parse(args.point1), Code.parse(args.point2)
    raise FractarithError("need --point1/--point2 codes or --point-corner")


def _cmd_check(args):
    k1, k2 = _resolve_pair(args)
    f = parse_expr(args.f)
    p1, p2 = _resolve_point(args)
    try:
        report = check_pointwise(k1, k2, f, (p1, p2), args.depth)
    except (CertificationFailure, DomainError) as exc:
        return {"holds": "undecided", "reason": str(exc)}, EXIT_NOT_ESTABLISHED
    return report.to_obj(), EXIT_OK if report.holds == "yes" else EXIT_NOT_ESTABLISHED


def _cmd_check_cor2(args):
    k1, k2 = _load_ifs_pair(args.ifs1, args.ifs2)
    rep = check_global_condition(k1, k2)
    return rep.to_obj(), EXIT_OK if rep.holds else EXIT_NOT_ESTABLISHED


def _certificate_or_reason(certify):
    """certify()'s certificate and exit 0, or why it found none and exit 2."""
    try:
        cert = certify()
    except (CertificationFailure, DomainError) as exc:
        return {"certified": False, "reason": str(exc)}, EXIT_NOT_ESTABLISHED
    return cert.to_obj(), EXIT_OK


def _cmd_certify(args):
    k1, k2 = _load_ifs_pair(args.ifs1, args.ifs2)
    f = parse_expr(args.f)
    w1, w2 = parse_word(args.word1), parse_word(args.word2)
    return _certificate_or_reason(lambda: certify_rectangle(k1, k2, f, w1, w2))


def _cmd_auto_certify(args):
    k1, k2 = _load_ifs_pair(args.ifs1, args.ifs2)
    f = parse_expr(args.f)
    point = Code.parse(args.code1), Code.parse(args.code2)
    return _certificate_or_reason(lambda: auto_certify(k1, k2, f, point, args.max_depth))


def _cmd_replay(args):
    cert = _load_cert(args.cert)
    ok, field = replay_explain(cert)
    out = {"replay": ok}
    if not ok:
        out["failing_field"] = field
    return out, EXIT_OK if ok else EXIT_NOT_ESTABLISHED


def _cmd_cover(args):
    k1, k2 = _load_ifs_pair(args.ifs1, args.ifs2)
    f = parse_expr(args.f)
    union = empirics.image_cover(
        k1, k2, f, args.depth,
        x_window=_number("--x-window", args.x_window, _read_window) if args.x_window else None,
        y_window=_number("--y-window", args.y_window, _read_window) if args.y_window else None)
    _write_artifacts(args, union)
    return {"depth": args.depth, "intervals": union.to_obj()}, EXIT_OK


def _cmd_oracle_check(args):
    cert = _load_cert(args.cert)
    ok = empirics.oracle_check(cert, args.depth)
    return {"ok": ok}, EXIT_OK if ok else EXIT_NOT_ESTABLISHED


def _cmd_boxdim(args):
    ranks = _parse_ranks(args.ranks)
    if args.q_grid:
        f = parse_expr(args.f or "x*y")
        rows = []
        for q_text in args.q_grid.split(","):
            q = _number("--q-grid", q_text)
            counts = empirics.uq_product_counts(q, f, ranks)
            est = empirics.box_dim_estimate(counts, 1 / q)
            rows.append({"q": q_text, "counts": [[k, n] for k, n in counts],
                         "slope": est.slope, "residual": est.residual})
        if args.csv:
            empirics.write_counts_csv(args.csv,
                                      [(k, n) for r in rows for k, n in r["counts"]])
        return {"trend": rows}, EXIT_OK
    if not args.ifs:
        raise FractarithError("need --ifs or --q-grid")
    ifs = _load_ifs(args.ifs)
    counts = empirics.ifs_box_counts(ifs, ranks)
    est = empirics.box_dim_estimate(counts, ifs.ratio)
    if args.csv:
        empirics.write_counts_csv(args.csv, counts)
    return {"counts": [[k, n] for k, n in est.counts],
            "slope": est.slope, "residual": est.residual}, EXIT_OK


def _cmd_qg(args):
    res = quasi_greedy_one(_base(args), budget=args.budget)
    if isinstance(res, QgPrefix):
        return {"periodic": False, "prefix": res.digits}, EXIT_OK
    return {"periodic": True, "digits": str(res)}, EXIT_OK


def _cmd_univoque(args):
    verdict = is_univoque_seq(DigitSeq.parse(args.seq), _base(args))
    return {"verdict": verdict}, EXIT_OK if verdict == "yes" else EXIT_NOT_ESTABLISHED


def _cmd_kq(args):
    q = _base(args)
    return {"ifs": kq_ifs(q).to_obj(), "kq_in_uq": verify_kq_in_uq(q)}, EXIT_OK


def _cmd_uq_cover(args):
    union = empirics.uq_cover(_base(args), args.depth)
    _write_artifacts(args, union)
    return {"depth": args.depth, "intervals": union.to_obj()}, EXIT_OK


def _cmd_uq_certify(args):
    f = parse_expr(args.f)
    q = _base(args)
    return _certificate_or_reason(lambda: certify_uq_arith(q, f, max_depth=args.max_depth))


def _cmd_qstar(args):
    return qstar().to_obj(), EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="fractarith",
                     description="certified interval arithmetic on self-similar sets")
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **help_kw):
        p = sub.add_parser(name, **help_kw)
        p.set_defaults(fn=fn)
        return p

    p = add("gaps", _cmd_gaps, help="gap profile of an IFS")
    p.add_argument("--ifs", required=True)

    p = add("thickness", _cmd_thickness, help="rank-1 thickness lower bound")
    p.add_argument("--ifs", required=True)

    p = add("check", _cmd_check, help="pointwise ratio condition")
    p.add_argument("--ifs1")
    p.add_argument("--ifs2")
    p.add_argument("--q", help="use the kq:<q> preset for both sets")
    p.add_argument("--f", required=True)
    p.add_argument("--point1")
    p.add_argument("--point2")
    p.add_argument("--point-corner", help="left-right, right-left, left-left, right-right")
    p.add_argument("--depth", type=int, default=6)

    p = add("check-cor2", _cmd_check_cor2, help="global strict condition")
    p.add_argument("--ifs1", required=True)
    p.add_argument("--ifs2", required=True)

    p = add("certify", _cmd_certify, help="certify a cylinder rectangle")
    p.add_argument("--ifs1", required=True)
    p.add_argument("--ifs2", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--word1", default="")
    p.add_argument("--word2", default="")

    p = add("auto-certify", _cmd_auto_certify, help="descend cylinders around a coded point")
    p.add_argument("--ifs1", required=True)
    p.add_argument("--ifs2", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--code1", required=True)
    p.add_argument("--code2", required=True)
    p.add_argument("--max-depth", type=int, default=12)

    p = add("replay", _cmd_replay, help="re-check a serialized certificate")
    p.add_argument("--cert", required=True, help="path or - for stdin")

    p = add("cover", _cmd_cover, help="brute-force image cover")
    p.add_argument("--ifs1", required=True)
    p.add_argument("--ifs2", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--x-window")
    p.add_argument("--y-window")
    p.add_argument("--csv")
    p.add_argument("--svg")

    p = add("oracle-check", _cmd_oracle_check, help="brute-force check of a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--depth", type=int, required=True)

    p = add("boxdim", _cmd_boxdim, help="box-counting dimension estimate")
    p.add_argument("--ifs")
    p.add_argument("--ranks", required=True, help="lo:hi or comma list")
    p.add_argument("--q-grid", help="comma list of bases for a U_q*U_q trend table")
    p.add_argument("--f")
    p.add_argument("--csv")

    p = add("qg", _cmd_qg, help="quasi-greedy expansion of 1")
    p.add_argument("--q", required=True)
    p.add_argument("--budget", type=int, default=qexp.DEFAULT_QG_BUDGET)

    p = add("univoque", _cmd_univoque, help="lexicographic univoque criterion")
    p.add_argument("--seq", required=True)
    p.add_argument("--q", required=True)

    p = add("kq", _cmd_kq, help="the embedded IFS K_q")
    p.add_argument("--q", required=True)

    p = add("uq-cover", _cmd_uq_cover, help="pruned prefix-tree cover of U_q")
    p.add_argument("--q", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--csv")
    p.add_argument("--svg")

    p = add("uq-certify", _cmd_uq_certify, help="certify arithmetic on U_q")
    p.add_argument("--q", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--max-depth", type=int, default=12)

    add("qstar", _cmd_qstar, help="the threshold base q*")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        obj, status = args.fn(args)
    except (FractarithError, OSError, ValueError) as exc:
        print(f"fractarith: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:  # a deeply nested or very long expression
        print("fractarith: error: input nests too deeply to process", file=sys.stderr)
        return EXIT_INPUT
    try:
        _emit(obj, args.pretty)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`); the flush at exit goes to the null device
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_INPUT
    return status


if __name__ == "__main__":
    sys.exit(main())
