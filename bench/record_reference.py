"""Record the outcome of every pool problem into reference/<workload>.json.

    python3 bench/record_reference.py [--workload NAME]

Run at the commit whose outputs the benchmark pins (the seed commit).  Runs
compare each problem's certificate or cover digest with these files.  For
enumerate it also fixes two derived parameters per block: which draw of the
oracle job's problem certifies, and the uq_cover depth at which the cover
first has the configured number of pieces.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from time import perf_counter

import run

run.bootstrap()

import probes  # noqa: E402
import workloads  # noqa: E402
from fractarith import empirics  # noqa: E402
from fractarith.errors import ExhaustedDepth  # noqa: E402


def enumerate_params(wl: workloads.Enumerate, index: int) -> dict:
    g = wl.gen
    draw = 0
    while True:
        try:
            workloads._issue(wl._oracle_job(index, draw), g["max_depth"])
            break
        except ExhaustedDepth:
            draw += 1
    q = Fraction(wl._uq_job(index, 0)["q"])
    lo, hi = g["uq_depth_range"]
    for depth in range(lo, hi + 1):
        if len(empirics.uq_cover(q, depth)) >= g["uq_min_pieces"]:
            break
    return {"draw": draw, "uq_depth": depth}


def record(name: str) -> dict:
    spec = json.loads((run.HERE / "workloads.json").read_text())[name]
    wl = workloads.WORKLOADS[name](spec, None)
    reference = {"pool_seed": spec["pool_seed"], "params": [], "blocks": []}
    wl.reference = reference
    _, done = probes.run_python(run.ROOT, ["-m", "fractarith.cli"] + spec["setup_probe"])
    if done.returncode != 0:
        sys.exit(f"setup probe failed: {done.stderr}")
    reference["setup_probe_sha256"] = hashlib.sha256(done.stdout.encode()).hexdigest()
    reference["inputs_sha256_12"] = {}
    counts = {"problems": 0, "certified": 0, "failed": 0}
    t0 = perf_counter()
    for index in range(wl.pool_size):
        if name == "enumerate":
            reference["params"].append(enumerate_params(wl, index))
        block = wl.block(index)
        outs = []
        for p in block:
            prepared = wl.prepare(p)
            out = wl.run(prepared)
            wl.settle(out)
            outs.append((prepared, out))
        reference["blocks"].append([out.token for _, out in outs])
        for prepared, out in outs:
            wl.check(prepared, out)
            if out.wrong or out.token is None:
                sys.exit(f"{name} block {index}: {out.failures}")
            counts["problems"] += 1
            counts["certified"] += out.certified
            counts["failed"] += bool(out.failures)
    if name != "enumerate":
        del reference["params"]
    for seed in (spec["baseline_seed"], spec["confirm_seed"]):
        reference["inputs_sha256_12"][str(seed)] = workloads.inputs_digest(wl, seed)
    print(f"{name}: {counts} in {perf_counter() - t0:.1f} s", file=sys.stderr)
    return reference


def write(name: str, reference: dict) -> None:
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items() if k != "blocks"]
    blocks = ",\n".join("  " + json.dumps(b) for b in reference["blocks"])
    text = "{\n" + ",\n".join(lines) + ',\n"blocks": [\n' + blocks + "\n]}\n"
    (run.HERE / "reference" / f"{name}.json").write_text(text)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    args = parser.parse_args()
    for name in [args.workload] if args.workload else list(workloads.WORKLOADS):
        write(name, record(name))


if __name__ == "__main__":
    main()
