"""Fresh-interpreter probes and the ROADMAP item 1 reference cases.

Every probe runs ``python -m fractarith.cli`` (or ``-c``) from the checkout
with ``src`` on the path and the bytecode cache redirected into
``.bench_build/pycache``, so a warm cache never lands in the source tree.
Probes run one at a time and each is waited for.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import thread_time

MODULES = ("errors", "poly", "exactnum", "exprfn", "ifs_core", "certifier",
           "qexp", "empirics", "cli")
PROBE_TIMEOUT_S = 60


def probe_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("FRACTARITH_BUDGET", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
    return env


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_python(root: Path, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to completion; return the CPU seconds (user
    plus system) it used, and its result.  CPU time rather than wall time,
    because on a shared host wall time mostly measures the neighbours; the
    probe does no waiting, so on an idle machine the two agree."""
    t0 = children_cpu_s()
    done = subprocess.run([sys.executable] + argv, cwd=root, env=probe_env(root),
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    return children_cpu_s() - t0, done


def cli_time(root: Path, verb: list[str], expect_sha256: str | None, reps: int,
             warm: bool = True) -> tuple[list[float], list[str]]:
    """CPU times of `reps` fresh interpreters running one CLI verb, after
    one untimed run that warms the bytecode cache when `warm` is set, and
    the failed checks: exit status 0 and the stdout digest, on every run."""
    samples, failures = [], []
    for rep in range(reps + warm):
        elapsed, done = run_python(root, ["-m", "fractarith.cli"] + verb)
        if done.returncode != 0:
            failures.append(f"{verb[0]} exited {done.returncode}: {done.stderr.strip()[-200:]}")
        got = hashlib.sha256(done.stdout.encode()).hexdigest()
        if expect_sha256 is not None and got != expect_sha256:
            failures.append(f"{verb[0]} stdout digest {got} != {expect_sha256}")
        if rep or not warm:
            samples.append(elapsed)
    return samples, failures


def startup_split(root: Path, verb: list[str], reps: int) -> dict[str, float]:
    """Split a CLI call into the bare interpreter start (the floor under
    setup_s), the import of fractarith.cli, and the verb itself.  The three
    probes run as interleaved triples and each part is the median of its
    per-triple difference, so drift in machine speed cancels."""
    rows = [[run_python(root, argv)[0] for argv in (["-c", "pass"], ["-c", "import fractarith.cli"],
                                              ["-m", "fractarith.cli"] + verb)]
            for _ in range(reps)]
    return {"interp_start_s": statistics.median(r[0] for r in rows),
            "import_total_s": statistics.median(r[1] - r[0] for r in rows),
            "main_s": statistics.median(r[2] - r[1] for r in rows)}


def import_self_times(root: Path, reps: int) -> tuple[dict[str, float], list[str]]:
    """Median self time in seconds of each fractarith module, from the self
    column of `python -X importtime`, and the failed checks."""
    runs: dict[str, list[float]] = {}
    for _ in range(reps):
        _, done = run_python(root, ["-X", "importtime", "-c", "import fractarith.cli"])
        if done.returncode != 0:
            return {}, [f"importtime probe failed: {done.stderr.strip()[-200:]}"]
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            try:
                self_us = int(parts[0])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            if name.startswith("fractarith."):
                runs.setdefault(name.split(".", 1)[1], []).append(self_us / 1e6)
    return {k: statistics.median(v) for k, v in runs.items()}, []


# ---------------------------------------------------------------------------
# ROADMAP item 1 reference cases (image_cover at depth 10 is left out: 33 s)
# ---------------------------------------------------------------------------

def _median_time(fn, budget_s: float = 0.3, max_reps: int = 7) -> tuple[float, object]:
    """Median of repeated single calls, repeating while the total stays
    under `budget_s`; slow cases therefore run once."""
    samples, result = [], None
    while len(samples) < max_reps and sum(samples) < budget_s:
        t0 = thread_time()
        result = fn()
        samples.append(thread_time() - t0)
    return statistics.median(samples), result


def reference_cases(root: Path) -> tuple[dict[str, float], list[str]]:
    """Times of the single-call cases in ROADMAP item 1's table, in seconds,
    and the list of checks that failed."""
    from fractarith import (AlgebraicReal, Code, FieldElement, auto_certify,
                            cantor, certify_rectangle, certify_uq_arith,
                            image_cover, oracle_check, parse, uq_cover)

    c = cantor()
    failures: list[str] = []
    times: dict[str, float] = {}

    def case(name, fn, ok=lambda r: True):
        times[name], result = _median_time(fn)
        if not ok(result):
            failures.append(f"reference case {name} returned {result!r}")
        return result

    case("certify_rectangle.cantor_sum_root",
         lambda: certify_rectangle(c, c, parse("x+y"), (), ()))
    cert = case("certify_rectangle.cantor_product_122x21",
         lambda: certify_rectangle(c, c, parse("x*y"), (1, 2, 2), (2, 1)))
    case("auto_certify.cantor_quotient",
         lambda: auto_certify(c, c, parse("x/y"), (Code.parse("21(1)"), Code.parse("(2)")), 12))
    case("certify_uq_arith.product_q19_10",
         lambda: certify_uq_arith(Fraction(19, 10), parse("x*y")))
    case("certify_uq_arith.product_q_sqrt3.5",
         lambda: certify_uq_arith(
             FieldElement.generator(AlgebraicReal((Fraction(-7, 2), 0, 1), Fraction(9, 5), 2)),
             parse("x*y")))
    for depth in (6, 8):
        case(f"image_cover.cantor_sum_depth{depth}",
             lambda: image_cover(c, c, parse("x+y"), depth),
             lambda u: [tuple(map(str, iv)) for iv in u] == [("0", "2")])
    case("oracle_check.cantor_product_depth10", lambda: oracle_check(cert, 10), lambda ok: ok is True)
    case("uq_cover.q19_10_depth14", lambda: uq_cover(Fraction(19, 10), 14),
         lambda u: len(u) > 0)
    cli = {"cli.certify": ["certify", "--ifs1", "cantor", "--ifs2", "cantor", "--f", "x+y"],
           "cli.cover_depth8": ["cover", "--ifs1", "cantor", "--ifs2", "cantor",
                                "--f", "x+y", "--depth", "8"]}
    for name, verb in cli.items():
        samples, failed = cli_time(root, verb, None, 1 if "cover" in name else 5, warm=False)
        times[name] = statistics.median(samples)
        failures.extend(f"reference case {name}: {msg}" for msg in failed)
    return times, failures
