"""fractarith benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see workloads.json for why
each was chosen, its generator parameters and its seeds):

* ``certify-rational``: auto_certify on generated rational IFS pairs, then
  to_json, from_json and replay of each issued certificate;
* ``uq-algebraic``: verify_kq_in_uq and certify_uq_arith over algebraic
  bases, then the same round trip and replay;
* ``enumerate``: image_cover, oracle_check and uq_cover jobs.

Each run is closed-loop with one client in this one single-threaded process:
the next problem starts when the previous one has finished.  An untraced run
measures whole passes over the workload's pool, so every seed measures the
same mix of problems in its own order;
each pool is sized so that one pass takes about the benchmark's run_seconds
at the seed commit, and a run stops at the pass boundary nearest to
``--seconds``.  It uses no
thread or process pools, and it unsets FRACTARITH_BUDGET so that no cover is
budget-capped.  Every output is checked (see workloads.py); a failed
operation or check counts toward ``failed``, and an output that contradicts
the seed commit's recorded outcome makes ``correct`` false.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Every time in them is CPU time: of this thread for the problems, of the
child for the set-up probe.  The program computes and never waits, so on an
idle machine CPU time and wall time agree; on a shared host wall time also
counts the time other tenants held the CPU (steal time, which CPU time
leaves out).  CPU time still follows the host's speed, which on a shared
2-vCPU host drifted by a fifth within seconds and differed by as much
between runs of the same code.  So every time is scaled to a host of
reference speed.  host_probe(), a fixed loop of stdlib Fraction arithmetic
that does not touch fractarith, runs between problems every
HOST_PROBE_EVERY_S, and each problem's times are multiplied by
HOST_PROBE_REF_MS over the median of the HOST_PROBE_WINDOW probes on each
side of it; each set-up sample is scaled the same way by probes taken right
after it.  Scaling each problem by the probes around it, rather than the
whole run by their mean, follows the drift within a run too, which moves
short timings such as replay_p50_ms most.  At the start of every pass the
benchmark's own objects (reference digests, pass list, records) are moved
out of the cyclic collector's reach with gc.freeze(), so that collections
cost what the program's own objects cost, however long the run.  The line
before the result gives the probes' median and the unscaled values.

* ``setup_s``: median CPU time of a fresh interpreter running the
  workload's CLI verb on a trivial input, bytecode cache warm, stdout checked;
* ``problems_per_s``: completed problems per second of time spent in them;
* ``latency_p50_ms`` and ``latency_tail_ms``: median time per problem, and
  the workload's fixed tail percentile (the highest of 75, 90, 99 and 99.9
  with at least ten samples beyond it in one pass over the pool), both as
  Harrell-Davis estimates;
* ``replay_p50_ms``: median (Harrell-Davis) time of from_json plus replay for one
  certificate (replay alone on uq-algebraic, whose certificates cannot be
  written to JSON at the seed commit);
* ``rects_per_s``: rectangles per second of time spent in the calls that
  evaluate them: brute-force rectangles of image_cover and oracle_check on
  enumerate, certify_rectangle attempts of auto_certify and certify_uq_arith
  on the other two (parsing, the JSON round trip and replay are not counted);
* ``certified_frac``: certified problems over attempted ones (confirmed jobs
  over attempted ones on enumerate); since every problem's outcome is
  checked against the seed commit's, it equals the seed commit's share on
  the same problems whenever ``correct`` is true;
* ``peak_rss_mb``: ru_maxrss of this process.

``--trace 1`` measures half the time untraced and half traced on the same
inputs, then prints the per-layer metrics: for every wrapped function
(tracing.py) its calls and self seconds per traced problem, the layer
counters below, the CLI import breakdown, the ROADMAP item 1 reference cases
and ``trace.overhead_frac``: the traced phase's time over the untraced
phase's on the problems both finished, minus one.  Per-problem normalisation keeps the counts
comparable when a change lets a run finish more problems.

The last line of stdout is the JSON result; the line before it records the
environment, the sample counts, every failure message, the host probe and
the unscaled metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15
MAX_LOOP_S = 130.0  # keeps a run inside its 180 s limit whatever the speed
HOST_PROBE_EVERY_S = 0.1
HOST_PROBE_WINDOW = 5
HOST_PROBE_REF_MS = 1.7  # median host_probe() on the 2-vCPU host the benchmark was defined on


def bootstrap() -> None:
    """Make src/fractarith importable without writing bytecode into the
    source tree.  Exits with status 1 outside a checkout."""
    if not (ROOT / "src" / "fractarith" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'fractarith'} not found; "
                 "run the benchmark from a checkout of the repository")
    sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def environment() -> dict:
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg()}


def host_probe() -> float:
    """CPU seconds of a fixed loop of stdlib Fraction arithmetic that does
    not touch fractarith: how fast the host runs at this moment."""
    t0 = thread_time()
    acc, x = Fraction(0), Fraction(2, 3)
    for i in range(1, 200):
        acc += Fraction(i, i * i + 1) * x
        if acc > 2:
            acc -= 1
    return thread_time() - t0


def measure(wl, seed: int, seconds: float, whole_passes: bool, tracer=None,
            cap_s: float = MAX_LOOP_S, gauge: list | None = None) -> list:
    """Closed loop over the seeded problem stream for `seconds` of wall time.
    With `whole_passes` it stops instead at the end of the pass over the pool
    that brings the wall time closest to `seconds` (at least one pass), so
    that every run measures the same mix of problems.  Set-up and checks run
    untimed (and untraced); each problem's own time is in its Outcome.
    With `gauge`, (time into the run, host_probe()) is appended to it
    between problems every HOST_PROBE_EVERY_S."""
    import workloads
    from fractarith.errors import FractarithError

    records = []
    t0 = perf_counter()
    last_probe = -HOST_PROBE_EVERY_S  # probe before the first problem too
    for npass, problems in enumerate(workloads.passes(wl, seed), 1):
        gc.collect()
        gc.freeze()  # the pass list and the records so far are the benchmark's
        for problem in problems:
            elapsed = perf_counter() - t0
            if elapsed >= cap_s or (not whole_passes and records and elapsed >= seconds):
                return records
            if gauge is not None and elapsed - last_probe >= HOST_PROBE_EVERY_S:
                gauge.append((elapsed, host_probe()))
                last_probe = elapsed
            if tracer:
                tracer.off = True
            try:
                prepared = wl.prepare(problem)
            except FractarithError as exc:
                out = workloads.Outcome()
                out.fail(f"set-up raised {type(exc).__name__}: {exc}")
                records.append(out)
                continue
            if tracer:
                tracer.off = False
                tracer.problem_id = len(records)
                span = tracer.open(0)
            out = wl.run(prepared)
            out.at_s = elapsed
            if tracer:
                tracer.close(span, not out.failures)
                tracer.off = True
            wl.check(prepared, out)
            out.result = None  # drop covers so memory stays flat
            records.append(out)
        elapsed = perf_counter() - t0
        if whole_passes and seconds - elapsed <= elapsed / npass / 2:
            return records


def quantile(values: list[float], percentile: float) -> float:
    """Harrell-Davis estimate of a percentile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass over each one's
    share of [0, 1].  It rests on all the samples near the percentile, not on
    the two next to it, so that on a pool of few, unlike problems the jitter
    of single problem times moves it less.  Order statistics further than
    twelve standard deviations of that Beta law from the percentile carry no
    measurable weight and are skipped."""
    xs = sorted(values)
    n = len(xs)
    p = percentile / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    reach = 12 * math.sqrt(p * (1 - p) / (n + 2))
    panels = 8  # Simpson panels per order statistic
    total = weighted = 0.0
    for i in range(max(0, math.floor((p - reach) * n)), min(n, math.ceil((p + reach) * n))):
        h = 1 / (n * panels)
        ts = [(i + j / panels) / n for j in range(panels + 1)]
        mass = h / 3 * sum(density(t) * (1 if j in (0, panels) else 4 if j % 2 else 2)
                           for j, t in enumerate(ts))
        total += mass
        weighted += mass * xs[i]
    return weighted / total


def host_factor() -> float:
    """HOST_PROBE_REF_MS over the median of 2 * HOST_PROBE_WINDOW probes taken now."""
    window = [host_probe() for _ in range(2 * HOST_PROBE_WINDOW)]
    return HOST_PROBE_REF_MS / 1e3 / statistics.median(window)


def host_factors(records: list, gauge: list) -> list[float]:
    """Per problem: HOST_PROBE_REF_MS over the median of the probes nearest
    to it in time, HOST_PROBE_WINDOW on each side."""
    at = [t for t, _ in gauge]
    factors = []
    for r in records:
        i = bisect.bisect(at, r.at_s)
        window = [s for _, s in gauge[max(0, i - HOST_PROBE_WINDOW):i + HOST_PROBE_WINDOW]]
        factors.append(HOST_PROBE_REF_MS / 1e3 / statistics.median(window))
    return factors


def end_to_end(records: list, spec: dict, setup: list[tuple[float, float]],
               factors: list[float]) -> dict:
    """The end-to-end metrics, each set-up sample and each problem's times
    multiplied by its factor; pass factors of 1 for the unscaled values."""
    lat = [r.latency_s * f for r, f in zip(records, factors)]
    replays = [t * f for r, f in zip(records, factors) for t in r.replay_s]
    rect_time = sum(r.rect_s * f for r, f in zip(records, factors))
    return {
        "setup_s": (statistics.median(t * f for t, f in setup), "s"),
        "problems_per_s": (len(records) / sum(lat), "1/s"),
        "latency_p50_ms": (quantile(lat, 50) * 1e3, "ms"),
        "latency_tail_ms": (quantile(lat, spec["tail_percentile"]) * 1e3, "ms"),
        "replay_p50_ms": (quantile(replays, 50) * 1e3 if replays else 0.0, "ms"),
        "rects_per_s": (sum(r.rects for r in records) / rect_time if rect_time else 0.0, "1/s"),
        "certified_frac": (sum(r.certified for r in records) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(stats: dict, traced: list, untraced: list, probe: dict,
              cases: dict, fail_frac: float) -> dict:
    import tracing

    n = len(traced)
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = (stats[name]["calls"] / n, "1/problem")
        out[f"{name}.self_s"] = (stats[name]["self_s"] / n, "s/problem")
    rect = stats["certifier.certify_rectangle"]
    auto = stats["certifier.auto_certify"]
    union = stats["exactnum.IntervalUnion.from_intervals"]
    out.update({
        "exactnum.AlgebraicReal.bisections": (sum(r.bisections for r in traced) / n, "1/problem"),
        "exactnum.IntervalUnion.from_intervals.pieces_in": (union["size_in"] / n, "1/problem"),
        "exactnum.IntervalUnion.from_intervals.pieces_out": (union["size_out"] / n, "1/problem"),
        "ifs_core.HomogeneousIfs.cylinders.intervals_out":
            (stats["ifs_core.HomogeneousIfs.cylinders"]["size_out"] / n, "1/problem"),
        "certifier.certify_rectangle.success_ratio":
            ((rect["calls"] - rect["failures"]) / rect["calls"] if rect["calls"] else 0.0, "ratio"),
        "certifier.auto_certify.attempts_per_call":
            (auto["children"].get("certifier.certify_rectangle", 0) / auto["calls"]
             if auto["calls"] else 0.0, "count"),
        "certifier.Certificate.to_json.failures":
            (stats["certifier.Certificate.to_json"]["failures"] / n, "1/problem"),
        "empirics.image_cover.rects":
            (stats["empirics.image_cover"]["children"].get("exprfn.eval_interval", 0) / n,
             "1/problem"),
        "empirics.uq_cover.pieces_out": (stats["empirics.uq_cover"]["size_out"] / n, "1/problem"),
    })
    for module, seconds in probe.items():
        out[f"cli.{module}"] = (seconds, "s")
    for name, seconds in cases.items():
        out[f"case.{name}_s"] = (seconds, "s")
    # both phases start at the same problem: compare them on their common prefix
    common = min(len(untraced), len(traced))
    seconds = [sum(r.latency_s for r in rs[:common]) for rs in (untraced, traced)]
    out["trace.overhead_frac"] = (seconds[1] / seconds[0] - 1, "ratio")
    out["fail_frac"] = (fail_frac, "ratio")
    return out


def cli_breakdown(verb: list[str]) -> tuple[dict, list[str]]:
    import probes

    imports, failures = probes.import_self_times(ROOT, reps=3)
    out = {f"import.{m}_s": imports.get(m, 0.0) for m in probes.MODULES}
    out.update(probes.startup_split(ROOT, verb, reps=7))
    return out, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["certify-rational", "uq-algebraic", "enumerate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    budget_was_set = os.environ.pop("FRACTARITH_BUDGET", None) is not None
    bootstrap()
    import probes
    env_before = environment()
    check_failures: list[str] = []  # failed checks outside the problems

    # the probe's untimed first run also compiles the bytecode this process loads
    spec = json.loads((HERE / "workloads.json").read_text())[args.workload]
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    setup = []  # (CPU seconds, host factor right after)
    for rep in range(SETUP_REPS):
        samples, failed = probes.cli_time(ROOT, spec["setup_probe"],
                                          reference["setup_probe_sha256"], 1, warm=rep == 0)
        check_failures.extend(failed)
        setup.append((samples[0], host_factor()))

    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload](spec, reference)
    digests = {workloads.inputs_digest(wl, args.seed) for _ in range(2)}
    recorded = reference["inputs_sha256_12"].get(str(args.seed))
    if len(digests) != 1 or (recorded and digests != {recorded}):
        check_failures.append(f"seed {args.seed} gave inputs {sorted(digests)}, "
                              f"recorded {recorded}")

    if args.trace:
        half = args.seconds / 2
        untraced = measure(wl, args.seed, half, False, cap_s=MAX_LOOP_S / 2)
        tracer = tracing.Tracer()
        tracer.install(extra_namespaces=[workloads])
        try:
            traced = measure(wl, args.seed, half, False, tracer, cap_s=MAX_LOOP_S / 2)
        finally:
            tracer.uninstall()
        records = untraced + traced
        probe, failed = cli_breakdown(spec["setup_probe"])
        check_failures.extend(failed)
        cases, failed = probes.reference_cases(ROOT)
        check_failures.extend(failed)
    else:
        gauge = []
        t0 = perf_counter()
        records = measure(wl, args.seed, args.seconds, True, gauge=gauge)
        measured_s = perf_counter() - t0

    failed_records = [r for r in records if r.failures]
    fail_frac = len(failed_records) / len(records)
    correct = not check_failures and not any(r.wrong for r in records)
    if args.trace:
        metrics = per_layer(tracer.summary(), traced, untraced, probe, cases, fail_frac)
    else:
        metrics = end_to_end(records, spec, setup, host_factors(records, gauge))
        unscaled = end_to_end(records, spec, [(t, 1.0) for t, _ in setup], [1.0] * len(records))
        probe_ms = statistics.median(s for _, s in gauge) * 1e3

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256_12": digests.pop(),
        "environment": {"before": env_before, "after": environment(),
                        "FRACTARITH_BUDGET_unset": True,
                        "FRACTARITH_BUDGET_was_set": budget_was_set,
                        "pools": "none: one process, one thread"},
        "tail_percentile": spec["tail_percentile"], "samples": len(records),
        "samples_beyond_tail": round(len(records) * (1 - spec["tail_percentile"] / 100), 1),
        "setup_samples_s": [t for t, _ in setup],
        "measured_s": None if args.trace else measured_s,
        "host_probe_ms": None if args.trace else probe_ms,
        "host_probe_samples": None if args.trace else len(gauge),
        "unscaled": None if args.trace else {k: v for k, (v, _) in unscaled.items()},
        "fail_frac": fail_frac,
        "failures": sorted(set(check_failures + [m for r in failed_records
                                                 for m in r.failures]))[:20],
    }
    if args.trace:
        report["spans"] = len(tracer.start)
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed_records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
