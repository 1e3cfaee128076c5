"""Seeded inputs, timed execution and output checks for the three workloads.

Every workload draws its problems from a fixed pool.  Pool item ``i`` (a
block of one or more problems) is generated from
``Random("<workload>/<pool_seed>/<i>")`` with the generator parameters in
``workloads.json``; ``reference/<workload>.json`` holds, for every problem of
the pool, the outcome the seed commit produced: a digest of the certificate
or cover bytes, or "" for an exhausted search.  The run's ``--seed`` fixes the
order in which the pool is visited and the order of the problems inside each
block, so every seed is checked against recorded outcomes.  A run that uses
up the pool starts a second pass in a fresh order.

The library receives only the generated inputs: IFS objects as JSON-style
dicts, expressions as text, codes as text, bases as polynomial and isolating
interval, exactly as a CLI user would give them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import thread_time

from fractarith import certifier, empirics, exactnum, exprfn, ifs_core, qexp
from fractarith.errors import ExhaustedDepth, FractarithError

DIGEST_CHARS = 12


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Outcome:
    """What one problem did, as seen from outside the library."""

    latency_s: float = 0.0
    rect_s: float = 0.0            # time in the calls that evaluate the rectangles
    replay_s: list[float] = field(default_factory=list)  # from_json + replay times
    rects: int = 0
    certified: bool = False
    token: str | None = None       # outcome compared with the reference
    failures: list[str] = field(default_factory=list)  # failed operations or checks
    wrong: bool = False            # an output contradicts the reference or a check
    bisections: float = 0.0
    result: object = None          # certificate or cover, kept until it is checked
    at_s: float = 0.0              # wall time into the run when the problem started

    def fail(self, what: str, wrong: bool = True) -> None:
        self.failures.append(what)
        self.wrong = self.wrong or wrong


class Workload:
    """Pool generation and problem execution shared by the three workloads."""

    name = ""

    def __init__(self, spec: dict, reference: dict | None):
        self.spec = spec
        self.gen = spec["generator"]
        self.pool_seed = spec["pool_seed"]
        self.reference = reference
        self.pool_size = self.count_pool()

    def count_pool(self) -> int:
        return self.spec["pool_size"]

    def rng(self, *parts) -> random.Random:
        return random.Random("/".join(str(p) for p in (self.name, self.pool_seed) + parts))

    def block(self, index: int) -> list[dict]:
        """Problems of pool item `index`, each tagged with its pool slot."""
        problems = self.make_block(index)
        for slot, p in enumerate(problems):
            p["pool"] = [index, slot]
        return problems

    def make_block(self, index: int) -> list[dict]:
        raise NotImplementedError

    def expected(self, problem: dict) -> str:
        index, slot = problem["pool"]
        return self.reference["blocks"][index][slot]

    def params(self, index: int) -> dict:
        """Derived parameters recorded with the reference (enumerate only)."""
        return self.reference["params"][index]

    def prepare(self, problem: dict):
        """Untimed set-up of one problem; returns what run() takes."""
        return problem

    def run(self, prepared) -> Outcome:
        raise NotImplementedError

    def settle(self, out: Outcome) -> None:
        """Fill in out.token where it is derived after the timed region."""

    def check(self, prepared, out: Outcome) -> None:
        """Compare the outcome with the seed commit's recorded one.  The seed
        commit raised on no problem, so a problem that raised (token None)
        contradicts it too."""
        self.settle(out)
        want = self.expected(prepared if isinstance(prepared, dict) else prepared[0])
        if out.token != want:
            out.fail(f"reference mismatch: got {out.token!r}, seed commit had {want!r}")


def passes(workload: Workload, seed: int):
    """Endless stream of passes for a run seed: each pass is the whole pool
    in a seeded order, with each block's problems in a seeded order."""
    npass = 0
    while True:
        order = list(range(workload.pool_size))
        random.Random(f"{workload.name}/order/{seed}/{npass}").shuffle(order)
        problems = []
        for index in order:
            block = workload.block(index)
            random.Random(f"{workload.name}/block/{seed}/{npass}/{index}").shuffle(block)
            problems.extend(block)
        yield problems
        npass += 1


def inputs_digest(workload: Workload, seed: int) -> str:
    """Digest of the first pass of the run's inputs."""
    return digest("\n".join(canonical(p) for p in next(passes(workload, seed))))


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

def _rat(x: Fraction) -> str:
    return str(Fraction(x))


def _ifs(rng: random.Random, m: int, gen: dict) -> tuple[dict, int]:
    """IFS of ratio 1/m whose maps use distinct m-adic digits, with the hull
    shifted by a drawn offset: hull = [d0/(m-1), dn/(m-1)] + offset."""
    lo_n, hi_n = gen["maps"]
    n = rng.randint(lo_n, m if hi_n == "m" else hi_n)
    digits = sorted(rng.sample(range(m), n))
    offset = Fraction(rng.choice(gen["hull_offsets"]))
    lam = Fraction(1, m)
    return {"ratio": _rat(lam),
            "translations": [_rat(Fraction(d, m) + offset * (1 - lam)) for d in digits]}, n


def _code(rng: random.Random, n: int, gen: dict) -> str:
    pre = "".join(str(rng.randint(1, n)) for _ in range(rng.randint(*gen["code_preperiod_len"])))
    per = "".join(str(rng.randint(1, n)) for _ in range(rng.randint(*gen["code_period_len"])))
    return f"{pre}({per})"


def _pair_problem(rng: random.Random, gen: dict) -> tuple[dict, int, int]:
    m = rng.randint(*gen["ratio_m"])
    ifs1, n1 = _ifs(rng, m, gen)
    ifs2, n2 = _ifs(rng, m, gen)
    return {"ifs1": ifs1, "ifs2": ifs2, "f": rng.choice(gen["f_pool"]),
            "code1": _code(rng, n1, gen), "code2": _code(rng, n2, gen)}, n1, n2


def _load_pair(p: dict):
    k1 = ifs_core.HomogeneousIfs.from_obj(p["ifs1"])
    k2 = ifs_core.HomogeneousIfs.from_obj(p["ifs2"])
    return k1, k2, exprfn.parse(p["f"])


def _load_anchor(p: dict):
    return ifs_core.Code.parse(p["code1"]), ifs_core.Code.parse(p["code2"])


def _issue(p: dict, max_depth: int) -> certifier.Certificate:
    return certifier.auto_certify(*_load_pair(p), _load_anchor(p), max_depth)


def _cert_identity(cert: certifier.Certificate) -> str:
    """Digest of a certificate's fields through public accessors; defined
    even where to_json raises."""
    return digest(canonical({
        "word1": list(cert.word1), "word2": list(cert.word2),
        "sign_case": str(cert.sign_case), "orientation": cert.orientation,
        "grad": [cert.grad.dx.to_obj(), cert.grad.dy.to_obj()],
        "m_row": exactnum.scalar_to_obj(cert.m_row),
        "m_gap": exactnum.scalar_to_obj(cert.m_gap),
        "certified_interval": cert.certified_interval.to_obj(),
    }))


# ---------------------------------------------------------------------------
# certify-rational
# ---------------------------------------------------------------------------

class CertifyRational(Workload):
    """auto_certify at the CLI default depth, then to_json, from_json and
    replay of every issued certificate."""

    name = "certify-rational"

    def make_block(self, index):
        return [_pair_problem(self.rng(index), self.gen)[0]]

    def run(self, p):
        out = Outcome()
        t0 = thread_time()
        stage = "auto_certify"
        try:
            k1, k2, f = _load_pair(p)
            anchor = _load_anchor(p)
            r0 = thread_time()
            try:
                cert = certifier.auto_certify(k1, k2, f, anchor, self.gen["max_depth"])
            except ExhaustedDepth as exc:
                out.rect_s = thread_time() - r0
                out.latency_s = thread_time() - t0
                out.rects = len(exc.reasons)
                out.token = ""
                return out
            out.rect_s = thread_time() - r0
            stage = "to_json"
            text = cert.to_json()
            stage = "replay"
            r0 = thread_time()
            ok = certifier.replay(certifier.Certificate.from_json(text))
            out.replay_s.append(thread_time() - r0)
        except FractarithError as exc:
            out.latency_s = thread_time() - t0
            out.fail(f"{stage} raised {type(exc).__name__}: {exc}")
            return out
        out.latency_s = thread_time() - t0
        out.certified = True
        out.rects = len(cert.word1) + 1
        out.token = digest(text)
        if not ok:
            out.fail("replay returned False")
        return out


# ---------------------------------------------------------------------------
# uq-algebraic
# ---------------------------------------------------------------------------

def _nonsquare(c: Fraction) -> bool:
    def square(k: int) -> bool:
        return math.isqrt(k) ** 2 == k
    return not (square(c.numerator) and square(c.denominator))


class UqAlgebraic(Workload):
    """verify_kq_in_uq, certify_uq_arith, then the JSON round trip and replay
    over algebraic bases: sqrt(c) for non-square c, and the tribonacci root.
    A block is one base with every f of the pool."""

    name = "uq-algebraic"

    def count_pool(self):
        """One block per base: the sqrt bases, then the tribonacci ones."""
        return self.gen["sqrt_bases"] + self.gen["tribonacci_bases"]

    def make_block(self, index):
        g = self.gen
        rng = self.rng(index)
        if index < g["sqrt_bases"]:
            lo_c, hi_c = (Fraction(x) for x in g["sqrt_c_range"])
            while True:
                den = rng.randint(*g["sqrt_c_denominators"])
                c = Fraction(rng.randint(math.floor(lo_c * den), math.ceil(hi_c * den)), den)
                if lo_c < c < hi_c and _nonsquare(c):
                    break
            base = {"poly": [_rat(-c), "0", "1"],
                    "lo": rng.choice(g["sqrt_isolating_lo"]),
                    "hi": rng.choice(g["sqrt_isolating_hi"])}
        else:
            base = {"poly": [str(a) for a in g["tribonacci_poly"]],
                    "lo": rng.choice(g["tribonacci_isolating_lo"]),
                    "hi": rng.choice(g["tribonacci_isolating_hi"])}
        return [{"q": base, "f": f} for f in g["f_pool"]]

    def run(self, p):
        out = Outcome()
        b = p["q"]
        t0 = thread_time()
        stage = "AlgebraicReal"
        try:
            q = exactnum.AlgebraicReal([Fraction(c) for c in b["poly"]],
                                       Fraction(b["lo"]), Fraction(b["hi"]))
            width0 = q.hi - q.lo
            f = exprfn.parse(p["f"])
            stage = "verify_kq_in_uq"
            verdict = qexp.verify_kq_in_uq(q)
            stage = "certify_uq_arith"
            r0 = thread_time()
            try:
                cert = qexp.certify_uq_arith(q, f, max_depth=self.gen["max_depth"])
            except ExhaustedDepth as exc:
                out.rect_s = thread_time() - r0
                out.latency_s = thread_time() - t0
                out.rects = len(exc.reasons)
                out.token = ""
            else:
                out.rect_s = thread_time() - r0
                stage = "to_json"
                try:
                    text = cert.to_json()
                except FractarithError as exc:
                    text = None
                    json_error = f"to_json raised {type(exc).__name__}: {exc}"
                stage = "replay"
                r0 = thread_time()
                ok = certifier.replay(certifier.Certificate.from_json(text)
                                      if text is not None else cert)
                out.replay_s.append(thread_time() - r0)
                out.latency_s = thread_time() - t0
                out.certified = True
                out.rects = self._attempts(cert)
                out.result = (cert, text)
                if text is None:
                    out.fail(json_error, wrong=False)
                if not ok:
                    out.fail("replay returned False")
        except FractarithError as exc:
            out.latency_s = thread_time() - t0
            out.fail(f"{stage} raised {type(exc).__name__}: {exc}")
            return out
        if q.hi > q.lo:
            out.bisections = math.log2(width0 / (q.hi - q.lo))
        if verdict != "yes":
            out.fail(f"verify_kq_in_uq returned {verdict!r} above q*")
        return out

    def _attempts(self, cert) -> int:
        """Rectangles tried: certify_uq_arith descends the corner anchors in
        the order left-right, right-left, left-left, right-right, each
        through ranks 0..max_depth, and stops at the first certificate."""
        per_anchor = self.gen["max_depth"] + 1
        if not cert.word1:
            return 1
        anchor = [(1, 2), (2, 1), (1, 1), (2, 2)].index((cert.word1[0], cert.word2[0]))
        return anchor * per_anchor + len(cert.word1) + 1

    def settle(self, out):
        if out.result is not None:
            cert, text = out.result
            out.token = _cert_identity(cert) + "/" + (digest(text) if text else "")

    def check(self, p, out):
        """As Workload.check, but a certificate is matched on its fields and,
        where the seed commit could write it, on its JSON bytes."""
        self.settle(out)
        want = self.expected(p)
        if not want or not out.token:
            if want != out.token:
                out.fail(f"outcome differs from the seed commit: got {out.token!r}, had {want!r}")
            return
        got_id, got_json = out.token.split("/")
        want_id, want_json = want.split("/")
        if got_id != want_id:
            out.fail(f"certificate differs from the seed commit: {got_id} != {want_id}")
        elif want_json and got_json != want_json:
            out.fail(f"certificate bytes differ from the seed commit: {got_json!r} != {want_json}")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

class Enumerate(Workload):
    """Brute-force jobs on rational data, one of each kind per block:
    image_cover with a rectangle count in a fixed band, oracle_check of a
    certificate issued during set-up, and uq_cover at a rational base."""

    name = "enumerate"
    EXTRA_REPLAYS = 4

    def make_block(self, index):
        params = self.params(index)
        return [self._cover_job(index), self._oracle_job(index, params["draw"]),
                self._uq_job(index, params["uq_depth"])]

    def _cover_job(self, index):
        g = self.gen
        lo, hi = g["cover_rects"]
        rng = self.rng(index, "image_cover")
        while True:
            m = rng.randint(*g["ratio_m"])
            ifs1, n1 = _ifs(rng, m, g)
            ifs2, n2 = _ifs(rng, m, g)
            depth = 0
            while (n1 * n2) ** (depth + 1) <= hi:
                depth += 1
            if (n1 * n2) ** depth >= lo:
                break
        corners = [[[rng.randint(1, n1) for _ in range(depth)],
                    [rng.randint(1, n2) for _ in range(depth)],
                    rng.randint(0, 1)] for _ in range(g["corner_samples"])]
        return {"kind": "image_cover", "ifs1": ifs1, "ifs2": ifs2,
                "f": rng.choice(g["f_pool"]), "depth": depth,
                "rects": (n1 * n2) ** depth, "corners": corners}

    def _oracle_job(self, index, draw):
        g = self.gen
        lo, hi = g["oracle_maps_product"]
        rng = self.rng(index, "oracle_check", draw)
        while True:
            problem, n1, n2 = _pair_problem(rng, g)
            if lo <= n1 * n2 <= hi:
                break
        extra = g["oracle_extra_depth"]
        problem.update(kind="oracle_check", extra_depth=extra, rects=(n1 * n2) ** extra)
        return problem

    def _uq_job(self, index, depth):
        g = self.gen
        rng = self.rng(index, "uq_cover")
        q = Fraction(rng.randint(*g["uq_base_hundredths"]), 100)
        words = [[rng.randint(1, 2) for _ in range(g["kq_corner_rank"])]
                 for _ in range(g["corner_samples"])]
        return {"kind": "uq_cover", "q": _rat(q), "depth": depth, "kq_words": words}

    def prepare(self, p):
        if p["kind"] != "oracle_check":
            return p, None
        cert = _issue(p, self.gen["max_depth"])
        return p, cert.to_json()

    def run(self, prepared):
        p, cert_text = prepared
        out = Outcome()
        kind = p["kind"]
        t0 = thread_time()
        try:
            if kind == "image_cover":
                k1, k2, f = _load_pair(p)
                r0 = thread_time()
                cover = empirics.image_cover(k1, k2, f, p["depth"])
                out.rect_s = thread_time() - r0
            elif kind == "oracle_check":
                cert = certifier.Certificate.from_json(cert_text)
                replayed = certifier.replay(cert)
                r0 = thread_time()
                out.replay_s.append(r0 - t0)
                ok = empirics.oracle_check(cert, len(cert.word1) + p["extra_depth"])
                out.rect_s = thread_time() - r0
            else:
                cover = empirics.uq_cover(Fraction(p["q"]), p["depth"])
        except FractarithError as exc:
            out.latency_s = thread_time() - t0
            out.fail(f"{kind} raised {type(exc).__name__}: {exc}")
            return out
        out.latency_s = thread_time() - t0
        out.rects = p.get("rects", 0)
        if kind == "oracle_check":
            out.token = digest(cert_text)
            if not replayed:
                out.fail("replay returned False")
            if not ok:
                out.fail("oracle_check returned False")
        else:
            out.result = cover
        return out

    def settle(self, out):
        if out.result is not None:
            out.token = digest(canonical(out.result.to_obj()))

    def check(self, prepared, out):
        """Reference digests, then: the cover must contain f at sampled
        rank-depth corners (attractor points), and a U_q cover must contain
        sampled corners of K_q, which lies inside U_q above q*.  An oracle
        job also replays its certificate a few more times, outside the job's
        latency, so that replay_p50_ms rests on more samples."""
        super().check(prepared, out)
        p, cert_text = prepared
        cover = out.result
        if p["kind"] == "oracle_check" and not out.failures:
            for _ in range(self.EXTRA_REPLAYS):
                r0 = thread_time()
                ok = certifier.replay(certifier.Certificate.from_json(cert_text))
                out.replay_s.append(thread_time() - r0)
                if not ok:
                    out.fail("replay returned False")
        elif p["kind"] == "image_cover" and cover is not None:
            k1, k2, f = _load_pair(p)
            for w1, w2, side in p["corners"]:
                i1, i2 = k1.basic_interval(w1), k2.basic_interval(w2)
                x, y = (i1.lo, i2.lo) if side == 0 else (i1.hi, i2.hi)
                if not cover.contains_interval(exprfn.eval_point(f, x, y)):
                    out.fail(f"cover misses f at the corner of {w1} x {w2}")
        elif cover is not None:
            kq = qexp.kq_ifs(Fraction(p["q"]))
            for w in p["kq_words"]:
                iv = kq.basic_interval(w)
                if not (cover.contains_point(iv.lo) and cover.contains_point(iv.hi)):
                    out.fail(f"U_q cover misses the K_q corners of {w}")
        out.certified = not out.failures


WORKLOADS = {w.name: w for w in (CertifyRational, UqAlgebraic, Enumerate)}
