"""Timing spans around the public functions of each fractarith layer.

install() replaces each listed function by a wrapper in every module
namespace that binds it (including names bound by ``from ... import``) and
each listed method on its class; uninstall() puts the originals back.  Each
span records its name, start, end, parent span and problem id in flat arrays
that stay in memory until the run ends.  Recursive calls of the functions
marked ``fold`` run inside their outermost span.  Per-operation code (the
Interval and Fraction dunders, QuasiGreedyStream.digit, _prefix_violates) is
left unwrapped so the traced program stays close to the real one.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, qualified attribute, fold recursive calls, record len(result))
TARGETS = [
    ("poly", "count_roots", False, False),
    ("poly", "gcd", False, False),
    ("poly", "xgcd", False, False),
    ("poly", "rem", False, False),
    ("exactnum", "FieldElement.sign", False, False),
    ("exactnum", "FieldElement.is_zero", False, False),
    ("exactnum", "FieldElement.inverse", False, False),
    ("exactnum", "IntervalUnion.from_intervals", False, True),
    ("exactnum", "Interval.pow_rational", False, False),
    ("exprfn", "eval_interval", True, False),
    ("exprfn", "grad_enclosure", False, False),
    ("exprfn", "differentiate", True, False),
    ("exprfn", "eval_point", False, False),
    ("exprfn", "parse", False, False),
    ("ifs_core", "HomogeneousIfs.cylinders", False, True),
    ("ifs_core", "HomogeneousIfs.convex_hull", False, False),
    ("ifs_core", "HomogeneousIfs.gap_profile", False, False),
    ("ifs_core", "HomogeneousIfs.basic_interval", False, False),
    ("certifier", "certify_rectangle", False, False),
    ("certifier", "auto_certify", False, False),
    ("certifier", "replay_explain", False, False),
    ("certifier", "Certificate.from_json", False, False),
    ("certifier", "Certificate.to_json", False, False),
    ("qexp", "verify_kq_in_uq", False, False),
    ("qexp", "certify_uq_arith", False, False),
    ("empirics", "image_cover", False, False),
    ("empirics", "oracle_check", False, False),
    ("empirics", "uq_cover", False, True),
]

SPAN_NAMES = [f"{mod}.{attr}" for mod, attr, _, _ in TARGETS]
PROBLEM = "bench.problem"


class Tracer:
    def __init__(self):
        self.names: list[str] = [PROBLEM] + SPAN_NAMES
        self.name = array("H")
        self.parent = array("q")
        self.problem = array("q")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.size_in = array("q")
        self.size_out = array("q")
        self.stack: list[int] = []
        self.problem_id = -1
        self.off = False  # set while the benchmark checks outputs
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name_id: int, size_in: int = -1) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.problem.append(self.problem_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.ok.append(0)
        self.size_in.append(size_in)
        self.size_out.append(-1)
        self.stack.append(i)
        self.start[i] = perf_counter()
        return i

    def close(self, i: int, ok: bool, size_out: int = -1) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self.ok[i] = ok
        self.size_out[i] = size_out

    def _wrapper(self, name_id: int, fn, fold: bool, sized: bool, pieces_in: bool):
        tracer = self
        active = [0]

        def wrapper(*args, **kwargs):
            if tracer.off or (fold and active[0]):
                return fn(*args, **kwargs)
            n_in = -1
            if pieces_in:  # from_intervals takes any iterable; count it
                args = (list(args[0]),) + args[1:]
                n_in = len(args[0])
            i = tracer.open(name_id, n_in)
            active[0] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                active[0] -= 1
                tracer.close(i, False)
                raise
            active[0] -= 1
            tracer.close(i, True, len(result) if sized else -1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "fractarith" or name.startswith("fractarith.")]
        namespaces = modules + list(extra_namespaces)
        for mod, attr, fold, sized in TARGETS:
            name_id = self.names.index(f"{mod}.{attr}")
            owner = sys.modules[f"fractarith.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrapper(name_id, fn, fold, sized,
                                        attr == "IntervalUnion.from_intervals")
                setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
                self._patches.append((cls, meth, raw))
                continue
            raw = getattr(owner, attr)
            wrapped = self._wrapper(name_id, raw, fold, sized, False)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is raw:
                        setattr(ns, key, wrapped)
                        self._patches.append((ns, key, raw))

    def uninstall(self) -> None:
        for owner, key, raw in reversed(self._patches):
            setattr(owner, key, raw)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds (duration minus the time its
        child spans cover), failed calls, summed sizes in and out, and the
        number of child spans by child name."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "failures": 0, "size_in": 0,
                        "size_out": 0, "children": {}} for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            s["calls"] += 1
            s["self_s"] += self.end[i] - self.start[i] - child_time[i]
            s["failures"] += not self.ok[i]
            s["size_in"] += max(self.size_in[i], 0)
            s["size_out"] += max(self.size_out[i], 0)
            p = self.parent[i]
            if p >= 0:
                kids = stats[self.names[self.name[p]]]["children"]
                kids[self.names[self.name[i]]] = kids.get(self.names[self.name[i]], 0) + 1
        return stats
