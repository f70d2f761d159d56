"""Spans and counts around the package's public functions, from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every module
of the package that holds a reference to it, so calls made through
``from .x import f`` bindings and recursive calls are seen as well.  Each call
becomes one span ``(name id, start, end, parent span, item id)`` kept in
memory; ``write`` stores them when the pass ends.  Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import sys
import time

# (layer metric prefix, module, attribute, what to count from the result)
TRACED = [
    ("algebra.act", "algebra", "act", None),
    ("kostant.q_kostant", "kostant", "q_kostant", None),
    ("kostant.kostka_def", "kostant", "kostka_def", None),
    ("tableaux.enumerate_tableaux", "tableaux", "enumerate_tableaux", ("found", len)),
    ("tableaux.admissible_split", "tableaux", "admissible_split", None),
    ("tableaux.reverse_insert", "tableaux", "reverse_insert", None),
    ("tableaux.insertion_tableau", "tableaux", "insertion_tableau", None),
    ("cyclage.charge", "cyclage", "charge", None),
    ("cyclage.charge_chain", "cyclage", "charge_chain", ("steps", lambda c: len(c.steps))),
    ("cyclage.component", "cyclage", "component", ("vertices", lambda g: len(g.vertices))),
    ("cyclage.predecessors", "cyclage", "predecessors", None),
    ("cyclage.cocycle", "cyclage", "cocycle", None),
    ("recurrences.kostka_morris", "recurrences", "kostka_morris", None),
    ("recurrences.pieri", "recurrences", "pieri", None),
    ("recurrences.verify_conjecture", "recurrences", "verify_conjecture", None),
]
# QPolynomial add, mul (both sides) and shift share the span name qpoly.arith.
ARITH = ("qpoly.arith", ("__add__", "__mul__", "__rmul__", "shift"))

# (metric name, unit, better) for every per-layer metric a traced run prints.
LAYER_METRICS = [
    ("algebra.act.calls", "count", "lower"),
    ("kostant.q_kostant.calls", "count", "lower"),
    ("kostant.q_kostant.s", "s", "lower"),
    ("kostant.kostka_def.calls", "count", "lower"),
    ("kostant.kostka_def.self_s", "s", "lower"),
    ("tableaux.enumerate_tableaux.calls", "count", "lower"),
    ("tableaux.enumerate_tableaux.s", "s", "lower"),
    ("tableaux.enumerate_tableaux.found", "count", "higher"),
    ("tableaux.admissible_split.calls", "count", "lower"),
    ("tableaux.admissible_split.s", "s", "lower"),
    ("cyclage.charge.calls", "count", "lower"),
    ("cyclage.charge.s", "s", "lower"),
    ("cyclage.charge_chain.steps", "count", "lower"),
    ("cyclage.component.calls", "count", "lower"),
    ("cyclage.component.s", "s", "lower"),
    ("cyclage.component.vertices", "count", "higher"),
    ("cyclage.predecessors.calls", "count", "lower"),
    ("cyclage.predecessors.self_s", "s", "lower"),
    ("cyclage.cocycle.calls", "count", "lower"),
    ("cyclage.cocycle.s", "s", "lower"),
    ("tableaux.reverse_insert.calls", "count", "lower"),
    ("tableaux.reverse_insert.s", "s", "lower"),
    ("tableaux.insertion_tableau.calls", "count", "lower"),
    ("tableaux.insertion_tableau.s", "s", "lower"),
    ("recurrences.kostka_morris.calls", "count", "lower"),
    ("recurrences.kostka_morris.self_s", "s", "lower"),
    ("recurrences.pieri.calls", "count", "lower"),
    ("recurrences.pieri.s", "s", "lower"),
    ("recurrences.verify_conjecture.calls", "count", "lower"),
    ("recurrences.verify_conjecture.s", "s", "lower"),
    ("qpoly.arith.calls", "count", "lower"),
    ("qpoly.arith.s", "s", "lower"),
    ("host.ref_loop_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.item = -1
        self.counts: dict[str, int] = {}

    def _wrap(self, name: str, fn, extra=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, now = self.spans, self.stack, time.perf_counter
        counts = self.counts
        if extra is not None:
            key, measure = f"{name}.{extra[0]}", extra[1]
            counts[key] = 0

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans[sid] = (name_id, t0, t1, parent, self.item)
            if extra is not None:
                counts[key] += measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "symplectic_kf") -> None:
        mods = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for name, mod, attr, extra in TRACED:
            orig = getattr(sys.modules[f"{package}.{mod}"], attr)
            wrapper = self._wrap(name, orig, extra)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)
        qp = sys.modules[f"{package}.qpoly"].QPolynomial
        name, methods = ARITH
        for meth in methods:
            setattr(qp, meth, self._wrap(name, vars(qp)[meth]))

    def layers(self) -> dict[str, float]:
        """calls, s (inclusive) and self_s per span name, plus the result counts."""
        names = self.names
        uniq = sorted(set(names))
        calls = dict.fromkeys(uniq, 0)
        incl = dict.fromkeys(uniq, 0.0)
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        selft = dict.fromkeys(uniq, 0.0)
        for sid, (name_id, t0, t1, _, _) in enumerate(self.spans):
            name = names[name_id]
            calls[name] += 1
            incl[name] += t1 - t0
            selft[name] += t1 - t0 - child[sid]
        out: dict[str, float] = {}
        for name in uniq:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = selft[name]
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: name, start and end (ns after
        the first span started), parent span, item id."""
        names = self.names
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for name_id, t0, t1, parent, item in self.spans:
                fh.write(
                    f"{names[name_id]}\t{round((t0 - base) * 1e9)}\t{round((t1 - base) * 1e9)}"
                    f"\t{parent}\t{item}\n"
                )
