"""Span tracer for the benchmark's traced run.

The tracer wraps library functions from the outside: every public function
of every ``axisspace`` module, the qe engine entry points, the arithmetic
operators of ``ModelElement`` and ``Term`` and the scalar methods of
``FieldCtx``.  A wrapper is bound under every name that refers to the
original function in any ``axisspace`` module namespace, so calls through
``from .x import f`` bindings are seen too.  ``uninstall`` puts every
original binding back.

Each call records one span (name, start, end, parent).  Spans are kept in
compact in-memory arrays while the run lasts and written once, at the end
(see ``Tracer.dump``).
Self time is computed as the calls happen: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

# Library layers, in the order the per-layer table lists them.
LAYERS = (
    "fields", "linalg", "model", "formula", "qe", "invariant",
    "iso", "typespace", "finitefield", "context", "cli",
)

# Private qe functions that are engine entry points.  A name missing from
# the module (removed by a later refactor) is skipped and its metrics read 0.
QE_ENTRY_POINTS = (
    "_dnf_literals",
    "_eliminate_disjunct",
    "_collinear_condition",
    "_two_direction_condition",
    "_fallback_condition",
)

# Methods wrapped on classes: (module, class, attributes).
CLASS_METHODS = (
    ("model", "ModelElement", ("__add__", "__sub__", "__neg__", "scale", "__rmul__")),
    ("formula", "Term", ("__add__", "__sub__", "scale", "drop_var", "substitute_var")),
    ("fields", "FieldCtx", ("of", "add", "sub", "mul", "neg", "inv", "div", "is_zero", "parse", "format")),
)


class Tracer:
    """Records spans for calls made while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names: list = []
        self._name_ids: dict = {}
        # one entry per finished span
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        # per name: [calls, total_ns, self_ns]
        self.totals: dict = {}
        self._stack: list = []  # open spans: [slot, child_ns]
        self._bindings: list = []  # (owner, attribute, original)
        # span name -> list of (args, result) of its calls, for the names
        # given to ``capture``; the caller reads and empties the lists
        self.captured: dict = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0, 0]
        return nid

    def capture(self, *names):
        for name in names:
            self.captured.setdefault(name, [])

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        totals = self.totals[name]
        captured = self.captured.get(name)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            # a span takes its array slot when it starts, so parent indices
            # point into the arrays; the end time is filled in on return
            index = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0)
            frame = [index, 0]  # slot, time covered by direct children
            stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_end[index] = end
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if captured is not None:
                captured.append((args, result))
            return result

        return traced

    def self_ns(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    # -- installing the wrappers ---------------------------------------------

    def _rebind(self, owner, attribute, value):
        self._bindings.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self, package):
        """Wrap the library reachable from the imported ``package``."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        namespaces = list(modules.values()) + [package]
        replacements = {}  # id(original function) -> (original, wrapper)
        for layer, module in modules.items():
            for attribute, value in list(vars(module).items()):
                if not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                public = not attribute.startswith("_")
                if not (public or (layer == "qe" and attribute in QE_ENTRY_POINTS)):
                    continue
                replacements[id(value)] = (value, self.wrap(value, f"{layer}.{attribute}"))
        for namespace in namespaces:
            for attribute, value in list(vars(namespace).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(namespace, attribute, hit[1])
        for layer, class_name, attributes in CLASS_METHODS:
            cls = getattr(modules[layer], class_name)
            for attribute in attributes:
                raw = cls.__dict__.get(attribute)
                if raw is None:
                    continue
                label = f"{layer}.{class_name}.{attribute}"
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(raw.__func__, label))
                else:
                    wrapped = self.wrap(raw, label)
                self._rebind(cls, attribute, wrapped)

    def uninstall(self):
        for owner, attribute, original in reversed(self._bindings):
            setattr(owner, attribute, original)
        self._bindings.clear()
        self.active = False

    # -- output -------------------------------------------------------------

    def dump(self, stem):
        """Write the spans once: ``<stem>.spans.gz`` holds the four arrays
        back to back (name id int32, parent index int64, start ns int64,
        end ns int64; native byte order), ``<stem>.json`` the span names,
        the array length and the per-name totals."""
        with gzip.open(stem + ".spans.gz", "wb", compresslevel=1) as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write(arr.tobytes())
        doc = {
            "spans": len(self.span_name),
            "names": self.names,
            "totals": {name: {"calls": c, "total_ns": t, "self_ns": s} for name, (c, t, s) in self.totals.items()},
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def _sum(tracer: Tracer, names, field: int) -> int:
    return sum(tracer.totals.get(n, (0, 0, 0))[field] for n in names)


def _matching(tracer: Tracer, prefix: str):
    return [n for n in tracer.names if n.startswith(prefix)]


def layer_metrics(tracer: Tracer, counters: dict, rounds: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, per round of the workload.

    ``counters`` holds the disjunct counts the benchmark measured on the
    traced ops' inputs and outputs (see ``workloads``)."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value / rounds, "unit": unit}

    def spans(metric, names):
        put(metric + ".calls", _sum(tracer, names, 0), "count")
        put(metric + ".self_ms", _sum(tracer, names, 2) / 1e6, "ms")

    for layer in LAYERS:
        spans(layer, _matching(tracer, layer + "."))
    spans("qe.simplify", ["qe.simplify"])
    spans("qe.dnf", ["qe._dnf_literals"])
    spans("qe.eliminate_exists", ["qe.eliminate_exists"])
    spans("qe.engine.collinear", ["qe._collinear_condition"])
    spans("qe.engine.two_direction", ["qe._two_direction_condition"])
    spans("qe.engine.fallback", ["qe._fallback_condition"])
    spans("formula.parse", ["formula.parse_formula", "formula.parse_term"])
    spans("formula.print", ["formula.print_formula"])
    spans("formula.eval_qf", ["formula.eval_qf"])
    spans("formula.term_arith", _matching(tracer, "formula.Term."))
    spans("model.element_arith", _matching(tracer, "model.ModelElement."))
    spans("model.witness_star", ["model.witness_star"])
    spans("linalg.rref", ["linalg.rref"])
    spans("linalg.kernel", ["linalg.kernel"])
    spans("linalg.intersect", ["linalg.intersect"])
    spans("invariant.qf_invariant", ["invariant.qf_invariant", "invariant.qf_invariant_mixed"])
    spans("invariant.inclusion_exclusion", ["invariant.g_via_inclusion_exclusion"])
    spans("iso.extend_to_hat", ["iso.extend_to_hat"])
    spans("typespace.classify", ["typespace.classify"])
    spans("typespace.conjugacy_witness", ["typespace.conjugacy_witness"])
    spans("finitefield.brute_qf_equiv", ["finitefield.brute_qf_equiv"])
    for name in ("qe.simplify.disjuncts_in", "qe.simplify.disjuncts_out", "qe.output_disjuncts"):
        put(name, counters.get(name, 0), "count")
    return out
