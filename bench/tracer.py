"""Span tracing of cyclica's layers, installed from outside the package.

``Tracer.install()`` replaces each public function of every layer module
with a wrapper that records a span (name, parent span, operation index,
start, end), and rebinds every module attribute that pointed at the
original, so calls through names that other modules imported are traced
too.  A few methods carry the counters the per-layer metrics need:
``SpanBuilder.add`` (accepted or not), ``Matrix.__matmul__`` and the
arithmetic of ``QQi``, which is only counted because it runs millions of
times.  Spans stay in memory; ``metrics()`` reduces them and ``dump()``
writes them out when the run ends.  ``remove()`` restores the originals.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import types

LAYERS = ("scalars", "linalg", "algebra", "hautus", "decomp", "switched",
          "mrb", "serialize", "cli")

QQI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__")

# name of a function span -> what to keep from its result
_NOTES = {
    "hautus.generator_spectrum": lambda out: len(out[0]),
    "algebra.find_cyclic_vector": lambda out: out.trials_used or 0,
}

# span names reported as <name>.calls and <name>.s
_TIMED = (
    "linalg.span_add", "linalg.matmul", "linalg.kernel", "linalg.intersect",
    "algebra.closure", "algebra.orbit", "hautus.rank_drop_locus",
    "hautus.lie_closure", "decomp.find_invariant_subspace",
)
# span names reported as <name>.s only
_TIME_ONLY = (
    "linalg.char_poly", "linalg.min_poly", "algebra.find_cyclic_vector",
    "algebra.minimal_cyclic_dimension", "decomp.block_triangularize",
    "decomp.classify_blocks", "switched.design_inputs",
    "switched.reachable_subspace", "mrb.analyze", "mrb.perturbed_operator",
    "cli.build_report",
)


def per_layer_names():
    """Every per-layer metric with its unit, in report order."""
    out = [("scalars.qqi_ops", "count")]
    for name in _TIMED:
        out += [(name + ".calls", "count"), (name + ".s", "s")]
        if name == "linalg.span_add":
            out += [(name + ".accepted", "count"), (name + ".accept_ratio", "ratio")]
    out += [(name + ".s", "s") for name in _TIME_ONLY]
    out += [("algebra.find_cyclic_vector.trials", "count"),
            ("hautus.locus_tuples", "count"), ("serialize.s", "s"),
            ("cli.report_bytes", "bytes")]
    out += [(layer + ".self_s", "s") for layer in LAYERS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, op index, t0, t1, note, outer_name, outer_layer]
        self.op = None
        self.report_bytes = 0
        self._stack = []
        self._depth = {}
        self._qqi = [0]
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        pkg = importlib.import_module("cyclica")
        mods = {layer: importlib.import_module(f"cyclica.{layer}") for layer in LAYERS}
        everywhere = [pkg, *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrapped = self._span(name, fn, _NOTES.get(name))
                    for m in everywhere:
                        for a, v in list(vars(m).items()):
                            if v is fn:
                                self._rebind(m, a, wrapped)
        linalg, scalars = mods["linalg"], mods["scalars"]
        self._rebind(linalg.SpanBuilder, "add",
                     self._span("linalg.span_add", linalg.SpanBuilder.add, bool))
        self._rebind(linalg.Matrix, "__matmul__",
                     self._span("linalg.matmul", linalg.Matrix.__matmul__))
        for op in QQI_OPS:
            self._rebind(scalars.QQi, op, self._counted(vars(scalars.QQi)[op]))

    def remove(self):
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()

    def _rebind(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _counted(self, fn):
        cell = self._qqi

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)
        return counted

    def _span(self, name, fn, note=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, clock(), 0.0, None,
                   depth.get(name, 0) == 0, depth.get(layer, 0) == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] = depth.get(name, 0) + 1
            depth[layer] = depth.get(layer, 0) + 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                depth[layer] -= 1
                stack.pop()
                rec[4] = clock()
            if note is not None:
                rec[5] = note(out)
            return out
        return traced

    def operation(self, label, fn):
        """Run fn() inside a root span for one benchmark operation."""
        return self._span(f"bench.{label}", fn)()

    # -- reduction --------------------------------------------------------

    def metrics(self):
        """Per-layer totals over every span recorded so far."""
        calls, outer_s, child_s, notes = {}, {}, {}, {}
        layer_s = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        spectra = {}  # rank_drop_locus span -> candidate counts of its generators
        for name, parent, _op, t0, t1, note, outer, outer_layer in self.spans:
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            if outer:
                outer_s[name] = outer_s.get(name, 0.0) + dur
            layer = name.split(".", 1)[0]
            if outer_layer:
                layer_s[layer] = layer_s.get(layer, 0.0) + dur
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + dur
            if note is not None:
                notes.setdefault(name, []).append(note)
            if name == "hautus.generator_spectrum" and parent >= 0 \
                    and self.spans[parent][0] == "hautus.rank_drop_locus":
                spectra.setdefault(parent, []).append(note)
        for i, (name, *_rest) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if layer in self_s:
                rec = self.spans[i]
                self_s[layer] += (rec[4] - rec[3]) - child_s.get(i, 0.0)

        out = {"scalars.qqi_ops": self._qqi[0]}
        for name in _TIMED:
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".s"] = outer_s.get(name, 0.0)
        accepted = sum(notes.get("linalg.span_add", []))
        out["linalg.span_add.accepted"] = accepted
        out["linalg.span_add.accept_ratio"] = (
            accepted / calls["linalg.span_add"] if calls.get("linalg.span_add") else 0.0)
        for name in _TIME_ONLY:
            out[name + ".s"] = outer_s.get(name, 0.0)
        out["algebra.find_cyclic_vector.trials"] = sum(notes.get("algebra.find_cyclic_vector", []))
        tuples = 0
        for counts in spectra.values():
            prod = 1
            for c in counts:
                prod *= c
            tuples += prod
        out["hautus.locus_tuples"] = tuples
        out["serialize.s"] = layer_s.get("serialize", 0.0)
        out["cli.report_bytes"] = self.report_bytes
        for layer in LAYERS:
            out[layer + ".self_s"] = self_s[layer]
        return out

    def reset(self):
        self.spans.clear()
        self._qqi[0] = 0
        self.report_bytes = 0

    def dump(self, path):
        """Write the spans of the last traced round, gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "op", "t0", "t1", "note"],
                       "spans": [rec[:6] for rec in self.spans]}, fh)
