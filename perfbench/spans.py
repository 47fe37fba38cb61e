"""Span tracer installed from outside the package, for the traced run only.

``Tracer.install()`` replaces the public functions of each layer with timing
wrappers, at every binding a caller holds: module attributes in every loaded
``zmcgraph`` module (``cli`` imports ``af_bf_exact``, ``psi_jet`` and
``classify`` by name), ``RationalPoly`` methods on the class, and the ``jet``
callable of every catalog entry.  Nothing under ``src/`` changes.

Coarse calls (one ``cli.main`` per job, one construction, one mesh write)
are kept as spans: name, start, end, parent span and job id, held in memory
and written out by ``write_spans`` at the end.  Per-point and per-polynomial
calls are hundreds of thousands per pass, so they only add to a per-name
aggregate of calls, inclusive time and self time.  Every wrapped call, span
or aggregate, is a frame on the stack, so a span's self time is its duration
minus what its direct children cover.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (aggregate name, module, attribute path, kept as a span)
TARGETS = (
    ("cli.main", "zmcgraph.cli", "main", True),
    ("series.recursion", "zmcgraph.series", "series_from_recursion", True),
    ("series.expansion", "zmcgraph.series", "series_from_expansion", True),
    ("series.pqr_terms", "zmcgraph.series", "pqr_terms", True),
    ("series.to_json", "zmcgraph.series", "series_to_json", True),
    ("series.from_json", "zmcgraph.series", "series_from_json", True),
    ("series.exact_sign", "zmcgraph.series", "af_bf_exact", False),
    ("series.float_jet", "zmcgraph.series", "psi_jet", False),
    ("lorentz.classify", "zmcgraph.lorentz", "classify", False),
    ("lorentz.first_form", "zmcgraph.lorentz", "first_form", False),
    ("catalog.implicit_solve", "zmcgraph.catalog", "implicit_solve", False),
    ("catalog.cone_type_implicit", "zmcgraph.catalog", "cone_type_implicit", False),
    ("bounds.certificate", "zmcgraph.bounds", "certificate", True),
    ("bounds.growth", "zmcgraph.bounds", "verify_growth_estimates", True),
    ("bounds.tau", "zmcgraph.bounds", "tau_constant", True),
    ("mesh.write", "zmcgraph.mesh", "write_ply", True),
    ("mesh.write", "zmcgraph.mesh", "write_obj", True),
    ("poly.mul", "zmcgraph.poly", "RationalPoly.__mul__", False),
    ("poly.add", "zmcgraph.poly", "RationalPoly.__add__", False),
    ("poly.derivative", "zmcgraph.poly", "RationalPoly.derivative", False),
)


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []  # (id, name, job, start, end, parent id)
        # name -> [calls, inclusive seconds, self seconds, calls that raised]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # each frame: [seconds covered by direct children, enclosing span id]
        self._stack = [[0.0, None]]
        self._next_id = 0

    def _wrap(self, name, fn, keep_span):
        stack, agg, spans = self._stack, self.agg, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                sid = self._next_id
                self._next_id += 1
                frame = [0.0, sid]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            raised = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                a = agg[name]
                a[0] += 1
                a[1] += d
                a[2] += d - frame[0]
                a[3] += raised
                if keep_span:
                    spans.append((frame[1], name, self.job, t0, t1, parent[1]))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_exact_eval(self, fn):
        """``RationalPoly.__call__``: only exact (non-float) evaluation is timed."""
        exact = self._wrap("poly.eval_exact", fn, False)

        def call(poly, y):
            if isinstance(y, float):
                return fn(poly, y)
            return exact(poly, y)

        return call

    def _wrap_mesh_build(self, fn):
        """``build_grid_mesh``: its evaluate callback becomes a child frame."""
        build = self._wrap("mesh.build", fn, True)
        wrap = self._wrap

        def build_grid_mesh(evaluate, *args, **kwargs):
            return build(wrap("mesh.evaluate", evaluate, False), *args, **kwargs)

        return build_grid_mesh

    def install(self):
        mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "zmcgraph"]
        wrappers = {}
        for name, modname, path, keep in TARGETS:
            obj = sys.modules[modname]
            *owners, attr = path.split(".")
            for o in owners:
                obj = getattr(obj, o)
            if owners:  # a method: patch it on the class
                setattr(obj, attr, self._wrap(name, getattr(obj, attr), keep))
            else:
                fn = getattr(obj, attr)
                wrappers[id(fn)] = (fn, self._wrap(name, fn, keep))
        poly = sys.modules["zmcgraph.poly"].RationalPoly
        poly.__call__ = self._wrap_exact_eval(poly.__call__)
        build = sys.modules["zmcgraph.mesh"].build_grid_mesh
        wrappers[id(build)] = (build, self._wrap_mesh_build(build))
        # every module-level binding of a wrapped function, wherever imported
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        catalog = sys.modules["zmcgraph.catalog"]
        for entry in catalog._ENTRIES.values():  # frozen dataclass
            jet = self._wrap("catalog.jet", entry.jet, False)
            object.__setattr__(entry, "jet", jet)

    def mark(self):
        """State to return to with ``rollback``."""
        return len(self.spans), {k: list(a) for k, a in self.agg.items()}

    def rollback(self, mark):
        """Drops the spans and aggregates recorded since ``mark``."""
        n, agg = mark
        del self.spans[n:]
        self.agg.clear()  # the wrappers hold this dict, so change it in place
        self.agg.update(agg)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, job, t0, t1, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "job": job, "start": t0,
                         "end": t1, "parent": parent}
                    )
                    + "\n"
                )

    def totals(self):
        """name -> {calls, s, self_s, raised} over everything traced so far."""
        return {
            k: {"calls": a[0], "s": a[1], "self_s": a[2], "raised": a[3]}
            for k, a in self.agg.items()
        }
