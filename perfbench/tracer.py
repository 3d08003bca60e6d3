"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps public functions of the saddleloop modules and rebinds
every module-level name that refers to them, because callers import by
name (``melnikov`` holds its own ``triple``, ``abelian`` its own
``slice_oval``, the package its own ``slice_oval``); wrapping only the
defining module would miss those calls.  Spans nest on a stack; a span's
self time is its duration minus the time its child spans cover.
Counters that only count (RHS evaluations, Melnikov evaluations, census
lanes) take no timestamps.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs that get a timed span.
SPANS = (
    ("flowsim", "census"),
    ("flowsim", "return_map"),
    ("flowsim", "integrate"),
    ("flowsim", "separatrix_shifts"),
    ("flowsim", "saddle_traces"),
    ("abelian", "triple"),
    ("abelian", "jk_on_slice"),
    ("abelian", "appendix_oval_integral"),
    ("ovals", "slice_oval"),
    ("melnikov", "count_zeros"),
    ("melnikov", "appendix_count_zeros"),
    ("centroid", "sample_curve"),
    ("centroid", "line_intersections"),
    ("centroid", "verify_shape"),
    ("picard_fuchs", "fundamental"),
    ("picard_fuchs", "finite_difference_residuals"),
    ("acceptance", "criterion_9"),
)

class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.top_s = 0.0            # time covered by spans with no parent
        self.bindings = {}          # span name -> names rebound
        self._open = []             # child-time accumulator per open span
        self._lanes = []            # displacement outcomes per open census

    def _span(self, name, fn, after):
        def traced(*args, **kwargs):
            self._open.append([0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._open.pop()[0]
                if self._open:
                    self._open[-1][0] += dt
                else:
                    self.top_s += dt
                self.counts[name + ".calls"] += 1
                self.self_s[name] += dt - children
                self.total_s[name] += dt
            if after is not None:
                after(result)
            return result
        return traced

    # -- result hooks -----------------------------------------------------

    def _integrate(self, tr):
        self.counts["flowsim.integrate.steps"] += len(tr.ts) - tr.n_segments
        self.counts["flowsim.integrate.segments"] += tr.n_segments
        self.counts["flowsim.integrate.failed"] += tr.status == "failed"

    def _return_map(self, res):
        self.counts["flowsim.return_map.outcome." + res.reason] += 1

    def _triple(self, tr):
        self.counts["abelian.triple.unconverged"] += not tr.converged

    def _census(self, res):
        # every census lane goes through displacement: the first
        # grid_size calls are the grid, the rest bracket refinement
        lanes = self._lanes.pop()
        n = res.grid_size
        self.counts["flowsim.census.grid_lanes"] += n
        self.counts["flowsim.census.grid_ok"] += sum(lanes[:n])
        self.counts["flowsim.census.refine_maps"] += len(lanes) - n

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function at every module-level binding in
        the saddleloop package."""
        from saddleloop import flowsim

        mods = [m for name, m in sys.modules.items()
                if name == "saddleloop" or name.startswith("saddleloop.")]
        after = {"flowsim.integrate": self._integrate,
                 "flowsim.return_map": self._return_map,
                 "abelian.triple": self._triple,
                 "flowsim.census": self._census}
        for modname, fname in SPANS:
            name = f"{modname}.{fname}"
            orig = getattr(sys.modules["saddleloop." + modname], fname)
            fn = orig
            if name == "flowsim.census":
                fn = self._census_scope(orig)
            self.bindings[name] = _rebind(mods, orig,
                                          self._span(name, fn, after.get(name)))
        self._count(mods, "saddleloop.melnikov", "value", "melnikov.value.calls")
        disp = flowsim.displacement

        def displacement(*args, **kwargs):
            d = disp(*args, **kwargs)
            if self._lanes:
                self._lanes[-1].append(d is not None)
            return d

        _rebind(mods, disp, displacement)
        rhs = flowsim.FlowSpec.rhs

        def counted_rhs(flow, t, z):
            self.counts["flowsim.FlowSpec.rhs.calls"] += 1
            return rhs(flow, t, z)

        flowsim.FlowSpec.rhs = counted_rhs

    def _census_scope(self, fn):
        def scoped(*args, **kwargs):
            self._lanes.append([])
            return fn(*args, **kwargs)
        return scoped

    def _count(self, mods, modname, fname, key):
        orig = getattr(sys.modules[modname], fname)

        def counted(*args, **kwargs):
            self.counts[key] += 1
            return orig(*args, **kwargs)

        _rebind(mods, orig, counted)

    def report(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "top_s": self.top_s,
                "bindings": self.bindings}


def _rebind(mods, orig, new) -> list[str]:
    names = []
    for m in mods:
        for k, v in list(vars(m).items()):
            if v is orig:
                setattr(m, k, new)
                names.append(f"{m.__name__}.{k}")
    return names
