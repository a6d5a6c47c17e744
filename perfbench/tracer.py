"""In-memory tracing of glancer's layers, installed from outside the package.

Layer entry points are replaced, for the duration of a traced pass, by
wrappers that record spans (name, start, end, parent, op) or, for leaf
kernels called millions of times, a per-op call count and total time. The
metric and boundary callables of every scenario returned by
``scenarios.load_scenario`` are wrapped the same way. Nothing is written
until the caller asks for it at the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

HOOK = "bench.hook"  # benchmark-side bookkeeping, subtracted from parents' self time


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, parent, op, name, t0, t1]
        self.stack: list[int] = []
        self.op = -1
        self.op_leaves: list[dict] = []  # per op: name -> [calls, seconds]
        self.op_counts: list[dict] = []  # per op: name -> number
        self.gcc_region = None

    # -- ops ---------------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self.op_leaves.append(defaultdict(lambda: [0, 0.0]))
        self.op_counts.append(defaultdict(float))

    def count(self, name: str, value: float = 1.0) -> None:
        self.op_counts[self.op][name] += value

    # -- wrappers ------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, self.op, name, perf_counter(), None])
        return sid

    def span(self, name: str, fn, on_result=None):
        """Wrap fn in a span; on_result(result, args, kwargs) runs in a hook span."""

        def wrapper(*args, **kwargs):
            sid = self._open(name)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[sid][5] = perf_counter()
            if on_result is not None:
                hid = self._open(HOOK)
                on_result(result, args, kwargs)
                self.spans[hid][5] = perf_counter()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = self.op_leaves[self.op][name]
                cell[0] += 1
                cell[1] += perf_counter() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation -----------------------------------------------------------

    def span_totals(self) -> dict:
        """name -> [calls, total seconds, self seconds] over all spans."""
        child_time = defaultdict(float)
        for sid, parent, _op, _name, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, _op, name, t0, t1 in self.spans:
            cell = out[name]
            cell[0] += 1
            cell[1] += t1 - t0
            cell[2] += (t1 - t0) - child_time[sid]
        return out

    def leaf_totals(self) -> dict:
        out = defaultdict(lambda: [0, 0.0])
        for per_op in self.op_leaves:
            for name, (calls, secs) in per_op.items():
                out[name][0] += calls
                out[name][1] += secs
        return out

    def count_totals(self) -> dict:
        out = defaultdict(float)
        for per_op in self.op_counts:
            for name, v in per_op.items():
                out[name] += v
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["id", "parent", "op", "name", "t0", "t1"],
                    "spans": self.spans,
                    "leaves_per_op": [dict(d) for d in self.op_leaves],
                    "counts_per_op": [dict(d) for d in self.op_counts],
                },
                fh,
            )


def _instrument_scenario(tr: Tracer, scenario) -> None:
    m = scenario.metric
    m.g_inv = tr.leaf("geometry.g_inv", m.g_inv)
    # dg_inv is a method that calls self.g_inv; the instance attribute
    # shadows it, so nested g_inv calls are counted as well.
    m.dg_inv = tr.leaf("geometry.dg_inv", m.dg_inv)
    b = scenario.boundary
    b.phi = tr.leaf("geometry.phi", b.phi)
    b.dphi = tr.leaf("geometry.dphi", b.dphi)
    b.d2phi = tr.leaf("geometry.d2phi", b.d2phi)


@contextmanager
def instrument(tr: Tracer, glancer_pkg):
    """Install the tracer's wrappers on glancer's modules; restore on exit."""
    flow = glancer_pkg.flow
    gcc = glancer_pkg.gcc
    geometry = glancer_pkg.geometry
    measures = glancer_pkg.measures
    scenarios = glancer_pkg.scenarios
    symbol = glancer_pkg.symbol

    def on_scenario(scenario, args, kwargs):
        _instrument_scenario(tr, scenario)

    def on_piece(kind):
        def hook(result, args, kwargs):
            piece, _ev = result
            tr.count(f"samples.{kind}", len(piece))

        return hook

    def on_trace(gb, args, kwargs):
        tr.count("flow.events", len(gb.break_set) + len(gb.junctions))
        if tr.gcc_region is not None:  # inside gcc_check
            states = gb.all_samples()[1]
            d = gb.dim
            mask = tr.gcc_region.entered(states[:, 0], states[:, 1 : 1 + d])
            used = int(mask.argmax()) + 1 if mask.any() else len(states)
            tr.count("gcc.samples_useful", used)
            tr.count("gcc.samples_traced", len(states))
            tr.count("gcc.traces", 1)

    def on_gcc(report, args, kwargs):
        rays = report.n_entered + report.n_skipped + (1 if report.witness is not None else 0)
        tr.count("gcc.rays", rays)
        tr.count("gcc.skipped", report.n_skipped)

    def on_measure(name):
        def hook(result, args, kwargs):
            cm = args[1]
            tr.count(f"{name}.samples", len(cm.s))

        return hook

    gcc_check = gcc.gcc_check

    def gcc_entry(*args, **kwargs):
        tr.gcc_region = args[1] if len(args) > 1 else kwargs["region"]
        try:
            return gcc_check(*args, **kwargs)
        finally:
            tr.gcc_region = None

    patches = [
        (scenarios, "load_scenario", tr.span("scenarios.load_scenario", scenarios.load_scenario, on_scenario)),
        (flow, "trace_generalized", tr.span("flow.trace_generalized", flow.trace_generalized, on_trace)),
        (flow, "integrate_interior", tr.span("flow.integrate_interior", flow.integrate_interior, on_piece("interior"))),
        (flow, "integrate_gliding", tr.span("flow.integrate_gliding", flow.integrate_gliding, on_piece("gliding"))),
        (flow, "trajectory_records", tr.span("flow.records", flow.trajectory_records)),
        (flow, "event_records", tr.span("flow.records", flow.event_records)),
        (flow, "glancing_step_construct", tr.span("flow.glancing_step_construct", flow.glancing_step_construct)),
        (flow, "continuity_probe", tr.span("flow.continuity_probe", flow.continuity_probe)),
        (flow, "compressed_distance", tr.leaf("flow.compressed_distance", flow.compressed_distance)),
        (measures, "dirac_on_bichar", tr.span("measures.dirac_on_bichar", measures.dirac_on_bichar)),
        (measures, "boundary_measure_of", tr.span("measures.boundary_measure_of", measures.boundary_measure_of, on_measure("measures.boundary_measure"))),
        (measures, "transport_residual", tr.span("measures.transport_residual", measures.transport_residual, on_measure("measures.residual"))),
        (gcc, "gcc_check", tr.span("gcc.gcc_check", gcc_entry, on_gcc)),
        (symbol, "classify_boundary_point", tr.leaf("symbol.classify", symbol.classify_boundary_point)),
        (symbol, "gliding_field", tr.leaf("symbol.gliding_field", symbol.gliding_field)),
        (symbol, "hp2z", tr.leaf("symbol.hp2z", symbol.hp2z)),
    ]
    in_domain = tr.leaf("geometry.in_domain", geometry.in_domain)
    # symbol binds in_domain by name at import; patch both references.
    patches += [(geometry, "in_domain", in_domain), (symbol, "in_domain", in_domain)]

    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, wrapper in patches:
            setattr(mod, name, wrapper)
        yield tr
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)
