#!/usr/bin/env python3
"""Layer-cost table: the cost of each kernel under the CLI's workloads.

Prints one JSON object. Its keys are the layers of the tracer and the
measure checks, named as the per-layer metrics of BENCHMARK.json name them;
a key maps to one figure, or to an object keyed by metric kind or boundary
kind. Times are microseconds per call unless the key ends in ``_ms`` or
``_s``.

* Per metric kind (``identity``, ``diagonal``, ``constant`` on the strip;
  ``expression``, perfbench/scenarios/wavy.json; ``chart``, the quasi-normal
  chart of the unit disk at (1, 0)), from a state with tau = 1 on the
  characteristic set: ``geometry.entries_us``; ``geometry.metric_at_us``,
  ``metric.at`` alternating with a second point, so that no call is read
  off the last-point memo; ``geometry.g_inv_us``, ``geometry.dg_inv_us``;
  ``flow.interior_rhs_us`` (``flow._interior_rhs``, alternating as
  ``metric_at_us`` does) and
  ``flow.rk4_step_us`` (one ``flow._rk4_step``, h = 1e-3).
* Per boundary kind (the five builtins and the wavy.json wall), at a
  boundary point with xi along the wall, tau = 1: ``geometry.phi_us``,
  ``geometry.derivs_us`` and ``symbol.classify_us``
  (``classify_boundary_point``, whose tag is checked first). On every kind
  that classifies as Gliding there: ``flow.gliding_us_per_sample`` and
  ``flow.gliding_samples``, of ``flow.integrate_gliding`` alone over s in
  [0, 1] or up to its hand-off; ``flow.glide_trace_us_per_sample`` and
  ``flow.glide_trace_samples``, of the whole ``trace_generalized`` flight,
  T = 1, records included; h = 1e-3.
* ``flow.event_us``: one ``flow._locate_scalar_zero`` locating the strip's
  wall x2 = 0 to ``flow.EVENT_TOL`` within a step h = 1e-3 from
  x2 = pi * 1e-4, given phi at both ends of the step as the tracer gives
  them. The start puts the hit at no dyadic fraction of h, which bisection
  would probe exactly (from x2 = 5e-4 the hit lies at 5h/16).
* ``flow.event_substeps``: RK4 substeps per located event (the calls of
  the locator's value function, each on one substep): ``strip`` for the
  event of ``flow.event_us``; ``disk_1e-1``, ``disk_1e-2`` and
  ``disk_1e-3`` over the events of a unit-disk trace from (1, 0) whose
  chords meet the wall at incidence 1e-1, 1e-2 and 1e-3 rad (T = 0.5,
  h = 1e-3; 2, 25 and 250 breaks).
* ``symbol.gliding_field_us``: ``sym.gliding_field`` at the disk's gliding
  start.
* ``measures.residual_us_per_sample``: ``transport_residual`` of the
  README's half-plane ``verify-transport`` (T = 2.4), per carrier sample;
  ``measures.support_check_us_per_point``: ``support_step_check`` per
  point of acceptance criterion 10 (half-plane, delta = 1e-2, eps = 0.1).
* The README's strip ``continuity`` sweep (deltas 1e-2, 1e-3, 1e-4, T = 5,
  64 samples, seed 0): ``flow.continuity_sweep_ms`` (one run),
  ``flow.continuity_eps_hat``, ``flow.continuity_reference_trace_ms`` and
  ``flow.continuity_reference_rows`` (the reference in both directions),
  ``flow.continuity_variants_ms`` (its distance variants),
  ``flow.semi_distance_ms`` (one ``flow._semi_distance`` of the first
  perturbed trace at delta = 1e-2), ``flow.semi_distance_pairs_per_row``
  (the cdist pairs per row of that trace it evaluates) and
  ``flow.semi_distance_all_pairs_per_row`` (the variant rows in total, what
  an all-pairs cdist evaluates).
* The disk chart: ``geometry.chart_build_s`` (one build),
  ``geometry.chart_boundary_march_ms`` (``geometry._trace_boundary`` as the
  build calls it), ``geometry.chart_jets_per_step`` (chart jets per RK4
  step of an interior flight from (0, 0.05) along the boundary, h = 2e-3:
  the difference between a 50-step and a 1-step flight over 49),
  ``flow.chart_trace_ms_per_sample`` and ``flow.chart_trace_samples`` (12
  traces, the first 6 sampler starts in both directions, T = 0.3, h =
  2e-3, one run), ``gcc.chart_audit_s`` and ``gcc.chart_audit_verdict``
  (the region ``x2 - 0.06`` over 8 sampler starts, T = 0.5, h = 2e-3).
* ``gcc.witness_audit_ms``: ``gcc.gcc_check`` of the strip region
  ``0.2 - x2`` over the first sampler start (seed 0), a witness, T = 3,
  h = 1e-3.
* ``scenarios.load_ms``: one ``scenarios.load_scenario`` of wavy.json after
  its first; ``jet.kernel_build_us``: building the three jet kernels that
  loading wavy.json builds, past the kernel memo, as a new process does.

Each figure checks first the state it times. Each time is the best of 5
rounds after a first call; a round is as many calls as the first call's
time fits in 2 ms, at least one. The sweep, the chart build, the chart
traces and the audit are timed once, by their first call.

Usage:
    PYTHONPATH=src python3 scripts/layer_cost.py
"""

import json
import time
from pathlib import Path

import numpy as np
from scipy.spatial import distance

from glancer import cli, flow, gcc, jet, measures
from glancer import geometry as geo
from glancer import scenarios as scen
from glancer import symbol as sym
from glancer.symbol import PhasePoint, Tag

WAVY = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "wavy.json"


def best_us(fn, rounds=5):
    """(microseconds per call of fn, the first call's result): the best of
    rounds rounds after the first call, or with rounds = 0 its own time."""
    t0 = time.perf_counter()
    out = fn()
    first = time.perf_counter() - t0
    calls = max(1, int(2e-3 / first))
    best = first if rounds == 0 else np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return 1e6 * best, out


def sig(v):
    """v to 4 significant digits."""
    return float(f"{v:.4g}")


def fig(fn, per=1.0):
    """best_us of fn over per, to 4 significant digits."""
    return sig(best_us(fn)[0] / per)


def start(scenario, x, xi):
    """Phase point with tau = 1 at x, xi scaled onto the characteristic set."""
    x, xi = np.array(x, dtype=float), np.array(xi, dtype=float)
    return PhasePoint(0.0, x, 1.0, xi / np.sqrt(geo.conorm_sq(scenario, x, xi)))


def require(ok, what):
    if not ok:
        raise RuntimeError(f"the timed state is wrong: {what}")


def metric_layers(table, kinds):
    for kind, (scenario, x, xi) in kinds.items():
        m, other = scenario.metric, [x[0] + 0.01, x[1] + 0.01]
        y = start(scenario, x, xi).as_vector().tolist()
        require(abs(sym.p_eval(scenario, np.array(y))) <= 1e-12, f"{kind} start off the shell")
        y2 = y[:1] + other + y[3:]
        rhs = flow._interior_rhs(scenario, 1.0)
        for key, fn, per in [
            ("geometry.entries_us", lambda: m.entries(x), 1),
            ("geometry.metric_at_us", lambda: (m.at(x), m.at(other)), 2),
            ("geometry.g_inv_us", lambda: m.g_inv(x), 1),
            ("geometry.dg_inv_us", lambda: m.dg_inv(x), 1),
            ("flow.interior_rhs_us", lambda: (rhs(y), rhs(y2)), 2),
            ("flow.rk4_step_us", lambda: flow._rk4_step(rhs, y, 1e-3), 1),
        ]:
            table.setdefault(key, {})[kind] = fig(fn, per)


def boundary_layers(table, walls):
    params = flow.IntegratorParams(h=1e-3)
    for kind, (scenario, x, tag) in walls.items():
        b = scenario.boundary
        d1, d2 = b.derivs(x)[:2]
        rho0 = start(scenario, x, scenario.metric.g(x) @ [d2, -d1])
        got = sym.classify_boundary_point(scenario, rho0).tag
        require(got is tag, f"{kind} start classifies as {got.value}, not {tag.value}")
        table.setdefault("geometry.phi_us", {})[kind] = fig(lambda: b.phi(x))
        table.setdefault("geometry.derivs_us", {})[kind] = fig(lambda: b.derivs(x))
        table.setdefault("symbol.classify_us", {})[kind] = fig(
            lambda: sym.classify_boundary_point(scenario, rho0))
        if tag is not Tag.GLIDING:
            continue
        piece, ev = flow.integrate_gliding(scenario, rho0, (0.0, 1.0), params)
        require(ev.reason in ("span_end", "glide_handoff"), f"{kind} glide ended by {ev.reason}")
        gb = flow.trace_generalized(scenario, rho0, 1.0, params)
        kinds = [p.kind for p in gb.pieces]
        require(kinds == [flow.GLIDING], f"the {kind} flight has pieces {kinds}, not one glide")
        for key, n, fn in [
            ("flow.gliding", len(piece),
             lambda: flow.integrate_gliding(scenario, rho0, (0.0, 1.0), params)),
            ("flow.glide_trace", gb.n_samples,
             lambda: flow.trace_generalized(scenario, rho0, 1.0, params)),
        ]:
            table.setdefault(key + "_us_per_sample", {})[kind] = fig(fn, n)
            table.setdefault(key + "_samples", {})[kind] = n


def build_wavy_kernels():
    config = json.loads(WAVY.read_text())
    phi = config["boundary"]["phi"]
    (g11, g12), (_, g22) = ([str(e) for e in row] for row in config["metric"]["expressions"])
    derivs = ("d1", "d2", "d11", "d12", "d22")
    jet._build((g11, g12, g22), ("v", "d1", "d2"), False)
    jet._build((phi,), derivs, False)
    jet._build((phi,), derivs, True)


def substeps_per_event(run):
    """(run(), RK4 substeps per event it located): the calls of the
    locator's value function, each on one substep, counted by wrapping
    flow._locate_scalar_zero while run runs."""
    locate, events, calls = flow._locate_scalar_zero, [0], [0]

    def counted(rhs, y, h, value_of, *args):
        def probe(z):
            calls[0] += 1
            return value_of(z)

        events[0] += 1
        return locate(rhs, y, h, probe, *args)

    flow._locate_scalar_zero = counted
    try:
        out = run()
    finally:
        flow._locate_scalar_zero = locate
    require(events[0] > 0, "no event located")
    return out, sig(calls[0] / events[0])


def disk_chords(disk, theta):
    """The unit-disk trace from (1, 0) whose chords meet the wall at
    incidence theta, T = 0.5, h = 1e-3."""
    rho = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([-np.sin(theta), np.cos(theta)]))
    gb = flow.trace_generalized(disk, rho, 0.5, flow.IntegratorParams(h=1e-3))
    require(gb.break_set, f"the disk trace at {theta} has no break")


def once_layers(table, strip, disk):
    rhs = flow._interior_rhs(strip, 1.0)
    y = start(strip, [0.0, np.pi * 1e-4], [0.6, -0.8]).as_vector().tolist()

    def phi(z):
        return float(strip.boundary.phi(z[sym.X]))

    ends = phi(y), phi(flow._rk4_step(rhs, y, 1e-3))

    def locate():
        return flow._locate_scalar_zero(rhs, y, 1e-3, phi, flow.EVENT_TOL, *ends)

    hit, substeps = substeps_per_event(locate)
    require(abs(phi(hit[1])) <= flow.EVENT_TOL, "no strip wall event")
    table["flow.event_us"] = fig(locate)
    table["flow.event_substeps"] = {"strip": substeps} | {
        f"disk_{theta}": substeps_per_event(lambda: disk_chords(disk, float(theta)))[1]
        for theta in ("1e-1", "1e-2", "1e-3")
    }
    rho = start(disk, [1.0, 0.0], [0.0, 1.0])
    tag = sym.classify_boundary_point(disk, rho).tag
    require(tag is Tag.GLIDING, f"the disk start classifies as {tag.value}")
    table["symbol.gliding_field_us"] = fig(lambda: sym.gliding_field(disk, rho))

    half_plane = scen.builtin("half_plane")
    rho0 = PhasePoint.from_vector(np.array([0.0, 0.0, 1.0, 1.0, 0.6, -0.8]))
    gb = flow.trace_generalized(half_plane, rho0, 2.4, flow.IntegratorParams())
    cm = measures.dirac_on_bichar(half_plane, gb)
    nu, a = measures.boundary_measure_of(half_plane, cm), cli._default_test_function(gb)
    residual = measures.transport_residual(half_plane, cm, nu, a)
    require(residual <= 1e-4, f"transport residual {residual:.3g} > 1e-4")
    table["measures.residual_us_per_sample"] = fig(
        lambda: measures.transport_residual(half_plane, cm, nu, a), gb.n_samples)

    rho0 = PhasePoint(0.0, np.array([-0.5, 0.8]), 1.0, np.array([0.6, -0.8]))
    gb = flow.trace_generalized(half_plane, rho0, 0.64, flow.IntegratorParams(h=3e-4))
    full, trimmed = measures.support_samples(gb), measures.support_samples(gb, s_margin=2e-2)

    def check():
        return measures.support_step_check(trimmed, half_plane, 1e-2, 0.1, reference=full)

    require(check().ok, "support points fail the step check")
    table["measures.support_check_us_per_point"] = fig(check, len(trimmed))
    region, params = gcc.region_from_expression("0.2 - x2"), flow.IntegratorParams(h=1e-3)
    samples = gcc.default_sampler(strip, 1, seed=0)
    us, report = best_us(lambda: gcc.gcc_check(strip, region, 3.0, samples, params))
    require(report.verdict == "FailsWithWitness", f"the strip audit reads {report.verdict}")
    table["gcc.witness_audit_ms"] = sig(us / 1e3)
    table["scenarios.load_ms"] = fig(lambda: scen.load_scenario(WAVY), 1e3)
    table["jet.kernel_build_us"] = fig(build_wavy_kernels)


def continuity_layers(table, strip):
    rho0 = PhasePoint.from_vector(np.array([0.0, 0.1, 0.45, 1.0, 0.6, 0.8]))
    params = flow.IntegratorParams(h=1e-3)
    us, eps_hat = best_us(lambda: flow.continuity_sweep(
        strip, rho0, [1e-2, 1e-3, 1e-4], 5.0, 64, params, 0), rounds=0)
    require(eps_hat[0] > eps_hat[1] > eps_hat[2], f"eps_hat {eps_hat} is not decreasing")
    table["flow.continuity_sweep_ms"] = sig(us / 1e3)
    table["flow.continuity_eps_hat"] = eps_hat
    us, reference = best_us(lambda: flow._trace_states_both(strip, rho0, 5.0, params))
    table["flow.continuity_reference_trace_ms"] = sig(us / 1e3)
    table["flow.continuity_reference_rows"] = len(reference)
    us, variants = best_us(lambda: flow._distance_variants(strip, reference))
    table["flow.continuity_variants_ms"] = sig(us / 1e3)
    pert = flow._perturb_characteristic(strip, rho0, 1e-2, np.random.default_rng(0))
    P = flow._trace_states_both(strip, pert, 5.0, params)
    table["flow.semi_distance_ms"] = fig(lambda: flow._semi_distance(P, variants), 1e3)
    # flow._min_distances imports cdist when called, so the wrapper is seen
    pairs, cdist = [0], distance.cdist

    def counted(a, b):
        pairs[0] += len(a) * len(b)
        return cdist(a, b)

    distance.cdist = counted
    try:
        flow._semi_distance(P, variants)
    finally:
        distance.cdist = cdist
    table["flow.semi_distance_pairs_per_row"] = round(pairs[0] / len(P), 1)
    table["flow.semi_distance_all_pairs_per_row"] = sum(len(rows) for rows, _ in variants)


def jets_per_step(cs, chart, h=2e-3):
    jet_of, n = chart.jet, [0]

    def counted(y, order=1):
        n[0] += 1
        return jet_of(y, order)

    chart.jet = counted
    rho, counts = start(cs, [0.0, 0.05], [1.0, 0.0]), []
    for steps in (50, 1):
        n[0] = 0
        piece, ev = flow.integrate_interior(cs, rho, (0.0, steps * h), flow.IntegratorParams(h=h))
        ended = f"ended by {ev.reason} after {len(piece)} samples"
        require(ev.reason == "span_end" and len(piece) == steps + 1, f"chart flight {ended}")
        counts.append(n[0])
    chart.jet = jet_of
    return round((counts[0] - counts[1]) / 49, 3)


def chart_layers(table, disk):
    us, chart = best_us(lambda: geo.build_quasi_normal_chart(disk, [1.0, 0.0]), rounds=0)
    table["geometry.chart_build_s"] = sig(us / 1e6)
    span = 2.0 * geo._CUTOFF_RADIUS + 4.0 * geo._GRID_STEP
    table["geometry.chart_boundary_march_ms"] = fig(
        lambda: geo._trace_boundary(disk, np.array([1.0, 0.0]), span, geo._GRID_STEP), 1e3)
    cs = scen.chart_scenario(disk, chart)
    table["geometry.chart_jets_per_step"] = jets_per_step(cs, chart)
    params = flow.IntegratorParams(h=2e-3)
    flights = [(rho, d) for rho in gcc.default_sampler(cs, 6) for d in (1, -1)]
    us, n = best_us(lambda: sum(flow.trace_generalized(cs, rho, 0.3, params, d).n_samples
                                for rho, d in flights), rounds=0)
    table["flow.chart_trace_ms_per_sample"] = sig(us / 1e3 / n)
    table["flow.chart_trace_samples"] = n
    region = gcc.region_from_expression("x2 - 0.06")
    us, report = best_us(
        lambda: gcc.gcc_check(cs, region, 0.5, gcc.default_sampler(cs, 8), params), rounds=0)
    table["gcc.chart_audit_s"] = sig(us / 1e6)
    table["gcc.chart_audit_verdict"] = report.verdict
    return cs


def main():
    strip, disk = scen.builtin("strip"), scen.builtin("disk_interior")
    wavy = scen.load_scenario(WAVY)
    table = {}
    cs = chart_layers(table, disk)
    on_strip = {
        "identity": None,
        "diagonal": {"kind": "diagonal", "entries": [2.0, 0.5]},
        "constant": {"kind": "constant", "matrix": [[2.0, 0.3], [0.3, 0.5]]},
    }
    kinds = {k: (scen.builtin("strip", metric=m), [0.0, 0.5], [0.6, 0.8])
             for k, m in on_strip.items()}
    kinds["expression"] = (wavy, [0.3, 0.35 - 0.3 * np.cos(0.3)], [0.2, -1.0])
    kinds["chart"] = (cs, [0.1, 0.03], [1.0, 0.0])
    metric_layers(table, kinds)
    walls = {
        "half_plane": (scen.builtin("half_plane"), [0.0, 0.0], Tag.GLANCING3),
        "strip": (strip, [0.0, 0.0], Tag.GLANCING3),
        "disk_interior": (disk, [1.0, 0.0], Tag.GLIDING),
        "disk_exterior": (scen.builtin("disk_exterior"), [1.0, 0.0], Tag.DIFFRACTIVE),
        "annulus": (scen.builtin("annulus"), [0.0, 1.0], Tag.GLIDING),
        "wavy": (wavy, [-0.4, -0.3 * np.cos(-0.4)], Tag.GLIDING),
    }
    boundary_layers(table, walls)
    once_layers(table, strip, disk)
    continuity_layers(table, strip)
    print(json.dumps(table, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
