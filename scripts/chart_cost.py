#!/usr/bin/env python3
"""Cost of a quasi-normal chart scenario: build, metric calls, traces, gcc.

Builds the chart of the unit disk at (1, 0), pulls the disk back through
it and prints one JSON line with:

* ``build_s``: seconds to build the chart;
* ``boundary_trace_ms``: milliseconds of that build spent in
  ``geometry._trace_boundary``, the Newton march along the boundary;
* ``g_inv_us`` and ``dg_inv_us``: microseconds per call at (0.1, 0.03),
  the best of 3 rounds of 200 calls;
* ``jets_per_step``: chart-jet evaluations per RK4 step of an interior
  flight from (0, 0.05) along the boundary, h = 2e-3, taken as the
  difference between a 50-step and a 1-step flight (one jet per RK stage
  gives 4);
* ``trace_ms_per_sample``: milliseconds per sample over 12 traces, the
  first 6 sampler starts in both directions, T = 0.3, h = 2e-3;
* ``gcc_s``: seconds for a gcc audit of the region ``x2 - 0.06`` over 8
  sampler starts, T = 0.5, h = 2e-3.

Usage:
    python3 scripts/chart_cost.py
"""

import json
import time

import numpy as np

from glancer import flow, gcc
from glancer import geometry as geo
from glancer import scenarios as scen


def per_call_us(fn, x, calls=200, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(x)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / calls


def jets_per_step(cs, chart, h=2e-3):
    jet = chart.jet
    n = [0]

    def counted(y, order=1):
        n[0] += 1
        return jet(y, order)

    chart.jet = counted
    y = np.array([0.0, 0.05])
    xi = np.array([1.0, 0.0])
    rho = flow.PhasePoint(0.0, y, 1.0, xi / np.sqrt(geo.conorm_sq(cs, y, xi)))
    counts = []
    for steps in (50, 1):
        n[0] = 0
        piece, ev = flow.integrate_interior(cs, rho, (0.0, steps * h), flow.IntegratorParams(h=h))
        assert ev.reason == "span_end" and len(piece) == steps + 1
        counts.append(n[0])
    chart.jet = jet
    return (counts[0] - counts[1]) / 49


def build_chart(scenario, m0):
    """(chart, build seconds, seconds of the build in geo._trace_boundary)."""
    trace_boundary = geo._trace_boundary
    spent = []

    def timed(*args):
        t0 = time.perf_counter()
        out = trace_boundary(*args)
        spent.append(time.perf_counter() - t0)
        return out

    geo._trace_boundary = timed
    try:
        t0 = time.perf_counter()
        chart = geo.build_quasi_normal_chart(scenario, m0)
        build_s = time.perf_counter() - t0
    finally:
        geo._trace_boundary = trace_boundary
    return chart, build_s, sum(spent)


def main():
    disk = scen.builtin("disk_interior")
    chart, build_s, boundary_trace_s = build_chart(disk, [1.0, 0.0])
    cs = scen.chart_scenario(disk, chart)

    y = np.array([0.1, 0.03])
    params = flow.IntegratorParams(h=2e-3)
    n_samples = 0
    t0 = time.perf_counter()
    for rho in gcc.default_sampler(cs, 6):
        for direction in (1, -1):
            n_samples += flow.trace_generalized(cs, rho, 0.3, params, direction).n_samples
    trace_s = time.perf_counter() - t0

    region = gcc.region_from_expression("x2 - 0.06")
    report = gcc.gcc_check(cs, region, 0.5, gcc.default_sampler(cs, 8), params)

    print(json.dumps({
        "build_s": round(build_s, 4),
        "boundary_trace_ms": round(1e3 * boundary_trace_s, 2),
        "g_inv_us": round(per_call_us(cs.metric.g_inv, y), 1),
        "dg_inv_us": round(per_call_us(cs.metric.dg_inv, y), 1),
        "jets_per_step": round(jets_per_step(cs, chart), 3),
        "trace_ms_per_sample": round(1e3 * trace_s / n_samples, 3),
        "trace_samples": n_samples,
        "gcc_s": round(report.elapsed, 3),
        "gcc_verdict": report.verdict,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
