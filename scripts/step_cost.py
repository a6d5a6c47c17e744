#!/usr/bin/env python3
"""Cost of the tracer's stepping layer: RK4 steps, gliding samples, events.

Prints one JSON line, without bounds, with:

* ``rk4_strip_us`` and ``rk4_wavy_us``: microseconds per interior
  ``flow._rk4_step`` (four RHS evaluations) on the strip, identity metric,
  and on ``perfbench/scenarios/wavy.json``, expression metric and wall,
  each from a state with tau = 1 on its characteristic set, h = 1e-3;
* ``glide_us_per_sample``: microseconds per sample of a gliding trace on
  the unit disk from (1, 0) with xi = (0, 1), T = 1, h = 1e-3 (settle,
  hand-off check and records included);
* ``event_us``: microseconds per ``flow._locate_scalar_zero`` call that
  locates the strip's wall x2 = 0 to ``flow.EVENT_TOL`` within a step
  h = 1e-3 from x2 = 5e-4, as an interior piece does at a break;
* ``entries_wavy_us`` and ``derivs_wavy_us``: microseconds per metric
  ``entries`` and wall ``derivs`` call of wavy.json, at the point where
  ``rk4_wavy_us`` starts;
* ``kernel_build_us``: microseconds to build the jet kernels that loading
  wavy.json builds (each metric entry, and the wall's point and row
  kernels) with the kernel memo cleared first, as a new process does.

Each figure is the best of 5 rounds; a round repeats the call 200 times
(``entries`` and ``derivs`` 2,000 times, the glide trace 3 times, the
kernel build once).

Usage:
    python3 scripts/step_cost.py
"""

import json
import time
from pathlib import Path

import numpy as np

from glancer import flow, jet
from glancer import geometry as geo
from glancer import scenarios as scen
from glancer import symbol as sym
from glancer.symbol import PhasePoint

WAVY = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "wavy.json"


def best_us(fn, calls, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / calls


def start(scenario, x, xi):
    """Packed state with tau = 1 at x, xi scaled onto the characteristic set."""
    x, xi = np.array(x), np.array(xi)
    xi = xi / np.sqrt(geo.conorm_sq(scenario, x, xi))
    return PhasePoint(0.0, x, 1.0, xi).as_vector().tolist()


def rk4_us(scenario, y):
    rhs = flow._interior_rhs(scenario, 1.0)
    return best_us(lambda: flow._rk4_step(rhs, y, 1e-3), 200)


def build_wavy_kernels():
    config = json.loads(WAVY.read_text())
    phi = config["boundary"]["phi"]
    jet._KERNELS.clear()
    for expr in {phi, *(e for row in config["metric"]["expressions"] for e in row)}:
        jet.kernel(expr)
    jet.row_kernel(phi)


def main():
    strip = scen.builtin("strip")
    wavy = scen.load_scenario(WAVY)
    disk = scen.builtin("disk_interior")
    kernel_build_us = best_us(build_wavy_kernels, 1)

    glide_start = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    params = flow.IntegratorParams(h=1e-3)
    samples = flow.trace_generalized(disk, glide_start, 1.0, params).n_samples
    glide_us = best_us(lambda: flow.trace_generalized(disk, glide_start, 1.0, params), 3)

    rhs = flow._interior_rhs(strip, 1.0)
    y = start(strip, [0.0, 5e-4], [0.6, -0.8])

    def phi_of(z):
        return float(strip.boundary.phi(z[sym.X]))

    def locate():
        return flow._locate_scalar_zero(rhs, y, 1e-3, phi_of, flow.EVENT_TOL)

    if not abs(phi_of(locate()[1])) <= flow.EVENT_TOL:
        raise RuntimeError("the strip wall event was not located")

    y_wavy = start(wavy, [0.3, 0.35 - 0.3 * np.cos(0.3)], [0.2, -1.0])
    x_wavy = y_wavy[sym.X]
    print(json.dumps({
        "rk4_strip_us": round(rk4_us(strip, start(strip, [0.0, 0.5], [0.6, 0.8])), 2),
        "rk4_wavy_us": round(rk4_us(wavy, y_wavy), 2),
        "entries_wavy_us": round(best_us(lambda: wavy.metric.entries(x_wavy), 2000), 3),
        "derivs_wavy_us": round(best_us(lambda: wavy.boundary.derivs(x_wavy), 2000), 3),
        "kernel_build_us": round(kernel_build_us, 1),
        "glide_us_per_sample": round(glide_us / samples, 2),
        "glide_samples": samples,
        "event_us": round(best_us(locate, 200), 2),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
