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
* ``glide_annulus_us_per_sample``: the same on the annulus's outer wall
  from (0, 1) with xi = (-1, 0);
* ``glide_wavy_us_per_sample``: microseconds per sample of the gliding
  piece on wavy.json's wall, a non-constant metric, from x1 = -0.4 with
  g^-1 xi along -(-d2 phi, d1 phi), tau = 1, up to its hand-off to the
  interior, h = 1e-3 (``flow.integrate_gliding`` alone);
* ``radial_derivs_us``: microseconds per ``derivs`` call of the unit disk's
  wall, at (0.6, 0.8);
* ``event_us``: microseconds per ``flow._locate_scalar_zero`` call that
  locates the strip's wall x2 = 0 to ``flow.EVENT_TOL`` within a step
  h = 1e-3 from x2 = 5e-4, as an interior piece does at a break;
* ``entries_wavy_us`` and ``derivs_wavy_us``: microseconds per metric
  ``entries`` and wall ``derivs`` call of wavy.json, at the point where
  ``rk4_wavy_us`` starts;
* ``metric_at_wavy_us``: microseconds per ``metric.at`` call of wavy.json,
  alternating between that point and (-1.1, 0.6), so that no call is read
  off the last-point memo;
* ``kernel_build_us``: microseconds to build the jet kernels that loading
  wavy.json builds (each metric entry in x1 or x2, and the wall's point
  and row kernels) with the kernel memo cleared first, as a new process
  does.

Each figure is the best of 5 rounds; a round repeats the call 200 times
(``entries``, ``derivs`` and ``at`` 2,000 times, each glide trace 3 times,
the kernel build once).

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


def glide_us_per_sample(scenario, x, xi):
    """(microseconds per sample, samples) of a gliding trace from (x, xi), tau = 1."""
    rho0 = PhasePoint(0.0, np.array(x), 1.0, np.array(xi))
    params = flow.IntegratorParams(h=1e-3)
    gb = flow.trace_generalized(scenario, rho0, 1.0, params)
    if [p.kind for p in gb.pieces] != [flow.GLIDING]:
        raise RuntimeError(f"the trace from {x} is not one gliding piece")
    us = best_us(lambda: flow.trace_generalized(scenario, rho0, 1.0, params), 3)
    return us / gb.n_samples, gb.n_samples


def glide_wavy_us_per_sample(wavy):
    """Microseconds per sample of wavy.json's gliding piece from x1 = -0.4."""
    x = [-0.4, -0.3 * np.cos(-0.4)]
    d1, d2 = wavy.boundary.derivs(x)[:2]
    rho0 = PhasePoint.from_vector(np.array(start(wavy, x, wavy.metric.g(x) @ [d2, -d1])))
    params = flow.IntegratorParams(h=1e-3)

    def glide():
        return flow.integrate_gliding(wavy, rho0, (0.0, 3.0), params)

    piece, ev = glide()
    if ev.reason != "glide_handoff":
        raise RuntimeError(f"the wavy glide ended by {ev.reason}, not a hand-off")
    return best_us(glide, 3) / len(piece)


def build_wavy_kernels():
    config = json.loads(WAVY.read_text())
    phi = config["boundary"]["phi"]
    # an entry in neither x1 nor x2 is folded without a kernel
    varying = {
        str(e) for row in config["metric"]["expressions"] for e in row
        if {"x1", "x2"} & set(compile(str(e), "", "eval").co_names)
    }
    jet._KERNELS.clear()
    for expr in {phi, *varying}:
        jet.kernel(expr)
    jet.row_kernel(phi)


def main():
    strip = scen.builtin("strip")
    wavy = scen.load_scenario(WAVY)
    disk = scen.builtin("disk_interior")
    kernel_build_us = best_us(build_wavy_kernels, 1)
    glide = glide_us_per_sample(disk, [1.0, 0.0], [0.0, 1.0])
    glide_annulus = glide_us_per_sample(scen.builtin("annulus"), [0.0, 1.0], [-1.0, 0.0])
    glide_wavy = glide_wavy_us_per_sample(wavy)

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
    other = [-1.1, 0.6]

    def at_alternating():
        wavy.metric.at(x_wavy)
        wavy.metric.at(other)
    print(json.dumps({
        "rk4_strip_us": round(rk4_us(strip, start(strip, [0.0, 0.5], [0.6, 0.8])), 2),
        "rk4_wavy_us": round(rk4_us(wavy, y_wavy), 2),
        "entries_wavy_us": round(best_us(lambda: wavy.metric.entries(x_wavy), 2000), 3),
        "derivs_wavy_us": round(best_us(lambda: wavy.boundary.derivs(x_wavy), 2000), 3),
        "metric_at_wavy_us": round(best_us(at_alternating, 1000) / 2.0, 3),
        "kernel_build_us": round(kernel_build_us, 1),
        "glide_us_per_sample": round(glide[0], 2),
        "glide_samples": glide[1],
        "glide_annulus_us_per_sample": round(glide_annulus[0], 2),
        "glide_wavy_us_per_sample": round(glide_wavy, 2),
        "radial_derivs_us": round(best_us(lambda: disk.boundary.derivs((0.6, 0.8)), 2000), 3),
        "event_us": round(best_us(locate, 200), 2),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
