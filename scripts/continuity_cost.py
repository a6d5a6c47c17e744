#!/usr/bin/env python3
"""Cost of the README continuity sweep: its reference, variants and semi-distance.

Runs the README's strip sweep (start 0,0.1,0.45,1,0.6,0.8, deltas 1e-2,
1e-3, 1e-4, at the CLI defaults h = 1e-3, T = 5, 64 samples, seed 0)
through ``flow.continuity_sweep`` and prints one JSON line with:

* ``sweep_ms``: milliseconds for the whole sweep, one run;
* ``reference_trace_ms``: the reference ray traced in both directions;
* ``variants_ms``: its distance variants (``flow._distance_variants``);
* ``semi_distance_ms``: one ``flow._semi_distance`` call, of the first
  perturbed trace at delta = 1e-2 against those variants;
* ``pairs_per_row``: the cdist pairs per row of that trace the call
  evaluates, against ``all_pairs_per_row``, the variant rows in total,
  which an all-pairs cdist would evaluate.

Each time but ``sweep_ms`` is the best of 3 runs.

Usage:
    python3 scripts/continuity_cost.py
"""

import json
import time

import numpy as np

from glancer import flow
from glancer import scenarios as scen
from glancer.symbol import PhasePoint


def best_ms(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, out


def main():
    strip = scen.builtin("strip")
    rho0 = PhasePoint.from_vector(np.array([0.0, 0.1, 0.45, 1.0, 0.6, 0.8]))
    deltas, T, n_samples, seed = [1e-2, 1e-3, 1e-4], 5.0, 64, 0
    params = flow.IntegratorParams(h=1e-3)

    t0 = time.perf_counter()
    eps_hat = flow.continuity_sweep(strip, rho0, deltas, T, n_samples, params, seed)
    sweep_ms = 1e3 * (time.perf_counter() - t0)

    trace_ms, reference = best_ms(lambda: flow._trace_states_both(strip, rho0, T, params))
    variants_ms, variants = best_ms(lambda: flow._distance_variants(strip, reference))
    rng = np.random.default_rng(seed)
    pert = flow._perturb_characteristic(strip, rho0, deltas[0], rng)
    P = flow._trace_states_both(strip, pert, T, params)
    semi_ms, _ = best_ms(lambda: flow._semi_distance(P, variants))

    pairs = [0]
    cdist = flow.cdist

    def counted(a, b):
        pairs[0] += len(a) * len(b)
        return cdist(a, b)

    flow.cdist = counted
    try:
        flow._semi_distance(P, variants)
    finally:
        flow.cdist = cdist

    print(json.dumps({
        "sweep_ms": round(sweep_ms, 1),
        "reference_trace_ms": round(trace_ms, 2),
        "reference_rows": len(reference),
        "variants_ms": round(variants_ms, 3),
        "semi_distance_ms": round(semi_ms, 3),
        "pairs_per_row": round(pairs[0] / len(P), 1),
        "all_pairs_per_row": sum(len(rows) for rows, _ in variants),
        "eps_hat": eps_hat,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
