#!/usr/bin/env python3
"""Transport-identity residual versus step size on a one-bounce trace.

Traces a half-plane ray through a single reflection, builds the curve
measure and its boundary companion at several step sizes, and tabulates
the residual of the weak transport identity against a fixed phase-space
bump. The residual should shrink at first order or better; with the
trapezoid weighting used here it lands near second order.

Usage:
    python3 scripts/transport_convergence.py
    python3 scripts/transport_convergence.py --hs 2e-3,1e-3,5e-4 --damping
"""

import argparse
import sys

import numpy as np

from glancer import flow, measures
from glancer import scenarios as scen
from glancer.symbol import PhasePoint


def bump():
    return measures.TestFunction(
        center=PhasePoint(-1.05, np.array([0.75, 0.15]), 1.0, np.array([0.6, 0.25])),
        width_t=0.8,
        width_x=0.6,
        width_xi=1.3,
        beta_axis=np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0]),
        beta_shift=0.45,
        beta_scale=0.8,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hs", default="4e-3,2e-3,1e-3,5e-4,1e-4")
    ap.add_argument("--t-horizon", type=float, default=2.4)
    ap.add_argument("--damping", action="store_true", help="use f = 1 instead of f = 0")
    args = ap.parse_args(argv)

    scenario = scen.builtin("half_plane")
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8]))
    f = (lambda t, x: 1.0) if args.damping else None
    a = bump()

    hs = [float(h) for h in args.hs.split(",")]
    residuals = []
    print(f"damping={'f=1' if args.damping else 'f=0'}  horizon={args.t_horizon}")
    print(f"{'h':>10}  {'residual':>12}  {'order':>6}")
    for h in hs:
        gb = flow.trace_generalized(scenario, rho0, args.t_horizon, flow.IntegratorParams(h=h))
        cm = measures.dirac_on_bichar(scenario, gb, f=f)
        nu = measures.boundary_measure_of(scenario, cm)
        res = measures.transport_residual(scenario, cm, nu, a, f=f)
        if residuals:
            order = np.log(residuals[-1][1] / res) / np.log(residuals[-1][0] / h)
            print(f"{h:10.1e}  {res:12.5e}  {order:6.2f}")
        else:
            print(f"{h:10.1e}  {res:12.5e}  {'-':>6}")
        residuals.append((h, res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
