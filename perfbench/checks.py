"""Readers for glancer's CLI artifacts and the output checks built on them.

Checks append a message per violated limit to a list of failures; an
empty list means the command's outputs are correct. Limits follow the
package's acceptance criteria (criterion 1 for conservation, criterion 3 for
the circle oracle).
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

TAU_DRIFT_MAX = 1e-9  # criterion 1
SHELL_DRIFT_MAX = 1e-8  # criterion 1: | |xi|_x - |tau| |
CIRCLE_ORACLE_MAX = 1e-6  # criterion 3
GLIDE_STEP_REL = 0.10  # hpz_max against sqrt(8 eps delta)


def read_jsonl(path):
    """(samples as rows s,t,x1,x2,tau,xi1,xi2, event records) of a trace artifact."""
    rows, events = [], []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec["record"]
            if kind == "sample":
                rows.append([rec["s"], rec["t"], *rec["x"], rec["tau"], *rec["xi"]])
            elif kind == "event":
                events.append(rec)
    return np.asarray(rows, dtype=float).reshape(-1, 7), events


def read_csv(path) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def conservation(samples: np.ndarray, tau0: float, g_inv) -> tuple[float, float]:
    """Max |tau - tau0| and max | |xi|_x - |tau| | over sample rows.

    g_inv maps an (n, 2) array of base points to (n, 2, 2) inverse metrics.
    """
    tau = samples[:, 4]
    xi = samples[:, 5:7]
    speed = np.sqrt(np.einsum("ni,nij,nj->n", xi, g_inv(samples[:, 2:4]), xi))
    return float(np.max(np.abs(tau - tau0))), float(np.max(np.abs(speed - np.abs(tau))))


def check_trace(samples, tau0, g_inv, fails: list, info: dict) -> None:
    tau_drift, shell_drift = conservation(samples, tau0, g_inv)
    info["shell_drift"] = max(info.get("shell_drift", 0.0), shell_drift)
    if not tau_drift <= TAU_DRIFT_MAX:
        fails.append(f"tau drift {tau_drift:.3e} > {TAU_DRIFT_MAX:.0e}")
    if not shell_drift <= SHELL_DRIFT_MAX:
        fails.append(f"shell drift {shell_drift:.3e} > {SHELL_DRIFT_MAX:.0e}")


def circle_oracle_error(samples: np.ndarray, theta0: float, orient: float) -> float:
    """Distance to the exact unit-circle glide x = e(theta0 + 2 orient s)."""
    s = samples[:, 0]
    ang = theta0 + 2.0 * orient * s
    c, sn = np.cos(ang), np.sin(ang)
    exact = np.stack([c, sn, -orient * sn, orient * c], axis=1)
    numeric = samples[:, [2, 3, 5, 6]]
    return float(np.max(np.abs(numeric - exact)))


def glide_step_error(hpz_max: float, eps: float, delta: float) -> float:
    law = math.sqrt(8.0 * eps * delta)
    return abs(hpz_max - law) / law
