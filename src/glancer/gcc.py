"""Geometric control audit over sampled characteristic starts.

Traces a family of rays for a time horizon in both directions and reports
whether every traced base curve meets the observation region. The verdict
is always sample-relative: HoldsOnSample, never an unconditional holds,
since the underlying condition quantifies over all generalized rays.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import flow
from . import geometry as geo
from . import scenarios as scen
from . import symbol as sym
from .errors import GlancerError, ValidationError
from .symbol import PhasePoint

log = logging.getLogger("glancer.gcc")

_GOLDEN = 0.6180339887498949
# 2D Kronecker lattice directions from powers of the plastic constant
_KRONECKER = np.array([0.7548776662466927, 0.5698402909980532])


@dataclass
class ObservationRegion:
    """Observation set {expr > 0} over the names t, x1, x2.

    The expression evaluates vectorized and is sent as text to worker
    processes, which compile it again.
    """

    expression: str | None = None

    def __post_init__(self):
        if self.expression is None:
            raise ValidationError("region needs an expression")
        self._fn = scen.compile_expression(self.expression, ("t", "x1", "x2"))

    def contains(self, t: float, x) -> bool:
        """Whether (t, x) lies in the region: the pointwise reference for entered."""
        x = np.asarray(x, dtype=float)
        return bool(float(self._fn(t=float(t), x1=float(x[0]), x2=float(x[1]))) > 0.0)

    def entered(self, t_arr: np.ndarray, X: np.ndarray) -> np.ndarray:
        vals = np.asarray(self._fn(t=t_arr, x1=X[:, 0], x2=X[:, 1]), dtype=float)
        return np.broadcast_to(vals, t_arr.shape) > 0.0


def region_from_expression(expr: str) -> ObservationRegion:
    return ObservationRegion(expression=expr)


@dataclass
class GccReport:
    verdict: str  # "HoldsOnSample" | "FailsWithWitness"
    witness: flow.GenBicharacteristic | None
    witness_backward: flow.GenBicharacteristic | None
    witness_start: PhasePoint | None
    n_samples: int
    n_entered: int
    n_skipped: int
    hit_times: list
    T: float
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.verdict == "HoldsOnSample"

    def summary(self) -> dict:
        hits = np.asarray(self.hit_times, dtype=float)
        return {
            "verdict": self.verdict,
            "T": self.T,
            "n_samples": self.n_samples,
            "n_entered": self.n_entered,
            "n_skipped": self.n_skipped,
            "hit_time_max": float(hits.max()) if hits.size else None,
            "hit_time_mean": float(hits.mean()) if hits.size else None,
            "elapsed_s": self.elapsed,
            "witness_start": self.witness_start.to_dict() if self.witness_start else None,
        }


def default_sampler(scenario, n: int, seed: int = 0):
    """Low-discrepancy characteristic starts with |tau| = 1.

    Positions follow a Kronecker lattice over the chart box (filtered to
    the strict interior), the direction angle follows a golden-ratio
    sequence whose first angle is horizontal; the seed rotates the angle
    sequence. Both time directions are traced later, so tau = +1 suffices.
    """
    lo, hi = scenario.domain_lo, scenario.domain_hi
    span = hi - lo
    offset = (seed * _GOLDEN) % 1.0
    out = []
    k = 0
    while len(out) < n and k < 1000 * max(n, 1):
        u = (0.5 + k * _KRONECKER) % 1.0
        x = lo + span * u
        theta = 2.0 * np.pi * ((k * _GOLDEN + offset) % 1.0)
        k += 1
        if float(scenario.boundary.phi(x)) <= 1e-6 or not geo.in_domain(scenario, x):
            continue
        xi = np.array([np.cos(theta), np.sin(theta)])
        xi = xi / np.sqrt(geo.conorm_sq(scenario, x, xi))
        out.append(PhasePoint(t=0.0, x=x, tau=1.0, xi=xi))
    if len(out) < n:
        raise ValidationError(f"sampler produced {len(out)}/{n} interior starts")
    return out


def _entered_over_trace(scenario, region, T, rho, params, window):
    """Trace both directions in t-windows; stop at the first region entry.

    A characteristic start in the region is entered at hit time 0, before
    any trace.
    """
    flow._check_characteristic(scenario, rho)
    start = rho.as_vector()[None]
    if region.entered(start[:, sym.T], start[:, sym.X])[0]:
        return True, 0.0
    t0 = rho.t
    for direction in (1, -1):
        cur = rho
        t_done = 0.0
        while t_done < T - 1e-12:
            w = min(window, T - t_done)
            gb = flow.trace_generalized(scenario, cur, w, params, direction)
            s, states, kinds, idx = gb.all_samples()
            mask = region.entered(states[:, sym.T], states[:, sym.X])
            if mask.any():
                i = int(np.argmax(mask))
                return True, abs(float(states[i, sym.T]) - t0)
            t_adv = abs(float(states[-1, sym.T]) - cur.t)
            if t_adv <= 1e-12:
                log.info("trace stalled (chart exit?) at t_done = %.3g", t_done)
                break
            t_done += t_adv
            cur = PhasePoint.from_vector(states[-1])
    return False, None


def _audit_one(scenario, region, T, rho, params, window):
    """("entered", hit time), ("witness", None) or ("skipped", reason) for one start."""
    try:
        ent, hit = _entered_over_trace(scenario, region, T, rho, params, window)
    except GlancerError as exc:
        return "skipped", str(exc)
    return ("entered" if ent else "witness"), hit


def _audit_chunk(config, region_expr, T, rows, params, window):
    """_audit_one over the rows in order, up to and including the first witness."""
    scenario = scen.from_config(config)
    region = ObservationRegion(expression=region_expr)
    out = []
    for row in rows:
        rho = PhasePoint.from_vector(np.asarray(row, dtype=float))
        out.append(_audit_one(scenario, region, T, rho, params, window))
        if out[-1][0] == "witness":
            break
    return out


def gcc_check(
    scenario,
    region: ObservationRegion,
    T: float,
    sampler,
    params: flow.IntegratorParams | None = None,
    workers: int | None = None,
) -> GccReport:
    """Audit the control condition on the sampled starts.

    Each start is traced for time T forward and backward, in windows with
    early exit on region entry; a window spans max(T / 8, 4 h). A start
    that lies in the region counts as entered at hit time 0 without a trace,
    so it is entered, not skipped, even where its trace would fail; one off
    the characteristic set is still skipped. The first
    non-entering start (in sampler order, independent of worker count) is
    re-traced in full and returned as the witness. With workers > 1 the
    starts go to a process pool in chunks, at most one per worker at a time;
    their results are read in sampler order, and no chunk is submitted after
    one holds a witness. A scenario that its config does not rebuild (a
    chart scenario, or one built by hand) is audited serially.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    params = params or flow.IntegratorParams()
    window = max(T / 8.0, 4.0 * params.h)
    samples = list(sampler)
    if not samples:
        raise ValueError("no samples to audit")
    t_begin = time.perf_counter()
    results: list = [None] * len(samples)

    # workers rebuild the scenario with from_config, which needs a resolved config
    if workers is not None and workers > 1 and "schema" in scenario.config:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, min(len(samples) // workers + 1, workers * 8))
        los = range(0, len(samples), chunk)
        with ProcessPoolExecutor(max_workers=workers) as pool:

            def submit(lo):
                rows = [rho.as_vector() for rho in samples[lo : lo + chunk]]
                return pool.submit(
                    _audit_chunk, scenario.config, region.expression, T, rows, params, window
                )

            # At most `workers` chunks are submitted at a time: the executor
            # starts one more than its worker count from its queue, so a chunk
            # queued further ahead would run past a witness, uncancellable.
            futs = deque(submit(lo) for lo in los[:workers])
            for k, lo in enumerate(los):
                # a chunk's results end at its first witness, if it holds one
                part = futs.popleft().result()
                results[lo : lo + len(part)] = part
                if part[-1][0] == "witness":
                    break
                if k + workers < len(los):
                    futs.append(submit(los[k + workers]))
    else:
        for i, rho in enumerate(samples):
            results[i] = _audit_one(scenario, region, T, rho, params, window)
            if results[i][0] == "witness":
                break

    # One tally for both branches: it stops at the first witness in sampler
    # order, so the counts do not depend on how far the workers ran ahead.
    n_entered = 0
    n_skipped = 0
    hit_times = []
    witness_idx = None
    for i, r in enumerate(results):
        status, payload = r
        if status == "witness":
            witness_idx = i
            break
        if status == "entered":
            n_entered += 1
            hit_times.append(payload)
        else:
            log.warning("sample %d skipped: %s", i, payload)
            n_skipped += 1

    witness = witness_backward = w_start = None
    if witness_idx is not None:
        w_start = samples[witness_idx]
        witness = flow.trace_generalized(scenario, w_start, T, params, direction=1)
        witness_backward = flow.trace_generalized(scenario, w_start, T, params, direction=-1)
    return GccReport(
        verdict="HoldsOnSample" if w_start is None else "FailsWithWitness",
        witness=witness,
        witness_backward=witness_backward,
        witness_start=w_start,
        n_samples=len(samples),
        n_entered=n_entered,
        n_skipped=n_skipped,
        hit_times=hit_times,
        T=T,
        elapsed=time.perf_counter() - t_begin,
    )
