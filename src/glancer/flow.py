"""Generalized ray tracing with boundary events.

Interior Hamiltonian integration with located boundary events, specular
reflection, gliding arcs traced as a flow along the boundary curve, diffractive
pass-through, the discrete glancing-step construction, and perturbation
probes for flow continuity. States are packed [t, x1, x2, tau, xi1, xi2],
as PhasePoint.as_vector writes them, indexed through the positions symbol
names (sym.T, sym.X, sym.TAU, sym.XI).

Every ray flight runs through one fixed-step marcher, _march. Flights,
event location (_locate_scalar_zero) and the straight-run planner step
with one RK4, _rk4_increment, on lists of floats; numpy rows are built only
where _march records the samples and in the planner's array passes. _march
takes the steps (the last one ends on the span end), enforces the step
budget and finiteness, records the samples and applies the chart-box
policy. Each caller passes its step map and its projection and event
checks, run after every step in this order:

* interior piece: RK4 on the Hamiltonian field (_rk4_step); shell
  projection, the phi crossing, the chart box, the tangency (q =
  d(phi)/d(sigma) turning from - to +; a turning point beyond the wall is
  a crossing and a return within one step, and the crossing is the
  event), each located within the step by _locate_scalar_zero. The field
  is computed on floats (sym.field_values) from the metric's float
  reading (MetricEval.at): fixed under a constant metric, else one
  evaluation per RK stage, where the projection and q at the new state
  share one evaluation through the reading's last-point memo, which the
  next step's k1 reuses;
* gliding piece: RK4 on (t, x1, x2), one boundary derivs and metric g
  evaluation per stage, k1 taken from the settled sample; the chart box, x
  settled on phi = 0 and xi rebuilt there, the hp2z exit hysteresis (two
  consecutive samples above GLIDING_EXIT);
* chord flight to its apex (glancing-step construction): RK4 as for the
  interior; the chart box, shell projection, q turning from + to -
  (located as above).

Every product on a 2-vector, a 2x2 matrix or a phase row is taken on
floats: the shell rescale, q (sym.contact_values' hpz), the Newton steps
toward a level of phi (geo.newton_to_level), the glancing-step vertices
and the compressed distance, which sums its squares in order. None goes
through numpy's @ or norm, whose BLAS kernels round differently from one
CPU to the next.

Under a constant metric an interior piece is a straight line with a fixed
covector, and most of its steps are planned rather than taken one by one
(_StraightRuns, the plan hook of _march). The rows ahead are built in one
array pass per chunk, with the same bits the loop would produce, and
screened at once with the row forms of phi and the chart box: a step whose
start and end rows are finite, above phi = 1e-9 and inside the box is
recorded in bulk when both rows lie above the tangency gate by 1e-9, or,
inside the gate band, when the row q (from the boundary's row derivatives)
cannot turn from - to + across it: q >= m at its start or q <= -m at its
end, with the margin m = 1e-9 * max(1, |tau|) for the rounding between row
and scalar q. Every other step, at the boundary, a possible tangency, the
box edge or the span end, runs through the loop and its checks above, so
every event is decided as before.

Sample records are written as JSON lines from a fixed template of repr
floats (trajectory_records), with the bytes json.dumps(..., sort_keys=True)
would write; a non-finite value raises ValueError instead of becoming NaN.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import geometry as geo
from . import symbol as sym
from .errors import (
    DegenerateNormal,
    DegenerateTransversal,
    LeftChart,
    MaxPiecesExceeded,
    MaxStepsExceeded,
    NotCharacteristic,
    OutOfChart,
    ProjectionDiverged,
    StepFailure,
)
from .symbol import PhasePoint, Tag

log = logging.getLogger("glancer.flow")

INTERIOR = "Interior"
GLIDING = "Gliding"
EVENT_TOL = 1e-10  # |phi| of a step start on the wall, and the most a located crossing may read
GLIDING_EXIT = 1e-7  # hp2z above which a gliding piece hands off to the interior


@dataclass(frozen=True)
class IntegratorParams:
    """Fixed-step integration controls shared by all tracing entry points."""

    h: float = 1e-3
    max_pieces: int = 256
    max_steps: int = 2_000_000
    tangency_gate: float = 0.05

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("step size h must be positive")


@dataclass
class TrajectoryPiece:
    """One contiguous run of samples, either interior flow or a gliding arc.

    s holds the signed curve parameter (monotone along the trace direction);
    states holds one packed phase vector per row.
    """

    kind: str
    s: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


@dataclass
class ExitEvent:
    reason: str  # "span_end" | "boundary" | "chart_exit" | "glide_handoff" | "apex"
    s: float
    rho: PhasePoint
    bclass: sym.BoundaryClass | None = None


@dataclass
class Break:
    """Hyperbolic jump: rho_plus = Sigma(rho_minus), shared base point."""

    s: float
    rho_minus: PhasePoint
    rho_plus: PhasePoint


@dataclass
class GenBicharacteristic:
    pieces: list[TrajectoryPiece]
    break_set: list[Break]
    junctions: list[tuple[float, sym.BoundaryClass]]
    dim = 2  # every trace is 2-D

    def all_samples(self):
        """Concatenated (s, states, kind_code, piece_index) across pieces.

        kind_code is 0 for interior samples and 1 for gliding samples.
        Junction s-values appear twice (end of one piece, start of the next),
        which quadrature treats as a zero-width interval.
        """
        ss, sts, kinds, idx = [], [], [], []
        for k, p in enumerate(self.pieces):
            ss.append(p.s)
            sts.append(p.states)
            code = 1 if p.kind == GLIDING else 0
            kinds.append(np.full(len(p.s), code, dtype=np.int8))
            idx.append(np.full(len(p.s), k, dtype=np.int32))
        return (
            np.concatenate(ss),
            np.vstack(sts),
            np.concatenate(kinds),
            np.concatenate(idx),
        )

    @property
    def n_samples(self) -> int:
        return sum(len(p) for p in self.pieces)


def _interior_rhs(scenario, direction: float):
    """H_p at a packed state, times direction, as a list of six floats
    (sym.field_values); the metric is read through its at, once per call."""
    at = scenario.metric.at

    def rhs(y):
        _, x1, x2, tau, xi1, xi2 = y
        gi, dg = at((x1, x2))
        return [direction * v for v in sym.field_values(gi, dg, tau, xi1, xi2)]

    return rhs


def _rk4_increment(f, y, h, k1=None):
    """The RK4 increment (h / 6) (k1 + 2 k2 + 2 k3 + k4) of the field f over a
    step h from y, on floats, with k1 = f(y) unless given; every term in the
    order numpy takes on rows, so the bits are those of the row formula."""
    if k1 is None:
        k1 = f(y)
    a = 0.5 * h
    k2 = f([u + a * k for u, k in zip(y, k1)])
    k3 = f([u + a * k for u, k in zip(y, k2)])
    k4 = f([u + h * k for u, k in zip(y, k3)])
    w = h / 6.0
    return [w * (p + 2.0 * q + 2.0 * r + v) for p, q, r, v in zip(k1, k2, k3, k4)]


def _rk4_step(f, y, h, k1=None):
    return [u + d for u, d in zip(y, _rk4_increment(f, y, h, k1))]


def _rescale_char(scenario, y) -> None:
    """Project xi onto the characteristic shell |xi|_x = |tau| in place, on
    floats, with g^-1 from the metric's reading."""
    _, x1, x2, tau, xi1, xi2 = y
    gi = scenario.metric.at((x1, x2))[0]
    s1, s2 = geo.sharp(gi, xi1, xi2)
    nrm = math.sqrt(xi1 * s1 + xi2 * s2)
    target = abs(tau)
    if nrm < 1e-300:
        return
    factor = target / nrm
    if abs(factor - 1.0) > 0.1:
        raise StepFailure(
            f"characteristic drift too large for projection: |xi| = {nrm:.6g}, "
            f"|tau| = {target:.6g}; reduce the step size"
        )
    y[sym.XI] = xi1 * factor, xi2 * factor


def _approach_rate(scenario, sgn: float):
    """q(y) = d(phi)/d(sigma) = sgn * hpz at a packed state, without the chart
    check: the hpz of sym.contact_values on the boundary's derivs and g^-1
    from the metric's reading."""
    at, derivs = scenario.metric.at, scenario.boundary.derivs

    def q(y):
        _, x1, x2, tau, xi1, xi2 = y
        x = (x1, x2)
        return sgn * sym.contact_values(derivs(x), at(x)[0], None, tau, xi1, xi2)[1]

    return q


def _check_characteristic(scenario, rho: PhasePoint) -> None:
    scale = max(1.0, rho.tau * rho.tau)
    p0 = sym.p_eval(scenario, rho)
    if not (math.isfinite(p0) and abs(p0) <= 1e-6 * scale):
        raise NotCharacteristic(f"p(rho) = {p0:.3e}; start must lie on the characteristic set")


def _locate_scalar_zero(rhs, y_from, h, value_of, tol, v_lo, v_hi, start_zero=False):
    """Locate the sign change of value_of along RK4 substeps sigma in (0, h]
    from y_from: the Illinois method (Dowell & Jarratt, BIT 1971),
    safeguarded by bisection and iterated to rounding (Shampine, Gladwell &
    Brankin, ACM TOMS 1991).

    value_of maps a packed state to a scalar that reads v_lo (>= 0-side) at
    sigma = 0 and v_hi <= 0 at sigma = h, as the caller holds them: phi
    depends on x alone, which the shell rescale leaves, and q at the
    rescaled state has the sign of q at the substep (the rescale scales xi
    by a positive factor), so no probe is spent on either end. Each probe
    is one RK4 substep from y_from, at the regula falsi point of the
    bracket, with the kept end's value halved when the same end is kept
    twice. The probe bisects instead when that point leaves the open
    bracket, when the bracket has not halved over the last two probes, or,
    with start_zero (value_of has a second zero at sigma = 0), while the
    bracket still starts there. The search ends at a zero value or when
    the bracket can no longer shrink in floating point. Returns (sigma,
    state) at the probed end of the bracket with the smaller |value| if
    that is within tol, else at the last probe with a value that is not >
    0, or None if there is none.
    """
    lo, hi = 0.0, h
    ends = [None, None]  # (|value|, sigma, state) at the probed lo and hi
    moved = 0  # the end the last probe moved: +1 lo, -1 hi
    widths = [math.inf] * 2  # the bracket widths before the last two probes
    for _ in range(200):
        width = hi - lo
        sig = 0.5 * (lo + hi)
        if width <= 0.5 * widths[0] and (lo > 0.0 or not start_zero):
            secant = lo + width * (v_lo / (v_lo - v_hi))
            if lo < secant < hi:
                sig = secant
        if not lo < sig < hi:
            break
        y = _rk4_step(rhs, y_from, sig)
        v = value_of(y)
        if v == 0.0:
            return sig, y
        if v > 0.0:
            lo, v_lo, ends[0] = sig, v, (v, sig, y)
            if moved > 0:
                v_hi *= 0.5
            moved = 1
        else:
            hi, v_hi, ends[1] = sig, v, (abs(v), sig, y)
            if moved < 0:
                v_lo *= 0.5
            moved = -1
        widths = widths[1:] + [width]
    near = min((e for e in ends if e is not None and e[0] <= tol), default=ends[1],
               key=lambda e: e[0])
    return None if near is None else near[1:]


_CHART_EXIT = ("chart_exit", 0.0, None)
_LAST_STEP = 1.0 + 1e-9  # a remainder of the span under this many steps h is one step


def _march(kind, step, y, s_span, params, direction, advance, plan=None):
    """Fixed steps y_new = step(y, h) on the clock sigma in s_span; recorded s =
    direction * sigma. A remainder of the span under h (1 + 1e-9) is one
    last step, after which sigma is the span end exactly.

    step maps the last accepted state and a step length to the next state;
    the interior pieces pass partial(_rk4_step, rhs), the gliding piece its
    RK4 on (t, x1, x2). After each step, advance(y, y_new, h) projects y_new in
    place and runs the caller's event checks. It returns None to accept the
    step, or (reason, dsigma, y_event) to end the piece with y_event
    recorded at sigma + dsigma (None: at the last accepted state). A step
    that leaves the chart box, at an RK stage (OutOfChart) or as a check
    finds it (_CHART_EXIT), ends the piece there with "chart_exit". The
    returned ExitEvent has no bclass.

    plan, when given, is asked before each step for a run of steps ahead of
    (y, sigma, steps taken) that advance would accept unchanged: None, or
    (sigmas, states) with one row per step, which are recorded as they are.
    """
    sig0, sig1 = float(s_span[0]), float(s_span[1])
    if sig1 <= sig0:
        raise ValueError(f"empty integration span {s_span}")
    sgn = float(direction)
    ss = [sgn * sig0]
    ys = [y.copy()]  # the stepped rows since the last planned run
    chunks = []  # the rows before them, as arrays
    sig = sig0
    steps = 0
    event = None
    reach = params.h * _LAST_STEP
    while sig < sig1:
        run = plan(y, sig, steps) if plan is not None else None
        if run is not None:
            sigs, states = run
            ss.extend((sgn * sigs).tolist())
            if ys:
                chunks.append(np.array(ys))
                ys = []
            chunks.append(states)
            steps += len(sigs)
            sig = float(sigs[-1])
            y = states[-1].tolist()
            continue
        last = sig1 - sig < reach
        h = sig1 - sig if last else params.h
        try:
            y_new = step(y, h)
        except OutOfChart:
            event = _CHART_EXIT
            break
        steps += 1
        if steps > params.max_steps:
            raise MaxStepsExceeded(f"more than {params.max_steps} {kind.lower()} steps")
        if not all(map(math.isfinite, y_new)):
            raise StepFailure("non-finite state produced by the integrator")
        event = advance(y, y_new, h)
        if event is not None:
            break
        sig = sig1 if last else sig + h
        ss.append(sgn * sig)
        ys.append(y_new)
        y = y_new
    reason, dsig, y_event = event or ("span_end", 0.0, None)
    if y_event is not None:
        ss.append(sgn * (sig + dsig))
        ys.append(y_event)
    if ys:
        chunks.append(np.array(ys))
    states = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    piece = TrajectoryPiece(kind=kind, s=np.asarray(ss, dtype=float), states=states)
    end = PhasePoint.from_vector(piece.states[-1].copy())
    return piece, ExitEvent(reason, ss[-1], end)


class _StraightRuns:
    """Plan hook for interior pieces under a constant metric.

    There the RK4 increment depends on (tau, xi) alone, and xi changes only
    through the shell projection, a map of xi that settles at once into a
    fixed point or a short cycle. The rows ahead are then (tau, xi) from that
    cycle and t, x accumulated from its increments; np.add.accumulate adds
    in order, as the loop does, so the rows carry the loop's bits. They are
    planned in chunks that double (64, 128, ... rows) up to the span end and
    the step budget, and screened at once, step by step. A row is clear when
    it is finite, phi > 1e-9 and it lies more than 1e-12 inside the widened
    chart box. A step between two clear rows is clear when both rows lie
    above the tangency gate band, phi > max(tangency_gate, 0) + 1e-9, or
    when q = sgn * 2 dphi . (g^-1 xi) cannot turn from - to + across it:
    q >= margin at its start or q <= -margin at its end, with the margin
    1e-9 * max(1, |tau|) (q is of degree 1 in (tau, xi)). The margin covers
    the rounding difference between the row q, read from derivs_on_rows
    only for the steps that touch the band, and the scalar q the loop
    reads. A clear step passes every check of the interior advance; any
    other step is left to the loop.
    """

    FIRST_CHUNK = 64
    MAX_CYCLE = 8
    FLOOR = 1e-9  # phi of a clear row; also the q margin per unit of max(1, |tau|)

    def __init__(self, scenario, rhs, params, sig1, sgn):
        self.scenario = scenario
        self.rhs = rhs
        self.params = params
        self.sig1 = sig1
        self.sgn = sgn
        self.level = max(params.tangency_gate, 0.0) + self.FLOOR
        self.lo = np.array(scenario.box[:2]) + 1e-12
        self.hi = np.array(scenario.box[2:]) - 1e-12
        self.size = self.FIRST_CHUNK
        self.dead = False
        self.cycle = None  # (vs, incs, j, steps at vs[0]) from _settle
        self.chunk = None  # (steps at row 0, sigmas, states, clear steps)

    def _settle(self, y):
        """(tau, xi) rows and step increments from y until they repeat.

        Returns (vs, incs, j): row k has (tau, xi) = vs[k] and takes the
        increment incs[k]; rows from j on cycle through vs[j:]. None when no
        cycle shows within MAX_CYCLE rows or the projection fails. Rows are
        compared by their bytes, so -0.0 and 0.0 stay apart.
        """
        h = self.params.h
        keys, vs, incs = [], [], []
        for _ in range(self.MAX_CYCLE):
            key = np.array(y[sym.TAU :]).tobytes()
            if key in keys:
                return np.array(vs), np.array(incs), keys.index(key)
            keys.append(key)
            vs.append(y[sym.TAU :])
            inc = _rk4_increment(self.rhs, y, h)
            incs.append(inc)
            y = [u + d for u, d in zip(y, inc)]
            try:
                _rescale_char(self.scenario, y)
            except StepFailure:
                return None
        return None

    def _build(self, y, sig, steps):
        """Plan the chunk of full steps from y; False when none is possible."""
        params = self.params
        n = min(self.size, params.max_steps - steps)
        reach = params.h * _LAST_STEP
        if n < 1 or self.sig1 - sig < reach:
            return False
        if self.cycle is None:
            settled = self._settle(y)
            if settled is None:
                self.dead = True
                return False
            self.cycle = (*settled, steps)
        vs, incs, j, origin = self.cycle
        self.size *= 2
        sigs = np.add.accumulate(np.concatenate(([sig], np.full(n, params.h))))
        full = self.sig1 - sigs[:-1] >= reach
        n = int(full.argmin()) if not full.all() else n
        sigs = sigs[: n + 1]
        rows = np.arange(steps - origin, steps - origin + n + 1)
        k = np.where(rows < j, rows, j + (rows - j) % (len(vs) - j))
        # (t, x) accumulate; (tau, xi) come from the cycle
        states = np.empty((n + 1, len(y)))
        tx = np.concatenate(([y[: sym.TAU]], incs[k[:-1], : sym.TAU]))
        np.add.accumulate(tx, axis=0, out=states[:, : sym.TAU])
        states[:, sym.TAU :] = vs[k]
        X = states[:, sym.X]
        with np.errstate(all="ignore"):
            phi = self.scenario.boundary.phi_on_rows(X)
            ok = (
                np.isfinite(states).all(axis=1)
                & (phi > self.FLOOR)
                & ((X > self.lo) & (X < self.hi)).all(axis=1)
            )
            clear = ok[:-1] & ok[1:]
            # steps that touch the gate band are clear only by the q screen
            band = np.flatnonzero(clear & ~((phi[:-1] > self.level) & (phi[1:] > self.level)))
            if band.size:
                q = np.full(n + 1, np.nan)
                at = np.union1d(band, band + 1)
                q[at] = self._q_rows(states[at])
                m = self.FLOOR * max(1.0, abs(float(y[sym.TAU])))
                clear[band] = (q[band] >= m) | (q[band + 1] <= -m)
        self.chunk = (steps, sigs, states, clear)
        return True

    def _q_rows(self, rows):
        """q = sgn * hpz at each row, from the boundary's row derivatives."""
        X = rows[:, sym.X]
        d = self.scenario.boundary.derivs_on_rows(X)
        xi1, xi2 = rows[:, sym.XI].T
        gi = self.scenario.metric.at_rows(X)[0]
        return self.sgn * sym.contact_values(d, gi, None, rows[:, sym.TAU], xi1, xi2)[1]

    def __call__(self, y, sig, steps):
        if self.dead:
            return None
        i = -1 if self.chunk is None else steps - self.chunk[0]
        if i < 0 or i >= len(self.chunk[1]) - 1:  # no chunk, or y is past its rows
            if not self._build(y, sig, steps):
                return None
            i = 0
        elif np.array(y).tobytes() != self.chunk[2][i].tobytes():
            self.dead = True  # the loop left the plan: it steps alone from here
            return None
        _, sigs, states, clear = self.chunk
        # the run takes the clear steps from row i up to the first other step
        rest = clear[i:]
        k = i + 1 + (len(rest) if rest.all() else int(rest.argmin()))
        if k == i + 1:
            return None
        return sigs[i + 1 : k], states[i + 1 : k]


def integrate_interior(
    scenario,
    rho0: PhasePoint,
    s_span,
    params: IntegratorParams | None = None,
    direction: int = 1,
    _skip_tangency_steps: int = 0,
) -> tuple[TrajectoryPiece, ExitEvent]:
    """Trace the Hamiltonian flow until the span ends or the boundary is met.

    The trace runs on the internal clock sigma in [s_span[0], s_span[1]];
    recorded s values are direction * sigma. Boundary crossings are located
    to rounding (_locate_scalar_zero), at |phi| <= EVENT_TOL, and returned
    classified; a step start within EVENT_TOL of the wall that leaves the
    domain is the crossing itself, and so is the crossing of a step whose
    turning point of phi lies beyond the wall, though both its ends lie
    inside. Exact tangential contacts (phi dips to 0 with no sign change)
    are also detected and returned as boundary events, so diffractive
    pass-throughs are visible to the caller.
    """
    params = params or IntegratorParams()
    _check_characteristic(scenario, rho0)
    sgn = float(direction)
    rhs = _interior_rhs(scenario, sgn)
    phi_f = scenario.boundary.phi
    q_of = _approach_rate(scenario, sgn)
    b_tol = scenario.thresholds.boundary_tol

    def phi_of(y):
        return float(phi_f(y[sym.X]))

    y0 = rho0.as_vector().tolist()
    phi_prev = phi_of(y0)
    q_prev = q_of(y0)
    if phi_prev < -10.0 * EVENT_TOL:
        raise StepFailure(f"interior start lies outside the domain: phi = {phi_prev:.3e}")
    skip = int(_skip_tangency_steps)

    def crossing(y, h, phi_end):
        """The boundary event of the step of length h from y, at whose end
        phi reads phi_end < 0: the located crossing, or y itself, the last
        accepted state, when it lies on the wall (phi <= EVENT_TOL, which the
        start check bounds below) and leaves the domain there."""
        on_wall = phi_prev <= EVENT_TOL
        found = None
        if phi_prev > 0.0 or q_prev > 0.0:
            # a step that starts on the wall as it enters the domain has a
            # second zero at its start
            found = _locate_scalar_zero(rhs, y, h, phi_of, EVENT_TOL, phi_prev, phi_end,
                                        on_wall and q_prev > 0.0)
        if found is None or found[0] < 1e-12 * h:
            if on_wall and q_prev < 0.0:
                return "boundary", 0.0, None
            if found is None:
                raise StepFailure("boundary location failed to bracket the crossing")
            raise StepFailure("boundary crossing at zero step; reduce the step size")
        sig_hit, y_hit = found
        _rescale_char(scenario, y_hit)
        return "boundary", sig_hit, y_hit

    def advance(y, y_new, h):
        nonlocal phi_prev, q_prev, skip
        _rescale_char(scenario, y_new)
        phi_new = phi_of(y_new)
        q_new = q_of(y_new)

        # Boundary crossing is checked before the chart box: a step that
        # overshoots the boundary usually leaves the box as well when the
        # box is the closure of the domain, and must still count as a hit.
        if phi_new < -1e-14:
            return crossing(y, h, phi_new)

        if not geo.in_domain(scenario, y_new[sym.X]):
            return _CHART_EXIT

        if skip > 0:
            skip -= 1
        elif q_prev < 0.0 <= q_new and min(phi_prev, phi_new) <= params.tangency_gate:
            # The trajectory stopped approaching the boundary inside this
            # step; if the turning point actually reaches phi = 0 it is a
            # tangential contact (diffractive or worse), not a crossing; if
            # it lies beyond the wall, the step crossed the wall and came
            # back. q runs negative to positive here, so the search is on -q.
            found = _locate_scalar_zero(rhs, y, h, lambda yy: -q_of(yy), 1e-12, -q_prev, -q_new)
            if found is not None:
                sig_t, y_t = found
                phi_t = phi_of(y_t)
                if abs(phi_t) <= max(b_tol, 10.0 * EVENT_TOL):
                    _rescale_char(scenario, y_t)
                    return "boundary", sig_t, y_t
                if phi_t < -1e-14:
                    return crossing(y, sig_t, phi_t)

        phi_prev, q_prev = phi_new, q_new
        return None

    plan = None
    if scenario.metric.is_constant:
        runs = _StraightRuns(scenario, rhs, params, float(s_span[1]), sgn)

        def plan(y, sig, steps):
            # A run needs a clear start row and no pending tangency skips;
            # after it, advance reads phi_prev and q_prev at its last row.
            nonlocal phi_prev, q_prev
            if skip > 0 or not phi_prev > runs.FLOOR:
                return None
            run = runs(y, sig, steps)
            if run is not None:
                phi_prev, q_prev = phi_of(run[1][-1]), q_of(run[1][-1])
            return run

    step = partial(_rk4_step, rhs)
    piece, ev = _march(INTERIOR, step, y0, s_span, params, direction, advance, plan)
    if ev.reason == "boundary":
        ev.bclass = sym.classify_boundary_point(scenario, ev.rho)
    return piece, ev


def integrate_gliding(
    scenario,
    rho0: PhasePoint,
    s_span,
    params: IntegratorParams | None = None,
    direction: int = 1,
) -> tuple[TrajectoryPiece, ExitEvent]:
    """Trace a gliding arc: the boundary curve traversed at g-speed 2|tau|.

    On the gliding set {phi = 0, hpz = 0, p = 0} of a 2-D domain, hpz = 0 makes
    g^-1 xi = c v for the tangent v = J dphi = (-d2 phi, d1 phi), so xi = c g v,
    and p = 0 with the sense of motion sgn = sign <xi, v> at the start gives
    c = sgn |tau| / |v|_g. H_p moves t by -2 tau and x by 2 g^-1 xi = 2 c v, so
    RK4 steps (t, x1, x2) alone on direction * (-2 tau, 2 c v), with k1 from
    the settled sample. The start and each step are settled: x by Newton along
    the metric gradient of phi to |phi| <= 1e-12 (ProjectionDiverged after 25
    steps), then xi = c g v there. Hands off to the interior when hp2z, read
    on the settled state, exceeds GLIDING_EXIT at two consecutive samples;
    the event points at the first.

    Each RK stage is one closure on floats: the chart-box test of
    geo._require_in_domain, one call of the boundary's derivs, g as floats
    (MetricEval.g_values, read once per piece under a constant metric), the
    tangent with the hz2p >= 1e-8 check (DegenerateTransversal) and the
    field. The one stage at a settled x also rebuilds xi, is the next
    step's k1 and gives hp2z on floats (sym.contact_values), with the
    metric's float reading there (MetricEval.at).

    The start must be a boundary point (NotOnBoundary past boundary_tol)
    that classifies as Gliding or Glancing3 (ValueError otherwise).
    """
    params = params or IntegratorParams()
    bc = sym.classify_boundary_point(scenario, rho0)
    if bc.tag not in (Tag.GLIDING, Tag.GLANCING3):
        raise ValueError(f"a gliding piece starts on the gliding set, got {bc.tag.value}")
    metric, derivs = scenario.metric, scenario.boundary.derivs
    g_const = metric.g_values((0.0, 0.0)) if metric.is_constant else None
    lo1, lo2, hi1, hi2 = scenario.box
    y0 = rho0.as_vector().tolist()
    tau = y0[sym.TAU]
    kt = direction * (-2.0 * tau)
    d = derivs(y0[sym.X])
    xi1, xi2 = y0[sym.XI]
    c_num = math.copysign(abs(tau), xi1 * -d[1] + xi2 * d[0])  # c |v|_g = sgn |tau|
    k1 = []  # the field at the last settled x
    at_x = ()  # derivs, g v and |v|_g at the x of the last stage

    def stage(z):
        """The field direction * (-2 tau, 2 c v) at z = (t, x1, x2), after the
        chart test; leaves derivs, g v and |v|_g there in at_x."""
        nonlocal at_x
        _, x1, x2 = z
        if not (lo1 <= x1 <= hi1 and lo2 <= x2 <= hi2):
            raise OutOfChart(f"point {np.array((x1, x2))} outside domain box of '{scenario.name}'")
        d = derivs((x1, x2))
        g11, g12, g22 = g_const or metric.g_values((x1, x2))
        # the level-curve tangent v = J dphi = (-d2 phi, d1 phi), g v and
        # v.gv; in 2-D J^T g J = det(g) g^-1, so hz2p = 2 |v|_g^2 / det g
        v1, v2 = -d[1], d[0]
        gv1 = g11 * v1 + g12 * v2
        gv2 = g12 * v1 + g22 * v2
        vgv = v1 * gv1 + v2 * gv2
        hz2p = 2.0 * vgv / (g11 * g22 - g12 * g12)
        if hz2p < 1e-8:
            raise DegenerateTransversal(f"hz2p = {hz2p:.3e} too small at x = {np.array((x1, x2))}")
        nv = math.sqrt(vgv)
        at_x = d, gv1, gv2, nv
        a = 2.0 * c_num / nv
        return kt, direction * (a * v1), direction * (a * v2)

    def settle(y):
        """Settle y on the gliding set in place; returns derivs and xi at its x."""
        x, ph = geo.newton_to_level(scenario.boundary, y[sym.X], 0.0, 25, 1e-12, metric)
        if abs(ph) > 1e-12:
            raise ProjectionDiverged("gliding projection onto phi = 0 did not converge")
        k1[:] = stage((0.0, *x))
        d, gv1, gv2, nv = at_x
        c = c_num / nv
        xi1, xi2 = c * gv1, c * gv2
        y[sym.X] = x
        y[sym.XI] = (xi1, xi2)
        return d, xi1, xi2

    def step(y, h):
        # _march steps from the last accepted state, which settle has
        # checked against the chart box
        return _rk4_step(stage, y[: sym.TAU], h, k1) + y[sym.TAU :]

    settle(y0)
    exceed = 0

    def advance(y, y_new, h):
        nonlocal exceed
        x1, x2 = y_new[sym.X]
        if not (lo1 <= x1 <= hi1 and lo2 <= x2 <= hi2):
            return _CHART_EXIT
        d, xi1, xi2 = settle(y_new)
        hp2z = sym.contact_values(d, *metric.at(y_new[sym.X]), tau, xi1, xi2)[2]
        exceed = exceed + 1 if hp2z > GLIDING_EXIT else 0
        return ("glide_handoff", 0.0, None) if exceed >= 2 else None

    piece, ev = _march(GLIDING, step, y0, s_span, params, direction, advance)
    if ev.reason == "glide_handoff":
        ev.bclass = sym.classify_boundary_point(scenario, ev.rho)
    return piece, ev


def trace_generalized(
    scenario,
    rho0: PhasePoint,
    t_horizon: float,
    params: IntegratorParams | None = None,
    direction: int = 1,
    until=None,
) -> GenBicharacteristic:
    """Trace the full broken/gliding ray until |t - t0| reaches t_horizon.

    direction=+1 advances the curve parameter s forward, -1 backward; since
    dt/ds = -2 tau, time runs opposite to s for tau > 0 either way. Breaks
    are always recorded with rho_plus = Sigma(rho_minus) regardless of the
    trace direction. until, when given, is called with each piece as it is
    traced, and a true answer ends the trace with that piece.
    """
    params = params or IntegratorParams()
    if t_horizon <= 0:
        raise ValueError("t_horizon must be positive")
    if rho0.tau == 0.0:
        raise NotCharacteristic("tau = 0: the ray parametrization degenerates")
    _check_characteristic(scenario, rho0)
    sigma_max = t_horizon / (2.0 * abs(rho0.tau))
    pieces: list[TrajectoryPiece] = []
    breaks: list[Break] = []
    junctions: list[tuple[float, sym.BoundaryClass]] = []
    sigma = 0.0
    rho = rho0
    skip = 0

    def record_break(s, encountered):
        other = sym.sigma(scenario, encountered)
        if direction > 0:
            breaks.append(Break(s, rho_minus=encountered, rho_plus=other))
        else:
            breaks.append(Break(s, rho_minus=other, rho_plus=encountered))
        return other

    phi0 = float(scenario.boundary.phi(rho.x))
    if phi0 > scenario.thresholds.boundary_tol:
        mode = "interior"
    elif phi0 < -scenario.thresholds.boundary_tol:
        raise StepFailure(f"start lies outside the domain: phi = {phi0:.3e}")
    else:
        bc = sym.classify_boundary_point(scenario, rho)
        if bc.tag in (Tag.GLIDING, Tag.GLANCING3):
            mode = "gliding"
        elif bc.tag in (Tag.HYPERBOLIC_IN, Tag.HYPERBOLIC_OUT):
            mode = "interior"
            if direction * bc.hpz <= 0:
                rho = record_break(0.0, rho)
        elif bc.tag is Tag.DIFFRACTIVE:
            junctions.append((0.0, bc))
            mode = "interior"
            skip = 2
        else:
            raise NotCharacteristic(f"cannot start a trace from a {bc.tag.value} point")

    while sigma < sigma_max:
        if len(pieces) >= params.max_pieces:
            raise MaxPiecesExceeded(f"more than {params.max_pieces} trajectory pieces")
        if mode == "interior":
            piece, ev = integrate_interior(
                scenario, rho, (sigma, sigma_max), params, direction, _skip_tangency_steps=skip
            )
        else:
            piece, ev = integrate_gliding(scenario, rho, (sigma, sigma_max), params, direction)
        pieces.append(piece)
        sigma = abs(ev.s)
        if until is not None and until(piece):
            break
        if ev.reason in ("span_end", "chart_exit"):
            if ev.reason == "chart_exit":
                log.info("%s piece left the chart at s = %.6g", piece.kind, ev.s)
            break
        bc = ev.bclass
        rho, skip = ev.rho, 0
        if mode == "gliding" or bc.tag is Tag.DIFFRACTIVE:
            # a glide handoff or a diffractive pass-through: on in the interior
            junctions.append((ev.s, bc))
            mode, skip = "interior", 2
        elif bc.tag in (Tag.HYPERBOLIC_IN, Tag.HYPERBOLIC_OUT):
            if direction * bc.hpz > 0:
                raise StepFailure("boundary crossing classified as incoming; inconsistent event")
            rho = record_break(ev.s, ev.rho)
        elif bc.tag in (Tag.GLIDING, Tag.GLANCING3):
            if bc.tag is Tag.GLANCING3:
                log.warning("trace reached an order-3 glancing contact at s = %.6g", ev.s)
            junctions.append((ev.s, bc))
            mode = "gliding"
        else:
            raise StepFailure(f"unexpected boundary class {bc.tag.value} at s = {ev.s:.6g}")

    return GenBicharacteristic(
        pieces=pieces,
        break_set=breaks,
        junctions=junctions,
    )


# ---------------------------------------------------------------------------
# discrete glancing-step construction


@dataclass
class GlancingPolyline:
    """Piecewise record of the delta-step construction near a gliding arc.

    points/s are the polyline vertices; segment_kinds has one entry per
    segment ("affine" for frozen-field hops, "flight" for broken chord
    pieces). hpz_max is the largest |hpz| seen at any vertex or boundary
    contact; contacts lists the boundary contacts of the chord pieces.
    """

    points: list[PhasePoint]
    s: list[float]
    segment_kinds: list[str]
    hpz_max: float
    contacts: list[dict] = field(default_factory=list)


def _surrogate_vertex(scenario, y_target, x_b, depth, tau) -> PhasePoint:
    """Characteristic point in the closed domain near a frozen-field target.

    The base point is placed depth units inside along the metric-unit normal
    at x_b, the target's projection onto the boundary; the covector keeps the
    target's tangential part and is lifted (or rescaled) onto the
    characteristic shell.
    """
    t, _, _, _, xi1, xi2 = y_target.tolist()
    (nb1, nb2), _ = geo.unit_conormal(scenario, x_b, 1e-9)
    xb1, xb2 = x_b
    x_in = np.array((xb1 + depth * nb1, xb2 + depth * nb2))
    (n1, n2), (ns1, ns2) = geo.unit_conormal(scenario, x_in, max(scenario.band, 2.0 * depth))
    c = xi1 * n1 + xi2 * n2
    par1, par2 = xi1 - c * ns1, xi2 - c * ns2
    norm2 = geo.conorm_sq(scenario, x_in, (par1, par2))
    p_par = -tau * tau + norm2
    if p_par <= 0.0:
        lam = math.sqrt(-p_par)
        xi_new = (par1 + lam * ns1, par2 + lam * ns2)
    else:
        f = abs(tau) / math.sqrt(norm2)
        xi_new = (par1 * f, par2 * f)
    return PhasePoint(t=t, x=x_in, tau=tau, xi=xi_new)


def glancing_step_construct(
    scenario,
    rho0: PhasePoint,
    delta: float,
    eps: float,
) -> GlancingPolyline:
    """Discrete delta-step approximation of a gliding ray.

    Each of its 6 steps alternates (a) an affine hop of length delta along
    the gliding field frozen at the segment start, with the endpoint placed
    back in the closed domain at depth eps*delta on the characteristic
    shell, and (b) a broken chord piece: free flight to the next boundary
    contact, specular reflection, and flight on to the following tangency,
    which seeds the next hop. On flat boundaries the chord never returns to the boundary and
    the flight simply runs out its budget with hpz identically zero.

    The recorded hpz_max is the largest |hpz| over all vertices and chord
    contacts; for curved gliding boundaries it scales like sqrt(delta).
    """
    if delta <= 0 or eps < 0:
        raise ValueError("delta must be positive and eps nonnegative")
    bc = sym.classify_boundary_point(scenario, rho0)
    if bc.tag not in (Tag.GLIDING, Tag.GLANCING3):
        raise ValueError(f"construction starts on the gliding set, got {bc.tag.value}")
    pts = [rho0]
    ss = [0.0]
    kinds: list[str] = []
    contacts: list[dict] = []
    hpz_max = abs(bc.hpz)
    rho = rho0
    s_now = 0.0
    rhs = _interior_rhs(scenario, 1.0)
    q_of = _approach_rate(scenario, 1.0)
    q_prev = 0.0

    def to_apex(y, y_new, h):
        # The reflected chord's apex: q turns from receding (+) to approaching (-).
        nonlocal q_prev
        if not geo.in_domain(scenario, y_new[sym.X]):
            return _CHART_EXIT
        _rescale_char(scenario, y_new)
        q_new = q_of(y_new)
        if q_prev > 0.0 >= q_new:
            found = _locate_scalar_zero(rhs, y, h, q_of, 1e-12, q_prev, q_new)
            if found is not None:
                sig_t, y_t = found
                _rescale_char(scenario, y_t)
                return "apex", sig_t, y_t
        q_prev = q_new
        return None

    def add(point, kind):
        pts.append(point)
        ss.append(s_now)
        kinds.append(kind)

    for _ in range(6):
        y_t = rho.as_vector() + delta * sym.gliding_field(scenario, rho)
        x_b = geo.newton_to_level(scenario.boundary, y_t[sym.X].tolist(), 0.0, 12, 1e-13)[0]
        if not geo.in_domain(scenario, x_b):
            raise LeftChart("affine hop target left the chart")
        vertex = _surrogate_vertex(scenario, y_t, x_b, eps * delta, rho.tau)
        s_now += delta
        add(vertex, "affine")
        hpz_max = max(hpz_max, abs(sym.hpz(scenario, vertex)))

        curv = max(abs(sym.hp2z(scenario, vertex)), 1e-2)
        budget = 8.0 * float(np.sqrt(max(eps * delta, 0.0) / curv)) + 4.0 * delta
        fly_params = IntegratorParams(h=max(budget / 256.0, 1e-9), tangency_gate=-1.0)
        _, ev = integrate_interior(scenario, vertex, (0.0, budget), fly_params)
        if ev.reason == "chart_exit":
            raise LeftChart("chord flight left the chart")
        s_now += abs(ev.s)
        add(ev.rho, "flight")
        rho = ev.rho
        if ev.reason == "boundary":
            hpz_max = max(hpz_max, abs(ev.bclass.hpz))
            contacts.append({"s": s_now, "hpz": ev.bclass.hpz, "tag": ev.bclass.tag.value})
            if ev.bclass.tag is Tag.HYPERBOLIC_OUT:
                y_r = sym.sigma(scenario, ev.rho.as_vector()).tolist()
                add(PhasePoint.from_vector(y_r), "flight")
                q_prev = q_of(y_r)
                _, ev = _march(
                    INTERIOR, partial(_rk4_step, rhs), y_r, (0.0, budget), fly_params, 1, to_apex
                )
                if ev.reason == "chart_exit":
                    raise LeftChart("chord flight left the chart before reaching its apex")
                s_now += ev.s
                add(ev.rho, "flight")
                rho = ev.rho
    return GlancingPolyline(
        points=pts, s=ss, segment_kinds=kinds, hpz_max=hpz_max, contacts=contacts
    )


# ---------------------------------------------------------------------------
# compressed distance and the continuity probe


def fold_into_domain(scenario, rho: PhasePoint) -> PhasePoint:
    """Compressed-space representative of a point just past the boundary.

    Points with phi < 0 are mirrored back: the base across the surface
    (two Newton steps along the metric gradient of phi toward -phi), the
    covector by the reflection involution at the mirrored base. Points
    already in the closed domain are returned unchanged. Valid within the
    reflection band; the identification error is O(phi^2) from boundary
    curvature.
    """
    ph = float(scenario.boundary.phi(rho.x))
    if ph >= 0.0:
        return rho
    if -ph > scenario.band:
        raise OutOfChart(f"point at phi = {ph:.3e} is beyond the reflection band")
    x, _ = geo.newton_to_level(scenario.boundary, rho.x.tolist(), -ph, 2, 0.0, scenario.metric)
    return sym.sigma(scenario, PhasePoint(rho.t, x, rho.tau, rho.xi))


def _extended_reflection(scenario, rho):
    """Sigma-tilde near the boundary, or None outside the extension band.

    rho is a PhasePoint or its packed row; the image comes in the same form.
    The band is screened on phi before the reflection is tried, by the test
    sigma would raise NotOnBoundary on.
    """
    pen = abs(float(scenario.boundary.phi(sym._coords(rho)[0])))
    if pen > scenario.band:
        return None
    try:
        return sym.sigma(scenario, rho), pen
    except DegenerateNormal:
        return None


def compressed_distance(scenario, a: PhasePoint, b: PhasePoint) -> float:
    """Chart distance after quotienting by the boundary reflection.

    Minimum over the four Sigma-tilde combinations, with an additive |phi|
    penalty whenever the extended involution is applied off the boundary.
    Vanishes for a = Sigma(b) at a boundary point; reduces to the plain
    chart distance away from the extension band.
    """
    for p in (a, b):
        if not geo.in_domain(scenario, p.x):
            raise OutOfChart(f"point {p.x} outside the chart box")
    va, vb = a.as_vector(), b.as_vector()
    best = _norm(va - vb)
    ra = _extended_reflection(scenario, va)
    rb = _extended_reflection(scenario, vb)
    if ra is not None:
        best = min(best, _norm(ra[0] - vb) + ra[1])
    if rb is not None:
        best = min(best, _norm(va - rb[0]) + rb[1])
    if ra is not None and rb is not None:
        best = min(best, _norm(ra[0] - rb[0]) + ra[1] + rb[1])
    return best


def _norm(v) -> float:
    """Euclidean norm of a vector: the square root of its squares summed in order."""
    total = 0.0
    for c in v.tolist():
        total += c * c
    return math.sqrt(total)


def _distance_variants(scenario, states: np.ndarray):
    """Rows plus their Sigma-tilde images with penalties, for batch distances.

    The rows with |phi| <= band (phi_on_rows) are reflected in one row pass:
    the unit conormal from derivs_on_rows and MetricEval.at_rows, then
    sigma's arithmetic (sharp, |dphi|^2_g*, its root, n_star, n, c2) with
    +, -, *, / and sqrt alone, so each image has the bits sym.sigma gives
    its row wherever the row derivatives have derivs' bits (every builtin
    boundary; an expression boundary may move the last bits). Rows where
    sigma raises DegenerateNormal (|dphi|^2_g* < 1e-16) have no image.
    """
    variants = [(states, np.zeros(len(states)))]
    X = states[:, sym.X]
    pen = np.abs(scenario.boundary.phi_on_rows(X))
    near = np.flatnonzero(~(pen > scenario.band))
    d1, d2 = scenario.boundary.derivs_on_rows(X[near])[:2]
    gi = scenario.metric.at_rows(X[near])[0]
    w1, w2 = geo.sharp(gi, d1, d2)
    norm2 = d1 * w1 + d2 * w2
    keep = ~(norm2 < 1e-16)
    if not keep.any():
        return variants
    r = np.sqrt(np.maximum(norm2, 1e-16))  # the rows below 1e-16 are dropped
    ns1, ns2 = d1 / r, d2 / r
    n1, n2 = geo.sharp(gi, ns1, ns2)
    refl = states[near]
    xi1, xi2 = refl[:, sym.XI].T
    c2 = 2.0 * (xi1 * n1 + xi2 * n2)
    refl[:, sym.XI] = np.column_stack((xi1 - c2 * ns1, xi2 - c2 * ns2))
    variants.append((refl[keep], pen[near[keep]]))
    return variants


# Relative widening of a block's t-window in _min_distances: far above the
# few ulps by which a rounded norm can fall below the exact |t_p - t_r|.
_WINDOW_MARGIN = 1e-9


def _min_distances(P, variants) -> np.ndarray:
    """Per row of P, the min compressed distance to the variant set.

    A pair's distance is cdist(p, r) + pen_r >= |t_p - t_r|. The variant
    rows, pooled, are sorted by t, and each row of P gets an upper bound
    u_p: its least distance to the four pooled rows around it in t order,
    which near a break take in the rows on both of its branches. The rows
    of P, in t order, are then taken in blocks, and cdist runs on the
    variant rows whose t lies within the block's t range widened by
    max(u_p) * (1 + _WINDOW_MARGIN) and one ulp more, which holds every
    row that can attain the minimum. cdist gives a pair the same bits
    whatever other rows it is given, so every minimum is the all-pairs
    minimum to the bit.
    """
    # scipy.spatial costs a quarter second to import; only continuity and
    # the support check come here
    from scipy.spatial.distance import cdist

    rows = np.concatenate([r for r, _ in variants])
    pens = np.concatenate([p for _, p in variants])
    order = np.argsort(rows[:, sym.T], kind="stable")
    rows, pens = rows[order], pens[order]
    t = rows[:, sym.T]
    p_order = np.argsort(P[:, sym.T], kind="stable")
    Ps = P[p_order]
    tp = Ps[:, sym.T]
    at = np.searchsorted(t, tp)
    bound = np.full(len(P), np.inf)
    for offset in (-2, -1, 0, 1):
        j = np.clip(at + offset, 0, len(t) - 1)
        np.minimum(bound, np.sqrt(np.square(Ps - rows[j]).sum(axis=1)) + pens[j], out=bound)
    best = np.empty(len(P))
    block = 64  # rows of P per cdist call
    for start in range(0, len(P), block):
        stop = min(start + block, len(P))
        w = bound[start:stop].max() * (1.0 + _WINDOW_MARGIN)
        lo = t.searchsorted(np.nextafter(tp[start] - w, -np.inf), side="left")
        hi = t.searchsorted(np.nextafter(tp[stop - 1] + w, np.inf), side="right")
        dist = cdist(Ps[start:stop], rows[lo:hi])
        dist += pens[lo:hi]
        best[start:stop] = dist.min(axis=1)
    out = np.empty(len(P))
    out[p_order] = best
    return out


def _semi_distance(P, variants) -> float:
    """max over rows of P of the min compressed distance to the variant set."""
    return float(_min_distances(P, variants).max())


def _trace_states_both(scenario, rho, t_horizon, params) -> np.ndarray:
    parts = []
    for direction in (1, -1):
        gb = trace_generalized(scenario, rho, t_horizon, params, direction)
        parts.append(gb.all_samples()[1])
    return np.vstack(parts)


def _perturb_characteristic(scenario, rho0: PhasePoint, delta: float, rng) -> PhasePoint:
    if delta == 0.0:
        return rho0
    phi_f = scenario.boundary.phi
    # uniform in the disks of radius delta / 2 about x and about xi: radius R sqrt(u)
    for _ in range(64):
        v = rng.normal(size=2)
        v /= max(_norm(v), 1e-300)
        x_p = rho0.x + (0.5 * delta * rng.uniform() ** 0.5) * v
        if not geo.in_domain(scenario, x_p) or float(phi_f(x_p)) < 0.0:
            continue
        w = rng.normal(size=2)
        w /= max(_norm(w), 1e-300)
        xi_p = rho0.xi + (0.5 * delta * rng.uniform() ** 0.5) * w
        nrm = float(np.sqrt(geo.conorm_sq(scenario, x_p, xi_p)))
        if nrm < 1e-12:
            continue
        xi_p = xi_p * (abs(rho0.tau) / nrm)
        cand = PhasePoint(rho0.t, x_p, rho0.tau, xi_p)
        if compressed_distance(scenario, cand, rho0) <= delta * (1.0 + 1e-9):
            return cand
    log.warning("perturbation sampling failed at delta = %.3g; using the base point", delta)
    return rho0


def continuity_sweep(
    scenario,
    rho0: PhasePoint,
    deltas,
    T: float,
    n_samples: int,
    params: IntegratorParams | None = None,
    seed: int = 0,
) -> list[float]:
    """continuity_probe for each delta in deltas, with one reference.

    Traces the reference ray through rho0 over the time horizon T in both
    directions and builds its distance variants once. Each delta then draws
    its n_samples perturbed starts from a fresh default_rng(seed), as its
    own continuity_probe would, so the list holds exactly the probes'
    values, in the order of deltas. A delta of 0 scores 0.0 without
    tracing: its perturbed starts are rho0 itself, whose traces repeat the
    reference. Every delta must be finite and >= 0, and n_samples >= 1; both
    are checked before anything is traced.
    """
    deltas = [float(d) for d in deltas]
    for delta in deltas:
        if not 0.0 <= delta < np.inf:
            raise ValueError(f"continuity probe needs a finite delta >= 0, got {delta!r}")
    if int(n_samples) < 1:
        raise ValueError("continuity probe needs at least one perturbed sample")
    params = params or IntegratorParams()
    reference = _trace_states_both(scenario, rho0, T, params)
    variants = _distance_variants(scenario, reference)
    sweep = []
    for delta in deltas:
        rng = np.random.default_rng(seed)
        eps_hat = 0.0
        for _ in range(int(n_samples) if delta else 0):
            pert = _perturb_characteristic(scenario, rho0, delta, rng)
            pert_states = _trace_states_both(scenario, pert, T, params)
            eps_hat = max(eps_hat, _semi_distance(pert_states, variants))
        sweep.append(eps_hat)
    return sweep


def continuity_probe(
    scenario,
    rho0: PhasePoint,
    delta: float,
    T: float,
    n_samples: int,
    params: IntegratorParams | None = None,
    seed: int = 0,
) -> float:
    """Largest compressed semi-distance from perturbed traces to the reference.

    Traces the reference ray through rho0 over the time horizon T in both
    directions, then n_samples perturbed starts within compressed distance
    delta, and returns the max over perturbed samples of the distance to the
    reference sample set; delta must be finite and >= 0, n_samples >= 1.
    The one-delta case of continuity_sweep.
    """
    return continuity_sweep(scenario, rho0, [delta], T, n_samples, params, seed)[0]


# ---------------------------------------------------------------------------
# export helpers


def _sample_template(fixed: dict) -> str:
    """%-template of a sample line with the fixed fields written in.

    The keys come in sorted order, as json.dumps(..., sort_keys=True) puts
    them; the float fields s, t, tau, x and xi (the last two pairs) are %r
    slots in that order, so a line is the template % (s, t, tau, x1, x2,
    xi1, xi2). repr is the float form json.dumps writes.
    """
    slots = {"s": "%r", "t": "%r", "tau": "%r", "x": "[%r, %r]", "xi": "[%r, %r]"}
    items = []
    for key in sorted({**fixed, **slots}):
        if key in slots:
            items.append(f'"{key}": {slots[key]}')
        else:
            items.append(json.dumps({key: fixed[key]}, allow_nan=False)[1:-1].replace("%", "%%"))
    return "{" + ", ".join(items) + "}"


def trajectory_records(gb: GenBicharacteristic, **fields) -> list[str]:
    """One JSON line per sample, in trace order.

    A line holds s, t, x, tau, xi, piece_kind, piece_index and the given
    fields (say record="sample"), byte for byte as json.dumps(..., sort_keys=
    True) writes that dict. A non-finite s or state raises ValueError, as
    json.dumps(..., allow_nan=False) does.
    """
    lines = []
    for k, p in enumerate(gb.pieces):
        st = p.states
        cols = np.column_stack((p.s, st[:, [sym.T, sym.TAU]], st[:, sym.X], st[:, sym.XI]))
        if not np.isfinite(cols).all():
            raise ValueError(f"non-finite sample in trajectory piece {k}")
        template = _sample_template({**fields, "piece_kind": p.kind, "piece_index": k})
        lines += [template % row for row in map(tuple, cols.tolist())]
    return lines


def event_records(gb: GenBicharacteristic):
    """Breaks and junctions merged into one s-ordered event stream."""
    out = []
    for br in gb.break_set:
        out.append(
            {
                "s": float(br.s),
                "kind": "Hyperbolic",
                "rho_minus": br.rho_minus.to_dict(),
                "rho_plus": br.rho_plus.to_dict(),
            }
        )
    for s, bc in gb.junctions:
        out.append(
            {
                "s": float(s),
                "kind": bc.tag.value,
                "hpz": bc.hpz,
                "hp2z": bc.hp2z,
            }
        )
    out.sort(key=lambda r: abs(r["s"]))
    return out
