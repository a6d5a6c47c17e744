import dataclasses
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from glancer import flow
from glancer import geometry as geo
from glancer import jet, measures
from glancer import scenarios as scen
from glancer import symbol as sym
from glancer.errors import (
    MaxPiecesExceeded,
    MaxStepsExceeded,
    NotCharacteristic,
    NotOnBoundary,
    OutOfChart,
    StepFailure,
)
from glancer.symbol import PhasePoint, Tag


def unit_start(t, x, tau, xi):
    xi = np.asarray(xi, dtype=float)
    return PhasePoint(t=t, x=np.asarray(x, dtype=float), tau=tau,
                      xi=abs(tau) * xi / np.linalg.norm(xi))


# ---------------------------------------------------------------------------
# interior integration and reflection


def test_half_plane_bounce_oracle(half_plane):
    # straight-line flight: from (0, 1.0) with xi = (0.6, -0.8) the wall at
    # z = 0 is reached after z / (2 * 0.8) = 0.625 units of s, at x1 = 0.75
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8]))
    gb = flow.trace_generalized(half_plane, rho0, 3.0, flow.IntegratorParams(h=1e-3))
    assert len(gb.break_set) == 1
    br = gb.break_set[0]
    assert br.s == pytest.approx(0.625, abs=1e-9)
    assert np.allclose(br.rho_minus.x, [0.75, 0.0], atol=1e-9)
    assert br.rho_minus.t == pytest.approx(-1.25, abs=1e-9)
    assert np.allclose(br.rho_plus.xi, [0.6, 0.8], atol=1e-9)


def test_strip_bounce_spacing(strip):
    rho0 = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    gb = flow.trace_generalized(strip, rho0, 3.2, flow.IntegratorParams(h=1e-3))
    ss = [br.s for br in gb.break_set]
    assert len(ss) == 3
    assert np.allclose(ss, [0.5, 1.0, 1.5], atol=1e-8)
    gaps = np.diff([0.0] + ss)
    assert gaps.min() > 0.4  # breaks are isolated


def test_conservation_along_many_bounces(strip):
    rho0 = unit_start(0.0, [0.2, 0.3], 1.0, [0.35, 0.94])
    gb = flow.trace_generalized(strip, rho0, 10.0, flow.IntegratorParams(h=1e-3))
    s, states, kinds, _ = gb.all_samples()
    assert np.max(np.abs(states[:, 3] - 1.0)) <= 1e-9  # tau exactly conserved
    speeds = np.linalg.norm(states[:, 4:6], axis=1)
    assert np.max(np.abs(speeds - 1.0)) <= 1e-8


def test_trace_lands_exactly_on_the_horizon(half_plane):
    rho0 = unit_start(0.25, [0.0, 2.0], 1.0, [0.3, 0.4])
    gb = flow.trace_generalized(half_plane, rho0, 1.0, flow.IntegratorParams(h=1e-3))
    _, states, _, _ = gb.all_samples()
    assert abs(states[-1, 0] - 0.25) == pytest.approx(1.0, abs=1e-12)


def test_start_on_boundary_incoming_reflects_first(half_plane):
    rho0 = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([0.6, -0.8]))
    gb = flow.trace_generalized(half_plane, rho0, 1.0, flow.IntegratorParams(h=1e-3))
    _, states, _, _ = gb.all_samples()
    assert states[0, 5] > 0  # already moving inward at s = 0
    assert len(gb.break_set) == 1 and gb.break_set[0].s == 0.0


WAVY = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "wavy.json"


def _load(name):
    return scen.load_scenario(WAVY if name == "wavy" else name)


def shell_start(scenario, x, direction):
    """tau = 1 start at x with xi along direction, scaled onto the shell."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(direction, dtype=float)
    return PhasePoint(0.0, x, 1.0, xi / np.sqrt(geo.conorm_sq(scenario, x, xi)))


@pytest.mark.parametrize(
    "name, x, direction, horizon",
    [
        pytest.param("strip", [0.1, 0.4], [0.5, 0.86], 2.0, id="strip-bounce"),
        pytest.param("half_plane", [0.0, 1.0], [0.6, -0.8], 3.0, id="half_plane-bounce"),
        pytest.param("disk_interior", [0.2, 0.1], [0.6, 0.8], 2.0, id="disk_interior-bounce"),
        pytest.param("disk_exterior", [-2.0, 0.3], [1.0, 0.0], 2.0, id="disk_exterior-bounce"),
        pytest.param("annulus", [0.75, 0.0], [0.3, 1.0], 2.0, id="annulus-bounce"),
        pytest.param("wavy", [0.3, 0.35 - 0.3 * np.cos(0.3)], [0.2, -1.0], 1.2, id="wavy-bounce"),
        pytest.param("disk_interior", [1.0, 0.0], [0.0, 1.0], 1.0, id="disk_interior-glide"),
        pytest.param("annulus", [1.0, 0.0], [0.0, 1.0], 1.0, id="annulus-glide"),
        pytest.param("disk_exterior", [-1.5, 1.0], [1.0, 0.0], 4.0, id="disk_exterior-graze"),
    ],
)
def test_backward_trace_retraces_forward(name, x, direction, horizon):
    scenario = _load(name)
    rho0 = shell_start(scenario, x, direction)
    params = flow.IntegratorParams(h=1e-3)
    fwd = flow.trace_generalized(scenario, rho0, horizon, params, direction=1)
    _, states_f, _, _ = fwd.all_samples()
    end = PhasePoint.from_vector(states_f[-1], 2)
    back = flow.trace_generalized(scenario, end, horizon, params, direction=-1)
    _, states_b, _, _ = back.all_samples()
    assert np.linalg.norm(states_b[-1] - states_f[0]) < 1e-8
    for br in fwd.break_set + back.break_set:
        assert sym.hpz(scenario, br.rho_minus) < 0 < sym.hpz(scenario, br.rho_plus)


@pytest.mark.parametrize(
    "integrate, name, x, xi, max_steps, outcome",
    [
        pytest.param("trace", "half_plane", [0.0, 1.0], [0.6, -0.8], 10, MaxStepsExceeded,
                     id="interior-max-steps"),
        pytest.param("trace", "disk_interior", [1.0, 0.0], [0.0, 1.0], 10, MaxStepsExceeded,
                     id="gliding-max-steps"),
        pytest.param("interior", "half_plane", [0.0, 1.0], [1.0, 0.0], 2_000_000, "chart_exit",
                     id="chart-exit"),
        pytest.param("interior", "half_plane", [0.0, -0.1], [1.0, 0.0], 2_000_000, StepFailure,
                     id="start-outside"),
    ],
)
def test_integrator_error_paths(integrate, name, x, xi, max_steps, outcome):
    scenario = _load(name)
    rho0 = shell_start(scenario, x, xi)
    params = flow.IntegratorParams(h=1e-3, max_steps=max_steps)

    def run():
        if integrate == "trace":
            return flow.trace_generalized(scenario, rho0, 20.0, params)
        return flow.integrate_interior(scenario, rho0, (0.0, 10.0), params)

    if outcome != "chart_exit":
        with pytest.raises(outcome):
            run()
        return
    # dx1/ds = 2: the ray reaches the box edge x1 = 12 at s = 6
    piece, ev = run()
    assert ev.reason == "chart_exit"
    assert ev.s == pytest.approx(6.0, abs=1e-9)
    assert len(piece) == 6001
    assert np.array_equal(ev.rho.as_vector(), piece.states[-1])
    assert geo.in_domain(scenario, ev.rho.x)


def test_max_pieces_guard(strip):
    rho0 = PhasePoint(0.0, np.array([0.0, 0.5]), 1.0, np.array([0.0, 1.0]))
    with pytest.raises(MaxPiecesExceeded):
        flow.trace_generalized(
            strip, rho0, 10.0, flow.IntegratorParams(h=1e-3, max_pieces=2)
        )


def test_non_characteristic_start_rejected(half_plane):
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.1, 0.0]))
    with pytest.raises(NotCharacteristic):
        flow.trace_generalized(half_plane, rho0, 1.0)


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_non_finite_tau_is_not_characteristic(strip, tau):
    # NaN passes a test |p| > tol, and tau = inf scales the tolerance to inf
    rho0 = PhasePoint(0.0, np.array([0.0, 0.5]), tau, np.array([0.6, 0.8]))
    with pytest.raises(NotCharacteristic):
        flow.trace_generalized(strip, rho0, 1.0)


@given(
    x1=st.floats(-1.0, 1.0),
    x2=st.floats(0.3, 2.0),
    th=st.floats(0.0, 2 * np.pi),
    tau=st.floats(0.5, 1.5),
)
def test_trace_stays_on_shell_and_in_domain(half_plane, x1, x2, th, tau):
    rho0 = unit_start(0.0, [x1, x2], tau, [np.cos(th), np.sin(th)])
    gb = flow.trace_generalized(half_plane, rho0, 0.6, flow.IntegratorParams(h=2e-3))
    _, states, _, _ = gb.all_samples()
    assert np.max(np.abs(states[:, 3] - tau)) < 1e-12
    speeds = np.linalg.norm(states[:, 4:6], axis=1)
    assert np.max(np.abs(speeds - tau)) < 1e-8
    phis = np.array([half_plane.boundary.phi(row[1:3]) for row in states])
    assert phis.min() > -1e-9


def test_rk4_self_convergence_on_curved_metric():
    def entries(x):
        c = 1.0 + 0.5 * np.sin(2.0 * x[0]) * np.cos(2.0 * x[1])
        dc1 = np.cos(2.0 * x[0]) * np.cos(2.0 * x[1])
        dc2 = -np.sin(2.0 * x[0]) * np.sin(2.0 * x[1])
        return c, 0.0, c, dc1, 0.0, dc1, dc2, 0.0, dc2

    curved = dataclasses.replace(scen.builtin("half_plane"), metric=geo.MetricEval(entries))
    x0 = np.array([0.3, 0.8])
    xi0 = np.array([0.55, 0.65])
    xi0 /= np.sqrt(float(xi0 @ curved.metric.g_inv(x0) @ xi0))
    rho0 = PhasePoint(0.0, x0, 1.0, xi0)

    def end_state(h):
        piece, _ = flow.integrate_interior(curved, rho0, (0.0, 0.5), flow.IntegratorParams(h=h))
        return piece.states[-1]

    ref = end_state(5e-5)
    hs = [4e-3, 2e-3, 1e-3]
    errs = [np.linalg.norm(end_state(h) - ref) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 3.5


# ---------------------------------------------------------------------------
# tangencies


def test_diffractive_tangency_is_a_junction(exterior):
    # horizontal line grazing the obstacle at (0, 1): tangency after s = 0.75
    rho0 = PhasePoint(0.0, np.array([-1.5, 1.0]), 1.0, np.array([1.0, 0.0]))
    gb = flow.trace_generalized(exterior, rho0, 4.0, flow.IntegratorParams(h=1e-3))
    assert len(gb.break_set) == 0
    assert len(gb.junctions) == 1
    s_j, bc = gb.junctions[0]
    assert s_j == pytest.approx(0.75, abs=1e-6)
    assert bc.tag is Tag.DIFFRACTIVE


def test_diffractive_boundary_distance_is_quadratic(exterior):
    rho0 = PhasePoint(0.0, np.array([-1.5, 1.0]), 1.0, np.array([1.0, 0.0]))
    gb = flow.trace_generalized(exterior, rho0, 4.0, flow.IntegratorParams(h=1e-3))
    s, states, _, _ = gb.all_samples()
    s_j = gb.junctions[0][0]
    keep = np.argsort(np.abs(s - s_j))[:5]
    ss = s[keep] - s_j
    phis = np.array([exterior.boundary.phi(states[i, 1:3]) for i in keep])
    coeffs = np.polyfit(ss, phis, 2)
    assert coeffs[0] > 0.1  # strictly convex graze
    assert abs(coeffs[1]) < 1e-3 and abs(coeffs[2]) < 1e-6


def test_near_miss_records_no_junction(exterior):
    rho0 = PhasePoint(0.0, np.array([-1.5, 1.0 + 1e-6]), 1.0, np.array([1.0, 0.0]))
    gb = flow.trace_generalized(exterior, rho0, 4.0, flow.IntegratorParams(h=1e-3))
    assert len(gb.junctions) == 0 and len(gb.break_set) == 0


# ---------------------------------------------------------------------------
# gliding


def test_disk_gliding_constraints_and_circle_oracle(disk):
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    piece, _ = flow.integrate_gliding(
        disk, rho0, (0.0, np.pi), flow.IntegratorParams(h=1e-3)
    )
    states = piece.states
    worst = 0.0
    for row in states:
        rho = PhasePoint.from_vector(row, 2)
        worst = max(
            worst,
            abs(disk.boundary.phi(rho.x)),
            abs(sym.hpz(disk, rho)),
            abs(sym.p_eval(disk, rho)),
        )
    assert worst <= 1e-8
    ss = piece.s
    exact_x = np.stack([np.cos(2 * ss), np.sin(2 * ss)], axis=1)
    exact_xi = np.stack([-np.sin(2 * ss), np.cos(2 * ss)], axis=1)
    assert np.max(np.abs(states[:, 1:3] - exact_x)) <= 1e-6
    assert np.max(np.abs(states[:, 4:6] - exact_xi)) <= 1e-6


def test_trace_from_gliding_start_stays_gliding(disk):
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    gb = flow.trace_generalized(disk, rho0, 1.0, flow.IntegratorParams(h=1e-3))
    assert [p.kind for p in gb.pieces] == [flow.GLIDING]


def test_flat_glancing_start_runs_straight(strip):
    rho0 = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([1.0, 0.0]))
    gb = flow.trace_generalized(strip, rho0, 2.0, flow.IntegratorParams(h=1e-3))
    _, states, _, _ = gb.all_samples()
    # sigma_max = t_horizon / 2 and dx/ds = 2 xi, so the end lands at x1 = 2
    assert np.allclose(states[-1, 1:3], [2.0, 0.0], atol=1e-9)
    assert np.max(np.abs(states[:, 2])) < 1e-12


def test_gliding_hands_off_where_curvature_flips():
    wavy = scen.from_config(
        {
            "schema": 1,
            "name": "wavy",
            "boundary": {
                "kind": "expression",
                "phi": "x2 + 0.3 * cos(x1)",
                "box": [[-3.0, -0.6], [3.0, 2.0]],
            },
        }
    )
    x1s = -0.4
    xw = np.array([x1s, -0.3 * np.cos(x1s)])
    tan = np.array([1.0, 0.3 * np.sin(x1s)])
    rho0 = PhasePoint(0.0, xw, 1.0, tan / np.linalg.norm(tan))
    assert sym.classify_boundary_point(wavy, rho0).tag is Tag.GLIDING
    gb = flow.trace_generalized(wavy, rho0, 3.0, flow.IntegratorParams(h=1e-3))
    kinds = [p.kind for p in gb.pieces]
    assert kinds[0] == flow.GLIDING
    assert flow.INTERIOR in kinds
    assert len(gb.junctions) >= 1


def _reference_rk4_step(rhs, y, h):
    """The earlier RK4 step on numpy rows, the reference of flow._rk4_step."""
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * h) * k1)
    k3 = rhs(y + (0.5 * h) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_locate(rhs, y_from, h, value_of, tol):
    """The earlier event bisection on numpy rows (flow._locate_scalar_zero
    with _reference_rk4_step substeps)."""
    lo, hi = 0.0, h
    best = None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        y_mid = _reference_rk4_step(rhs, y_from, mid)
        v = value_of(y_mid)
        if abs(v) <= tol:
            return mid, y_mid
        if v > 0.0:
            lo = mid
        else:
            hi = mid
            best = (mid, y_mid)
        if hi - lo < 1e-16 * max(1.0, h):
            break
    return best


def _reference_project_gliding(scenario, y):
    """The earlier projection onto {phi = 0, hpz = 0, p = 0}: x/xi Newton plus shell rescale."""
    x = y[sym.X]
    ph = float(scenario.boundary.phi(x))
    dp = scenario.boundary.dphi(x)
    gidp = scenario.metric.g_inv(x) @ dp
    scale = max(1.0, abs(float(y[sym.TAU])))
    for _ in range(25):
        h2 = 2.0 * float(dp @ gidp)
        y[sym.X] = x - (2.0 * ph / h2) * gidp
        dp = scenario.boundary.dphi(x)
        gi = scenario.metric.g_inv(x)
        gidp = gi @ dp
        h2 = 2.0 * float(dp @ gidp)
        xi = y[sym.XI]
        y[sym.XI] = xi - (2.0 * float(xi @ gidp) / h2) * dp
        xi = y[sym.XI]
        y[sym.XI] = xi * (abs(float(y[sym.TAU])) / float(np.sqrt(xi @ gi @ xi)))
        xi = y[sym.XI]
        ph = float(scenario.boundary.phi(x))
        if abs(ph) <= 1e-12 and abs(2.0 * float(xi @ gidp)) <= 1e-10 * scale:
            return
    raise AssertionError("reference gliding projection did not converge")


def _reference_glide(scenario, rho0, s_span, params, direction):
    """The earlier gliding integrator: RK4 on direction * sym.gliding_field, then
    the projection above, with the same chart check and hand-off hysteresis."""
    y0 = rho0.as_vector()
    _reference_project_gliding(scenario, y0)
    exceed = 0

    def advance(y, y_new, h):
        nonlocal exceed
        if not geo.in_domain(scenario, y_new[sym.X]):
            return flow._CHART_EXIT
        _reference_project_gliding(scenario, y_new)
        exceed = exceed + 1 if sym.hp2z(scenario, y_new) > flow.GLIDING_EXIT else 0
        return ("glide_handoff", 0.0, None) if exceed >= 2 else None

    def rhs(y):
        return direction * sym.gliding_field(scenario, y)

    step = partial(_reference_rk4_step, rhs)
    return flow._march(flow.GLIDING, step, y0, s_span, params, direction, advance)


def _expression_disk():
    """1 - hypot(x1, x2) under a non-diagonal expression metric."""
    return scen.from_config(
        {
            "schema": 1,
            "name": "expression_disk",
            "boundary": {
                "kind": "expression",
                "phi": "1 - hypot(x1, x2)",
                "box": [[-1.25, -1.25], [1.25, 1.25]],
            },
            "metric": {
                "kind": "expression",
                "expressions": [["1 + 0.25 * x2", "0.1 * x1"], ["0.1 * x1", "1"]],
            },
        }
    )


def _case(name):
    return _expression_disk() if name == "expression_disk" else _load(name)


def gliding_start(scenario, x, sense):
    """tau = 1 start at the boundary point x with g^-1 xi along sense * (-d2 phi, d1 phi)."""
    d1, d2 = scenario.boundary.dphi(np.asarray(x, dtype=float))
    return shell_start(scenario, x, scenario.metric.g(np.asarray(x)) @ (sense * np.array([-d2, d1])))


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize(
    "name, x, tag",
    [
        ("disk_interior", [1.0, 0.0], Tag.GLIDING),
        ("annulus", [0.0, 1.0], Tag.GLIDING),  # the outer wall, r = 1
        ("expression_disk", [0.6, 0.8], Tag.GLIDING),
        ("strip", [0.0, 0.0], Tag.GLANCING3),  # the flat wall
    ],
)
def test_curve_glide_matches_the_projected_gliding_field(name, x, tag, direction):
    scenario = _case(name)
    rho0 = gliding_start(scenario, x, -1.0)
    assert sym.classify_boundary_point(scenario, rho0).tag is tag
    params = flow.IntegratorParams(h=1e-3)
    piece, ev = flow.integrate_gliding(scenario, rho0, (0.0, 1.2), params, direction)
    ref, ref_ev = _reference_glide(scenario, rho0, (0.0, 1.2), params, direction)
    assert ev.reason == ref_ev.reason == "span_end"
    assert np.array_equal(piece.s, ref.s)
    assert np.max(np.abs(piece.states - ref.states)) <= 1e-12


@pytest.mark.parametrize("direction", [1, -1])
def test_curve_glide_hands_off_where_the_reference_does(direction):
    wavy = _load("wavy")
    x1s = -0.4 if direction > 0 else 0.4
    xw = np.array([x1s, -0.3 * np.cos(x1s)])
    assert abs(wavy.boundary.phi(xw)) < 1e-12
    rho0 = gliding_start(wavy, xw, -1.0)
    assert sym.classify_boundary_point(wavy, rho0).tag is Tag.GLIDING
    params = flow.IntegratorParams(h=1e-3)
    piece, ev = flow.integrate_gliding(wavy, rho0, (0.0, 3.0), params, direction)
    ref, ref_ev = _reference_glide(wavy, rho0, (0.0, 3.0), params, direction)
    assert ev.reason == ref_ev.reason == "glide_handoff"
    assert ev.s == ref_ev.s
    assert sym.classify_boundary_point(wavy, ref_ev.rho).tag is ev.bclass.tag
    assert np.max(np.abs(piece.states - ref.states)) <= 1e-12


@pytest.mark.parametrize("name", ["disk_interior", "expression_disk"])
def test_glide_time_reversal(name):
    scenario = _case(name)
    rho0 = gliding_start(scenario, [0.6, 0.8], 1.0)
    params = flow.IntegratorParams(h=1e-3)
    fwd = flow.trace_generalized(scenario, rho0, 1.0, params, direction=1)
    assert [p.kind for p in fwd.pieces] == [flow.GLIDING]
    end = PhasePoint.from_vector(fwd.pieces[-1].states[-1], 2)
    back = flow.trace_generalized(scenario, end, 1.0, params, direction=-1)
    assert [p.kind for p in back.pieces] == [flow.GLIDING]
    assert np.max(np.abs(back.pieces[-1].states[-1] - rho0.as_vector())) <= 1e-12


def _reversal_starts(scenario, name, rng, n):
    """n starts with tau = 1 and a uniform direction, uniform over the domain
    at phi > 1e-3; on the strip at |x1| <= 8, so that no trace of T = 3
    (|dx/ds| = 2 over s <= 1.5) reaches the box edge |x1| = 12."""
    lo, hi = scenario.domain_lo.copy(), scenario.domain_hi.copy()
    if name == "strip":
        lo[0], hi[0] = -8.0, 8.0
    starts = []
    while len(starts) < n:
        x = rng.uniform(lo, hi)
        if scenario.boundary.phi(x) > 1e-3:
            th = rng.uniform(0.0, 2 * np.pi)
            starts.append(PhasePoint(0.0, x, 1.0, np.array([np.cos(th), np.sin(th)])))
    return starts


@pytest.mark.parametrize("name, seed", [("strip", 1), ("disk_interior", 2), ("annulus", 3)])
def test_interior_time_reversal(name, seed):
    """Trace forward to T = 3, then backward from the last sample: the start
    comes back within sum_b C EVENT_TOL / |hpz_b| over the breaks of both
    traces, plus rounding.

    C = 16, from a first-order count per break under the identity metric
    (tau = 1, |dphi| = 1 on every wall, hpz = 2 cos(theta) at incidence
    theta). The break is located where |phi| = e <= EVENT_TOL, off the
    crossing by ds = e / |hpz| <= X = EVENT_TOL / |hpz| along the ray. The
    reflection there, in the wall's normal at that point, keeps the
    invariant of the wall's symmetry (x1-momentum on the strip, angular
    momentum on the disk and the annulus), so the rest of the trace is the
    exact one moved by a symmetry motion and a shift along the flow, both
    of which commute with the flow and so do not grow:
    * the motion: on a circle of radius r, the outgoing line turns about the
      origin by 2 tan(theta) e / r = 4 sin(theta) X / r <= 8 X (r >= 0.5),
      which moves x (|x| <= 1) and xi (|xi| = 1) by at most 8 X; on the
      strip, a translation along x1 by 2 |v1| ds <= 4 X;
    * the shift along the line: the points on the two lines differ by at most
      |v - v'| ds + |x| times the turn <= 2 e + 4 sin(theta) X <= 8 X.
    So each break moves the state by at most 16 X in every component.
    Rounding: each of the N steps of both traces rounds t, x and xi by a
    few ulps in the increment, the sum and the shell rescale, and a rounded
    xi moves x by up to 2 s <= 3 over the rest of the trace; 16 eps
    max(1, |x|) per step covers these.
    """
    scenario = scen.builtin(name)
    params = flow.IntegratorParams(h=1e-3)
    c, eps = 16.0, np.finfo(float).eps
    for rho0 in _reversal_starts(scenario, name, np.random.default_rng(seed), 20):
        fwd = flow.trace_generalized(scenario, rho0, 3.0, params, direction=1)
        end = PhasePoint.from_vector(fwd.pieces[-1].states[-1])
        back = flow.trace_generalized(scenario, end, 3.0, params, direction=-1)
        assert not fwd.junctions and not back.junctions
        breaks = fwd.break_set + back.break_set
        kicks = sum(flow.EVENT_TOL / abs(sym.hpz(scenario, br.rho_minus)) for br in breaks)
        _, states, _, _ = fwd.all_samples()
        rounding = 16.0 * eps * max(1.0, np.abs(states[:, sym.X]).max())
        rounding *= fwd.n_samples + back.n_samples
        err = np.abs(back.pieces[-1].states[-1] - rho0.as_vector()).max()
        assert err <= c * kicks + rounding


def test_gliding_start_must_be_on_the_gliding_set(disk):
    # off the boundary: (0.5, 0) used to be moved silently to (1, 0)
    inside = PhasePoint(0.0, np.array([0.5, 0.0]), 1.0, np.array([0.0, 1.0]))
    with pytest.raises(NotOnBoundary):
        flow.integrate_gliding(disk, inside, (0.0, 1.0))
    # a hyperbolic contact used to come back as a glide with xi = (0, -1)
    outgoing = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([1.0, 0.0]))
    assert sym.classify_boundary_point(disk, outgoing).tag is Tag.HYPERBOLIC_OUT
    with pytest.raises(ValueError, match="HyperbolicOut"):
        flow.integrate_gliding(disk, outgoing, (0.0, 1.0))


@pytest.mark.parametrize("direction", [1, -1])
def test_curve_glide_leaves_the_chart(strip, direction):
    # the flat wall runs to the box edge x1 = -+12 at s = 6 (dx/ds = 2)
    rho0 = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([1.0, 0.0]))
    params = flow.IntegratorParams(h=1e-3)
    piece, ev = flow.integrate_gliding(strip, rho0, (0.0, 100.0), params, direction)
    ref, ref_ev = _reference_glide(strip, rho0, (0.0, 100.0), params, direction)
    assert ev.reason == ref_ev.reason == "chart_exit"
    assert ev.s == ref_ev.s == direction * 6.000000000000338
    assert len(piece) == len(ref) == 6001
    assert np.array_equal(piece.s, ref.s)
    assert np.max(np.abs(piece.states - ref.states)) <= 1e-12


@pytest.mark.parametrize("name", ["disk_interior", "expression_disk"])
def test_gliding_step_evaluates_the_boundary_once_per_stage(name):
    """At most 4 derivs and 4 g_values calls per step: one per RK stage, with
    k1, the xi rebuild and hp2z sharing the evaluation at the settled x."""

    def calls(span):
        scenario = _case(name)
        n = {"derivs": 0, "g_values": 0}
        for owner, attr in ((scenario.boundary, "derivs"), (scenario.metric, "g_values")):
            def counted(x, _f=getattr(owner, attr), _key=attr):
                n[_key] += 1
                return _f(x)

            setattr(owner, attr, counted)
        rho0 = gliding_start(scenario, [0.6, 0.8], 1.0)
        piece, ev = flow.integrate_gliding(scenario, rho0, span, flow.IntegratorParams(h=1e-3))
        assert ev.reason == "span_end"
        return len(piece) - 1, n

    # the per-piece start (classification, sense of motion, first settle) is
    # taken out by the difference with a one-step glide
    steps, n = calls((0.0, 1.0))
    one, n1 = calls((0.0, 1e-3))
    assert (steps, one) == (1000, 1)
    assert (n["derivs"] - n1["derivs"]) / (steps - one) <= 4.0
    assert (n["g_values"] - n1["g_values"]) / (steps - one) <= 4.0


@pytest.mark.parametrize("name", ["disk_interior", "annulus"])
def test_constant_metric_glide_reads_g_once_per_piece(name):
    scenario = _case(name)
    rho0 = gliding_start(scenario, {"disk_interior": [1.0, 0.0], "annulus": [0.0, 1.0]}[name], -1.0)
    n = [0]

    def counted(x, _g=scenario.metric.g_values):
        n[0] += 1
        return _g(x)

    scenario.metric.g_values = counted
    piece, ev = flow.integrate_gliding(scenario, rho0, (0.0, 1.0), flow.IntegratorParams(h=1e-3))
    assert ev.reason == "span_end" and len(piece) == 1001
    assert n[0] <= 1


def _glide_piece(name, direction):
    """A gliding piece at h = 1e-3: s in [0, 1.2] on the disk, the annulus outer
    wall and the expression disk; on wavy.json the arc up to its hand-off."""
    scenario = _case(name)
    if name == "wavy":
        x1s = -0.4 if direction > 0 else 0.4
        rho0, span = gliding_start(scenario, [x1s, -0.3 * np.cos(x1s)], -1.0), (0.0, 3.0)
    else:
        x = {"disk_interior": [1.0, 0.0], "annulus": [0.0, 1.0]}.get(name, [0.6, 0.8])
        rho0, span = gliding_start(scenario, x, -1.0), (0.0, 1.2)
    piece, ev = flow.integrate_gliding(scenario, rho0, span, flow.IntegratorParams(h=1e-3), direction)
    assert ev.reason == ("glide_handoff" if name == "wavy" else "span_end")
    return scenario, piece


GLIDE_CASES = ["disk_interior", "annulus", "expression_disk", "wavy"]


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("name", GLIDE_CASES)
def test_gliding_row_pass_matches_the_pointwise_classification(name, direction):
    scenario, piece = _glide_piece(name, direction)
    hp2z, tags = measures._gliding_contacts(scenario, piece.states)
    ref = [sym.classify_boundary_point(scenario, row) for row in piece.states]
    assert tags == [bc.tag for bc in ref]
    ref_hp2z = np.array([bc.hp2z for bc in ref])
    if name in ("disk_interior", "annulus"):
        # builtin walls: derivs_rows has the arithmetic of derivs, and one
        # contact_values formula serves rows and points
        assert hp2z.tobytes() == ref_hp2z.tobytes()
    else:  # an expression boundary's derivs_rows may differ from derivs in the last bits
        assert np.all(np.abs(hp2z - ref_hp2z) <= 1e-14 * np.maximum(1.0, np.abs(ref_hp2z)))
    if name == "wavy":  # the arc runs from gliding samples to the hand-off
        assert tags[0] is Tag.GLIDING and tags[-1] is not Tag.GLIDING


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("name", GLIDE_CASES)
def test_gliding_step_hp2z_is_the_pointwise_hp2z(name, direction, monkeypatch):
    seen = []

    def recorded(*args, _f=sym.contact_values):
        out = _f(*args)
        seen.append(out[2])
        return out

    monkeypatch.setattr(sym, "contact_values", recorded)
    scenario, piece = _glide_piece(name, direction)
    # the start's classification, then one hp2z per settled sample after the
    # start; on wavy one more for the sample that completes the hand-off and
    # is not recorded, and the hand-off's classification
    handoff = name == "wavy"
    assert len(seen) == 1 + len(piece) - 1 + 2 * handoff
    got = np.array(seen[1 : len(piece)])
    ref = np.array([sym.hp2z(scenario, row) for row in piece.states[1:]])
    assert got.tobytes() == ref.tobytes()


def test_boundary_measure_classifies_no_gliding_sample(disk, monkeypatch):
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    gb = flow.trace_generalized(disk, rho0, 1.0, flow.IntegratorParams(h=1e-3))
    assert [p.kind for p in gb.pieces] == [flow.GLIDING] and len(gb.pieces[0]) == 501
    calls = []

    def counted(scenario, rho, _f=sym.classify_boundary_point):
        calls.append(rho)
        return _f(scenario, rho)

    monkeypatch.setattr(sym, "classify_boundary_point", counted)
    nu = measures.boundary_measure_of(disk, measures.dirac_on_bichar(disk, gb))
    assert calls == []
    (arc,) = nu.arcs
    assert len(arc.tags) == 501 and set(arc.tags) == {Tag.GLIDING}
    # hp2z = -4 |tau|^2 kappa on the unit circle: density 2 at unit weight
    assert np.max(np.abs(arc.density - 2.0)) <= 1e-8


def test_grazing_limit_of_the_piece_budget(disk):
    """A unit-disk chord at incidence theta makes about T / (2 theta) bounces
    by T, so with max_pieces = 256 the smallest theta that traces is about
    T / 512: 1e-3 traces in 251 pieces at h and at h / 2, 5e-4 does not."""

    def run(theta, h):
        rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([-np.sin(theta), np.cos(theta)]))
        return flow.trace_generalized(disk, rho0, 0.5, flow.IntegratorParams(h=h, max_pieces=256))

    for h in (1e-3, 5e-4):
        gb = run(1e-3, h)
        assert len(gb.pieces) == 251 and len(gb.break_set) == 250
        with pytest.raises(MaxPiecesExceeded):
            run(5e-4, h)


# ---------------------------------------------------------------------------
# interior flow under a non-constant metric


def _reference_interior(scenario, rho0, s_span, params, direction):
    """The earlier interior composition under a non-constant metric: g^-1 by
    np.linalg.inv of g, the RHS through the dg^-1 einsum, and the shell
    rescale and q through that g^-1, with integrate_interior's event checks."""
    m = scenario.metric
    sgn = float(direction)

    def g_inv(x):
        return np.linalg.inv(m.g(x))

    def rhs(y):
        x, xi = y[sym.X], y[sym.XI]
        gi = g_inv(x)
        dgi = -np.einsum("il,klm,mj->kij", gi, m.dg(x), gi)
        dy = np.zeros(len(y))
        dy[sym.T] = -2.0 * y[sym.TAU]
        dy[sym.X] = 2.0 * (gi @ xi)
        dy[sym.XI] = -np.einsum("kij,i,j->k", dgi, xi, xi)
        return sgn * dy

    def rescale(y):
        xi = y[sym.XI]
        y[sym.XI] = xi * (abs(float(y[sym.TAU])) / float(np.sqrt(xi @ g_inv(y[sym.X]) @ xi)))

    def q_of(y):
        x = y[sym.X]
        return sgn * (2.0 * float(scenario.boundary.dphi(x) @ (g_inv(x) @ y[sym.XI])))

    def phi_of(y):
        return float(scenario.boundary.phi(y[sym.X]))

    y0 = rho0.as_vector()
    phi_prev, q_prev = phi_of(y0), q_of(y0)
    contact_tol = max(scenario.thresholds.boundary_tol, 10.0 * flow.EVENT_TOL)

    def advance(y, y_new, h):
        nonlocal phi_prev, q_prev
        rescale(y_new)
        phi_new, q_new = phi_of(y_new), q_of(y_new)
        if phi_new < -1e-14:
            sig, y_hit = _reference_locate(rhs, y, h, phi_of, flow.EVENT_TOL)
            rescale(y_hit)
            return "boundary", sig, y_hit
        if not geo.in_domain(scenario, y_new[sym.X]):
            return flow._CHART_EXIT
        if q_prev < 0.0 <= q_new and min(phi_prev, phi_new) <= params.tangency_gate:
            found = _reference_locate(rhs, y, h, lambda yy: -q_of(yy), 1e-12)
            if found is not None and abs(phi_of(found[1])) <= contact_tol:
                rescale(found[1])
                return "boundary", *found
        phi_prev, q_prev = phi_new, q_new
        return None

    step = partial(_reference_rk4_step, rhs)
    return flow._march(flow.INTERIOR, step, y0, s_span, params, direction, advance)


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize(
    "name, x, xi",
    [
        ("wavy", [0.3, 0.35 - 0.3 * np.cos(0.3)], [0.2, -1.0]),
        ("wavy", [-0.5, 0.1], [-0.9, -0.3]),
        ("expression_disk", [0.2, 0.1], [1.0, 0.4]),
        ("expression_disk", [-0.3, 0.5], [-0.2, 1.0]),
    ],
)
def test_interior_flight_matches_the_reference_composition(name, x, xi, direction):
    """The float RHS, one metric evaluation per stage, against the earlier
    np.linalg.inv / dg_inv einsum composition, up to the wall: the same s grid,
    exit and tag, and states within 1e-13 over flights of s up to about 0.4."""
    scenario = _case(name)
    rho0 = shell_start(scenario, x, direction * np.asarray(xi))
    params = flow.IntegratorParams(h=1e-3)
    piece, ev = flow.integrate_interior(scenario, rho0, (0.0, 2.0), params, direction)
    ref, ref_ev = _reference_interior(scenario, rho0, (0.0, 2.0), params, direction)
    assert ev.reason == ref_ev.reason == "boundary"
    assert len(piece) > 100
    assert np.array_equal(piece.s, ref.s)
    assert ev.s == ref_ev.s
    assert ev.bclass.tag is sym.classify_boundary_point(scenario, ref_ev.rho).tag
    assert np.max(np.abs(piece.states - ref.states)) <= 1e-13


@pytest.mark.parametrize(
    "name, metric",
    [
        pytest.param("wavy", None, id="wavy"),
        pytest.param("expression_disk", None, id="expression_disk"),
        pytest.param("disk_interior", None, id="disk_interior"),
        pytest.param("strip", [[2.0, 0.0], [0.0, 1.0]], id="strip-diagonal"),
        pytest.param("half_plane", [[1.0, 0.3], [0.3, 1.0]], id="half_plane-non_diagonal"),
    ],
)
def test_float_rhs_is_the_hamiltonian_field(name, metric):
    scenario = _case(name)
    if metric is not None:
        scenario = dataclasses.replace(scenario, metric=geo.constant_metric(metric))
    rng = np.random.default_rng(14)
    for direction in (1.0, -1.0):
        rhs = flow._interior_rhs(scenario, direction)
        for _ in range(200):
            x = rng.uniform(scenario.domain_lo, scenario.domain_hi)
            rho = PhasePoint(0.0, x, rng.uniform(0.5, 2.0), rng.normal(size=2))
            ref = direction * sym.hamiltonian_field(scenario, rho)
            assert np.array(rhs(rho.as_vector().tolist())).tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "name, metric",
    [
        pytest.param("wavy", None, id="wavy"),
        pytest.param("expression_disk", None, id="expression_disk"),
        pytest.param("half_plane", [[1.0, 0.3], [0.3, 1.0]], id="half_plane-non_diagonal"),
    ],
)
def test_rk4_step_on_floats_is_the_numpy_step(name, metric):
    # one RK4 step on a list of floats against the earlier step on numpy rows
    # of the Hamiltonian field, to the bit
    scenario = _case(name)
    if metric is not None:
        scenario = dataclasses.replace(scenario, metric=geo.constant_metric(metric))
    rng = np.random.default_rng(20)
    h = 1e-3
    for direction in (1.0, -1.0):
        rhs = flow._interior_rhs(scenario, direction)

        def field(y):
            return direction * sym.hamiltonian_field(scenario, y)

        for _ in range(200):
            # the stages stay in the chart box: they move x by less than 0.05
            x = rng.uniform(scenario.domain_lo + 0.05, scenario.domain_hi - 0.05)
            rho = PhasePoint(0.0, x, rng.uniform(0.5, 2.0), rng.normal(size=2))
            y = rho.as_vector()
            stepped = flow._rk4_step(rhs, y.tolist(), h)
            assert np.array(stepped).tobytes() == _reference_rk4_step(field, y, h).tobytes()


@pytest.mark.parametrize(
    "name, x, xi", [("wavy", [0.0, 0.8], [0.3, 1.0]), ("expression_disk", [-0.2, -0.2], [1.0, 0.5])]
)
def test_interior_step_evaluates_the_metric_once_per_stage(name, x, xi, monkeypatch):
    """At most 4 metric evaluations per step: one per RK stage, with the shell
    rescale, q and the next step's k1 sharing the one at the new state; and no
    jet kernel call for an entry that names neither x1 nor x2 (folded when
    loaded)."""
    codes = []

    def traced(expr, _kernel=jet.kernel):
        k = _kernel(expr)
        code = compile(expr, "<entry>", "eval")

        def counted(x1, x2):
            codes.append(code)
            return k(x1, x2)

        return counted

    monkeypatch.setattr(jet, "kernel", traced)
    scenarios = [_case(name) for _ in range(2)]
    codes.clear()  # the calls of the positive-definiteness check at load

    def calls(scenario, span):
        n = [0]

        def counted(x, _entries=scenario.metric.entries):
            n[0] += 1
            return _entries(x)

        scenario.metric.entries = counted
        rho0 = shell_start(scenario, x, xi)
        piece, ev = flow.integrate_interior(scenario, rho0, span, flow.IntegratorParams(h=1e-3))
        assert ev.reason == "span_end"
        return len(piece) - 1, n[0]

    # the per-piece start (characteristic check, first q) is taken out by the
    # difference with a one-step flight
    steps, n = calls(scenarios[0], (0.0, 0.3))
    one, n1 = calls(scenarios[1], (0.0, 1e-3))
    assert (steps, one) == (300, 1)
    assert (n - n1) / (steps - one) <= 4.0
    assert codes and all({"x1", "x2"} & set(code.co_names) for code in codes)


def _g11_crossing_zero():
    """g11 = x2 - 0.1 is positive at the box centre and vanishes at x2 = 0.1,
    above the wall x2 = -1."""
    return scen.from_config(
        {
            "schema": 1,
            "name": "g11_crossing_zero",
            "boundary": {"kind": "expression", "phi": "x2 + 1", "box": [[-2.0, -1.25], [2.0, 2.0]]},
            "metric": {"kind": "expression", "expressions": [["x2 - 0.1", "0"], ["0", "1"]]},
        }
    )


def test_a_trace_stops_where_the_metric_is_not_positive_definite():
    # straight down from x2 = 0.5: the trace used to run on to x2 = -0.5, g11 = -0.6
    scenario = _g11_crossing_zero()
    rho0 = PhasePoint(0.0, np.array([0.0, 0.5]), 1.0, np.array([0.0, -1.0]))
    with pytest.raises(StepFailure, match=r"not positive definite at x = \[0\.0, 0\.0"):
        flow.trace_generalized(scenario, rho0, 1.0, flow.IntegratorParams(h=1e-2))


def test_an_exactly_singular_metric_is_a_step_failure():
    rhs = flow._interior_rhs(_g11_crossing_zero(), 1.0)
    # g11 = 0.1 - 0.1 = 0 exactly: a division by det g = 0 without the check
    with pytest.raises(StepFailure, match=r"at x = \[0\.3, 0\.1\]: g11 = 0,"):
        rhs(np.array([0.0, 0.3, 0.1, 1.0, 0.0, 1.0]))
    # det g = 1 - x1^2 = 0 exactly at x1 = 1, with g11 = 1 > 0
    sheared = scen.from_config(
        {
            "schema": 1,
            "builtin": "half_plane",
            "metric": {"kind": "expression", "expressions": [["1", "x1"], ["x1", "1"]]},
        }
    )
    x = np.array([1.0, 0.5])
    with pytest.raises(StepFailure, match=r"at x = \[1\.0, 0\.5\]: g11 = 1, det g = 0"):
        flow._interior_rhs(sheared, -1.0)(np.array([0.0, *x, 1.0, 1.0, 0.0]))
    with pytest.raises(StepFailure, match="not positive definite"):
        sheared.metric.g_inv(x)


# ---------------------------------------------------------------------------
# glancing-step construction


def test_glancing_step_sqrt_law(disk):
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    peaks = []
    for delta in deltas:
        poly = flow.glancing_step_construct(disk, rho0, delta, 0.1)
        peaks.append(poly.hpz_max)
        # chord from depth eps*delta on curvature hp2z = -4: |hpz| at contact
        # is sqrt(2 * 4 * eps * delta)
        predicted = 2.0 * np.sqrt(2.0 * 0.1 * delta)
        assert poly.hpz_max == pytest.approx(predicted, rel=2e-2)
    slope = np.polyfit(np.log(deltas), np.log(peaks), 1)[0]
    assert 0.45 <= slope <= 0.55


def test_glancing_step_flat_wall_never_leaves(strip):
    rho0 = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([1.0, 0.0]))
    poly = flow.glancing_step_construct(strip, rho0, 1e-3, 0.1)
    assert poly.hpz_max == 0.0
    assert poly.contacts == []


def test_glancing_step_converges_to_gliding(disk):
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    piece, _ = flow.integrate_gliding(
        disk, rho0, (0.0, 0.5), flow.IntegratorParams(h=1e-3)
    )
    variants = flow._distance_variants(disk, piece.states)
    dists = []
    for delta in (1e-2, 1e-3):
        poly = flow.glancing_step_construct(disk, rho0, delta, 0.1)
        dmax = max(
            flow._semi_distance(p.as_vector()[None, :], variants) for p in poly.points
        )
        assert dmax <= np.sqrt(delta)
        dists.append(dmax)
    assert dists[1] < dists[0]


@pytest.mark.parametrize("name", ["disk_interior", "wavy"])
def test_distance_variants_match_reflecting_every_row(name):
    # rows beyond the band are screened out before the reflection is tried
    scenario = _load(name)
    rng = np.random.default_rng(3)
    X = rng.uniform(scenario.domain_lo, scenario.domain_hi, size=(300, 2))
    th = rng.uniform(0.0, 2 * np.pi, size=300)
    states = np.column_stack([np.zeros(300), X, np.ones(300), np.cos(th), np.sin(th)])
    refl, pen = [], []
    for row in states:
        r = flow._extended_reflection(scenario, PhasePoint.from_vector(row, 2))
        if r is not None:
            refl.append(r[0].as_vector())
            pen.append(r[1])
    variants = flow._distance_variants(scenario, states)
    assert 0 < len(refl) < 300 and len(variants) == 2
    assert np.array_equal(variants[0][0], states)
    assert np.array_equal(variants[1][0], np.array(refl))
    assert np.array_equal(variants[1][1], np.array(pen))


def test_glancing_step_rejects_hyperbolic_start(disk):
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([-0.6, 0.8]))
    with pytest.raises(ValueError):
        flow.glancing_step_construct(disk, rho0, 1e-3, 0.1)


# ---------------------------------------------------------------------------
# compressed distance, folding, continuity


def test_fold_keeps_interior_points(half_plane):
    rho = unit_start(0.0, [0.2, 0.5], 1.0, [0.6, -0.8])
    assert flow.fold_into_domain(half_plane, rho) is rho


def test_fold_mirrors_across_flat_wall(half_plane):
    rho = PhasePoint(0.0, np.array([0.2, -0.01]), 1.0, np.array([0.6, -0.8]))
    folded = flow.fold_into_domain(half_plane, rho)
    assert folded.x[1] == pytest.approx(0.01, abs=1e-10)
    assert folded.xi[1] == pytest.approx(0.8, abs=1e-10)
    assert folded.xi[0] == pytest.approx(0.6, abs=1e-10)


def test_fold_mirrors_across_curved_wall(disk):
    x_out = 1.01 * np.array([np.cos(0.3), np.sin(0.3)])
    rho = PhasePoint(0.0, x_out, 1.0, np.array([np.cos(1.9), np.sin(1.9)]))
    folded = flow.fold_into_domain(disk, rho)
    assert disk.boundary.phi(folded.x) == pytest.approx(0.01, abs=1e-6)
    assert np.linalg.norm(folded.xi) == pytest.approx(1.0, abs=1e-9)


def test_fold_rejects_points_beyond_the_band(disk):
    rho = PhasePoint(0.0, np.array([1.5, 0.0]), 1.0, np.array([1.0, 0.0]))
    with pytest.raises(OutOfChart):
        flow.fold_into_domain(disk, rho)


def test_compressed_distance_zero_for_reflection_pair(half_plane):
    hit = PhasePoint(0.0, np.array([0.3, 0.0]), 1.0, np.array([0.6, -0.8]))
    out = sym.sigma(half_plane, hit)
    assert flow.compressed_distance(half_plane, hit, out) == 0.0


def test_compressed_distance_penalizes_off_boundary_reflection(half_plane):
    a = PhasePoint(0.0, np.array([0.3, 0.01]), 1.0, np.array([0.6, -0.8]))
    b = PhasePoint(0.0, np.array([0.3, 0.01]), 1.0, np.array([0.6, 0.8]))
    assert flow.compressed_distance(half_plane, a, b) == pytest.approx(0.01, abs=1e-9)


@given(
    x2a=st.floats(0.05, 1.0),
    x2b=st.floats(0.05, 1.0),
    tha=st.floats(0.0, 2 * np.pi),
    thb=st.floats(0.0, 2 * np.pi),
)
def test_compressed_distance_is_symmetric(half_plane, x2a, x2b, tha, thb):
    a = unit_start(0.0, [0.0, x2a], 1.0, [np.cos(tha), np.sin(tha)])
    b = unit_start(0.1, [0.3, x2b], 1.0, [np.cos(thb), np.sin(thb)])
    dab = flow.compressed_distance(half_plane, a, b)
    dba = flow.compressed_distance(half_plane, b, a)
    assert dab == pytest.approx(dba, rel=1e-12, abs=1e-15)


def test_continuity_probe_vanishes_at_zero_delta(half_plane):
    rho0 = unit_start(0.0, [0.0, 0.5], 1.0, [0.6, -0.8])
    eps0 = flow.continuity_probe(half_plane, rho0, 0.0, 0.5, 4)
    assert eps0 == 0.0


@pytest.mark.parametrize("n_samples", [0, -1])
def test_continuity_probe_needs_a_sample(half_plane, n_samples):
    rho0 = unit_start(0.0, [0.0, 0.5], 1.0, [0.6, -0.8])
    with pytest.raises(ValueError, match="at least one"):
        flow.continuity_probe(half_plane, rho0, 1e-3, 0.5, n_samples)


@pytest.mark.parametrize("delta", [-1e-3, np.nan, np.inf])
def test_continuity_probe_needs_a_finite_nonnegative_delta(half_plane, delta):
    rho0 = unit_start(0.0, [0.0, 0.5], 1.0, [0.6, -0.8])
    with pytest.raises(ValueError, match="finite delta"):
        flow.continuity_probe(half_plane, rho0, delta, 0.5, 1)


def test_continuity_probe_flat_scale(half_plane):
    # flat half-plane reflection is Lipschitz in compressed distance
    rho0 = unit_start(0.0, [0.0, 0.5], 1.0, [0.6, -0.8])
    delta = 1e-3
    eps_hat = flow.continuity_probe(half_plane, rho0, delta, 1.0, 16, seed=1)
    assert eps_hat <= 10 * delta


def _all_pairs_min(P, variants):
    """Reference for flow._min_distances: cdist of every row of P against
    every variant row, plus its penalty."""
    best = np.full(len(P), np.inf)
    for rows, pens in variants:
        np.minimum(best, (cdist(P, rows) + pens[None, :]).min(axis=1), out=best)
    return best


@given(
    seed=st.integers(0, 2**32 - 1),
    n_ref=st.integers(1, 90),
    n_p=st.integers(1, 150),
    t_grid=st.sampled_from([0.0, 0.05, 0.25]),
    far=st.booleans(),
    reflected=st.booleans(),
    scale=st.sampled_from([1e-6, 1e-2, 1.0, 10.0]),
)
def test_min_distances_match_all_pairs(seed, n_ref, n_p, t_grid, far, reflected, scale):
    # pruning in t keeps every row that can attain a minimum, so each
    # minimum is the all-pairs cdist minimum to the bit; t_grid > 0 rounds t
    # onto a grid, which ties many rows in t
    rng = np.random.default_rng(seed)
    band = scen.builtin("strip").band

    def rows(n):
        out = np.column_stack([rng.uniform(-1.0, 1.0, n), scale * rng.normal(size=(n, 5))])
        if t_grid:
            out[:, 0] = np.round(out[:, 0] / t_grid) * t_grid
        return out

    ref = rows(n_ref)
    variants = [(ref, np.zeros(n_ref))]
    if reflected:
        pick = rng.random(n_ref) < 0.5
        pick[0] = True  # _distance_variants adds no empty variant
        refl = ref[pick].copy()
        refl[:, 4:] = -refl[:, 4:]
        variants.append((refl, rng.uniform(0.0, band, len(refl))))
    P = np.vstack([rows(n_p), ref[rng.integers(0, n_ref, n_p // 3)]])
    if far:
        P[::4, 0] += rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 50.0)
    assert np.array_equal(flow._min_distances(P, variants), _all_pairs_min(P, variants))


def test_min_distances_match_all_pairs_on_traces(disk, strip):
    # one-row P (as in the glancing-step convergence test), a perturbed
    # trace against a reference with a reflected variant, and a base variant alone
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    piece, _ = flow.integrate_gliding(disk, rho0, (0.0, 0.5), flow.IntegratorParams(h=1e-3))
    variants = flow._distance_variants(disk, piece.states)
    for p in flow.glancing_step_construct(disk, rho0, 1e-2, 0.1).points:
        P = p.as_vector()[None, :]
        assert np.array_equal(flow._min_distances(P, variants), _all_pairs_min(P, variants))
    params = flow.IntegratorParams(h=2e-3)
    rho = unit_start(0.0, [0.1, 0.45], 1.0, [0.6, 0.8])
    ref = flow._trace_states_both(strip, rho, 1.0, params)
    variants = flow._distance_variants(strip, ref)
    assert len(variants) == 2
    rng = np.random.default_rng(4)
    for delta in (1e-2, 1e-4, 0.0):
        pert = flow._perturb_characteristic(strip, rho, delta, rng)
        P = flow._trace_states_both(strip, pert, 1.0, params)
        for v in (variants, variants[:1]):
            assert np.array_equal(flow._min_distances(P, v), _all_pairs_min(P, v))


@pytest.mark.parametrize("name", ["half_plane", "disk"])
def test_support_step_check_report_matches_all_pairs(monkeypatch, request, name):
    # the t-pruned minimum gives the report the all-pairs cdist minimum gives
    scenario = request.getfixturevalue(name)
    start = {"half_plane": ([-0.5, 0.8], [0.6, -0.8]), "disk": ([1.0, 0.0], [0.0, 1.0])}[name]
    rho0 = PhasePoint(0.0, np.array(start[0]), 1.0, np.array(start[1]))
    gb = flow.trace_generalized(scenario, rho0, 0.6, flow.IntegratorParams(h=3e-4))
    delta = 1e-2
    full = measures.support_samples(gb)
    trimmed = measures.support_samples(gb, s_margin=2 * delta)
    report = measures.support_step_check(trimmed, scenario, delta, 0.01, reference=full)
    assert report.n_failures > 0
    monkeypatch.setattr(flow, "_min_distances", _all_pairs_min)
    assert measures.support_step_check(trimmed, scenario, delta, 0.01, reference=full) == report


_SWEEP_STARTS = {
    "strip": ([0.1, 0.45], [0.6, 0.8]),
    "half_plane": ([0.0, 0.3], [0.6, -0.8]),
    "disk_interior": ([0.3, 0.1], [0.6, 0.8]),
}


@pytest.mark.parametrize("n_samples", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_SWEEP_STARTS))
def test_continuity_sweep_matches_per_delta_probes(monkeypatch, name, n_samples):
    # one reference trace per sweep: 2 + 2 n (nonzero deltas) traces, not
    # 2 (1 + n) len(deltas) as one probe per delta takes
    scenario = scen.builtin(name)
    x, xi = _SWEEP_STARTS[name]
    rho0 = unit_start(0.0, x, 1.0, xi)
    params = flow.IntegratorParams(h=2e-3)
    deltas = [1e-2, 0.0, 1e-3]
    calls = []
    trace = flow.trace_generalized

    def counted(*args, **kwargs):
        calls.append(1)
        return trace(*args, **kwargs)

    monkeypatch.setattr(flow, "trace_generalized", counted)
    sweep = flow.continuity_sweep(scenario, rho0, deltas, 0.5, n_samples, params, seed=7)
    assert len(calls) == 2 + 2 * n_samples * (len(deltas) - 1)
    probes = [flow.continuity_probe(scenario, rho0, d, 0.5, n_samples, params, seed=7)
              for d in deltas]
    assert sweep == probes
    assert sweep[1] == 0.0


# ---------------------------------------------------------------------------
# export records


def test_trajectory_records_shape(strip):
    rho0 = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    gb = flow.trace_generalized(strip, rho0, 1.2, flow.IntegratorParams(h=1e-3))
    recs = [json.loads(line) for line in flow.trajectory_records(gb)]
    assert recs[0].keys() == {"s", "t", "x", "tau", "xi", "piece_kind", "piece_index"}
    assert {r["piece_kind"] for r in recs} == {flow.INTERIOR}
    events = flow.event_records(gb)
    assert [e["s"] for e in events] == sorted(e["s"] for e in events)
    assert events[0]["kind"] == "Hyperbolic"


def _dict_lines(gb, **fields):
    """Sample lines as one dict and one json.dumps(sort_keys=True) per sample."""
    s, states, kind, idx = gb.all_samples()
    names = {0: flow.INTERIOR, 1: flow.GLIDING}
    lines = []
    for i in range(len(s)):
        row = states[i]
        rec = {
            "s": float(s[i]),
            "t": float(row[sym.T]),
            "x": [float(v) for v in row[sym.X]],
            "tau": float(row[sym.TAU]),
            "xi": [float(v) for v in row[sym.XI]],
            "piece_kind": names[int(kind[i])],
            "piece_index": int(idx[i]),
        }
        lines.append(json.dumps(dict(rec, **fields), sort_keys=True))
    return lines


def _odd_trace(n_pieces=12):
    # -0.0, a subnormal, 1e300, values whose repr needs 17 digits, and
    # enough pieces for a two-digit piece_index
    rng = np.random.default_rng(7)
    odd = np.array([-0.0, 5e-324, 2.5e-310, 1e300, -1e300, 0.1 + 0.2, 1 / 3, 1e16, 123.0])
    pieces = []
    for k in range(n_pieces):
        states = rng.normal(size=(5, 6)) * 10.0 ** rng.integers(-20, 20, size=(5, 6))
        states.flat[rng.integers(0, 30, size=4)] = rng.choice(odd, size=4)
        s = np.array([-0.0, 5e-324, 1e300, 0.1 + 0.2, float(k)])
        kind = flow.GLIDING if k % 3 == 1 else flow.INTERIOR
        pieces.append(flow.TrajectoryPiece(kind, s, states))
    return flow.GenBicharacteristic(pieces, [], [])


@pytest.mark.parametrize(
    "fields",
    [{}, {"record": "sample"}, {"record": "sample", "direction": 1},
     {"record": "sample", "direction": -1}, {"note": "100 %r %%", "zz": [1.5, None]}],
    ids=["bare", "trace", "witness-forward", "witness-backward", "percent-signs"],
)
def test_sample_lines_match_json_dumps(strip, fields):
    gb = _odd_trace()
    assert flow.trajectory_records(gb, **fields) == _dict_lines(gb, **fields)
    assert json.loads(flow.trajectory_records(gb, **fields)[-1])["piece_index"] == 11
    rho0 = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([0.6, 0.8]))
    traced = flow.trace_generalized(strip, rho0, 2.0, flow.IntegratorParams(h=1e-3))
    assert flow.trajectory_records(traced, **fields) == _dict_lines(traced, **fields)


@pytest.mark.parametrize("where", ["s", "state"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_lines_refuse_non_finite_values(where, bad):
    gb = _odd_trace(3)
    if where == "s":
        gb.pieces[1].s[2] = bad
    else:
        gb.pieces[2].states[3, sym.XI.start + 1] = bad
    with pytest.raises(ValueError):
        flow.trajectory_records(gb, record="sample")
