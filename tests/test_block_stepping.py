"""Planned constant-metric runs against the one-step-at-a-time path.

Under a constant metric, interior pieces take their straight runs from a
plan built in array passes. A twin of the scenario whose identity metric
is a plain ``geo.MetricEval`` of its entries (so ``is_constant`` is False)
takes every step one at a time with the same arithmetic; both must give the
same samples, breaks and junctions.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glancer import flow
from glancer import geometry as geo
from glancer import scenarios as scen
from glancer.errors import MaxStepsExceeded
from glancer.symbol import PhasePoint

def stepped_twin(scenario):
    twin = dataclasses.replace(
        scenario, metric=geo.MetricEval(lambda x: (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    )
    assert scenario.metric.is_constant and not twin.metric.is_constant
    return twin


def shell_start(scenario, x, direction):
    x = np.asarray(x, dtype=float)
    xi = np.asarray(direction, dtype=float)
    return PhasePoint(0.0, x, 1.0, xi / np.sqrt(geo.conorm_sq(scenario, x, xi)))


def assert_same_trace(a, b):
    for u, v in zip(a.all_samples(), b.all_samples()):
        assert np.array_equal(u, v)
    assert [br.s for br in a.break_set] == [br.s for br in b.break_set]
    for ba, bb in zip(a.break_set, b.break_set):
        assert np.array_equal(ba.rho_minus.as_vector(), bb.rho_minus.as_vector())
        assert np.array_equal(ba.rho_plus.as_vector(), bb.rho_plus.as_vector())
    assert [(s, bc.tag, bc.hpz, bc.hp2z) for s, bc in a.junctions] == [
        (s, bc.tag, bc.hpz, bc.hp2z) for s, bc in b.junctions
    ]


def assert_same_as_twin(name, x, direction, horizon, params, trace_direction=1):
    scenario = scen.builtin(name)
    rho0 = shell_start(scenario, x, direction)
    planned = flow.trace_generalized(scenario, rho0, horizon, params, trace_direction)
    stepped = flow.trace_generalized(stepped_twin(scenario), rho0, horizon, params, trace_direction)
    assert_same_trace(planned, stepped)
    return planned


BOUNCES = [
    pytest.param("strip", [0.1, 0.4], [0.5, 0.86], 8.0, id="strip"),
    pytest.param("half_plane", [0.0, 1.0], [0.6, -0.8], 3.0, id="half_plane"),
    pytest.param("disk_interior", [0.2, 0.1], [0.6, 0.8], 6.0, id="disk_interior"),
    pytest.param("disk_exterior", [-2.0, 0.3], [1.0, 0.0], 4.0, id="disk_exterior"),
    pytest.param("annulus", [0.75, 0.0], [0.3, 1.0], 6.0, id="annulus"),
]


@pytest.mark.parametrize("trace_direction", [1, -1])
@pytest.mark.parametrize("name, x, direction, horizon", BOUNCES)
def test_planned_runs_match_single_steps(name, x, direction, horizon, trace_direction):
    gb = assert_same_as_twin(
        name, x, direction, horizon, flow.IntegratorParams(h=1e-3), trace_direction
    )
    assert gb.n_samples > 1000


def test_planned_runs_match_on_the_long_disk_run():
    # criterion 1's disk_interior run: near-diameter chords, T = 20
    gb = assert_same_as_twin(
        "disk_interior", [0.9, 0.0], [-0.999, 0.0447], 20.0, flow.IntegratorParams(h=1e-3)
    )
    assert len(gb.break_set) >= 5


def test_planned_runs_match_on_a_diffractive_graze():
    # the ray touches the obstacle tangentially, inside the tangency gate band
    gb = assert_same_as_twin(
        "disk_exterior", [-1.5, 1.0], [1.0, 0.0], 4.0, flow.IntegratorParams(h=1e-3)
    )
    assert [bc.tag.value for _, bc in gb.junctions] == ["Diffractive"]


def test_planned_runs_match_when_xi_settles_in_a_two_cycle():
    scenario = scen.builtin("disk_interior")
    th = 0.10384619671527331
    rho0 = PhasePoint(0.0, np.array([0.1, 0.2]), 1.0, np.array([np.cos(th), np.sin(th)]))
    # the shell projection sends xi to another vector and back
    rhs = flow._interior_rhs(scenario, 1.0)
    ys = [rho0.as_vector()]
    for _ in range(2):
        y = flow._rk4_step(rhs, ys[-1], 1e-3)
        flow._rescale_char(scenario, y)
        ys.append(y)
    assert not np.array_equal(ys[1][4:], ys[0][4:])
    assert np.array_equal(ys[2][4:], ys[0][4:])
    params = flow.IntegratorParams(h=1e-3)
    assert_same_trace(
        flow.trace_generalized(scenario, rho0, 5.0, params),
        flow.trace_generalized(stepped_twin(scenario), rho0, 5.0, params),
    )


def test_planned_chart_exit_matches_single_steps():
    scenario = scen.builtin("half_plane")
    rho0 = shell_start(scenario, [0.0, 1.0], [1.0, 0.0])
    params = flow.IntegratorParams(h=1e-3)
    pieces = [
        flow.integrate_interior(sc, rho0, (0.0, 10.0), params)
        for sc in (scenario, stepped_twin(scenario))
    ]
    (planned, ev_p), (stepped, ev_s) = pieces
    assert ev_p.reason == ev_s.reason == "chart_exit"
    assert ev_p.s == ev_s.s == pytest.approx(6.0, abs=1e-9)
    assert len(planned) == len(stepped) == 6001
    assert np.array_equal(planned.s, stepped.s)
    assert np.array_equal(planned.states, stepped.states)
    assert np.array_equal(ev_p.rho.as_vector(), ev_s.rho.as_vector())


def test_planned_runs_skip_the_pointwise_checks():
    # the run is clear of the wall and the box but its last rows: the plan
    # screens its rows in array passes, so phi is evaluated pointwise only
    # near the box edge, where the steps are taken one at a time
    base = scen.builtin("half_plane")
    calls = []

    def phi(x):
        calls.append(1)
        return base.boundary.phi(x)

    counting = dataclasses.replace(base, boundary=dataclasses.replace(base.boundary, phi=phi))
    rho0 = shell_start(base, [0.0, 1.0], [1.0, 0.0])
    for sc, most in ((counting, 100), (stepped_twin(counting), None)):
        calls.clear()
        piece, _ = flow.integrate_interior(sc, rho0, (0.0, 10.0), flow.IntegratorParams(h=1e-3))
        assert len(piece) == 6001
        if most is None:
            assert len(calls) > 6000
        else:
            assert len(calls) < most


def test_step_budget_runs_out_at_the_same_step():
    scenario = scen.builtin("half_plane")
    rho0 = shell_start(scenario, [0.0, 1.0], [1.0, 0.0])
    span = (0.0, 2.5)
    piece, ev = flow.integrate_interior(stepped_twin(scenario), rho0, span)
    assert ev.reason == "span_end"
    n_steps = len(piece) - 1
    for sc in (scenario, stepped_twin(scenario)):
        # the budget ends inside the first planned chunks and near the span end
        for budget in (100, 1000, n_steps - 1):
            with pytest.raises(MaxStepsExceeded):
                flow.integrate_interior(sc, rho0, span, flow.IntegratorParams(max_steps=budget))
        done, _ = flow.integrate_interior(sc, rho0, span, flow.IntegratorParams(max_steps=n_steps))
        assert np.array_equal(done.states, piece.states)


def test_scalar_only_boundary_still_traces():
    # phi takes one point at a time; the screen falls back to a loop over rows
    base = scen.builtin("half_plane")
    e2 = (0.0, 1.0, 0.0, 0.0, 0.0)
    scalar_only = dataclasses.replace(
        base,
        boundary=geo.BoundaryDef(lambda x: float(x[1]), lambda x: e2),
    )
    rho0 = shell_start(base, [0.0, 1.0], [0.6, -0.8])
    params = flow.IntegratorParams(h=1e-3)
    assert_same_trace(
        flow.trace_generalized(scalar_only, rho0, 3.0, params),
        flow.trace_generalized(base, rho0, 3.0, params),
    )


@given(
    name=st.sampled_from(["disk_interior", "strip", "annulus"]),
    u=st.floats(0.05, 0.95),
    v=st.floats(0.0, 1.0),
    th=st.floats(0.0, 2 * np.pi),
    horizon=st.floats(0.5, 2.0),
    trace_direction=st.sampled_from([1, -1]),
)
def test_random_interior_starts_match_single_steps(name, u, v, th, horizon, trace_direction):
    if name == "strip":
        x = [2.0 * v - 1.0, u]
    else:
        r0, r1 = (0.0, 1.0) if name == "disk_interior" else (0.5, 1.0)
        r = r0 + u * (r1 - r0)
        x = [r * np.cos(2 * np.pi * v), r * np.sin(2 * np.pi * v)]
    assert_same_as_twin(name, x, [np.cos(th), np.sin(th)], horizon,
                        flow.IntegratorParams(h=1e-3), trace_direction)


# ---------------------------------------------------------------------------
# the tangency gate band (phi <= tangency_gate): steps there are planned
# when the row q = d(phi)/d(sigma) cannot turn from - to + across them

# interior steps are projected onto the characteristic shell, which the
# "project" in these tests' ids names
PROJECTED = pytest.mark.parametrize("params", [flow.IntegratorParams(h=1e-3)], ids=["project"])


def band_start(name, depth, angle):
    """A shell start at phi = depth; angle is the direction's angle to the inward normal."""
    scenario = scen.builtin(name)
    if name == "strip":
        x, normal = np.array([0.3, depth]), np.array([0.0, 1.0])
    elif name == "annulus":  # at the inner wall, r0 = 0.5
        x, normal = np.array([0.5 + depth, 0.0]), np.array([1.0, 0.0])
    else:  # disk_interior, radius 1
        x, normal = np.array([0.0, -(1.0 - depth)]), np.array([0.0, 1.0])
    tangent = np.array([normal[1], -normal[0]])
    d = np.cos(angle) * normal + np.sin(angle) * tangent
    return scenario, shell_start(scenario, x, d)


def assert_band_start_matches(name, depth, angle, horizon, params, trace_direction):
    scenario, rho0 = band_start(name, depth, angle)
    planned = flow.trace_generalized(scenario, rho0, horizon, params, trace_direction)
    stepped = flow.trace_generalized(stepped_twin(scenario), rho0, horizon, params, trace_direction)
    assert_same_trace(planned, stepped)
    return planned


@pytest.mark.parametrize("trace_direction", [1, -1])
@PROJECTED
def test_turning_point_inside_the_band_matches_single_steps(params, trace_direction):
    # a pass by the obstacle whose closest point lies at phi = 0.03, inside
    # the band (tangency_gate = 0.05) but off the wall: q turns - to + there
    gb = assert_same_as_twin(
        "disk_exterior", [-2.0 * trace_direction, 1.03], [1.0, 0.0], 4.0, params, trace_direction
    )
    scenario = scen.builtin("disk_exterior")
    phi = scenario.boundary.phi_on_rows(gb.all_samples()[1][:, 1:3])
    assert 0.0 < phi.min() < params.tangency_gate
    assert gb.junctions == [] and gb.break_set == []


@pytest.mark.parametrize("trace_direction", [1, -1])
@PROJECTED
def test_graze_between_two_rows_matches_single_steps(params, trace_direction):
    # the rows next to the contact lie at x1 = -0.001 and 0.001, both at
    # phi = 5e-7, so only the q screen keeps the graze off the planned runs
    gb = assert_same_as_twin(
        "disk_exterior", [-1.501 * trace_direction, 1.0], [1.0, 0.0], 4.0, params, trace_direction
    )
    assert [bc.tag.value for _, bc in gb.junctions] == ["Diffractive"]


@pytest.mark.parametrize("trace_direction", [1, -1])
@PROJECTED
@pytest.mark.parametrize("name", ["disk_interior", "annulus", "strip"])
@pytest.mark.parametrize("angle", [2.8, 0.4], ids=["heading-in", "heading-out"])
def test_band_starts_match_single_steps(name, angle, params, trace_direction):
    # from phi = 0.02: heading in (q < 0 at the start) the ray bounces
    # inside the band, heading out (q > 0) it leaves the band
    gb = assert_band_start_matches(name, 0.02, angle, 1.5, params, trace_direction)
    assert gb.n_samples > 500


@given(
    name=st.sampled_from(["disk_interior", "strip", "annulus"]),
    depth=st.floats(1e-4, 0.05),
    angle=st.floats(0.0, 2 * np.pi),
    horizon=st.floats(0.2, 1.5),
    trace_direction=st.sampled_from([1, -1]),
)
def test_random_band_starts_match_single_steps(name, depth, angle, horizon, trace_direction):
    assert_band_start_matches(name, depth, angle, horizon, flow.IntegratorParams(h=1e-3),
                              trace_direction)


def test_band_steps_are_planned_at_a_bounce():
    # one bounce on the unit disk at 60 degrees to the normal. The ray spends
    # about 100 of its 500 steps inside the band, all with q of one sign
    # per step: 39 pointwise phi calls (one per run plus the bisection of
    # the hit), against 147 when every band step is taken alone and 530
    # for the twin; the bound 60 leaves room for a few more single steps
    base = scen.builtin("disk_interior")
    calls = []

    def phi(x):
        calls.append(1)
        return base.boundary.phi(x)

    counting = dataclasses.replace(base, boundary=dataclasses.replace(base.boundary, phi=phi))
    rho0 = shell_start(base, [0.0, np.sin(np.pi / 3)], [1.0, 0.0])
    counts = []
    for sc in (counting, stepped_twin(counting)):
        calls.clear()
        gb = flow.trace_generalized(sc, rho0, 1.0, flow.IntegratorParams(h=1e-3))
        assert len(gb.break_set) == 1 and gb.n_samples == 503
        counts.append(len(calls))
    planned, stepped = counts
    assert planned < 60 < 500 < stepped


@pytest.mark.parametrize("name", scen.BUILTIN_NAMES)
def test_row_q_is_well_inside_the_screen_margin(name):
    # the screen compares the row q with the margin 1e-9 * max(1, |tau|);
    # the row q differs from the scalar q the loop reads by rounding only
    scenario = scen.builtin(name)
    rng = np.random.default_rng(11)
    X = rng.uniform(scenario.domain_lo, scenario.domain_hi, size=(2000, 2))
    X = X[scenario.boundary.phi_on_rows(X) > 1e-9][:500]
    for tau, sgn in ((1.0, 1.0), (7.0, -1.0)):
        runs = flow._StraightRuns(scenario, None, flow.IntegratorParams(), 1.0, sgn)
        rows = np.zeros((len(X), 6))
        th = rng.uniform(0.0, 2 * np.pi, size=len(X))
        rows[:, 1:3], rows[:, 3] = X, tau
        rows[:, 4], rows[:, 5] = tau * np.cos(th), tau * np.sin(th)
        q_of = flow._approach_rate(scenario, sgn)
        scalar = np.array([q_of(y) for y in rows])
        margin = runs.FLOOR * max(1.0, tau)
        assert np.abs(runs._q_rows(rows) - scalar).max() <= 1e-4 * margin
