from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glancer import flow
from glancer import geometry as geo
from glancer import scenarios as scen
from glancer.errors import DegenerateNormal, NotOnBoundary, OutOfChart, SmoothingFailure
from glancer.symbol import PhasePoint

finite = st.floats(-3.0, 3.0, allow_nan=False)
WAVY_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "wavy.json"
EXPRESSION_DISK = scen.from_config(
    {
        "schema": 1,
        "boundary": {"kind": "expression", "phi": "1 - hypot(x1, x2)",
                     "box": [[-1.25, -1.25], [1.25, 1.25]]},
        "metric": {"kind": "expression",
                   "expressions": [["1 + 0.25 * x2", "0.1 * x1"], ["0.1 * x1", "1"]]},
    }
)


def test_in_domain_is_the_chart_box(half_plane):
    assert geo.in_domain(half_plane, np.array([0.0, 5.0]))
    assert geo.in_domain(half_plane, np.array([0.0, -0.2]))  # collar below the wall
    assert not geo.in_domain(half_plane, np.array([0.0, 50.0]))
    # the box is widened by exactly 1e-9 on each side
    lo = half_plane.domain_lo - 1e-9
    hi = half_plane.domain_hi + 1e-9
    for k in range(2):
        for edge, beyond in ((lo, -np.inf), (hi, np.inf)):
            x = 0.5 * (half_plane.domain_lo + half_plane.domain_hi)
            x[k] = edge[k]
            assert geo.in_domain(half_plane, x)
            x[k] = np.nextafter(edge[k], beyond)
            assert not geo.in_domain(half_plane, x)
    for x in ([np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]):
        assert not geo.in_domain(half_plane, np.array(x))


def test_conorm_sq_euclidean(half_plane):
    assert geo.conorm_sq(half_plane, [0.0, 1.0], [0.6, -0.8]) == pytest.approx(1.0)


@given(x1=finite, x2=st.floats(0.1, 3.0), a=finite, b=finite)
def test_conorm_positive_definite(half_plane, x1, x2, a, b):
    xi = np.array([a, b])
    if np.linalg.norm(xi) < 1e-6:
        return
    assert geo.conorm_sq(half_plane, [x1, x2], xi) > 0.0


def test_unit_conormal_half_plane(half_plane):
    n, n_star = geo.unit_normal(half_plane, [0.3, 0.0])
    assert np.allclose(n, [0.0, 1.0], atol=1e-12)
    assert np.allclose(n_star, [0.0, 1.0], atol=1e-12)


def test_unit_conormal_disk_points_inward(disk):
    th = 0.73
    x = np.array([np.cos(th), np.sin(th)])
    n, n_star = geo.unit_normal(disk, x)
    # inward at the unit circle means opposite to the position vector
    assert np.allclose(n, -x, atol=1e-9)
    assert geo.conorm_sq(disk, x, n_star) == pytest.approx(1.0, abs=1e-12)


def test_unit_conormal_rejects_interior_points(disk):
    with pytest.raises(NotOnBoundary):
        geo.unit_conormal(disk, [0.1, 0.2], 1e-9)


def test_unit_conormal_anisotropic_metric():
    s = scen.builtin("half_plane", metric={"kind": "constant", "matrix": [[1.0, 0.3], [0.3, 1.0]]})
    n, n_star = geo.unit_normal(s, [0.0, 0.0])
    # n_star stays parallel to dphi, n = g^{-1} n_star, and g(n, n) = 1
    assert n_star[0] == pytest.approx(0.0, abs=1e-12)
    g = s.metric.g(np.zeros(2))
    assert float(n @ g @ n) == pytest.approx(1.0, abs=1e-12)


def test_metric_eval_constant_flags():
    m = geo.constant_metric([[2.0, 0.0], [0.0, 0.5]])
    assert m.is_constant
    x = np.array([1.0, -1.0])
    assert np.allclose(m.g(x) @ m.g_inv(x), np.eye(2), atol=1e-14)
    assert np.allclose(m.dg(x), 0.0)


def test_callable_metric_dg_inv():
    def entries(x):
        c = 1.0 + 0.1 * np.sin(x[0]) * np.cos(x[1])
        dc1, dc2 = 0.1 * np.cos(x[0]) * np.cos(x[1]), -0.1 * np.sin(x[0]) * np.sin(x[1])
        return c, 0.0, c, dc1, 0.0, dc1, dc2, 0.0, dc2

    m = geo.callable_metric(entries)
    assert not m.is_constant
    x = np.array([0.4, 0.7])
    dg = m.dg(x)
    dgi = m.dg_inv(x)
    # d(g^{-1}) = -g^{-1} dg g^{-1}
    gi = m.g_inv(x)
    assert np.allclose(dgi[0], -gi @ dg[0] @ gi, atol=1e-6)


def test_constant_metric_rejects_bad_input():
    with pytest.raises(ValueError):
        geo.constant_metric([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        geo.constant_metric([[1.0, 2.0], [2.0, 1.0]])


def test_constant_metric_inverse_is_the_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        g11, g22 = rng.uniform(0.5, 2.0, size=2).tolist()
        g12 = float(rng.uniform(-0.4, 0.4))
        m = geo.constant_metric([[g11, g12], [g12, g22]])
        gi = m.g_inv(np.zeros(2))
        assert gi[0, 1] == gi[1, 0]
        e = (g11, g12, g22)
        assert (gi[0, 0], gi[0, 1], gi[1, 1]) == geo.inverse_2x2(e, np.zeros(2))
        assert m.at(np.zeros(2)) == (geo.inverse_2x2(e, np.zeros(2)), None)


def test_smoothstep_ramp():
    assert geo.smoothstep(-2.0) == 0.0
    assert geo.smoothstep(-1.0) == 0.0
    assert geo.smoothstep(-0.5) == 1.0
    assert geo.smoothstep(0.0) == 1.0
    assert geo.smoothstep(-0.75) == pytest.approx(0.5)
    # C1 at the joins: one-sided difference quotients vanish
    eps = 1e-7
    assert abs(geo.smoothstep(-1.0 + eps) - geo.smoothstep(-1.0)) / eps < 1e-5
    assert abs(geo.smoothstep(-0.5) - geo.smoothstep(-0.5 - eps)) / eps < 1e-5


# ---------------------------------------------------------------------------
# quasi-normal charts


def test_quasi_normal_chart_roundtrip(disk):
    m0 = np.array([np.cos(0.7), np.sin(0.7)])
    chart = geo.build_quasi_normal_chart(disk, m0)
    for u, z in [(0.0, 0.0), (0.1, 0.02), (-0.15, 0.05), (0.2, 0.0)]:
        c = np.array([u, z])
        back = chart.from_scenario(chart.to_scenario(c))
        assert np.allclose(back, c, atol=1e-9)


def test_quasi_normal_chart_base_point(disk):
    m0 = np.array([np.cos(0.7), np.sin(0.7)])
    chart = geo.build_quasi_normal_chart(disk, m0)
    assert np.allclose(chart.to_scenario(np.zeros(2)), m0, atol=1e-9)


def test_quasi_normal_chart_boundary_is_z0(disk):
    m0 = np.array([1.0, 0.0])
    chart = geo.build_quasi_normal_chart(disk, m0)
    for u in np.linspace(0.9 * chart.domain_lo[0], 0.9 * chart.domain_hi[0], 9):
        x = chart.to_scenario(np.array([u, 0.0]))
        assert abs(disk.boundary.phi(x)) < 1e-9


@pytest.mark.parametrize(
    "build",
    [
        lambda: (scen.builtin("disk_interior"), np.array([np.cos(0.7), np.sin(0.7)])),
        lambda: (
            scen.builtin(
                "half_plane", metric={"kind": "constant", "matrix": [[1.0, 0.3], [0.3, 1.0]]}
            ),
            np.array([0.4, 0.0]),
        ),
    ],
    ids=["disk", "half-plane-nondiag"],
)
def test_quasi_normal_chart_flattens_metric(build):
    scenario, m0 = build()
    chart = geo.build_quasi_normal_chart(scenario, m0)
    cs = scen.chart_scenario(scenario, chart)
    for u in np.linspace(0.9 * chart.domain_lo[0], 0.9 * chart.domain_hi[0], 9):
        G = np.linalg.inv(cs.metric.g_inv(np.array([u, 0.0])))
        assert abs(G[1, 0]) < 1e-6
        assert abs(G[1, 1] - 1.0) < 1e-6


def test_quasi_normal_chart_needs_boundary_base(disk):
    with pytest.raises((NotOnBoundary, DegenerateNormal)):
        geo.build_quasi_normal_chart(disk, np.array([0.2, 0.2]))


CHART_CASES = {
    "disk": lambda: (scen.builtin("disk_interior"), [1.0, 0.0]),
    "half-plane-nondiag": lambda: (
        scen.builtin("half_plane", metric={"kind": "constant", "matrix": [[1.0, 0.3], [0.3, 1.0]]}),
        [0.4, 0.0],
    ),
    "wavy": lambda: (scen.load_scenario(WAVY_PATH), [0.3, -0.3 * np.cos(0.3)]),
}


@pytest.fixture(scope="module")
def charts():
    """name -> (base scenario, chart, chart scenario), built once per module."""
    out = {}
    for name, build in CHART_CASES.items():
        scenario, m0 = build()
        chart = geo.build_quasi_normal_chart(scenario, m0)
        out[name] = (scenario, chart, scen.chart_scenario(scenario, chart))
    return out


def richardson_dg(metric, y, k, h=1e-4):
    """4th-order Richardson extrapolation of central differences of g along y_k."""
    e = np.zeros(2)
    e[k] = 1.0

    def central(step):
        return (metric.g(y + step * e) - metric.g(y - step * e)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


@pytest.mark.parametrize("name", list(CHART_CASES))
def test_chart_dg_matches_richardson_off_the_boundary(charts, name):
    _, chart, cs = charts[name]
    rng = np.random.default_rng(3)
    Y = rng.uniform(0.95 * chart.domain_lo, 0.95 * chart.domain_hi, size=(20, 2))
    # keep the stencil off z = 0, where m switches from the kernel sum to chi * n
    Y[:, 1] = np.copysign(np.maximum(np.abs(Y[:, 1]), 1e-3), Y[:, 1])
    for y in Y:
        dg = cs.metric.dg(y)
        for k in range(2):
            assert np.abs(dg[k] - richardson_dg(cs.metric, y, k)).max() <= 1e-9, (y, k)


@pytest.mark.parametrize("name", ["disk", "half-plane-nondiag"])
def test_chart_dg_along_the_boundary_matches_richardson(charts, name):
    _, chart, cs = charts[name]
    for u in np.linspace(0.9 * chart.domain_lo[0], 0.9 * chart.domain_hi[0], 9):
        y = np.array([u, 0.0])
        assert np.abs(cs.metric.dg(y)[0] - richardson_dg(cs.metric, y, 0)).max() <= 1e-9, u


@pytest.mark.parametrize("name", ["disk", "wavy"])
def test_chart_trace_maps_onto_the_base_trace(charts, name):
    scenario, chart, cs = charts[name]
    y0 = np.array([-0.2, 0.03])
    eta = np.array([1.0, 0.15])
    eta = eta / np.sqrt(geo.conorm_sq(cs, y0, eta))
    x0, J, _ = chart.jet(y0)
    params = flow.IntegratorParams(h=2e-3)
    in_chart = flow.trace_generalized(cs, PhasePoint(0.0, y0, 1.0, eta), 0.3, params)
    in_base = flow.trace_generalized(
        scenario, PhasePoint(0.0, x0, 1.0, np.linalg.solve(J.T, eta)), 0.3, params
    )
    assert not in_chart.break_set and not in_base.break_set
    s_a, states_a, _, _ = in_chart.all_samples()
    s_b, states_b, _, _ = in_base.all_samples()
    assert np.array_equal(s_a, s_b) and len(s_a) == 76
    mapped = np.array([chart.to_scenario(y) for y in states_a[:, 1:3]])
    assert np.abs(mapped - states_b[:, 1:3]).max() <= 1e-9


def test_chart_from_scenario_refuses_points_outside_the_chart(charts):
    _, chart, _ = charts["disk"]
    for x in ([2.0, 2.0], [0.0, 0.0]):
        with pytest.raises(OutOfChart):
            chart.from_scenario(np.array(x))
    y = np.array([0.3, -0.07])
    assert np.abs(chart.from_scenario(chart.to_scenario(y)) - y).max() <= 1e-12


def test_smoothing_kernel_refuses_a_truncated_kernel():
    # cut at |u| = 2 the kernel keeps a mass of 0.9456, more than 1 % short
    with pytest.raises(SmoothingFailure, match="kernel mass 0.945552"):
        geo.smoothing_kernel(2.0, 1.0 / 64.0)


def test_dg_inv_reuses_the_callers_g_inv_bit_for_bit():
    wavy = scen.load_scenario(Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "wavy.json")
    m = wavy.metric
    assert not m.is_constant
    rng = np.random.default_rng(11)
    for x in rng.uniform(wavy.domain_lo, wavy.domain_hi, size=(200, 2)):
        assert m.dg_inv(x, gi=m.g_inv(x)).tobytes() == m.dg_inv(x).tobytes()


@pytest.mark.parametrize("name", list(scen.BUILTIN_NAMES) + ["wavy"])
def test_newton_to_boundary_lands_on_the_wall_from_the_band(name):
    """The Euclidean newton_to_level and a one-row newton_to_boundary take
    the same steps to the bit."""
    scenario = scen.load_scenario(WAVY_PATH if name == "wavy" else name)
    bnd = scenario.boundary
    rng = np.random.default_rng(11)
    X = rng.uniform(scenario.domain_lo, scenario.domain_hi, size=(20000, 2))
    band = X[np.abs(bnd.phi_on_rows(X)) <= scenario.band][:60]
    assert len(band) == 60
    for x0 in band:
        x, phi = geo.newton_to_level(bnd, x0.tolist(), 0.0, 12, 1e-13)
        assert abs(phi) <= 1e-13
        assert phi == bnd.phi(x)
        X1, phi1, dphi1 = geo.newton_to_boundary(bnd, x0[None], 12, 1e-13)
        assert X1[0].tobytes() == np.array(x).tobytes() and phi1[0] == phi
        assert np.array_equal(dphi1[0], bnd.dphi(x))


@pytest.mark.parametrize("name", ["wavy", "expression_disk"])
def test_newton_to_level_along_the_metric_gradient_reaches_the_level(name):
    scenario = scen.load_scenario(WAVY_PATH) if name == "wavy" else EXPRESSION_DISK
    bnd, metric = scenario.boundary, scenario.metric
    rng = np.random.default_rng(12)
    X = rng.uniform(scenario.domain_lo, scenario.domain_hi, size=(20000, 2))
    band = X[np.abs(bnd.phi_on_rows(X)) <= scenario.band][:60]
    assert len(band) == 60
    for x0 in band:
        for target in (0.0, 0.01):
            x, phi = geo.newton_to_level(bnd, x0, target, 25, 1e-12, metric)
            assert abs(target - phi) <= 1e-12
            assert phi == bnd.phi(x)


def test_newton_to_level_raises_where_dphi_vanishes(disk):
    # dphi vanishes at the centre (the builtin clamps the radius there, the
    # expression's jet takes hypot's gradient 0 at 0)
    for scenario in (disk, EXPRESSION_DISK):
        for metric in (None, scenario.metric):
            with pytest.raises(DegenerateNormal):
                geo.newton_to_level(scenario.boundary, np.zeros(2), 0.0, 12, 1e-13, metric)


def test_newton_to_boundary_stops_where_it_cannot_step(disk):
    bnd = disk.boundary
    # dphi vanishes at the origin (the radius is clamped there)
    X, phi, dphi = geo.newton_to_boundary(bnd, np.zeros((1, 2)), 12, 1e-13)
    assert np.array_equal(X, np.zeros((1, 2))) and phi[0] == 1.0 and not dphi.any()
    # the step to the wall from (0.5, 0) is 0.5 long
    X, phi, _ = geo.newton_to_boundary(bnd, np.array([[0.5, 0.0]]), 12, 1e-13, max_step=0.4)
    assert np.array_equal(X, [[0.5, 0.0]]) and phi[0] == 0.5
    X, phi, _ = geo.newton_to_boundary(bnd, np.array([[0.5, 0.0]]), 12, 1e-13, max_step=0.6)
    assert abs(phi[0]) <= 1e-13
    # without a tolerance it takes every step it is given
    X, phi, _ = geo.newton_to_boundary(bnd, np.array([[0.5, 0.0]]), 1)
    assert np.array_equal(X, [[1.0, 0.0]])
    x, phi = geo.newton_to_level(bnd, np.array([0.5, 0.0]), 0.0, 1, 0.0)
    assert np.array_equal(x, [1.0, 0.0])
