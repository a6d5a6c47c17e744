import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glancer import geometry as geo
from glancer import scenarios as scen
from glancer import symbol as sym
from glancer.errors import (
    DegenerateTransversal,
    EllipticPoint,
    NotCharacteristic,
    NotOnBoundary,
    OutOfChart,
)
from glancer.symbol import PhasePoint, Tag

angles = st.floats(0.0, 2 * np.pi, allow_nan=False)


def unit_point(t, x, tau, theta):
    return PhasePoint(
        t=t, x=np.asarray(x, dtype=float), tau=tau,
        xi=abs(tau) * np.array([np.cos(theta), np.sin(theta)]),
    )


def test_p_eval_characteristic_iff_unit_speed(half_plane):
    on = unit_point(0.0, [0.0, 1.0], 1.0, 0.3)
    assert sym.p_eval(half_plane, on) == pytest.approx(0.0, abs=1e-15)
    off = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.5, 0.0]))
    assert sym.p_eval(half_plane, off) == pytest.approx(-0.75)


@given(t=st.floats(-2, 2), x1=st.floats(-2, 2), x2=st.floats(0.1, 2),
       tau=st.floats(0.5, 2), th=angles)
def test_phase_point_vector_roundtrip(t, x1, x2, tau, th):
    rho = unit_point(t, [x1, x2], tau, th)
    back = PhasePoint.from_vector(rho.as_vector(), 2)
    assert back.t == rho.t and back.tau == rho.tau
    assert np.array_equal(back.x, rho.x) and np.array_equal(back.xi, rho.xi)


def test_phase_point_dict_roundtrip():
    rho = unit_point(0.5, [1.0, 2.0], -1.0, 1.1)
    back = PhasePoint.from_dict(rho.to_dict())
    assert np.allclose(back.as_vector(), rho.as_vector())


def test_hpz_sign_convention(half_plane):
    inward = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    assert sym.hpz(half_plane, inward) == pytest.approx(2.0)
    outward = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([0.0, -1.0]))
    assert sym.hpz(half_plane, outward) == pytest.approx(-2.0)


def test_hz2p_and_alpha_flat(half_plane):
    # phi has unit conormal on the wall, so hz2p = 2 and alpha = 1/2
    assert sym.hz2p(half_plane, [0.3, 0.0]) == pytest.approx(2.0)
    assert sym.alpha(half_plane, [0.3, 0.0]) == pytest.approx(0.5)


def test_hp2z_disk_gliding_value(disk):
    # circular gliding at unit speed: phi = 1 - r gives hp2z = -4
    rho = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    assert sym.hp2z(disk, rho) == pytest.approx(-4.0, abs=1e-9)


def test_hamiltonian_field_flat(half_plane):
    rho = unit_point(0.0, [0.0, 1.0], 1.0, 0.3)
    upd = sym.hamiltonian_field(half_plane, rho)
    assert upd.dt == pytest.approx(-2.0)
    assert np.allclose(upd.dx, 2.0 * rho.xi)
    assert upd.dtau == 0.0
    assert np.allclose(upd.dxi, 0.0)


# ---------------------------------------------------------------------------
# classification


def test_classify_hyperbolic_pair(half_plane):
    hit = PhasePoint(0.0, np.array([0.2, 0.0]), 1.0, np.array([0.6, -0.8]))
    bc = sym.classify_boundary_point(half_plane, hit)
    assert bc.tag is Tag.HYPERBOLIC_OUT and bc.hpz < 0
    bounced = sym.sigma(half_plane, hit)
    assert sym.classify_boundary_point(half_plane, bounced).tag is Tag.HYPERBOLIC_IN


def test_classify_gliding_vs_diffractive(disk, exterior):
    x = np.array([1.0, 0.0])
    xi = np.array([0.0, 1.0])
    tangent = PhasePoint(0.0, x, 1.0, xi)
    assert sym.classify_boundary_point(disk, tangent).tag is Tag.GLIDING
    assert sym.classify_boundary_point(exterior, tangent).tag is Tag.DIFFRACTIVE


def test_classify_glancing_order_three(strip):
    # flat wall: tangency with hp2z = 0 exactly
    rho = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([1.0, 0.0]))
    bc = sym.classify_boundary_point(strip, rho)
    assert bc.tag is Tag.GLANCING3
    assert bc.hpz == 0.0 and bc.hp2z == 0.0


def test_classify_elliptic_tangential(disk):
    # spatial speed below |tau|: p < 0 fails, tangential projection elliptic
    rho = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 0.2]))
    with pytest.raises(NotCharacteristic):
        sym.classify_boundary_point(disk, rho)
    fat = PhasePoint(0.0, np.array([1.0, 0.0]), 0.1, np.array([0.0, 1.0]))
    assert sym.classify_boundary_point(disk, fat).tag is Tag.ELLIPTIC_TANGENTIAL


def test_classify_requires_boundary(disk):
    with pytest.raises(NotOnBoundary):
        sym.classify_boundary_point(disk, unit_point(0.0, [0.0, 0.0], 1.0, 0.0))


# ---------------------------------------------------------------------------
# reflection


@given(x1=st.floats(-1, 1), th=st.floats(0.1, np.pi - 0.1), tau=st.floats(0.5, 1.5))
def test_sigma_is_an_involution(half_plane, x1, th, tau):
    rho = PhasePoint(
        0.0, np.array([x1, 0.0]), tau,
        tau * np.array([np.cos(th), -np.sin(th)]),
    )
    twice = sym.sigma(half_plane, sym.sigma(half_plane, rho))
    assert np.allclose(twice.as_vector(), rho.as_vector(), atol=1e-14)


@given(phase=angles, th=st.floats(0.15, np.pi - 0.15))
def test_sigma_disk_preserves_angle_and_energy(disk, phase, th):
    x = np.array([np.cos(phase), np.sin(phase)])
    n, n_star = np.array([-np.cos(phase), -np.sin(phase)]), None
    tangent = np.array([-np.sin(phase), np.cos(phase)])
    xi = np.cos(th) * tangent - np.sin(th) * n  # outgoing toward the wall
    rho = PhasePoint(0.0, x, 1.0, xi)
    out = sym.sigma(disk, rho)
    assert float(out.xi @ tangent) == pytest.approx(float(xi @ tangent), abs=1e-12)
    assert float(out.xi @ n) == pytest.approx(-float(xi @ n), abs=1e-12)
    assert np.linalg.norm(out.xi) == pytest.approx(np.linalg.norm(xi), abs=1e-12)


def test_project_parallel_kills_normal_component(disk):
    x = np.array([np.cos(0.4), np.sin(0.4)])
    rho = PhasePoint(0.0, x, 1.0, np.array([0.3, 0.9]))
    par = sym.project_parallel(disk, rho)
    assert abs(sym.hpz(disk, par)) < 1e-12


def test_hyperbolic_lifts_orientation_and_sigma(disk):
    x = np.array([np.cos(0.4), np.sin(0.4)])
    rho = PhasePoint(0.0, x, 1.0, np.array([0.3, 0.9]))
    par = sym.project_parallel(disk, rho)
    minus, plus = sym.hyperbolic_lifts(disk, par)
    assert sym.hpz(disk, minus) < 0 < sym.hpz(disk, plus)
    for lift in (minus, plus):
        assert abs(sym.p_eval(disk, lift)) < 1e-12
    assert np.allclose(sym.sigma(disk, minus).as_vector(), plus.as_vector(), atol=1e-12)


def test_hyperbolic_lifts_reject_elliptic(disk):
    x = np.array([1.0, 0.0])
    par = PhasePoint(0.0, x, 0.5, np.array([0.0, 1.0]))  # |xi_par| > |tau|
    with pytest.raises(EllipticPoint):
        sym.hyperbolic_lifts(disk, par)


# ---------------------------------------------------------------------------
# gliding field


def test_gliding_field_tangent_to_constraints(disk):
    rho = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    upd = sym.gliding_field(disk, rho)
    h = 1e-6
    moved = PhasePoint.from_vector(rho.as_vector() + h * upd.as_vector(), 2)
    assert abs(disk.boundary.phi(moved.x)) < 5e-12  # second order in h
    assert abs(sym.hpz(disk, moved)) < 5e-6
    assert abs(sym.p_eval(disk, moved)) < 5e-6


def test_gliding_field_phi_derivative_is_hpz(disk):
    # off the constraint set the field still moves phi at rate hpz
    rho = PhasePoint(0.0, np.array([0.98, 0.0]), 1.0, np.array([0.1, 1.0]))
    upd = sym.gliding_field(disk, rho)
    dphi = np.asarray(disk.boundary.dphi(rho.x))
    assert float(dphi @ upd.dx) == pytest.approx(sym.hpz(disk, rho), rel=1e-9)


def test_gliding_field_outside_band_rejected(disk):
    rho = PhasePoint(0.0, np.array([0.2, 0.0]), 1.0, np.array([0.0, 1.0]))
    with pytest.raises(NotOnBoundary):
        sym.gliding_field(disk, rho)


# ---------------------------------------------------------------------------
# fused per-state evaluation against the unfused composition
#
# Each quantity below is written as it was before the metric and boundary
# were evaluated once per state: every function evaluates what it needs
# itself. The fused functions must agree with it bit for bit.

WAVY = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "wavy.json"


def _ref_check_chart(scenario, x):
    if not geo.in_domain(scenario, x):
        raise OutOfChart(f"point {np.asarray(x)} outside domain box of '{scenario.name}'")


def ref_p_eval(scenario, rho):
    _ref_check_chart(scenario, rho.x)
    gi = scenario.metric.g_inv(rho.x)
    return float(-rho.tau**2 + rho.xi @ gi @ rho.xi)


def ref_hamiltonian_field(scenario, rho):
    _ref_check_chart(scenario, rho.x)
    m = scenario.metric
    gi = m.g_inv(rho.x)
    dx = 2.0 * gi @ rho.xi
    if m.is_constant:
        dxi = np.zeros(rho.dim)
    else:
        dxi = -np.einsum("kij,i,j->k", m.dg_inv(rho.x), rho.xi, rho.xi)
    return sym.TangentUpdate(dt=-2.0 * rho.tau, dx=dx, dtau=0.0, dxi=dxi)


def ref_hpz(scenario, rho):
    _ref_check_chart(scenario, rho.x)
    gi = scenario.metric.g_inv(rho.x)
    dphi = np.asarray(scenario.boundary.dphi(rho.x), dtype=float)
    return float(2.0 * dphi @ (gi @ rho.xi))


def ref_hz2p(scenario, x):
    x = np.asarray(x, dtype=float)
    gi = scenario.metric.g_inv(x)
    dphi = np.asarray(scenario.boundary.dphi(x), dtype=float)
    return float(2.0 * dphi @ gi @ dphi)


def ref_hp2z(scenario, rho):
    _ref_check_chart(scenario, rho.x)
    m = scenario.metric
    gi = m.g_inv(rho.x)
    dphi = np.asarray(scenario.boundary.dphi(rho.x), dtype=float)
    d2phi = np.asarray(scenario.boundary.d2phi(rho.x), dtype=float)
    sharp_xi = gi @ rho.xi
    dx = 2.0 * sharp_xi
    if m.is_constant:
        return float(2.0 * (d2phi @ sharp_xi) @ dx)
    dgi = m.dg_inv(rho.x)
    grad_x = 2.0 * (d2phi @ sharp_xi + np.einsum("kij,i,j->k", dgi, dphi, rho.xi))
    grad_xi = 2.0 * gi @ dphi
    dxi = -np.einsum("kij,i,j->k", dgi, rho.xi, rho.xi)
    return float(grad_x @ dx + grad_xi @ dxi)


def ref_grad_hz2p(scenario, x):
    m = scenario.metric
    gi = m.g_inv(x)
    dphi = np.asarray(scenario.boundary.dphi(x), dtype=float)
    d2phi = np.asarray(scenario.boundary.d2phi(x), dtype=float)
    out = 4.0 * d2phi @ (gi @ dphi)
    if not m.is_constant:
        out = out + 2.0 * np.einsum("kij,i,j->k", m.dg_inv(x), dphi, dphi)
    return out


def ref_gliding_field(scenario, rho):
    if abs(scenario.boundary.phi(rho.x)) > scenario.band:
        raise NotOnBoundary("gliding field is only defined inside the extension band")
    v_hz2p = ref_hz2p(scenario, rho.x)
    if v_hz2p < 1e-8:
        raise DegenerateTransversal(f"hz2p = {v_hz2p:.3e} too small at x = {rho.x}")
    base = ref_hamiltonian_field(scenario, rho)
    v_hpz = ref_hpz(scenario, rho)
    v_hp2z = ref_hp2z(scenario, rho)
    hp_hz2p = float(ref_grad_hz2p(scenario, rho.x) @ base.dx)
    coef = v_hp2z / v_hz2p - (hp_hz2p / v_hz2p**2) * v_hpz
    dphi = np.asarray(scenario.boundary.dphi(rho.x), dtype=float)
    return sym.TangentUpdate(dt=base.dt, dx=base.dx, dtau=0.0, dxi=base.dxi - coef * dphi)


def ref_classify(scenario, rho):
    th = scenario.thresholds
    phi = scenario.boundary.phi(rho.x)
    if abs(phi) > th.boundary_tol:
        raise NotOnBoundary(f"|phi| = {abs(phi):.3e} > boundary tolerance {th.boundary_tol:.0e}")
    p = ref_p_eval(scenario, rho)
    v_hpz = ref_hpz(scenario, rho)
    v_hp2z = ref_hp2z(scenario, rho)
    if abs(p) > th.char_tol:
        p_par = ref_p_eval(scenario, sym.project_parallel(scenario, rho))
        if p_par > th.char_tol:
            return sym.BoundaryClass(tag=Tag.ELLIPTIC_TANGENTIAL, hpz=v_hpz, hp2z=v_hp2z, p=p)
        raise NotCharacteristic(
            f"p = {p:.3e} off the characteristic set and projection not elliptic"
        )
    if v_hpz > th.eps_g:
        tag = Tag.HYPERBOLIC_IN
    elif v_hpz < -th.eps_g:
        tag = Tag.HYPERBOLIC_OUT
    elif v_hp2z > th.eps_g2:
        tag = Tag.DIFFRACTIVE
    elif v_hp2z < -th.eps_g2:
        tag = Tag.GLIDING
    else:
        tag = Tag.GLANCING3
    return sym.BoundaryClass(tag=tag, hpz=v_hpz, hp2z=v_hp2z, p=p)


def _outcome(fn, *args):
    """Bytes of the result, or the exception type and message."""
    try:
        out = fn(*args)
    except Exception as exc:  # the error itself is part of the behaviour
        return type(exc), str(exc)
    if isinstance(out, sym.TangentUpdate):
        return out.as_vector().tobytes()
    if isinstance(out, sym.BoundaryClass):
        return out.tag, float(out.hpz).hex(), float(out.hp2z).hex(), float(out.p).hex()
    return float(out).hex()


def _radial_points(rng, n, radii):
    """n points at radius in one of the (lo, hi) ranges; phi is in band there."""
    pts = []
    for k in range(n):
        lo, hi = radii[k % len(radii)]
        th = rng.uniform(0.0, 2.0 * np.pi)
        pts.append(rng.uniform(lo, hi) * np.array([np.cos(th), np.sin(th)]))
    return pts


def _band_points(name, scenario, rng, n=24):
    """(in-band points, boundary points) for one scenario."""
    if name in ("disk_interior", "disk_exterior"):
        band = _radial_points(rng, n, [(0.92, 1.08)])
        wall = _radial_points(rng, n, [(1.0, 1.0)])
    elif name == "annulus":
        band = _radial_points(rng, n, [(0.42, 0.58), (0.92, 1.08)])
        wall = _radial_points(rng, n, [(0.5, 0.5), (1.0, 1.0)])
    elif name == "strip":
        band = [np.array([rng.uniform(-5, 5), h + rng.uniform(-0.08, 0.08)])
                for h in (0.0, 1.0) for _ in range(n // 2)]
        wall = [np.array([rng.uniform(-5, 5), h]) for h in (0.0, 1.0) for _ in range(n // 2)]
    else:  # wavy: phi = x2 + 0.3 cos(x1)
        xs = rng.uniform(-2.5, 2.5, size=n)
        band = [np.array([a, -0.3 * np.cos(a) + rng.uniform(-0.08, 0.08)]) for a in xs]
        wall = [np.array([a, -0.3 * np.cos(a)]) for a in xs]
    assert all(abs(scenario.boundary.phi(x)) <= scenario.band for x in band)
    return band, wall


def _wall_covectors(scenario, x, rng):
    """Characteristic covectors at a wall point: transversal, tangent, elliptic."""
    dphi = np.asarray(scenario.boundary.dphi(x), dtype=float)
    tangent = np.array([-dphi[1], dphi[0]])
    out = []
    for xi in (rng.normal(size=2), tangent, tangent + 1e-9 * dphi):
        tau = float(np.sqrt(geo.conorm_sq(scenario, x, xi)))
        out.append(PhasePoint(0.0, x, tau * rng.choice([-1.0, 1.0]), xi))
    out.append(PhasePoint(0.0, x, 0.1, tangent))  # elliptic tangential
    return out


@pytest.mark.parametrize(
    "name", ["disk_interior", "disk_exterior", "annulus", "strip", "wavy"]
)
def test_fused_symbol_matches_unfused_composition(name):
    scenario = scen.load_scenario(WAVY if name == "wavy" else name)
    rng = np.random.default_rng(20240)
    band, wall = _band_points(name, scenario, rng)
    assert len(band) >= 20 and len(wall) >= 20
    for x in band:
        rho = PhasePoint(rng.uniform(-1, 1), x, rng.uniform(-2, 2), rng.normal(size=2))
        for fused, ref in (
            (sym.gliding_field, ref_gliding_field),
            (sym.hamiltonian_field, ref_hamiltonian_field),
            (sym.hpz, ref_hpz),
            (sym.hp2z, ref_hp2z),
            (sym.p_eval, ref_p_eval),
        ):
            assert _outcome(fused, scenario, rho) == _outcome(ref, scenario, rho), fused.__name__
        assert _outcome(sym.hz2p, scenario, x) == _outcome(ref_hz2p, scenario, x)
        assert sym.alpha(scenario, x) == float(1.0 / np.sqrt(2.0 * ref_hz2p(scenario, x)))
    tags = set()
    for x in wall:
        for rho in _wall_covectors(scenario, x, rng):
            got = _outcome(sym.classify_boundary_point, scenario, rho)
            assert got == _outcome(ref_classify, scenario, rho)
            assert _outcome(sym.gliding_field, scenario, rho) == _outcome(ref_gliding_field, scenario, rho)
            tags.add(got[0])
    assert {Tag.HYPERBOLIC_IN, Tag.HYPERBOLIC_OUT, Tag.ELLIPTIC_TANGENTIAL} <= tags


@pytest.mark.parametrize(
    "name", ["disk_interior", "disk_exterior", "annulus", "strip", "wavy"]
)
def test_one_boundary_derivs_call_per_state(name):
    base = scen.load_scenario(WAVY if name == "wavy" else name)
    calls = []

    def counted(x, derivs=base.boundary.derivs):
        calls.append(x)
        return derivs(x)

    scenario = dataclasses.replace(
        base, boundary=dataclasses.replace(base.boundary, derivs=counted)
    )
    rng = np.random.default_rng(5)
    _, wall = _band_points(name, scenario, rng, n=6)
    for x in wall:
        # the characteristic covectors: transversal, tangent and near-tangent
        for rho in _wall_covectors(scenario, x, rng)[:3]:
            for fn in (sym.gliding_field, sym.hp2z, sym.classify_boundary_point):
                calls.clear()
                fn(scenario, rho)
                assert len(calls) == 1, fn.__name__


def _scenario_with(boundary, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    return scen.Scenario(
        name="probe", dim=2, metric=geo.identity_metric(2), boundary=boundary,
        domain_lo=np.array(lo), domain_hi=np.array(hi),
    )


def test_gliding_field_error_order():
    """NotOnBoundary, then DegenerateTransversal, then OutOfChart."""
    zero = (0.0, 0.0, 0.0, 0.0, 0.0)
    outside = PhasePoint(0.0, np.array([5.0, 0.0]), 1.0, np.array([1.0, 0.0]))
    far = _scenario_with(geo.BoundaryDef(lambda x: 1.0, lambda x: zero))
    with pytest.raises(NotOnBoundary):
        sym.gliding_field(far, outside)
    flat = _scenario_with(geo.BoundaryDef(lambda x: 0.0, lambda x: zero))
    with pytest.raises(DegenerateTransversal):
        sym.gliding_field(flat, outside)
    e2 = (0.0, 1.0, 0.0, 0.0, 0.0)
    wall = _scenario_with(geo.BoundaryDef(lambda x: float(x[1]), lambda x: e2))
    with pytest.raises(OutOfChart):
        sym.gliding_field(wall, outside)
    for fn in (sym.hpz, sym.hp2z, sym.p_eval, sym.hamiltonian_field, sym.classify_boundary_point):
        with pytest.raises(OutOfChart):
            fn(wall, outside)
