import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, quad

import glancer
from glancer import cli, flow, measures
from glancer import geometry as geo
from glancer import scenarios as scen
from glancer import symbol as sym
from glancer.errors import EmptySupport, SupportLeak
from glancer.symbol import PhasePoint, Tag


def traced(scenario, rho0, t_horizon, h=1e-3):
    return flow.trace_generalized(scenario, rho0, t_horizon, flow.IntegratorParams(h=h))


# ---------------------------------------------------------------------------
# bump profiles


def chi(s):
    return float(measures._chi_arr(np.array([s], dtype=float))[0])


def chi_prime(s):
    return float(measures._chi_prime_arr(np.array([s], dtype=float))[0])


def beta_prime(s):
    return float(geo.smoothstep_prime(np.array([s], dtype=float))[0])


def test_chi_values():
    assert chi(0.0) == pytest.approx(math.exp(-1.0))
    assert chi(1.0) == 0.0
    assert chi(2.0) == 0.0
    assert chi(0.999) < 1e-300


def test_beta_values():
    # the beta factor of a TestFunction is geometry.smoothstep
    assert geo.smoothstep(-2.0) == 0.0
    assert geo.smoothstep(-1.0) == 0.0
    assert geo.smoothstep(-0.75) == pytest.approx(0.5)
    assert geo.smoothstep(-0.5) == 1.0
    assert geo.smoothstep(3.0) == 1.0


@given(s=st.floats(-3.0, 0.95))
def test_chi_prime_matches_difference_quotient(s):
    eps = 1e-6
    fd = (chi(s + eps) - chi(s - eps)) / (2 * eps)
    assert chi_prime(s) == pytest.approx(fd, rel=1e-4, abs=1e-9)


@given(s=st.floats(-2.0, 1.0))
def test_beta_prime_matches_difference_quotient(s):
    if min(abs(s + 1.0), abs(s + 0.5)) < 1e-3:
        return  # C1 joins: derivative exists but the quotient is one-sided
    eps = 1e-6
    fd = (float(geo.smoothstep(s + eps)) - float(geo.smoothstep(s - eps))) / (2 * eps)
    assert beta_prime(s) == pytest.approx(fd, rel=1e-4, abs=1e-9)


def _scalar_chi(s):
    """Pointwise reference for measures._chi_arr."""
    return 0.0 if s >= 1.0 else math.exp(1.0 / (s - 1.0))


def _scalar_beta(s):
    """Pointwise reference for the C^1 ramp geometry.smoothstep."""
    if s <= -1.0:
        return 0.0
    if s >= -0.5:
        return 1.0
    u = 2.0 * (s + 1.0)
    return u * u * (3.0 - 2.0 * u)


def test_array_profiles_match_scalars():
    ss = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(measures._chi_arr(ss), [_scalar_chi(s) for s in ss])
    assert np.allclose(geo.smoothstep(ss), [_scalar_beta(s) for s in ss])
    # equal bit for bit on a dense grid and at the knots
    dense = np.concatenate([np.linspace(-1.5, 0.0, 20_001), [-1.0, -0.5, np.nextafter(-1.0, 0.0)]])
    assert np.array_equal(geo.smoothstep(dense), [_scalar_beta(s) for s in dense])


# ---------------------------------------------------------------------------
# test functions


def center_point():
    return PhasePoint(0.0, np.array([0.1, 0.6]), 1.0, np.array([0.4, 0.3]))


def test_testfunction_support_is_the_ellipsoid():
    a = measures.TestFunction(center=center_point(), width_t=1.0, width_x=0.5, width_xi=2.0)
    assert a.value(center_point()) == pytest.approx(math.exp(-1.0))
    far = PhasePoint(0.0, np.array([0.7, 0.6]), 1.0, np.array([0.4, 0.3]))
    assert a.value(far) == 0.0
    assert np.allclose(a.gradient(far), 0.0)


@given(
    dt=st.floats(-0.5, 0.5),
    dx=st.floats(-0.3, 0.3),
    dxi=st.floats(-0.8, 0.8),
)
def test_testfunction_gradient_by_finite_differences(dt, dx, dxi):
    a = measures.TestFunction(
        center=center_point(),
        width_t=1.0,
        width_x=0.7,
        width_xi=2.0,
        beta_axis=np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
        beta_shift=-0.1,
        beta_scale=0.4,
    )
    y = center_point().as_vector() + np.array([dt, dx, -0.5 * dx, 0.0, dxi, 0.5 * dxi])
    v = (y @ a.beta_axis - center_point().as_vector() @ a.beta_axis - a.beta_shift) / a.beta_scale
    if min(abs(v + 1.0), abs(v + 0.5)) < 5e-3:
        return  # keep clear of the C1 joins where second derivatives jump
    step = 1e-5
    grad = a.gradient_batch(y[None, :])[0]
    for k in range(6):
        e = np.zeros(6)
        e[k] = step
        fd = (a.value_batch((y + e)[None, :])[0] - a.value_batch((y - e)[None, :])[0]) / (2 * step)
        assert grad[k] == pytest.approx(fd, rel=2e-4, abs=1e-6)


# ---------------------------------------------------------------------------
# curve measures


def test_unit_weight_without_damping(half_plane):
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8]))
    gb = traced(half_plane, rho0, 2.0)
    cm = measures.dirac_on_bichar(half_plane, gb)
    assert np.all(cm.w == 1.0)


def test_constant_damping_weight(half_plane):
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8]))
    gb = traced(half_plane, rho0, 2.0)
    cm = measures.dirac_on_bichar(half_plane, gb, f=lambda t, x: 1.0)
    assert np.max(np.abs(cm.w - np.exp(-cm.s))) < 1e-12


def test_time_dependent_damping_against_quadrature(half_plane):
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8]))
    gb = traced(half_plane, rho0, 2.0)
    f = lambda t, x: t * t
    cm = measures.dirac_on_bichar(half_plane, gb, f=f)
    s_probe = cm.s[-1]
    # t(s) = -2s along this trace, so integrate (2 sigma)^2 in s; the weight
    # exponent is accumulated by trapezoid, accurate to O(h^2)
    oracle, _ = quad(lambda sig: (2.0 * sig) ** 2, 0.0, s_probe)
    assert cm.w[-1] == pytest.approx(np.exp(-oracle), rel=1e-5)


def test_damping_weights_are_scipy_cumulative_trapezoid_bit_for_bit():
    damped = scen.builtin("half_plane", potential={"kind": "expression", "expr": "t + x1 * x2"})
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8]))
    gb = traced(damped, rho0, 2.0)
    assert gb.break_set  # a bounce: its s value appears twice in the samples
    cm = measures.dirac_on_bichar(damped, gb, f=damped.potential)
    vals = [damped.potential(row[sym.T], row[sym.X]) for row in cm.states]
    oracle = np.exp(-cumulative_trapezoid(vals, cm.s, initial=0.0))
    assert np.array_equal(cm.w, oracle)


def test_import_leaves_scipy_integrate_unloaded():
    src = str(Path(glancer.__file__).resolve().parents[1])
    code = "import sys, glancer, glancer.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


WAVY = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "wavy.json"


def test_common_commands_leave_scipy_and_jsonschema_unloaded(tmp_path):
    """A builtin trace and a transport check on an expression scenario file
    import neither scipy nor jsonschema; a rejected config imports
    jsonschema to word the rejection, exit 2 with its message."""
    src = str(Path(glancer.__file__).resolve().parents[1])
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1, "builtin": "strip", "params": {"height": -1.0}}')
    wavy_start = ("0.0,-0.16507154133672985,0.04025441691165371,"
                  "1.0,-0.09585803948820527,-0.9954410012735664")
    code = f"""
import sys, glancer, glancer.cli
from glancer import cli
out = {str(tmp_path / "out")!r}
assert cli.main(["trace", "--scenario", "strip", "--start", "0,0,0,1,0,1",
                 "--t-horizon", "3.2", "--out", out]) == 0
assert cli.main(["verify-transport", "--scenario", {str(WAVY)!r}, "--start", {wavy_start!r},
                 "--t-horizon", "1.2", "--h", "0.007", "--out", out]) == 0
print(sorted({{m.partition(".")[0] for m in sys.modules}} & {{"scipy", "jsonschema"}}))
sys.exit(cli.main(["trace", "--scenario", {str(bad)!r}, "--out", out]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert proc.stderr.splitlines()[-1] == json.dumps({
        "error": "config",
        "detail": "scenario config invalid: -1.0 is less than or equal to the minimum of 0",
    })


def test_weight_at_interpolates(half_plane):
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8]))
    gb = traced(half_plane, rho0, 2.0)
    cm = measures.dirac_on_bichar(half_plane, gb, f=lambda t, x: 1.0)
    mid = 0.5 * (cm.s[10] + cm.s[11])
    assert cm.weight_at(mid) == pytest.approx(np.exp(-mid), abs=1e-6)


# ---------------------------------------------------------------------------
# boundary measures


def test_strip_atoms_carry_exact_mass(strip):
    rho0 = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    gb = traced(strip, rho0, 3.2)
    nu = measures.boundary_measure_of(strip, measures.dirac_on_bichar(strip, gb))
    assert len(nu.atoms) == 3
    for atom in nu.atoms:
        # <xi_plus - xi_minus, inward normal> = 2 for a normal-incidence bounce
        assert atom.mass == pytest.approx(2.0, abs=1e-9)
        assert atom.tag is Tag.HYPERBOLIC_OUT
    assert nu.total_atom_mass == pytest.approx(6.0, abs=1e-8)
    assert nu.arcs == []


def test_atom_states_match_hyperbolic_lifts(strip):
    rho0 = PhasePoint(0.0, np.array([0.3, 0.0]), 1.0, np.array([0.5, 0.86602540378443871]))
    gb = traced(strip, rho0, 2.0)
    nu = measures.boundary_measure_of(strip, measures.dirac_on_bichar(strip, gb))
    for atom in nu.atoms:
        minus, plus = sym.hyperbolic_lifts(strip, atom.rho_par)
        assert np.linalg.norm(minus.as_vector() - atom.rho_minus.as_vector()) <= 1e-9
        assert np.linalg.norm(plus.as_vector() - atom.rho_plus.as_vector()) <= 1e-9


def test_hpz_jump_across_breaks(strip):
    rho0 = PhasePoint(0.0, np.array([0.3, 0.0]), 1.0, np.array([0.5, 0.86602540378443871]))
    gb = traced(strip, rho0, 2.0)
    for br in gb.break_set:
        jump = sym.hpz(strip, br.rho_plus) - sym.hpz(strip, br.rho_minus)
        assert jump == pytest.approx(2.0 * sym.hpz(strip, br.rho_plus), abs=1e-9)
        assert jump > 0


def test_disk_gliding_arc_density(disk):
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    gb = traced(disk, rho0, 1.0)
    nu = measures.boundary_measure_of(disk, measures.dirac_on_bichar(disk, gb))
    assert nu.atoms == []
    assert len(nu.arcs) == 1
    arc = nu.arcs[0]
    # density = -hp2z / 2 = 2 on the unit circle at unit speed
    assert np.max(np.abs(arc.density - 2.0)) < 1e-9
    assert all(tag is Tag.GLIDING for tag in arc.tags)


def test_mass_check_passes_on_traced_ensembles(strip, disk):
    checks = []
    for scenario, rho0 in [
        (strip, PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([0.0, 1.0]))),
        (disk, PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))),
    ]:
        gb = traced(scenario, rho0, 2.0)
        nu = measures.boundary_measure_of(scenario, measures.dirac_on_bichar(scenario, gb))
        checks.append(measures.mass_check(nu, scenario))
    assert all(c.ok for c in checks)
    assert checks[0].min_tau_support >= 1.0 - 1e-9


def test_mass_check_flags_manufactured_diffractive_mass(disk):
    rho = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    bad_atom = measures.Atom(
        s=0.1, rho_par=rho, rho_minus=rho, rho_plus=rho,
        mass=1e-5, weight=1.0, tag=Tag.DIFFRACTIVE,
    )
    nu = measures.BoundaryMeasure(atoms=[bad_atom], arcs=[], source_min_abs_tau=1.0)
    report = measures.mass_check(nu, disk)
    assert not report.ok
    assert report.offending[0]["tag"] == "Diffractive"


# ---------------------------------------------------------------------------
# transport identity


def one_bounce_setup(half_plane, h):
    # Bump centered off the bounce in t and off the reflection symmetry in
    # xi_2, so neither the interior integral nor the atom jump vanishes by
    # symmetry and the residual is a real discretization error.
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8]))
    gb = traced(half_plane, rho0, 2.4, h=h)
    a = measures.TestFunction(
        center=PhasePoint(-1.05, np.array([0.75, 0.15]), 1.0, np.array([0.6, 0.25])),
        width_t=0.8,
        width_x=0.6,
        width_xi=1.3,
        beta_axis=np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0]),
        beta_shift=0.45,
        beta_scale=0.8,
    )
    return gb, a


def assert_not_vacuous(gb, a):
    _, states, _, _ = gb.all_samples()
    assert a.value_batch(states).max() > 0.01, "bump misses the trajectory"
    br = gb.break_set[0]
    assert abs(a.value(br.rho_plus) - a.value(br.rho_minus)) > 0.01


def test_transport_residual_small_on_one_bounce(half_plane):
    gb, a = one_bounce_setup(half_plane, 1e-3)
    assert_not_vacuous(gb, a)
    cm = measures.dirac_on_bichar(half_plane, gb)
    nu = measures.boundary_measure_of(half_plane, cm)
    res = measures.transport_residual(half_plane, cm, nu, a)
    assert 0.0 < res < 1e-5


def test_transport_residual_with_damping(half_plane):
    f = lambda t, x: 1.0
    gb, a = one_bounce_setup(half_plane, 1e-3)
    assert_not_vacuous(gb, a)
    cm = measures.dirac_on_bichar(half_plane, gb, f=f)
    nu = measures.boundary_measure_of(half_plane, cm)
    res = measures.transport_residual(half_plane, cm, nu, a)
    assert 0.0 < res < 1e-5


def test_verify_transport_evaluates_the_potential_once_per_sample():
    """dirac_on_bichar keeps the potential's values on the curve measure, and
    transport_residual reads them: n_samples calls of f in all."""
    strip = scen.builtin("strip", potential={"kind": "expression", "expr": "0.1 * x1 * x2"})
    calls = [0]

    def f(t, x):
        calls[0] += 1
        return strip.f(t, x)

    rho0 = PhasePoint.from_vector(np.array([0.0, 0.1, 0.45, 1.0, 0.6, 0.8]))
    gb = flow.trace_generalized(strip, rho0, 5.0, flow.IntegratorParams(h=1e-3))
    cm = measures.dirac_on_bichar(strip, gb, f=f)
    nu = measures.boundary_measure_of(strip, cm)
    a = cli._default_test_function(gb)
    measures.transport_residual(strip, cm, nu, a)
    assert calls[0] == gb.n_samples


def test_transport_residual_exact_on_gliding_arc(disk):
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    gb = traced(disk, rho0, 1.0)
    cm = measures.dirac_on_bichar(disk, gb)
    nu = measures.boundary_measure_of(disk, cm)
    a = measures.TestFunction(
        center=PhasePoint(-0.4, np.array([0.7, 0.6]), 1.0, np.array([-0.5, 0.7])),
        width_t=0.35,
        width_x=1.0,
        width_xi=1.5,
    )
    _, states, _, _ = gb.all_samples()
    assert a.value_batch(states).max() > 0.01, "bump misses the gliding arc"
    # the tangential-derivative pairing cancels the arc term exactly at the
    # unit-conormal normalization, leaving roundoff only
    assert measures.transport_residual(disk, cm, nu, a) < 1e-12


def test_transport_rejects_leaky_support(half_plane):
    gb, _ = one_bounce_setup(half_plane, 1e-3)
    cm = measures.dirac_on_bichar(half_plane, gb)
    nu = measures.boundary_measure_of(half_plane, cm)
    wide = measures.TestFunction(
        center=PhasePoint(-1.2, np.array([0.7, 0.2]), 1.0, np.array([0.6, 0.0])),
        width_t=50.0,
        width_x=50.0,
        width_xi=50.0,
    )
    with pytest.raises(SupportLeak):
        measures.transport_residual(half_plane, cm, nu, wide)


# ---------------------------------------------------------------------------
# discrete support checks


def test_support_step_check_zero_failures_on_bouncing_trace(half_plane):
    rho0 = PhasePoint(0.0, np.array([-0.5, 0.8]), 1.0, np.array([0.6, -0.8]))
    gb = traced(half_plane, rho0, 0.6, h=3e-4)
    delta, eps = 1e-2, 0.1
    full = measures.support_samples(gb)
    trimmed = measures.support_samples(gb, s_margin=2 * delta)
    report = measures.support_step_check(trimmed, half_plane, delta, eps, reference=full)
    assert report.ok and report.n_checked > 900


def test_support_step_check_negative_control(half_plane):
    rho0 = PhasePoint(0.0, np.array([-0.5, 0.8]), 1.0, np.array([0.6, -0.8]))
    gb = traced(half_plane, rho0, 0.6, h=3e-4)
    delta = 1e-2
    full = measures.support_samples(gb)
    trimmed = measures.support_samples(gb, s_margin=2 * delta)
    report = measures.support_step_check(trimmed, half_plane, delta, 0.01, reference=full)
    assert report.n_failures > 0


def test_support_step_check_refuses_an_empty_sample(half_plane):
    with pytest.raises(EmptySupport):
        measures.support_step_check([], half_plane, 1e-2, 0.1, reference=[])
    # an empty reference set has nothing to land on either
    points = [(PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8])), Tag.INTERIOR)]
    with pytest.raises(EmptySupport):
        measures.support_step_check(points, half_plane, 1e-2, 0.1, reference=[])


def test_support_step_check_gliding_tags(disk):
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    gb = traced(disk, rho0, 0.6, h=3e-4)
    delta = 1e-2
    full = measures.support_samples(gb)
    trimmed = measures.support_samples(gb, s_margin=2 * delta)
    assert any(tag is Tag.GLIDING for _, tag in trimmed)
    report = measures.support_step_check(trimmed, disk, delta, 0.1, reference=full)
    assert report.ok
