"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single summary line on success; tolerances are stated
inline next to the assertions they bound.
"""

import time

import numpy as np
import pytest

from glancer import flow, gcc, measures
from glancer import geometry as geo
from glancer import scenarios as scen
from glancer import symbol as sym
from glancer.symbol import PhasePoint, Tag


def unit_start(t, x, tau, xi, scenario=None):
    xi = np.asarray(xi, dtype=float)
    if scenario is None:
        xi = xi / np.linalg.norm(xi)
    else:
        xi = xi / np.sqrt(geo.conorm_sq(scenario, x, xi))
    return PhasePoint(t=t, x=np.asarray(x, dtype=float), tau=tau, xi=abs(tau) * xi)


def announce(n, detail):
    print(f"criterion {n:2d} PASS: {detail}")


# Recurrent starts where the geometry allows repeated reflections; the
# half plane and the exterior obstacle admit a single one.
CONSERVATION_RUNS = [
    ("half_plane", [0.0, 1.0], [0.6, -0.8], 10.0),
    ("strip", [0.2, 0.3], [0.35, 0.94], 10.0),
    ("disk_interior", [0.9, 0.0], [-0.999, 0.0447], 20.0),
    ("disk_exterior", [-2.0, 0.3], [1.0, 0.0], 4.0),
    ("annulus", [0.75, 0.0], [1.0, 0.0], 5.5),
]


def test_criterion_01_conservation():
    worst_tau = worst_speed = worst_time = 0.0
    total_breaks = 0
    flow.trace_generalized(  # warm-up outside the timed region
        scen.builtin("strip"), unit_start(0.0, [0.0, 0.5], 1.0, [0.0, 1.0]), 0.1
    )
    for name, x0, xi0, horizon in CONSERVATION_RUNS:
        scenario = scen.builtin(name)
        rho0 = unit_start(0.0, x0, 1.0, xi0, scenario)
        t0 = time.perf_counter()
        gb = flow.trace_generalized(scenario, rho0, horizon, flow.IntegratorParams(h=1e-3))
        elapsed = time.perf_counter() - t0
        _, states, _, _ = gb.all_samples()
        tau_drift = float(np.max(np.abs(states[:, 3] - 1.0)))
        speeds = np.array(
            [np.sqrt(geo.conorm_sq(scenario, row[1:3], row[4:6])) for row in states[::25]]
        )
        speed_drift = float(np.max(np.abs(speeds - 1.0)))
        assert tau_drift <= 1e-9, (name, tau_drift)
        assert speed_drift <= 1e-8, (name, speed_drift)
        assert elapsed < 1.0, (name, elapsed)
        worst_tau = max(worst_tau, tau_drift)
        worst_speed = max(worst_speed, speed_drift)
        worst_time = max(worst_time, elapsed)
        total_breaks += len(gb.break_set)
    assert total_breaks >= 20  # the recurrent scenarios actually bounce
    announce(
        1,
        f"tau drift <= {worst_tau:.1e}, speed drift <= {worst_speed:.1e}, "
        f"slowest trace {worst_time:.2f}s over {len(CONSERVATION_RUNS)} scenarios",
    )


def test_criterion_02_reflection_law():
    rng = np.random.default_rng(0)
    half_plane = scen.builtin("half_plane")
    disk = scen.builtin("disk_interior")
    worst_inv = worst_angle = 0.0
    for _ in range(200):
        th = rng.uniform(0.1, np.pi - 0.1)
        if rng.uniform() < 0.5:
            scenario = half_plane
            x = np.array([rng.uniform(-1, 1), 0.0])
            n = np.array([0.0, 1.0])
            tan = np.array([1.0, 0.0])
        else:
            scenario = disk
            phase = rng.uniform(0, 2 * np.pi)
            x = np.array([np.cos(phase), np.sin(phase)])
            n = -x
            tan = np.array([-np.sin(phase), np.cos(phase)])
        xi = np.cos(th) * tan - np.sin(th) * n
        rho = PhasePoint(0.0, x, 1.0, xi)
        out = sym.sigma(scenario, rho)
        twice = sym.sigma(scenario, out)
        worst_inv = max(worst_inv, float(np.max(np.abs(twice.as_vector() - rho.as_vector()))))
        angle_in = np.arccos(np.clip(float(rho.xi @ -n), -1, 1))
        angle_out = np.arccos(np.clip(float(out.xi @ n), -1, 1))
        worst_angle = max(worst_angle, abs(angle_in - angle_out))
    assert worst_inv <= 1e-12, worst_inv
    assert worst_angle <= 1e-9, worst_angle

    strip = scen.builtin("strip")
    rho0 = PhasePoint(0.0, np.array([0.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    gb = flow.trace_generalized(strip, rho0, 5.2, flow.IntegratorParams(h=1e-3))
    ss = np.array([br.s for br in gb.break_set])
    gaps = np.diff(np.concatenate([[0.0], ss]))
    spacing_err = float(np.max(np.abs(gaps - 0.5)))
    assert len(ss) >= 5
    assert spacing_err <= 1e-8, spacing_err
    announce(
        2,
        f"involution <= {worst_inv:.1e}, angle mismatch <= {worst_angle:.1e}, "
        f"strip spacing error {spacing_err:.1e}",
    )


def test_criterion_03_gliding():
    disk = scen.builtin("disk_interior")
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    piece, _ = flow.integrate_gliding(disk, rho0, (0.0, np.pi), flow.IntegratorParams(h=1e-3))
    worst_constraint = 0.0
    for row in piece.states[::10]:
        rho = PhasePoint.from_vector(row, 2)
        worst_constraint = max(
            worst_constraint,
            abs(disk.boundary.phi(rho.x)),
            abs(sym.hpz(disk, rho)),
            abs(sym.p_eval(disk, rho)),
        )
    assert worst_constraint <= 1e-8, worst_constraint
    ss = piece.s
    oracle = np.concatenate(
        [np.stack([np.cos(2 * ss), np.sin(2 * ss)], axis=1),
         np.stack([-np.sin(2 * ss), np.cos(2 * ss)], axis=1)],
        axis=1,
    )
    numeric = np.concatenate([piece.states[:, 1:3], piece.states[:, 4:6]], axis=1)
    oracle_err = float(np.max(np.abs(numeric - oracle)))
    assert oracle_err <= 1e-6, oracle_err
    announce(3, f"constraints <= {worst_constraint:.1e}, circle oracle error {oracle_err:.1e}")


def test_criterion_04_glancing_step_law():
    disk = scen.builtin("disk_interior")
    rho0 = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.0, 1.0]))
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    t0 = time.perf_counter()
    peaks = [flow.glancing_step_construct(disk, rho0, d, 0.1).hpz_max for d in deltas]
    elapsed = time.perf_counter() - t0
    slope = float(np.polyfit(np.log(deltas), np.log(peaks), 1)[0])
    assert 0.35 <= slope <= 0.65, slope
    assert elapsed < 10.0, elapsed
    announce(4, f"log-log slope {slope:.4f} over {deltas}, elapsed {elapsed:.2f}s")


def test_criterion_05_transport_identity():
    half_plane = scen.builtin("half_plane")
    rho0 = PhasePoint(0.0, np.array([0.0, 1.0]), 1.0, np.array([0.6, -0.8]))
    # The bump straddles the bounce asymmetrically so both the interior
    # integral and the atom jump are genuinely nonzero.
    a = measures.TestFunction(
        center=PhasePoint(-1.05, np.array([0.75, 0.15]), 1.0, np.array([0.6, 0.25])),
        width_t=0.8,
        width_x=0.6,
        width_xi=1.3,
        beta_axis=np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0]),
        beta_shift=0.45,
        beta_scale=0.8,
    )
    details = []
    for f in (None, lambda t, x: 1.0):
        residuals = []
        for h in (1e-3, 1e-4):
            gb = flow.trace_generalized(half_plane, rho0, 2.4, flow.IntegratorParams(h=h))
            cm = measures.dirac_on_bichar(half_plane, gb, f=f)
            nu = measures.boundary_measure_of(half_plane, cm)
            residuals.append(measures.transport_residual(half_plane, cm, nu, a, f=f))
        _, states, _, _ = gb.all_samples()
        assert a.value_batch(states).max() > 0.01, "bump misses the trajectory"
        br = gb.break_set[0]
        assert abs(a.value(br.rho_plus) - a.value(br.rho_minus)) > 0.01
        order = float(np.log(residuals[0] / residuals[1]) / np.log(10.0))
        assert order >= 1.0, (f, order)
        assert 0.0 < residuals[1] <= 1e-4, (f, residuals[1])
        details.append(f"order {order:.2f}, residual(h=1e-4) {residuals[1]:.1e}")
    announce(5, f"f=0: {details[0]}; f=1: {details[1]}")


def test_criterion_06_boundary_mass_property():
    runs = [
        ("strip", [0.0, 0.0], [0.0, 1.0], 1.0, 3.2),
        ("strip", [0.2, 0.3], [0.35, 0.94], 1.5, 4.0),
        ("disk_interior", [1.0, 0.0], [0.0, 1.0], 1.0, 2.0),
        ("disk_interior", [0.9, 0.0], [-0.999, 0.0447], 1.5, 4.0),
        ("disk_exterior", [-1.5, 1.0], [1.0, 0.0], 1.0, 4.0),
        ("annulus", [0.75, 0.0], [1.0, 0.0], 1.0, 3.0),
    ]
    n_atoms = n_arc = 0
    support_taus = []
    for name, x0, xi0, tau, horizon in runs:
        scenario = scen.builtin(name)
        rho0 = unit_start(0.0, x0, tau, xi0, scenario)
        gb = flow.trace_generalized(scenario, rho0, horizon, flow.IntegratorParams(h=1e-3))
        cm = measures.dirac_on_bichar(scenario, gb)
        nu = measures.boundary_measure_of(scenario, cm)
        report = measures.mass_check(nu, scenario)
        assert report.ok, (name, report.offending)
        n_atoms += report.n_atoms
        n_arc += report.n_arc_samples
        for atom in nu.atoms:
            assert atom.tag not in (Tag.DIFFRACTIVE, Tag.GLANCING3) or atom.mass <= 1e-10
            support_taus.append(abs(atom.rho_par.tau))
        for arc in nu.arcs:
            for i in range(len(arc.s)):
                if arc.density[i] > 1e-10:
                    assert arc.tags[i] not in (Tag.DIFFRACTIVE, Tag.GLANCING3)
                    support_taus.append(abs(arc.states[i, 3]))
    assert n_atoms > 0 and n_arc > 0
    assert min(support_taus) >= 1.0 - 1e-9
    announce(
        6,
        f"{n_atoms} atoms + {n_arc} arc samples, zero glancing mass, "
        f"min|tau| on support {min(support_taus):.6f}",
    )


def test_criterion_07_quasi_normal_charts():
    cases = [
        (
            "half-plane nondiag",
            scen.builtin(
                "half_plane", metric={"kind": "constant", "matrix": [[1.0, 0.3], [0.3, 1.0]]}
            ),
            np.array([0.4, 0.0]),
        ),
        ("disk", scen.builtin("disk_interior"), np.array([np.cos(0.7), np.sin(0.7)])),
    ]
    worst = 0.0
    for label, scenario, m0 in cases:
        chart = geo.build_quasi_normal_chart(scenario, m0)
        cs = scen.chart_scenario(scenario, chart)
        for u in np.linspace(0.9 * chart.domain_lo[0], 0.9 * chart.domain_hi[0], 33):
            x = np.array([u, 0.0])
            G = np.linalg.inv(cs.metric.g_inv(x))
            dev = max(abs(G[1, 0]), abs(G[1, 1] - 1.0), abs(sym.hz2p(cs, x) - 2.0))
            assert dev <= 1e-6, (label, u, dev)
            worst = max(worst, dev)
    announce(7, f"both charts flat on the 33-point grid, worst deviation {worst:.1e}")


def test_criterion_08_continuity_monotone():
    strip = scen.builtin("strip")
    rho0 = unit_start(0.0, [0.1, 0.45], 1.0, [0.6, 0.8], strip)
    params = flow.IntegratorParams(h=2e-3)
    deltas = [1e-2, 1e-3, 1e-4]
    eps = {}
    noise = {}
    for delta in deltas:
        a = flow.continuity_probe(strip, rho0, delta, 1.0, 64, params, seed=0)
        b = flow.continuity_probe(strip, rho0, delta, 1.0, 64, params, seed=1)
        eps[delta] = a
        noise[delta] = abs(a - b)
    for d_hi, d_lo in zip(deltas, deltas[1:]):
        slack = 2.0 * max(noise[d_hi], noise[d_lo])
        assert eps[d_lo] <= eps[d_hi] + slack, (d_hi, d_lo, eps, noise)
    announce(
        8,
        "eps_hat " + " >= ".join(f"{eps[d]:.2e}" for d in deltas)
        + f" over delta {deltas} (64 samples)",
    )


def test_criterion_09_gcc_auditor():
    t0 = time.perf_counter()
    strip = scen.builtin("strip")
    region = gcc.region_from_expression("0.2 - x2")
    fail_report = gcc.gcc_check(strip, region, 10.0, gcc.default_sampler(strip, 64))
    assert fail_report.verdict == "FailsWithWitness"
    for gb in (fail_report.witness, fail_report.witness_backward):
        _, states, _, _ = gb.all_samples()
        assert np.all(states[:, 2] >= 0.2), "witness entered the region"
        assert abs(states[-1, 0] - states[0, 0]) >= 10.0 - 1e-6

    disk = scen.builtin("disk_interior")
    collar = gcc.region_from_expression("hypot(x1, x2) - 0.9")
    hold_report = gcc.gcc_check(disk, collar, 4.0, gcc.default_sampler(disk, 1000))
    assert hold_report.verdict == "HoldsOnSample"
    assert hold_report.n_entered == 1000
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    announce(
        9,
        f"strip fails with clean witness over |t| <= 10; disk collar holds on "
        f"1000/1000 samples at T=4; total {elapsed:.1f}s",
    )


def test_criterion_10_discrete_support_property():
    half_plane = scen.builtin("half_plane")
    rho0 = PhasePoint(0.0, np.array([-0.5, 0.8]), 1.0, np.array([0.6, -0.8]))
    # h = 3e-4 keeps the sample grid incommensurate with delta = 1e-2
    gb = flow.trace_generalized(half_plane, rho0, 0.64, flow.IntegratorParams(h=3e-4))
    delta, eps = 1e-2, 0.1
    full = measures.support_samples(gb)
    trimmed = measures.support_samples(gb, s_margin=2 * delta)
    report = measures.support_step_check(trimmed, half_plane, delta, eps, reference=full)
    assert report.n_checked >= 1000, report.n_checked
    assert report.n_failures == 0, report.failures[:3]
    control = measures.support_step_check(trimmed, half_plane, delta, 0.01, reference=full)
    assert control.n_failures > 0, "negative control failed to fail"
    announce(
        10,
        f"{report.n_checked} points pass at (delta, eps) = (1e-2, 0.1); "
        f"negative control at eps = 0.01 fails {control.n_failures} points",
    )
