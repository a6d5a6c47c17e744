"""Charts, metric algebra, normals, and the quasi-normal chart constructor.

Conventions used throughout the package:

* points ``x`` are 1-d numpy arrays in scenario coordinates;
* covectors carry lower indices, vectors upper; ``g_inv`` raises an index;
* the boundary is the zero set of a scalar field ``phi`` with ``phi > 0``
  strictly inside the domain. A ``BoundaryDef`` gives ``phi(x)``, the only
  source of boundary values; ``derivs(x)``, its first and second
  derivatives as five floats; optionally ``phi_rows(X)``, phi on every
  row of an array, bit for bit equal to ``phi`` on each row; and optionally
  ``derivs_rows(X)``, the five derivatives on every row as five arrays,
  equal to ``derivs`` on each row up to the last bit or two (the expression
  boundaries evaluate it on row jets, see ``glancer.jet``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    ChartDegenerate,
    DegenerateNormal,
    NotOnBoundary,
    OutOfChart,
    SmoothingFailure,
)

FD_STEP = 1e-5


@dataclass
class MetricEval:
    """Pointwise metric data: g, its inverse, and the derivative tensor.

    ``dg(x)[k, i, j]`` is the partial derivative of ``g_ij`` in direction
    ``x_k``. ``is_constant`` marks metrics whose dg vanishes identically,
    which lets integrators skip the covector update entirely.
    """

    dim: int
    g: Callable[[np.ndarray], np.ndarray]
    g_inv: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    is_constant: bool = False

    def dg_inv(self, x: np.ndarray, gi: np.ndarray | None = None) -> np.ndarray:
        """Derivative of the inverse metric: -g^-1 (dg) g^-1 per direction.

        gi is g_inv at x, when the caller has already evaluated it.
        """
        if self.is_constant:
            return np.zeros((self.dim, self.dim, self.dim))
        if gi is None:
            gi = self.g_inv(x)
        return -np.einsum("il,klm,mj->kij", gi, self.dg(x), gi)


@dataclass
class BoundaryDef:
    """Boundary as the zero set of phi (> 0 inside), with its 2-jet.

    ``phi(x)`` is the value, and every sign or tolerance test reads it.
    ``derivs(x)`` returns the derivatives ``(d1, d2, d11, d12, d22)`` at x as
    five floats, so one call gives what the contact classification needs;
    ``dphi`` and ``d2phi`` build the gradient and Hessian arrays from it.
    ``phi_rows``, when given, evaluates phi at every row of an (N, 2) array
    with the same arithmetic as ``phi``, so bit for bit the same values.
    ``derivs_rows``, when given, evaluates the five derivatives at every row
    as five arrays of N; they may differ from ``derivs`` in the last bits.
    """

    phi: Callable[[np.ndarray], float]
    derivs: Callable[[np.ndarray], tuple[float, float, float, float, float]]
    phi_rows: Callable[[np.ndarray], np.ndarray] | None = field(default=None, kw_only=True)
    derivs_rows: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = field(
        default=None, kw_only=True
    )

    def dphi(self, x: np.ndarray) -> np.ndarray:
        return np.array(self.derivs(x)[:2], dtype=float)

    def d2phi(self, x: np.ndarray) -> np.ndarray:
        return _hessian(self.derivs(x))

    def phi_on_rows(self, X: np.ndarray) -> np.ndarray:
        """phi at each row of X; one phi call per row without a row form."""
        if self.phi_rows is not None:
            return self.phi_rows(X)
        return np.array([float(self.phi(x)) for x in X], dtype=float)

    def derivs_on_rows(self, X: np.ndarray) -> np.ndarray:
        """(5, N) array of (d1, d2, d11, d12, d22) at the rows of X.

        One derivs call per row without a row form.
        """
        if self.derivs_rows is not None:
            return np.array(self.derivs_rows(X), dtype=float)
        return np.array([self.derivs(x) for x in X], dtype=float).reshape(len(X), 5).T


def _hessian(derivs) -> np.ndarray:
    _, _, d11, d12, d22 = derivs
    return np.array([[d11, d12], [d12, d22]], dtype=float)


@dataclass
class Chart:
    """Invertible coordinate map between chart and scenario coordinates."""

    name: str
    to_scenario: Callable[[np.ndarray], np.ndarray]
    from_scenario: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    domain_lo: np.ndarray
    domain_hi: np.ndarray


# ---------------------------------------------------------------------------
# metric constructors


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def constant_metric(matrix) -> MetricEval:
    gmat = _readonly(np.array(matrix, dtype=float))
    if not np.allclose(gmat, gmat.T, atol=1e-14):
        raise ValueError("metric matrix must be symmetric")
    eigs = np.linalg.eigvalsh(gmat)
    if eigs.min() <= 0:
        raise ValueError("metric matrix must be positive definite")
    dim = gmat.shape[0]
    ginv = _readonly(np.linalg.inv(gmat))
    zeros = _readonly(np.zeros((dim, dim, dim)))
    return MetricEval(
        dim=dim,
        g=lambda x: gmat,
        g_inv=lambda x: ginv,
        dg=lambda x: zeros,
        is_constant=True,
    )


def identity_metric(dim: int) -> MetricEval:
    return constant_metric(np.eye(dim))


def diagonal_metric(entries) -> MetricEval:
    return constant_metric(np.diag(np.asarray(entries, dtype=float)))


def callable_metric(dim: int, g_fn: Callable[[np.ndarray], np.ndarray], dg_fn=None) -> MetricEval:
    """Metric from a pointwise g(x); dg analytic if given, else central FD."""

    def g(x):
        return np.asarray(g_fn(x), dtype=float)

    def g_inv(x):
        return np.linalg.inv(g(x))

    if dg_fn is None:

        def dg(x, _h=FD_STEP):
            x = np.asarray(x, dtype=float)
            out = np.empty((dim, dim, dim))
            for k in range(dim):
                e = np.zeros(dim)
                e[k] = _h
                out[k] = (g(x + e) - g(x - e)) / (2.0 * _h)
            return out

    else:

        def dg(x):
            return np.asarray(dg_fn(x), dtype=float)

    return MetricEval(dim=dim, g=g, g_inv=g_inv, dg=dg, is_constant=False)


# ---------------------------------------------------------------------------
# basic operations


def in_domain(scenario, x: np.ndarray) -> bool:
    """x lies in the chart box widened by 1e-9; NaN coordinates do not."""
    lo, hi = scenario.domain_lo, scenario.domain_hi
    for k in range(len(lo)):
        if not lo[k] - 1e-9 <= x[k] <= hi[k] + 1e-9:
            return False
    return True


def _require_in_domain(scenario, x: np.ndarray) -> None:
    if not in_domain(scenario, x):
        raise OutOfChart(f"point {np.asarray(x)} outside domain box of '{scenario.name}'")


def conorm_sq(scenario, x, xi) -> float:
    """Squared covector norm g*(xi, xi) at x."""
    xi = np.asarray(xi, dtype=float)
    return float(xi @ scenario.metric.g_inv(np.asarray(x, dtype=float)) @ xi)


def unit_conormal(scenario, x, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, n_star) from the normalized dphi, accepted within |phi| <= tol.

    n_star is the inward unit conormal, n its sharp; g(n, n) = 1.
    """
    x = np.asarray(x, dtype=float)
    if abs(scenario.boundary.phi(x)) > tol:
        raise NotOnBoundary(f"|phi| = {abs(scenario.boundary.phi(x)):.3e} > {tol:.3e} at {x}")
    dphi = scenario.boundary.dphi(x)
    gi = scenario.metric.g_inv(x)
    norm2 = float(dphi @ gi @ dphi)
    if norm2 < 1e-16:
        raise DegenerateNormal(f"|dphi|_g* ~ {np.sqrt(max(norm2, 0.0)):.3e} at {x}")
    n_star = dphi / np.sqrt(norm2)
    return gi @ n_star, n_star


def unit_normal(scenario, x) -> tuple[np.ndarray, np.ndarray]:
    """Inward unit normal (n, n_star) at a boundary point."""
    _require_in_domain(scenario, np.asarray(x, dtype=float))
    return unit_conormal(scenario, x, scenario.thresholds.boundary_tol)


def newton_to_boundary(boundary: BoundaryDef, x, steps: int, tol: float = 0.0,
                       max_step: float = math.inf):
    """Euclidean Newton steps x <- x - (phi / |dphi|^2) dphi toward {phi = 0}.

    Takes at most ``steps`` steps. Stops early at a point with |phi| <= tol,
    at one with |dphi|^2 < 1e-24, or before a step longer than max_step.
    Returns (x, phi, dphi) at the point where it stopped; what a degenerate
    dphi there means is for the caller to decide.

    x is one point, evaluated through ``phi`` and ``dphi``, or an (N, 2)
    batch, evaluated through ``phi_on_rows`` and ``derivs_on_rows``. Each
    row of a batch stops by the rules above on its own and is not evaluated
    again; the result is then (X, phi, dphi) with N rows each.
    """
    x = np.asarray(x, dtype=float)
    X = np.array(x, ndmin=2)
    phi = np.empty(len(X))
    dphi = np.empty_like(X)
    live = np.arange(len(X))
    Y = X
    for k in range(steps + 1):
        if x.ndim == 2:
            p, d = boundary.phi_on_rows(Y), boundary.derivs_on_rows(Y)[:2].T
        else:
            p, d = np.array([float(boundary.phi(Y[0]))]), boundary.dphi(Y[0])[None]
        phi[live], dphi[live] = p, d
        if k == steps:
            break
        # vecdot is the same dot product as dphi @ dphi, to the bit
        nd2 = np.vecdot(d, d)
        go = ~((np.abs(p) <= tol) | (nd2 < 1e-24))
        if not go.all():
            live, Y, p, d, nd2 = live[go], Y[go], p[go], d[go], nd2[go]
        step = (p / nd2)[:, None] * d
        go = ~(np.hypot(step[:, 0], step[:, 1]) > max_step)
        if not go.all():
            live, Y, step = live[go], Y[go], step[go]
        if not live.size:
            break
        Y = Y - step
        X[live] = Y
    if x.ndim == 2:
        return X, phi, dphi
    return X[0], float(phi[0]), dphi[0]


# ---------------------------------------------------------------------------
# quasi-normal chart construction
#
# Pipeline: (1) trace the boundary curve through m0 and build splines for the
# curve b(u) and its Euclidean inward normal e(u); the tubular map
# Psi0(u, w) = b(u) + w e(u) flattens the boundary to {w = 0}. (2) In these
# flattened coordinates compute the metric-unit inward normal field on the
# boundary, cut it off, and mollify it with the scaled kernel
# k_z(u) = ell(u / z) / z. (3) The chart map is
# Psi0((x', 0) + z * m(x', z)); at z = 0 the mollifier acts as the identity,
# which forces the mixed metric entries to vanish and g_dd to equal 1 there.


@dataclass
class QuasiNormalParams:
    grid_step: float = 1.0 / 64.0
    cutoff_radius: float = 1.0
    kernel_truncation: float = 8.0
    half_width_tangent: float = 0.35
    half_width_normal: float = 0.08
    kernel_mass_tol: float = 0.01


def smoothstep(u):
    """C1 ramp: 0 for u <= -1, 1 for u >= -1/2, cubic in between."""
    u = np.asarray(u, dtype=float)
    v = np.clip(2.0 * (u + 1.0), 0.0, 1.0)
    return v * v * (3.0 - 2.0 * v)


def _cutoff(u, radius: float):
    """1 on |u| <= radius, 0 beyond 2*radius, C1 in between."""
    return smoothstep(-0.5 - (np.abs(u) - radius) / (2.0 * radius))


def smoothing_kernel(truncation: float, step: float, mass_tol: float = 0.01):
    """Tabulate ell, the inverse Fourier transform of exp(1 - <xi>).

    Returns (offsets, weights) so that a mollified field is
    sum_i weights[i] * field(x - z * offsets[i]); weights are normalized to
    unit discrete mass after checking the raw mass against 1.
    """
    offsets = np.arange(-truncation, truncation + step / 2.0, step)
    xi_max = 60.0
    xi = np.linspace(0.0, xi_max, 6001)
    damp = np.exp(1.0 - np.sqrt(1.0 + xi**2))
    # even integrand: ell(u) = (1/pi) * int_0^inf cos(u xi) exp(1 - <xi>) dxi
    ell = np.trapezoid(np.cos(np.outer(offsets, xi)) * damp, xi, axis=1) / np.pi
    raw_mass = float(np.trapezoid(ell, offsets))
    if abs(raw_mass - 1.0) > mass_tol:
        raise SmoothingFailure(
            f"kernel mass {raw_mass:.6f} deviates from 1 by more than {mass_tol:.0%}"
        )
    weights = ell * step
    # trapezoid endpoint halving, then exact renormalization
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weights /= weights.sum()
    return offsets, weights


def _trace_boundary(scenario, m0: np.ndarray, half_span: float, step: float):
    """March the level set {phi = 0} through m0 in both directions.

    Returns cubic splines u -> b(u) and u -> e(u) where u is (approximate)
    Euclidean arc length, b the boundary point, e the Euclidean inward unit
    normal dphi/|dphi|.
    """
    bnd = scenario.boundary

    def tangent(d):
        t = np.array([-d[1], d[0]])
        return t / np.linalg.norm(t)

    n_side = int(np.ceil(half_span / step))
    us = np.arange(-n_side, n_side + 1) * step
    pts = np.empty((len(us), 2))
    grads = np.empty_like(pts)
    x0, _, d0 = newton_to_boundary(bnd, m0, 4)
    pts[n_side], grads[n_side] = x0, d0
    for direction in (+1, -1):
        x, d = x0, d0
        for k in range(1, n_side + 1):
            # midpoint step along the tangent, then project back
            h = direction * step
            xm = x + 0.5 * h * tangent(d)
            x, _, d = newton_to_boundary(bnd, x + h * tangent(bnd.dphi(xm)), 4)
            pts[n_side + direction * k], grads[n_side + direction * k] = x, d
    normals = np.array([d / np.linalg.norm(d) for d in grads])
    b_spline = CubicSpline(us, pts, axis=0)
    e_spline = CubicSpline(us, normals, axis=0)
    return us, b_spline, e_spline


def build_quasi_normal_chart(scenario, m0, params: QuasiNormalParams | None = None) -> Chart:
    """Boundary chart in which the metric is block diagonal with g_dd = 1 at z=0.

    The returned chart maps (x', z) to scenario coordinates; {z = 0} is the
    boundary and z > 0 the interior side.
    """
    if scenario.dim != 2:
        raise NotImplementedError("quasi-normal charts implemented for dim = 2")
    params = params or QuasiNormalParams()
    m0 = np.asarray(m0, dtype=float)
    if abs(scenario.boundary.phi(m0)) > 1e-6:
        raise NotOnBoundary(f"m0 must lie on the boundary, phi = {scenario.boundary.phi(m0):.3e}")

    R = params.cutoff_radius
    reach = params.half_width_tangent + params.kernel_truncation * params.half_width_normal
    if reach > 2.0 * R:
        raise ValueError("chart window exceeds the cutoff support; enlarge cutoff_radius")
    half_span = 2.0 * R + 4.0 * params.grid_step
    us, b_spline, e_spline = _trace_boundary(scenario, m0, half_span, params.grid_step)
    db_spline = b_spline.derivative()
    de_spline = e_spline.derivative()

    def psi0(u, w):
        return b_spline(u) + w * e_spline(u)

    def psi0_jac(u, w):
        col_u = db_spline(u) + w * de_spline(u)
        col_w = e_spline(u)
        return np.column_stack([col_u, col_w])

    def pre_metric(u, w):
        """Scenario metric pulled back to the flattened (u, w) coordinates."""
        J = psi0_jac(u, w)
        gx = scenario.metric.g(psi0(u, w))
        return J.T @ gx @ J

    def unit_normal_flat(u):
        """Metric-unit inward normal at (u, 0) in flattened coordinates."""
        g0 = pre_metric(u, 0.0)
        gi = np.linalg.inv(g0)
        gdd = gi[1, 1]
        return gi[:, 1] / np.sqrt(gdd)

    u_lim = float(us[-1])

    def chi_n(u):
        u = float(np.clip(u, -u_lim, u_lim))
        return _cutoff(u, R) * unit_normal_flat(u)

    # sample chi*n once and spline it; the mollifier consumes many evaluations
    cn_grid = np.array([chi_n(u) for u in us])
    cn_spline = CubicSpline(us, cn_grid, axis=0)
    dcn_spline = cn_spline.derivative()

    offsets, weights = smoothing_kernel(
        params.kernel_truncation, params.grid_step, params.kernel_mass_tol
    )

    def _eval_cn(args, spline):
        clipped = np.clip(args, -u_lim, u_lim)
        vals = spline(clipped)
        vals[np.abs(args) > u_lim] = 0.0
        return vals

    def m_field(xp: float, z: float):
        if abs(z) < 1e-12:
            return chi_n(xp)
        args = xp - z * offsets
        return weights @ _eval_cn(args, cn_spline)

    def m_field_jac(xp: float, z: float):
        """(dm/dx', dm/dz), each a 2-vector."""
        if abs(z) < 1e-12:
            h = 1e-7
            dmx = (m_field(xp + h, z) - m_field(xp - h, z)) / (2.0 * h)
            dmz = (m_field(xp, z + h) - m_field(xp, z - h)) / (2.0 * h)
            return dmx, dmz
        args = xp - z * offsets
        dvals = _eval_cn(args, dcn_spline)
        dmx = weights @ dvals
        dmz = weights @ (-offsets[:, None] * dvals)
        return dmx, dmz

    def to_scenario(y):
        xp, z = float(y[0]), float(y[1])
        m = m_field(xp, z)
        return psi0(xp + z * m[0], z * m[1])

    def jacobian(y):
        xp, z = float(y[0]), float(y[1])
        m = m_field(xp, z)
        dmx, dmz = m_field_jac(xp, z)
        pre = np.array(
            [
                [1.0 + z * dmx[0], m[0] + z * dmz[0]],
                [z * dmx[1], m[1] + z * dmz[1]],
            ]
        )
        return psi0_jac(xp + z * m[0], z * m[1]) @ pre

    def from_scenario(x):
        x = np.asarray(x, dtype=float)
        # initial guess from the tubular structure
        grid = np.linspace(-u_lim, u_lim, 129)
        u = float(grid[np.argmin(np.linalg.norm(b_spline(grid) - x, axis=1))])
        for _ in range(8):
            r = b_spline(u) - x
            u -= float(r @ db_spline(u)) / float(db_spline(u) @ db_spline(u))
        y = np.array([u, float((x - b_spline(u)) @ e_spline(u))])
        for _ in range(50):
            r = to_scenario(y) - x
            if np.linalg.norm(r) < 1e-13:
                break
            y = y - np.linalg.solve(jacobian(y), r)
        return y

    lo = np.array([-params.half_width_tangent, -params.half_width_normal])
    hi = np.array([params.half_width_tangent, params.half_width_normal])
    chart = Chart(
        name=f"quasi_normal({scenario.name} @ {m0.tolist()})",
        to_scenario=to_scenario,
        from_scenario=from_scenario,
        jacobian=jacobian,
        domain_lo=lo,
        domain_hi=hi,
    )

    corners = [lo, hi, np.array([lo[0], hi[1]]), np.array([hi[0], lo[1]]), 0.5 * (lo + hi)]
    for y in corners:
        J = jacobian(y)
        if not np.isfinite(J).all() or abs(np.linalg.det(J)) < 1e-6:
            raise ChartDegenerate(f"Jacobian nearly singular at chart point {y}")
    return chart
