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
  boundaries evaluate it with a row jet kernel, see ``glancer.jet``);
* a metric is a ``MetricEval``, built from one function, ``entries(x)``:
  g11, g12, g22 and their x1 and x2 derivatives as nine floats, one
  evaluation per point, and optionally ``values(x)``, g alone. A constant
  metric (``constant_metric``) is its case with fixed entries and
  derivatives 0. ``MetricEval.at`` is the one float reading of any metric,
  g^-1 and dg as floats with a last-point memo, which the symbol, the
  tracer and the row passes of ``glancer.measures`` take; ``g_values`` gives
  g as floats, and the numpy ``g``, ``g_inv`` (the closed-form 2x2 inverse
  of ``inverse_2x2``) and ``dg`` are read from the same functions;
* ``newton_to_level`` is the one pointwise Newton onto a level of phi, on a
  float pair, along g^-1 dphi or, without a metric, along dphi;
  ``newton_to_boundary`` is its Euclidean row form for batches of points;
* products of 2-vectors and 2x2 matrices are written out on floats (``sharp``
  for g^-1 a, then a dot product summed left to right), not taken with
  numpy's ``@``, which leaves them to the BLAS kernel of the CPU. Only the
  quasi-normal chart construction and ``MetricEval.dg_inv`` keep numpy's
  products.
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
    StepFailure,
)


class MetricEval:
    """A 2-D metric, from one function of a point x evaluated once per point:
    entries(x) = (g11, g12, g22, d1 g11, d1 g12, d1 g22, d2 g11, d2 g12,
    d2 g22), nine floats, dk the derivative in x_k. values(x), when given,
    is (g11, g12, g22) alone, where that costs less. ``is_constant`` marks
    a metric whose entries are fixed with derivatives 0 (constant_metric),
    which lets integrators skip the covector update entirely.

    ``at`` is the one float reading; ``g_values`` reads g alone as floats,
    and the numpy ``g``, ``g_inv`` (inverse_2x2), ``dg`` and ``dg_inv`` are
    built from the same calls. Each call goes through the ``entries`` and
    ``values`` attributes, so a wrapper set there sees them all.
    """

    def __init__(
        self,
        entries: Callable[..., tuple[float, ...]],
        values: Callable[..., tuple[float, float, float]] | None = None,
        is_constant: bool = False,
    ):
        self.entries = entries
        self.values = values
        self.is_constant = is_constant
        self._x = None
        self._reading = None
        if is_constant:
            self._reading = inverse_2x2(entries((0.0, 0.0)), (0.0, 0.0)), None

    def at(self, x) -> tuple[tuple[float, float, float], tuple[float, ...] | None]:
        """(gi, dg) at the point pair x as floats, from one entries call: gi =
        (gi11, gi12, gi22), the entries of g^-1 by inverse_2x2 (StepFailure
        where g is not positive definite), and dg = (d1 g11, d1 g12, d1 g22,
        d2 g11, d2 g12, d2 g22), or None under a constant metric.

        A call at the point of the last one (its coordinates compare equal)
        returns that reading again, so the checks at a new state and the next
        RK stage there share one evaluation. Under a constant metric every
        call returns the one reading taken at construction.
        """
        if self.is_constant:
            return self._reading
        x1, x2 = x
        if self._x != (x1, x2):
            e = self.entries(x)
            self._reading = inverse_2x2(e, x), e[3:]
            self._x = (x1, x2)
        return self._reading

    def at_rows(self, X: np.ndarray):
        """(gi, dg) at the rows of X, as at reads them and as the row passes
        of sym.contact_values and sym.field_values take them: under a
        constant metric one reading, whose floats serve every row; else one
        per row, each entry an array over the rows."""
        if self.is_constant:
            return self._reading
        rows = [(*gi, *dg) for gi, dg in map(self.at, X.tolist())]
        cols = np.array(rows, dtype=float).reshape(len(X), 9).T
        return cols[:3], cols[3:]

    def g_values(self, x) -> tuple[float, float, float]:
        """(g11, g12, g22) at x as floats: values(x) where given, else the
        first three entries."""
        return self.entries(x)[:3] if self.values is None else self.values(x)

    def g(self, x) -> np.ndarray:
        g11, g12, g22 = self.g_values(x)
        return np.array(((g11, g12), (g12, g22)))

    def g_inv(self, x) -> np.ndarray:
        gi11, gi12, gi22 = inverse_2x2(self.g_values(x), x)
        return np.array(((gi11, gi12), (gi12, gi22)))

    def dg(self, x) -> np.ndarray:
        """dg(x)[k, i, j], the derivative of g_ij in direction x_k."""
        e = self.entries(x)
        return np.array((((e[3], e[4]), (e[4], e[5])), ((e[6], e[7]), (e[7], e[8]))))

    def dg_inv(self, x: np.ndarray, gi: np.ndarray | None = None) -> np.ndarray:
        """Derivative of the inverse metric: -g^-1 (dg) g^-1 per direction.

        gi is g_inv at x, when the caller has already evaluated it.
        """
        if self.is_constant:
            return np.zeros((2, 2, 2))
        if gi is None:
            gi = self.g_inv(x)
        return -np.einsum("il,klm,mj->kij", gi, self.dg(x), gi)


@dataclass
class BoundaryDef:
    """Boundary as the zero set of phi (> 0 inside), with its 2-jet.

    ``phi(x)`` is the value, and every sign or tolerance test reads it.
    ``derivs(x)`` returns the derivatives ``(d1, d2, d11, d12, d22)`` at x as
    five floats, so one call gives what the contact classification needs;
    ``dphi`` and ``d2phi`` build the gradient and Hessian arrays from it,
    for ``perfbench/tracer.py`` and the tests (no caller in the package).
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
        _, _, d11, d12, d22 = self.derivs(x)
        return np.array([[d11, d12], [d12, d22]], dtype=float)

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


@dataclass
class Chart:
    """Invertible coordinate map between chart and scenario coordinates.

    ``jet(y, order)`` gives ``(x, J, H)`` at the chart point y: x, from order
    1 ``J[i, k] = dx_i/dy_k``, at order 2 ``H[k] = dJ/dy_k``; else None.
    """

    name: str
    jet: Callable[..., tuple]
    from_scenario: Callable[[np.ndarray], np.ndarray]
    domain_lo: np.ndarray
    domain_hi: np.ndarray

    def to_scenario(self, y) -> np.ndarray:
        return self.jet(y, 0)[0]


# ---------------------------------------------------------------------------
# metric constructors


def constant_metric(matrix) -> MetricEval:
    """The metric of a fixed symmetric positive definite 2x2 matrix: fixed
    entries with derivatives 0 and is_constant set, so g^-1 is
    inverse_2x2's closed form, read once.

    Raises ValueError unless matrix is a finite 2x2 matrix with equal
    off-diagonal entries, g11 > 0 and det g > 0.
    """
    gmat = np.array(matrix, dtype=float)
    if gmat.shape != (2, 2) or not np.isfinite(gmat).all() or gmat[0, 1] != gmat[1, 0]:
        raise ValueError(f"metric matrix must be finite, symmetric and 2x2, got {gmat.tolist()}")
    (g11, g12), (_, g22) = gmat.tolist()
    if not (g11 > 0.0 and g11 * g22 - g12 * g12 > 0.0):
        raise ValueError(f"metric matrix must be positive definite, got {gmat.tolist()}")
    e = (g11, g12, g22, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return MetricEval(lambda x: e, is_constant=True)


def identity_metric() -> MetricEval:
    return constant_metric(np.eye(2))


def diagonal_metric(entries) -> MetricEval:
    return constant_metric(np.diag(np.asarray(entries, dtype=float)))


def inverse_2x2(e, x) -> tuple[float, float, float]:
    """(gi11, gi12, gi22), the entries of g^-1 from the first three of e, a
    metric's entries at x, by the closed-form 2x2 inverse.

    Raises StepFailure, naming x, where g is not positive definite
    (g11 <= 0 or det g <= 0, NaN included).
    """
    g11, g12, g22 = e[0], e[1], e[2]
    det = g11 * g22 - g12 * g12
    if not (g11 > 0.0 and det > 0.0):
        raise StepFailure(
            f"metric not positive definite at x = {[float(v) for v in x]}: "
            f"g11 = {g11:.6g}, det g = {det:.6g}"
        )
    return g22 / det, -g12 / det, g11 / det


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


def sharp(gi, a1: float, a2: float) -> tuple[float, float]:
    """g^-1 a for the covector a = (a1, a2), from gi = (gi11, gi12, gi22), the
    entries of g^-1 as MetricEval.at reads them; with + and * alone, in
    numpy's order without fused multiply-add."""
    gi11, gi12, gi22 = gi
    return gi11 * a1 + gi12 * a2, gi12 * a1 + gi22 * a2


def conorm_sq(scenario, x, xi) -> float:
    """Squared covector norm g*(xi, xi) = xi . g^-1 xi at x, on floats."""
    xi1, xi2 = (float(v) for v in xi)
    s1, s2 = sharp(scenario.metric.at(np.asarray(x, dtype=float))[0], xi1, xi2)
    return xi1 * s1 + xi2 * s2


def unit_conormal(scenario, x, tol: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(n, n_star) from the normalized dphi, accepted within |phi| <= tol.

    n_star is the inward unit conormal, n its sharp; g(n, n) = 1. Both come
    as float pairs, from the boundary's derivs and the metric's float
    reading at x.
    """
    x = np.asarray(x, dtype=float)
    if abs(scenario.boundary.phi(x)) > tol:
        raise NotOnBoundary(f"|phi| = {abs(scenario.boundary.phi(x)):.3e} > {tol:.3e} at {x}")
    d1, d2 = scenario.boundary.derivs(x)[:2]
    gi = scenario.metric.at(x)[0]
    w1, w2 = sharp(gi, d1, d2)
    norm2 = d1 * w1 + d2 * w2
    if norm2 < 1e-16:
        raise DegenerateNormal(f"|dphi|_g* ~ {math.sqrt(max(norm2, 0.0)):.3e} at {x}")
    r = math.sqrt(norm2)
    n_star = d1 / r, d2 / r
    return sharp(gi, *n_star), n_star


def unit_normal(scenario, x) -> tuple[tuple[float, float], tuple[float, float]]:
    """Inward unit normal (n, n_star) at a boundary point."""
    _require_in_domain(scenario, np.asarray(x, dtype=float))
    return unit_conormal(scenario, x, scenario.thresholds.boundary_tol)


def newton_to_level(boundary: BoundaryDef, x, target: float, steps: int, tol: float,
                    metric: MetricEval | None = None):
    """Newton steps x <- x + ((target - phi) / <dphi, w>) w toward {phi = target}.

    x is a float pair (x1, x2). w is g^-1 dphi, read through metric.at, or
    dphi itself when metric is None (the Euclidean step, x - (phi /
    |dphi|^2) dphi onto phi = 0). Takes at most ``steps`` steps, each on
    floats from one ``derivs`` call, and stops early once |target - phi| <=
    tol. Raises DegenerateNormal where <dphi, w> < 1e-16. Returns the pair
    (x1, x2) and phi at the point where it stopped.
    """
    phi_f = boundary.phi
    x1, x2 = x
    ph = float(phi_f(x))
    for _ in range(steps):
        if abs(target - ph) <= tol:
            break
        d1, d2 = boundary.derivs(x)[:2]
        w1, w2 = (d1, d2) if metric is None else sharp(metric.at(x)[0], d1, d2)
        denom = d1 * w1 + d2 * w2
        if denom < 1e-16:
            raise DegenerateNormal(
                f"dphi degenerate at {np.array(x)} in a Newton step to phi = {target:.3e}"
            )
        f = (target - ph) / denom
        x1, x2 = x1 + f * w1, x2 + f * w2
        x = (x1, x2)
        ph = float(phi_f(x))
    return (x1, x2), ph


def newton_to_boundary(boundary: BoundaryDef, X: np.ndarray, steps: int, tol: float = 0.0,
                       max_step: float = math.inf):
    """Euclidean Newton steps x <- x - (phi / |dphi|^2) dphi toward {phi = 0}
    on every row of the (N, 2) array X: the row form of newton_to_level
    without a metric, evaluated through ``phi_on_rows`` and ``derivs_on_rows``.

    Each row takes at most ``steps`` steps and stops on its own, and is not
    evaluated again, at a point with |phi| <= tol, at one with
    |dphi|^2 < 1e-24, or before a step longer than max_step. Returns
    (X, phi, dphi) with N rows each, at the points where the rows stopped;
    what a degenerate dphi there means is for the caller to decide.
    """
    X = np.array(X, dtype=float)
    phi = np.empty(len(X))
    dphi = np.empty_like(X)
    live = np.arange(len(X))
    Y = X
    for k in range(steps + 1):
        p, d = boundary.phi_on_rows(Y), boundary.derivs_on_rows(Y)[:2].T
        phi[live], dphi[live] = p, d
        if k == steps:
            break
        nd2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
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
    return X, phi, dphi


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


# The window's reach, 0.35 + 8 * 0.08 = 0.99, stays inside the cutoff's support.
_GRID_STEP = 1.0 / 64.0
_CUTOFF_RADIUS = 1.0
_KERNEL_TRUNCATION = 8.0
_HALF_WIDTH_TANGENT = 0.35
_HALF_WIDTH_NORMAL = 0.08
_KERNEL_MASS_TOL = 0.01


def smoothstep(u):
    """C1 ramp: 0 for u <= -1, 1 for u >= -1/2, cubic in between."""
    u = np.asarray(u, dtype=float)
    v = np.clip(2.0 * (u + 1.0), 0.0, 1.0)
    return v * v * (3.0 - 2.0 * v)


def smoothstep_prime(u):
    """Derivative of smoothstep: 12 v (1 - v) with v = 2 (u + 1) on the ramp."""
    v = np.clip(2.0 * (np.asarray(u, dtype=float) + 1.0), 0.0, 1.0)
    return 12.0 * v * (1.0 - v)


def smoothing_kernel(truncation: float, step: float):
    """Tabulate ell, the inverse Fourier transform of exp(1 - <xi>).

    Returns (offsets, weights) so that a mollified field is
    sum_i weights[i] * field(x - z * offsets[i]); weights are normalized to
    unit discrete mass after checking that the raw mass is within 1 % of 1.
    """
    offsets = np.arange(-truncation, truncation + step / 2.0, step)
    xi_max = 60.0
    xi = np.linspace(0.0, xi_max, 6001)
    damp = np.exp(1.0 - np.sqrt(1.0 + xi**2))
    # even integrand: ell(u) = (1/pi) * int_0^inf cos(u xi) exp(1 - <xi>) dxi
    ell = np.trapezoid(np.cos(np.outer(offsets, xi)) * damp, xi, axis=1) / np.pi
    raw_mass = float(np.trapezoid(ell, offsets))
    if abs(raw_mass - 1.0) > _KERNEL_MASS_TOL:
        raise SmoothingFailure(
            f"kernel mass {raw_mass:.6f} deviates from 1 by more than {_KERNEL_MASS_TOL:.0%}"
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
    x0 = np.array(newton_to_level(bnd, m0.tolist(), 0.0, 4, 0.0)[0])
    d0 = bnd.derivs(x0)[:2]
    pts[n_side], grads[n_side] = x0, d0
    for direction in (+1, -1):
        x, d = x0, d0
        for k in range(1, n_side + 1):
            # midpoint step along the tangent, then project back
            h = direction * step
            xm = x + 0.5 * h * tangent(d)
            x = (x + h * tangent(bnd.derivs(xm)[:2])).tolist()
            x = np.array(newton_to_level(bnd, x, 0.0, 4, 0.0)[0])
            d = bnd.derivs(x)[:2]
            pts[n_side + direction * k], grads[n_side + direction * k] = x, d
    normals = np.array([d / np.linalg.norm(d) for d in grads])
    b_spline = CubicSpline(us, pts, axis=0)
    e_spline = CubicSpline(us, normals, axis=0)
    return us, b_spline, e_spline


def build_quasi_normal_chart(scenario, m0) -> Chart:
    """Boundary chart in which the metric is block diagonal with g_dd = 1 at z=0.

    The returned chart maps (x', z) to scenario coordinates; {z = 0} is the
    boundary and z > 0 the interior side. The window and the kernel are
    fixed: the chart box has half widths 0.35 (along the boundary) by 0.08
    (normal to it), the unit normal field is cut off at radius 1, and the
    mollifier is tabulated out to truncation 8 on a grid of step 1/64.

    The jet's derivatives are closed forms: those of Psi0 from the splines
    of b and e, those of m from kernel sums over the chi * n spline's first
    and second derivatives. At |z| < 1e-12, m is chi * n itself rather than
    the kernel sum, which is off by the spline's interpolation error, so the
    metric is flat there to rounding; dm/dx' there is chi' n + chi n', with
    n' from dG0 = Pu^T g P + P^T g Pu + P^T (dg . b') P for the flattened
    metric G0 = P^T g P, P = [b', e], Pu = [b'', e'].
    """
    m0 = np.asarray(m0, dtype=float)
    if not abs(scenario.boundary.phi(m0)) <= 1e-6:
        raise NotOnBoundary(f"m0 must lie on the boundary, phi = {scenario.boundary.phi(m0):.3e}")

    half_span = 2.0 * _CUTOFF_RADIUS + 4.0 * _GRID_STEP
    us, b_spline, e_spline = _trace_boundary(scenario, m0, half_span, _GRID_STEP)
    db_spline, de_spline = b_spline.derivative(), e_spline.derivative()
    d2b_spline, d2e_spline = db_spline.derivative(), de_spline.derivative()

    def psi0(u, w):
        return b_spline(u) + w * e_spline(u)

    def psi0_jac(u, w):
        return np.column_stack([db_spline(u) + w * de_spline(u), e_spline(u)])

    u_lim = float(us[-1])

    def chi_n(u, derivative: bool):
        """(chi n, its u-derivative or None) at (u, 0); n is the metric-unit inward normal."""
        u = float(np.clip(u, -u_lim, u_lim))
        P, x = psi0_jac(u, 0.0), psi0(u, 0.0)
        gx = scenario.metric.g(x)
        gi = np.linalg.inv(P.T @ gx @ P)
        n = gi[:, 1] / np.sqrt(gi[1, 1])
        # the cutoff chi: 1 on |u| <= radius, 0 beyond 2 radius, C1 in between
        v = -0.5 - (abs(u) - _CUTOFF_RADIUS) / (2.0 * _CUTOFF_RADIUS)
        if not derivative:
            return smoothstep(v) * n, None
        Pu = np.column_stack([d2b_spline(u), de_spline(u)])
        dgb = np.einsum("kij,k->ij", scenario.metric.dg(x), P[:, 0])
        dgi = -gi @ (Pu.T @ gx @ P + P.T @ gx @ Pu + P.T @ dgb @ P) @ gi
        dn = dgi[:, 1] / np.sqrt(gi[1, 1]) - 0.5 * n * (dgi[1, 1] / gi[1, 1])
        dchi = smoothstep_prime(v) * -math.copysign(0.5 / _CUTOFF_RADIUS, u)
        return smoothstep(v) * n, dchi * n + smoothstep(v) * dn

    # sample chi*n once and spline it; the mollifier consumes many evaluations
    cn_spline = CubicSpline(us, np.array([chi_n(u, False)[0] for u in us]), axis=0)
    cn_splines = (cn_spline, cn_spline.derivative(), cn_spline.derivative(2))
    offsets, weights = smoothing_kernel(_KERNEL_TRUNCATION, _GRID_STEP)
    neg_offsets, sq_offsets = -offsets[:, None], (offsets * offsets)[:, None]

    def jet(y, order: int = 1):
        xp, z = float(y[0]), float(y[1])
        args = xp - z * offsets
        # the chi*n spline's derivatives of orders 0..order at the kernel nodes
        clipped, outside = np.clip(args, -u_lim, u_lim), np.abs(args) > u_lim
        vals = [spline(clipped) for spline in cn_splines[: order + 1]]
        for v in vals:
            v[outside] = 0.0
        flat = abs(z) < 1e-12
        m, dmx = chi_n(xp, order > 0) if flat else (weights @ vals[0], None)
        U, W = xp + z * m[0], z * m[1]
        x = psi0(U, W)
        if order == 0:
            return x, None, None
        dmx = dmx if flat else weights @ vals[1]
        dmz = weights @ (neg_offsets * vals[1])
        pre = np.array([[1.0 + z * dmx[0], m[0] + z * dmz[0]], [z * dmx[1], m[1] + z * dmz[1]]])
        A = psi0_jac(U, W)
        if order == 1:
            return x, A @ pre, None
        dmxx, dmxz, dmzz = (weights @ (c * vals[2]) for c in (1.0, neg_offsets, sq_offsets))
        # pre is d(U, W)/d(x', z); dpre[k] = d(pre)/dy_k, whose mixed column is shared
        mixed = dmx + z * dmxz
        dpre = (np.column_stack([z * dmxx, mixed]), np.column_stack([mixed, 2.0 * dmz + z * dmzz]))
        de = de_spline(U)
        A_u = np.column_stack([d2b_spline(U) + W * d2e_spline(U), de])
        A_w = np.column_stack([de, np.zeros(2)])
        H = np.array([(A_u * pre[0, k] + A_w * pre[1, k]) @ pre + A @ dpre[k] for k in range(2)])
        return x, A @ pre, H

    def from_scenario(x):
        """Chart point of x, by Newton steps on the jet.

        Raises OutOfChart at a singular Jacobian, when the residual does not
        fall below 1e-13, or when the point lies outside the chart box.
        """
        x = np.asarray(x, dtype=float)
        # initial guess from the tubular structure
        grid = np.linspace(-u_lim, u_lim, 129)
        u = float(grid[np.argmin(np.linalg.norm(b_spline(grid) - x, axis=1))])
        for _ in range(8):
            r = b_spline(u) - x
            u -= float(r @ db_spline(u)) / float(db_spline(u) @ db_spline(u))
        y = np.array([u, float((x - b_spline(u)) @ e_spline(u))])
        for _ in range(50):
            xy, J, _ = jet(y)
            if np.linalg.norm(xy - x) < 1e-13:
                break
            try:
                y = y - np.linalg.solve(J, xy - x)
            except np.linalg.LinAlgError as exc:
                raise OutOfChart(f"chart Jacobian singular at {y} on the way to {x}") from exc
        else:
            raise OutOfChart(f"Newton found no chart point for {x}")
        if not in_domain(chart, y):
            raise OutOfChart(f"{x} has its chart point {y} outside the chart box")
        return y

    lo = np.array([-_HALF_WIDTH_TANGENT, -_HALF_WIDTH_NORMAL])
    hi = np.array([_HALF_WIDTH_TANGENT, _HALF_WIDTH_NORMAL])
    chart = Chart(
        name=f"quasi_normal({scenario.name} @ {m0.tolist()})",
        jet=jet,
        from_scenario=from_scenario,
        domain_lo=lo,
        domain_hi=hi,
    )

    corners = [lo, hi, np.array([lo[0], hi[1]]), np.array([hi[0], lo[1]]), 0.5 * (lo + hi)]
    for y in corners:
        J = jet(y)[1]
        if not np.isfinite(J).all() or abs(np.linalg.det(J)) < 1e-6:
            raise ChartDegenerate(f"Jacobian nearly singular at chart point {y}")
    return chart
