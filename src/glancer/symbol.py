"""Wave symbol, Hamiltonian and gliding fields, boundary classification.

The symbol is p(rho) = -tau^2 + g*_x(xi, xi). All boundary-adapted
quantities are expressed through the boundary defining function phi:
``hpz`` is the derivative of phi along the Hamiltonian field, ``hp2z`` its
second derivative, ``hz2p`` the transversality coefficient 2 g*(dphi, dphi).

A phase point rho = (t, x, tau, xi) is a PhasePoint or its packed row
[t, x1, x2, tau, xi1, xi2]. This module names the row's columns and
positions once (COLUMNS; T, X, TAU, XI); the other modules index rows,
trajectory states and field vectors through those names. Every function
below that takes a phase point takes either form and gives the same bits
for both. The Hamiltonian and gliding fields return packed field vectors;
project_parallel, sigma and hyperbolic_lifts return phase points in the
form they were given.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTransversal,
    EllipticPoint,
    NotCharacteristic,
    NotOnBoundary,
)
# in_domain stays importable from here: perfbench/tracer.py patches symbol.in_domain.
from .geometry import _hessian, _require_in_domain, in_domain, unit_conormal  # noqa: F401

# The packed row [t, x1, x2, tau, xi1, xi2]: its column names and positions.
COLUMNS = ("t", "x1", "x2", "tau", "xi1", "xi2")
T = 0
X = slice(1, 3)
TAU = 3
XI = slice(4, 6)


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """rho = (t, x, tau, xi)."""

    t: float
    x: np.ndarray
    tau: float
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.t], self.x, [self.tau], self.xi])

    @staticmethod
    def from_vector(y: np.ndarray, dim: int = 2) -> "PhasePoint":
        return PhasePoint(t=y[0], x=y[1 : 1 + dim], tau=y[1 + dim], xi=y[2 + dim :])

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "x": [float(v) for v in self.x],
            "tau": self.tau,
            "xi": [float(v) for v in self.xi],
        }

    @staticmethod
    def from_dict(d: dict) -> "PhasePoint":
        """Inverse of to_dict: reads back a phase point an artifact records."""
        return PhasePoint(t=d["t"], x=d["x"], tau=d["tau"], xi=d["xi"])

    def __repr__(self) -> str:
        return (
            f"PhasePoint(t={self.t:.6g}, x={np.array2string(self.x, precision=6)}, "
            f"tau={self.tau:.6g}, xi={np.array2string(self.xi, precision=6)})"
        )


class Tag(enum.Enum):
    INTERIOR = "Interior"
    HYPERBOLIC_IN = "HyperbolicIn"
    HYPERBOLIC_OUT = "HyperbolicOut"
    DIFFRACTIVE = "Diffractive"
    GLANCING3 = "Glancing3"
    GLIDING = "Gliding"
    ELLIPTIC_TANGENTIAL = "EllipticTangential"


@dataclass(frozen=True)
class BoundaryClass:
    """Classification tag plus the raw values it was decided on.

    The raw hpz/hp2z numbers are kept because the order-3 glancing condition
    is an exact equality that any threshold can only approximate.
    """

    tag: Tag
    hpz: float
    hp2z: float
    p: float

    def __str__(self) -> str:
        return f"{self.tag.value}(hpz={self.hpz:.3e}, hp2z={self.hp2z:.3e})"


@dataclass(frozen=True)
class ClassifyThresholds:
    eps_g: float = 1e-7
    eps_g2: float = 1e-7
    char_tol: float = 1e-8
    boundary_tol: float = 1e-9


# ---------------------------------------------------------------------------
# pointwise symbol algebra


class _once:
    """Attribute computed on first access and stored on the instance.

    functools.cached_property without the lock it takes on every first
    access before Python 3.12; a _State lives for one call, in one thread.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _State:
    """Metric and boundary data at one phase-space state, each evaluated once.

    ``g_inv``, ``dg_inv`` and the boundary's ``derivs`` are evaluated at x on
    first use, so a caller evaluates only what it reads, in the order it
    reads it; ``dphi`` and ``d2phi`` are both built from the one ``derivs``
    call, and every quantity below is derived from those evaluations. No
    chart check is made here; the public functions make theirs. A caller
    that already holds ``g_inv`` at x passes it in, and it is not evaluated
    again.

    A factor 2 is applied to a scalar rather than to a vector where the
    result is the same: scaling by a power of two is exact in floating
    point, short of overflow and subnormals.
    """

    def __init__(self, scenario, x, tau: float = 0.0, xi=None, gi=None):
        self.metric = scenario.metric
        self.boundary = scenario.boundary
        self.x = x
        self.tau = tau
        self.xi = xi
        if gi is not None:  # shadows the _once attribute below
            self.gi = gi

    @_once
    def gi(self):
        return self.metric.g_inv(self.x)

    @_once
    def dgi(self):
        return self.metric.dg_inv(self.x, gi=self.gi)

    @_once
    def derivs(self):
        return self.boundary.derivs(self.x)

    @_once
    def dphi(self):
        return np.array(self.derivs[:2], dtype=float)

    @_once
    def d2phi(self):
        return _hessian(self.derivs)

    @_once
    def sharp_xi(self):
        return self.gi @ self.xi

    @_once
    def p(self) -> float:
        return float(-self.tau**2 + self.xi @ self.gi @ self.xi)

    @_once
    def dx(self):
        """x part of H_p: 2 g^-1 xi."""
        return 2.0 * self.sharp_xi

    @_once
    def dxi(self):
        """xi part of H_p: -dg^-1(xi, xi), zero for a constant metric."""
        if self.metric.is_constant:
            return np.zeros(len(self.xi))
        return -np.einsum("kij,i,j->k", self.dgi, self.xi, self.xi)

    @_once
    def hpz(self) -> float:
        return 2.0 * float(self.dphi @ self.sharp_xi)

    @_once
    def hz2p(self) -> float:
        return 2.0 * float(self.dphi @ self.gi @ self.dphi)

    @_once
    def alpha(self) -> float:
        return float(1.0 / np.sqrt(2.0 * self.hz2p))

    @_once
    def hp2z(self) -> float:
        if self.metric.is_constant:
            return 2.0 * float((self.d2phi @ self.sharp_xi) @ self.dx)
        grad_x = 2.0 * (
            self.d2phi @ self.sharp_xi + np.einsum("kij,i,j->k", self.dgi, self.dphi, self.xi)
        )
        grad_xi = 2.0 * self.gi @ self.dphi
        return float(grad_x @ self.dx + grad_xi @ self.dxi)


def _state(scenario, rho) -> _State:
    """The state at rho, given as a PhasePoint or as its packed row."""
    if isinstance(rho, PhasePoint):
        return _State(scenario, rho.x, rho.tau, rho.xi)
    return _State(scenario, rho[X], float(rho[TAU]), rho[XI])


def _with_xi(rho, xi):
    """rho with its covector replaced, in the form rho was given."""
    if isinstance(rho, PhasePoint):
        return PhasePoint(t=rho.t, x=rho.x, tau=rho.tau, xi=xi)
    out = np.array(rho, dtype=float)
    out[XI] = xi
    return out


def _field(s: _State, dxi) -> np.ndarray:
    """Packed field vector with dt = -2 tau, dx = 2 g^-1 xi, dtau = 0."""
    out = np.empty(len(COLUMNS))
    out[T] = -2.0 * s.tau
    out[X] = s.dx
    out[TAU] = 0.0
    out[XI] = dxi
    return out


def p_eval(scenario, rho) -> float:
    """p(rho) = -tau^2 + |xi|^2_x."""
    s = _state(scenario, rho)
    _require_in_domain(scenario, s.x)
    return s.p


def hamiltonian_field(scenario, rho) -> np.ndarray:
    """H_p at rho as a packed vector: dt = -2 tau, dx = 2 g^-1 xi, dtau = 0, dxi from dg."""
    s = _state(scenario, rho)
    _require_in_domain(scenario, s.x)
    return _field(s, s.dxi)


def hpz(scenario, rho) -> float:
    """Derivative of phi along H_p: <dphi, 2 xi^sharp>."""
    s = _state(scenario, rho)
    _require_in_domain(scenario, s.x)
    return s.hpz


def hz2p(scenario, x) -> float:
    """Transversality coefficient 2 g*(dphi, dphi) at x."""
    return _State(scenario, np.asarray(x, dtype=float)).hz2p


def alpha(scenario, x) -> float:
    """Normal normalization alpha(x) = (2 hz2p)^{-1/2}, the paper's factor in
    the gliding arc density, which transport_residual computes on rows."""
    return _State(scenario, np.asarray(x, dtype=float)).alpha


def hp2z(scenario, rho) -> float:
    """Second derivative of phi along H_p (H_p applied to hpz)."""
    s = _state(scenario, rho)
    _require_in_domain(scenario, s.x)
    return s.hp2z


def field_values(gi, dg, tau, xi1, xi2):
    """H_p at (tau, xi) as its six packed components (dt, dx1, dx2, dtau,
    dxi1, dxi2), with +, - and * alone, so Python floats and numpy rows give
    the same bits.

    gi and dg are as contact_values reads them, a metric's reading at x
    (MetricEval.at). With s = g^-1 xi: dt = -2 tau, dx = 2 s, dtau = 0 and
    dxi_k = s^T (dg/dx_k) s, which is -dg^-1_k(xi, xi) without forming
    dg^-1; dxi is 0 under a constant metric (dg None).
    """
    gi11, gi12, gi22 = gi
    s1 = gi11 * xi1 + gi12 * xi2
    s2 = gi12 * xi1 + gi22 * xi2
    if dg is None:
        dxi1 = dxi2 = 0.0
    else:
        a11, a12, a22, b11, b12, b22 = dg
        dxi1 = s1 * (a11 * s1 + a12 * s2) + s2 * (a12 * s1 + a22 * s2)
        dxi2 = s1 * (b11 * s1 + b12 * s2) + s2 * (b12 * s1 + b22 * s2)
    return -2.0 * tau, 2.0 * s1, 2.0 * s2, 0.0, dxi1, dxi2


def contact_values(derivs, gi, dg, tau, xi1, xi2):
    """(p, hpz, hp2z) at a contact, with +, - and * alone, so Python floats
    and numpy rows give the same bits.

    derivs are the boundary's five derivatives (d1, d2, d11, d12, d22) and
    gi the entries (gi11, gi12, gi22) of g^-1; dg is (d1 g11, d1 g12,
    d1 g22, d2 g11, d2 g12, d2 g22), a metric's entries past the third, or
    None under a constant metric. With s = g^-1 xi and w = g^-1 dphi:
    p = -tau^2 + xi.s, hpz = 2 dphi.s and
    hp2z = 4 s^T (d2 phi) s - 4 sum_k s_k (w^T dg_k s) + 2 sum_k w_k (s^T dg_k s).
    """
    d1, d2, d11, d12, d22 = derivs
    gi11, gi12, gi22 = gi
    s1 = gi11 * xi1 + gi12 * xi2
    s2 = gi12 * xi1 + gi22 * xi2
    p = -(tau * tau) + (xi1 * s1 + xi2 * s2)
    hpz = 2.0 * (d1 * s1 + d2 * s2)
    hp2z = 4.0 * (s1 * (d11 * s1 + d12 * s2) + s2 * (d12 * s1 + d22 * s2))
    if dg is None:
        return p, hpz, hp2z
    a11, a12, a22, b11, b12, b22 = dg
    w1 = gi11 * d1 + gi12 * d2
    w2 = gi12 * d1 + gi22 * d2
    as1, as2 = a11 * s1 + a12 * s2, a12 * s1 + a22 * s2  # dg_1 s
    bs1, bs2 = b11 * s1 + b12 * s2, b12 * s1 + b22 * s2  # dg_2 s
    hp2z = (
        hp2z
        - 4.0 * (s1 * (w1 * as1 + w2 * as2) + s2 * (w1 * bs1 + w2 * bs2))
        + 2.0 * (w1 * (s1 * as1 + s2 * as2) + w2 * (s1 * bs1 + s2 * bs2))
    )
    return p, hpz, hp2z


def contact_tag(th: ClassifyThresholds, p: float, hpz: float, hp2z: float) -> Tag | None:
    """The tag of a characteristic boundary contact from its (p, hpz, hp2z),
    or None off the characteristic set (|p| > char_tol), where the tag needs
    the elliptic test of classify_boundary_point."""
    if abs(p) > th.char_tol:
        return None
    if hpz > th.eps_g:
        return Tag.HYPERBOLIC_IN
    if hpz < -th.eps_g:
        return Tag.HYPERBOLIC_OUT
    if hp2z > th.eps_g2:
        return Tag.DIFFRACTIVE
    if hp2z < -th.eps_g2:
        return Tag.GLIDING
    return Tag.GLANCING3


def classify_boundary_point(scenario, rho) -> BoundaryClass:
    """Partition a boundary contact into the hyperbolic/glancing/elliptic cases."""
    th = scenario.thresholds
    s = _state(scenario, rho)
    phi = scenario.boundary.phi(s.x)
    if abs(phi) > th.boundary_tol:
        raise NotOnBoundary(f"|phi| = {abs(phi):.3e} > boundary tolerance {th.boundary_tol:.0e}")
    _require_in_domain(scenario, s.x)
    p = s.p
    v_hpz = s.hpz
    v_hp2z = s.hp2z
    tag = contact_tag(th, p, v_hpz, v_hp2z)
    if tag is None:
        p_par = p_eval(scenario, project_parallel(scenario, rho))
        if p_par > th.char_tol:
            return BoundaryClass(tag=Tag.ELLIPTIC_TANGENTIAL, hpz=v_hpz, hp2z=v_hp2z, p=p)
        raise NotCharacteristic(
            f"p = {p:.3e} off the characteristic set and projection not elliptic"
        )
    return BoundaryClass(tag=tag, hpz=v_hpz, hp2z=v_hp2z, p=p)


def project_parallel(scenario, rho):
    """Tangential part of xi: remove the conormal component."""
    s = _state(scenario, rho)
    n, n_star = unit_conormal(scenario, s.x, scenario.band)
    c = float(s.xi @ n)  # g*(xi, n_star) = <xi, n_star^sharp>
    return _with_xi(rho, s.xi - c * n_star)


def sigma(scenario, rho):
    """Isometric reflection of xi across the boundary-tangential hyperplane."""
    s = _state(scenario, rho)
    n, n_star = unit_conormal(scenario, s.x, scenario.band)
    c = float(s.xi @ n)
    return _with_xi(rho, s.xi - 2.0 * c * n_star)


def hyperbolic_lifts(scenario, rho_par):
    """The two characteristic points above a tangential point with p <= 0.

    Returned as (outgoing, incoming): the first has hpz < 0, the second
    hpz > 0, matching the (rho_minus, rho_plus) order of break records.
    This is the paper's rho-/rho+ lift map, the reference the break atoms
    of a boundary measure are checked against.
    """
    th = scenario.thresholds
    s = _state(scenario, rho_par)
    n, n_star = unit_conormal(scenario, s.x, scenario.band)
    scale = max(1.0, float(np.linalg.norm(s.xi)))
    if abs(hpz(scenario, rho_par)) > 1e-6 * scale:
        raise ValueError("hyperbolic_lifts expects a tangential point (hpz ~ 0)")
    p = p_eval(scenario, rho_par)
    if p > th.char_tol:
        raise EllipticPoint(f"p(rho_par) = {p:.3e} > 0: no characteristic lifts")
    lam = float(np.sqrt(max(0.0, -p)))
    return _with_xi(rho_par, s.xi - lam * n_star), _with_xi(rho_par, s.xi + lam * n_star)


def gliding_field(scenario, rho) -> np.ndarray:
    """Extended gliding field as a packed vector: H_p corrected along the fiber direction of phi.

    Tangent to {phi = 0, hpz = 0} where those constraints hold, and its phi
    derivative coincides with hpz everywhere in the extension band.
    """
    s = _state(scenario, rho)
    if abs(scenario.boundary.phi(s.x)) > scenario.band:
        raise NotOnBoundary("gliding field is only defined inside the extension band")
    v_hz2p = s.hz2p
    if v_hz2p < 1e-8:
        raise DegenerateTransversal(f"hz2p = {v_hz2p:.3e} too small at x = {s.x}")
    _require_in_domain(scenario, s.x)
    # H_p applied to hz2p, from the gradient of hz2p in x
    grad_hz2p = 4.0 * s.d2phi @ (s.gi @ s.dphi)
    if not s.metric.is_constant:
        grad_hz2p = grad_hz2p + 2.0 * np.einsum("kij,i,j->k", s.dgi, s.dphi, s.dphi)
    hp_hz2p = float(grad_hz2p @ s.dx)
    coef = s.hp2z / v_hz2p - (hp_hz2p / v_hz2p**2) * s.hpz
    return _field(s, s.dxi - coef * s.dphi)
