"""Wave symbol, Hamiltonian and gliding fields, boundary classification.

The symbol is p(rho) = -tau^2 + g*_x(xi, xi). All boundary-adapted
quantities are expressed through the boundary defining function phi:
``hpz`` is the derivative of phi along the Hamiltonian field, ``hp2z`` its
second derivative, ``hz2p`` the transversality coefficient 2 g*(dphi, dphi).
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
    def from_vector(y: np.ndarray, dim: int) -> "PhasePoint":
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


@dataclass
class TangentUpdate:
    """Value of a vector field on phase space at one point."""

    dt: float
    dx: np.ndarray
    dtau: float
    dxi: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.dt], self.dx, [self.dtau], self.dxi])


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
    chart check is made here; the public functions make theirs.

    A factor 2 is applied to a scalar rather than to a vector where the
    result is the same: scaling by a power of two is exact in floating
    point, short of overflow and subnormals.
    """

    def __init__(self, scenario, x, tau: float = 0.0, xi=None):
        self.metric = scenario.metric
        self.boundary = scenario.boundary
        self.x = x
        self.tau = tau
        self.xi = xi

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


def _state(scenario, rho: PhasePoint) -> _State:
    return _State(scenario, rho.x, rho.tau, rho.xi)


def p_eval(scenario, rho: PhasePoint) -> float:
    """p(rho) = -tau^2 + |xi|^2_x."""
    _require_in_domain(scenario, rho.x)
    return _state(scenario, rho).p


def hamiltonian_field(scenario, rho: PhasePoint) -> TangentUpdate:
    """H_p at rho: dt = -2 tau, dx = 2 g^-1 xi, dtau = 0, dxi from dg."""
    _require_in_domain(scenario, rho.x)
    s = _state(scenario, rho)
    return TangentUpdate(dt=-2.0 * rho.tau, dx=s.dx, dtau=0.0, dxi=s.dxi)


def hpz(scenario, rho: PhasePoint) -> float:
    """Derivative of phi along H_p: <dphi, 2 xi^sharp>."""
    _require_in_domain(scenario, rho.x)
    return _state(scenario, rho).hpz


def hz2p(scenario, x) -> float:
    """Transversality coefficient 2 g*(dphi, dphi) at x."""
    return _State(scenario, np.asarray(x, dtype=float)).hz2p


def alpha(scenario, x) -> float:
    """Normal normalization alpha(x) = (2 hz2p)^{-1/2}."""
    return _State(scenario, np.asarray(x, dtype=float)).alpha


def hp2z(scenario, rho: PhasePoint) -> float:
    """Second derivative of phi along H_p (H_p applied to hpz)."""
    _require_in_domain(scenario, rho.x)
    return _state(scenario, rho).hp2z


def classify_boundary_point(scenario, rho: PhasePoint, thresholds: ClassifyThresholds | None = None) -> BoundaryClass:
    """Partition a boundary contact into the hyperbolic/glancing/elliptic cases."""
    th = thresholds or scenario.thresholds
    phi = scenario.boundary.phi(rho.x)
    if abs(phi) > th.boundary_tol:
        raise NotOnBoundary(f"|phi| = {abs(phi):.3e} > boundary tolerance {th.boundary_tol:.0e}")
    _require_in_domain(scenario, rho.x)
    s = _state(scenario, rho)
    p = s.p
    v_hpz = s.hpz
    v_hp2z = s.hp2z
    if abs(p) > th.char_tol:
        p_par = p_eval(scenario, project_parallel(scenario, rho))
        if p_par > th.char_tol:
            return BoundaryClass(tag=Tag.ELLIPTIC_TANGENTIAL, hpz=v_hpz, hp2z=v_hp2z, p=p)
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
    return BoundaryClass(tag=tag, hpz=v_hpz, hp2z=v_hp2z, p=p)


def project_parallel(scenario, rho: PhasePoint) -> PhasePoint:
    """Tangential part of xi: remove the conormal component."""
    n, n_star = unit_conormal(scenario, rho.x, scenario.band)
    c = float(rho.xi @ n)  # g*(xi, n_star) = <xi, n_star^sharp>
    return PhasePoint(t=rho.t, x=rho.x, tau=rho.tau, xi=rho.xi - c * n_star)


def sigma(scenario, rho: PhasePoint) -> PhasePoint:
    """Isometric reflection of xi across the boundary-tangential hyperplane."""
    n, n_star = unit_conormal(scenario, rho.x, scenario.band)
    c = float(rho.xi @ n)
    return PhasePoint(t=rho.t, x=rho.x, tau=rho.tau, xi=rho.xi - 2.0 * c * n_star)


def hyperbolic_lifts(scenario, rho_par: PhasePoint) -> tuple[PhasePoint, PhasePoint]:
    """The two characteristic points above a tangential point with p <= 0.

    Returned as (outgoing, incoming): the first has hpz < 0, the second
    hpz > 0, matching the (rho_minus, rho_plus) order of break records.
    """
    th = scenario.thresholds
    n, n_star = unit_conormal(scenario, rho_par.x, scenario.band)
    scale = max(1.0, float(np.linalg.norm(rho_par.xi)))
    if abs(hpz(scenario, rho_par)) > 1e-6 * scale:
        raise ValueError("hyperbolic_lifts expects a tangential point (hpz ~ 0)")
    p = p_eval(scenario, rho_par)
    if p > th.char_tol:
        raise EllipticPoint(f"p(rho_par) = {p:.3e} > 0: no characteristic lifts")
    lam = float(np.sqrt(max(0.0, -p)))
    minus = PhasePoint(t=rho_par.t, x=rho_par.x, tau=rho_par.tau, xi=rho_par.xi - lam * n_star)
    plus = PhasePoint(t=rho_par.t, x=rho_par.x, tau=rho_par.tau, xi=rho_par.xi + lam * n_star)
    return minus, plus


def gliding_field(scenario, rho: PhasePoint) -> TangentUpdate:
    """Extended gliding field: H_p corrected along the fiber direction of phi.

    Tangent to {phi = 0, hpz = 0} where those constraints hold, and its phi
    derivative coincides with hpz everywhere in the extension band.
    """
    if abs(scenario.boundary.phi(rho.x)) > scenario.band:
        raise NotOnBoundary("gliding field is only defined inside the extension band")
    s = _state(scenario, rho)
    v_hz2p = s.hz2p
    if v_hz2p < 1e-8:
        raise DegenerateTransversal(f"hz2p = {v_hz2p:.3e} too small at x = {rho.x}")
    _require_in_domain(scenario, rho.x)
    # H_p applied to hz2p, from the gradient of hz2p in x
    grad_hz2p = 4.0 * s.d2phi @ (s.gi @ s.dphi)
    if not s.metric.is_constant:
        grad_hz2p = grad_hz2p + 2.0 * np.einsum("kij,i,j->k", s.dgi, s.dphi, s.dphi)
    hp_hz2p = float(grad_hz2p @ s.dx)
    coef = s.hp2z / v_hz2p - (hp_hz2p / v_hz2p**2) * s.hpz
    return TangentUpdate(dt=-2.0 * rho.tau, dx=s.dx, dtau=0.0, dxi=s.dxi - coef * s.dphi)
