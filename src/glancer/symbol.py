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

Every function here computes on floats, from the metric's float reading
(MetricEval.at: g^-1 and dg), the boundary's derivs (five floats) and the
formulas of field_values (H_p) and contact_values (p, hpz, hp2z), written
with +, - and * in the order numpy takes without fused multiply-add. No
numpy product (@, dot, norm) enters: on 2-vectors those go to the BLAS
kernel the CPU selects, and round differently from one CPU to the next.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTransversal,
    EllipticPoint,
    NotCharacteristic,
    NotOnBoundary,
)
# in_domain stays importable from here: perfbench/tracer.py patches symbol.in_domain.
from .geometry import _require_in_domain, conorm_sq, in_domain, sharp, unit_conormal  # noqa: F401

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


def _coords(rho):
    """(x, tau, xi1, xi2) of rho, a PhasePoint or its packed row."""
    if isinstance(rho, PhasePoint):
        xi1, xi2 = rho.xi.tolist()
        return rho.x, rho.tau, xi1, xi2
    _, _, _, tau, xi1, xi2 = rho.tolist()
    return rho[X], tau, xi1, xi2


def _with_xi(rho, xi1, xi2):
    """rho with its covector replaced, in the form rho was given."""
    if isinstance(rho, PhasePoint):
        return PhasePoint(t=rho.t, x=rho.x, tau=rho.tau, xi=np.array((xi1, xi2)))
    out = np.array(rho, dtype=float)
    out[XI] = xi1, xi2
    return out


def _contact(scenario, x, tau, xi1, xi2):
    """(p, hpz, hp2z) at (x, tau, xi) after the chart check: contact_values
    on the metric's float reading and the boundary's derivs at x."""
    _require_in_domain(scenario, x)
    gi, dg = scenario.metric.at(x)
    return contact_values(scenario.boundary.derivs(x), gi, dg, tau, xi1, xi2)


def p_eval(scenario, rho) -> float:
    """p(rho) = -tau^2 + |xi|^2_x."""
    x, tau, xi1, xi2 = _coords(rho)
    _require_in_domain(scenario, x)
    return -(tau * tau) + conorm_sq(scenario, x, (xi1, xi2))


def hamiltonian_field(scenario, rho) -> np.ndarray:
    """H_p at rho as a packed vector: dt = -2 tau, dx = 2 g^-1 xi, dtau = 0, dxi from dg."""
    x, tau, xi1, xi2 = _coords(rho)
    _require_in_domain(scenario, x)
    return np.array(field_values(*scenario.metric.at(x), tau, xi1, xi2))


def hpz(scenario, rho) -> float:
    """Derivative of phi along H_p: <dphi, 2 xi^sharp>."""
    return _contact(scenario, *_coords(rho))[1]


def hz2p(scenario, x) -> float:
    """Transversality coefficient 2 g*(dphi, dphi) at x: the hpz of
    contact_values at xi = dphi."""
    x = np.asarray(x, dtype=float)
    d = scenario.boundary.derivs(x)
    return contact_values(d, scenario.metric.at(x)[0], None, 0.0, d[0], d[1])[1]


def alpha(scenario, x) -> float:
    """Normal normalization alpha(x) = (2 hz2p)^{-1/2}, the paper's factor in
    the gliding arc density, which transport_residual computes on rows."""
    return float(1.0 / np.sqrt(2.0 * hz2p(scenario, x)))


def hp2z(scenario, rho) -> float:
    """Second derivative of phi along H_p (H_p applied to hpz)."""
    return _contact(scenario, *_coords(rho))[2]


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
    x, tau, xi1, xi2 = _coords(rho)
    phi = scenario.boundary.phi(x)
    if abs(phi) > th.boundary_tol:
        raise NotOnBoundary(f"|phi| = {abs(phi):.3e} > boundary tolerance {th.boundary_tol:.0e}")
    p, v_hpz, v_hp2z = _contact(scenario, x, tau, xi1, xi2)
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
    x, _, xi1, xi2 = _coords(rho)
    (n1, n2), (ns1, ns2) = unit_conormal(scenario, x, scenario.band)
    c = xi1 * n1 + xi2 * n2  # g*(xi, n_star) = <xi, n_star^sharp>
    return _with_xi(rho, xi1 - c * ns1, xi2 - c * ns2)


def sigma(scenario, rho):
    """Isometric reflection of xi across the boundary-tangential hyperplane."""
    x, _, xi1, xi2 = _coords(rho)
    (n1, n2), (ns1, ns2) = unit_conormal(scenario, x, scenario.band)
    c2 = 2.0 * (xi1 * n1 + xi2 * n2)
    return _with_xi(rho, xi1 - c2 * ns1, xi2 - c2 * ns2)


def hyperbolic_lifts(scenario, rho_par):
    """The two characteristic points above a tangential point with p <= 0.

    Returned as (outgoing, incoming): the first has hpz < 0, the second
    hpz > 0, matching the (rho_minus, rho_plus) order of break records.
    This is the paper's rho-/rho+ lift map, the reference the break atoms
    of a boundary measure are checked against.
    """
    th = scenario.thresholds
    x, tau, xi1, xi2 = _coords(rho_par)
    _, (ns1, ns2) = unit_conormal(scenario, x, scenario.band)
    scale = max(1.0, math.sqrt(xi1 * xi1 + xi2 * xi2))
    p, v_hpz, _ = _contact(scenario, x, tau, xi1, xi2)
    if abs(v_hpz) > 1e-6 * scale:
        raise ValueError("hyperbolic_lifts expects a tangential point (hpz ~ 0)")
    if p > th.char_tol:
        raise EllipticPoint(f"p(rho_par) = {p:.3e} > 0: no characteristic lifts")
    lam = math.sqrt(max(0.0, -p))
    return (
        _with_xi(rho_par, xi1 - lam * ns1, xi2 - lam * ns2),
        _with_xi(rho_par, xi1 + lam * ns1, xi2 + lam * ns2),
    )


def gliding_field(scenario, rho) -> np.ndarray:
    """Extended gliding field as a packed vector: H_p corrected along the fiber direction of phi.

    Tangent to {phi = 0, hpz = 0} where those constraints hold, and its phi
    derivative coincides with hpz everywhere in the extension band. On
    floats: H_p from field_values, hpz and hp2z from contact_values, and
    H_p hz2p from the gradient of hz2p, 4 d2phi w - 2 (w^T dg_k w)_k with
    w = g^-1 dphi.
    """
    x, tau, xi1, xi2 = _coords(rho)
    if abs(scenario.boundary.phi(x)) > scenario.band:
        raise NotOnBoundary("gliding field is only defined inside the extension band")
    gi, dg = scenario.metric.at(x)
    d = d1, d2, d11, d12, d22 = scenario.boundary.derivs(x)
    w1, w2 = sharp(gi, d1, d2)
    v_hz2p = 2.0 * (d1 * w1 + d2 * w2)
    if v_hz2p < 1e-8:
        raise DegenerateTransversal(f"hz2p = {v_hz2p:.3e} too small at x = {x}")
    _require_in_domain(scenario, x)
    _, v_hpz, v_hp2z = contact_values(d, gi, dg, tau, xi1, xi2)
    dt, dx1, dx2, dtau, dxi1, dxi2 = field_values(gi, dg, tau, xi1, xi2)
    grad1 = 4.0 * (d11 * w1 + d12 * w2)
    grad2 = 4.0 * (d12 * w1 + d22 * w2)
    if dg is not None:
        a11, a12, a22, b11, b12, b22 = dg
        grad1 = grad1 - 2.0 * (w1 * (a11 * w1 + a12 * w2) + w2 * (a12 * w1 + a22 * w2))
        grad2 = grad2 - 2.0 * (w1 * (b11 * w1 + b12 * w2) + w2 * (b12 * w1 + b22 * w2))
    hp_hz2p = grad1 * dx1 + grad2 * dx2
    coef = v_hp2z / v_hz2p - (hp_hz2p / v_hz2p**2) * v_hpz
    return np.array((dt, dx1, dx2, dtau, dxi1 - coef * d1, dxi2 - coef * d2))
