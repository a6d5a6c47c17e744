"""Measures carried by traced rays and the weak transport identity.

A curve measure pairs a traced ray with positive weights w(s); the induced
boundary measure collects one atom per reflection plus an arc density along
gliding pieces. transport_residual evaluates the weak-form budget

    <mu, H_p a - f a>  +  sum_atoms w (a(rho+) - a(rho-))
                       +  int_gliding (1/2)(-hp2z) w (d_theta a / alpha) ds

which telescopes to zero for compactly supported C^1 test functions, up to
quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flow
from . import geometry as geo
from . import symbol as sym
from .errors import EmptySupport, SupportLeak
from .symbol import PhasePoint, Tag

_ZERO_MASS_TAGS = (Tag.DIFFRACTIVE, Tag.GLANCING3)


# ---------------------------------------------------------------------------
# localization profiles


def _chi_arr(u: np.ndarray) -> np.ndarray:
    """Smooth one-sided cutoff: exp(1/(u-1)) below 1, identically 0 above."""
    out = np.zeros_like(u)
    m = u < 1.0
    out[m] = np.exp(1.0 / (u[m] - 1.0))
    return out


def _chi_prime_arr(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    m = u < 1.0
    out[m] = -np.exp(1.0 / (u[m] - 1.0)) / (u[m] - 1.0) ** 2
    return out


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported C^1 phase-space bump centered at a phase point.

    The main factor is chi of an ellipsoidal quadratic form in (t, x, xi);
    support is the open unit ellipsoid of those widths, unbounded in tau.
    An optional beta factor multiplies in a one-sided C^1 cutoff along a
    fixed packed-coordinate direction, giving the chi/beta products used in
    the transport tests.
    """

    center: PhasePoint
    width_t: float
    width_x: float
    width_xi: float
    beta_axis: np.ndarray | None = None
    beta_shift: float = 0.0
    beta_scale: float = 1.0

    def __post_init__(self):
        if min(self.width_t, self.width_x, self.width_xi) <= 0:
            raise ValueError("test function widths must be positive")
        if self.beta_axis is not None:
            object.__setattr__(
                self, "beta_axis", np.asarray(self.beta_axis, dtype=float)
            )

    def _quadratic(self, Y: np.ndarray):
        T, X, XI = sym.T, sym.X, sym.XI
        c = self.center.as_vector()
        D = Y - c[None, :]
        u = (D[:, T] / self.width_t) ** 2
        du = np.zeros_like(Y)
        du[:, T] = 2.0 * D[:, T] / self.width_t**2
        u = u + np.einsum("ij,ij->i", D[:, X], D[:, X]) / self.width_x**2
        du[:, X] = 2.0 * D[:, X] / self.width_x**2
        u = u + np.einsum("ij,ij->i", D[:, XI], D[:, XI]) / self.width_xi**2
        du[:, XI] = 2.0 * D[:, XI] / self.width_xi**2
        return u, du

    def value_batch(self, Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        u, _ = self._quadratic(Y)
        a = _chi_arr(u)
        if self.beta_axis is not None:
            v = (Y @ self.beta_axis - self.center.as_vector() @ self.beta_axis
                 - self.beta_shift) / self.beta_scale
            a = a * geo.smoothstep(v)
        return a

    def gradient_batch(self, Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        u, du = self._quadratic(Y)
        chi_v = _chi_arr(u)
        g = _chi_prime_arr(u)[:, None] * du
        if self.beta_axis is not None:
            v = (Y @ self.beta_axis - self.center.as_vector() @ self.beta_axis
                 - self.beta_shift) / self.beta_scale
            b = geo.smoothstep(v)
            bp = geo.smoothstep_prime(v) / self.beta_scale
            g = g * b[:, None] + (chi_v * bp)[:, None] * self.beta_axis[None, :]
        return g

    def value(self, rho: PhasePoint) -> float:
        return float(self.value_batch(rho.as_vector()[None, :])[0])

    def gradient(self, rho: PhasePoint) -> np.ndarray:
        return self.gradient_batch(rho.as_vector()[None, :])[0]


# ---------------------------------------------------------------------------
# curve measures


@dataclass
class CurveMeasure:
    """Weighted line measure along a traced ray; immutable after build."""

    carrier: flow.GenBicharacteristic
    w: np.ndarray
    s: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if np.any(self.w <= 0.0):
            raise ValueError("curve measure weights must be strictly positive")

    def weight_at(self, s_query: float) -> float:
        s = self.s
        if len(s) > 1 and s[-1] < s[0]:
            return float(np.interp(-s_query, -s, self.w))
        return float(np.interp(s_query, s, self.w))


def dirac_on_bichar(scenario, gb: flow.GenBicharacteristic, f=None) -> CurveMeasure:
    """Curve measure with the damping law w(s) = exp(-int_0^s f dsigma).

    f is evaluated as f(t, x) along the carrier samples and integrated by
    the trapezoid rule on the actual sample grid; f None or identically
    zero gives unit weights.
    """
    s, states, _, _ = gb.all_samples()
    if f is None:
        w = np.ones_like(s)
    else:
        vals = np.array([float(f(row[sym.T], row[sym.X])) for row in states])
        # scipy.integrate.cumulative_trapezoid(vals, s, initial=0.0), to the bit
        integral = np.concatenate(([0.0], np.cumsum(np.diff(s) * (vals[1:] + vals[:-1]) / 2.0)))
        w = np.exp(-integral)
    return CurveMeasure(carrier=gb, w=w, s=s, states=states)


# ---------------------------------------------------------------------------
# the boundary measure


@dataclass
class Atom:
    s: float
    rho_par: PhasePoint
    rho_minus: PhasePoint
    rho_plus: PhasePoint
    mass: float
    weight: float
    tag: Tag


@dataclass
class ArcSamples:
    """Arc-density samples of one gliding piece: density = (1/2)(-hp2z) w."""

    s: np.ndarray
    density: np.ndarray
    tags: list[Tag]
    states: np.ndarray


@dataclass
class BoundaryMeasure:
    atoms: list[Atom]
    arcs: list[ArcSamples]
    source_min_abs_tau: float

    @property
    def total_atom_mass(self) -> float:
        return float(sum(a.mass for a in self.atoms))


def boundary_measure_of(scenario, cm: CurveMeasure) -> BoundaryMeasure:
    """Boundary measure induced by a curve measure: atoms + gliding density.

    Each hyperbolic break contributes mass w(s) <xi+ - xi-, n> at its
    tangential base point; each gliding piece contributes the densities
    (1/2)(-hp2z) w at its samples, clamped at zero where curvature noise
    makes hp2z marginally positive.
    """
    gb = cm.carrier
    atoms: list[Atom] = []
    for br in gb.break_set:
        w_b = cm.weight_at(br.s)
        n, _ = geo.unit_normal(scenario, br.rho_minus.x)
        mass = w_b * float((br.rho_plus.xi - br.rho_minus.xi) @ n)
        if mass <= 0.0:
            raise ValueError(f"non-positive atom mass {mass:.3e} at s = {br.s:.6g}")
        bc = sym.classify_boundary_point(scenario, br.rho_minus)
        atoms.append(
            Atom(
                s=br.s,
                rho_par=sym.project_parallel(scenario, br.rho_minus),
                rho_minus=br.rho_minus,
                rho_plus=br.rho_plus,
                mass=mass,
                weight=w_b,
                tag=bc.tag,
            )
        )
    arcs: list[ArcSamples] = []
    offset = 0
    for piece in gb.pieces:
        n_p = len(piece)
        if piece.kind == flow.GLIDING:
            sl = slice(offset, offset + n_p)
            tags = []
            hp2z_vals = np.empty(n_p)
            for i in range(n_p):
                bc = sym.classify_boundary_point(scenario, piece.states[i])
                hp2z_vals[i] = bc.hp2z
                tags.append(bc.tag)
            density = 0.5 * np.maximum(-hp2z_vals, 0.0) * cm.w[sl]
            arcs.append(
                ArcSamples(
                    s=cm.s[sl].copy(),
                    density=density,
                    tags=tags,
                    states=cm.states[sl].copy(),
                )
            )
        offset += n_p
    return BoundaryMeasure(
        atoms=atoms,
        arcs=arcs,
        source_min_abs_tau=float(np.min(np.abs(cm.states[:, sym.TAU]))),
    )


# ---------------------------------------------------------------------------
# the weak transport identity


def _hamiltonian_directional(scenario, states: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """H_p a at each sample row, from the full packed gradient of a; under a
    non-constant metric through the interior RHS, one metric evaluation per row."""
    m = scenario.metric
    n = len(states)
    out = np.empty(n)
    if m.is_constant:
        gi = m.g_inv(np.zeros(2))
        dx = 2.0 * (states[:, sym.XI] @ gi)
        out = -2.0 * states[:, sym.TAU] * grads[:, sym.T] + np.einsum(
            "ij,ij->i", grads[:, sym.X], dx
        )
        return out
    rhs = flow._interior_rhs(scenario, 1.0)
    for i in range(n):
        out[i] = float(grads[i] @ rhs(states[i]))
    return out


def _sharp_rows(metric, X: np.ndarray, covectors: np.ndarray) -> np.ndarray:
    """g^-1 at each row of X applied to the covector on that row; one g_inv
    call under a constant metric, else one entries call per row, on floats."""
    if metric.is_constant:
        return covectors @ metric.g_inv(np.zeros(2)).T
    out = []
    for x, (c1, c2) in zip(X.tolist(), covectors.tolist()):
        gi11, gi12, gi22 = geo.inverse_2x2(metric.entries(x), x)
        out.append((gi11 * c1 + gi12 * c2, gi12 * c1 + gi22 * c2))
    return np.array(out, dtype=float).reshape(len(X), 2)


def transport_residual(scenario, cm: CurveMeasure, nu: BoundaryMeasure, a: TestFunction, f=None) -> float:
    """Absolute defect of the weak transport identity for the triple (mu, nu, a).

    Raises SupportLeak when a does not vanish at the carrier's endpoints,
    since the s-integration by parts then picks up uncontrolled boundary
    terms.
    """
    s, Y = cm.s, cm.states
    ends = a.value_batch(Y[[0, -1]])
    if abs(ends[0]) > 1e-12 or abs(ends[1]) > 1e-12:
        raise SupportLeak(
            "test function does not vanish at the trajectory endpoints; "
            "shrink its support or extend the trace"
        )
    avals = a.value_batch(Y)
    grads = a.gradient_batch(Y)
    hpa = _hamiltonian_directional(scenario, Y, grads)
    if f is None:
        fvals = np.zeros_like(s)
    else:
        fvals = np.array([float(f(row[sym.T], row[sym.X])) for row in Y])
    term_mu = float(np.trapezoid(cm.w * (hpa - fvals * avals), s))

    term_atoms = 0.0
    for atom in nu.atoms:
        term_atoms += atom.weight * (a.value(atom.rho_plus) - a.value(atom.rho_minus))

    term_glide = 0.0
    for arc in nu.arcs:
        if len(arc.s) < 2:
            continue
        # dza = <d_xi a, dphi>, hz2p = 2 g*(dphi, dphi), alpha = (2 hz2p)^(-1/2), per sample
        X = arc.states[:, sym.X]
        dphi = scenario.boundary.derivs_on_rows(X)[:2].T
        sharp = _sharp_rows(scenario.metric, X, dphi)
        hz2p = 2.0 * np.einsum("ij,ij->i", sharp, dphi)
        alpha = 1.0 / np.sqrt(2.0 * hz2p)
        dza = np.einsum("ij,ij->i", a.gradient_batch(arc.states)[:, sym.XI], dphi)
        term_glide += float(np.trapezoid(arc.density * (dza / hz2p) / alpha, arc.s))

    return abs(term_mu + term_atoms + term_glide)


# ---------------------------------------------------------------------------
# support and mass reports


@dataclass
class StepCheckReport:
    n_checked: int
    n_failures: int
    failures: list = field(default_factory=list)
    delta: float = 0.0
    eps: float = 0.0

    @property
    def ok(self) -> bool:
        return self.n_failures == 0


def support_samples(gb: flow.GenBicharacteristic, s_margin: float = 0.0):
    """Tagged (rho, tag) list from a trace, optionally dropping a tail window.

    Samples whose s lies within s_margin of the final s are excluded, so a
    delta-advance from any kept sample still lands inside the sampled set.
    """
    s, states, kinds, _ = gb.all_samples()
    if len(s) == 0:
        return []
    s_end = s[-1]
    out = []
    for i in range(len(s)):
        if s_margin > 0.0 and abs(s_end - s[i]) < s_margin:
            continue
        tag = Tag.GLIDING if kinds[i] == 1 else Tag.INTERIOR
        out.append((PhasePoint.from_vector(states[i]), tag))
    return out


def support_step_check(points, scenario, delta: float, eps: float, reference) -> StepCheckReport:
    """Flow-invariance probe for a discrete support sample.

    Advances every tagged point by delta along its field (H_p for interior
    tags, the gliding field for gliding tags) and verifies that some
    support point lies within compressed distance delta*eps of the target.
    Targets that overshoot the boundary are folded back to their
    compressed-space representative first, so pre-reflection points are
    checked against the reflected branch (the Sigma-image ball); reflection
    images of near-boundary support points count as support too.
    points and reference are (rho, tag) lists as support_samples makes
    them; pass the full sample set of a trace as reference and a
    tail-trimmed set as points, so every advanced target still has
    downstream data to land on.
    """
    if not points or not reference:
        raise EmptySupport("support sample set is empty")
    S = np.vstack([rho.as_vector() for rho, _ in reference])
    variants = flow._distance_variants(scenario, S)
    targets = np.empty((len(points), S.shape[1]))
    for i, (rho, tag) in enumerate(points):
        field_of = sym.gliding_field if tag is Tag.GLIDING else sym.hamiltonian_field
        adv = PhasePoint.from_vector(rho.as_vector() + delta * field_of(scenario, rho))
        targets[i] = flow.fold_into_domain(scenario, adv).as_vector()
    best = flow._min_distances(targets, variants)
    threshold = delta * eps
    failures = [
        {
            "index": i,
            "distance": float(b),
            "threshold": threshold,
            "tag": points[i][1].value,
        }
        for i, b in enumerate(best)
        if b > threshold
    ]
    return StepCheckReport(
        n_checked=len(points),
        n_failures=len(failures),
        failures=failures,
        delta=delta,
        eps=eps,
    )


@dataclass
class MassCheckReport:
    ok: bool
    n_atoms: int
    n_arc_samples: int
    offending: list
    min_tau_support: float
    source_min_abs_tau: float


def mass_check(nu: BoundaryMeasure, scenario) -> MassCheckReport:
    """Asserts the two support properties of the boundary measure.

    No positive mass may sit on Diffractive or Glancing3-tagged contacts,
    and |tau| over the support of nu may not drop below the carrier
    ensemble's minimum beyond roundoff.
    """
    offending = []
    taus = []
    for atom in nu.atoms:
        if atom.tag in _ZERO_MASS_TAGS and atom.mass > 1e-10:
            offending.append({"kind": "atom", "s": atom.s, "tag": atom.tag.value, "mass": atom.mass})
        taus.append(abs(atom.rho_par.tau))
    n_arc = 0
    for arc in nu.arcs:
        n_arc += len(arc.s)
        for i in range(len(arc.s)):
            if arc.tags[i] in _ZERO_MASS_TAGS and arc.density[i] > 1e-10:
                offending.append(
                    {
                        "kind": "arc",
                        "s": float(arc.s[i]),
                        "tag": arc.tags[i].value,
                        "density": float(arc.density[i]),
                    }
                )
            if arc.density[i] > 0.0:
                taus.append(abs(float(arc.states[i, sym.TAU])))
    min_tau = min(taus) if taus else float("inf")
    ok = not offending and (
        not taus or min_tau >= nu.source_min_abs_tau - 1e-9
    )
    return MassCheckReport(
        ok=ok,
        n_atoms=len(nu.atoms),
        n_arc_samples=n_arc,
        offending=offending,
        min_tau_support=min_tau,
        source_min_abs_tau=nu.source_min_abs_tau,
    )
