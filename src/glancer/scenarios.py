"""Scenario construction: built-in domains, config files, derived charts.

A scenario bundles the metric evaluator, the boundary defining function, the
domain box, an optional potential f(t, x), classification thresholds, and the
extension-band half width. Scenarios are read-only after construction and are
rebuilt from their resolved config dict when shipped to worker processes.

Expression slots compile through ``glancer.jet`` at load: an expression
wall's ``derivs`` and ``derivs_rows`` and an expression metric's ``entries``
are jet kernels themselves.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import jsonschema

from . import jet
from .errors import StepFailure, ValidationError
from .geometry import (
    BoundaryDef,
    Chart,
    MetricEval,
    constant_metric,
    diagonal_metric,
    identity_metric,
    inverse_2x2,
    newton_to_boundary,
    widened_box,
)
from .symbol import ClassifyThresholds

log = logging.getLogger("glancer.scenarios")

BUILTIN_NAMES = ("half_plane", "strip", "disk_interior", "disk_exterior", "annulus")


def _pair(item: dict) -> dict:
    return {"type": "array", "items": item, "minItems": 2, "maxItems": 2}


def _required_for(kind: str, key: str) -> dict:
    return {"if": {"properties": {"kind": {"const": kind}}}, "then": {"required": [key]}}


_NUMBER = {"type": "number"}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["schema"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": 1},
        "name": {"type": "string"},
        "builtin": {"enum": list(BUILTIN_NAMES)},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "height": {"type": "number", "exclusiveMinimum": 0},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "r0": {"type": "number", "exclusiveMinimum": 0},
                "r1": {"type": "number", "exclusiveMinimum": 0},
                "box_half_width": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "metric": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["identity", "diagonal", "constant", "expression"]},
                "entries": _pair(_NUMBER),
                "matrix": _pair(_pair(_NUMBER)),
                "expressions": _pair(_pair({"type": ["string", "number"]})),
            },
            "allOf": [
                _required_for("diagonal", "entries"),
                _required_for("constant", "matrix"),
                _required_for("expression", "expressions"),
            ],
        },
        "boundary": {
            "type": "object",
            "required": ["kind", "phi"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["expression"]},
                "phi": {"type": "string"},
                "box": _pair(_pair(_NUMBER)),
            },
        },
        "potential": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["zero", "constant", "expression"]},
                "value": {"type": "number"},
                "expr": {"type": "string"},
            },
            **_required_for("expression", "expr"),
        },
        "band": {"type": "number", "exclusiveMinimum": 0},
        "thresholds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "eps_g": {"type": "number"},
                "eps_g2": {"type": "number"},
                "char_tol": {"type": "number"},
                "boundary_tol": {"type": "number"},
            },
        },
    },
}

# Built once: jsonschema.validate re-checks the schema against its metaschema
# on every call, which costs more than the validation itself.
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

@dataclass
class Scenario:
    dim = 2  # every scenario is 2-D
    name: str
    metric: MetricEval
    boundary: BoundaryDef
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    f: Callable[[float, np.ndarray], float] | None = None
    band: float = 0.1
    thresholds: ClassifyThresholds = field(default_factory=ClassifyThresholds)
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.domain_lo = np.asarray(self.domain_lo, dtype=float)
        self.domain_hi = np.asarray(self.domain_hi, dtype=float)
        self.box = widened_box(self.domain_lo, self.domain_hi)

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def potential(self, t: float, x: np.ndarray) -> float:
        if self.f is None:
            return 0.0
        return float(self.f(t, x))


# ---------------------------------------------------------------------------
# built-in boundaries


def _half_plane_boundary() -> BoundaryDef:
    def derivs_rows(X):
        out = np.zeros((5, len(X)))
        out[1] = 1.0
        return out

    return BoundaryDef(
        phi=lambda x: float(x[1]),
        derivs=lambda x: (0.0, 1.0, 0.0, 0.0, 0.0),
        phi_rows=lambda X: X[:, 1].astype(float),
        derivs_rows=derivs_rows,
    )


def _strip_boundary(height: float) -> BoundaryDef:
    def derivs_rows(X):
        out = np.zeros((5, len(X)))
        out[1] = (height - 2.0 * X[:, 1]) / height
        out[4] = -2.0 / height
        return out

    return BoundaryDef(
        phi=lambda x: float(x[1] * (height - x[1]) / height),
        derivs=lambda x: (0.0, (height - 2.0 * x[1]) / height, 0.0, 0.0, -2.0 / height),
        phi_rows=lambda X: X[:, 1] * (height - X[:, 1]) / height,
        derivs_rows=derivs_rows,
    )


def _radius(x1, x2):
    """|x| as sqrt(x1 x1 + x2 x2): products, a sum and a correctly rounded root,
    so floats and rows give the same bits, and no C library hypot."""
    return math.sqrt(x1 * x1 + x2 * x2)


def _radius_rows(X):
    """_radius of every row of X."""
    X1, X2 = X[:, 0], X[:, 1]
    return np.sqrt(X1 * X1 + X2 * X2)


def _radial_derivs(x1: float, x2: float, r: float, c: float):
    """Gradient and Hessian of c |x| at x = (x1, x2) with r = |x|: c x / |x|
    and c (I - xhat xhat^T) / |x|, |x| clamped away from 0 at 1e-12 (a NaN r
    stays NaN). The floats' arithmetic is numpy's scalar arithmetic to the
    bit, only quicker."""
    if r < 1e-12:
        r = 1e-12
    u, v = x1 / r, x2 / r
    return c * u, c * v, c * (1.0 - u * u) / r, c * (0.0 - u * v) / r, c * (1.0 - v * v) / r


def _radial_derivs_rows(X, r, c):
    """_radial_derivs at every row of X with r = |x| per row, with the same
    arithmetic; c may be per row."""
    r = np.maximum(r, 1e-12)
    u, v = X[:, 0] / r, X[:, 1] / r
    return c * u, c * v, c * (1.0 - u * u) / r, c * (0.0 - u * v) / r, c * (1.0 - v * v) / r


def _disk_boundary(radius: float, interior: bool) -> BoundaryDef:
    sign = 1.0 if interior else -1.0
    c = -sign

    def derivs(x):
        x1, x2 = float(x[0]), float(x[1])
        return _radial_derivs(x1, x2, _radius(x1, x2), c)

    return BoundaryDef(
        phi=lambda x: sign * (radius - _radius(x[0], x[1])),
        derivs=derivs,
        phi_rows=lambda X: sign * (radius - _radius_rows(X)),
        derivs_rows=lambda X: _radial_derivs_rows(X, _radius_rows(X), c),
    )


def _annulus_boundary(r0: float, r1: float) -> BoundaryDef:
    def phi(x):
        r = _radius(x[0], x[1])
        return min(r - r0, r1 - r)

    def derivs(x):
        """The inner wall's branch of phi where (r - r0) <= (r1 - r), else the outer's."""
        x1, x2 = float(x[0]), float(x[1])
        r = _radius(x1, x2)
        return _radial_derivs(x1, x2, r, 1.0 if (r - r0) <= (r1 - r) else -1.0)

    def phi_rows(X):
        r = _radius_rows(X)
        return np.minimum(r - r0, r1 - r)

    def derivs_rows(X):
        r = _radius_rows(X)
        return _radial_derivs_rows(X, r, np.where((r - r0) <= (r1 - r), 1.0, -1.0))

    return BoundaryDef(phi=phi, derivs=derivs, phi_rows=phi_rows, derivs_rows=derivs_rows)


def _expression_boundary(phi_expr: str) -> BoundaryDef:
    """phi through jet.function; derivs and derivs_rows are the point and
    row jet kernels of phi's fields (d1, d2, d11, d12, d22)."""
    fn = jet.function(phi_expr, ("x1", "x2"))
    fields = ("d1", "d2", "d11", "d12", "d22")

    def phi(x):
        # numpy scalars at any point form: on Python floats 1/0 would raise
        # and a negative base to a fractional power would turn complex
        return float(fn(np.float64(x[0]), np.float64(x[1])))

    def phi_rows(X):
        return np.broadcast_to(np.asarray(fn(X[:, 0], X[:, 1]), dtype=float), X.shape[:1])

    # numpy computes an array power by other routines than a scalar one
    # (x ** 2 as a square, x ** 0.5 as a root, the rest by a vector pow) and
    # the last bits differ, so an expression with a power of x1 or x2 keeps
    # the per-row loop for phi. The derivatives need not match derivs to the
    # bit.
    has_pow = jet.power_of_variables(phi_expr)
    return BoundaryDef(
        phi=phi,
        derivs=jet.kernel((phi_expr,), fields),
        phi_rows=None if has_pow else phi_rows,
        derivs_rows=jet.row_kernel((phi_expr,), fields),
    )


# ---------------------------------------------------------------------------
# metric and potential blocks


def _metric_from_block(block: dict, box) -> MetricEval:
    kind = block.get("kind", "identity")
    if kind == "identity":
        return identity_metric()
    try:
        if kind == "diagonal":
            return diagonal_metric(block["entries"])
        if kind == "constant":
            return constant_metric(block["matrix"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if kind == "expression":
        return _expression_metric(block, box)
    raise ValidationError(f"unknown metric kind {kind!r}")


def _expression_metric(block: dict, box) -> MetricEval:
    """Expression entries evaluated exactly: the entries of the metric are
    the jet kernel of g11, g12, g22 with fields (v, d1, d2), in which an
    entry in neither x1 nor x2 folds to literals."""
    exprs = block["expressions"]
    if "".join(str(exprs[0][1]).split()) != "".join(str(exprs[1][0]).split()):
        raise ValidationError(
            f"expression metric needs equal off-diagonal entries, got {exprs[0][1]!r} "
            f"and {exprs[1][0]!r}"
        )
    g11, g12, g22 = (str(exprs[i][j]) for i, j in ((0, 0), (0, 1), (1, 1)))
    entries = jet.kernel((g11, g12, g22), ("v", "d1", "d2"))
    lo, hi = box
    center = 0.5 * (np.asarray(lo) + np.asarray(hi))
    try:
        inverse_2x2(entries(center), center)
    except StepFailure as exc:
        raise ValidationError(
            "expression metric is not positive definite at the box center"
        ) from exc
    return MetricEval(entries)


def _potential_from_block(block: dict | None):
    if block is None or block.get("kind", "zero") == "zero":
        return None
    kind = block["kind"]
    if kind == "constant":
        c = float(block.get("value", 0.0))
        return lambda t, x: c
    if kind == "expression":
        fn = jet.function(block["expr"], ("t", "x1", "x2"))
        return lambda t, x: float(fn(t, x[0], x[1]))
    raise ValidationError(f"unknown potential kind {kind!r}")


# ---------------------------------------------------------------------------
# assembly and validation


_BUILTIN_DEFAULT_PARAMS = {
    "half_plane": {"box_half_width": 12.0},
    "strip": {"height": 1.0, "box_half_width": 12.0},
    "disk_interior": {"radius": 1.0},
    "disk_exterior": {"radius": 1.0, "box_half_width": 4.0},
    "annulus": {"r0": 0.5, "r1": 1.0},
}


# Chart boxes extend a collar beyond the physical boundary: the two-sided
# reflection band lives there, and boundary-following integrators take
# intermediate stage evaluations slightly outside the closed domain.
_BOX_COLLAR = 0.25


def _builtin_geometry(builtin: str, params: dict):
    p = dict(_BUILTIN_DEFAULT_PARAMS[builtin])
    p.update(params or {})
    w = p.get("box_half_width", 0.0)
    c = _BOX_COLLAR
    if builtin == "half_plane":
        return _half_plane_boundary(), (np.array([-w, -c]), np.array([w, w]))
    if builtin == "strip":
        h = p["height"]
        return _strip_boundary(h), (np.array([-w, -c]), np.array([w, h + c]))
    if builtin == "disk_interior":
        a = p["radius"] + c
        return _disk_boundary(p["radius"], interior=True), (np.array([-a, -a]), np.array([a, a]))
    if builtin == "disk_exterior":
        a = p["radius"]
        return _disk_boundary(a, interior=False), (np.array([-w, -w]), np.array([w, w]))
    if builtin == "annulus":
        r0, r1 = p["r0"], p["r1"]
        if r0 >= r1:
            raise ValidationError("annulus requires r0 < r1")
        a = r1 + c
        return _annulus_boundary(r0, r1), (np.array([-a, -a]), np.array([a, a]))
    raise ValidationError(f"unknown builtin {builtin!r}")


def _reject_corners(boundary: BoundaryDef, lo, hi) -> None:
    """Reject boundary definitions whose zero set has degenerate points.

    Every point of a 41 x 41 grid over the box is pushed toward the zero set
    by at most 3 Newton steps, all points as one batch. A point that lands
    on the boundary (|phi| <= 1e-10) with a vanishing gradient
    (|dphi|^2 < 1e-16) means a corner or crossing, which the tracer cannot
    handle. Interior critical points of phi (gradient zero but phi away
    from zero) are fine and skipped.
    """
    grid = np.meshgrid(np.linspace(lo[0], hi[0], 41), np.linspace(lo[1], hi[1], 41), indexing="ij")
    # a longer step diverges rather than converging to a boundary point
    w1, w2 = (hi - lo).tolist()
    max_step = 2.0 * math.sqrt(w1 * w1 + w2 * w2)
    # grid points where phi or its steps overflow or leave phi's domain
    # (log of a negative number, say) come out NaN or infinite, not corners
    with np.errstate(all="ignore"):
        X, v, d = newton_to_boundary(
            boundary, np.column_stack([g.ravel() for g in grid]), 3, 1e-10, max_step
        )
    bad = (np.abs(v) <= 1e-10) & (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < 1e-16)
    if bad.any():
        raise ValidationError(
            f"dphi vanishes on the boundary near {X[np.argmax(bad)]}; "
            "corners and crossings are not supported"
        )


def resolve_config(config: dict) -> dict:
    """Validate against the schema and fill defaults; returns the resolved dict."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if error is not None:
        raise ValidationError(f"scenario config invalid: {error.message}") from error
    if "builtin" not in config and "boundary" not in config:
        raise ValidationError("scenario config needs either 'builtin' or a 'boundary' block")
    resolved = {
        "schema": 1,
        "builtin": config.get("builtin"),
        "name": config.get("name") or config.get("builtin") or "custom",
        "params": dict(config.get("params", {})),
        "metric": dict(config.get("metric", {"kind": "identity"})),
        "boundary": dict(config.get("boundary", {})) or None,
        "potential": dict(config.get("potential", {})) or None,
        "band": float(config.get("band", 0.1)),
        "thresholds": dict(config.get("thresholds", {})),
    }
    if resolved["builtin"] is not None:
        defaults = dict(_BUILTIN_DEFAULT_PARAMS[resolved["builtin"]])
        defaults.update(resolved["params"])
        resolved["params"] = defaults
    # Absent optional blocks are dropped, not stored as None, so the resolved
    # dict itself revalidates (resolve is idempotent; workers rebuild from it).
    return {k: v for k, v in resolved.items() if v is not None}


def from_config(config: dict) -> Scenario:
    resolved = resolve_config(config)
    if resolved.get("builtin") is not None:
        boundary, (lo, hi) = _builtin_geometry(resolved["builtin"], resolved["params"])
    else:
        block = resolved["boundary"]
        box = block.get("box", [[-2.0, -2.0], [2.0, 2.0]])
        lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
        if not (lo < hi).all():
            raise ValidationError(f"boundary box {box} needs lo < hi in each coordinate")
        boundary = _expression_boundary(block["phi"])
        # Builtin defining functions have no critical point on their zero set.
        _reject_corners(boundary, lo, hi)
    metric = _metric_from_block(resolved["metric"], (lo, hi))
    thresholds = ClassifyThresholds(**resolved["thresholds"])
    return Scenario(
        name=resolved["name"],
        metric=metric,
        boundary=boundary,
        domain_lo=lo,
        domain_hi=hi,
        f=_potential_from_block(resolved.get("potential")),
        band=resolved["band"],
        thresholds=thresholds,
        config=resolved,
    )


def load_scenario(source: str | Path | dict) -> Scenario:
    """Accepts a built-in name, a JSON config path, or a config dict."""
    if isinstance(source, dict):
        return from_config(source)
    text = str(source)
    if text in BUILTIN_NAMES:
        return from_config({"schema": 1, "builtin": text})
    path = Path(text)
    if not path.exists():
        raise ValidationError(
            f"scenario {text!r} is neither a built-in name {BUILTIN_NAMES} nor a file"
        )
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return from_config(config)


def builtin(name: str, metric: dict | None = None, potential: dict | None = None, **params) -> Scenario:
    """Convenience constructor used widely in tests and scripts."""
    config: dict = {"schema": 1, "builtin": name}
    if metric:
        config["metric"] = metric
    if potential:
        config["potential"] = potential
    if params:
        config["params"] = params
    return from_config(config)


# ---------------------------------------------------------------------------
# derived scenario living in a chart


def chart_scenario(base: Scenario, chart: Chart) -> Scenario:
    """Pull the scenario back through a chart whose last coordinate is phi.

    The boundary in the derived scenario is the half-plane wall {z = 0},
    with dphi = e_2, so hz2p there equals twice the (2,2) entry of the
    pulled-back inverse metric. With (x, J, H) the chart's jet at y, the
    pulled-back metric is G = J^T g(x) J and its derivative along y_k is
    dG_k = H_k^T g J + J^T g H_k + J^T (sum_l dg_l(x) J_lk) J, where dg is
    the base metric's own derivative. One jet at y gives both: the metric's
    entries(y) (see MetricEval), with G and dG_k read above the diagonal.
    g alone, values(y), takes the order-1 jet, which costs less.
    """

    def entries(y):
        x, J, H = chart.jet(y, 2)
        gx = base.metric.g(x)
        HgJ = H.transpose(0, 2, 1) @ (gx @ J)
        dgJ = np.einsum("lij,lk->kij", base.metric.dg(x), J)
        (g11, g12), (_, g22) = (J.T @ gx @ J).tolist()
        d1, d2 = (HgJ + HgJ.transpose(0, 2, 1) + J.T @ dgJ @ J).tolist()
        return g11, g12, g22, d1[0][0], d1[0][1], d1[1][1], d2[0][0], d2[0][1], d2[1][1]

    def values(y):
        x, J, _ = chart.jet(y)
        (g11, g12), (_, g22) = (J.T @ base.metric.g(x) @ J).tolist()
        return g11, g12, g22

    metric = MetricEval(entries, values)
    f = None
    if base.f is not None:
        f = lambda t, y: base.potential(t, chart.to_scenario(y))
    return Scenario(
        name=chart.name,
        metric=metric,
        boundary=_half_plane_boundary(),
        domain_lo=chart.domain_lo,
        domain_hi=chart.domain_hi,
        f=f,
        band=min(base.band, float(chart.domain_hi[-1])),
        thresholds=base.thresholds,
        config={"derived_from": base.config, "chart": chart.name},
    )
