import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from glancer import scenarios as scen
from glancer import symbol as sym
from glancer.errors import ValidationError


def test_all_builtins_load():
    for name in scen.BUILTIN_NAMES:
        s = scen.load_scenario(name)
        assert s.dim == 2
        assert s.config_hash


def test_config_hash_is_stable_and_sensitive():
    a = scen.builtin("strip")
    b = scen.builtin("strip")
    c = scen.builtin("strip", height=2.0)
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash


def test_resolve_is_idempotent():
    cfg = {"schema": 1, "builtin": "disk_interior"}
    once = scen.resolve_config(cfg)
    twice = scen.resolve_config(once)
    assert once == twice


def test_from_config_roundtrip():
    s = scen.builtin("annulus")
    s2 = scen.from_config(s.config)
    assert s2.config_hash == s.config_hash
    assert np.allclose(s2.domain_lo, s.domain_lo)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema": 1, "builtin": "half_plane"}))
    s = scen.load_scenario(str(path))
    assert s.name == "half_plane"


def test_unknown_builtin_rejected():
    with pytest.raises(ValidationError):
        scen.load_scenario("klein_bottle")


def test_config_requires_geometry():
    with pytest.raises(ValidationError):
        scen.from_config({"schema": 1})


def test_expression_boundary_matches_builtin_disk():
    custom = scen.from_config(
        {
            "schema": 1,
            "name": "round",
            "boundary": {
                "kind": "expression",
                "phi": "1.0 - hypot(x1, x2)",
                "box": [[-1.25, -1.25], [1.25, 1.25]],
            },
        }
    )
    disk = scen.builtin("disk_interior")
    for th in np.linspace(0.0, 2 * np.pi, 7):
        x = 0.8 * np.array([np.cos(th), np.sin(th)])
        assert custom.boundary.phi(x) == pytest.approx(disk.boundary.phi(x), abs=1e-12)


def test_expression_boundary_rejects_unknown_names():
    with pytest.raises(ValidationError):
        scen.from_config(
            {"schema": 1, "boundary": {"kind": "expression", "phi": "x1 - secret"}}
        )


def test_corner_boundaries_rejected():
    # zero set of x1*x2 crosses itself at the origin with vanishing gradient
    with pytest.raises(ValidationError):
        scen.from_config(
            {
                "schema": 1,
                "boundary": {
                    "kind": "expression",
                    "phi": "x1 * x2",
                    "box": [[-1.0, -1.0], [1.0, 1.0]],
                },
            }
        )


def test_potential_blocks():
    flat = scen.builtin("half_plane")
    assert flat.f is None
    damped = scen.builtin("half_plane", potential={"kind": "constant", "value": 0.25})
    assert damped.f(0.0, np.zeros(2)) == 0.25
    varying = scen.builtin(
        "half_plane", potential={"kind": "expression", "expr": "t + x1 * x2"}
    )
    assert varying.f(2.0, np.array([3.0, 4.0])) == pytest.approx(14.0)


def test_constant_metric_block():
    s = scen.builtin("strip", metric={"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 1.0]]})
    assert s.metric.is_constant
    assert s.metric.g(np.zeros(2))[0, 0] == 2.0


def test_expression_metric_block_interpolates():
    s = scen.from_config(
        {
            "schema": 1,
            "builtin": "half_plane",
            "metric": {
                "kind": "expression",
                "expressions": [["1.0 + 0.25 * x2", "0.0"], ["0.0", "1.0 + 0.25 * x2"]],
            },
        }
    )
    assert not s.metric.is_constant
    g = s.metric.g(np.array([0.0, 2.0]))
    assert g[0, 0] == pytest.approx(1.5, abs=1e-6)


def test_chart_boxes_carry_a_collar():
    # builtin boxes extend past the physical boundary so that reflection
    # bookkeeping and boundary-following integrators can evaluate there
    hp = scen.builtin("half_plane")
    assert hp.domain_lo[1] < 0.0
    disk = scen.builtin("disk_interior")
    assert disk.domain_hi[0] > 1.0


def test_describe_mentions_hash():
    s = scen.builtin("strip")
    d = s.describe()
    assert d["scenario_hash"] == s.config_hash


def test_expression_metric_is_exact():
    s = scen.from_config(
        {
            "schema": 1,
            "builtin": "half_plane",
            "metric": {
                "kind": "expression",
                "expressions": [["2 + sin(x1)", "0.1 * x1 * x2"], ["0.1 * x1 * x2", "1 + x2 ** 2"]],
            },
        }
    )
    for a, b in [(0.3, 0.7), (-5.1, 2.2), (7.0, 11.5)]:
        x = np.array([a, b])
        g = np.array([[2 + np.sin(a), 0.1 * a * b], [0.1 * a * b, 1 + b * b]])
        dg = np.array(
            [
                [[np.cos(a), 0.1 * b], [0.1 * b, 0.0]],
                [[0.0, 0.1 * a], [0.1 * a, 2.0 * b]],
            ]
        )
        assert np.allclose(s.metric.g(x), g, rtol=1e-15, atol=0.0)
        assert np.allclose(s.metric.dg(x), dg, rtol=1e-15, atol=0.0)


def test_grid_n_is_rejected():
    config = {
        "schema": 1,
        "builtin": "half_plane",
        "metric": {"kind": "expression", "expressions": [["1", "0"], ["0", "1"]], "grid_n": 65},
    }
    with pytest.raises(ValidationError, match="grid_n"):
        scen.from_config(config)


@pytest.mark.parametrize(
    "config",
    [
        {"builtin": "strip"},
        {"schema": 2, "builtin": "strip"},
        {"schema": 1, "builtin": "strip", "params": {"height": -1.0}},
        {"schema": 1, "builtin": "strip", "band": "wide"},
        {"schema": 1, "boundary": {"phi": "x2"}, "extra": 1},
    ],
)
def test_validation_messages_match_jsonschema(config):
    jsonschema.validators.validator_for(scen.CONFIG_SCHEMA).check_schema(scen.CONFIG_SCHEMA)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(config, scen.CONFIG_SCHEMA)
    with pytest.raises(ValidationError) as got:
        scen.resolve_config(config)
    assert str(got.value) == f"scenario config invalid: {expected.value.message}"


@pytest.mark.parametrize(
    "name, params",
    [(name, {}) for name in scen.BUILTIN_NAMES]
    + [("strip", {"height": 0.3}), ("disk_exterior", {"radius": 2.5}), ("annulus", {"r0": 0.2, "r1": 1.7})],
)
def test_builtin_boundaries_have_no_corners(name, params):
    # from_config checks corners on expression boundaries only; builtins
    # must pass the same check for every valid parameter set
    s = scen.builtin(name, **params)
    scen._reject_corners(s.boundary, s.domain_lo, s.domain_hi)


def _disk_pair(interior):
    a = 1.25 if interior else 4.0
    phi = "1 - hypot(x1, x2)" if interior else "hypot(x1, x2) - 1"
    custom = scen.from_config(
        {"schema": 1, "boundary": {"kind": "expression", "phi": phi, "box": [[-a, -a], [a, a]]}}
    )
    return custom, scen.builtin("disk_interior" if interior else "disk_exterior")


@pytest.mark.parametrize("interior", [True, False])
def test_expression_disk_hp2z_matches_builtin(interior):
    custom, disk = _disk_pair(interior)
    for th in np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False):
        x = np.array([np.cos(th), np.sin(th)])
        rho = sym.PhasePoint(t=0.0, x=x, tau=1.0, xi=np.array([-x[1], x[0]]))
        assert sym.hp2z(custom, rho) == pytest.approx(sym.hp2z(disk, rho), rel=0.0, abs=1e-10)


@pytest.mark.parametrize("interior", [True, False])
def test_expression_disk_tags_match_builtin_near_glancing(interior):
    custom, disk = _disk_pair(interior)
    angles = [0.0] + [s * 10.0**-k for k in (2, 4, 6, 7.5, 8, 9, 12) for s in (1.0, -1.0)]
    tags = set()
    for th in np.linspace(0.1, 2.0 * np.pi, 13):
        x = np.array([np.cos(th), np.sin(th)])
        tangent, normal = np.array([-x[1], x[0]]), -x
        for a in angles:
            rho = sym.PhasePoint(t=0.0, x=x, tau=1.0, xi=np.cos(a) * tangent + np.sin(a) * normal)
            tag = sym.classify_boundary_point(custom, rho).tag
            assert tag == sym.classify_boundary_point(disk, rho).tag
            tags.add(tag)
    glancing = sym.Tag.GLIDING if interior else sym.Tag.DIFFRACTIVE
    assert tags == {sym.Tag.HYPERBOLIC_IN, sym.Tag.HYPERBOLIC_OUT, glancing}


def test_readme_scenario_examples_load():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        s = scen.from_config(json.loads(block))
        assert s.dim == 2


def _radial_reference(x):
    """xhat and the tangential projector I - xhat xhat^T, radius clamped at 1e-12."""
    r = max(float(np.hypot(x[0], x[1])), 1e-12)
    xhat = np.asarray(x, dtype=float) / r
    return r, xhat, np.eye(2) - np.outer(xhat, xhat)


def _radial_probe_points():
    rng = np.random.default_rng(7)
    pts = [rng.uniform(-1.3, 1.3, size=2) for _ in range(44)]
    # radius clamped to 1e-12: the origin, and points just around it
    pts += [np.zeros(2), np.array([1e-13, 0.0]), np.array([-3e-13, 4e-13]),
            np.array([0.0, -5e-14]), np.array([1e-300, 1e-300]), np.array([-0.0, 2e-13])]
    return pts


@pytest.mark.parametrize("name", ["disk_interior", "disk_exterior", "annulus"])
def test_radial_kernels_match_projector_reference(name):
    s = scen.load_scenario(name)
    sign = -1.0 if name == "disk_exterior" else 1.0
    pts = _radial_probe_points()
    assert len(pts) == 50
    for x in pts:
        r, xhat, tang = _radial_reference(x)
        if name == "annulus":
            r_raw = float(np.hypot(x[0], x[1]))
            inner = (r_raw - 0.5) <= (1.0 - r_raw)
            dphi_ref = xhat if inner else -xhat
            d2phi_ref = tang / r if inner else -tang / r
        else:
            dphi_ref = -sign * xhat
            d2phi_ref = -sign * tang / r
        dphi = s.boundary.dphi(x)
        d2phi = s.boundary.d2phi(x)
        assert dphi.shape == (2,) and d2phi.shape == (2, 2)
        assert dphi.tobytes() == dphi_ref.tobytes()
        assert d2phi.tobytes() == d2phi_ref.tobytes()


WAVY = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "wavy.json"
ALL_FUNCS = (
    "x2 - 0.1 * sin(x1) * cos(x2) + 0.01 * tan(0.3 * x1) - 0.01 * exp(-x1)"
    " + 0.01 * log(3 + x1) + 0.01 * sqrt(abs(x1) + 1) + 0.02 * tanh(x1)"
    " - 0.001 * sinh(x1) + 0.001 * cosh(x2) + 0.01 * arctan(x1) + 0.001 * hypot(x1, x2) / pi"
)


@pytest.mark.parametrize(
    "source",
    [*scen.BUILTIN_NAMES, str(WAVY),
     {"schema": 1, "boundary": {"kind": "expression", "phi": ALL_FUNCS}},
     {"schema": 1, "boundary": {"kind": "expression", "phi": "x2 - 0.2 * x1 ** 2 + 0.1 * abs(x1) ** 1.5"}}],
    ids=[*scen.BUILTIN_NAMES, "wavy", "all-functions", "power"],
)
def test_phi_on_rows_is_scalar_phi_bit_for_bit(source):
    scenario = scen.load_scenario(source)
    rng = np.random.default_rng(7)
    # the chart box and a margin around it; the annulus box holds both of
    # its min branches (r below and above (r0 + r1) / 2)
    lo, hi = scenario.domain_lo - 0.5, scenario.domain_hi + 0.5
    X = rng.uniform(lo, hi, size=(10_000, 2))
    rows = scenario.boundary.phi_on_rows(X)
    one_by_one = np.array([float(scenario.boundary.phi(x)) for x in X])
    assert rows.shape == (10_000,)
    assert rows.tobytes() == one_by_one.tobytes()
