import copy
import json
import math
import re
import warnings
from pathlib import Path

import _reference_jet
import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glancer import geometry as geo
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


def test_expression_metric_entries_are_the_entry_jets_with_constants_folded():
    exprs = [["2 + sin(x1)", "0.5 * pi / 4"], ["0.5 * pi / 4", "1 + x2 ** 2"]]
    s = scen.builtin("half_plane", metric={"kind": "expression", "expressions": exprs})
    codes = [compile(e, "<entry>", "eval") for e in (exprs[0][0], exprs[0][1], exprs[1][1])]
    rng = np.random.default_rng(3)
    for x in rng.uniform(-3.0, 3.0, size=(50, 2)):
        jets = [_reference_jet.evaluate(code, x[0], x[1]) for code in codes]
        expected = [f for name in ("v", "d1", "d2") for f in (getattr(j, name) for j in jets)]
        assert list(s.metric.entries(x)) == expected
        assert np.array_equal(s.metric.g(x), [[jets[0].v, jets[1].v], [jets[1].v, jets[2].v]])


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param("x2 - 20", id="negative-at-the-centre"),
        pytest.param("log(-1)", id="nan-constant"),
    ],
)
def test_expression_metric_not_positive_definite_at_the_box_center(entry):
    with pytest.raises(ValidationError, match="not positive definite at the box center"):
        scen.builtin(
            "half_plane", metric={"kind": "expression", "expressions": [[entry, "0"], ["0", "1"]]}
        )


def test_expression_metric_off_diagonals_may_differ_in_whitespace():
    exprs = [["1", "0.1 * x1"], ["0.1*x1", "1"]]
    s = scen.builtin("strip", metric={"kind": "expression", "expressions": exprs})
    assert s.metric.entries(np.array([0.5, 0.5]))[1] == 0.05


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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_scenario_examples_load():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        s = scen.from_config(json.loads(block))
        assert s.dim == 2


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "[0.5, 1.0, 1.5]\n"


def test_config_schema_uses_only_the_keywords_the_walker_reads():
    walked = {"type", "const", "enum", "required", "additionalProperties", "properties",
              "items", "minItems", "maxItems", "exclusiveMinimum", "if", "then", "allOf"}
    used, stack = set(), [scen.CONFIG_SCHEMA]
    while stack:
        schema = stack.pop()
        used |= schema.keys()
        stack += [schema[k] for k in ("items", "if", "then") if k in schema]
        stack += list(schema.get("properties", {}).values()) + schema.get("allOf", [])
    assert used <= walked, used - walked
    assert all(not isinstance(c, (list, dict, bool)) for c in _schema_constants(scen.CONFIG_SCHEMA))


def _schema_constants(schema):
    """Every const and enum value in schema, which the walker compares as scalars."""
    if isinstance(schema, dict):
        yield from ([schema["const"]] if "const" in schema else []) + schema.get("enum", [])
        for key, value in schema.items():
            if key not in ("const", "enum", "required"):
                yield from _schema_constants(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from _schema_constants(value)


# the configs mutations start from: the builtins, wavy.json, the README's
# scenario blocks and one of each metric and potential kind
_SEED_CONFIGS = (
    [{"schema": 1, "builtin": name} for name in scen.BUILTIN_NAMES]
    + [json.loads((Path(__file__).resolve().parents[1] / "perfbench/scenarios/wavy.json").read_text())]
    + [json.loads(b) for b in re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)]
    + [{
        "schema": 1, "name": "n", "builtin": "annulus",
        "params": {"r0": 0.5, "r1": 2.0, "box_half_width": 3.0},
        "metric": {"kind": "diagonal", "entries": [1.0, 2.0]},
        "potential": {"kind": "constant", "value": 0.5},
        "band": 0.05,
        "thresholds": {"eps_g": 1e-6, "eps_g2": 1e-6, "char_tol": 1e-8, "boundary_tol": 1e-9},
    }, {
        "schema": 1, "builtin": "strip", "params": {"height": 2.0},
        "metric": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "potential": {"kind": "zero"},
    }]
)
_KEYS = sorted({"extra"} | {
    key for schema in [scen.CONFIG_SCHEMA] + list(scen.CONFIG_SCHEMA["properties"].values())
    for key in schema.get("properties", {})
})
_ODD_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0, 1, 1.0, -1.5]),
    st.sampled_from([True, False, None]),
    st.sampled_from(["", "x2", "strip", "identity", "diagonal", "constant", "expression", "zero"]),
    st.sampled_from([
        [], [1.0], [1.0, 2.0, 3.0], [[1.0, 0.0], [0.0, 1.0]], [["1", "0"], ["0", "1"]],
        [[1.0, 0.0]], [[1.0, "0"], [0.0, True]], {}, {"kind": "expression"}, {"kind": "zero"},
    ]),
    st.sampled_from(_KEYS),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _slots(node, path=()):
    """Paths of every dict value and list item under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


@st.composite
def _mutated_configs(draw):
    config = copy.deepcopy(draw(st.sampled_from(_SEED_CONFIGS)))
    for _ in range(draw(st.integers(0, 4))):
        targets = [()] + list(_slots(config))
        path = draw(st.sampled_from(targets))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else config
        action = draw(st.sampled_from(["replace", "delete", "add", "append"]))
        if action == "replace" and path:
            parent[path[-1]] = copy.deepcopy(draw(_ODD_VALUES))
        elif action == "delete" and path:
            del parent[path[-1]]
        elif action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = copy.deepcopy(draw(_ODD_VALUES))
        elif action == "append" and isinstance(node, list):
            node.append(copy.deepcopy(draw(_ODD_VALUES)))
    return config


_JSONSCHEMA = jsonschema.validators.validator_for(scen.CONFIG_SCHEMA)(scen.CONFIG_SCHEMA)


@settings(max_examples=400)
@given(_mutated_configs())
# jsonschema fails exclusiveMinimum only on instance <= minimum, false for NaN
@example({"schema": 1, "builtin": "strip", "params": {"height": float("nan")}})
@example({"schema": 1, "builtin": "strip", "params": {"height": -float("inf")}})
@example({"schema": 1, "builtin": "strip", "params": {"height": 0.0}})
@example({"schema": True, "builtin": "strip"})
@example({"schema": 1.0, "builtin": "strip", "band": False})
@example({"schema": 1, "builtin": "strip", "band": True})
@example({"schema": 1, "builtin": "strip", "metric": {"kind": "diagonal"}})
@example({"schema": 1, "builtin": "strip", "potential": {"kind": "expression"}})
def test_schema_walker_accepts_exactly_what_jsonschema_accepts(config):
    assert scen._conforms(config, scen.CONFIG_SCHEMA) == _JSONSCHEMA.is_valid(config)


def _radial_norm(x):
    """|x| as the builtin circular walls take it: sqrt(x1 x1 + x2 x2)."""
    return float(np.sqrt(x[0] * x[0] + x[1] * x[1]))


def _radial_reference(x):
    """xhat and the tangential projector I - xhat xhat^T, radius clamped at 1e-12."""
    r = max(_radial_norm(x), 1e-12)
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
            r_raw = _radial_norm(x)
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


# the origin, the 1e-12 clamp of the radius, the annulus midline r = 0.75
# (r0 = 0.5, r1 = 1) where derivs changes wall, and signed zeros
_RADIAL_EDGES = [
    (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1e-13, -0.0), (-1e-13, 1e-13),
    (1e-160, 1e-160), (-0.0, -1e-160), (0.75, 0.0), (-0.0, -0.75), (0.45, 0.6),
    (-0.6, 0.45), (0.75 * 2**-0.5, 0.75 * 2**-0.5),
]
_RADIAL_COORD = st.floats(-700.0, 700.0)  # |x| <= 1e3
_RADIAL_WALLS = {
    name: scen.load_scenario(name).boundary for name in ("disk_interior", "disk_exterior", "annulus")
}


@pytest.mark.parametrize("name", list(_RADIAL_WALLS))
@settings(max_examples=200)
@given(pts=st.lists(
    st.one_of(st.sampled_from(_RADIAL_EDGES), st.tuples(_RADIAL_COORD, _RADIAL_COORD)),
    min_size=1, max_size=8,
))
@example(pts=_RADIAL_EDGES)
def test_radial_row_forms_are_the_point_forms_to_the_bit(name, pts):
    b = _RADIAL_WALLS[name]
    X = np.array(pts, dtype=float)
    phi = np.array([b.phi(p) for p in pts], dtype=float)
    derivs = np.array([b.derivs(p) for p in pts], dtype=float).T
    assert b.phi_rows(X).tobytes() == phi.tobytes()
    assert np.array(b.derivs_rows(X), dtype=float).tobytes() == derivs.tobytes()


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
     {"schema": 1, "boundary": {"kind": "expression", "phi": "x2 - 0.2 * x1 ** 2 + 0.1 * abs(x1) ** 1.5"}},
     {"schema": 1, "boundary": {"kind": "expression", "phi": "x2 - 2 ** 0.5 * x1"}},
     {"schema": 1, "boundary": {"kind": "expression", "phi": "x2 - 0.2 * x1 ** 2"}}],
    ids=[*scen.BUILTIN_NAMES, "wavy", "all-functions", "power", "constant-power", "square"],
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


@pytest.mark.parametrize(
    "phi, has_rows", [("x2 - 2 ** 0.5 * x1", True), ("x2 - 0.2 * x1 ** 2", False)]
)
def test_phi_rows_is_dropped_for_a_power_of_a_variable_only(phi, has_rows):
    """numpy takes an array's power by other routines than a scalar's; a
    power of constants is the same float on both."""
    scenario = scen.from_config({"schema": 1, "boundary": {"kind": "expression", "phi": phi}})
    assert (scenario.boundary.phi_rows is not None) == has_rows


def test_loading_silences_numpy_warnings_off_phi_domain():
    # the corner grid reaches x1 = -3, where log(3 + x1) is -inf
    config = {
        "schema": 1,
        "boundary": {
            "kind": "expression",
            "phi": "x2 - 0.01*log(3 + x1)",
            "box": [[-3.0, -1.0], [1.0, 1.0]],
        },
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scenario = scen.from_config(config)
    assert scenario.boundary.phi(np.array([0.0, 0.5])) > 0


def _corner_points_one_by_one(boundary, lo, hi, n=41):
    """The corner check's Newton steps with each grid point run alone, as a
    one-row batch: (X, phi, dphi) over the grid, in the check's order."""
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    w1, w2 = (hi - lo).tolist()
    max_step = 2.0 * math.sqrt(w1 * w1 + w2 * w2)
    rows = []
    with np.errstate(all="ignore"):
        for a in xs:
            for b in ys:
                rows.append(geo.newton_to_boundary(boundary, np.array([[a, b]]), 3, 1e-10, max_step))
    return tuple(np.concatenate(part) for part in zip(*rows))


POWER = "x2 - 0.2 * x1 ** 2 + 0.1 * abs(x1) ** 1.5"
CORNER_EXPRESSIONS = [
    json.loads(WAVY.read_text())["boundary"]["phi"],
    "x1 * x2",
    "x1*x1 - x2*x2",
    "x2*x2 - x1*x1*x1",
    "(x1 - 0.5) * (x2 - 0.65)",  # a crossing away from the origin
    "1 - hypot(x1, x2)",
    "abs(x1) + abs(x2) - 1",
    ALL_FUNCS,
    POWER,
]
CORNER_BOXES = [
    ([-1.0, -1.0], [1.0, 1.0]),  # the origin is a grid point
    ([-1.3, -0.7], [0.9, 1.1]),  # the origin lies inside, between grid points
    ([0.25, 0.3], [1.5, 1.7]),  # no origin
    ([-3.0, -1.0], [1.0, 1.0]),  # log(3 + x1) leaves its domain on the left edge
]


@pytest.mark.parametrize("box", CORNER_BOXES, ids=["origin", "off-grid", "no-origin", "edge"])
@pytest.mark.parametrize("expr", CORNER_EXPRESSIONS)
def test_batched_corner_check_matches_scalar_loop(expr, box, monkeypatch):
    # the batch stops each row on its own: its points, phi and dphi carry
    # the bytes of the rows run alone, and so does the verdict
    lo, hi = np.array(box[0]), np.array(box[1])
    boundary = scen._expression_boundary(expr)
    batched = []

    def recorded(*args):
        batched.append(geo.newton_to_boundary(*args))
        return batched[-1]

    monkeypatch.setattr(scen, "newton_to_boundary", recorded)
    try:
        scen._reject_corners(boundary, lo, hi)
        rejected = False
    except ValidationError:
        rejected = True
    X, v, d = _corner_points_one_by_one(boundary, lo, hi)
    assert rejected == bool(((np.abs(v) <= 1e-10) & (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < 1e-16)).any())
    assert len(batched) == 1
    for got, want in zip(batched[0], (X, v, d)):
        assert got.tobytes() == want.tobytes()


def test_expression_phi_has_numpy_semantics_at_any_point_form():
    # the tracer hands phi list slices and tuples of Python floats, on which
    # 1 / 0 would raise and a negative base to a fractional power turn complex
    quotient = scen._expression_boundary("x2 - 1/x1")
    with np.errstate(divide="ignore"):
        assert quotient.phi((0.0, 1.0)) == quotient.phi(np.array([0.0, 1.0])) == -np.inf
    power = scen._expression_boundary(POWER)
    X = np.random.default_rng(9).uniform(-2.0, 2.0, size=(1000, 2))
    from_lists = np.array([power.phi(x) for x in X.tolist()])
    from_arrays = np.array([power.phi(x) for x in X])
    assert from_lists.tobytes() == from_arrays.tobytes()


ROW_JET_CASES = {
    "wavy": (CORNER_EXPRESSIONS[0], [[-3.5, -1.1], [3.5, 2.5]]),
    "all-functions": (ALL_FUNCS, [[-4.0, -2.5], [2.5, 2.5]]),
    "power": (POWER, [[-2.0, -2.0], [2.0, 2.0]]),
    "hypot": ("1 - hypot(x1, x2)", [[-1.0, -1.0], [1.0, 1.0]]),
    "abs": ("abs(x1) + abs(x2 - 0.5) - 1", [[-1.0, -1.0], [1.0, 1.0]]),
    "sqrt-quotient": ("sqrt(x1) + 1 / x2 + log(x1 * x2)", [[-1.0, -1.0], [1.0, 1.0]]),
    "jet-powers": ("x1 ** x2 + 2 ** x1 + x1 ** -1", [[-1.0, -1.0], [2.0, 2.0]]),
}


@pytest.mark.parametrize("name", list(ROW_JET_CASES) + list(scen.BUILTIN_NAMES))
def test_derivs_on_rows_matches_scalar_derivs(name):
    # builtins: closed-form rows with the scalar arithmetic, bit for bit;
    # expressions: row jets, within 1e-15 relative of the scalar jets
    if name in ROW_JET_CASES:
        expr, box = ROW_JET_CASES[name]
        boundary = scen._expression_boundary(expr)
    else:
        sc = scen.builtin(name)
        boundary, box = sc.boundary, [sc.domain_lo, sc.domain_hi]
    rng = np.random.default_rng(5)
    X = rng.uniform(*box, size=(10_000, 2))
    # exact zeros of each coordinate: sqrt, abs, hypot and powers at 0
    X[:300:3, 0] = 0.0
    X[1:300:3, 1] = 0.0
    X[2:300:3] = 0.0
    X[300:400, 1] = 0.5
    rows = boundary.derivs_on_rows(X)
    with np.errstate(all="ignore"):
        scalar = np.array([boundary.derivs(x) for x in X]).T
    assert rows.shape == scalar.shape == (5, 10_000)
    if name not in ROW_JET_CASES:
        assert rows.tobytes() == scalar.tobytes()
        return
    nan = np.isnan(scalar)
    assert np.array_equal(np.isnan(rows), nan)
    assert (nan.all(axis=0) == nan.any(axis=0)).all()
    close = np.abs(rows - scalar) <= 1e-15 * (1.0 + np.abs(scalar))
    assert close[~nan].all()


def test_derivs_on_rows_falls_back_to_derivs():
    # a boundary with scalar phi and derivs only; the disk's serve as an example
    disk = scen.builtin("disk_interior").boundary
    scalar_only = geo.BoundaryDef(disk.phi, disk.derivs)
    X = np.random.default_rng(3).uniform(-1.2, 1.2, size=(50, 2))
    rows = scalar_only.derivs_on_rows(X)
    assert rows.tobytes() == np.array([scalar_only.derivs(x) for x in X]).T.tobytes()
    assert scalar_only.derivs_on_rows(X[:0]).shape == (5, 0)
