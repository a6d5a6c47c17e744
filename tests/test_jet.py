import math

import _reference_jet as reference
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from glancer import jet
from glancer import scenarios as scen
from glancer.errors import ValidationError

# Closed forms (value, gradient, Hessian) at x = (a, b). One-variable
# functions are applied to u = a + 2 b, so gradient f'(u) (1, 2) and
# Hessian f''(u) [[1, 2], [2, 4]] check the chain rule as well.
_U = np.array([1.0, 2.0])


def _of_u(f, f1, f2):
    def closed(a, b):
        u = a + 2.0 * b
        return f(u), f1(u) * _U, f2(u) * np.outer(_U, _U)

    return closed


def _pow_xy(a, b):
    v, la = a**b, math.log(a)
    grad = [b * a ** (b - 1.0), v * la]
    hess = [[b * (b - 1.0) * a ** (b - 2.0), a ** (b - 1.0) * (1.0 + b * la)], [0.0, v * la * la]]
    hess[1][0] = hess[0][1]
    return v, np.array(grad), np.array(hess)


def _hypot(a, b):
    r = math.hypot(a, b)
    x = np.array([a, b])
    return r, x / r, (np.eye(2) - np.outer(x, x) / r**2) / r


def _abs_diff(a, b):
    s = math.copysign(1.0, a - b)
    return abs(a - b), s * np.array([1.0, -1.0]), np.zeros((2, 2))


def _quotient(a, b):
    d = 1.0 + a
    grad = [b / d**2, a / d]
    hess = [[-2.0 * b / d**3, 1.0 / d**2], [1.0 / d**2, 0.0]]
    return a * b / d, np.array(grad), np.array(hess)


CASES = {
    "sin(x1 + 2 * x2)": _of_u(math.sin, math.cos, lambda u: -math.sin(u)),
    "cos(x1 + 2 * x2)": _of_u(math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u)),
    "tan(x1 + 2 * x2)": _of_u(
        math.tan, lambda u: 1.0 / math.cos(u) ** 2, lambda u: 2.0 * math.tan(u) / math.cos(u) ** 2
    ),
    "exp(x1 + 2 * x2)": _of_u(math.exp, math.exp, math.exp),
    "log(x1 + 2 * x2)": _of_u(math.log, lambda u: 1.0 / u, lambda u: -1.0 / u**2),
    "sqrt(x1 + 2 * x2)": _of_u(math.sqrt, lambda u: 0.5 / math.sqrt(u), lambda u: -0.25 * u**-1.5),
    "tanh(x1 + 2 * x2)": _of_u(
        math.tanh, lambda u: 1.0 / math.cosh(u) ** 2, lambda u: -2.0 * math.tanh(u) / math.cosh(u) ** 2
    ),
    "sinh(x1 + 2 * x2)": _of_u(math.sinh, math.cosh, math.sinh),
    "cosh(x1 + 2 * x2)": _of_u(math.cosh, math.sinh, math.cosh),
    "arctan(x1 + 2 * x2)": _of_u(
        math.atan, lambda u: 1.0 / (1.0 + u * u), lambda u: -2.0 * u / (1.0 + u * u) ** 2
    ),
    "abs(x1 - x2)": _abs_diff,
    "abs(x2 - x1)": _abs_diff,
    "hypot(x1, x2)": _hypot,
    "pi * (x1 + 2 * x2) ** 2": _of_u(
        lambda u: math.pi * u * u, lambda u: 2.0 * math.pi * u, lambda u: 2.0 * math.pi
    ),
    "(x1 + 2 * x2) ** 2.5": _of_u(
        lambda u: u**2.5, lambda u: 2.5 * u**1.5, lambda u: 3.75 * u**0.5
    ),
    "(x1 + 2 * x2) ** -1": _of_u(lambda u: 1.0 / u, lambda u: -1.0 / u**2, lambda u: 2.0 / u**3),
    "2 ** (x1 + 2 * x2)": _of_u(
        lambda u: 2.0**u,
        lambda u: 2.0**u * math.log(2.0),
        lambda u: 2.0**u * math.log(2.0) ** 2,
    ),
    "x1 ** x2": _pow_xy,
    "x1 * x2 / (1 + x1)": _quotient,
}

POINTS = [(0.3, 0.1), (0.7, -0.2), (1.2, 0.25)]


def test_cases_cover_the_expression_namespace():
    used = set().union(*(compile(e, "", "eval").co_names for e in CASES))
    assert set(jet._NUMPY) <= used
    assert set(jet.FUNCS) | {"pi"} == set(jet._NUMPY)


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("expr", list(CASES))
def test_jet_matches_closed_form(expr, point):
    v0, d1, d2, d11, d12, d22 = jet.kernel((expr,), jet.FIELDS)(point)
    v, grad, hess = CASES[expr](*point)
    assert v0 == pytest.approx(v, rel=1e-13)
    assert np.array([d1, d2]) == pytest.approx(grad, rel=1e-12, abs=1e-13)
    assert np.array([[d11, d12], [d12, d22]]) == pytest.approx(hess, rel=1e-12, abs=1e-13)
    numpy_value = jet.function(expr, ("x1", "x2"))(*point)
    assert v0 == pytest.approx(float(numpy_value), rel=1e-14)


def _numpy_eval(expr, x1, x2):
    """The text evaluated in numpy's namespace without builtins: how scenario
    expressions were evaluated before jet.function, kept as its oracle."""
    namespace = {**{name: getattr(np, name) for name in jet.FUNCS}, "pi": np.pi}
    code = compile(expr, "<scenario expression>", "eval")
    return eval(code, {"__builtins__": {}}, {**namespace, "x1": x1, "x2": x2})


def _outcome(fn, *args):
    """fn(*args) as the bytes of a real result, a complex one as it is, or
    the type of the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as exc:  # the exception is the outcome, as the oracle raises it
        return type(exc)
    return np.asarray(out).tobytes() if np.isrealobj(out) else complex(out)


_EDGES = [("1 / x1", 0.0, 0.5), ("x1 ** 0.5", -2.0, 0.5)]


@pytest.mark.parametrize(
    "expr, edge", [(e, None) for e in CASES] + [(e, (a, b)) for e, a, b in _EDGES]
)
def test_function_is_the_numpy_evaluation_bit_for_bit(expr, edge):
    fn = jet.function(expr, ("x1", "x2"))
    points = [edge] if edge else POINTS
    X = np.array(points + [(0.0, 0.4), (-0.7, 1.3)])
    for a, b in points:
        for x1, x2 in ((a, b), (np.float64(a), np.float64(b))):
            assert _outcome(fn, x1, x2) == _outcome(_numpy_eval, expr, x1, x2), (x1, x2)
    assert _outcome(fn, X[:, 0], X[:, 1]) == _outcome(_numpy_eval, expr, X[:, 0], X[:, 1])
    if edge:
        # numpy scalars and rows keep numpy's semantics: inf or nan, no exception
        with np.errstate(all="ignore"):
            scalar = fn(np.float64(edge[0]), np.float64(edge[1]))
            rows = fn(X[:, 0], X[:, 1])
        assert not np.isfinite(scalar) and not np.isfinite(rows[0])


@pytest.mark.parametrize(
    "expr", ["hypot(x1, x2)", "sqrt(x1 * x1 + x2 * x2)", "abs(x1)", "abs(x2 - x1)", "hypot(x1, 0)"]
)
def test_nonsmooth_points_give_zero_derivatives(expr):
    j = jet.kernel((expr,), jet.FIELDS)((0.0, 0.0))
    assert j == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("expr, value", [("0", 0.0), ("1.5", 1.5), ("cos(pi)", -1.0), ("hypot(3, 4)", 5.0)])
def test_constant_expressions_give_constant_jets(expr, value):
    j = jet.kernel((expr,), jet.FIELDS)((0.4, -0.3))
    assert len(j) == 6 and all(type(c) is float for c in j)
    assert j == (value, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("expr", ["log(x1)", "1 / (x1 + 1)", "sqrt(x1)", "x1 ** 0.5", "exp(1000 * x2)"])
def test_failed_arithmetic_gives_nan_jet(expr):
    j = jet.kernel((expr,), jet.FIELDS)((-1.0, 1.0))
    assert all(math.isnan(c) for c in j)
    # the row form: NaN in that row only, and the same NaNs as the scalar jets
    X = np.array([[-1.0, 1.0], [0.5, -0.5]])
    rows = jet.row_kernel((expr,), jet.FIELDS)(X)
    assert np.isnan(rows[:, 0]).all()
    assert np.array_equal(np.isnan(rows[:, 1]), np.isnan(jet.kernel((expr,), jet.FIELDS)(X[1])))


def _fields(j):
    return np.array([j.v, j.d1, j.d2, j.d11, j.d12, j.d22], dtype=float)


@pytest.mark.parametrize("expr", list(CASES) + ["0", "hypot(3, 4)", "x1 ** 0 + abs(x2)"])
def test_row_jets_match_scalar_jets(expr):
    X = np.array(POINTS + [(0.0, 0.0), (0.0, 0.4)])
    rows = jet.row_kernel((expr,), jet.FIELDS)(X)
    assert rows.shape == (6, len(X))
    scalar = np.array([jet.kernel((expr,), jet.FIELDS)(x) for x in X]).T
    assert np.array_equal(np.isnan(rows), np.isnan(scalar))
    ok = ~np.isnan(scalar)
    assert np.all(np.abs(rows - scalar)[ok] <= 1e-15 * (1.0 + np.abs(scalar[ok])))


def test_constant_arithmetic_failure_gives_nan_rows():
    rows = jet.row_kernel(("x1 + 1 / 0",), jet.FIELDS)(np.ones((3, 2)))
    assert rows.shape == (6, 3) and np.isnan(rows).all()


# Random expressions over the kernel grammar: every function, ** with jet
# and constant exponents, integer and float literals. A constant ** takes a
# literal exponent or one that names x1 or x2, so no tower of integer powers
# is drawn. Two leaves mix x1 and x2, so that the terms of the chain rule
# differ in the last bits.
_VARIABLES = st.sampled_from(["x1", "x2", "pi", "(x1 * x2)", "(x1 - 0.7 * x2)"])
_LEAVES = st.one_of(
    _VARIABLES,
    _VARIABLES,
    st.integers(-4, 4).map(str),
    st.floats(-3.0, 3.0).map(repr),
)
_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "-1", "-2", "0.5", "2.5"])
_UNARY = sorted(set(jet.FUNCS) - {"hypot"})


@st.composite
def _expressions(draw, depth=4):
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(_LEAVES)
    kind = draw(st.sampled_from(["arithmetic", "arithmetic", "call", "call", "**", "hypot", "-"]))
    a = draw(_expressions(depth - 1))
    if kind == "arithmetic":
        return f"({a} {draw(st.sampled_from('+-*/'))} {draw(_expressions(depth - 1))})"
    if kind == "call":
        return f"{draw(st.sampled_from(_UNARY))}({a})"
    if kind == "**":
        b = draw(st.one_of(_EXPONENTS, _expressions(depth - 1).filter(lambda e: "x" in e)))
        return f"({a} ** {b})"
    if kind == "hypot":
        return f"hypot({a}, {draw(_expressions(depth - 1))})"
    return f"(-{a})"


_COORDS = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e-310, -2.0, 1e200, -1e300]),
)


def _same_bits(a, b):
    """Bit for bit, with NaN in the same fields: a NaN's sign and payload
    depend on the order in which the interpreter hands commutative operands
    to the CPU, so NaNs are compared as NaN."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    a[np.isnan(a)] = np.nan
    b[np.isnan(b)] = np.nan
    return a.tobytes() == b.tobytes()


@settings(max_examples=200)
@given(_expressions(), st.lists(st.tuples(_COORDS, _COORDS), min_size=2, max_size=8))
def test_kernels_give_the_interpreted_jets_bit_for_bit(expr, points):
    try:
        point, rows = jet.kernel((expr,), jet.FIELDS), jet.row_kernel((expr,), jet.FIELDS)
    except ValidationError as exc:
        assert "not real" in str(exc)  # as (-2) ** 0.5, a complex jet for the interpreter
        reject()
    code = compile(expr, "<expr>", "eval")
    for x in points:
        try:
            expected = _fields(reference.evaluate(code, *x))
        except OverflowError:
            # the interpreter turns a constant result into a float outside
            # its guard (an integer past the float range); the kernel's NaN
            assert np.isnan(point(x)).all()
            continue
        assert _same_bits(point(x), expected), x
    X = np.array(points)
    try:
        expected = _fields(reference.evaluate_rows(code, X))
    except OverflowError:
        expected = np.full((6, len(X)), np.nan)
    assert rows(X).tobytes() == expected.tobytes()


# metric entries: random expressions, constants (one that fails everywhere)
# and entries that fail at some points
_ENTRIES = st.one_of(
    _expressions(3),
    st.sampled_from(["0", "cos(0.3)", "log(-1)", "log(x1)", "1 / (x1 - x2)", "sqrt(x2 - 1)"]),
)


@settings(max_examples=200)
@given(
    st.tuples(_ENTRIES, _ENTRIES, _ENTRIES), st.lists(st.tuples(_COORDS, _COORDS), min_size=2, max_size=6)
)
def test_metric_kernel_is_the_per_entry_jets_bit_for_bit(entries, points):
    """The one kernel of three entries with fields (v, d1, d2) gives the nine
    floats of the entries' own jets in the slot order of MetricEval.entries
    (g11, g12, g22, then their d1, then their d2); its rows are each entry's
    row jets, a row NaN in an entry's fields where its jet is not finite."""
    fields = ("v", "d1", "d2")
    try:
        point, rows = jet.kernel(entries, fields), jet.row_kernel(entries, fields)
    except ValidationError as exc:
        assert "not real" in str(exc)
        reject()
    codes = [compile(e, "<entry>", "eval") for e in entries]

    def jets(evaluate, at, n):
        out = []
        for code in codes:
            try:
                out.append(_fields(evaluate(code, *at)))
            except OverflowError:  # as in the property above: the kernel's NaN jet
                out.append(np.full((6, n), np.nan).squeeze())
        return np.array([j[k] for k in range(3) for j in out])

    for x in points:
        assert _same_bits(point(x), jets(reference.evaluate, x, 1)), x
    X = np.array(points)
    assert rows(X).tobytes() == jets(reference.evaluate_rows, (X,), len(X)).tobytes()


_MIXED = [f"{name}(0.3 + x1 * x2 / 2)" for name in sorted(set(jet.FUNCS) - {"hypot"})] + [
    "hypot(x1 * x2, x1 - 0.7 * x2)",
    "hypot(x1 * x2, 2)",
    "(x1 * x2 + 1) ** 2.5",
    "(x1 * x2 + 1) ** 2 / (x1 - x2 * x2)",
    "(x1 + x2) ** (x1 * x2)",
    "3 ** (x1 * x2) - x1",
]


@pytest.mark.parametrize("expr", _MIXED)
def test_kernels_match_the_interpreter_where_every_field_is_mixed(expr):
    # arguments whose two first and three second derivatives all differ, so
    # that every term of the chain rule shows in the last bits
    X = np.random.default_rng(5).uniform(0.1, 2.0, size=(200, 2))
    code = compile(expr, "<expr>", "eval")
    point = jet.kernel((expr,), jet.FIELDS)
    for x in X:
        assert _same_bits(point(x), _fields(reference.evaluate(code, *x))), x
    rows = jet.row_kernel((expr,), jet.FIELDS)(X)
    assert rows.tobytes() == _fields(reference.evaluate_rows(code, X)).tobytes()


@pytest.mark.parametrize(
    "expr",
    [
        "x2 + 0.1 * (x1 > 0)",
        "x1 if x2 else 1",
        "x1 and x2",
        "[x1, x2][0]",
        "x1 // 2",
        "x1 % 2",
        "x1 + 1j",
        "x1 + (-8) ** 0.5",
        "cos(x1, x2)",
        "hypot(x1)",
        "sin(x=x1)",
        "sin(*x1)",
        "x3 + 1",
        "sin",
        "pi(x1)",
        "x1.real",
        "'x1'",
        "True * x1",
        "lambda: x1",
        "x1 +",
    ],
)
def test_unsupported_syntax_is_rejected_when_the_kernel_is_built(expr):
    for build in (jet.kernel, jet.row_kernel):
        with pytest.raises(ValidationError):
            build((expr,), jet.FIELDS)


def test_kernels_are_built_once_per_expression():
    assert jet.kernel(("x1 * sin(x2)",), jet.FIELDS) is jet.kernel(("x1 * sin(x2)",), jet.FIELDS)
    assert jet.kernel(("x1 * sin(x2)",), jet.FIELDS)((0.5, 0.25)) == tuple(
        _fields(reference.evaluate(compile("x1 * sin(x2)", "", "eval"), 0.5, 0.25))
    )


def _recorded_lines(monkeypatch):
    """The lines the kernel writer writes from now on, with the kernel memo
    emptied so that every kernel is built."""
    lines = []

    def emit(self, text, _emit=jet._Writer.emit):
        lines.append(text)
        return _emit(self, text)

    monkeypatch.setattr(jet, "_KERNELS", {})
    monkeypatch.setattr(jet._Writer, "emit", emit)
    return lines


@pytest.mark.parametrize("expr", ["0", "1", "cos(0.3)", "2 ** 0.5", "pi / 4", "log(-1)"])
def test_constant_entry_is_the_kernels_value_without_a_line(expr, monkeypatch):
    """A constant expression beside a varying one folds to literals: its
    fields are its lone kernel's, and it writes no line unless its
    arithmetic fails (log(-1), written out to fail at every point: NaN)."""
    lines = _recorded_lines(monkeypatch)
    jet.kernel(("x1 * x2",), ("v", "d1", "d2"))
    varying = len(lines)
    fields = jet.kernel(("x1 * x2", expr), ("v", "d1", "d2"))((0.5, 0.25))
    assert (len(lines) > 2 * varying) == (expr == "log(-1)")
    assert all(type(f) is float for f in fields)
    assert _same_bits(fields[1::2], jet.kernel((expr,), jet.FIELDS)((0.5, 0.25))[:3])
    assert _same_bits(fields[1::2][1:], [np.nan] * 2 if expr == "log(-1)" else [0.0, 0.0])


def test_constant_metric_entries_build_no_kernel(monkeypatch):
    """The metric's entries are the one kernel of its three entries; a
    constant entry writes no line in it."""
    lines = _recorded_lines(monkeypatch)
    jet.kernel(("2 + sin(x1)",), ("v", "d1", "d2"))
    alone = list(lines)
    for g22, value in (("1", 1.0), ("cos(0.3)", math.cos(0.3))):
        lines.clear()
        exprs = [["2 + sin(x1)", "0"], ["0", g22]]
        s = scen.builtin("half_plane", metric={"kind": "expression", "expressions": exprs})
        assert s.metric.entries is jet.kernel(("2 + sin(x1)", "0", g22), ("v", "d1", "d2"))
        assert lines == alone
        assert list(s.metric.entries((0.5, 0.0))[1:3]) == [0.0, value]
