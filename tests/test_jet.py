import math

import numpy as np
import pytest

from glancer import jet
from glancer import scenarios as scen

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
    assert set(scen._EXPR_FUNCS) <= used
    assert set(jet.FUNCS) == set(scen._EXPR_FUNCS)


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("expr", list(CASES))
def test_jet_matches_closed_form(expr, point):
    j = scen.compile_jet(expr)(np.array(point))
    v, grad, hess = CASES[expr](*point)
    assert j.v == pytest.approx(v, rel=1e-13)
    assert np.array([j.d1, j.d2]) == pytest.approx(grad, rel=1e-12, abs=1e-13)
    assert np.array([[j.d11, j.d12], [j.d12, j.d22]]) == pytest.approx(hess, rel=1e-12, abs=1e-13)
    numpy_value = scen.compile_expression(expr, ("x1", "x2"))(x1=point[0], x2=point[1])
    assert j.v == pytest.approx(float(numpy_value), rel=1e-14)


@pytest.mark.parametrize(
    "expr", ["hypot(x1, x2)", "sqrt(x1 * x1 + x2 * x2)", "abs(x1)", "abs(x2 - x1)", "hypot(x1, 0)"]
)
def test_nonsmooth_points_give_zero_derivatives(expr):
    j = scen.compile_jet(expr)(np.zeros(2))
    assert (j.v, j.d1, j.d2, j.d11, j.d12, j.d22) == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("expr, value", [("0", 0.0), ("1.5", 1.5), ("cos(pi)", -1.0), ("hypot(3, 4)", 5.0)])
def test_constant_expressions_give_constant_jets(expr, value):
    j = scen.compile_jet(expr)(np.array([0.4, -0.3]))
    assert isinstance(j, jet.Jet)
    assert (j.v, j.d1, j.d2, j.d11, j.d12, j.d22) == (value, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("expr", ["log(x1)", "1 / (x1 + 1)", "sqrt(x1)", "x1 ** 0.5", "exp(1000 * x2)"])
def test_failed_arithmetic_gives_nan_jet(expr):
    j = scen.compile_jet(expr)(np.array([-1.0, 1.0]))
    assert all(math.isnan(c) for c in (j.v, j.d1, j.d2, j.d11, j.d12, j.d22))
