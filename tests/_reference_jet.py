"""The interpreted second-order jet: the reference of glancer.jet's kernels.

This is the Jet arithmetic that evaluated scenario expressions before the
kernel generator, kept as the tests' oracle in the way ``_reference_rk4_step``
keeps the earlier numpy RK4. A ``Jet`` carries a value with its gradient and
Hessian in (x1, x2) as six fields ``(v, d1, d2, d11, d12, d22)``; arithmetic
and the functions in ``FUNCS`` push all six through the chain rule
(Griewank & Walther, *Evaluating Derivatives*, ch. 13).

``evaluate(code, x1, x2)`` evaluates a compiled expression on Python floats,
``evaluate_rows(code, X)`` on the rows of an (N, 2) array through
``ROW_FUNCS``, the numpy lifts of the same functions. Where a derivative does
not exist (``abs``, ``sqrt`` and ``hypot`` at zero) the jet carries a zero
gradient and Hessian.
"""

from __future__ import annotations

import math

import numpy as np

_NAN = float("nan")


class Jet:
    __slots__ = ("v", "d1", "d2", "d11", "d12", "d22")

    def __init__(self, v, d1=0.0, d2=0.0, d11=0.0, d12=0.0, d22=0.0):
        self.v = v
        self.d1 = d1
        self.d2 = d2
        self.d11 = d11
        self.d12 = d12
        self.d22 = d22

    def __pos__(self):
        return self

    def __neg__(self):
        return Jet(-self.v, -self.d1, -self.d2, -self.d11, -self.d12, -self.d22)

    def __add__(self, o):
        if isinstance(o, Jet):
            return Jet(
                self.v + o.v, self.d1 + o.d1, self.d2 + o.d2,
                self.d11 + o.d11, self.d12 + o.d12, self.d22 + o.d22,
            )
        return Jet(self.v + o, self.d1, self.d2, self.d11, self.d12, self.d22)

    __radd__ = __add__

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, Jet):
            a, b = self, o
            return Jet(
                a.v * b.v,
                a.d1 * b.v + a.v * b.d1,
                a.d2 * b.v + a.v * b.d2,
                a.d11 * b.v + 2.0 * a.d1 * b.d1 + a.v * b.d11,
                a.d12 * b.v + a.d1 * b.d2 + a.d2 * b.d1 + a.v * b.d12,
                a.d22 * b.v + 2.0 * a.d2 * b.d2 + a.v * b.d22,
            )
        return Jet(self.v * o, self.d1 * o, self.d2 * o, self.d11 * o, self.d12 * o, self.d22 * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            return self * _recip(o)
        return self * (1.0 / o)

    def __rtruediv__(self, o):
        return _recip(self) * o

    def __pow__(self, o):
        if isinstance(o, Jet):
            funcs = _funcs(self.v, o.v)
            return funcs["exp"](o * funcs["log"](self))
        if o == 0:
            return Jet(1.0)
        if o == 1:
            return self
        if o == 2:
            return self * self
        u = self.v
        pow_ = np.power if isinstance(u, np.ndarray) else math.pow
        return _chain(self, pow_(u, o), o * pow_(u, o - 1), o * (o - 1) * pow_(u, o - 2))

    def __rpow__(self, o):
        return _funcs(self.v)["exp"](self * math.log(o))


def _chain(a: Jet, f: float, f1: float, f2: float) -> Jet:
    """Compose a scalar function with value f, slope f1, curvature f2 at a.v."""
    d1, d2 = a.d1, a.d2
    return Jet(
        f,
        f1 * d1,
        f1 * d2,
        f1 * a.d11 + f2 * d1 * d1,
        f1 * a.d12 + f2 * d1 * d2,
        f1 * a.d22 + f2 * d2 * d2,
    )


def _recip(a: Jet) -> Jet:
    r = 1.0 / a.v
    return _chain(a, r, -r * r, 2.0 * r * r * r)


def _lift(f, slopes):
    """Extend a math function to jets; slopes(u, f(u)) gives (f'(u), f''(u))."""

    def fn(a):
        if not isinstance(a, Jet):
            return f(a)
        fu = f(a.v)
        return _chain(a, fu, *slopes(a.v, fu))

    return fn


sin = _lift(math.sin, lambda u, s: (math.cos(u), -s))
cos = _lift(math.cos, lambda u, c: (-math.sin(u), -c))
tan = _lift(math.tan, lambda u, t: (1.0 + t * t, 2.0 * t * (1.0 + t * t)))
exp = _lift(math.exp, lambda u, e: (e, e))
log = _lift(math.log, lambda u, _: (1.0 / u, -1.0 / (u * u)))
tanh = _lift(math.tanh, lambda u, t: (1.0 - t * t, -2.0 * t * (1.0 - t * t)))
sinh = _lift(math.sinh, lambda u, s: (math.cosh(u), s))
cosh = _lift(math.cosh, lambda u, c: (math.sinh(u), c))
arctan = _lift(math.atan, lambda u, _: (1.0 / (1.0 + u * u), -2.0 * u / (1.0 + u * u) ** 2))
# sqrt and abs take zero slopes at 0, where they are not differentiable
sqrt = _lift(math.sqrt, lambda u, s: (0.5 / s, -0.25 / (s * u)) if u else (0.0, 0.0))
abs_ = _lift(abs, lambda u, _: (math.copysign(1.0, u) if u else 0.0, 0.0))


def hypot(a, b):
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        return math.hypot(a, b)
    a = a if isinstance(a, Jet) else Jet(a)
    b = b if isinstance(b, Jet) else Jet(b)
    r = math.hypot(a.v, b.v)
    if r == 0.0:
        return Jet(0.0)
    return Jet(*_hypot_fields(a, b, r))


def _hypot_fields(a: Jet, b: Jet, r):
    """The six jet fields of hypot(a, b), given its value r > 0."""
    r1 = (a.v * a.d1 + b.v * b.d1) / r
    r2 = (a.v * a.d2 + b.v * b.d2) / r
    return (
        r,
        r1,
        r2,
        (a.d1 * a.d1 + a.v * a.d11 + b.d1 * b.d1 + b.v * b.d11 - r1 * r1) / r,
        (a.d1 * a.d2 + a.v * a.d12 + b.d1 * b.d2 + b.v * b.d12 - r1 * r2) / r,
        (a.d2 * a.d2 + a.v * a.d22 + b.d2 * b.d2 + b.v * b.d22 - r2 * r2) / r,
    )


FUNCS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "tanh": tanh,
    "sinh": sinh,
    "cosh": cosh,
    "arctan": arctan,
    "abs": abs_,
    "hypot": hypot,
    "pi": math.pi,
}

_GLOBALS = {"__builtins__": {}, **FUNCS}


# math.hypot rounds correctly; np.hypot (the C library's) is one ulp off on
# some 0.6 % of inputs, and the Hessian below divides that by r.
_math_hypot = np.frompyfunc(math.hypot, 2, 1)


def _hypot_rows(a, b):
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        return math.hypot(a, b)
    a = a if isinstance(a, Jet) else Jet(a)
    b = b if isinstance(b, Jet) else Jet(b)
    r = np.asarray(_math_hypot(a.v, b.v), dtype=float)
    return Jet(*(np.where(r == 0.0, 0.0, f) for f in _hypot_fields(a, b, r)))


def _sqrt_slopes(u, s):
    return np.where(u != 0.0, 0.5 / s, 0.0), np.where(u != 0.0, -0.25 / (s * u), 0.0)


ROW_FUNCS = {
    "sin": _lift(np.sin, lambda u, s: (np.cos(u), -s)),
    "cos": _lift(np.cos, lambda u, c: (-np.sin(u), -c)),
    "tan": _lift(np.tan, lambda u, t: (1.0 + t * t, 2.0 * t * (1.0 + t * t))),
    "exp": _lift(np.exp, lambda u, e: (e, e)),
    "log": _lift(np.log, lambda u, _: (1.0 / u, -1.0 / (u * u))),
    "sqrt": _lift(np.sqrt, _sqrt_slopes),
    "tanh": _lift(np.tanh, lambda u, t: (1.0 - t * t, -2.0 * t * (1.0 - t * t))),
    "sinh": _lift(np.sinh, lambda u, s: (np.cosh(u), s)),
    "cosh": _lift(np.cosh, lambda u, c: (np.sinh(u), c)),
    "arctan": _lift(np.arctan, lambda u, _: (1.0 / (1.0 + u * u), -2.0 * u / (1.0 + u * u) ** 2)),
    "abs": _lift(np.abs, lambda u, _: (np.sign(u), 0.0)),
    "hypot": _hypot_rows,
    "pi": math.pi,
}

_ROW_GLOBALS = {"__builtins__": {}, **ROW_FUNCS}


def _funcs(*values):
    """ROW_FUNCS if any of the values is an array, else FUNCS."""
    return ROW_FUNCS if any(isinstance(v, np.ndarray) for v in values) else FUNCS


def evaluate(code, x1: float, x2: float) -> Jet:
    """Jet of a compiled expression in x1, x2 at the point (x1, x2).

    An expression that does not use the variables, such as ``"0"``, gives a
    constant jet. Arithmetic that fails (division by zero, a logarithm of a
    negative number, overflow) gives an all-NaN jet, as the numpy evaluation
    of the same expression gives NaN or infinity there.
    """
    env = {"x1": Jet(float(x1), 1.0), "x2": Jet(float(x2), 0.0, 1.0)}
    try:
        out = eval(code, _GLOBALS, env)
    except (ArithmeticError, ValueError):
        return Jet(_NAN, _NAN, _NAN, _NAN, _NAN, _NAN)
    return out if isinstance(out, Jet) else Jet(float(out))


def evaluate_rows(code, X: np.ndarray) -> Jet:
    """Jet of a compiled expression at every row of an (N, 2) array X.

    Each of the six fields is an array of N values. Where the scalar
    ``evaluate`` gives its all-NaN jet, the row is all NaN: any row with a
    non-finite field (division by zero, a logarithm of a negative number,
    overflow) is set to NaN in all six. Arithmetic that fails for every row
    at once, as on constants, makes every row NaN.
    """
    X = np.asarray(X, dtype=float)
    out = np.empty((6, len(X)))
    env = {"x1": Jet(X[:, 0], 1.0), "x2": Jet(X[:, 1], 0.0, 1.0)}
    with np.errstate(all="ignore"):
        try:
            j = eval(code, _ROW_GLOBALS, env)
        except (ArithmeticError, ValueError):
            out.fill(_NAN)
            return Jet(*out)
    if not isinstance(j, Jet):
        j = Jet(j)
    for k, f in enumerate((j.v, j.d1, j.d2, j.d11, j.d12, j.d22)):
        out[k] = f
    out[:, ~np.isfinite(out).all(axis=0)] = _NAN
    return Jet(*out)
