"""Second-order forward-mode jets in two variables.

A ``Jet`` carries a value with its gradient and Hessian in (x1, x2) as six
plain floats ``(v, d1, d2, d11, d12, d22)``. Arithmetic and the functions in
``FUNCS`` push all six through the chain rule, so evaluating a scenario
expression on the two seed jets gives its exact first and second
derivatives (Griewank & Walther, *Evaluating Derivatives*, ch. 13).

``FUNCS`` mirrors the restricted namespace of scenario expressions. Where a
derivative does not exist (``abs``, ``sqrt`` and ``hypot`` at zero), the jet
carries a zero gradient and a zero Hessian, the value a symmetric central
difference gives there.
"""

from __future__ import annotations

import math

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
            return exp(o * log(self))
        if o == 0:
            return Jet(1.0)
        if o == 1:
            return self
        if o == 2:
            return self * self
        u = self.v
        return _chain(
            self, math.pow(u, o), o * math.pow(u, o - 1), o * (o - 1) * math.pow(u, o - 2)
        )

    def __rpow__(self, o):
        return exp(self * math.log(o))


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
    r1 = (a.v * a.d1 + b.v * b.d1) / r
    r2 = (a.v * a.d2 + b.v * b.d2) / r
    return Jet(
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
