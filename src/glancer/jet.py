"""The expression language of scenarios, and the jets of its expressions.

This module owns the language of every scenario expression: an expression
wall's ``phi`` and an expression metric's entries, in ``x1`` and ``x2``,
and the potential and the ``gcc`` observation region, in ``t``, ``x1`` and
``x2``. The grammar is numbers, the slot's variables, ``pi``, unary ``+``
and ``-``, ``+ - * / **`` and calls of ``FUNCS`` with their arity. One
walker of the syntax tree checks all four slots: anything else, a constant
that is not real, and an integer constant past the float range (an integer
power is sized before it is computed) is a ``ValidationError``.

``function(expr, names)`` is the checked tree compiled as a lambda of the
names over numpy's functions (``hypot`` is the C library's ``np.hypot``),
so floats, numpy scalars and arrays take the arithmetic of evaluating the
text in numpy's namespace, bit for bit.

A jet is a value with its gradient and Hessian in (x1, x2), the six
``FIELDS`` ``(v, d1, d2, d11, d12, d22)``. ``kernel(exprs, fields)`` is one
Python function of the point pair x that returns the chosen fields of every
expression's jet, field by field. The walker writes the chain rule of each
operation out on floats, one operation a line, and compiles that source
once: forward mode by source transformation (Griewank & Walther,
*Evaluating Derivatives*, ch. 13 and 15). Each rule takes the operands it
always took, in the same order, so a kernel gives the bits of evaluating
each expression on jet objects. The one change is that an operation whose
operands are all known when the kernel is built (numbers, ``pi``, the seed
derivatives 1 and 0 and what follows from them alone) is done then: the
same IEEE operation, done earlier, so an expression in neither x1 nor x2
writes no line. Kernels take ``hypot`` from ``math.hypot``.

Where a derivative does not exist (``abs``, ``sqrt`` and ``hypot`` at zero),
the jet carries a zero gradient and a zero Hessian, the value a symmetric
central difference gives there. Arithmetic that fails (division by zero, a
logarithm of a negative number, overflow) gives that expression an all-NaN
jet, as the numpy evaluation of the same expression gives NaN or infinity.

``row_kernel(exprs, fields)`` is the same generator bound to the numpy
lifts of the functions, on every row of an (N, 2) array at once; a row
with a non-finite field anywhere in an expression's jet, value included, is
NaN in all that expression's fields. Its rows agree with the pointwise
kernel to the last bit or two where numpy's functions do not give the math
module's bits.

The generated source holds only names the generator made and ``repr``'d
numbers, never text of the expression. A process keeps each function per
text and names, and each kernel per expressions and fields.
"""

from __future__ import annotations

import ast
import math
import operator
import sys

import numpy as np

from .errors import ValidationError

_NAN = float("nan")

# the functions of scenario expressions, with their number of arguments
FUNCS = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "tanh": 1,
    "sinh": 1,
    "cosh": 1,
    "arctan": 1,
    "abs": 1,
    "hypot": 2,
}

# what a name of an expression's value is: numpy's functions, and pi
_NUMPY = {**{name: getattr(np, name) for name in FUNCS}, "pi": np.pi}

# the variables of a wall or a metric entry, the two that seed jets
_XY = ("x1", "x2")


# math.hypot rounds correctly; np.hypot (the C library's) is one ulp off on
# some 0.6 % of inputs, and the Hessian divides that by r.
_math_hypot = np.frompyfunc(math.hypot, 2, 1)


def _hypot_rows(a, b):
    return np.asarray(_math_hypot(a, b), dtype=float)


# What a kernel calls, by the name it is written under: "p_" on floats,
# "r_" on rows. A row kernel calls the float functions where the jet
# arithmetic it transcribes does (the exponent of a power, and both
# arguments of hypot constant).
_POINT = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "tanh": math.tanh,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "arctan": math.atan,
    "abs": abs,
    "hypot": math.hypot,
    "pow": math.pow,
    "copysign": math.copysign,
    "float": float,
}
_ROWS = {
    **{name: getattr(np, name) for name in FUNCS if name != "hypot"},
    "hypot": math.hypot,
    "hypot_r": _hypot_rows,
    "pow": np.power,
    "where": np.where,
    "sign": np.sign,
}
_GLOBALS = {
    "__builtins__": {},
    "_errors": (ArithmeticError, ValueError),
    "_nan": _NAN,
    **{"p_" + name: f for name, f in _POINT.items()},
    **{"r_" + name: f for name, f in _ROWS.items()},
}


def _power(a, b):
    """a ** b; for an integer power of at least 2 ** 1025, which lit refuses,
    that bound, not computed."""
    if type(a) is int and type(b) is int and b > 0 and b * (abs(a).bit_length() - 1) > 1024:
        return 1 << 1025
    return a**b


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "**": _power,
    "==": operator.eq,
    "!=": operator.ne,
}


class _Lit:
    """A value known when the kernel is built."""

    __slots__ = ("val",)

    def __init__(self, val):
        self.val = val


# An atom is a _Lit or the name of a variable of the kernel. A node of the
# expression is a constant, one atom, or a jet, a tuple of six atoms.
_ZERO, _ONE, _TWO = _Lit(0.0), _Lit(1.0), _Lit(2.0)
_X1 = ("x1", _ONE, _ZERO, _ZERO, _ZERO, _ZERO)
_X2 = ("x2", _ZERO, _ONE, _ZERO, _ZERO, _ZERO)


def _is_jet(node) -> bool:
    return isinstance(node, tuple)


class _Writer:
    """Writes one kernel: each operation is folded now or written out a line.
    The expressions it walks share its name counter and its constants."""

    def __init__(self, rows: bool, names: tuple[str, ...] = _XY):
        self.rows = rows
        self.names = names
        self.expr = ""
        self.lines: list[str] = []
        self.indent = " " * 8
        self.consts: dict[str, object] = {}
        self.count = 0

    def walk(self, expr: str):
        """The checked syntax tree of expr, and its node: a jet, or a
        constant for an expression in neither x1 nor x2."""
        self.expr = expr
        try:
            tree = ast.parse(expr, mode="eval")
        except SyntaxError as exc:
            raise ValidationError(f"expression {expr!r} is not valid syntax: {exc.msg}") from exc
        return tree, self.node(tree.body)

    def fresh(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def src(self, a) -> str:
        if isinstance(a, str):
            return a
        v = a.val
        if (type(v) is float and math.isfinite(v)) or (type(v) is int and v.bit_length() < 64):
            text = repr(v)
            return f"({text})" if text.startswith("-") else text
        name = f"c{len(self.consts)}"
        self.consts[name] = v
        return name

    def is_array(self, a) -> bool:
        """Whether a is a numpy array when a row kernel runs: the test by
        which the jet arithmetic takes numpy's functions over the math
        module's."""
        return self.rows and (isinstance(a, str) or isinstance(a.val, np.ndarray))

    def lit(self, v) -> _Lit:
        if isinstance(v, complex):
            raise ValidationError(f"expression {self.expr!r} has a constant that is not real")
        if type(v) is int and abs(v) > sys.float_info.max:
            raise ValidationError(f"expression {self.expr!r} has an integer past the float range")
        return _Lit(v)

    def emit(self, text: str) -> str:
        name = self.fresh()
        self.lines.append(f"{self.indent}{name} = {text}")
        return name

    def fold(self, fn, args, text):
        """fn(*args) now if every argument is known, else the line ``text()``.

        An operation that fails now fails again when the kernel runs, which
        then gives the all-NaN jet, so it is written out.
        """
        if all(isinstance(a, _Lit) for a in args):
            try:
                with np.errstate(all="ignore"):
                    return self.lit(fn(*(a.val for a in args)))
            except (ArithmeticError, ValueError):
                pass
        return self.emit(text())

    def op(self, a, sym: str, b):
        return self.fold(_OPS[sym], (a, b), lambda: f"{self.src(a)} {sym} {self.src(b)}")

    def neg(self, a):
        return self.fold(operator.neg, (a,), lambda: f"-{self.src(a)}")

    def add(self, *terms):
        """The sum of the terms, taken left to right."""
        out = terms[0]
        for t in terms[1:]:
            out = self.op(out, "+", t)
        return out

    def mul(self, *factors):
        """The product of the factors, taken left to right."""
        out = factors[0]
        for f in factors[1:]:
            out = self.op(out, "*", f)
        return out

    def div(self, a, b):
        return self.op(a, "/", b)

    def call(self, name: str, *args, rows: bool | None = None):
        rows = self.rows if rows is None else rows
        table, prefix = (_ROWS, "r_") if rows else (_POINT, "p_")
        return self.fold(
            table[name], args, lambda: f"{prefix}{name}({', '.join(map(self.src, args))})"
        )

    def branch(self, cond, then, other):
        """then() where cond holds, else other(); each gives a tuple of atoms.

        Decided now for a known cond, else written as an if statement whose
        two arms assign the same names.
        """
        if isinstance(cond, _Lit):
            return then() if cond.val else other()
        names = None
        self.lines.append(f"{self.indent}if {self.src(cond)}:")
        for arm, head in ((then, None), (other, "else:")):
            if head:
                self.lines.append(f"{self.indent}{head}")
            self.indent += "    "
            out = arm()
            names = names or tuple(self.fresh() for _ in out)
            for name, a in zip(names, out):
                self.lines.append(f"{self.indent}{name} = {self.src(a)}")
            self.indent = self.indent[:-4]
        return names

    # -- the syntax tree ---------------------------------------------------

    def node(self, t):
        """The node of the syntax tree t: the one check of the grammar.

        x1 and x2 seed jets; another variable of the slot (t) is a plain
        operand, written under its own name.
        """
        if isinstance(t, ast.Constant):
            if type(t.value) in (int, float, complex):
                return self.lit(t.value)
        elif isinstance(t, ast.Name):
            if t.id == "pi":
                return _Lit(math.pi)
            if t.id in self.names:
                return {"x1": _X1, "x2": _X2}.get(t.id, t.id)
        elif isinstance(t, ast.UnaryOp) and isinstance(t.op, (ast.UAdd, ast.USub)):
            a = self.node(t.operand)
            return a if isinstance(t.op, ast.UAdd) else _neg(self, a)
        elif isinstance(t, ast.BinOp) and type(t.op) in _BINOPS:
            return _BINOPS[type(t.op)](self, self.node(t.left), self.node(t.right))
        elif isinstance(t, ast.Call) and isinstance(t.func, ast.Name) and t.func.id in FUNCS:
            name = t.func.id
            if t.keywords or len(t.args) != FUNCS[name] or any(
                isinstance(a, ast.Starred) for a in t.args
            ):
                raise ValidationError(
                    f"{name} takes {FUNCS[name]} positional argument(s), in expression "
                    f"{self.expr!r}"
                )
            args = [self.node(a) for a in t.args]
            return _hypot(self, *args) if name == "hypot" else _lift(self, name, args[0])
        raise ValidationError(
            f"unsupported syntax {ast.unparse(t)!r} in expression {self.expr!r}: only numbers, "
            f"{', '.join(self.names)}, pi, unary + and -, + - * / ** and calls of "
            f"{sorted(FUNCS)} are allowed"
        )


# -- the chain rule of each operation, as the jet arithmetic takes it -------


def _neg(w, a):
    return tuple(w.neg(p) for p in a) if _is_jet(a) else w.neg(a)


def _add(w, a, b):
    if _is_jet(a) and _is_jet(b):
        return tuple(w.add(p, q) for p, q in zip(a, b))
    if _is_jet(a):
        return (w.add(a[0], b), *a[1:])
    if _is_jet(b):
        return (w.add(b[0], a), *b[1:])
    return w.add(a, b)


def _sub(w, a, b):
    if _is_jet(b):
        return _add(w, a, _neg(w, b)) if _is_jet(a) else _add(w, _neg(w, b), a)
    return _add(w, a, w.neg(b)) if _is_jet(a) else w.op(a, "-", b)


def _mul(w, a, b):
    if _is_jet(a) and _is_jet(b):
        av, a1, a2, a11, a12, a22 = a
        bv, b1, b2, b11, b12, b22 = b
        m = w.mul
        return (
            m(av, bv),
            w.add(m(a1, bv), m(av, b1)),
            w.add(m(a2, bv), m(av, b2)),
            w.add(m(a11, bv), m(_TWO, a1, b1), m(av, b11)),
            w.add(m(a12, bv), m(a1, b2), m(a2, b1), m(av, b12)),
            w.add(m(a22, bv), m(_TWO, a2, b2), m(av, b22)),
        )
    if _is_jet(a):
        return tuple(w.mul(p, b) for p in a)
    if _is_jet(b):
        return tuple(w.mul(p, a) for p in b)
    return w.mul(a, b)


def _div(w, a, b):
    if _is_jet(b):
        return _mul(w, a, _recip(w, b)) if _is_jet(a) else _mul(w, _recip(w, b), a)
    return _mul(w, a, w.div(_ONE, b)) if _is_jet(a) else w.div(a, b)


def _pow(w, a, b):
    if _is_jet(a) and _is_jet(b):
        rows = w.is_array(a[0]) or w.is_array(b[0])
        return _lift(w, "exp", _mul(w, b, _lift(w, "log", a, rows)), rows)
    if _is_jet(b):
        return _lift(w, "exp", _mul(w, b, w.call("log", a, rows=False)), w.is_array(b[0]))
    if not _is_jet(a):
        return w.op(a, "**", b)
    if isinstance(b, _Lit):
        if b.val == 0:
            return (_ONE, _ZERO, _ZERO, _ZERO, _ZERO, _ZERO)
        if b.val == 1:
            return a
        if b.val == 2:
            return _mul(w, a, a)
    u = a[0]

    def power(k):
        """u ** (b - k), through math.pow or np.power as u is a float or an array."""
        return w.call("pow", u, w.op(b, "-", _Lit(k)) if k else b, rows=w.is_array(u))

    return _chain(w, a, power(0), w.mul(b, power(1)), w.mul(b, w.op(b, "-", _Lit(1)), power(2)))


_BINOPS = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div, ast.Pow: _pow}


def _chain(w, a, f, f1, f2):
    """Compose a scalar function with value f, slope f1, curvature f2 at a's value."""
    _, d1, d2, d11, d12, d22 = a
    m = w.mul
    return (
        f,
        m(f1, d1),
        m(f1, d2),
        w.add(m(f1, d11), m(f2, d1, d1)),
        w.add(m(f1, d12), m(f2, d1, d2)),
        w.add(m(f1, d22), m(f2, d2, d2)),
    )


def _recip(w, a):
    r = w.div(_ONE, a[0])
    return _chain(w, a, r, w.mul(w.neg(r), r), w.mul(_TWO, r, r, r))


def _slopes(w, name, u, fu, rows):
    """(f'(u), f''(u)) of a function in FUNCS with value fu at u."""
    m = w.mul

    def call(fn, *args):
        return w.call(fn, *args, rows=rows)

    if name in ("sin", "cos"):
        other = call("cos" if name == "sin" else "sin", u)
        return (other if name == "sin" else w.neg(other)), w.neg(fu)
    if name in ("sinh", "cosh"):
        return call("cosh" if name == "sinh" else "sinh", u), fu
    if name == "exp":
        return fu, fu
    if name == "log":
        return w.div(_ONE, u), w.div(_Lit(-1.0), m(u, u))
    if name == "tan":
        f1 = w.add(_ONE, m(fu, fu))
        return f1, m(_TWO, fu, f1)
    if name == "tanh":
        f1 = w.op(_ONE, "-", m(fu, fu))
        return f1, m(_Lit(-2.0), fu, f1)
    if name == "arctan":
        q = w.add(_ONE, m(u, u))
        return w.div(_ONE, q), w.div(m(_Lit(-2.0), u), w.op(q, "**", _Lit(2)))
    # sqrt and abs take zero slopes at 0, where they are not differentiable
    if name == "sqrt":
        if rows:
            nonzero = w.op(u, "!=", _ZERO)
            return (
                call("where", nonzero, w.div(_Lit(0.5), fu), _ZERO),
                call("where", nonzero, w.div(_Lit(-0.25), m(fu, u)), _ZERO),
            )
        return w.branch(
            u,
            lambda: (w.div(_Lit(0.5), fu), w.div(_Lit(-0.25), m(fu, u))),
            lambda: (_ZERO, _ZERO),
        )
    if rows:
        return call("sign", u), _ZERO
    return w.branch(u, lambda: (call("copysign", _ONE, u),), lambda: (_ZERO,))[0], _ZERO


def _lift(w, name, a, rows=None):
    """A function of FUNCS at a constant, or its chain rule at a jet."""
    rows = w.rows if rows is None else rows
    if not _is_jet(a):
        return w.call(name, a, rows=rows)
    fu = w.call(name, a[0], rows=rows)
    return _chain(w, a, fu, *_slopes(w, name, a[0], fu, rows))


def _hypot(w, a, b):
    if not _is_jet(a) and not _is_jet(b):
        return w.call("hypot", a, b)
    a = a if _is_jet(a) else (a, _ZERO, _ZERO, _ZERO, _ZERO, _ZERO)
    b = b if _is_jet(b) else (b, _ZERO, _ZERO, _ZERO, _ZERO, _ZERO)
    if w.rows:
        r = w.call("hypot_r", a[0], b[0])
        fields = _hypot_fields(w, a, b, r)
        zero = w.op(r, "==", _ZERO)
        return tuple(w.call("where", zero, _ZERO, f) for f in fields)
    r = w.call("hypot", a[0], b[0])
    return w.branch(
        w.op(r, "==", _ZERO), lambda: (_ZERO,) * 6, lambda: _hypot_fields(w, a, b, r)
    )


def _hypot_fields(w, a, b, r):
    """The six jet fields of hypot(a, b), given its value r > 0."""
    av, a1, a2, a11, a12, a22 = a
    bv, b1, b2, b11, b12, b22 = b
    m = w.mul
    r1 = w.div(w.add(m(av, a1), m(bv, b1)), r)
    r2 = w.div(w.add(m(av, a2), m(bv, b2)), r)

    def second(pa, qa, aa, pb, qb, bb, rp, rq):
        s = w.add(m(pa, qa), m(av, aa), m(pb, qb), m(bv, bb))
        return w.div(w.op(s, "-", m(rp, rq)), r)

    return (
        r,
        r1,
        r2,
        second(a1, a1, a11, b1, b1, b11, r1, r1),
        second(a1, a2, a12, b1, b2, b12, r1, r2),
        second(a2, a2, a22, b2, b2, b22, r2, r2),
    )


# -- building ---------------------------------------------------------------

# the fields of a jet, by the names a kernel chooses them with
FIELDS = ("v", "d1", "d2", "d11", "d12", "d22")

_KERNELS: dict[tuple, object] = {}
_FUNCTIONS: dict[tuple[str, tuple[str, ...]], object] = {}


def _build(exprs: tuple[str, ...], fields: tuple[str, ...], rows: bool):
    """The kernel of exprs: the point pair x (rows: x = X.T of an (N, 2)
    array X) -> the chosen fields of every expression's jet, field by field.

    An expression that writes lines runs them in a try of its own, whose
    failure makes its fields NaN; its fields are then names it made. A row
    kernel writes all six fields, the chosen first, and masks rows on all.
    """
    order = fields + tuple(f for f in FIELDS if f not in fields) if rows else fields
    w = _Writer(rows)
    body, jets = [], []
    for expr in exprs:
        w.lines = []
        out = w.walk(expr)[1]
        if not _is_jet(out):
            out = (w.call("float", out, rows=False), _ZERO, _ZERO, _ZERO, _ZERO, _ZERO)
        out = [out[FIELDS.index(f)] for f in order]
        if w.lines:
            out = [a if isinstance(a, str) and a not in _XY else w.emit(w.src(a)) for a in out]
            failed = " = ".join(dict.fromkeys(out))
            body += ["    try:", *w.lines, "    except _errors:", f"        {failed} = _nan"]
        jets.append(out)
    returned = ", ".join(w.src(a) for field in zip(*jets) for a in field)
    head = ("x1 = x[0]", "x2 = x[1]") if rows else ("x1 = p_float(x[0])", "x2 = p_float(x[1])")
    source = ["def kernel(x):", *("    " + h for h in head), *body, f"    return ({returned},)"]
    namespace = {**_GLOBALS, **w.consts}
    exec(compile("\n".join(source), "<jet kernel>", "exec"), namespace)
    fn = namespace["kernel"]
    if not rows:
        return fn
    n, k = len(exprs), len(fields)

    def on_rows(X):
        X = np.asarray(X, dtype=float)
        out = np.empty((6, n, len(X)))
        with np.errstate(all="ignore"):
            for i, f in enumerate(fn(X.T)):
                out[divmod(i, n)] = f
        out[:, ~np.isfinite(out).all(axis=0)] = _NAN
        return out[:k].reshape(k * n, len(X))

    return on_rows


def _memo(*key):
    fn = _KERNELS.get(key)
    if fn is None:
        fn = _KERNELS[key] = _build(*key)
    return fn


def kernel(exprs: tuple[str, ...], fields: tuple[str, ...]):
    """The jets of exprs in x1, x2 as one function of the point pair x:
    kernel(exprs, fields)(x) gives each chosen field (of ``FIELDS``) of every
    expression as a float, field by field.

    Built once per expressions and fields; raises ValidationError for
    syntax outside the grammar (see the module docstring).
    """
    return _memo(tuple(exprs), tuple(fields), False)


def row_kernel(exprs: tuple[str, ...], fields: tuple[str, ...]):
    """The jets of exprs at every row of an (N, 2) array X: row_kernel(exprs,
    fields)(X) gives a (len(fields) * len(exprs), N) array in the order of
    ``kernel``'s floats, a row NaN in all of an expression's fields where
    its jet there, value included, is not finite.
    """
    return _memo(tuple(exprs), tuple(fields), True)


def function(expr: str, names: tuple[str, ...]):
    """The value of expr as a function of its slot's variables: function(expr,
    names)(*values), the values in the order of names.

    The expression's checked syntax tree compiled as a lambda over numpy's
    functions, so Python floats, numpy scalars and arrays take the
    arithmetic of evaluating the text with numpy's functions, bit for bit.
    Built once per expression text and names; raises ValidationError for
    syntax outside the grammar (see the module docstring).
    """
    fn = _FUNCTIONS.get((expr, names))
    if fn is None:
        tree = _Writer(False, names).walk(expr)[0]
        args = ast.arguments(
            posonlyargs=[], args=[ast.arg(n) for n in names], kwonlyargs=[], kw_defaults=[],
            defaults=[],
        )
        tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(args, tree.body)))
        code = compile(tree, "<scenario expression>", "eval")
        fn = _FUNCTIONS[expr, names] = eval(code, {"__builtins__": {}, **_NUMPY})
    return fn


def power_of_variables(expr: str) -> bool:
    """Whether expr has a ``**`` with an operand that names x1 or x2: a
    power that numpy takes by other routines on an array than on a scalar.
    For an expression that ``function`` has checked."""
    return any(
        isinstance(t, ast.BinOp)
        and isinstance(t.op, ast.Pow)
        and any(isinstance(n, ast.Name) and n.id in _XY for n in ast.walk(t))
        for t in ast.walk(ast.parse(expr, mode="eval"))
    )
