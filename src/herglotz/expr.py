"""Expression trees over the chart coordinates (q1..qn, v1..vn, z).

Every scalar field in this package (Lagrangians, Hamiltonians, action
functions, form and vector-field components) is an immutable ``Expr`` tree
over the coordinates ``q1..qn``, ``v1..vn``, ``z`` and named parameters.
The module provides parsing, canonical printing, exact symbolic
differentiation, substitution, pointwise and vectorized evaluation, and
first/second derivative jets.  Only light simplification is performed on
construction (constant folding, 0/1 elimination); there is no attempt at
canonical forms.

Grammar accepted by :func:`parse` (whitespace insignificant, numbers are
decimal with an optional exponent)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" integer)?
    unary  := "-" unary | atom
    atom   := number | ident | func "(" expr ")" | "(" expr ")"
    func   := "sin"|"cos"|"exp"|"log"|"sqrt"|"tanh"
    ident  := "q"digits | "v"digits | "z" | parameter-name
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Coord", "Param", "Call", "BinOp", "IntPow",
    "StatePoint", "ParamSet",
    "ExprError", "ParseError", "EvalError", "UnboundParameterError", "DomainError",
    "parse", "unparse", "differentiate", "substitute", "depends_on",
    "evaluate", "evaluate_many", "eval_jet2", "gradient", "hessian",
    "compile_components",
    "coords", "coord", "q", "v", "z", "param", "const",
    "add", "sub", "mul", "div", "neg", "intpow",
    "sin", "cos", "exp", "log", "sqrt", "tanh",
    "det_expr", "solve_cramer", "merge_params",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")

ParamSet = Mapping[str, float]


class ExprError(ValueError):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Base class for evaluation failures."""


class UnboundParameterError(EvalError):
    pass


class DomainError(EvalError):
    """log/sqrt of a negative number, division by zero, overflow."""


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Expr:
    """Base node. All nodes are immutable and safe to share."""

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, exponent: int):
        return intpow(self, exponent)

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return unparse(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Coord(Expr):
    kind: str        # "q", "v" or "z"
    index: int = 0   # 1-based for q/v, unused for z


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Call(Expr):
    fn: str          # one of FUNCTIONS or "neg"
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str          # "+", "-", "*", "/"
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class IntPow(Expr):
    base: Expr
    exponent: int


# ---------------------------------------------------------------------------
# Smart constructors (light simplification only: constant folding and
# 0/1 elimination; deliberately no canonical forms)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def const(value: float) -> Const:
    return Const(float(value))


def q(i: int) -> Coord:
    return Coord("q", i)


def v(i: int) -> Coord:
    return Coord("v", i)


def z() -> Coord:
    return Coord("z")


def param(name: str) -> Param:
    return Param(name)


def coord(name: str) -> Coord:
    """Coordinate from its textual name: "q1", "v2" or "z"."""
    if name == "z":
        return Coord("z")
    m = re.fullmatch(r"([qv])(\d+)", name)
    if not m:
        raise ValueError(f"not a coordinate name: {name!r}")
    return Coord(m.group(1), int(m.group(2)))


def coords(n: int) -> tuple[Coord, ...]:
    """Chart coordinates in canonical order (q1..qn, v1..vn, z)."""
    return tuple(Coord("q", i) for i in range(1, n + 1)) + \
        tuple(Coord("v", i) for i in range(1, n + 1)) + (Coord("z"),)


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def add(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def div(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    # 0/x -> 0: standard light simplification (0/0 ceases to be an error)
    if _is_const(a, 0.0):
        return Const(0.0)
    return BinOp("/", a, b)


def neg(a) -> Expr:
    a = as_expr(a)
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Call) and a.fn == "neg":
        return a.arg
    return Call("neg", a)


def intpow(base, exponent: int) -> Expr:
    base = as_expr(base)
    if isinstance(exponent, bool) or not isinstance(exponent, int):
        raise ExprError(f"integer exponent required, got {exponent!r}")
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Const) and (base.value != 0.0 or exponent > 0):
        try:
            return Const(base.value ** exponent)
        except OverflowError:
            pass  # leave unfolded; evaluation raises with a location
    return IntPow(base, exponent)


def _make_call(fn: str):
    def build(a) -> Expr:
        a = as_expr(a)
        if isinstance(a, Const):
            try:
                return Const(_APPLY[fn](a.value))
            except (ValueError, OverflowError, ZeroDivisionError):
                pass  # leave unfolded; evaluation will raise with a location
        return Call(fn, a)
    build.__name__ = fn
    return build


_APPLY: dict[str, Callable[[float], float]] = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "log": math.log, "sqrt": math.sqrt, "tanh": math.tanh,
    "neg": lambda x: -x,
}

sin = _make_call("sin")
cos = _make_call("cos")
exp = _make_call("exp")
log = _make_call("log")
sqrt = _make_call("sqrt")
tanh = _make_call("tanh")

_BUILDERS = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt,
             "tanh": tanh}


# ---------------------------------------------------------------------------
# Parsing


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        if not text.strip():
            raise ParseError("empty expression", 0)
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        e = self.unary()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            e = intpow(e, self.integer())
        return e

    def integer(self) -> int:
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "number":
            raise ParseError("expected an integer exponent", pos)
        if not re.fullmatch(r"\d+", text):
            raise ParseError(f"exponent must be an integer, got {text!r}", pos)
        self.advance()
        return sign * int(text)

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return neg(self.unary())
        return self.atom()

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "number":
            return Const(float(text))
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in _BUILDERS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                e = self.expr()
                self.expect_op(")")
                return _BUILDERS[text](e)
            return self.ident(text, pos)
        raise ParseError(f"unexpected token {text!r}", pos)

    def ident(self, text: str, pos: int) -> Expr:
        if text == "z":
            return Coord("z")
        m = re.fullmatch(r"([qv])(\d+)", text)
        if m:
            index = int(m.group(2))
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"coordinate index out of range: {text!r} with n={self.n}", pos)
            return Coord(m.group(1), index)
        return Param(text)


def parse(text: str, n: int) -> Expr:
    """Parse an expression over the chart of dimension ``n``."""
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# Printing (canonical serializer; parse(unparse(e)) == e)


def _fmt_number(value: float) -> str:
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _is_atomic(e: Expr) -> bool:
    # operands that reparse unchanged without parentheses after a unary
    # minus ("-x") and as the base of a power ("x^k")
    return isinstance(e, (Coord, Param)) or \
        (isinstance(e, Const) and e.value >= 0) or \
        (isinstance(e, Call) and e.fn != "neg")


def _un(e: Expr, ctx: int) -> str:
    if isinstance(e, Const):
        s = _fmt_number(e.value)
        return s if e.value >= 0 or ctx <= 1 else f"({s})"
    if isinstance(e, Coord):
        return e.kind if e.kind == "z" else f"{e.kind}{e.index}"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Call):
        if e.fn == "neg":
            inner = _un(e.arg, 0)
            s = f"-{inner}" if _is_atomic(e.arg) else f"-({inner})"
            return s if ctx <= 2 else f"({s})"
        return f"{e.fn}({_un(e.arg, 0)})"
    if isinstance(e, IntPow):
        base = _un(e.base, 0)
        if not _is_atomic(e.base):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        sep = f" {e.op} " if p == 1 else e.op
        s = f"{_un(e.lhs, p)}{sep}{_un(e.rhs, p + 1)}"
        return s if p >= ctx else f"({s})"
    raise TypeError(f"not an Expr node: {e!r}")


def unparse(e: Expr) -> str:
    return _un(e, 0)


# ---------------------------------------------------------------------------
# Differentiation and substitution


def _as_var(var: Union[Coord, str]) -> Coord:
    return var if isinstance(var, Coord) else coord(var)


@lru_cache(maxsize=None)
def _diff(e: Expr, var: Coord) -> Expr:
    if isinstance(e, Const) or isinstance(e, Param):
        return Const(0.0)
    if isinstance(e, Coord):
        return Const(1.0) if e == var else Const(0.0)
    if isinstance(e, Call):
        da = _diff(e.arg, var)
        a = e.arg
        if e.fn == "neg":
            return neg(da)
        if e.fn == "sin":
            return mul(cos(a), da)
        if e.fn == "cos":
            return neg(mul(sin(a), da))
        if e.fn == "exp":
            return mul(e, da)
        if e.fn == "log":
            return div(da, a)
        if e.fn == "sqrt":
            return div(da, mul(2.0, e))
        if e.fn == "tanh":
            return mul(sub(1.0, intpow(e, 2)), da)
        raise ExprError(f"unknown function {e.fn!r}")
    if isinstance(e, BinOp):
        dl, dr = _diff(e.lhs, var), _diff(e.rhs, var)
        if e.op == "+":
            return add(dl, dr)
        if e.op == "-":
            return sub(dl, dr)
        if e.op == "*":
            return add(mul(dl, e.rhs), mul(e.lhs, dr))
        if e.op == "/":
            return div(sub(mul(dl, e.rhs), mul(e.lhs, dr)), intpow(e.rhs, 2))
        raise ExprError(f"unknown operator {e.op!r}")
    if isinstance(e, IntPow):
        db = _diff(e.base, var)
        return mul(mul(float(e.exponent), intpow(e.base, e.exponent - 1)), db)
    raise TypeError(f"not an Expr node: {e!r}")


def differentiate(e: Expr, var: Union[Coord, str]) -> Expr:
    """Exact symbolic partial derivative with respect to a coordinate."""
    return _diff(e, _as_var(var))


def substitute(e: Expr, target: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of a Coord/Param leaf by an expression."""
    if not isinstance(target, (Coord, Param)):
        raise ExprError("substitution target must be a coordinate or parameter")
    replacement = as_expr(replacement)

    def walk(node: Expr) -> Expr:
        if node == target:
            return replacement
        if isinstance(node, Call):
            arg = walk(node.arg)
            if node.fn == "neg":
                return neg(arg)
            return _BUILDERS[node.fn](arg)
        if isinstance(node, BinOp):
            lhs, rhs = walk(node.lhs), walk(node.rhs)
            return {"+": add, "-": sub, "*": mul, "/": div}[node.op](lhs, rhs)
        if isinstance(node, IntPow):
            return intpow(walk(node.base), node.exponent)
        return node

    return walk(e)


def depends_on(e: Expr, target: Expr) -> bool:
    """Structural check: does the tree reference the given Coord/Param leaf?"""
    if e == target:
        return True
    if isinstance(e, Call):
        return depends_on(e.arg, target)
    if isinstance(e, BinOp):
        return depends_on(e.lhs, target) or depends_on(e.rhs, target)
    if isinstance(e, IntPow):
        return depends_on(e.base, target)
    return False


def max_coord_index(e: Expr) -> int:
    if isinstance(e, Coord):
        return e.index
    if isinstance(e, Call):
        return max_coord_index(e.arg)
    if isinstance(e, BinOp):
        return max(max_coord_index(e.lhs), max_coord_index(e.rhs))
    if isinstance(e, IntPow):
        return max_coord_index(e.base)
    return 0


# ---------------------------------------------------------------------------
# State points and evaluation


@dataclass(frozen=True, eq=False)
class StatePoint:
    """A chart point (q, v, z).

    ``v`` carries the velocities on the Lagrangian side and the momenta on
    the Hamiltonian side.
    """

    q: np.ndarray
    v: np.ndarray
    z: float

    def __post_init__(self):
        qa = np.asarray(self.q, dtype=float).reshape(-1)
        va = np.asarray(self.v, dtype=float).reshape(-1)
        if qa.shape != va.shape:
            raise ValueError("q and v must have the same length")
        zf = float(self.z)
        if not (np.all(np.isfinite(qa)) and np.all(np.isfinite(va))
                and math.isfinite(zf)):
            raise ValueError("state point entries must be finite")
        object.__setattr__(self, "q", qa)
        object.__setattr__(self, "v", va)
        object.__setattr__(self, "z", zf)

    @property
    def n(self) -> int:
        return len(self.q)

    def coords(self) -> np.ndarray:
        """Flat coordinates in canonical order (q1..qn, v1..vn, z)."""
        return np.concatenate([self.q, self.v, [self.z]])

    @classmethod
    def from_coords(cls, flat: Sequence[float], n: int) -> "StatePoint":
        flat = np.asarray(flat, dtype=float).reshape(-1)
        if len(flat) != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} coordinates, got {len(flat)}")
        return cls(flat[:n], flat[n:2 * n], flat[2 * n])

    def __repr__(self) -> str:
        return f"StatePoint(q={self.q.tolist()}, v={self.v.tolist()}, z={self.z})"


def merge_params(*param_sets: ParamSet) -> dict[str, float]:
    """Union of parameter maps; conflicting rebindings are rejected."""
    merged: dict[str, float] = {}
    for ps in param_sets:
        for name, value in (ps or {}).items():
            value = float(value)
            if not math.isfinite(value):
                raise ExprError(f"parameter {name!r} is not finite")
            if name in merged and merged[name] != value:
                raise ExprError(f"parameter {name!r} bound to conflicting values")
            merged[name] = value
    return merged


def _coord_value(c: Coord, point: StatePoint) -> float:
    if c.kind == "z":
        return point.z
    arr = point.q if c.kind == "q" else point.v
    if not 1 <= c.index <= len(arr):
        raise EvalError(f"coordinate {unparse(c)} out of range for n={len(arr)}")
    return float(arr[c.index - 1])


def evaluate(e: Expr, point: StatePoint, params: ParamSet | None = None) -> float:
    """IEEE-double evaluation; domain errors name the offending subtree."""
    params = params or {}

    def ev(node: Expr) -> float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Coord):
            return _coord_value(node, point)
        if isinstance(node, Param):
            try:
                return float(params[node.name])
            except KeyError:
                raise UnboundParameterError(
                    f"unbound parameter {node.name!r}") from None
        if isinstance(node, Call):
            x = ev(node.arg)
            if node.fn == "log" and x <= 0.0:
                raise DomainError(f"log of non-positive value in {unparse(node)}")
            if node.fn == "sqrt" and x < 0.0:
                raise DomainError(f"sqrt of negative value in {unparse(node)}")
            try:
                return _APPLY[node.fn](x)
            except OverflowError:
                raise DomainError(f"overflow in {unparse(node)}") from None
        if isinstance(node, BinOp):
            a, b = ev(node.lhs), ev(node.rhs)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if b == 0.0:
                raise DomainError(f"division by zero in {unparse(node)}")
            return a / b
        if isinstance(node, IntPow):
            x = ev(node.base)
            if x == 0.0 and node.exponent < 0:
                raise DomainError(f"zero base with negative exponent in {unparse(node)}")
            try:
                return x ** node.exponent
            except OverflowError:
                raise DomainError(f"overflow in {unparse(node)}") from None
        raise TypeError(f"not an Expr node: {node!r}")

    return ev(e)


def evaluate_many(e: Expr, Q: np.ndarray, V: np.ndarray, Z: np.ndarray,
                  params: ParamSet | None = None) -> np.ndarray:
    """Vectorized evaluation over m points; Q and V are (m, n), Z is (m,).

    Domain violations surface as a DomainError for the whole batch (no
    per-point location); use :func:`evaluate` to localize.
    """
    params = params or {}
    Q = np.asarray(Q, dtype=float)
    V = np.asarray(V, dtype=float)
    Z = np.asarray(Z, dtype=float)
    m = Z.shape[0]

    _np_fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
              "sqrt": np.sqrt, "tanh": np.tanh, "neg": np.negative}

    def ev(node: Expr) -> np.ndarray:
        if isinstance(node, Const):
            return np.full(m, node.value)
        if isinstance(node, Coord):
            if node.kind == "z":
                return Z
            return (Q if node.kind == "q" else V)[:, node.index - 1]
        if isinstance(node, Param):
            try:
                return np.full(m, float(params[node.name]))
            except KeyError:
                raise UnboundParameterError(
                    f"unbound parameter {node.name!r}") from None
        if isinstance(node, Call):
            x = ev(node.arg)
            if node.fn == "log" and np.any(x <= 0.0):
                raise DomainError(f"log of non-positive value in {unparse(node)}")
            if node.fn == "sqrt" and np.any(x < 0.0):
                raise DomainError(f"sqrt of negative value in {unparse(node)}")
            return _np_fn[node.fn](x)
        if isinstance(node, BinOp):
            a, b = ev(node.lhs), ev(node.rhs)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if np.any(b == 0.0):
                raise DomainError(f"division by zero in {unparse(node)}")
            return a / b
        if isinstance(node, IntPow):
            x = ev(node.base)
            if node.exponent < 0 and np.any(x == 0.0):
                raise DomainError(f"zero base with negative exponent in {unparse(node)}")
            return x ** node.exponent
        raise TypeError(f"not an Expr node: {node!r}")

    out = ev(e)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"non-finite result evaluating {unparse(e)}")
    return out


# ---------------------------------------------------------------------------
# Derivative jets


@lru_cache(maxsize=None)
def gradient(e: Expr, n: int) -> tuple[Expr, ...]:
    """Symbolic gradient over the 2n+1 chart coordinates."""
    return tuple(_diff(e, c) for c in coords(n))


@lru_cache(maxsize=None)
def hessian(e: Expr, n: int) -> tuple[tuple[Expr, ...], ...]:
    """Symbolic Hessian, symmetric by construction (upper triangle mirrored)."""
    cs = coords(n)
    grad = gradient(e, n)
    d = len(cs)
    rows: list[list[Expr]] = [[Const(0.0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            entry = _diff(grad[i], cs[j])
            rows[i][j] = entry
            rows[j][i] = entry
    return tuple(tuple(r) for r in rows)


def eval_jet2(e: Expr, point: StatePoint, params: ParamSet | None = None
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian at a point, all by symbolic differentiation."""
    n = point.n
    value = evaluate(e, point, params)
    grad = np.array([evaluate(g, point, params) for g in gradient(e, n)])
    hess_exprs = hessian(e, n)
    d = 2 * n + 1
    hess = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            hij = evaluate(hess_exprs[i][j], point, params)
            hess[i, j] = hij
            hess[j, i] = hij
    return value, grad, hess


# ---------------------------------------------------------------------------
# Compiled evaluation (hot loops: integration, action functionals)


def _codegen(node: Expr, n: int, params: ParamSet) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Coord):
        if node.kind == "z":
            return f"y[{2 * n}]"
        base = 0 if node.kind == "q" else n
        if not 1 <= node.index <= n:
            raise EvalError(f"coordinate {unparse(node)} out of range for n={n}")
        return f"y[{base + node.index - 1}]"
    if isinstance(node, Param):
        if node.name not in params:
            raise UnboundParameterError(f"unbound parameter {node.name!r}")
        return repr(float(params[node.name]))
    if isinstance(node, Call):
        arg = _codegen(node.arg, n, params)
        if node.fn == "neg":
            return f"(-{arg})"
        return f"{node.fn}({arg})"
    if isinstance(node, BinOp):
        return f"({_codegen(node.lhs, n, params)} {node.op} {_codegen(node.rhs, n, params)})"
    if isinstance(node, IntPow):
        return f"({_codegen(node.base, n, params)})**({node.exponent})"
    raise TypeError(f"not an Expr node: {node!r}")


def compile_components(exprs: Sequence[Expr], n: int, params: ParamSet | None = None
                       ) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """Compile expressions to a fast callable on flat coordinates.

    The returned function maps a flat coordinate vector (q1..qn, v1..vn, z)
    to a tuple of values.  Parameters are frozen in at compile time.
    Semantics match :func:`evaluate`; math domain failures raise DomainError.
    """
    params = params or {}
    body = ", ".join(_codegen(e, n, params) for e in exprs) or ""
    source = f"lambda y: ({body}{',' if len(exprs) == 1 else ''})"
    env = {fn: _APPLY[fn] for fn in FUNCTIONS}
    fn = eval(source, env)  # noqa: S307 (source generated from a closed AST)

    def call(y: Sequence[float]) -> tuple[float, ...]:
        try:
            return fn(y)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"compiled evaluation failed: {exc}") from None

    return call


# ---------------------------------------------------------------------------
# Small symbolic linear algebra (Cramer solves for acceleration systems)


def det_expr(matrix: Sequence[Sequence[Expr]]) -> Expr:
    """Determinant by cofactor expansion; intended for small matrices."""
    m = len(matrix)
    for row in matrix:
        if len(row) != m:
            raise ExprError("determinant of a non-square matrix")
    if m == 0:
        return Const(1.0)
    if m == 1:
        return matrix[0][0]
    if m == 2:
        a, b = matrix[0]
        c, d = matrix[1]
        return sub(mul(a, d), mul(b, c))
    total: Expr = Const(0.0)
    for j in range(m):
        minor = [[row[k] for k in range(m) if k != j] for row in matrix[1:]]
        term = mul(matrix[0][j], det_expr(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def solve_cramer(matrix: Sequence[Sequence[Expr]], rhs: Sequence[Expr]
                 ) -> tuple[list[Expr], Expr]:
    """Symbolic solution of M x = rhs by Cramer's rule.

    Returns (x, det M).  Each solution component is a quotient by det M, so
    evaluation at a singular point raises a DomainError; callers that need a
    diagnosable threshold should test the determinant expression first.
    """
    m = len(matrix)
    if len(rhs) != m:
        raise ExprError("right-hand side length mismatch")
    d = det_expr(matrix)
    solution = []
    for j in range(m):
        replaced = [[rhs[i] if k == j else matrix[i][k] for k in range(m)]
                    for i in range(m)]
        solution.append(div(det_expr(replaced), d))
    return solution, d
