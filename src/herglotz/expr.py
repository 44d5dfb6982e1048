"""Expression trees over the chart coordinates (q1..qn, v1..vn, z).

Every scalar field in this package (Lagrangians, Hamiltonians, action
functions, form and vector-field components) is an immutable ``Expr`` tree
over the coordinates ``q1..qn``, ``v1..vn``, ``z`` and named parameters.
The module provides parsing, canonical printing, exact symbolic
differentiation, substitution, evaluation and first/second derivative jets.
A linear system W x = b of such trees is a node per component of x
(``Solve``), which evaluates by one pivoted elimination and differentiates
to another solve on the same W.
Evaluation lowers an expression tuple once to one instruction per distinct
node that reads a coordinate; a :func:`tape` runs it at each point (checks
hold the tapes of their residuals, systems hold theirs) and :func:`render`
writes it as Python for the RK4 loops, whose runs take thousands of steps;
a float error there is explained by the tape of the same lowering.  Only light
simplification is performed on construction (constant folding, 0/1
elimination with -0.0 as 0); there is no attempt at canonical forms, and
constants are finite.

Nodes are immutable, slotted and hash-consed (Filliatre & Conchon, 2006): a
weak table keyed by class, payload and children makes equal trees one object,
so ``==`` and ``hash`` are identity, and a node's memo (its derivatives) is
freed with it.  A ``Const`` is keyed by its value's type and bit pattern, so
``Const(0.0) is not Const(-0.0)``.  Each node also holds a mask of the
coordinates it may depend on (Guenter, 2007): its derivative by every
coordinate outside the mask is one node, built once and memoized once.

Grammar accepted by :func:`parse` (whitespace insignificant, numbers are
decimal with an optional exponent)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" integer)?
    unary  := "-" unary | atom
    atom   := number | ident | func "(" expr ")" | "(" expr ")"
    func   := "sin"|"cos"|"exp"|"log"|"sqrt"|"tanh"
    ident  := "q"digits | "v"digits | "z" | parameter-name

One regular expression reads the text in one pass (numbers, coordinates,
names, operators, and a catch-all for a bad character, reported before any
syntax error); one precedence routine builds the tree over the printer's
``_PREC`` with the constructors ``substitute`` uses.  ``MAX_NESTING`` bounds
open parentheses and ``MAX_DEPTH`` the operators on any root-to-leaf path,
which keeps the recursive walks over a parsed tree within Python's recursion
limit; crossing either is a ``ParseError`` at the crossing token, as is an
index or exponent of more than ``MAX_DIGITS`` digits, which ``int()`` refuses.
"""

from __future__ import annotations

import math
import operator
import re
import struct
import threading
import weakref
from functools import lru_cache
from itertools import chain, count
from typing import Callable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Coord", "Param", "Call", "BinOp", "IntPow", "Solve",
    "StatePoint", "ParamSet",
    "ExprError", "ParseError", "EvalError", "UnboundParameterError", "DomainError",
    "parse", "unparse", "differentiate", "substitute", "depends_on",
    "evaluate", "evaluate_all", "evaluate_many", "eval_jet2", "gradient", "hessian",
    "tape", "render", "compile_components",
    "coords", "coord", "q", "v", "z", "param", "const",
    "add", "sub", "mul", "div", "neg", "intpow",
    "sin", "cos", "exp", "log", "sqrt", "tanh",
    "solve_cramer", "merge_params",
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


class Expr:
    """Base node: immutable, slotted, interned, so ``==`` is ``is``.  Slot
    ``_d`` is the node's memo (its derivatives, and builds keyed by it in
    other modules), which lives exactly as long as the node.  Slot ``_m`` is
    its coordinate mask: bit 0 for z, 2i and 2i + 1 for q_i and v_i (indices
    past 30 share a pair), so it may hold more coordinates, never fewer."""

    __slots__ = ("__weakref__", "_d", "_m")

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return unparse(self)


# The intern table maps a node's key (class, payload, child ids) to a weak
# reference, which drops the entry when the node dies.  A live node keeps its
# children, so their ids are not reused while its entry exists, and keys hold
# no node, so a memo that refers back to its node (d exp(u) = exp(u) du) is a
# plain cycle for the collector.  Inserts and drops take a reentrant lock: a
# collection run while a node is made drops entries from the same thread.


class _Ref(weakref.ref):
    __slots__ = ("key",)


_nodes: dict[tuple, _Ref] = {}
_table_lock = threading.RLock()


def _drop(ref: _Ref) -> None:
    with _table_lock:
        if _nodes.get(ref.key) is ref:
            del _nodes[ref.key]


def _node(key: tuple, *fields, mask: int = 0) -> Expr:
    """The node under ``key``; if none is live, one made with class ``key[0]``,
    slot values ``fields`` and ``mask`` or'ed with the node fields' masks."""
    with _table_lock:
        ref = _nodes.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(key[0])
            for setter, value in zip(key[0]._setters, fields):
                setter(node, value)
                mask |= getattr(value, "_m", 0)
            _set_d(node, None)
            _set_m(node, mask)
            ref = _nodes[key] = _Ref(node, _drop)
            ref.key = key
        return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        # keyed by type and bit pattern: 0.0, -0.0 and 1 are three nodes
        key = (cls, type(value), _bits(value) if isinstance(value, float) else value)
        ref = _nodes.get(key)
        return ref and ref() or _node(key, value)


class Coord(Expr):
    __slots__ = ("kind", "index")   # "q", "v" or "z"; 1-based for q/v, 0 for z

    def __new__(cls, kind: str, index: int = 0):
        ref = _nodes.get(key := (cls, kind, index))
        return ref and ref() or _node(key, kind, index, mask=1 << (kind == "v") + 2 * (
            index if type(index) is int and 0 <= index <= 30 else 31))


class Param(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        ref = _nodes.get(key := (cls, name))
        return ref and ref() or _node(key, name)


class Call(Expr):
    __slots__ = ("fn", "arg")       # fn: one of FUNCTIONS or "neg"

    def __new__(cls, fn: str, arg: Expr):
        ref = _nodes.get(key := (cls, fn, id(arg)))
        return ref and ref() or _node(key, fn, arg)


class BinOp(Expr):
    __slots__ = ("op", "lhs", "rhs")  # op: "+", "-", "*", "/"

    def __new__(cls, op: str, lhs: Expr, rhs: Expr):
        ref = _nodes.get(key := (cls, op, id(lhs), id(rhs)))
        return ref and ref() or _node(key, op, lhs, rhs)


class IntPow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        ref = _nodes.get(key := (cls, id(base), exponent))
        return ref and ref() or _node(key, base, exponent)


class Solve(Expr):
    """Component ``index`` of the solution x of W x = b, an m x m system
    (m >= 2) held as the rows of W and b: :func:`solve_cramer` makes one node
    per component, and the nodes of one system lower to one elimination."""

    __slots__ = ("matrix", "vector", "index")

    def __new__(cls, matrix: tuple[tuple[Expr, ...], ...], vector: tuple[Expr, ...],
                index: int):
        entries = (*chain.from_iterable(matrix), *vector)
        ref = _nodes.get(key := (cls, index, *map(id, entries)))
        if ref is not None and (node := ref()) is not None:
            return node
        mask = 0
        for e in entries:
            mask |= e._m
        return _node(key, matrix, vector, index, mask=mask)


for _cls in (Const, Coord, Param, Call, BinOp, IntPow, Solve):
    _cls._setters = tuple(getattr(_cls, name).__set__ for name in _cls.__slots__)
_bits, _set_d, _set_m = struct.Struct("<d").pack, Expr._d.__set__, Expr._m.__set__
_ZERO, _ONE, _FREE = Const(0.0), Const(1.0), object()


def _memo(e: Expr) -> dict:
    """The memo dict of a node, made on first use."""
    if (memo := e._d) is None:
        _set_d(e, memo := {})
    return memo


# ---------------------------------------------------------------------------
# Smart constructors (light simplification only: constant folding and
# 0/1 elimination; deliberately no canonical forms)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def const(value: float) -> Const:
    """A finite constant: ``inf`` and ``nan`` would print as names and
    parse back as parameters."""
    value = float(value)
    if not math.isfinite(value):
        raise ExprError(f"constant {value!r} is not finite")
    return Const(value)


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


def _fold(op: str, a: Const, b: Const, value: float) -> Expr:
    """Fold a constant binary node only to a finite value: a folded ``inf``
    would print as a name and parse back as a parameter."""
    return Const(value) if math.isfinite(value) else BinOp(op, a, b)


def add(a, b) -> Expr:
    a, b = a if isinstance(a, Expr) else as_expr(a), b if isinstance(b, Expr) else as_expr(b)
    if type(a) is Const:
        if type(b) is Const:
            return _fold("+", a, b, a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a, b) -> Expr:
    a, b = a if isinstance(a, Expr) else as_expr(a), b if isinstance(b, Expr) else as_expr(b)
    if type(a) is Const:
        if type(b) is Const:
            return _fold("-", a, b, a.value - b.value)
        if a.value == 0.0:
            return neg(b)
    elif type(b) is Const and b.value == 0.0:
        return a
    return BinOp("-", a, b)


def mul(a, b) -> Expr:
    a, b = a if isinstance(a, Expr) else as_expr(a), b if isinstance(b, Expr) else as_expr(b)
    if type(a) is Const:
        if type(b) is Const:
            return _fold("*", a, b, a.value * b.value)
        if a.value == 0.0:
            return _ZERO
        if a.value == 1.0:
            return b
    elif type(b) is Const:
        if b.value == 0.0:
            return _ZERO
        if b.value == 1.0:
            return a
    return BinOp("*", a, b)


def div(a, b) -> Expr:
    a, b = a if isinstance(a, Expr) else as_expr(a), b if isinstance(b, Expr) else as_expr(b)
    if type(b) is Const:
        if type(a) is Const and b.value != 0.0:
            return _fold("/", a, b, a.value / b.value)
        if b.value == 1.0:
            return a
    # 0/x -> 0: standard light simplification (0/0 ceases to be an error)
    if type(a) is Const and a.value == 0.0:
        return _ZERO
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
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and (base.value != 0.0 or exponent > 0):
        try:
            return Const(base.value ** exponent)
        except OverflowError:
            pass  # leave unfolded; evaluation raises with a location
    return IntPow(base, exponent)


# The operators are the constructors; a reflected one swaps its operands.
Expr.__add__, Expr.__sub__, Expr.__mul__, Expr.__truediv__ = add, sub, mul, div
Expr.__pow__, Expr.__neg__ = intpow, neg
Expr.__radd__ = lambda self, other: add(other, self)
Expr.__rsub__ = lambda self, other: sub(other, self)
Expr.__rmul__ = lambda self, other: mul(other, self)
Expr.__rtruediv__ = lambda self, other: div(other, self)


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
    "neg": operator.neg,
}

sin, cos, exp, log, sqrt, tanh = map(_make_call, FUNCTIONS)
# symbol -> constructor, for parse and substitute; "neg" is no function name
_BUILDERS = {"+": add, "-": sub, "*": mul, "/": div, "neg": neg,
             **{build.__name__: build for build in (sin, cos, exp, log, sqrt, tanh)}}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}   # binding of the binary operators


# ---------------------------------------------------------------------------
# Parsing

MAX_NESTING = 100   # parentheses (grouping or call) open at once
MAX_DEPTH = 400     # operators and calls on one path from the root to a leaf
MAX_DIGITS = 4300   # digits of an index or exponent: longer runs int() refuses

# Each match is optional whitespace, then one token, a bad character or the
# end.  An "int" has no fraction or exponent ("2e" is "2", then a name);
# only an "int" is an exponent.
_LEXER = re.compile(r"""\s*(?:
    (?P<int>\d+)(?![.\d]|[eE][+-]?\d)
  | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<coord>[qv][0-9]+|z)(?![A-Za-z_0-9])
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>\S)
  | (?P<end>\Z))""", re.VERBOSE)


def parse(text: str, n: int) -> Expr:
    """Parse an expression over the chart of dimension ``n``."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    tokens = [(kind := m.lastgroup, m[kind], m.start(kind)) for m in _LEXER.finditer(text)]
    for kind, tok, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", pos)
    i = 0

    def deeper(depth: int, pos: int) -> int:
        if depth == MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} operators", pos)
        return depth + 1

    def binary(prec: int, nesting: int) -> tuple[Expr, int]:
        """The operands and operators binding at least as tightly as
        ``prec``, left to right, and the depth of the tree they make."""
        nonlocal i
        lhs, depth = operand(nesting)
        while _PREC.get(op := tokens[i][1], 0) >= prec:
            pos = tokens[i][2]
            i += 1
            rhs, right = binary(_PREC[op] + 1, nesting)
            lhs, depth = _BUILDERS[op](lhs, rhs), deeper(max(depth, right), pos)
        return lhs, depth

    def operand(nesting: int) -> tuple[Expr, int]:
        """Minus signs, an atom and an optional power: -x^2 is (-x)^2."""
        nonlocal i
        first = i
        while tokens[i][1] == "-":
            i += 1
        signs, call, depth = i - first, None, 0
        kind, tok, pos = tokens[i]
        i += 1
        if kind == "int" or kind == "num":
            value = float(tok)
            if not math.isfinite(value):
                raise ParseError(f"number literal {tok!r} overflows", pos)
            e = Const(value)
        elif kind in ("coord", "name") and tokens[i][1] == "(":
            if tok not in FUNCTIONS:
                raise ParseError(f"unknown function {tok!r}", pos)
            call, at, (kind, tok, pos) = _BUILDERS[tok], pos, tokens[i]
            i += 1
        elif kind == "coord":
            if len(tok) > MAX_DIGITS + 1:
                raise ParseError(f"coordinate index longer than {MAX_DIGITS} digits", pos)
            index = int(tok[1:] or 0)
            if tok != "z" and not 1 <= index <= n:
                raise ParseError(f"coordinate index out of range: {tok!r} with n={n}", pos)
            e = Coord(tok[0], index)
        elif kind == "name":
            e = Param(tok)
        elif tok != "(":
            raise ParseError(f"unexpected token {tok!r}", pos)
        if tok == "(":
            if nesting == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            e, depth = binary(1, nesting + 1)
            if tokens[i][1] != ")":
                raise ParseError("expected ')'", tokens[i][2])
            i += 1
            if call:
                e, depth = call(e), deeper(depth, at)
        if signs:   # a chain of minus signs is one loop, not one call each
            for _ in range(signs):
                e = neg(e)
            depth = deeper(depth, tokens[first][2])
        if tokens[i][1] == "^":
            at = tokens[i][2]
            sign = -1 if tokens[i + 1][1] == "-" else 1
            i += 2 if sign < 0 else 1
            kind, tok, pos = tokens[i]
            if kind != "int":
                raise ParseError(f"exponent must be an integer, got {tok!r}"
                                 if kind == "num" else "expected an integer exponent", pos)
            if len(tok) > MAX_DIGITS:
                raise ParseError(f"exponent longer than {MAX_DIGITS} digits", pos)
            i += 1
            e, depth = intpow(e, sign * int(tok)), deeper(depth, at)
        return e, depth

    e, _ = binary(1, 0)
    kind, tok, pos = tokens[i]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {tok!r}", pos)
    return e


# ---------------------------------------------------------------------------
# Printing (canonical serializer; parse(unparse(e)) == e for every tree
# without a Solve, whose linear-system text the grammar does not read)


def _fmt_number(value: float) -> str:
    if value.is_integer() and abs(value) < 1e16:
        return "-0" if not value and _signed(value) else str(int(value))
    return repr(value)


def _signed(value: float) -> bool:
    """The sign bit, set for -0.0 too."""
    return math.copysign(1.0, value) < 0


def _is_atomic(e: Expr) -> bool:
    # operands that reparse unchanged without parentheses after a unary
    # minus ("-x") and as the base of a power ("x^k")
    return isinstance(e, (Coord, Param, Solve)) or \
        (isinstance(e, Const) and not _signed(e.value)) or \
        (isinstance(e, Call) and e.fn != "neg")


def _un(e: Expr, ctx: int) -> str:
    if isinstance(e, Const):
        s = _fmt_number(e.value)
        return s if not _signed(e.value) or ctx <= 1 else f"({s})"
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
    if isinstance(e, Solve):
        rows = ", ".join(f"[{', '.join(_un(w, 0) for w in row)}]" for row in e.matrix)
        return f"solve([{rows}], [{', '.join(_un(b, 0) for b in e.vector)}])[{e.index}]"
    raise TypeError(f"not an Expr node: {e!r}")


def unparse(e: Expr) -> str:
    return _un(e, 0)


# ---------------------------------------------------------------------------
# Differentiation and substitution


def _diff(e: Expr, var: Coord) -> Expr:
    """d e / d var, kept in the memo of a compound ``e`` under ``var``, or
    under ``_FREE`` if var is outside e's mask: every such var gets one node."""
    kind = type(e)
    if kind is Coord:
        return _ONE if e is var else _ZERO
    if kind is Const or kind is Param:
        return _ZERO
    memo = _memo(e)
    found = memo.get(key := var if e._m & var._m else _FREE)
    if found is None:
        found = memo[key] = _diff_rule(e, var)
    return found


def _diff_rule(e: Expr, var: Coord) -> Expr:
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
    if isinstance(e, Solve):
        # W x = b gives W dx = db - (dW) x: a solve on the same W, whose
        # components go to the memos of all of x's, which share e's mask
        matrix, vector = e.matrix, e.vector
        xs = [Solve(matrix, vector, j) for j in range(len(vector))]
        rhs = []
        for row, b in zip(matrix, vector):
            total = _diff(b, var)
            for w, x in zip(row, xs):
                total = sub(total, mul(_diff(w, var), x))
            rhs.append(total)
        key = var if e._m & var._m else _FREE
        for x, dx in zip(xs, found := _solution(matrix, rhs)):
            _memo(x)[key] = dx
        return found[e.index]
    raise TypeError(f"not an Expr node: {e!r}")


def differentiate(e: Expr, var: Union[Coord, str]) -> Expr:
    """Exact symbolic partial derivative with respect to a coordinate."""
    return _diff(e, var if isinstance(var, Coord) else coord(var))


def substitute(e: Expr, target: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of a Coord/Param leaf by an expression.  A
    subtree whose mask lacks a coordinate target's bit holds no occurrence
    and is kept as it is; a parameter has no bit, so every node is walked."""
    if not isinstance(target, (Coord, Param)):
        raise ExprError("substitution target must be a coordinate or parameter")
    memo: dict[Expr, Expr] = {target: as_expr(replacement)}   # interned: one entry per node
    bit = target._m

    def walk(node: Expr) -> Expr:
        out = memo.get(node)
        if out is not None:
            return out
        if bit and not node._m & bit:
            return node
        if isinstance(node, Call):
            out = _BUILDERS[node.fn](walk(node.arg))
        elif isinstance(node, BinOp):
            out = _BUILDERS[node.op](walk(node.lhs), walk(node.rhs))
        elif isinstance(node, IntPow):
            out = intpow(walk(node.base), node.exponent)
        elif isinstance(node, Solve):
            out = _solution([[*map(walk, row)] for row in node.matrix],
                            [*map(walk, node.vector)])[node.index]
        else:
            out = node
        memo[node] = out
        return out

    return walk(e)


def _dag_nodes(e: Expr) -> set[Expr]:
    """The distinct nodes under e, each visited once however often shared."""
    seen: set[Expr] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, Call):
            stack.append(node.arg)
        elif isinstance(node, BinOp):
            stack += (node.lhs, node.rhs)
        elif isinstance(node, IntPow):
            stack.append(node.base)
        elif isinstance(node, Solve):
            stack += (*chain.from_iterable(node.matrix), *node.vector)
    return seen


def depends_on(e: Expr, target: Expr) -> bool:
    """Structural check: does the tree reference the given Coord/Param leaf?"""
    return target in _dag_nodes(e)


def max_coord_index(e: Expr) -> int:
    return max((node.index for node in _dag_nodes(e) if isinstance(node, Coord)), default=0)


# ---------------------------------------------------------------------------
# State points and evaluation


class StatePoint(tuple):
    """A chart point (q, v, z): the immutable tuple of its Python floats
    (q1..qn, v1..vn, z), equal and hashed by value, which a tape reads as it
    is.  ``v`` carries the velocities on the Lagrangian side and the momenta
    on the Hamiltonian side; ``q`` and ``v`` are arrays built when read.
    """

    __slots__ = ()

    def __new__(cls, q, v, z: float):
        q = np.asarray(q, dtype=float).reshape(-1).tolist()
        v = np.asarray(v, dtype=float).reshape(-1).tolist()
        if len(q) != len(v):
            raise ValueError("q and v must have the same length")
        return cls.from_coords([*q, *v, float(z)], len(q))

    def __reduce__(self):
        return type(self).from_coords, (tuple(self), self.n)

    @property
    def n(self) -> int:
        return len(self) // 2

    @property
    def q(self) -> np.ndarray:
        return np.array(self[:self.n])

    @property
    def v(self) -> np.ndarray:
        return np.array(self[self.n:-1])

    z = property(operator.itemgetter(-1))

    def coords(self) -> np.ndarray:
        """Flat coordinates in canonical order (q1..qn, v1..vn, z)."""
        return np.array(self)

    @classmethod
    def from_coords(cls, flat: Sequence[float], n: int) -> "StatePoint":
        """The point with flat coordinates (q1..qn, v1..vn, z): a sequence of
        numbers or an array of any shape holding 2n+1 of them."""
        point = tuple.__new__(cls, np.asarray(flat, dtype=float).reshape(-1).tolist()
                              if isinstance(flat, np.ndarray) else map(float, flat))
        if len(point) != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} coordinates, got {len(point)}")
        if not all(map(math.isfinite, point)):
            raise ValueError("state point entries must be finite")
        return point

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


# ---------------------------------------------------------------------------
# Evaluation: one lowering, three backends.  ``_lower`` turns an expression
# tuple into one instruction per distinct compound node object, in post-order;
# a node that reads no coordinate and whose inputs are constant registers is
# computed there, by the same float operation, into a constant register, unless
# it raises: then it stays an instruction and raises at each point.  The Solve
# nodes of one system lower to its W and b, one solve step that reads them all
# and one pick per component.  ``tape`` runs it over a copied register file, at
# a point or, by ``rows``, over a sample's columns, reading a point (a
# StatePoint too) as its 2n+1 floats; ``render`` writes it as Python.  Each
# runs a solve step by the one elimination ``_eliminate``: a call on the
# point's floats (``_solve``), rows by mapping that over the points, and render
# as its inline statements (``_render_solve``), in the RK4 stage loop too.
# All give the same doubles, and a float exception (a zero pivot is a division
# by zero) becomes, on the tape, a DomainError naming the node.

# Samples of fewer points run point by point: on dense tapes (n = 1, 3, 5) rows
# took 1.1-3.7x the time of calls at 3 and 10 points, 0.7-1.1x at 15, 0.2x at 200.
# Only _Tape.rows reads it: checks call rows at every sample size.
ROWS_MIN = 16

# (exception type, node kind) -> what went wrong.  The kind of a Call is its
# function, of a BinOp its operator, of an IntPow "^".
_FAILURES = {
    (ValueError, "log"): "log of non-positive value",
    (ValueError, "sqrt"): "sqrt of negative value",
    (ValueError, "sin"): "sin of infinite value",
    (ValueError, "cos"): "cos of infinite value",
    (ZeroDivisionError, "/"): "division by zero",
    (ZeroDivisionError, "^"): "zero base with negative exponent",
    (ZeroDivisionError, "solve"): "zero pivot",
    (OverflowError, "exp"): "overflow",
    (OverflowError, "^"): "overflow",
}
_FLOAT_ERRORS = (ValueError, ZeroDivisionError, OverflowError)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _domain_error(exc: Exception, node: Expr) -> DomainError:
    kind = node.fn if isinstance(node, Call) else node.op if isinstance(node, BinOp) \
        else "solve" if isinstance(node, Solve) else "^"
    return DomainError(f"{_FAILURES[type(exc), kind]} in {unparse(node)}")


def _slot(c: Coord, n: int) -> int:
    """Position of a coordinate in the flat vector (q1..qn, v1..vn, z)."""
    if c.kind == "z":
        return 2 * n
    if not 1 <= c.index <= n:
        raise EvalError(f"coordinate {unparse(c)} out of range for n={n}")
    return c.index - 1 if c.kind == "q" else n + c.index - 1


def _param_value(p: Param, params: ParamSet) -> float:
    try:
        return float(params[p.name])
    except KeyError:
        raise UnboundParameterError(f"unbound parameter {p.name!r}") from None


def _lower(exprs: Sequence[Expr], n: int, params: ParamSet | None):
    """(code, regs, results).  Registers 0..2n are the coordinates; register
    2n+1+k starts as ``regs[k]``: a constant, parameter value or exponent, or
    the node of the instruction ``(fn, a, b, out)`` in ``code`` that sets it
    to fn(r[a]), or fn(r[a], r[b]) when b is not None.  A solve step has a
    tuple a, the registers of W row by row and of b, and sets its register to
    the solution list fn([r[k] for k in a]) (fn ``_solve``), whose
    components picks (fn an itemgetter) read."""
    code: list[tuple] = []
    regs: list = []
    memo: dict = {}   # node -> register, and (W rows, b) -> solve register
    results = [_emit(e, 2 * n + 1, params or {}, memo, code, regs) for e in exprs]
    return code, regs, results


def _folded(fn, a, b: int | None, regs: list, d: int) -> float | None:
    """fn of constant registers a and b (of the list of registers a, for a
    solve step), or None if one is an instruction's output or fn raises: the
    node then stays an instruction, raising at each point."""
    solve = type(a) is tuple
    args = [regs[k - d] for k in a] if solve else \
        [regs[a - d]] if b is None else [regs[a - d], regs[b - d]]
    if not any(isinstance(x, Expr) for x in args):
        try:
            return fn(args) if solve else fn(*args)
        except _FLOAT_ERRORS:
            pass
    return None


def _emit(node: Expr, d: int, params: ParamSet, memo: dict, code: list[tuple],
          regs: list) -> int:
    """Register of ``node`` (d = 2n + 1), emitting its instructions on first visit."""
    reg = memo.get(node)
    if reg is not None:
        return reg
    kind = type(node)
    if kind is BinOp:
        fn, a = _BINARY[node.op], _emit(node.lhs, d, params, memo, code, regs)
        b = _emit(node.rhs, d, params, memo, code, regs)
    elif kind is Call:
        fn, a, b = _APPLY[node.fn], _emit(node.arg, d, params, memo, code, regs), None
    elif kind is IntPow:
        fn, a = operator.pow, _emit(node.base, d, params, memo, code, regs)
        b = d + len(regs)
        regs.append(node.exponent)
    elif kind is Solve:
        fn, a, b = operator.itemgetter(node.index), memo.get((node.matrix, node.vector)), None
        if a is None:
            a = _emit_system(node, d, params, memo, code, regs)
    else:
        if kind is Coord:
            reg = _slot(node, d // 2)
        elif kind is Const or kind is Param:
            reg = d + len(regs)
            regs.append(node.value if kind is Const else _param_value(node, params))
        else:
            raise TypeError(f"not an Expr node: {node!r}")
        memo[node] = reg
        return reg
    reg = d + len(regs)
    if not node._m and (value := _folded(fn, a, b, regs, d)) is not None:
        regs.append(value)
    else:
        regs.append(node)
        code.append((fn, a, b, reg))
    memo[node] = reg
    return reg


def _emit_system(node: Solve, d: int, params: ParamSet, memo: dict, code: list[tuple],
                 regs: list) -> int:
    """Register of the solution list of node's system, after its W and b: one
    solve step, folded as any instruction.  It is not inlined in ``_emit``:
    a generator expression there makes _emit's arguments closure cells,
    which every call of the recursion then pays for."""
    inputs = tuple(_emit(e, d, params, memo, code, regs)
                   for e in chain(*node.matrix, node.vector))
    reg = memo[node.matrix, node.vector] = d + len(regs)
    if not node._m and (value := _folded(_solve, inputs, None, regs, d)) is not None:
        regs.append(value)
    else:
        regs.append(node)
        code.append((_solve, inputs, None, reg))
    return reg


_UFUNCS = {operator.add: np.add, operator.sub: np.subtract, operator.mul: np.multiply,
           operator.truediv: np.divide, operator.neg: np.negative}


class _Tape(tuple):
    """A lowering (code, regs, results, d) as the runner of its tape: a call
    runs ``code`` at one point on a fresh copy of the register file."""

    def __call__(self, y: Sequence[float]) -> tuple[float, ...]:
        code, regs, results, d = self
        r = [*map(float, y), *regs]
        if len(r) != d + len(regs):
            raise ValueError(f"expected {d} coordinates, got {len(r) - len(regs)}")
        try:
            for fn, a, b, out in code:
                r[out] = fn(r[a], r[b]) if b is not None else fn(r[a]) \
                    if a.__class__ is int else fn([r[k] for k in a])
        except _FLOAT_ERRORS as exc:
            raise _domain_error(exc, regs[out - d]) from None
        return tuple([r[k] for k in results])

    def rows(self, ys: Sequence[Sequence[float]]) -> tuple[np.ndarray, DomainError | None]:
        """The values at ``ys`` before the first point where a call raises, a
        row each and bit for bit, and that point's DomainError, or None.  From
        ROWS_MIN points on, each instruction runs once over its column; an
        (m, 2n+1) array is read as it is, other points through their floats."""
        code, regs, results, d = self
        m = len(ys)
        if m >= ROWS_MIN:
            flat = ys if type(ys) is np.ndarray else np.fromiter(chain.from_iterable(ys), float)
            r = [*np.asarray(flat, float).reshape(m, d).T.copy(), *regs]
            try:    # + - * / and neg by numpy, a zero divisor (-0.0 too) raising
                # as in Python; a call, ^ or solve step maps its function over
                # the floats
                with np.errstate(all="ignore"):
                    for fn, a, b, out in code:
                        ufunc = _UFUNCS.get(fn)
                        if ufunc is not None:
                            if fn is operator.truediv and not np.all(r[b]):
                                raise ZeroDivisionError
                            r[out] = ufunc(r[a]) if b is None else ufunc(r[a], r[b])
                        elif type(a) is tuple:
                            cols = [x.tolist() if type(x) is np.ndarray else [float(x)] * m
                                    for x in map(r.__getitem__, a)]
                            r[out] = [*np.array([*map(fn, zip(*cols))], dtype=float).T]
                        elif type(fn) is operator.itemgetter:
                            r[out] = fn(r[a])
                        else:
                            x = r[a]
                            xs = x.tolist() if type(x) is np.ndarray else [float(x)] * m
                            r[out] = np.array([*map(fn, xs)] if b is None else
                                              [fn(u, r[b]) for u in xs], dtype=float)
            except _FLOAT_ERRORS:   # the calls below, up to the first failure
                pass
            else:
                values = np.empty((m, len(results)))
                for j, k in enumerate(results):
                    values[:, j] = r[k]
                # numpy may give a NaN another sign bit than Python: redo its row
                for i in np.flatnonzero(np.isnan(values).any(axis=1)):
                    values[i] = self(ys[i])
                return values, None
        values, error = [], None
        try:
            for y in ys:
                values.append(self(y))
        except DomainError as exc:
            error = exc
        return np.array(values, dtype=float).reshape(len(values), len(results)), error


def tape(exprs: Sequence[Expr], n: int, params: ParamSet | None = None) -> _Tape:
    """Lower expressions once to a callable from the flat coordinates
    (q1..qn, v1..vn, z) to their values.  Parameters are frozen in when
    lowering; every call runs the instructions on a fresh copy of the
    register file, and a float error raises the DomainError of its node;
    its ``rows`` method runs them over a sample (:meth:`_Tape.rows`)."""
    return _Tape((*_lower(exprs, n, params), 2 * n + 1))


def evaluate_all(exprs: Sequence[Expr], point: StatePoint,
                 params: ParamSet | None = None) -> tuple[float, ...]:
    """IEEE-double values of several expressions at one point, in order.

    A node object shared within the sequence (derivatives, the components
    of one solve, the entries of one residual set) is computed once, and the first
    expression that fails raises a DomainError naming the failing subtree.
    Code that evaluates the same expressions at many points holds a tape.
    """
    return tape(exprs, point.n, params)(point)


def evaluate(e: Expr, point: StatePoint, params: ParamSet | None = None) -> float:
    """:func:`evaluate_all` of the one expression ``e``."""
    return evaluate_all((e,), point, params)[0]


def render(exprs: Sequence[Expr], n: int, params: ParamSet | None
           ) -> tuple[list[str], list[str], dict, int]:
    """A lowering as straight-line Python statements over the coordinates
    named x0..x2n, one per instruction (a solve step's are its elimination,
    a pick has none), those that read no z first; the
    names or literals holding the values of ``exprs``; the namespace to run
    them in, which binds ``FLOAT_ERRORS``, what a statement may raise, and
    ``tape``, the same lowering's runner, which raises the DomainError of the
    failing statement; and the number of statements that read no z."""
    code, regs, results = _lower(exprs, n, params)
    d = 2 * n + 1
    lines: tuple[list[str], list[str]] = ([], [])   # reading no z, reading z
    names = {reg: f"x{reg}" for reg in range(d)}

    def name(reg: int) -> str:   # a constant register is its literal, its sign
        if reg in names:         # written apart, as repr drops a NaN's
            return names[reg]
        value = regs[reg - d]
        return f"(-{abs(value)!r})" if _signed(value) else repr(value)

    solutions: dict[int, list[str]] = {}
    for fn, a, b, out in code:
        node = regs[out - d]
        if type(a) is tuple:
            names[out] = f"t{len(names) - d}"
            solutions[out] = _render_solve(names[out], [*map(name, a)], lines[node._m & 1])
            continue
        if type(fn) is operator.itemgetter:   # a pick names a solution, no statement
            names[out] = solutions[a][node.index]
            continue
        if isinstance(node, BinOp):
            text = f"{name(a)} {node.op} {name(b)}"
        elif isinstance(node, Call):
            text = f"-{name(a)}" if node.fn == "neg" else f"{node.fn}({name(a)})"
        else:
            text = f"{name(a)} ** {node.exponent}"
        names[out] = f"t{len(names) - d}"
        lines[node._m & 1].append(f"{names[out]} = {text}")
    env = {"inf": math.inf, "nan": math.nan, "FLOAT_ERRORS": _FLOAT_ERRORS,
           "tape": _Tape((code, regs, results, d)), **{fn: _APPLY[fn] for fn in FUNCTIONS}}
    return [*lines[0], *lines[1]], [name(reg) for reg in results], env, len(lines[0])


def compile_components(exprs: Sequence[Expr], n: int, params: ParamSet | None = None
                       ) -> _Tape:
    """The :func:`tape` of ``exprs``: a function of its own, not an alias,
    so that a profiler wrapping either name counts only its own calls."""
    return tape(exprs, n, params)


def evaluate_many(e: Expr, Q: np.ndarray, V: np.ndarray, Z: np.ndarray,
                  params: ParamSet | None = None) -> np.ndarray:
    """Evaluation over m points; Q and V are (m, n), Z is (m,).

    Entry k equals :func:`evaluate` at point k: the rows of one tape, and
    the first failing row raises its DomainError.
    """
    Q = np.asarray(Q, dtype=float)
    values, error = tape([e], Q.shape[1], params).rows(np.column_stack([Q, V, Z]))
    if error is not None:
        raise error
    return values[:, 0]


# ---------------------------------------------------------------------------
# Derivative jets


# Jets of the most recent expressions; an entry keeps its expression alive.
# These stay lru_caches, not entries on the node memo: perfbench reads
# ``cache_info()`` of every lru_cache here for expr.diff_cache.hit_ratio and
# .entries, which its tier-1 dense_sweep run requires to be finite.
GRADIENT_CACHE = 16


@lru_cache(maxsize=GRADIENT_CACHE)
def gradient(e: Expr, n: int) -> tuple[Expr, ...]:
    """Symbolic gradient over the 2n+1 chart coordinates."""
    return tuple(_diff(e, c) for c in coords(n))


@lru_cache(maxsize=GRADIENT_CACHE)
def hessian(e: Expr, n: int) -> tuple[tuple[Expr, ...], ...]:
    """Symbolic Hessian, symmetric by construction: entry (j, i) is the cached
    object of entry (i, j), i <= j."""
    cs, grad = coords(n), gradient(e, n)
    return tuple(tuple(_diff(grad[min(i, j)], cs[max(i, j)]) for j in range(len(cs)))
                 for i in range(len(cs)))


def eval_jet2(e: Expr, point: StatePoint, params: ParamSet | None = None
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian at a point, all by symbolic differentiation.

    One tape computes the whole jet; the mirrored Hessian entries are one
    object, so they get one value and the Hessian is exactly symmetric.
    """
    n, d = point.n, 2 * point.n + 1
    jet = [e, *gradient(e, n), *(h for row in hessian(e, n) for h in row)]
    values = evaluate_all(jet, point, params)
    return values[0], np.array(values[1:d + 1]), np.array(values[d + 1:]).reshape(d, d)


# ---------------------------------------------------------------------------
# Linear solves for the Herglotz fields: W a = rhs by one pivoted elimination


def _eliminate(w: list[list], pivot: Callable, div: Callable, sub: Callable,
               mul: Callable) -> list:
    """The solve of every backend: x of W x = b by partial pivoting (Golub &
    Van Loan, Matrix Computations, 4th ed., sec. 3.4) over ``w``, the m rows
    of [W | b], which it overwrites.  For column k, ``pivot(w, k, i)`` for
    each row i = k+1..m-1, in order, swaps rows k and i where |a_ik| > |a_kk|;
    each row below then subtracts f = a_ik / a_kk times row k, entry by entry
    as a - f * b; back substitution ends with one quotient for each
    component, from the last.  A zero pivot is a division by zero.  The call
    backend runs this on floats, render on the names of the statements that
    compute them."""
    m = len(w)
    for k in range(m):
        for i in range(k + 1, m):
            pivot(w, k, i)
        top = w[k]
        for row in w[k + 1:]:
            f = div(row[k], top[k])
            for j in range(k + 1, m + 1):
                row[j] = sub(row[j], mul(f, top[j]))
    x = [None] * m
    for k in range(m - 1, -1, -1):
        row, total = w[k], w[k][m]
        for j in range(k + 1, m):
            total = sub(total, mul(row[j], x[j]))
        x[k] = div(total, row[k])
    return x


def _swap_floats(w: list[list[float]], k: int, i: int) -> None:
    if abs(w[i][k]) > abs(w[k][k]):
        w[k], w[i] = w[i], w[k]


def _solve(values: Sequence[float]) -> list[float]:
    """The solve step of a call: x of W x = b from W's m*m entries row by row,
    then b's m.  Its products and differences are operator.mul and .sub, as
    the tape's are: CPython's float-specialized ``*`` can return the other
    operand's NaN once a function is warm, and a call's bits are fixed."""
    m = math.isqrt(len(values))
    w = [[*values[i * m:i * m + m], values[m * m + i]] for i in range(m)]
    return _eliminate(w, _swap_floats, operator.truediv, operator.sub, operator.mul)


def _render_solve(base: str, inputs: Sequence[str], lines: list[str]) -> list[str]:
    """:func:`_eliminate` as statements appended to ``lines``, from ``inputs``,
    the names or literals of W's entries row by row, then of b: the rows of
    [W | b] are copied to names made from ``base``, a pivot is an ``if`` that
    swaps the values of two rows' names from column k on, and each quotient,
    product and difference is a statement.  Returns x's names."""
    m, names = math.isqrt(len(inputs)), count()

    def let(op: str):
        def statement(a: str, b: str) -> str:
            lines.append(f"{(name := f'{base}_{next(names)}')} = {a} {op} {b}")
            return name
        return statement

    def pivot(w: list[list[str]], k: int, i: int) -> None:
        top, row = w[k][k:], w[i][k:]
        lines.append(f"if abs({row[0]}) > abs({top[0]}): "
                     f"{', '.join(top + row)} = {', '.join(row + top)}")

    w = []
    for i in range(m):
        w.append([f"{base}_{next(names)}" for _ in range(m + 1)])
        lines.append(f"{', '.join(w[i])} = "
                     f"{', '.join([*inputs[i * m:i * m + m], inputs[m * m + i]])}")
    return _eliminate(w, pivot, let("/"), let("-"), let("*"))


def _solution(matrix: Sequence[Sequence[Expr]], rhs: Sequence[Expr]) -> list[Expr]:
    """The Solve nodes of W x = rhs, m >= 2; zeros for a constant zero rhs,
    so that a derivative by a coordinate outside the system's mask is 0."""
    if all(type(b) is Const and b.value == 0.0 for b in rhs):
        return [_ZERO] * len(rhs)
    if type(matrix) is not tuple:   # a Solve's own rows are kept, not copied
        matrix = tuple(map(tuple, matrix))
    rhs = tuple(rhs)
    return [Solve(matrix, rhs, i) for i in range(len(rhs))]


def solve_cramer(matrix: Sequence[Sequence[Expr]], rhs: Sequence[Expr]
                 ) -> list[Expr]:
    """Symbolic solution x of M x = rhs: for m >= 2 one Solve node per
    component, which lowers to one pivoted elimination (``_render_solve``), and
    for m = 1 the quotient rhs / M, which is what elimination computes there.

    Evaluation at a point where a pivot is zero raises a DomainError.  An M
    that is singular for every value is an ExprError here when it shows in
    its constants: a row or column of constant zeros, or an all-constant M
    whose elimination meets a zero pivot.
    """
    m = len(matrix)
    if len(rhs) != m:
        raise ExprError("right-hand side length mismatch")
    for row in matrix:
        if len(row) != m:
            raise ExprError("determinant of a non-square matrix")

    def zero(e: Expr) -> bool:
        return type(e) is Const and e.value == 0.0

    singular = any(all(map(zero, line)) for line in (*matrix, *zip(*matrix)))
    if not singular and all(type(w) is Const for row in matrix for w in row):
        try:
            _solve([w.value for row in matrix for w in row] + [0.0] * m)
        except ZeroDivisionError:
            singular = True
    if singular:
        raise ExprError("singular matrix: its determinant is identically 0")
    if m == 1:
        return [div(rhs[0], matrix[0][0])]
    return _solution(matrix, rhs)
