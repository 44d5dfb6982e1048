import copy
import functools
import gc
import math
import operator
import pickle
import random
import re
import struct
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from herglotz.expr import (
    BinOp, Call, Const, Coord, DomainError, ExprError, IntPow, Param, ParseError,
    StatePoint, UnboundParameterError, compile_components, coords,
    differentiate, depends_on, eval_jet2, evaluate, evaluate_all, evaluate_many,
    merge_params, parse, solve_cramer, substitute, unparse,
)
from herglotz import cli, fixtures
from herglotz import expr as ex
from herglotz.expr import Expr, add, div, intpow, mul, neg, sub
from herglotz.contact import CoordVectorField
from herglotz.dynamics import IntegrationError, SampledCurve, integrate, z_operator
from herglotz import lagrangian
from herglotz.lagrangian import ContactLagrangianSystem, herglotz_field
from perfbench import workloads

from conftest import cofactor_det, dense_lagrangian, random_regular_lagrangian

ROOT = Path(__file__).resolve().parent.parent


def pt(q, v, z):
    return StatePoint(np.atleast_1d(q), np.atleast_1d(v), z)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_shapes_forced_by_grammar():
    e = parse("0.5*v1^2 - gam*z", n=1)
    expected = BinOp(
        "-",
        BinOp("*", Const(0.5), IntPow(Coord("v", 1), 2)),
        BinOp("*", Param("gam"), Coord("z")),
    )
    assert e == expected

    e2 = parse("exp(2*gam*q1)", n=1)
    expected2 = Call("exp", BinOp("*", BinOp("*", Const(2.0), Param("gam")),
                                  Coord("q", 1)))
    assert e2 == expected2


def test_parse_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("v2 + q1", n=1)
    with pytest.raises(ParseError, match="out of range"):
        parse("q0", n=2)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2", n=1)
    assert err.value.offset == 4
    with pytest.raises(ParseError, match="unknown function"):
        parse("foo(q1)", n=1)
    with pytest.raises(ParseError, match="empty"):
        parse("   ", n=1)
    with pytest.raises(ParseError, match="integer"):
        parse("q1^2.5", n=1)
    with pytest.raises(ParseError):
        parse("(q1 + 2", n=1)


def test_parse_rejects_an_overflowing_literal():
    with pytest.raises(ParseError, match="overflows") as err:
        parse("q1 + 1e999*v1", n=1)
    assert err.value.offset == 5


@pytest.mark.parametrize("text, message, offset", [
    ("q" + "0" * 4400 + "1", "coordinate index longer than 4300 digits", 0),
    ("z + v" + "1" * 4301, "coordinate index longer than 4300 digits", 4),
    ("z + q1^" + "1" * 4400, "exponent longer than 4300 digits", 7),
    ("z + q1^-" + "2" * 4301, "exponent longer than 4300 digits", 8),
], ids=["index", "index-4301", "exponent", "negative-exponent"])
def test_parse_refuses_digit_runs_that_int_refuses(text, message, offset):
    assert ex.MAX_DIGITS == 4300
    with pytest.raises(ParseError, match=message) as err:
        parse(text, n=1)
    assert err.value.offset == offset


def test_parse_admits_digit_runs_at_the_limit():
    assert parse("q" + "0" * 4299 + "1", n=1) is Coord("q", 1)
    assert parse("q1^" + "0" * 4299 + "2", n=1) is ex.intpow(Coord("q", 1), 2)


@pytest.mark.parametrize("build, op, lhs, rhs", [
    (ex.add, "+", 1e308, 1e308),
    (ex.sub, "-", -1e308, 1e308),
    (ex.mul, "*", 1e200, 1e200),
    (ex.div, "/", 1e300, 1e-300),
])
def test_constant_folding_stops_at_overflow(build, op, lhs, rhs):
    e = build(Const(lhs), Const(rhs))
    assert e == BinOp(op, Const(lhs), Const(rhs))
    assert parse(unparse(e), n=1) == e
    assert math.isinf(evaluate(e, pt(0.0, 0.0, 0.0)))
    assert evaluate(e, pt(0.0, 0.0, 0.0)) == BINARY[op](lhs, rhs)
    assert build(Const(3.0), Const(2.0)) == Const(BINARY[op](3.0, 2.0))


@pytest.mark.parametrize("build", [
    lambda: ex.as_expr(math.inf),
    lambda: ex.const(math.nan),
    lambda: ex.add(Coord("q", 1), math.nan),
    lambda: Coord("q", 1) * math.inf,
], ids=["as_expr-inf", "const-nan", "add-nan", "mul-inf"])
def test_non_finite_constants_are_rejected(build):
    # a non-finite Const would print as a name and parse back as a parameter
    with pytest.raises(ExprError, match=r"constant (inf|nan) is not finite"):
        build()


def test_parse_whitespace_and_exponent_numbers():
    assert parse(" 1e-2 * q1 ", n=1) == BinOp("*", Const(0.01), Coord("q", 1))
    assert parse("2.5e3", n=1) == Const(2500.0)


def test_unary_minus_binds_inside_power():
    # grammar: factor := unary ("^" integer)?, so -q1^2 is (-q1)^2
    assert parse("-q1^2", n=1) == IntPow(Call("neg", Coord("q", 1)), 2)


# ---------------------------------------------------------------------------
# Differentiation


def test_differentiate_linear_term():
    e = parse("0.5*v1^2 - gam*z", n=1)
    assert differentiate(e, "z") == parse("-gam", n=1)


def test_differentiate_chain_rule():
    e = parse("exp(2*gam*q1)", n=1)
    d = differentiate(e, "q1")
    expected = parse("2*gam*exp(2*gam*q1)", n=1)
    for qv in (0.0, 0.3, -1.2):
        p = pt(qv, 0.0, 0.0)
        assert evaluate(d, p, {"gam": 0.7}) == pytest.approx(
            evaluate(expected, p, {"gam": 0.7}), rel=1e-15)


def test_differentiate_independence():
    assert differentiate(parse("q1", n=1), "v1") == Const(0.0)


def test_second_derivatives_are_exact():
    e = parse("q1^3*v1 + tanh(z)", n=1)
    d2 = differentiate(differentiate(e, "q1"), "q1")
    p = pt(2.0, 5.0, 0.3)
    assert evaluate(d2, p) == pytest.approx(6 * 2.0 * 5.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_closed_form():
    e = parse("0.5*v1^2 - gam*z", n=1)
    assert evaluate(e, pt(0.0, 2.0, 1.0), {"gam": 0.1}) == pytest.approx(1.9, abs=1e-15)


def test_evaluate_identity_and_domain_error():
    assert evaluate(parse("z", n=1), pt(3.0, -4.0, 7.0)) == 7.0
    with pytest.raises(DomainError, match="log"):
        evaluate(parse("log(q1)", n=1), pt(-1.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="division"):
        evaluate(parse("1/q1", n=1), pt(0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="sqrt"):
        evaluate(parse("sqrt(q1)", n=1), pt(-4.0, 0.0, 0.0))


def test_unbound_parameter():
    with pytest.raises(UnboundParameterError, match="gam"):
        evaluate(parse("gam*z", n=1), pt(0.0, 0.0, 1.0))


def test_evaluate_many_matches_scalar():
    e = parse("sin(q1)*v1 + exp(z)*gam - q1/(v1 + 3)", n=1)
    rng = np.random.default_rng(7)
    Q = rng.uniform(-1, 1, size=(64, 1))
    V = rng.uniform(-1, 1, size=(64, 1))
    Z = rng.uniform(-1, 1, size=64)
    batch = evaluate_many(e, Q, V, Z, {"gam": 1.3})
    for k in range(64):
        assert batch[k] == evaluate(e, pt(Q[k], V[k], Z[k]), {"gam": 1.3})


def test_compile_components_matches_evaluate():
    exprs = [parse("0.5*v1^2 - gam*z", n=1), parse("tanh(q1*v1)", n=1)]
    fn = compile_components(exprs, n=1, params={"gam": 0.1})
    p = pt(0.4, 2.0, 1.0)
    out = fn(p.coords())
    assert out[0] == evaluate(exprs[0], p, {"gam": 0.1})
    assert out[1] == evaluate(exprs[1], p, {"gam": 0.1})
    with pytest.raises(DomainError):
        compile_components([parse("log(q1)", n=1)], n=1)((-1.0, 0.0, 0.0))
    # a numpy vector, as integrate passes it, follows the same float rules
    pole = compile_components([parse("1/(q1 - 1)", n=1)], n=1)
    with pytest.raises(DomainError, match=r"division by zero in 1/\(q1 - 1\)"):
        pole(np.array([1.0, 0.0, 0.0]))


def test_compiled_program_explains_a_failure_with_its_frozen_parameters():
    # the tape that names the failure is the one lowered at compile time: a
    # second lowering would read c = 5.0 and return (-0.2,) at q1 = 0
    params = {"c": 0.0}
    program = compile_components([parse("1/(q1 - c)", n=1)], n=1, params=params)
    params["c"] = 5.0
    with pytest.raises(DomainError, match=r"^division by zero in 1/\(q1 - c\)$"):
        program((0.0, 0.0, 0.0))


def test_compile_components_is_its_own_function_returning_the_tape():
    # a profiler wraps functions by identity: an alias would count every tape
    assert compile_components is not ex.tape
    exprs = [parse("q1/v1 + z", 1), parse("gam*q1", 1), parse("log(z)", 1)]
    program, run = compile_components(exprs, 1, {"gam": 2.0}), ex.tape(exprs, 1, {"gam": 2.0})
    for y in ((1.0, 4.0, 0.5), (3.0, -2.0, 1e200), (0.0, 1.0, 2.0)):
        assert program(y) == run(y)
    for y, error in (((1.0, 0.0, 0.5), r"division by zero in q1/v1"),
                     ((1.0, 1.0, 0.0), r"log of non-positive value in log\(z\)")):
        with pytest.raises(DomainError, match=error):
            program(y)
    # the vector length is checked, as the tape does, not read in part
    with pytest.raises(ValueError, match="expected 3 coordinates, got 4"):
        program((1.0, 4.0, 0.5, 9.0))


def test_tape_runs_at_many_points_and_checks_the_vector_length():
    run = ex.tape([parse("q1/v1 + z", 1), parse("gam*q1", 1)], 1, {"gam": 2.0})
    assert run((1.0, 4.0, 0.5)) == (0.75, 2.0)
    assert run(np.array([3.0, 2.0, 0.0])) == (1.5, 6.0)
    with pytest.raises(DomainError, match=r"division by zero in q1/v1"):
        run((1.0, 0.0, 0.5))
    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        run((1.0, 4.0))
    # lowering resolves names, so an unbound parameter fails before any point
    with pytest.raises(UnboundParameterError, match="gam"):
        ex.tape([parse("gam*q1", 1)], 1)


# ---------------------------------------------------------------------------
# Jets


def test_jet_of_z_is_unit_vector():
    value, grad, hess = eval_jet2(parse("z", n=1), pt(0.5, -2.0, 7.0))
    assert value == 7.0
    np.testing.assert_array_equal(grad, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(hess, np.zeros((3, 3)))


def test_jet_frozen_example():
    # expected values from the closed form: dv1 = v1, dz = -gam, d2v1v1 = 1
    e = parse("0.5*v1^2 - gam*z", n=1)
    value, grad, hess = eval_jet2(e, pt(0.0, 2.0, 1.0), {"gam": 0.1})
    assert value == pytest.approx(1.9)
    np.testing.assert_allclose(grad, [0.0, 2.0, -0.1], atol=1e-15)
    expected_h = np.zeros((3, 3))
    expected_h[1, 1] = 1.0
    np.testing.assert_allclose(hess, expected_h, atol=1e-15)


def test_jet_exp_at_zero():
    value, grad, hess = eval_jet2(parse("exp(q1)", n=1), pt(0.0, 0.0, 0.0))
    assert value == 1.0
    assert grad[0] == 1.0
    assert hess[0, 0] == 1.0


def test_hessian_is_symmetric_by_construction():
    e = parse("q1*v1^2*z + sin(q1*z)", n=1)
    _, _, hess = eval_jet2(e, pt(0.7, -1.2, 0.4))
    np.testing.assert_array_equal(hess, hess.T)


# ---------------------------------------------------------------------------
# Finite-difference oracle for the derivative jets


def central_fd_gradient(e, point, params, h=1e-5):
    flat = point.coords()
    n = point.n
    out = np.zeros(len(flat))
    for k in range(len(flat)):
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        out[k] = (evaluate(e, StatePoint.from_coords(up, n), params)
                  - evaluate(e, StatePoint.from_coords(dn, n), params)) / (2 * h)
    return out


def central_fd_hessian(e, point, params, h=1e-5):
    flat = point.coords()
    n = point.n
    d = len(flat)
    out = np.zeros((d, d))
    f0 = evaluate(e, point, params)
    for k in range(d):
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        out[k, k] = (evaluate(e, StatePoint.from_coords(up, n), params) - 2 * f0
                     + evaluate(e, StatePoint.from_coords(dn, n), params)) / h**2
    for a in range(d):
        for b in range(a + 1, d):
            pp, pm, mp, mm = (flat.copy() for _ in range(4))
            pp[[a, b]] += h
            pm[a] += h
            pm[b] -= h
            mp[a] -= h
            mp[b] += h
            mm[[a, b]] -= h
            val = (evaluate(e, StatePoint.from_coords(pp, n), params)
                   - evaluate(e, StatePoint.from_coords(pm, n), params)
                   - evaluate(e, StatePoint.from_coords(mp, n), params)
                   + evaluate(e, StatePoint.from_coords(mm, n), params)) / (4 * h**2)
            out[a, b] = out[b, a] = val
    return out


FD_EXPRS = [
    "0.5*v1^2 - gam*z",
    "q1^3*v1 - z^2 + gam*q1*v1*z",
    "exp(2*gam*q1) - v1^4",
    "sin(q1)*cos(v1) + tanh(z)",
    "exp(q1*v1) + q1^2*z",
]


@pytest.mark.parametrize("text", FD_EXPRS)
def test_symbolic_derivatives_match_finite_differences(text):
    e = parse(text, n=1)
    params = {"gam": 0.4}
    rng = np.random.default_rng(42)
    for _ in range(25):
        point = pt(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        _, grad, hess = eval_jet2(e, point, params)
        fd_g = central_fd_gradient(e, point, params)
        fd_h = central_fd_hessian(e, point, params)
        assert np.max(np.abs(grad - fd_g) / (1 + np.abs(grad))) <= 1e-6
        assert np.max(np.abs(hess - fd_h) / (1 + np.abs(hess))) <= 1e-4


@given(a=st.floats(-3, 3), b=st.floats(-3, 3),
       x=st.floats(-1, 1), y=st.floats(-1, 1), w=st.floats(-1, 1))
def test_differentiate_is_linear(a, b, x, y, w):
    f = parse("q1^2*v1 + sin(z)", n=1)
    g = parse("exp(q1) - v1^3*z", n=1)
    combo = Const(a) * f + Const(b) * g
    point = pt(x, y, w)
    for var in ("q1", "v1", "z"):
        lhs = evaluate(differentiate(combo, var), point)
        rhs = (a * evaluate(differentiate(f, var), point)
               + b * evaluate(differentiate(g, var), point))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Printing round trip


def expr_strategy(n=2, max_depth=4):
    leaves = st.one_of(
        st.floats(min_value=0, max_value=9).map(lambda x: Const(round(x, 3))),
        st.sampled_from([Coord("q", 1), Coord("v", 1), Coord("q", 2),
                         Coord("v", 2), Coord("z"), Param("gam"), Param("m_0")]),
    )

    def extend(children):
        unary = children.flatmap(lambda e: st.sampled_from([
            ex.neg(e), ex.sin(e), ex.cos(e), ex.exp(e), ex.log(e), ex.sqrt(e),
            ex.tanh(e), ex.intpow(e, 2), ex.intpow(e, 3), ex.intpow(e, -1),
        ]))
        binary = st.tuples(children, children).flatmap(lambda ab: st.sampled_from([
            ex.add(ab[0], ab[1]), ex.sub(ab[0], ab[1]),
            ex.mul(ab[0], ab[1]), ex.div(ab[0], ab[1]),
        ]))
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(expr_strategy())
def test_parse_unparse_round_trip(e):
    text = unparse(e)
    again = parse(text, n=2)
    assert again == e
    assert reference_parse(text, 2) is again
    assert hash(again) == hash(e)
    assert unparse(again) == text


def sympy_partials(e, n, params):
    """``unparse(e)`` in sympy, with its first and second partials over the chart."""
    names = [str(c) for c in coords(n)]
    syms = sympy.symbols(names)
    f = sympy.sympify(unparse(e).replace("^", "**"), locals={
        **dict(zip(names, syms)), **{k: sympy.Float(x) for k, x in params.items()}})
    first = [sympy.diff(f, s) for s in syms]
    return syms, f, first, [[sympy.diff(first[a], s) for s in syms] for a in range(len(syms))]


def float_value(e, point, params):
    """``evaluate(e)``, or None where it is undefined or not finite."""
    try:
        value = evaluate(e, point, params)
    except DomainError:
        return None
    return value if math.isfinite(value) else None


def sympy_value(f, at):
    """A sympy expression at 30 digits, or None where it is not a finite real."""
    try:
        value = complex(f.evalf(30, subs=at))
    except TypeError:   # a complex infinity, such as a constant 1/0
        return None
    return value.real if not value.imag and math.isfinite(value.real) else None


# a float partial agrees with sympy's to ORACLE_RTOL of max(1, |value|)
# (the largest difference seen over 1600 drawn trees: 1.6e-12)
ORACLE_RTOL = 1e-9


def assert_partials_match_sympy(e, n, params, rng, points):
    """Compares at the points where both sides define the function itself;
    sympy folds an undefined constant such as sin(log(0)) to nan, whose
    derivative it then takes as 0."""
    syms, f, first, second = sympy_partials(e, n, params)
    d = 2 * n + 1
    pairs = [(ex.gradient(e, n)[a], first[a]) for a in range(d)]
    pairs += [(ex.hessian(e, n)[a][b], second[min(a, b)][max(a, b)])
              for a in range(d) for b in range(d)]
    compared = 0
    for _ in range(points):
        flat = rng.uniform(-1.0, 1.0, d)
        point = StatePoint.from_coords(flat, n)
        at = dict(zip(syms, (sympy.Float(x, 30) for x in flat)))
        if float_value(e, point, params) is None or sympy_value(f, at) is None:
            continue
        for ours, theirs in pairs:
            value, exact = float_value(ours, point, params), sympy_value(theirs, at)
            if value is not None and exact is not None:
                assert abs(value - exact) <= ORACLE_RTOL * max(1.0, abs(exact)), \
                    (unparse(e), unparse(ours))
                compared += 1
    return compared


@settings(max_examples=10, deadline=None)
@example(e=ex.add(Coord("q", 1), ex.sin(ex.log(Const(0.0)))))
@given(expr_strategy())
def test_partials_match_sympy_on_drawn_trees(e):
    assert_partials_match_sympy(e, 2, {"gam": 0.7, "m_0": -1.5}, np.random.default_rng(31), 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partials_match_sympy_on_regular_lagrangians(n):
    rng = np.random.default_rng(40 + n)
    system = random_regular_lagrangian(rng, n)
    assert assert_partials_match_sympy(system.L, n, {}, rng, 2) == 2 * (2 * n + 1) * (2 * n + 2)


# ---------------------------------------------------------------------------
# The differentiator as it was before coordinate masks and the constructors'
# node fast paths, kept as the reference: a derivative must be the very node
# it built, signed zeros included.  Its memo is keyed by (node, coordinate).

ZERO, ONE = Const(0.0), Const(1.0)


def ref_is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def ref_fold(op, a, b, value):
    return Const(value) if math.isfinite(value) else BinOp(op, a, b)


def ref_add(a, b):
    a, b = ex.as_expr(a), ex.as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return ref_fold("+", a, b, a.value + b.value)
    if ref_is_const(a, 0.0):
        return b
    if ref_is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def ref_sub(a, b):
    a, b = ex.as_expr(a), ex.as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return ref_fold("-", a, b, a.value - b.value)
    if ref_is_const(b, 0.0):
        return a
    if ref_is_const(a, 0.0):
        return ref_neg(b)
    return BinOp("-", a, b)


def ref_mul(a, b):
    a, b = ex.as_expr(a), ex.as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return ref_fold("*", a, b, a.value * b.value)
    if ref_is_const(a, 0.0) or ref_is_const(b, 0.0):
        return ZERO
    if ref_is_const(a, 1.0):
        return b
    if ref_is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def ref_div(a, b):
    a, b = ex.as_expr(a), ex.as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return ref_fold("/", a, b, a.value / b.value)
    if ref_is_const(b, 1.0):
        return a
    if ref_is_const(a, 0.0):
        return ZERO
    return BinOp("/", a, b)


def ref_neg(a):
    a = ex.as_expr(a)
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Call) and a.fn == "neg":
        return a.arg
    return Call("neg", a)


def ref_intpow(base, exponent):
    base = ex.as_expr(base)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and (base.value != 0.0 or exponent > 0):
        try:
            return Const(base.value ** exponent)
        except OverflowError:
            pass
    return IntPow(base, exponent)


def ref_call(fn, a):
    if isinstance(a, Const):
        try:
            return Const({"sin": math.sin, "cos": math.cos}[fn](a.value))
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return Call(fn, a)


def reference_diff(e, var, memo):
    if isinstance(e, Coord):
        return ONE if e is var else ZERO
    if isinstance(e, (Const, Param)):
        return ZERO
    if (e, var) not in memo:
        memo[e, var] = reference_rule(e, var, memo)
    return memo[e, var]


def reference_rule(e, var, memo):
    if isinstance(e, Call):
        da, a = reference_diff(e.arg, var, memo), e.arg
        if e.fn == "neg":
            return ref_neg(da)
        if e.fn == "sin":
            return ref_mul(ref_call("cos", a), da)
        if e.fn == "cos":
            return ref_neg(ref_mul(ref_call("sin", a), da))
        if e.fn == "exp":
            return ref_mul(e, da)
        if e.fn == "log":
            return ref_div(da, a)
        if e.fn == "sqrt":
            return ref_div(da, ref_mul(2.0, e))
        assert e.fn == "tanh"
        return ref_mul(ref_sub(1.0, ref_intpow(e, 2)), da)
    if isinstance(e, BinOp):
        dl, dr = reference_diff(e.lhs, var, memo), reference_diff(e.rhs, var, memo)
        if e.op == "+":
            return ref_add(dl, dr)
        if e.op == "-":
            return ref_sub(dl, dr)
        if e.op == "*":
            return ref_add(ref_mul(dl, e.rhs), ref_mul(e.lhs, dr))
        assert e.op == "/"
        return ref_div(ref_sub(ref_mul(dl, e.rhs), ref_mul(e.lhs, dr)),
                       ref_intpow(e.rhs, 2))
    assert isinstance(e, IntPow)
    db = reference_diff(e.base, var, memo)
    return ref_mul(ref_mul(float(e.exponent), ref_intpow(e.base, e.exponent - 1)), db)


def assert_partials_are_the_reference_nodes(e, n):
    """Every first and second partial over the chart, through ``differentiate``
    and through ``gradient``/``hessian``, is the reference's node.  Returns
    the number of partials compared."""
    memo, cs = {}, coords(n)
    grad, hess = ex.gradient(e, n), ex.hessian(e, n)
    for i, a in enumerate(cs):
        first = reference_diff(e, a, memo)
        assert differentiate(e, a) is first and grad[i] is first, (unparse(e), a)
        for j, b in enumerate(cs):
            second = reference_diff(first, b, memo)
            assert differentiate(differentiate(e, a), b) is second, (unparse(e), a, b)
            if i <= j:
                assert hess[i][j] is second and hess[j][i] is second, (unparse(e), a, b)
    return len(cs) * (len(cs) + 1)


def assert_masks_hold_their_coordinates(e):
    for node in ex._dag_nodes(e):
        for leaf in ex._dag_nodes(node):
            if isinstance(leaf, Coord):
                assert leaf._m & node._m == leaf._m, (unparse(node), unparse(leaf))


@settings(max_examples=200, deadline=None)
@example(e=ex.neg(Param("gam")))
@example(e=BinOp("*", Const(-1e200), Const(-1e200)))
@example(e=ex.mul(ex.log(Const(-1.0)), Coord("v", 1)))
@given(expr_strategy())
def test_partials_are_the_reference_nodes_on_drawn_trees(e):
    assert_partials_are_the_reference_nodes(e, 2)
    assert_masks_hold_their_coordinates(e)


def test_partials_are_the_reference_nodes_on_stream_lagrangians():
    """The Lagrangians, bar-Lagrangians and action functions of one
    symbolic_stream benchmark pass."""
    compared = 0
    for _, n, e in stream_texts():
        compared += assert_partials_are_the_reference_nodes(e, n)
        assert_masks_hold_their_coordinates(e)
    assert compared == 300 * (12 + 30 + 56)


def test_signed_zero_partials_survive_the_masks():
    q1, v1, z, gam = Coord("q", 1), Coord("v", 1), Coord("z"), Param("gam")
    big = ex.mul(Const(-1e200), Const(-1e200))   # overflows, so stays a product
    assert isinstance(big, BinOp)
    for e, var in [(ex.neg(gam), q1), (big, z), (ex.log(Const(-1.0)), v1)]:
        assert differentiate(e, var) is Const(-0.0), unparse(e)
        assert differentiate(e, q1) is differentiate(e, z)   # one node for all absent
    e = ex.mul(ex.log(Const(-1.0)), v1)
    assert differentiate(e, q1) is ZERO and differentiate(e, v1) is e.lhs


def test_a_derivative_by_an_absent_coordinate_is_memoized_once():
    e = parse("q1*sin(v1) - gam", 3)
    ex.gradient(e, 3)
    coordinate_keys = [key for key in e._d if isinstance(key, Coord)]
    assert sorted(map(unparse, coordinate_keys)) == ["q1", "v1"]
    assert len(e._d) == 3   # q1, v1 and one entry shared by q2, q3, v2, v3, z


def test_masks_are_small_ints_and_raw_nodes_have_them():
    far = Coord("q", 10**6)
    assert far._m == Coord("v", 31)._m >> 1 and far._m < 2**64
    assert Coord("q", 1)._m != Coord("v", 1)._m != Coord("z")._m
    assert ex.add(far, Coord("q", 40))._m == far._m
    # payloads that are not nodes add nothing
    a = parse("q1*z", 1)
    assert Call("q", 1)._m == 0 and IntPow("neg", a)._m == a._m
    assert Coord("q", -1)._m and Coord("q", "1")._m
    assert differentiate(ex.sin(far), far) is ex.cos(far)
    assert differentiate(ex.sin(far), Coord("q", 10**6 + 1)) is ZERO


# ---------------------------------------------------------------------------
# The parser as it was before the one-pass lexer, kept verbatim as the
# reference: parse must return the same node, or raise the same message at
# the same offset, on every input within its limits.

_BUILDERS = {name: getattr(ex, name) for name in ex.FUNCTIONS}

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
        return self.left_assoc(self.term, {"+": add, "-": sub})

    def term(self) -> Expr:
        return self.left_assoc(self.factor, {"*": mul, "/": div})

    def left_assoc(self, operand, builders) -> Expr:
        e = operand()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in builders:
                return e
            self.advance()
            e = builders[text](e, operand())

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
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number literal {text!r} overflows", pos)
            return Const(value)
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


def reference_parse(text, n):
    return _Parser(text, n).parse()


def parse_outcome(parse_fn, text, n):
    """The node parsed, or the message and offset of the ParseError."""
    try:
        return parse_fn(text, n)
    except ParseError as exc:
        return str(exc), exc.offset


def recorded_texts(build):
    """(text, n, node) of every parse call that ``build()`` makes, in order."""
    seen = []

    def record(text, n):
        seen.append((text, n, parse(text, n)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        for module in (ex, fixtures, cli):
            mp.setattr(module, "parse", record)
        build()
    return seen


def program_texts(out_dir):
    """The fixture texts, the README's configuration and command-line
    expressions, and the perfbench texts other than the symbolic stream's."""
    readme = (ROOT / "README.md").read_text()
    config = re.search(r"### Configuration\s+```json\n(.*?)```", readme, re.S).group(1)
    (out_dir / "readme.json").write_text(config)

    def build():
        for make in fixtures.builtin_systems().values():
            make()
        cli.load_config(str(out_dir / "readme.json"))
        for text in re.findall(r'--accel-residual "([^"]+)"', readme):
            ex.parse(text, 1)
        for name in ("dense_sweep", "trajectory"):
            workloads.BUILDERS[name](7, False, out_dir)

    return recorded_texts(build)


@functools.lru_cache(maxsize=1)
def stream_texts():
    """The 900 texts of one symbolic_stream benchmark pass."""
    return tuple(recorded_texts(lambda: workloads.symbolic_stream(5, False, None)))


def test_parse_matches_the_reference_on_program_texts(tmp_path):
    texts = program_texts(tmp_path) + list(stream_texts())
    assert len(texts) > 950
    for text, n, node in texts:
        assert reference_parse(text, n) is node


MUTATION_ALPHABET = "qvz0123456789.eE+-*/^() \tsincoexplgrtah_$,\u00e9\u0663"
MUTATIONS = 600


def mutate(rng, text):
    """One to three character deletions, insertions or replacements."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        kind = rng.randrange(3)
        if kind == 1 or not chars:
            chars.insert(at, rng.choice(MUTATION_ALPHABET))
        elif kind == 0:
            del chars[min(at, len(chars) - 1)]
        else:
            chars[min(at, len(chars) - 1)] = rng.choice(MUTATION_ALPHABET)
    return "".join(chars)


def test_parse_matches_the_reference_on_mutated_stream_texts():
    rng = random.Random(20261019)
    texts = stream_texts()
    for _ in range(MUTATIONS):
        text, n, _ = rng.choice(texts)
        text, n = mutate(rng, text), rng.choice((n, 1, 3))
        assert parse_outcome(parse, text, n) == parse_outcome(reference_parse, text, n), text


@settings(max_examples=80, deadline=None)
@given(st.text(st.sampled_from(MUTATION_ALPHABET), max_size=30) | st.text(max_size=10),
       st.integers(1, 3))
def test_parse_returns_a_node_or_raises_parse_error(text, n):
    try:
        assert isinstance(parse(text, n), Expr)
    except ParseError:
        pass


@pytest.mark.parametrize("text, message, offset", [
    ("(" * 101 + "z" + ")" * 101, "parentheses nested deeper than 100", 100),
    ("sin(" * 101 + "z" + ")" * 101, "parentheses nested deeper than 100", 403),
    ("+".join("z" * 402), "expression deeper than 400 operators", 801),
    # call, sign and power add three a level: 101 + 3 * 100 crosses at the last "^"
    ("-sin(" * 100 + "+".join("z" * 102) + ")^2" * 100,
     "expression deeper than 400 operators", 500 + 203 + 298),
], ids=["parentheses", "calls", "sum", "operand-chain"])
def test_parse_limits_refuse_at_the_crossing_token(text, message, offset):
    assert ex.MAX_NESTING == 100 and ex.MAX_DEPTH == 400
    with pytest.raises(ParseError, match=message) as err:
        parse(text, 1)
    assert err.value.offset == offset


def test_parse_limits_admit_what_they_bound():
    z = Coord("z")
    assert parse("(" * 100 + "z" + ")" * 100, 1) is z
    assert parse("+".join("z" * 401), 1) is functools.reduce(ex.add, [z] * 401)
    # a chain of minus signs is a loop: no depth beyond the one neg it leaves
    assert parse("-" * 3000 + "q1", 1) is Coord("q", 1)
    assert parse("-" * 3001 + "q1", 1) is ex.neg(Coord("q", 1))


def _outcome(run):
    """A value as its repr (bit-exact, NaN-safe), or the error type and text."""
    try:
        return repr(float(run()))
    except ExprError as exc:
        return type(exc), str(exc)


def _outcomes(run):
    """Several values as their reprs, or the error type and text."""
    try:
        return tuple(repr(float(x)) for x in run())
    except ExprError as exc:
        return type(exc), str(exc)


BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def reference_evaluate(e, point, params):
    """Plain recursive tree walk without sharing: every occurrence of a
    subtree is computed again, in the post-order evaluate follows."""
    flat, n = point.coords().tolist(), point.n

    def ev(node):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Coord):
            return flat[ex._slot(node, n)]
        if isinstance(node, Param):
            return ex._param_value(node, params)
        if isinstance(node, Call):
            args, apply = (ev(node.arg),), ex._APPLY[node.fn]
        elif isinstance(node, IntPow):
            args, apply = (ev(node.base),), lambda x: x ** node.exponent
        else:
            args, apply = (ev(node.lhs), ev(node.rhs)), BINARY[node.op]
        try:
            return apply(*args)
        except ex._FLOAT_ERRORS as exc:
            raise ex._domain_error(exc, node) from None

    return ev(e)


# evaluate's memo is keyed by node identity: these shapes reach one subtree
# object more than once
DAG_SHAPES = {
    "tree": lambda e: e,
    "derivative": lambda e: differentiate(e, "q1"),
    "doubled": lambda e: ex.add(e, e),
    "signed square": lambda e: ex.mul(e, ex.neg(e)),
}


def rendered_program(exprs, n, params):
    """The statements of ``render`` as one function of the coordinate
    vector.  As in the RK4 loops, a float error reruns the point on the tape
    of the same lowering, which must raise: else the float error goes on."""
    lines, names, env, _ = ex.render(exprs, n, params)
    source = (f"def program({', '.join(f'x{i}' for i in range(2 * n + 1))}):\n"
              + "".join(f"    {line}\n" for line in lines)
              + f"    return ({''.join(f'{name}, ' for name in names)})\n")
    exec(compile(source, "<rendered>", "exec"), env)  # noqa: S102

    def run(y):
        try:
            return env["program"](*map(float, y))
        except env["FLOAT_ERRORS"]:
            env["tape"](y)
            raise

    return run


BIG = Const(2.7167594696637367e+271)
OTHER_FLAT = (0.3, -0.7, 2.0, -1.0, 1e200)


def _bits(values):
    """The IEEE bit patterns of floats, NaN signs and payloads included."""
    return struct.pack(f"{len(values)}d", *values)


ODD = [0.0, -0.0, 1.0, 800.0, 1e200, math.nan, -math.nan, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@example(e=ex.neg(ex.mul(BIG, BIG)), other=Const(1.0), shape="tree", flat=[0.0] * 5,
         position=0, odd=[0.0] * 5, odd_at=0)
# zero divisors of both signs; exp and ^ overflow; NaN and infinite inputs
@example(e=ex.div(Const(1.0), Coord("q", 1)), other=ex.exp(Coord("v", 1)), shape="tree",
         flat=[1.0, 800.0, 0.0, 0.5, 1.0], position=150, odd=[-0.0, 1.0, 0.0, 1.0, 1.0],
         odd_at=40)
@example(e=ex.intpow(Coord("z"), 2), other=ex.sqrt(Coord("q", 2)), shape="doubled",
         flat=[1.0, 1.0, 1.0, 1.0, 1e200], position=19, odd=[math.nan, math.inf, -math.inf,
                                                                -math.nan, 0.5], odd_at=7)
@given(e=expr_strategy(), other=expr_strategy(),
       shape=st.sampled_from(sorted(DAG_SHAPES)),
       flat=st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.5, 800.0, 1e200]),
                     min_size=5, max_size=5),
       position=st.integers(0, 199), odd=st.lists(st.sampled_from(ODD), min_size=5, max_size=5),
       odd_at=st.integers(0, 199))
def test_executors_agree_on_values_and_errors(e, other, shape, flat, position, odd, odd_at):
    e = DAG_SHAPES[shape](e)
    assert parse(unparse(e), n=2) == e
    params = {"gam": 0.7, "m_0": -1.5}
    point = StatePoint.from_coords(flat, 2)
    scalar = _outcome(lambda: evaluate(e, point, params))
    assert _outcome(lambda: reference_evaluate(e, point, params)) == scalar
    compiled = _outcome(lambda: rendered_program([e], 2, params)(point.coords())[0])
    assert compiled == scalar
    many = _outcome(lambda: evaluate_many(
        e, point.q[None], point.v[None], [point.z], params)[0])
    assert many == scalar
    # a held tape, lowered once and run at another point first, keeps no
    # register state from that run
    held = ex.tape([e], 2, params)
    _outcome(lambda: held(OTHER_FLAT)[0])
    assert _outcome(lambda: held(point)[0]) == scalar
    # several expressions sharing subtrees: the values of one walk each, or
    # the error of the first expression that fails
    exprs = [e, other, differentiate(e, "q1"), ex.sub(e, other), ex.mul(other, e)]
    each = [_outcome(lambda x=x: evaluate(x, point, params)) for x in exprs]
    expected = next((o for o in each if not isinstance(o, str)), tuple(each))
    assert _outcomes(lambda: evaluate_all(exprs, point, params)) == expected
    program = rendered_program(exprs, 2, params)
    assert _outcomes(lambda: program(point.coords())) == expected
    held = ex.tape(exprs, 2, params)
    _outcomes(lambda: held(OTHER_FLAT))
    assert _outcomes(lambda: held(point)) == expected
    # the rows of a held tape, with a coordinate and a constant among its
    # results: the point at a drawn place in samples on both sides of
    # ROWS_MIN, beside OTHER_FLAT and a drawn row of signed zeros, NaNs or
    # infinities, give the values and the first error of a walk of the calls
    held = ex.tape([*exprs, Coord("v", 2), Const(2.5)], 2, params)
    for size in (1, ex.ROWS_MIN - 1, ex.ROWS_MIN, 200):
        ys = [OTHER_FLAT] * size
        ys[odd_at % size] = tuple(odd)
        ys[position % size] = tuple(flat)
        values, error = held.rows(ys)
        walked, failure = [], None
        for y in ys:
            try:
                walked.append(held(y))
            except ExprError as exc:
                failure = (type(exc), str(exc))
                break
        assert (error and (type(error), str(error))) == failure
        assert values.shape == (len(walked), len(exprs) + 2)
        assert list(map(_bits, values.tolist())) == list(map(_bits, walked))


SOLVE_ENTRIES = [Coord("q", 1), Coord("q", 2), Coord("v", 1), Coord("v", 2), Coord("z"),
                 Const(1.0), Const(-1.0), Const(0.0), Const(2.0), Param("gam"),
                 ex.neg(Coord("q", 1)), ex.mul(Coord("q", 1), Coord("v", 1)),
                 ex.sub(Coord("q", 2), Coord("z"))]
# ties in magnitude (1, -1, 2, -2, 0, -0), NaNs and infinities
SOLVE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e200, math.nan, math.inf, -math.inf]


@st.composite
def solve_systems(draw):
    m = draw(st.integers(2, 6))
    entries = st.sampled_from(SOLVE_ENTRIES)
    return (draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m)),
            draw(st.lists(entries, min_size=m, max_size=m)))


@settings(max_examples=200, deadline=None)
# W exactly singular at the drawn point, and a pivot tie at it
@example(system=([[Coord("q", 1), Coord("q", 2)], [Coord("v", 1), Coord("v", 2)]],
                 [Coord("z"), Const(1.0)]),
         flat=[1.0, 2.0, 1.0, 2.0, 0.5], position=150, odd=[1.0, -1.0, -1.0, 1.0, 0.0],
         odd_at=3)
# a NaN and an infinity in W
@example(system=([[Coord("q", 1), Const(1.0), Coord("z")], [Const(2.0), Coord("v", 1), Const(0.0)],
                  [Coord("v", 2), Const(-1.0), Coord("q", 2)]],
                 [Coord("q", 1), Coord("v", 2), Const(1.0)]),
         flat=[math.nan, math.inf, -1.0, 2.0, 0.5], position=20, odd=[0.0, -0.0, 1.0, 1.0, -1.0],
         odd_at=199)
@given(system=solve_systems(),
       flat=st.lists(st.sampled_from(SOLVE_VALUES), min_size=5, max_size=5),
       position=st.integers(0, 199), odd=st.lists(st.sampled_from(SOLVE_VALUES), min_size=5,
                                                  max_size=5),
       odd_at=st.integers(0, 199))
def test_executors_agree_on_solves(system, flat, position, odd, odd_at):
    """A tape holding solves (a system, the derivative's system on the same W,
    a sum of components) gives, by call, by rows on both sides of ROWS_MIN and
    by the rendered statements, the same bits or the same error at the same
    point, whatever the pivot ties and non-finite entries.  The rendered
    statements' NaNs are compared as NaNs: CPython's float-specialized ``*``
    returns the other operand's NaN of two once a function is warm."""
    matrix, rhs = system
    try:
        x = solve_cramer(matrix, rhs)
    except ExprError:   # singular for every value: no tape
        return
    params = {"gam": 0.7}
    exprs = [*x, differentiate(x[0], "q1"), ex.add(x[0], x[-1]), Coord("v", 2), Const(2.5)]
    held = ex.tape(exprs, 2, params)
    program = rendered_program(exprs, 2, params)
    for y in (flat, odd, OTHER_FLAT):
        called = _outcomes(lambda: held(y))
        assert _outcomes(lambda: program(y)) == called
        if called[0] is not DomainError:
            assert _bits([abs(v) if v != v else v for v in program(y)]) == \
                _bits([abs(v) if v != v else v for v in held(y)])
    for size in (1, ex.ROWS_MIN - 1, ex.ROWS_MIN, 200):
        ys = [OTHER_FLAT] * size
        ys[odd_at % size] = tuple(odd)
        ys[position % size] = tuple(flat)
        values, error = held.rows(ys)
        walked, failure = [], None
        for y in ys:
            try:
                walked.append(held(y))
            except ExprError as exc:
                failure = (type(exc), str(exc))
                break
        assert (error and (type(error), str(error))) == failure
        assert values.shape == (len(walked), len(exprs))
        assert list(map(_bits, values.tolist())) == list(map(_bits, walked))


PARAM_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 800.0, 1e200, -1e200]


def param_expr_strategy():
    """Trees that read the parameters a, b, c at most leaves, so that most of
    their subtrees read no coordinate."""
    leaves = st.one_of(
        st.sampled_from([Param("a"), Param("b"), Param("c")]),
        st.sampled_from([Const(2.0), Const(0.5), Coord("q", 1), Coord("v", 2), Coord("z")]),
    )

    def extend(children):
        unary = children.flatmap(lambda e: st.sampled_from([
            ex.neg(e), ex.sin(e), ex.exp(e), ex.log(e), ex.sqrt(e), ex.intpow(e, 2),
            ex.intpow(e, -1)]))
        binary = st.tuples(children, children).flatmap(lambda ab: st.sampled_from([
            ex.add(*ab), ex.sub(*ab), ex.mul(*ab), ex.div(*ab)]))
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@example(e=ex.sub(ex.mul(Param("a"), Param("a")), ex.mul(Param("b"), Param("b"))),
         values=[1e200, 1e200, 0.0], flat=[0.5, 0.5, 0.5, 0.5, 0.5])
@example(e=ex.add(Coord("z"), ex.div(Const(2.0), ex.sub(Param("a"), Param("b")))),
         values=[-0.0, 0.0, 1.0], flat=[0.5, 0.5, 0.5, 0.5, 0.5])
@given(e=param_expr_strategy(),
       values=st.lists(st.sampled_from(PARAM_VALUES), min_size=3, max_size=3),
       flat=st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.5, 1e200]), min_size=5,
                     max_size=5))
def test_parameter_only_instructions_fold_to_the_reference_bits(e, values, flat):
    """A node over parameters and constants is computed at lowering: the
    call, the rows at 3 and at ROWS_MIN points and the rendered statements
    give the reference's bits or its error.  A node over parameters that is
    still an instruction raises, and no rendered statement reads no
    coordinate unless it raises."""
    params = dict(zip("abc", values))
    point = StatePoint.from_coords(flat, 2)

    def bits(run):   # a value's bit pattern, NaN sign included, or the error
        try:
            return _bits([float(run())])
        except ExprError as exc:
            return type(exc), str(exc)

    expected = bits(lambda: reference_evaluate(e, point, params))
    held = ex.tape([e], 2, params)
    assert bits(lambda: held(point)[0]) == expected
    for size in (3, ex.ROWS_MIN):
        rows, error = held.rows([point] * size)
        if error is None:
            assert [_bits(row) for row in rows.tolist()] == [expected] * size
        else:
            assert (type(error), str(error)) == expected and len(rows) == 0
    assert bits(lambda: rendered_program([e], 2, params)(point)[0]) == expected
    code, regs, _ = ex._lower([e], 2, params)
    for _, _, _, out in code:
        if not regs[out - 5]._m:
            with pytest.raises(DomainError):
                reference_evaluate(regs[out - 5], point, params)


@pytest.mark.parametrize("text, params, message", [
    ("v1 + log(k)", {"k": -1.0}, "log of non-positive value in log(k)"),
    ("z*(1/(k - k))", {"k": 2.0}, "division by zero in 1/(k - k)"),
])
def test_a_parameter_only_instruction_that_raises_at_lowering_raises_at_every_point(
        text, params, message):
    e = parse(text, 1)
    held = ex.tape([e], 1, params)
    code, regs, _, d = held
    assert [unparse(regs[out - d]) for *_, out in code if not regs[out - d]._m] == \
        [message.split(" in ")[1]]
    for y in ([0.5, 1.0, 0.0], [-2.0, 3.0, 1.5], [1e200, -0.0, math.nan]):
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            held(y)
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            rendered_program([e], 1, params)(y)
        for size in (3, ex.ROWS_MIN):
            values, error = held.rows([y] * size)
            assert values.shape == (0, 1) and str(error) == message
    field = CoordVectorField(1, (parse("v1", 1), Const(0.0), e))
    with pytest.raises(IntegrationError, match=rf"^field evaluation failed in the step "
                                               rf"from t = 0\.0 to t = 0\.1: "
                                               rf"{re.escape(message)} \(last good t = 0.0\)$"):
        integrate(field, StatePoint.from_coords([0.5, 1.0, 0.0], 1), 1.0, 0.1, params)
    curve = SampledCurve(np.linspace(0.0, 1.0, 5), np.zeros((5, 1)))
    with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
        z_operator(e, curve, 0.0, params)


def test_unparse_examples():
    e = parse("0.5*v1^2 - gam*z", n=1)
    assert parse(unparse(e), n=1) == e
    assert unparse(parse("-(q1 + z)", n=1)) == "-(q1 + z)"


# ---------------------------------------------------------------------------
# Substitution, structure queries, parameter plumbing


def test_substitute_coordinate():
    e = parse("0.5*v1^2 - gam*z", n=1)
    zeta = parse("z + v1", n=1)
    composed = substitute(e, Coord("z"), zeta)
    p = pt(0.0, 2.0, 1.0)
    assert evaluate(composed, p, {"gam": 0.1}) == pytest.approx(
        0.5 * 4 - 0.1 * (1.0 + 2.0))


def reference_substitute(e, target, replacement):
    """substitute as a full walk: every node rebuilt, none skipped."""
    memo = {target: replacement}

    def walk(node):
        out = memo.get(node)
        if out is not None:
            return out
        if isinstance(node, Call):
            out = ex._BUILDERS[node.fn](walk(node.arg))
        elif isinstance(node, BinOp):
            out = ex._BUILDERS[node.op](walk(node.lhs), walk(node.rhs))
        elif isinstance(node, IntPow):
            out = ex.intpow(walk(node.base), node.exponent)
        elif isinstance(node, ex.Solve):
            out = ex._solution([[*map(walk, row)] for row in node.matrix],
                               [*map(walk, node.vector)])[node.index]
        else:
            out = node
        memo[node] = out
        return out

    return walk(e)


def substitution_targets(n):
    return [*coords(n), Param("gam"), Param("k")]


def assert_substitutions_match_the_full_walk(exprs, n, replacement):
    for e in exprs:
        for target in substitution_targets(n):
            assert substitute(e, target, replacement) is \
                reference_substitute(e, target, replacement)


def fixture_expressions(obj):
    """The expressions a fixture holds, with the Herglotz field of a
    Lagrangian system (its solves, for n >= 2)."""
    if isinstance(obj, Expr):
        return [obj]
    found = [getattr(obj, name) for name in ("L", "H", "zeta", "z_rate") if hasattr(obj, name)]
    found += [*getattr(getattr(obj, "eta", None), "components", ()),
              *getattr(obj, "accelerations", ())]
    if hasattr(obj, "L") and hasattr(obj, "n_dim"):
        found += herglotz_field(obj).components
    return found


def test_substitute_skips_what_cannot_hold_the_target_on_every_fixture():
    for name, build in fixtures.builtin_systems().items():
        obj = build()
        exprs = fixture_expressions(obj)
        n = getattr(obj, "n_dim", None) or max(map(ex.max_coord_index, exprs)) or 1
        assert_substitutions_match_the_full_walk(exprs, n, parse(f"z + 0.3*q1*q{n}", n))


def test_substitute_skips_what_cannot_hold_the_target_on_the_stream_texts():
    """The symbolic stream's Lagrangians, gauge bars and action functions,
    and a few of their fields, composed with their gauge as
    compose_with_zeta does."""
    rng = np.random.default_rng(5)
    for k in range(300):
        n = k % 3 + 1
        text_of = workloads._random_regular_text(rng, n)
        bar_text, zeta_text = workloads.gauge_texts(text_of, n, float(rng.uniform(0.1, 0.5)))
        exprs = [parse(text_of("z"), n), parse(bar_text, n), parse(zeta_text, n)]
        if k < 12:
            exprs += herglotz_field(ContactLagrangianSystem(n, exprs[0])).components
        gauge = exprs[2]
        for e in exprs:
            assert substitute(e, Coord("z"), gauge) is reference_substitute(e, Coord("z"), gauge)


@settings(max_examples=200, deadline=None)
@given(e=expr_strategy(), other=expr_strategy())
def test_substitute_skips_what_cannot_hold_the_target_on_drawn_trees(e, other):
    assert_substitutions_match_the_full_walk([e, differentiate(e, "v1")], 2, other)


def test_depends_on():
    e = parse("q1^2 + sin(z)*gam", n=2)
    assert depends_on(e, Coord("q", 1))
    assert not depends_on(e, Coord("v", 1))
    assert depends_on(e, Param("gam"))


def test_merge_params_conflicts():
    assert merge_params({"a": 1.0}, {"b": 2.0}) == {"a": 1.0, "b": 2.0}
    assert merge_params({"a": 1.0}, {"a": 1.0}) == {"a": 1.0}
    with pytest.raises(Exception, match="conflicting"):
        merge_params({"a": 1.0}, {"a": 2.0})
    with pytest.raises(Exception, match="finite"):
        merge_params({"a": math.inf})


def test_statepoint_validation():
    with pytest.raises(ValueError):
        StatePoint(np.array([1.0, 2.0]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        StatePoint(np.array([np.nan]), np.array([0.0]), 0.0)
    p = StatePoint.from_coords([1.0, 2.0, 3.0], 1)
    np.testing.assert_array_equal(p.coords(), [1.0, 2.0, 3.0])


FLAT = [0.25, -1.5, 3, 1e-300, -0.0]   # n = 2, with an int and a negative zero


@pytest.mark.parametrize("coords", [
    FLAT, tuple(FLAT), [1, 2, 3, 4, 5], np.array(FLAT), np.array(FLAT).reshape(1, 5),
    np.array([1, 2, 3, 4, 5]),
], ids=["list", "tuple", "ints", "array", "row-array", "int-array"])
def test_from_coords_matches_the_constructor(coords):
    p = StatePoint.from_coords(coords, 2)
    flat = np.asarray(coords, dtype=float).reshape(-1)
    ref = StatePoint(flat[:2], flat[2:4], flat[4])
    assert all(type(x) is float for x in p)
    assert np.array(p).tobytes() == np.array(ref).tobytes() == flat.tobytes()
    for got, want in ((p.q, ref.q), (p.v, ref.v)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert type(p.z) is float and repr(p.z) == repr(ref.z)
    assert p.n == 2 and p.coords().tobytes() == ref.coords().tobytes()


@pytest.mark.parametrize("slot", range(5))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_coords_rejects_non_finite_entries(slot, bad):
    coords = [0.5] * 5
    coords[slot] = bad
    for build in (lambda: StatePoint.from_coords(coords, 2),
                  lambda: StatePoint.from_coords(np.array(coords), 2),
                  lambda: StatePoint(coords[:2], coords[2:4], coords[4])):
        with pytest.raises(ValueError, match=r"^state point entries must be finite$"):
            build()


@pytest.mark.parametrize("coords", [[0.0] * 4, [0.0] * 6, np.zeros((2, 3))])
def test_from_coords_rejects_a_wrong_length(coords):
    with pytest.raises(ValueError, match=rf"^expected 5 coordinates, got {len(np.ravel(coords))}$"):
        StatePoint.from_coords(coords, 2)


# ---------------------------------------------------------------------------
# Symbolic linear algebra helpers


def test_solve_cramer_against_numpy():
    rng = np.random.default_rng(4)
    mat = rng.uniform(-2, 2, size=(3, 3)) + 3 * np.eye(3)
    rhs = rng.uniform(-2, 2, size=3)
    sym = [[Const(float(x)) for x in row] for row in mat]
    srhs = [Const(float(x)) for x in rhs]
    sol = solve_cramer(sym, srhs)
    expected = np.linalg.solve(mat, rhs)
    point = pt(0.0, 0.0, 0.0)
    for k in range(3):
        assert evaluate(sol[k], point) == pytest.approx(expected[k], rel=1e-10)


@pytest.mark.parametrize("matrix", [
    [[Const(0.0)]], [[Const(-0.0)]], [[Const(0.0), Const(0.0)], [Coord("v", 1), Const(1.0)]],
    [[Coord("q", 1), Const(-0.0)], [Coord("v", 1), Const(0.0)]],
    [[Const(1.0), Const(2.0), Const(0.5)], [Const(2.0), Const(4.0), Const(1.0)],
     [Const(0.0), Const(3.0), Const(7.0)]],
], ids=["zero", "minus-zero", "zero-row", "zero-column", "constant-zero-pivot"])
def test_solve_cramer_refuses_a_determinant_that_folds_to_zero(matrix):
    # a quotient by a constant zero would print as a field and fail at every point
    with pytest.raises(ExprError, match=r"^singular matrix: its determinant is identically -?0$"):
        solve_cramer(matrix, [Coord("q", 1)] * len(matrix))


def test_coords_order():
    cs = coords(2)
    assert [unparse(c) for c in cs] == ["q1", "q2", "v1", "v2", "z"]


def cofactor_solve(matrix, rhs):
    m = len(matrix)
    d = cofactor_det(matrix)
    return [ex.div(cofactor_det([[rhs[i] if k == j else matrix[i][k] for k in range(m)]
                                 for i in range(m)]), d)
            for j in range(m)]


def random_entry(rng):
    kind = int(rng.integers(6))
    leaf = [Coord("q", 1), Coord("v", 2), Coord("z"), Param("gam")][int(rng.integers(4))]
    return [Const(0.0), Const(1.0), Const(round(float(rng.uniform(-2, 2)), 3)),
            leaf, ex.mul(Const(0.5), leaf), ex.sin(leaf)][kind]


SOLVE_PARAMS = {"gam": 0.7}


def system_points(rng, count=4):
    return [pt(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), rng.uniform(-1, 1))
            for _ in range(count)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_the_solve_matches_the_cofactor_reference(m):
    """On the seeded random systems the cofactor expansion was pinned on: where
    the reference determinant folds to zero, the solve is refused or raises a
    DomainError at every point; elsewhere it is built and its values match the
    reference's at a tolerance scaled by cond(W)."""
    rng = np.random.default_rng(100 + m)
    for _ in range(5):
        mat = [[random_entry(rng) for _ in range(m)] for _ in range(m)]
        rhs = [random_entry(rng) for _ in range(m)]
        det, points = cofactor_det(mat), system_points(np.random.default_rng(200 + m))
        if type(det) is Const and det.value == 0:   # singular for every point
            try:
                solution = solve_cramer(mat, rhs)
            except ExprError as exc:
                assert str(exc) == "singular matrix: its determinant is identically 0"
                continue
            for p in points:
                with pytest.raises(DomainError, match=r"^zero pivot in solve\(\["):
                    evaluate_all(solution, p, SOLVE_PARAMS)
            continue
        solution = solve_cramer(mat, rhs)
        assert all(type(x) is ex.Solve for x in solution) if m > 1 else \
            solution == cofactor_solve(mat, rhs)
        reference = cofactor_solve(mat, rhs)
        entries = [w for row in mat for w in row]
        for p in points:
            w = np.array(evaluate_all(entries, p, SOLVE_PARAMS)).reshape(m, m)
            want = np.array(evaluate_all(reference, p, SOLVE_PARAMS))
            got = np.array(evaluate_all(solution, p, SOLVE_PARAMS))
            tol = 1e-14 * np.linalg.cond(w) * max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= tol


def test_a_system_singular_for_every_value_fails_at_every_point():
    """Rows 1 and 2 of W read only column 3: det W folds to zero in the
    cofactor expansion, no row or column is constant zeros, and elimination
    meets a zero pivot wherever the entries are finite."""
    q1, v1, z_ = Coord("q", 1), Coord("v", 1), Coord("z")
    mat = [[Const(0.0), Const(0.0), q1], [Const(0.0), Const(0.0), v1], [z_, ex.sin(q1), v1]]
    assert cofactor_det(mat) is Const(0.0)
    solution = solve_cramer(mat, [q1, v1, z_])
    for y in ([0.5, 1.0, 2.0], [0.0, 0.0, 0.0], [-1.0, 3.0, -0.0]):
        for run in (ex.tape(solution, 1), rendered_program(solution, 1, {})):
            with pytest.raises(DomainError, match=r"^zero pivot in solve\(\["):
                run(y)


def test_solve_nodes_of_one_system_lower_to_one_solve_step():
    """W and b are emitted once, then one solve step and a pick per component:
    a 3 x 3 system over q1 lowers to 5 instructions for its entries, the step
    and 3 picks."""
    q1 = Coord("q", 1)
    mat = [[ex.sin(q1), Const(1.0), Const(0.5)], [Const(1.0), ex.cos(q1), Const(0.0)],
           [Const(2.0), Const(0.0), ex.exp(q1)]]
    rhs = [q1, ex.mul(q1, q1), Const(1.0)]
    solution = solve_cramer(mat, rhs)
    assert len({(x.matrix, x.vector) for x in solution}) == 1
    code, regs, results = ex._lower([*solution, *solution], 1, {})
    assert [type(a) is tuple for _, a, _, _ in code].count(True) == 1
    assert len(code) == 4 + 1 + 3 and results[:3] == results[3:]
    np.testing.assert_allclose(evaluate_all(solution, pt(0.3, 0.0, 0.0)),
                               evaluate_all(cofactor_solve(mat, rhs), pt(0.3, 0.0, 0.0)),
                               rtol=1e-14)


def test_a_solve_prints_its_linear_system():
    q1, z_ = Coord("q", 1), Coord("z")
    x = solve_cramer([[q1, Const(2.0)], [Const(-1.0), z_]], [Param("gam"), ex.sin(q1)])
    assert unparse(x[1]) == "solve([[q1, 2], [-1, z]], [gam, sin(q1)])[1]"
    assert unparse(ex.neg(x[0])) == "-solve([[q1, 2], [-1, z]], [gam, sin(q1)])[0]"
    assert unparse(ex.intpow(x[0], 2)) == "solve([[q1, 2], [-1, z]], [gam, sin(q1)])[0]^2"


def test_a_zero_pivot_raises_a_domain_error_naming_the_solve():
    q1 = Coord("q", 1)
    x = solve_cramer([[q1, Const(1.0)], [q1, Const(1.0)]], [Const(1.0), q1])
    message = "zero pivot in solve([[q1, 1], [q1, 1]], [1, q1])[0]"
    for y in ([0.5, 0.0, 0.0], [0.0, 1.0, 2.0]):
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            ex.tape(x, 1)(y)
        with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
            rendered_program(x, 1, {})(y)
        values, error = ex.tape(x, 1).rows([y] * ex.ROWS_MIN)
        assert values.shape == (0, 2) and str(error) == message


@pytest.mark.parametrize("m", [2, 3, 4])
def test_the_solve_derivative_matches_differences_and_the_cofactor_reference(m):
    """dx = W^-1 (db - (dW) x), a solve on the same W, against the derivative
    of the cofactor quotients and a central difference, by every coordinate."""
    rng = np.random.default_rng(40 + m)
    leaves = [Coord("q", 1), Coord("q", 2), Coord("v", 1), Coord("v", 2), Coord("z")]

    def entry(diagonal):
        leaf = leaves[int(rng.integers(len(leaves)))]
        e = ex.mul(Const(round(float(rng.uniform(-0.5, 0.5)), 3)), ex.sin(leaf))
        return ex.add(Const(3.0), e) if diagonal else e

    mat = [[entry(i == j) for j in range(m)] for i in range(m)]
    rhs = [ex.mul(entry(False), leaves[i % 5]) for i in range(m)]
    solution, reference = solve_cramer(mat, rhs), cofactor_solve(mat, rhs)
    run = ex.tape(solution, 2)
    for p in system_points(rng, 3):
        y = p.coords()
        for slot, var in enumerate(coords(2)):
            got = evaluate_all([differentiate(x, var) for x in solution], p)
            want = evaluate_all([differentiate(x, var) for x in reference], p)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
            h = np.zeros(5)
            h[slot] = 1e-6
            central = (np.array(run(y + h)) - np.array(run(y - h))) / 2e-6
            np.testing.assert_allclose(got, central, rtol=1e-6, atol=1e-8)


def test_a_derivative_outside_the_systems_mask_is_zero():
    q1 = Coord("q", 1)
    x = solve_cramer([[q1, Const(1.0)], [Const(1.0), q1]], [Const(1.0), q1])
    assert differentiate(x[0], "z") is differentiate(x[1], "v2") is Const(0.0)
    # the components of one system share their derivative's system
    dx = [differentiate(c, "q1") for c in x]
    assert dx[0].matrix is x[0].matrix and dx[0].vector is dx[1].vector


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_herglotz_accelerations_match_the_lu_oracle_on_the_dense_family(n):
    system = dense_lagrangian(n)
    field = herglotz_field(system)
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        p = StatePoint.from_coords(rng.uniform(-1, 1, 2 * n + 1), n)
        got = np.array(evaluate_all(field.components[n:2 * n], p, system.params))
        lu = lagrangian.herglotz_accelerations(system, p)
        assert np.max(np.abs(got - lu)) <= 1e-10 * max(1.0, np.max(np.abs(lu)))


def test_herglotz_accelerations_match_the_lu_oracle_on_random_lagrangians(rng):
    for k in range(30):
        n = k % 3 + 1
        system = random_regular_lagrangian(rng, n)
        field = herglotz_field(system)
        for _ in range(3):
            p = StatePoint.from_coords(rng.uniform(-1, 1, 2 * n + 1), n)
            got = np.array(evaluate_all(field.components[n:2 * n], p, system.params))
            lu = lagrangian.herglotz_accelerations(system, p)
            assert np.max(np.abs(got - lu)) <= 1e-10 * max(1.0, np.max(np.abs(lu)))


@pytest.mark.parametrize("n, most", [(5, 500), (6, 700)])
def test_the_dense_field_lowers_to_few_instructions(n, most):
    """W, rhs and L, one solve step and n picks."""
    system = dense_lagrangian(n)
    code, _, _ = ex._lower(herglotz_field(system).components, n, system.params)
    assert len(code) <= most


def node_objects(e):
    """Distinct node objects reachable from e."""
    seen, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, f) for f in ("arg", "lhs", "rhs", "base")
                         if hasattr(node, f))
    return len(seen)


def test_dense_accelerations_share_their_minors():
    # the accelerations of the dense family share one system: a1 reaches the
    # entries of its W and rhs and no cofactor minor
    field = herglotz_field(dense_lagrangian(6))
    a1, a2 = field.components[6:8]
    assert (a1.matrix, a1.vector) == (a2.matrix, a2.vector)
    assert node_objects(a1) == 1 and len(ex._dag_nodes(a1)) <= 600


def test_evaluate_computes_a_shared_node_once(monkeypatch):
    calls = []
    monkeypatch.setitem(ex._APPLY, "sin", lambda x: calls.append(x) or math.sin(x))
    e = ex.sin(Coord("q", 1))
    for _ in range(20):
        e = ex.add(e, e)
    assert evaluate(e, pt(0.3, 0.0, 0.0)) == 2.0**20 * math.sin(0.3)
    assert calls == [0.3]
    # one memo across the sequence: the second expression reuses the first's
    calls.clear()
    doubled = ex.add(e, e)
    assert evaluate_all((e, doubled), pt(0.3, 0.0, 0.0)) == (
        2.0**20 * math.sin(0.3), 2.0**21 * math.sin(0.3))
    assert calls == [0.3]
    # a held tape computes it once per run
    calls.clear()
    run = ex.tape((e,), 1)
    assert run(pt(0.3, 0.0, 0.0)) == (2.0**20 * math.sin(0.3),)
    assert run(pt(-0.4, 0.0, 0.0)) == (2.0**20 * math.sin(-0.4),)
    assert calls == [0.3, -0.4]


# ---------------------------------------------------------------------------
# Node contract: interned (hash-consed) immutable slotted nodes, identity ==


def test_equal_trees_are_one_node():
    a, b = parse("q1*sin(v1) + z^2 - gam", 1), parse("q1*sin(v1) + z^2 - gam", 1)
    assert a is b and a == b and hash(a) == hash(b)
    # constants are keyed by type and bit pattern
    assert Const(0.0) is not Const(-0.0) and Const(0.0) != Const(-0.0)
    assert Const(1) is not Const(1.0) and type(Const(1).value) is int
    assert Const(float("nan")) is Const(float("nan"))
    # equal payload tuples, but different node types
    for x, y in [(Const(2.0), Param(2.0)), (Coord("q", 1), Call("q", 1)),
                 (Call("neg", a), IntPow("neg", a))]:
        assert x is not y and x != y and y != x


def test_nodes_are_immutable_and_slotted():
    x = Coord("q", 1)
    solve = solve_cramer([[x, Const(1.0)], [Const(2.0), x]], [x, Param("gam")])[1]
    nodes = {Const(1.5): "value", x: "index", Param("gam"): "name",
             Call("sin", x): "arg", BinOp("+", x, x): "rhs", IntPow(x, 2): "exponent",
             solve: "matrix"}
    for node, name in nodes.items():
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            setattr(node, name, Const(0.0))
        with pytest.raises(AttributeError):
            delattr(node, name)
        assert pickle.loads(pickle.dumps(node)) == node
        assert copy.deepcopy(node) == node
    assert repr(IntPow(x, 2)) == "IntPow(base=Coord(kind='q', index=1), exponent=2)"


def test_pickle_and_copies_return_the_same_node():
    for node in (parse("q1*sin(v1) - gam/z^3", 1), Const(-0.0), Const(1), Coord("z")):
        assert pickle.loads(pickle.dumps(node)) is node
        assert copy.deepcopy(node) is node and copy.copy(node) is node
    assert copy.deepcopy([Param("gam")])[0] is Param("gam")


def _subtrees(e):
    yield e
    for name in ("arg", "lhs", "rhs", "base"):
        if isinstance(getattr(e, name, None), ex.Expr):
            yield from _subtrees(getattr(e, name))


def test_intern_table_holds_no_node_of_a_dropped_tree():
    gc.collect()
    before = len(ex._nodes)
    e = parse("exp(q1*probe_k) + sin(z)^3/probe_k", 1)
    d = differentiate(differentiate(e, "q1"), "z")   # exp's derivative memo is a cycle
    dropped = [weakref.ref(node) for tree in (e, d) for node in _subtrees(tree)
               if depends_on(node, Param("probe_k"))]
    assert len(dropped) > 5 and len(ex._nodes) > before
    del e, d
    gc.collect()
    assert all(ref() is None for ref in dropped)
    assert not any("probe_k" in key for key in ex._nodes)
    assert len(ex._nodes) <= before


def _doubling(depth):
    e = ex.sin(Coord("q", 1))
    for _ in range(depth):
        e = ex.add(e, e)
    return e


def test_doubling_dags_built_twice_are_one_object():
    a, b = _doubling(60), _doubling(60)
    assert a is b and a == b and hash(a) == hash(b)
    assert a != ex.add(_doubling(59), ex.cos(Coord("q", 1)))


def _expr_lines_run(fn, *args) -> int:
    """Lines of expr.py executed while fn(*args) runs: the work of a walk,
    whether it recurses or loops."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code.co_filename == ex.__file__ else None)
    try:
        fn(*args)
    finally:
        sys.settrace(old)
    return lines


def test_dag_walks_cost_distinct_nodes_not_paths(monkeypatch):
    # an 18-level doubling DAG has 20 distinct nodes but 2^18 paths to its leaf
    e, distinct, q1, q2 = _doubling(18), 20, Coord("q", 1), Coord("q", 2)
    adds = []
    monkeypatch.setattr(ex, "add", lambda a, b: adds.append(1) or ex.BinOp("+", a, b))
    out = ex.substitute(e, q1, q2)
    monkeypatch.undo()
    assert len(adds) <= 2 * distinct
    expected = ex.sin(q2)
    for _ in range(18):
        expected = ex.add(expected, expected)
    assert out is expected
    for walk, args in ((ex.substitute, (e, q1, q2)), (ex.depends_on, (e, q2)),
                       (ex.max_coord_index, (e,))):
        assert _expr_lines_run(walk, *args) <= 50 * distinct, walk.__name__
    assert not ex.depends_on(e, q2) and ex.depends_on(e, q1)
    assert ex.max_coord_index(e) == 1 and ex.max_coord_index(out) == 2


def test_signed_zero_round_trips():
    zero, x = Const(-0.0), Coord("q", 1)
    cases = [zero, ex.intpow(zero, -1), ex.mul(x, ex.intpow(zero, -1)),
             ex.mul(ex.log(zero), x), ex.sub(x, ex.log(zero)),
             ex.neg(ex.intpow(zero, -3)), ex.neg(ex.log(zero))]
    assert unparse(zero) == "-0" and unparse(cases[1]) == "(-0)^-1"
    for e in cases:
        assert parse(unparse(e), n=1) is e, unparse(e)
