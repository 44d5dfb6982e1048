"""Residual tables: checkers declare their residual expressions and one
NaN-propagating reduction turns them into record values.

The reference closures below are the per-point functions the strong and
general checkers used before they declared tables; the tables must give the
same record values bit for bit."""

import collections
import copy
import math
import pickle
import struct
import sys

import numpy as np
import pytest

from herglotz import cli, equivalence, expr, extended, inverse
from herglotz.checks import DET_TOL, SamplePlan, Tolerances, max_abs, run_check, sample_states
from herglotz.cli import main
from herglotz.contact import CoordVectorField
from herglotz.equivalence import (
    extended_sode_check, general_equivalence_check, strong_equivalence_check,
)
from herglotz.expr import (
    ExprError, StatePoint, add, differentiate, merge_params, parse, q, sub, tape, v,
)
from herglotz.extended import (
    ActionFunction, ExtendedLagrangianSystem, SingularZetaError, compose_with_zeta,
    extended_lagrangian_form, herglotz_defects, legendre_pullback_residual,
    zeta_herglotz_field, zeta_hessian, zeta_legendre,
)
from herglotz.lagrangian import (
    ContactLagrangianSystem, herglotz_field, lagrangian_form, velocity_hessian,
)
from perfbench.workloads import DENSE_PARAMS, dense_text, gauge_texts

from conftest import cofactor_det, dense_lagrangian, per_point, pt

# inf - inf: NaN at every point, built from finite constants
NAN_TEXT = "(1e200*1e200 - 1e200*1e200)"


@pytest.mark.parametrize("values, expected", [
    ([], 0.0), ([-0.0], 0.0), ([1.0, -3.0, 2.0], 3.0), ([0.5, math.inf], math.inf),
    ([0.0, math.nan, 5.0], math.nan), ([math.inf, math.nan], math.nan),
])
def test_max_abs_propagates_nan(values, expected):
    got = max_abs(values)
    assert got == expected or (math.isnan(got) and math.isnan(expected))
    if values:
        ref = float(np.max(np.abs(values)))
        assert got == ref or (math.isnan(got) and math.isnan(ref))


# ---------------------------------------------------------------------------
# A NaN in any component of a reduced key is an error naming the key


def assert_error_naming(report, key):
    assert report.verdict == "error"
    assert math.isnan(report.max_residual)
    assert any(f": {key} = nan" in d for d in report.diagnostics), report.diagnostics


def test_nan_in_a_later_q_rate_is_a_sode_defect_error():
    rates = (parse("v1", 2), parse(f"v2 + {NAN_TEXT}", 2))
    field = CoordVectorField(2, rates + tuple(parse("0", 2) for _ in range(3)))
    points = [pt([0.1, 0.2], [0.3, -0.4], 0.5), pt([-0.6, 0.7], [0.8, 0.9], -0.1)]
    assert_error_naming(extended_sode_check(field, points), "sode_defect")


def test_nan_in_a_later_zeta_velocity_derivative_is_a_velocity_dependence_error():
    sys = ContactLagrangianSystem(2, parse("0.5*v1^2 + 0.5*v2^2 - 0.5*q1^2", 2))
    zeta = ActionFunction(parse(f"z + v2*{NAN_TEXT}", 2))
    report = strong_equivalence_check(sys, sys.L, zeta,
                                      SamplePlan("random", (), 4, 5))
    assert_error_naming(report, "velocity_dependence")


def test_nan_in_a_later_field_component_is_a_field_mismatch_error(monkeypatch):
    sys = ContactLagrangianSystem(1, parse("0.5*v1^2 - 0.5*q1^2 - 0.1*z", 1))
    real = equivalence.zeta_herglotz_field

    def nan_acceleration(ext):
        comps = list(real(ext).components)
        comps[1] = add(comps[1], parse(NAN_TEXT, 1))
        return CoordVectorField(1, tuple(comps))

    monkeypatch.setattr(equivalence, "zeta_herglotz_field", nan_acceleration)
    report = general_equivalence_check(sys, sys.L, ActionFunction(parse("z", 1)),
                                       SamplePlan("random", (), 4, 5))
    assert_error_naming(report, "field_mismatch")


def test_nan_pullback_residual_raises_in_zeta_legendre():
    sys = ExtendedLagrangianSystem(2, parse("0.5*v1^2 + 0.5*v2^2", 2),
                                   ActionFunction(parse(f"z + v2*{NAN_TEXT}", 2)))
    p = pt([0.1, 0.2], [0.3, -0.4], 0.5)
    assert math.isnan(legendre_pullback_residual(sys, p))
    with pytest.raises(SingularZetaError, match="residual nan"):
        zeta_legendre(sys, p)


# ---------------------------------------------------------------------------
# The tables reproduce the per-point closures they replaced


def reference_gate(sys, ext, det_tol):
    def require_regular(p):
        det_l = float(np.linalg.det(velocity_hessian(sys, p)))
        det_bar = float(np.linalg.det(zeta_hessian(ext, p)))
        assert abs(det_l) > det_tol and abs(det_bar) > det_tol
    return require_regular


def reference_strong(sys, lbar_zeta_chart, zeta, plan):
    n = sys.n_dim
    merged = merge_params(sys.params, zeta.params)
    lbar_base = compose_with_zeta(lbar_zeta_chart, zeta)
    ext = ExtendedLagrangianSystem(n, lbar_base, zeta, merged)
    eta_l = lagrangian_form(sys)
    eta_bar = extended_lagrangian_form(ext)
    dzeta_dz = zeta.dz
    transported = sys.L * dzeta_dz
    for i in range(1, n + 1):
        transported = transported + v(i) * differentiate(zeta.zeta, q(i))
    d = 2 * n + 1
    exprs = (*(differentiate(zeta.zeta, v(i)) for i in range(1, n + 1)),
             transported, lbar_base, dzeta_dz, *eta_l.components, *eta_bar.components)
    residuals_at = tape(exprs, n, merged)
    gate = reference_gate(sys, ext, Tolerances().det_tol)

    def values(p):
        gate(p)
        vals = residuals_at(p)
        transported_val, lbar_val, factor = vals[n:n + 3]
        eta_l_vals = np.array(vals[n + 3:n + 3 + d])
        eta_bar_vals = np.array(vals[n + 3 + d:])
        return {
            "velocity_dependence": max(abs(x) for x in vals[:n]),
            "lagrangian_defect": abs(transported_val - lbar_val),
            "form_conformal_defect": float(
                np.max(np.abs(eta_bar_vals - factor * eta_l_vals))),
        }

    return run_check(n, per_point(values), plan, predicate=zeta.frame_test(n, merged))


def reference_general(sys, lbar_zeta_chart, zeta, plan):
    n = sys.n_dim
    merged = merge_params(sys.params, zeta.params)
    lbar_base = compose_with_zeta(lbar_zeta_chart, zeta)
    ext = ExtendedLagrangianSystem(n, lbar_base, zeta, merged)
    xi_l = herglotz_field(sys)
    l_condition = sub(lbar_base, xi_l.apply(zeta.zeta))
    p_conditions = herglotz_defects(xi_l, lbar_base, zeta.zeta, n)
    xi_bar = zeta_herglotz_field(ext)
    residuals_at = tape([l_condition, *p_conditions, *(e for pair in zip(
        xi_l.components, xi_bar.components) for e in pair)], n, merged)
    gate = reference_gate(sys, ext, Tolerances().det_tol)

    def values(p):
        gate(p)
        vals = residuals_at(p)
        out = {"L_condition": abs(vals[0])}
        for i in range(n):
            out[f"p_condition_{i + 1}"] = abs(vals[1 + i])
        pairs = vals[n + 1:]
        out["field_mismatch"] = max(abs(a - b) for a, b in zip(pairs[::2], pairs[1::2]))
        return out

    return run_check(n, per_point(values), plan, predicate=zeta.frame_test(n, merged))


def record_bits(report):
    return [(rec.point, [(k, float(x).hex()) for k, x in rec.values.items()])
            for rec in report.records]


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tables_match_the_reference_closures_on_the_dense_family(n, seed):
    rng = np.random.default_rng(seed)
    system = ContactLagrangianSystem(n, parse(dense_text(n), n), dict(DENSE_PARAMS))
    bar_text, zeta_text = gauge_texts(lambda zs: dense_text(n, zs), n,
                                      float(rng.uniform(0.1, 0.5)))
    bar, zeta = parse(bar_text, n), ActionFunction(parse(zeta_text, n))
    identity = ActionFunction(parse("z", n))
    plan = SamplePlan("random", (), 10, int(rng.integers(1, 2**31)))
    cases = [(strong_equivalence_check, reference_strong, bar, zeta),
             (general_equivalence_check, reference_general, bar, zeta),
             (general_equivalence_check, reference_general, system.L, identity)]
    for check, reference, lbar, action in cases:
        got, want = check(system, lbar, action, plan), reference(system, lbar, action, plan)
        assert got.verdict == want.verdict == "pass", got.diagnostics
        assert got.max_residual.hex() == want.max_residual.hex()
        assert record_bits(got) == record_bits(want)
        assert len(got.records) == 10


# ---------------------------------------------------------------------------
# Determinants on the check path: one stacked LU per W tape


def test_default_batch_takes_each_determinant_from_a_stacked_lapack_call(tmp_path, monkeypatch):
    """19 calls: two per gated check-eq or check-strong-eq task (W and
    W^zeta over its sample), one per check-inverse task, one for the
    herglotz task's regularity gate over its plan, one for the legendre
    task's transform and one for the simulate task's gate over its 1,001
    states; each gets a stack of matrices."""
    stacks = []
    det = np.linalg.det

    def counted(a, *args, **kwargs):
        stacks.append(a.shape)
        return det(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "det", counted)
    main(["batch", "--out", str(tmp_path)])
    assert len(list(tmp_path.glob("*.json"))) == 16
    assert stacks == [(200, 1, 1)] * 12 + [(100, 3, 3)] * 2 + [(100, 1, 1)] * 2 + \
        [(200, 1, 1), (1, 1, 1), (1001, 1, 1)]


def test_the_lu_determinant_decides_every_gate_as_the_cofactor_expansion(tmp_path, monkeypatch):
    """The W rows every gated default task reads (W and W^zeta of check-eq
    and check-strong-eq, W of the z-rate in check-inverse, W at herglotz's
    plan and along simulate's trajectory), the dense family
    n = 1..6 and an exactly singular W: at each point the stacked LU is
    regular where the cofactor expansion is, and the two agree to 1e-12
    times Hadamard's bound, the product of W's row 2-norms."""
    gated = []
    for module in (equivalence, inverse, cli):
        monkeypatch.setattr(module, "_hessian_dets", lambda rows: gated.append(rows.copy())
                            or extended._hessian_dets(rows))
    main(["batch", "--out", str(tmp_path)])
    assert [len(rows) for rows in gated] == [200] * 12 + [100] * 4 + [200, 1001]
    dense = [dense_lagrangian(n)._extended._hessian_tape.rows(
        sample_states(SamplePlan(count=20, seed=n), n))[0] for n in range(1, 7)]
    singular = ContactLagrangianSystem(1, parse("0.5*(1 - 2*gam)*v1^2", 1), {"gam": 0.5})
    zero = singular._extended._hessian_tape.rows(sample_states(SamplePlan(), 1))[0]
    assert not zero.any()
    for rows in [*gated, *dense, zero]:
        # the expansion over a matrix of coordinates of a wide enough chart,
        # lowered once and run over the rows, as the W tapes ran it
        n = round(rows.shape[1] ** 0.5)
        chart = (n * n) // 2
        entries = expr.coords(chart)[:n * n]
        reference = tape([cofactor_det([entries[i * n:(i + 1) * n] for i in range(n)])], chart)
        padded = np.hstack((rows, np.zeros((len(rows), 2 * chart + 1 - n * n))))
        refs = reference.rows(padded.tolist())[0][:, 0].tolist()
        bounds = np.prod(np.linalg.norm(rows.reshape(-1, n, n), axis=2), axis=1).tolist()
        for det, ref, bound in zip(extended._hessian_dets(rows).tolist(), refs, bounds, strict=True):
            assert (abs(det) > DET_TOL) == (abs(ref) > DET_TOL), (n, det, ref)
            assert abs(det - ref) <= 1e-12 * bound, (n, det, ref)
    assert not extended._hessian_dets(zero).any()


def test_a_non_finite_w_row_is_a_nan_determinant_that_lapack_never_sees(monkeypatch):
    stacks = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: stacks.append(a.tolist()) or det(a))
    rows = np.array([[2.0, 1.0, 1.0, 3.0], [math.inf, 0.0, 0.0, 1.0], [1.0, math.nan, 0.0, 1.0],
                     [1e200, 0.0, 0.0, -1e200]])
    dets = extended._hessian_dets(rows)
    assert dets[0] == pytest.approx(5.0) and np.isnan(dets[1:3]).all()
    # a finite W whose determinant overflows reads -inf, with no overflow warning
    assert dets[3] == -math.inf
    assert stacks == [[[[2.0, 1.0], [1.0, 3.0]], [[1e200, 0.0], [0.0, -1e200]]]]
    # so an infinite W fails the gate, where the n = 1 cofactor tree read inf
    sys = ContactLagrangianSystem(1, parse("0.5*v1^2*(1e200*1e200)", 1))
    report = strong_equivalence_check(sys, sys.L, ActionFunction(parse("z", 1)),
                                      SamplePlan("random", (), 3, 5))
    assert report.verdict == "error"
    assert "det W = nan, det W^zeta = nan" in report.diagnostics[0]


def test_default_batch_walks_points_only_for_the_frame_test_and_the_legendre_transform(
        tmp_path, monkeypatch):
    """Every sampled check reads its tapes as rows.  What still calls a tape
    at one point is sampling's frame predicate, once per candidate (1,600)
    and once in frame_ok, and the legendre task's transform of its first
    sample point (3 calls: W^zeta, the momenta, the pullback residual)."""
    calls, task = collections.Counter(), [None]
    call, run_task = expr._Tape.__call__, cli.run_task

    def counted(self, y):
        caller = sys._getframe(1).f_code
        frame_test = caller.co_name == "<lambda>" and caller.co_filename == extended.__file__
        calls["frame_test" if frame_test else task[0]] += 1
        return call(self, y)

    def tracked(cfg, command, *args):
        task[0] = command
        return run_task(cfg, command, *args)

    monkeypatch.setattr(expr._Tape, "__call__", counted)
    monkeypatch.setattr(cli, "run_task", tracked)
    main(["batch", "--out", str(tmp_path)])
    assert calls == {"frame_test": 1601, "legendre": 3}


def test_regularity_gate_aborts_on_a_nan_determinant():
    sys = ContactLagrangianSystem(1, parse(f"0.5*v1^2*(1 + {NAN_TEXT})", 1))
    report = strong_equivalence_check(sys, sys.L, ActionFunction(parse("z", 1)),
                                      SamplePlan("random", (), 3, 5))
    assert report.verdict == "error"
    assert report.records == []
    assert report.diagnostics[0].startswith("regularity failure at StatePoint(")
    assert "det W = nan" in report.diagnostics[0]


# ---------------------------------------------------------------------------
# StatePoint is the tuple of its flat floats


def test_statepoint_holds_only_its_flat_coordinates():
    p = StatePoint(np.array([1.0, 2.0]), [3.0, 4.0], np.float64(5.0))
    assert StatePoint.__bases__ == (tuple,) and StatePoint.__slots__ == ()
    assert not hasattr(p, "__dict__")
    assert tuple(p) == (1.0, 2.0, 3.0, 4.0, 5.0) and all(type(x) is float for x in p)
    assert all(type(x) is float for x in StatePoint.from_coords(np.zeros((5, 1), np.float32), 2))
    assert p.n == 2 and type(p.z) is float
    assert p.q.tolist() == [1.0, 2.0] and p.v.tolist() == [3.0, 4.0]
    assert p.q is not p.q
    assert repr(p) == "StatePoint(q=[1.0, 2.0], v=[3.0, 4.0], z=5.0)"
    for name in ("z", "q", "n", "w"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0.0)
    with pytest.raises(ValueError, match="^q and v must have the same length$"):
        StatePoint([1.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError, match="^state point entries must be finite$"):
        StatePoint.from_coords([0.0, math.inf, 0.0], 1)


def test_statepoints_are_equal_and_hash_by_value():
    p = StatePoint([0.5], [-1.0], 2.0)
    assert isinstance(p, tuple)
    assert p == StatePoint.from_coords((0.5, -1.0, 2.0), 1) == (0.5, -1.0, 2.0)
    assert hash(p) == hash((0.5, -1.0, 2.0))
    assert p != StatePoint([0.5], [-1.0], 2.5) and p != StatePoint([0.5, -1.0], [2.0, 0.0], 0.0)
    # -0.0 == 0.0, so the two points are one key, though each keeps its sign bit
    neg, pos = StatePoint([-0.0], [1.0], 0.0), StatePoint([0.0], [1.0], 0.0)
    assert neg == pos and hash(neg) == hash(pos) and len({neg, pos}) == 1
    assert math.copysign(1.0, neg[0]) == -1.0 and math.copysign(1.0, pos[0]) == 1.0


def test_statepoint_is_a_sequence_of_its_floats():
    p = StatePoint([1.0, 2.0], [3.0, 4.0], 5.0)
    assert len(p) == 5 and list(p) == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert p[0] == 1.0 and p[-1] == p.z == 5.0 and p[1:4] == (2.0, 3.0, 4.0)
    assert all(type(x) is float for x in (*p, p[2], *p[1:4]))
    assert p.coords().tolist() == list(p)


def test_statepoint_pickles_and_copies_to_an_equal_point():
    p = StatePoint([-0.0, 1e-300], [math.pi, -2.5], 7.0)
    copies = [pickle.loads(pickle.dumps(p, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in (*copies, copy.copy(p), copy.deepcopy(p), copy.deepcopy([p])[0]):
        assert type(c) is StatePoint and c == p and c.n == 2
        assert struct.pack("5d", *c) == struct.pack("5d", *p)


def _call_bits(run, y):
    """A call's values as their bits, or its error's type and text."""
    try:
        values = run(y)
    except ExprError as exc:
        return type(exc), str(exc)
    return struct.pack(f"{len(values)}d", *values)


def _rows_bits(run, ys):
    """The rows' bits and shape, and the error's type and text."""
    values, error = run.rows(ys)
    return (struct.pack(f"{values.size}d", *values.ravel().tolist()), values.shape,
            error and (type(error), str(error)))


@pytest.mark.parametrize("text", [
    "exp(q1)*v2 - z/(q2 + 2) + sin(v1)*q1^3",
    "log(q1 + 0.8)*v2 + sqrt(z + 0.9)",       # a DomainError part way
    f"{NAN_TEXT}*q1 + v1",                    # NaN at every point
    "z/(q1 - q1)",                            # a zero divisor at the first point
])
@pytest.mark.parametrize("count", [3, expr.ROWS_MIN - 1, expr.ROWS_MIN, 40])
def test_a_tape_reads_statepoints_as_their_flat_tuples(text, count):
    """A tape called at a StatePoint, or run over a list of them, gives the
    bits (and errors) it gives on the plain tuples of the same floats, and on
    the sample's array."""
    points = sample_states(SamplePlan(count=count, seed=count), 2)
    run = tape([parse(text, 2), parse("q1*v1 - z", 2)], 2)
    flats = [tuple(p) for p in points]
    assert [_call_bits(run, p) for p in points] == [_call_bits(run, y) for y in flats]
    assert _rows_bits(run, points) == _rows_bits(run, np.array(flats)) == _rows_bits(run, flats)


@pytest.mark.parametrize("count", [3, 40])
def test_rows_refuse_points_of_another_chart(count):
    run = tape([parse("q1*v1 - z", 1)], 1)
    for n in (0, 2):
        points = sample_states(SamplePlan(count=count, seed=1), n)
        for sample in (points, np.array(points)):
            with pytest.raises(ValueError):
                run.rows(sample)
