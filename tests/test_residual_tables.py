"""Residual tables: checkers declare their residual expressions and one
NaN-propagating reduction turns them into record values.

The reference closures below are the per-point functions the strong and
general checkers used before they declared tables; the tables must give the
same record values bit for bit."""

import collections
import math
import sys

import numpy as np
import pytest

from herglotz import cli, equivalence, expr, extended
from herglotz.checks import SamplePlan, Tolerances, max_abs, run_check
from herglotz.cli import main
from herglotz.contact import CoordVectorField
from herglotz.equivalence import (
    extended_sode_check, general_equivalence_check, strong_equivalence_check,
)
from herglotz.expr import (
    StatePoint, add, differentiate, merge_params, parse, q, sub, tape, v,
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

from conftest import per_point, pt

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
        vals = residuals_at(p._flat)
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
        vals = residuals_at(p._flat)
        out = {"L_condition": abs(vals[0])}
        for i in range(n):
            out[f"p_condition_{i + 1}"] = abs(vals[1 + i])
        pairs = vals[n + 1:]
        out["field_mismatch"] = max(abs(a - b) for a, b in zip(pairs[::2], pairs[1::2]))
        return out

    return run_check(n, per_point(values), plan, predicate=zeta.frame_test(n, merged))


def record_bits(report):
    return [(rec.point._flat, [(k, float(x).hex()) for k, x in rec.values.items()])
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
# Determinants on the check path come from the W tapes, not LAPACK


def test_default_batch_makes_no_lapack_determinant(tmp_path, monkeypatch):
    calls = [0]
    det = np.linalg.det

    def counted(*args, **kwargs):
        calls[0] += 1
        return det(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "det", counted)
    main(["batch", "--out", str(tmp_path)])
    assert len(list(tmp_path.glob("*.json"))) == 16
    assert calls[0] == 0


def test_default_batch_walks_points_only_for_the_frame_test_and_the_legendre_transform(
        tmp_path, monkeypatch):
    """Every sampled check reads its tapes as rows.  What still calls a tape
    at one point is sampling's frame predicate, once per candidate (1,600)
    and once in frame_ok, and the legendre task's transform of its first
    sample point (4 calls)."""
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
    assert calls == {"frame_test": 1601, "legendre": 4}


def test_regularity_gate_aborts_on_a_nan_determinant():
    sys = ContactLagrangianSystem(1, parse(f"0.5*v1^2*(1 + {NAN_TEXT})", 1))
    report = strong_equivalence_check(sys, sys.L, ActionFunction(parse("z", 1)),
                                      SamplePlan("random", (), 3, 5))
    assert report.verdict == "error"
    assert report.records == []
    assert report.diagnostics[0].startswith("regularity failure at StatePoint(")
    assert "det W = nan" in report.diagnostics[0]


# ---------------------------------------------------------------------------
# StatePoint holds its flat floats only


def test_statepoint_holds_only_its_flat_coordinates():
    p = StatePoint(np.array([1.0, 2.0]), [3.0, 4.0], np.float64(5.0))
    assert vars(p) == {"z": 5.0, "_flat": (1.0, 2.0, 3.0, 4.0, 5.0)}
    assert p.n == 2 and type(p.z) is float
    assert p.q.tolist() == [1.0, 2.0] and p.v.tolist() == [3.0, 4.0]
    assert p.q is not p.q
    assert repr(p) == "StatePoint(q=[1.0, 2.0], v=[3.0, 4.0], z=5.0)"
    with pytest.raises(AttributeError):
        p.z = 0.0
    with pytest.raises(ValueError, match="^q and v must have the same length$"):
        StatePoint([1.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError, match="^state point entries must be finite$"):
        StatePoint.from_coords([0.0, math.inf, 0.0], 1)
