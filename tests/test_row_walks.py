"""The conformal, zero-set, naive-inverse and D/E checkers read their tapes
as rows.  Each is compared here with a reference copy of its earlier walk,
which called every tape at one point at a time: the same report body, or
the same error type and text, on instances whose tapes fail at chosen sample
points, on samples on both sides of ``expr.ROWS_MIN``."""

import json
import math
import re

import numpy as np
import pytest

from herglotz import expr as ex
from herglotz.checks import (
    ESTIMATE_TOL, RATIO_EXCLUDE, ZERO_TOL, CheckAbort, SamplePlan, Tolerances, error_report,
    max_abs, run_check, sample_states,
)
from herglotz.contact import ContactHamiltonianSystem, CoordOneForm, darboux_form
from herglotz.equivalence import conformal_similarity_check, zero_set_diagnostic
from herglotz.expr import Const, ExprError, det_expr, differentiate, div, merge_params, parse
from herglotz.expr import q, sub, tape, v, z
from herglotz.extended import _zeta_hessian_exprs, herglotz_defects
from herglotz.inverse import SODESystem, di_ei_diagnostics, naive_inverse_check

from conftest import per_point

# ---------------------------------------------------------------------------
# Reference copies of the per-point walks


def conformal_reference(sys_a, sys_b, factor=None, plan=None, tol=None):
    skipped = 0
    n = sys_a.n_dim
    h_a_at, h_b_at = (tape((s.H,), n, s.params) for s in (sys_a, sys_b))
    eta_a_at, eta_b_at = (tape(s.eta.components, n, s.params) for s in (sys_a, sys_b))
    if factor is not None:
        factor_at = tape((factor,), n, merge_params(sys_a.params, sys_b.params))

    def values(p):
        nonlocal skipped
        (h_a,), (h_b,) = h_a_at(p._flat), h_b_at(p._flat)
        if factor is not None:
            (f_val,) = factor_at(p._flat)
        elif abs(h_a) > ESTIMATE_TOL:
            f_val = h_b / h_a
        else:
            skipped += 1
            return None
        eta_pairs = zip(eta_a_at(p._flat), eta_b_at(p._flat))
        return {
            "form_defect": max_abs(b - f_val * a for a, b in eta_pairs),
            "hamiltonian_defect": abs(h_b - f_val * h_a),
            "factor_vanishes": 1.0 if abs(f_val) <= ZERO_TOL else 0.0,
            "factor": f_val,
        }

    report = run_check(n, per_point(values), plan, tol,
                       residual_keys=("form_defect", "hamiltonian_defect", "factor_vanishes"))
    if not report.records:
        return error_report("conformal factor inestimable: H vanishes at every sampled point",
                            report.tolerances, report.plan)
    if skipped:
        report.diagnostics.append(
            f"{skipped} points skipped for factor estimation (|H| <= {ESTIMATE_TOL})")
    return report


def zero_set_reference(sys_a, sys_b, plan=None, tol=None):
    n = sys_a.n_dim
    h_a_at, h_b_at = (tape((s.H,), n, s.params) for s in (sys_a, sys_b))

    def values(p):
        (h_a,), (h_b,) = h_a_at(p._flat), h_b_at(p._flat)
        zero_a, zero_b = abs(h_a) <= ZERO_TOL, abs(h_b) <= ZERO_TOL
        mismatch = (zero_a != zero_b) or \
            (not zero_a and not zero_b and (h_a > 0) != (h_b > 0))
        return {"zero_set_mismatch": 1.0 if mismatch else 0.0, "H": h_a, "H_bar": h_b}

    report = run_check(n, per_point(values), plan, tol, residual_keys=("zero_set_mismatch",))
    mismatches = sum(1 for rec in report.records if rec.values["zero_set_mismatch"])
    report.diagnostics.append(f"zero-set mismatches at {mismatches} of "
                              f"{len(report.records)} points")
    return report


def naive_reference(sode, plan=None, tol=None):
    n = sode.n_dim
    det_tol = (tol or Tolerances()).det_tol
    b = sode.z_rate
    defects = herglotz_defects(sode.as_field(), b, z(), n)
    residuals_at = tape((*defects, det_expr(_zeta_hessian_exprs(b, z(), n))), n, sode.params)

    def values(p):
        *defect_vals, det = residuals_at(p._flat)
        out = {f"herglotz_defect_{i + 1}": abs(x) for i, x in enumerate(defect_vals)}
        out["regularity_defect"] = 0.0 if abs(det) > det_tol else 1.0
        out["hessian_det"] = det
        return out

    keys = tuple(f"herglotz_defect_{i + 1}" for i in range(n)) + ("regularity_defect",)
    report = run_check(n, per_point(values), plan, tol, residual_keys=keys)
    irregular = sum(1 for rec in report.records if rec.values["regularity_defect"])
    if irregular:
        report.diagnostics.append(f"velocity Hessian of the z-rate singular at {irregular} of "
                                  f"{len(report.records)} points")
    if report.passed:
        report.diagnostics.append(f"recovered Lagrangian: {b}")
    return report


def di_ei_reference(sode, plan=None, tol=None):
    n = sode.n_dim
    r = sode.z_rate
    dr_dz = differentiate(r, z())
    d_exprs, e_exprs = [], []
    for i in range(1, n + 1):
        fiber = differentiate(r, v(i))
        d_i = Const(0.0)
        for j in range(1, n + 1):
            d_i = d_i + sode.accelerations[j - 1] * differentiate(fiber, v(j))
            d_i = d_i + v(j) * differentiate(fiber, q(j))
        d_exprs.append(sub(d_i, differentiate(r, q(i))))
        e_exprs.append(sub(fiber * dr_dz, r * differentiate(fiber, z())))
    d_e_at = tape((*d_exprs, *e_exprs), n, sode.params)
    ratio_grads_at = [tape([differentiate(div(d_exprs[i], e_exprs[i]), v(k + 1))
                            for k in range(n)], n, sode.params) for i in range(n)]
    excluded = 0
    index = -1

    def finite(key, value):
        if not math.isfinite(value):
            raise CheckAbort(f"non-finite value at point {index}: {key} = {value!r}")
        return value

    def values(p):
        nonlocal excluded, index
        index += 1
        vals = d_e_at(p._flat)
        d_vals = [finite(f"D_{i + 1}", x) for i, x in enumerate(vals[:n])]
        e_vals = [finite(f"E_{i + 1}", x) for i, x in enumerate(vals[n:])]
        out, usable = {}, []
        for i in range(n):
            zero_d, zero_e = abs(d_vals[i]) <= ZERO_TOL, abs(e_vals[i]) <= ZERO_TOL
            out[f"zero_set_mismatch_{i + 1}"] = 1.0 if zero_d != zero_e else 0.0
            out[f"D_{i + 1}"] = d_vals[i]
            out[f"E_{i + 1}"] = e_vals[i]
            if abs(e_vals[i]) > RATIO_EXCLUDE:
                usable.append(i)
            else:
                excluded += 1
        ratios = [finite(f"D_{i + 1}/E_{i + 1}", d_vals[i] / e_vals[i]) for i in usable]
        out["ratio_spread"] = max(ratios) - min(ratios) if ratios else 0.0
        grads = [g for i in usable for g in ratio_grads_at[i](p._flat)]
        out["ratio_velocity_gradient"] = max(
            (abs(finite("ratio_velocity_gradient", g)) for g in grads), default=0.0)
        return out

    keys = tuple(f"zero_set_mismatch_{i + 1}" for i in range(n)) + \
        ("ratio_spread", "ratio_velocity_gradient")
    report = run_check(n, per_point(values), plan, tol, residual_keys=keys)
    report.diagnostics.append(f"{excluded} index-point pairs excluded from ratio "
                              f"tests (|E_i| <= {RATIO_EXCLUDE})")
    return report


# ---------------------------------------------------------------------------
# Instances whose tapes fail at chosen sample points a, b and s.  ``c`` holds
# their q1 (and b's v1) coordinates, or -5.0, outside the box, for no point:
# there a tape divides by zero, H_a, det W or E_1 vanishes, a log or sqrt
# argument turns negative, or tanh(inf * 0) makes a NaN.
NOWHERE = -5.0


def _ham(H, c, eta=None):
    eta = darboux_form(1) if eta is None else CoordOneForm(1, tuple(parse(e, 1) for e in eta))
    return ContactHamiltonianSystem(1, eta, parse(H, 1), c)


def _sode(accel, rate, c):
    return SODESystem(1, (parse(accel, 1),), parse(rate, 1), c)


def _given(check, factor):
    return lambda *args, **kwargs: check(*args, factor=parse(factor, 1), **kwargs)


def _naive(*args, **kwargs):
    return naive_inverse_check(*args, **kwargs).report


# eta_b divides by zero at b; H_a vanishes at s, where the estimated factor
# skips the point and the forms are not evaluated
_ETA_B = ["-v1*(1 + 0.5/(q1 - qb))", "0", "1 + 0.5/(q1 - qb)"]
INSTANCES = {
    "conformal: H_a vs the forms": (conformal_similarity_check, conformal_reference, lambda c: (
        _ham("(q1 - qs)*(2 + q1*v1 + 1/(q1 - qa))", c), _ham("2*(q1 - qs)*(2 + q1*v1)", c, _ETA_B))),
    "conformal: H_a vs H_b": (conformal_similarity_check, conformal_reference, lambda c: (
        _ham("q1*v1 + z + 3 + 1/(q1 - qa)", c), _ham("2*(q1*v1 + z + 3) + 1/(q1 - qb)", c))),
    "conformal: H_b vs the factor vs the forms": (
        _given(conformal_similarity_check, "2 + z/(q1 - qs)"),
        _given(conformal_reference, "2 + z/(q1 - qs)"), lambda c: (
            _ham("q1*v1 + z + 3", c, _ETA_B), _ham("2*(q1*v1 + z + 3) + 1/(q1 - qa)", c))),
    "conformal: log of H_a": (conformal_similarity_check, conformal_reference, lambda c: (
        _ham("log(q1 - qa + 1e-300) + 3", c), _ham("2*log(q1 - qa + 1e-300)", c, _ETA_B))),
    "zero set: H_a vs H_b": (zero_set_diagnostic, zero_set_reference, lambda c: (
        _ham("q1*v1 + z + 3 + 1/(q1 - qa)", c), _ham("2*(q1*v1 + z + 3) + 1/(q1 - qb)", c))),
    "zero set: sqrt of H_b": (zero_set_diagnostic, zero_set_reference, lambda c: (
        _ham("q1*v1 + z", c), _ham("sqrt(q1 - qb) - v1", c))),
    "naive: zero W vs a pole": (_naive, naive_reference, lambda c: (
        _sode("-v1 + 1/(q1 - qb)", "0.5*(q1 - qa)*v1^2 - 0.1*z", c),)),
    "naive: log in W": (_naive, naive_reference, lambda c: (
        _sode("-v1", "0.5*v1^2*(1 + 0.1*log(q1 - qb + 1e-300)) - 0.1*z", c),)),
    # E_1 = (q1 - qs) v1^2 / 2: the ratio gradients divide by E_1^2 = 0 at s,
    # where they are not evaluated, and by sqrt(0) at b; D_1 is NaN at a
    "D/E: D/E vs the ratio gradients": (di_ei_diagnostics, di_ei_reference, lambda c: (
        _sode("-v1 + tanh(1e200*1e200*(q1 - qa)) + sqrt((v1 - vb)^2)",
              "0.5*v1^2 + (q1 - qs)*v1*z", c),)),
    "D/E: pole vs sqrt": (di_ei_diagnostics, di_ei_reference, lambda c: (
        _sode("-v1 + 0.1/(q1 - qb) + sqrt(q1 - qa)", "0.5*v1^2 + (q1 - qs)*v1*z + 0.2*q1*z", c),)),
}


def _outcome(check, args, plan):
    """The report body of ``check``, or the type and text of its error."""
    try:
        return json.dumps(check(*args, plan=plan).to_dict())
    except ExprError as exc:
        return type(exc), str(exc)


def _kinds(outcome) -> list[str]:
    """The error text before " in ", or the verdict and the diagnostics."""
    if isinstance(outcome, tuple):
        return [outcome[1].split(" in ")[0]]
    report = json.loads(outcome)
    return [report["verdict"], *report["diagnostics"]]


@pytest.mark.parametrize("size", [5, 20, 40])
def test_rows_match_the_point_walk(size):
    """Seeded choices of a, b and s, ties and absent points among them:
    every instance's report or error equals the reference walk's."""
    assert 5 < ex.ROWS_MIN < 20
    plan = SamplePlan(count=size, seed=size)
    points = sample_states(plan, 1)
    rng = np.random.default_rng(size)
    k = int(rng.integers(size))
    picks = [rng.integers(size, size=3).tolist() for _ in range(2)]
    picks += [[k, k, k], [None, k, k], [k, None, None], [None, None, None]]
    kinds = set()
    for a, b, s in picks:
        c = {f"{x}{name}": NOWHERE if i is None else points[i].coords()[0 if x == "q" else 1]
             for x, name, i in (("q", "a", a), ("q", "b", b), ("q", "s", s), ("v", "b", b))}
        for name, (check, reference, make) in INSTANCES.items():
            args = make(c)
            got = _outcome(check, args, plan)
            assert got == _outcome(reference, args, plan), (name, a, b, s)
            kinds.update(_kinds(got))
    # each way of ending, and each skipped point, is met at this size
    assert {"division by zero", "log of non-positive value", "sqrt of negative value",
            "pass", "fail", "error"} <= kinds, kinds
    text = "\n".join(kinds)
    for needle in (r"non-finite value at point \d+: D_1 = nan",
                   r"[1-9]\d* points skipped for factor estimation",
                   r"[1-9]\d* index-point pairs excluded",
                   r"velocity Hessian of the z-rate singular at [1-9]"):
        assert re.search(needle, text), needle
