"""Equivalence and similarity checkers for contact systems.

All checkers verify pointwise identities on a deterministic sample plan and
reduce to a CheckReport: conformal and dynamical equivalence of Hamiltonian
systems, horizontal similarity of second order fields, projectability, and
strong/general equivalence of Lagrangian systems under a change of action
coordinate.  Bar-Lagrangians are supplied in their zeta-chart (the action
slot written ``z``); composition with the horizontal map happens here.
"""

from __future__ import annotations

import numpy as np

from .checks import (
    ESTIMATE_TOL, ZERO_TOL, CheckAbort, CheckReport, SamplePlan, Tolerances,
    error_report, run_check,
)
from .contact import (
    ContactConditionError, ContactHamiltonianSystem, CoordVectorField,
    hamiltonian_field,
)
from .expr import (
    Expr, StatePoint, differentiate, evaluate, merge_params, q, sub, v, z,
)
from .extended import (
    ActionFunction, ExtendedLagrangianSystem, compose_with_zeta,
    extended_lagrangian_form, herglotz_defects, zeta_herglotz_field, zeta_hessian,
)
from .lagrangian import (
    ContactLagrangianSystem, herglotz_field, lagrangian_form, velocity_hessian,
)

__all__ = [
    "conformal_similarity_check", "dynamical_equivalence_check",
    "zero_set_diagnostic", "horizontal_similarity_check",
    "projectability_check", "strong_equivalence_check",
    "general_equivalence_check", "extended_sode_check",
]


def extended_sode_check(X: CoordVectorField, points: list[StatePoint],
                        params: dict | None = None,
                        tol: Tolerances | None = None) -> CheckReport:
    """Second order condition: the q-components of X equal the velocities."""
    def values(p):
        return {"sode_defect": max(abs(evaluate(X.components[i], p, params) - p.v[i])
                                   for i in range(X.n_dim))}
    return run_check(X.n_dim, values, tol=tol, points=points)


def _second_order_precheck(fields: dict[str, CoordVectorField],
                           params: dict | None, tol: Tolerances | None):
    """Precheck aborting unless every named field is a second order field."""
    def precheck(points):
        for name, field in fields.items():
            sode = extended_sode_check(field, points, params, tol)
            if not sode.passed:
                raise CheckAbort(f"{name} is not a second order field "
                                 f"(defect {sode.max_residual:.3e})")
    return precheck


def conformal_similarity_check(sys_a: ContactHamiltonianSystem,
                               sys_b: ContactHamiltonianSystem,
                               factor: Expr | None = None,
                               plan: SamplePlan | None = None,
                               tol: Tolerances | None = None) -> CheckReport:
    """Check eta_b = f eta_a and H_b = f H_a for a nonvanishing factor f.

    With ``factor`` omitted, f is estimated pointwise as H_b/H_a wherever
    |H_a| > 1e-8; if no sampled point admits the estimate the verdict is an
    error.  A vanishing factor at any sampled point forces a fail.
    """
    skipped = 0

    def values(p):
        nonlocal skipped
        h_a = evaluate(sys_a.H, p, sys_a.params)
        h_b = evaluate(sys_b.H, p, sys_b.params)
        if factor is not None:
            f_val = evaluate(factor, p, merge_params(sys_a.params, sys_b.params))
        elif abs(h_a) > ESTIMATE_TOL:
            f_val = h_b / h_a
        else:
            skipped += 1
            return None
        eta_a = sys_a.eta.values(p, sys_a.params)
        eta_b = sys_b.eta.values(p, sys_b.params)
        return {
            "form_defect": float(np.max(np.abs(eta_b - f_val * eta_a))),
            "hamiltonian_defect": abs(h_b - f_val * h_a),
            "factor_vanishes": 1.0 if abs(f_val) <= ZERO_TOL else 0.0,
            "factor": f_val,
        }

    report = run_check(
        sys_a.n_dim, values, plan, tol,
        residual_keys=("form_defect", "hamiltonian_defect", "factor_vanishes"))
    if not report.records:
        return error_report(
            "conformal factor inestimable: H vanishes at every sampled point",
            report.tolerances, report.plan)
    if skipped:
        report.diagnostics.append(
            f"{skipped} points skipped for factor estimation (|H| <= 1e-8)")
    return report


def dynamical_equivalence_check(sys_a: ContactHamiltonianSystem,
                                sys_b: ContactHamiltonianSystem,
                                plan: SamplePlan | None = None,
                                tol: Tolerances | None = None) -> CheckReport:
    """Check X_H = X_Hbar pointwise (equality of Hamiltonian vector fields)."""
    def values(p):
        try:
            x_a = hamiltonian_field(sys_a, p)
            x_b = hamiltonian_field(sys_b, p)
        except ContactConditionError as exc:
            raise CheckAbort(f"solver failure at {p}: {exc}") from None
        return {"field_mismatch": float(np.max(np.abs(x_a - x_b)))}
    return run_check(sys_a.n_dim, values, plan, tol,
                     residual_keys=("field_mismatch",))


def zero_set_diagnostic(sys_a: ContactHamiltonianSystem,
                        sys_b: ContactHamiltonianSystem,
                        plan: SamplePlan | None = None,
                        tol: Tolerances | None = None) -> CheckReport:
    """Report sampled points where the zero sets of H and Hbar disagree.

    Informational companion to the similarity checks: a conformal similarity
    preserves the zero set, so any mismatch rules one out.  A point
    mismatches when exactly one Hamiltonian is (numerically) zero or when
    both are nonzero with opposite signs.
    """
    def values(p):
        h_a = evaluate(sys_a.H, p, sys_a.params)
        h_b = evaluate(sys_b.H, p, sys_b.params)
        zero_a, zero_b = abs(h_a) <= ZERO_TOL, abs(h_b) <= ZERO_TOL
        mismatch = (zero_a != zero_b) or \
            (not zero_a and not zero_b and (h_a > 0) != (h_b > 0))
        return {"zero_set_mismatch": 1.0 if mismatch else 0.0,
                "H": h_a, "H_bar": h_b}

    report = run_check(sys_a.n_dim, values, plan, tol,
                       residual_keys=("zero_set_mismatch",))
    mismatches = sum(1 for rec in report.records if rec.values["zero_set_mismatch"])
    report.diagnostics.append(f"zero-set mismatches at {mismatches} of "
                              f"{len(report.records)} points")
    return report


def horizontal_similarity_check(xi: CoordVectorField, xi_bar: CoordVectorField,
                                zeta: ActionFunction,
                                plan: SamplePlan | None = None,
                                params: dict | None = None,
                                tol: Tolerances | None = None) -> CheckReport:
    """Check that (Id, zeta) pushes xi to xi_bar.

    Conditions: a_i = a_bar_i composed with the horizontal map, and
    xi(zeta) = b_bar composed with the horizontal map, with dzeta/dz
    bounded away from zero on the sample.
    """
    n = xi.n_dim
    merged = merge_params(params or {}, zeta.params)
    xi_zeta = xi.apply(zeta.zeta)

    def values(p):
        out: dict[str, float] = {}
        for i in range(n):
            a_i = evaluate(xi.components[n + i], p, merged)
            a_bar = evaluate(compose_with_zeta(xi_bar.components[n + i], zeta),
                             p, merged)
            out[f"acceleration_defect_{i + 1}"] = abs(a_i - a_bar)
        b_bar = evaluate(compose_with_zeta(xi_bar.components[2 * n], zeta), p, merged)
        out["action_rate_defect"] = abs(evaluate(xi_zeta, p, merged) - b_bar)
        return out

    return run_check(
        n, values, plan, tol, predicate=lambda p: zeta.frame_ok(p, merged),
        precheck=_second_order_precheck({"xi": xi, "xi_bar": xi_bar}, merged, tol))


def projectability_check(xi: CoordVectorField,
                         plan: SamplePlan | None = None,
                         params: dict | None = None,
                         tol: Tolerances | None = None) -> CheckReport:
    """Do the accelerations depend on the action coordinate?  Residual is
    max_i |d(a_i)/dz| over the sample."""
    n = xi.n_dim
    dz_exprs = [differentiate(xi.components[n + i], z()) for i in range(n)]

    def values(p):
        return {f"dz_dependence_{i + 1}": abs(evaluate(dz_exprs[i], p, params))
                for i in range(n)}

    return run_check(n, values, plan, tol,
                     precheck=_second_order_precheck({"input": xi}, params, tol))


def _require_regular(sys: ContactLagrangianSystem, ext: ExtendedLagrangianSystem,
                     p: StatePoint, det_tol: float, what: str) -> None:
    """Abort the check unless both velocity Hessians are regular at p."""
    det_l = float(np.linalg.det(velocity_hessian(sys, p)))
    det_bar = float(np.linalg.det(zeta_hessian(ext, p)))
    if abs(det_l) <= det_tol or abs(det_bar) <= det_tol:
        raise CheckAbort(f"{what} at {p}: det W = {det_l:.3e}, "
                         f"det W^zeta = {det_bar:.3e}")


def strong_equivalence_check(sys: ContactLagrangianSystem,
                             lbar_zeta_chart: Expr, zeta: ActionFunction,
                             plan: SamplePlan | None = None,
                             tol: Tolerances | None = None) -> CheckReport:
    """Velocity-independent change of action coordinate.

    Checks that zeta is independent of the velocities and that
    (dzeta/dz) L + v_i dzeta/dq_i equals the bar-Lagrangian composed with
    the horizontal map; on the passing locus the conformal identity
    eta^zeta_Lbar = (dzeta/dz) eta_L is asserted as well.
    """
    n = sys.n_dim
    det_tol = (tol or Tolerances()).det_tol
    merged = merge_params(sys.params, zeta.params)
    lbar_base = compose_with_zeta(lbar_zeta_chart, zeta)
    ext = ExtendedLagrangianSystem(n, lbar_base, zeta, merged)
    eta_l = lagrangian_form(sys)
    eta_bar = extended_lagrangian_form(ext)
    dzeta_dz = zeta.dz
    transported: Expr = sys.L * dzeta_dz
    for i in range(1, n + 1):
        transported = transported + v(i) * differentiate(zeta.zeta, q(i))

    def values(p):
        _require_regular(sys, ext, p, det_tol, "regularity failure")
        out = {}
        out["velocity_dependence"] = max(
            abs(evaluate(differentiate(zeta.zeta, v(i)), p, merged))
            for i in range(1, n + 1))
        out["lagrangian_defect"] = abs(
            evaluate(transported, p, merged) - evaluate(lbar_base, p, merged))
        factor = evaluate(dzeta_dz, p, merged)
        eta_l_vals = eta_l.values(p, merged)
        eta_bar_vals = eta_bar.values(p, merged)
        out["form_conformal_defect"] = float(
            np.max(np.abs(eta_bar_vals - factor * eta_l_vals)))
        return out

    return run_check(n, values, plan, tol,
                     predicate=lambda p: zeta.frame_ok(p, merged))


def general_equivalence_check(sys: ContactLagrangianSystem,
                              lbar_zeta_chart: Expr, zeta: ActionFunction,
                              plan: SamplePlan | None = None,
                              tol: Tolerances | None = None) -> CheckReport:
    """Equality of dynamics for (L, z) and (Lbar, zeta).

    Residuals per point: the action-rate condition
    Lbar o phi = xi_L(zeta); the momentum condition
    xi_L(p_i) - (dLbar/dq_i)_zeta - (dLbar/dzeta) p_i with
    p_i = (dLbar/dv_i)_zeta; and the direct mismatch of the two Herglotz
    fields.  Regularity failures (either side) yield an error verdict, not
    a fail: a singular instance is undecided, not inequivalent.
    """
    n = sys.n_dim
    det_tol = (tol or Tolerances()).det_tol
    merged = merge_params(sys.params, zeta.params)
    lbar_base = compose_with_zeta(lbar_zeta_chart, zeta)
    ext = ExtendedLagrangianSystem(n, lbar_base, zeta, merged)
    xi_l = herglotz_field(sys)

    l_condition = sub(lbar_base, xi_l.apply(zeta.zeta))
    p_conditions = herglotz_defects(xi_l, lbar_base, zeta.zeta, n)
    xi_bar = zeta_herglotz_field(ext)

    def values(p):
        _require_regular(sys, ext, p, det_tol, "zeta-regularity violated")
        out = {"L_condition": abs(evaluate(l_condition, p, merged))}
        for i in range(n):
            out[f"p_condition_{i + 1}"] = abs(evaluate(p_conditions[i], p, merged))
        out["field_mismatch"] = max(
            abs(evaluate(a, p, merged) - evaluate(b, p, merged))
            for a, b in zip(xi_l.components, xi_bar.components))
        return out

    return run_check(n, values, plan, tol,
                     predicate=lambda p: zeta.frame_ok(p, merged))
