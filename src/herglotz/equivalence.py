"""Equivalence and similarity checkers for contact systems.

All checkers verify pointwise identities on a deterministic sample plan and
reduce to a CheckReport: conformal and dynamical equivalence of Hamiltonian
systems, horizontal similarity of second order fields, projectability, and
strong/general equivalence of Lagrangian systems under a change of action
coordinate.  Bar-Lagrangians are supplied in their zeta-chart (the action
slot written ``z``); composition with the horizontal map happens here.
"""

from __future__ import annotations

from itertools import repeat

from .checks import (
    ESTIMATE_TOL, ZERO_TOL, CheckAbort, CheckReport, SamplePlan, Tolerances,
    error_report, finite, max_abs, residual_table, run_check, walk_rows,
)
from .contact import (
    ContactConditionError, ContactHamiltonianSystem, CoordVectorField,
    hamiltonian_fields,
)
from .expr import (
    Expr, StatePoint, differentiate, merge_params, mul, q, sub, tape, v, z,
)
from .extended import (
    ActionFunction, ExtendedLagrangianSystem, _hessian_dets, compose_with_zeta,
    extended_lagrangian_form, herglotz_defects, zeta_herglotz_field,
)
from .lagrangian import ContactLagrangianSystem, herglotz_field, lagrangian_form

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
    n = X.n_dim
    defects = [sub(X.components[i], v(i + 1)) for i in range(n)]
    return run_check(n, residual_table({"sode_defect": defects}, n, params),
                     tol=tol, points=points)


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


def _chart_dimension(sys_a: ContactHamiltonianSystem,
                     sys_b: ContactHamiltonianSystem) -> int:
    """The common n of two systems; a ValueError when their charts differ."""
    if sys_a.n_dim != sys_b.n_dim:
        raise ValueError(f"the two systems live on charts of different dimension "
                         f"(n = {sys_a.n_dim} and n = {sys_b.n_dim})")
    return sys_a.n_dim


def conformal_similarity_check(sys_a: ContactHamiltonianSystem,
                               sys_b: ContactHamiltonianSystem,
                               factor: Expr | None = None,
                               plan: SamplePlan | None = None,
                               tol: Tolerances | None = None) -> CheckReport:
    """Check eta_b = f eta_a and H_b = f H_a for a nonvanishing factor f.

    With ``factor`` omitted, f is estimated pointwise as H_b/H_a wherever
    |H_a| > 1e-8; if no sampled point admits the estimate the verdict is an
    error.  A vanishing factor at any sampled point forces a fail, and a
    non-finite H, Hbar or given factor ends the check with an error.
    """
    skipped = 0
    n = _chart_dimension(sys_a, sys_b)
    # one tape per parameter map; the forms are evaluated only where f is known
    h_a_at, h_b_at = (tape((s.H,), n, s.params) for s in (sys_a, sys_b))
    eta_a_at, eta_b_at = (tape(s.eta.components, n, s.params) for s in (sys_a, sys_b))
    if factor is not None:
        factor_at = tape((factor,), n, merge_params(sys_a.params, sys_b.params))

    def values(points):
        nonlocal skipped
        h_a_rows = h_a_at.rows(points)
        known = points if factor is not None else \
            [p for p, (h,) in zip(points, h_a_rows[0].tolist()) if abs(h) > ESTIMATE_TOL]
        forms = zip(walk_rows(eta_a_at.rows(known)), walk_rows(eta_b_at.rows(known)))
        factors = walk_rows(factor_at.rows(points)) if factor is not None else repeat((None,))
        heads = zip(walk_rows(h_a_rows), walk_rows(h_b_at.rows(points)), factors)
        for k, ((h_a,), (h_b,), (f_val,)) in enumerate(heads):
            finite(k, "H", h_a), finite(k, "H_bar", h_b)
            if factor is not None:
                finite(k, "factor", f_val)
            elif abs(h_a) > ESTIMATE_TOL:
                f_val = h_b / h_a
            else:
                skipped += 1
                yield None
                continue
            eta_a, eta_b = next(forms)
            yield {
                "form_defect": max_abs(b - f_val * a for a, b in zip(eta_a, eta_b)),
                "hamiltonian_defect": abs(h_b - f_val * h_a),
                "factor_vanishes": 1.0 if abs(f_val) <= ZERO_TOL else 0.0,
                "factor": f_val,
            }

    report = run_check(
        n, values, plan, tol,
        residual_keys=("form_defect", "hamiltonian_defect", "factor_vanishes"))
    if skipped == report.plan.count:
        return error_report(
            "conformal factor inestimable: H vanishes at every sampled point",
            report.tolerances, report.plan)
    if skipped:
        report.diagnostics.append(
            f"{skipped} points skipped for factor estimation (|H| <= {ESTIMATE_TOL})")
    return report


def dynamical_equivalence_check(sys_a: ContactHamiltonianSystem,
                                sys_b: ContactHamiltonianSystem,
                                plan: SamplePlan | None = None,
                                tol: Tolerances | None = None) -> CheckReport:
    """Check X_H = X_Hbar pointwise (equality of Hamiltonian vector fields).

    Both fields come first, from stacked solves up to the first solver error
    (:func:`contact.hamiltonian_fields`), b's only over a's solved points.
    The records cover the points both reach; then the first error, b's when
    b stops first, else a's, is raised at its point: a ContactConditionError
    aborts the check there, any other error propagates."""
    n = _chart_dimension(sys_a, sys_b)

    def values(points):
        fields_a, error = hamiltonian_fields(sys_a, points)
        fields_b, error_b = hamiltonian_fields(sys_b, points[:len(fields_a)])
        mismatch = abs(fields_a[:len(fields_b)] - fields_b).max(axis=1)
        yield from ({"field_mismatch": x} for x in mismatch.tolist())
        if (error := error_b or error) is not None:     # b is solved only where a is
            raise CheckAbort(f"solver failure at {points[len(fields_b)]}: {error}") \
                if isinstance(error, ContactConditionError) else error
    return run_check(n, values, plan, tol, residual_keys=("field_mismatch",))


def zero_set_diagnostic(sys_a: ContactHamiltonianSystem,
                        sys_b: ContactHamiltonianSystem,
                        plan: SamplePlan | None = None,
                        tol: Tolerances | None = None) -> CheckReport:
    """Report sampled points where the zero sets of H and Hbar disagree.

    Informational companion to the similarity checks: a conformal similarity
    preserves the zero set, so any mismatch rules one out.  A point
    mismatches when exactly one Hamiltonian is (numerically) zero or when
    both are nonzero with opposite signs.  A non-finite H or Hbar ends the
    check with an error.
    """
    n = _chart_dimension(sys_a, sys_b)
    h_a_at, h_b_at = (tape((s.H,), n, s.params) for s in (sys_a, sys_b))

    def values(points):
        heads = zip(walk_rows(h_a_at.rows(points)), walk_rows(h_b_at.rows(points)))
        for k, ((h_a,), (h_b,)) in enumerate(heads):
            finite(k, "H", h_a), finite(k, "H_bar", h_b)
            zero_a, zero_b = abs(h_a) <= ZERO_TOL, abs(h_b) <= ZERO_TOL
            mismatch = (zero_a != zero_b) or \
                (not zero_a and not zero_b and (h_a > 0) != (h_b > 0))
            yield {"zero_set_mismatch": 1.0 if mismatch else 0.0,
                   "H": h_a, "H_bar": h_b}

    report = run_check(n, values, plan, tol, residual_keys=("zero_set_mismatch",))
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
    table = {f"acceleration_defect_{i + 1}": [sub(
        xi.components[n + i], compose_with_zeta(xi_bar.components[n + i], zeta))]
        for i in range(n)}
    table["action_rate_defect"] = [sub(
        xi.apply(zeta.zeta), compose_with_zeta(xi_bar.components[2 * n], zeta))]
    return run_check(
        n, residual_table(table, n, merged), plan, tol,
        predicate=zeta.frame_test(n, merged),
        precheck=_second_order_precheck({"xi": xi, "xi_bar": xi_bar}, merged, tol))


def projectability_check(xi: CoordVectorField,
                         plan: SamplePlan | None = None,
                         params: dict | None = None,
                         tol: Tolerances | None = None) -> CheckReport:
    """Do the accelerations depend on the action coordinate?  Residual is
    max_i |d(a_i)/dz| over the sample."""
    n = xi.n_dim
    table = {f"dz_dependence_{i + 1}": [differentiate(xi.components[n + i], z())]
             for i in range(n)}
    return run_check(n, residual_table(table, n, params), plan, tol,
                     precheck=_second_order_precheck({"input": xi}, params, tol))


def _require_regular(sys: ContactLagrangianSystem, ext: ExtendedLagrangianSystem,
                     tol: Tolerances | None, what: str, point_values):
    """``point_values`` after a gate that aborts the check where |det W| or
    |det W^zeta| is not above ``det_tol``, NaN included.  At a point, a W
    tape's error comes before the gate's abort and the values' own error."""
    det_tol = (tol or Tolerances()).det_tol

    def gated(points: list[StatePoint]):
        tapes = (sys._extended._hessian_tape, ext._hessian_tape)
        dets = [walk_rows((_hessian_dets(w)[:, None], e)) for w, e in (t.rows(points) for t in tapes)]
        values = iter(point_values(points))
        for p, (det_l,), (det_bar,) in zip(points, *dets):
            if not (abs(det_l) > det_tol and abs(det_bar) > det_tol):
                raise CheckAbort(f"{what} at {p}: det W = {det_l:.3e}, "
                                 f"det W^zeta = {det_bar:.3e}")
            yield next(values)
    return gated


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
    merged = merge_params(sys.params, zeta.params)
    lbar_base = compose_with_zeta(lbar_zeta_chart, zeta)
    ext = ExtendedLagrangianSystem(n, lbar_base, zeta, merged)
    eta_l = lagrangian_form(sys)
    eta_bar = extended_lagrangian_form(ext)
    dzeta_dz = zeta.dz
    transported: Expr = sys.L * dzeta_dz
    for i in range(1, n + 1):
        transported = transported + v(i) * differentiate(zeta.zeta, q(i))
    residuals = residual_table({
        "velocity_dependence": [differentiate(zeta.zeta, v(i)) for i in range(1, n + 1)],
        "lagrangian_defect": [sub(transported, lbar_base)],
        "form_conformal_defect": [sub(bar_k, mul(dzeta_dz, l_k)) for l_k, bar_k
                                  in zip(eta_l.components, eta_bar.components)],
    }, n, merged)
    return run_check(n, _require_regular(sys, ext, tol, "regularity failure", residuals),
                     plan, tol, predicate=zeta.frame_test(n, merged))


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
    merged = merge_params(sys.params, zeta.params)
    lbar_base = compose_with_zeta(lbar_zeta_chart, zeta)
    ext = ExtendedLagrangianSystem(n, lbar_base, zeta, merged)
    xi_l = herglotz_field(sys)

    l_condition = sub(lbar_base, xi_l.apply(zeta.zeta))
    p_conditions = herglotz_defects(xi_l, lbar_base, zeta.zeta, n)
    xi_bar = zeta_herglotz_field(ext)
    table = {"L_condition": [l_condition]}
    table.update((f"p_condition_{i + 1}", [e]) for i, e in enumerate(p_conditions))
    table["field_mismatch"] = [sub(a, b) for a, b in zip(xi_l.components,
                                                         xi_bar.components)]
    return run_check(n, _require_regular(sys, ext, tol, "zeta-regularity violated",
                                         residual_table(table, n, merged)),
                     plan, tol, predicate=zeta.frame_test(n, merged))
