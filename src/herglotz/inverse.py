"""Inverse-problem verifiers for second order fields on the contact chart.

A SODE system xi = v_i d/dq_i + a_i d/dv_i + b d/dz can only be an
(ordinary) Herglotz field of the Lagrangian L = b; the naive check verifies
the residual xi(db/dv_i) - db/dq_i - (db/dz)(db/dv_i) together with
regularity of the velocity Hessian of b.  The extended check verifies, for
a user-supplied velocity-independent action function zeta, the first order
condition

    (d xi(zeta)/dq_i - xi(d xi(zeta)/dv_i)) dzeta/dz
        = (dzeta/dq_i - d xi(zeta)/dv_i) d xi(zeta)/dz.

We verify candidate action functions only; no attempt is made to solve the
condition as a PDE for an unknown zeta.  When no zeta is known, the
pointwise obstruction diagnostics D_i / E_i provide necessary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checks import (
    RATIO_EXCLUDE, ZERO_TOL, CheckAbort, CheckReport, SamplePlan, Tolerances,
    finite, residual_table, run_check, walk_rows,
)
from .contact import CoordVectorField
from .expr import (
    Const, Expr, differentiate, div, merge_params, q, sub, tape, v, z,
)
from .extended import ActionFunction, _hessian_dets, _zeta_hessian_exprs, herglotz_defects

__all__ = [
    "SODESystem", "naive_inverse_check", "extended_inverse_check",
    "di_ei_diagnostics", "NaiveInverseResult", "ExtendedInverseResult",
]

@dataclass(frozen=True)
class SODESystem:
    """xi = v_i d/dq_i + a_i d/dv_i + b d/dz in the global chart."""

    n_dim: int
    accelerations: tuple[Expr, ...]
    z_rate: Expr
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.accelerations) != self.n_dim:
            raise ValueError(f"expected {self.n_dim} acceleration components")

    def as_field(self) -> CoordVectorField:
        comps = tuple(v(i) for i in range(1, self.n_dim + 1)) \
            + tuple(self.accelerations) + (self.z_rate,)
        return CoordVectorField(self.n_dim, comps)

    def apply(self, f: Expr) -> Expr:
        return self.as_field().apply(f)


@dataclass
class NaiveInverseResult:
    report: CheckReport
    lagrangian: Expr | None


@dataclass
class ExtendedInverseResult:
    report: CheckReport
    lagrangian: Expr | None          # base-chart candidate xi(zeta)
    momenta: tuple[Expr, ...] | None  # y_i = d xi(zeta)/dv_i
    conformal_rate: Expr | None      # g = (d xi(zeta)/dz)/(dzeta/dz)


def naive_inverse_check(sode: SODESystem, plan: SamplePlan | None = None,
                        tol: Tolerances | None = None) -> NaiveInverseResult:
    """Is xi the Herglotz field of L = b?

    Residuals: the Herglotz defect per index, plus a regularity defect that
    forces a fail wherever |det d2b/dv dv| <= det_tol (an irregular b cannot
    carry a contact structure, so the verdict is fail, not error).
    """
    n = sode.n_dim
    det_tol = (tol or Tolerances()).det_tol
    b = sode.z_rate
    defects = herglotz_defects(sode.as_field(), b, z(), n)
    hessian = [e for row in _zeta_hessian_exprs(b, z(), n) for e in row]
    residuals_at = tape((*defects, *hessian), n, sode.params)

    def values(points):
        rows, error = residuals_at.rows(points)
        for defect_vals, det in zip(walk_rows((rows[:, :n], error)), _hessian_dets(rows[:, n:])):
            out = {f"herglotz_defect_{i + 1}": abs(x) for i, x in enumerate(defect_vals)}
            out["regularity_defect"] = 0.0 if abs(det) > det_tol else 1.0
            out["hessian_det"] = float(det)
            yield out

    keys = tuple(f"herglotz_defect_{i + 1}" for i in range(n)) + ("regularity_defect",)
    report = run_check(n, values, plan, tol, residual_keys=keys)
    irregular = sum(1 for rec in report.records if rec.values["regularity_defect"])
    if irregular:
        report.diagnostics.append(
            f"velocity Hessian of the z-rate singular at {irregular} of "
            f"{len(report.records)} points")
    if not report.passed:
        return NaiveInverseResult(report, None)
    report.diagnostics.append(f"recovered Lagrangian: {b}")
    return NaiveInverseResult(report, b)


def extended_inverse_check(sode: SODESystem, zeta: ActionFunction,
                           plan: SamplePlan | None = None,
                           tol: Tolerances | None = None) -> ExtendedInverseResult:
    """Is xi a Herglotz field after the change of action coordinate zeta?

    The candidate zeta must be independent of the velocities (checked
    structurally) with dzeta/dz bounded away from zero on the sample.  On a
    pass the recovered data is y_i = d xi(zeta)/dv_i, the conformal rate
    g = (d xi(zeta)/dz)/(dzeta/dz) and the base-chart Lagrangian candidate
    xi(zeta).
    """
    n = sode.n_dim
    merged = merge_params(sode.params, zeta.params)
    xi_zeta = sode.apply(zeta.zeta)
    dzeta_dz = zeta.dz
    dxz_dz = differentiate(xi_zeta, z())
    momenta = tuple(differentiate(xi_zeta, v(i)) for i in range(1, n + 1))
    table = {}
    for i in range(n):
        lhs = sub(differentiate(xi_zeta, q(i + 1)), sode.apply(momenta[i])) * dzeta_dz
        rhs = sub(differentiate(zeta.zeta, q(i + 1)), momenta[i]) * dxz_dz
        table[f"extended_defect_{i + 1}"] = [sub(lhs, rhs)]

    def require_strong(points):
        if not zeta.is_strong(n):
            raise CheckAbort("zeta depends on the velocities; the extended check "
                             "requires zeta(q, z)")

    report = run_check(n, residual_table(table, n, merged), plan, tol,
                       predicate=zeta.frame_test(n, merged),
                       precheck=require_strong)
    if not report.passed:
        return ExtendedInverseResult(report, None, None, None)
    report.diagnostics.append(f"recovered Lagrangian candidate: {xi_zeta}")
    return ExtendedInverseResult(report, xi_zeta, momenta, div(dxz_dz, dzeta_dz))


def di_ei_diagnostics(sode: SODESystem, plan: SamplePlan | None = None,
                      tol: Tolerances | None = None) -> CheckReport:
    """Necessary pointwise obstructions for a velocity-independent zeta.

    With r the z-rate and a_j the accelerations,

        D_i = a_j d2r/dv_i dv_j + v_j d2r/dv_i dq_j - dr/dq_i
        E_i = (dr/dv_i)(dr/dz) - r d2r/dv_i dz

    and any admissible zeta satisfies D_i = (dzeta/dz) E_i.  The check
    reports (i) zero-set mismatches between D_i and E_i, (ii) the pairwise
    spread of the ratios D_i/E_i, and (iii) the velocity gradient of each
    ratio, the last two only where |E_i| > 1e-6 (exclusion counts are
    reported).  A non-finite D_i, E_i, ratio or ratio gradient ends the
    check with an error naming the point and the key.  A clean report is
    necessary, not sufficient.
    """
    n = sode.n_dim
    r = sode.z_rate
    dr_dz = differentiate(r, z())
    d_exprs: list[Expr] = []
    e_exprs: list[Expr] = []
    for i in range(1, n + 1):
        fiber = differentiate(r, v(i))
        d_i: Expr = Const(0.0)
        for j in range(1, n + 1):
            d_i = d_i + sode.accelerations[j - 1] * differentiate(fiber, v(j))
            d_i = d_i + v(j) * differentiate(fiber, q(j))
        d_i = sub(d_i, differentiate(r, q(i)))
        e_i = sub(fiber * dr_dz, r * differentiate(fiber, z()))
        d_exprs.append(d_i)
        e_exprs.append(e_i)
    d_e_at = tape((*d_exprs, *e_exprs), n, sode.params)
    # one tape per index: the ratio gradients of an excluded index may not
    # evaluate (E_i can fold to 0), so only the usable ones are run
    ratio_grads_at = [tape([differentiate(div(d_exprs[i], e_exprs[i]), v(k + 1))
                            for k in range(n)], n, sode.params) for i in range(n)]
    excluded = 0

    def values(points):
        nonlocal excluded
        d_e_rows = d_e_at.rows(points)
        grad_rows = [walk_rows(run.rows([p for p, e in zip(points, d_e_rows[0][:, n + i].tolist())
                                         if abs(e) > RATIO_EXCLUDE]))
                     for i, run in enumerate(ratio_grads_at)]
        for k, vals in enumerate(walk_rows(d_e_rows)):
            d_vals = [finite(k, f"D_{i + 1}", x) for i, x in enumerate(vals[:n])]
            e_vals = [finite(k, f"E_{i + 1}", x) for i, x in enumerate(vals[n:])]
            out: dict[str, float] = {}
            usable = []
            for i in range(n):
                zero_d, zero_e = abs(d_vals[i]) <= ZERO_TOL, abs(e_vals[i]) <= ZERO_TOL
                out[f"zero_set_mismatch_{i + 1}"] = 1.0 if zero_d != zero_e else 0.0
                out[f"D_{i + 1}"] = d_vals[i]
                out[f"E_{i + 1}"] = e_vals[i]
                if abs(e_vals[i]) > RATIO_EXCLUDE:
                    usable.append(i)
                else:
                    excluded += 1
            ratios = [finite(k, f"D_{i + 1}/E_{i + 1}", d_vals[i] / e_vals[i]) for i in usable]
            out["ratio_spread"] = max(ratios) - min(ratios) if ratios else 0.0
            grads = [g for i in usable for g in next(grad_rows[i])]
            out["ratio_velocity_gradient"] = max(
                (abs(finite(k, "ratio_velocity_gradient", g)) for g in grads), default=0.0)
            yield out

    keys = tuple(f"zero_set_mismatch_{i + 1}" for i in range(n)) + \
        ("ratio_spread", "ratio_velocity_gradient")
    report = run_check(n, values, plan, tol, residual_keys=keys)
    report.diagnostics.append(f"{excluded} index-point pairs excluded from ratio "
                              f"tests (|E_i| <= {RATIO_EXCLUDE})")
    return report
