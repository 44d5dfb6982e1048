import json
from sys import modules

import numpy as np
import pytest

from herglotz import expr as ex
from herglotz.checks import SamplePlan, sample_states
from herglotz.contact import (
    ContactHamiltonianSystem, CoordOneForm, darboux_form,
)
from herglotz.equivalence import (
    conformal_similarity_check, dynamical_equivalence_check,
    general_equivalence_check, horizontal_similarity_check,
    projectability_check, strong_equivalence_check, zero_set_diagnostic,
)
from herglotz.expr import Const, DomainError, ExprError, neg, parse
from herglotz.extended import ActionFunction
from herglotz.fixtures import builtin_plans, builtin_systems
from herglotz.lagrangian import ContactLagrangianSystem, herglotz_field

REG = builtin_systems()
PLANS = builtin_plans()
BOX1 = PLANS["box1"]
BOX1_200 = PLANS["box1_200"]


def saddle_pair():
    return REG["saddle"](), REG["saddle_flipped"]()


# ---------------------------------------------------------------------------
# Conformal similarity


def test_conformal_pass_with_negative_rescale():
    base = ContactHamiltonianSystem(1, darboux_form(1), Const(2.0))
    eta_half = CoordOneForm(1, tuple(neg(c / 2.0)
                                     for c in darboux_form(1).components))
    scaled = ContactHamiltonianSystem(1, eta_half, Const(-1.0))
    report = conformal_similarity_check(base, scaled, plan=BOX1)
    assert report.passed
    assert all(rec.values["factor"] == pytest.approx(-0.5)
               for rec in report.records)


def test_conformal_identity_pass():
    sys = REG["saddle"]()
    report = conformal_similarity_check(sys, sys, plan=BOX1)
    assert report.passed
    assert all(rec.values["factor"] == pytest.approx(1.0)
               for rec in report.records if "factor" in rec.values)


def test_conformal_fails_for_dynamically_equivalent_pair():
    report = conformal_similarity_check(*saddle_pair(), plan=BOX1)
    assert report.verdict == "fail"


def test_conformal_inestimable_factor_is_error():
    a = ContactHamiltonianSystem(1, darboux_form(1), Const(0.0))
    b = ContactHamiltonianSystem(1, darboux_form(1), Const(0.0))
    report = conformal_similarity_check(a, b, plan=BOX1)
    assert report.verdict == "error"


# ---------------------------------------------------------------------------
# Dynamical equivalence


def test_dynamical_pass_on_saddle_pair():
    report = dynamical_equivalence_check(*saddle_pair(), plan=BOX1)
    assert report.passed
    assert report.max_residual <= 1e-9


def test_dynamical_pass_on_conformal_rescale():
    base = ContactHamiltonianSystem(1, darboux_form(1),
                                    parse("0.5*v1^2 + q1^2 + z", 1))
    factor = parse("2 + sin(q1)", 1)
    scaled = ContactHamiltonianSystem(
        1, CoordOneForm(1, tuple(factor * c for c in base.eta.components)),
        factor * base.H)
    report = dynamical_equivalence_check(base, scaled, plan=BOX1)
    assert report.passed


def test_dynamical_residual_in_margin_band_is_inconclusive():
    # a 1e-6 shift lands between pass_tol and fail_tol: no false certainty
    base = ContactHamiltonianSystem(1, darboux_form(1), parse("q1*v1 + z", 1))
    nudged = ContactHamiltonianSystem(1, darboux_form(1),
                                      parse("q1*v1 + z + 1e-6", 1))
    report = dynamical_equivalence_check(base, nudged, plan=BOX1)
    assert report.verdict == "inconclusive"


def test_dynamical_fail_on_shifted_hamiltonian():
    # shifting H by 1 moves the Darboux field by exactly 1 in the d/dz slot
    base = ContactHamiltonianSystem(1, darboux_form(1), parse("q1*v1 + z", 1))
    shifted = ContactHamiltonianSystem(1, darboux_form(1),
                                       parse("q1*v1 + z + 1", 1))
    report = dynamical_equivalence_check(base, shifted, plan=BOX1)
    assert report.verdict == "fail"
    assert report.max_residual == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Zero set diagnostic


def test_zero_set_clean_on_conformal_pair():
    base = ContactHamiltonianSystem(1, darboux_form(1),
                                    parse("q1^2 + v1^2 + 2", 1))
    factor = parse("1 + 0.5*tanh(q1)", 1)
    scaled = ContactHamiltonianSystem(
        1, CoordOneForm(1, tuple(factor * c for c in base.eta.components)),
        factor * base.H)
    report = zero_set_diagnostic(base, scaled, plan=BOX1)
    assert report.passed


def test_zero_set_mismatch_at_known_point():
    plan = SamplePlan("grid", ((1.0, 1.0), (1.0, 1.0), (-1.0, -1.0)), 1, 0)
    report = zero_set_diagnostic(*saddle_pair(), plan=plan)
    assert report.verdict == "fail"
    rec = report.records[0]
    assert rec.values["H"] == pytest.approx(0.0)
    assert rec.values["H_bar"] == pytest.approx(-2.0)


def test_zero_set_clean_on_identical_systems():
    sys = REG["saddle"]()
    assert zero_set_diagnostic(sys, sys, plan=BOX1).passed


# ---------------------------------------------------------------------------
# Horizontal similarity


def test_horizontal_identity():
    sode = REG["sode_linear_drag"]()
    report = horizontal_similarity_check(
        sode.as_field(), sode.as_field(), ActionFunction(parse("z", 1)),
        plan=BOX1, params=sode.params)
    assert report.passed


def test_horizontal_projectable_instance():
    xi = REG["sode_shear"]()
    xi_bar = REG["sode_shear_projected"]()
    zeta = REG["zeta_shear"]()
    report = horizontal_similarity_check(xi.as_field(), xi_bar.as_field(), zeta,
                                         plan=BOX1, params=xi.params)
    assert report.passed


def test_horizontal_acceleration_mismatch_fails():
    xi = REG["sode_linear_drag"]()
    doubled = parse("-2*gam*v1", 1)
    from herglotz.inverse import SODESystem
    xi_bar = SODESystem(1, (doubled,), xi.z_rate, xi.params)
    report = horizontal_similarity_check(
        xi.as_field(), xi_bar.as_field(), ActionFunction(parse("z", 1)),
        plan=BOX1, params=xi.params)
    assert report.verdict == "fail"


def test_horizontal_rejects_non_sode():
    from herglotz.contact import CoordVectorField
    bad = CoordVectorField(1, (parse("2*v1", 1), Const(0.0), Const(0.0)))
    good = REG["sode_linear_drag"]().as_field()
    report = horizontal_similarity_check(bad, good, ActionFunction(parse("z", 1)),
                                         plan=BOX1, params={"gam": 0.1})
    assert report.verdict == "error"


# ---------------------------------------------------------------------------
# Projectability


def test_projectability_cases():
    drag = REG["sode_linear_drag"]()
    assert projectability_check(drag.as_field(), BOX1, drag.params).passed

    from herglotz.inverse import SODESystem
    zdep = SODESystem(1, (parse("z", 1),), Const(0.0), {})
    assert projectability_check(zdep.as_field(), BOX1, {}).verdict == "fail"

    para = REG["parachute"]()
    field = herglotz_field(para)
    assert projectability_check(field, BOX1, para.params).passed


# ---------------------------------------------------------------------------
# Strong equivalence


def test_strong_total_derivative_gauge():
    drag = REG["linear_drag"]()
    report = strong_equivalence_check(drag, REG["drag_gauge_bar"](),
                                      REG["zeta_sin_q"](), BOX1_200)
    assert report.passed


def test_strong_parachute_gauge():
    para = REG["parachute"]()
    report = strong_equivalence_check(para, REG["parachute_gauge_bar"](),
                                      REG["zeta_square_q"](), BOX1_200)
    assert report.passed


def test_strong_scaled_symplectic_gauge():
    osc = REG["oscillator"]()
    report = strong_equivalence_check(osc, REG["oscillator_scaled_bar"](),
                                      REG["zeta_scaled"](), BOX1_200)
    assert report.passed


def test_strong_fails_on_velocity_dependent_zeta():
    base = REG["power_gauge_base"]()
    report = strong_equivalence_check(base, REG["power_gauge_bar1"](),
                                      REG["zeta_v1"](), BOX1_200)
    assert report.verdict == "fail"
    assert any(rec.values["velocity_dependence"] > 0.5 for rec in report.records)


# ---------------------------------------------------------------------------
# General equivalence


def test_general_velocity_gauge_passes_n1_n2():
    base = REG["power_gauge_base"]()
    for bar, zeta in (("power_gauge_bar1", "zeta_v1"),
                      ("power_gauge_bar2", "zeta_v2")):
        report = general_equivalence_check(base, REG[bar](), REG[zeta](),
                                           BOX1_200)
        assert report.passed, (bar, report.max_residual)
        assert report.max_residual <= 1e-8


def test_general_velocity_gauge_fails_n3():
    base = REG["power_gauge_base"]()
    report = general_equivalence_check(base, REG["power_gauge_bar3"](),
                                       REG["zeta_v3"](), BOX1_200)
    assert report.verdict == "fail"
    # defect of the momentum condition scales like 6 gam^2 v^2
    gam = base.params["gam"]
    for rec in report.records:
        expected = 6.0 * gam ** 2 * rec.point.v[0] ** 2
        assert rec.values["p_condition_1"] == pytest.approx(expected, abs=1e-10)


def test_general_singular_coupling_is_error_not_fail():
    base = REG["power_gauge_base_g05"]()
    report = general_equivalence_check(base, REG["power_gauge_bar2"](),
                                       REG["zeta_v2"](), BOX1_200)
    assert report.verdict == "error"
    assert any("regularity" in d for d in report.diagnostics)


def test_strong_pass_implies_general_pass():
    cases = [
        (REG["linear_drag"](), REG["drag_gauge_bar"](), REG["zeta_sin_q"]()),
        (REG["oscillator"](), REG["oscillator_scaled_bar"](), REG["zeta_scaled"]()),
        (REG["parachute"](), REG["parachute_gauge_bar"](), REG["zeta_square_q"]()),
    ]
    for sys, bar, zeta in cases:
        assert strong_equivalence_check(sys, bar, zeta, BOX1).passed
        assert general_equivalence_check(sys, bar, zeta, BOX1).passed


def test_general_pass_implies_matching_fields():
    base = REG["power_gauge_base"]()
    report = general_equivalence_check(base, REG["power_gauge_bar1"](),
                                       REG["zeta_v1"](), BOX1_200)
    assert report.passed
    assert all(rec.values["field_mismatch"] <= 1e-7 for rec in report.records)


def test_general_field_mismatch_forces_fail():
    # a bar-Lagrangian rescaled by 1.5 keeps nothing aligned
    base = REG["power_gauge_base"]()
    bar = parse("1.5*(0.5*v1^2 - gam*z)", 1)
    report = general_equivalence_check(base, bar, REG["zeta_v1"](), BOX1)
    assert report.verdict == "fail"
    assert any(rec.values["field_mismatch"] > 1e-4 for rec in report.records)


def test_reports_are_deterministic():
    base = REG["power_gauge_base"]()
    r1 = general_equivalence_check(base, REG["power_gauge_bar3"](),
                                   REG["zeta_v3"](), BOX1_200)
    r2 = general_equivalence_check(base, REG["power_gauge_bar3"](),
                                   REG["zeta_v3"](), BOX1_200)
    assert len(r1.records) == len(r2.records)
    for rec1, rec2 in zip(r1.records, r2.records):
        assert rec1.values == rec2.values
        np.testing.assert_array_equal(rec1.point.coords(), rec2.point.coords())


def test_sampling_rejects_frame_singular_points():
    # zeta with dzeta/dz = z + 1 vanishing inside the box: rejected points
    # must be resampled, never evaluated
    base = REG["linear_drag"]()
    zeta = ActionFunction(parse("z + 0.5*z^2", 1))
    plan = SamplePlan("random", tuple((-1.0, 1.0) for _ in range(3)), 50, 7)
    report = strong_equivalence_check(
        base, parse("0.5*v1^2 - gam*z", 1), zeta, plan)
    for rec in report.records:
        assert abs(1.0 + rec.point.z) > 1e-8


def test_sampling_cap_errors_out():
    base = REG["linear_drag"]()
    zeta = ActionFunction(parse("q1*z", 1))  # dzeta/dz = q1
    plan = SamplePlan("random", ((0.0, 1e-12), (-1.0, 1.0), (-1.0, 1.0)), 20, 3)
    report = strong_equivalence_check(base, parse("0.5*v1^2 - gam*z", 1),
                                      zeta, plan)
    assert report.verdict == "error"


@pytest.mark.parametrize("check", [conformal_similarity_check, dynamical_equivalence_check,
                                   zero_set_diagnostic])
def test_contact_pair_checks_reject_different_charts(check):
    wide, narrow = (ContactHamiltonianSystem(n, darboux_form(n), parse("q1*v1 + z", n))
                    for n in (2, 1))
    for sys_a, sys_b in ((wide, narrow), (narrow, wide)):
        with pytest.raises(ValueError, match="different dimension"):
            check(sys_a, sys_b)


# ---------------------------------------------------------------------------
# Large samples run over rows, and walk like the per-point loop


def _walk_outcome(check):
    """The report body of ``check()``, or the type and text of its error."""
    try:
        return json.dumps(check().to_dict())
    except ExprError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("check", [strong_equivalence_check, general_equivalence_check])
@pytest.mark.parametrize("gate_at, pole_at", [(5, 27), (27, 5), (0, 39), (39, 0), (12, 12)])
@pytest.mark.parametrize("w_fails", ["singular", "raising"])
def test_rows_end_at_the_first_failure_like_the_point_walk(monkeypatch, check, gate_at,
                                                           pole_at, w_fails):
    """In a 40-point sample, W is singular at point ``gate_at`` (or its tape
    divides by zero there) and the bar-Lagrangian divides by zero exactly at
    point ``pole_at``: the earlier one, W's at a tie, ends the check with the
    records before it, as it does when every sample is walked point by point."""
    plan = SamplePlan("random", (), 40, 17)
    assert plan.count >= ex.ROWS_MIN
    points = sample_states(plan, 1)
    params = {"c_gate": points[gate_at].q[0], "c_pole": points[pole_at].q[0]}
    kinetic = "0.5*v1^2*(q1 - c_gate)" if w_fails == "singular" else "0.5*v1^2/(q1 - c_gate)"
    sys = ContactLagrangianSystem(1, parse(f"{kinetic} - 0.1*z", 1), params)
    lbar = parse(f"{kinetic} - 0.1*z + 1/(q1 - c_pole)", 1)
    zeta = ActionFunction(parse("z", 1))
    rows = _walk_outcome(lambda: check(sys, lbar, zeta, plan))
    if gate_at <= pole_at and w_fails == "singular":
        report = json.loads(rows)
        assert report["verdict"] == "error" and len(report["residuals"]) == gate_at
        assert "det W = 0.000e+00" in report["diagnostics"][0]
    else:
        assert rows[0] is DomainError and rows[1].startswith("division by zero in ")
        assert ("c_gate" if gate_at <= pole_at else "c_pole") in rows[1]
    for module in [m for name, m in modules.items() if name.startswith("herglotz")]:
        if hasattr(module, "ROWS_MIN"):
            monkeypatch.setattr(module, "ROWS_MIN", plan.count + 1)
    assert _walk_outcome(lambda: check(sys, lbar, zeta, plan)) == rows


def test_large_samples_make_no_per_point_tape_call(monkeypatch):
    """200-point strong, general and dynamical checks run every tape over
    rows.  The frame predicate, which stays per point, is replaced by its
    value: dzeta/dz = 1 for both gauges."""
    calls = []
    call = ex._Tape.__call__
    monkeypatch.setattr(ex._Tape, "__call__", lambda self, y: calls.append(y) or call(self, y))
    monkeypatch.setattr(ActionFunction, "frame_test", lambda self, n, extra=None: lambda p: True)
    plan = SamplePlan(count=200, seed=3)
    checks = [
        lambda: strong_equivalence_check(REG["linear_drag"](), REG["drag_gauge_bar"](),
                                         REG["zeta_sin_q"](), plan),
        lambda: general_equivalence_check(REG["power_gauge_base"](),
                                          REG["power_gauge_bar1"](), REG["zeta_v1"](), plan),
        lambda: dynamical_equivalence_check(*saddle_pair(), plan),
    ]
    for check in checks:
        report = check()
        assert report.passed and len(report.records) == 200, report.diagnostics
    assert calls == []
    # the count sees the calls of a sample below ROWS_MIN
    small = SamplePlan(count=ex.ROWS_MIN - 1, seed=3)
    assert dynamical_equivalence_check(*saddle_pair(), small).passed
    assert len(calls) == 4 * small.count
