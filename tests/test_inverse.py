import numpy as np
import pytest

from herglotz.contact import CoordOneForm, conformal_factor
from herglotz.expr import Const, differentiate, evaluate, neg, parse, v
from herglotz.extended import ActionFunction
from herglotz.checks import SamplePlan
from herglotz.fixtures import builtin_plans, builtin_systems, lagrangian_fixture_names
from herglotz.inverse import (
    SODESystem, di_ei_diagnostics, extended_inverse_check, naive_inverse_check,
)
from herglotz.lagrangian import herglotz_field

from conftest import pt

REG = builtin_systems()
BOX1 = builtin_plans()["box1"]
ZETA_ID = ActionFunction(parse("z", 1))


def sode_from_lagrangian(sys) -> SODESystem:
    field = herglotz_field(sys)
    n = sys.n_dim
    return SODESystem(n, field.components[n:2 * n], field.components[2 * n],
                      dict(sys.params))


def perturbed(sode: SODESystem, shift=0.1) -> SODESystem:
    accels = (sode.accelerations[0] + Const(shift),) + sode.accelerations[1:]
    return SODESystem(sode.n_dim, accels, sode.z_rate, sode.params)


# ---------------------------------------------------------------------------
# Naive inverse check


def test_naive_round_trip_parachute():
    sode = sode_from_lagrangian(REG["parachute"]())
    result = naive_inverse_check(sode, BOX1)
    assert result.report.passed
    # the recovered Lagrangian is the z-rate itself, structurally
    assert result.lagrangian is sode.z_rate


def test_naive_pass_on_damped_sode():
    sode = REG["sode_linear_drag"]()
    result = naive_inverse_check(sode, BOX1)
    assert result.report.passed
    assert result.lagrangian == sode.z_rate


def test_naive_fail_on_flat_rate():
    # z-rate identically zero has a vanishing velocity Hessian
    result = naive_inverse_check(REG["sode_flat_rate"](), BOX1)
    assert result.report.verdict == "fail"
    assert result.lagrangian is None
    assert any("singular" in d for d in result.report.diagnostics)


def test_naive_round_trip_over_fixture_set():
    for name in lagrangian_fixture_names():
        sode = sode_from_lagrangian(REG[name]())
        result = naive_inverse_check(sode, BOX1)
        assert result.report.passed, name
        assert result.lagrangian is sode.z_rate


def test_naive_fails_after_acceleration_perturbation():
    for name in lagrangian_fixture_names():
        sode = perturbed(sode_from_lagrangian(REG[name]()))
        result = naive_inverse_check(sode, BOX1)
        assert result.report.verdict == "fail", name
        assert result.report.max_residual >= 1e-2


def test_naive_verdict_matches_conformal_contactomorphism_criterion():
    # eta_b = dz - (db/dv) dq: the naive verdict agrees with xi being an
    # infinitesimal conformal transformation of eta_b
    for sode, expect_pass in ((REG["sode_linear_drag"](), True),
                              (perturbed(REG["sode_linear_drag"]()), False)):
        b = sode.z_rate
        eta_b = CoordOneForm(1, (neg(differentiate(b, v(1))), Const(0.0),
                                 Const(1.0)))
        field = sode.as_field()
        worst = 0.0
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = pt(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            _, residual = conformal_factor(eta_b, field, p, sode.params)
            worst = max(worst, residual)
        verdict = naive_inverse_check(sode, BOX1).report.passed
        assert verdict == (worst <= 1e-8), (expect_pass, worst)
        assert verdict == expect_pass


# ---------------------------------------------------------------------------
# Extended inverse check


def test_extended_reduces_to_euler_lagrange_for_z_free_data():
    # z-free accelerations and rate: the identity chart check is the
    # classical Euler-Lagrange consistency of the rate
    osc = REG["oscillator"]()
    sode = sode_from_lagrangian(osc)
    result = extended_inverse_check(sode, ZETA_ID, BOX1)
    assert result.report.passed
    assert result.lagrangian == sode.apply(parse("z", 1))


def test_extended_identity_chart_matches_naive_verdicts():
    for name in lagrangian_fixture_names():
        sode = sode_from_lagrangian(REG[name]())
        naive = naive_inverse_check(sode, BOX1).report.passed
        extended = extended_inverse_check(sode, ZETA_ID, BOX1).report.passed
        assert naive == extended, name


def test_extended_recovers_conformal_rate():
    sode = REG["sode_linear_drag"]()
    result = extended_inverse_check(sode, ZETA_ID, BOX1)
    assert result.report.passed
    rate = result.conformal_rate
    for qv, vv, zv in ((0.0, 1.0, 0.0), (0.5, -0.5, 0.3)):
        assert evaluate(rate, pt(qv, vv, zv), sode.params) == \
            pytest.approx(-0.1, abs=1e-12)
    assert result.momenta is not None


def test_extended_fails_on_perturbed_acceleration():
    sode = perturbed(REG["sode_linear_drag"]())
    result = extended_inverse_check(sode, ZETA_ID, BOX1)
    assert result.report.verdict == "fail"
    # defect of a constant perturbation is exactly the perturbation size
    assert result.report.max_residual == pytest.approx(0.1, abs=1e-10)


def test_extended_rejects_velocity_dependent_zeta():
    sode = REG["sode_linear_drag"]()
    zeta = ActionFunction(parse("z + v1", 1))
    result = extended_inverse_check(sode, zeta, BOX1)
    assert result.report.verdict == "error"
    assert any("velocities" in d for d in result.report.diagnostics)


# ---------------------------------------------------------------------------
# Obstruction diagnostics


def test_diagnostics_clean_on_herglotz_fields():
    for name in lagrangian_fixture_names():
        sode = sode_from_lagrangian(REG[name]())
        report = di_ei_diagnostics(sode, BOX1)
        assert report.passed, name


def test_diagnostics_ratio_is_unit_for_parachute():
    sode = REG["sode_parachute"]()
    report = di_ei_diagnostics(sode, BOX1)
    assert report.passed
    for rec in report.records:
        if abs(rec.values["E_1"]) > 1e-6:
            assert rec.values["D_1"] / rec.values["E_1"] == \
                pytest.approx(1.0, abs=1e-9)


def test_diagnostics_dirty_on_perturbed_fields():
    for name in ("sode_parachute", "sode_linear_drag"):
        sode = perturbed(REG[name]())
        report = di_ei_diagnostics(sode, BOX1)
        assert report.verdict == "fail", name


def test_diagnostics_zero_set_mismatch():
    # D vanishes identically while E = 2 v1: every v != 0 point mismatches
    sode = SODESystem(1, (Const(0.0),), parse("z + v1^2", 1), {})
    report = di_ei_diagnostics(sode, BOX1)
    assert report.verdict == "fail"
    assert any(rec.values["zero_set_mismatch_1"] == 1.0 for rec in report.records)


def test_diagnostics_z_free_case_demands_euler_lagrange():
    # z-free rate: E vanishes identically, so D must too; the oscillator
    # field satisfies it, a biased acceleration breaks it
    osc_sode = sode_from_lagrangian(REG["oscillator"]())
    assert di_ei_diagnostics(osc_sode, BOX1).passed
    biased = perturbed(osc_sode, 0.5)
    assert di_ei_diagnostics(biased, BOX1).verdict == "fail"


def test_diagnostics_exclusion_counts_reported():
    sode = sode_from_lagrangian(REG["oscillator"]())
    report = di_ei_diagnostics(sode, BOX1)
    assert any("excluded" in d for d in report.diagnostics)


def test_diagnostics_non_finite_value_is_error():
    # big^2 overflows, so E_1 = (big*v1 + ...)*big - (...)*big is inf - inf
    sode = SODESystem(1, (parse("big*v1", 1),), parse("0.5*v1^2 + big*z*v1", 1),
                      {"big": 1e200})
    report = di_ei_diagnostics(sode, SamplePlan("random", (), 5, 0))
    assert report.verdict == "error"
    assert report.diagnostics[0] == "non-finite value at point 0: E_1 = nan"
