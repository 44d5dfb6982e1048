import math

import numpy as np
import pytest

from herglotz.contact import CoordVectorField
from herglotz.dynamics import (
    IntegrationError, SampledCurve, Trajectory, action, integrate,
    stationarity_test, trajectory_to_csv, trajectory_to_curve, z_operator,
)
from herglotz.expr import Const, log, parse, q
from herglotz.fixtures import builtin_systems
from herglotz.lagrangian import herglotz_field

from conftest import pt

REG = builtin_systems()


def damped_exact(gam, q0, v0, z0, t):
    v = v0 * math.exp(-gam * t)
    qq = q0 + v0 * (1 - math.exp(-gam * t)) / gam
    z = math.exp(-gam * t) * z0 \
        + v0 ** 2 * math.exp(-gam * t) * (1 - math.exp(-gam * t)) / (2 * gam)
    return np.array([qq, v, z])


# ---------------------------------------------------------------------------
# Integration


def test_integrate_constant_field_exact():
    field = CoordVectorField(1, (Const(0.0), Const(0.0), Const(1.0)))
    traj = integrate(field, pt(0.0, 0.0, 0.0), 1.0, 0.125)
    assert traj.z[-1] == 1.0
    assert traj.times[-1] == 1.0


def test_integrate_damped_against_closed_form():
    drag = REG["linear_drag"]()
    traj = integrate(herglotz_field(drag), pt(0.0, 2.0, 0.0), 1.0, 1e-3,
                     drag.params)
    exact = damped_exact(0.1, 0.0, 2.0, 0.0, 1.0)
    final = np.array([traj.q[-1, 0], traj.v[-1, 0], traj.z[-1]])
    assert np.max(np.abs(final - exact)) <= 1e-8
    assert traj.v[-1, 0] == pytest.approx(2.0 * math.exp(-0.1), abs=1e-10)


def test_integrate_shortens_final_step():
    field = CoordVectorField(1, (Const(0.0), Const(0.0), Const(1.0)))
    traj = integrate(field, pt(0.0, 0.0, 0.0), 1.0, 0.3)
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert traj.z[-1] == pytest.approx(1.0, abs=1e-15)


def test_integrate_reports_last_good_state_on_failure():
    # q decreases from 1 at unit speed; log(q1) blows up at the origin
    field = CoordVectorField(1, (Const(-1.0), Const(0.0), log(q(1))))
    with pytest.raises(IntegrationError) as err:
        integrate(field, pt(1.0, 0.0, 0.0), 2.0, 0.25)
    partial = err.value.partial
    assert len(partial.times) >= 2
    assert partial.times[-1] < 2.0


def test_integrate_failure_names_the_subtree():
    # q1 crosses zero inside the second step, where log(q1) is undefined
    field = CoordVectorField(1, (Const(-1.0), Const(0.0), log(q(1))))
    with pytest.raises(IntegrationError,
                       match=r"log of non-positive value in log\(q1\).*"
                             r"\(last good t = 0\.25\)$"):
        integrate(field, pt(0.3, 0.0, 0.0), 1.0, 0.25)


def test_rk4_convergence_order_on_stiff_damped_fixture():
    stiff = REG["linear_drag_stiff"]()
    field = herglotz_field(stiff)
    exact = damped_exact(2.0, 0.0, 3.0, 0.5, 1.0)
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = integrate(field, pt(0.0, 3.0, 0.5), 1.0, dt, stiff.params)
        final = np.array([traj.q[-1, 0], traj.v[-1, 0], traj.z[-1]])
        errors.append(np.max(np.abs(final - exact)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8
    # halving the step divides the error by about 2^4
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.2)


# ---------------------------------------------------------------------------
# Z operator and action


def test_z_operator_constant_lagrangian():
    curve = SampledCurve(np.linspace(0, 1, 50), np.zeros((50, 1)),
                         np.zeros((50, 1)))
    zs = z_operator(Const(2.0), curve, 1.0)
    np.testing.assert_allclose(zs, 1.0 + 2.0 * curve.times, atol=1e-14)
    assert action(Const(2.0), curve, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_z_operator_linear_decay():
    curve = SampledCurve(np.linspace(0, 1, 200), np.zeros((200, 1)),
                         np.zeros((200, 1)))
    zs = z_operator(parse("-gam*z", 1), curve, 1.0, {"gam": 0.5})
    np.testing.assert_allclose(zs, np.exp(-0.5 * curve.times), atol=1e-10)


def test_z_operator_kinetic_along_unit_line():
    t = np.linspace(0, 1, 100)
    curve = SampledCurve(t, t.reshape(-1, 1), np.ones((100, 1)))
    zs = z_operator(parse("0.5*v1^2", 1), curve, 0.0)
    assert zs[-1] == pytest.approx(0.5, abs=1e-13)
    assert action(parse("0.5*v1^2", 1), curve, 0.0) == pytest.approx(0.5, abs=1e-13)


def test_curve_velocities_default_to_centered_differences():
    t = np.linspace(0, 1, 101)
    curve = SampledCurve(t, np.sin(t).reshape(-1, 1))
    vels = curve.velocities()
    interior = np.cos(t[1:-1])
    assert np.max(np.abs(vels[1:-1, 0] - interior)) <= 1e-4


def test_z_consistency_with_trajectory():
    # z_operator on the projected curve reproduces the integrated z:
    # the action coordinate rate along the flow is the Lagrangian
    for name, bound in (("linear_drag", 1e-6), ("contact_oscillator", 1e-6),
                        ("parachute", 1e-5)):
        sys = REG[name]()
        traj = integrate(herglotz_field(sys), pt(0.0, 2.0, 0.0), 1.0, 1e-3,
                         sys.params)
        zs = z_operator(sys.L, trajectory_to_curve(traj), 0.0, sys.params)
        assert np.max(np.abs(zs - traj.z)) <= bound, name


def test_equivalent_systems_share_trajectories():
    from herglotz.extended import (
        ExtendedLagrangianSystem, compose_with_zeta, zeta_herglotz_field,
    )
    drag = REG["linear_drag"]()
    zeta = REG["zeta_sin_q"]()
    lbar = compose_with_zeta(REG["drag_gauge_bar"](), zeta)
    ext = ExtendedLagrangianSystem(1, lbar, zeta, drag.params)
    p0 = pt(0.2, 1.5, 0.0)
    t1 = integrate(herglotz_field(drag), p0, 1.0, 1e-3, drag.params)
    t2 = integrate(zeta_herglotz_field(ext), p0, 1.0, 1e-3, ext.all_params)
    assert np.max(np.abs(t1.q - t2.q)) <= 1e-6
    assert np.max(np.abs(t1.v - t2.v)) <= 1e-6


# ---------------------------------------------------------------------------
# Stationarity


def test_free_particle_straight_line_is_stationary():
    t = np.linspace(0, 1, 200)
    line = SampledCurve(t, t.reshape(-1, 1), np.ones((200, 1)))
    report = stationarity_test(parse("0.5*v1^2", 1), line, 0.0,
                               n_perturbations=8, amplitude=1e-4,
                               stat_tol=1e-6)
    assert report.passed
    assert report.max_residual <= 1e-6


def test_stationarity_needs_a_perturbation():
    t = np.linspace(0, 1, 20)
    line = SampledCurve(t, t.reshape(-1, 1), np.ones((20, 1)))
    with pytest.raises(ValueError, match="n_perturbations"):
        stationarity_test(parse("0.5*v1^2", 1), line, 0.0, n_perturbations=0)


def test_parachute_solution_is_stationary_and_random_curve_is_not():
    para = REG["parachute"]()
    field = herglotz_field(para)
    traj = integrate(field, pt(0.0, 2.0, 0.0), 1.0, 1.0 / 199, para.params)
    curve = trajectory_to_curve(traj)
    report = stationarity_test(para.L, curve, 0.0, 8, 1e-4, 1e-3, para.params)
    assert report.passed

    rng = np.random.default_rng(11)
    t = curve.times
    qa = np.outer(1 - t, curve.q[0]) + np.outer(t, curve.q[-1])
    va = np.tile(curve.q[-1] - curve.q[0], (len(t), 1)).astype(float)
    for k in range(1, 4):
        coeff = rng.uniform(-0.5, 0.5, size=1)
        qa = qa + np.outer(np.sin(k * np.pi * t), coeff)
        va = va + np.outer(k * np.pi * np.cos(k * np.pi * t), coeff)
    report_bad = stationarity_test(para.L, SampledCurve(t, qa, va), 0.0,
                                   8, 1e-4, 1e-3, para.params)
    assert report_bad.verdict == "fail"
    assert report_bad.max_residual >= 1e-1


def test_damped_solution_is_stationary():
    drag = REG["linear_drag"]()
    traj = integrate(herglotz_field(drag), pt(0.0, 2.0, 0.0), 1.0, 1.0 / 199,
                     drag.params)
    report = stationarity_test(drag.L, trajectory_to_curve(traj), 0.0,
                               8, 1e-4, 1e-3, drag.params)
    assert report.passed


# ---------------------------------------------------------------------------
# Serialization


def test_trajectory_csv_round_trip(tmp_path):
    drag = REG["linear_drag"]()
    traj = integrate(herglotz_field(drag), pt(0.0, 2.0, 0.0), 0.1, 0.02,
                     drag.params)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,q1,v1,z"
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(data[:, 0], traj.times)
    np.testing.assert_array_equal(data[:, 1], traj.q[:, 0])
    np.testing.assert_array_equal(data[:, 2], traj.v[:, 0])
    np.testing.assert_array_equal(data[:, 3], traj.z)


def test_curve_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SampledCurve(np.linspace(0, 2, 10), np.zeros((10, 1)))
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), np.zeros((2, 1)),
                   np.zeros(2))
