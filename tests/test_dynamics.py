import ast
import math
import re

import numpy as np
import pytest

from herglotz import dynamics
from herglotz.checks import Tolerances
from herglotz.contact import CoordVectorField
from herglotz.dynamics import (
    IntegrationError, SampledCurve, Trajectory, action, integrate,
    stationarity_test, trajectory_to_csv, trajectory_to_curve, z_operator,
)
from herglotz.expr import (
    Const, DomainError, StatePoint, compile_components, log, parse, q,
)
from herglotz.fixtures import builtin_systems
from herglotz.lagrangian import ContactLagrangianSystem, herglotz_field

from conftest import dense_lagrangian, pt, random_regular_lagrangian

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


def test_integrate_counts_steps_and_ends_at_t_end():
    field = CoordVectorField(1, (Const(0.0), Const(0.0), Const(1.0)))
    traj = integrate(field, pt(0.0, 0.0, 0.0), 1.0, 0.1)
    assert len(traj.times) == 11
    assert traj.times[-1] == 1.0
    # 0.3 + 0.3 + 0.3 rounds below 0.9, which must not add a sliver step
    traj = integrate(field, pt(0.0, 0.0, 0.0), 0.9, 0.3)
    assert len(traj.times) == 4
    assert traj.times[-1] == 0.9


@pytest.mark.parametrize("t_end, dt", [(1.0, 0.0), (1.0, -0.1), (0.0, 0.1), (-1.0, 0.1)])
def test_integrate_refuses_a_nonpositive_time_or_step(t_end, dt):
    field = CoordVectorField(1, (Const(0.0), Const(0.0), Const(1.0)))
    with pytest.raises(ValueError, match="t_end and dt must be positive"):
        integrate(field, pt(0.0, 0.0, 0.0), t_end, dt)


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


def test_integrate_names_the_step_that_failed():
    """W = 1e-9 q1^2 vanishes at the start, q1 = 0: the field's quotient fails
    at the first stage of the first step, which the error names by both ends;
    the partial trajectory is the initial state."""
    system = ContactLagrangianSystem(1, parse("5e-10*q1^2*v1^2 + q1", 1))
    with pytest.raises(IntegrationError) as err:
        integrate(herglotz_field(system), pt(0.0, 1.0, 0.0), 0.01, 0.001)
    assert str(err.value).startswith(
        "field evaluation failed in the step from t = 0.0 to t = 0.001: division by zero in ")
    assert str(err.value).endswith(" (last good t = 0.0)")
    assert err.value.partial.times.tolist() == [0.0]


@pytest.mark.parametrize("n, texts, initial, t_end, dt, message", [
    (1, ("v1", "exp(z)", "z^2 + 1"), [0.0, 0.0, 1.0], 3.0, 0.01,
     "field evaluation failed in the step from t = 0.78 to t = 0.79: overflow in exp(z) "
     "(last good t = 0.78)"),
    (2, ("v1", "v2", "-1", "0", "sqrt(q1 + v2)"), [0.5, 0.1, 0.2, 0.0, 0.0], 2.0, 0.1,
     "field evaluation failed in the step from t = 1.2000000000000002 to t = 1.3: "
     "sqrt of negative value in sqrt(q1 + v2) (last good t = 1.2000000000000002)"),
])
def test_integrate_failure_texts_name_the_failing_subtree(n, texts, initial, t_end, dt,
                                                          message):
    """The step program calls the compiled rate program directly, whose own
    DomainError is the cause, worded once."""
    field = CoordVectorField(n, tuple(parse(t, n) for t in texts))
    with pytest.raises(IntegrationError) as err:
        integrate(field, StatePoint.from_coords(initial, n), t_end, dt)
    assert str(err.value) == message
    assert type(err.value.__cause__) is DomainError
    assert str(err.value.__cause__) == message.split(": ", 1)[1].split(" (last")[0]


@pytest.mark.parametrize("text, q0, slope, message", [
    ("log(q1) + v1*z", 0.5, -1.0, "log of non-positive value in log(q1)"),
    ("sqrt(v1 + 2*q1)", 0.5, -1.0, "sqrt of negative value in sqrt(v1 + 2*q1)"),
    ("z^100", 0.0, 1.0, "overflow in z^100"),
])
def test_z_operator_failure_texts_name_the_failing_subtree(text, q0, slope, message):
    t = np.linspace(0.0, 1.0, 21)
    curve = SampledCurve(t, np.column_stack([q0 + slope * t]))
    L = parse(text, 1)
    with pytest.raises(DomainError, match=rf"^{re.escape(message)}$") as err:
        z_operator(L, curve, 2.0)
    assert err.value.__cause__ is None and err.value.__suppress_context__
    with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
        stationarity_test(L, curve, 2.0)


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
# Bit-for-bit pins: a numpy RK4, stage for stage, that integrate and
# z_operator must reproduce exactly


def reference_integrate(field, p0, t_end, dt, params=None):
    n = p0.n
    if isinstance(field, CoordVectorField):
        compiled = compile_components(field.components, n, params)
        fn = lambda y: np.asarray(compiled(y))  # noqa: E731
    else:
        fn = lambda y: np.asarray(field(StatePoint.from_coords(y, n)))  # noqa: E731
    steps = max(1, math.ceil(t_end / dt - 1e-9))
    times, states, y = [0.0], [p0.coords()], p0.coords()
    for k in range(1, steps + 1):
        t, h = (k * dt, dt) if k < steps else (t_end, t_end - (steps - 1) * dt)
        k1 = fn(y)
        k2 = fn(y + 0.5 * h * k1)
        k3 = fn(y + 0.5 * h * k2)
        k4 = fn(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        times.append(t)
        states.append(y)
    return np.asarray(times), np.asarray(states)


def reference_z_operator(L, curve, z0, params=None):
    fn = compile_components([L], curve.n, params)
    qs, vs, t = curve.q, curve.velocities(), curve.times
    out = np.empty(len(t))
    out[0] = z0
    zc = float(z0)

    def rate(qrow, vrow, zval):
        return fn(tuple(qrow) + tuple(vrow) + (zval,))[0]

    for k in range(len(t) - 1):
        h = t[k + 1] - t[k]
        q0, q1, v0, v1 = qs[k], qs[k + 1], vs[k], vs[k + 1]
        qm, vm = 0.5 * (q0 + q1), 0.5 * (v0 + v1)
        k1 = rate(q0, v0, zc)
        k2 = rate(qm, vm, zc + 0.5 * h * k1)
        k3 = rate(qm, vm, zc + 0.5 * h * k2)
        k4 = rate(q1, v1, zc + h * k3)
        zc += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = zc
    return out


def damped_callable(p):
    return np.array([p.v[0], -p.q[0] - 0.3 * p.v[0] * p.z, 0.5 * p.v[0] ** 2 - 0.1 * p.z])


@pytest.mark.parametrize("case", ["drag n=1", "dense n=3", "callable", "short last step"])
def test_integrate_matches_numpy_rk4_bit_for_bit(case):
    dense = dense_lagrangian(3)
    field, p0, t_end, dt, params = {
        "drag n=1": (herglotz_field(REG["linear_drag"]()), pt(0.1, 2.0, 0.3), 1.0, 0.01,
                     REG["linear_drag"]().params),
        "dense n=3": (herglotz_field(dense), pt([0.1, -0.2, 0.3], [0.5, 0.0, -0.4], 0.2),
                      0.5, 0.01, dense.params),
        "callable": (damped_callable, pt(1.0, 0.5, 0.0), 1.0, 0.02, None),
        "short last step": (herglotz_field(REG["parachute"]()), pt(0.0, 2.0, 0.0), 1.0, 0.3,
                            REG["parachute"]().params),
    }[case]
    traj = integrate(field, p0, t_end, dt, params)
    times, states = reference_integrate(field, p0, t_end, dt, params)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(np.column_stack([traj.q, traj.v, traj.z]), states)


def test_z_operator_matches_numpy_rk4_on_a_nonuniform_grid():
    t = np.linspace(0.0, 1.0, 60) ** 2
    curve = SampledCurve(t, np.column_stack([np.sin(3 * t), np.cos(2 * t) - t]))
    L = parse("0.5*v1^2 + 0.5*v2^2 - q1*q2 - gam*z*v1 + sin(z)", 2)
    zs = z_operator(L, curve, 0.25, {"gam": 0.4})
    assert np.array_equal(zs, reference_z_operator(L, curve, 0.25, {"gam": 0.4}))


def test_trajectory_csv_bytes_are_per_scalar_17g(tmp_path):
    dense = dense_lagrangian(3)
    traj = integrate(herglotz_field(dense), pt([0.1, -0.2, 0.3], [0.5, 0.0, -0.4], 0.2),
                     0.1, 0.03, dense.params)
    odd = Trajectory(np.array([0.0, 1 / 3, 1.0]), np.array([[-0.0], [1e-300], [2.0 ** 60]]),
                     np.array([[5e-324], [-1e17], [0.1]]), np.array([1.0, -2.5, np.pi]))
    for name, tr in (("dense", traj), ("odd", odd)):
        path = tmp_path / f"{name}.csv"
        trajectory_to_csv(tr, path)
        n = tr.n
        expected = ",".join(["t"] + [f"q{i}" for i in range(1, n + 1)]
                            + [f"v{i}" for i in range(1, n + 1)] + ["z"]) + "\n"
        for k in range(len(tr.times)):
            row = [tr.times[k], *tr.q[k], *tr.v[k], tr.z[k]]
            expected += ",".join(f"{x:.17g}" for x in row) + "\n"
        assert path.read_bytes() == expected.encode("ascii")


def rowwise_csv(traj, path):
    """The row-by-row writer the block writer replaced, as its reference."""
    n = traj.n
    header = ["t"] + [f"q{i}" for i in range(1, n + 1)] \
        + [f"v{i}" for i in range(1, n + 1)] + ["z"]
    table = np.column_stack([traj.times, traj.q, traj.v, traj.z])
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(line % tuple(row.tolist()))


@pytest.mark.parametrize("rows", [1, dynamics.CSV_BLOCK, 2 * dynamics.CSV_BLOCK + 77])
def test_trajectory_csv_blocks_match_the_row_writer(tmp_path, rng, rows):
    values = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-300, 300, (rows, 5))
    values[::7, 1] = np.resize([math.inf, -math.inf, math.nan, -0.0, 5e-324],
                               len(values[::7]))
    odd = Trajectory(np.arange(rows) / 3.0, values[:, :2], values[:, 2:4], values[:, 4])
    trajectory_to_csv(odd, tmp_path / "blocks.csv")
    rowwise_csv(odd, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_trajectory_csv_bytes_hold_infinities_and_nans(tmp_path):
    inf, nan = math.inf, math.nan
    odd = Trajectory(np.array([0.0, 0.5, 1.0, 2.0]),
                     np.array([[inf, -0.0], [-inf, 5e-324], [nan, -nan], [2.2e-308, 1e308]]),
                     np.array([[-5e-324, nan], [0.0, inf], [-inf, 1.0], [0.1, -2.5]]),
                     np.array([nan, -inf, -0.0, 7.0]))
    trajectory_to_csv(odd, tmp_path / "odd.csv")
    expected = "t,q1,q2,v1,v2,z\n"
    for k in range(len(odd.times)):
        row = [odd.times[k], *odd.q[k], *odd.v[k], odd.z[k]]
        expected += ",".join(f"{x:.17g}" for x in row) + "\n"
    assert (tmp_path / "odd.csv").read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integrate_matches_numpy_rk4_on_random_regular_systems(rng, n):
    system = random_regular_lagrangian(rng, n)
    field = herglotz_field(system)
    p0 = pt(rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5))
    traj = integrate(field, p0, 0.5, 0.01, system.params)
    times, states = reference_integrate(field, p0, 0.5, 0.01, system.params)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(np.column_stack([traj.q, traj.v, traj.z]), states)


def test_z_operator_matches_numpy_rk4_on_the_dense_family():
    dense = dense_lagrangian(3)
    t = np.linspace(0.0, 1.0, 80) ** 1.5
    curve = SampledCurve(t, np.column_stack([np.sin(2 * t), t * t - 0.3, np.cos(3 * t)]))
    zs = z_operator(dense.L, curve, -0.1, dense.params)
    assert np.array_equal(zs, reference_z_operator(dense.L, curve, -0.1, dense.params))


def test_integrate_callable_failure_keeps_the_last_good_prefix():
    def field(p):   # q' = v, v' = 1, z' = 0, undefined beyond q = 1.2
        if p.q[0] > 1.2:
            raise ValueError("left the chart")
        return np.array([p.v[0], 1.0, 0.0])

    with pytest.raises(IntegrationError) as err:
        integrate(field, pt(1.0, 0.5, 0.0), 2.0, 0.1)
    assert str(err.value) == ("field evaluation failed in the step from t = "
                              "0.30000000000000004 to t = 0.4: left the chart"
                              " (last good t = 0.30000000000000004)")
    partial = err.value.partial
    assert partial.times.tolist() == [0.0, 0.1, 0.2, 0.30000000000000004]
    assert partial.q[:, 0] == pytest.approx(1.0 + 0.5 * partial.times + 0.5 * partial.times ** 2)
    assert partial.v[:, 0] == pytest.approx(0.5 + partial.times)
    assert partial.z.tolist() == [0.0] * 4


def test_integrate_callable_with_too_few_components_fails():
    with pytest.raises(IntegrationError, match=r"^field evaluation failed in the step "
                                               r"from t = 0\.0 to t = 0\.1: ") as err:
        integrate(lambda p: np.array([p.v[0], 1.0]), pt(1.0, 0.5, 0.0), 1.0, 0.1)
    assert err.value.partial.times.tolist() == [0.0]


def test_integrate_matches_numpy_rk4_on_a_large_body():
    # the dense family at n = 5 renders a rate body of about 540 statements
    dense = dense_lagrangian(5)
    field = herglotz_field(dense)
    p0 = pt([0.1, -0.2, 0.3, 0.0, 0.2], [0.5, 0.0, -0.4, 0.1, 0.3], 0.2)
    traj = integrate(field, p0, 0.2, 0.01, dense.params)
    times, states = reference_integrate(field, p0, 0.2, 0.01, dense.params)
    assert len(times) == 21
    assert np.array_equal(traj.times, times)
    assert np.array_equal(np.column_stack([traj.q, traj.v, traj.z]), states)


def reference_failure(field, p0, t_end, dt, params=None):
    """reference_integrate up to its first DomainError: the times and states
    before it, the time its step would end at, the failing stage and the error."""
    fn = compile_components(field.components, p0.n, params)
    steps = max(1, math.ceil(t_end / dt - 1e-9))
    times, states, y = [0.0], [p0.coords()], p0.coords()
    for k in range(1, steps + 1):
        t, h = (k * dt, dt) if k < steps else (t_end, t_end - (steps - 1) * dt)
        ks = []
        try:
            for c in (0.0, 0.5, 0.5, 1.0):
                ks.append(np.asarray(fn(y + c * h * ks[-1] if ks else y)))
        except DomainError as exc:
            return np.asarray(times), np.asarray(states), t, len(ks) + 1, exc
        k1, k2, k3, k4 = ks
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        times.append(t)
        states.append(y)
    raise AssertionError("the reference integrates without failing")


@pytest.mark.parametrize("q0, stage", [(0.5, 2), (0.551, 3), (0.5525, 4)])
def test_integrate_failure_at_a_late_stage_matches_the_reference(q0, stage):
    """q1 falls through zero in step 25, where log(q1) first fails at the
    given stage; the run ends with the reference's error and prefix."""
    field = CoordVectorField(1, (parse("v1", 1), Const(-1.0), log(q(1))))
    p0 = pt(q0, 1.0, 0.0)
    times, states, t, failing, cause = reference_failure(field, p0, 5.0, 0.1)
    assert (len(times), failing) == (25, stage)
    with pytest.raises(IntegrationError) as err:
        integrate(field, p0, 5.0, 0.1)
    assert str(err.value) == (f"field evaluation failed in the step from t = "
                              f"{float(times[-1])!r} to t = {t}: {cause} "
                              f"(last good t = {float(times[-1])!r})")
    assert type(err.value.__cause__) is DomainError
    assert str(err.value.__cause__) == str(cause) == "log of non-positive value in log(q1)"
    partial = err.value.partial
    assert np.array_equal(partial.times, times)
    assert np.array_equal(np.column_stack([partial.q, partial.v, partial.z]), states)


def reference_z_failure(L, curve, z0, params=None):
    """reference_z_operator up to its first DomainError: the failing step
    (1-based), its stage, the error and the stage's inputs (row, then z)."""
    fn = compile_components([L], curve.n, params)
    rows = np.hstack([curve.q, curve.velocities()])
    t, zc = curve.times, float(z0)
    for k in range(len(t) - 1):
        h, mid = t[k + 1] - t[k], 0.5 * (rows[k] + rows[k + 1])
        ks = []
        try:
            for c, row in zip((0.0, 0.5, 0.5, 1.0), (rows[k], mid, mid, rows[k + 1])):
                y = [*row.tolist(), zc + c * h * ks[-1] if ks else zc]
                ks.append(fn(y)[0])
        except DomainError as exc:
            return k + 1, len(ks) + 1, exc, y
        zc += (h / 6.0) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])
    raise AssertionError("the reference integrates without failing")


@pytest.mark.parametrize("z0, stage", [(0.3245, 2), (0.3365, 3), (0.341, 4)])
def test_z_operator_failure_at_a_late_stage_matches_the_reference(z0, stage):
    """z falls through zero in step 8 of 40, where log(z) first fails at the
    given stage; z_operator and the stationarity probe raise its error."""
    t = np.linspace(0.0, 1.0, 41)
    curve = SampledCurve(t, np.column_stack([t * t]))
    L = parse("log(z) - v1^2", 1)
    step, failing, cause, _ = reference_z_failure(L, curve, z0)
    assert (step, failing) == (8, stage)
    assert str(cause) == "log of non-positive value in log(z)"
    with pytest.raises(DomainError, match=rf"^{re.escape(str(cause))}$") as err:
        z_operator(L, curve, z0)
    assert err.value.__cause__ is None and err.value.__suppress_context__
    with pytest.raises(DomainError, match=rf"^{re.escape(str(cause))}$"):
        stationarity_test(L, curve, z0)


@pytest.mark.parametrize("qs, step, stage", [
    ([0.2, 0.5, 0.8, 1.0, 1.2, 1.5], 1, 1),
    ([1.0, 0.8, 0.6, -0.2, -1.0, -2.0], 3, 2),
    ([1.0, 0.8, 0.6, 0.0, -1.0, -2.0], 3, 4),
], ids=["rows[0]", "midpoint", "next row"])
def test_z_operator_failure_on_a_row_only_node_matches_the_reference(qs, step, stage,
                                                                     monkeypatch):
    """log(q1 - c) reads no z: the action loop computes it for rows[0] before
    the first step and then only at stages 2 and 4, where the row moves.  Its
    failure still ends the loop at the reference's step and stage, and the
    tape replays that stage's inputs."""
    t = np.linspace(0.0, 1.0, len(qs))
    curve = SampledCurve(t, np.array(qs)[:, None])
    L, params = parse("log(q1 - c) - v1^2 + z", 1), {"c": 0.25}
    body, _, _, row_only = dynamics.render([L], 1, params)
    assert (len(body), row_only) == (5, 4)   # only the last, the sum with z, reads z
    failing_step, failing, cause, inputs = reference_z_failure(L, curve, 0.5, params)
    assert (failing_step, failing) == (step, stage)
    assert str(cause) == "log of non-positive value in log(q1 - c)"
    replayed, render = [], dynamics.render

    def recording_render(*args):
        body, results, env, row_only = render(*args)
        env["tape"] = lambda y, tape=env["tape"]: replayed.append(y) or tape(y)
        return body, results, env, row_only

    monkeypatch.setattr(dynamics, "render", recording_render)
    with pytest.raises(DomainError, match=rf"^{re.escape(str(cause))}$"):
        z_operator(L, curve, 0.5, params)
    with pytest.raises(DomainError, match=rf"^{re.escape(str(cause))}$"):
        stationarity_test(L, curve, 0.5, params=params)
    assert replayed == [inputs, inputs]


@pytest.mark.parametrize("q0, stage", [(0.75, 2), (0.801, 3), (0.81, 4)])
def test_integrate_failure_inside_a_component_names_the_node(q0, stage):
    """The failing node is a subtree of a larger rate component and reads a
    parameter frozen when the loop was rendered: the tape that explains the
    failing stage names that node and was lowered with that value."""
    field = CoordVectorField(1, (parse("v1", 1), Const(-1.0), parse("0.5*z + log(q1 - c)", 1)))
    p0, params = pt(q0, 1.0, 0.0), {"c": 0.25}
    times, states, t, failing, cause = reference_failure(field, p0, 5.0, 0.1, params)
    assert (len(times), failing) == (25, stage)
    with pytest.raises(IntegrationError) as err:
        integrate(field, p0, 5.0, 0.1, params)
    assert str(err.value.__cause__) == str(cause) == "log of non-positive value in log(q1 - c)"
    assert err.value.__cause__.__cause__ is None and err.value.__cause__.__suppress_context__
    assert str(err.value) == (f"field evaluation failed in the step from t = "
                              f"{float(times[-1])!r} to t = {t}: {cause} "
                              f"(last good t = {float(times[-1])!r})")
    partial = err.value.partial
    assert np.array_equal(np.column_stack([partial.q, partial.v, partial.z]), states)


@pytest.mark.parametrize("q_next, stage", [(-0.3, 2), (-0.05, 4)])
def test_z_operator_failure_on_the_curve_row_reaches_the_tape(q_next, stage):
    """log(q1 - c) fails on the curve row of step 3, not on z: at its
    midpoint (stage 2) or at its end (stage 4).  The row inputs of the
    failing stage reach the tape, which raises the node's DomainError."""
    t = np.linspace(0.0, 1.0, 6)
    curve = SampledCurve(t, np.array([[1.0], [0.5], [0.1], [q_next], [-1.0], [-2.0]]))
    L, params = parse("log(q1 - c) + z", 1), {"c": 0.0}
    step, failing, cause, _ = reference_z_failure(L, curve, 0.0, params)
    assert (step, failing) == (3, stage)
    assert str(cause) == "log of non-positive value in log(q1 - c)"
    with pytest.raises(DomainError, match=rf"^{re.escape(str(cause))}$") as err:
        z_operator(L, curve, 0.0, params)
    assert err.value.__cause__ is None and err.value.__suppress_context__


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


def test_stationarity_compiles_the_lagrangian_once(monkeypatch):
    # one RK4 loop is rendered around L and serves every probe curve
    para = REG["parachute"]()
    traj = integrate(herglotz_field(para), pt(0.0, 2.0, 0.0), 1.0, 1.0 / 99, para.params)
    curve, z0, amp = trajectory_to_curve(traj), 0.3, 1e-4
    rendered, loop = [], dynamics._rk4_loop
    monkeypatch.setattr(dynamics, "_rk4_loop", lambda *args: rendered.append(
        args) or loop(*args))
    report = stationarity_test(para.L, curve, z0, 8, amp, 1e-3, para.params)
    assert len(rendered) == 1
    monkeypatch.undo()
    # the report is the one action() per probe curve gives
    t, base_v = curve.times, curve.velocities()
    assert report.diagnostics[0] == f"action = {action(para.L, curve, z0, para.params)!r}"
    for j in range(1, 9):
        bump, rate = np.sin(j * math.pi * t)[:, None], j * math.pi * np.cos(j * math.pi * t)
        plus = SampledCurve(t, curve.q + amp * bump, base_v + amp * rate[:, None])
        minus = SampledCurve(t, curve.q - amp * bump, base_v - amp * rate[:, None])
        d = (action(para.L, plus, z0, para.params)
             - action(para.L, minus, z0, para.params)) / (2.0 * amp)
        assert report.diagnostics[1 + j] == f"D[j={j},q1] = {d!r}"


def rendered_loop(monkeypatch, run):
    """The function definition of the one RK4 loop ``run`` renders."""
    sources = []
    monkeypatch.setattr(dynamics, "compile", lambda source, *args: sources.append(
        source) or compile(source, *args), raising=False)
    run()
    monkeypatch.undo()
    [source] = sources
    return ast.parse(source).body[0]


def rate_statements(block):
    """The rate statements ``t<k> = ...`` of a block, nested blocks left out."""
    return [node for node in block if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name) and node.targets[0].id[0] == "t"]


def names_read(statement):
    return {node.id for node in ast.walk(statement.value) if isinstance(node, ast.Name)}


def stage_loop(loop):
    """The rate statements before a loop's first step, and its stage loop."""
    [body] = [node for node in loop.body if isinstance(node, ast.Try)]
    [step] = [node for node in body.body if isinstance(node, ast.For)]
    [stage] = [node for node in step.body if isinstance(node, ast.For)]
    return rate_statements(body.body), stage


def test_rendered_stage_loops_run_what_changes_there(monkeypatch):
    """Parachute's rate statements, pinned: 21 in its field loop (30 before
    parameter-only instructions folded at lowering), and in its action loop
    the 10 of L (19 before), 8 of which read no z and run only before the
    first step and under the stage-2/stage-4 branch.  No statement in a
    stage loop is a constant leaf or reads no coordinate."""
    para = REG["parachute"]()
    t = np.linspace(0.0, 1.0, 11)
    curve = SampledCurve(t, np.column_stack([t * t]))
    field_loop = rendered_loop(monkeypatch, lambda: integrate(
        herglotz_field(para), pt(0.0, 2.0, 0.0), 0.1, 0.01, para.params))
    action_loop = rendered_loop(monkeypatch, lambda: z_operator(para.L, curve, 0.0,
                                                                para.params))
    for loop in (field_loop, action_loop):
        _, stage = stage_loop(loop)
        for block in [node for node in ast.walk(stage) if hasattr(node, "body")]:
            for statement in rate_statements(block.body):
                assert not isinstance(statement.value, ast.Constant), ast.unparse(statement)
                assert any(name[0] in "xt" for name in names_read(statement)), \
                    ast.unparse(statement)
    prelude, stage = stage_loop(field_loop)
    assert (len(prelude), len(rate_statements(stage.body))) == (0, 21)
    assert isinstance(stage.body[0], ast.Assign)   # no branch: every statement reads y
    prelude, stage = stage_loop(action_loop)
    branch = stage.body[0]
    assert ast.unparse(branch.test) == "s == 2 or s == 4"
    moved, every_stage = rate_statements(branch.body), rate_statements(stage.body)
    assert list(map(ast.unparse, moved)) == list(map(ast.unparse, prelude))
    assert (len(prelude), len(every_stage)) == (8, 2)
    reads_z = {"x2"}
    for statement in prelude:
        assert not names_read(statement) & reads_z, ast.unparse(statement)
    for statement in every_stage:
        assert names_read(statement) & reads_z, ast.unparse(statement)
        reads_z.add(statement.targets[0].id)


def test_damped_solution_is_stationary():
    drag = REG["linear_drag"]()
    traj = integrate(herglotz_field(drag), pt(0.0, 2.0, 0.0), 1.0, 1.0 / 199,
                     drag.params)
    report = stationarity_test(drag.L, trajectory_to_curve(traj), 0.0,
                               8, 1e-4, 1e-3, drag.params)
    assert report.passed


NAN_PARAMS = {"k": 0.0, "M": 1.7976931348623157e308}


def test_stationarity_with_nan_derivatives_is_an_error():
    """k*(M*q1) is 0 on the curve, whose |q1| <= 1, but 0*inf = NaN on the
    odd bumps that push q1 past 1: those D_j are NaN, which is no pass."""
    L = parse("0.5*v1^2 - 0.5*(3.141592653589793^2)*q1^2 + k*(M*q1)", 1)
    t = np.linspace(0.0, 1.0, 1001)
    report = stationarity_test(L, SampledCurve(t, np.sin(np.pi * t)[:, None]), 0.0,
                               params=NAN_PARAMS)
    assert report.verdict == "error" and math.isnan(report.max_residual)
    assert report.diagnostics[0] == "non-finite directional derivative D[j=1,q1] = nan"
    assert "D[j=1,q1] = nan" in report.diagnostics and "D[j=3,q1] = nan" in report.diagnostics


def test_stationarity_with_an_overflowing_bound_is_an_error():
    """The action is finite but stat_tol * (1 + |action|) is not: no
    tolerances can be made from it, so the report is an error naming it."""
    L = parse("1e306 + 0.5*v1^2", 1)
    t = np.linspace(0.0, 1.0, 101)
    curve = SampledCurve(t, np.sin(np.pi * t)[:, None])
    report = stationarity_test(L, curve, 0.0, stat_tol=1e3)
    assert report.verdict == "error" and math.isnan(report.max_residual)
    assert report.diagnostics == ["non-finite stationarity bound = inf",
                                  f"action = {action(L, curve, 0.0)!r}",
                                  "stationarity bound = inf"]
    assert report.tolerances == Tolerances()


def test_stationarity_with_an_overflowing_fail_bound_is_an_error():
    """The bound is finite but ten times it, the fail tolerance, is not:
    the report is an error naming it, not a pass with fail_tol = inf."""
    L = parse("0.5*v1^2", 1)
    t = np.linspace(0.0, 1.0, 101)
    curve = SampledCurve(t, np.sin(np.pi * t)[:, None])
    a0 = action(L, curve, 0.0)
    bound = 5e307 * (1.0 + abs(a0))
    assert math.isfinite(bound) and not math.isfinite(10.0 * bound)
    report = stationarity_test(L, curve, 0.0, stat_tol=5e307)
    assert report.verdict == "error" and math.isnan(report.max_residual)
    assert report.diagnostics == ["non-finite fail bound = inf", f"action = {a0!r}",
                                  f"stationarity bound = {bound!r}"]
    assert report.tolerances == Tolerances()


def test_stationarity_with_a_nan_action_is_an_error():
    L = parse("0.5*v1^2 + k*(M*q1)", 1)
    t = np.linspace(0.0, 1.0, 101)
    report = stationarity_test(L, SampledCurve(t, 2.0 * np.sin(np.pi * t)[:, None]), 0.0,
                               params=NAN_PARAMS)
    assert report.verdict == "error" and math.isnan(report.max_residual)
    assert report.diagnostics == ["non-finite action = nan"]


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


def test_a_nan_time_is_not_increasing():
    with pytest.raises(ValueError, match="increasing"):
        SampledCurve([0.0, math.nan, 1.0], np.zeros((3, 1)))
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(np.array([0.0, math.nan, 1.0]), np.zeros((3, 1)), np.zeros((3, 1)),
                   np.zeros(3))
