import os
import subprocess
import textwrap
from pathlib import Path
from sys import executable, modules

import numpy as np
import pytest

from herglotz import contact, equivalence
from herglotz.checks import CONTACT_TOL, SamplePlan, sample_states
from herglotz.contact import (
    ContactConditionError, ContactHamiltonianSystem, CoordOneForm,
    CoordVectorField, conformal_factor, contact_condition, darboux_form,
    exterior_derivative, hamiltonian_field, hamiltonian_fields, lie_derivative_form,
    reeb_field,
)
from herglotz.equivalence import dynamical_equivalence_check
from herglotz.expr import (
    Const, DomainError, Param, evaluate, evaluate_all, gradient, mul, parse, q,
    substitute, v,
)
from herglotz.fixtures import builtin_systems
from herglotz.lagrangian import (
    ContactLagrangianSystem, as_hamiltonian, energy, herglotz_field,
    lagrangian_form,
)

from conftest import dense_lagrangian, pt, random_points, random_regular_lagrangian


def darboux_system(h_text, n=1, params=None):
    return ContactHamiltonianSystem(n, darboux_form(n), parse(h_text, n),
                                    params or {})


# ---------------------------------------------------------------------------
# Exterior derivative


def test_exterior_derivative_darboux():
    # d(dz - v1 dq1) = dq1 ^ dv1, so M[q1][v1] = 1 and the z rows vanish
    m = exterior_derivative(darboux_form(1), pt(0.3, -0.7, 0.2))
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(m, expected)


def test_exterior_derivative_closed_and_exact_forms():
    dz_form = CoordOneForm(1, (Const(0.0), Const(0.0), Const(1.0)))
    np.testing.assert_array_equal(
        exterior_derivative(dz_form, pt(1.0, 2.0, 3.0)), np.zeros((3, 3)))
    q_dq = CoordOneForm(1, (q(1), Const(0.0), Const(0.0)))
    np.testing.assert_array_equal(
        exterior_derivative(q_dq, pt(1.0, 2.0, 3.0)), np.zeros((3, 3)))


def test_exterior_derivative_matches_finite_differences(rng):
    alpha = CoordOneForm(1, (parse("sin(v1)*z", 1), parse("q1^2", 1),
                             parse("q1*v1", 1)))
    p = pt(0.4, -0.3, 0.8)
    m = exterior_derivative(alpha, p)
    assert np.max(np.abs(m + m.T)) == 0.0  # antisymmetric exactly
    h = 1e-6
    for a in range(3):
        for b in range(3):
            up, dn = p.coords(), p.coords()
            up[a] += h
            dn[a] -= h
            fd = (alpha.values(pt(up[0], up[1], up[2]))[b]
                  - alpha.values(pt(dn[0], dn[1], dn[2]))[b]) / (2 * h)
            up, dn = p.coords(), p.coords()
            up[b] += h
            dn[b] -= h
            fd -= (alpha.values(pt(up[0], up[1], up[2]))[a]
                   - alpha.values(pt(dn[0], dn[1], dn[2]))[a]) / (2 * h)
            assert m[a, b] == pytest.approx(fd, abs=1e-8)


# ---------------------------------------------------------------------------
# Reeb field


def test_reeb_darboux():
    sys = darboux_system("z")
    for point in (pt(0.0, 0.0, 0.0), pt(1.0, -2.0, 0.5)):
        np.testing.assert_allclose(reeb_field(sys, point), [0.0, 0.0, 1.0],
                                   atol=1e-12)


def test_reeb_scaling():
    eta = CoordOneForm(1, (parse("-v1", 1), Const(0.0), Const(2.0)))
    sys = ContactHamiltonianSystem(1, eta, parse("z", 1))
    np.testing.assert_allclose(reeb_field(sys, pt(0.5, 1.5, 0.0)),
                               [0.0, 0.0, 0.5], atol=1e-12)


def test_reeb_of_lagrangian_form_matches_linear_solve_oracle():
    sys = ContactLagrangianSystem(1, parse("0.5*v1^2 - gam*z", 1), {"gam": 0.1})
    ham = as_hamiltonian(sys)
    p = pt(0.7, 1.1, -0.4)
    reeb = reeb_field(ham, p)
    np.testing.assert_allclose(reeb, [0.0, 0.0, 1.0], atol=1e-12)
    # independent oracle: stack d(eta) rows and the eta row with numpy only
    deta = exterior_derivative(ham.eta, p, ham.params)
    eta_p = ham.eta.values(p, ham.params)
    matrix = np.vstack([deta.T, eta_p])
    oracle, *_ = np.linalg.lstsq(matrix, np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)
    np.testing.assert_allclose(reeb, oracle, atol=1e-12)


def test_reeb_rejects_non_contact_form():
    eta = CoordOneForm(1, (Const(0.0), Const(0.0), Const(1.0)))  # dz alone
    sys = ContactHamiltonianSystem(1, eta, parse("z", 1))
    ok, _ = contact_condition(sys, pt(0.0, 0.0, 0.0))
    assert not ok
    with pytest.raises(ContactConditionError):
        reeb_field(sys, pt(0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Hamiltonian field


def test_hamiltonian_field_constant_hamiltonian_gives_reeb():
    sys = darboux_system("-1")
    for point in (pt(0.0, 0.0, 0.0), pt(0.3, -1.0, 2.0)):
        np.testing.assert_allclose(hamiltonian_field(sys, point), [0.0, 0.0, 1.0],
                                   atol=1e-12)


def test_hamiltonian_field_saddle_point_value():
    sys = darboux_system("q1*v1 + z")
    np.testing.assert_allclose(hamiltonian_field(sys, pt(1.0, 1.0, 1.0)),
                               [1.0, -2.0, -1.0], atol=1e-12)


def test_hamiltonian_field_flipped_pair_equal():
    sys = darboux_system("q1*v1 + z")
    eta_bar = CoordOneForm(1, (v(1), Const(0.0), Const(1.0)))
    sys_bar = ContactHamiltonianSystem(1, eta_bar, parse("z - q1*v1", 1))
    p = pt(1.0, 1.0, 1.0)
    np.testing.assert_allclose(hamiltonian_field(sys_bar, p),
                               hamiltonian_field(sys, p), atol=1e-12)


def test_hamiltonian_field_matches_darboux_coordinate_formula(rng):
    # In Darboux coordinates the solver output agrees with
    # (dH/dp, -(dH/dq + p dH/dz), p dH/dp - H); the q-slot carries dH/dp.
    sys = darboux_system("0.5*v1^2 + sin(q1) + 0.2*z*q1")
    for point in random_points(rng, 1, 20):
        x = hamiltonian_field(sys, point)
        grads = [evaluate(g, point) for g in gradient(sys.H, 1)]
        h = evaluate(sys.H, point)
        dq, dp, dz = grads
        p_val = point.v[0]
        expected = [dp, -(dq + p_val * dz), p_val * dp - h]
        np.testing.assert_allclose(x, expected, atol=1e-10)


def test_intrinsic_contract_on_lagrangian_systems(rng):
    # eta(X_H) = -H and L_X eta = -(RH) eta, via the symbolic Herglotz field
    for n in (1, 2):
        sys = random_regular_lagrangian(rng, n)
        ham = as_hamiltonian(sys)
        xi = herglotz_field(sys)
        e_l = energy(sys)
        for point in random_points(rng, n, 25):
            eta_p = ham.eta.values(point, ham.params)
            xi_p = xi.values(point, sys.params)
            h_val = evaluate(e_l, point, sys.params)
            assert abs(eta_p @ xi_p + h_val) <= 1e-8
            reeb = reeb_field(ham, point)
            rh = reeb @ np.array([evaluate(g, point, sys.params)
                                  for g in gradient(e_l, n)])
            lie = lie_derivative_form(ham.eta, xi, point, sys.params)
            assert np.max(np.abs(lie + rh * eta_p)) <= 1e-8


def test_conformal_rescale_leaves_field_invariant(rng):
    base = darboux_system("0.5*v1^2 + q1^2 + z")
    factor = parse("2 + sin(q1)", 1)
    eta_scaled = CoordOneForm(1, tuple(factor * c for c in base.eta.components))
    scaled = ContactHamiltonianSystem(1, eta_scaled, factor * base.H)
    for point in random_points(rng, 1, 25):
        np.testing.assert_allclose(hamiltonian_field(scaled, point),
                                   hamiltonian_field(base, point), atol=1e-8)


# ---------------------------------------------------------------------------
# Conformal factor


def test_conformal_factor_of_herglotz_field():
    sys = ContactLagrangianSystem(1, parse("0.5*v1^2 - gam*z", 1), {"gam": 0.1})
    g, residual = conformal_factor(lagrangian_form(sys), herglotz_field(sys),
                                   pt(0.2, 1.4, -0.3), sys.params)
    assert g == pytest.approx(-0.1, abs=1e-12)
    assert residual <= 1e-10


def test_conformal_factor_reeb_and_constant_fields():
    reeb = CoordVectorField(1, (Const(0.0), Const(0.0), Const(1.0)))
    g, residual = conformal_factor(darboux_form(1), reeb, pt(0.5, -0.5, 0.1))
    assert g == 0.0 and residual == 0.0
    dq_field = CoordVectorField(1, (Const(1.0), Const(0.0), Const(0.0)))
    g, residual = conformal_factor(darboux_form(1), dq_field, pt(0.5, -0.5, 0.1))
    assert g == 0.0 and residual == 0.0


def test_conformal_factor_zero_covector():
    zero_form = CoordOneForm(1, (Const(0.0), Const(0.0), Const(0.0)))
    field = CoordVectorField(1, (Const(1.0), Const(0.0), Const(0.0)))
    from herglotz.contact import ZeroCovectorError
    with pytest.raises(ZeroCovectorError):
        conformal_factor(zero_form, field, pt(0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Compiled contact data against the tree walk


def walk_reference(sys, p):
    """(hamiltonian_field, reeb_field, contact_condition) at p from tree
    walks of the contact data, with the numpy calls of the contact module:
    the singular value gate on the stacked system, then one solve of the
    flat map M^T + eta eta^T on the columns (eta, dH) (its residual checks
    only raise, so they are left out)."""
    deta = exterior_derivative(sys.eta, p, sys.params)
    eta_p = np.array(evaluate_all(sys.eta.components, p, sys.params))
    matrix = np.vstack([deta.T, eta_p])
    svals = np.linalg.svd(matrix, compute_uv=False)
    ratio = svals[-1] / svals[0] if svals[0] > 0 else 0.0
    flat = matrix[:-1] + np.outer(eta_p, eta_p)
    *grad_h, h_val = evaluate_all((*gradient(sys.H, sys.n_dim), sys.H), p, sys.params)
    grad_h = np.array(grad_h)
    reeb, y = np.linalg.solve(flat, np.column_stack([eta_p, grad_h])).T
    rh = float(reeb @ grad_h)
    x = y - (rh + h_val) * reeb
    return x, np.linalg.solve(flat, eta_p), (ratio > CONTACT_TOL, ratio)


def rescaled(ham):
    factor = parse("exp(0.1*q1)", ham.n_dim)
    eta = CoordOneForm(ham.n_dim, tuple(mul(factor, c) for c in ham.eta.components))
    return ContactHamiltonianSystem(ham.n_dim, eta, mul(factor, ham.H), dict(ham.params))


def compiled_cases():
    hams = [make() for make in builtin_systems().values()]
    cases = [s for s in hams if isinstance(s, ContactHamiltonianSystem)]
    for n in range(1, 5):
        ham = as_hamiltonian(dense_lagrangian(n))
        cases += [ham, rescaled(ham)]
    return cases


def test_compiled_contact_data_equals_the_walk(rng):
    for sys in compiled_cases():
        for p in random_points(rng, sys.n_dim, 20):
            x, reeb, condition = walk_reference(sys, p)
            np.testing.assert_array_equal(hamiltonian_field(sys, p), x)
            np.testing.assert_array_equal(reeb_field(sys, p), reeb)
            assert contact_condition(sys, p) == condition


def _domain_error_text(run):
    with pytest.raises(DomainError) as info:
        run()
    return str(info.value)


@pytest.mark.parametrize("eta, h_text, pole", [
    # the form's Jacobian divides by q1; H takes the log of q1
    (CoordOneForm(1, (parse("-v1/q1", 1), Const(0.0), parse("1/q1", 1))), "v1^2",
     pt(0.0, 0.5, 0.2)),
    (darboux_form(1), "0.5*v1^2 + log(q1)", pt(-0.5, 0.5, 0.2)),
])
def test_compiled_contact_data_fails_like_the_walk(eta, h_text, pole):
    sys = ContactHamiltonianSystem(1, eta, parse(h_text, 1), {})
    expected = _domain_error_text(lambda: walk_reference(sys, pole))
    assert _domain_error_text(lambda: hamiltonian_field(sys, pole)) == expected


def test_contact_condition_raises_the_form_tapes_domain_error_at_a_pole():
    eta = CoordOneForm(1, (parse("-v1/q1", 1), Const(0.0), parse("1/q1", 1)))
    sys = ContactHamiltonianSystem(1, eta, parse("v1^2", 1), {})
    with pytest.raises(DomainError, match="division by zero"):
        contact_condition(sys, pt(0.0, 0.5, 0.2))


def test_contact_data_compiles_once_per_system(monkeypatch, rng):
    # the contact data is lowered to two tapes per system, and nothing on the
    # dynamical check renders a compiled program
    lowered, compiled = [], []
    tape = contact.tape
    monkeypatch.setattr(contact, "tape", lambda *args: lowered.append(args) or tape(*args))
    for module in [m for name, m in modules.items() if name.startswith("herglotz")]:
        for renderer in ("compile_components", "render", "_rk4_loop"):
            if hasattr(module, renderer):
                monkeypatch.setattr(module, renderer, lambda *args: compiled.append(args))
    ham = as_hamiltonian(dense_lagrangian(2))
    for p in random_points(rng, 2, 50):
        hamiltonian_field(ham, p)
    assert len(lowered) == 2
    # one stacked gate and one stacked solve per system, or per chunk of
    # STACK_DOUBLES doubles (30 a point at n = 2), never one per point
    calls = []
    for name in ("svd", "solve"):
        run = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, run=run, name=name, **k:
                            calls.append(name) or run(*a, **k))
    scaled = rescaled(ham)
    for budget, chunks in ((contact.STACK_DOUBLES, 1), (300, 5)):
        monkeypatch.setattr(contact, "STACK_DOUBLES", budget)
        del calls[:]
        report = dynamical_equivalence_check(ham, scaled, SamplePlan(count=50, seed=3))
        assert report.verdict == "pass" and len(report.records) == 50
        assert sorted(calls) == ["solve"] * 2 * chunks + ["svd"] * 2 * chunks
    assert len(lowered) == 4 and compiled == []


# ---------------------------------------------------------------------------
# The flat-map solve against a least-squares oracle, its gate and its failures


def lstsq_reference(sys, p):
    """(hamiltonian_field, reeb_field) at p by numpy least squares on the
    stacked defining equations, independent of the contact module's solve."""
    deta = exterior_derivative(sys.eta, p, sys.params)
    eta_p = sys.eta.values(p, sys.params)
    matrix = np.vstack([deta.T, eta_p])
    unit = np.zeros(len(matrix))
    unit[-1] = 1.0
    reeb, *_ = np.linalg.lstsq(matrix, unit, rcond=None)
    *grad_h, h_val = evaluate_all((*gradient(sys.H, sys.n_dim), sys.H), p, sys.params)
    rh = float(reeb @ np.array(grad_h))
    x, *_ = np.linalg.lstsq(matrix, np.append(np.array(grad_h) - rh * eta_p, -h_val),
                            rcond=None)
    return x, reeb


def test_flat_solve_matches_the_least_squares_oracle(rng):
    cases = compiled_cases()
    ham = as_hamiltonian(dense_lagrangian(5))
    for sys in cases + [ham, rescaled(ham)]:
        for p in random_points(rng, sys.n_dim, 10):
            x, reeb = lstsq_reference(sys, p)
            for got, want in ((hamiltonian_field(sys, p), x), (reeb_field(sys, p), reeb)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def crossing_family(s):
    """eta = dz - s v1 dq1: its singular value ratio is about s."""
    eta = CoordOneForm(1, (parse("-s*v1", 1), Const(0.0), Const(1.0)))
    return ContactHamiltonianSystem(1, eta, parse("v1*q1 - z^2", 1), {"s": s})


def gate_cases(rng):
    dz_only = ContactHamiltonianSystem(
        1, CoordOneForm(1, (Const(0.0), Const(0.0), Const(1.0))), parse("z", 1))
    fixtures = [make() for make in builtin_systems().values()]
    systems = [s for s in fixtures if isinstance(s, ContactHamiltonianSystem)]
    systems += [dz_only] + [crossing_family(10.0 ** k) for k in np.linspace(-12, -8, 21)]
    return [(sys, p) for sys in systems for p in random_points(rng, sys.n_dim, 5)]


def test_solvers_raise_exactly_where_the_contact_condition_fails(rng):
    cases = gate_cases(rng)
    ratios = [contact_condition(sys, p)[1] for sys, p in cases]
    assert min(ratios) <= CONTACT_TOL < max(r for r in ratios if r < 1e-8)
    for sys, p in cases:
        contact_ok, _ = contact_condition(sys, p)
        for solver in (reeb_field, hamiltonian_field):
            try:
                solver(sys, p)
            except ContactConditionError:
                assert not contact_ok, (solver.__name__, sys.params, p)
            else:
                assert contact_ok, (solver.__name__, sys.params, p)


def test_flat_solve_matches_the_crossing_family_in_closed_form(rng):
    # with p = s v1 the form is Darboux, so X follows from the coordinate formula
    for k in (-9.5, -9.0, -6.0, 0.0):
        s = 10.0 ** k
        for point in random_points(rng, 1, 10):
            (q1,), (v1,), z1 = point.q, point.v, point.z
            dh_dp, dh_dq, dh_dz, h = q1 / s, v1, -2.0 * z1, v1 * q1 - z1 * z1
            expected = np.array([dh_dp, -(dh_dq + s * v1 * dh_dz) / s,
                                 s * v1 * dh_dp - h])
            x = hamiltonian_field(crossing_family(s), point)
            assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_a_singular_flat_map_is_a_contact_condition_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    sys = darboux_system("q1*v1 + z")
    for solver in (reeb_field, hamiltonian_field):
        with pytest.raises(ContactConditionError, match="flat map is singular"):
            solver(sys, pt(1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# The stacked solve: per point, what the one-point path gives


def _outcome(run):
    """run()'s value, or the type and text of the exception it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def test_stacked_fields_equal_the_one_point_path(rng):
    ham = as_hamiltonian(dense_lagrangian(5))
    gate_systems = {id(sys): sys for sys, _ in gate_cases(rng)}
    errors = 0
    for sys in compiled_cases() + [ham, rescaled(ham)] + list(gate_systems.values()):
        rest = random_points(rng, sys.n_dim, 50)
        while rest:     # the fields end at the first error; go on after it
            got, error = hamiltonian_fields(sys, rest)
            assert got.shape == (len(got), 2 * sys.n_dim + 1)
            for p, x in zip(rest, got):
                np.testing.assert_array_equal(x, walk_reference(sys, p)[0])
            if error is not None:
                errors += 1
                assert (type(error), str(error)) == \
                    _outcome(lambda: hamiltonian_field(sys, rest[len(got)]))
            else:
                assert len(got) == len(rest)
            rest = rest[len(got) + 1:]
    assert errors > 0


def test_a_sample_failing_everywhere_keeps_one_error_per_system(monkeypatch):
    sys = crossing_family(1e-11)
    points = sample_states(SamplePlan(count=200, seed=2), 1)
    fields, error = hamiltonian_fields(sys, points)
    assert fields.shape == (0, 3) and isinstance(error, ContactConditionError)
    solved = []
    fields = contact.hamiltonian_fields
    monkeypatch.setattr(equivalence, "hamiltonian_fields",
                        lambda s, pts: solved.append(len(pts)) or fields(s, pts))
    report = dynamical_equivalence_check(sys, sys, SamplePlan(count=200, seed=2))
    # b is solved only over a's solved points, none here
    assert report.verdict == "error" and solved == [200, 0]


def _marked_family(gate_at, pole_at):
    """A system over a seeded 8-point sample whose contact form degenerates
    (ratio 0) exactly at point ``gate_at`` and whose H divides by zero
    exactly at point ``pole_at``; both are finite and regular elsewhere."""
    plan = SamplePlan(count=8, seed=11)
    points = sample_states(plan, 1)
    eta = CoordOneForm(1, (parse("-(q1 - c_gate)*v1", 1), Const(0.0), Const(1.0)))
    h = parse("v1*q1 - z^2 + 1/(q1 - c_pole)", 1)
    params = {"c_gate": points[gate_at].q[0], "c_pole": points[pole_at].q[0]}
    return ContactHamiltonianSystem(1, eta, h, params), plan, points


@pytest.mark.parametrize("pole_at", [6, 3])
def test_a_stored_solver_error_ends_the_check_at_its_point(pole_at):
    # the gate comes before H is evaluated, at a point as in the sample
    sys, plan, points = _marked_family(gate_at=3, pole_at=pole_at)
    report = dynamical_equivalence_check(sys, sys, plan)
    assert report.verdict == "error"
    assert [str(rec.point) for rec in report.records] == [str(p) for p in points[:3]]
    assert report.diagnostics == [
        f"solver failure at {points[3]}: contact condition fails: singular value "
        f"ratio 0.000e+00 <= CONTACT_TOL {CONTACT_TOL:g}"]
    sys, plan, _ = _marked_family(gate_at=6, pole_at=3)
    with pytest.raises(DomainError, match="division by zero"):
        dynamical_equivalence_check(sys, sys, plan)


def test_the_gate_failure_names_the_gate_and_its_ratio():
    sys = crossing_family(1e-11)
    plan = SamplePlan(count=20, seed=2)
    first = sample_states(plan, 1)[0]
    ok, ratio = contact_condition(sys, first)
    assert not ok
    report = dynamical_equivalence_check(sys, sys, plan)
    assert report.verdict == "error" and report.records == []
    assert report.diagnostics == [
        f"solver failure at {first}: contact condition fails: singular value "
        f"ratio {ratio:.3e} <= CONTACT_TOL 1e-10"]
    with pytest.raises(ContactConditionError, match=f"singular value ratio {ratio:.3e}"):
        hamiltonian_field(sys, first)


def test_a_singular_flat_map_in_a_stack_ends_the_sample_at_its_point(monkeypatch):
    sys = darboux_system("0.5*v1^2 + sin(q1) + 0.2*z*q1")
    points = random_points(np.random.default_rng(4), 1, 6)
    expected = [hamiltonian_field(sys, p) for p in points]
    # dH at point 2 marks its flat map as singular, in any stack that holds it
    marked = np.array(evaluate_all(gradient(sys.H, 1), points[2]))
    solve = np.linalg.solve

    def singular_at_mark(a, b):
        if any(np.array_equal(col, marked) for col in b[:, :, 1]):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", singular_at_mark)
    got, error = hamiltonian_fields(sys, points)
    assert len(got) == 2 and isinstance(error, ContactConditionError)
    assert str(error) == "flat map is singular: Singular matrix"
    rest, rest_error = hamiltonian_fields(sys, points[3:])
    assert rest_error is None
    np.testing.assert_array_equal(np.concatenate([got, rest]), np.delete(expected, 2, axis=0))


# d(eta) or H overflows to -inf at (0.1, 0.2, 0.3) through the parameter big
NON_FINITE = [
    (CoordOneForm(1, (parse("-v1*big*big", 1), Const(0.0), Const(1.0))), "z",
     r"d\(eta\) or eta is not finite at StatePoint\(q=\[0\.1\], v=\[0\.2\], z=0\.3\)"),
    (darboux_form(1), "-z*big*big",
     r"H or dH is not finite at StatePoint\(q=\[0\.1\], v=\[0\.2\], z=0\.3\)"),
]


@pytest.mark.parametrize("eta, h_text, message", NON_FINITE)
def test_non_finite_contact_data_never_reaches_lapack(eta, h_text, message, monkeypatch):
    sys = ContactHamiltonianSystem(1, eta, parse(h_text, 1), {"big": 1e200})
    p = pt(0.1, 0.2, 0.3)
    finite_form = np.isfinite(sys.eta.values(p, sys.params)).all()

    def finite_only(run):
        def call(*arrays, **kwargs):
            assert all(np.isfinite(a).all() for a in arrays), "non-finite data reached LAPACK"
            return run(*arrays, **kwargs)
        return call
    for name in ("svd", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, finite_only(getattr(np.linalg, name)))
    assert contact_condition(sys, p)[0] == finite_form
    solvers = (hamiltonian_field,) if finite_form else (reeb_field, hamiltonian_field)
    for solver in solvers:
        with pytest.raises(ContactConditionError, match=message):
            solver(sys, p)
    # with big scaled by q1^2 the data still overflows at p, and is finite where
    # q1 = 1e-100: in a 5-point sample the fields end at p, and go on after it
    def scaled(e):
        return substitute(e, Param("big"), parse("big*q1*q1", 1))
    sys = ContactHamiltonianSystem(1, CoordOneForm(1, tuple(map(scaled, eta.components))),
                                   scaled(parse(h_text, 1)), {"big": 1e200})
    sample = [pt(1e-100, v1, z1) for v1, z1 in ((0.5, -0.3), (-0.7, 0.2), (0.1, 0.9), (0.4, 0.4))]
    sample.insert(2, p)
    fields, error = hamiltonian_fields(sys, sample)
    assert len(fields) == 2
    with pytest.raises(ContactConditionError, match=message):
        raise error
    rest, rest_error = hamiltonian_fields(sys, sample[3:])
    assert rest_error is None and len(rest) == 2
    assert np.isfinite(fields).all() and np.isfinite(rest).all()


def test_non_finite_contact_data_fails_promptly_without_guards():
    # the solvers once spun in LAPACK on such data, so a fresh interpreter
    # runs them under a timeout
    script = textwrap.dedent("""
        from herglotz.contact import (ContactConditionError, ContactHamiltonianSystem,
            CoordOneForm, darboux_form, hamiltonian_field, reeb_field)
        from herglotz.expr import Const, StatePoint, parse
        p = StatePoint.from_coords([0.1, 0.2, 0.3], 1)
        form = CoordOneForm(1, (parse("-v1*big*big", 1), Const(0.0), Const(1.0)))
        for eta, h, solvers in ((form, "z", (reeb_field, hamiltonian_field)),
                                (darboux_form(1), "-z*big*big", (hamiltonian_field,))):
            sys = ContactHamiltonianSystem(1, eta, parse(h, 1), {"big": 1e200})
            for solver in solvers:
                try:
                    solver(sys, p)
                except ContactConditionError as exc:
                    print(exc)
    """)
    src = str(Path(contact.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("not finite at StatePoint") == 3, done.stdout
    assert done.stderr == ""
