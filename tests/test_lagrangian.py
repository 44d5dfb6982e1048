import numpy as np
import pytest
import sympy

from herglotz.contact import hamiltonian_field
from herglotz.expr import Const, evaluate, parse, unparse
from herglotz.lagrangian import (
    ContactLagrangianSystem, SingularLagrangianError, as_hamiltonian, energy,
    herglotz_accelerations, herglotz_field, herglotz_residual, lagrangian_form,
    regularity,
)

from conftest import dense_lagrangian, pt, random_points, random_regular_lagrangian


DAMPED = ContactLagrangianSystem(1, parse("0.5*v1^2 - gam*z", 1), {"gam": 0.1})
PARACHUTE = ContactLagrangianSystem(
    1, parse("0.5*v1^2 - (m*g/(2*gam))*(exp(2*gam*q1) - 1) + 2*gam*v1*z", 1),
    {"m": 1.0, "gam": 1.0, "g": 9.8})


def assert_form_equals(form, expected_components, points, params):
    for p in points:
        got = form.values(p, params)
        want = np.array([evaluate(c, p, params) for c in expected_components])
        np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# Lagrangian form


def test_lagrangian_form_damped(rng):
    expected = (parse("-v1", 1), Const(0.0), Const(1.0))
    assert_form_equals(lagrangian_form(DAMPED), expected,
                       random_points(rng, 1, 10), DAMPED.params)


def test_lagrangian_form_is_z_insensitive_for_plain_kinetic(rng):
    sys = ContactLagrangianSystem(1, parse("0.5*v1^2", 1), {})
    expected = (parse("-v1", 1), Const(0.0), Const(1.0))
    assert_form_equals(lagrangian_form(sys), expected,
                       random_points(rng, 1, 10), {})


def test_lagrangian_form_parachute(rng):
    expected = (parse("-(v1 + 2*gam*z)", 1), Const(0.0), Const(1.0))
    assert_form_equals(lagrangian_form(PARACHUTE), expected,
                       random_points(rng, 1, 10), PARACHUTE.params)


# ---------------------------------------------------------------------------
# Energy


def test_energy_damped(rng):
    e = energy(DAMPED)
    expected = parse("0.5*v1^2 + gam*z", 1)
    for p in random_points(rng, 1, 10):
        assert evaluate(e, p, DAMPED.params) == pytest.approx(
            evaluate(expected, p, DAMPED.params), abs=1e-14)


def test_energy_of_constant_lagrangian():
    sys = ContactLagrangianSystem(1, Const(3.5), {})
    assert energy(sys) == Const(-3.5)


def test_energy_of_velocity_homogeneous_lagrangian(rng):
    # Euler: degree-1 homogeneity in v makes the energy vanish
    sys = ContactLagrangianSystem(1, parse("3*v1 + q1*v1", 1), {})
    e = energy(sys)
    for p in random_points(rng, 1, 10):
        assert evaluate(e, p) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Regularity


def test_regularity_cases():
    det, ok = regularity(ContactLagrangianSystem(1, parse("0.5*v1^2", 1), {}),
                         pt(0.0, 0.0, 0.0))
    assert det == pytest.approx(1.0) and ok
    quartic = ContactLagrangianSystem(1, parse("v1^4", 1), {})
    det, ok = regularity(quartic, pt(0.0, 0.0, 0.0))
    assert det == pytest.approx(0.0) and not ok
    det, ok = regularity(DAMPED, pt(0.3, -0.2, 0.9))
    assert det == pytest.approx(1.0) and ok


# ---------------------------------------------------------------------------
# Herglotz field


def test_herglotz_field_damped_values():
    xi = herglotz_field(DAMPED)
    np.testing.assert_allclose(xi.values(pt(0.0, 2.0, 0.0), DAMPED.params),
                               [2.0, -0.2, 2.0], atol=1e-14)


def test_herglotz_field_parachute_acceleration(rng):
    xi = herglotz_field(PARACHUTE)
    vals = xi.values(pt(0.0, 2.0, 0.0), PARACHUTE.params)
    assert vals[1] == pytest.approx(-5.8, abs=1e-12)
    gam, g = PARACHUTE.params["gam"], PARACHUTE.params["g"]
    for p in random_points(rng, 1, 50):
        accel = xi.values(p, PARACHUTE.params)[1]
        assert accel == pytest.approx(gam * p.v[0] ** 2 - g, abs=1e-9)


def test_herglotz_field_free_particle_is_straight():
    sys = ContactLagrangianSystem(1, parse("0.5*v1^2", 1), {})
    xi = herglotz_field(sys)
    vals = xi.values(pt(0.4, 1.7, 2.0), {})
    np.testing.assert_allclose(vals, [1.7, 0.0, 0.5 * 1.7 ** 2], atol=1e-14)


def test_herglotz_field_z_component_is_the_lagrangian():
    # the z slot carries the Lagrangian tree itself (up to component caching)
    xi = herglotz_field(DAMPED)
    assert xi.components[2] == DAMPED.L


def test_herglotz_matches_contact_solver_on_random_lagrangians(rng):
    # two independent routes: Cramer on the reduced acceleration system
    # versus the stacked pointwise solve of (eta_L, E_L)
    for n in (1, 2, 3):
        for _ in range(3):
            sys = random_regular_lagrangian(rng, n)
            ham = as_hamiltonian(sys)
            xi = herglotz_field(sys)
            for p in random_points(rng, n, 12):
                sym = xi.values(p, sys.params)
                num = hamiltonian_field(ham, p)
                np.testing.assert_allclose(sym, num, atol=1e-8)


def sympy_acceleration_system(sys):
    """(W, rhs) at a point from sympy's derivatives of L, by the Herglotz
    equation d/dt(dL/dv_i) - dL/dq_i = (dL/dz)(dL/dv_i) along a second
    order curve with zdot = L."""
    n = sys.n_dim
    qs, vs = sympy.symbols(f"q1:{n + 1}"), sympy.symbols(f"v1:{n + 1}")
    zs = sympy.Symbol("z")
    L = sympy.sympify(unparse(sys.L).replace("^", "**")).subs(
        {sympy.Symbol(k): val for k, val in sys.params.items()})
    dv = [sympy.diff(L, vi) for vi in vs]
    W = [[sympy.diff(dv[i], vj) for vj in vs] for i in range(n)]
    rhs = [sympy.diff(L, qs[i]) + sympy.diff(L, zs) * dv[i]
           - sum(sympy.diff(dv[i], qj) * vj for qj, vj in zip(qs, vs))
           - sympy.diff(dv[i], zs) * L for i in range(n)]
    return sympy.lambdify([*qs, *vs, zs], (W, rhs), "math")


@pytest.mark.parametrize("family, n", [("random", 1), ("random", 2), ("random", 3),
                                       ("dense", 2), ("dense", 3), ("dense", 4)])
def test_herglotz_accelerations_match_sympy(family, n):
    rng = np.random.default_rng(500 + n)
    sys = random_regular_lagrangian(rng, n) if family == "random" else dense_lagrangian(n)
    accels = herglotz_field(sys).components[n:2 * n]
    system_at = sympy_acceleration_system(sys)
    for p in random_points(rng, n, 5):
        W, rhs = system_at(*p.coords())
        expected = np.linalg.solve(np.array(W, dtype=float), np.array(rhs, dtype=float))
        got = [evaluate(a, p, sys.params) for a in accels]
        np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_herglotz_accelerations_singular_error():
    quartic = ContactLagrangianSystem(1, parse("v1^4", 1), {})
    with pytest.raises(SingularLagrangianError):
        herglotz_accelerations(quartic, pt(0.0, 0.0, 0.0))


def test_herglotz_accelerations_refuse_a_nan_determinant():
    """A non-finite W has det NaN, which fails the singular check like 0."""
    nan_w = ContactLagrangianSystem(
        1, parse("0.5*v1^2*(1 + (1e200*1e200 - 1e200*1e200))", 1), {})
    with pytest.raises(SingularLagrangianError, match=r"\(det nan\)$"):
        herglotz_accelerations(nan_w, pt(0.1, 0.2, 0.3))


# ---------------------------------------------------------------------------
# Herglotz residual


def test_residual_vanishes_at_field_accelerations(rng):
    for sys in (DAMPED, PARACHUTE):
        for p in random_points(rng, 1, 20):
            a = herglotz_accelerations(sys, p)
            r = herglotz_residual(sys, p, a)
            assert np.max(np.abs(r)) <= 1e-10 * (1.0 + np.max(np.abs(a)))


def test_residual_frozen_example():
    r = herglotz_residual(DAMPED, pt(0.0, 2.0, 0.0), np.array([0.0]))
    assert r[0] == pytest.approx(0.2, abs=1e-14)


def test_residual_free_particle_unit_acceleration():
    sys = ContactLagrangianSystem(1, parse("0.5*v1^2", 1), {})
    r = herglotz_residual(sys, pt(0.0, 2.0, 0.0), np.array([1.0]))
    assert r[0] == pytest.approx(1.0, abs=1e-14)
