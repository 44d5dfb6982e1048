import numpy as np
import pytest

from herglotz.contact import conformal_factor, hamiltonian_field
from herglotz.expr import Const, differentiate, evaluate, parse, substitute, v, z
from herglotz.extended import (
    ActionFunction, ExtendedLagrangianSystem, FrameError, SingularZetaError,
    _zeta_hessian_exprs, compose_with_zeta, extended_lagrangian_form,
    legendre_pullback_residual, zeta_energy, zeta_frame, zeta_hessian,
    zeta_herglotz_field, zeta_legendre, zeta_partial, zeta_regularity,
)
from herglotz.equivalence import extended_sode_check
from herglotz.lagrangian import (
    ContactLagrangianSystem, energy, herglotz_field, lagrangian_form,
    velocity_hessian,
)
from herglotz.contact import ContactHamiltonianSystem, CoordVectorField
from herglotz.fixtures import builtin_systems

from conftest import pt, random_points, random_regular_lagrangian


REG = builtin_systems()
DAMPED = ContactLagrangianSystem(1, parse("0.5*v1^2 - gam*z", 1), {"gam": 0.1})
ZETA_ID = ActionFunction(parse("z", 1))
ZETA_V = ActionFunction(parse("z + v1", 1))


def ext(sys, zeta):
    return ExtendedLagrangianSystem(sys.n_dim, sys.L, zeta, sys.params)


def identity_chart_cases(rng):
    """DAMPED and one random regular Lagrangian for each n = 1..3."""
    return [DAMPED] + [random_regular_lagrangian(rng, n) for n in (1, 2, 3)]


# ---------------------------------------------------------------------------
# Frame


def test_zeta_frame_identity_chart():
    frame = zeta_frame(ZETA_ID, pt(0.3, -0.4, 0.8), 1)
    np.testing.assert_array_equal(frame, np.eye(3))


def test_zeta_frame_velocity_shift():
    zeta = ActionFunction(parse("z + v1^2", 1))
    frame = zeta_frame(zeta, pt(0.0, 0.5, 0.0), 1)
    expected = np.eye(3)
    expected[2, 1] = -1.0          # (d/dv1)_zeta = d/dv1 - 2 v1 d/dz at v1 = 0.5
    np.testing.assert_allclose(frame, expected, atol=1e-14)


def test_zeta_frame_linear_rescale():
    zeta = ActionFunction(parse("2*z", 1))
    frame = zeta_frame(zeta, pt(0.0, 0.0, 0.0), 1)
    assert frame[2, 2] == pytest.approx(0.5)


def test_zeta_frame_singular():
    zeta = ActionFunction(parse("q1", 1))
    with pytest.raises(FrameError):
        zeta_frame(zeta, pt(0.0, 0.0, 0.0), 1)


def test_frame_consistency_applied_to_zeta(rng):
    # each frame field applied to zeta gives 0, and d(zeta)/dzeta gives 1
    for text in ("z + v1", "z + q1^2*v1", "2*z + sin(q1)", "z*(1 + 0.2*q1)"):
        zeta = ActionFunction(parse(text, 1))
        for p in random_points(rng, 1, 10):
            if not zeta.frame_ok(p):
                continue
            for var in ("q1", "v1"):
                val = evaluate(zeta_partial(zeta.zeta, zeta, var), p)
                assert abs(val) <= 1e-12
            assert evaluate(zeta_partial(zeta.zeta, zeta, "zeta"), p) == \
                pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# zeta-chart partial derivatives


def test_zeta_partial_reduces_to_ordinary_partials():
    # with zeta = z the correction term folds away structurally
    f = DAMPED.L
    from herglotz.expr import differentiate
    assert zeta_partial(f, ZETA_ID, "v1") == differentiate(f, "v1")
    assert zeta_partial(f, ZETA_ID, "q1") == differentiate(f, "q1")


def test_zeta_partial_velocity_shifted_chart():
    val = evaluate(zeta_partial(DAMPED.L, ZETA_V, "v1"), pt(0.0, 2.0, 0.0),
                   DAMPED.params)
    assert val == pytest.approx(2.0 + 0.1, abs=1e-14)  # v1 + gam


# ---------------------------------------------------------------------------
# Second order condition


def test_extended_sode_check_cases(rng):
    points = random_points(rng, 1, 20)
    good = CoordVectorField(1, (v(1), parse("-0.3*v1", 1), parse("z", 1)))
    assert extended_sode_check(good, points).passed
    bad = CoordVectorField(1, (parse("2*v1", 1), parse("-0.3*v1", 1),
                               parse("z", 1)))
    report = extended_sode_check(bad, points)
    assert report.verdict == "fail"


def test_pushforward_by_horizontal_map_preserves_sode(rng):
    # xi = (v, -gam v, 0.5 v^2 - gam z) pushed through zeta = 2z + q1,
    # expressed in the image chart via the explicit inverse z = (zeta - q1)/2
    gam = 0.3
    params = {"gam": gam}
    a_img = parse("-gam*v1", 1)
    xi_zeta = parse("v1 + 2*(0.5*v1^2 - gam*z)", 1)
    b_img = substitute(xi_zeta, z(), parse("(z - q1)/2", 1))
    pushed = CoordVectorField(1, (v(1), a_img, b_img))
    assert extended_sode_check(pushed, random_points(rng, 1, 20), params).passed


# ---------------------------------------------------------------------------
# Extended Lagrangian form


def test_extended_form_reduces_at_identity_chart(rng):
    for sys in identity_chart_cases(rng):
        form = extended_lagrangian_form(ext(sys, ZETA_ID))
        assert form.components == lagrangian_form(sys).components


def test_extended_form_velocity_chart(rng):
    # L entered in the base chart as 0.5 v^2 - gam (z + v), zeta = z + v1:
    # the form is dz + dv1 - p dq1 with p = (dL/dv1)_zeta = v1
    sys = ExtendedLagrangianSystem(1, parse("0.5*v1^2 - gam*(z + v1)", 1),
                                   ZETA_V, {"gam": 0.1})
    form = extended_lagrangian_form(sys)
    for p in random_points(rng, 1, 10):
        vals = form.values(p, sys.params)
        np.testing.assert_allclose(vals, [-p.v[0], 1.0, 1.0], atol=1e-13)


def test_extended_form_strong_case_is_conformal(rng):
    # velocity-free zeta: eta^zeta of the transported Lagrangian is
    # (dzeta/dz) eta_L of the base Lagrangian
    drag = REG["linear_drag"]()
    zeta = REG["zeta_sin_q"]()
    lbar = compose_with_zeta(REG["drag_gauge_bar"](), zeta)
    sys = ExtendedLagrangianSystem(1, lbar, zeta, drag.params)
    form = extended_lagrangian_form(sys)
    base = lagrangian_form(drag)
    for p in random_points(rng, 1, 10):
        factor = evaluate(zeta.dz, p, drag.params)
        np.testing.assert_allclose(form.values(p, drag.params),
                                   factor * base.values(p, drag.params),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# zeta-regularity


def test_zeta_regularity_raises_where_dzeta_dz_vanishes():
    with pytest.raises(FrameError, match="dzeta/dz vanishes"):
        zeta_regularity(ext(DAMPED, ActionFunction(parse("q1", 1))), pt(0.1, 0.2, 0.3))


def test_zeta_regularity_identity_chart():
    det, ok = zeta_regularity(ext(DAMPED, ZETA_ID), pt(0.1, 0.2, 0.3))
    assert det == pytest.approx(1.0) and ok


def test_zeta_regularity_lagrangian_as_action_fails():
    # using the Lagrangian itself as the action coordinate destroys
    # regularity even though the plain velocity Hessian is fine
    zeta = ActionFunction(parse("0.5*v1^2 - gam*z", 1), {"gam": 0.1})
    det, ok = zeta_regularity(ext(DAMPED, zeta), pt(0.4, 1.2, -0.2))
    assert not ok
    assert det == pytest.approx(0.0, abs=1e-12)


def test_zeta_regularity_quadratic_gauge_critical_coupling():
    # (0.5 - gam) v^2 - gam zeta with zeta = z + v^2 is singular at gam = 1/2
    zeta = ActionFunction(parse("z + v1^2", 1))
    for gam, expect_ok in ((0.3, True), (0.5, False)):
        lbar = compose_with_zeta(parse("(0.5 - gam)*v1^2 - gam*z", 1), zeta)
        sys = ExtendedLagrangianSystem(1, lbar, zeta, {"gam": gam})
        det, ok = zeta_regularity(sys, pt(0.3, 0.7, -0.1))
        assert ok == expect_ok
        assert det == pytest.approx(1.0 - 2.0 * gam, abs=1e-12)


# ---------------------------------------------------------------------------
# zeta-energy


def test_zeta_energy_reduces_at_identity_chart(rng):
    for sys in identity_chart_cases(rng):
        assert zeta_energy(ext(sys, ZETA_ID)) == energy(sys)


def test_zeta_energy_velocity_chart_cross_checked(rng):
    sys = ExtendedLagrangianSystem(1, parse("0.5*v1^2 - gam*(z + v1)", 1),
                                   ZETA_V, {"gam": 0.1})
    e_ext = zeta_energy(sys)
    # oracle: v (dL/dv)_zeta - L computed through zeta_partial directly
    oracle = v(1) * zeta_partial(sys.L, ZETA_V, "v1") - sys.L
    closed = parse("0.5*v1^2 + gam*z + gam*v1", 1)
    for p in random_points(rng, 1, 10):
        got = evaluate(e_ext, p, sys.params)
        assert got == pytest.approx(evaluate(oracle, p, sys.params), abs=1e-14)
        assert got == pytest.approx(evaluate(closed, p, sys.params), abs=1e-13)


def test_zeta_energy_constant_lagrangian():
    sys = ExtendedLagrangianSystem(1, Const(2.5), ZETA_V, {})
    assert zeta_energy(sys) == Const(-2.5)


# ---------------------------------------------------------------------------
# zeta-Herglotz field


def test_zeta_herglotz_reduces_at_identity_chart(rng):
    for sys in identity_chart_cases(rng):
        field = zeta_herglotz_field(ext(sys, ZETA_ID))
        assert field.components == herglotz_field(sys).components


def test_zeta_hessian_reduces_at_identity_chart(rng):
    # W^zeta at zeta = z is the plain second velocity derivative of L, and
    # velocity_hessian evaluates exactly those trees
    for sys in identity_chart_cases(rng):
        n = sys.n_dim
        plain = tuple(tuple(differentiate(differentiate(sys.L, v(i)), v(j))
                            for j in range(1, n + 1)) for i in range(1, n + 1))
        assert _zeta_hessian_exprs(sys.L, ZETA_ID.zeta, n) == plain
        for p in random_points(rng, n, 5):
            want = np.array([[evaluate(e, p, sys.params) for e in row] for row in plain])
            np.testing.assert_array_equal(velocity_hessian(sys, p), want)
            np.testing.assert_array_equal(zeta_hessian(ext(sys, ZETA_ID), p), want)


def test_zeta_herglotz_velocity_gauge_recovers_base_field(rng):
    # (0.5 v^2 - gam zeta, zeta = z + v1) has the damped field of the base
    zeta = ZETA_V
    lbar = compose_with_zeta(parse("0.5*v1^2 - gam*z", 1), zeta)
    sys = ExtendedLagrangianSystem(1, lbar, zeta, {"gam": 0.1})
    field = zeta_herglotz_field(sys)
    base = herglotz_field(DAMPED)
    for p in random_points(rng, 1, 25):
        np.testing.assert_allclose(field.values(p, sys.params),
                                   base.values(p, DAMPED.params), atol=1e-12)


def test_zeta_herglotz_total_derivative_gauge_recovers_base_field(rng):
    drag = REG["linear_drag"]()
    zeta = REG["zeta_sin_q"]()
    lbar = compose_with_zeta(REG["drag_gauge_bar"](), zeta)
    sys = ExtendedLagrangianSystem(1, lbar, zeta, drag.params)
    field = zeta_herglotz_field(sys)
    base = herglotz_field(drag)
    for p in random_points(rng, 1, 25):
        np.testing.assert_allclose(field.values(p, drag.params),
                                   base.values(p, drag.params), atol=1e-12)


def extended_fixture_set():
    drag = REG["linear_drag"]()
    out = []
    zeta1 = ZETA_V
    out.append(ExtendedLagrangianSystem(
        1, compose_with_zeta(parse("0.5*v1^2 - gam*z", 1), zeta1), zeta1,
        {"gam": 0.3}))
    zeta2 = REG["zeta_sin_q"]()
    out.append(ExtendedLagrangianSystem(
        1, compose_with_zeta(REG["drag_gauge_bar"](), zeta2), zeta2, drag.params))
    zeta3 = REG["zeta_scaled"]()
    out.append(ExtendedLagrangianSystem(
        1, compose_with_zeta(REG["oscillator_scaled_bar"](), zeta3), zeta3, {}))
    para = REG["parachute"]()
    zeta4 = REG["zeta_square_q"]()
    out.append(ExtendedLagrangianSystem(
        1, compose_with_zeta(REG["parachute_gauge_bar"](), zeta4), zeta4,
        para.params))
    zeta5 = REG["zeta_v2"]()
    out.append(ExtendedLagrangianSystem(
        1, compose_with_zeta(parse("(0.5 - gam)*v1^2 - gam*z", 1), zeta5), zeta5,
        {"gam": 0.3}))
    return out


def test_zeta_herglotz_intrinsic_contract(rng):
    # eta(xi) = -E, L_xi eta = (dL/dzeta) eta, xi(zeta) = L
    for sys in extended_fixture_set():
        field = zeta_herglotz_field(sys)
        form = extended_lagrangian_form(sys)
        e_expr = zeta_energy(sys)
        rate = zeta_partial(sys.L, sys.zeta, "zeta")
        xi_zeta = field.apply(sys.zeta.zeta)
        params = sys.all_params
        for p in random_points(rng, 1, 20):
            if not sys.zeta.frame_ok(p):
                continue
            eta_p = form.values(p, params)
            xi_p = field.values(p, params)
            assert abs(eta_p @ xi_p + evaluate(e_expr, p, params)) <= 1e-8
            g, residual = conformal_factor(form, field, p, params)
            assert residual <= 1e-8
            assert g == pytest.approx(evaluate(rate, p, params), abs=1e-8)
            assert abs(evaluate(xi_zeta, p, params)
                       - evaluate(sys.L, p, params)) <= 1e-8


def test_zeta_herglotz_matches_pointwise_contact_solver(rng):
    # independent route: generic stacked solve on (eta^zeta_L, E^zeta_L)
    cases = [(sys, 10) for sys in extended_fixture_set()]
    for n in (2, 3):
        for _ in range(3):
            base = random_regular_lagrangian(rng, n)
            for zeta_text in (f"z + 0.3*v1*q{n}", "z + 0.2*v1^2",
                              f"z + 0.1*v{n}*z + sin(q1)"):
                zeta = ActionFunction(parse(zeta_text, n))
                cases.append((ExtendedLagrangianSystem(n, base.L, zeta, {}), 12))
    checked = 0
    for sys, count in cases:
        ham = ContactHamiltonianSystem(sys.n_dim, extended_lagrangian_form(sys),
                                       zeta_energy(sys), sys.all_params)
        field = zeta_herglotz_field(sys)
        for p in random_points(rng, sys.n_dim, count):
            if not sys.zeta.frame_ok(p) or not zeta_regularity(sys, p)[1]:
                continue
            np.testing.assert_allclose(field.values(p, sys.all_params),
                                       hamiltonian_field(ham, p), atol=1e-8)
            checked += 1
    assert checked >= 260  # of 266 on this seed; all are regular today


def test_zeta_hessian_symmetry_random_charts(rng):
    for _ in range(10):
        l_text = "0.5*v1^2 + 0.03*q1^2*v1^2 + 0.1*z*v1 + 0.05*q1^3"
        zeta_text = "z + 0.2*v1^2 + 0.1*sin(q1)"
        sys = ExtendedLagrangianSystem(1, parse(l_text, 1),
                                       ActionFunction(parse(zeta_text, 1)), {})
        p = random_points(rng, 1, 1)[0]
        from herglotz.extended import zeta_hessian
        w = zeta_hessian(sys, p)
        assert np.max(np.abs(w - w.T)) <= 1e-9


# ---------------------------------------------------------------------------
# zeta-Legendre transform


def test_legendre_classical():
    sys = ExtendedLagrangianSystem(1, parse("0.5*v1^2", 1), ZETA_ID, {})
    qv, momenta, zeta_val = zeta_legendre(sys, pt(0.3, 1.7, 0.9))
    assert momenta[0] == pytest.approx(1.7)
    assert zeta_val == pytest.approx(0.9)


def test_legendre_damped():
    sys = ext(DAMPED, ZETA_ID)
    _, momenta, _ = zeta_legendre(sys, pt(0.3, 1.7, 0.9))
    assert momenta[0] == pytest.approx(1.7)  # z-term has no fiber dependence


def test_legendre_parachute_momentum(rng):
    para = REG["parachute"]()
    sys = ExtendedLagrangianSystem(1, para.L, ZETA_ID, para.params)
    gam = para.params["gam"]
    for p in random_points(rng, 1, 10):
        _, momenta, _ = zeta_legendre(sys, p)
        assert momenta[0] == pytest.approx(p.v[0] + 2 * gam * p.z, abs=1e-12)


def test_legendre_pullback_is_strict_similarity(rng):
    for sys in extended_fixture_set():
        for p in random_points(rng, 1, 10):
            if not sys.zeta.frame_ok(p):
                continue
            assert legendre_pullback_residual(sys, p) <= 1e-8


def test_legendre_rejects_singular_hessian():
    zeta = ActionFunction(parse("z + v1^2", 1))
    lbar = compose_with_zeta(parse("(0.5 - gam)*v1^2 - gam*z", 1), zeta)
    sys = ExtendedLagrangianSystem(1, lbar, zeta, {"gam": 0.5})
    with pytest.raises(SingularZetaError):
        zeta_legendre(sys, pt(0.1, 0.5, 0.2))
