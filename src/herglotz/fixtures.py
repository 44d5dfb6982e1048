"""Built-in fixture pack: the worked desk-scale systems under canonical names.

Every named object here is constructible with zero user authoring, so the
CLI and the acceptance suite can reference them directly.  Bar-Lagrangians
(``*_bar*``) are written in their zeta-chart: the third coordinate slot,
spelled ``z`` in the expression text, denotes the reparametrized action
coordinate of the paired action function.
"""

from __future__ import annotations

from typing import Callable

from .checks import SamplePlan
from .contact import ContactHamiltonianSystem, CoordOneForm, darboux_form
from .expr import Const, parse
from .extended import ActionFunction
from .inverse import SODESystem
from .lagrangian import ContactLagrangianSystem

__all__ = [
    "builtin_systems", "builtin_plans",
    "lagrangian_fixture_names", "default_tasks",
]


def _lag(n: int, text: str, params: dict) -> ContactLagrangianSystem:
    return ContactLagrangianSystem(n, parse(text, n), params)


def _ham(n: int, h_text: str, eta: CoordOneForm | None = None,
         params: dict | None = None) -> ContactHamiltonianSystem:
    return ContactHamiltonianSystem(n, eta or darboux_form(n),
                                    parse(h_text, n), params or {})


def _action(n: int, text: str, params: dict | None = None) -> ActionFunction:
    return ActionFunction(parse(text, n), params or {})


def _sode(n: int, accels: list[str], z_rate: str, params: dict) -> SODESystem:
    return SODESystem(n, tuple(parse(a, n) for a in accels), parse(z_rate, n),
                      params)


_PARACHUTE_L = "0.5*v1^2 - (m*g/(2*gam))*(exp(2*gam*q1) - 1) + 2*gam*v1*z"
_PARACHUTE_PARAMS = {"m": 1.0, "gam": 1.0, "g": 9.8}


def builtin_systems() -> dict[str, Callable[[], object]]:
    """Lazy constructors for every canonical fixture."""
    reg: dict[str, Callable[[], object]] = {}

    # Lagrangian systems
    reg["free_particle"] = lambda: _lag(1, "0.5*v1^2", {})
    reg["linear_drag"] = lambda: _lag(1, "0.5*v1^2 - gam*z", {"gam": 0.1})
    reg["linear_drag_stiff"] = lambda: _lag(1, "0.5*v1^2 - gam*z", {"gam": 2.0})
    reg["parachute"] = lambda: _lag(1, _PARACHUTE_L, dict(_PARACHUTE_PARAMS))
    reg["contact_oscillator"] = lambda: _lag(
        1, "0.5*v1^2 - 0.5*q1^2 - gam*z", {"gam": 0.1})
    reg["oscillator"] = lambda: _lag(1, "0.5*v1^2 - 0.5*q1^2", {})

    # Power-gauge family: base Lagrangian with action coordinate z + v1^k.
    # The bar Lagrangians below are the transported candidates for k = 1, 2, 3.
    reg["power_gauge_base"] = lambda: _lag(1, "0.5*v1^2 - gam*z", {"gam": 0.3})
    reg["power_gauge_base_g05"] = lambda: _lag(1, "0.5*v1^2 - gam*z", {"gam": 0.5})
    reg["power_gauge_bar1"] = lambda: parse("0.5*v1^2 - gam*z", 1)
    reg["power_gauge_bar2"] = lambda: parse("(0.5 - gam)*v1^2 - gam*z", 1)
    reg["power_gauge_bar3"] = lambda: parse("0.5*v1^2 - 2*gam*v1^3 - gam*z", 1)
    reg["zeta_v1"] = lambda: _action(1, "z + v1")
    reg["zeta_v2"] = lambda: _action(1, "z + v1^2")
    reg["zeta_v3"] = lambda: _action(1, "z + v1^3")

    # Total-derivative gauge of the linear drag system.  In the zeta-chart
    # the original action coordinate reads z - sin(q1), hence the shift.
    reg["drag_gauge_bar"] = lambda: parse(
        "0.5*v1^2 - gam*(z - sin(q1)) + cos(q1)*v1", 1)
    reg["zeta_sin_q"] = lambda: _action(1, "z + sin(q1)")

    # Scaled symplectic gauge of the z-free oscillator
    reg["oscillator_scaled_bar"] = lambda: parse("v1^2 - q1^2 + cos(q1)*v1", 1)
    reg["zeta_scaled"] = lambda: _action(1, "2*z + sin(q1)")

    # Quadratic gauge of the parachute system
    reg["parachute_gauge_bar"] = lambda: parse(
        "0.5*v1^2 + (2*q1 - 2*gam*q1^2 + 2*gam*z)*v1"
        " - (m*g/(2*gam))*(exp(2*gam*q1) - 1)", 1)
    reg["zeta_square_q"] = lambda: _action(1, "z + q1^2")
    reg["zeta_identity"] = lambda: _action(1, "z")

    # Charged particle with drag (n = 3): uniform magnetic field via the
    # potential A = (-q2, q1, 0), electric potential q3, and a generalized
    # gauge term f = q1 q2 folded into the action coordinate.  The gauge
    # change h = q1 q3 shifts the action coordinate and adds a total
    # derivative; both systems are strongly equivalent.
    reg["charged_drag"] = lambda: _lag(
        3,
        "0.5*m*(v1^2 + v2^2 + v3^2) + k*(q1*v2 - q2*v1) - k*q3"
        " - gam*(z + k*q1*q2)",
        {"m": 1.0, "k": 0.7, "gam": 0.2})
    reg["charged_drag_gauge_bar"] = lambda: parse(
        "0.5*m*(v1^2 + v2^2 + v3^2) + k*(q1*v2 - q2*v1) - k*q3"
        " - gam*(z - k*q1*q3 + k*q1*q2) + k*(q3*v1 + q1*v3)", 3)
    reg["zeta_charged_gauge"] = lambda: _action(3, "z + k*q1*q3",
                                                {"k": 0.7})

    # Hamiltonian pair with equal dynamics but different zero sets
    reg["saddle"] = lambda: _ham(1, "q1*v1 + z")
    reg["saddle_flipped"] = lambda: ContactHamiltonianSystem(
        1,
        CoordOneForm(1, (parse("v1", 1), Const(0.0), Const(1.0))),
        parse("z - q1*v1", 1), {})
    reg["saddle_shifted"] = lambda: _ham(1, "q1*v1 + z + 3")

    # Second order fields
    reg["sode_linear_drag"] = lambda: _sode(
        1, ["-gam*v1"], "0.5*v1^2 - gam*z", {"gam": 0.1})
    reg["sode_parachute"] = lambda: _sode(
        1, ["gam*v1^2 - m*g"], _PARACHUTE_L, dict(_PARACHUTE_PARAMS))
    reg["sode_parachute_perturbed"] = lambda: _sode(
        1, ["gam*v1^2 - m*g + 0.1"], _PARACHUTE_L, dict(_PARACHUTE_PARAMS))
    reg["sode_flat_rate"] = lambda: _sode(1, ["-gam*v1"], "0", {"gam": 0.1})
    reg["sode_shear"] = lambda: _sode(
        1, ["-gam*v1"], "v1^2 - gam*q1*v1", {"gam": 0.1})
    reg["sode_shear_projected"] = lambda: _sode(1, ["-gam*v1"], "0", {"gam": 0.1})
    reg["zeta_shear"] = lambda: _action(1, "z - q1*v1")

    return reg


def builtin_plans() -> dict[str, SamplePlan]:
    box1 = tuple((-1.0, 1.0) for _ in range(3))
    box3 = tuple((-1.0, 1.0) for _ in range(7))
    return {
        "box1": SamplePlan("random", box1, 100, 20260810),
        "box1_200": SamplePlan("random", box1, 200, 20260810),
        "box1_grid": SamplePlan("grid", box1, 125, 0),
        "box1_positive": SamplePlan("random", tuple((0.0, 1.0) for _ in range(3)),
                                    100, 20260810),
        "box3": SamplePlan("random", box3, 100, 20260810),
    }


def lagrangian_fixture_names() -> list[str]:
    """Regular Lagrangian fixtures used by round-trip style suites."""
    return ["free_particle", "linear_drag", "parachute", "contact_oscillator"]


def default_tasks() -> list[dict]:
    """The canonical batch: one task per checker over the fixture pack."""
    return [
        {"command": "check-dynamical", "tag": "saddle_pair",
         "args": {"system": "saddle", "system_b": "saddle_flipped", "plan": "box1"}},
        {"command": "check-conformal", "tag": "saddle_pair",
         "args": {"system": "saddle", "system_b": "saddle_flipped", "plan": "box1"}},
        {"command": "check-eq", "tag": "power_gauge_1",
         "args": {"lagrangian": "power_gauge_base", "lagrangian_bar": "power_gauge_bar1",
                  "zeta": "zeta_v1", "plan": "box1_200"}},
        {"command": "check-eq", "tag": "power_gauge_2",
         "args": {"lagrangian": "power_gauge_base", "lagrangian_bar": "power_gauge_bar2",
                  "zeta": "zeta_v2", "plan": "box1_200"}},
        {"command": "check-eq", "tag": "power_gauge_3",
         "args": {"lagrangian": "power_gauge_base", "lagrangian_bar": "power_gauge_bar3",
                  "zeta": "zeta_v3", "plan": "box1_200"}},
        {"command": "check-strong-eq", "tag": "drag_gauge",
         "args": {"lagrangian": "linear_drag", "lagrangian_bar": "drag_gauge_bar",
                  "zeta": "zeta_sin_q", "plan": "box1_200"}},
        {"command": "check-strong-eq", "tag": "oscillator_scaled",
         "args": {"lagrangian": "oscillator", "lagrangian_bar": "oscillator_scaled_bar",
                  "zeta": "zeta_scaled", "plan": "box1_200"}},
        {"command": "check-strong-eq", "tag": "parachute_gauge",
         "args": {"lagrangian": "parachute", "lagrangian_bar": "parachute_gauge_bar",
                  "zeta": "zeta_square_q", "plan": "box1_200"}},
        {"command": "check-strong-eq", "tag": "charged_drag_gauge",
         "args": {"lagrangian": "charged_drag",
                  "lagrangian_bar": "charged_drag_gauge_bar",
                  "zeta": "zeta_charged_gauge", "plan": "box3"}},
        {"command": "check-horizontal", "tag": "shear",
         "args": {"xi": "sode_shear", "xi_bar": "sode_shear_projected",
                  "zeta": "zeta_shear", "plan": "box1"}},
        {"command": "check-inverse", "tag": "parachute",
         "args": {"sode": "sode_parachute", "plan": "box1"}},
        {"command": "check-inverse", "tag": "parachute_perturbed",
         "args": {"sode": "sode_parachute_perturbed", "plan": "box1"}},
        {"command": "check-inverse-ext", "tag": "linear_drag",
         "args": {"sode": "sode_linear_drag", "zeta": "zeta_identity",
                  "plan": "box1"}},
        {"command": "herglotz", "tag": "parachute",
         "args": {"lagrangian": "parachute"}},
        {"command": "legendre", "tag": "parachute",
         "args": {"lagrangian": "parachute", "zeta": "zeta_identity",
                  "plan": "box1"}},
        {"command": "simulate", "tag": "parachute",
         "args": {"system": "parachute", "initial": [0.0, 2.0, 0.0],
                  "t": 1.0, "dt": 0.001,
                  "accel_residual": ["gam*v1^2 - g"]}},
    ]
