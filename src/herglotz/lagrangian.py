"""Contact Lagrangian systems on the trivial chart (action coordinate z).

For a regular Lagrangian L(q, v, z) the package builds the contact form
eta_L = dz - (dL/dv_i) dq^i, the energy E_L = v_i dL/dv_i - L, and the
Herglotz vector field xi_L = (v, a, L) whose accelerations solve

    W a = dL/dq_i + (dL/dz)(dL/dv_i) - v_j d2L/dq_j dv_i - L d2L/dz dv_i

with W the velocity Hessian.  This is the expansion of the Herglotz
equation d/dt(dL/dv_i) - dL/dq_i = (dL/dz)(dL/dv_i) along a second order
curve with zdot = L.  The field is produced with symbolic components
(Cramer's rule on W), and is cross-checked in the test suite against the
generic pointwise contact solver applied to (eta_L, E_L).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .checks import DET_TOL
from .contact import ContactHamiltonianSystem, CoordOneForm, CoordVectorField
from .expr import (
    Const, Expr, StatePoint, add, differentiate, evaluate, mul, neg, q,
    solve_cramer, sub, v, z,
)

__all__ = [
    "ContactLagrangianSystem", "SingularLagrangianError",
    "lagrangian_form", "energy", "regularity", "herglotz_field",
    "herglotz_residual", "velocity_hessian", "as_hamiltonian",
]


class SingularLagrangianError(ValueError):
    """Velocity Hessian numerically singular at a requested point."""


@dataclass(frozen=True)
class ContactLagrangianSystem:
    n_dim: int
    L: Expr
    params: dict = field(default_factory=dict)


@lru_cache(maxsize=None)
def _fiber_derivatives(L: Expr, n: int) -> tuple[Expr, ...]:
    return tuple(differentiate(L, v(i)) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _velocity_hessian_exprs(L: Expr, n: int) -> tuple[tuple[Expr, ...], ...]:
    fibers = _fiber_derivatives(L, n)
    return tuple(tuple(differentiate(fibers[i], v(j + 1)) for j in range(n))
                 for i in range(n))


def velocity_hessian(sys: ContactLagrangianSystem, p: StatePoint) -> np.ndarray:
    exprs = _velocity_hessian_exprs(sys.L, sys.n_dim)
    return np.array([[evaluate(e, p, sys.params) for e in row] for row in exprs])


def lagrangian_form(sys: ContactLagrangianSystem) -> CoordOneForm:
    """eta_L = dz - (dL/dv_i) dq^i."""
    n = sys.n_dim
    fibers = _fiber_derivatives(sys.L, n)
    comps = tuple(neg(f) for f in fibers) + \
        tuple(Const(0.0) for _ in range(n)) + (Const(1.0),)
    return CoordOneForm(n, comps)


def energy(sys: ContactLagrangianSystem) -> Expr:
    """E_L = v_i dL/dv_i - L."""
    n = sys.n_dim
    total: Expr = Const(0.0)
    for i, f in enumerate(_fiber_derivatives(sys.L, n), start=1):
        total = add(total, mul(v(i), f))
    return sub(total, sys.L)


def regularity(sys: ContactLagrangianSystem, p: StatePoint) -> tuple[float, bool]:
    """Determinant of the velocity Hessian at p and |det| > 1e-10."""
    det = float(np.linalg.det(velocity_hessian(sys, p)))
    return det, abs(det) > DET_TOL


def _acceleration_rhs(L: Expr, n: int) -> list[Expr]:
    dLdz = differentiate(L, z())
    fibers = _fiber_derivatives(L, n)
    rhs = []
    for i in range(1, n + 1):
        fiber = fibers[i - 1]
        term: Expr = add(differentiate(L, q(i)), mul(dLdz, fiber))
        for j in range(1, n + 1):
            term = sub(term, mul(v(j), differentiate(fiber, q(j))))
        term = sub(term, mul(L, differentiate(fiber, z())))
        rhs.append(term)
    return rhs


@lru_cache(maxsize=None)
def _herglotz_components(L: Expr, n: int) -> tuple[tuple[Expr, ...], Expr]:
    w = _velocity_hessian_exprs(L, n)
    rhs = _acceleration_rhs(L, n)
    accels, det = solve_cramer([list(row) for row in w], rhs)
    comps = tuple(v(i) for i in range(1, n + 1)) + tuple(accels) + (L,)
    return comps, det


def herglotz_field(sys: ContactLagrangianSystem) -> CoordVectorField:
    """The Herglotz vector field (v, a, L) with symbolic components."""
    comps, _ = _herglotz_components(sys.L, sys.n_dim)
    return CoordVectorField(sys.n_dim, comps)


def herglotz_accelerations(sys: ContactLagrangianSystem, p: StatePoint) -> np.ndarray:
    """Accelerations at p by a dense LU solve; hard error when W is singular."""
    w = velocity_hessian(sys, p)
    det = float(np.linalg.det(w))
    if abs(det) <= DET_TOL:
        raise SingularLagrangianError(
            f"velocity Hessian singular at {p} (det {det:.3e})")
    rhs = np.array([evaluate(e, p, sys.params)
                    for e in _acceleration_rhs(sys.L, sys.n_dim)])
    return np.linalg.solve(w, rhs)


def herglotz_residual(sys: ContactLagrangianSystem, p: StatePoint,
                      accelerations: np.ndarray) -> np.ndarray:
    """Residual of the Herglotz equation for prescribed accelerations.

    r_i = d/dt(dL/dv_i)|_a - dL/dq_i - (dL/dz)(dL/dv_i), with the total time
    derivative expanded along the second order curve (v, a, zdot = L).
    """
    n = sys.n_dim
    accelerations = np.asarray(accelerations, dtype=float)
    if accelerations.shape != (n,):
        raise ValueError(f"expected {n} accelerations")
    L = sys.L
    dLdz = differentiate(L, z())
    out = np.zeros(n)
    l_val = evaluate(L, p, sys.params)
    for i in range(1, n + 1):
        fiber = _fiber_derivatives(L, n)[i - 1]
        ddt = 0.0
        for j in range(1, n + 1):
            ddt += p.v[j - 1] * evaluate(differentiate(fiber, q(j)), p, sys.params)
            ddt += accelerations[j - 1] * evaluate(differentiate(fiber, v(j)), p, sys.params)
        ddt += l_val * evaluate(differentiate(fiber, z()), p, sys.params)
        out[i - 1] = ddt \
            - evaluate(differentiate(L, q(i)), p, sys.params) \
            - evaluate(dLdz, p, sys.params) * evaluate(fiber, p, sys.params)
    return out


def as_hamiltonian(sys: ContactLagrangianSystem) -> ContactHamiltonianSystem:
    """The contact Hamiltonian system (eta_L, E_L) of a Lagrangian system."""
    return ContactHamiltonianSystem(sys.n_dim, lagrangian_form(sys), energy(sys),
                                    dict(sys.params))
