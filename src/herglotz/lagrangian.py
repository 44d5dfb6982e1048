"""Contact Lagrangian systems on the trivial chart (action coordinate z).

A contact Lagrangian system is the extended system (L, zeta = z), so every
symbolic object here is the zeta = z case of a builder in ``extended``: the
contact form eta_L = dz - (dL/dv_i) dq^i, the energy E_L = v_i dL/dv_i - L
and the Herglotz field xi_L = (v, a, L), whose accelerations come from the
one n x n Cramer solve on W^zeta, here the velocity Hessian W:

    W a = dL/dq_i + (dL/dz)(dL/dv_i) - v_j d2L/dq_j dv_i - L d2L/dz dv_i.

This expands the Herglotz equation d/dt(dL/dv_i) - dL/dq_i =
(dL/dz)(dL/dv_i) along a second order curve with zdot = L.  The test suite
cross-checks the field against the pointwise contact solver on (eta_L, E_L).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import DET_TOL
from .contact import ContactHamiltonianSystem, CoordOneForm, CoordVectorField
from .expr import Expr, StatePoint, evaluate, z
from .extended import (
    ActionFunction, ExtendedLagrangianSystem, _zeta_acceleration_system,
    _zeta_hessian_exprs, extended_lagrangian_form, zeta_energy,
    zeta_herglotz_field,
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


def _extended(sys: ContactLagrangianSystem) -> ExtendedLagrangianSystem:
    """The same system as the extended system (L, zeta = z)."""
    return ExtendedLagrangianSystem(sys.n_dim, sys.L, ActionFunction(z()), sys.params)


def velocity_hessian(sys: ContactLagrangianSystem, p: StatePoint) -> np.ndarray:
    exprs = _zeta_hessian_exprs(sys.L, z(), sys.n_dim)
    return np.array([[evaluate(e, p, sys.params) for e in row] for row in exprs])


def lagrangian_form(sys: ContactLagrangianSystem) -> CoordOneForm:
    """eta_L = dz - (dL/dv_i) dq^i."""
    return extended_lagrangian_form(_extended(sys))


def energy(sys: ContactLagrangianSystem) -> Expr:
    """E_L = v_i dL/dv_i - L."""
    return zeta_energy(_extended(sys))


def regularity(sys: ContactLagrangianSystem, p: StatePoint) -> tuple[float, bool]:
    """Determinant of the velocity Hessian at p and |det| > 1e-10."""
    det = float(np.linalg.det(velocity_hessian(sys, p)))
    return det, abs(det) > DET_TOL


def herglotz_field(sys: ContactLagrangianSystem) -> CoordVectorField:
    """The Herglotz vector field (v, a, L) with symbolic components."""
    return zeta_herglotz_field(_extended(sys))


def _acceleration_rhs_values(sys: ContactLagrangianSystem, p: StatePoint) -> np.ndarray:
    rhs, _ = _zeta_acceleration_system(sys.L, z(), sys.n_dim)
    return np.array([evaluate(e, p, sys.params) for e in rhs])


def herglotz_accelerations(sys: ContactLagrangianSystem, p: StatePoint) -> np.ndarray:
    """Accelerations at p by a dense LU solve; hard error when W is singular."""
    w = velocity_hessian(sys, p)
    det = float(np.linalg.det(w))
    if abs(det) <= DET_TOL:
        raise SingularLagrangianError(
            f"velocity Hessian singular at {p} (det {det:.3e})")
    return np.linalg.solve(w, _acceleration_rhs_values(sys, p))


def herglotz_residual(sys: ContactLagrangianSystem, p: StatePoint,
                      accelerations: np.ndarray) -> np.ndarray:
    """Residual of the Herglotz equation for prescribed accelerations.

    r_i = d/dt(dL/dv_i)|_a - dL/dq_i - (dL/dz)(dL/dv_i) along the second
    order curve (v, a, zdot = L), which is W a - rhs.
    """
    accelerations = np.asarray(accelerations, dtype=float)
    if accelerations.shape != (sys.n_dim,):
        raise ValueError(f"expected {sys.n_dim} accelerations")
    return velocity_hessian(sys, p) @ accelerations - _acceleration_rhs_values(sys, p)


def as_hamiltonian(sys: ContactLagrangianSystem) -> ContactHamiltonianSystem:
    """The contact Hamiltonian system (eta_L, E_L) of a Lagrangian system."""
    return ContactHamiltonianSystem(sys.n_dim, lagrangian_form(sys), energy(sys),
                                    dict(sys.params))
