"""Pointwise contact geometry in the global chart (q1..qn, v1..vn, z).

Coordinate one-forms and vector fields are tuples of symbolic components.
The Reeb and Hamiltonian vector fields at a point satisfy

    i_R d(eta) = 0,        eta(R)  = 1,
    i_X d(eta) = dH - (RH) eta,   eta(X) = -H,

a (2n+2) x (2n+1) stacked system [M^T; eta], M the matrix of d(eta).  Where
its singular value ratio exceeds CONTACT_TOL, the flat map
flat(X) = i_X d(eta) + eta(X) eta, of matrix M^T + eta eta^T, is invertible:
one LU solve gives R = flat^-1 eta and X = flat^-1 dH - (RH + H) R, both
checked against the stacked system.  Non-finite contact data never reaches
LAPACK.  A ``ContactHamiltonianSystem`` compiles its contact data once and
reads its params then.  In Darboux coordinates X = dH/dp_i d/dq_i -
(dH/dq_i + p_i dH/dz) d/dp_i + (p_i dH/dp_i - H) d/dz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .checks import CONTACT_TOL, SOLVE_TOL
from .expr import (
    Const, Expr, ParamSet, StatePoint, add, compile_components, coords,
    differentiate, evaluate_all, gradient, mul, neg, unparse, v,
)

__all__ = [
    "CoordOneForm", "CoordVectorField", "ContactHamiltonianSystem",
    "GeometryError", "ContactConditionError", "ZeroCovectorError",
    "exterior_derivative", "reeb_field", "hamiltonian_field",
    "conformal_factor", "contact_condition", "lie_derivative_form",
]


class GeometryError(ValueError):
    pass


class ContactConditionError(GeometryError):
    """No contact solve at the point: [d(eta); eta] fails the singular value
    gate, the contact data is not finite, or a residual check fails."""


class ZeroCovectorError(GeometryError):
    pass


@dataclass(frozen=True)
class _Components:
    """2n+1 symbolic components in chart order; ``kind`` names the object."""

    n_dim: int
    components: tuple[Expr, ...]
    kind = "one-form"

    def __post_init__(self):
        if len(self.components) != 2 * self.n_dim + 1:
            raise GeometryError(
                f"{self.kind} on n={self.n_dim} needs {2 * self.n_dim + 1} components")

    def values(self, p: StatePoint, params: ParamSet | None = None) -> np.ndarray:
        return np.array(evaluate_all(self.components, p, params))


@dataclass(frozen=True)
class CoordOneForm(_Components):
    """One-form alpha = sum a_k dx^k with symbolic coefficients.

    Components are ordered (dq1..dqn, dv1..dvn, dz).
    """

    def pairing(self, field: "CoordVectorField") -> Expr:
        """alpha(X) as a symbolic expression."""
        total: Expr = Const(0.0)
        for a, x in zip(self.components, field.components):
            total = add(total, mul(a, x))
        return total


@dataclass(frozen=True)
class CoordVectorField(_Components):
    """Vector field X = sum X^k d/dx^k with symbolic coefficients.

    Components are ordered (d/dq1..d/dqn, d/dv1..d/dvn, d/dz).
    """

    kind = "vector field"

    def apply(self, f: Expr) -> Expr:
        """Directional derivative X(f) as a symbolic expression."""
        total: Expr = Const(0.0)
        for comp, c in zip(self.components, coords(self.n_dim)):
            total = add(total, mul(comp, differentiate(f, c)))
        return total


def darboux_form(n: int) -> CoordOneForm:
    """The Darboux contact form dz - v_i dq^i (v plays the momentum)."""
    comps = tuple(neg(v(i)) for i in range(1, n + 1)) + \
        tuple(Const(0.0) for _ in range(n)) + (Const(1.0),)
    return CoordOneForm(n, comps)


@dataclass(frozen=True)
class ContactHamiltonianSystem:
    """Contact form eta and Hamiltonian H.  ``params`` are read when the
    contact data is first compiled; no code mutates them afterwards."""

    n_dim: int
    eta: CoordOneForm
    H: Expr
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.eta.n_dim != self.n_dim:
            raise GeometryError("form dimension does not match the system")

    @cached_property
    def _form_program(self):
        """The d(eta) Jacobian entries, row-major, then the eta components."""
        return compile_components((*_component_jacobian(self.eta), *self.eta.components),
                                  self.n_dim, self.params)

    @cached_property
    def _energy_program(self):
        """grad H, then H."""
        return compile_components((*gradient(self.H, self.n_dim), self.H),
                                  self.n_dim, self.params)


def _component_jacobian(form: CoordOneForm) -> tuple[Expr, ...]:
    """d(alpha_b)/dx^a, row-major in (a, b); each entry is a node memo hit
    once built."""
    return tuple(differentiate(comp, c) for c in coords(form.n_dim)
                 for comp in form.components)


def exterior_derivative(alpha: CoordOneForm, p: StatePoint,
                        params: ParamSet | None = None) -> np.ndarray:
    """Matrix of d(alpha) at p: M[a][b] = d(alpha_b)/dx^a - d(alpha_a)/dx^b,
    exactly antisymmetric, with a 0.0 diagonal where the entries are finite."""
    d = 2 * alpha.n_dim + 1
    jac = np.reshape(evaluate_all(_component_jacobian(alpha), p, params), (d, d))
    return jac - jac.T


def _stacked_system(sys: ContactHamiltonianSystem, p: StatePoint
                    ) -> tuple[np.ndarray | None, float]:
    """Rows (i_X d eta)^T over the coordinate basis, then the eta row, and
    their smallest/largest singular value ratio; (None, NaN), without a
    LAPACK call, where a value of d(eta) or eta is not finite."""
    d = 2 * sys.n_dim + 1
    values = np.array(sys._form_program(p._flat))
    if not np.isfinite(values).all():
        return None, math.nan
    jac = values[:d * d].reshape(d, d)
    # (i_X d eta)(d/dx^b) = sum_a X^a M[a][b], so the coefficient matrix is M^T
    matrix = np.vstack([jac.T - jac, values[d * d:]])
    svals = np.linalg.svd(matrix, compute_uv=False)
    return matrix, (svals[-1] / svals[0] if svals[0] > 0 else 0.0)


def contact_condition(sys: ContactHamiltonianSystem, p: StatePoint
                      ) -> tuple[bool, float]:
    """Numeric contact check at p: smallest/largest singular value ratio,
    which must exceed CONTACT_TOL; NaN, failing, where d(eta) or eta is not
    finite."""
    ratio = _stacked_system(sys, p)[1]
    return ratio > CONTACT_TOL, ratio


def _regular_system(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """The stacked system at p, after the tests that every solve with it
    relies on."""
    matrix, ratio = _stacked_system(sys, p)
    if matrix is None:
        raise ContactConditionError(f"d(eta) or eta is not finite at {p}")
    if not ratio > CONTACT_TOL:
        raise ContactConditionError(
            "reeb_field: stacked system is singular (contact condition fails)")
    return matrix


def _flat_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """flat^-1 rhs, for flat(X) = i_X d(eta) + eta(X) eta = (M^T + eta eta^T) X."""
    eta_p = matrix[-1]
    try:
        return np.linalg.solve(matrix[:-1] + np.outer(eta_p, eta_p), rhs)
    except np.linalg.LinAlgError as exc:
        raise ContactConditionError(f"flat map is singular: {exc}") from None


def _residual_checked(matrix: np.ndarray, solution: np.ndarray, rhs: np.ndarray,
                      what: str) -> np.ndarray:
    residual = abs(matrix @ solution - rhs).max()
    if not residual <= SOLVE_TOL * (1.0 + abs(rhs).max()):
        raise ContactConditionError(
            f"{what}: inconsistent linear system, residual {residual:.3e}")
    return solution


def reeb_field(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """Reeb vector at p: the unique R with i_R d(eta) = 0 and eta(R) = 1."""
    matrix = _regular_system(sys, p)
    return _residual_checked(matrix, _flat_solve(matrix, matrix[-1]),
                             np.append(np.zeros(len(matrix) - 1), 1.0), "reeb_field")


def hamiltonian_field(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """Hamiltonian vector at p from the defining equations.

    flat(R) = eta and flat(Y) = dH in one solve; X = Y - (RH + H) R then has
    i_X d(eta) = dH - (RH) eta and eta(X) = -H, which are checked, as is the
    energy pairing |eta(X) + H| <= SOLVE_TOL (1 + |H|).
    """
    matrix = _regular_system(sys, p)
    eta_p = matrix[-1]
    energy = np.array(sys._energy_program(p._flat))
    if not np.isfinite(energy).all():
        raise ContactConditionError(f"H or dH is not finite at {p}")
    grad_h, h_val = energy[:-1], energy[-1]
    reeb, y = _flat_solve(matrix, np.column_stack([eta_p, grad_h])).T
    _residual_checked(matrix, reeb, np.append(np.zeros(len(reeb)), 1.0), "reeb_field")
    rh = float(reeb @ grad_h)
    x = _residual_checked(matrix, y - (rh + h_val) * reeb,
                          np.append(grad_h - rh * eta_p, -h_val), "hamiltonian_field")
    pairing = float(eta_p @ x)
    if abs(pairing + h_val) > SOLVE_TOL * (1.0 + abs(h_val)):
        raise ContactConditionError(
            f"hamiltonian_field: energy pairing violated by {abs(pairing + h_val):.3e}")
    return x


def lie_derivative_form(alpha: CoordOneForm, X: CoordVectorField, p: StatePoint,
                        params: ParamSet | None = None) -> np.ndarray:
    """(L_X alpha) at p via the Cartan formula i_X d(alpha) + d(alpha(X))."""
    deta = exterior_derivative(alpha, p, params)
    d = 2 * alpha.n_dim + 1
    values = evaluate_all((*X.components, *gradient(alpha.pairing(X), alpha.n_dim)),
                          p, params)
    return deta.T @ np.array(values[:d]) + np.array(values[d:])


def conformal_factor(alpha: CoordOneForm, X: CoordVectorField, p: StatePoint,
                     params: ParamSet | None = None) -> tuple[float, float]:
    """Best scalar g with L_X alpha = g alpha at p, and the fit residual.

    g is the least-squares fit of L_X alpha against alpha; the residual is
    the max-norm of L_X alpha - g alpha.
    """
    alpha_p = alpha.values(p, params)
    denom = float(alpha_p @ alpha_p)
    if denom == 0.0:
        raise ZeroCovectorError(
            f"one-form vanishes at {p}; components {[unparse(c) for c in alpha.components]}")
    lie = lie_derivative_form(alpha, X, p, params)
    g = float(lie @ alpha_p) / denom
    residual = float(np.max(np.abs(lie - g * alpha_p)))
    return g, residual
