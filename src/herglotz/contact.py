"""Pointwise contact geometry in the global chart (q1..qn, v1..vn, z).

Coordinate one-forms and vector fields are tuples of symbolic components.
The Reeb and Hamiltonian vector fields are obtained pointwise from their
defining linear systems

    i_R d(eta) = 0,        eta(R)  = 1,
    i_X d(eta) = dH - (RH) eta,   eta(X) = -H,

stacked into a (2n+2) x (2n+1) system and solved by least squares with a
residual check.  Each ``ContactHamiltonianSystem`` compiles its contact data
(d(eta) Jacobian, eta, grad H, H) once, and reads its params at that time.
The defining equations, not any printed coordinate
shortcut, are the source of truth; in Darboux coordinates the solution
agrees with X = dH/dp_i d/dq_i - (dH/dq_i + p_i dH/dz) d/dp_i +
(p_i dH/dp_i - H) d/dz.
"""

from __future__ import annotations

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
    """The stacked system [d(eta); eta] is singular at the requested point."""


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
    """Matrix of d(alpha) at p: M[a][b] = d(alpha_b)/dx^a - d(alpha_a)/dx^b."""
    d = 2 * alpha.n_dim + 1
    return _antisymmetrised(evaluate_all(_component_jacobian(alpha), p, params), d)


def _antisymmetrised(jac: tuple[float, ...], d: int) -> np.ndarray:
    """M[a][b] = J[a][b] - J[b][a] from the row-major values of J, upper
    triangle mirrored: exactly antisymmetric, with an exact 0.0 diagonal."""
    m = [[0.0] * d for _ in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            entry = jac[a * d + b] - jac[b * d + a]
            m[a][b] = entry
            m[b][a] = -entry
    return np.array(m)


def _stacked_system(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """Rows (i_X d eta)^T over the coordinate basis, then the eta row."""
    d = 2 * sys.n_dim + 1
    values = sys._form_program(p._flat)
    # (i_X d eta)(d/dx^b) = sum_a X^a M[a][b], so the coefficient matrix is M^T
    return np.vstack([_antisymmetrised(values[:d * d], d).T, values[d * d:]])


def contact_condition(sys: ContactHamiltonianSystem, p: StatePoint
                      ) -> tuple[bool, float]:
    """Numeric contact check at p: smallest/largest singular value ratio,
    which must exceed CONTACT_TOL."""
    matrix = _stacked_system(sys, p)
    svals = np.linalg.svd(matrix, compute_uv=False)
    ratio = svals[-1] / svals[0] if svals[0] > 0 else 0.0
    return ratio > CONTACT_TOL, ratio


def _lstsq_checked(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    residual = np.max(np.abs(matrix @ solution - rhs))
    scale = 1.0 + np.max(np.abs(rhs))
    if residual > SOLVE_TOL * scale:
        raise ContactConditionError(
            f"{what}: inconsistent linear system, residual {residual:.3e}")
    return solution


def _reeb(matrix: np.ndarray) -> np.ndarray:
    """Reeb vector of a stacked system, after the regularity test that every
    later solve with the same matrix relies on."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] / svals[0] <= CONTACT_TOL:
        raise ContactConditionError(
            "reeb_field: stacked system is singular (contact condition fails)")
    rhs = np.zeros(matrix.shape[0])
    rhs[-1] = 1.0
    return _lstsq_checked(matrix, rhs, "reeb_field")


def reeb_field(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """Reeb vector at p: the unique R with i_R d(eta) = 0 and eta(R) = 1."""
    return _reeb(_stacked_system(sys, p))


def hamiltonian_field(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """Hamiltonian vector at p from the defining equations.

    Solves i_X d(eta) = dH - (RH) eta and eta(X) = -H, then verifies the
    energy pairing |eta(X) + H| <= SOLVE_TOL (1 + |H|).
    """
    matrix = _stacked_system(sys, p)
    eta_p = matrix[-1]
    *grad_h, h_val = sys._energy_program(p._flat)
    grad_h = np.array(grad_h)
    rh = float(_reeb(matrix) @ grad_h)
    rhs = np.append(grad_h - rh * eta_p, -h_val)
    x = _lstsq_checked(matrix, rhs, "hamiltonian_field")
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
