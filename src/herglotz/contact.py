"""Pointwise contact geometry in the global chart (q1..qn, v1..vn, z).

Coordinate one-forms and vector fields are tuples of symbolic components.
The Reeb and Hamiltonian vector fields are obtained pointwise from their
defining linear systems

    i_R d(eta) = 0,        eta(R)  = 1,
    i_X d(eta) = dH - (RH) eta,   eta(X) = -H,

stacked into a (2n+2) x (2n+1) system and solved by least squares with a
residual check.  The defining equations, not any printed coordinate
shortcut, are the source of truth; in Darboux coordinates the solution
agrees with X = dH/dp_i d/dq_i - (dH/dq_i + p_i dH/dz) d/dp_i +
(p_i dH/dp_i - H) d/dz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .checks import SOLVE_TOL
from .expr import (
    Const, Expr, ParamSet, StatePoint, add, coords, differentiate, evaluate,
    gradient, mul, neg, unparse, v,
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
class CoordOneForm:
    """One-form alpha = sum a_k dx^k with symbolic coefficients.

    Components are ordered (dq1..dqn, dv1..dvn, dz).
    """

    n_dim: int
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != 2 * self.n_dim + 1:
            raise GeometryError(
                f"one-form on n={self.n_dim} needs {2 * self.n_dim + 1} components")

    def values(self, p: StatePoint, params: ParamSet | None = None) -> np.ndarray:
        return np.array([evaluate(c, p, params) for c in self.components])

    def pairing(self, field: "CoordVectorField") -> Expr:
        """alpha(X) as a symbolic expression."""
        total: Expr = Const(0.0)
        for a, x in zip(self.components, field.components):
            total = add(total, mul(a, x))
        return total


@dataclass(frozen=True)
class CoordVectorField:
    """Vector field X = sum X^k d/dx^k with symbolic coefficients.

    Components are ordered (d/dq1..d/dqn, d/dv1..d/dvn, d/dz).
    """

    n_dim: int
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != 2 * self.n_dim + 1:
            raise GeometryError(
                f"vector field on n={self.n_dim} needs {2 * self.n_dim + 1} components")

    def values(self, p: StatePoint, params: ParamSet | None = None) -> np.ndarray:
        return np.array([evaluate(c, p, params) for c in self.components])

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
    n_dim: int
    eta: CoordOneForm
    H: Expr
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.eta.n_dim != self.n_dim:
            raise GeometryError("form dimension does not match the system")


@lru_cache(maxsize=None)
def _component_jacobian(form: CoordOneForm) -> tuple[tuple[Expr, ...], ...]:
    cs = coords(form.n_dim)
    return tuple(tuple(differentiate(comp, c) for comp in form.components)
                 for c in cs)


def exterior_derivative(alpha: CoordOneForm, p: StatePoint,
                        params: ParamSet | None = None) -> np.ndarray:
    """Matrix of d(alpha) at p: M[a][b] = d(alpha_b)/dx^a - d(alpha_a)/dx^b.

    Antisymmetry is enforced structurally (upper triangle mirrored).
    """
    jac_exprs = _component_jacobian(alpha)
    d = 2 * alpha.n_dim + 1
    jac = np.empty((d, d))
    for a in range(d):
        for b in range(d):
            jac[a, b] = evaluate(jac_exprs[a][b], p, params)
    m = np.zeros((d, d))
    for a in range(d):
        for b in range(a + 1, d):
            entry = jac[a, b] - jac[b, a]
            m[a, b] = entry
            m[b, a] = -entry
    return m


def _stacked_system(sys: ContactHamiltonianSystem, p: StatePoint
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (i_X d eta)^T over the coordinate basis, then the eta row."""
    deta = exterior_derivative(sys.eta, p, sys.params)
    eta_p = sys.eta.values(p, sys.params)
    # (i_X d eta)(d/dx^b) = sum_a X^a M[a][b], so the coefficient matrix is M^T
    matrix = np.vstack([deta.T, eta_p])
    return matrix, deta, eta_p


def contact_condition(sys: ContactHamiltonianSystem, p: StatePoint
                      ) -> tuple[bool, float]:
    """Numeric contact check at p: smallest/largest singular value ratio."""
    matrix, _, _ = _stacked_system(sys, p)
    svals = np.linalg.svd(matrix, compute_uv=False)
    ratio = svals[-1] / svals[0] if svals[0] > 0 else 0.0
    return ratio > 1e-10, ratio


def _solve_checked(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] / svals[0] <= 1e-10:
        raise ContactConditionError(
            f"{what}: stacked system is singular (contact condition fails)")
    solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    residual = np.max(np.abs(matrix @ solution - rhs))
    scale = 1.0 + np.max(np.abs(rhs))
    if residual > SOLVE_TOL * scale:
        raise ContactConditionError(
            f"{what}: inconsistent linear system, residual {residual:.3e}")
    return solution


def reeb_field(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """Reeb vector at p: the unique R with i_R d(eta) = 0 and eta(R) = 1."""
    matrix, _, _ = _stacked_system(sys, p)
    rhs = np.zeros(matrix.shape[0])
    rhs[-1] = 1.0
    return _solve_checked(matrix, rhs, "reeb_field")


def hamiltonian_field(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """Hamiltonian vector at p from the defining equations.

    Solves i_X d(eta) = dH - (RH) eta and eta(X) = -H, then verifies the
    energy pairing |eta(X) + H| <= 1e-10 (1 + |H|).
    """
    matrix, _, eta_p = _stacked_system(sys, p)
    n = sys.n_dim
    grad_h = np.array([evaluate(g, p, sys.params) for g in gradient(sys.H, n)])
    h_val = evaluate(sys.H, p, sys.params)
    reeb = _solve_checked(matrix, np.append(np.zeros(2 * n + 1), 1.0), "reeb_field")
    rh = float(reeb @ grad_h)
    rhs = np.append(grad_h - rh * eta_p, -h_val)
    x = _solve_checked(matrix, rhs, "hamiltonian_field")
    pairing = float(eta_p @ x)
    if abs(pairing + h_val) > 1e-10 * (1.0 + abs(h_val)):
        raise ContactConditionError(
            f"hamiltonian_field: energy pairing violated by {abs(pairing + h_val):.3e}")
    return x


def lie_derivative_form(alpha: CoordOneForm, X: CoordVectorField, p: StatePoint,
                        params: ParamSet | None = None) -> np.ndarray:
    """(L_X alpha) at p via the Cartan formula i_X d(alpha) + d(alpha(X))."""
    deta = exterior_derivative(alpha, p, params)
    x_p = X.values(p, params)
    contraction = deta.T @ x_p
    pairing = alpha.pairing(X)
    d_pairing = np.array([evaluate(g, p, params)
                          for g in gradient(pairing, alpha.n_dim)])
    return contraction + d_pairing


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
