"""Pointwise contact geometry in the global chart (q1..qn, v1..vn, z).

Coordinate one-forms and vector fields are tuples of symbolic components.
The Reeb and Hamiltonian vector fields at a point satisfy

    i_R d(eta) = 0,        eta(R)  = 1,
    i_X d(eta) = dH - (RH) eta,   eta(X) = -H,

a (2n+2) x (2n+1) stacked system [M^T; eta], M the matrix of d(eta).  Where
its singular value ratio exceeds CONTACT_TOL, the flat map
flat(X) = i_X d(eta) + eta(X) eta, of matrix M^T + eta eta^T, is invertible:
one LU solve gives R = flat^-1 eta and X = flat^-1 dH - (RH + H) R, both
checked against the stacked system.  ``hamiltonian_fields`` solves a sample
in stacks of at most STACK_DOUBLES doubles, one SVD gate and one LU solve
each, with the bits of a one-point solve, up to the first point that fails
a test, a tape's error included, and returns the rows and that failure as a
tape's ``rows`` does; only a singular flat map sends the sample on one point
at a time.  Non-finite data never reaches LAPACK.  The contact data
is lowered once to two tapes, run over a stack's rows; params are read then.
In Darboux coordinates X = dH/dp_i d/dq_i -
(dH/dq_i + p_i dH/dz) d/dp_i + (p_i dH/dp_i - H) d/dz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .checks import CONTACT_TOL, SOLVE_TOL
from .expr import (
    Const, DomainError, Expr, ParamSet, StatePoint, add, coords, differentiate,
    evaluate_all, gradient, mul, neg, tape, unparse, v,
)

__all__ = [
    "CoordOneForm", "CoordVectorField", "ContactHamiltonianSystem",
    "GeometryError", "ContactConditionError", "ZeroCovectorError",
    "exterior_derivative", "reeb_field", "hamiltonian_field", "hamiltonian_fields",
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
    contact data is first lowered; no code mutates them afterwards."""

    n_dim: int
    eta: CoordOneForm
    H: Expr
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.eta.n_dim != self.n_dim:
            raise GeometryError("form dimension does not match the system")

    @cached_property
    def _form_tape(self):
        """The d(eta) Jacobian entries, row-major, then the eta components."""
        return tape((*_component_jacobian(self.eta), *self.eta.components),
                    self.n_dim, self.params)

    @cached_property
    def _energy_tape(self):
        """grad H, then H."""
        return tape((*gradient(self.H, self.n_dim), self.H), self.n_dim, self.params)


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


# The most doubles in one stack of (2n+2) x (2n+1) systems (8 MB); a point
# takes 40,602 of them at n = 100.
STACK_DOUBLES = 2 ** 20


class _Prefix:
    """The points of a sample before the first failure met, and that failure."""

    def __init__(self, points: list[StatePoint]):
        self.points, self.error = points, None

    def require(self, ok: np.ndarray, values, text: str):
        """Cut at the first point that is not ``ok``: ``text`` with its value."""
        if not ok[:len(self.points)].all():
            k = int(np.argmin(ok))
            self.points = self.points[:k]
            self.error = ContactConditionError(text.format(values[k]))

    def rows(self, run, what: str) -> np.ndarray:
        """A tape's rows, cut at the first point that raises or is not finite."""
        rows, error = run.rows(self.points)
        if error is not None:
            self.points, self.error = self.points[:len(rows)], error
        self.require(np.isfinite(rows).all(axis=-1), self.points, what + " is not finite at {}")
        return rows[:len(self.points)]


def _stacked_systems(sys: ContactHamiltonianSystem, prefix: _Prefix
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The stacked systems [M^T; eta] at the prefix, and their smallest/largest
    singular value ratios from one LAPACK call."""
    d = 2 * sys.n_dim + 1
    stack = prefix.rows(sys._form_tape, "d(eta) or eta").reshape(-1, d + 1, d)
    # rows J[a] = d(eta)/dx^a, then eta; as (i_X d eta)(d/dx^b) = sum_a X^a M[a][b],
    # the coefficient matrix is M^T = J^T - J, written over J
    np.subtract(stack[:, :-1].transpose(0, 2, 1), stack[:, :-1], out=stack[:, :-1])
    svals = np.linalg.svd(stack, compute_uv=False)
    return stack, np.divide(svals[:, -1], svals[:, 0], out=np.zeros(len(stack)),
                            where=svals[:, 0] > 0)


def _solve(sys: ContactHamiltonianSystem, points: list[StatePoint],
           hamiltonian: bool) -> tuple[np.ndarray, Exception | None]:
    """X_H (R without ``hamiltonian``) at the points before the first that
    fails a test, one row each, and that point's ContactConditionError, or
    None.  At a point, in order: the d(eta) and eta tape, the singular value
    gate, the H and dH tape, the flat map, the residual checks of R and X, and
    the pairing |eta(X) + H| <= SOLVE_TOL (1 + |H|).  A singular flat map in
    a stack of several points raises the LinAlgError the stack cannot place."""
    prefix = _Prefix(points)
    stack, ratios = _stacked_systems(sys, prefix)
    prefix.require(ratios > CONTACT_TOL, ratios, "contact condition fails: singular "
                   f"value ratio {{:.3e}} <= CONTACT_TOL {CONTACT_TOL:g}")
    d = stack.shape[2]
    if hamiltonian:
        energy = prefix.rows(sys._energy_tape, "H or dH")
        grad_h, h_val = energy[:, :-1], energy[:, -1]
    stack = stack[:len(prefix.points)]
    eta = stack[:, -1]
    try:    # flat(R) = eta, and flat(Y) = dH, in one solve
        solution = np.linalg.solve(stack[:, :-1] + eta[:, :, None] * eta[:, None, :],
                                   np.stack([eta, grad_h] if hamiltonian else [eta], axis=2))
    except np.linalg.LinAlgError as exc:
        if len(stack) > 1:
            raise
        return np.empty((0, d)), ContactConditionError(f"flat map is singular: {exc}")
    result = reeb = solution[:, :, 0]
    checks = [(reeb, np.eye(d + 1)[-1], "reeb_field")]
    if hamiltonian:     # X = Y - (RH + H) R
        rh = (reeb[:, None, :] @ grad_h[:, :, None])[:, 0, 0]
        result = solution[:, :, 1] - (rh + h_val)[:, None] * reeb
        checks.append((result, np.column_stack([grad_h - rh[:, None] * eta, -h_val]),
                       "hamiltonian_field"))
    for vec, rhs, what in checks:
        residual = abs(stack @ vec[:, :, None] - rhs[..., None]).max(axis=(1, 2))
        prefix.require(residual <= SOLVE_TOL * (1.0 + abs(rhs).max(axis=-1)), residual,
                       what + ": inconsistent linear system, residual {:.3e}")
    if hamiltonian:
        gap = abs((eta[:, None, :] @ result[:, :, None])[:, 0, 0] + h_val)
        prefix.require(~(gap > SOLVE_TOL * (1.0 + abs(h_val))), gap,
                       "hamiltonian_field: energy pairing violated by {:.3e}")
    return result[:len(prefix.points)], prefix.error


def hamiltonian_fields(sys: ContactHamiltonianSystem, points: list[StatePoint]
                       ) -> tuple[np.ndarray, Exception | None]:
    """X_H at the points before the first where :func:`hamiltonian_field`
    raises, one row each, and that exception, or None; no later point is
    solved.  Each chunk of at most STACK_DOUBLES doubles is one stacked solve
    until a LinAlgError that the stack cannot place, after which the points
    are solved one at a time."""
    d = 2 * sys.n_dim + 1
    size, done, error = max(1, STACK_DOUBLES // ((d + 1) * d)), 0, None
    parts = [np.empty((0, d))]
    while error is None and done < len(points):
        try:
            solved, error = _solve(sys, points[done:done + size], True)
        except np.linalg.LinAlgError as exc:    # a singular flat map in a stack
            if size == 1:
                return np.concatenate(parts), exc
            size = 1
            continue
        parts.append(solved)
        done += len(solved)
    return np.concatenate(parts), error


def contact_condition(sys: ContactHamiltonianSystem, p: StatePoint
                      ) -> tuple[bool, float]:
    """Numeric contact check at p: smallest/largest singular value ratio,
    which must exceed CONTACT_TOL; NaN, failing, where d(eta) or eta is not
    finite; a tape's DomainError there is raised."""
    prefix = _Prefix([p])
    ratios = _stacked_systems(sys, prefix)[1]
    if isinstance(prefix.error, DomainError):
        raise prefix.error
    return (ratios[0] > CONTACT_TOL, ratios[0]) if len(ratios) else (False, math.nan)


def _at(sys: ContactHamiltonianSystem, p: StatePoint, hamiltonian: bool) -> np.ndarray:
    result, error = _solve(sys, [p], hamiltonian)
    if error is not None:
        raise error
    return result[0]


def reeb_field(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """Reeb vector at p: the unique R with i_R d(eta) = 0 and eta(R) = 1."""
    return _at(sys, p, hamiltonian=False)


def hamiltonian_field(sys: ContactHamiltonianSystem, p: StatePoint) -> np.ndarray:
    """Hamiltonian vector at p from the defining equations: i_X d(eta) =
    dH - (RH) eta and eta(X) = -H (see the module docstring)."""
    return _at(sys, p, hamiltonian=True)


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
