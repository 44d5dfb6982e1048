"""Extended contact systems: reparametrized action coordinates.

An action function zeta(q, v, z) with dzeta/dz != 0 defines an alternative
action coordinate on the chart.  The frame fields of the zeta-chart are

    (d/dq_i)_zeta = d/dq_i - (dzeta/dq_i)/(dzeta/dz) d/dz
    (d/dv_i)_zeta = d/dv_i - (dzeta/dv_i)/(dzeta/dz) d/dz
    d/dzeta       = (1/(dzeta/dz)) d/dz

and every zeta-chart object here is expressed in the single base chart
(q, v, z); the map z -> zeta is never inverted.  For an extended Lagrangian
system (L, zeta) the module builds eta^zeta_L, the zeta-energy, the
zeta-regularity matrix W^zeta, the zeta-Herglotz field and the
zeta-Legendre transform.  The plain contact Lagrangian system is the case
zeta = z: there every frame correction folds to zero, each builder returns
the plain tree (the fibre derivatives, the velocity Hessian W, eta_L, E_L
and the Herglotz field), and the one n x n Cramer solve on W^zeta is the
solve on W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .checks import DET_TOL, FRAME_TOL
from .contact import CoordOneForm, CoordVectorField
from .expr import (
    Const, Coord, Expr, ParamSet, StatePoint, add, coord, coords, depends_on,
    differentiate, div, evaluate, merge_params, mul, q, sub, substitute,
    solve_cramer, v, z,
)

__all__ = [
    "ActionFunction", "ExtendedLagrangianSystem", "FrameError",
    "SingularZetaError", "zeta_frame", "zeta_partial",
    "extended_lagrangian_form", "zeta_regularity", "zeta_energy",
    "zeta_herglotz_field", "zeta_legendre", "zeta_hessian",
    "compose_with_zeta", "legendre_pullback_residual", "herglotz_defects",
]


class FrameError(ValueError):
    """dzeta/dz vanishes (numerically) at a requested point."""


class SingularZetaError(ValueError):
    """W^zeta numerically singular at a requested point."""


@dataclass(frozen=True)
class ActionFunction:
    """An action coordinate zeta(q, v, z); requires dzeta/dz != 0 on the
    working domain (checked pointwise, not globally)."""

    zeta: Expr
    params: dict = field(default_factory=dict)

    @property
    def dz(self) -> Expr:
        return differentiate(self.zeta, z())

    def frame_ok(self, p: StatePoint, extra_params: ParamSet | None = None) -> bool:
        params = merge_params(self.params, extra_params or {})
        return abs(evaluate(self.dz, p, params)) > FRAME_TOL

    def is_strong(self, n: int) -> bool:
        """True when zeta does not reference any velocity coordinate."""
        return not any(depends_on(self.zeta, v(i)) for i in range(1, n + 1))


@dataclass(frozen=True)
class ExtendedLagrangianSystem:
    """(L, zeta) with L given on the base chart (q, v, z)."""

    n_dim: int
    L: Expr
    zeta: ActionFunction
    params: dict = field(default_factory=dict)

    @property
    def all_params(self) -> dict:
        return merge_params(self.params, self.zeta.params)


def _as_var(var: Union[Coord, str]) -> Union[Coord, str]:
    if var == "zeta":
        return "zeta"
    return var if isinstance(var, Coord) else coord(var)


def zeta_partial(f: Expr, zeta: Union[ActionFunction, Expr],
                 var: Union[Coord, str]) -> Expr:
    """Partial derivative of f along the zeta-chart frame fields.

    ``var`` is a coordinate ("q1", "v2", Coord) or the string "zeta" for the
    derivative along the action direction.  Second order zeta-chart
    derivatives are obtained by applying this twice.
    """
    zexpr = zeta.zeta if isinstance(zeta, ActionFunction) else zeta
    dz_zeta = differentiate(zexpr, z())
    var = _as_var(var)
    if var == "zeta":
        return div(differentiate(f, z()), dz_zeta)
    if not isinstance(var, Coord) or var.kind == "z":
        raise ValueError("zeta-chart partials are taken along q_i, v_i or zeta")
    correction = div(differentiate(zexpr, var), dz_zeta)
    if correction == Const(0.0):
        # no d/dz part (always so for zeta = z): df/dz is not built
        return differentiate(f, var)
    return sub(differentiate(f, var), mul(correction, differentiate(f, z())))


def zeta_frame(zeta: ActionFunction, p: StatePoint, n: int,
               extra_params: ParamSet | None = None) -> np.ndarray:
    """Matrix whose columns are the zeta-frame vectors in the base chart.

    Column order: (d/dq1..d/dqn)_zeta, (d/dv1..d/dvn)_zeta, d/dzeta.
    """
    params = merge_params(zeta.params, extra_params or {})
    dz_val = evaluate(zeta.dz, p, params)
    if abs(dz_val) <= FRAME_TOL:
        raise FrameError(f"dzeta/dz = {dz_val:.3e} at {p}")
    d = 2 * n + 1
    frame = np.zeros((d, d))
    for col, c in enumerate(coords(n)[:-1]):
        frame[col, col] = 1.0
        frame[d - 1, col] = -evaluate(differentiate(zeta.zeta, c), p, params) / dz_val
    frame[d - 1, d - 1] = 1.0 / dz_val
    return frame


@lru_cache(maxsize=None)
def _zeta_fibers(L: Expr, zeta: Expr, n: int) -> tuple[Expr, ...]:
    return tuple(zeta_partial(L, zeta, v(i)) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _zeta_hessian_exprs(L: Expr, zeta: Expr, n: int) -> tuple[tuple[Expr, ...], ...]:
    fibers = _zeta_fibers(L, zeta, n)
    return tuple(tuple(zeta_partial(fibers[i], zeta, v(j + 1)) for j in range(n))
                 for i in range(n))


def extended_lagrangian_form(sys: ExtendedLagrangianSystem) -> CoordOneForm:
    """eta^zeta_L = d(zeta) - (dL/dv_i)_zeta dq^i, expanded in the base chart."""
    n = sys.n_dim
    zexpr = sys.zeta.zeta
    fibers = _zeta_fibers(sys.L, zexpr, n)
    dq_parts = tuple(sub(differentiate(zexpr, q(i + 1)), fibers[i])
                     for i in range(n))
    dv_parts = tuple(differentiate(zexpr, v(i)) for i in range(1, n + 1))
    return CoordOneForm(n, dq_parts + dv_parts + (differentiate(zexpr, z()),))


def zeta_hessian(sys: ExtendedLagrangianSystem, p: StatePoint) -> np.ndarray:
    exprs = _zeta_hessian_exprs(sys.L, sys.zeta.zeta, sys.n_dim)
    params = sys.all_params
    return np.array([[evaluate(e, p, params) for e in row] for row in exprs])


def zeta_regularity(sys: ExtendedLagrangianSystem, p: StatePoint
                    ) -> tuple[float, bool]:
    """det W^zeta at p (W^zeta built by applying the frame derivative twice)."""
    if not sys.zeta.frame_ok(p, sys.params):
        raise FrameError(f"dzeta/dz vanishes at {p}")
    w = zeta_hessian(sys, p)
    if w.size and np.max(np.abs(w - w.T)) > 1e-9 * (1.0 + np.max(np.abs(w))):
        raise SingularZetaError(f"W^zeta not symmetric at {p}: {w}")
    det = float(np.linalg.det(w))
    return det, abs(det) > DET_TOL


def zeta_energy(sys: ExtendedLagrangianSystem) -> Expr:
    """E^zeta_L = v_i (dL/dv_i)_zeta - L (the zeta Liouville pairing)."""
    total: Expr = Const(0.0)
    for i, f in enumerate(_zeta_fibers(sys.L, sys.zeta.zeta, sys.n_dim), start=1):
        total = add(total, mul(v(i), f))
    return sub(total, sys.L)


@lru_cache(maxsize=None)
def _zeta_acceleration_system(L: Expr, zeta: Expr, n: int
                              ) -> tuple[tuple[Expr, ...], Expr]:
    """rhs^zeta of W^zeta a = rhs^zeta, and c = L - v_j dzeta/dq_j.

    The zeta-Herglotz equations xi(p_i) = (dL/dq_i)_zeta + (dL/dzeta) p_i,
    p_i = (dL/dv_i)_zeta, and xi(zeta) = L are linear in (a, b).  The last
    gives b = (c - a_j dzeta/dv_j) / (dzeta/dz); eliminating b leaves
    rhs^zeta_i = known_i - (c / (dzeta/dz)) dp_i/dz, L dp_i/dz for zeta = z.
    """
    fibers = _zeta_fibers(L, zeta, n)
    dL_dzeta = zeta_partial(L, zeta, "zeta")
    c: Expr = L
    for j in range(1, n + 1):
        c = sub(c, mul(v(j), differentiate(zeta, q(j))))
    rate = div(c, differentiate(zeta, z()))
    rhs = []
    for i in range(n):
        p_i = fibers[i]
        known: Expr = add(zeta_partial(L, zeta, q(i + 1)), mul(dL_dzeta, p_i))
        for j in range(1, n + 1):
            known = sub(known, mul(v(j), differentiate(p_i, q(j))))
        rhs.append(sub(known, mul(rate, differentiate(p_i, z()))))
    return tuple(rhs), c


@lru_cache(maxsize=None)
def _zeta_herglotz_components(L: Expr, zeta: Expr, n: int) -> tuple[Expr, ...]:
    """(v, a, b): a by Cramer's rule on W^zeta, whose det is its only
    denominator, then b from xi(zeta) = L."""
    rhs, c = _zeta_acceleration_system(L, zeta, n)
    accels, _ = solve_cramer(_zeta_hessian_exprs(L, zeta, n), rhs)
    b = c
    for j in range(n):
        b = sub(b, mul(differentiate(zeta, v(j + 1)), accels[j]))
    b = div(b, differentiate(zeta, z()))
    return tuple(v(i) for i in range(1, n + 1)) + tuple(accels) + (b,)


def zeta_herglotz_field(sys: ExtendedLagrangianSystem) -> CoordVectorField:
    """The zeta-Herglotz vector field with symbolic components.

    Solves the Hamiltonian equations of (eta^zeta_L, E^zeta_L); the test
    suite verifies the pairing eta(xi) = -E, the conformal identity
    L_xi eta = (dL/dzeta) eta, and xi(zeta) = L against the pointwise
    contact solver.
    """
    return CoordVectorField(
        sys.n_dim, _zeta_herglotz_components(sys.L, sys.zeta.zeta, sys.n_dim))


def herglotz_defects(xi: CoordVectorField, L: Expr, zeta: Expr, n: int
                     ) -> tuple[Expr, ...]:
    """xi(p_i) - (dL/dq_i)_zeta - (dL/dzeta) p_i, p_i = (dL/dv_i)_zeta: zero
    where xi satisfies the zeta-Herglotz equations of (L, zeta)."""
    momenta = _zeta_fibers(L, zeta, n)
    dL_dzeta = zeta_partial(L, zeta, "zeta")
    return tuple(sub(sub(xi.apply(momenta[i]), zeta_partial(L, zeta, q(i + 1))),
                     mul(dL_dzeta, momenta[i])) for i in range(n))


def zeta_legendre(sys: ExtendedLagrangianSystem, p: StatePoint
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """Fiber derivative in the zeta-chart: (q, p^zeta_i, zeta value).

    The transform is a strict similarity onto (d(zeta~) - p_i dq^i); the
    pullback identity is checked at p and a residual above 1e-8 raises.
    """
    det, ok = zeta_regularity(sys, p)
    if not ok:
        raise SingularZetaError(f"W^zeta singular at {p} (det {det:.3e})")
    params = sys.all_params
    momenta = np.array([evaluate(f, p, params)
                        for f in _zeta_fibers(sys.L, sys.zeta.zeta, sys.n_dim)])
    zeta_val = evaluate(sys.zeta.zeta, p, params)
    residual = legendre_pullback_residual(sys, p)
    if residual > 1e-8:
        raise SingularZetaError(
            f"Legendre pullback identity violated at {p}: residual {residual:.3e}")
    return p.q.copy(), momenta, zeta_val


def legendre_pullback_residual(sys: ExtendedLagrangianSystem, p: StatePoint) -> float:
    """Max-norm residual of (F^zeta L)^* (d zeta~ - p_i dq^i) = eta^zeta_L at p.

    The pullback through (q, v, z) -> (q, p^zeta(q,v,z), zeta(q,v,z)) has
    base-chart components  d(zeta)/dx^a - sum_i p^zeta_i d(q^i)/dx^a, which
    is evaluated against eta^zeta_L componentwise.
    """
    n = sys.n_dim
    params = sys.all_params
    zexpr = sys.zeta.zeta
    fibers = _zeta_fibers(sys.L, zexpr, n)
    pulled: list[Expr] = []
    for a, c in enumerate(coords(n)):
        term: Expr = differentiate(zexpr, c)
        if a < n:
            # dq^i/dx^a is 1 exactly when x^a = q^i
            term = sub(term, fibers[a])
        pulled.append(term)
    eta = extended_lagrangian_form(sys)
    vals = [abs(evaluate(pc, p, params) - evaluate(ec, p, params))
            for pc, ec in zip(pulled, eta.components)]
    return max(vals)


def compose_with_zeta(expr_in_zeta_chart: Expr, zeta: Union[ActionFunction, Expr]
                      ) -> Expr:
    """Express a zeta-chart function on the base chart.

    A zeta-chart expression uses the last coordinate slot (written ``z``)
    for the action coordinate; composing with the horizontal map
    (q, v, z) -> (q, v, zeta(q, v, z)) is substitution of zeta for it.
    """
    zexpr = zeta.zeta if isinstance(zeta, ActionFunction) else zeta
    return substitute(expr_in_zeta_chart, z(), zexpr)
