"""Numerical dynamics: integral curves, action evaluation, stationarity.

Integration is classical fixed-step RK4 throughout (adaptive stepping is
deliberately avoided so that reports and convergence studies are exactly
reproducible).  The action of a curve is obtained by integrating the state
equation zdot = L(q, v, z) along the curve with linear interpolation of
(q, v) inside each step; stationarity of the action functional is probed
with central differences along a fixed sine-bump basis that vanishes at the
endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .checks import CheckReport, Tolerances, verdict_for
from .contact import CoordVectorField
from .expr import Expr, ParamSet, StatePoint, compile_components

__all__ = [
    "Trajectory", "SampledCurve", "IntegrationError",
    "integrate", "z_operator", "action", "stationarity_test",
    "trajectory_to_csv", "trajectory_to_curve",
]

FieldLike = Union[CoordVectorField, Callable[[StatePoint], np.ndarray]]


class IntegrationError(RuntimeError):
    """Evaluation failed mid-trajectory; carries the last good prefix."""

    def __init__(self, message: str, partial: "Trajectory"):
        super().__init__(f"{message} (last good t = {float(partial.times[-1])!r})")
        self.partial = partial


@dataclass(frozen=True)
class Trajectory:
    """States along an integral curve; times strictly increasing."""

    times: np.ndarray       # (m,)
    q: np.ndarray           # (m, n)
    v: np.ndarray           # (m, n)
    z: np.ndarray           # (m,)

    def __post_init__(self):
        if not (len(self.times) == len(self.q) == len(self.v) == len(self.z)):
            raise ValueError("trajectory arrays must have uniform length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.q.shape[1]

    def state(self, k: int) -> StatePoint:
        return StatePoint(self.q[k], self.v[k], self.z[k])

    def states(self):
        return (self.state(k) for k in range(len(self.times)))


@dataclass(frozen=True)
class SampledCurve:
    """A path in configuration space sampled on [0, 1].

    Velocities are optional; when omitted they are reconstructed by centered
    finite differences (one-sided at the endpoints).
    """

    times: np.ndarray       # (m,), t0 = 0, t_end = 1, strictly increasing
    q: np.ndarray           # (m, n)
    v: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        qa = np.atleast_2d(np.asarray(self.q, dtype=float))
        if qa.shape[0] != len(times):
            raise ValueError("q must have one row per sample time")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not (math.isclose(times[0], 0.0, abs_tol=1e-15)
                and math.isclose(times[-1], 1.0, abs_tol=1e-15)):
            raise ValueError("curves are sampled on [0, 1]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "q", qa)
        if self.v is not None:
            va = np.atleast_2d(np.asarray(self.v, dtype=float))
            if va.shape != qa.shape:
                raise ValueError("v must match the shape of q")
            object.__setattr__(self, "v", va)

    @property
    def n(self) -> int:
        return self.q.shape[1]

    def velocities(self) -> np.ndarray:
        if self.v is not None:
            return self.v
        t, qa = self.times, self.q
        out = np.empty_like(qa)
        out[0] = (qa[1] - qa[0]) / (t[1] - t[0])
        out[-1] = (qa[-1] - qa[-2]) / (t[-1] - t[-2])
        out[1:-1] = (qa[2:] - qa[:-2]) / (t[2:] - t[:-2])[:, None]
        return out


def _field_fn(field: FieldLike, n: int, params: ParamSet | None
              ) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(field, CoordVectorField):
        compiled = compile_components(field.components, n, params)
        return lambda y: np.asarray(compiled(y))
    return lambda y: np.asarray(field(StatePoint.from_coords(y, n)))


def integrate(field: FieldLike, p0: StatePoint, t_end: float, dt: float,
              params: ParamSet | None = None) -> Trajectory:
    """Fixed-step RK4 integral curve from p0; the final step is shortened
    so the trajectory ends exactly at t_end."""
    if dt <= 0 or t_end <= 0:
        raise ValueError("t_end and dt must be positive")
    n = p0.n
    fn = _field_fn(field, n, params)
    times = [0.0]
    states = [p0.coords()]
    t = 0.0
    y = p0.coords()
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        try:
            k1 = fn(y)
            k2 = fn(y + 0.5 * h * k1)
            k3 = fn(y + 0.5 * h * k2)
            k4 = fn(y + h * k3)
        except Exception as exc:
            partial = _make_trajectory(times, states, n)
            raise IntegrationError(f"field evaluation failed at t = {t + h}: {exc}",
                                   partial) from exc
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        times.append(t)
        states.append(y)
    return _make_trajectory(times, states, n)


def _make_trajectory(times: Sequence[float], states: Sequence[np.ndarray],
                     n: int) -> Trajectory:
    arr = np.asarray(states)
    return Trajectory(np.asarray(times, dtype=float),
                      arr[:, :n], arr[:, n:2 * n], arr[:, 2 * n])


def z_operator(L: Expr, curve: SampledCurve, z0: float,
               params: ParamSet | None = None) -> np.ndarray:
    """Solve zdot = L(gamma, gammadot, z), z(0) = z0 on the curve's grid.

    RK4 over the sample grid with linear interpolation of (gamma, gammadot)
    at the half steps.  Passing a zeta-chart Lagrangian makes the returned
    sequence the action coordinate along the lifted curve instead of z.
    """
    n = curve.n
    fn = compile_components([L], n, params)
    qs = curve.q
    vs = curve.velocities()
    t = curve.times
    out = np.empty(len(t))
    out[0] = z0
    zc = float(z0)

    def rate(qrow, vrow, zval):
        return fn(tuple(qrow) + tuple(vrow) + (zval,))[0]

    for k in range(len(t) - 1):
        h = t[k + 1] - t[k]
        q0, q1 = qs[k], qs[k + 1]
        v0, v1 = vs[k], vs[k + 1]
        qm, vm = 0.5 * (q0 + q1), 0.5 * (v0 + v1)
        k1 = rate(q0, v0, zc)
        k2 = rate(qm, vm, zc + 0.5 * h * k1)
        k3 = rate(qm, vm, zc + 0.5 * h * k2)
        k4 = rate(q1, v1, zc + h * k3)
        zc += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = zc
    return out


def action(L: Expr, curve: SampledCurve, z0: float,
           params: ParamSet | None = None) -> float:
    """Action of a curve: final value of the state equation minus z0."""
    return float(z_operator(L, curve, z0, params)[-1] - z0)


def stationarity_test(L: Expr, curve: SampledCurve, z0: float,
                      n_perturbations: int = 8, amplitude: float = 1e-4,
                      stat_tol: float = 1e-3,
                      params: ParamSet | None = None) -> CheckReport:
    """Probe stationarity of the action at a curve with fixed endpoints.

    Directional derivatives are central differences along the sine bumps
    sin(j pi t), j = 1..n_perturbations, applied per configuration
    coordinate with analytic velocity perturbations.  The verdict is a pass
    when max |D_j| <= stat_tol (1 + |action|), a fail above ten times that
    bound, and inconclusive in between.  At least one perturbation is
    required: a verdict needs a probed direction.
    """
    if n_perturbations < 1:
        raise ValueError(f"n_perturbations must be at least 1, got {n_perturbations!r}")
    base_v = curve.velocities()
    base = SampledCurve(curve.times, curve.q, base_v)
    a0 = action(L, base, z0, params)
    bound = stat_tol * (1.0 + abs(a0))
    t = curve.times
    derivatives: dict[str, float] = {}
    max_d = 0.0
    for j in range(1, n_perturbations + 1):
        bump = np.sin(j * math.pi * t)
        bump_rate = j * math.pi * np.cos(j * math.pi * t)
        for c in range(curve.n):
            dq = np.zeros_like(curve.q)
            dv = np.zeros_like(base_v)
            dq[:, c] = bump
            dv[:, c] = bump_rate
            plus = SampledCurve(t, curve.q + amplitude * dq, base_v + amplitude * dv)
            minus = SampledCurve(t, curve.q - amplitude * dq, base_v - amplitude * dv)
            d = (action(L, plus, z0, params) - action(L, minus, z0, params)) \
                / (2.0 * amplitude)
            derivatives[f"D[j={j},q{c + 1}]"] = d
            max_d = max(max_d, abs(d))
    tol = Tolerances(pass_tol=bound, fail_tol=10.0 * bound)
    diagnostics = [f"action = {a0!r}", f"stationarity bound = {bound!r}"]
    diagnostics += [f"{name} = {value!r}" for name, value in derivatives.items()]
    return CheckReport(verdict=verdict_for(max_d, tol), max_residual=max_d,
                       diagnostics=diagnostics, tolerances=tol)


def trajectory_to_curve(traj: Trajectory) -> SampledCurve:
    """Project a trajectory on [0, 1] to its configuration curve, keeping
    the integrated velocities as analytic curve velocities."""
    t = traj.times
    scaled = (t - t[0]) / (t[-1] - t[0])
    # velocities are with respect to the original time; require unit span
    if not (math.isclose(t[0], 0.0, abs_tol=1e-12)
            and math.isclose(t[-1], 1.0, abs_tol=1e-12)):
        raise ValueError("trajectory must span [0, 1] to become a curve")
    return SampledCurve(scaled, traj.q.copy(), traj.v.copy())


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Serialize with header t,q1..qn,v1..vn,z at 17 significant digits."""
    n = traj.n
    header = ["t"] + [f"q{i}" for i in range(1, n + 1)] \
        + [f"v{i}" for i in range(1, n + 1)] + ["z"]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(len(traj.times)):
            row = [traj.times[k], *traj.q[k], *traj.v[k], traj.z[k]]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
