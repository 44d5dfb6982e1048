"""Numerical dynamics: integral curves, action evaluation, stationarity.

Integration is classical fixed-step RK4 throughout (adaptive stepping is
deliberately avoided so that reports and convergence studies are exactly
reproducible).  Integral curves and the action each render one step as
straight-line Python around the rate program, on Python floats in a fixed
operation order.  The action of a curve is obtained by integrating the
state equation zdot = L(q, v, z) along the curve with linear interpolation
of (q, v) inside each step; stationarity of the action functional is
probed with central differences along a fixed sine-bump basis that
vanishes at the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .checks import (CURVE_SPAN_TOL, STAT_AMPLITUDE, STAT_PERTURBATIONS, STAT_TOL,
                     STEP_SLACK, TRAJECTORY_SPAN_TOL, CheckReport, Tolerances,
                     verdict_for)
from .contact import CoordVectorField
from .expr import Expr, ParamSet, StatePoint, compile_components

__all__ = [
    "Trajectory", "SampledCurve", "IntegrationError",
    "integrate", "z_operator", "action", "stationarity_test",
    "trajectory_to_csv", "trajectory_to_curve",
]

FieldLike = Union[CoordVectorField, Callable[[StatePoint], np.ndarray]]
_Rate = Callable[[list[float]], Sequence[float]]   # y -> ydot


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

    def states(self):
        n = self.n
        rows = np.column_stack([self.q, self.v, self.z]).tolist()
        return (StatePoint.from_coords(row, n) for row in rows)


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
        if not (math.isclose(times[0], 0.0, abs_tol=CURVE_SPAN_TOL)
                and math.isclose(times[-1], 1.0, abs_tol=CURVE_SPAN_TOL)):
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


def _rk4_program(rate: _Rate, m: int, along_curve: bool = False) -> Callable[..., list[float]]:
    """One classical RK4 step of m floats as straight-line Python around
    ``rate``: ``step(y, h)``, or ``step(r0, r1, y, h)``, whose stages feed
    rate a curve row and then y: r0 at the step start, the midpoint
    0.5 * (r0 + r1) at the middle stages and r1 at the end."""
    ys = "".join(f"y{i}, " for i in range(m))
    stages = [ys] + ["".join(f"y{i} + {c}h * k{j}_{i}, " for i in range(m))
                     for j, c in ((1, "0.5 * "), (2, "0.5 * "), (3, ""))]
    rows = ("r0 + ", "rm + ", "rm + ", "r1 + ") if along_curve else ("",) * 4
    lines = [f"def step({'r0, r1, ' * along_curve}y, h):", f"    {ys}= y"] \
        + ["    rm = [0.5 * (a + b) for a, b in zip(r0, r1)]"] * along_curve
    for j, (row, stage) in enumerate(zip(rows, stages), 1):
        lines.append(f"    {''.join(f'k{j}_{i}, ' for i in range(m))}= rate({row}[{stage}])")
    update = "".join(f"y{i} + (h / 6.0) * (k1_{i} + 2 * k2_{i} + 2 * k3_{i} + k4_{i}), "
                     for i in range(m))
    lines.append(f"    return [{update}]")
    env = {"rate": rate}
    exec(compile("\n".join(lines), "<rk4 step>", "exec"), env)  # noqa: S102
    return env["step"]


def _field_rate(field: FieldLike, n: int, params: ParamSet | None) -> _Rate:
    """The rate a step program calls: the compiled components, which raise
    a DomainError naming the failing subtree, or the callable field on a
    StatePoint."""
    if isinstance(field, CoordVectorField):
        return compile_components(field.components, n, params)
    return lambda y: np.asarray(field(StatePoint.from_coords(y, n))).tolist()


def integrate(field: FieldLike, p0: StatePoint, t_end: float, dt: float,
              params: ParamSet | None = None) -> Trajectory:
    """Fixed-step RK4 integral curve from p0.

    The step count is N = ceil(t_end / dt - STEP_SLACK), so round-off in
    the quotient adds no sliver step.  Step k ends at t_k = k * dt and is
    dt long, except the last, which ends exactly at t_N = t_end.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("t_end and dt must be positive")
    n = p0.n
    step = _rk4_program(_field_rate(field, n, params), 2 * n + 1)
    steps = max(1, math.ceil(t_end / dt - STEP_SLACK))
    times = np.empty(steps + 1)
    states = np.empty((steps + 1, 2 * n + 1))
    y = list(p0._flat)
    times[0], states[0] = 0.0, y
    for k in range(1, steps + 1):
        t, h = (k * dt, dt) if k < steps else (t_end, t_end - (steps - 1) * dt)
        try:
            y = step(y, h)
        except Exception as exc:
            partial = _make_trajectory(times[:k], states[:k], n)
            raise IntegrationError(f"field evaluation failed at t = {t}: {exc}",
                                   partial) from exc
        times[k], states[k] = t, y
    return _make_trajectory(times, states, n)


def _make_trajectory(times: np.ndarray, states: np.ndarray, n: int) -> Trajectory:
    return Trajectory(times, states[:, :n], states[:, n:2 * n], states[:, 2 * n])


def z_operator(L: Expr, curve: SampledCurve, z0: float,
               params: ParamSet | None = None) -> np.ndarray:
    """Solve zdot = L(gamma, gammadot, z), z(0) = z0 on the curve's grid.

    RK4 over the sample grid with linear interpolation of (gamma, gammadot)
    at the half steps.  Passing a zeta-chart Lagrangian makes the returned
    sequence the action coordinate along the lifted curve instead of z.
    """
    rate = compile_components([L], curve.n, params)
    return _z_steps(_rk4_program(rate, 1, True), curve, z0)


def _z_steps(step, curve: SampledCurve, z0: float) -> np.ndarray:
    """z_operator with its step already rendered around compiled L."""
    t = curve.times.tolist()
    rows = np.hstack([curve.q, curve.velocities()]).tolist()   # (q, v) per sample
    out = np.empty(len(t))
    out[0] = z0
    y = [float(z0)]
    for k in range(len(t) - 1):
        y = step(rows[k], rows[k + 1], y, t[k + 1] - t[k])
        out[k + 1] = y[0]
    return out


def action(L: Expr, curve: SampledCurve, z0: float,
           params: ParamSet | None = None) -> float:
    """Action of a curve: final value of the state equation minus z0."""
    return float(z_operator(L, curve, z0, params)[-1] - z0)


def stationarity_test(L: Expr, curve: SampledCurve, z0: float,
                      n_perturbations: int = STAT_PERTURBATIONS,
                      amplitude: float = STAT_AMPLITUDE, stat_tol: float = STAT_TOL,
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
    step = _rk4_program(compile_components([L], curve.n, params), 1, True)

    def action_of(c: SampledCurve) -> float:   # action() with L compiled once
        return float(_z_steps(step, c, z0)[-1] - z0)

    base_v = curve.velocities()
    base = SampledCurve(curve.times, curve.q, base_v)
    a0 = action_of(base)
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
            d = (action_of(plus) - action_of(minus)) / (2.0 * amplitude)
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
    if not (math.isclose(t[0], 0.0, abs_tol=TRAJECTORY_SPAN_TOL)
            and math.isclose(t[-1], 1.0, abs_tol=TRAJECTORY_SPAN_TOL)):
        raise ValueError("trajectory must span [0, 1] to become a curve")
    return SampledCurve(scaled, traj.q.copy(), traj.v.copy())


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Serialize with header t,q1..qn,v1..vn,z at 17 significant digits."""
    n = traj.n
    header = ["t"] + [f"q{i}" for i in range(1, n + 1)] \
        + [f"v{i}" for i in range(1, n + 1)] + ["z"]
    table = np.column_stack([traj.times, traj.q, traj.v, traj.z])
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:   # row by row: a whole-table tolist() raises peak memory
            fh.write(line % tuple(row.tolist()))
