"""Numerical dynamics: integral curves, action evaluation, stationarity.

Integration is classical fixed-step RK4 throughout (adaptive stepping is
deliberately avoided so that reports and convergence studies are exactly
reproducible).  Integral curves and the action each render one function
that holds the whole run: the state in locals, the rendered rate statements
in a four-pass stage loop, Python floats in a fixed operation order, and
each state appended to a flat buffer that numpy views without a copy.  A
float error ends the loop, and its stage inputs, run through the tape of
the same lowering, raise the DomainError of the failing node.  The action
of a curve is obtained by integrating the state equation zdot = L(q, v, z)
along the curve with linear interpolation of (q, v) inside each step; the
statements of L that read no z run only where (q, v) moves.  Stationarity
of the action functional is probed with central differences along a fixed
sine-bump basis that vanishes at the endpoints.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence, Union

import numpy as np

from .checks import (CURVE_SPAN_TOL, STAT_AMPLITUDE, STAT_PERTURBATIONS, STAT_TOL,
                     STEP_SLACK, TRAJECTORY_SPAN_TOL, CheckReport, Tolerances,
                     error_report, max_abs, verdict_for)
from .contact import CoordVectorField
from .expr import Expr, ParamSet, StatePoint, render

__all__ = [
    "Trajectory", "SampledCurve", "IntegrationError",
    "integrate", "z_operator", "action", "stationarity_test",
    "trajectory_to_csv", "trajectory_to_curve",
]

FieldLike = Union[CoordVectorField, Callable[[StatePoint], np.ndarray]]
_Rate = Callable[[list[float]], Sequence[float]]   # y -> ydot
# Rows of a trajectory CSV formatted by one ``%``: the text of a block is
# held at once, so memory stays bounded however long the trajectory.
CSV_BLOCK = 512


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
        if not np.all(np.diff(self.times) > 0):
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
        if not np.all(np.diff(times) > 0):
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


def _names(fmt: str, count: int, start: int = 0) -> str:
    """``fmt.format(i=i)`` for i = start.., as a target or value list "a, b, "."""
    return "".join(fmt.format(i=i) + ", " for i in range(start, start + count))


def _rk4_loop(body: list[str], results: list[str], env: dict, row_only: int, m: int,
              w: int = 0) -> Callable[..., None]:
    """Render a whole classical RK4 run as ``loop(y, hs, rows, out)``: from
    the state y of m floats, one step of size h for each h in hs, each new
    state appended to ``out``.  The state lives in locals, and the statements
    ``body`` set the rate ``results`` from the stage inputs x0.. in a
    four-pass stage loop.  With w > 0 the inputs start with a curve row of w
    floats: rows[j] at step j's start, the midpoint 0.5 * (a + b) with the
    next row at the middle stages, and the next row at the end; the state is
    then z alone, and the first ``row_only`` statements, which read no z,
    run once for rows[0] and then at stages 2 and 4, where the row moves:
    stage 3 and the next step's stage 1 reuse their values.  An error in
    ``env``'s FLOAT_ERRORS (none by default) ends the run at its stage: its
    ``tape`` raises."""
    def ys(tail: str = "") -> str:   # y_i and a tail for each i
        return _names("y{i}" + tail, m)

    def indent(lines: list[str], depth: int) -> str:
        return "".join(f"{' ' * depth}{line}\n" for line in lines)

    rate, row, state = "".join(f"{r}, " for r in results), _names("x{i}", w), _names("x{i}", m, w)
    a, b = _names("a{i}", w), _names("b{i}", w)
    free = body[:row_only] if w else []
    steps = (f"        {a}= rows[0]\n        {row}{state}= {a}{ys()}\n{indent(free, 8)}"
             f"        for h, ({b}) in zip(hs, islice(rows, 1, None)):"
             if w else "        for h in hs:")
    moved = f"                if s == 2 or s == 4:\n{indent(free, 20)}" if free else ""
    # after stage s: k_s, then the inputs of stage s + 1
    source = f"""def loop(y, hs, rows, out):
    {ys()}= y
    put = out.extend
    try:
{steps}
            {state}= {ys()}
            for s in (1, 2, 3, 4):
{moved}{indent(body[len(free):], 16)}                if s == 1:
                    {_names('k1_{i}', m)}= {rate}
                    {row}{state}= {_names('0.5 * (a{i} + b{i})', w)}{ys(' + 0.5 * h * k1_{i}')}
                elif s == 2:
                    {_names('k2_{i}', m)}= {rate}
                    {state}= {ys(' + 0.5 * h * k2_{i}')}
                elif s == 3:
                    {_names('k3_{i}', m)}= {rate}
                    {row}{state}= {b}{ys(' + h * k3_{i}')}
                else:
                    {_names('k4_{i}', m)}= {rate}
            {ys()}= {ys(' + (h / 6.0) * (k1_{i} + 2 * k2_{i} + 2 * k3_{i} + k4_{i})')}
            put(({ys()}))
            {f"{a}= {b}" if w else ""}
    except FLOAT_ERRORS:
        tape([{_names('x{i}', w + m)}])
        raise
"""
    env = {"FLOAT_ERRORS": (), **env, "islice": islice}
    exec(compile(source, "<rk4 loop>", "exec"), env)  # noqa: S102
    return env["loop"]


def _rate_loop(rate: _Rate, m: int) -> Callable[..., None]:
    """The RK4 loop whose body calls ``rate`` on the list of stage inputs."""
    call = f"{_names('r{i}', m)}= rate([{_names('x{i}', m)}])"
    return _rk4_loop([call], [f"r{i}" for i in range(m)], {"rate": rate}, 0, m)


def integrate(field: FieldLike, p0: StatePoint, t_end: float, dt: float,
              params: ParamSet | None = None) -> Trajectory:
    """Fixed-step RK4 integral curve from p0.

    The step count is N = ceil(t_end / dt - STEP_SLACK), so round-off in
    the quotient adds no sliver step.  Step k ends at t_k = k * dt and is
    dt long, except the last, which ends exactly at t_N = t_end.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("t_end and dt must be positive")
    n, d = p0.n, 2 * p0.n + 1
    if isinstance(field, CoordVectorField):
        run = _rk4_loop(*render(field.components, n, params), d)
    else:
        run = _rate_loop(lambda y: np.asarray(field(StatePoint.from_coords(y, n))).tolist(), d)
    steps = max(1, math.ceil(t_end / dt - STEP_SLACK))
    times = np.append(np.arange(steps) * dt, t_end)   # t_k = k * dt, then t_end
    states = array("d", p0)
    try:
        run(p0, [dt] * (steps - 1) + [t_end - (steps - 1) * dt], None, states)
    except Exception as exc:
        k = len(states) // d
        partial = _make_trajectory(times[:k], states, n)
        raise IntegrationError(f"field evaluation failed in the step from t = "
                               f"{float(times[k - 1])} to t = {float(times[k])}: {exc}",
                               partial) from exc
    return _make_trajectory(times, states, n)


def _make_trajectory(times: np.ndarray, states: array, n: int) -> Trajectory:
    flat = np.frombuffer(states).reshape(len(times), 2 * n + 1)
    return Trajectory(times, flat[:, :n], flat[:, n:2 * n], flat[:, 2 * n])


def z_operator(L: Expr, curve: SampledCurve, z0: float,
               params: ParamSet | None = None) -> np.ndarray:
    """Solve zdot = L(gamma, gammadot, z), z(0) = z0 on the curve's grid.

    RK4 over the sample grid with linear interpolation of (gamma, gammadot)
    at the half steps.  Passing a zeta-chart Lagrangian makes the returned
    sequence the action coordinate along the lifted curve instead of z.
    """
    return _z_steps(_rk4_loop(*render([L], curve.n, params), 1, 2 * curve.n), curve, z0)


def _z_steps(run, curve: SampledCurve, z0: float) -> np.ndarray:
    """z_operator with its loop already rendered around L."""
    rows = np.hstack([curve.q, curve.velocities()]).tolist()   # (q, v) per sample
    out = array("d", [z0])
    run(out[:1], np.diff(curve.times).tolist(), rows, out)
    return np.frombuffer(out)


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
    bound, and inconclusive in between.  A non-finite action, bound, fail
    bound or D_j makes an error report naming it, never a pass.  At least one
    perturbation is required: a verdict needs a probed direction.
    """
    if n_perturbations < 1:
        raise ValueError(f"n_perturbations must be at least 1, got {n_perturbations!r}")
    run = _rk4_loop(*render([L], curve.n, params), 1, 2 * curve.n)

    def action_of(c: SampledCurve) -> float:   # action() with L rendered once
        return float(_z_steps(run, c, z0)[-1] - z0)

    base_v = curve.velocities()
    base = SampledCurve(curve.times, curve.q, base_v)
    a0 = action_of(base)
    if not math.isfinite(a0):
        return error_report(f"non-finite action = {a0!r}", Tolerances())
    bound = stat_tol * (1.0 + abs(a0))
    diagnostics = [f"action = {a0!r}", f"stationarity bound = {bound!r}"]
    for name, value in (("stationarity bound", bound), ("fail bound", 10.0 * bound)):
        if not math.isfinite(value):
            report = error_report(f"non-finite {name} = {value!r}", Tolerances())
            report.diagnostics += diagnostics
            return report
    t = curve.times
    derivatives: dict[str, float] = {}
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
    tol = Tolerances(pass_tol=bound, fail_tol=10.0 * bound)
    diagnostics += [f"{name} = {value!r}" for name, value in derivatives.items()]
    max_d = max_abs(derivatives.values())
    if not math.isfinite(max_d):
        name = next(name for name, d in derivatives.items() if not math.isfinite(d))
        report = error_report(f"non-finite directional derivative {name} = "
                              f"{derivatives[name]!r}", tol)
        report.diagnostics += diagnostics
        return report
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
        for start in range(0, len(table), CSV_BLOCK):   # bounded text per write
            block = table[start:start + CSV_BLOCK]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
