"""Sample plans, tolerances, check reports and the residual-check engine.

Checks are sampled residual verifications, not symbolic proofs: residuals
at or below ``pass_tol`` pass, residuals at or above ``fail_tol`` fail, and
the band in between yields an "inconclusive" verdict so that near-degenerate
instances are not reported with false certainty.  Identical plans (mode,
bounds, count, seed) always produce the identical point sequence.

Every sampled check runs through :func:`run_check`, which alone decides:

- the defaults: ``Tolerances()`` for ``tol``, and ``SamplePlan()`` with the
  unit box ``[-1, 1]^(2n+1)`` for ``plan`` and for a plan without bounds;
- sampling, with an optional predicate (the action-function frame check);
  a ``SamplingError`` becomes an error report;
- the walk, in plan order: ``point_values(points)`` yields the record values
  of each point, or ``None`` to leave the point out of the report.  Every
  checker hands its points, tuples of their coordinates, to ``_Tape.rows``,
  and :func:`walk_rows` raises a tape's error where the walk reaches it;
- aborting: ``CheckAbort`` raised at point k (or by the ``precheck`` run on
  the whole sample first; :func:`finite` raises one for a non-finite value)
  ends the check with an error report that keeps the records of points
  0..k-1;
- the reduction: the maximum of ``|value|`` over the residual keys (every
  key when none are named).  A non-finite value under a residual key gives
  an error report with ``max_residual`` NaN, never a pass, and so does a
  check that ends with no records at all.

A check whose records are residual magnitudes states them as a table for
:func:`residual_table`, which reduces one tape's rows over the sample, with
NaN propagated as by :func:`max_abs`: a NaN component gives an error report.

All error reports are built by :func:`error_report`.  The module is also the
single home of the numerical thresholds shared by the other modules.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .expr import Expr, ParamSet, StatePoint, tape

__all__ = [
    "Tolerances", "SamplePlan", "CheckReport", "PointRecord", "SamplingError",
    "CheckAbort", "sample_states", "verdict_for", "report_from_records",
    "error_report", "run_check", "residual_table", "max_abs", "finite", "walk_rows",
]

# Points where |dzeta/dz| falls at or below this threshold are rejected when
# a check involves an action-function frame.
FRAME_TOL = 1e-8
# |det| of a velocity Hessian (W or W^zeta) at or below this is singular;
# the default of Tolerances.det_tol.
DET_TOL = 1e-10
# Values at or below this magnitude count as zero when zero sets are compared.
ZERO_TOL = 1e-8
# Indices with |E_i| at or below this are left out of the D_i/E_i ratio tests.
RATIO_EXCLUDE = 1e-6
# Relative residual admitted when the Reeb and Hamiltonian vectors from the
# flat-map solve are checked against the stacked contact system, and in the
# energy pairing |eta(X) + H|.
SOLVE_TOL = 1e-10
# The contact condition fails where the smallest/largest singular value ratio
# of the stacked system [d(eta); eta] is at or below this, or is NaN; no
# flat-map solve runs there.
CONTACT_TOL = 1e-10
# W^zeta counts as not symmetric above this relative asymmetry.
SYMMETRY_TOL = 1e-9
# The zeta-Legendre pullback identity is violated above this residual.
PULLBACK_TOL = 1e-8
# Points with |H| at or below this are left out of conformal factor estimation.
ESTIMATE_TOL = 1e-8
# integrate takes ceil(t_end/dt - STEP_SLACK) steps: round-off in the
# quotient adds no sliver step.
STEP_SLACK = 1e-9
# A sampled curve's times must start at 0 and end at 1 within this.
CURVE_SPAN_TOL = 1e-15
# A trajectory becomes a curve only if its times span [0, 1] within this.
TRAJECTORY_SPAN_TOL = 1e-12
# Defaults of the stationarity probe: sine bumps per coordinate, their
# amplitude, and the relative bound on the directional derivatives.
STAT_PERTURBATIONS, STAT_AMPLITUDE, STAT_TOL = 8, 1e-4, 1e-3

PASS, FAIL, ERROR, INCONCLUSIVE = "pass", "fail", "error", "inconclusive"


class SamplingError(RuntimeError):
    """Predicate rejection exceeded the 10x cap, or a grid count is not k^d."""


def _grid_side(count: int, d: int, error: type[Exception] = SamplingError) -> int:
    """The k with k^d == count; ``error`` when there is none."""
    k = round(count ** (1.0 / d))
    if k ** d != count:
        raise error(f"grid count {count} is not k^{d} for any whole k")
    return k


@dataclass(frozen=True)
class Tolerances:
    pass_tol: float = 1e-8
    fail_tol: float = 1e-4
    det_tol: float = DET_TOL

    def __post_init__(self):
        if not (self.pass_tol > 0 and self.fail_tol > 0 and self.det_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.pass_tol >= self.fail_tol:
            raise ValueError("pass_tol must be smaller than fail_tol")

    def to_dict(self) -> dict:
        return {"pass_tol": self.pass_tol, "fail_tol": self.fail_tol,
                "det_tol": self.det_tol}


def verdict_for(max_residual: float, tol: Tolerances) -> str:
    if max_residual <= tol.pass_tol:
        return PASS
    if max_residual >= tol.fail_tol:
        return FAIL
    return INCONCLUSIVE


def _whole(value) -> int:
    """``value`` as an int, or -1 when it is a bool or operator.index refuses it."""
    try:
        return -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return -1


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic point source: seeded uniform draws or a lattice.  The
    count is a positive integer and the seed a non-negative one, as numpy's
    generators take; neither is a bool."""

    mode: str = "random"            # "random" or "grid"
    bounds: tuple[tuple[float, float], ...] = ()
    count: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("random", "grid"):
            raise ValueError(f"unknown sample mode {self.mode!r}")
        count, seed = _whole(self.count), _whole(self.seed)
        if count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"invalid bounds ({lo}, {hi})")
        if self.mode == "grid" and bounds:
            _grid_side(count, len(bounds), ValueError)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "seed", seed)

    def with_default_bounds(self, n: int) -> "SamplePlan":
        if self.bounds:
            return self
        if self.mode == "grid":
            _grid_side(self.count, 2 * n + 1)
        return SamplePlan(self.mode, tuple((-1.0, 1.0) for _ in range(2 * n + 1)),
                          self.count, self.seed)

    def raw_points(self, limit: int) -> Iterator[Sequence[float]]:
        """Up to ``limit`` candidate coordinate rows, in a fixed order.

        Random rows are drawn ``count`` at a time, one generator call per
        chunk; the doubles and their order are those of row-by-row draws.  A
        grid plan yields its lattice of k points per axis in product order, at
        most once.  Its ``count`` must be k^d: any other count is a ValueError
        with given bounds, and a SamplingError with the chart's default ones.
        """
        d = len(self.bounds)
        if self.mode == "random":
            lo = np.array([b[0] for b in self.bounds])
            span = np.array([b[1] for b in self.bounds]) - lo
            rng = np.random.default_rng(self.seed)
            while limit > 0:
                chunk = min(limit, self.count)
                yield from (lo + span * rng.uniform(size=(chunk, d))).tolist()
                limit -= chunk
        else:
            per_axis = _grid_side(self.count, d)
            axes = [np.linspace(lo, hi, per_axis).tolist() for lo, hi in self.bounds]
            yield from itertools.islice(itertools.product(*axes), limit)

    def to_dict(self) -> dict:
        return {"mode": self.mode, "seed": self.seed,
                "bounds": [list(b) for b in self.bounds], "count": self.count}


def sample_states(plan: SamplePlan, n: int,
                  predicate: Callable[[StatePoint], bool] | None = None
                  ) -> list[StatePoint]:
    """Draw ``plan.count`` chart points, rejecting ones that fail the predicate.

    At most 10x oversampling is attempted before raising SamplingError; the
    accepted sequence is a deterministic function of the plan.
    """
    plan = plan.with_default_bounds(n)
    if len(plan.bounds) != 2 * n + 1:
        raise ValueError(
            f"plan has {len(plan.bounds)} bounds, chart needs {2 * n + 1}")
    states: list[StatePoint] = []
    for row in plan.raw_points(10 * plan.count):
        point = StatePoint.from_coords(row, n)
        if predicate is None or predicate(point):
            states.append(point)
            if len(states) == plan.count:
                return states
    raise SamplingError(
        f"could not draw {plan.count} admissible points within the 10x cap "
        f"({len(states)} accepted)")


@dataclass
class PointRecord:
    point: StatePoint
    values: dict[str, float]

    def to_dict(self) -> dict:
        point, n = self.point, len(self.point) // 2
        return {
            "point": {"q": list(point[:n]), "v": list(point[n:2 * n]), "z": point[2 * n]},
            "values": self.values,
        }


@dataclass
class CheckReport:
    verdict: str
    max_residual: float = 0.0
    records: list[PointRecord] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    tolerances: Tolerances = field(default_factory=Tolerances)
    plan: SamplePlan | None = None
    task: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "tolerances": self.tolerances.to_dict(),
            "sample_plan": self.plan.to_dict() if self.plan else None,
            "residuals": [r.to_dict() for r in self.records],
            "diagnostics": self.diagnostics,
        }


def report_from_records(records: Sequence[PointRecord], tol: Tolerances,
                        plan: SamplePlan | None = None, *,
                        residual_keys: Sequence[str] | None = None) -> CheckReport:
    """Reduce per-point residual records to a verdict report.

    The reduction (maximum over the named residual values, records kept in
    point order) is deterministic.  The first non-finite residual makes the
    report an error naming the point index and the key.
    """
    max_res = 0.0
    for k, rec in enumerate(records):
        for key, value in rec.values.items():
            if residual_keys is not None and key not in residual_keys:
                continue
            value = float(value)
            if not math.isfinite(value):
                return error_report(
                    f"non-finite residual at point {k}: {key} = {value!r}",
                    tol, plan, records)
            max_res = max(max_res, abs(value))
    return CheckReport(verdict=verdict_for(max_res, tol), max_residual=max_res,
                       records=list(records), tolerances=tol, plan=plan)


def error_report(message: str, tol: Tolerances, plan: SamplePlan | None = None,
                 records: Iterable[PointRecord] = ()) -> CheckReport:
    """An undecided check: verdict error, NaN residual, one diagnostic."""
    return CheckReport(verdict=ERROR, max_residual=float("nan"),
                       records=list(records), diagnostics=[message],
                       tolerances=tol, plan=plan)


class CheckAbort(Exception):
    """Raised by a per-point function or a precheck to end a check with an
    error report; the message becomes its diagnostic."""


def run_check(n: int, point_values: Callable[[list[StatePoint]], Iterable[dict | None]],
              plan: SamplePlan | None = None, tol: Tolerances | None = None, *,
              points: Sequence[StatePoint] | None = None,
              predicate: Callable[[StatePoint], bool] | None = None,
              precheck: Callable[[list[StatePoint]], None] | None = None,
              residual_keys: Sequence[str] | None = None) -> CheckReport:
    """Evaluate ``point_values`` over a sample and reduce to a report.

    The points are drawn from ``plan`` (with ``predicate``) unless given
    explicitly as ``points``, in which case the report carries ``plan``
    unchanged.  See the module docstring for the full contract.
    """
    tol = tol or Tolerances()
    if points is None:
        plan = plan or SamplePlan()
        try:
            plan = plan.with_default_bounds(n)
            points = sample_states(plan, n, predicate=predicate)
        except SamplingError as exc:
            return error_report(str(exc), tol, plan)
    records: list[PointRecord] = []
    try:
        if precheck is not None:
            precheck(points)
        for p, values in zip(points, point_values(points)):
            if values is not None:
                records.append(PointRecord(p, values))
    except CheckAbort as exc:
        return error_report(str(exc), tol, plan, records)
    if not records:
        return error_report("no residual records: no sampled point gave values",
                            tol, plan)
    return report_from_records(records, tol, plan, residual_keys=residual_keys)


def max_abs(values: Iterable[float]) -> float:
    """The largest ``|x|`` (0.0 for no values), NaN when any x is NaN."""
    mags = [abs(x) for x in values]
    return math.nan if any(m != m for m in mags) else max(mags, default=0.0)


def finite(k: int, key: str, value: float) -> float:
    """``value``; a CheckAbort naming point ``k`` and ``key`` when it is not finite."""
    if not math.isfinite(value):
        raise CheckAbort(f"non-finite value at point {k}: {key} = {value!r}")
    return value


def walk_rows(rows: tuple[np.ndarray, Exception | None]) -> Iterator[tuple[float, ...]]:
    """A tape's ``rows`` over a sample as float tuples, then its error, if any."""
    values, error = rows
    yield from map(tuple, values.tolist())
    if error is not None:
        raise error


def residual_table(table: Mapping[str, Sequence[Expr]], n: int,
                   params: ParamSet | None = None
                   ) -> Callable[[list[StatePoint]], Iterator[dict[str, float]]]:
    """``point_values`` for :func:`run_check` from a table of residuals.

    ``table`` maps each record key to the expressions whose largest
    ``|value|`` at a point, NaN when any is NaN, is that key's value; all of
    them are lowered into one tape, whose error is raised at its point.
    """
    ends = list(itertools.accumulate(map(len, table.values()), initial=0))
    spans = list(zip(table, ends, ends[1:]))
    run = tape([e for exprs in table.values() for e in exprs], n, params)

    def values(points: list[StatePoint]) -> Iterator[dict[str, float]]:
        rows, error = run.rows(points)
        columns = [abs(rows[:, lo:hi]).max(axis=1, initial=0.0).tolist() for _, lo, hi in spans]
        yield from (dict(zip(table, row)) for row in zip(*columns))
        if error is not None:
            raise error
    return values
