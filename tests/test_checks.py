import json
import math

import numpy as np
import pytest

from herglotz import equivalence, inverse
from herglotz import expr as ex
from herglotz.checks import (
    CheckAbort, PointRecord, SamplePlan, SamplingError, Tolerances,
    report_from_records, run_check, sample_states,
)
from herglotz.cli import main
from herglotz.expr import StatePoint, parse
from herglotz.fixtures import builtin_plans, builtin_systems

from conftest import per_point, pt

PLAN = SamplePlan("random", tuple((-1.0, 1.0) for _ in range(3)), 5, 11)


def test_abort_keeps_records_of_earlier_points():
    seen = []

    def values(p):
        if len(seen) == 2:
            raise CheckAbort(f"singular at point {len(seen)}")
        seen.append(p)
        return {"defect": 0.0}

    report = run_check(1, per_point(values), PLAN)
    assert report.verdict == "error"
    assert math.isnan(report.max_residual)
    assert report.diagnostics == ["singular at point 2"]
    assert len(report.records) == 2
    assert all(rec.point is p for rec, p in zip(report.records, seen))
    assert report.plan == PLAN


def test_points_left_out_are_not_recorded():
    report = run_check(1, per_point(lambda p: None if p.z < 0 else {"defect": 1e-6}), PLAN)
    assert 0 < len(report.records) < PLAN.count
    assert all(rec.point.z >= 0 for rec in report.records)
    assert report.verdict == "inconclusive"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_residual_is_error(bad):
    records = [PointRecord(pt(0.0, 0.0, 0.0), {"a": 0.0, "b": 0.0}),
               PointRecord(pt(0.1, 0.0, 0.0), {"a": 0.0, "b": bad})]
    report = report_from_records(records, Tolerances())
    assert report.verdict == "error"
    assert math.isnan(report.max_residual)
    assert len(report.records) == 2
    assert report.diagnostics == [f"non-finite residual at point 1: b = {bad!r}"]


def test_non_finite_value_outside_residual_keys_is_ignored():
    records = [PointRecord(pt(0.0, 0.0, 0.0), {"a": 0.0, "b": float("nan")})]
    report = report_from_records(records, Tolerances(), residual_keys=("a",))
    assert report.passed
    assert report.max_residual == 0.0


@pytest.mark.parametrize("points, values", [
    ([], lambda p: {"defect": 0.0}),
    (None, lambda p: None),
], ids=["no-points", "every-point-left-out"])
def test_check_without_records_is_error(points, values):
    report = run_check(1, per_point(values), PLAN, points=points)
    assert report.verdict == "error"
    assert math.isnan(report.max_residual)
    assert report.records == []
    assert report.diagnostics == ["no residual records: no sampled point gave values"]


# ---------------------------------------------------------------------------
# Per-point loops lower nothing: every checker lowers its tapes before its
# points, so the lowerings made inside point functions do not grow with the
# point count (a system's own tapes may be lowered lazily, at the first point).


def checker_runs(plan):
    """One call per checker of equivalence and inverse, on fresh fixtures, so
    that no tape a system holds is left over from another run."""
    reg = builtin_systems()
    return {
        "conformal": lambda: equivalence.conformal_similarity_check(
            reg["saddle"](), reg["saddle_flipped"](), plan=plan),
        "conformal-factor": lambda: equivalence.conformal_similarity_check(
            reg["saddle"](), reg["saddle_shifted"](), parse("1", 1), plan),
        "dynamical": lambda: equivalence.dynamical_equivalence_check(
            reg["saddle"](), reg["saddle_flipped"](), plan),
        "zero-set": lambda: equivalence.zero_set_diagnostic(
            reg["saddle"](), reg["saddle_flipped"](), plan),
        "horizontal": lambda: equivalence.horizontal_similarity_check(
            reg["sode_shear"]().as_field(), reg["sode_shear_projected"]().as_field(),
            reg["zeta_shear"](), plan, {"gam": 0.1}),
        "projectability": lambda: equivalence.projectability_check(
            reg["sode_linear_drag"]().as_field(), plan, {"gam": 0.1}),
        "strong": lambda: equivalence.strong_equivalence_check(
            reg["linear_drag"](), reg["drag_gauge_bar"](), reg["zeta_sin_q"](), plan),
        "general": lambda: equivalence.general_equivalence_check(
            reg["power_gauge_base"](), reg["power_gauge_bar1"](), reg["zeta_v1"](), plan),
        "naive-inverse": lambda: inverse.naive_inverse_check(reg["sode_parachute"](), plan),
        "extended-inverse": lambda: inverse.extended_inverse_check(
            reg["sode_linear_drag"](), reg["zeta_identity"](), plan),
        "di-ei": lambda: inverse.di_ei_diagnostics(reg["sode_parachute"](), plan),
    }


@pytest.fixture
def lowerings_in_points(monkeypatch):
    """Counts of ``expr._lower`` calls made while run_check walks the values
    of its points, and of the points walked."""
    counts = {"lowered": 0, "points": 0}
    depth = [0]
    lower = ex._lower

    def counted_lower(*args):
        counts["lowered"] += depth[0] > 0
        return lower(*args)

    def counted_run_check(n, point_values, *args, **kwargs):
        def values(points):
            depth[0] += 1
            try:
                for record in point_values(points):
                    counts["points"] += 1
                    yield record
            finally:
                depth[0] -= 1
        return run_check(n, values, *args, **kwargs)

    monkeypatch.setattr(ex, "_lower", counted_lower)
    for module in (equivalence, inverse):
        monkeypatch.setattr(module, "run_check", counted_run_check)
    return counts, counted_run_check


@pytest.mark.parametrize("name", sorted(checker_runs(None)))
def test_per_point_loops_lower_nothing(lowerings_in_points, name):
    counts, _ = lowerings_in_points
    seen = []
    for count in (5, 20):
        counts.update(lowered=0, points=0)
        report = checker_runs(SamplePlan("random", (), count, 3))[name]()
        report = getattr(report, "report", report)
        assert report.verdict != "error", report.diagnostics
        assert counts["points"] >= count
        seen.append(counts["lowered"])
    assert seen[0] == seen[1]


def test_the_lowering_count_sees_a_per_point_tape(lowerings_in_points):
    counts, counted_run_check = lowerings_in_points
    for count in (5, 20):
        counts.update(lowered=0)
        counted_run_check(1, per_point(lambda p: {"q1": ex.evaluate(parse("2*q1", 1), p)}),
                          SamplePlan("random", (), count, 3))
        assert counts["lowered"] == count


def test_frame_predicate_lowers_once_per_check(monkeypatch):
    """A zeta-chart check lowers dzeta/dz once for its sampling, not at
    every candidate draw: its lowerings do not grow with the plan."""
    reg = builtin_systems()
    lowered = [0]
    lower = ex._lower

    def counted_lower(*args):
        lowered[0] += 1
        return lower(*args)

    monkeypatch.setattr(ex, "_lower", counted_lower)
    seen = []
    for count in (5, 20):
        lowered[0] = 0
        report = equivalence.strong_equivalence_check(
            reg["linear_drag"](), reg["drag_gauge_bar"](), reg["zeta_sin_q"](),
            SamplePlan("random", (), count, 3))
        assert report.verdict == "pass", report.diagnostics
        seen.append(lowered[0])
    assert seen[0] == seen[1]


# ---------------------------------------------------------------------------
# Sampling


def row_by_row_draws(plan, limit):
    """The random rows as drawn one generator call per row, the reference
    for the chunked draw."""
    lo = np.array([b[0] for b in plan.bounds])
    hi = np.array([b[1] for b in plan.bounds])
    rng = np.random.default_rng(plan.seed)
    return [lo + (hi - lo) * rng.uniform(size=len(plan.bounds)) for _ in range(limit)]


@pytest.mark.parametrize("count, limit", [
    (1, 1), (1, 10), (3, 7), (3, 30), (100, 250), (100, 1000)])
def test_chunked_random_draw_matches_row_by_row(count, limit):
    bounds = ((-1.0, 1.0), (0.0, 3.5), (-2.0, -1.0), (-1e-3, 1e-3), (5.0, 5.0))
    plan = SamplePlan("random", bounds, count, 20260810 + count)
    rows = list(plan.raw_points(limit))
    assert all(type(x) is float for row in rows for x in row)
    assert np.array(rows).tobytes() == np.array(row_by_row_draws(plan, limit)).tobytes()


@pytest.mark.parametrize("count", [1, 3, 100])
def test_sampled_states_match_the_row_by_row_draw(count):
    plan = SamplePlan("random", (), count, 7).with_default_bounds(1)
    keep = lambda p: p.z > -0.5   # noqa: E731
    states = sample_states(plan, 1, keep)
    expected = [p for p in map(lambda row: StatePoint.from_coords(row, 1),
                               row_by_row_draws(plan, 10 * count)) if keep(p)][:count]
    assert states == expected


@pytest.mark.parametrize("n, per_axis", [(1, 5), (1, 2), (2, 2), (1, 3)])
def test_grid_plan_samples_its_full_lattice(n, per_axis):
    d = 2 * n + 1
    plan = SamplePlan("grid", tuple((-1.0, 1.0) for _ in range(d)), per_axis ** d, 0)
    states = sample_states(plan, n)
    assert len(set(states)) == per_axis ** d
    axis = set(np.linspace(-1.0, 1.0, per_axis).tolist())
    for k in range(d):
        assert {p[k] for p in states} == axis


def test_a_plan_whose_bounds_miss_the_action_axis_is_refused():
    plan = SamplePlan("random", ((-1.0, 1.0),) * 2, 10, 0)
    with pytest.raises(ValueError, match="plan has 2 bounds, chart needs 3"):
        sample_states(plan, 1)


def test_builtin_grid_plan_covers_the_box():
    states = sample_states(builtin_plans()["box1_grid"], 1)
    assert len(states) == 125
    for k in range(3):
        assert {p[k] for p in states} == {-1.0, -0.5, 0.0, 0.5, 1.0}


def test_grid_plan_rejection_stays_on_its_lattice():
    plan = SamplePlan("grid", tuple((-1.0, 1.0) for _ in range(3)), 27, 0)
    # the 3 x 3 x 3 lattice in product order, and no point beyond it
    assert list(plan.raw_points(1000)) == [
        (a, b, c) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)
        for c in (-1.0, 0.0, 1.0)]
    with pytest.raises(SamplingError, match=r"\(18 accepted\)"):
        sample_states(plan, 1, lambda p: p.z != 0.0)


@pytest.mark.parametrize("count", [2, 10, 100, 126])
def test_grid_count_that_is_not_a_power_is_rejected(count, tmp_path, capsys):
    """A grid count that is not k^d would read a product-order prefix of a
    larger lattice, which leaves out the upper bound of the first axis."""
    box = ((-1.0, 1.0),) * 3
    with pytest.raises(ValueError, match=f"grid count {count} is not k\\^3"):
        SamplePlan("grid", box, count, 0)
    report = run_check(1, per_point(lambda p: {"defect": 0.0}), SamplePlan("grid", (), count, 0))
    assert report.verdict == "error"
    assert report.diagnostics == [f"grid count {count} is not k^3 for any whole k"]
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(
        {"plans": {"g": {"mode": "grid", "bounds": [list(b) for b in box],
                         "count": count}}}))
    code = main(["--config", str(cfg_path), "--out", str(tmp_path),
                 "herglotz", "--lagrangian", "linear_drag"])
    assert code == 3
    assert "plans.g" in capsys.readouterr().err


def test_grid_plan_of_one_point_is_the_lower_corner():
    plan = SamplePlan("grid", ((0.5, 1.0), (-1.0, 1.0), (2.0, 2.0)), 1, 0)
    assert list(plan.raw_points(10)) == [(0.5, -1.0, 2.0)]
