import math

import pytest

from herglotz import equivalence, inverse
from herglotz import expr as ex
from herglotz.checks import (
    CheckAbort, PointRecord, SamplePlan, Tolerances, report_from_records,
    run_check,
)
from herglotz.expr import parse
from herglotz.fixtures import builtin_systems

from conftest import pt

PLAN = SamplePlan("random", tuple((-1.0, 1.0) for _ in range(3)), 5, 11)


def test_abort_keeps_records_of_earlier_points():
    seen = []

    def values(p):
        if len(seen) == 2:
            raise CheckAbort(f"singular at point {len(seen)}")
        seen.append(p)
        return {"defect": 0.0}

    report = run_check(1, values, PLAN)
    assert report.verdict == "error"
    assert math.isnan(report.max_residual)
    assert report.diagnostics == ["singular at point 2"]
    assert len(report.records) == 2
    assert all(rec.point is p for rec, p in zip(report.records, seen))
    assert report.plan == PLAN


def test_points_left_out_are_not_recorded():
    report = run_check(1, lambda p: None if p.z < 0 else {"defect": 1e-6}, PLAN)
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
    report = run_check(1, values, PLAN, points=points)
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
    """Counts of ``expr._lower`` calls made inside run_check point functions,
    and of point function calls."""
    counts = {"lowered": 0, "points": 0}
    depth = [0]
    lower = ex._lower

    def counted_lower(*args):
        counts["lowered"] += depth[0] > 0
        return lower(*args)

    def counted_run_check(n, point_values, *args, **kwargs):
        def values(p):
            counts["points"] += 1
            depth[0] += 1
            try:
                return point_values(p)
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
        counted_run_check(1, lambda p: {"q1": ex.evaluate(parse("2*q1", 1), p)},
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
