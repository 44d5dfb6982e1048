import math

import pytest

from herglotz.checks import (
    CheckAbort, PointRecord, SamplePlan, Tolerances, report_from_records,
    run_check,
)

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
