"""The A/B driver's lock and its BENCH record, without running the benchmark."""

import math
import os
import subprocess
import sys

import pytest

from tests import ab_bench


def test_a_live_lock_refuses_a_second_run_and_a_stale_one_is_taken_over(tmp_path):
    path = tmp_path / "ab.lock"
    with ab_bench.lock(path):
        assert path.read_text() == str(os.getpid())
        with pytest.raises(SystemExit, match=f"pid {os.getpid()}\\) holds"):
            with ab_bench.lock(path):
                pass
    assert not path.exists()
    gone = subprocess.Popen([sys.executable, "-c", "pass"])
    gone.wait()
    path.write_text(str(gone.pid))
    with ab_bench.lock(path):
        assert path.read_text() == str(os.getpid())
    path.write_text("")     # a lock being written
    with pytest.raises(SystemExit, match="holds"):
        with ab_bench.lock(path):
            pass


def _result(scale: float, failed: int = 0) -> dict:
    metrics = {spec["name"]: {"value": scale * (k + 1)}
               for k, spec in enumerate(ab_bench.SPEC["end_to_end"])}
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}


def test_a_workload_record_names_every_metric_of_both_sides():
    results = {"parent": [_result(1.0), _result(1.2), _result(0.9)],
               "change": [_result(1.1), _result(1.0), _result(1.0, failed=1)]}
    record = ab_bench.workload_record([5, 6, 7], results)
    assert record["pairs"] == 3 and record["failed_ops"] == 1 and not record["correct"]
    assert record["attempted_ops"] == record["attempted_ops_parent"] == 30
    for spec in ab_bench.SPEC["end_to_end"]:
        metric = record["metrics"][spec["name"]]
        for side in ("parent", "change"):
            assert math.isfinite(metric[side]["median"]) and math.isfinite(metric[side]["spread"])
        assert metric["parent"]["median"] == metric["change"]["median"]
        assert metric["change_pct"] == 0.0 and metric["within_bound"]
        # lower is better in pair 1 only, higher in pairs 0 and 2
        assert metric["wins"] == ("1/3" if spec["better"] == "lower" else "2/3")
