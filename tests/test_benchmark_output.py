"""The benchmark must be able to measure every change.  A pass that crashes,
an operation that fails, or a metric that turns null or NaN fails here
first; so does a committed BENCH_*.json perf record that does not name every
end-to-end metric of every workload."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _reject(constant):
    raise ValueError(f"non-finite number {constant} in benchmark output")


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


@pytest.mark.parametrize("workload, trace",
                         [(w, 0) for w in WORKLOADS] + [("dense_sweep", 1)])
def test_tiny_benchmark_run_is_correct_and_finite(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--tiny", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True, proc.stdout
    for name in PER_LAYER if trace else END_TO_END:
        assert _is_finite_number(result["metrics"][name]["value"]), name


def test_committed_bench_records_name_every_metric():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(), parse_constant=_reject)
        for workload in WORKLOADS:
            entry = record["workloads"][workload]
            assert entry["seeds"] and entry["pairs"] >= 1, (path.name, workload)
            for name in END_TO_END:
                metric = entry["metrics"][name]
                for side in ("parent", "change"):
                    assert _is_finite_number(metric[side]["median"]), (path.name, workload, name)
                    assert _is_finite_number(metric[side]["spread"]), (path.name, workload, name)
