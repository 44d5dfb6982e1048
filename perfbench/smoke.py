"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload untraced and traced with ``--tiny --seconds 1`` and
checks that every metric of BENCHMARK.json is printed with its unit, that no
operation fails, and that in the written spans the self times of each
operation's spans add up to that operation's traced duration.  Exits 0 when
all checks hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import END_TO_END, WORKLOADS  # noqa: E402
from perfbench.tracer import ROOT as ROOT_SPAN, layer_metric_specs, read_spans  # noqa: E402

SEED = 7


def self_time_gap(spans: list[dict]) -> float:
    """Largest |sum of self times - duration| over the traced operations."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    per_op = defaultdict(float)
    for s, t in zip(spans, own):
        if s["op"] is not None:
            per_op[s["op"]] += t
    roots = [s for s in spans if s["name"] == ROOT_SPAN]
    if not roots:
        raise AssertionError("no operation spans recorded")
    return max(abs(per_op[r["op"]] - (r["end"] - r["start"])) for r in roots)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    declared_layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    problems = []
    if declared_e2e != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if declared_layers != layer_metric_specs():
        problems.append("BENCHMARK.json per_layer differs from tracer.layer_metric_specs()")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in WORKLOADS:
        for trace, declared in ((0, declared_e2e), (1, [d[:2] for d in declared_layers])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
            if printed != declared:
                problems.append(f"{tag}: printed metrics differ from BENCHMARK.json")
            if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            human = "\n".join(lines[:-1])
            for name, unit in END_TO_END:
                if not any(name in line and line.rstrip().endswith(unit)
                           for line in human.splitlines()):
                    problems.append(f"{tag}: {name} not printed with unit {unit}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{tag}: failed_frac = {result['failed']}/{result['attempted']}")
            if trace:
                spans = read_spans(ROOT / ".perfbench" / "traces" / f"{workload}-seed{SEED}.jsonl.gz")
                gap = self_time_gap(spans)
                if gap > 1e-9:
                    problems.append(f"{tag}: self times miss an operation's duration by {gap:.3g} s")
            print(f"{tag}: {result['attempted']} operations, {result['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
