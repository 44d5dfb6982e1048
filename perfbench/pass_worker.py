"""One benchmark pass in a fresh interpreter.

Usage (from the repository root; ``run.py`` spawns it):

    python3 perfbench/pass_worker.py --workload NAME --seed N --out DIR
        [--trace-file PATH] [--tiny] [--sweep]

Set-up imports the program from ``src`` and builds the workload's inputs;
the pass then runs every operation once, one at a time, timing the
reference workload between operations.  The last line of standard output is
a JSON object with the set-up end (``time.monotonic``, comparable with the
parent's clock), the pass wall time, one record per operation with its raw
and scaled time, the reference samples, the peak RSS and, when traced, the
per-layer metrics.  With
``--sweep`` the process instead measures the dense family n = 1..6: build
time, a1 tree and unique node counts, and one-point evaluation time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# Nominal time of one Reference.sample().  Operation and pass times are also
# reported scaled to it, which removes most of the machine's drift in speed
# between runs (see README.md).
REFERENCE_S = 0.007
SAMPLE_EVERY_S = 0.1


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _nonfinite(values) -> bool:
    return any(isinstance(x, float) and not math.isfinite(x) for x in values)


def _record(label, expected, seconds, scale, outcome=None, error=None) -> dict:
    rec = {"label": label, "expected": expected, "s": seconds, "scaled_s": seconds * scale,
           "error": error, "verdict": None, "nonfinite": False, "body": None,
           "points": 0, "steps": 0}
    if outcome is not None:
        rec.update(verdict=outcome.verdict, body=outcome.body, points=outcome.points,
                   steps=outcome.steps,
                   nonfinite=outcome.verdict == "pass" and _nonfinite(outcome.values))
    return rec


class Pass:
    """Runs operations one at a time and times each.

    Between operations, at most every SAMPLE_EVERY_S, it times the reference
    loop; an operation's scale is REFERENCE_S over the mean of the samples
    just before and just after it.  Sampling time is kept out of the wall
    time.
    """

    def __init__(self, tracer, reference: Reference):
        self.tracer = tracer
        self.reference = reference
        self.samples: list[tuple[float, float]] = []   # (taken at, reference s)
        self.sampling_s = 0.0
        self.windows: dict[str, tuple[float, float]] = {}

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= SAMPLE_EVERY_S:
            ref = self.reference.sample()
            done = time.perf_counter()
            self.samples.append((done, ref))
            self.sampling_s += done - now

    def timed(self, label: str, fn):
        """(result, exception) of fn(), timed as operation ``label``."""
        self.sample()
        rec = self.tracer.begin_op(label) if self.tracer else None
        start = time.perf_counter()
        try:
            return fn(), None
        except Exception as exc:  # a raising operation is a failed one, not a crash
            return None, exc
        finally:
            self.windows[label] = (start, time.perf_counter())
            if rec is not None:
                self.tracer.end_op(rec)

    def seconds(self, label: str) -> tuple[float, float]:
        """Raw seconds of an operation and its scale to the reference speed."""
        start, end = self.windows[label]
        before = [r for t, r in self.samples if t <= start][-1:]
        after = [r for t, r in self.samples if t >= end][:1]
        return end - start, REFERENCE_S / statistics.mean(before + after)

    def run(self, body) -> dict:
        start = time.perf_counter()
        body()
        self.sample(force=True)
        wall = time.perf_counter() - start - self.sampling_s
        # operations scale by their own samples, the time between them by the
        # pass's median sample
        raw_ops = scaled_ops = 0.0
        for label in self.windows:
            seconds, scale = self.seconds(label)
            raw_ops += seconds
            scaled_ops += seconds * scale
        scale = REFERENCE_S / statistics.median(r for _, r in self.samples)
        return {"wall_s": wall, "scaled_wall_s": scaled_ops + (wall - raw_ops) * scale,
                "reference_s": [r for _, r in self.samples]}


def run_generated(ops, tracer, reference) -> tuple[list, dict]:
    timer = Pass(tracer, reference)
    results = {}

    def body():
        for op in ops:
            results[op.label] = timer.timed(op.label, op.run)

    summary = timer.run(body)
    records = []
    for op in ops:
        outcome, exc = results[op.label]
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        records.append(_record(op.label, op.expected, *timer.seconds(op.label), outcome, error))
    return records, summary


def run_batch(out_dir: Path, tracer, reference) -> tuple[list, dict]:
    """The built-in suite exactly as ``herglotz batch --out DIR`` runs it;
    each task is timed by wrapping ``cli.run_task`` from outside."""
    from herglotz import cli
    from perfbench.workloads import BATCH_EXPECTED_FAIL, Outcome, digest

    timer = Pass(tracer, reference)
    run_task = cli.run_task

    def timed_run_task(cfg, command, args, out, tag):
        result, exc = timer.timed(tag, lambda: run_task(cfg, command, args, out, tag))
        if exc is not None:
            raise exc
        return result

    def body():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["batch", "--out", str(out_dir)])

    cli.run_task = timed_run_task
    summary = timer.run(body)
    cli.run_task = run_task

    records = []
    for task in cli.default_tasks():
        tag = f"{task['command']}_{task['tag']}"
        expected = "fail" if tag in BATCH_EXPECTED_FAIL else "pass"
        path = out_dir / f"{tag}.json"
        if tag not in timer.windows or not path.exists():
            records.append(_record(tag, expected, 0.0, 1.0,
                                   error="task did not run or wrote no report"))
            continue
        data = json.loads(path.read_text())
        data.pop("metadata", None)
        values = [data["max_residual"]] + [x for rec in data["residuals"]
                                            for x in rec["values"].values()]
        csv_path = out_dir / f"{tag}.csv"
        extra = csv_path.read_bytes() if task["command"] == "simulate" else b""
        outcome = Outcome(data["verdict"], digest(json.dumps(data, sort_keys=True), extra),
                          values, len(data["residuals"]), max(extra.count(b"\n") - 2, 0))
        records.append(_record(tag, expected, *timer.seconds(tag), outcome))
    return records, summary


class Reference:
    """A fixed pure-Python workload timed between operations.

    One sample walks a 7-node expression tuple 2500 times, which stays in
    the core's caches, then walks random expression tuples of about 25k
    nodes once, which depends on cache and memory speed.  The program
    slowed more than the first and less than the second when the machine
    did, and tracked their sum best.  None of the program's code runs here.
    """

    def __init__(self):
        rng = random.Random(1)

        def build(depth):
            if depth == 0:
                return ("x",) if rng.random() < 0.5 else ("c", rng.random())
            return (rng.choice("+-*"), build(depth - 1), build(depth - 1))

        self.small = ("+", ("*", ("x",), ("c", 1.5)), ("-", ("x",), ("*", ("x",), ("x",))))
        self.large = [build(12) for _ in range(3)]

    def sample(self) -> float:
        """Seconds of one sample."""
        def ev(node):
            op = node[0]
            if op == "c":
                return node[1]
            if op == "x":
                return 0.3
            a, b = ev(node[1]), ev(node[2])
            return a + b if op == "+" else a - b if op == "-" else a * b

        start = time.perf_counter()
        for _ in range(2500):
            ev(self.small)
        for tree in self.large:
            ev(tree)
        return time.perf_counter() - start


def sweep(seed: int) -> dict:
    """Dense family n = 1..6 on cold caches: build time, a1 node counts and
    the one-point evaluation time of all 2n+1 components."""
    import numpy as np
    from herglotz import expr, lagrangian
    from herglotz.lagrangian import ContactLagrangianSystem
    from perfbench.tracer import SWEEP_N, tree_nodes, unique_nodes
    from perfbench.workloads import DENSE_PARAMS, dense_text

    rng = np.random.default_rng(seed)
    out = {}
    for n in SWEEP_N:
        system = ContactLagrangianSystem(n, expr.parse(dense_text(n), n), dict(DENSE_PARAMS))
        point = expr.StatePoint.from_coords(rng.uniform(-1.0, 1.0, 2 * n + 1), n)
        start = time.perf_counter()
        field = lagrangian.herglotz_field(system)
        built = time.perf_counter()
        for comp in field.components:
            expr.evaluate(comp, point, system.params)
        evaluated = time.perf_counter()
        a1 = field.components[n]
        out[f"lagrangian.herglotz_field.build_s.n{n}"] = built - start
        out[f"expr.field_eval_ms.n{n}"] = 1e3 * (evaluated - built)
        out[f"expr.a1_nodes.n{n}"] = tree_nodes(a1, {})
        out[f"expr.a1_unique_nodes.n{n}"] = unique_nodes(a1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--sweep", action="store_true")
    args = parser.parse_args()
    sampled = time.monotonic()
    resident = _resident_mb()
    reference = Reference()
    reference_mb = _resident_mb() - resident
    early_reference = reference.sample()   # brackets set-up with the pass's first sample
    sampled = time.monotonic() - sampled
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    import herglotz
    import numpy
    if Path(herglotz.__file__).resolve().parent != ROOT / "src" / "herglotz":
        raise SystemExit(f"imported herglotz from {herglotz.__file__}, not from src/")
    if args.sweep:
        print(json.dumps({"sweep": sweep(args.seed)}))
        return 0

    from perfbench import workloads
    from perfbench.tracer import Tracer
    if args.workload == "batch_default":
        from herglotz import cli
        cli.default_tasks()
        ops = None
    else:
        ops = workloads.BUILDERS[args.workload](args.seed, args.tiny, out_dir)
    ready = time.monotonic()

    tracer = Tracer() if args.trace_file else None
    if tracer:
        tracer.install()
    if ops is None:
        records, summary = run_batch(out_dir, tracer, reference)
    else:
        records, summary = run_generated(ops, tracer, reference)
    result = dict(summary, ready=ready, ops=records, numpy=numpy.__version__,
                  early_reference_s=early_reference, early_sampling_s=sampled,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - reference_mb,
                  bytes_written=sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file()))
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["layer_self_s"] = tracer.layer_self_s()
        tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
