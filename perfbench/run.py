"""herglotz benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root.  Workloads: batch_default, dense_sweep,
trajectory, symbolic_stream (see perfbench/README.md for why each exists).

A run is a closed loop of passes, one at a time, each a fresh interpreter
(``pass_worker.py``) with BLAS and OpenMP pinned to one thread; passes start
until ``--seconds`` have elapsed (at least two, so their outputs can be
compared).  Every pass runs the same seeded operations.  With ``--trace 1``
one traced pass and a dense-family sweep follow the untraced passes and the
per-layer metrics are printed instead of the end-to-end ones.

Reports and CSVs go to a temporary directory under ``.perfbench/`` that is
removed at the end; the result, with provenance, is kept in
``.perfbench/results/`` and traced spans in ``.perfbench/traces/``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.pass_worker import REFERENCE_S  # noqa: E402
from perfbench.tracer import layer_metric_specs  # noqa: E402

WORKLOADS = ("batch_default", "dense_sweep", "trajectory", "symbolic_stream")
END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("states_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
RUN_BUDGET_S = 170.0


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics at percentile p."""
    xs = sorted(values)
    x = p / 100.0 * (len(xs) - 1)
    lo = int(x)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (x - lo)


def tail_percentile(ops_per_pass: int) -> float:
    """Percentile read as the tail: the middle of the band of the
    second-slowest operation of a pass, but no higher than p95.

    Every pass runs the same K operations, so the slowest k/K of all samples
    are the k slowest operations' repeats.  Reading the tail at a band's
    middle, p = 100 (1 - 1.5/K), keeps it inside one operation's samples
    whatever the number of passes; it has 1.5 samples beyond it per pass, at
    least 10 from 7 passes on.  With 30 or more operations per pass the cap
    keeps the tail from resting on the few costliest seeded inputs.
    """
    return 100.0 * (1.0 - max(1.5 / ops_per_pass, 0.05))


class Runner:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        if args.workload == "batch_default":
            self.env["HERGLOTZ_SEED"] = str(args.seed)
        self.start = time.monotonic()
        self.passes: list[dict] = []

    def spawn(self, extra: list[str], tag: str) -> dict | None:
        out = self.work / tag
        cmd = [sys.executable, str(HERE / "pass_worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--out", str(out)] + extra
        if self.args.tiny:
            cmd.append("--tiny")
        budget = RUN_BUDGET_S - (time.monotonic() - self.start)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(budget, 5.0))
        except subprocess.TimeoutExpired:
            print(f"pass {tag} timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"pass {tag} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        if "ready" in result:
            # the worker samples the reference loop just before and just after
            # set-up; the first sample's own time is not set-up
            result["setup_s"] = result["ready"] - t0 - result["early_sampling_s"]
            around = (result["early_reference_s"] + result["reference_s"][0]) / 2
            result["scaled_setup_s"] = result["setup_s"] * REFERENCE_S / around
        return result

    def run_passes(self) -> None:
        while len(self.passes) < 2 or time.monotonic() - self.start < self.args.seconds:
            if time.monotonic() - self.start > RUN_BUDGET_S / 2:
                break
            self.passes.append(self.spawn([], f"pass{len(self.passes)}"))


def judge(passes: list[dict | None]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all passes.

    An operation fails when it raises, when its verdict is not the expected
    one, when it passes with a non-finite residual in its report, or when
    its output differs from the same operation's in the first pass.  A pass
    that crashed fails as many operations as a complete pass holds.
    """
    per_pass = max((len(p["ops"]) for p in passes if p), default=1)
    first: dict[str, str] = {}
    attempted = failed = 0
    reasons: list[str] = []
    for k, p in enumerate(passes):
        if p is None:
            attempted += per_pass
            failed += per_pass
            reasons.append(f"pass {k} crashed")
            continue
        for op in p["ops"]:
            attempted += 1
            why = None
            if op["error"]:
                why = op["error"]
            elif op["verdict"] != op["expected"]:
                why = f"verdict {op['verdict']}, expected {op['expected']}"
            elif op["nonfinite"]:
                why = "passed with a non-finite residual"
            elif first.setdefault(op["label"], op["body"]) != op["body"]:
                why = "output differs from the first pass"
            if why:
                failed += 1
                reasons.append(f"pass {k} {op['label']}: {why}")
    return attempted, failed, reasons


def median_operation(passes: list[dict], key: str) -> float:
    """Median over a pass's operations of each operation's median time.

    The plain median of all samples falls between two operations whenever a
    pass holds an even number of them, and then reads the extremes of both.
    """
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            per_op.setdefault(op["label"], []).append(op[key])
    return statistics.median(statistics.median(v) for v in per_op.values())


def end_to_end(passes: list[dict], scaled: bool = True) -> dict:
    """The end-to-end metrics; times scaled to the reference speed unless
    ``scaled`` is false."""
    setup_key, wall_key, op_key = (("scaled_setup_s", "scaled_wall_s", "scaled_s") if scaled
                                   else ("setup_s", "wall_s", "s"))
    ops = [op for p in passes for op in p["ops"]]
    seconds = [op[op_key] for op in ops]
    return {
        "setup_s": statistics.median(p[setup_key] for p in passes),
        "wall_s": statistics.median(p[wall_key] for p in passes),
        "ops_per_s": len(ops) / sum(p[wall_key] for p in passes),
        "verdict_p50_ms": 1e3 * median_operation(passes, op_key),
        "verdict_tail_ms": 1e3 * quantile(seconds, tail_percentile(len(passes[0]["ops"]))),
        "states_per_s": sum(op["points"] + op["steps"] for op in ops) / sum(seconds),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def run_info(passes: list[dict]) -> dict:
    """Sample counts of the tail and the points and RK4-step rates, defined only
    where the workload has the work (scaled times)."""
    ops = [op for p in passes for op in p["ops"]]
    seconds = [op["scaled_s"] for op in ops]
    tail_p = tail_percentile(len(passes[0]["ops"]))
    check_s = sum(op["scaled_s"] for op in ops if op["points"])
    sim_s = sum(op["scaled_s"] for op in ops if op["steps"])
    return {
        "tail_percentile": tail_p,
        "tail_samples_beyond": sum(1 for s in seconds if s > quantile(seconds, tail_p)),
        "samples": len(seconds),
        "passes": len(passes),
        "points_per_s": sum(op["points"] for op in ops) / check_s if check_s else None,
        "rk4_steps_per_s": sum(op["steps"] for op in ops) / sim_s if sim_s else None,
        "reference_s": statistics.median(r for p in passes for r in p["reference_s"]),
        "bytes_written_per_pass": statistics.median(p["bytes_written"] for p in passes),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "herglotz" / "__init__.py").is_file():
        print(f"no herglotz sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    for sub in ("tmp", "results", "traces"):
        (base / sub).mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base / "tmp"))
    try:
        runner = Runner(args, work)
        runner.run_passes()
        passes = list(runner.passes)
        name = f"{args.workload}-seed{args.seed}"
        traced = sweep = None
        if args.trace:
            trace_file = base / "traces" / f"{name}.jsonl.gz"
            traced = runner.spawn(["--trace-file", str(trace_file)], "traced")
            sweep = runner.spawn(["--sweep"], "sweep")
            passes.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, reasons = judge(passes)
    done = [p for p in runner.passes if p]
    if not done or (args.trace and not (traced and sweep)):
        print("benchmark could not complete a pass", file=sys.stderr)
        return 1
    e2e, raw, info = end_to_end(done), end_to_end(done, scaled=False), run_info(done)
    provenance = {"git_sha": git_sha(ROOT), "python": sys.version.split()[0],
                  "numpy": done[0].get("numpy"), "nproc": len(os.sched_getaffinity(0)),
                  "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "tiny": args.tiny}
    if args.trace:
        layers = dict(traced["layers"], **sweep["sweep"])
        layers["trace.overhead_s"] = traced["scaled_wall_s"] - e2e["wall_s"]
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in layer_metric_specs()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}

    print(f"herglotz benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}  sha={provenance['git_sha'][:12]} python={provenance['python']} "
          f"numpy={provenance['numpy']} nproc={provenance['nproc']}")
    print(f"  {'metric':<18} {'scaled':>14} {'as timed':>14}   (reference loop "
          f"{1e3 * info['reference_s']:.3f} ms, nominal {1e3 * REFERENCE_S:.3f} ms)")
    for n, u in END_TO_END:
        print(f"  {n:<18} {e2e[n]:>14.6g} {raw[n]:>14.6g} {u}")
    print(f"  {'verdict_tail_ms':<18} is p{info['tail_percentile']:.4g} of {info['samples']} "
          f"samples over {info['passes']} passes, {info['tail_samples_beyond']} beyond it")
    for key, unit in (("points_per_s", "1/s"), ("rk4_steps_per_s", "1/s")):
        value = info[key]
        print(f"  {key:<18} {'n/a' if value is None else f'{value:>14.6g}':>14} {unit}")
    print(f"  {'bytes written':<18} {info['bytes_written_per_pass']:>14.6g} bytes per pass")
    print(f"  {'failed_frac':<18} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} operations)")
    for reason in reasons[:20]:
        print(f"    failed: {reason}")
    if args.trace:
        print(f"  trace.overhead_s    {metrics['trace.overhead_s']['value']:.6g} s "
              f"(traced pass minus median untraced pass)")
        for layer, seconds in sorted(traced["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    self time {layer:<12} {seconds:10.6f} s")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, provenance=provenance, end_to_end=e2e, end_to_end_as_timed=raw,
                  info=info, failed_frac=failed / attempted, failures=reasons,
                  layer_self_s=traced["layer_self_s"] if traced else None,
                  passes=[{k: p[k] for k in ("setup_s", "scaled_setup_s", "wall_s",
                                             "scaled_wall_s", "reference_s", "rss_mb")}
                          for p in done])
    out = base / "results" / f"{name}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  result written to {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
