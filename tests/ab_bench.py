"""A/B driver for the benchmark: a parent commit against the working tree.

    python3 tests/ab_bench.py --parent REV --out BENCH_N.json [--pairs 4]
        [--change TEXT] [--claim TEXT]

Run from the repository root.  The parent is extracted with ``git archive``
and the change is the working tree's ``git ls-files`` (tracked files, and
untracked ones that are not ignored, as they are on disk), each into its own
directory under ``.perfbench/ab/``.  For every workload of BENCHMARK.json,
pair k runs

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

once in each tree (20 s is BENCHMARK.json's run length), the parent first
when k is even, with seed S = 1 + 10 w + k for the workload's index w.  Every ``__pycache__`` under both
trees is deleted before each run, so each run compiles the sources as a
fresh checkout does.  The driver refuses to start while another driver run
holds ``.perfbench/ab.lock``.

The output is the BENCH_*.json record: per workload the seeds, the pair
count, the operations attempted and failed on each side, and per end-to-end
metric each side's runs, median, quartiles (inclusive method) and spread
(q3 - q1) / median, the change in percent, the pairs the change won and
whether the change's median is within the metric's bound.  The driver's own
command line is in the record.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOCK = ROOT / ".perfbench" / "ab.lock"
WORK = ROOT / ".perfbench" / "ab"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@contextmanager
def lock(path: Path = LOCK):
    """Hold ``path``, created with this process's pid, for the block: a
    SystemExit while a live process holds it; a lock left by a process that
    is gone is taken over."""
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            holder = path.read_text() if path.exists() else ""
            if holder.isdigit() and not _alive(int(holder)):
                path.unlink(missing_ok=True)
            elif path.exists():     # an empty lock is one being written
                raise SystemExit(f"another A/B run (pid {holder or '?'}) holds {path}") \
                    from None
    with os.fdopen(fd, "w") as fh:
        fh.write(str(os.getpid()))
    try:
        yield
    finally:
        path.unlink(missing_ok=True)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:     # another user's process
        return True
    return True


def extract_parent(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_change(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():    # a deleted tracked file is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(trees: dict[str, Path], side: str, workload: str, seed: int) -> dict:
    """One benchmark run in the tree of ``side`` after deleting the bytecode
    caches of every tree: the last stdout line of perfbench/run.py."""
    for cache in [c for t in trees.values() for c in t.rglob("__pycache__")]:
        shutil.rmtree(cache)
    tree = trees[side]
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {tree} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def side_summary(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": runs}


def metric_summary(spec: dict, parent: list[float], change: list[float]) -> dict:
    """A metric's record from the runs of each side, pair k at index k."""
    before, after = side_summary(parent), side_summary(change)
    lower = spec["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ratio = after["median"] / before["median"]
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": before, "change": after, "change_pct": 100.0 * (ratio - 1.0),
            "wins": f"{wins}/{len(parent)}",
            "within_bound": ratio <= 1.0 + spec["bound"] if lower
            else ratio >= 1.0 - spec["bound"]}


def workload_record(seeds: list[int], results: dict[str, list[dict]]) -> dict:
    """The record of one workload from each side's run results, in pair order."""
    parent, change = results["parent"], results["change"]
    return {
        "seeds": seeds, "pairs": len(seeds),
        "failed_ops": sum(r["failed"] for r in change),
        "failed_ops_parent": sum(r["failed"] for r in parent),
        "attempted_ops": sum(r["attempted"] for r in change),
        "attempted_ops_parent": sum(r["attempted"] for r in parent),
        "correct": all(r["correct"] for r in parent + change),
        "metrics": {spec["name"]: metric_summary(
            spec, [r["metrics"][spec["name"]]["value"] for r in parent],
            [r["metrics"][spec["name"]]["value"] for r in change])
            for spec in SPEC["end_to_end"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    parser.add_argument("--pairs", type=int, default=4, help="pairs of runs per workload")
    parser.add_argument("--change", default="", help="what the change does")
    parser.add_argument("--claim", default="none", help="the gain claimed, if any")
    args = parser.parse_args(argv)
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    with lock():
        shutil.rmtree(WORK, ignore_errors=True)
        trees = {"parent": WORK / "parent", "change": WORK / "change"}
        for tree in trees.values():
            tree.mkdir(parents=True)
        extract_parent(args.parent, trees["parent"])
        copy_change(trees["change"])
        workloads = {}
        for w, workload in enumerate(spec["name"] for spec in SPEC["workloads"]):
            seeds = [1 + 10 * w + k for k in range(args.pairs)]
            results: dict[str, list[dict]] = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    results[side].append(run_once(trees, side, workload, seed))
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{results[side][-1]['metrics']['wall_s']['value']:.4g}", flush=True)
            workloads[workload] = dict(workload_record(seeds, results), where=(
                "parent and change each extracted into its own directory (git archive "
                "of the parent, git ls-files of the change's working tree) and run from it"))
        shutil.rmtree(WORK, ignore_errors=True)
    record = {
        "change": args.change, "parent": parent,
        "driver": shlex.join(["python3", "tests/ab_bench.py", *(argv or sys.argv[1:])]),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{SPEC['run_seconds']} --trace 0",
        "values": "scaled end-to-end metrics (the last stdout line of each run); spread is "
                  "(q3 - q1) / median over one side's runs; quartiles by the inclusive method",
        "pairs_order": "alternating: pair k runs the parent first when k is even",
        "bytecode": "every __pycache__ under both trees was deleted before each run",
        "claim": args.claim,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy")},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
