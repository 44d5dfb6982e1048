"""The golden manifest of the default ``herglotz batch``: what it writes and
prints for HERGLOTZ_SEED unset, 7 and 123, as digests.

For each run the manifest holds the exit code and, for stdout, the CSV and
each report without its ``metadata`` (the text before the ``"metadata"``
key), the SHA-256 of the text, its line count and the first 8 hex digits of
the SHA-256 of each block of BLOCK_LINES lines, so that a comparison can name
the first block that differs.  It also records the platform, Python and
numpy it was built with: the floats of another libm or LAPACK may differ.

Regenerate it from the repository root with

    PYTHONPATH=src python tests/golden_batch.py

which rewrites ``tests/golden/batch.json``.  Do so only for an intended
change of the outputs, named where the change is recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden" / "batch.json"
SEEDS = (None, "7", "123")
BLOCK_LINES = 50
_METADATA = ',\n  "metadata": '


def environment() -> dict:
    return {"platform": f"{platform.system()}-{platform.machine()}",
            "python": platform.python_version(), "numpy": np.__version__}


def digest(text: str) -> dict:
    """The SHA-256 of ``text``, its line count and its block digests."""
    lines = text.splitlines(keepends=True)
    blocks = ("".join(lines[k:k + BLOCK_LINES]).encode()
              for k in range(0, len(lines), BLOCK_LINES))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "lines": len(lines),
            "blocks": " ".join(hashlib.sha256(b).hexdigest()[:8] for b in blocks)}


def body_text(text: str) -> str:
    """A report's text without its trailing ``metadata`` entry."""
    return text[:text.rindex(_METADATA)] + "\n}\n"


def run_batch(seed: str | None, out_dir: Path) -> dict:
    """Run the default batch into ``out_dir`` with HERGLOTZ_SEED = seed (unset
    for None); its exit code and the texts it printed and wrote, by name."""
    from herglotz.cli import main

    saved = os.environ.pop("HERGLOTZ_SEED", None)
    if seed is not None:
        os.environ["HERGLOTZ_SEED"] = seed
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(["batch", "--out", str(out_dir)])
    finally:
        os.environ.pop("HERGLOTZ_SEED", None)
        if saved is not None:
            os.environ["HERGLOTZ_SEED"] = saved
    texts = {"stdout": stdout.getvalue()}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text(encoding="ascii")
        texts[path.name] = body_text(text) if path.suffix == ".json" else text
    return {"exit": code, "texts": texts}


def run_all(root: Path, seeds=SEEDS) -> dict:
    """``run_batch`` for each seed, into its own directory under ``root``, by
    the seed's manifest key."""
    runs = {}
    for seed in seeds:
        out = root / f"seed-{seed or 'unset'}"
        out.mkdir()
        runs[seed or "unset"] = run_batch(seed, out)
    return runs


def manifest(runs: dict) -> dict:
    return {**environment(), "block_lines": BLOCK_LINES, "runs": {
        key: {"exit": run["exit"], "files": {name: digest(text)
                                             for name, text in run["texts"].items()}}
        for key, run in runs.items()}}


def first_difference(golden: dict, runs: dict) -> str | None:
    """Where ``runs`` first differ from the golden manifest: the run, the
    file, and the first block of lines that differs, with its text now."""
    for key, run in runs.items():
        want = golden["runs"][key]
        if run["exit"] != want["exit"]:
            return f"seed {key}: exit code {run['exit']}, golden {want['exit']}"
        names = sorted(set(want["files"]) | set(run["texts"]))
        for name in names:
            if name not in run["texts"] or name not in want["files"]:
                return f"seed {key}: {name} is {'missing' if name in want['files'] else 'new'}"
            text, old = run["texts"][name], want["files"][name]
            new = digest(text)
            if new["sha256"] == old["sha256"]:
                continue
            k = next((k for k, (a, b) in enumerate(zip(new["blocks"].split(),
                                                       old["blocks"].split())) if a != b),
                     min(len(new["blocks"].split()), len(old["blocks"].split())))
            lines = text.splitlines(keepends=True)[k * BLOCK_LINES:(k + 1) * BLOCK_LINES]
            return (f"seed {key}: {name} ({new['lines']} lines, golden {old['lines']}) "
                    f"first differs in lines {k * BLOCK_LINES + 1}-{(k + 1) * BLOCK_LINES}, "
                    f"which now read:\n{''.join(lines)}")
    return None


def manifest_text(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(manifest_text(manifest(run_all(Path(tmp)))))
    sys.stdout.write(f"wrote {GOLDEN}\n")
