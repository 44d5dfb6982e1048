"""Symbolic memory is bounded and symbolic builds do not depend on what the
process built before: nodes are interned in a weak table, and derivative
and per-Lagrangian memos live on the nodes."""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import herglotz
from herglotz import equivalence, inverse, lagrangian
from herglotz import expr as ex
from herglotz.checks import SamplePlan
from herglotz.expr import mul, q, substitute, unparse, v, z
from herglotz.extended import ActionFunction
from herglotz.inverse import SODESystem

from conftest import dense_lagrangian, random_regular_lagrangian

SRC = Path(herglotz.__file__).resolve().parent


def _stream(rng, count):
    """The benchmark's symbolic stream: per random regular system, a strong
    check against the gauge zeta = z + c q1 q_n (which builds eta_L), and
    the naive inverse check of its Herglotz field."""
    for k in range(count):
        n = k % 3 + 1
        system = random_regular_lagrangian(rng, n)
        c = float(rng.uniform(0.1, 0.5))
        gauge = mul(c, mul(q(1), q(n)))
        # in the zeta-chart the old action coordinate reads zeta - c q1 q_n
        bar = substitute(system.L, z(), z() - gauge) + c * (v(1) * q(n) + q(1) * v(n))
        report = equivalence.strong_equivalence_check(
            system, bar, ActionFunction(z() + gauge), SamplePlan("random", (), 1, k))
        assert report.verdict == "pass", report.diagnostics
        comps = lagrangian.herglotz_field(system).components
        sode = SODESystem(n, comps[n:2 * n], system.L, system.params)
        assert inverse.naive_inverse_check(sode, SamplePlan("random", (), 1, k)).report.passed


def retained_bytes() -> list[int]:
    """Bytes this process retains after 50 and after 200 systems of the
    stream.  Counts the program's own allocations (numpy's caches and the
    interpreter's free lists settle on their own schedule), less the intern
    table's hash-table capacity, which tracks the largest live set so far."""
    own = [tracemalloc.Filter(True, f"{SRC}{os.sep}*")]
    rng = np.random.default_rng(20261018)
    gc.collect()
    tracemalloc.start()
    try:
        start, table = tracemalloc.take_snapshot().filter_traces(own), sys.getsizeof(ex._nodes)
        retained, done = [], 0
        for count in (50, 200):
            _stream(rng, count - done)
            done = count
            gc.collect()
            now = tracemalloc.take_snapshot().filter_traces(own)
            retained.append(sum(d.size_diff for d in now.compare_to(start, "filename"))
                            - (sys.getsizeof(ex._nodes) - table))
    finally:
        tracemalloc.stop()
    return retained


_RETAINED = """
import sys
sys.path.insert(0, sys.argv[1])
from test_symbolic_memory import retained_bytes
print(*retained_bytes())
"""


def _fresh_retained_bytes() -> list[int]:
    """:func:`retained_bytes` in a fresh interpreter.  In this one, a table
    grown by earlier tests is rebuilt at the same capacity once enough of
    its nodes have died: tracemalloc sees the new key table, and
    ``sys.getsizeof`` no change."""
    tests = Path(__file__).resolve().parent
    fresh = subprocess.run(
        [sys.executable, "-c", _RETAINED, str(tests)], capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert fresh.returncode == 0, fresh.stderr
    return [int(x) for x in fresh.stdout.split()]


def test_retained_symbolic_memory_does_not_grow_with_the_stream():
    retained = _fresh_retained_bytes()
    # within 10% of the bytes held after 50 systems, or of 16 KiB when those
    # are near nothing; an unbounded cache holds over 25 KiB more per system
    assert retained[1] <= 1.1 * max(retained[0], 16384), retained


def test_retained_memory_does_not_count_what_the_process_built_before():
    """70,000 constants alive at once, then dropped, leave the intern table
    with room for them; measured in this process, its same-capacity rebuild
    during the stream read as 2.6 MB retained."""
    warm = [ex.Const(k + 0.25) for k in range(70_000)]
    del warm
    gc.collect()
    test_retained_symbolic_memory_does_not_grow_with_the_stream()


_FIELD_INSTRUCTIONS = """
import sys
from herglotz import expr, lagrangian
n, text = int(sys.argv[1]), sys.argv[2]
system = lagrangian.ContactLagrangianSystem(n, expr.parse(text, n), {"gam": 0.2})
print(len(expr._lower(lagrangian.herglotz_field(system).components, n, system.params)[0]))
"""


def _field_instructions(n: int) -> int:
    system = dense_lagrangian(n)
    return len(ex._lower(lagrangian.herglotz_field(system).components, n, system.params)[0])


def test_lowering_does_not_depend_on_process_history():
    """The dense n = 5 field lowers to one instruction per distinct node,
    in a fresh interpreter and after the n = 1..4 fields were built."""
    fresh = subprocess.run(
        [sys.executable, "-c", _FIELD_INSTRUCTIONS, "5", unparse(dense_lagrangian(5).L)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert fresh.returncode == 0, fresh.stderr
    for n in range(1, 5):
        _field_instructions(n)
    assert _field_instructions(5) == int(fresh.stdout)
