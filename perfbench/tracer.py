"""Span tracer that wraps the program's public functions from outside.

``from .expr import evaluate`` binds the name once per importing module, so
every ``herglotz.*`` namespace holding a traced function gets the wrapper,
not only the defining module.  ``numpy.linalg`` solvers are wrapped too and
attributed to the innermost open herglotz span.

A span is ``[name, start, end, parent, op]``; spans stay in memory and are
written out once the traced pass ends.  A span's self time is its duration
minus that of its children, which never overlap (one thread).
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute).  gradient and hessian count as
# differentiation.
TRACED = [
    ("expr.parse", "expr", "parse"),
    ("expr.differentiate", "expr", "differentiate"),
    ("expr.differentiate", "expr", "gradient"),
    ("expr.differentiate", "expr", "hessian"),
    ("expr.substitute", "expr", "substitute"),
    ("expr.solve_cramer", "expr", "solve_cramer"),
    ("expr.evaluate", "expr", "evaluate"),
    ("expr.evaluate_many", "expr", "evaluate_many"),
    ("expr.compile_components", "expr", "compile_components"),
    ("contact.hamiltonian_field", "contact", "hamiltonian_field"),
    ("contact.exterior_derivative", "contact", "exterior_derivative"),
    ("lagrangian.herglotz_field", "lagrangian", "herglotz_field"),
    ("lagrangian.velocity_hessian", "lagrangian", "velocity_hessian"),
    ("extended.zeta_herglotz_field", "extended", "zeta_herglotz_field"),
    ("extended.zeta_hessian", "extended", "zeta_hessian"),
    ("extended.compose_with_zeta", "extended", "compose_with_zeta"),
    ("extended.ActionFunction.frame_ok", "extended", "ActionFunction.frame_ok"),
    ("extended.legendre_pullback_residual", "extended", "legendre_pullback_residual"),
    ("equivalence.conformal_similarity_check", "equivalence", "conformal_similarity_check"),
    ("equivalence.dynamical_equivalence_check", "equivalence", "dynamical_equivalence_check"),
    ("equivalence.horizontal_similarity_check", "equivalence", "horizontal_similarity_check"),
    ("equivalence.projectability_check", "equivalence", "projectability_check"),
    ("equivalence.strong_equivalence_check", "equivalence", "strong_equivalence_check"),
    ("equivalence.general_equivalence_check", "equivalence", "general_equivalence_check"),
    ("inverse.naive_inverse_check", "inverse", "naive_inverse_check"),
    ("inverse.extended_inverse_check", "inverse", "extended_inverse_check"),
    ("inverse.di_ei_diagnostics", "inverse", "di_ei_diagnostics"),
    ("dynamics.integrate", "dynamics", "integrate"),
    ("dynamics.z_operator", "dynamics", "z_operator"),
    ("dynamics.stationarity_test", "dynamics", "stationarity_test"),
    ("dynamics.trajectory_to_csv", "dynamics", "trajectory_to_csv"),
    ("checks.sample_states", "checks", "sample_states"),
    ("checks.report_from_records", "checks", "report_from_records"),
    ("fixtures.builtin_systems", "fixtures", "builtin_systems"),
    ("cli.run_task", "cli", "run_task"),
    ("cli.write_report", "cli", "write_report"),
    # spanned so their time lands in their own layer; no metric of their own
    ("lagrangian.herglotz_accelerations", "lagrangian", "herglotz_accelerations"),
    ("equivalence.zero_set_diagnostic", "equivalence", "zero_set_diagnostic"),
]
UNREPORTED = {"lagrangian.herglotz_accelerations", "equivalence.zero_set_diagnostic"}
LINALG = ("svd", "lstsq", "solve", "det")
LINALG_LAYERS = ("contact", "lagrangian", "extended", "equivalence")
CLI_COMMANDS = ("simulate", "herglotz", "check-strong-eq", "check-eq",
                "check-horizontal", "check-inverse", "check-inverse-ext",
                "check-conformal", "check-dynamical", "legendre", "stationarity")
SWEEP_N = range(1, 7)
ROOT = "op"


def _prefixes() -> list[str]:
    seen = []
    for prefix, _, _ in TRACED:
        if prefix not in seen and prefix not in UNREPORTED:
            seen.append(prefix)
    return seen


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for prefix in _prefixes():
        specs += [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower")]
    specs += [
        ("expr.evaluate.nodes", "count", "lower"),
        ("expr.compile_components.nodes", "count", "lower"),
        ("expr.diff_cache.hit_ratio", "ratio", "higher"),
        ("expr.diff_cache.entries", "count", "lower"),
    ]
    specs += [(f"expr.a1_nodes.n{n}", "count", "lower") for n in SWEEP_N]
    specs += [(f"expr.a1_unique_nodes.n{n}", "count", "lower") for n in SWEEP_N]
    specs += [(f"expr.field_eval_ms.n{n}", "ms", "lower") for n in SWEEP_N]
    specs += [(f"lagrangian.herglotz_field.build_s.n{n}", "s", "lower") for n in SWEEP_N]
    for layer in LINALG_LAYERS:
        specs += [(f"{layer}.linalg.calls", "count", "lower"),
                  (f"{layer}.linalg.self_s", "s", "lower")]
    specs += [
        ("dynamics.integrate.steps", "count", "higher"),
        ("dynamics.z_operator.steps", "count", "higher"),
        ("dynamics.trajectory_to_csv.bytes", "bytes", "lower"),
        ("checks.sample_states.accepted", "count", "higher"),
        ("checks.sample_states.accept_ratio", "ratio", "higher"),
        ("checks.report_from_records.records", "count", "higher"),
        ("equivalence.points", "count", "higher"),
        ("inverse.points", "count", "higher"),
        ("cli.run_task.bytes", "bytes", "lower"),
        ("cli.write_report.bytes", "bytes", "lower"),
    ]
    specs += [(f"cli.task.{cmd}.s", "s", "lower") for cmd in CLI_COMMANDS]
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def tree_nodes(e, memo: dict) -> int:
    """Tree size counting shared subtrees once per occurrence; memoised by
    identity (the memo keeps each node alive, so ids are not reused)."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    size = 1 + sum(tree_nodes(child, memo) for child in _children(e))
    memo[id(e)] = (e, size)
    return size


def unique_nodes(e) -> int:
    """Number of structurally distinct subtrees."""
    keys: dict = {}
    by_id: dict = {}

    def visit(node):
        hit = by_id.get(id(node))
        if hit is not None:
            return hit[1]
        kids = tuple(visit(c) for c in _children(node))
        key = (type(node).__name__, _payload(node), kids)
        ident = keys.setdefault(key, len(keys))
        by_id[id(node)] = (node, ident)
        return ident

    visit(e)
    return len(keys)


def _children(e):
    for attr in ("arg", "lhs", "rhs", "base"):
        child = getattr(e, attr, None)
        if child is not None:
            yield child


def _payload(e):
    return tuple(getattr(e, a) for a in ("value", "kind", "index", "name", "fn", "op",
                                         "exponent") if hasattr(e, a))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counters: dict[str, float] = defaultdict(float)
        self.node_args: dict[str, list] = defaultdict(list)
        self.predicate_calls = 0
        self.caches = []
        self._cache_start = (0, 0)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def begin_op(self, label: str) -> list:
        self.op = label
        return self._open(ROOT)

    def end_op(self, rec: list) -> None:
        self._close(rec)
        self.op = None

    def _wrap(self, prefix: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = tracer._open(prefix)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def _wrap_linalg(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            layer = "bench"
            if tracer.stack:
                top = tracer.spans[tracer.stack[-1]][0]
                if top != ROOT:
                    layer = top.split(".")[0]
            rec = tracer._open(f"{layer}.linalg")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return wrapper

    # -- hooks for counts --------------------------------------------------

    def _count_predicate(self, args, kwargs):
        """Count candidate draws; without a predicate every draw is accepted,
        so an always-true counter stands in for it."""
        args = list(args)
        predicate = kwargs.pop("predicate", args.pop(2) if len(args) > 2 else None)

        def counted(point):
            self.predicate_calls += 1
            return predicate is None or predicate(point)

        return args, dict(kwargs, predicate=counted)

    def _hooks(self, prefix: str):
        """(before, after) hooks of a traced function, for its counts."""
        c = self.counters

        def size(path) -> int:
            return os.path.getsize(path) if os.path.exists(path) else 0

        def count(key, amount):
            def after(rec, args, result):
                c[key] += amount(args, result)
            return after

        def sampled(rec, args, result):
            c["checks.sample_states.accepted"] += len(result)
            if rec[3] is not None:
                layer = self.spans[rec[3]][0].split(".")[0]
                if layer in ("equivalence", "inverse"):
                    c[f"{layer}.points"] += len(result)

        def task(rec, args, result):
            c[f"cli.task.{args[1]}.s"] += rec[2] - rec[1]
            c["cli.run_task.bytes"] += sum(size(path) for path in result[1])

        hooks = {
            "expr.evaluate": (None, lambda rec, args, r: self.node_args["expr.evaluate"].append(args[0])),
            "expr.compile_components": (None, lambda rec, args, r: self.node_args["expr.compile_components"].extend(args[0])),
            "checks.sample_states": (self._count_predicate, sampled),
            "checks.report_from_records": (None, count("checks.report_from_records.records",
                                                       lambda args, r: len(args[0]))),
            "dynamics.integrate": (None, count("dynamics.integrate.steps", lambda args, r: len(r.times) - 1)),
            "dynamics.z_operator": (None, count("dynamics.z_operator.steps", lambda args, r: len(r) - 1)),
            "dynamics.trajectory_to_csv": (None, count("dynamics.trajectory_to_csv.bytes",
                                                       lambda args, r: size(args[1]))),
            "cli.run_task": (None, task),
            "cli.write_report": (None, count("cli.write_report.bytes", lambda args, r: size(args[1]))),
        }
        return hooks.get(prefix, (None, None))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every loaded herglotz namespace."""
        import numpy.linalg

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "herglotz" or name.startswith("herglotz."))]
        expr_mod = importlib.import_module("herglotz.expr")
        self.caches = [obj for obj in vars(expr_mod).values() if hasattr(obj, "cache_info")]
        self._cache_start = self._cache_counts()
        for prefix, module, attr in TRACED:
            mod = importlib.import_module(f"herglotz.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(prefix, getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(prefix, original, *self._hooks(prefix))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
        for name in LINALG:
            setattr(numpy.linalg, name, self._wrap_linalg(getattr(numpy.linalg, name)))

    def _cache_counts(self) -> tuple[int, int]:
        infos = [c.cache_info() for c in self.caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] is not None:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (module), ``bench`` for the benchmark's own
        share of each operation."""
        out: dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            out["bench" if rec[0] == ROOT else rec[0].split(".")[0]] += own
        return dict(out)

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics of everything traced so far (sweep metrics and
        the tracing overhead are filled in by the caller)."""
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            calls[rec[0]] += 1
            self_s[rec[0]] += own
        out: dict[str, float | None] = {}
        for name, _, _ in layer_metric_specs():
            out[name] = 0.0
        for prefix in list(_prefixes()) + [f"{l}.linalg" for l in LINALG_LAYERS]:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = self_s[prefix]
        for key, value in self.counters.items():
            out[key] = value
        for key, exprs in self.node_args.items():
            memo: dict = {}
            out[f"{key}.nodes"] = sum(tree_nodes(e, memo) for e in exprs)
        accepted = self.counters["checks.sample_states.accepted"]
        out["checks.sample_states.accept_ratio"] = (
            accepted / self.predicate_calls if self.predicate_calls else 0.0)
        if self.caches:
            hits0, misses0 = self._cache_start
            hits, misses = self._cache_counts()
            looked = (hits - hits0) + (misses - misses0)
            out["expr.diff_cache.hit_ratio"] = (hits - hits0) / looked if looked else 0.0
            out["expr.diff_cache.entries"] = sum(c.cache_info().currsize for c in self.caches)
        else:  # the caches are gone: report them missing rather than as 0
            out["expr.diff_cache.hit_ratio"] = None
            out["expr.diff_cache.entries"] = None
        return out

    def write(self, path) -> None:
        names = ["name", "start", "end", "parent", "op"]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(names, rec))) + "\n")


def read_spans(path) -> list[dict]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]
