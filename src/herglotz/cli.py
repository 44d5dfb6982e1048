"""Batch verification CLI: config ingestion, subcommand dispatch, reports.

Subcommands: simulate, herglotz, check-strong-eq, check-eq, check-horizontal,
check-inverse, check-inverse-ext, check-conformal, check-dynamical, legendre,
stationarity, batch.  Each run writes a JSON report and exits with 0 (pass),
1 (fail), 2 (error or inconclusive) or 3 (configuration problem).  Identical
configuration and seed produce byte-identical reports; the timestamp lives
in a separate ``metadata`` field that comparisons may strip.  A report is
``json.dumps(indent=2)`` text, its records filled into one template per
record shape.

A task without a plan samples box1_200's count and seed over the unit box
of its own chart; a named plan must have the chart's 2n + 1 bounds.  The
bar-Lagrangians and action functions of a task are lowered with the task's
merged parameters, a check-conformal factor with both systems' and
simulate's acceleration residuals with the system's, before any work, so an
unbound or doubly bound one is a configuration problem.  herglotz, simulate
and stationarity gate det W (det W^zeta with a zeta) as the equivalence
checks do, at the default plan's points or the integrated states: a point
where it is not above det_tol is an error report.  The environment
variable HERGLOTZ_SEED overrides the seed of every sample plan.  In
zeta-chart expressions (bar-Lagrangians) the action coordinate may be
written ``z`` or ``zeta``; both denote the reparametrized coordinate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .checks import (
    STAT_AMPLITUDE, STAT_PERTURBATIONS, STAT_TOL, STEP_SLACK, CheckReport, PointRecord,
    SamplePlan, Tolerances, error_report, residual_table, run_check, sample_states,
)
from .contact import ContactHamiltonianSystem, CoordOneForm, darboux_form
from .dynamics import (
    SampledCurve, integrate, stationarity_test, trajectory_to_csv,
    trajectory_to_curve,
)
from .equivalence import (
    conformal_similarity_check, dynamical_equivalence_check,
    general_equivalence_check, horizontal_similarity_check,
    strong_equivalence_check, zero_set_diagnostic,
)
from .expr import (
    Expr, ExprError, Param, ParseError, StatePoint, coords, max_coord_index,
    merge_params, parse, sub, substitute, tape, unparse, z,
)
from .extended import (
    ActionFunction, ExtendedLagrangianSystem, _hessian_dets, zeta_herglotz_field,
    zeta_legendre,
)
from .fixtures import builtin_plans, builtin_systems, default_tasks
from .inverse import (
    SODESystem, di_ei_diagnostics, extended_inverse_check, naive_inverse_check,
)
from .lagrangian import (
    ContactLagrangianSystem, SingularLagrangianError, as_hamiltonian, herglotz_field,
)

EXIT_PASS, EXIT_FAIL, EXIT_SOFT, EXIT_CONFIG = 0, 1, 2, 3

_EXIT_CODE = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "error": EXIT_SOFT,
              "inconclusive": EXIT_SOFT}


class ConfigError(ValueError):
    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (config path: {path})")
        self.message, self.path = message, path


@dataclass
class RunConfig:
    systems: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    tolerances: Tolerances = field(default_factory=Tolerances)
    output_dir: Path = Path("reports")
    tasks: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Configuration loading

# The largest chart dimension of a config system, far above any at which a
# Herglotz field builds in seconds (its size doubles with each dimension).  It
# refuses a huge n before a Darboux form of 2n + 1 nodes is built for it.
MAX_N = 100
# The largest count of a config plan, far above the 200 of a default plan: a
# random plan draws count x (2n + 1) doubles in one generator call.
MAX_COUNT = 10_000
# The largest RK4 step count of a simulate or stationarity task, far above the
# 10,000 of any fixture: a run appends every state to a growing buffer.
MAX_STEPS = 1_000_000
# A batch task's or a single command's report tag: a plain file name part.
_TAG = re.compile(r"[A-Za-z0-9_.-]+")


def _parse_expr(text, n: int, path: str) -> Expr:
    if not isinstance(text, str):
        raise ConfigError("expression must be a string", path)
    try:
        return parse(text, n)
    except ParseError as exc:
        raise ConfigError(f"bad expression: {exc}", path) from None


def _load_params(raw, path: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError("params must be an object", path)
    return {key: _number(value, f"parameter {key!r}", f"{path}.{key}")
            for key, value in raw.items()}


def _load_system(name: str, raw: dict, path: str):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("system entry needs a 'kind'", path)
    kind = raw["kind"]
    n = _number(raw.get("n", 1), "'n'", f"{path}.n", int, above=0)
    if n > MAX_N:
        raise ConfigError(f"'n' must be at most {MAX_N}, got {n}", f"{path}.n")
    params = _load_params(raw.get("params"), f"{path}.params")
    if kind == "lagrangian":
        L = _parse_expr(raw.get("L"), n, f"{path}.L")
        return _bound(ContactLagrangianSystem(n, L, params), [L], path)
    if kind == "bar_lagrangian":
        expr = _parse_expr(raw.get("L"), n, f"{path}.L")
        # allow the ident "zeta" for the action slot; normalize to z
        return _BarLagrangian(substitute(expr, Param("zeta"), z()), params, n)
    if kind == "hamiltonian":
        if "eta" in raw:
            comps = raw["eta"]
            if not isinstance(comps, list) or len(comps) != 2 * n + 1:
                raise ConfigError(f"'eta' must list {2 * n + 1} components",
                                  f"{path}.eta")
            eta = CoordOneForm(n, tuple(
                _parse_expr(c, n, f"{path}.eta[{k}]") for k, c in enumerate(comps)))
        else:
            eta = darboux_form(n)
        H = _parse_expr(raw.get("H"), n, f"{path}.H")
        return _bound(ContactHamiltonianSystem(n, eta, H, params), [H, *eta.components], path)
    if kind == "sode":
        accels = raw.get("accelerations")
        if not isinstance(accels, list) or len(accels) != n:
            raise ConfigError(f"'accelerations' must list {n} expressions",
                              f"{path}.accelerations")
        accels = tuple(_parse_expr(a, n, f"{path}.accelerations[{k}]")
                       for k, a in enumerate(accels))
        rate = _parse_expr(raw.get("z_rate"), n, f"{path}.z_rate")
        return _bound(SODESystem(n, accels, rate, params), [*accels, rate], path)
    if kind == "action":
        return ActionFunction(_parse_expr(raw.get("zeta"), n, f"{path}.zeta"),
                              params)
    raise ConfigError(f"unknown system kind {kind!r}", f"{path}.kind")


def _binding(exprs: list[Expr], n: int, path: str, *params: dict) -> dict:
    """The merged parameter maps, if no two of them bind a name to different
    values and together they bind every parameter ``exprs`` read; else a
    ConfigError at ``path``."""
    try:
        merged = merge_params(*params)
        tape(exprs, n, merged)
    except ExprError as exc:   # a conflicting or an unbound parameter
        raise ConfigError(str(exc), path) from None
    return merged


def _bound(system, exprs: list[Expr], path: str, *more_params: dict):
    """The system with its params merged with ``more_params``, which must
    bind what ``exprs`` read (:func:`_binding`); else a ConfigError at
    <path>.params."""
    params = _binding(exprs, system.n_dim, f"{path}.params", system.params, *more_params)
    return system if params == system.params else replace(system, params=params)


@dataclass
class _BarLagrangian:
    """A Lagrangian written in a zeta-chart, plus its own parameters."""
    expr: Expr
    params: dict
    n_dim: int


def _load_plan(raw: dict, path: str) -> SamplePlan:
    if not isinstance(raw, dict):
        raise ConfigError("plan entry must be an object", path)
    mode = raw.get("mode", "random")
    bounds = raw.get("bounds", [])
    count = raw.get("count", 200)
    seed = raw.get("seed", 0)
    try:
        plan = SamplePlan(mode, tuple(tuple(b) for b in bounds), count, seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sample plan: {exc}", path) from None
    if plan.count > MAX_COUNT:
        raise ConfigError(f"'count' must be at most {MAX_COUNT}, got {plan.count}",
                          f"{path}.count")
    return plan


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", path) from None
    if not isinstance(raw, dict):
        raise ConfigError("top level must be an object", "$")
    for key in ("systems", "plans", "tolerances"):
        if not isinstance(raw.get(key) or {}, dict):
            raise ConfigError(f"{key} must be an object", key)
    for name, entry in (raw.get("systems") or {}).items():
        cfg.systems[name] = _load_system(name, entry, f"systems.{name}")
    for name, entry in (raw.get("plans") or {}).items():
        cfg.plans[name] = _load_plan(entry, f"plans.{name}")
    tol_raw = raw.get("tolerances") or {}
    values = {f.name: _number(tol_raw.get(f.name, f.default), f"'{f.name}'",
                              f"tolerances.{f.name}") for f in fields(Tolerances)}
    try:
        cfg.tolerances = Tolerances(**values)
    except ValueError as exc:
        raise ConfigError(str(exc), "tolerances") from None
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str):
            raise ConfigError("output_dir must be a string", "output_dir")
        cfg.output_dir = Path(raw["output_dir"])
    tasks = raw.get("tasks") or []
    if not isinstance(tasks, list):
        raise ConfigError("'tasks' must be a list", "tasks")
    stems: dict[str, int] = {}
    for k, task in enumerate(tasks):
        if not isinstance(task, dict) or "command" not in task:
            raise ConfigError("task entries need a 'command'", f"tasks[{k}]")
        _check_task(task, f"tasks[{k}]")
        stem = _task_stem(task, k)
        if stem in stems:
            raise ConfigError(f"report {stem}.json is also written by tasks[{stems[stem]}]",
                              f"tasks[{k}].tag")
        stems[stem] = k
    cfg.tasks = tasks
    return cfg


def _check_task(task: dict, path: str) -> None:
    """A ConfigError unless the task's command is in the command table, its
    tag, when given, is a non-empty run of letters, digits, '_', '-' and
    '.', and its args are an object that holds every argument the command
    requires and none that it does not take."""
    command, args = task["command"], task.get("args", {})
    if not isinstance(command, str) or command not in _TASKS:
        raise ConfigError(f"unknown command {command!r}", f"{path}.command")
    if "tag" in task:
        _check_tag(task["tag"], f"{path}.tag")
    if not isinstance(args, dict):
        raise ConfigError("args must be an object", f"{path}.args")
    flags = _TASKS[command][1]
    for name, kwargs in flags.items():
        if kwargs.get("required") and name not in args:
            raise ConfigError(f"{command} needs the argument {name!r}", f"{path}.args.{name}")
    for name in args:
        if name not in flags:
            raise ConfigError(f"{command} takes no argument {name!r}", f"{path}.args.{name}")


def _check_tag(tag, path: str) -> str:
    """The tag, which keeps its report in its directory; else a ConfigError."""
    if not (isinstance(tag, str) and _TAG.fullmatch(tag)):
        raise ConfigError("tag must be a non-empty string of letters, digits, '_', '-' "
                          f"and '.', got {tag!r}", path)
    return tag


def _task_stem(task: dict, k: int) -> str:
    """The file stem of batch task k's report: <command>_<tag or task{k}>."""
    return f"{task['command']}_{task.get('tag', f'task{k}')}"


# ---------------------------------------------------------------------------
# Name resolution


def _resolve(cfg: RunConfig, name: str, kinds: tuple[type, ...], what: str):
    if name in cfg.systems:
        obj = cfg.systems[name]
    elif name in (reg := builtin_systems()):
        obj = reg[name]()
    else:
        raise ConfigError(f"unknown {what} {name!r}", f"systems.{name}")
    if not isinstance(obj, kinds):
        raise ConfigError(
            f"{name!r} is a {type(obj).__name__}, expected {what}", f"systems.{name}")
    return obj


def _resolve_bar(cfg: RunConfig, name: str) -> tuple[Expr, dict]:
    obj = _resolve(cfg, name, (Expr, _BarLagrangian, ContactLagrangianSystem),
                   "bar-Lagrangian")
    if isinstance(obj, Expr):
        return obj, {}
    if isinstance(obj, _BarLagrangian):
        return obj.expr, obj.params
    return obj.L, dict(obj.params)


def _resolve_zeta(cfg: RunConfig, name: str, system) -> ActionFunction:
    """The action function, if it lives on the system's chart and its params
    and the system's bind every parameter it reads."""
    zeta = _resolve(cfg, name, (ActionFunction,), "action function")
    _require_consistent_n(system.n_dim, zeta=zeta.zeta)
    _bound(system, [zeta.zeta], f"systems.{name}", zeta.params)
    return zeta


def _initial_state(args: dict, n: int, default=None) -> StatePoint:
    initial = args.get("initial", default)
    if initial is None:
        raise ConfigError("an initial state is required", "args.initial")
    try:
        if isinstance(initial, str):
            initial = [float(x) for x in initial.split(",")]
        return StatePoint.from_coords(np.asarray(initial, dtype=float), n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad initial state: {exc}", "args.initial") from None


def _run_arg(args: dict, key: str, default, kind=float, above=None):
    """args[key], or the default, as a :func:`_number` at args.<key>."""
    return _number(args.get(key, default), f"'{key}'", f"args.{key}", kind, above)


def _number(value, name: str, path: str, kind=float, above=None):
    """A config value as a finite number of the given kind, which a bool is
    not; a ConfigError at ``path`` when it is not one or, with ``above``
    given, is not above it."""
    try:
        out = kind(value)
        ok = not isinstance(value, bool) and math.isfinite(out) and out == float(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{name} must be {what}, got {value!r}", path)
    if above is not None and not out > above:
        raise ConfigError(f"{name} must be greater than {above}, got {value!r}", path)
    return out


def _require_steps(t_end: float, dt: float, path: str) -> None:
    """A ConfigError at ``path`` when integrate would take more than
    MAX_STEPS steps, ceil(t_end / dt - STEP_SLACK), for this run."""
    if t_end / dt - STEP_SLACK > MAX_STEPS:
        raise ConfigError(f"t / dt gives more than {MAX_STEPS} steps "
                          f"(t = {t_end!r}, dt = {dt!r})", path)


def _require_consistent_n(n: int, **named_exprs) -> None:
    """Chart dimension must be consistent within a task (config invariant)."""
    for name, expr in named_exprs.items():
        top = max_coord_index(expr)
        if top > n:
            raise ConfigError(
                f"{name} references coordinate index {top} but the task chart "
                f"has n={n}", f"args.{name}")


def _resolve_plan(cfg: RunConfig, name: str | None, n: int) -> SamplePlan:
    """The named plan, or box1_200's count and seed over the unit box of the
    task's n-dimensional chart; a ConfigError at args.plan when the named
    plan's bounds are for another chart."""
    if name is None:
        plan = replace(builtin_plans()["box1_200"], bounds=())
    elif name in cfg.plans:
        plan = cfg.plans[name]
    elif name in builtin_plans():
        plan = builtin_plans()[name]
    else:
        raise ConfigError(f"unknown sample plan {name!r}", f"plans.{name}")
    if plan.bounds and len(plan.bounds) != 2 * n + 1:
        raise ConfigError(f"plan {name!r} has {len(plan.bounds)} bounds, the task's "
                          f"chart (n={n}) needs {2 * n + 1}", "args.plan")
    env_seed = os.environ.get("HERGLOTZ_SEED")
    if env_seed is not None:
        try:
            plan = replace(plan, seed=int(env_seed))
        except ValueError:
            raise ConfigError("HERGLOTZ_SEED must be a non-negative integer, "
                              f"got {env_seed!r}", "env") from None
    return plan


# ---------------------------------------------------------------------------
# Report emission


def write_report(report: CheckReport, path: Path) -> None:
    """json.dumps(indent=2) of the report and its metadata.  The records'
    text goes in at the first '"residuals": []', which is the key: the keys
    before it are fixed, and json.dumps escapes a '"' in a string value."""
    data = replace(report, records=[]).to_dict()
    data["metadata"] = {"timestamp": datetime.now(timezone.utc).isoformat(),
                        "version": __version__}
    records = _records_text(report.records)
    text = json.dumps(data, indent=2).replace('"residuals": []', f'"residuals": {records}', 1)
    path.write_text(text + "\n")


@contextmanager
def _writing(path: str):
    """An OSError in the block, creating or writing an output, as a
    ConfigError at ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}", path) from None


_PAD, _SLOT = "\n    ", json.dumps("\0")   # a record's lines are two levels deep


def _records_text(records: list[PointRecord]) -> str:
    """The "residuals" list of a report as JSON text.  Records of one shape
    (point size and keys) share a template, json.dumps of a record of "\\0"
    slots with each slot made %r, which writes an exact finite float as JSON
    does.  A record of other values, or of keys that write a slot's text,
    is dumped whole.  A key that is not a str is a TypeError, where
    json.dumps would make it one."""
    templates, texts = {}, []
    for rec in records:
        values, shape = rec.values.values(), (len(rec.point), tuple(rec.values))
        if (template := templates.get(shape)) is None:
            size, keys = shape
            if not all(isinstance(key, str) for key in keys):
                raise TypeError(f"record keys must be str, got {keys!r}")
            text = _dumps(PointRecord(("\0",) * size, dict.fromkeys(keys, "\0"))).replace("%", "%%")
            template = templates[shape] = (text.count(_SLOT) == size + len(keys)
                                           and text.replace(_SLOT, "%r"))
        if template and {*map(type, values)} <= {float} and all(map(math.isfinite, values)):
            texts.append(template % (*rec.point, *values))
        else:
            texts.append(_dumps(rec))
    return f"[{_PAD}{(',' + _PAD).join(texts)}\n  ]" if texts else "[]"


def _dumps(rec: PointRecord) -> str:
    return json.dumps(rec.to_dict(), indent=2).replace("\n", _PAD)


def _subsample(records: list[PointRecord], cap: int = 200) -> list[PointRecord]:
    if len(records) <= cap:
        return records
    step = -(-len(records) // cap)
    return records[::step]


# ---------------------------------------------------------------------------
# Task execution


def _task_check_eq(cfg, args, out_stem, check) -> tuple[CheckReport, list[Path]]:
    sys_l = _resolve(cfg, args["lagrangian"], (ContactLagrangianSystem,),
                     "Lagrangian system")
    bar_expr, bar_params = _resolve_bar(cfg, args["lagrangian_bar"])
    zeta = _resolve_zeta(cfg, args["zeta"], sys_l)
    _require_consistent_n(sys_l.n_dim, lagrangian_bar=bar_expr)
    sys_l = _bound(sys_l, [bar_expr], f"systems.{args['lagrangian_bar']}",
                   bar_params, zeta.params)
    plan = _resolve_plan(cfg, args.get("plan"), sys_l.n_dim)
    return check(sys_l, bar_expr, zeta, plan, cfg.tolerances), []


def _task_check_horizontal(cfg, args, out_stem) -> tuple[CheckReport, list[Path]]:
    xi = _resolve(cfg, args["xi"], (SODESystem,), "second order system")
    xi_bar = _resolve(cfg, args["xi_bar"], (SODESystem,), "second order system")
    if xi.n_dim != xi_bar.n_dim:
        raise ConfigError("the two fields live on different charts", "args")
    xi = _bound(xi, [], f"systems.{args['xi_bar']}", xi_bar.params)
    zeta = _resolve_zeta(cfg, args["zeta"], xi)
    plan = _resolve_plan(cfg, args.get("plan"), xi.n_dim)
    return horizontal_similarity_check(xi.as_field(), xi_bar.as_field(), zeta,
                                       plan, xi.params, cfg.tolerances), []


def _task_check_inverse(cfg, args, out_stem) -> tuple[CheckReport, list[Path]]:
    sode = _resolve(cfg, args["sode"], (SODESystem,), "second order system")
    plan = _resolve_plan(cfg, args.get("plan"), sode.n_dim)
    report = naive_inverse_check(sode, plan, cfg.tolerances).report
    companion = di_ei_diagnostics(sode, plan, cfg.tolerances)
    report.diagnostics.append(
        f"obstruction diagnostics: verdict {companion.verdict}, "
        f"max residual {companion.max_residual!r}")
    return report, []


def _task_check_inverse_ext(cfg, args, out_stem) -> tuple[CheckReport, list[Path]]:
    sode = _resolve(cfg, args["sode"], (SODESystem,), "second order system")
    zeta = _resolve_zeta(cfg, args["zeta"], sode)
    plan = _resolve_plan(cfg, args.get("plan"), sode.n_dim)
    result = extended_inverse_check(sode, zeta, plan, cfg.tolerances)
    if result.conformal_rate is not None:
        result.report.diagnostics.append(
            f"conformal rate: {unparse(result.conformal_rate)}")
    return result.report, []


def _as_hamiltonian_system(obj) -> ContactHamiltonianSystem:
    if isinstance(obj, ContactHamiltonianSystem):
        return obj
    if isinstance(obj, ContactLagrangianSystem):
        return as_hamiltonian(obj)
    raise ConfigError("expected a Hamiltonian or Lagrangian system", "systems")


def _resolve_contact_pair(cfg, args) -> tuple[ContactHamiltonianSystem,
                                              ContactHamiltonianSystem]:
    kinds = (ContactHamiltonianSystem, ContactLagrangianSystem)
    sys_a, sys_b = (_as_hamiltonian_system(_resolve(cfg, args[key], kinds, "contact system"))
                    for key in ("system", "system_b"))
    if sys_a.n_dim != sys_b.n_dim:
        raise ConfigError("the two systems live on different charts", "args")
    return sys_a, sys_b


def _task_check_conformal(cfg, args, out_stem) -> tuple[CheckReport, list[Path]]:
    sys_a, sys_b = _resolve_contact_pair(cfg, args)
    factor = None
    if args.get("factor"):
        factor = _parse_expr(args["factor"], sys_a.n_dim, "args.factor")
        _binding([factor], sys_a.n_dim, "args.factor", sys_a.params, sys_b.params)
    plan = _resolve_plan(cfg, args.get("plan"), sys_a.n_dim)
    return conformal_similarity_check(sys_a, sys_b, factor, plan,
                                      cfg.tolerances), []


def _task_check_dynamical(cfg, args, out_stem) -> tuple[CheckReport, list[Path]]:
    sys_a, sys_b = _resolve_contact_pair(cfg, args)
    plan = _resolve_plan(cfg, args.get("plan"), sys_a.n_dim)
    report = dynamical_equivalence_check(sys_a, sys_b, plan, cfg.tolerances)
    zero = zero_set_diagnostic(sys_a, sys_b, plan, cfg.tolerances)
    report.diagnostics.extend(zero.diagnostics)
    return report, []


def _regularity_gate(ext: ExtendedLagrangianSystem, states, det_tol: float, where) -> None:
    """A SingularLagrangianError at the first state where |det W^zeta| (det W
    for zeta = z) is not above det_tol, NaN included, named by where(k); a W
    tape's error where it comes first."""
    rows, error = ext._hessian_tape.rows(states)
    dets = _hessian_dets(rows)
    singular = np.flatnonzero(~(abs(dets) > det_tol))
    if len(singular):
        k, name = singular[0], "det W" if ext.zeta.zeta is z() else "det W^zeta"
        raise SingularLagrangianError(f"velocity Hessian singular at {where(k)}: "
                                      f"{name} = {dets[k]:.3e}")
    if error is not None:
        raise error


def _trajectory_gate(sys_l: ContactLagrangianSystem, traj, det_tol: float) -> None:
    """:func:`_require_regular` at the states of an integrated trajectory."""
    states = np.column_stack([traj.q, traj.v, traj.z])
    _regularity_gate(sys_l._extended, states, det_tol, lambda k: f"t = {float(traj.times[k])!r}")


def _task_herglotz(cfg, args, out_stem) -> tuple[CheckReport, list[Path]]:
    """The Herglotz field, after the regularity gate at the points of the
    task's default plan (drawn in zeta's frame with a zeta)."""
    sys_l = _resolve(cfg, args["lagrangian"], (ContactLagrangianSystem,),
                     "Lagrangian system")
    n, frame, ext = sys_l.n_dim, None, sys_l._extended
    if args.get("zeta"):
        zeta = _resolve_zeta(cfg, args["zeta"], sys_l)
        ext = ExtendedLagrangianSystem(n, sys_l.L, zeta, sys_l.params)
        frame = zeta.frame_test(n, sys_l.params)
    field_obj = zeta_herglotz_field(ext)
    points = sample_states(_resolve_plan(cfg, None, n), n, frame)
    _regularity_gate(ext, points, cfg.tolerances.det_tol, points.__getitem__)
    diagnostics = [f"d{unparse(c)}/dt = {unparse(comp)}"
                   for c, comp in zip(coords(sys_l.n_dim), field_obj.components)]
    return CheckReport(verdict="pass", max_residual=0.0, diagnostics=diagnostics,
                       tolerances=cfg.tolerances), []


def _task_legendre(cfg, args, out_stem) -> tuple[CheckReport, list[Path]]:
    sys_l = _resolve(cfg, args["lagrangian"], (ContactLagrangianSystem,),
                     "Lagrangian system")
    zeta = _resolve_zeta(cfg, args.get("zeta", "zeta_identity"), sys_l)
    ext = ExtendedLagrangianSystem(sys_l.n_dim, sys_l.L, zeta, sys_l.params)
    report = run_check(
        sys_l.n_dim, ext._pullback_residual,
        _resolve_plan(cfg, args.get("plan"), sys_l.n_dim), cfg.tolerances,
        predicate=zeta.frame_test(sys_l.n_dim, sys_l.params))
    if report.records:
        first = report.records[0].point
        qv, momenta, zeta_val = zeta_legendre(ext, first)
        report.diagnostics.append(
            f"sample transform at {first}: q={qv.tolist()}, "
            f"p={momenta.tolist()}, action={zeta_val!r}")
    return report, []


def _task_simulate(cfg, args, out_stem) -> tuple[CheckReport, list[Path]]:
    obj = _resolve(cfg, args["system"], (ContactLagrangianSystem, SODESystem),
                   "simulable system")
    if isinstance(obj, SODESystem):
        field_obj, params, n = obj.as_field(), obj.params, obj.n_dim
    else:
        field_obj, params, n = herglotz_field(obj), obj.params, obj.n_dim
    p0 = _initial_state(args, n)
    t_end = _run_arg(args, "t", 1.0, above=0.0)
    dt = _run_arg(args, "dt", 1e-3, above=0.0)
    _require_steps(t_end, dt, "args.dt")
    resid_texts = args.get("accel_residual") or []
    if isinstance(resid_texts, str):
        resid_texts = [resid_texts]
    exprs = [_parse_expr(t, n, "args.accel_residual") for t in resid_texts]
    if exprs and len(exprs) != n:
        raise ConfigError(f"need {n} acceleration expressions", "args.accel_residual")
    _binding(exprs, n, "args.accel_residual", params)
    traj = integrate(field_obj, p0, t_end, dt, params)
    if isinstance(obj, ContactLagrangianSystem):
        _trajectory_gate(obj, traj, cfg.tolerances.det_tol)
    csv_path = Path(f"{out_stem}.csv")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    trajectory_to_csv(traj, csv_path)
    notes = [f"trajectory written to {csv_path.name}",
             f"steps = {len(traj.times) - 1}, dt = {dt!r}, t_end = {t_end!r}"]
    if exprs:
        defects = residual_table(
            {f"acceleration_defect_{i + 1}": [sub(a, e)] for i, (a, e) in
             enumerate(zip(field_obj.components[n:2 * n], exprs))}, n, params)
        states = list(traj.states())
        report = run_check(n, defects, tol=cfg.tolerances, points=states)
        notes.append(f"acceleration defect vs expected: max {report.max_residual!r} "
                     f"over {len(states)} samples (records subsampled)")
        report.records = _subsample(report.records)
    else:
        # a trajectory alone has no residuals to check
        report = CheckReport(verdict="pass", max_residual=0.0,
                             tolerances=cfg.tolerances)
    report.diagnostics[:0] = notes
    return report, [csv_path]


def _task_stationarity(cfg, args, out_stem) -> tuple[CheckReport, list[Path]]:
    sys_l = _resolve(cfg, args["lagrangian"], (ContactLagrangianSystem,),
                     "Lagrangian system")
    p0 = _initial_state(args, sys_l.n_dim, [0.0, 2.0, 0.0])
    grid = _run_arg(args, "grid", 200, int, above=1)
    perturbations = _run_arg(args, "perturbations", STAT_PERTURBATIONS, int, above=0)
    amplitude = _run_arg(args, "amplitude", STAT_AMPLITUDE, above=0.0)
    stat_tol = _run_arg(args, "stat_tol", STAT_TOL, above=0.0)
    _require_steps(1.0, 1.0 / (grid - 1), "args.grid")
    field_obj = herglotz_field(sys_l)
    traj = integrate(field_obj, p0, 1.0, 1.0 / (grid - 1), sys_l.params)
    _trajectory_gate(sys_l, traj, cfg.tolerances.det_tol)
    curve = trajectory_to_curve(traj)
    if args.get("random_curve"):
        rng = np.random.default_rng(_run_arg(args, "curve_seed", 0, int, above=-1))
        t = curve.times
        qa = np.outer(1 - t, curve.q[0]) + np.outer(t, curve.q[-1])
        va = np.tile(curve.q[-1] - curve.q[0], (len(t), 1)).astype(float)
        for k in range(1, 4):
            coeff = rng.uniform(-0.5, 0.5, size=curve.n)
            qa += np.outer(np.sin(k * np.pi * t), coeff)
            va += np.outer(k * np.pi * np.cos(k * np.pi * t), coeff)
        curve = SampledCurve(t, qa, va)
    return stationarity_test(sys_l.L, curve, p0.z, perturbations, amplitude,
                             stat_tol, sys_l.params), []


# command -> (runner, argparse flags).  A runner takes (cfg, args, out_stem),
# where out_stem is the output path without extension, and returns the
# report together with the extra files it wrote.  Flags carry no type or
# default: the runner converts, validates and defaults every run argument
# (``_run_arg``), so a flag and a config value fail alike, at args.<key>.
_REQUIRED = {"required": True}
_TASKS = {
    "simulate": (_task_simulate, {
        "system": _REQUIRED, "initial": {}, "t": {}, "dt": {},
        "accel_residual": {"action": "append"}}),
    "herglotz": (_task_herglotz, {"lagrangian": _REQUIRED, "zeta": {}}),
    "check-strong-eq": (partial(_task_check_eq, check=strong_equivalence_check), {
        "lagrangian": _REQUIRED, "lagrangian_bar": _REQUIRED, "zeta": _REQUIRED,
        "plan": {}}),
    "check-eq": (partial(_task_check_eq, check=general_equivalence_check), {
        "lagrangian": _REQUIRED, "lagrangian_bar": _REQUIRED, "zeta": _REQUIRED,
        "plan": {}}),
    "check-horizontal": (_task_check_horizontal, {
        "xi": _REQUIRED, "xi_bar": _REQUIRED, "zeta": _REQUIRED, "plan": {}}),
    "check-inverse": (_task_check_inverse, {"sode": _REQUIRED, "plan": {}}),
    "check-inverse-ext": (_task_check_inverse_ext, {
        "sode": _REQUIRED, "zeta": _REQUIRED, "plan": {}}),
    "check-conformal": (_task_check_conformal, {
        "system": _REQUIRED, "system_b": _REQUIRED, "factor": {}, "plan": {}}),
    "check-dynamical": (_task_check_dynamical, {
        "system": _REQUIRED, "system_b": _REQUIRED, "plan": {}}),
    "legendre": (_task_legendre, {"lagrangian": _REQUIRED, "zeta": {}, "plan": {}}),
    "stationarity": (_task_stationarity, {
        "lagrangian": _REQUIRED, "initial": {}, "grid": {}, "perturbations": {},
        "amplitude": {}, "stat_tol": {}, "random_curve": {"action": "store_true"},
        "curve_seed": {}}),
}


def run_task(cfg: RunConfig, command: str, args: dict, out_dir: Path,
             tag: str) -> tuple[CheckReport, list[Path]]:
    """Execute one subcommand; returns the report and extra emitted files.

    Library-level runtime failures (singular systems, evaluation domain
    errors, sampling exhaustion) become error reports, not tracebacks.
    """
    if not isinstance(command, str) or command not in _TASKS:
        raise ConfigError(f"unknown command {command!r}", "tasks")
    runner, _ = _TASKS[command]
    try:
        report, files = runner(cfg, args, out_dir / tag)
    except ConfigError:
        raise
    except Exception as exc:
        report, files = error_report(f"{type(exc).__name__}: {exc}",
                                     cfg.tolerances), []
    report.task = tag
    return report, files


# ---------------------------------------------------------------------------
# Argument parsing


def _global_options(parser, suppress: bool) -> None:
    kwargs = {"default": argparse.SUPPRESS} if suppress else {"default": None}
    parser.add_argument("--config", help="JSON run configuration", **kwargs)
    parser.add_argument("--out", help="output directory for reports", **kwargs)
    parser.add_argument("--report", help="explicit report path (single task)",
                        **kwargs)
    parser.add_argument("--tag", help="report tag / file stem", **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herglotz",
        description="Batch verification for contact Lagrangian/Hamiltonian "
                    "systems: simulation, equivalence and inverse checks.")
    _global_options(parser, suppress=False)
    # the same options are accepted after the subcommand; SUPPRESS keeps a
    # value given before it from being clobbered by the subparser default
    common = argparse.ArgumentParser(add_help=False)
    _global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _TASKS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, **kwargs)
    sub.add_parser("batch", parents=[common])
    return parser


_VALUE_FLAGS = {"--config", "--out", "--report", "--tag"} | {
    f"--{flag.replace('_', '-')}" for _, flags in _TASKS.values()
    for flag, kwargs in flags.items() if kwargs.get("action") != "store_true"}


def _bind_dash_values(argv: list[str]) -> list[str]:
    """Join a value with a leading "-" to its flag ("--initial -1,0,0" ->
    "--initial=-1,0,0"); argparse would read the value as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(_bind_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return _run(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run(ns: argparse.Namespace) -> int:
    """Run the parsed command line; a ConfigError ends the run.  The output
    directories are made before any task runs."""
    if ns.command == "batch":
        for option in ("tag", "report"):
            if getattr(ns, option) is not None:
                raise ConfigError(f"batch takes no --{option}", option)
    cfg = load_config(ns.config)
    out_dir = Path(ns.out) if ns.out else cfg.output_dir
    with _writing("output_dir"):
        out_dir.mkdir(parents=True, exist_ok=True)

    if ns.command == "batch":
        worst = EXIT_PASS
        for idx, task in enumerate(cfg.tasks or default_tasks()):
            stem = _task_stem(task, idx)
            try:
                report, _ = run_task(cfg, task["command"], task.get("args", {}), out_dir, stem)
            except ConfigError as exc:
                if exc.path.startswith("args"):   # a run argument: name its task
                    raise ConfigError(exc.message, f"tasks[{idx}].{exc.path}") from None
                raise
            with _writing("output_dir"):
                write_report(report, out_dir / f"{stem}.json")
            print(f"{stem}: {report.verdict} (max residual "
                  f"{report.max_residual!r})")
            worst = max(worst, _EXIT_CODE[report.verdict])
        return worst

    args = {key: value for key, value in vars(ns).items()
            if key not in ("command", "config", "out", "report", "tag")
            and value is not None and value is not False}
    tag = ns.command if ns.tag is None else _check_tag(ns.tag, "tag")
    report_path = Path(ns.report) if ns.report else out_dir / f"{tag}.json"
    where = "report" if ns.report else "output_dir"
    with _writing(where):
        report_path.parent.mkdir(parents=True, exist_ok=True)
    report, _ = run_task(cfg, ns.command, args, out_dir, tag)
    with _writing(where):
        write_report(report, report_path)
    print(f"{ns.command}: {report.verdict} (max residual {report.max_residual!r}; "
          f"report {report_path})")
    return _EXIT_CODE[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
