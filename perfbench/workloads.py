"""Benchmark workloads: seeded inputs, operations and their known answers.

A workload turns ``(seed, tiny)`` into a fixed list of operations.  Every
pass of a run executes the same list in a fresh interpreter, so symbolic
caches start cold on each pass, as they do for a CLI user.  An operation is
one CLI task, one check call or one simulation; it returns an ``Outcome``
whose body is hashed to detect passes that disagree.

Calls into the program go through module attributes (``equivalence.x``
rather than ``from equivalence import x``) so that the tracer's wrappers,
installed after set-up, see them.

Importing this module requires ``src`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from herglotz import cli, equivalence, expr, inverse, lagrangian
from herglotz.checks import SamplePlan
from herglotz.contact import ContactHamiltonianSystem, CoordOneForm
from herglotz.extended import ActionFunction
from herglotz.inverse import SODESystem
from herglotz.lagrangian import ContactLagrangianSystem

# The three default tasks whose fixtures are built to fail; every other
# default task, and every generated operation, is expected to pass.
BATCH_EXPECTED_FAIL = frozenset({
    "check-conformal_saddle_pair", "check-eq_power_gauge_3",
    "check-inverse_parachute_perturbed",
})

ORACLE_RTOL = 1e-8


@dataclass
class Outcome:
    verdict: str
    body: str = ""                      # deterministic output, hashed
    values: list = field(default_factory=list)   # residual values to test for finiteness
    points: int = 0                     # chart points verified
    steps: int = 0                      # RK4 steps taken


@dataclass
class Operation:
    label: str
    run: object                         # () -> Outcome
    expected: str = "pass"


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def report_outcome(report, steps: int = 0, extra_body: bytes = b"") -> Outcome:
    """Outcome of a CheckReport: its body, residuals and record count."""
    data = report.to_dict()
    values = [data["max_residual"]]
    for rec in data["residuals"]:
        values.extend(rec["values"].values())
    body = json.dumps(data, sort_keys=True)
    return Outcome(report.verdict, digest(body, extra_body), values,
                   len(data["residuals"]), steps)


def _box(n: int) -> tuple:
    return tuple((-1.0, 1.0) for _ in range(2 * n + 1))


def _plan(rng, n: int, count: int) -> SamplePlan:
    return SamplePlan("random", _box(n), count, int(rng.integers(1, 2**31)))


# ---------------------------------------------------------------------------
# Dense velocity-Hessian family


def dense_text(n: int, zslot: str = "z") -> str:
    """L_n = 1/2 sum (1 + 0.1 q_i^2) v_i^2 + 0.1 sum_{i<j} cos(q_i - q_j) v_i v_j
    - 1/2 sum q_i^2 - gam z, with the action slot spelled ``zslot``."""
    terms = [f"0.5*(1 + 0.1*q{i}^2)*v{i}^2" for i in range(1, n + 1)]
    terms += [f"0.1*cos(q{i} - q{j})*v{i}*v{j}"
              for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    terms += [f"(-0.5)*q{i}^2" for i in range(1, n + 1)]
    terms.append(f"(-gam)*{zslot}")
    return " + ".join(terms)


DENSE_PARAMS = {"gam": 0.2}


def gauge_texts(text_of, n: int, c: float) -> tuple[str, str]:
    """Bar-Lagrangian and action function of the gauge zeta = z + c q1 q_n.

    In the zeta-chart the old action coordinate reads zeta - c q1 q_n, and
    the gauge adds the total derivative c (v1 q_n + q1 v_n).
    """
    bar = f"{text_of(f'(z - {c!r}*q1*q{n})')} + {c!r}*(v1*q{n} + q1*v{n})"
    return bar, f"z + {c!r}*q1*q{n}"


def _conformal_rescaling(ham: ContactHamiltonianSystem, n: int
                         ) -> ContactHamiltonianSystem:
    factor = expr.parse("exp(0.1*q1)", n)
    eta = CoordOneForm(n, tuple(expr.mul(factor, c) for c in ham.eta.components))
    return ContactHamiltonianSystem(n, eta, expr.mul(factor, ham.H), dict(ham.params))


def _build_op(system: ContactLagrangianSystem, point, oracle: bool):
    """Herglotz field build, one-point evaluation of every component and,
    for oracle sizes, the LU acceleration cross-check."""
    def run() -> Outcome:
        n = system.n_dim
        field_ = lagrangian.herglotz_field(system)
        values = [expr.evaluate(c, point, system.params) for c in field_.components]
        verdict = "pass" if all(map(math.isfinite, values)) else "fail"
        if oracle:
            lu = lagrangian.herglotz_accelerations(system, point)
            sym = np.array(values[n:2 * n])
            if np.max(np.abs(sym - lu)) > ORACLE_RTOL * max(1.0, np.max(np.abs(lu))):
                verdict = "fail"
        return Outcome(verdict, digest(repr(values)), values, 1)
    return run


def dense_sweep(seed: int, tiny: bool, out_dir: Path) -> list[Operation]:
    rng = np.random.default_rng(seed)
    top = 3 if tiny else 6
    ops = []
    for n in range(1, top + 1):
        system = ContactLagrangianSystem(n, expr.parse(dense_text(n), n),
                                         dict(DENSE_PARAMS))
        point = expr.StatePoint.from_coords(rng.uniform(-1.0, 1.0, 2 * n + 1), n)
        ops.append(Operation(f"build.n{n}", _build_op(system, point, n <= 5)))
        if n == 6:
            break
        c = float(rng.uniform(0.1, 0.5))
        bar_text, zeta_text = gauge_texts(lambda zs: dense_text(n, zs), n, c)
        bar = expr.parse(bar_text, n)
        zeta = ActionFunction(expr.parse(zeta_text, n))
        strong_plan = _plan(rng, n, 3 if tiny else 10)
        dyn_plan = _plan(rng, n, 5 if tiny else 50)
        general_plan = _plan(rng, n, 3 if tiny else 10)
        ops.append(Operation(f"strong.n{n}", lambda s=system, b=bar, zt=zeta, p=strong_plan:
                             report_outcome(equivalence.strong_equivalence_check(s, b, zt, p))))

        def dynamical(s=system, p=dyn_plan, n=n):
            ham = lagrangian.as_hamiltonian(s)
            return report_outcome(equivalence.dynamical_equivalence_check(
                ham, _conformal_rescaling(ham, n), p))
        ops.append(Operation(f"dynamical.n{n}", dynamical))
        if n <= 4:
            identity = ActionFunction(expr.parse("z", n))
            ops.append(Operation(f"general.n{n}", lambda s=system, z=identity, p=general_plan:
                                 report_outcome(equivalence.general_equivalence_check(
                                     s, s.L, z, p))))
    return ops


# ---------------------------------------------------------------------------
# Trajectories through the CLI task runner


def _csv_steps(path: Path) -> tuple[bytes, int]:
    data = path.read_bytes()
    return data, data.count(b"\n") - 2


def trajectory(seed: int, tiny: bool, out_dir: Path) -> list[Operation]:
    rng = np.random.default_rng(seed)
    systems = {f"dense{n}": {"kind": "lagrangian", "n": n, "L": dense_text(n),
                             "params": DENSE_PARAMS} for n in (2, 3)}
    config_path = out_dir / "trajectory_config.json"
    config_path.write_text(json.dumps({"systems": systems}))
    cfg = cli.load_config(str(config_path))
    t_para, t_dense, grid = (1.0, 0.2, 100) if tiny else (10.0, 1.0, 1000)
    perturbations = 8
    para0 = [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(1.0, 3.0)),
             float(rng.uniform(-0.2, 0.2))]

    def simulate(name, initial, t_end):
        def run() -> Outcome:
            tag = f"simulate_{name}"
            report, files = cli.run_task(cfg, "simulate",
                                         {"system": name, "initial": initial,
                                          "t": t_end, "dt": 1e-3}, out_dir, tag)
            data, steps = _csv_steps(files[0])
            return report_outcome(report, steps, data)
        return run

    def stationarity() -> Outcome:
        report, _ = cli.run_task(cfg, "stationarity",
                                 {"lagrangian": "parachute", "initial": para0,
                                  "grid": grid, "perturbations": perturbations},
                                 out_dir, "stationarity_parachute")
        # one integration over the grid, then one z-operator solve for the
        # base curve and for each +/- perturbation of the single coordinate
        steps = (grid - 1) * (2 + 2 * perturbations)
        return report_outcome(report, steps)

    ops = [Operation("simulate.parachute", simulate("parachute", para0, t_para))]
    for n in (2, 3):
        initial = [float(x) for x in rng.uniform(-0.5, 0.5, 2 * n)] \
            + [float(rng.uniform(-0.2, 0.2))]
        ops.append(Operation(f"simulate.dense{n}", simulate(f"dense{n}", initial, t_dense)))
    ops.append(Operation("stationarity.parachute", stationarity))
    return ops


# ---------------------------------------------------------------------------
# Stream of distinct random regular Lagrangians


def _random_regular_text(rng, n: int):
    """Recipe of tests/conftest.random_regular_lagrangian, as expression text
    with the action slot left open: kinetic coefficients in [0.8, 1.6],
    2..5 perturbation monomials with coefficients in [-0.05, 0.05]."""
    kinetic = [f"{float(rng.uniform(0.8, 1.6)) / 2.0!r}*v{i}^2" for i in range(1, n + 1)]
    monomials = []
    for i in range(1, n + 1):
        monomials += [f"q{i}", f"q{i}^2", f"q{i}^3", f"q{i}*{{z}}", f"q{i}^2*{{z}}",
                      f"q{i}*v{i}", f"v{i}*{{z}}", f"q{i}^2*v{i}^2"]
    monomials += ["{z}", "{z}^2", "{z}^2*q1^2"]
    if n >= 2:
        monomials += ["v1*v2", "q1*q2", "q1*v2*{z}"]
    count = int(rng.integers(2, 6))
    picks = rng.choice(len(monomials), size=count, replace=False)
    terms = kinetic + [f"({float(rng.uniform(-0.05, 0.05))!r})*{monomials[int(k)]}"
                       for k in picks]
    template = " + ".join(terms)
    return lambda zslot: template.replace("{z}", f"({zslot})")


def symbolic_stream(seed: int, tiny: bool, out_dir: Path) -> list[Operation]:
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(8 if tiny else 300):
        n = k % 3 + 1
        text_of = _random_regular_text(rng, n)
        system = ContactLagrangianSystem(n, expr.parse(text_of("z"), n), {})
        bar_text, zeta_text = gauge_texts(text_of, n, float(rng.uniform(0.1, 0.5)))
        bar = expr.parse(bar_text, n)
        zeta = ActionFunction(expr.parse(zeta_text, n))
        strong_plan, inverse_plan = _plan(rng, n, 3), _plan(rng, n, 3)
        ops.append(Operation(f"strong.{k}", lambda s=system, b=bar, zt=zeta, p=strong_plan:
                             report_outcome(equivalence.strong_equivalence_check(s, b, zt, p))))

        def naive(s=system, p=inverse_plan):
            comps = lagrangian.herglotz_field(s).components
            sode = SODESystem(s.n_dim, comps[s.n_dim:2 * s.n_dim], s.L, s.params)
            return report_outcome(inverse.naive_inverse_check(sode, p).report)
        ops.append(Operation(f"inverse.{k}", naive))
    return ops


BUILDERS = {"dense_sweep": dense_sweep, "trajectory": trajectory,
            "symbolic_stream": symbolic_stream}
