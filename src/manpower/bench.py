"""Benchmark harness: canned experiments and comparison metrics.

``run_experiment`` drives six named studies:

* ``exp1`` — the full pipeline on the six-job week: staffing solved by
  five solvers, a roster evolved for the winning staff, and a duty table
  dealt for the busiest job, with every stage re-validated;
* ``exp2`` — duty tables: a deterministic rotation and a random table;
* ``exp3`` — the same staffing problem under composed (AND/OR/NOT)
  constraint expressions;
* ``exp4`` — an urgent task pulls the reserve away: staffing is solved
  with a reserve margin, the withdrawal arithmetic is applied, and only
  then is the roster solved for the remaining staff;
* ``exp5`` — the two-objective trade-off (salary vs. delivered hours);
* ``tablegen_timing`` — wall-clock of table generation at two horizons.
"""

from __future__ import annotations

import csv
import io as _stringio
import json
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .baselines import PSOConfig, SAConfig, ip_solve, pso_solve, sa_solve
from .constraints import (
    ConstraintKind,
    atom,
    apply_emergency,
    eval_atom,
    eval_expr,
    parse_constraint_string,
)
from .domain import HeadcountVector, ProblemInstance, full_attendance, total_work_time
from .errors import (
    ConfigurationError,
    InfeasibleError,
    MetricError,
    SearchSpaceError,
    TableGenerationError,
    _require_int,
)
from .evolution import EAConfig, SolveResult, run_ea, solve_assignment
from .instances import reference_instance
from .moea import run_moea
from .objectives import (
    Direction,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    f2_total_salary,
)
from .tablegen import (
    RotationSpec,
    SuitablePolicy,
    default_max_assignments,
    generate_rotation,
    generate_table,
    table_to_tensor,
    validate_table,
)

EXPERIMENT_IDS = ("exp1", "exp2", "exp3", "exp4", "exp5", "tablegen_timing")

BASIC = "k1&k2&k3&k4&k5&k6"

_SOLVER_ERRORS = (
    ConfigurationError,
    InfeasibleError,
    MetricError,
    SearchSpaceError,
    TableGenerationError,
)


# ---------------------------------------------------------------------------
# metrics


def accuracy(reference_value: float, other_value: float) -> float:
    """Reference result as a percentage of another solver's result
    (minimization: 100.0 means they tie, above 100 means the other
    solver did worse), reported to 0.1%."""
    if reference_value <= 0 or other_value <= 0:
        raise MetricError(
            f"accuracy needs positive values, got {reference_value} vs {other_value}"
        )
    return round(100.0 * reference_value / other_value, 1)


def convergence_rank(frequencies: Sequence[float]) -> list[int]:
    """Competition ranking of stability frequencies: rank 1 is the most
    stable algorithm, and ties share the smaller rank."""
    if not frequencies:
        raise MetricError("no frequencies to rank")
    for f in frequencies:
        if not 0.0 <= f <= 1.0:
            raise MetricError(f"stability frequency {f} outside [0, 1]")
    return [1 + sum(1 for other in frequencies if other > f) for f in frequencies]


def stability(values: Sequence[float], rel_tol: float = 1e-3) -> float:
    """Fraction of runs landing within ``rel_tol`` of the modal value."""
    if not values:
        raise MetricError("no values")
    rounded = [round(v, 6) for v in values]
    mode = Counter(rounded).most_common(1)[0][0]
    tol = rel_tol * max(1.0, abs(mode))
    return sum(1 for v in values if abs(v - mode) <= tol) / len(values)


# ---------------------------------------------------------------------------
# report structures


@dataclass(frozen=True)
class TrialResult:
    solver: str
    seed: int
    value: float
    feasible: bool
    violation: float
    evaluations: int
    millis: float
    curve: tuple[float, ...]
    counts: tuple[int, ...]
    error: Optional[str] = None


@dataclass(frozen=True)
class ComparisonRow:
    solver: str
    best: float
    median: float
    feasible_rate: float
    accuracy_pct: Optional[float]
    stability_freq: float
    rank: Optional[int]
    median_millis: float
    mean_evaluations: float


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    rows: tuple[ComparisonRow, ...]
    trials: tuple[TrialResult, ...]
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "rows": [vars(r) for r in self.rows],
            "trials": [vars(t) | {"curve": list(t.curve), "counts": list(t.counts)} for t in self.trials],
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# experiment setup


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one study: the experiment id, the
    instance it runs on, the constraint/objective setup, which solvers
    compete, how many trials, and the base seed (trial ``t`` runs with
    ``seed + t``).  ``None`` fields fall back to the experiment's
    defaults."""

    id: str
    instance: Optional[ProblemInstance] = None
    constraints: Optional[str] = None
    objectives: Optional[ObjectiveBundle] = None
    solvers: Optional[tuple[str, ...]] = None
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.id not in EXPERIMENT_IDS:
            raise ConfigurationError(
                f"unknown experiment {self.id!r}; choose from {', '.join(EXPERIMENT_IDS)}"
            )
        _require_int("trials", self.trials, 1)
        _require_int("seed", self.seed, 0)
        if self.solvers is not None:
            object.__setattr__(self, "solvers", tuple(self.solvers))
            unknown = [s for s in self.solvers if s not in SOLVERS]
            if unknown:
                raise ConfigurationError(f"unknown solvers {unknown}")


# ---------------------------------------------------------------------------
# solver registry


def _salary_bundle() -> ObjectiveBundle:
    return ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),))


def _run_ea_with(encoding: str):
    def runner(inst: ProblemInstance, bundle: ObjectiveBundle, expr, seed: int) -> SolveResult:
        cfg = EAConfig(encoding=encoding, seed=seed)
        return run_ea(inst, bundle, expr, cfg)

    return runner


def _run_pso(inst: ProblemInstance, bundle: ObjectiveBundle, expr, seed: int) -> SolveResult:
    return pso_solve(inst, bundle, expr, PSOConfig(seed=seed))


def _run_sa(inst: ProblemInstance, bundle: ObjectiveBundle, expr, seed: int) -> SolveResult:
    return sa_solve(inst, bundle, expr, SAConfig(seed=seed))


def _run_ip(inst: ProblemInstance, bundle: ObjectiveBundle, expr, seed: int) -> SolveResult:
    del seed
    return ip_solve(inst, bundle, expr)


SOLVERS: dict[str, Callable] = {
    "ea_ri": _run_ea_with("ri"),
    "ea_bg": _run_ea_with("bg"),
    "pso": _run_pso,
    "sa": _run_sa,
    "ip": _run_ip,
}


def _run_trials(
    solver: str,
    inst: ProblemInstance,
    bundle: ObjectiveBundle,
    expr,
    seed: int,
    trials: int,
) -> list[TrialResult]:
    out = []
    for t in range(trials):
        t0 = time.perf_counter()
        try:
            res = SOLVERS[solver](inst, bundle, expr, seed + t)
        except _SOLVER_ERRORS as exc:
            out.append(
                TrialResult(
                    solver=solver,
                    seed=seed + t,
                    value=float("inf"),
                    feasible=False,
                    violation=float("inf"),
                    evaluations=0,
                    millis=(time.perf_counter() - t0) * 1e3,
                    curve=(),
                    counts=(),
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        millis = (time.perf_counter() - t0) * 1e3
        out.append(
            TrialResult(
                solver=solver,
                seed=seed + t,
                value=res.value,
                feasible=res.feasible,
                violation=res.violation,
                evaluations=res.evaluations,
                millis=millis,
                curve=tuple(res.trace.best_curve()),
                counts=res.counts.counts,
            )
        )
    return out


def _comparison(trials_by_solver: dict[str, list[TrialResult]], exact: Optional[float]) -> tuple[ComparisonRow, ...]:
    solvers = list(trials_by_solver)
    freqs = []
    for s in solvers:
        values = [t.value for t in trials_by_solver[s] if t.error is None]
        freqs.append(stability(values) if values else 0.0)
    ranks = convergence_rank(freqs)
    rows = []
    for s, freq, rank in zip(solvers, freqs, ranks):
        trials = trials_by_solver[s]
        values = [t.value for t in trials if t.error is None]
        best = min(values) if values else float("inf")
        acc = None
        if values and exact is not None and exact > 0 and best > 0:
            acc = accuracy(exact, best)
        rows.append(
            ComparisonRow(
                solver=s,
                best=best,
                median=float(statistics.median(values)) if values else float("inf"),
                feasible_rate=sum(t.feasible for t in trials) / len(trials),
                accuracy_pct=acc,
                stability_freq=freq,
                rank=rank,
                median_millis=float(statistics.median(t.millis for t in trials)),
                mean_evaluations=float(statistics.mean(t.evaluations for t in trials)),
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# experiments


def _exp1(spec: ExperimentSpec) -> ExperimentReport:
    """Staffing by five solvers, a roster for the winner, and a duty
    table for the busiest job — each stage validated."""
    inst = spec.instance if spec.instance is not None else reference_instance()
    text = spec.constraints if spec.constraints is not None else BASIC
    expr = parse_constraint_string(text)
    bundle = spec.objectives if spec.objectives is not None else _salary_bundle()
    solvers = spec.solvers if spec.solvers is not None else ("ea_bg", "ea_ri", "ip", "pso", "sa")
    seed, trials = spec.seed, spec.trials

    trials_by_solver = {
        name: _run_trials(name, inst, bundle, expr, seed, trials) for name in solvers
    }
    exact = None
    if "ip" in trials_by_solver and trials_by_solver["ip"][0].error is None:
        exact = trials_by_solver["ip"][0].value
    rows = _comparison(trials_by_solver, exact)

    staffing = trials_by_solver.get("ea_ri") or trials_by_solver[solvers[0]]
    winner = HeadcountVector(staffing[0].counts)
    stage1_checks = {
        kind.value: eval_atom(atom(kind).constraint, None, winner, inst)
        for kind in ConstraintKind
        if kind.value.startswith("k")
    }

    roster_cfg = EAConfig(population_size=30, generations=25, seed=seed, encoding="bg")
    assignment = solve_assignment(winner, inst, expr, roster_cfg)
    stage2_checks = {
        kind.value: eval_atom(atom(kind).constraint, assignment.tensor, winner, inst)
        for kind in ConstraintKind
        if kind.value.startswith("k")
    }

    # final stage: deal the busiest job's staff into a duty table and
    # lift it back into the tensor model
    busiest = max(range(len(inst.jobs)), key=lambda j: winner.counts[j])
    job = inst.jobs[busiest]
    members = tuple(f"{job.code}{i}" for i in range(winner.counts[busiest]))
    per_day = max(1, len(members) - 1)
    policy = SuitablePolicy(
        max_assignments=default_max_assignments(
            inst.horizon_days, len(members), per_day, rest_cap=inst.rest_cap
        )
    )
    table = generate_table(members, inst.horizon_days, per_day, policy, seed=seed, job=job.code)
    lifted = table_to_tensor(table, inst)

    notes = {
        "constraints": text,
        "exact_value": exact,
        "stage1_counts": list(winner.counts),
        "stage1_checks": stage1_checks,
        "stage2_feasible": assignment.feasible,
        "stage2_value": assignment.value,
        "stage2_checks": stage2_checks,
        "stage3_job": job.code,
        "stage3_table_valid": validate_table(table, policy),
        "stage3_picks": [list(day) for day in table.picks],
        "stage3_tensor_attendance": int(lifted.day_attendance().sum()),
    }
    all_trials = tuple(t for ts in trials_by_solver.values() for t in ts)
    return ExperimentReport("exp1", rows, all_trials, notes)


def _exp2(spec: ExperimentSpec) -> ExperimentReport:
    """Rotation fairness and random-table admissibility."""
    rotation = generate_rotation(RotationSpec(positions=3, people=5), days=5)
    served = rotation.assignment_counts()

    members = tuple(f"m{i}" for i in range(10))
    days, per_day = 7, 3
    policy = SuitablePolicy(
        max_assignments=default_max_assignments(days, len(members), per_day, rest_cap=3)
    )
    table = generate_table(members, days, per_day, policy, seed=spec.seed)
    notes = {
        "rotation_picks": [list(day) for day in rotation.picks],
        "rotation_counts": dict(sorted(served.items())),
        "rotation_balanced": len(set(served.values())) == 1,
        "table_picks": [list(day) for day in table.picks],
        "table_valid": validate_table(table, policy),
        "table_counts": table.assignment_counts(),
    }
    return ExperimentReport("exp2", (), (), notes)


def _exp3(spec: ExperimentSpec) -> ExperimentReport:
    """One instance, three constraint compositions."""
    inst = spec.instance if spec.instance is not None else reference_instance()
    bundle = spec.objectives if spec.objectives is not None else _salary_bundle()
    expressions = {
        "basic": BASIC,
        "with_reserve": BASIC + "&y1",
        "relaxed_cap": "k1&k2&k3&k6&(k4|k5)",
    }
    if spec.constraints is not None:
        expressions["requested"] = spec.constraints
    trials_by_solver: dict[str, list[TrialResult]] = {}
    values = {}
    for label, text in expressions.items():
        expr = parse_constraint_string(text)
        runs = _run_trials("ea_ri", inst, bundle, expr, spec.seed, spec.trials)
        # rename so rows keep the composition label
        trials_by_solver[label] = [replace(t, solver=label) for t in runs]
        ok = [t.value for t in runs if t.error is None]
        values[label] = min(ok) if ok else None
    rows = _comparison(trials_by_solver, None)
    notes = {"expressions": expressions, "best_values": values}
    all_trials = tuple(t for ts in trials_by_solver.values() for t in ts)
    return ExperimentReport("exp3", rows, all_trials, notes)


def _exp4(spec: ExperimentSpec) -> ExperimentReport:
    """An urgent task pulls the reserve away before the roster is built.

    Staffing is first sized with the reserve margin attached, the
    withdrawal arithmetic removes the pulled employees, and the roster
    is then solved for the staff that actually remains."""
    inst = spec.instance if spec.instance is not None else reference_instance()
    if inst.emergency is None:
        raise ConfigurationError("exp4 needs an instance with an emergency block")
    bundle = spec.objectives if spec.objectives is not None else _salary_bundle()
    text = spec.constraints if spec.constraints is not None else BASIC + "&y1"
    expr = parse_constraint_string(text)

    runs = _run_trials("ea_ri", inst, bundle, expr, spec.seed, spec.trials)
    ok = [t for t in runs if t.error is None]
    if not ok:
        return ExperimentReport("exp4", _comparison({"ea_ri": runs}, None), tuple(runs),
                                {"constraints": text, "error": "no staffing trial succeeded"})
    best = min(ok, key=lambda t: (not t.feasible, t.value))
    hc = HeadcountVector(best.counts)
    t_total = total_work_time(full_attendance(hc, inst), inst)
    cost = f2_total_salary(hc, inst)
    withdrawn_hc, adjusted_t, adjusted_c = apply_emergency(hc, t_total, cost, inst.emergency, inst)

    # the withdrawal happens first; only then is the roster solved for
    # whoever is left
    roster_cfg = EAConfig(population_size=30, generations=25, seed=spec.seed, encoding="bg")
    roster = solve_assignment(withdrawn_hc, inst, parse_constraint_string(BASIC), roster_cfg)

    notes = {
        "constraints": text,
        "counts": list(hc.counts),
        "reserve_ok": eval_expr(atom("y1"), None, hc, inst),
        "time_before": t_total,
        "cost_before": cost,
        "counts_after": list(withdrawn_hc.counts),
        "time_after": adjusted_t,
        "cost_after": adjusted_c,
        "alpha": inst.emergency.alpha,
        "roster_feasible": roster.feasible,
        "roster_value": roster.value,
    }
    rows = _comparison({"ea_ri": runs}, None)
    return ExperimentReport("exp4", rows, tuple(runs), notes)


def _exp5(spec: ExperimentSpec) -> ExperimentReport:
    """Two objectives: cheapest wage bill vs most delivered hours."""
    inst = spec.instance if spec.instance is not None else reference_instance()
    bundle = spec.objectives
    if bundle is None:
        bundle = ObjectiveBundle(
            (
                Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),
                Objective(ObjectiveKind.TOTAL_TIME, Direction.MAXIMIZE),
            )
        )
    text = spec.constraints if spec.constraints is not None else BASIC
    expr = parse_constraint_string(text)
    cfg = EAConfig(population_size=60, generations=40, seed=spec.seed)
    result = run_moea(inst, bundle, expr, cfg)
    notes = {
        "archive_size": len(result.archive),
        "hypervolume": result.trace.points[-1].best,
        "hypervolume_curve": [p.best for p in result.trace.points],
        "reference_point": list(result.reference_point),
        "archive": [
            {"counts": list(e.counts.counts), "objectives": list(e.objectives)}
            for e in result.archive
        ],
        "evaluations": result.evaluations,
    }
    return ExperimentReport("exp5", (), (), notes)


def _tablegen_timing(spec: ExperimentSpec) -> ExperimentReport:
    members = tuple(f"m{i}" for i in range(12))
    timings = {}
    for days in (7, 30):
        policy = SuitablePolicy(
            max_assignments=default_max_assignments(days, len(members), 4)
        )
        samples = []
        valid = True
        for t in range(spec.trials):
            t0 = time.perf_counter()
            table = generate_table(members, days, 4, policy, seed=spec.seed + t)
            samples.append((time.perf_counter() - t0) * 1e3)
            valid = valid and validate_table(table, policy)
        timings[str(days)] = {
            "millis": samples[0],
            "median_millis": float(statistics.median(samples)),
            "valid": valid,
        }
    return ExperimentReport("tablegen_timing", (), (), {"timings": timings})


_RUNNERS = {
    "exp1": _exp1,
    "exp2": _exp2,
    "exp3": _exp3,
    "exp4": _exp4,
    "exp5": _exp5,
    "tablegen_timing": _tablegen_timing,
}


def run_experiment(spec: ExperimentSpec | str, seed: int = 0, trials: int = 1) -> ExperimentReport:
    """Run one experiment and return its report.

    Accepts a full :class:`ExperimentSpec`, or just the experiment id
    with ``seed``/``trials`` for the defaults."""
    if isinstance(spec, str):
        spec = ExperimentSpec(id=spec, seed=seed, trials=trials)
    return _RUNNERS[spec.id](spec)


def write_report(report: ExperimentReport, out_dir: str) -> None:
    """Write the full report into a directory: ``report.json`` with the
    per-trial detail and notes, ``comparison.csv`` with one row per
    solver, and ``trace_<solver>_<seed>.csv`` per trial curve."""
    from .io import atomic_write

    os.makedirs(out_dir, exist_ok=True)
    atomic_write(
        os.path.join(out_dir, "report.json"),
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
    )

    buf = _stringio.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["solver", "best", "median", "feasible_rate", "accuracy_pct",
         "stability_freq", "rank", "median_millis", "mean_evaluations"]
    )
    for r in report.rows:
        w.writerow(
            [r.solver, repr(r.best), repr(r.median), r.feasible_rate,
             "" if r.accuracy_pct is None else r.accuracy_pct,
             r.stability_freq, "" if r.rank is None else r.rank,
             f"{r.median_millis:.3f}", r.mean_evaluations]
        )
    atomic_write(os.path.join(out_dir, "comparison.csv"), buf.getvalue())

    for t in report.trials:
        if not t.curve:
            continue
        buf = _stringio.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["generation", "best"])
        for gen, value in enumerate(t.curve):
            w.writerow([gen, repr(value)])
        atomic_write(os.path.join(out_dir, f"trace_{t.solver}_{t.seed}.csv"), buf.getvalue())
