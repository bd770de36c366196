"""Workload inputs and the request a planner sends.

Every input is derived from the workload seed: the instance (for
``pareto``) and, per request index, the solver seed and (for ``roster``)
the staff.  A request does what the matching CLI subcommand does: load
the instance JSON, parse the constraint string, call the public solver
and write the result with the matching ``io`` writer.

``call(name, fn, *args)`` is how a request invokes each top-level step;
the untraced driver passes :func:`direct`, the traced one a span
recorder.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from manpower import io as mio
from manpower.baselines import PSOConfig, SAConfig, ip_solve, pso_solve, sa_solve
from manpower.constraints import parse_constraint_string
from manpower.domain import HeadcountVector, Job, ProblemInstance
from manpower.evolution import EAConfig, PenaltyConfig, run_ea, solve_assignment
from manpower.instances import reference_instance
from manpower.moea import run_moea
from manpower.objectives import (
    Direction,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    f2_total_salary,
    total_time_headcount,
)

WORKLOADS = ("staffing", "roster", "pareto")
CONSTRAINTS = "k1&k2&k3&k4&k5&k6"

# one staffing cycle: every solver config at its defaults, in this order
STAFFING_CONFIGS = ("ea_ri", "ea_bg", "ea_barrier", "pso", "sa", "ip")

ROSTER_STAFF = (36, 44)        # inclusive range of the drawn staff total
ROSTER_POPULATION = 20
ROSTER_GENERATIONS = 10
PARETO_POPULATION = 60
PARETO_GENERATIONS = 40
PARETO_JOBS = 16
PARETO_DAYS = 28
PARETO_FLOOR = 100_000.0    # wage bill of the generated instance's cheapest feasible staffing

SALARY = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),))
SALARY_VS_HOURS = ObjectiveBundle((
    Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),
    Objective(ObjectiveKind.TOTAL_TIME, Direction.MAXIMIZE),
))


def direct(name: str, fn: Callable, *args, **kwargs) -> Any:
    """Untraced step: call ``fn`` with nothing around it."""
    del name
    return fn(*args, **kwargs)


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


# ---------------------------------------------------------------------------
# instances


def scaled_instance(seed: int) -> ProblemInstance:
    """A deterministic :data:`PARETO_JOBS` x :data:`PARETO_DAYS` instance
    for the trade-off.

    Each job's work-time window sits strictly inside its headcount box
    (its lower end needs one or two people above the minimum), so the
    box's lower corner violates k3 and the cheapest feasible staffing is
    off the corner.  The salary window and staff cap cut the box at 85%
    of the way from the windows' lower to upper ends, which leaves a
    front of a hundred-odd non-dominated staffings.  Wages are scaled so
    that the cheapest feasible staffing costs :data:`PARETO_FLOOR` on
    every seed, which keeps wage bills comparable across seeds.
    """
    days = PARETO_DAYS
    rng = _rng(seed, PARETO_JOBS, days)
    shapes, windows = [], []
    for _ in range(PARETO_JOBS):
        active = rng.random(4) < 0.75
        if not active.any():
            active[int(rng.integers(4))] = True
        hours = tuple(h if a else 0.0 for h, a in zip((4.0, 4.0, 4.0, 8.0), active))
        wages = tuple(float(rng.integers(8, 31)) * h / 4.0 for h in hours)
        lo = int(rng.integers(1, 4))
        hi = lo + int(rng.integers(4, 10))
        shapes.append((hours, wages, lo, hi))
        windows.append((lo + int(rng.integers(1, 3)), hi - int(rng.integers(0, 2))))
    low = [a for a, _ in windows]
    high = [b for _, b in windows]
    scale = PARETO_FLOOR / (days * sum(n * sum(w) for n, (_, w, _, _) in zip(low, shapes)))
    jobs = tuple(
        Job(f"j{j:02d}", f"job{j:02d}", tuple(w * scale for w in wages), lo, hi, hours)
        for j, (hours, wages, lo, hi) in enumerate(shapes)
    )
    work_time = tuple((a * sum(job.shift_hours) * days, b * sum(job.shift_hours) * days)
                      for (a, b), job in zip(windows, jobs))

    def salary(counts):
        return days * sum(n * job.daily_wage for n, job in zip(counts, jobs))

    cut = 0.85
    return ProblemInstance(
        jobs=jobs,
        horizon_days=days,
        max_total_staff=int(sum(low) + cut * (sum(high) - sum(low))),
        work_time_bounds=work_time,
        salary_bounds=(0.0, salary(low) + cut * (salary(high) - salary(low))),
        rest_cap=3,
        emergency=None,
        multi_shift=False,
    )


def workload_instance(workload: str, seed: int) -> ProblemInstance:
    if workload == "pareto":
        return scaled_instance(seed)
    if workload in WORKLOADS:
        return reference_instance()
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# requests


@dataclass(frozen=True)
class Request:
    """One planner request: ``kind`` names the solver config."""

    index: int
    kind: str
    solver_seed: int
    staff: tuple[int, ...] | None = None


def draw_staff(rng: np.random.Generator, inst: ProblemInstance) -> tuple[int, ...]:
    """Headcounts drawn uniformly from each job's box, redrawn until the
    total lies in :data:`ROSTER_STAFF`."""
    low, high = ROSTER_STAFF
    while True:
        counts = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in inst.headcount_bounds())
        if low <= sum(counts) <= high:
            return counts


def cycles(workload: str, seed: int, inst: ProblemInstance) -> Iterator[list[Request]]:
    """Endless stream of request cycles.  A ``staffing`` cycle holds one
    request per solver config; the other workloads send one per cycle.
    Request ``i`` depends only on ``(seed, i)``."""
    index = 0
    while True:
        kinds = STAFFING_CONFIGS if workload == "staffing" else (workload,)
        batch = []
        for kind in kinds:
            rng = _rng(seed, index)
            solver_seed = int(rng.integers(2**31))
            staff = draw_staff(rng, inst) if kind == "roster" else None
            batch.append(Request(index, kind, solver_seed, staff))
            index += 1
        yield batch


@dataclass(frozen=True)
class Outcome:
    request: Request
    result: Any
    out_path: str


SOLVER_SPANS = {
    "ea_ri": "evolution.run_ea",
    "ea_bg": "evolution.run_ea",
    "ea_barrier": "evolution.run_ea",
    "pso": "baselines.pso_solve",
    "sa": "baselines.sa_solve",
    "ip": "baselines.ip_solve",
    "roster": "evolution.solve_assignment",
    "pareto": "moea.run_moea",
}


def execute(req: Request, instance_path: str, out_dir: str, call: Callable = direct) -> Outcome:
    """Run one request end to end and return its result."""
    inst = call("io.load_instance", mio.load_instance, instance_path)
    expr = call("constraints.parse_constraint_string", parse_constraint_string, CONSTRAINTS)
    kind = req.kind
    span = SOLVER_SPANS[kind]
    if kind.startswith("ea_"):
        cfg = EAConfig(
            encoding="bg" if kind == "ea_bg" else "ri",
            penalty=PenaltyConfig(method="internal" if kind == "ea_barrier" else "external"),
            seed=req.solver_seed,
        )
        result = call(span, run_ea, inst, SALARY, expr, cfg)
    elif kind == "pso":
        result = call(span, pso_solve, inst, SALARY, expr, PSOConfig(seed=req.solver_seed))
    elif kind == "sa":
        result = call(span, sa_solve, inst, SALARY, expr, SAConfig(seed=req.solver_seed))
    elif kind == "ip":
        result = call(span, ip_solve, inst, SALARY, expr)
    elif kind == "roster":
        cfg = EAConfig(population_size=ROSTER_POPULATION, generations=ROSTER_GENERATIONS,
                       encoding="bg", seed=req.solver_seed)
        result = call(span, solve_assignment, HeadcountVector(req.staff), inst, expr, cfg)
    elif kind == "pareto":
        cfg = EAConfig(population_size=PARETO_POPULATION, generations=PARETO_GENERATIONS,
                       seed=req.solver_seed)
        result = call(span, run_moea, inst, SALARY_VS_HOURS, expr, cfg)
    else:
        raise ValueError(f"unknown request kind {kind!r}")

    if kind == "roster":
        path = os.path.join(out_dir, "roster.csv")
        call("io.write", mio.write_tensor_csv, result.tensor, inst, path)
    elif kind == "pareto":
        path = os.path.join(out_dir, "archive.csv")
        labels = [o.label for o in SALARY_VS_HOURS]
        call("io.write", mio.write_archive_csv, result.archive, inst, labels, path)
    else:
        path = os.path.join(out_dir, "counts.csv")
        call("io.write", mio.write_counts_csv, result.counts, inst, path)
    return Outcome(req, result, path)


# ---------------------------------------------------------------------------
# result quality against a reference box fixed by the instance


def box_corners(inst: ProblemInstance) -> tuple[HeadcountVector, HeadcountVector]:
    low, high = zip(*inst.headcount_bounds())
    return HeadcountVector(low), HeadcountVector(high)


def reference_box(workload: str, inst: ProblemInstance, req: Request) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(ideal, reference) corners of the request's objective space.

    Staffing and trade-off requests search the headcount box, so the
    corners are the box's cheapest/dearest (and, for hours, longest and
    shortest) staffings.  A roster request searches the attendance bits
    of a fixed staff: nobody attending costs 0, everybody attending costs
    the staff's full day-rate bill.
    """
    low, high = box_corners(inst)
    if workload == "roster":
        return (0.0,), (f2_total_salary(HeadcountVector(req.staff), inst),)
    if workload == "pareto":
        return (
            (f2_total_salary(low, inst), -total_time_headcount(high, inst)),
            (f2_total_salary(high, inst), -total_time_headcount(low, inst)),
        )
    return (f2_total_salary(low, inst),), (f2_total_salary(high, inst),)
