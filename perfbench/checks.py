"""Independent checks of every request's output, run outside the timed
region.  Each check returns a list of problems; an empty list passes.

The checks re-derive what they can from the instance and the file the
request wrote rather than trusting the result object: counts are read
back from the CSV, rosters are re-parsed with ``io.read_tensor_csv``,
and Pareto dominance is re-implemented here instead of reusing
``moea.dominates``.
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

from manpower import io as mio
from manpower.constraints import Expr, eval_expr, violation_expr
from manpower.domain import HeadcountVector, ProblemInstance
from manpower.errors import StructuralError
from manpower.objectives import ObjectiveBundle, evaluate_bundle, tensor_salary

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def _in_box(counts: Sequence[int], inst: ProblemInstance) -> bool:
    return len(counts) == inst.n_jobs and all(
        lo <= c <= hi for c, (lo, hi) in zip(counts, inst.headcount_bounds())
    )


def _read_rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _check_feasibility(expr: Expr, tensor, hc, inst, feasible: bool, violation: float) -> list[str]:
    problems = []
    if eval_expr(expr, tensor, hc, inst) != feasible:
        problems.append(f"eval_expr disagrees with feasible={feasible}")
    v = violation_expr(expr, tensor, hc, inst)
    if not _close(v, violation):
        problems.append(f"violation {violation} but violation_expr gives {v}")
    return problems


def check_staffing(result, inst: ProblemInstance, expr: Expr, bundle: ObjectiveBundle, path: str) -> list[str]:
    counts = result.counts.counts
    if not _in_box(counts, inst):
        return [f"counts {counts} outside the headcount box"]
    problems = []
    written = [(row[0], row[1]) for row in _read_rows(path)[1:]]
    if written != [(job.code, str(n)) for job, n in zip(inst.jobs, counts)]:
        problems.append(f"counts CSV {written} does not match {counts}")
    value = float(sum(evaluate_bundle(bundle, result.counts, None, inst)))
    if not _close(value, result.value):
        problems.append(f"value {result.value} but evaluate_bundle gives {value}")
    problems += _check_feasibility(expr, None, result.counts, inst, result.feasible, result.violation)
    return problems


def check_exact_bound(values: dict[str, tuple[float, bool]]) -> list[str]:
    """The exact solver's value must be no worse than any feasible
    heuristic value of the same cycle.  ``values`` maps a config to
    ``(value, feasible)``."""
    if "ip" not in values:
        return []
    exact = values["ip"][0]
    return [
        f"ip value {exact} worse than {name}'s feasible {value}"
        for name, (value, feasible) in values.items()
        if name != "ip" and feasible and exact > value + 1e-9 * max(1.0, abs(value))
    ]


def check_roster(result, inst: ProblemInstance, expr: Expr, staff: Sequence[int], path: str) -> list[str]:
    try:
        tensor = mio.read_tensor_csv(path, inst)
        tensor.validate(inst)
    except (StructuralError, KeyError, ValueError) as exc:
        return [f"roster CSV does not read back: {exc}"]
    problems = []
    if tensor != result.tensor:
        problems.append("roster CSV differs from the returned tensor")
    if tensor.headcounts().counts != tuple(staff):
        problems.append(f"roster headcounts {tensor.headcounts().counts} != requested {tuple(staff)}")
    salary = tensor_salary(tensor, inst)
    if not _close(salary, result.value):
        problems.append(f"value {result.value} but tensor_salary gives {salary}")
    hc = HeadcountVector(tuple(staff))
    problems += _check_feasibility(expr, tensor, hc, inst, result.feasible, result.violation)
    return problems


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def check_pareto(result, inst: ProblemInstance, expr: Expr, bundle: ObjectiveBundle, path: str) -> list[str]:
    entries = result.archive
    if not entries:
        return ["empty archive"]
    problems = []
    rows = _read_rows(path)[1:]
    written = [(tuple(int(x) for x in row[: inst.n_jobs]), tuple(float(x) for x in row[inst.n_jobs:]))
               for row in rows]
    if written != [(e.counts.counts, tuple(e.objectives)) for e in entries]:
        problems.append("archive CSV does not match the returned archive")
    for e in entries:
        if not _in_box(e.counts.counts, inst):
            problems.append(f"archive counts {e.counts.counts} outside the headcount box")
            continue
        if not eval_expr(expr, None, e.counts, inst) or violation_expr(expr, None, e.counts, inst) != 0.0:
            problems.append(f"archive entry {e.counts.counts} is infeasible")
        objs = evaluate_bundle(bundle, e.counts, None, inst)
        if not all(_close(a, b) for a, b in zip(objs, e.objectives)) or len(objs) != len(e.objectives):
            problems.append(f"archive entry {e.counts.counts}: objectives {e.objectives} != {objs}")
    for a in entries:
        for b in entries:
            if a is not b and _dominates(a.objectives, b.objectives):
                problems.append(f"archive entry {a.objectives} dominates {b.objectives}")
    return problems
