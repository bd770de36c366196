"""Reference violation magnitudes, computed cell by cell.

An independent loop version of :func:`manpower.constraints.violation_atom`:
every count is taken by walking employees, slots and days one at a time,
and every window distance from plain Python sums.  The tests compare the
package's vectorized measure against it; on instances with integer wages
and hours the two must agree exactly.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from manpower.constraints import AtomicConstraint, ConstraintKind
from manpower.domain import SLOTS_PER_DAY, AttendanceTensor, HeadcountVector, ProblemInstance
from manpower.errors import ConfigurationError


def _subset_indices(c: AtomicConstraint, inst: ProblemInstance) -> list[int]:
    if c.jobs is None:
        return list(range(inst.n_jobs))
    return [inst.job_index(code) for code in c.jobs]


def _counts_in_play(hc: HeadcountVector | None, tensor: AttendanceTensor | None, inst: ProblemInstance) -> Sequence[int]:
    if tensor is not None:
        return tensor.headcounts().counts
    if hc is None:
        raise ConfigurationError("need a headcount vector or a tensor")
    return hc.counts


def _emergency_spec(inst: ProblemInstance):
    if inst.emergency is None:
        raise ConfigurationError("instance has no emergency parameters (y1)")
    return inst.emergency


def violation_atom(
    c: AtomicConstraint,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> float:
    """How badly the atom fails; 0.0 exactly when it holds.

    Counting atoms report offending cells or days; window atoms report
    the distance to the nearest bound.
    """
    kind = c.kind

    if kind is ConstraintKind.SINGLE_DUTY:
        if tensor is None:
            return 0.0
        bad = 0
        for employee in range(tensor.n_employees):
            for slot in range(tensor.entries.shape[1]):
                if int(tensor.entries[employee, slot, :].sum()) > 1:
                    bad += 1
        return float(bad)

    if kind is ConstraintKind.EVERY_JOB_OCCUPIED:
        subset = _subset_indices(c, inst)
        if tensor is None:
            counts = _counts_in_play(hc, tensor, inst)
            empty = sum(1 for j in subset if counts[j] < 1)
            return float(empty * inst.horizon_days)
        gaps = 0
        for day in range(tensor.days):
            for j in subset:
                staffed = False
                for employee in range(tensor.n_employees):
                    if tensor.job_of_employee[employee] != j:
                        continue
                    lo = day * SLOTS_PER_DAY
                    if any(tensor.entries[employee, lo + s, j] for s in range(SLOTS_PER_DAY)):
                        staffed = True
                        break
                if not staffed:
                    gaps += 1
        return float(gaps)

    if kind is ConstraintKind.WORK_TIME_RANGE:
        total = 0.0
        for j in _subset_indices(c, inst):
            worked = _loop_job_hours(tensor, hc, inst, j)
            lo, hi = inst.work_time_bounds[j]
            total += _interval_distance(worked, lo, hi)
        return total

    if kind is ConstraintKind.SALARY_RANGE:
        v = _loop_salary(tensor, hc, inst)
        lo, hi = inst.salary_bounds
        return _interval_distance(v, lo, hi)

    if kind is ConstraintKind.STAFF_CAP:
        total = sum(_counts_in_play(hc, tensor, inst))
        return float(max(0, total - inst.max_total_staff))

    if kind is ConstraintKind.REST_CAP:
        if tensor is None:
            return 0.0
        excess = 0
        for employee in range(tensor.n_employees):
            worked = [
                any(
                    tensor.entries[employee, day * SLOTS_PER_DAY + s, :].any()
                    for s in range(SLOTS_PER_DAY)
                )
                for day in range(tensor.days)
            ]
            for is_rest, group in itertools.groupby(worked, key=lambda w: not w):
                if is_rest:
                    excess += max(0, len(list(group)) - inst.rest_cap)
        return float(excess)

    if kind is ConstraintKind.EMERGENCY:
        spec = _emergency_spec(inst)
        counts = _counts_in_play(hc, tensor, inst)
        affected = (
            [inst.job_index(code) for code in spec.jobs]
            if spec.jobs is not None
            else list(range(inst.n_jobs))
        )
        spare = 0
        for j in affected:
            keep = inst.jobs[j].headcount_min
            if keep < 1:
                keep = 1
            if counts[j] > keep:
                spare += counts[j] - keep
        return float(max(0, spec.alpha - spare))

    if kind is ConstraintKind.HEADCOUNT_RANGE:
        counts = _counts_in_play(hc, tensor, inst)
        total = 0.0
        for j in _subset_indices(c, inst):
            total += _interval_distance(
                float(counts[j]), inst.jobs[j].headcount_min, inst.jobs[j].headcount_max
            )
        return total

    if kind is ConstraintKind.MULTI_SHIFT:
        if not inst.multi_shift:
            raise ConfigurationError("multi-shift coverage (o1) on a single-shift instance")
        if tensor is None:
            return 0.0
        idle = 0
        for employee in range(tensor.n_employees):
            for day in range(tensor.days):
                lo = day * SLOTS_PER_DAY
                if not any(
                    tensor.entries[employee, lo + s, :].any() for s in range(SLOTS_PER_DAY)
                ):
                    idle += 1
        return float(idle)

    if kind is ConstraintKind.COOPERATION:
        counts = _counts_in_play(hc, tensor, inst)
        need = c.count if c.count is not None else 1
        spare = 0
        for j in _subset_indices(c, inst):
            keep = inst.jobs[j].headcount_min
            if keep < 1:
                keep = 1
            if counts[j] > keep:
                spare += counts[j] - keep
        return float(max(0, need - spare))

    raise ConfigurationError(f"unknown constraint kind {kind!r}")


def _interval_distance(v: float, lo: float, hi: float) -> float:
    if v < lo:
        return lo - v
    if v > hi:
        return v - hi
    return 0.0


def _loop_job_hours(tensor: AttendanceTensor | None, hc: HeadcountVector | None, inst: ProblemInstance, j: int) -> float:
    job = inst.jobs[j]
    if tensor is None:
        counts = _counts_in_play(hc, tensor, inst)
        return counts[j] * sum(job.shift_hours) * inst.horizon_days
    worked = 0.0
    for employee in range(tensor.n_employees):
        if tensor.job_of_employee[employee] != j:
            continue
        for slot in range(tensor.entries.shape[1]):
            if tensor.entries[employee, slot, j]:
                worked += job.shift_hours[slot % SLOTS_PER_DAY]
    return worked


def _loop_salary(tensor: AttendanceTensor | None, hc: HeadcountVector | None, inst: ProblemInstance) -> float:
    if tensor is None:
        counts = _counts_in_play(hc, tensor, inst)
        return sum(
            counts[j] * sum(inst.jobs[j].wage_per_shift) * inst.horizon_days
            for j in range(inst.n_jobs)
        )
    bill = 0.0
    for employee in range(tensor.n_employees):
        j = int(tensor.job_of_employee[employee])
        job = inst.jobs[j]
        for day in range(tensor.days):
            lo = day * SLOTS_PER_DAY
            slots = [int(tensor.entries[employee, lo + s, j]) for s in range(SLOTS_PER_DAY)]
            if inst.multi_shift:
                bill += sum(b * w for b, w in zip(slots, job.wage_per_shift))
            elif any(slots):
                bill += sum(job.wage_per_shift)
    return bill
