"""Reference loop versions of the package's vectorized routines.

* :func:`violation_atom` — violation magnitudes computed cell by cell: an
  independent loop version of :func:`manpower.constraints.violation_atom`.
  Every count is taken by walking employees, slots and days one at a time,
  and every window distance from plain Python sums.  On instances with
  integer wages and hours the two must agree exactly.
* :func:`dominates`, :func:`non_dominated_sort`, :class:`ParetoArchive`
  and :func:`hypervolume` — the pairwise-loop NSGA-II ranking, archive
  and recursive hypervolume that :mod:`manpower.moea` replaced with array
  code.  Fronts (member order included), archive contents and volumes
  must agree exactly.
* :func:`decode` — the gene-by-gene genome decoder that
  :func:`manpower.evolution.decode` replaced with array code.  Counts
  must agree exactly.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from manpower.constraints import AtomicConstraint, ConstraintKind
from manpower.domain import SLOTS_PER_DAY, AttendanceTensor, HeadcountVector, ProblemInstance
from manpower.errors import ConfigurationError, StructuralError
from manpower.evolution import Genome
from manpower.moea import ArchiveEntry, ScoredIndividual


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


# ---------------------------------------------------------------------------
# multi-objective ranking, archive and hypervolume


def _unpack(x) -> tuple[float, tuple[float, ...]]:
    if isinstance(x, ScoredIndividual):
        return x.violation, x.objectives
    return 0.0, tuple(float(v) for v in x)


def dominates(a, b) -> bool:
    """Constraint-domination.  Accepts :class:`ScoredIndividual` or bare
    objective vectors (treated as feasible)."""
    va, fa = _unpack(a)
    vb, fb = _unpack(b)
    if len(fa) != len(fb):
        raise StructuralError(f"objective arity mismatch: {len(fa)} vs {len(fb)}")
    if va == 0.0 and vb > 0.0:
        return True
    if va > 0.0 and vb == 0.0:
        return False
    if va > 0.0 and vb > 0.0:
        return va < vb
    better_somewhere = False
    for x, y in zip(fa, fb):
        if x > y:
            return False
        if x < y:
            better_somewhere = True
    return better_somewhere


def non_dominated_sort(pop: Sequence) -> list[list[int]]:
    """Indices of ``pop`` split into fronts; front 0 is non-dominated."""
    n = len(pop)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    count = [0] * n
    fronts: list[list[int]] = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(pop[i], pop[j]):
                dominated_by[i].append(j)
            elif dominates(pop[j], pop[i]):
                count[i] += 1
        if count[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        nxt: list[int] = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                count[j] -= 1
                if count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
        k += 1
    fronts.pop()
    return fronts


class ParetoArchive:
    """Cumulative store of feasible non-dominated headcount vectors.

    Deduplicates by counts (objectives are a function of counts here),
    so re-encountered points are free.  Dominated entries are evicted;
    the archive's hypervolume never decreases.
    """

    def __init__(self):
        self._entries: list[ArchiveEntry] = []
        self._seen: set[tuple[int, ...]] = set()

    def offer(self, counts: HeadcountVector, objectives: tuple[float, ...], violation: float) -> bool:
        if violation > 0.0:
            return False
        key = counts.counts
        if key in self._seen:
            return False
        self._seen.add(key)
        for e in self._entries:
            if dominates(e.objectives, objectives) or e.objectives == objectives:
                return False
        self._entries = [e for e in self._entries if not dominates(objectives, e.objectives)]
        self._entries.append(ArchiveEntry(counts, objectives))
        return True

    def entries(self) -> tuple[ArchiveEntry, ...]:
        return tuple(sorted(self._entries, key=lambda e: e.objectives))

    def __len__(self) -> int:
        return len(self._entries)


def hypervolume(points: Sequence[Sequence[float]], ref: Sequence[float]) -> float:
    """Volume dominated by min-oriented ``points`` up to ``ref`` (the
    union of boxes [p, ref]); points not strictly below ``ref`` in every
    coordinate are ignored."""
    ref = tuple(float(r) for r in ref)
    pts = sorted(
        {
            tuple(float(v) for v in p)
            for p in points
            if len(p) == len(ref) and all(v < r for v, r in zip(p, ref))
        }
    )
    if not pts:
        return 0.0

    def volume(pts: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
        if len(ref) == 1:
            return ref[0] - min(p[0] for p in pts)
        pts = sorted(set(pts))  # ascending in the leading coordinate
        total = 0.0
        for i, p in enumerate(pts):
            upper = pts[i + 1][0] if i + 1 < len(pts) else ref[0]
            width = upper - p[0]
            if width > 0.0:
                total += width * volume([q[1:] for q in pts[: i + 1]], ref[1:])
        return total

    return volume(pts, ref)


def _bit_widths(bounds: Sequence[tuple[int, int]]) -> list[int]:
    return [(hi - lo).bit_length() for lo, hi in bounds]


def decode(genome: Genome) -> HeadcountVector:
    """Unpack a genome into integer counts, clamping into the box."""
    if genome.encoding == "ri":
        values = []
        for x, (lo, hi) in zip(genome.data, genome.bounds):
            v = int(round(float(x)))
            values.append(min(hi, max(lo, v)))
        return HeadcountVector(tuple(values))
    if genome.encoding == "bg":
        values = []
        pos = 0
        for (lo, hi), width in zip(genome.bounds, _bit_widths(genome.bounds)):
            v = 0
            for b in range(width):
                v = (v << 1) | int(genome.data[pos + b])
            pos += width
            values.append(min(hi, lo + v))
        return HeadcountVector(tuple(values))
    raise ConfigurationError(f"unknown encoding {genome.encoding!r}")
