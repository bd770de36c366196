"""Reference loop versions of the package's vectorized routines.

* :func:`violation_atom` — violation magnitudes computed cell by cell: an
  independent loop version of :func:`manpower.constraints.violation_atom`.
  Every count is taken by walking employees, slots and days one at a time,
  and every window distance from plain Python sums.  On instances with
  integer wages and hours the two must agree exactly; on a headcount
  vector, whose wage bill is the horizon times the daily bill as in the
  package, they agree exactly on any wages.
* :func:`slack_atom` and :func:`score` — a staffing's barrier slack per
  atom and its penalized score, objective, violation and objective
  vector, in plain loops: the reference for the array kernel that
  :class:`manpower.evolution._Scorer` compiles.  Values must agree bit
  for bit, so each sum over jobs is a Python ``sum`` in job order.
* :func:`dominates`, :func:`non_dominated_sort`, :func:`crowding`,
  :class:`ParetoArchive` and :func:`hypervolume` — the pairwise-loop
  NSGA-II ranking, crowding, archive and recursive hypervolume that
  :mod:`manpower.moea` replaced with array code.  Fronts (member order
  included), distances, archive contents and volumes must agree exactly.
* :func:`environmental_selection` and :func:`rank_and_crowd` — the
  two-peel selection that :func:`manpower.moea._survivors` replaced with
  one peel that stops at the cut: the pool's fronts choose the kept
  members, then the kept members are ranked again on their own.  Kept
  members, ranks and crowding must agree exactly.
* :func:`decode` — the gene-by-gene genome decoder that
  :func:`manpower.evolution.decode` replaced with array code.  Counts
  must agree exactly.  :func:`encode` packs counts into a genome, so a
  staffing can be scored or decoded back.
* :func:`_select`, :func:`crowded_pick`, :func:`_crossover`,
  :func:`_mutate` and :func:`_breed` — the child-by-child breeding loop
  that :func:`manpower.breeding.breed` replaced with whole-array
  variation.  The loop makes the same four whole-array generator calls,
  in the same order, and then picks, crosses and mutates one pair and
  one child at a time from its share of the draws.  Children must agree
  byte for byte, generation after generation, and the generator must end
  in the same state.
* :func:`roster_measure` and :func:`rest_rows` — the mask-and-loop roster
  measures of k2, k3 and k6 over a (P, E, D, 4) stack of slot bits, which
  :func:`manpower.constraints._roster_measure` replaced with one OR per
  job's slice of employees (k2), a table of each employee's day-bit hours
  (k3) and a running maximum over the days (k6).  Violations and slacks must
  agree bit for bit, on the (P, E, D, 1) day-bit stack of single-shift
  rosters too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from manpower.constraints import (
    And,
    Atom,
    AtomicConstraint,
    ConstraintKind,
    Not,
    Or,
    _count_rows,
    _job_indices,
    _roster_measure,
    _windows_rows,
)
from manpower.domain import SLOTS_PER_DAY, AttendanceTensor, HeadcountVector, ProblemInstance
from manpower.errors import ConfigurationError, StructuralError
from manpower.evolution import EAConfig, Genome, _box
from manpower.moea import ArchiveEntry
from manpower.objectives import Direction, ObjectiveKind


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
        return inst.horizon_days * sum(
            counts[j] * sum(inst.jobs[j].wage_per_shift) for j in range(inst.n_jobs)
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


def slack_atom(c: AtomicConstraint, hc: HeadcountVector, inst: ProblemInstance) -> float:
    """Distance of a staffing from the atom's feasible boundary: 0.0 when
    the atom fails; otherwise +inf for counting atoms and for the rest
    cap (a staffing has no rest days), and the least distance to an end
    of a window."""
    if violation_atom(c, None, hc, inst) > 0.0:
        return 0.0
    kind = c.kind
    counts = hc.counts
    if kind in (ConstraintKind.SINGLE_DUTY, ConstraintKind.EVERY_JOB_OCCUPIED, ConstraintKind.MULTI_SHIFT,
                ConstraintKind.REST_CAP):
        return math.inf
    if kind is ConstraintKind.STAFF_CAP:
        return float(inst.max_total_staff - sum(counts))
    if kind in (ConstraintKind.EMERGENCY, ConstraintKind.COOPERATION):
        if kind is ConstraintKind.EMERGENCY:
            spec = _emergency_spec(inst)
            jobs, need = spec.jobs, spec.alpha
        else:
            jobs, need = c.jobs, (c.count if c.count is not None else 1)
        subset = _subset_indices(AtomicConstraint(kind, jobs), inst)
        spare = sum(max(0, counts[j] - max(1, inst.jobs[j].headcount_min)) for j in subset)
        return float(spare - need)
    if kind is ConstraintKind.SALARY_RANGE:
        v = _loop_salary(None, hc, inst)
        lo, hi = inst.salary_bounds
        return min(v - lo, hi - v)
    least = math.inf
    for j in _subset_indices(c, inst):
        if kind is ConstraintKind.WORK_TIME_RANGE:
            v = _loop_job_hours(None, hc, inst, j)
            lo, hi = inst.work_time_bounds[j]
        else:
            v = counts[j]
            lo, hi = inst.jobs[j].headcount_min, inst.jobs[j].headcount_max
        least = min(least, v - lo, hi - v)
    return float(least)


def violation_expr(expr, hc: HeadcountVector, inst: ProblemInstance) -> float:
    """A composition's violation on a staffing, walking the tree: AND
    sums, OR takes the easiest branch, NOT is an indicator."""
    if isinstance(expr, Atom):
        return violation_atom(expr.constraint, None, hc, inst)
    if isinstance(expr, And):
        return violation_expr(expr.left, hc, inst) + violation_expr(expr.right, hc, inst)
    if isinstance(expr, Or):
        return min(violation_expr(expr.left, hc, inst), violation_expr(expr.right, hc, inst))
    if isinstance(expr, Not):
        return 0.0 if violation_expr(expr.operand, hc, inst) > 0.0 else 1.0
    raise ConfigurationError(f"unknown expression node {type(expr).__name__}")


def atoms(expr) -> list[AtomicConstraint]:
    """The tree's atoms, left to right."""
    if isinstance(expr, Atom):
        return [expr.constraint]
    if isinstance(expr, (And, Or)):
        return atoms(expr.left) + atoms(expr.right)
    return atoms(expr.operand)


def objective_value(o, hc: HeadcountVector, inst: ProblemInstance) -> float:
    """One objective on a staffing, min-oriented."""
    days, jobs, counts = inst.horizon_days, inst.jobs, hc.counts
    if o.kind is ObjectiveKind.TOTAL_TIME:
        raw = days * sum(counts[j] * sum(jobs[j].shift_hours) for j in range(len(jobs)))
    elif o.kind in (ObjectiveKind.TOTAL_SALARY, ObjectiveKind.MULTISHIFT_SALARY):
        raw = days * sum(counts[j] * sum(jobs[j].wage_per_shift) for j in range(len(jobs)))
    elif o.kind is ObjectiveKind.HEADCOUNT_SUBSET:
        raw = sum(counts[i] for i in o.job_indices)
    else:
        raw = o.func(hc, None, inst)
    raw = float(raw)
    return raw if o.direction is Direction.MINIMIZE else -raw


def score(bundle, expr, inst: ProblemInstance, penalty, hc: HeadcountVector):
    """(penalized fitness, objective, violation, objective vector) of one
    staffing, as the staffing solvers define it."""
    values = tuple(objective_value(o, hc, inst) for o in bundle)
    objective = sum(values)
    violation = violation_expr(expr, hc, inst)
    if penalty.method == "external":
        return objective + penalty.coefficient * violation**2, objective, violation, values
    if violation > 0.0:
        return math.inf, objective, violation, values
    barrier = 0.0
    for c in atoms(expr):
        d = slack_atom(c, hc, inst)
        if d <= 0.0:
            return math.inf, objective, violation, values
        if d != math.inf:
            barrier += 1.0 / d
    return objective + penalty.barrier_coefficient * barrier, objective, violation, values


# ---------------------------------------------------------------------------
# multi-objective ranking, crowding, archive and hypervolume


@dataclass(frozen=True)
class Scored:
    """A member for :func:`dominates`: its objective vector and violation."""

    objectives: tuple[float, ...]
    violation: float = 0.0


def _unpack(x) -> tuple[float, tuple[float, ...]]:
    if isinstance(x, Scored):
        return x.violation, x.objectives
    return 0.0, tuple(float(v) for v in x)


def dominates(a, b) -> bool:
    """Constraint-domination.  Accepts :class:`Scored` members or bare
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


def crowding(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """Crowding distances for one front; boundary points get +inf."""
    n = len(objectives)
    dist = np.zeros(n)
    if n == 0:
        return dist
    objs = np.asarray(objectives, dtype=float)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for m in range(objs.shape[1]):
        order = np.argsort(objs[:, m], kind="stable")
        lo, hi = objs[order[0], m], objs[order[-1], m]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if hi > lo:
            spread = hi - lo
            for pos in range(1, n - 1):
                i = order[pos]
                if np.isinf(dist[i]):
                    continue
                gap = (objs[order[pos + 1], m] - objs[order[pos - 1], m]) / spread
                dist[i] += 0.0 if np.isnan(gap) else gap  # inf / inf, across an infinite span
    return dist


def environmental_selection(objectives: Sequence[Sequence[float]], violations: Sequence[float],
                            size: int) -> list[int]:
    """Indices of the best ``size`` members: whole fronts while they fit,
    then the most isolated members of the first overflowing front."""
    pop = [Scored(tuple(o), v) for o, v in zip(objectives, violations)]
    keep: list[int] = []
    for front in non_dominated_sort(pop):
        if len(keep) + len(front) <= size:
            keep.extend(front)
            continue
        dists = crowding([pop[i].objectives for i in front])
        order = sorted(range(len(front)), key=lambda k: -dists[k])
        keep.extend(front[k] for k in order[: size - len(keep)])
        break
    return keep


def rank_and_crowd(objectives: Sequence[Sequence[float]],
                   violations: Sequence[float]) -> tuple[list[int], list[float]]:
    """Each member's front number and crowding distance within its front."""
    pop = [Scored(tuple(o), v) for o, v in zip(objectives, violations)]
    ranks, crowd = [0] * len(pop), [0.0] * len(pop)
    for r, front in enumerate(non_dominated_sort(pop)):
        for i, dist in zip(front, crowding([pop[i].objectives for i in front]).tolist()):
            ranks[i], crowd[i] = r, dist
    return ranks, crowd


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


def encode(counts: Sequence[int], bounds: Sequence[tuple[int, int]], encoding: str) -> Genome:
    """Pack integer counts into a genome.  Counts must lie inside the box."""
    bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
    values = [int(c) for c in counts]
    if len(values) != len(bounds):
        raise ConfigurationError("counts and bounds must have equal length")
    for v, (lo, hi) in zip(values, bounds):
        if not lo <= v <= hi:
            raise ConfigurationError(f"value {v} outside [{lo}, {hi}]")
    if encoding == "ri":
        return Genome("ri", np.asarray(values, dtype=float), bounds)
    if encoding == "bg":
        bits: list[int] = []
        for v, (lo, hi), width in zip(values, bounds, _bit_widths(bounds)):
            # the least code that decodes to v
            code = -(-((v - lo) << width) // (hi - lo + 1))
            bits.extend((code >> (width - 1 - b)) & 1 for b in range(width))
        return Genome("bg", np.asarray(bits, dtype=np.uint8), bounds)
    raise ConfigurationError(f"unknown encoding {encoding!r}")


def decode(genome: Genome) -> HeadcountVector:
    """Unpack a genome into integer counts: ri genes round and clamp into
    the box; a bg code v of w bits maps to lo + v * (hi - lo + 1) // 2**w."""
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
            values.append(lo + (v * (hi - lo + 1) >> width))
        return HeadcountVector(tuple(values))
    raise ConfigurationError(f"unknown encoding {genome.encoding!r}")


# a generation's parent pick: (draws, bound, choose); each pick draws
# ``draws`` values of ``rng.integers(0, bound)`` (``rng.random()`` when
# ``bound`` is 0), and ``choose`` maps one pick's values to a member
_Pick = tuple[int, int, Callable[[np.ndarray], int]]


def _select(scores: np.ndarray, cfg: EAConfig) -> _Pick:
    """:func:`manpower.run_ea`'s parent pick, one member at a time."""
    n = scores.shape[0]
    if cfg.selection == "tournament":
        def tournament(entrants: np.ndarray) -> int:
            # the first least score wins
            best = int(entrants[0])
            for e in entrants[1:].tolist():
                if scores[e] < scores[best]:
                    best = e
            return best

        return cfg.tournament_k, n, tournament
    # fitness-proportional on min-oriented scores, as rng.choice(n, p=p)
    # picks with a uniform u: the first member whose normalized
    # cumulative weight exceeds u
    uniform_pick = (1, n, lambda drawn: int(drawn[0]))
    finite = np.isfinite(scores)
    if not finite.any():
        return uniform_pick
    worst = scores[finite].max()
    weights = np.where(finite, worst - scores + 1e-9, 0.0)
    total = weights.sum()
    if total <= 0:
        return uniform_pick
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]

    return 1, 0, lambda u: next(i for i, edge in enumerate(cdf.tolist()) if u[0] < edge)


def crowded_pick(ranks: Sequence[int], crowd: Sequence[float]) -> _Pick:
    """:func:`manpower.run_moea`'s parent pick, one member at a time: of
    two members drawn, the one in the better front, else the less crowded
    one, the first on a tie."""

    def choose(drawn: np.ndarray) -> int:
        i, j = int(drawn[0]), int(drawn[1])
        if ranks[i] != ranks[j]:
            return i if ranks[i] < ranks[j] else j
        return i if crowd[i] >= crowd[j] else j

    return 2, len(ranks), choose


def _crossover(mix, a: Genome, b: Genome) -> tuple[Genome, Genome]:
    """One-point crossover at the cut point ``mix``, or for a lone real
    gene the arithmetic blend of weight ``mix``; a lone bit is left as is."""
    n = a.data.shape[0]
    if a.encoding == "bg" or n >= 2:
        if n < 2:
            return a, b
        point = int(mix)
        c1 = np.concatenate([a.data[:point], b.data[point:]])
        c2 = np.concatenate([b.data[:point], a.data[point:]])
    else:
        w = float(mix)
        c1 = np.array([w * a.data[0] + (1 - w) * b.data[0]])
        c2 = np.array([w * b.data[0] + (1 - w) * a.data[0]])
    return Genome(a.encoding, c1, a.bounds), Genome(b.encoding, c2, b.bounds)


def _mutate(draws: np.ndarray, g: Genome, rate: float) -> Genome:
    """Mutate a child by its own doubles: one per bit, or four per real gene."""
    n = g.data.shape[0]
    if g.encoding == "bg":
        flips = draws < rate
        if not flips.any():
            return g
        data = g.data.copy()
        data[flips] ^= 1
        return Genome("bg", data, g.bounds)
    hit, up, fresh, nudge = draws.reshape(4, n)
    hits = hit < rate
    if not hits.any():
        return g
    box = _box(g.bounds)
    local = np.minimum(np.maximum(g.data + np.where(up < 0.5, 1.0, -1.0), box.low), box.high)
    # half the mutations nudge by one step, half resample the gene
    mutated = np.where(nudge < 0.5, local, box.low + box.span * fresh)
    return Genome("ri", np.where(hits, mutated, g.data), g.bounds)


def _breed(
    rng: np.random.Generator,
    offspring: list[Genome],
    population: Sequence[Genome],
    pick: _Pick,
    cfg: EAConfig,
) -> list[Genome]:
    """Fill ``offspring`` up to the population size with mutated children
    of parent pairs of ``population`` chosen by ``pick``, crossed over at
    the crossover rate.  The generation's draws come first, the calls of
    :func:`manpower.breeding.breed` in its order; then each pair and each
    child is made from its own share of them, one at a time."""
    draws, bound, choose = pick
    size = cfg.population_size - len(offspring)
    pairs = -(-size // 2)
    n = population[0].data.shape[0]
    ri = population[0].encoding == "ri"
    shape = (2 * pairs, draws)
    picks = rng.integers(0, bound, shape) if bound else rng.random(shape)
    gates = rng.random(pairs)
    if ri and n == 1:
        mixes = rng.random(pairs)
    else:
        mixes = rng.integers(1, n, pairs) if n >= 2 else [None] * pairs
    mutations = iter(rng.random((size, 4 * n if ri else n)))
    for q in range(pairs):
        pa, pb = population[choose(picks[2 * q])], population[choose(picks[2 * q + 1])]
        if gates[q] < cfg.crossover_rate:
            pa, pb = _crossover(mixes[q], pa, pb)
        for child in (pa, pb):
            if len(offspring) < cfg.population_size:
                offspring.append(_mutate(next(mutations), child, cfg.mutation_rate))
    return offspring


def rest_rows(attended: np.ndarray, cap: int):
    """(violation, slack) of the rest cap per roster of a (P, E, D)
    attendance stack: the rest days past ``cap`` in every run of rest
    days, and ``cap`` minus the longest run (0.0 past it)."""
    run = np.zeros(attended.shape[:2])  # each employee's rest days so far in a row
    excess = np.zeros(len(attended))
    longest = np.zeros(len(attended))
    for today in np.moveaxis(attended, 2, 0):
        run = np.where(today, 0.0, run + 1.0)
        excess += (run > cap).sum(axis=1)
        longest = np.maximum(longest, run.max(axis=1, initial=0.0))
    return excess, np.maximum(cap - longest, 0.0)


def roster_measure(c: AtomicConstraint, inst: ProblemInstance, staff: np.ndarray) -> Callable:
    """One atom compiled for a fixed staff, over a (P, E, D, 4) stack of
    own-channel slot bits: k2 and k3 through one boolean employee mask
    per job, k6 through :func:`rest_rows`; the other atoms, whose code
    the day-bit stack did not change, through the package's measure."""
    kind = c.kind
    if kind is ConstraintKind.EVERY_JOB_OCCUPIED:
        masks = [staff == j for j in _job_indices(c.jobs, inst)]

        def unstaffed(slots: np.ndarray):
            # each job's staffed days per roster: integer counts, exact in any order
            staffed = np.zeros(len(slots))
            for mask in masks:
                staffed += slots[:, mask].any(axis=(1, 3)).sum(axis=1)
            return _count_rows(slots.shape[2] * len(masks) - staffed)

        return unstaffed
    if kind is ConstraintKind.WORK_TIME_RANGE:
        subset = _job_indices(c.jobs, inst)
        shifts = [(staff == j, np.array(inst.jobs[j].shift_hours)) for j in subset]
        lo, hi = np.array([inst.work_time_bounds[j] for j in subset]).reshape(-1, 2).T

        def hours(slots: np.ndarray):
            worked = [(slots[:, mask] * durations).reshape(len(slots), -1).sum(axis=1)
                      for mask, durations in shifts]
            return _windows_rows(np.array(worked).reshape(len(shifts), len(slots)).T, lo, hi)

        return hours
    if kind is ConstraintKind.REST_CAP:
        return lambda slots: rest_rows(slots.any(axis=3), inst.rest_cap)
    return _roster_measure(c, inst, staff)
