"""Composable scheduling constraints.

Ten atomic predicates cover duty exclusivity, job coverage, working-time
and salary windows, staffing and rest caps, urgent-task withdrawal
capacity, per-job headcount windows, multi-shift coverage, and
cross-job cooperation.  Atoms compose with ``&`` (and), ``|`` (or), and
``!`` (not) into expression trees, either programmatically or through
:func:`parse_constraint_string`.

Each atom is measured as two numbers: the violation (how far the
staffing or roster misses it, 0.0 exactly when it holds) and the slack
(how far inside the feasible region it lies, for interior barrier
penalties).  An expression is compiled once per run into one
:class:`ConstraintTable` over a whole generation: a (P, J) matrix of
staffings, or a (P, E, D, S) stack of rosters of a fixed staff.  Each
atom is windows on columns of one table, whose wage bill the objective
shares, a count of offending days, or a constant read once off the
fixed staff or the atom (k1 cannot fail).  The public faces read these
as their single-row case, so the check and the magnitude cannot
disagree: :func:`violation_atom` and :func:`violation_expr` give the
violation, :func:`eval_atom` and :func:`eval_expr` the check
``violation == 0.0``, and :func:`boundary_distance` the slack.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .domain import (
    AttendanceTensor,
    HeadcountVector,
    ProblemInstance,
)
from .errors import ConfigurationError, InfeasibleError, ParseError
from .objectives import attended_days, headcount_rows, roster_salary_kernel, salary_kernel


class ConstraintKind(str, Enum):
    """Atomic constraint codes, in the order they are usually composed."""

    SINGLE_DUTY = "k1"          # nobody holds two jobs in the same slot
    EVERY_JOB_OCCUPIED = "k2"   # each job staffed every day
    WORK_TIME_RANGE = "k3"      # per-job hours within window
    SALARY_RANGE = "k4"         # total wage bill within window
    STAFF_CAP = "k5"            # total headcount within the cap
    REST_CAP = "k6"             # consecutive rest days within the cap
    EMERGENCY = "y1"            # enough spare staff for a withdrawal
    HEADCOUNT_RANGE = "y2"      # per-job headcount within window
    MULTI_SHIFT = "o1"          # everyone covers >= 1 slot per day
    COOPERATION = "o2"          # named jobs can jointly lend staff


ATOM_CODES = tuple(k.value for k in ConstraintKind)


@dataclass(frozen=True)
class AtomicConstraint:
    """One predicate, optionally restricted to a subset of job codes.

    ``count`` only matters for cooperation (o2): the number of employees
    the subset must be able to lend (default 1).
    """

    kind: ConstraintKind
    jobs: tuple[str, ...] | None = None
    count: int | None = None

    def __post_init__(self):
        if self.jobs is not None:
            object.__setattr__(self, "jobs", tuple(self.jobs))
        if self.count is not None and self.count < 1:
            raise ConfigurationError("constraint count must be positive")

    @property
    def parameterized(self) -> bool:
        return self.jobs is not None or self.count is not None


class Expr:
    """Base class for constraint expression trees."""

    __slots__ = ()

    def __and__(self, other: "Expr") -> "And":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Atom(Expr):
    constraint: AtomicConstraint


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr



def atom(code: str | ConstraintKind, jobs: Sequence[str] | None = None, count: int | None = None) -> Atom:
    kind = code if isinstance(code, ConstraintKind) else ConstraintKind(code)
    return Atom(AtomicConstraint(kind, tuple(jobs) if jobs is not None else None, count))


def collect_atoms(expr: Expr) -> list[AtomicConstraint]:
    """All atomic constraints in the tree, left to right."""
    out: list[AtomicConstraint] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.append(node.constraint)
        elif isinstance(node, (And, Or)):
            stack.extend((node.right, node.left))
        elif isinstance(node, Not):
            stack.append(node.operand)
        else:
            raise ConfigurationError(f"unknown expression node {type(node).__name__}")
    return out


def is_conjunction(expr: Expr) -> bool:
    """True when the tree uses only AND and atoms (no OR, no NOT)."""
    if isinstance(expr, Atom):
        return True
    if isinstance(expr, And):
        return is_conjunction(expr.left) and is_conjunction(expr.right)
    return False


# ---------------------------------------------------------------------------
# shared lookups

_INF = float("inf")
_PER_JOB = (ConstraintKind.EVERY_JOB_OCCUPIED, ConstraintKind.WORK_TIME_RANGE,
            ConstraintKind.HEADCOUNT_RANGE, ConstraintKind.COOPERATION)


def _job_indices(codes: Sequence[str] | None, inst: ProblemInstance) -> list[int]:
    """Indices of the named jobs; every job when no names are given."""
    return list(range(inst.n_jobs)) if codes is None else [inst.job_index(code) for code in codes]


# ---------------------------------------------------------------------------
# the graded measure
#
# A roster stack is (P, E, D, S): S = 4 slot bits per day, or S = 1 day
# bits in single-shift mode, each standing for its four slots.  The
# attended days are the day bits themselves, or any slot of the day.  A
# roster's sums run over its own bits only, in the order one roster's
# ``.sum()`` adds them, so its score never depends on the other rosters
# scored with it and is the same for both values of S.  Per-job sums
# read one slice of the employee axis per job: employees grouped by job,
# each job's in their own order, which is the order and the contiguous
# layout in which a boolean mask of the job's employees copies its terms.
# k3 takes a single-shift roster's slot hours from a table, row 2e + bit
# for employee e, holding the products the four-slot stack would make.

_Measure = tuple[Callable, list] | tuple[Callable, Callable] | tuple[float, float]
_NEVER = (0.0, _INF)  # an atom that cannot fail


def _count_slack(rows: np.ndarray, violation: np.ndarray) -> np.ndarray:
    """+inf (no usable geometry) where nothing offends, else 0.0."""
    return np.where(violation == 0.0, _INF, 0.0)


def _staffing_atom(c: AtomicConstraint, inst: ProblemInstance) -> _Measure:
    """One atom over (P, J) headcount matrices, under full attendance: k2
    counts the horizon's days for each unstaffed job; k3 reads each job's
    ``(count * daily hours) * days``, y2 each job's count, k4 the wage
    bill, k5 the total headcount, y1 and o2 the spare staff (integer
    totals, exact in any summation order).  A staffing has no roster, so
    k1, o1 and k6 cannot fail on it."""
    kind, days = c.kind, float(inst.horizon_days)
    # the jobs k2, k3, y2 and o2 read; all of them as a view
    jobs = _job_indices(c.jobs if kind in _PER_JOB else None, inst)
    picked = jobs if c.jobs is not None and kind in _PER_JOB else slice(None)
    if kind is ConstraintKind.EVERY_JOB_OCCUPIED:
        return lambda counts, per_job=np.full(len(jobs), days): (counts[:, picked] < 1) @ per_job, _count_slack
    if kind is ConstraintKind.WORK_TIME_RANGE:
        hours = np.array([inst.jobs[j].daily_hours for j in jobs], dtype=float)
        return lambda counts, bill: (counts[:, picked] * hours * days).T, [inst.work_time_bounds[j] for j in jobs]
    if kind is ConstraintKind.HEADCOUNT_RANGE:
        return lambda counts, bill: counts[:, picked].T, [(inst.jobs[j].headcount_min, inst.jobs[j].headcount_max)
                                                          for j in jobs]
    if kind is ConstraintKind.SALARY_RANGE:
        return lambda counts, bill: bill[None], [inst.salary_bounds]
    if kind is ConstraintKind.STAFF_CAP:
        return lambda counts, bill, ones=np.ones(inst.n_jobs): (counts @ ones)[None], [(-_INF, inst.max_total_staff)]
    if kind in (ConstraintKind.EMERGENCY, ConstraintKind.COOPERATION):
        # at least ``need`` spare: each job lends what it holds above its
        # own headcount floor (never all)
        need = c.count or 1
        if kind is ConstraintKind.EMERGENCY:
            if inst.emergency is None:
                raise ConfigurationError("instance has no emergency parameters (y1)")
            jobs, need = _job_indices(inst.emergency.jobs, inst), inst.emergency.alpha
        floors = np.array([max(1, inst.jobs[j].headcount_min) for j in jobs], dtype=float)
        return lambda counts, bill, ones=np.ones(len(jobs)): (
            np.maximum(counts[:, jobs] - floors, 0.0) @ ones)[None], [(need, _INF)]
    if kind not in (ConstraintKind.SINGLE_DUTY, ConstraintKind.MULTI_SHIFT, ConstraintKind.REST_CAP):
        raise ConfigurationError(f"unknown constraint kind {kind!r}")
    return _NEVER


def _job_slices(staff: np.ndarray, n_jobs: int) -> tuple[Callable[[np.ndarray], np.ndarray], list[int], list[int]]:
    """Employees grouped by job: a function putting axis 1 of a stack in
    job order (the identity when ``staff`` already numbers each job's
    employees contiguously, as :func:`employee_jobs` does; else one
    stable permutation, which keeps each job's employees in their own
    order), and where each job's employees start and end on that axis."""
    ends = np.cumsum(np.bincount(staff, minlength=n_jobs)).tolist()
    starts = [0] + ends[:-1]
    if np.all(staff[:-1] <= staff[1:]):
        return lambda stack: stack, starts, ends
    order = np.argsort(staff, kind="stable")
    return lambda stack: stack[:, order], starts, ends


def _rest_runs(slots: np.ndarray) -> np.ndarray:
    """Each employee's rest days in a row up to each day, (P, E, D): ``d``
    minus the last attended day up to ``d`` (-1 before the first), exact."""
    days = np.arange(slots.shape[2])
    return days - np.maximum.accumulate(np.where(attended_days(slots), days, -1), axis=2)


def _roster_atom(c: AtomicConstraint, inst: ProblemInstance, staff: np.ndarray) -> _Measure:
    """One atom over (P, E, D, S) stacks of rosters of a fixed staff,
    employee ``e`` holding job ``staff[e]``: k2 counts each job's days
    with none of its employees attending, o1 each employee's idle days,
    k6 the rest days past the cap in every run of rest days (its slack is
    the cap minus the longest run); k3 reads each job's hours, k4 the wage
    bill.  k1, k5, y1, y2 and o2 judge the fixed staff's headcounts alone,
    once: only each employee's own job channel is stored, so k1 cannot fail."""
    kind, subset = c.kind, _job_indices(c.jobs if c.kind in _PER_JOB else None, inst)
    by_job, starts, ends = _job_slices(staff, inst.n_jobs)
    if kind is ConstraintKind.EVERY_JOB_OCCUPIED:
        # one OR over each job's employees that has any; a job with none
        # is unstaffed every day (reduceat would read its neighbour's row)
        held = [j for j in range(inst.n_jobs) if starts[j] < ends[j]]
        column = {j: k for k, j in enumerate(held)}
        columns = [column[j] for j in subset if j in column]
        firsts = [starts[j] for j in held]

        def unstaffed(slots: np.ndarray) -> np.ndarray:
            # each job's staffed days per roster: integer counts, exact in any order
            staffed = np.zeros(len(slots), dtype=np.int64)
            if columns:
                staffed += np.logical_or.reduceat(by_job(attended_days(slots)), firsts, axis=1)[
                    :, columns].sum(axis=(1, 2))
            return (slots.shape[2] * len(subset) - staffed).astype(float)

        return unstaffed, _count_slack
    if kind is ConstraintKind.WORK_TIME_RANGE:
        slices = [slice(starts[j], ends[j]) for j in subset]
        slot_hours = np.array([j.shift_hours for j in inst.jobs], dtype=float)[staff][:, None, :]  # (E, 1, 4)
        # row 2e + b: employee e's four slot hours times the day bit b
        day_hours = np.stack([0 * slot_hours[:, 0], slot_hours[:, 0]], axis=1).reshape(2 * len(staff), slot_hours.shape[2])
        rows = 2 * np.arange(len(staff))[:, None]

        def hours(slots: np.ndarray, bill: np.ndarray | None) -> np.ndarray:
            # each job's terms are its employees' (D, 4) hours in employee
            # order, contiguous in the slice as in a copy made by a mask
            if slots.shape[3] == 1:
                worked = by_job(np.take(day_hours, rows + slots[..., 0], axis=0))
            else:
                worked = by_job(slots * slot_hours)
            totals = [worked[:, jobs].reshape(len(slots), -1).sum(axis=1) for jobs in slices]
            return np.array(totals).reshape(len(slices), len(slots))

        return hours, [inst.work_time_bounds[j] for j in subset]
    if kind is ConstraintKind.SALARY_RANGE:
        return lambda slots, bill: bill[None], [inst.salary_bounds]
    if kind is ConstraintKind.REST_CAP:
        cap = inst.rest_cap
        return (lambda slots: (_rest_runs(slots) > cap).sum(axis=(1, 2)).astype(float),
                lambda slots, violation: np.maximum(cap - _rest_runs(slots).max(axis=(1, 2), initial=0), 0.0))
    if kind is ConstraintKind.MULTI_SHIFT:
        return lambda slots: (~attended_days(slots)).sum(axis=(1, 2)).astype(float), _count_slack
    counts = np.bincount(staff, minlength=inst.n_jobs).astype(float)
    violation, (slack,) = headcount_kernel(Atom(c), inst)(counts[None, :])
    return float(violation[0]), float(slack[0])


class ConstraintTable:
    """``expr`` compiled for an instance over a block of rows: (P, J)
    headcount matrices of staffings, or, given a fixed ``staff`` (employee
    ``e`` holding job ``staff[e]``), (P, E, D, S) stacks of its rosters.
    Each distinct atom is a pair of one of three kinds
    (:func:`_staffing_atom`, :func:`_roster_atom`): windows ``(block,
    bounds)`` on columns of one (R, P) table, side by side, where
    ``block(rows, bill)`` gives the columns and k4 reads the wage bill
    (``bill``, computed when not given); a counting atom, two functions
    ``(violation, slack)`` of the rows, ``slack`` read only by
    :meth:`kernel`; or a constant violation and slack, folded into the
    tree when compiled.  One pass measures every window; an atom's
    distances outside are added left to right (``reduce`` may not), its
    slack is their least."""

    def __init__(self, expr: Expr, inst: ProblemInstance, staff: np.ndarray | None = None):
        atoms = collect_atoms(expr)
        self._salary, self._blocks, self._counts = None, [], []
        spans, windows, at = [], [], {}
        for c in dict.fromkeys(atoms):
            if c.kind is ConstraintKind.MULTI_SHIFT and not inst.multi_shift:
                raise ConfigurationError("multi-shift coverage (o1) on a single-shift instance")
            first, second = _staffing_atom(c, inst) if staff is None else _roster_atom(c, inst, staff)
            if isinstance(second, list) and second:
                at[c] = len(spans)
                spans.append((len(windows), len(windows) + len(second)))
                self._blocks.append(first)
                windows += second
            elif callable(second):
                at[c] = -1 - len(self._counts)
                self._counts.append((first, second))
            else:  # a constant; windows on no job are never violated, +inf slack
                at[c] = _NEVER if isinstance(second, list) else (first, second)
        if any(c.kind is ConstraintKind.SALARY_RANGE for c in at):
            self._salary = salary_kernel(inst) if staff is None else roster_salary_kernel(inst, staff, inst.multi_shift)
        self._spans, self._starts = spans, [a for a, _ in spans] if len(windows) > len(spans) else []
        self._lo, self._hi = np.array(windows, dtype=float).reshape(-1, 2, 1).transpose(1, 0, 2)
        # the per-call list holds the window atoms' violations, then the counting atoms'
        self._at = [x if isinstance(x, tuple) or x >= 0 else len(spans) - 1 - x for x in map(at.get, atoms)]
        self._tree = _fold(expr, (x[0] if isinstance(x, tuple) else x for x in self._at))
        rows = [x for x in self._at if not isinstance(x, tuple) and x < len(spans)]
        self._barrier = slice(None) if rows == list(range(len(spans))) else rows

    def bill(self, rows: np.ndarray) -> np.ndarray | None:
        """Each row's wage bill when k4 reads it, else None."""
        return None if self._salary is None else self._salary(rows)

    def _measure(self, rows: np.ndarray, bill: np.ndarray | None) -> np.ndarray:
        bill = self.bill(rows) if bill is None else bill
        blocks = [block(rows, bill) for block in self._blocks] or [np.empty((0, len(rows)))]
        return np.concatenate(blocks) if len(blocks) > 1 else blocks[0]

    def _violations(self, rows: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Each row's violation, and each distinct window atom's, then each counting atom's."""
        outside = np.maximum(np.maximum(self._lo - table, table - self._hi), 0.0) if self._spans else table
        found = [outside[a] if b == a + 1 else np.add.accumulate(outside[a:b], axis=0)[-1] for a, b in self._spans]
        found += [count(rows) for count, _ in self._counts]
        return (self._tree(found) if callable(self._tree) else np.full(len(rows), self._tree)), found

    def _slacks(self, table: np.ndarray) -> np.ndarray:
        slack = np.maximum(np.minimum(table - self._lo, self._hi - table), 0.0) if self._spans else table
        return np.minimum.reduceat(slack, self._starts, axis=0) if self._starts else slack

    def violation(self, rows: np.ndarray, bill: np.ndarray | None = None) -> np.ndarray:
        """Each row's violation; 0.0 exactly when the expression holds."""
        return self._violations(rows, self._measure(rows, bill))[0]

    def barrier(self, counts: np.ndarray, bill: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """On staffings, each row's violation, whether it is outside (violated,
        or some atom's slack, a violated k2's too, is 0.0 or less), and its sum
        of ``1 / slack`` over the windows' finite positive slacks in atom order."""
        table = self._measure(counts, bill)
        violation, found = self._violations(counts, table)
        least = self._slacks(table)[self._barrier]
        outside = (violation > 0.0) | (least <= 0.0).any(axis=0)
        for count in found[len(self._spans):]:
            outside |= count > 0.0
        # 1 / inf is the 0.0 that an infinite slack adds
        terms = np.divide(1.0, least, out=np.zeros(least.shape), where=least > 0.0)
        return violation, outside, np.add.accumulate(terms, axis=0)[-1] if len(terms) else np.zeros(len(counts))

    def interior(self, counts: np.ndarray, bill: np.ndarray | None = None) -> np.ndarray:
        """The staffings (of finite counts) strictly inside every window that
        staff every job k2 names; every other row has an atom with slack 0.0 or less."""
        table = self._measure(counts, bill)
        inside = ((table > self._lo) & (table < self._hi)).all(axis=0)
        for count, _ in self._counts:
            inside &= count(counts) == 0.0
        return inside

    def kernel(self, rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Each row's violation and, per atom in :func:`collect_atoms` order, its slack."""
        table = self._measure(rows, None)
        violation, found = self._violations(rows, table)
        least, windows = self._slacks(table), len(self._spans)
        return violation, [np.full(len(rows), x[1]) if isinstance(x, tuple) else least[x] if x < windows
                           else self._counts[x - windows][1](rows, found[x]) for x in self._at]


def _measure(c: AtomicConstraint, tensor: AttendanceTensor | None, hc: HeadcountVector | None,
             inst: ProblemInstance) -> tuple[float, float]:
    """(violation, slack) of one atom on a tensor, or else on a headcount
    vector: the single-row case of :func:`roster_kernel` or :func:`headcount_kernel`."""
    if tensor is not None:
        violation, (slack,) = roster_kernel(Atom(c), inst, tensor.job_of_employee)(tensor.day_slots()[None])
    elif hc is None:
        raise ConfigurationError("need a headcount vector or a tensor")
    else:
        violation, (slack,) = headcount_kernel(Atom(c), inst)(headcount_rows(hc, inst))
    return float(violation[0]), float(slack[0])


def violation_atom(c: AtomicConstraint, tensor: AttendanceTensor | None, hc: HeadcountVector | None,
                   inst: ProblemInstance) -> float:
    """How badly the atom fails; 0.0 exactly when it holds.  Counting atoms
    (k2; o1 and k6 on a roster) report offending days; window atoms report
    the summed distance outside each window.  k1 cannot fail on either
    route, as only each employee's own job channel is stored, and o1 and
    k6 are the constant 0.0 on a staffing, which has no roster."""
    return _measure(c, tensor, hc, inst)[0]


def eval_atom(c: AtomicConstraint, tensor: AttendanceTensor | None, hc: HeadcountVector | None,
              inst: ProblemInstance) -> bool:
    """Yes/no check of one atom: its violation is zero."""
    return violation_atom(c, tensor, hc, inst) == 0.0


def boundary_distance(c: AtomicConstraint, tensor: AttendanceTensor | None, hc: HeadcountVector | None,
                      inst: ProblemInstance) -> float:
    """Distance from the feasible boundary: positive strictly inside, 0.0
    on the boundary or outside.  Counting atoms report +inf when satisfied;
    the rest cap reports ``rest_cap`` minus the longest rest run on a
    roster, and +inf on a headcount vector, which has no rest days."""
    return _measure(c, tensor, hc, inst)[1]


# ---------------------------------------------------------------------------
# expression evaluation


def _fold(expr: Expr, leaves: Iterator) -> Callable[[Sequence], np.ndarray] | float:
    """A tree's violation compiled over a list of its atoms' violations: AND
    sums, OR takes the easiest branch, NOT is an indicator (1.0 when the
    operand holds).  ``leaves`` gives each atom's place in the list or its
    constant violation, folded in (a float if all are); AND drops a 0.0, as no violation is -0.0."""
    if isinstance(expr, Atom):
        at = next(leaves)
        return at if isinstance(at, float) else lambda found: found[at]
    if isinstance(expr, Not):
        f = _fold(expr.operand, leaves)
        return 1.0 - (f > 0.0) if isinstance(f, float) else lambda found: 1.0 - (f(found) > 0.0)
    op = np.add if isinstance(expr, And) else np.minimum
    f, g = _fold(expr.left, leaves), _fold(expr.right, leaves)
    if isinstance(f, float) and isinstance(g, float):
        return float(op(f, g))
    if op is np.add and 0.0 in (f, g):
        return g if f == 0.0 else f
    f, g = (h if callable(h) else lambda found, h=h: h for h in (f, g))
    return lambda found: op(f(found), g(found))


_Kernel = Callable[[np.ndarray], tuple[np.ndarray, list[np.ndarray]]]


@functools.lru_cache(maxsize=64)
def headcount_kernel(expr: Expr, inst: ProblemInstance) -> _Kernel:
    """The :meth:`ConstraintTable.kernel` of ``expr`` for an instance, over
    a (P, J) headcount matrix; the last 64 compiled are kept, for the
    one-staffing faces above."""
    return ConstraintTable(expr, inst).kernel


def roster_kernel(expr: Expr, inst: ProblemInstance, staff: np.ndarray) -> _Kernel:
    """The :meth:`ConstraintTable.kernel` of ``expr`` for an instance and a
    fixed staff (employee ``e`` holds job ``staff[e]``), over a (P, E, D, S)
    stack of rosters' own-channel bits: S = 4 slot bits per day, or S = 1
    day bits of single-shift rosters, each standing for its four slots.
    Both give each roster the same violation and slacks, bit for bit, as
    its ``day_slots()[None]``."""
    return ConstraintTable(expr, inst, staff).kernel


def violation_expr(expr: Expr, tensor: AttendanceTensor | None, hc: HeadcountVector | None,
                   inst: ProblemInstance) -> float:
    """Aggregate violation: AND sums, OR takes the easiest branch, NOT is
    an indicator (1.0 when the operand holds, else 0.0).  This is the
    single-row case of one :class:`ConstraintTable` on a roster, and of
    :func:`headcount_kernel` on a headcount vector, one atom at a time."""
    if tensor is None:
        atoms = collect_atoms(expr)
        return float(_fold(expr, iter(range(len(atoms))))([violation_atom(c, None, hc, inst) for c in atoms]))
    return float(ConstraintTable(expr, inst, tensor.job_of_employee).violation(tensor.day_slots()[None])[0])


def eval_expr(expr: Expr, tensor: AttendanceTensor | None, hc: HeadcountVector | None,
              inst: ProblemInstance) -> bool:
    """Yes/no check of a whole expression: its violation is zero."""
    return violation_expr(expr, tensor, hc, inst) == 0.0


# ---------------------------------------------------------------------------
# urgent-task arithmetic


def apply_emergency(hc: HeadcountVector, t_total: float, cost: float, spec,
                    inst: ProblemInstance) -> tuple[HeadcountVector, float, float]:
    """Withdraw ``alpha`` employees for an urgent task and restate the
    working-time and wage totals.

    Staff leave the currently largest affected job first (ties go to the
    earlier job).  Time drops by the task's time cost; the wage bill
    loses the bonus and gains the punishment charge.
    """
    affected = _job_indices(spec.jobs, inst)
    counts = list(hc.counts)
    available = sum(counts[j] for j in affected)
    if available < spec.alpha:
        raise InfeasibleError(
            f"urgent task needs {spec.alpha} employees but the affected jobs hold {available}"
        )
    for _ in range(spec.alpha):
        j = max(affected, key=lambda i: (counts[i], -i))
        counts[j] -= 1
    adjusted_time = float(t_total) - float(spec.time_cost)
    adjusted_cost = float(cost) - float(spec.bonus) + float(spec.punishment)
    return HeadcountVector(tuple(counts)), adjusted_time, adjusted_cost


# ---------------------------------------------------------------------------
# string form


_PRECEDENCE = {Or: 1, And: 2, Not: 3, Atom: 3}


class _Parser:
    """Recursive-descent parser for the constraint grammar

    expr  := term ('|' term)*
    term  := factor ('&' factor)*
    factor:= '!' factor | atom | '(' expr ')'

    over tokens with their offsets: runs of word characters and single
    other non-space characters, then an empty token at the end."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        self.tokens = [(m.group(), m.start()) for m in re.finditer(r"\w+|\S", text)] + [("", len(text))]

    def parse(self) -> Expr:
        expr = self._joined("|")
        token, offset = self.tokens[self.pos]
        if token:
            raise ParseError(f"unexpected {self.text[offset]!r} after a complete expression", offset=offset)
        return expr

    def _joined(self, op: str) -> Expr:
        """Terms joined by '|', or factors by '&', grouped to the left."""
        part = (lambda: self._joined("&")) if op == "|" else self._factor
        expr = part()
        while self.tokens[self.pos][0] == op:
            self.pos += 1
            expr = (Or if op == "|" else And)(expr, part())
        return expr

    def _factor(self) -> Expr:
        token, offset = self.tokens[self.pos]
        self.pos += 1
        if token == "!":
            return Not(self._factor())
        if token == "(":
            expr = self._joined("|")
            token, offset = self.tokens[self.pos]
            if token != ")":
                raise ParseError("expected ')'", offset=offset)
            self.pos += 1
            return expr
        if not (token[:1].isalnum() or token[:1] == "_"):
            raise ParseError("expected a constraint atom, '!', or '('", offset=offset)
        if token not in ATOM_CODES:
            raise ParseError(f"unknown constraint atom {token!r}", offset=offset)
        return Atom(AtomicConstraint(ConstraintKind(token)))


def parse_constraint_string(text: str) -> Expr:
    """Parse ``"k1&k2|!(k5)"``-style strings.  Precedence: ``!`` over
    ``&`` over ``|``; parentheses group.  Offsets in errors are 0-based."""
    return _Parser(text).parse()


def format_expr(expr: Expr) -> str:
    """Canonical compact string; parsing it back yields the same tree."""
    if isinstance(expr, Atom):
        if expr.constraint.parameterized:
            raise ConfigurationError("parameterized atoms (job subsets / counts) have no string form")
        return expr.constraint.kind.value
    if isinstance(expr, Not):
        inner = format_expr(expr.operand)
        return f"!({inner})" if isinstance(expr.operand, (And, Or)) else f"!{inner}"
    if not isinstance(expr, (And, Or)):
        raise ConfigurationError(f"unknown expression node {type(expr).__name__}")
    mine, left, right = _PRECEDENCE[type(expr)], format_expr(expr.left), format_expr(expr.right)
    left = f"({left})" if _PRECEDENCE[type(expr.left)] < mine else left
    right = f"({right})" if _PRECEDENCE[type(expr.right)] <= mine else right
    return f"{left}{'&' if isinstance(expr, And) else '|'}{right}"
