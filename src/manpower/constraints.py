"""Composable scheduling constraints.

Ten atomic predicates cover duty exclusivity, job coverage, working-time
and salary windows, staffing and rest caps, urgent-task withdrawal
capacity, per-job headcount windows, multi-shift coverage, and
cross-job cooperation.  Atoms compose with ``&`` (and), ``|`` (or), and
``!`` (not) into expression trees, either programmatically or through
:func:`parse_constraint_string`.

Each atom is implemented once, as a graded measure that returns two
numbers: the violation (how far the staffing or roster misses the atom,
0.0 exactly when it holds) and the slack (how far inside the feasible
region it lies, for interior barrier penalties).  Every solver scores a
whole generation with one call: :func:`headcount_kernel` compiles an
expression for an instance over a (P, J) matrix of staffings, and
:func:`roster_kernel` for a fixed staff over a (P, E, D, S) stack of
rosters.  The public faces read that one measure as its single-row
case, so the check and the magnitude cannot disagree:

* :func:`violation_atom` and :func:`violation_expr` — the violation,
* :func:`eval_atom` and :func:`eval_expr` — the yes/no check,
  ``violation == 0.0``,
* :func:`boundary_distance` — the slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .domain import (
    AttendanceTensor,
    HeadcountVector,
    ProblemInstance,
)
from .errors import ConfigurationError, InfeasibleError, ParseError
from .objectives import attended_days, headcount_rows, roster_salary_kernel, row_sums, salary_kernel


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


def conjunction(*codes: str | ConstraintKind) -> Expr:
    """Left-folded AND of the named atoms, e.g. ``conjunction("k1", "k5")``."""
    if not codes:
        raise ConfigurationError("conjunction needs at least one atom")
    expr: Expr = atom(codes[0])
    for code in codes[1:]:
        expr = And(expr, atom(code))
    return expr


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


def _job_indices(codes: Sequence[str] | None, inst: ProblemInstance) -> list[int]:
    """Indices of the named jobs; every job when no names are given."""
    if codes is None:
        return list(range(inst.n_jobs))
    return [inst.job_index(code) for code in codes]


# ---------------------------------------------------------------------------
# the graded measure
#
# Each atom is compiled once per run into a function over a whole
# generation, returning one violation and one slack per row: a (P, J)
# matrix of staffings for the staffing solvers, a (P, E, D, S) stack of
# rosters of one staff for roster search, with S = 4 slot bits per day,
# or S = 1 day bits in single-shift mode, each standing for its four
# slots.  The attended days are the day bits themselves, or any slot of
# the day.  A roster's sums run over its own bits only, in the order one
# roster's ``.sum()`` adds them, so its score never depends on the other
# rosters scored with it and is the same for both values of S.  Per-job
# sums read one slice of the employee axis per job: employees grouped
# by job, each job's in their own order, which is the order and the
# contiguous layout in which a boolean mask of the job's employees
# copies its terms, so a float sum adds the same terms in the same order.
# k3 takes a single-shift roster's slot hours from a table, row 2e + bit
# for employee e, holding the products the four-slot stack would make.

_Rows = tuple[np.ndarray, np.ndarray]


def _count_rows(offending: np.ndarray) -> _Rows:
    """(violation, slack) of a counting atom per row: the number of
    offending cells or days, and +inf slack (no usable geometry) when
    none offend."""
    offending = offending.astype(float)
    return offending, np.where(offending == 0.0, _INF, 0.0)


def _window_rows(v: np.ndarray, lo, hi) -> _Rows:
    """(violation, slack) of values against windows ``[lo, hi]``
    (elementwise): the distance outside the window, and the least
    distance to an end of the window (0.0 outside).  Windows have
    ``lo <= hi``, so at most one of ``lo - v`` and ``v - hi`` is
    positive."""
    violation = np.maximum(np.maximum(lo - v, v - hi), 0.0)
    return violation, np.maximum(np.minimum(v - lo, hi - v), 0.0)


def _windows_rows(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> _Rows:
    """(violation, slack) of each row of a (P, S) matrix against one
    window per column: the summed distance outside the windows, added
    left to right, and the least slack over the columns (0.0 when any
    value is outside)."""
    outside, slack = _window_rows(values, lo, hi)
    return row_sums(outside), slack.min(axis=1, initial=_INF)


def _spare_rows(jobs: list[int], need: int, inst: ProblemInstance) -> Callable[[np.ndarray], _Rows]:
    """At least ``need`` employees spare in ``jobs``: each job lends what
    it holds above its own headcount floor (and never drops to zero)."""
    floors = np.array([max(1, inst.jobs[j].headcount_min) for j in jobs], dtype=float)
    # integer-valued totals: exact in any summation order
    return lambda counts: _window_rows(np.maximum(counts[:, jobs] - floors, 0.0).sum(axis=1), need, _INF)


def _headcount_measure(c: AtomicConstraint, inst: ProblemInstance) -> Callable[[np.ndarray], _Rows]:
    """One atom compiled for an instance: a function from a (P, J) matrix
    of headcounts, under the full-attendance assumption, to each row's
    (violation, slack).  The violation is 0.0 exactly when the atom
    holds; the slack is the barrier's distance from the feasible
    boundary."""
    kind = c.kind
    if kind is ConstraintKind.MULTI_SHIFT and not inst.multi_shift:
        raise ConfigurationError("multi-shift coverage (o1) on a single-shift instance")
    if kind in (ConstraintKind.SINGLE_DUTY, ConstraintKind.MULTI_SHIFT, ConstraintKind.REST_CAP):
        # no duty slots or rest days without a roster: never violated, no geometry
        return lambda counts: (np.zeros(len(counts)), np.full(len(counts), _INF))
    if kind is ConstraintKind.EVERY_JOB_OCCUPIED:
        subset, days = _job_indices(c.jobs, inst), inst.horizon_days
        return lambda counts: _count_rows(days * (counts[:, subset] < 1).sum(axis=1))
    if kind is ConstraintKind.WORK_TIME_RANGE:
        subset, days = _job_indices(c.jobs, inst), inst.horizon_days
        per_day = np.array([inst.jobs[j].daily_hours for j in subset])
        lo, hi = np.array([inst.work_time_bounds[j] for j in subset]).reshape(-1, 2).T
        return lambda counts: _windows_rows(counts[:, subset] * per_day * days, lo, hi)
    if kind is ConstraintKind.SALARY_RANGE:
        (lo, hi), salary = inst.salary_bounds, salary_kernel(inst)
        return lambda counts: _window_rows(salary(counts), lo, hi)
    if kind is ConstraintKind.STAFF_CAP:
        return lambda counts: _window_rows(counts.sum(axis=1), -_INF, inst.max_total_staff)
    if kind is ConstraintKind.EMERGENCY:
        spec = inst.emergency
        if spec is None:
            raise ConfigurationError("instance has no emergency parameters (y1)")
        return _spare_rows(_job_indices(spec.jobs, inst), spec.alpha, inst)
    if kind is ConstraintKind.HEADCOUNT_RANGE:
        subset = _job_indices(c.jobs, inst)
        lo, hi = np.array([inst.headcount_bounds()[j] for j in subset], dtype=float).reshape(-1, 2).T
        return lambda counts: _windows_rows(counts[:, subset], lo, hi)
    if kind is ConstraintKind.COOPERATION:
        return _spare_rows(_job_indices(c.jobs, inst), c.count if c.count is not None else 1, inst)
    raise ConfigurationError(f"unknown constraint kind {kind!r}")


def _rest_rows(attended: np.ndarray, cap: int) -> _Rows:
    """(violation, slack) of the rest cap per roster of a (P, E, D)
    attendance stack: the rest days past ``cap`` in every run of rest
    days, and ``cap`` minus the longest run (0.0 past it).  A run ending
    on day ``d`` is ``d`` minus the last attended day up to ``d`` (-1
    before the first): integers, so the float results are exact."""
    days = np.arange(attended.shape[2])
    run = days - np.maximum.accumulate(np.where(attended, days, -1), axis=2)
    longest = run.max(axis=(1, 2), initial=0)
    return (run > cap).sum(axis=(1, 2)).astype(float), np.maximum(cap - longest, 0.0)


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


def _roster_measure(c: AtomicConstraint, inst: ProblemInstance, staff: np.ndarray) -> Callable[[np.ndarray], _Rows]:
    """One atom compiled for a fixed staff, employee ``e`` holding job
    ``staff[e]``: a function from a (P, E, D, S) stack of own-channel
    bits (:func:`roster_kernel`) to each roster's (violation, slack)."""
    kind = c.kind
    if kind is ConstraintKind.EVERY_JOB_OCCUPIED:
        subset = _job_indices(c.jobs, inst)
        by_job, starts, ends = _job_slices(staff, inst.n_jobs)
        # one OR over each job's employees that has any; a job with none
        # is unstaffed every day (reduceat would read its neighbour's row)
        held = [j for j in range(inst.n_jobs) if starts[j] < ends[j]]
        column = {j: k for k, j in enumerate(held)}
        columns = [column[j] for j in subset if j in column]
        firsts = [starts[j] for j in held]

        def unstaffed(slots: np.ndarray) -> _Rows:
            # each job's staffed days per roster: integer counts, exact in any order
            staffed = np.zeros(len(slots), dtype=np.int64)
            if columns:
                staffed += np.logical_or.reduceat(by_job(attended_days(slots)), firsts, axis=1)[
                    :, columns].sum(axis=(1, 2))
            return _count_rows(slots.shape[2] * len(subset) - staffed)

        return unstaffed
    if kind is ConstraintKind.WORK_TIME_RANGE:
        subset = _job_indices(c.jobs, inst)
        by_job, starts, ends = _job_slices(staff, inst.n_jobs)
        slices = [slice(starts[j], ends[j]) for j in subset]
        slot_hours = np.array([j.shift_hours for j in inst.jobs], dtype=float)[staff][:, None, :]  # (E, 1, 4)
        # row 2e + b: employee e's four slot hours times the day bit b
        day_hours = np.stack([0 * slot_hours[:, 0], slot_hours[:, 0]], axis=1).reshape(2 * len(staff), slot_hours.shape[2])
        rows = 2 * np.arange(len(staff))[:, None]
        lo, hi = np.array([inst.work_time_bounds[j] for j in subset]).reshape(-1, 2).T

        def hours(slots: np.ndarray) -> _Rows:
            # each job's terms are its employees' (D, 4) hours in employee
            # order, contiguous in the slice as in a copy made by a mask
            if slots.shape[3] == 1:
                worked = by_job(np.take(day_hours, rows + slots[..., 0], axis=0))
            else:
                worked = by_job(slots * slot_hours)
            totals = [worked[:, jobs].reshape(len(slots), -1).sum(axis=1) for jobs in slices]
            return _windows_rows(np.array(totals).reshape(len(slices), len(slots)).T, lo, hi)

        return hours
    if kind is ConstraintKind.SALARY_RANGE:
        lo, hi = inst.salary_bounds
        salary = roster_salary_kernel(inst, staff, inst.multi_shift)
        return lambda slots: _window_rows(salary(slots), lo, hi)
    if kind is ConstraintKind.REST_CAP:
        return lambda slots: _rest_rows(attended_days(slots), inst.rest_cap)
    if kind is ConstraintKind.MULTI_SHIFT:
        if not inst.multi_shift:
            raise ConfigurationError("multi-shift coverage (o1) on a single-shift instance")
        return lambda slots: _count_rows((~attended_days(slots)).sum(axis=(1, 2)))
    # only each employee's own job channel is stored, so k1 cannot fail;
    # k5, y1, y2 and o2 judge the fixed staff's headcounts alone
    counts = np.bincount(staff, minlength=inst.n_jobs).astype(float)
    violation, slack = _headcount_measure(c, inst)(counts[None, :])
    return lambda slots: (np.repeat(violation, len(slots)), np.repeat(slack, len(slots)))


def _measure(
    c: AtomicConstraint,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> tuple[float, float]:
    """(violation, slack) of one atom against a tensor, or against a
    headcount vector under the full-attendance assumption when ``tensor``
    is None: the single-row case of :func:`_roster_measure` or
    :func:`_headcount_measure`."""
    if tensor is not None:
        violation, slack = _roster_measure(c, inst, tensor.job_of_employee)(tensor.day_slots()[None])
    elif hc is None:
        raise ConfigurationError("need a headcount vector or a tensor")
    else:
        violation, slack = _headcount_measure(c, inst)(headcount_rows(hc))
    return float(violation[0]), float(slack[0])


def violation_atom(
    c: AtomicConstraint,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> float:
    """How badly the atom fails; 0.0 exactly when it holds.

    Counting atoms (k1, k2, k6, o1) report offending cells or days;
    window atoms report the summed distance outside each window.
    """
    return _measure(c, tensor, hc, inst)[0]


def eval_atom(
    c: AtomicConstraint,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> bool:
    """Yes/no check of one atom: its violation is zero."""
    return violation_atom(c, tensor, hc, inst) == 0.0


def boundary_distance(
    c: AtomicConstraint,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> float:
    """Distance from the feasible boundary: positive strictly inside,
    0.0 on the boundary or outside.  Counting atoms report +inf when
    satisfied; the rest cap reports ``rest_cap`` minus the longest rest
    run on a roster, and +inf on a headcount vector, which has no rest
    days."""
    return _measure(c, tensor, hc, inst)[1]


# ---------------------------------------------------------------------------
# expression evaluation


def _combine(expr: Expr, leaf: Callable[[AtomicConstraint], np.ndarray]) -> np.ndarray:
    """The tree's violation from ``leaf(atom)``, each atom's violation
    (an array or a float), asked for left to right as
    :func:`collect_atoms` lists them: AND sums, OR takes the easiest
    branch, NOT is an indicator (1.0 when the operand holds, else 0.0)."""
    if isinstance(expr, Atom):
        return leaf(expr.constraint)
    if isinstance(expr, And):
        return _combine(expr.left, leaf) + _combine(expr.right, leaf)
    if isinstance(expr, Or):
        return np.minimum(_combine(expr.left, leaf), _combine(expr.right, leaf))
    if isinstance(expr, Not):
        return 1.0 - (_combine(expr.operand, leaf) > 0.0)
    raise ConfigurationError(f"unknown expression node {type(expr).__name__}")


_Kernel = Callable[[np.ndarray], tuple[np.ndarray, list[np.ndarray]]]


def _kernel(expr: Expr, measures: list[Callable[[np.ndarray], _Rows]]) -> _Kernel:
    """A function from a block of rows to each row's violation of
    ``expr`` and, for each atom in :func:`collect_atoms` order (measured
    by ``measures``, in that order), each row's slack.  Every atom is
    measured once per call, for all rows at once."""

    def kernel(rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        pending, slacks = iter(measures), []

        def leaf(c: AtomicConstraint) -> np.ndarray:
            violation, slack = next(pending)(rows)
            slacks.append(slack)
            return violation

        return _combine(expr, leaf), slacks

    return kernel


def headcount_kernel(expr: Expr, inst: ProblemInstance) -> _Kernel:
    """``expr`` compiled for an instance, over a (P, J) headcount matrix."""
    return _kernel(expr, [_headcount_measure(c, inst) for c in collect_atoms(expr)])


def roster_kernel(expr: Expr, inst: ProblemInstance, staff: np.ndarray) -> _Kernel:
    """``expr`` compiled for an instance and a fixed staff (employee ``e``
    holds job ``staff[e]``), over a (P, E, D, S) stack of rosters'
    own-channel bits: S = 4 slot bits per day, or S = 1 day bits of
    single-shift rosters, each standing for its four slots.  Both give
    each roster the same violation and slacks, bit for bit, as its
    ``day_slots()[None]``."""
    return _kernel(expr, [_roster_measure(c, inst, staff) for c in collect_atoms(expr)])


def violation_expr(
    expr: Expr,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> float:
    """Aggregate violation: AND sums, OR takes the easiest branch, NOT is
    an indicator (1.0 when the operand holds, else 0.0).  This is the
    single-row case of :func:`roster_kernel` on a roster, and of
    :func:`headcount_kernel` on a headcount vector, one atom at a time."""
    if tensor is None:
        return float(_combine(expr, lambda c: violation_atom(c, None, hc, inst)))
    violation, _ = roster_kernel(expr, inst, tensor.job_of_employee)(tensor.day_slots()[None])
    return float(violation[0])


def eval_expr(
    expr: Expr,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> bool:
    """Yes/no check of a whole expression: its violation is zero."""
    return violation_expr(expr, tensor, hc, inst) == 0.0


# ---------------------------------------------------------------------------
# urgent-task arithmetic


def apply_emergency(
    hc: HeadcountVector,
    t_total: float,
    cost: float,
    spec,
    inst: ProblemInstance,
) -> tuple[HeadcountVector, float, float]:
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
    """Recursive-descent parser for the constraint grammar:

    expr  := term ('|' term)*
    term  := factor ('&' factor)*
    factor:= '!' factor | atom | '(' expr ')'
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Expr:
        expr = self._or()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(
                f"unexpected {self.text[self.pos]!r} after a complete expression",
                offset=self.pos,
            )
        return expr

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> Optional[str]:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def _or(self) -> Expr:
        expr = self._and()
        while self._peek() == "|":
            self.pos += 1
            expr = Or(expr, self._and())
        return expr

    def _and(self) -> Expr:
        expr = self._factor()
        while self._peek() == "&":
            self.pos += 1
            expr = And(expr, self._factor())
        return expr

    def _factor(self) -> Expr:
        ch = self._peek()
        if ch == "!":
            self.pos += 1
            return Not(self._factor())
        if ch == "(":
            self.pos += 1
            expr = self._or()
            if self._peek() != ")":
                raise ParseError("expected ')'", offset=self.pos)
            self.pos += 1
            return expr
        return self._atom()

    def _atom(self) -> Expr:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        token = self.text[start : self.pos]
        if not token:
            raise ParseError("expected a constraint atom, '!', or '('", offset=start)
        if token not in ATOM_CODES:
            raise ParseError(f"unknown constraint atom {token!r}", offset=start)
        return Atom(AtomicConstraint(ConstraintKind(token)))


def parse_constraint_string(text: str) -> Expr:
    """Parse ``"k1&k2|!(k5)"``-style strings.  Precedence: ``!`` over
    ``&`` over ``|``; parentheses group.  Offsets in errors are 0-based."""
    return _Parser(text).parse()


def format_expr(expr: Expr) -> str:
    """Canonical compact string; parsing it back yields the same tree."""

    def fmt(node: Expr) -> str:
        if isinstance(node, Atom):
            if node.constraint.parameterized:
                raise ConfigurationError(
                    "parameterized atoms (job subsets / counts) have no string form"
                )
            return node.constraint.kind.value
        if isinstance(node, Not):
            inner = fmt(node.operand)
            if isinstance(node.operand, (And, Or)):
                return f"!({inner})"
            return f"!{inner}"
        if isinstance(node, (And, Or)):
            op = "&" if isinstance(node, And) else "|"
            mine = _PRECEDENCE[type(node)]
            left = fmt(node.left)
            if _PRECEDENCE[type(node.left)] < mine:
                left = f"({left})"
            right = fmt(node.right)
            if _PRECEDENCE[type(node.right)] <= mine:
                right = f"({right})"
            return f"{left}{op}{right}"
        raise ConfigurationError(f"unknown expression node {type(node).__name__}")

    return fmt(expr)
