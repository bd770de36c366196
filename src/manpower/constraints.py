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
region it lies, for interior barrier penalties).  The three public faces
read that one measure, so the check and the magnitude cannot disagree:

* :func:`violation_atom` — the violation,
* :func:`eval_atom` — the yes/no check, ``violation == 0.0``,
* :func:`boundary_distance` — the slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .domain import (
    AttendanceTensor,
    HeadcountVector,
    ProblemInstance,
)
from .errors import ConfigurationError, InfeasibleError, ParseError
from .objectives import f1_job_time, f2_total_salary, tensor_salary


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


def _counts_in_play(hc: HeadcountVector | None, tensor: AttendanceTensor | None) -> tuple[int, ...]:
    """Headcounts the predicates judge: tensor rows win over the vector."""
    return tensor.headcounts().counts if tensor is not None else hc.counts


def _spare_capacity(counts: Sequence[int], jobs: Sequence[int], inst: ProblemInstance) -> int:
    """Employees the given jobs can lend while each job keeps its own
    headcount floor (and never drops to zero)."""
    spare = 0
    for j in jobs:
        floor = max(1, inst.jobs[j].headcount_min)
        spare += max(0, counts[j] - floor)
    return spare


def _job_hours(tensor: AttendanceTensor | None, hc: HeadcountVector | None, inst: ProblemInstance) -> list[float]:
    """Hours worked per job over the horizon."""
    if tensor is None:
        days = inst.horizon_days
        return [n * sum(job.shift_hours) * days for n, job in zip(hc.counts, inst.jobs)]
    return [f1_job_time(tensor, j, inst) for j in range(inst.n_jobs)]


def _rest_runs(day_att: np.ndarray) -> np.ndarray:
    """Length of every run of consecutive rest days, over all employee rows."""
    rest = np.zeros((day_att.shape[0], day_att.shape[1] + 2), dtype=np.int8)
    rest[:, 1:-1] = day_att == 0
    edges = np.flatnonzero(np.diff(rest.ravel()))
    return edges[1::2] - edges[0::2]


# ---------------------------------------------------------------------------
# the graded measure


def _count(offending: int) -> tuple[float, float]:
    """(violation, slack) of a counting atom: the number of offending
    cells or days, and +inf slack (no usable geometry) when none offend."""
    return float(offending), (_INF if offending == 0 else 0.0)


def _window(v: float, lo: float, hi: float) -> tuple[float, float]:
    """(violation, slack) of one value against its window ``[lo, hi]``:
    its distance outside the window, and its least distance to an end of
    the window (0.0 outside)."""
    if v < lo:
        return float(lo - v), 0.0
    if v > hi:
        return float(v - hi), 0.0
    return 0.0, float(min(v - lo, hi - v))


def _windows(
    values: Sequence[float],
    bounds: Sequence[tuple[float, float]],
    subset: Sequence[int],
) -> tuple[float, float]:
    """(violation, slack) of the ``subset`` jobs' windows: the summed
    distance outside each window, and the least slack of :func:`_window`
    over the jobs.  The arithmetic is inline rather than one
    :func:`_window` call per job, which is slower on the headcount route
    that staffing searches evaluate thousands of times."""
    outside = 0.0
    slack = _INF
    for j in subset:
        v = values[j]
        lo, hi = bounds[j]
        if v < lo:
            outside += lo - v
        elif v > hi:
            outside += v - hi
        elif v - lo < slack or hi - v < slack:  # cheaper than min() on the hot path
            slack = min(v - lo, hi - v)
    return outside, (0.0 if outside else float(slack))


def _measure(
    c: AtomicConstraint,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> tuple[float, float]:
    """(violation, slack) of one atom against a tensor, or against a
    headcount vector under the full-attendance assumption when ``tensor``
    is None.  The violation is 0.0 exactly when the atom holds; the slack
    is the barrier's distance from the feasible boundary."""
    if tensor is None and hc is None:
        raise ConfigurationError("need a headcount vector or a tensor")
    kind = c.kind

    if kind is ConstraintKind.SINGLE_DUTY:
        if tensor is None:
            return 0.0, _INF
        return _count(int((tensor.entries.sum(axis=2) > 1).sum()))

    if kind is ConstraintKind.EVERY_JOB_OCCUPIED:
        subset = _job_indices(c.jobs, inst)
        if tensor is None:
            return _count(inst.horizon_days * sum(1 for j in subset if hc.counts[j] < 1))
        day_att = tensor.day_attendance()
        staffed = [int(day_att[tensor.job_of_employee == j].any(axis=0).sum()) for j in subset]
        return _count(tensor.days * len(subset) - sum(staffed))

    if kind is ConstraintKind.WORK_TIME_RANGE:
        hours = _job_hours(tensor, hc, inst)
        return _windows(hours, inst.work_time_bounds, _job_indices(c.jobs, inst))

    if kind is ConstraintKind.SALARY_RANGE:
        v = tensor_salary(tensor, inst) if tensor is not None else f2_total_salary(hc, inst)
        return _window(v, *inst.salary_bounds)

    if kind is ConstraintKind.STAFF_CAP:
        return _window(sum(_counts_in_play(hc, tensor)), -_INF, inst.max_total_staff)

    if kind is ConstraintKind.REST_CAP:
        if tensor is None:
            return 0.0, float(inst.rest_cap)
        runs = _rest_runs(tensor.day_attendance())
        longest = int(runs.max()) if runs.size else 0
        excess = int(np.maximum(runs - inst.rest_cap, 0).sum())
        return float(excess), max(0.0, float(inst.rest_cap - longest))

    if kind is ConstraintKind.EMERGENCY:
        spec = inst.emergency
        if spec is None:
            raise ConfigurationError("instance has no emergency parameters (y1)")
        spare = _spare_capacity(_counts_in_play(hc, tensor), _job_indices(spec.jobs, inst), inst)
        return _window(spare, spec.alpha, _INF)

    if kind is ConstraintKind.HEADCOUNT_RANGE:
        counts = _counts_in_play(hc, tensor)
        return _windows(counts, inst.headcount_bounds(), _job_indices(c.jobs, inst))

    if kind is ConstraintKind.MULTI_SHIFT:
        if not inst.multi_shift:
            raise ConfigurationError("multi-shift coverage (o1) on a single-shift instance")
        if tensor is None:
            return _count(0)
        return _count(int(tensor.rest_counts().sum()))

    if kind is ConstraintKind.COOPERATION:
        need = c.count if c.count is not None else 1
        spare = _spare_capacity(_counts_in_play(hc, tensor), _job_indices(c.jobs, inst), inst)
        return _window(spare, need, _INF)

    raise ConfigurationError(f"unknown constraint kind {kind!r}")


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
    run (``rest_cap`` itself on a headcount vector)."""
    return _measure(c, tensor, hc, inst)[1]


# ---------------------------------------------------------------------------
# expression evaluation


def eval_expr(
    expr: Expr,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> bool:
    if isinstance(expr, Atom):
        return eval_atom(expr.constraint, tensor, hc, inst)
    if isinstance(expr, And):
        return eval_expr(expr.left, tensor, hc, inst) and eval_expr(expr.right, tensor, hc, inst)
    if isinstance(expr, Or):
        return eval_expr(expr.left, tensor, hc, inst) or eval_expr(expr.right, tensor, hc, inst)
    if isinstance(expr, Not):
        return not eval_expr(expr.operand, tensor, hc, inst)
    raise ConfigurationError(f"unknown expression node {type(expr).__name__}")


def violation_expr(
    expr: Expr,
    tensor: AttendanceTensor | None,
    hc: HeadcountVector | None,
    inst: ProblemInstance,
) -> float:
    """Aggregate violation: AND sums, OR takes the easiest branch, NOT is
    an indicator (1.0 when the operand holds, else 0.0)."""
    if isinstance(expr, Atom):
        return violation_atom(expr.constraint, tensor, hc, inst)
    if isinstance(expr, And):
        return violation_expr(expr.left, tensor, hc, inst) + violation_expr(expr.right, tensor, hc, inst)
    if isinstance(expr, Or):
        return min(
            violation_expr(expr.left, tensor, hc, inst),
            violation_expr(expr.right, tensor, hc, inst),
        )
    if isinstance(expr, Not):
        return 0.0 if violation_expr(expr.operand, tensor, hc, inst) > 0.0 else 1.0
    raise ConfigurationError(f"unknown expression node {type(expr).__name__}")


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
