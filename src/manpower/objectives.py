"""Objective functions over headcount vectors and attendance tensors.

Three built-in economics are provided:

* total working time — hours delivered over the horizon,
* total salary under day-rate pay — every allocated employee is paid the
  full daily wage for every horizon day,
* multi-shift salary — pay accrues per attended slot, so partial days
  cost less.

Objectives carry a direction; a bundle's values are signed so that
maximization is negated and optimizers only ever minimize.

On headcount vectors a bundle is compiled for an instance into one
function over a whole (P, J) matrix of staffings (:func:`objective_kernel`);
the one-staffing functions are its single-row case.  Sums over jobs are
added column by column, left to right, as Python's ``sum`` adds, so a
staffing's value never depends on the other rows scored with it.  A
roster's wage bill comes from :func:`roster_salary_kernel`, through
:func:`tensor_salary` for one roster.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .domain import AttendanceTensor, HeadcountVector, ProblemInstance
from .errors import ConfigurationError, StructuralError

# Distinct staffings whose values a compiled custom objective remembers;
# also the staffings one run's scorer remembers (annealing revisits most
# of its neighbours).
SCORE_CACHE_SIZE = 256


class ObjectiveKind(str, Enum):
    TOTAL_TIME = "total_time"
    TOTAL_SALARY = "total_salary"
    MULTISHIFT_SALARY = "multishift_salary"
    HEADCOUNT_SUBSET = "headcount_subset"
    CUSTOM = "custom"


class Direction(str, Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass(frozen=True)
class Objective:
    """One objective: a built-in kind, the sum of the headcounts of
    ``job_indices``, or a ``CUSTOM`` one valued by ``func``.  A custom
    ``func`` is called as ``func(headcounts, None, instance)``: it always
    receives ``tensor=None``."""

    kind: ObjectiveKind
    direction: Direction = Direction.MINIMIZE
    job_indices: tuple[int, ...] | None = None
    func: Callable[[HeadcountVector, AttendanceTensor | None, ProblemInstance], float] | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind is ObjectiveKind.CUSTOM and self.func is None:
            raise ConfigurationError("custom objective needs a callable")
        if self.kind is ObjectiveKind.HEADCOUNT_SUBSET and not self.job_indices:
            raise ConfigurationError("headcount_subset objective needs job indices")
        if self.job_indices is not None:
            object.__setattr__(self, "job_indices", tuple(self.job_indices))
        if not self.label:
            object.__setattr__(self, "label", self.kind.value)


@dataclass(frozen=True)
class ObjectiveBundle:
    """Ordered list of objectives evaluated together."""

    objectives: tuple[Objective, ...]

    def __post_init__(self):
        object.__setattr__(self, "objectives", tuple(self.objectives))
        if not self.objectives:
            raise ConfigurationError("bundle needs at least one objective")

    def __len__(self) -> int:
        return len(self.objectives)

    def __iter__(self):
        return iter(self.objectives)


# ---------------------------------------------------------------------------
# built-in economics


def row_sums(values: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right from 0 as Python's ``sum``
    adds (``@`` and ``.sum()`` may add in another order); the final
    ``+ 0.0`` turns a lone -0.0 into 0.0, as ``0 + x`` does."""
    if values.shape[1] < 2:
        return values[:, 0] + 0.0 if values.shape[1] else np.zeros(values.shape[0])
    return np.add.accumulate(values, axis=1)[:, -1] + 0.0


def headcount_rows(hc: HeadcountVector, inst: ProblemInstance) -> np.ndarray:
    """One staffing as a (1, J) float matrix, the single-row case; one of
    the wrong length raises :class:`StructuralError`."""
    if len(hc.counts) != inst.n_jobs:
        raise StructuralError(f"headcount vector has {len(hc.counts)} counts for {inst.n_jobs} jobs")
    return np.array([hc.counts], dtype=float)


_Rows = Callable[[np.ndarray], np.ndarray]


def salary_kernel(inst: ProblemInstance) -> _Rows:
    """Day-rate wage bill of each row of a (P, J) headcount matrix:
    allocated headcount is paid the full daily wage for every day of the
    horizon, attended or not."""
    wages, days = np.array([j.daily_wage for j in inst.jobs]), inst.horizon_days
    return lambda counts: days * row_sums(counts * wages)


def hours_kernel(inst: ProblemInstance) -> _Rows:
    """Full-attendance working time of each row of a (P, J) headcount
    matrix."""
    hours, days = np.array([j.daily_hours for j in inst.jobs]), inst.horizon_days
    return lambda counts: days * row_sums(counts * hours)


def f2_total_salary(hc: HeadcountVector, inst: ProblemInstance) -> float:
    """Wage bill under day-rate pay (:func:`salary_kernel` of one staffing)."""
    return float(salary_kernel(inst)(headcount_rows(hc, inst))[0])


def attended_days(slots: np.ndarray) -> np.ndarray:
    """Attended days of a (P, E, D, S) stack of own-channel bits, as
    bools of shape (P, E, D): the day bits themselves when S = 1, where
    a day's bit stands for its four slots; any attended slot when S = 4."""
    return slots[..., 0] != 0 if slots.shape[3] == 1 else slots.any(axis=3)


def roster_salary_kernel(inst: ProblemInstance, staff: np.ndarray, per_slot: bool) -> _Rows:
    """Wage bill of each roster of a (P, E, D, S) stack of own-channel
    bits (S = 4 slots per day, or S = 1 day bits standing for their four
    slots), employee ``e`` holding job ``staff[e]``: paid per attended
    slot when ``per_slot``, else the daily wage per attended day.  Each
    bill adds its own roster's terms in employee order, as one roster's
    ``.sum()`` would, and the terms do not depend on S."""
    if per_slot:
        wages = np.array([j.wage_per_shift for j in inst.jobs], dtype=float)[staff]  # (E, 4)
        return lambda slots: (slots * wages[:, None, :]).reshape(len(slots), -1).sum(axis=1)
    daily = np.array([j.daily_wage for j in inst.jobs], dtype=float)[staff]
    return lambda slots: (attended_days(slots).sum(axis=2) * daily).sum(axis=1)


def tensor_salary(tensor: AttendanceTensor, inst: ProblemInstance) -> float:
    """Salary realized by a tensor: slot-accrued in multi-shift mode,
    attended-day day-rate otherwise (:func:`roster_salary_kernel` of one roster)."""
    return float(roster_salary_kernel(inst, tensor.job_of_employee, inst.multi_shift)(tensor.day_slots()[None])[0])


def total_time_headcount(hc: HeadcountVector, inst: ProblemInstance) -> float:
    """Full-attendance working time implied by a headcount vector alone."""
    return float(hours_kernel(inst)(headcount_rows(hc, inst))[0])


# ---------------------------------------------------------------------------
# evaluation


def _headcount_column(o: Objective, inst: ProblemInstance, salary: _Rows) -> _Rows:
    """One objective's raw values over a (P, J) headcount matrix; the
    salary objectives are ``salary``.  A custom objective is called on
    each staffing not among the last :data:`SCORE_CACHE_SIZE` distinct
    ones it was called on, so its ``func`` must be a pure function."""
    if o.kind is ObjectiveKind.TOTAL_TIME:
        return hours_kernel(inst)
    if o.kind in (ObjectiveKind.TOTAL_SALARY, ObjectiveKind.MULTISHIFT_SALARY):
        # full attendance makes slot pay equal day-rate pay
        return salary
    if o.kind is ObjectiveKind.HEADCOUNT_SUBSET:
        jobs = list(o.job_indices)
        return lambda counts: row_sums(counts[:, jobs])
    value = functools.lru_cache(maxsize=SCORE_CACHE_SIZE)(
        lambda key: float(o.func(HeadcountVector(key), None, inst)))
    return lambda counts: np.array([value(tuple(key)) for key in counts.astype(np.int64).tolist()])


def objective_kernel(bundle: ObjectiveBundle, inst: ProblemInstance) -> Callable[..., np.ndarray]:
    """``bundle`` compiled for an instance: a function from a (P, J)
    headcount matrix, and optionally each row's wage bill
    (:func:`salary_kernel`, computed when not given), to the (P, M)
    signed values of every objective for each row.  A custom objective
    is evaluated row by row, and remembered per compiled kernel.  A NaN
    or infinite value raises :class:`ConfigurationError` naming the
    objective and the first row holding one: no solver can rank it, and
    it would read as a mere infeasible result."""
    salary = salary_kernel(inst)
    columns = [(_headcount_column(o, inst, salary), o.direction is Direction.MAXIMIZE) for o in bundle]

    def kernel(counts: np.ndarray, bill: np.ndarray | None = None) -> np.ndarray:
        values = np.empty((len(counts), len(columns)))
        for m, (column, maximize) in enumerate(columns):
            value = bill if column is salary and bill is not None else column(counts)
            values[:, m] = -value if maximize else value
        if not np.isfinite(values).all():
            row, m = np.argwhere(~np.isfinite(values))[0]
            raise ConfigurationError(
                f"objective {bundle.objectives[m].label!r} is {float(values[row, m])} "
                f"at headcounts {tuple(counts[row].astype(np.int64).tolist())}")
        return values

    return kernel


def evaluate_bundle(
    bundle: ObjectiveBundle,
    hc: HeadcountVector,
    tensor: AttendanceTensor | None,
    inst: ProblemInstance,
) -> tuple[float, ...]:
    """Signed values of every objective in ``bundle`` on one staffing,
    the single-row case of :func:`objective_kernel`.  ``tensor`` must be
    None: a roster's wage bill is :func:`tensor_salary`.  A NaN or
    infinite value raises :class:`ConfigurationError` naming the
    objective."""
    if tensor is not None:
        raise ConfigurationError("evaluate_bundle scores staffings; price a roster with tensor_salary")
    return tuple(objective_kernel(bundle, inst)(headcount_rows(hc, inst))[0].tolist())


def parse_objective_token(token: str, inst: ProblemInstance) -> Objective:
    """Parse a CLI objective token.

    Accepts ``total_time``, ``salary``, ``salary_ms``, or
    ``headcount:a+c`` (sum of the named jobs' headcounts, maximized).
    A leading ``-`` flips the default direction.
    """
    tok = token.strip()
    direction = None
    if tok.startswith("-"):
        direction = "flip"
        tok = tok[1:]
    if tok.startswith("headcount:"):
        codes = [c for c in tok[len("headcount:"):].split("+") if c]
        if not codes:
            raise ConfigurationError(f"objective {token!r}: no job codes after 'headcount:'")
        try:
            idx = tuple(inst.job_index(c) for c in codes)
        except KeyError as exc:
            raise ConfigurationError(f"objective {token!r}: {exc.args[0]}") from None
        base = Direction.MAXIMIZE
        obj_kind, label = ObjectiveKind.HEADCOUNT_SUBSET, tok
        job_indices = idx
    else:
        table = {
            "total_time": (ObjectiveKind.TOTAL_TIME, Direction.MINIMIZE),
            "salary": (ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),
            "salary_ms": (ObjectiveKind.MULTISHIFT_SALARY, Direction.MINIMIZE),
        }
        if tok not in table:
            raise ConfigurationError(f"unknown objective {token!r}")
        obj_kind, base = table[tok]
        label, job_indices = tok, None
    if direction == "flip":
        base = Direction.MAXIMIZE if base is Direction.MINIMIZE else Direction.MINIMIZE
        label = "-" + label
    return Objective(kind=obj_kind, direction=base, job_indices=job_indices, label=label)
