"""Core data model: jobs, problem instances, and the attendance solution space.

A scheduling horizon is a run of days, each split into four shift slots in
the fixed order (MOR, AFT, EVN, MID).  The solution space is a binary
tensor indexed (employee, shift slot, job): entry 1 means the employee
attends that slot on that job.  Every employee belongs to exactly one job
channel.

In single-shift mode attendance is decided per day: the four slots of a
day carry the same bit.  In multi-shift mode each slot is independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, StructuralError

SHIFT_NAMES = ("MOR", "AFT", "EVN", "MID")
SLOTS_PER_DAY = 4

# Default slot durations partition a 20-hour operating day; overridable
# per job.
DEFAULT_SHIFT_HOURS = (4.0, 4.0, 4.0, 8.0)


def _as_float4(values: Sequence[float], what: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) != SLOTS_PER_DAY:
        raise ConfigurationError(f"{what} must have {SLOTS_PER_DAY} entries, got {len(out)}")
    if not all(0 <= v < math.inf for v in out):
        raise ConfigurationError(f"{what} must be finite and nonnegative")
    return out


@dataclass(frozen=True)
class Job:
    """One job type with its per-slot wages, per-slot durations, and
    headcount bounds."""

    code: str
    name: str
    wage_per_shift: tuple[float, ...]
    headcount_min: int
    headcount_max: int
    shift_hours: tuple[float, ...] = DEFAULT_SHIFT_HOURS

    def __post_init__(self):
        object.__setattr__(self, "wage_per_shift", _as_float4(self.wage_per_shift, "wage_per_shift"))
        object.__setattr__(self, "shift_hours", _as_float4(self.shift_hours, "shift_hours"))
        if not self.code:
            raise ConfigurationError("job code must be nonempty")
        if not self.headcount_min >= 0:   # every check here also fails on NaN
            raise ConfigurationError(f"job {self.code}: headcount_min must be nonnegative")
        if not self.headcount_max >= 1:
            raise ConfigurationError(f"job {self.code}: headcount_max must be positive")
        if self.headcount_min > self.headcount_max:
            raise ConfigurationError(f"job {self.code}: headcount_min > headcount_max")
        if not any(h > 0 for h in self.shift_hours):
            raise ConfigurationError(f"job {self.code}: all shift hours are zero")

    @property
    def daily_hours(self) -> float:
        return sum(self.shift_hours)

    @property
    def daily_wage(self) -> float:
        """Wage of a full attended day (sum of the four per-slot wages)."""
        return sum(self.wage_per_shift)


@dataclass(frozen=True)
class EmergencySpec:
    """Parameters of an urgent-task withdrawal: ``alpha`` employees are
    pulled from work, costing ``time_cost`` hours, with a bonus paid and a
    punishment charged on the wage bill.  ``jobs`` restricts which job
    codes supply the withdrawn staff (None = any job)."""

    alpha: int
    time_cost: float
    bonus: float
    punishment: float
    daily_probability: float = 0.0
    jobs: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.alpha >= 1:   # every check here also fails on NaN
            raise ConfigurationError("alpha must be a positive integer")
        if not all(0 <= x < math.inf for x in (self.time_cost, self.bonus, self.punishment)):
            raise ConfigurationError("emergency costs must be finite and nonnegative")
        if not 0.0 <= self.daily_probability <= 1.0:
            raise ConfigurationError("daily_probability must be in [0, 1]")
        if self.jobs is not None:
            object.__setattr__(self, "jobs", tuple(self.jobs))


@dataclass(frozen=True)
class ProblemInstance:
    """Full parameterization of one scheduling problem."""

    jobs: tuple[Job, ...]
    horizon_days: int
    max_total_staff: int
    work_time_bounds: tuple[tuple[float, float], ...]
    salary_bounds: tuple[float, float]
    rest_cap: int
    emergency: EmergencySpec | None = None
    multi_shift: bool = False

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(
            self, "work_time_bounds", tuple((float(a), float(b)) for a, b in self.work_time_bounds)
        )
        object.__setattr__(self, "salary_bounds", tuple(float(x) for x in self.salary_bounds))
        if not self.jobs:
            raise ConfigurationError("instance needs at least one job")
        if not self.horizon_days >= 1:   # every check here also fails on NaN
            raise ConfigurationError("horizon_days must be positive")
        if not self.max_total_staff >= 1:
            raise ConfigurationError("max_total_staff must be positive")
        if not self.rest_cap >= 0:
            raise ConfigurationError("rest_cap must be nonnegative")
        if len(self.work_time_bounds) != len(self.jobs):
            raise ConfigurationError("work_time_bounds must have one (low, high) pair per job")
        for job, (lo, hi) in zip(self.jobs, self.work_time_bounds):
            if not lo <= hi:
                raise ConfigurationError(f"job {job.code}: work time bounds {lo, hi} need lower <= upper")
        lo, hi = self.salary_bounds
        if not lo <= hi:
            raise ConfigurationError(f"salary bounds {lo, hi} need lower <= upper")
        if sum(j.headcount_min for j in self.jobs) > self.max_total_staff:
            raise ConfigurationError("sum of job headcount minimums exceeds max_total_staff")
        codes = [j.code for j in self.jobs]
        if len(set(codes)) != len(codes):
            raise ConfigurationError("duplicate job codes")
        if self.emergency is not None:
            if self.emergency.alpha > self.max_total_staff:
                raise ConfigurationError("emergency alpha exceeds max_total_staff")
            if self.emergency.jobs is not None:
                unknown = set(self.emergency.jobs) - set(codes)
                if unknown:
                    raise ConfigurationError(f"emergency references unknown job codes {sorted(unknown)}")

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    def job_index(self, code: str) -> int:
        for i, job in enumerate(self.jobs):
            if job.code == code:
                return i
        raise KeyError(f"unknown job code {code!r}")

    def headcount_bounds(self) -> tuple[tuple[int, int], ...]:
        return tuple((j.headcount_min, j.headcount_max) for j in self.jobs)


@dataclass(frozen=True)
class HeadcountVector:
    """Number of employees allocated to each job, in job order."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(map(int, self.counts))
        object.__setattr__(self, "counts", counts)
        if counts and min(counts) < 0:
            raise ConfigurationError("headcounts must be nonnegative")

    def __len__(self) -> int:
        return len(self.counts)


def employee_jobs(counts: HeadcountVector | Sequence[int]) -> np.ndarray:
    """Global employee-index -> job-index map.

    Employees are identified by (job, ordinal within job); the global
    numbering concatenates jobs in order, so job 0's employees come first.
    """
    c = counts.counts if isinstance(counts, HeadcountVector) else tuple(counts)
    return np.repeat(np.arange(len(c), dtype=np.int64), c)


def _checked_jobs(job_of_employee: Sequence[int], n_emp: int, n_jobs: int) -> np.ndarray:
    """The employee-to-job map as int64, checked against the tensor's shape."""
    jobs = np.ascontiguousarray(job_of_employee, dtype=np.int64)
    if jobs.shape != (n_emp,):
        raise StructuralError("job_of_employee must have one entry per employee")
    if n_emp and (jobs.min() < 0 or jobs.max() >= n_jobs):
        raise StructuralError("job_of_employee indices out of range")
    return jobs


def _job_type(n_jobs: int) -> np.dtype:
    """The smallest unsigned integer type that holds every index of ``n_jobs`` jobs."""
    return np.min_scalar_type(max(n_jobs - 1, 0))


def _by_day(slot_bits: np.ndarray) -> np.ndarray:
    """Per-slot bits (employees x slots) viewed as (employees, days, 4)."""
    if slot_bits.shape[1] % SLOTS_PER_DAY != 0:
        raise StructuralError(f"slot axis length {slot_bits.shape[1]} is not a multiple of {SLOTS_PER_DAY}")
    n_emp, slots = slot_bits.shape
    return slot_bits.reshape(n_emp, slots // SLOTS_PER_DAY, SLOTS_PER_DAY)


@dataclass(frozen=True, eq=False, init=False, slots=True)
class AttendanceTensor:
    """Binary solution-space tensor, shape (employees, slots, jobs).

    ``job_of_employee`` maps each employee row to its single job channel;
    entries outside that channel must be zero (one job per employee), so
    only each employee's own-channel bits are stored, by day and packed
    eight to a byte, and :attr:`entries` and :meth:`day_slots` are
    rebuilt from them on access.  The job map is stored as bytes, in the
    smallest unsigned type that holds every job index (one byte per
    employee up to 256 jobs), and handed out as int64.  Immutable: every
    array handed out is read-only.
    """

    _bits: bytes
    days: int
    _jobs: bytes
    n_jobs: int

    def __init__(self, entries: np.ndarray, job_of_employee: np.ndarray):
        entries = np.ascontiguousarray(entries, dtype=np.uint8)
        if entries.ndim != 3:
            raise StructuralError(f"entries must be 3-D, got shape {entries.shape}")
        n_emp, _, n_jobs = entries.shape
        jobs = _checked_jobs(job_of_employee, n_emp, n_jobs)
        own = entries[np.arange(n_emp), :, jobs]
        if int(own.sum()) != int(entries.sum()):
            raise StructuralError("attendance outside an employee's own job channel")
        self._store(_by_day(own), jobs, n_jobs)

    @classmethod
    def _from_day_slots(cls, day_slots: np.ndarray, job_of_employee: Sequence[int], n_jobs: int) -> "AttendanceTensor":
        """Tensor over own-channel bits (employees, days, 4) that no one else holds."""
        tensor = cls.__new__(cls)
        tensor._store(day_slots, _checked_jobs(job_of_employee, day_slots.shape[0], n_jobs), n_jobs)
        return tensor

    def _store(self, day_slots: np.ndarray, jobs: np.ndarray, n_jobs: int) -> None:
        if day_slots.size and day_slots.max() > 1:
            raise StructuralError("entries must be binary")
        object.__setattr__(self, "_bits", np.packbits(day_slots).tobytes())
        object.__setattr__(self, "days", day_slots.shape[1])
        object.__setattr__(self, "_jobs", jobs.astype(_job_type(n_jobs)).tobytes())
        object.__setattr__(self, "n_jobs", n_jobs)

    @property
    def entries(self) -> np.ndarray:
        """The full read-only bit array, shape (employees, slots, jobs)."""
        entries = np.zeros((self.n_employees, SLOTS_PER_DAY * self.days, self.n_jobs), dtype=np.uint8)
        entries[np.arange(self.n_employees), :, self.job_of_employee] = self.slot_attendance()
        entries.flags.writeable = False
        return entries

    # -- construction -------------------------------------------------

    @classmethod
    def from_day_attendance(cls, day_attendance: np.ndarray, job_of_employee: Sequence[int], n_jobs: int) -> "AttendanceTensor":
        """Build a single-shift tensor from a per-day bit matrix
        (employees x days); each day bit is copied into all four slots."""
        day = np.asarray(day_attendance, dtype=np.uint8)
        if day.ndim != 2:
            raise StructuralError("day_attendance must be 2-D (employees x days)")
        slots = np.broadcast_to(day[:, :, None], day.shape + (SLOTS_PER_DAY,))
        return cls._from_day_slots(slots, job_of_employee, n_jobs)

    @classmethod
    def from_slot_attendance(cls, slot_attendance: np.ndarray, job_of_employee: Sequence[int], n_jobs: int) -> "AttendanceTensor":
        """Build a tensor from a per-slot bit matrix (employees x slots)."""
        slot = np.asarray(slot_attendance, dtype=np.uint8)
        if slot.ndim != 2:
            raise StructuralError("slot_attendance must be 2-D (employees x slots)")
        return cls._from_day_slots(_by_day(slot), job_of_employee, n_jobs)

    # -- views ---------------------------------------------------------

    @property
    def job_of_employee(self) -> np.ndarray:
        """Each employee's job index, shape (employees,); read-only int64."""
        jobs = np.frombuffer(self._jobs, dtype=_job_type(self.n_jobs)).astype(np.int64)
        jobs.flags.writeable = False
        return jobs

    @property
    def n_employees(self) -> int:
        return len(self._jobs) // _job_type(self.n_jobs).itemsize

    def slot_attendance(self) -> np.ndarray:
        """Each employee's own-channel bits, shape (employees, slots); read-only."""
        return self.day_slots().reshape(self.n_employees, SLOTS_PER_DAY * self.days)

    def day_slots(self) -> np.ndarray:
        """Own-channel bits as (employees, days, 4); read-only."""
        shape = (self.n_employees, self.days, SLOTS_PER_DAY)
        bits = np.unpackbits(np.frombuffer(self._bits, dtype=np.uint8), count=np.prod(shape, dtype=int))
        bits.flags.writeable = False
        return bits.reshape(shape)

    def day_attendance(self) -> np.ndarray:
        """1 where the employee attends at least one slot of the day."""
        return (self.day_slots().sum(axis=2) > 0).astype(np.uint8)

    def is_single_shift_consistent(self) -> bool:
        ds = self.day_slots()
        return bool(np.all(ds == ds[:, :, :1]))

    def headcounts(self) -> HeadcountVector:
        """Allocated employees per job (rows mapped to each channel)."""
        return HeadcountVector(tuple(int(x) for x in np.bincount(self.job_of_employee, minlength=self.n_jobs)))

    def validate(self, inst: ProblemInstance) -> None:
        """Check dimensional and mode consistency against an instance."""
        if self.days != inst.horizon_days:
            raise StructuralError(f"tensor spans {self.days} days, instance {inst.horizon_days}")
        if self.n_jobs != inst.n_jobs:
            raise StructuralError(f"tensor has {self.n_jobs} job channels, instance {inst.n_jobs}")
        if not inst.multi_shift and not self.is_single_shift_consistent():
            raise StructuralError("slot bits vary within a day in single-shift mode")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttendanceTensor):
            return NotImplemented
        return (self.n_jobs, self.days, self._bits, self._jobs) == (
            other.n_jobs, other.days, other._bits, other._jobs)


def total_work_time(tensor: AttendanceTensor, inst: ProblemInstance) -> float:
    """Total hours worked over the horizon.

    Each attended slot contributes that slot's duration for the
    employee's job; in single-shift mode (all four slot bits equal) this
    reduces to attended-days times the job's daily hours.
    """
    if not tensor.n_employees:
        return 0.0
    durations = np.array([j.shift_hours for j in inst.jobs], dtype=float)
    per_emp = durations[tensor.job_of_employee]  # (employees, 4)
    return float((tensor.day_slots() * per_emp[:, None, :]).sum())


def full_attendance(counts: HeadcountVector | Sequence[int], inst: ProblemInstance) -> AttendanceTensor:
    """Tensor in which every allocated employee attends every slot."""
    jobs = employee_jobs(counts)
    day = np.ones((len(jobs), inst.horizon_days), dtype=np.uint8)
    return AttendanceTensor.from_day_attendance(day, jobs, inst.n_jobs)
