"""Randomized duty-table generation and deterministic rotations.

A duty table names, for each day of a horizon, an ordered list of
members who serve that day.  :func:`generate_table` fills the table by
uniform random draws, re-drawing whenever a candidate fails the
admissibility policy (already serving today, over the assignment cap,
or rejected by a custom hook).  Cumulative counters make the draws
auditable: :func:`validate_table` replays a finished table against the
same policy.

:func:`generate_rotation` is the deterministic cousin: position ``p`` on
day ``d`` is served by person ``(d * positions + p) mod people``, which
cycles everyone through every position at equal rates.  A custom order
hook can permute who sits at each point of that cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .domain import AttendanceTensor, ProblemInstance
from .errors import ConfigurationError, TableGenerationError

MAX_DRAWS_PER_SLOT = 1000


@dataclass
class GeneratorState:
    """Running counters visible to admissibility hooks."""

    members: tuple[str, ...]
    day: int = 0
    today: set = field(default_factory=set)
    counts: dict = field(default_factory=dict)
    days_chosen: dict = field(default_factory=dict)

    def __post_init__(self):
        for m in self.members:
            self.counts.setdefault(m, 0)
            self.days_chosen.setdefault(m, [])

    def record(self, member: str) -> None:
        self.today.add(member)
        self.counts[member] += 1
        self.days_chosen[member].append(self.day)


@dataclass(frozen=True)
class SuitablePolicy:
    """Admissibility of a candidate for today's next slot.

    Built-in rules: nobody serves twice on the same day, and nobody
    exceeds ``max_assignments`` over the horizon.  ``allow`` can veto
    further (it sees the full running state)."""

    max_assignments: Optional[int] = None
    allow: Optional[Callable[[GeneratorState, str, int], bool]] = None

    def suitable(self, state: GeneratorState, member: str, day: int) -> bool:
        if member in state.today:
            return False
        if self.max_assignments is not None and state.counts[member] >= self.max_assignments:
            return False
        if self.allow is not None and not self.allow(state, member, day):
            return False
        return True


@dataclass(frozen=True)
class ScheduleTable:
    """A finished duty table: ``picks[d]`` is the ordered tuple of
    members serving on day ``d``."""

    members: tuple[str, ...]
    picks: tuple[tuple[str, ...], ...]
    job: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "picks", tuple(tuple(day) for day in self.picks))
        known = set(self.members)
        for day, chosen in enumerate(self.picks):
            unknown = [m for m in chosen if m not in known]
            if unknown:
                raise ConfigurationError(f"day {day} picks unknown members {unknown}")

    @property
    def days(self) -> int:
        return len(self.picks)

    @property
    def per_day(self) -> int:
        return len(self.picks[0]) if self.picks else 0

    def assignment_counts(self) -> dict:
        counts = {m: 0 for m in self.members}
        for day in self.picks:
            for m in day:
                counts[m] += 1
        return counts


def generate_table(
    members: Sequence[str],
    days: int,
    per_day: int,
    policy: Optional[SuitablePolicy] = None,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
    job: Optional[str] = None,
) -> ScheduleTable:
    """Fill a duty table by repeated uniform draws.

    Each slot re-draws until the policy admits somebody, up to
    ``MAX_DRAWS_PER_SLOT`` attempts; running out raises
    :class:`TableGenerationError` carrying the day that stalled.
    """
    members = tuple(members)
    if len(set(members)) != len(members):
        raise ConfigurationError("duplicate member ids")
    if not members:
        raise ConfigurationError("no members to schedule")
    if days < 1 or per_day < 1:
        raise ConfigurationError("days and per_day must be positive")
    if per_day > len(members):
        raise TableGenerationError(
            f"need {per_day} distinct members per day but only {len(members)} exist", day=0
        )
    if policy is None:
        policy = SuitablePolicy()
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))

    state = GeneratorState(members)
    picks: list[tuple[str, ...]] = []
    for day in range(days):
        state.day = day
        state.today = set()
        chosen: list[str] = []
        for _ in range(per_day):
            accepted = None
            for _ in range(MAX_DRAWS_PER_SLOT):
                candidate = members[int(rng.integers(len(members)))]
                if policy.suitable(state, candidate, day):
                    accepted = candidate
                    break
            if accepted is None:
                raise TableGenerationError(
                    f"no admissible member after {MAX_DRAWS_PER_SLOT} draws", day=day
                )
            state.record(accepted)
            chosen.append(accepted)
        picks.append(tuple(chosen))
    return ScheduleTable(members, tuple(picks), job=job)


def validate_table(table: ScheduleTable, policy: Optional[SuitablePolicy] = None) -> bool:
    """Replay the table against the policy; True iff every pick was
    admissible at the moment it was made."""
    if policy is None:
        policy = SuitablePolicy()
    state = GeneratorState(table.members)
    for day, chosen in enumerate(table.picks):
        state.day = day
        state.today = set()
        for member in chosen:
            if not policy.suitable(state, member, day):
                return False
            state.record(member)
    return True


def default_max_assignments(
    days: int,
    n_members: int,
    per_day: int,
    rest_cap: Optional[int] = None,
    max_hours: Optional[float] = None,
    day_hours: Optional[float] = None,
) -> int:
    """A workable assignment cap: tight enough to share load, loose
    enough that ``days * per_day`` slots remain fillable."""
    if n_members < 1 or days < 1 or per_day < 1:
        raise ConfigurationError("days, members, and per_day must be positive")
    cap = math.ceil(days * per_day / n_members)
    if cap * n_members == days * per_day:
        # zero spare capacity lets the random generator corner itself
        # (the last slots may belong to members already picked that day)
        cap += 1
    if rest_cap is not None:
        cap = max(cap, days - rest_cap)
    cap = min(cap, days)
    if max_hours is not None and day_hours:
        cap = min(cap, math.floor(max_hours / day_hours))
    if cap * n_members < days * per_day:
        raise ConfigurationError(
            f"cap {cap} cannot cover {days * per_day} slots with {n_members} members"
        )
    return cap


# ---------------------------------------------------------------------------
# rotations


@dataclass(frozen=True)
class RotationSpec:
    """Deterministic rotation: ``positions`` seats filled each day from a
    pool of ``people``.  Slots are walked in one endless cycle — position
    ``p`` on day ``d`` is cycle point ``(d * positions + p) mod people`` —
    and ``order`` (a permutation of ``0..people-1``) decides which person
    sits at each cycle point (default: person ``i`` at point ``i``)."""

    positions: int
    people: int
    order: Optional[Callable[[int], int]] = None

    def __post_init__(self):
        if self.positions < 1 or self.people < 1:
            raise ConfigurationError("positions and people must be positive")
        if self.positions > self.people:
            raise ConfigurationError("more positions than people")

    def person_for(self, day: int, position: int) -> int:
        point = (day * self.positions + position) % self.people
        if self.order is not None:
            return int(self.order(point))
        return point


def rotation_matrix(spec: RotationSpec, days: int) -> np.ndarray:
    """Rotation as a matrix of person indices, shape (days, positions)."""
    if days < 1:
        raise ConfigurationError("days must be positive")
    out = np.zeros((days, spec.positions), dtype=np.int64)
    for day in range(days):
        seen = set()
        for position in range(spec.positions):
            person = spec.person_for(day, position)
            if not 0 <= person < spec.people:
                raise TableGenerationError(
                    f"rotation order produced person {person} outside the pool", day=day
                )
            if person in seen:
                raise TableGenerationError(
                    f"rotation order repeats person {person} within the day", day=day
                )
            seen.add(person)
            out[day, position] = person
    return out


def generate_rotation(
    spec: RotationSpec,
    days: int,
    members: Optional[Sequence[str]] = None,
    job: Optional[str] = None,
) -> ScheduleTable:
    """Duty table produced by the deterministic rotation.

    ``members`` names the pool (default ``p0..pN``); it must supply
    exactly one name per person."""
    matrix = rotation_matrix(spec, days)
    if members is None:
        members = tuple(f"p{i}" for i in range(spec.people))
    else:
        members = tuple(members)
        if len(members) != spec.people:
            raise ConfigurationError("need exactly one name per person")
    picks = tuple(tuple(members[int(p)] for p in row) for row in matrix)
    return ScheduleTable(members, picks, job=job)


# ---------------------------------------------------------------------------
# bridging into the tensor model


def table_to_tensor(table: ScheduleTable, inst: ProblemInstance, job_code: Optional[str] = None) -> AttendanceTensor:
    """Lift a duty table into an attendance tensor on the job's channel:
    a picked member attends every slot of that day."""
    code = job_code if job_code is not None else table.job
    if code is None:
        raise ConfigurationError("table has no job; pass job_code")
    j = inst.job_index(code)
    if table.days != inst.horizon_days:
        raise ConfigurationError(
            f"table spans {table.days} days, instance {inst.horizon_days}"
        )
    index = {m: i for i, m in enumerate(table.members)}
    day = np.zeros((len(table.members), table.days), dtype=np.uint8)
    for d, chosen in enumerate(table.picks):
        for m in chosen:
            day[index[m], d] = 1
    jobs_map = np.full(len(table.members), j, dtype=np.int64)
    return AttendanceTensor.from_day_attendance(day, jobs_map, inst.n_jobs)
