"""File formats: instance JSON, attendance / trace / table CSV.

All writers go through an atomic temp-file-and-replace so a crashed run
never leaves a half-written artifact behind.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .domain import (
    DEFAULT_SHIFT_HOURS,
    SHIFT_NAMES,
    SLOTS_PER_DAY,
    AttendanceTensor,
    EmergencySpec,
    HeadcountVector,
    Job,
    ProblemInstance,
)
from .errors import StructuralError
from .evolution import RunTrace
from .moea import ArchiveEntry
from .tablegen import ScheduleTable

FORMAT_VERSION = 1


def atomic_write(path: str, text: str) -> None:
    """Write via a sibling temp file and rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# instance JSON


def instance_to_dict(inst: ProblemInstance) -> dict:
    d = {
        "format_version": FORMAT_VERSION,
        "jobs": [
            {
                "code": j.code,
                "name": j.name,
                "wage_per_shift": list(j.wage_per_shift),
                "headcount_min": j.headcount_min,
                "headcount_max": j.headcount_max,
                "shift_hours": list(j.shift_hours),
            }
            for j in inst.jobs
        ],
        "horizon_days": inst.horizon_days,
        "max_total_staff": inst.max_total_staff,
        "work_time_bounds": [list(b) for b in inst.work_time_bounds],
        "salary_bounds": list(inst.salary_bounds),
        "rest_cap": inst.rest_cap,
        "multi_shift": inst.multi_shift,
        "emergency": None,
    }
    if inst.emergency is not None:
        e = inst.emergency
        d["emergency"] = {
            "alpha": e.alpha,
            "time_cost": e.time_cost,
            "bonus": e.bonus,
            "punishment": e.punishment,
            "daily_probability": e.daily_probability,
            "jobs": list(e.jobs) if e.jobs is not None else None,
        }
    return d


_NULL = type(None)
_NUMBER_KINDS = (float, int)  # json.load gives JSON's true and false as bool, which is neither
_NUMBER = frozenset(_NUMBER_KINDS)
_JSON_NAMES = {int: "a JSON integer", _NUMBER_KINDS: "a JSON number", bool: "a JSON boolean",
               str: "a JSON string", list: "a JSON list", dict: "a JSON object", _NULL: "null"}


class _Schema:
    """One kind of object that :func:`instance_to_dict` writes: each key,
    in the order of the domain constructor's arguments, with the types
    json.load may give its value, and the defaults of the keys a file may
    leave out.  No other key may appear."""

    def __init__(self, fields: dict, defaults: dict):
        self.fields, self.defaults = fields, defaults

    def _row(self, obj, where: str) -> tuple:
        """The values of ``obj`` in field order, once it is an object of
        this kind; ``where`` names it, and is empty at the top level."""
        if type(obj) is not dict:
            raise StructuralError(f"{where or 'top level'} must be a JSON object")
        missing = self.fields.keys() - self.defaults.keys() - obj.keys()
        unknown = obj.keys() - self.fields.keys()
        for problem, keys in (("missing", missing), ("unknown", unknown)):
            if keys:
                raise StructuralError(f"{where or 'instance'}: {problem} key(s) {', '.join(map(repr, sorted(keys)))}")
        for key, value in obj.items():
            kinds = self.fields[key]
            if type(value) not in kinds:
                field = f"{where}.{key}" if where else key
                what = _JSON_NAMES.get(kinds) or " or ".join(map(_JSON_NAMES.get, kinds))
                raise StructuralError(f"{field} must be {what}, got {value!r}")
        return tuple(obj[key] if key in obj else self.defaults[key] for key in self.fields)


_INSTANCE = _Schema(
    {"format_version": (int,), "jobs": (list,), "horizon_days": (int,), "max_total_staff": (int,),
     "work_time_bounds": (list,), "salary_bounds": (list,), "rest_cap": (int,),
     "emergency": (dict, _NULL), "multi_shift": (bool,)},
    {"emergency": None, "multi_shift": False},
)
_JOB = _Schema(
    {"code": (str,), "name": (str,), "wage_per_shift": (list,), "headcount_min": (int,),
     "headcount_max": (int,), "shift_hours": (list,)},
    {"name": None, "shift_hours": list(DEFAULT_SHIFT_HOURS)},
)
_JOB_NUMBERS = itemgetter(2, 5)  # wage_per_shift, shift_hours
_EMERGENCY = _Schema(
    {"alpha": (int,), "time_cost": _NUMBER_KINDS, "bonus": _NUMBER_KINDS, "punishment": _NUMBER_KINDS,
     "daily_probability": _NUMBER_KINDS, "jobs": (list, _NULL)},
    {"daily_probability": 0.0, "jobs": None},
)


def _numbers(lists: list, n: int, where) -> None:
    """Check that each of ``lists`` is a list of ``n`` JSON numbers;
    ``where(i)`` names list ``i``."""
    for i, values in enumerate(lists):
        if type(values) is not list or len(values) != n or not _NUMBER.issuperset(map(type, values)):
            raise StructuralError(f"{where(i)} must be a list of {n} JSON numbers, got {values!r}")


def instance_from_dict(d: dict) -> ProblemInstance:
    """The instance in a dict of the form :func:`instance_to_dict` writes.
    Each value must have its field's JSON type: integers are JSON
    integers, ``multi_shift`` is a JSON boolean, and no number is a
    boolean or a string.  Keys the writer never writes are errors too.
    Each of these raises :class:`StructuralError` naming the field."""
    if type(d) is dict and d.get("format_version") != FORMAT_VERSION:
        raise StructuralError(f"unsupported format_version {d.get('format_version')!r}")
    _, jobs, days, staff, work_time, salary, rest, emergency, multi_shift = _INSTANCE._row(d, "")
    jobs = [_JOB._row(job, f"jobs[{i}]") for i, job in enumerate(jobs)]
    _numbers([salary] + work_time, 2, lambda i: f"work_time_bounds[{i - 1}]" if i else "salary_bounds")
    _numbers(list(chain.from_iterable(map(_JOB_NUMBERS, jobs))), SLOTS_PER_DAY,
             lambda i: f"jobs[{i // 2}].{('wage_per_shift', 'shift_hours')[i % 2]}")
    if emergency is not None:
        alpha, *costs, codes = _EMERGENCY._row(emergency, "emergency")
        if codes is not None and not {str}.issuperset(map(type, codes)):
            raise StructuralError(f"emergency.jobs must be a list of JSON strings, got {codes!r}")
        emergency = EmergencySpec(alpha, *map(float, costs), codes)
    return ProblemInstance(
        # a job without a name is named by its code
        [Job(*job) if job[1] is not None else Job(job[0], job[0], *job[2:]) for job in jobs],
        days, staff, work_time, salary, rest, emergency, multi_shift,
    )


def save_instance(inst: ProblemInstance, path: str) -> None:
    atomic_write(path, json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n")


def load_instance(path: str) -> ProblemInstance:
    """The instance in a JSON file.  A file that cannot be read, is not
    JSON, or is not a well-formed instance raises :class:`StructuralError`
    naming the path and the problem."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        d = json.loads(text)
    except ValueError as exc:
        raise StructuralError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return instance_from_dict(d)
    except ValueError as exc:
        raise StructuralError(f"invalid instance {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# attendance CSV


def _csv_field(text: str) -> str:
    """``text`` as a field of a row of several that :func:`csv.writer`
    writes: quoted when it holds a comma, a quote or a line break."""
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def tensor_to_csv(tensor: AttendanceTensor, inst: ProblemInstance) -> str:
    """One row per employee-day-shift on the employee's own channel, as
    :func:`csv.writer` writes them; each job code and shift name is
    quoted once."""
    codes = [_csv_field(job.code) for job in inst.jobs]
    slots = [f"{day},{_csv_field(shift)}," for day in range(tensor.days) for shift in SHIFT_NAMES]
    employees = zip([codes[j] for j in tensor.job_of_employee.tolist()], tensor.slot_attendance().tolist())
    # one string per employee, so only one employee's rows are alive at a time
    return "employee,day,shift,job,attend\n" + "".join([
        "".join([f"{e},{slot}{code},{bit}\n" for slot, bit in zip(slots, bits)])
        for e, (code, bits) in enumerate(employees)])


def write_tensor_csv(tensor: AttendanceTensor, inst: ProblemInstance, path: str) -> None:
    atomic_write(path, tensor_to_csv(tensor, inst))


def _csv_count(reader: csv.DictReader, row: dict, field: str, top: int | None = None) -> int:
    """``row[field]`` as a count (at most ``top``), else a
    :class:`StructuralError` naming the line and the field."""
    text = (row[field] or "").strip()
    if not text.isdecimal() or (top is not None and int(text) > top):
        raise StructuralError(f"line {reader.line_num}: {field} must be "
                              f"{'0 or 1' if top == 1 else 'a count'}, got {row[field]!r}")
    return int(text)


def read_tensor_csv(path: str, inst: ProblemInstance) -> AttendanceTensor:
    shift_index = {name: i for i, name in enumerate(SHIFT_NAMES)}
    job_index = {job.code: j for j, job in enumerate(inst.jobs)}
    cells: dict[tuple[int, int], int] = {}
    jobs_map: dict[int, int] = {}
    days = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"employee", "day", "shift", "job", "attend"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise StructuralError(f"attendance CSV needs columns {sorted(required)}")
        for row in reader:
            e, day = _csv_count(reader, row, "employee"), _csv_count(reader, row, "day")
            shift = (row["shift"] or "").strip()  # a short row leaves the fields past its end None
            if shift not in shift_index:
                raise StructuralError(f"line {reader.line_num}: shift must be a shift name, got {row['shift']!r}")
            j = job_index.get((row["job"] or "").strip())
            if j is None:
                raise StructuralError(f"line {reader.line_num}: job must be a job code, got {row['job']!r}")
            if jobs_map.setdefault(e, j) != j:
                raise StructuralError(f"employee {e} appears under two jobs")
            slot = day * SLOTS_PER_DAY + shift_index[shift]
            cells[(e, slot)] = _csv_count(reader, row, "attend", 1)
            days = max(days, day + 1)
    if not jobs_map:
        raise StructuralError("attendance CSV has no rows")
    n_emp = max(jobs_map) + 1
    if sorted(jobs_map) != list(range(n_emp)):
        raise StructuralError("employee indices must be contiguous from 0")
    slots = np.zeros((n_emp, days * SLOTS_PER_DAY), dtype=np.uint8)
    for (e, slot), bit in cells.items():
        slots[e, slot] = bit
    job_of_employee = np.array([jobs_map[e] for e in range(n_emp)], dtype=np.int64)
    return AttendanceTensor.from_slot_attendance(slots, job_of_employee, inst.n_jobs)


# ---------------------------------------------------------------------------
# traces, counts, archives, tables


def trace_to_csv(trace: RunTrace) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["generation", "best", "mean", "evaluations", "millis"])
    for p in trace.points:
        w.writerow([p.generation, repr(p.best), repr(p.mean), p.evaluations, f"{p.millis:.3f}"])
    return buf.getvalue()


def write_trace_csv(trace: RunTrace, path: str) -> None:
    atomic_write(path, trace_to_csv(trace))


def counts_to_csv(hc: HeadcountVector, inst: ProblemInstance) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["job", "count"])
    for job, n in zip(inst.jobs, hc.counts):
        w.writerow([job.code, n])
    return buf.getvalue()


def write_counts_csv(hc: HeadcountVector, inst: ProblemInstance, path: str) -> None:
    atomic_write(path, counts_to_csv(hc, inst))


def archive_to_csv(entries: Sequence[ArchiveEntry], inst: ProblemInstance, labels: Sequence[str]) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"n_{j.code}" for j in inst.jobs] + list(labels))
    for e in entries:
        w.writerow(list(e.counts.counts) + [repr(v) for v in e.objectives])
    return buf.getvalue()


def write_archive_csv(entries: Sequence[ArchiveEntry], inst: ProblemInstance,
                      labels: Sequence[str], path: str) -> None:
    atomic_write(path, archive_to_csv(entries, inst, labels))


def table_to_csv(table: ScheduleTable) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["day", "slot", "job", "employee"])
    job = table.job or ""
    for day, chosen in enumerate(table.picks):
        for slot, member in enumerate(chosen):
            w.writerow([day, slot, job, member])
    return buf.getvalue()


def write_table_csv(table: ScheduleTable, path: str) -> None:
    atomic_write(path, table_to_csv(table))


def read_table_csv(path: str, members: Iterable[str] | None = None) -> ScheduleTable:
    rows: list[tuple[int, int, str]] = []
    jobs_seen: set[str] = set()
    held: set[tuple[int, str]] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"day", "slot", "job", "employee"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise StructuralError(f"table CSV needs columns {sorted(required)}")
        for row in reader:
            day, slot = _csv_count(reader, row, "day"), _csv_count(reader, row, "slot")
            if row["employee"] is None:  # a short row
                raise StructuralError(f"line {reader.line_num}: employee must be a name, got None")
            member = row["employee"].strip()
            if (day, member) in held:
                raise StructuralError(f"line {reader.line_num}: employee {member!r} twice on day {day}")
            held.add((day, member))
            rows.append((day, slot, member))
            job = (row["job"] or "").strip()
            if job:
                jobs_seen.add(job)
    if not rows:
        raise StructuralError("table CSV has no rows")
    if len(jobs_seen) > 1:
        raise StructuralError(f"table CSV mixes job codes {sorted(jobs_seen)}")
    days = max(r[0] for r in rows) + 1
    picks: list[list[str]] = [[] for _ in range(days)]
    for day, slot, member in sorted(rows):
        if slot != len(picks[day]):
            raise StructuralError(f"day {day}: slots must be contiguous from 0")
        picks[day].append(member)
    roster = tuple(members) if members is not None else tuple(dict.fromkeys(m for _, _, m in sorted(rows)))
    return ScheduleTable(roster, tuple(tuple(p) for p in picks), job=next(iter(jobs_seen), None))
