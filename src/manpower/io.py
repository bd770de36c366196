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
from typing import Iterable, Sequence

import numpy as np

from .domain import (
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


def instance_from_dict(d: dict) -> ProblemInstance:
    if not isinstance(d, dict):
        raise StructuralError("top level must be a JSON object")
    version = d.get("format_version")
    if version != FORMAT_VERSION:
        raise StructuralError(f"unsupported format_version {version!r}")
    jobs = tuple(
        Job(
            code=j["code"],
            name=j.get("name", j["code"]),
            wage_per_shift=tuple(j["wage_per_shift"]),
            headcount_min=int(j["headcount_min"]),
            headcount_max=int(j["headcount_max"]),
            shift_hours=tuple(j.get("shift_hours", (4, 4, 4, 8))),
        )
        for j in d["jobs"]
    )
    spec = None
    if d.get("emergency") is not None:
        e = d["emergency"]
        spec = EmergencySpec(
            alpha=int(e["alpha"]),
            time_cost=float(e["time_cost"]),
            bonus=float(e["bonus"]),
            punishment=float(e["punishment"]),
            daily_probability=float(e.get("daily_probability", 0.0)),
            jobs=tuple(e["jobs"]) if e.get("jobs") is not None else None,
        )
    return ProblemInstance(
        jobs=jobs,
        horizon_days=int(d["horizon_days"]),
        max_total_staff=int(d["max_total_staff"]),
        work_time_bounds=tuple((float(a), float(b)) for a, b in d["work_time_bounds"]),
        salary_bounds=tuple(d["salary_bounds"]),
        rest_cap=int(d["rest_cap"]),
        emergency=spec,
        multi_shift=bool(d.get("multi_shift", False)),
    )


def save_instance(inst: ProblemInstance, path: str) -> None:
    atomic_write(path, json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n")


def load_instance(path: str) -> ProblemInstance:
    """The instance in a JSON file.  A file that is not a well-formed
    instance raises :class:`StructuralError` naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return instance_from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise StructuralError(f"invalid instance {path}: {what}") from exc


def validate_instance(path: str) -> list[str]:
    """Diagnostics for an instance file; empty list means clean."""
    problems: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"]
    if not isinstance(d, dict):
        return ["top level must be a JSON object"]
    if d.get("format_version") != FORMAT_VERSION:
        problems.append(f"format_version must be {FORMAT_VERSION}, got {d.get('format_version')!r}")
    for key in ("jobs", "horizon_days", "max_total_staff", "work_time_bounds",
                "salary_bounds", "rest_cap"):
        if key not in d:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    try:
        instance_from_dict(d)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"invalid instance: {exc}")
    return problems


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


def read_tensor_csv(path: str, inst: ProblemInstance) -> AttendanceTensor:
    shift_index = {name: i for i, name in enumerate(SHIFT_NAMES)}
    cells: dict[tuple[int, int], int] = {}
    jobs_map: dict[int, int] = {}
    days = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"employee", "day", "shift", "job", "attend"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise StructuralError(f"attendance CSV needs columns {sorted(required)}")
        for row in reader:
            e = int(row["employee"])
            day = int(row["day"])
            shift = row["shift"].strip()
            if shift not in shift_index:
                raise StructuralError(f"unknown shift {shift!r}")
            j = inst.job_index(row["job"].strip())
            if jobs_map.setdefault(e, j) != j:
                raise StructuralError(f"employee {e} appears under two jobs")
            slot = day * SLOTS_PER_DAY + shift_index[shift]
            cells[(e, slot)] = int(row["attend"])
            days = max(days, day + 1)
    if not jobs_map:
        raise StructuralError("attendance CSV has no rows")
    n_emp = max(jobs_map) + 1
    if sorted(jobs_map) != list(range(n_emp)):
        raise StructuralError("employee indices must be contiguous from 0")
    slots = np.zeros((n_emp, days * SLOTS_PER_DAY), dtype=np.uint8)
    for (e, slot), bit in cells.items():
        slots[e, slot] = 1 if bit else 0
    job_of_employee = np.array([jobs_map[e] for e in range(n_emp)], dtype=np.int64)
    return AttendanceTensor.from_slot_attendance(slots, job_of_employee, inst.n_jobs)


# ---------------------------------------------------------------------------
# traces, counts, archives, tables


def trace_to_csv(trace: RunTrace, include_millis: bool = True) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = ["generation", "best", "mean", "evaluations"]
    if include_millis:
        header.append("millis")
    w.writerow(header)
    for p in trace.points:
        row = [p.generation, repr(p.best), repr(p.mean), p.evaluations]
        if include_millis:
            row.append(f"{p.millis:.3f}")
        w.writerow(row)
    return buf.getvalue()


def write_trace_csv(trace: RunTrace, path: str, include_millis: bool = True) -> None:
    atomic_write(path, trace_to_csv(trace, include_millis=include_millis))


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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"day", "slot", "job", "employee"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise StructuralError(f"table CSV needs columns {sorted(required)}")
        for row in reader:
            rows.append((int(row["day"]), int(row["slot"]), row["employee"].strip()))
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
