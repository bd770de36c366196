"""File-format round-trips and validation diagnostics."""

import csv
import dataclasses
import io
import json
import os

import numpy as np
import pytest

from manpower import (
    AttendanceTensor,
    HeadcountVector,
    StructuralError,
    employee_jobs,
    full_attendance,
    generate_table,
    load_instance,
    read_table_csv,
    read_tensor_csv,
    save_instance,
    write_table_csv,
    write_tensor_csv,
)
from manpower.instances import micro_instance, random_micro_instance, reference_instance
from manpower.domain import SHIFT_NAMES
from manpower.io import atomic_write, instance_from_dict, instance_to_dict, tensor_to_csv


def csv_writer_form(tensor, inst) -> str:
    """The attendance CSV written row by row through ``csv.writer``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["employee", "day", "shift", "job", "attend"])
    codes = [inst.jobs[j].code for j in tensor.job_of_employee.tolist()]
    w.writerows(
        (e, day, shift, code, bit)
        for e, (code, days) in enumerate(zip(codes, tensor.day_slots().tolist()))
        for day, slots in enumerate(days)
        for shift, bit in zip(SHIFT_NAMES, slots)
    )
    return buf.getvalue()


class TestInstanceJSON:
    def test_round_trip_reference(self, tmp_path):
        inst = reference_instance()
        path = str(tmp_path / "ref.json")
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_round_trip_random(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(2))
        for i in range(20):
            inst = random_micro_instance(rng, with_emergency=bool(i % 2),
                                         multi_shift=bool(i % 3 == 0))
            path = str(tmp_path / f"i{i}.json")
            save_instance(inst, path)
            assert load_instance(path) == inst

    def test_dict_form_is_json_safe(self):
        d = instance_to_dict(reference_instance())
        assert instance_from_dict(json.loads(json.dumps(d))) == reference_instance()

    def test_unknown_version_rejected(self):
        d = instance_to_dict(micro_instance())
        d["format_version"] = 99
        with pytest.raises(StructuralError):
            instance_from_dict(d)


def _leaves(value, path=()):
    """Each scalar in a JSON value, with the keys and indices leading to it."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _leaves_at(value, path):
    """The part of a JSON value that ``path`` leads to."""
    for key in path:
        value = value[key]
    return value


def _wrong_types(value):
    """JSON values of a type the field holding ``value`` must not take."""
    if isinstance(value, bool):
        return [0, "no", None]
    if isinstance(value, str):
        return [1, True, None]
    if isinstance(value, int):
        return [1.5, True, "1", None]
    return [True, "1.0", None, [1.0]]


_WEEK = instance_to_dict(reference_instance())
# every scalar of the reference week, by the name of the field that holds it
_FIELDS: dict[str, list] = {}
for _path, _value in _leaves(_WEEK):
    if _value is not None:
        _FIELDS.setdefault(next(k for k in reversed(_path) if isinstance(k, str)), []).append(_path)


class TestInstanceFields:
    @pytest.mark.parametrize(
        "inst",
        [reference_instance(), micro_instance(), micro_instance(multi_shift=True)]
        + [random_micro_instance(np.random.Generator(np.random.PCG64(seed)), with_emergency=bool(seed % 2),
                                 multi_shift=bool(seed % 3 == 0)) for seed in range(6)],
        ids=["reference", "micro", "micro_multi_shift"] + [f"random{seed}" for seed in range(6)],
    )
    def test_save_load_identity(self, inst, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_instance(inst, str(first))
        assert load_instance(str(first)) == inst
        save_instance(load_instance(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("field", sorted(_FIELDS))
    def test_each_field_is_type_checked(self, field):
        """Every scalar of the field, given each wrong JSON type in turn,
        is rejected with an error that names the field."""
        for path in _FIELDS[field]:
            for bad in _wrong_types(_leaves_at(_WEEK, path)):
                d = json.loads(json.dumps(_WEEK))
                _leaves_at(d, path[:-1])[path[-1]] = bad
                with pytest.raises(StructuralError, match=field):
                    instance_from_dict(d)

    @pytest.mark.parametrize("where", [(), ("jobs", 2), ("emergency",)], ids=["top", "job", "emergency"])
    def test_unknown_key_rejected(self, where):
        d = json.loads(json.dumps(_WEEK))
        _leaves_at(d, where)["colour"] = "red"
        with pytest.raises(StructuralError, match="unknown key.*colour"):
            instance_from_dict(d)

    def test_optional_keys_may_be_left_out(self):
        d = instance_to_dict(micro_instance())
        for job in d["jobs"]:
            del job["name"], job["shift_hours"]
        del d["multi_shift"], d["emergency"]
        inst = instance_from_dict(d)
        assert [j.name for j in inst.jobs] == [j.code for j in inst.jobs]
        assert inst.emergency is None and not inst.multi_shift


class TestValidateInstanceFile:
    """:func:`load_instance` is the one judge of an instance file."""

    def test_clean_file(self, tmp_path):
        path = str(tmp_path / "ok.json")
        save_instance(micro_instance(), path)
        assert load_instance(path) == micro_instance()

    def test_missing_file(self, tmp_path):
        with pytest.raises(StructuralError, match="cannot read"):
            load_instance(str(tmp_path / "absent.json"))
        with pytest.raises(StructuralError, match="cannot read"):
            load_instance(str(tmp_path))

    def test_bad_json(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(StructuralError, match="not valid JSON"):
            load_instance(path)

    def test_missing_keys_reported(self, tmp_path):
        path = str(tmp_path / "thin.json")
        with open(path, "w") as fh:
            json.dump({"format_version": 1, "jobs": []}, fh)
        with pytest.raises(StructuralError) as exc:
            load_instance(path)
        assert "horizon_days" in str(exc.value) and "salary_bounds" in str(exc.value)

    def test_semantic_errors_reported(self, tmp_path):
        d = instance_to_dict(micro_instance())
        d["max_total_staff"] = 1  # below the sum of job minimums
        path = str(tmp_path / "sem.json")
        with open(path, "w") as fh:
            json.dump(d, fh)
        with pytest.raises(StructuralError, match="invalid instance"):
            load_instance(path)


class TestTensorCSV:
    def test_round_trip_random(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(14))
        inst = micro_instance(multi_shift=True)
        for i in range(10):
            counts = HeadcountVector((int(rng.integers(1, 3)), int(rng.integers(1, 3))))
            jobs_map = employee_jobs(counts)
            grid = rng.integers(0, 2, size=(len(jobs_map), inst.slots), dtype=np.uint8)
            t = AttendanceTensor.from_slot_attendance(grid, jobs_map, inst.n_jobs)
            path = str(tmp_path / f"t{i}.csv")
            write_tensor_csv(t, inst, path)
            assert read_tensor_csv(path, inst) == t

    def test_header_and_shape(self, tmp_path):
        inst = micro_instance()
        t = full_attendance(HeadcountVector((1, 1)), inst)
        path = str(tmp_path / "full.csv")
        write_tensor_csv(t, inst, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "employee,day,shift,job,attend"
        # 2 employees x 2 days x 4 shifts
        assert len(lines) == 1 + 16
        assert lines[1] == "0,0,MOR,a,1"

    @pytest.mark.parametrize("codes", [None, ("a,b", 'say "hi"'), ('"', "x y,"), ("plain", "line\nbreak")])
    def test_bytes_are_the_csv_writers(self, codes, tmp_path):
        # job codes holding a comma, a quote or a line break are quoted
        week = reference_instance()
        inst = micro_instance(multi_shift=True)
        if codes is not None:
            inst = dataclasses.replace(inst, jobs=tuple(
                dataclasses.replace(job, code=code) for job, code in zip(inst.jobs, codes)))
        rng = np.random.Generator(np.random.PCG64(5))
        for counts, case in [((2, 3), inst), ((1, 0), inst), ((0, 0), inst), ((5, 10, 6, 9, 6, 4), week)]:
            jobs_map = employee_jobs(HeadcountVector(counts))
            grid = rng.integers(0, 2, size=(len(jobs_map), case.slots), dtype=np.uint8)
            t = AttendanceTensor.from_slot_attendance(grid, jobs_map, case.n_jobs)
            assert tensor_to_csv(t, case) == csv_writer_form(t, case)
            if len(jobs_map):
                path = str(tmp_path / "t.csv")
                write_tensor_csv(t, case, path)
                assert read_tensor_csv(path, case) == t

    def test_conflicting_jobs_rejected(self, tmp_path):
        inst = micro_instance()
        path = str(tmp_path / "conflict.csv")
        atomic_write(path, "employee,day,shift,job,attend\n0,0,MOR,a,1\n0,0,AFT,b,1\n")
        with pytest.raises(StructuralError, match="two jobs"):
            read_tensor_csv(path, inst)


    @pytest.mark.parametrize("row,field", [
        ("0,0,MOR,a,7", "attend"),      # loaded as attended before
        ("0,0,MOR,a,-1", "attend"),
        ("0,0,MOR,a,yes", "attend"),
        ("0,-1,MID,a,1", "day"),        # wrote the last slot of the last day before
        ("-1,0,MOR,a,1", "employee"),
        ("0,x,MOR,a,1", "day"),
        ("0,0,MOR,zz,1", "job"),        # KeyError before
        ("0,0", "shift"),               # AttributeError before: a short row's missing fields are None
        ("0,0,MOR", "job"),
        ("0,0,NOON,a,1", "shift"),
    ])
    def test_bad_fields_name_the_line_and_field(self, row, field, tmp_path):
        path = str(tmp_path / "bad.csv")
        atomic_write(path, f"employee,day,shift,job,attend\n0,0,AFT,a,1\n{row}\n")
        with pytest.raises(StructuralError, match=f"line 3: {field} must be"):
            read_tensor_csv(path, micro_instance())


class TestTableCSV:
    def test_round_trip(self, tmp_path):
        table = generate_table(("ann", "bob", "cid"), days=4, per_day=2, seed=3)
        path = str(tmp_path / "table.csv")
        write_table_csv(table, path)
        back = read_table_csv(path, members=table.members)
        assert back.picks == table.picks

    def test_header_and_job_column(self, tmp_path):
        table = generate_table(("x", "y"), days=2, per_day=1, seed=0, job="b")
        path = str(tmp_path / "t.csv")
        write_table_csv(table, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "day,slot,job,employee"
        assert all(line.split(",")[2] == "b" for line in lines[1:])
        back = read_table_csv(path)
        assert back.job == "b"
        assert back.picks == table.picks

    def test_membership_inferred_when_missing(self, tmp_path):
        table = generate_table(("x", "y", "z"), days=6, per_day=2, seed=1)
        path = str(tmp_path / "t.csv")
        write_table_csv(table, path)
        back = read_table_csv(path)
        assert back.picks == table.picks
        assert set(back.members) <= set(table.members)

    def test_mixed_job_codes_rejected(self, tmp_path):
        path = str(tmp_path / "mixed.csv")
        atomic_write(path, "day,slot,job,employee\n0,0,a,x\n1,0,b,x\n")
        with pytest.raises(StructuralError, match="mixes job codes"):
            read_table_csv(path)


    @pytest.mark.parametrize("rows,message", [
        ("0,0,,ann\n-1,0,,bob\n", "line 3: day must be"),
        ("0,0,,ann\n0,-1,,bob\n", "line 3: slot must be"),
        ("0,0,,ann\n0,1,,ann\n", "line 3: employee 'ann' twice on day 0"),   # loaded as ('ann', 'ann') before
        ("0,0,,ann\n1,0,,bob\n1,1,,bob\n", "line 4: employee 'bob' twice on day 1"),
        ("0,0,,ann\n0,1\n", "line 3: employee must be"),   # AttributeError before
    ])
    def test_bad_rows_name_the_line(self, rows, message, tmp_path):
        path = str(tmp_path / "bad.csv")
        atomic_write(path, "day,slot,job,employee\n" + rows)
        with pytest.raises(StructuralError, match=message):
            read_table_csv(path)

    def test_a_member_may_return_on_another_day(self, tmp_path):
        path = str(tmp_path / "t.csv")
        atomic_write(path, "day,slot,job,employee\n0,0,,ann\n0,1,,bob\n1,0,,ann\n")
        assert read_table_csv(path).picks == (("ann", "bob"), ("ann",))


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "x.txt")
        atomic_write(path, "hello\n")
        atomic_write(path, "world\n")
        assert open(path).read() == "world\n"
        assert os.listdir(tmp_path) == ["x.txt"]
