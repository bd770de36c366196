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
    validate_instance,
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


class TestValidateInstanceFile:
    def test_clean_file(self, tmp_path):
        path = str(tmp_path / "ok.json")
        save_instance(micro_instance(), path)
        assert validate_instance(path) == []

    def test_missing_file(self, tmp_path):
        problems = validate_instance(str(tmp_path / "absent.json"))
        assert len(problems) == 1 and "cannot read" in problems[0]

    def test_bad_json(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert "not valid JSON" in validate_instance(path)[0]

    def test_missing_keys_reported(self, tmp_path):
        path = str(tmp_path / "thin.json")
        with open(path, "w") as fh:
            json.dump({"format_version": 1, "jobs": []}, fh)
        problems = validate_instance(path)
        assert any("horizon_days" in p for p in problems)
        assert any("salary_bounds" in p for p in problems)

    def test_semantic_errors_reported(self, tmp_path):
        d = instance_to_dict(micro_instance())
        d["max_total_staff"] = 1  # below the sum of job minimums
        path = str(tmp_path / "sem.json")
        with open(path, "w") as fh:
            json.dump(d, fh)
        problems = validate_instance(path)
        assert len(problems) == 1 and "invalid instance" in problems[0]


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


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "x.txt")
        atomic_write(path, "hello\n")
        atomic_write(path, "world\n")
        assert open(path).read() == "world\n"
        assert os.listdir(tmp_path) == ["x.txt"]
