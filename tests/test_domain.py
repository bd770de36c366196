"""Data-model tests: tensor structure, channel round-trips, and the
working-time accounting, each checked against plain-loop oracles."""

import dataclasses
import math

import numpy as np
import pytest

from manpower import (
    AttendanceTensor,
    ConfigurationError,
    EmergencySpec,
    HeadcountVector,
    Job,
    ProblemInstance,
    SLOTS_PER_DAY,
    StructuralError,
    employee_jobs,
    full_attendance,
    total_work_time,
)


def two_job_instance(days=3, multi_shift=False):
    jobs = (
        Job("a", "alpha", (10, 10, 10, 20), 1, 4, shift_hours=(4, 4, 4, 8)),
        Job("b", "beta", (5, 5, 5, 0), 1, 5, shift_hours=(4, 4, 4, 0)),
    )
    return ProblemInstance(
        jobs=jobs,
        horizon_days=days,
        max_total_staff=9,
        work_time_bounds=((0, 10_000), (0, 10_000)),
        salary_bounds=(0, 100_000),
        rest_cap=2,
        multi_shift=multi_shift,
    )


def random_tensor(rng, inst, counts):
    jobs_map = employee_jobs(counts)
    if inst.multi_shift:
        grid = rng.integers(0, 2, size=(len(jobs_map), inst.slots), dtype=np.uint8)
        return AttendanceTensor.from_slot_attendance(grid, jobs_map, inst.n_jobs)
    grid = rng.integers(0, 2, size=(len(jobs_map), inst.horizon_days), dtype=np.uint8)
    return AttendanceTensor.from_day_attendance(grid, jobs_map, inst.n_jobs)


class TestJobAndInstance:
    def test_job_validation(self):
        with pytest.raises(ValueError):
            Job("a", "x", (1, 1, 1), 1, 2)  # three wages, not four
        with pytest.raises(ValueError):
            Job("a", "x", (1, 1, 1, 1), 3, 2)  # min above max
        with pytest.raises(ValueError):
            Job("a", "x", (1, 1, 1, 1), 0, 2, shift_hours=(0, 0, 0, 0))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: Job("a", "x", (1, 1, math.nan, 1), 1, 2), id="wage-nan"),
        pytest.param(lambda: Job("a", "x", (1, 1, 1, math.inf), 1, 2), id="wage-inf"),
        pytest.param(lambda: Job("a", "x", (1, 1, 1, 1), 1, 2, shift_hours=(4, math.nan, 4, 8)), id="hours-nan"),
        pytest.param(lambda: Job("a", "x", (1, 1, 1, 1), math.nan, 2), id="headcount-nan"),
        pytest.param(lambda: EmergencySpec(1, math.nan, 0.0, 0.0), id="time-cost-nan"),
        pytest.param(lambda: EmergencySpec(1, 0.0, math.inf, 0.0), id="bonus-inf"),
        pytest.param(lambda: EmergencySpec(1, 0.0, 0.0, math.nan), id="punishment-nan"),
        pytest.param(lambda: dataclasses.replace(
            two_job_instance(), work_time_bounds=((math.nan, 500), (0, 10_000))), id="work-time-nan"),
        pytest.param(lambda: dataclasses.replace(
            two_job_instance(), work_time_bounds=((600, 100), (0, 10_000))), id="work-time-inverted"),
        pytest.param(lambda: dataclasses.replace(two_job_instance(), salary_bounds=(3500, math.nan)),
                     id="salary-nan"),
        pytest.param(lambda: dataclasses.replace(two_job_instance(), horizon_days=math.nan), id="horizon-nan"),
        pytest.param(lambda: dataclasses.replace(two_job_instance(), rest_cap=math.nan), id="rest-cap-nan"),
    ])
    def test_nan_and_bad_values_are_configuration_errors(self, make):
        with pytest.raises(ConfigurationError):
            make()

    def test_infinite_bounds_allowed(self):
        inst = dataclasses.replace(two_job_instance(), work_time_bounds=((-math.inf, math.inf), (0, math.inf)),
                                   salary_bounds=(0, math.inf))
        assert inst.salary_bounds == (0.0, math.inf)

    def test_daily_totals(self):
        j = Job("a", "x", (2, 3, 4, 5), 1, 2, shift_hours=(1, 2, 3, 4))
        assert j.daily_wage == 14
        assert j.daily_hours == 10

    def test_instance_validation(self):
        with pytest.raises(ValueError, match="minimums exceeds"):
            ProblemInstance(
                jobs=(Job("a", "x", (1, 1, 1, 1), 5, 6),),
                horizon_days=2,
                max_total_staff=4,
                work_time_bounds=((0, 10),),
                salary_bounds=(0, 10),
                rest_cap=1,
            )
        with pytest.raises(ValueError, match="duplicate"):
            ProblemInstance(
                jobs=(Job("a", "x", (1, 1, 1, 1), 1, 2), Job("a", "y", (1, 1, 1, 1), 1, 2)),
                horizon_days=2,
                max_total_staff=6,
                work_time_bounds=((0, 10), (0, 10)),
                salary_bounds=(0, 10),
                rest_cap=1,
            )
        with pytest.raises(ValueError, match="unknown job"):
            ProblemInstance(
                jobs=(Job("a", "x", (1, 1, 1, 1), 1, 2),),
                horizon_days=2,
                max_total_staff=6,
                work_time_bounds=((0, 10),),
                salary_bounds=(0, 10),
                rest_cap=1,
                emergency=EmergencySpec(alpha=1, time_cost=1, bonus=0, punishment=0, jobs=("z",)),
            )

    def test_job_index(self):
        inst = two_job_instance()
        assert inst.job_index("b") == 1
        with pytest.raises(KeyError):
            inst.job_index("zz")


class TestTensorStructure:
    def test_rejects_off_channel_attendance(self):
        entries = np.zeros((1, SLOTS_PER_DAY, 2), dtype=np.uint8)
        entries[0, 0, 1] = 1  # employee 0 belongs to job 0
        with pytest.raises(StructuralError, match="own job channel"):
            AttendanceTensor(entries, np.array([0]))

    def test_rejects_non_binary(self):
        entries = np.full((1, SLOTS_PER_DAY, 1), 2, dtype=np.uint8)
        with pytest.raises(StructuralError, match="binary"):
            AttendanceTensor(entries, np.array([0]))

    def test_rejects_ragged_slot_axis(self):
        with pytest.raises(StructuralError, match="multiple"):
            AttendanceTensor(np.zeros((1, 5, 1), dtype=np.uint8), np.array([0]))

    def test_entries_read_only(self):
        t = AttendanceTensor.zeros(HeadcountVector((1, 1)), days=2, n_jobs=2)
        with pytest.raises(ValueError):
            t.entries[0, 0, 0] = 1

    def test_day_attendance_and_rest(self):
        inst = two_job_instance(days=4)
        day = np.array([[1, 0, 0, 1], [1, 1, 1, 1]], dtype=np.uint8)
        t = AttendanceTensor.from_day_attendance(day, [0, 1], inst.n_jobs)
        assert np.array_equal(t.day_attendance(), day)
        assert t.is_single_shift_consistent()
        assert t.headcounts().counts == (1, 1)

    def test_single_shift_consistency_detects_partial_days(self):
        slots = np.zeros((1, 8), dtype=np.uint8)
        slots[0, 0] = 1  # one slot of day 0 only
        t = AttendanceTensor.from_slot_attendance(slots, [0], 1)
        assert not t.is_single_shift_consistent()
        inst = two_job_instance(days=2)
        with pytest.raises(StructuralError, match="single-shift"):
            # build a 2-job-wide tensor in multi-shift style, validate single-shift
            wide = np.zeros((1, 8), dtype=np.uint8)
            wide[0, 1] = 1
            AttendanceTensor.from_slot_attendance(wide, [0], 2).validate(inst)

    def test_employee_jobs_layout(self):
        assert list(employee_jobs((2, 0, 3))) == [0, 0, 2, 2, 2]


class TestWorkTime:
    def test_loop_oracle(self):
        # oracle: iterate every (employee, slot) cell and add that slot's
        # duration for the employee's job
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            multi = bool(rng.integers(0, 2))
            inst = two_job_instance(days=int(rng.integers(1, 4)), multi_shift=multi)
            counts = HeadcountVector((int(rng.integers(1, 4)), int(rng.integers(1, 4))))
            t = random_tensor(rng, inst, counts)
            expected = 0.0
            bits = t.slot_attendance()
            for e in range(t.n_employees):
                job = inst.jobs[int(t.job_of_employee[e])]
                for s in range(inst.slots):
                    if bits[e, s]:
                        expected += job.shift_hours[s % SLOTS_PER_DAY]
            assert total_work_time(t, inst) == pytest.approx(expected)

    def test_full_attendance_closed_form(self):
        inst = two_job_instance(days=5)
        counts = HeadcountVector((2, 3))
        t = full_attendance(counts, inst)
        expected = 5 * (2 * 20 + 3 * 12)
        assert total_work_time(t, inst) == expected
