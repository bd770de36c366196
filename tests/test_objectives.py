"""Objective-function tests against hand computations and loop oracles."""

import numpy as np
import pytest

from manpower import (
    AttendanceTensor,
    ConfigurationError,
    Direction,
    EAConfig,
    HeadcountVector,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    employee_jobs,
    evaluate_bundle,
    f2_total_salary,
    full_attendance,
    micro_instance,
    parse_objective_token,
    reference_instance,
    run_ea,
    run_moea,
    tensor_salary,
    total_time_headcount,
    total_work_time,
)
from manpower.constraints import conjunction


class TestSalary:
    def test_day_rate_closed_form(self):
        inst = reference_instance()
        hc = HeadcountVector((1, 2, 1, 2, 1, 2))
        # 7 days x (150 + 2*45 + 60 + 2*56 + 52 + 2*20)
        assert f2_total_salary(hc, inst) == 7 * 504

    def test_day_rate_matches_loop(self):
        rng = np.random.Generator(np.random.PCG64(3))
        inst = reference_instance()
        for _ in range(50):
            counts = tuple(int(rng.integers(0, 5)) for _ in range(inst.n_jobs))
            hc = HeadcountVector(counts)
            expected = 0.0
            for day in range(inst.horizon_days):
                for j, job in enumerate(inst.jobs):
                    expected += counts[j] * sum(job.wage_per_shift)
            assert f2_total_salary(hc, inst) == pytest.approx(expected)

    def test_slot_accrual_charges_attended_slots_only(self):
        inst = micro_instance(multi_shift=True)
        jobs_map = np.array([0, 1])
        slots = np.zeros((2, inst.slots), dtype=np.uint8)
        slots[0, 0] = 1          # operator, day 0, MOR -> 10
        slots[0, 3] = 1          # operator, day 0, MID -> 20
        slots[1, 4 + 2] = 1      # helper, day 1, EVN -> 5
        t = AttendanceTensor.from_slot_attendance(slots, jobs_map, inst.n_jobs)
        assert tensor_salary(t, inst) == 35

    def test_full_attendance_makes_slot_pay_equal_day_pay(self):
        inst = micro_instance(multi_shift=True)
        hc = HeadcountVector((2, 3))
        t = full_attendance(hc, inst)
        assert tensor_salary(t, inst) == f2_total_salary(hc, inst)

    def test_tensor_salary_single_shift_counts_attended_days(self):
        inst = micro_instance()
        jobs_map = np.array([0, 1])
        day = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        t = AttendanceTensor.from_day_attendance(day, jobs_map, inst.n_jobs)
        # operator one day (50) + helper two days (2 x 15)
        assert tensor_salary(t, inst) == 80


def job_hours(t, j, inst):
    """Hours delivered on one job: the working time of the roster of
    that job's employees alone."""
    mine = t.job_of_employee == j
    own = AttendanceTensor.from_slot_attendance(t.slot_attendance()[mine], t.job_of_employee[mine], inst.n_jobs)
    return total_work_time(own, inst)


class TestWorkingTime:
    def test_headcount_form(self):
        inst = reference_instance()
        hc = HeadcountVector((1, 2, 1, 2, 1, 2))
        expected = 7 * (1 * 20 + 2 * 12 + 1 * 20 + 2 * 16 + 1 * 16 + 2 * 8)
        assert total_time_headcount(hc, inst) == expected

    def test_per_job_hours_single_shift(self):
        inst = micro_instance()
        jobs_map = np.array([0, 0, 1])
        day = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
        t = AttendanceTensor.from_day_attendance(day, jobs_map, inst.n_jobs)
        # two operators attend one 20h day each; the helper one 12h day
        assert job_hours(t, 0, inst) == 40
        assert job_hours(t, inst.job_index("b"), inst) == 12

    def test_per_job_hours_zero_tensor(self):
        inst = micro_instance()
        t = AttendanceTensor.zeros(HeadcountVector((2, 1)), inst.horizon_days, inst.n_jobs)
        assert job_hours(t, 0, inst) == 0.0

    def test_per_job_hours_count_slots(self):
        inst = micro_instance(multi_shift=True)
        jobs_map = np.array([0])
        slots = np.zeros((1, inst.slots), dtype=np.uint8)
        slots[0, :4] = [1, 0, 0, 1]  # 4h + 8h
        t = AttendanceTensor.from_slot_attendance(slots, jobs_map, inst.n_jobs)
        assert job_hours(t, 0, inst) == 12

    def test_per_job_hours_sum_to_total(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for multi in (False, True):
            inst = micro_instance(multi_shift=multi)
            hc = HeadcountVector((2, 2))
            jobs_map = employee_jobs(hc)
            if multi:
                grid = rng.integers(0, 2, size=(4, inst.slots), dtype=np.uint8)
                t = AttendanceTensor.from_slot_attendance(grid, jobs_map, inst.n_jobs)
            else:
                grid = rng.integers(0, 2, size=(4, inst.horizon_days), dtype=np.uint8)
                t = AttendanceTensor.from_day_attendance(grid, jobs_map, inst.n_jobs)
            per_job = sum(job_hours(t, j, inst) for j in range(inst.n_jobs))
            assert per_job == pytest.approx(total_work_time(t, inst))

    def test_per_job_hours_match_loop(self):
        rng = np.random.Generator(np.random.PCG64(22))
        inst = micro_instance(multi_shift=True)
        hc = HeadcountVector((2, 1))
        jobs_map = employee_jobs(hc)
        for _ in range(50):
            grid = rng.integers(0, 2, size=(3, inst.slots), dtype=np.uint8)
            t = AttendanceTensor.from_slot_attendance(grid, jobs_map, inst.n_jobs)
            for j, job in enumerate(inst.jobs):
                expected = 0.0
                for emp in range(3):
                    if jobs_map[emp] != j:
                        continue
                    for day in range(inst.horizon_days):
                        for s in range(4):
                            if t.day_slots()[emp, day, s]:
                                expected += job.shift_hours[s]
                assert job_hours(t, j, inst) == pytest.approx(expected)


class TestDirectionsAndBundles:
    def test_signed_value_flips_maximization(self):
        inst = micro_instance()
        hc = HeadcountVector((2, 1))
        mx = Objective(ObjectiveKind.HEADCOUNT_SUBSET, Direction.MAXIMIZE, job_indices=(0,))
        assert evaluate_bundle(ObjectiveBundle((mx,)), hc, None, inst) == (-2.0,)
        mn = Objective(ObjectiveKind.HEADCOUNT_SUBSET, Direction.MINIMIZE, job_indices=(0,))
        assert evaluate_bundle(ObjectiveBundle((mn,)), hc, None, inst) == (2.0,)

    def test_evaluate_bundle_rejects_a_roster(self):
        inst = micro_instance()
        hc = HeadcountVector((1, 1))
        with pytest.raises(ConfigurationError, match="tensor_salary"):
            evaluate_bundle(ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY),)), hc,
                            full_attendance(hc, inst), inst)

    def test_bundle_order_preserved(self):
        inst = micro_instance()
        hc = HeadcountVector((1, 1))
        bundle = ObjectiveBundle(
            (
                Objective(ObjectiveKind.TOTAL_SALARY),
                Objective(ObjectiveKind.TOTAL_TIME, Direction.MAXIMIZE),
            )
        )
        salary, time_neg = evaluate_bundle(bundle, hc, None, inst)
        assert salary == f2_total_salary(hc, inst)
        assert time_neg == -total_time_headcount(hc, inst)

    def test_custom_objective_requires_callable(self):
        with pytest.raises(ConfigurationError):
            Objective(ObjectiveKind.CUSTOM)

    def test_empty_bundle_rejected(self):
        with pytest.raises(ConfigurationError):
            ObjectiveBundle(())


class TestNonFiniteObjective:
    """A NaN or infinite objective is a typed error naming the objective,
    not a quietly infeasible result."""

    @staticmethod
    def broken(value, direction=Direction.MINIMIZE):
        return Objective(ObjectiveKind.CUSTOM, direction, func=lambda hc, t, inst: value, label="broken")

    @pytest.mark.parametrize("value,direction", [
        (float("nan"), Direction.MINIMIZE),
        (float("inf"), Direction.MINIMIZE),
        (float("inf"), Direction.MAXIMIZE),
    ])
    def test_evaluate_bundle_names_the_objective(self, value, direction):
        bundle = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY), self.broken(value, direction)))
        with pytest.raises(ConfigurationError, match="'broken'"):
            evaluate_bundle(bundle, HeadcountVector((1, 1)), None, micro_instance())

    def test_run_ea(self):
        cfg = EAConfig(population_size=6, generations=2, seed=0)
        with pytest.raises(ConfigurationError, match="'broken'"):
            run_ea(micro_instance(), ObjectiveBundle((self.broken(float("nan")),)), conjunction("k1"), cfg)

    def test_run_moea(self):
        bundle = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY), self.broken(float("nan"))))
        cfg = EAConfig(population_size=6, generations=2, seed=0)
        with pytest.raises(ConfigurationError, match="'broken'"):
            run_moea(micro_instance(), bundle, conjunction("k1"), cfg)


class TestObjectiveTokens:
    def test_builtin_tokens(self):
        inst = micro_instance()
        assert parse_objective_token("salary", inst).kind is ObjectiveKind.TOTAL_SALARY
        assert parse_objective_token("total_time", inst).kind is ObjectiveKind.TOTAL_TIME
        assert parse_objective_token("salary_ms", inst).kind is ObjectiveKind.MULTISHIFT_SALARY

    def test_headcount_token(self):
        inst = micro_instance()
        obj = parse_objective_token("headcount:a+b", inst)
        assert obj.kind is ObjectiveKind.HEADCOUNT_SUBSET
        assert obj.job_indices == (0, 1)
        assert obj.direction is Direction.MAXIMIZE

    def test_leading_dash_flips(self):
        inst = micro_instance()
        assert parse_objective_token("-total_time", inst).direction is Direction.MAXIMIZE
        assert parse_objective_token("-headcount:a", inst).direction is Direction.MINIMIZE

    def test_unknown_tokens_rejected(self):
        inst = micro_instance()
        with pytest.raises(ConfigurationError):
            parse_objective_token("profit", inst)
        with pytest.raises(ConfigurationError):
            parse_objective_token("headcount:z", inst)
        with pytest.raises(ConfigurationError):
            parse_objective_token("headcount:", inst)
