"""Constraint-predicate tests.

Every atom is exercised three ways: hand-built scenarios with known
outcomes, the dual route (headcount-only evaluation must agree with a
full-attendance tensor), and the cell-by-cell oracle in ``oracle.py``
(the magnitude must equal the oracle's exactly, and the check must pass
exactly when it is zero).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manpower import (
    And,
    Atom,
    AtomicConstraint,
    AttendanceTensor,
    ConfigurationError,
    ConstraintKind,
    EmergencySpec,
    HeadcountVector,
    InfeasibleError,
    Job,
    Not,
    Or,
    ProblemInstance,
    apply_emergency,
    atom,
    boundary_distance,
    collect_atoms,
    conjunction,
    employee_jobs,
    eval_atom,
    eval_expr,
    full_attendance,
    is_conjunction,
    violation_atom,
    violation_expr,
)
from manpower.instances import micro_instance, random_micro_instance, reference_instance
from oracle import violation_atom as oracle_violation

ALL_KINDS = list(ConstraintKind)


def build(inst, day_rows, jobs_map):
    day = np.asarray(day_rows, dtype=np.uint8)
    return AttendanceTensor.from_day_attendance(day, jobs_map, inst.n_jobs)


class TestOccupancy:
    def test_unstaffed_job_fails(self):
        inst = micro_instance()
        hc = HeadcountVector((0, 2))
        assert not eval_atom(atom("k2").constraint, None, hc, inst)
        # violation counts one gap per missing day
        assert violation_atom(atom("k2").constraint, None, hc, inst) == inst.horizon_days

    def test_day_gap_detected_on_tensor(self):
        inst = micro_instance()
        t = build(inst, [[1, 0], [1, 1], [1, 1]], np.array([0, 1, 1]))
        c = atom("k2").constraint
        assert not eval_atom(c, t, None, inst)  # job a absent on day 1
        assert violation_atom(c, t, None, inst) == 1.0

    def test_subset_restriction(self):
        inst = micro_instance()
        t = build(inst, [[1, 0], [1, 1], [1, 1]], np.array([0, 1, 1]))
        only_b = atom("k2", jobs=("b",)).constraint
        assert eval_atom(only_b, t, None, inst)
        assert violation_atom(only_b, t, None, inst) == 0.0


class TestWorkTimeWindow:
    def test_tensor_hours_inside_window(self):
        inst = micro_instance()  # windows (40,200) and (24,150); days=2
        hc = HeadcountVector((2, 1))
        t = full_attendance(hc, inst)  # a: 2*20*2=80, b: 1*12*2=24
        c = atom("k3").constraint
        assert eval_atom(c, t, hc, inst)
        assert violation_atom(c, t, hc, inst) == 0.0

    def test_under_hours_reports_shortfall(self):
        inst = micro_instance()
        hc = HeadcountVector((1, 1))
        # operator rests one of two days: 20h < 40h lower bound
        t = build(inst, [[1, 0], [1, 1]], np.array([0, 1]))
        c = atom("k3").constraint
        assert not eval_atom(c, t, hc, inst)
        assert violation_atom(c, t, hc, inst) == pytest.approx(20.0)


class TestSalaryWindow:
    def test_headcount_route(self):
        inst = micro_instance()  # salary window (100, 900), 2 days
        ok = HeadcountVector((1, 1))  # 2*(50+15) = 130
        c = atom("k4").constraint
        assert eval_atom(c, None, ok, inst)
        low = HeadcountVector((0, 1))  # 2*15 = 30 < 100
        assert not eval_atom(c, None, low, inst)
        assert violation_atom(c, None, low, inst) == pytest.approx(70.0)

    def test_tensor_route_uses_attended_days(self):
        inst = micro_instance()
        hc = HeadcountVector((1, 1))
        t = build(inst, [[1, 1], [1, 0]], np.array([0, 1]))  # 2*50 + 1*15 = 115
        c = atom("k4").constraint
        assert eval_atom(c, t, hc, inst)
        assert violation_atom(c, t, hc, inst) == 0.0


class TestStaffCapAndHeadcountWindow:
    def test_cap(self):
        inst = micro_instance()  # cap 8
        c = atom("k5").constraint
        assert eval_atom(c, None, HeadcountVector((4, 4)), inst)
        assert not eval_atom(c, None, HeadcountVector((4, 6)), inst)
        assert violation_atom(c, None, HeadcountVector((4, 6)), inst) == 2.0

    def test_headcount_window_distances_sum(self):
        inst = micro_instance()  # a in [1,4], b in [1,6]
        c = atom("y2").constraint
        bad = HeadcountVector((0, 8))
        assert not eval_atom(c, None, bad, inst)
        assert violation_atom(c, None, bad, inst) == pytest.approx(1 + 2)

    def test_tensor_counts_override_vector(self):
        inst = micro_instance()
        t = full_attendance(HeadcountVector((4, 6)), inst)
        # the vector says 1,1 but the tensor holds 10 employees
        assert not eval_atom(atom("k5").constraint, t, HeadcountVector((1, 1)), inst)


class TestRestCap:
    def test_run_length_at_cap_passes(self):
        inst = micro_instance()  # rest_cap=1, days=2
        t = build(inst, [[1, 0], [0, 1]], np.array([0, 1]))
        c = atom("k6").constraint
        assert eval_atom(c, t, None, inst)

    def test_long_rest_run_fails(self):
        jobs = (Job("a", "x", (1, 1, 1, 1), 1, 3),)
        inst = ProblemInstance(
            jobs=jobs, horizon_days=5, max_total_staff=3,
            work_time_bounds=((0, 1000),), salary_bounds=(0, 1000), rest_cap=2,
        )
        t = build(inst, [[1, 0, 0, 0, 1]], np.array([0]))
        c = atom("k6").constraint
        assert not eval_atom(c, t, None, inst)  # run of 3 > cap 2
        assert violation_atom(c, t, None, inst) == 1.0

    def test_two_runs_accumulate(self):
        jobs = (Job("a", "x", (1, 1, 1, 1), 1, 3),)
        inst = ProblemInstance(
            jobs=jobs, horizon_days=7, max_total_staff=3,
            work_time_bounds=((0, 1000),), salary_bounds=(0, 1000), rest_cap=1,
        )
        t = build(inst, [[0, 0, 1, 0, 0, 0, 1]], np.array([0]))
        c = atom("k6").constraint
        assert violation_atom(c, t, None, inst) == pytest.approx(1 + 2)

    def test_rest_run_matches_oracle(self):
        jobs = (Job("a", "x", (1, 1, 1, 1), 1, 3),)
        inst = ProblemInstance(
            jobs=jobs, horizon_days=5, max_total_staff=3,
            work_time_bounds=((0, 1000),), salary_bounds=(0, 1000), rest_cap=2,
        )
        t = build(inst, [[1, 0, 0, 0, 1]], np.array([0]))  # one rest run of 3
        c = atom("k6").constraint
        assert violation_atom(c, t, None, inst) == oracle_violation(c, t, None, inst) == 1.0
        assert not eval_atom(c, t, None, inst)
        assert boundary_distance(c, t, None, inst) == 0.0


class TestEmergencyReserve:
    def test_requires_emergency_block(self):
        inst = micro_instance()
        no_spec = ProblemInstance(
            jobs=inst.jobs, horizon_days=inst.horizon_days,
            max_total_staff=inst.max_total_staff,
            work_time_bounds=inst.work_time_bounds,
            salary_bounds=inst.salary_bounds, rest_cap=inst.rest_cap,
        )
        with pytest.raises(ConfigurationError):
            eval_atom(atom("y1").constraint, None, HeadcountVector((1, 1)), no_spec)

    def test_spare_pool_respects_floors(self):
        inst = micro_instance()  # alpha=1, any job, floors max(1, min)=1
        c = atom("y1").constraint
        assert not eval_atom(c, None, HeadcountVector((1, 1)), inst)  # zero spare
        assert eval_atom(c, None, HeadcountVector((2, 1)), inst)
        assert violation_atom(c, None, HeadcountVector((1, 1)), inst) == 1.0

    def test_affected_subset(self):
        inst = reference_instance()  # alpha=3 from jobs d and e
        c = atom("y1").constraint
        ok = HeadcountVector((1, 2, 1, 4, 3, 1))  # spare: d->2, e->2
        assert eval_atom(c, None, ok, inst)
        short = HeadcountVector((6, 9, 8, 3, 2, 9))  # spare: 1+1=2 < 3
        assert not eval_atom(c, None, short, inst)
        assert violation_atom(c, None, short, inst) == 1.0


class TestCooperation:
    def test_pooled_spare_with_count(self):
        inst = micro_instance()
        two = atom("o2", count=2).constraint
        assert not eval_atom(two, None, HeadcountVector((2, 1)), inst)  # spare 1
        assert eval_atom(two, None, HeadcountVector((2, 2)), inst)  # spare 2
        assert violation_atom(two, None, HeadcountVector((2, 1)), inst) == 1.0

    def test_named_subset_only(self):
        inst = micro_instance()
        only_a = atom("o2", jobs=("a",)).constraint
        assert not eval_atom(only_a, None, HeadcountVector((1, 5)), inst)
        assert eval_atom(only_a, None, HeadcountVector((2, 1)), inst)


class TestMultiShiftCoverage:
    def test_requires_multi_shift_mode(self):
        inst = micro_instance(multi_shift=False)
        with pytest.raises(ConfigurationError):
            eval_atom(atom("o1").constraint, None, HeadcountVector((1, 1)), inst)

    def test_idle_employee_days_counted(self):
        inst = micro_instance(multi_shift=True)
        slots = np.zeros((2, inst.slots), dtype=np.uint8)
        slots[0, :] = 1          # employee 0 covers everything
        slots[1, 0] = 1          # employee 1 works one slot of day 0 only
        t = AttendanceTensor.from_slot_attendance(slots, np.array([0, 1]), inst.n_jobs)
        c = atom("o1").constraint
        assert not eval_atom(c, t, None, inst)
        assert violation_atom(c, t, None, inst) == 1.0  # employee 1, day 1


class TestDualRoute:
    """Headcount-only evaluation is defined as evaluation of the
    full-attendance tensor; the two routes must never disagree."""

    def test_all_atoms_many_instances(self):
        rng = np.random.Generator(np.random.PCG64(42))
        for trial in range(60):
            inst = random_micro_instance(
                rng, with_emergency=True, multi_shift=bool(rng.integers(0, 2))
            )
            lows = [b[0] for b in inst.headcount_bounds()]
            highs = [b[1] for b in inst.headcount_bounds()]
            counts = HeadcountVector(
                tuple(int(rng.integers(lo, hi + 1)) for lo, hi in zip(lows, highs))
            )
            t = full_attendance(counts, inst)
            for kind in ALL_KINDS:
                if kind is ConstraintKind.MULTI_SHIFT and not inst.multi_shift:
                    continue
                c = atom(kind).constraint
                for route in (None, t):
                    ref = oracle_violation(c, route, counts, inst)
                    assert violation_atom(c, route, counts, inst) == ref, (
                        f"{kind} differs from the oracle on trial {trial}"
                    )
                    assert eval_atom(c, route, counts, inst) == (ref == 0.0)
                assert violation_atom(c, None, counts, inst) == violation_atom(c, t, counts, inst), (
                    f"{kind} violation differs between routes on trial {trial}"
                )


class TestExpressionAlgebra:
    def test_truth_table(self):
        inst = micro_instance()
        hc_ok = HeadcountVector((2, 2))   # y1 holds (spare 2), k5 holds (4<=8)
        hc_full = HeadcountVector((4, 4))  # k5 holds (8<=8), y1 holds
        hc_over = HeadcountVector((4, 6))  # k5 fails (10>8)
        y1, k5 = atom("y1"), atom("k5")
        assert eval_expr(And(y1, k5), None, hc_ok, inst)
        assert not eval_expr(And(y1, Not(k5)), None, hc_ok, inst)
        assert eval_expr(Or(Not(y1), k5), None, hc_full, inst)
        assert eval_expr(Not(k5), None, hc_over, inst)
        assert eval_expr(Or(k5, k5), None, hc_over, inst) is False

    def test_operator_sugar(self):
        expr = atom("k1") & ~atom("k5") | atom("y2")
        assert isinstance(expr, Or)
        assert isinstance(expr.left, And)
        assert isinstance(expr.left.right, Not)

    def test_violation_aggregation(self):
        inst = micro_instance()
        over = HeadcountVector((4, 6))  # k5 violated by 2, y2 satisfied
        k5, y2 = atom("k5"), atom("y2")
        assert violation_expr(And(k5, k5), None, over, inst) == 4.0  # sums
        assert violation_expr(Or(k5, y2), None, over, inst) == 0.0  # easiest branch
        assert violation_expr(Not(y2), None, over, inst) == 1.0  # indicator
        assert violation_expr(Not(k5), None, over, inst) == 0.0

    def test_eval_matches_violation_on_compositions(self):
        rng = np.random.Generator(np.random.PCG64(9))
        inst = micro_instance()
        exprs = [
            conjunction("k1", "k2", "k3", "k4", "k5", "k6"),
            Or(atom("k5"), Not(atom("y2"))),
            And(Not(Or(atom("k4"), atom("k5"))), atom("y2")),
            Not(Not(atom("k5"))),
        ]
        for _ in range(200):
            hc = HeadcountVector(tuple(int(x) for x in rng.integers(0, 7, size=2)))
            for e in exprs:
                assert (violation_expr(e, None, hc, inst) == 0.0) == eval_expr(e, None, hc, inst)

    def test_collect_and_shape_helpers(self):
        e = And(atom("k1"), Or(atom("k2"), Not(atom("k3"))))
        kinds = [c.kind.value for c in collect_atoms(e)]
        assert kinds == ["k1", "k2", "k3"]
        assert not is_conjunction(e)
        assert is_conjunction(conjunction("k1", "k2", "k3"))


class TestPairedOracle:
    """The graded violation equals the cell-by-cell oracle, and the check
    passes exactly when it is zero."""

    def test_random_tensors(self):
        rng = np.random.Generator(np.random.PCG64(123))
        for _ in range(300):
            multi = bool(rng.integers(0, 2))
            inst = random_micro_instance(rng, with_emergency=True, multi_shift=multi)
            lows = [b[0] for b in inst.headcount_bounds()]
            highs = [b[1] for b in inst.headcount_bounds()]
            counts = HeadcountVector(
                tuple(int(rng.integers(lo, hi + 1)) for lo, hi in zip(lows, highs))
            )
            jobs_map = employee_jobs(counts)
            if multi:
                grid = rng.integers(0, 2, size=(len(jobs_map), inst.slots), dtype=np.uint8)
                t = AttendanceTensor.from_slot_attendance(grid, jobs_map, inst.n_jobs)
            else:
                grid = rng.integers(0, 2, size=(len(jobs_map), inst.horizon_days), dtype=np.uint8)
                t = AttendanceTensor.from_day_attendance(grid, jobs_map, inst.n_jobs)
            for kind in ALL_KINDS:
                if kind is ConstraintKind.MULTI_SHIFT and not multi:
                    continue
                c = atom(kind).constraint
                ref = oracle_violation(c, t, counts, inst)
                v = violation_atom(c, t, counts, inst)
                assert v == ref, f"{kind}: violation {v} vs oracle {ref}"
                assert eval_atom(c, t, counts, inst) == (ref == 0.0)
                assert v >= 0.0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_cases(self, data):
        """Random micro instances, staffings (inside and just outside the
        box), rosters and job subsets, on both routes."""
        seed = data.draw(st.integers(0, 2**32 - 1), label="instance seed")
        multi = data.draw(st.booleans(), label="multi_shift")
        inst = random_micro_instance(
            np.random.Generator(np.random.PCG64(seed)), with_emergency=True, multi_shift=multi
        )
        # a zero headcount floor still keeps one employee per job in reserve (y1, o2)
        no_floor = data.draw(st.lists(st.booleans(), min_size=inst.n_jobs, max_size=inst.n_jobs),
                             label="zero headcount_min")
        inst = replace(inst, jobs=tuple(replace(job, headcount_min=0) if zero else job
                                        for job, zero in zip(inst.jobs, no_floor)))
        counts = HeadcountVector(tuple(
            data.draw(st.integers(0, job.headcount_max + 1), label=f"count {job.code}")
            for job in inst.jobs
        ))
        jobs_map = employee_jobs(counts)
        width = inst.slots if multi else inst.horizon_days
        bits = data.draw(st.lists(st.integers(0, 1), min_size=len(jobs_map) * width,
                                  max_size=len(jobs_map) * width), label="roster")
        grid = np.array(bits, dtype=np.uint8).reshape(len(jobs_map), width)
        build_tensor = (AttendanceTensor.from_slot_attendance if multi
                        else AttendanceTensor.from_day_attendance)
        tensor = build_tensor(grid, jobs_map, inst.n_jobs)
        codes = [job.code for job in inst.jobs]
        subset = data.draw(st.none() | st.lists(st.sampled_from(codes), unique=True), label="jobs")
        need = data.draw(st.integers(1, 3), label="o2 count")
        for kind in ALL_KINDS:
            if kind is ConstraintKind.MULTI_SHIFT and not multi:
                continue
            c = AtomicConstraint(kind, subset, need)
            for route in (None, tensor):
                ref = oracle_violation(c, route, counts, inst)
                assert violation_atom(c, route, counts, inst) == ref, (kind, route is None)
                assert eval_atom(c, route, counts, inst) == (ref == 0.0)
                if ref > 0.0:
                    assert boundary_distance(c, route, counts, inst) == 0.0


class TestEmergencyArithmetic:
    def test_largest_job_supplies_first(self):
        inst = reference_instance()
        hc = HeadcountVector((1, 2, 1, 5, 3, 1))
        spec = inst.emergency  # alpha=3 from d and e
        adjusted, t2, c2 = apply_emergency(hc, 1000.0, 5000.0, spec, inst)
        # d supplies while largest (5->4->3); the 3-3 tie also goes to d
        assert adjusted.counts == (1, 2, 1, 2, 3, 1)
        assert t2 == 1000.0 - 50.0
        assert c2 == 5000.0 - 200.0 + 80.0

    def test_tie_goes_to_earlier_job(self):
        inst = micro_instance()
        spec = EmergencySpec(alpha=2, time_cost=1.0, bonus=2.0, punishment=3.0)
        adjusted, _, _ = apply_emergency(HeadcountVector((3, 3)), 10.0, 10.0, spec, inst)
        assert adjusted.counts == (2, 2)

    def test_insufficient_pool_raises(self):
        inst = reference_instance()
        spec = inst.emergency
        with pytest.raises(InfeasibleError):
            apply_emergency(HeadcountVector((6, 9, 8, 1, 1, 9)), 10.0, 10.0, spec, inst)


class TestBoundaryDistance:
    def test_window_distances(self):
        inst = micro_instance()
        hc = HeadcountVector((2, 2))
        # salary 2*(2*50 + 2*15) = 260 inside (100, 900): distance 160
        assert boundary_distance(atom("k4").constraint, None, hc, inst) == pytest.approx(160.0)
        # staffing 4 of 8: distance 4
        assert boundary_distance(atom("k5").constraint, None, hc, inst) == 4.0
        # y2: a has min(2-1, 4-2)=1, b has min(1, 4)=1
        assert boundary_distance(atom("y2").constraint, None, hc, inst) == 1.0

    def test_boundary_is_zero(self):
        inst = micro_instance()
        full = HeadcountVector((4, 4))
        assert boundary_distance(atom("k5").constraint, None, full, inst) == 0.0

    def test_structural_atoms_report_inf_or_zero(self):
        inst = micro_instance()
        assert boundary_distance(atom("k1").constraint, None, HeadcountVector((1, 1)), inst) == float("inf")
        assert boundary_distance(atom("k2").constraint, None, HeadcountVector((0, 1)), inst) == 0.0
