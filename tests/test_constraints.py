"""Constraint-predicate tests.

Every atom is exercised three ways: hand-built scenarios with known
outcomes, the dual route (headcount-only evaluation must agree with a
full-attendance tensor), and the cell-by-cell oracle in ``oracle.py``
(the magnitude must equal the oracle's exactly, and the check must pass
exactly when it is zero).
"""

import functools
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
    format_expr,
    full_attendance,
    is_conjunction,
    parse_constraint_string,
    violation_atom,
    violation_expr,
)
from manpower.constraints import _kernel, roster_kernel
from manpower.domain import SLOTS_PER_DAY
from manpower.instances import micro_instance, random_micro_instance, reference_instance
import oracle
from oracle import violation_atom as oracle_violation
from test_golden import fractional_week

ALL_KINDS = list(ConstraintKind)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


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
        box), one to four rosters of that staff and job subsets, on both
        routes.  The rosters are also scored stacked, by the roster
        kernel, and each row must equal its roster scored alone."""
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
        build_tensor = (AttendanceTensor.from_slot_attendance if multi
                        else AttendanceTensor.from_day_attendance)
        tensors = []
        for r in range(data.draw(st.integers(1, 4), label="rosters")):
            bits = data.draw(st.lists(st.integers(0, 1), min_size=len(jobs_map) * width,
                                      max_size=len(jobs_map) * width), label=f"roster {r}")
            grid = np.array(bits, dtype=np.uint8).reshape(len(jobs_map), width)
            tensors.append(build_tensor(grid, jobs_map, inst.n_jobs))
        stack = np.stack([t.day_slots() for t in tensors])
        codes = [job.code for job in inst.jobs]
        subset = data.draw(st.none() | st.lists(st.sampled_from(codes), unique=True), label="jobs")
        need = data.draw(st.integers(1, 3), label="o2 count")
        for kind in ALL_KINDS:
            if kind is ConstraintKind.MULTI_SHIFT and not multi:
                continue
            c = AtomicConstraint(kind, subset, need)
            violations, (slacks,) = roster_kernel(Atom(c), inst, jobs_map)(stack)
            for r, route in [(None, None)] + list(enumerate(tensors)):
                ref = oracle_violation(c, route, counts, inst)
                v, slack = violation_atom(c, route, counts, inst), boundary_distance(c, route, counts, inst)
                assert v == ref, (kind, r)
                assert eval_atom(c, route, counts, inst) == (ref == 0.0)
                if ref > 0.0:
                    assert slack == 0.0, (kind, r)
                if route is not None:
                    # the stacked row is the roster scored alone, bit for bit
                    assert float.hex(violations[r]) == float.hex(v), (kind, r)
                    assert float.hex(slacks[r]) == float.hex(slack), (kind, r)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_compositions(self, data):
        """Random AND/OR/NOT trees over unparameterized atoms survive the
        string round-trip, and their violation is zero exactly when the
        composition of the oracle's atom verdicts holds, on both routes."""
        seed = data.draw(st.integers(0, 2**32 - 1), label="instance seed")
        multi = data.draw(st.booleans(), label="multi_shift")
        inst = random_micro_instance(
            np.random.Generator(np.random.PCG64(seed)), with_emergency=True, multi_shift=multi
        )
        kinds = [k for k in ALL_KINDS if multi or k is not ConstraintKind.MULTI_SHIFT]
        trees = st.recursive(
            st.sampled_from(kinds).map(atom),
            lambda sub: st.one_of(
                st.tuples(sub, sub).map(lambda lr: And(*lr)),
                st.tuples(sub, sub).map(lambda lr: Or(*lr)),
                sub.map(Not),
            ),
            max_leaves=8,
        )
        tree = data.draw(trees, label="expression")
        assert parse_constraint_string(format_expr(tree)) == tree

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

        def holds(node, route) -> bool:
            if isinstance(node, Atom):
                return oracle_violation(node.constraint, route, counts, inst) == 0.0
            if isinstance(node, And):
                return holds(node.left, route) and holds(node.right, route)
            if isinstance(node, Or):
                return holds(node.left, route) or holds(node.right, route)
            return not holds(node.operand, route)

        def combined(node) -> float:
            if isinstance(node, Atom):
                return violation_atom(node.constraint, tensor, counts, inst)
            if isinstance(node, And):
                return combined(node.left) + combined(node.right)
            if isinstance(node, Or):
                return min(combined(node.left), combined(node.right))
            return 0.0 if combined(node.operand) > 0.0 else 1.0

        for route in (None, tensor):
            assert (violation_expr(tree, route, counts, inst) == 0.0) == holds(tree, route), (
                format_expr(tree), route is None)
        # one roster_kernel call combines the atoms as they read one by one
        assert violation_expr(tree, tensor, counts, inst) == combined(tree), format_expr(tree)


def _loop_oracle_check(inst, staff, bits, subset=None, kinds=ALL_KINDS):
    """The roster kernel of the AND of ``kinds`` (each over ``subset``)
    on rosters of day or slot ``bits`` (P, E, D, S) must equal, float.hex
    for float.hex, the mask-and-loop oracle's violation and every slack:
    on the (P, E, D, 4) slot stack, and on the day-bit stack too when
    S = 1.  Returns that violation and those slacks."""
    atoms = [AtomicConstraint(kind, subset, 2) for kind in kinds
             if inst.multi_shift or kind is not ConstraintKind.MULTI_SHIFT]
    expr = functools.reduce(And, map(Atom, atoms))
    slots = np.broadcast_to(bits, bits.shape[:3] + (SLOTS_PER_DAY,))
    ref_violation, ref_slacks = _kernel(expr, [oracle.roster_measure(c, inst, staff) for c in atoms])(slots)
    expected = [float.hex(v) for v in ref_violation], [[float.hex(v) for v in s] for s in ref_slacks]
    for stack in [np.ascontiguousarray(slots)] + ([bits] if bits.shape[3] == 1 else []):
        violation, slacks = roster_kernel(expr, inst, staff)(stack)
        got = [float.hex(v) for v in violation], [[float.hex(v) for v in s] for s in slacks]
        assert got == expected, f"{stack.shape[3]} bits per day"
    return ref_violation, ref_slacks


class TestRosterKernelAgainstLoopOracle:
    """The roster kernel reads a (P, E, D, S) stack: one slice per job
    and a running maximum over the days, where the oracle masks each
    job's employees and walks the days."""

    @PROPERTY
    @given(st.data())
    def test_random_rosters(self, data):
        """Micro instances and the fractional week, single and multi
        shift, job maps grouped by job or shuffled, one to four rosters
        from empty to full."""
        multi = data.draw(st.booleans(), label="multi_shift")
        if data.draw(st.booleans(), label="fractional week"):
            inst = replace(fractional_week(), multi_shift=multi)
        else:
            seed = data.draw(st.integers(0, 2**32 - 1), label="instance seed")
            inst = random_micro_instance(
                np.random.Generator(np.random.PCG64(seed)), with_emergency=True, multi_shift=multi)
        staff = employee_jobs(tuple(
            data.draw(st.integers(0, job.headcount_max + 1), label=f"count {job.code}")
            for job in inst.jobs))
        rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32 - 1), label="roster seed")))
        if data.draw(st.booleans(), label="shuffled job map"):
            staff = rng.permutation(staff)
        density = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]), label="attendance")
        shape = (data.draw(st.integers(1, 4), label="rosters"), len(staff), inst.horizon_days,
                 SLOTS_PER_DAY if multi else 1)
        bits = (rng.random(shape) < density).astype(np.uint8)
        codes = [job.code for job in inst.jobs]
        subset = data.draw(st.none() | st.lists(st.sampled_from(codes), max_size=4), label="jobs")
        _loop_oracle_check(inst, staff, bits, subset)

    WEEK = (2, 3, 1, 2, 1, 1)

    @pytest.mark.parametrize("multi", [False, True])
    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("counts, days, rest_cap, attendance, subset, pinned", [
        # pinned: each roster's k2 violation, k6 violation and k6 slack
        pytest.param(WEEK, 7, 3, 0.0, None, (42.0, 40.0, 0.0), id="nobody attends"),
        pytest.param(WEEK, 7, 3, 1.0, None, (0.0, 0.0, 3.0), id="everyone attends"),
        pytest.param(WEEK, 7, 0, 0.5, None, None, id="rest_cap 0"),
        pytest.param(WEEK, 1, 3, 0.5, None, None, id="one-day horizon"),
        pytest.param(WEEK, 1, 0, 0.0, None, (6.0, 10.0, 0.0), id="one day, rest_cap 0, nobody attends"),
        pytest.param((0,) * 6, 7, 3, 0.5, None, (42.0, 0.0, 3.0), id="zero employees"),
        pytest.param((2, 0, 1, 2, 0, 1), 7, 3, 1.0, ("b", "a", "e", "b"), (21.0, 0.0, 3.0),
                     id="subset with empty jobs"),
        pytest.param((2, 0, 1, 2, 0, 1), 7, 3, 0.5, ("e", "c"), None, id="subset with an empty job"),
    ])
    def test_edges(self, counts, days, rest_cap, attendance, subset, pinned, shuffled, multi):
        inst = replace(reference_instance(multi_shift=multi), horizon_days=days, rest_cap=rest_cap)
        rng = np.random.Generator(np.random.PCG64(7))
        staff = employee_jobs(counts)
        if shuffled:
            staff = rng.permutation(staff)
        bits = (rng.random((3, len(staff), days, SLOTS_PER_DAY if multi else 1)) < attendance).astype(np.uint8)
        kinds = [ConstraintKind.EVERY_JOB_OCCUPIED, ConstraintKind.WORK_TIME_RANGE, ConstraintKind.REST_CAP]
        _loop_oracle_check(inst, staff, bits, subset, kinds)
        if pinned is not None:
            unstaffed, _ = _loop_oracle_check(inst, staff, bits, subset, kinds[:1])
            excess, (rest,) = _loop_oracle_check(inst, staff, bits, subset, kinds[2:])
            assert [unstaffed.tolist(), excess.tolist(), rest.tolist()] == [[x] * 3 for x in pinned]


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
