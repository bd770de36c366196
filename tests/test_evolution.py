"""Evolutionary-solver tests: genome codecs, penalty semantics,
determinism, and roster search on enumerable cases."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from manpower import (
    ConfigurationError,
    Direction,
    EAConfig,
    Genome,
    HeadcountVector,
    InfeasibleError,
    Not,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    PenaltyConfig,
    RunTrace,
    TracePoint,
    atom,
    conjunction,
    decode,
    encode,
    f2_total_salary,
    parse_constraint_string,
    random_genome,
    run_ea,
    run_moea,
    solve_assignment,
    tensor_salary,
    violation_expr,
)
from manpower import evolution
from manpower.evolution import INITIAL_SAMPLES_PER_MEMBER, _box, _scorer
from manpower.instances import micro_instance, random_micro_instance, reference_instance

SALARY = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),))
BASIC = conjunction("k1", "k2", "k3", "k4", "k5", "k6")
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def boxes(draw):
    """Headcount bounds: 1-8 jobs, each box 0-70 wide."""
    bounds = []
    for _ in range(draw(st.integers(1, 8))):
        lo = draw(st.integers(0, 50))
        bounds.append((lo, lo + draw(st.integers(0, 70))))
    return tuple(bounds)


class TestGenomeCodec:
    BOUNDS = ((1, 6), (2, 15), (0, 8))

    def test_round_trip_all_points_bg(self):
        for a in range(1, 7):
            for b in range(2, 16):
                for c in range(0, 9):
                    g = encode((a, b, c), self.BOUNDS, "bg")
                    assert decode(g).counts == (a, b, c)

    def test_round_trip_all_points_ri(self):
        for a in range(1, 7):
            g = encode((a, 5, 3), self.BOUNDS, "ri")
            assert decode(g).counts == (a, 5, 3)

    def test_bit_width_is_span_bits(self):
        g = encode((1, 2, 0), self.BOUNDS, "bg")
        # spans 5, 13, 8 -> 3 + 4 + 4 bits
        assert g.data.shape[0] == 11

    def test_bg_decode_clamps_overflow(self):
        # all-ones bits decode beyond the upper bound and must clamp
        g = Genome("bg", np.ones(11, dtype=np.uint8), self.BOUNDS)
        assert decode(g).counts == (6, 15, 8)

    def test_ri_decode_rounds_and_clamps(self):
        g = Genome("ri", np.array([0.2, 15.4, 4.5]), self.BOUNDS)
        assert decode(g).counts == (1, 15, 4)

    def test_encode_rejects_out_of_box(self):
        with pytest.raises(ConfigurationError):
            encode((0, 2, 0), self.BOUNDS, "bg")

    def test_round_trip_on_the_six_job_week(self):
        bounds = reference_instance().headcount_bounds()
        for encoding in ("bg", "ri"):
            g = encode((3, 10, 4, 8, 7, 8), bounds, encoding)
            assert decode(g).counts == (3, 10, 4, 8, 7, 8)

    def test_random_genomes_decode_inside_box(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for encoding in ("bg", "ri"):
            for _ in range(200):
                hc = decode(random_genome(rng, self.BOUNDS, encoding))
                for v, (lo, hi) in zip(hc.counts, self.BOUNDS):
                    assert lo <= v <= hi


def fitness(genome, bundle, expr, inst, cfg):
    """Penalized fitness of one genome, scored the way the solvers score it."""
    return _scorer(bundle, expr, inst, cfg.penalty)(decode(genome).counts)[0]


class TestDecodeAgainstLoopOracle:
    @PROPERTY
    @given(st.data())
    def test_ri(self, data):
        bounds = data.draw(boxes())
        genes = [
            data.draw(st.one_of(
                st.integers(lo - 3, hi + 3).map(float),
                st.integers(lo - 3, hi + 3).map(lambda k: k + 0.5),      # ties round to even
                st.integers(lo - 3, hi + 3).map(lambda k: k - 0.5),
                st.floats(lo - 1e6, hi + 1e6, allow_nan=False),          # far outside the box
            ))
            for lo, hi in bounds
        ]
        g = Genome("ri", np.array(genes), bounds)
        assert decode(g).counts == oracle.decode(g).counts

    @PROPERTY
    @given(st.data())
    def test_bg(self, data):
        bounds = data.draw(boxes())
        bits = ""
        for lo, hi in bounds:
            width = (hi - lo).bit_length()
            # offsets past hi - lo overflow the box and must clamp to hi
            offset = data.draw(st.integers(0, 2**width - 1))
            bits += format(offset, f"0{width}b") if width else ""
        g = Genome("bg", np.array([int(b) for b in bits], dtype=np.uint8), bounds)
        assert decode(g).counts == oracle.decode(g).counts

    @PROPERTY
    @given(st.data())
    def test_encode_decode_round_trip(self, data):
        bounds = data.draw(boxes())
        counts = tuple(data.draw(st.integers(lo, hi)) for lo, hi in bounds)
        for encoding in ("ri", "bg"):
            assert decode(encode(counts, bounds, encoding)).counts == counts


def test_box_draw_is_rng_uniform_bit_for_bit():
    meta = np.random.Generator(np.random.PCG64(99))
    for seed in range(40):
        lo = meta.integers(0, 40, size=meta.integers(1, 9))
        bounds = tuple((int(a), int(a + w)) for a, w in zip(lo, meta.integers(0, 60, size=lo.size)))
        box = _box(bounds)
        ours = np.random.Generator(np.random.PCG64(seed))
        numpys = np.random.Generator(np.random.PCG64(seed))
        for _ in range(25):
            drawn = box.low + box.span * ours.random(len(bounds))
            uniform = numpys.uniform(box.low, box.high)
            assert drawn.tobytes() == uniform.tobytes(), (
                "low + span * rng.random(n) no longer equals rng.uniform(low, high) bit for bit; "
                "random_genome and _mutate rely on it, so every seeded ri result would change")
        assert ours.bit_generator.state == numpys.bit_generator.state, (
            "rng.uniform(low, high) no longer consumes one rng.random() double per value")


class TestPenalties:
    def test_external_penalty_is_quadratic(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(coefficient=100.0))
        g = encode((4, 6), inst.headcount_bounds(), "ri")  # staffing 10 > cap 8
        expr = atom("k5")
        hc = decode(g)
        expected = f2_total_salary(hc, inst) + 100.0 * 2.0**2
        assert fitness(g, SALARY, expr, inst, cfg) == pytest.approx(expected)

    def test_feasible_point_pays_no_penalty(self):
        inst = micro_instance()
        cfg = EAConfig()
        g = encode((1, 1), inst.headcount_bounds(), "ri")
        assert fitness(g, SALARY, BASIC, inst, cfg) == f2_total_salary(decode(g), inst)

    def test_internal_penalty_infinite_outside(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(method="internal"))
        over = encode((4, 4), inst.headcount_bounds(), "ri")  # on the k5 boundary
        assert fitness(over, SALARY, atom("k5"), inst, cfg) == float("inf")

    def test_internal_penalty_grows_near_boundary(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(method="internal", barrier_coefficient=1.0))
        mid = fitness(encode((1, 1), inst.headcount_bounds(), "ri"), SALARY, atom("k5"), inst, cfg)
        near = fitness(encode((4, 3), inst.headcount_bounds(), "ri"), SALARY, atom("k5"), inst, cfg)
        mid_obj = f2_total_salary(HeadcountVector((1, 1)), inst)
        near_obj = f2_total_salary(HeadcountVector((4, 3)), inst)
        assert near - near_obj > mid - mid_obj  # larger barrier near the cap

    def test_internal_rejects_or_and_not(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(method="internal"))
        with pytest.raises(ConfigurationError):
            run_ea(inst, SALARY, Not(atom("k5")), cfg)
        with pytest.raises(ConfigurationError):
            run_ea(inst, SALARY, parse_constraint_string("k4|k5"), cfg)

    def test_fitness_ranks_random_genomes_like_hand_scores(self):
        inst = micro_instance()
        cfg = EAConfig()
        rng = np.random.Generator(np.random.PCG64(12))
        genomes = [random_genome(rng, inst.headcount_bounds(), "ri") for _ in range(20)]
        got = [fitness(g, SALARY, BASIC, inst, cfg) for g in genomes]

        def hand_score(g):
            hc = decode(g)
            v = violation_expr(BASIC, None, hc, inst)
            return f2_total_salary(hc, inst) + cfg.penalty.coefficient * v * v

        expected = [hand_score(g) for g in genomes]
        assert got == pytest.approx(expected)
        assert sorted(range(20), key=got.__getitem__) == sorted(
            range(20), key=expected.__getitem__
        )

    def test_barrier_with_no_interior_fails_fast_and_names_the_atom(self, monkeypatch):
        # rest_cap=0 leaves k6 no slack on any staffing, so no start is strictly inside
        inst = dataclasses.replace(micro_instance(), rest_cap=0)
        samples = []

        def counted(*args):
            samples.append(1)
            return random_genome(*args)

        monkeypatch.setattr(evolution, "random_genome", counted)
        cfg = EAConfig(population_size=10, penalty=PenaltyConfig(method="internal"))
        with pytest.raises(InfeasibleError, match=r"atoms at or past their boundary .*: .*k6 in 10"):
            run_ea(inst, SALARY, conjunction("k5", "k6"), cfg)
        assert len(samples) == INITIAL_SAMPLES_PER_MEMBER * 10

    def test_internal_solve_stays_feasible(self):
        inst = micro_instance()
        cfg = EAConfig(
            population_size=30, generations=20,
            penalty=PenaltyConfig(method="internal"), seed=5,
        )
        res = run_ea(inst, SALARY, conjunction("k4", "k5", "y2"), cfg)
        assert res.feasible
        assert violation_expr(conjunction("k4", "k5", "y2"), None, res.counts, inst) == 0.0


class TestRunEA:
    def test_scorer_memoizes_staffings(self):
        for solver in (run_ea, run_moea):
            calls = []

            def wage(hc, tensor, inst):
                calls.append(hc.counts)
                return f2_total_salary(hc, inst)

            bundle = ObjectiveBundle((Objective(ObjectiveKind.CUSTOM, func=wage),))
            res = solver(micro_instance(), bundle, BASIC, EAConfig(population_size=20, generations=10))
            # the 4 x 6 micro box fits in the cache, so no staffing is scored twice
            assert res.evaluations == 20 * 11, solver.__name__
            assert len(calls) == len(set(calls)) < res.evaluations, solver.__name__

    def test_same_seed_same_everything(self):
        inst = micro_instance()
        cfg = EAConfig(population_size=20, generations=15, seed=7)
        a = run_ea(inst, SALARY, BASIC, cfg)
        b = run_ea(inst, SALARY, BASIC, cfg)
        assert a.counts == b.counts
        assert a.value == b.value
        assert a.evaluations == b.evaluations
        assert [p.best for p in a.trace.points] == [p.best for p in b.trace.points]
        assert [p.mean for p in a.trace.points] == [p.mean for p in b.trace.points]

    def test_different_seeds_usually_differ(self):
        inst = micro_instance()
        cfg_a = EAConfig(population_size=10, generations=2, seed=1)
        cfg_b = EAConfig(population_size=10, generations=2, seed=2)
        a = run_ea(inst, SALARY, BASIC, cfg_a)
        b = run_ea(inst, SALARY, BASIC, cfg_b)
        assert a.trace.points[0].mean != b.trace.points[0].mean

    def test_best_curve_never_worsens(self):
        inst = micro_instance()
        res = run_ea(inst, SALARY, BASIC, EAConfig(seed=3))
        curve = res.trace.best_curve()
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_trace_reads_back_its_points(self):
        res = run_ea(micro_instance(), SALARY, BASIC, EAConfig(population_size=10, generations=3, seed=2))
        trace = res.trace
        points = trace.points + (TracePoint(4, float("inf"), float("inf"), 2**40, 0.1),)
        packed = RunTrace(points)
        assert packed.points == points
        assert all(type(p.generation) is int and type(p.evaluations) is int for p in packed.points)
        assert "points" in [f.name for f in dataclasses.fields(trace)]
        assert pickle.loads(pickle.dumps(res)) == res
        assert dataclasses.replace(trace, points=()).points == ()

    def test_trace_counts_evaluations(self):
        inst = micro_instance()
        cfg = EAConfig(population_size=12, generations=4, seed=0)
        res = run_ea(inst, SALARY, BASIC, cfg)
        assert res.trace.points[0].evaluations == 12
        assert res.evaluations == 12 * 5
        assert [p.generation for p in res.trace.points] == [0, 1, 2, 3, 4]

    def test_feasible_result_reports_zero_violation(self):
        inst = micro_instance()
        res = run_ea(inst, SALARY, BASIC, EAConfig(seed=0))
        assert res.feasible
        assert res.violation == 0.0
        assert violation_expr(BASIC, None, res.counts, inst) == 0.0

    def test_proportional_selection_runs(self):
        inst = micro_instance()
        cfg = EAConfig(population_size=16, generations=8, selection="proportional", seed=2)
        res = run_ea(inst, SALARY, BASIC, cfg)
        assert res.feasible

    def test_zero_generations_returns_best_of_initial_population(self):
        inst = micro_instance()
        res = run_ea(inst, SALARY, BASIC, EAConfig(population_size=15, generations=0, seed=9))
        assert res.evaluations == 15
        assert len(res.trace.points) == 1
        assert res.trace.points[0].generation == 0

    def test_infeasible_branch_reports_least_violation(self):
        inst = micro_instance()
        impossible = conjunction("k5") & Not(atom("k5"))
        res = run_ea(inst, SALARY, impossible, EAConfig(population_size=10, generations=3, seed=1))
        assert not res.feasible
        assert res.violation > 0.0


class TestAssignment:
    def test_matches_enumeration_on_small_cases(self):
        rng = np.random.Generator(np.random.PCG64(77))
        import itertools

        from manpower import AttendanceTensor, employee_jobs

        for seed in range(6):
            inst = random_micro_instance(rng, n_jobs=2)
            hc = HeadcountVector(tuple(lo for lo, _ in inst.headcount_bounds()))
            expr = conjunction("k1", "k2", "k3", "k6")
            jobs_map = employee_jobs(hc)
            n_bits = len(jobs_map) * inst.horizon_days
            if n_bits > 10:
                continue
            best = np.inf
            for bits in itertools.product((0, 1), repeat=n_bits):
                grid = np.array(bits, dtype=np.uint8).reshape(len(jobs_map), inst.horizon_days)
                t = AttendanceTensor.from_day_attendance(grid, jobs_map, inst.n_jobs)
                v = violation_expr(expr, t, hc, inst)
                best = min(best, tensor_salary(t, inst) + 1e4 * v**2)
            res = solve_assignment(
                hc, inst, expr,
                EAConfig(population_size=40, generations=30, seed=seed, encoding="bg"),
            )
            achieved = res.value if res.feasible else res.value + 1e4 * res.violation**2
            assert achieved == pytest.approx(best)

    def test_tensor_matches_reported_value(self):
        inst = micro_instance()
        hc = HeadcountVector((1, 2))
        res = solve_assignment(hc, inst, conjunction("k2", "k6"), EAConfig(seed=4, population_size=30, generations=20))
        assert res.feasible
        assert tensor_salary(res.tensor, inst) == res.value
        assert res.tensor.headcounts().counts == hc.counts

    def test_multi_shift_genome_is_per_slot(self):
        inst = micro_instance(multi_shift=True)
        hc = HeadcountVector((1, 1))
        res = solve_assignment(hc, inst, conjunction("k2"), EAConfig(seed=1, population_size=20, generations=10))
        assert res.tensor.entries.shape[1] == inst.slots

    def test_internal_penalty_rejected(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(method="internal"))
        with pytest.raises(ConfigurationError):
            solve_assignment(HeadcountVector((1, 1)), inst, BASIC, cfg)


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            EAConfig(population_size=1)
        with pytest.raises(ConfigurationError):
            EAConfig(generations=-1)
        with pytest.raises(ConfigurationError):
            EAConfig(crossover_rate=1.5)
        with pytest.raises(ConfigurationError):
            EAConfig(selection="rank")
        with pytest.raises(ConfigurationError):
            EAConfig(encoding="gray")
        with pytest.raises(ConfigurationError):
            PenaltyConfig(method="annealed")
