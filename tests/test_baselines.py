"""Baseline solvers: exact search vs enumeration, swarm update math,
annealing acceptance probabilities."""

import itertools
import math

import numpy as np
import pytest

from manpower import (
    ConfigurationError,
    Direction,
    HeadcountVector,
    InfeasibleError,
    Not,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    PSOConfig,
    SAConfig,
    SearchSpaceError,
    atom,
    conjunction,
    evaluate_bundle,
    ip_solve,
    pso_solve,
    pso_step,
    sa_accept,
    sa_solve,
    violation_expr,
)
from manpower.domain import Job, ProblemInstance
from manpower.instances import micro_instance, random_micro_instance, reference_instance

SALARY = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),))
BASIC = conjunction("k1", "k2", "k3", "k4", "k5", "k6")


def enumerate_optimum(inst, bundle, expr):
    best_value, best_counts = None, None
    for combo in itertools.product(*[range(lo, hi + 1) for lo, hi in inst.headcount_bounds()]):
        hc = HeadcountVector(combo)
        if violation_expr(expr, None, hc, inst) == 0.0:
            value = float(sum(evaluate_bundle(bundle, hc, None, inst)))
            if best_value is None or value < best_value:
                best_value, best_counts = value, combo
    return best_value, best_counts


class StubDraws:
    """Deterministic stand-in for a random generator: returns queued
    arrays from ``random``."""

    def __init__(self, *arrays):
        self.queue = list(arrays)

    def random(self, shape=None):
        out = np.asarray(self.queue.pop(0), dtype=float)
        if shape is not None:
            out = np.broadcast_to(out, shape).copy()
        return out


class TestExactSolver:
    def test_matches_enumeration_on_micro_instances(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(25):
            inst = random_micro_instance(rng)
            want_value, _ = enumerate_optimum(inst, SALARY, BASIC)
            res = ip_solve(inst, SALARY, BASIC)
            assert res.value == pytest.approx(want_value)
            assert res.feasible

    def test_matches_enumeration_with_composed_constraints(self):
        rng = np.random.Generator(np.random.PCG64(22))
        expr = conjunction("k2", "k5") & (atom("k4") | Not(atom("y2")))
        for _ in range(10):
            inst = random_micro_instance(rng)
            want_value, _ = enumerate_optimum(inst, SALARY, expr)
            if want_value is None:
                with pytest.raises(InfeasibleError):
                    ip_solve(inst, SALARY, expr)
                continue
            res = ip_solve(inst, SALARY, expr)
            assert res.value == pytest.approx(want_value)

    def test_lexicographically_first_optimum(self):
        inst = micro_instance()
        # maximize nothing: pure staffing-window problem has many optima
        res = ip_solve(inst, SALARY, conjunction("y2"))
        assert res.counts.counts == (1, 1)

    def test_bounds_collapse_to_single_point(self):
        jobs = (
            Job("a", "a", (10, 10, 10, 20), headcount_min=2, headcount_max=2),
            Job("b", "b", (5, 5, 5, 0), headcount_min=3, headcount_max=3),
        )
        inst = ProblemInstance(
            jobs=jobs, horizon_days=3, max_total_staff=5,
            work_time_bounds=((0, 1e9), (0, 1e9)),
            salary_bounds=(0, 1e9), rest_cap=3,
        )
        res = ip_solve(inst, SALARY, conjunction("k5"))
        assert res.counts.counts == (2, 3)

    def test_infeasible_raises(self):
        inst = micro_instance()
        impossible = conjunction("k5") & Not(atom("k5"))
        with pytest.raises(InfeasibleError):
            ip_solve(inst, SALARY, impossible)

    def test_oversized_box_raises_with_estimate(self):
        jobs = tuple(
            Job(code, code, (1, 1, 1, 1), 0, 999) for code in ("a", "b", "c", "d")
        )
        inst = ProblemInstance(
            jobs=jobs, horizon_days=1, max_total_staff=4000,
            work_time_bounds=tuple((0, 1e9) for _ in jobs),
            salary_bounds=(0, 1e9), rest_cap=1,
        )
        with pytest.raises(SearchSpaceError) as err:
            ip_solve(inst, SALARY, conjunction("k5"))
        assert err.value.estimate == 1000**4

    def test_reference_instance_known_optimum(self):
        inst = reference_instance()
        res = ip_solve(inst, SALARY, BASIC)
        assert res.counts.counts == (1, 2, 1, 2, 1, 2)
        assert res.value == 3528.0


class TestSwarmStep:
    def test_update_formula_exact(self):
        positions = np.array([[1.0, 2.0], [3.0, 4.0]])
        velocities = np.array([[0.5, -0.5], [0.0, 1.0]])
        pbest = np.array([[1.5, 2.5], [2.0, 3.0]])
        gbest = np.array([1.0, 1.0])
        r1 = np.array([[0.25, 0.5], [0.75, 0.1]])
        r2 = np.array([[0.6, 0.3], [0.2, 0.9]])
        cfg = PSOConfig(cognitive=1.5, social=2.0)
        got_x, got_v = pso_step(
            (positions, velocities), pbest, gbest, cfg, StubDraws(r1, r2), inertia=0.7
        )
        want_v = 0.7 * velocities + 1.5 * r1 * (pbest - positions) + 2.0 * r2 * (gbest - positions)
        want_x = positions + want_v
        assert np.array_equal(got_v, want_v)
        assert np.array_equal(got_x, want_x)

    def test_velocity_clamped_position_free(self):
        cfg = PSOConfig(cognitive=2.0, social=2.0, inertia=(1.0, 1.0), v_max=3.0)
        ones = StubDraws(np.ones((1, 1)), np.ones((1, 1)))
        got_x, got_v = pso_step(
            (np.array([[0.0]]), np.array([[0.0]])),
            np.array([[100.0]]), np.array([100.0]), cfg, ones,
        )
        assert got_v[0, 0] == 3.0  # clipped from 400
        assert got_x[0, 0] == 3.0  # position takes the clipped velocity

    def test_zero_learning_pure_inertia(self):
        cfg = PSOConfig(cognitive=0.0, social=0.0, inertia=(0.5, 0.5))
        x, v = np.array([3.0]), np.array([2.0])
        rng = np.random.Generator(np.random.PCG64(0))
        got_x, got_v = pso_step((x, v), x, x, cfg, rng)
        assert got_v[0] == 1.0
        assert got_x[0] == 4.0

    def test_stationary_fixed_point(self):
        cfg = PSOConfig()
        x = np.array([1.5, -2.0])
        rng = np.random.Generator(np.random.PCG64(7))
        got_x, got_v = pso_step((x, np.zeros(2)), x, x, cfg, rng)
        assert np.array_equal(got_x, x)
        assert np.array_equal(got_v, np.zeros(2))

    def test_stubbed_unit_draws_match_formula(self):
        cfg = PSOConfig(cognitive=1.0, social=1.0, inertia=(1.0, 1.0))
        ones = StubDraws(np.ones(1), np.ones(1))
        got_x, got_v = pso_step(
            (np.zeros(1), np.zeros(1)), np.array([2.0]), np.array([4.0]), cfg, ones
        )
        assert got_v[0] == 6.0  # v + 1*(2-0) + 1*(4-0)
        assert got_x[0] == 6.0


class TestSwarmSolve:
    def test_finds_optimum_on_micro(self):
        inst = micro_instance()
        want_value, _ = enumerate_optimum(inst, SALARY, BASIC)
        res = pso_solve(inst, SALARY, BASIC, PSOConfig(seed=0))
        assert res.feasible
        assert res.value == pytest.approx(want_value)

    def test_reaches_optimum_on_most_seeds(self):
        inst = micro_instance()
        want_value, _ = enumerate_optimum(inst, SALARY, BASIC)
        hits = 0
        for seed in range(20):
            res = pso_solve(inst, SALARY, BASIC, PSOConfig(seed=seed, iterations=60))
            hits += res.feasible and res.value == pytest.approx(want_value)
        assert hits >= 16  # at least 80%

    def test_zero_iterations_returns_best_of_initial_swarm(self):
        inst = micro_instance()
        cfg = PSOConfig(seed=4, iterations=0, swarm_size=30)
        res = pso_solve(inst, SALARY, BASIC, cfg)
        assert len(res.trace.points) == 1
        assert res.evaluations == 30

    def test_sphere_plumbing_converges(self):
        # analytic self-test: minimize sum(x^2) with the raw update step
        cfg = PSOConfig(cognitive=2.0, social=2.0, v_max=1.0)
        rng = np.random.Generator(np.random.PCG64(99))
        x = rng.uniform(-5.0, 5.0, size=(20, 2))
        v = np.zeros_like(x)
        cost = (x**2).sum(axis=1)
        pbest, pbest_cost = x.copy(), cost.copy()
        g = int(np.argmin(pbest_cost))
        gbest = pbest[g].copy()
        for it in range(120):
            w = 0.9 + (0.4 - 0.9) * it / 119
            x, v = pso_step((x, v), pbest, gbest, cfg, rng, inertia=w)
            cost = (x**2).sum(axis=1)
            better = cost < pbest_cost
            pbest[better] = x[better]
            pbest_cost[better] = cost[better]
            g = int(np.argmin(pbest_cost))
            gbest = pbest[g].copy()
        assert float(pbest_cost[g]) < 1e-3

    def test_seed_determinism(self):
        inst = micro_instance()
        a = pso_solve(inst, SALARY, BASIC, PSOConfig(seed=3, iterations=20))
        b = pso_solve(inst, SALARY, BASIC, PSOConfig(seed=3, iterations=20))
        assert a.counts == b.counts
        assert [p.best for p in a.trace.points] == [p.best for p in b.trace.points]


@pytest.mark.parametrize("make", [
    # an infinite start temperature never cools, so annealing would never end
    pytest.param(lambda: SAConfig(initial_temperature=math.inf), id="sa-initial-inf"),
    pytest.param(lambda: SAConfig(initial_temperature=math.nan), id="sa-initial-nan"),
    pytest.param(lambda: SAConfig(final_temperature=math.nan), id="sa-final-nan"),
    pytest.param(lambda: SAConfig(moves_per_temperature=math.nan), id="sa-moves-nan"),
    pytest.param(lambda: PSOConfig(swarm_size=math.nan), id="pso-swarm-nan"),
    pytest.param(lambda: PSOConfig(iterations=math.inf), id="pso-iterations-inf"),
    pytest.param(lambda: PSOConfig(cognitive=math.nan), id="pso-cognitive-nan"),
    pytest.param(lambda: PSOConfig(social=math.inf), id="pso-social-inf"),
    pytest.param(lambda: PSOConfig(inertia=(math.nan, 0.4)), id="pso-inertia-nan"),
    pytest.param(lambda: PSOConfig(inertia=(0.9, math.inf)), id="pso-inertia-inf"),
    pytest.param(lambda: PSOConfig(v_max=math.nan), id="pso-vmax-nan"),
    pytest.param(lambda: PSOConfig(v_max=math.inf), id="pso-vmax-inf"),
    pytest.param(lambda: PSOConfig(v_max=0.0), id="pso-vmax-zero"),
    pytest.param(lambda: PSOConfig(v_max=-1.0), id="pso-vmax-negative"),
])
def test_config_rejects_non_finite_values(make):
    with pytest.raises(ConfigurationError):
        make()


class TestAnnealing:
    def test_downhill_and_level_moves_always_accepted(self):
        uniforms = np.random.Generator(np.random.PCG64(0)).random(100).tolist() + [0.0, 1 - 2**-53]
        assert all(sa_accept(10.0, 5.0, 0.5, u) for u in uniforms)
        assert all(sa_accept(5.0, 5.0, 0.5, u) for u in uniforms)

    def test_acceptance_probability_matches_boltzmann(self):
        n = 100_000
        for ratio in (0.5, 1.0, 2.0):
            uniforms = np.random.Generator(np.random.PCG64(1234)).random(n).tolist()
            accepted = sum(sa_accept(0.0, ratio * 2.0, 2.0, u) for u in uniforms)
            assert accepted / n == pytest.approx(math.exp(-ratio), abs=0.02)

    def test_frozen_system_rejects_uphill(self):
        # not even the least uniform passes
        assert not sa_accept(0.0, 1.0, 1e-12, 0.0)

    def test_finds_optimum_on_micro(self):
        inst = micro_instance()
        want_value, _ = enumerate_optimum(inst, SALARY, BASIC)
        res = sa_solve(inst, SALARY, BASIC, SAConfig(seed=1))
        assert res.feasible
        assert res.value == pytest.approx(want_value)

    def test_reaches_optimum_on_most_seeds(self):
        inst = micro_instance()
        want_value, _ = enumerate_optimum(inst, SALARY, BASIC)
        hits = 0
        for seed in range(20):
            res = sa_solve(inst, SALARY, BASIC, SAConfig(seed=seed))
            hits += res.feasible and res.value == pytest.approx(want_value)
        assert hits >= 14  # at least 70%

    def test_single_temperature_level_still_returns_best_ever(self):
        inst = micro_instance()
        cfg = SAConfig(initial_temperature=1.0, final_temperature=0.999,
                       cooling=0.5, seed=2)
        res = sa_solve(inst, SALARY, BASIC, cfg)
        assert len(res.trace.points) == 2  # initial point + one level
        lows = [lo for lo, _ in inst.headcount_bounds()]
        highs = [hi for _, hi in inst.headcount_bounds()]
        assert all(lo <= c <= hi for c, lo, hi in zip(res.counts.counts, lows, highs))

    def test_monotone_objective_reaches_endpoint(self):
        jobs = (Job("a", "a", (10, 10, 10, 20), headcount_min=0, headcount_max=30),)
        inst = ProblemInstance(
            jobs=jobs, horizon_days=3, max_total_staff=30,
            work_time_bounds=((0, 1e9),), salary_bounds=(0, 1e9), rest_cap=3,
        )
        res = sa_solve(inst, SALARY, conjunction("k5"), SAConfig(seed=0))
        assert res.counts.counts == (0,)

    def test_seed_determinism(self):
        inst = micro_instance()
        cfg = SAConfig(seed=8, initial_temperature=10.0, final_temperature=0.1)
        a = sa_solve(inst, SALARY, BASIC, cfg)
        b = sa_solve(inst, SALARY, BASIC, cfg)
        assert a.counts == b.counts
        assert a.evaluations == b.evaluations
