"""End-to-end acceptance checks.

Each test covers one promised behaviour, checks it at a stated tolerance
against an independent route (exhaustive enumeration, closed formulas,
or large-sample statistics), and prints a single PASS/FAIL verdict line.
Run with ``pytest -v`` (or ``-s`` to see the verdict lines inline).
"""

import itertools
import math
import statistics
import time

import numpy as np

from manpower import (
    ATOM_CODES,
    AttendanceTensor,
    Direction,
    EAConfig,
    HeadcountVector,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    PSOConfig,
    RotationSpec,
    SuitablePolicy,
    accuracy,
    atom,
    default_max_assignments,
    employee_jobs,
    eval_atom,
    eval_expr,
    evaluate_bundle,
    generate_rotation,
    generate_table,
    ip_solve,
    non_dominated_sort,
    parse_constraint_string,
    pso_step,
    run_ea,
    run_experiment,
    run_moea,
    sa_accept,
    save_instance,
    solve_assignment,
    tensor_salary,
    validate_table,
    violation_atom,
    violation_expr,
)
from manpower.cli import EXIT_OK, main
from manpower.domain import SLOTS_PER_DAY
from manpower.instances import micro_instance, random_micro_instance, reference_instance
from oracle import violation_atom as oracle_violation

BASIC = parse_constraint_string("k1&k2&k3&k4&k5&k6")
SALARY_MIN = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),))


def _verdict(ok: bool, label: str, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"{label}{tail}"


# ---------------------------------------------------------------------------


def test_evolutionary_staffing_reaches_90pct_of_exact_optimum():
    """On ten small instances the evolutionary result prices within 10%
    of the exhaustive optimum (here it matches it outright)."""
    accs = []
    for seed in range(10):
        rng = np.random.Generator(np.random.PCG64(3000 + seed))
        inst = random_micro_instance(rng)
        exact = ip_solve(inst, SALARY_MIN, BASIC)
        found = run_ea(inst, SALARY_MIN, BASIC,
                       EAConfig(population_size=40, generations=30, seed=seed))
        accs.append(accuracy(exact.value, found.value))
    _verdict(min(accs) >= 90.0, "evolutionary staffing within 10% of exact optimum",
             f"min accuracy {min(accs)}%")


def test_integer_encoding_no_worse_than_binary_on_paired_seeds():
    """Median best value over 30 paired seeds: the integer-vector
    encoding must not lose to the bit-string encoding."""
    inst = reference_instance()
    ri = [run_ea(inst, SALARY_MIN, BASIC, EAConfig(encoding="ri", seed=s)).value
          for s in range(30)]
    bg = [run_ea(inst, SALARY_MIN, BASIC, EAConfig(encoding="bg", seed=s)).value
          for s in range(30)]
    med_ri, med_bg = statistics.median(ri), statistics.median(bg)
    _verdict(med_ri <= med_bg, "integer encoding no worse than binary (30-seed medians)",
             f"{med_ri:g} vs {med_bg:g}")


def test_roster_search_matches_exhaustive_enumeration():
    """For twenty staffings small enough to enumerate every roster
    (at most 12 attendance bits), the evolved roster's penalized score
    equals the enumerated minimum on every one."""
    expr = parse_constraint_string("k1&k2&k3&k6")

    def penalized(tensor, hc, inst):
        v = violation_expr(expr, tensor, hc, inst)
        return tensor_salary(tensor, inst) + 1e4 * v * v

    wins = 0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(2000 + seed))
        inst = random_micro_instance(rng, n_jobs=2)
        hc = HeadcountVector(tuple(j.headcount_min for j in inst.jobs))
        jobs_map = employee_jobs(hc)
        n, days = len(jobs_map), inst.horizon_days
        assert n * days <= 12
        best = min(
            penalized(AttendanceTensor.from_day_attendance(
                np.array(bits, dtype=np.uint8).reshape(n, days), jobs_map, inst.n_jobs),
                hc, inst)
            for bits in itertools.product((0, 1), repeat=n * days)
        )
        got = solve_assignment(hc, inst, expr,
                               EAConfig(population_size=60, generations=40,
                                        seed=seed, encoding="bg"))
        wins += abs(penalized(got.tensor, hc, inst) - best) < 1e-9
    _verdict(wins == 20, "roster search matches exhaustive enumeration", f"{wins}/20")


def test_trade_off_archive_recovers_exhaustive_front():
    """The two-objective archive recovers at least 80% of the true
    trade-off front (found by enumerating every staffing) with no
    spurious entries, on twenty random instances."""
    bundle = ObjectiveBundle((
        Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),
        Objective(ObjectiveKind.TOTAL_TIME, Direction.MAXIMIZE),
    ))

    def true_front(inst):
        pts = []
        ranges = [range(j.headcount_min, j.headcount_max + 1) for j in inst.jobs]
        for combo in itertools.product(*ranges):
            hc = HeadcountVector(combo)
            if eval_expr(BASIC, None, hc, inst):
                pts.append(tuple(evaluate_bundle(bundle, hc, None, inst)))
        return {
            p for p in pts
            if not any(all(q[i] <= p[i] for i in range(len(p)))
                       and any(q[i] < p[i] for i in range(len(p))) for q in pts)
        }

    ok_runs = 0
    worst = 1.0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        inst = random_micro_instance(rng)
        truth = true_front(inst)
        res = run_moea(inst, bundle, BASIC,
                       EAConfig(population_size=40, generations=30, seed=seed))
        got = {tuple(e.objectives) for e in res.archive}
        recovered = len(got & truth) / len(truth)
        worst = min(worst, recovered)
        ok_runs += recovered >= 0.8 and not (got - truth)
    _verdict(ok_runs == 20, "trade-off archive recovers the exhaustive front",
             f"{ok_runs}/20 runs, worst recovery {worst:.0%}")


def test_dominance_and_front_ranking_match_brute_force():
    """Pairwise dominance and the layered front ranking agree with a
    quadratic-time reference on 200 random point sets (up to 50 points,
    2 or 3 objectives, integer grid to force ties)."""

    def dom_bf(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    def fronts_bf(points):
        remaining = list(range(len(points)))
        layers = []
        while remaining:
            layer = [i for i in remaining
                     if not any(dom_bf(points[j], points[i]) for j in remaining if j != i)]
            layers.append(sorted(layer))
            remaining = [i for i in remaining if i not in layer]
        return layers

    agree = True
    for case in range(200):
        rng = np.random.Generator(np.random.PCG64(4000 + case))
        n = int(rng.integers(1, 51))
        d = int(rng.integers(2, 4))
        points = [tuple(float(v) for v in rng.integers(0, 6, size=d)) for _ in range(n)]
        got = [sorted(f) for f in non_dominated_sort(points)]
        agree &= got == fronts_bf(points)
        i, j = int(rng.integers(n)), int(rng.integers(n))
        pair_ranked = non_dominated_sort([points[i], points[j]]) == [[0], [1]]
        agree &= pair_ranked == dom_bf(points[i], points[j])
    _verdict(agree, "front ranking matches brute force on 200 random sets")


def test_annealing_acceptance_matches_boltzmann_probability():
    """Uphill moves are accepted with probability exp(-delta/T), checked
    empirically to within 0.02 at 100k samples per setting; downhill and
    flat moves always pass."""
    rng = np.random.Generator(np.random.PCG64(99))
    worst_err = 0.0
    for delta in (0.5, 1.0, 2.0):
        hits = sum(sa_accept(0.0, delta, 1.0, u) for u in rng.random(100_000).tolist())
        worst_err = max(worst_err, abs(hits / 100_000 - math.exp(-delta)))
    ok = (worst_err <= 0.02
          and sa_accept(1.0, 0.0, 0.999, rng.random())
          and sa_accept(1.0, 1.0, 0.999, rng.random()))
    _verdict(ok, "annealing acceptance matches the Boltzmann rule",
             f"max error {worst_err:.4f}")


class _PinnedDraws:
    """Stands in for the generator: hands back queued draw arrays."""

    def __init__(self, *draws):
        self._queue = list(draws)

    def random(self, shape=None):
        nxt = np.asarray(self._queue.pop(0), dtype=float)
        return np.broadcast_to(nxt, shape).copy() if shape is not None else nxt


def test_swarm_update_matches_hand_formula():
    """One swarm step with pinned random factors reproduces the textbook
    velocity/position update exactly."""
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.uniform(-5, 5, size=(6, 3))
    v = rng.uniform(-1, 1, size=(6, 3))
    p = rng.uniform(-5, 5, size=(6, 3))
    g = rng.uniform(-5, 5, size=3)
    r1 = np.full((6, 3), 0.25)
    r2 = np.full((6, 3), 0.75)
    w, c1, c2 = 0.7, 1.5, 2.0
    expected_v = w * v + c1 * r1 * (p - x) + c2 * r2 * (g - x)
    cfg = PSOConfig(cognitive=c1, social=c2, v_max=None)
    new_x, new_v = pso_step((x, v), p, g, cfg, _PinnedDraws(r1, r2), inertia=w)
    ok = np.array_equal(new_v, expected_v) and np.array_equal(new_x, x + expected_v)
    _verdict(ok, "swarm update matches the hand formula exactly")


def test_generated_tables_revalidate_and_share_load_fairly():
    """1000 random duty tables all pass replay validation; aggregate
    load per member stays within 10% of the mean; the 3-post/5-person
    rotation serves everyone exactly three times in five days."""
    members = tuple(f"m{i}" for i in range(6))
    days, per_day = 5, 2
    policy = SuitablePolicy(
        max_assignments=default_max_assignments(days, len(members), per_day))
    totals = dict.fromkeys(members, 0)
    all_valid = True
    for seed in range(1000):
        table = generate_table(members, days, per_day, policy, seed=seed)
        all_valid &= validate_table(table, policy)
        for m, c in table.assignment_counts().items():
            totals[m] += c
    mean = statistics.mean(totals.values())
    spread_ok = all(abs(c - mean) <= 0.10 * mean for c in totals.values())

    rotation = generate_rotation(RotationSpec(positions=3, people=5), days=5)
    shares = rotation.assignment_counts()
    rotation_ok = len(shares) == 5 and set(shares.values()) == {3}

    _verdict(all_valid and spread_ok and rotation_ok,
             "duty tables revalidate and share load fairly",
             f"load spread {min(totals.values())}..{max(totals.values())} around {mean:.0f}")


def test_same_seed_reproduces_identical_output_files(tmp_path):
    """Every file-producing command, run twice with the same seed,
    writes byte-identical output (traces carry wall-clock and are
    exempt)."""
    inst_path = str(tmp_path / "inst.json")
    save_instance(micro_instance(), inst_path)
    runs = {
        "counts": ["solve", "--instance", inst_path, "--population", "20",
                   "--generations", "10", "--seed", "7", "--counts-out"],
        "roster": ["assign", "--instance", inst_path, "--counts", "1,2",
                   "--constraints", "k1&k2&k6", "--population", "20",
                   "--generations", "10", "--seed", "7", "--out"],
        "table": ["table", "--members", "6", "--days", "5", "--per-day", "2",
                  "--seed", "7", "--out"],
        "archive": ["pareto", "--instance", inst_path, "--objectives",
                    "salary,-total_time", "--population", "20",
                    "--generations", "10", "--seed", "7", "--archive-out"],
    }
    identical = True
    for name, argv in runs.items():
        blobs = []
        for attempt in range(2):
            out = str(tmp_path / f"{name}{attempt}")
            assert main(argv + [out]) == EXIT_OK
            blobs.append(open(out, "rb").read())
        identical &= blobs[0] == blobs[1]
    _verdict(identical, "same seed reproduces byte-identical output files")


def test_violation_is_zero_exactly_when_constraint_holds():
    """Across 10,000 random (instance, staffing, roster, rule) cases the
    graded violation equals the cell-by-cell oracle exactly and the
    boolean check passes precisely when it is zero — on both the
    staffing-only and the full-roster routes."""
    cases = 0
    i = 0
    while cases < 10_000:
        rng = np.random.Generator(np.random.PCG64(5000 + i))
        inst = random_micro_instance(rng, with_emergency=True, multi_shift=(i % 2 == 0))
        hc = HeadcountVector(tuple(
            int(rng.integers(j.headcount_min, j.headcount_max + 1)) for j in inst.jobs))
        jobs_map = employee_jobs(hc)
        n = len(jobs_map)
        if inst.multi_shift:
            grid = rng.integers(0, 2, size=(n, SLOTS_PER_DAY * inst.horizon_days), dtype=np.uint8)
            tensor = AttendanceTensor.from_slot_attendance(grid, jobs_map, inst.n_jobs)
        else:
            grid = rng.integers(0, 2, size=(n, inst.horizon_days), dtype=np.uint8)
            tensor = AttendanceTensor.from_day_attendance(grid, jobs_map, inst.n_jobs)
        for code in ATOM_CODES:
            if code == "o1" and not inst.multi_shift:
                continue
            c = atom(code).constraint
            for t in (None, tensor):
                ref = oracle_violation(c, t, hc, inst)
                v = violation_atom(c, t, hc, inst)
                e = eval_atom(c, t, hc, inst)
                assert v == ref, (code, t is None, v, ref)
                assert e == (ref == 0.0), (code, t is None, ref, e)
                cases += 1
        i += 1
    _verdict(cases >= 10_000, "violation matches the oracle and is zero exactly when the check passes",
             f"{cases} paired cases")


def test_full_pipeline_study_finishes_quickly_with_valid_stages():
    """The five-solver staffing study plus roster stage completes in
    under 10 seconds with every basic rule holding at both stages."""
    t0 = time.perf_counter()
    report = run_experiment("exp1", seed=0)
    elapsed = time.perf_counter() - t0
    stage1 = all(report.notes["stage1_checks"].values())
    stage2 = report.notes["stage2_feasible"] and all(report.notes["stage2_checks"].values())
    _verdict(elapsed < 10.0 and stage1 and stage2,
             "full pipeline study finishes quickly with both stages valid",
             f"{elapsed:.1f}s")
