"""Golden outputs: seeded solver results must stay bit-for-bit identical.

``golden.json`` holds the results of small seeded runs of every solver on
the reference week.  Floats are stored with ``float.hex`` so that any
change in the last bit shows; trace ``millis`` (wall time) is left out.
A change that alters these results on purpose regenerates the file with
``python tests/test_golden.py --write`` and says why in CHANGES.md.

The ``frac/*`` cases run on a copy of the week with non-integer wages and
shift hours, where summing the jobs, or a roster's bits, in another
order changes the last bits of a wage bill or an hour total.
"""

import dataclasses
import json
import os
import sys

import numpy as np

from manpower import (
    AttendanceTensor,
    Direction,
    EAConfig,
    HeadcountVector,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    PenaltyConfig,
    PSOConfig,
    SAConfig,
    ip_solve,
    parse_constraint_string,
    pso_solve,
    run_ea,
    run_moea,
    sa_solve,
    solve_assignment,
)
from manpower.instances import micro_instance, random_micro_instance, reference_instance

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SALARY = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),))
TRADE_OFF = ObjectiveBundle((
    Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),
    Objective(ObjectiveKind.TOTAL_TIME, Direction.MAXIMIZE),
))
STAFFING = parse_constraint_string("k1&k2&k3&k4&k5&k6&y1&y2")
ROSTER = parse_constraint_string("k1&k2&k3&k4&k5&k6")
NINE = HeadcountVector((1, 2, 1, 2, 1, 2))
# maximized hours are not monotone, so the exact search prunes nothing
# on its bound: 21 leaves on the micro instance
LONGEST = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_TIME, Direction.MAXIMIZE),))
NON_MONOTONE = parse_constraint_string("k1&k2&k3&k5&y2")


def fractional_week():
    """The reference week with wages scaled by 1.0731 and shift hours by
    1.05, neither of them integers."""
    week = reference_instance()
    jobs = tuple(
        dataclasses.replace(job, wage_per_shift=tuple(w * 1.0731 for w in job.wage_per_shift),
                            shift_hours=tuple(h * 1.05 for h in job.shift_hours))
        for job in week.jobs)
    return dataclasses.replace(week, jobs=jobs)


def _plain(x):
    """JSON-ready form of a result; floats exact, wall times dropped."""
    if isinstance(x, AttendanceTensor):
        bits = "".join(str(b) for b in x.slot_attendance().ravel().tolist())
        return {"slots": bits, "jobs": x.job_of_employee.tolist()}
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name))
                for f in dataclasses.fields(x) if f.name != "millis"}
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, float):
        return float.hex(float(x))
    raise TypeError(f"no golden form for {type(x).__name__}")


def snapshot() -> dict:
    week = reference_instance()
    multi = reference_instance(multi_shift=True)
    small = dict(population_size=30, generations=15)
    cases = {}
    for seed in (0, 1):
        barrier = PenaltyConfig(method="internal")
        cases[f"ea_ri/{seed}"] = run_ea(week, SALARY, STAFFING, EAConfig(**small, seed=seed))
        cases[f"ea_bg/{seed}"] = run_ea(
            week, SALARY, STAFFING, EAConfig(**small, encoding="bg", seed=seed))
        cases[f"ea_barrier/{seed}"] = run_ea(
            week, SALARY, STAFFING, EAConfig(**small, penalty=barrier, seed=seed))
        cases[f"pso/{seed}"] = pso_solve(
            week, SALARY, STAFFING, PSOConfig(swarm_size=20, iterations=30, seed=seed))
        cases[f"sa/{seed}"] = sa_solve(week, SALARY, STAFFING, SAConfig(seed=seed))
        cases[f"ip/{seed}"] = ip_solve(week, SALARY, STAFFING)
    cases["ip/non_monotone"] = ip_solve(micro_instance(), LONGEST, NON_MONOTONE)
    cases["ea_proportional"] = run_ea(
        week, SALARY, STAFFING, EAConfig(**small, selection="proportional"))
    # the breeding paths: an odd population leaves the last pair's second
    # child undrawn; crossover always and mutation never; a lone ri gene
    # crosses over by arithmetic blend
    cases["ea_ri/odd_k3"] = run_ea(
        week, SALARY, STAFFING, EAConfig(population_size=31, generations=15, tournament_k=3, seed=6))
    cases["ea_bg/cross_only"] = run_ea(
        week, SALARY, STAFFING,
        EAConfig(**small, encoding="bg", crossover_rate=1.0, mutation_rate=0.0, seed=7))
    one_job = random_micro_instance(np.random.default_rng(1), n_jobs=1)
    cases["ea_ri/one_job"] = run_ea(one_job, SALARY, ROSTER, EAConfig(**small, seed=8))
    roster_cfg = EAConfig(population_size=20, generations=10, encoding="bg", seed=3)
    cases["roster/single"] = solve_assignment(NINE, week, ROSTER, roster_cfg)
    cases["roster/multi"] = solve_assignment(
        NINE, multi, ROSTER & parse_constraint_string("o1"), roster_cfg)
    cases["roster/odd"] = solve_assignment(
        NINE, week, ROSTER, EAConfig(population_size=21, generations=10, encoding="bg", seed=9))
    cases["moea"] = run_moea(week, TRADE_OFF, ROSTER, EAConfig(population_size=30, generations=15))
    cases["moea_bg"] = run_moea(
        week, TRADE_OFF, ROSTER, EAConfig(population_size=30, generations=15, encoding="bg"))
    for seed in range(1, 10):
        cases[f"moea/{seed}"] = run_moea(
            week, TRADE_OFF, ROSTER, EAConfig(population_size=30, generations=15, seed=seed))
    # the workload's scale: 40 generations of archive evictions and
    # ranking over several fronts
    cases["moea/60x40"] = run_moea(
        week, TRADE_OFF, ROSTER, EAConfig(population_size=60, generations=40, seed=4))
    cases["moea/31x10"] = run_moea(
        week, TRADE_OFF, ROSTER, EAConfig(population_size=31, generations=10, seed=10))
    # a generated instance: few distinct staffings, so the pool holds
    # many duplicates and ties, and its fronts are cut in many places
    cases["moea/random_micro_bg_40x20"] = run_moea(
        random_micro_instance(np.random.default_rng(4), n_jobs=4), TRADE_OFF, ROSTER,
        EAConfig(population_size=40, generations=20, encoding="bg", seed=11))
    frac = fractional_week()
    cases["frac/ea_ri"] = run_ea(frac, SALARY, STAFFING, EAConfig(**small, seed=2))
    cases["frac/ea_bg"] = run_ea(frac, SALARY, STAFFING, EAConfig(**small, encoding="bg", seed=2))
    cases["frac/ea_barrier"] = run_ea(
        frac, SALARY, STAFFING, EAConfig(**small, penalty=PenaltyConfig(method="internal"), seed=2))
    cases["frac/pso"] = pso_solve(
        frac, SALARY, STAFFING, PSOConfig(swarm_size=20, iterations=30, seed=2))
    cases["frac/sa"] = sa_solve(frac, SALARY, STAFFING, SAConfig(seed=2))
    cases["frac/ip"] = ip_solve(frac, SALARY, STAFFING)
    cases["frac/moea"] = run_moea(
        frac, TRADE_OFF, ROSTER, EAConfig(population_size=30, generations=15, seed=2))
    cases["frac/moea_bg_60x40"] = run_moea(
        frac, TRADE_OFF, ROSTER,
        EAConfig(population_size=60, generations=40, encoding="bg", seed=5))
    cases["frac/roster/single"] = solve_assignment(NINE, frac, ROSTER, roster_cfg)
    cases["frac/roster/multi"] = solve_assignment(
        NINE, dataclasses.replace(frac, multi_shift=True), ROSTER & parse_constraint_string("o1"),
        roster_cfg)
    return {name: _plain(result) for name, result in cases.items()}


def test_seeded_results_match_golden_file():
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    got = snapshot()
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], f"{name} differs from {GOLDEN}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    rows = [f"{json.dumps(name)}: {json.dumps(result, sort_keys=True)}"
            for name, result in sorted(snapshot().items())]
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
