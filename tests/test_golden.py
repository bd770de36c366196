"""Golden outputs: seeded solver results must stay bit-for-bit identical.

``golden.json`` holds the results of small seeded runs of every solver on
the reference week.  Floats are stored with ``float.hex`` so that any
change in the last bit shows; trace ``millis`` (wall time) is left out.
A change that alters these results on purpose regenerates the file with
``python tests/test_golden.py --write`` and says why in CHANGES.md.

``python tests/test_golden.py --digest N`` prints one SHA-256 per solver
config of :func:`configs` over the golden forms of seeds 0..N-1, so
"byte-identical over N seeds" is the same output from two checkouts.

The ``frac/*`` cases run on a copy of the week with non-integer wages and
shift hours, where summing the jobs, or a roster's bits, in another
order changes the last bits of a wage bill or an hour total.
"""

import dataclasses
import hashlib
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
# a staff of the size perfbench's roster requests draw (36 to 44)
FORTY = HeadcountVector((5, 10, 6, 9, 6, 4))
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


def configs() -> dict:
    """Every seeded solver config of the golden file and the digests, by
    name, as a function of the seed (``ip`` ones ignore it)."""
    week = reference_instance()
    multi = reference_instance(multi_shift=True)
    frac = fractional_week()
    one_job = random_micro_instance(np.random.default_rng(1), n_jobs=1)
    micro4 = random_micro_instance(np.random.default_rng(4), n_jobs=4)
    small = dict(population_size=30, generations=15)
    barrier = PenaltyConfig(method="internal")
    roster = dict(population_size=20, generations=10, encoding="bg")
    o1 = ROSTER & parse_constraint_string("o1")

    def ea(inst, **kw):
        return lambda seed: run_ea(inst, SALARY, STAFFING, EAConfig(**kw, seed=seed))

    def moea(inst, **kw):
        return lambda seed: run_moea(inst, TRADE_OFF, ROSTER, EAConfig(**kw, seed=seed))

    def assign(inst, expr, staff=NINE, **kw):
        return lambda seed: solve_assignment(staff, inst, expr, EAConfig(**kw, seed=seed))

    return {
        "ea_ri": ea(week, **small),
        "ea_bg": ea(week, **small, encoding="bg"),
        "ea_barrier": ea(week, **small, penalty=barrier),
        "pso": lambda seed: pso_solve(week, SALARY, STAFFING, PSOConfig(swarm_size=20, iterations=30, seed=seed)),
        "sa": lambda seed: sa_solve(week, SALARY, STAFFING, SAConfig(seed=seed)),
        "ip": lambda seed: ip_solve(week, SALARY, STAFFING),
        "ip/non_monotone": lambda seed: ip_solve(micro_instance(), LONGEST, NON_MONOTONE),
        "ea_proportional": ea(week, **small, selection="proportional"),
        # the breeding paths: an odd population leaves the last pair's second
        # child undrawn; crossover always and mutation never; a lone ri gene
        # crosses over by arithmetic blend
        "ea_ri/odd_k3": ea(week, population_size=31, generations=15, tournament_k=3),
        "ea_bg/cross_only": ea(week, **small, encoding="bg", crossover_rate=1.0, mutation_rate=0.0),
        "ea_ri/one_job": lambda seed: run_ea(one_job, SALARY, ROSTER, EAConfig(**small, seed=seed)),
        "roster/single": assign(week, ROSTER, **roster),
        "roster/multi": assign(multi, o1, **roster),
        "roster/odd": assign(week, ROSTER, population_size=21, generations=10, encoding="bg"),
        "moea": moea(week, **small),
        "moea_bg": moea(week, **small, encoding="bg"),
        # the workload's scale: 40 generations of archive evictions and
        # ranking over several fronts
        "moea/60x40": moea(week, population_size=60, generations=40),
        "moea/31x10": moea(week, population_size=31, generations=10),
        # a generated instance: few distinct staffings, so the pool holds
        # many duplicates and ties, and its fronts are cut in many places
        "moea/random_micro_bg_40x20": lambda seed: run_moea(
            micro4, TRADE_OFF, ROSTER, EAConfig(population_size=40, generations=20, encoding="bg", seed=seed)),
        "frac/ea_ri": ea(frac, **small),
        "frac/ea_bg": ea(frac, **small, encoding="bg"),
        "frac/ea_barrier": ea(frac, **small, penalty=barrier),
        "frac/pso": lambda seed: pso_solve(frac, SALARY, STAFFING, PSOConfig(swarm_size=20, iterations=30, seed=seed)),
        "frac/sa": lambda seed: sa_solve(frac, SALARY, STAFFING, SAConfig(seed=seed)),
        "frac/ip": lambda seed: ip_solve(frac, SALARY, STAFFING),
        "frac/moea": moea(frac, **small),
        "frac/moea_bg_60x40": moea(frac, population_size=60, generations=40, encoding="bg"),
        "frac/roster/single": assign(frac, ROSTER, **roster),
        "frac/roster/multi": assign(dataclasses.replace(frac, multi_shift=True), o1, **roster),
        # digests only: the default configs and a workload-sized staff
        "ea_ri/100x50": ea(week),
        "ea_bg/100x50": ea(week, encoding="bg"),
        "ea_barrier/100x50": ea(week, penalty=barrier),
        "roster/40_staff": assign(week, ROSTER, staff=FORTY, **roster),
    }


# golden case: (config, seed)
GOLDEN_CASES = {
    **{f"{name}/{seed}": (name, seed)
       for seed in (0, 1) for name in ("ea_ri", "ea_bg", "ea_barrier", "pso", "sa", "ip")},
    "ip/non_monotone": ("ip/non_monotone", 0),
    "ea_proportional": ("ea_proportional", 0),
    "ea_ri/odd_k3": ("ea_ri/odd_k3", 6),
    "ea_bg/cross_only": ("ea_bg/cross_only", 7),
    "ea_ri/one_job": ("ea_ri/one_job", 8),
    "roster/single": ("roster/single", 3),
    "roster/multi": ("roster/multi", 3),
    "roster/odd": ("roster/odd", 9),
    "moea": ("moea", 0),
    "moea_bg": ("moea_bg", 0),
    **{f"moea/{seed}": ("moea", seed) for seed in range(1, 10)},
    "moea/60x40": ("moea/60x40", 4),
    "moea/31x10": ("moea/31x10", 10),
    "moea/random_micro_bg_40x20": ("moea/random_micro_bg_40x20", 11),
    **{f"frac/{name}": (f"frac/{name}", 2) for name in ("ea_ri", "ea_bg", "ea_barrier", "pso", "sa", "ip", "moea")},
    "frac/moea_bg_60x40": ("frac/moea_bg_60x40", 5),
    "frac/roster/single": ("frac/roster/single", 3),
    "frac/roster/multi": ("frac/roster/multi", 3),
}


def snapshot() -> dict:
    run = configs()
    return {name: _plain(run[config](seed)) for name, (config, seed) in GOLDEN_CASES.items()}


def digests(seeds: int) -> dict[str, str]:
    """One SHA-256 per config over its golden forms at seeds 0..seeds-1."""
    out = {}
    for name, run in configs().items():
        form = json.dumps([_plain(run(seed)) for seed in range(seeds)], sort_keys=True)
        out[name] = hashlib.sha256(form.encode()).hexdigest()
    return out


def test_seeded_results_match_golden_file():
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    got = snapshot()
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], f"{name} differs from {GOLDEN}"


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        rows = [f"{json.dumps(name)}: {json.dumps(result, sort_keys=True)}"
                for name, result in sorted(snapshot().items())]
        with open(GOLDEN, "w") as fh:
            fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    elif len(args) == 2 and args[0] == "--digest" and args[1].isdigit():
        for name, digest in digests(int(args[1])).items():
            print(f"{digest}  {name}")
    else:
        sys.exit("usage: python tests/test_golden.py --write | --digest N")
