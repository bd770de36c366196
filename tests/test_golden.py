"""Golden outputs: seeded solver results must stay bit-for-bit identical.

``golden.json`` holds the results of small seeded runs of every solver on
the reference week.  Floats are stored with ``float.hex`` so that any
change in the last bit shows; trace ``millis`` (wall time) is left out.
A change that alters these results on purpose regenerates the file with
``python tests/test_golden.py --write`` and says why in CHANGES.md.
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
from manpower.instances import reference_instance

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SALARY = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),))
TRADE_OFF = ObjectiveBundle((
    Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),
    Objective(ObjectiveKind.TOTAL_TIME, Direction.MAXIMIZE),
))
STAFFING = parse_constraint_string("k1&k2&k3&k4&k5&k6&y1&y2")
ROSTER = parse_constraint_string("k1&k2&k3&k4&k5&k6")
NINE = HeadcountVector((1, 2, 1, 2, 1, 2))


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
    roster_cfg = EAConfig(population_size=20, generations=10, encoding="bg", seed=3)
    cases["roster/single"] = solve_assignment(NINE, week, ROSTER, roster_cfg)
    cases["roster/multi"] = solve_assignment(
        NINE, multi, ROSTER & parse_constraint_string("o1"), roster_cfg)
    cases["moea"] = run_moea(week, TRADE_OFF, ROSTER, EAConfig(population_size=30, generations=15))
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
