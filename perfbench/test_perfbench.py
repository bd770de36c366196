"""Tests of the benchmark itself: output checks, generated inputs and
tracing hygiene.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os

import numpy as np
import pytest

import checks
import driver
import workloads
from manpower import constraints, evolution, io as mio, moea
from manpower.constraints import atom, eval_atom, parse_constraint_string, violation_expr
from manpower.domain import AttendanceTensor, HeadcountVector
from manpower.evolution import EAConfig, solve_assignment
from manpower.instances import reference_instance
from manpower.moea import ArchiveEntry
from tracing import ROOT, VIOLATION, Tracer, _lookup, _patch_sites, wrapped_sites


@pytest.fixture
def staffing_run(tmp_path):
    inst = workloads.workload_instance("staffing", 0)
    path = str(tmp_path / "instance.json")
    mio.save_instance(inst, path)
    return driver.Run("staffing", 0, inst, path, str(tmp_path))


def _request(kind, index=0, staff=None):
    return workloads.Request(index, kind, 7, staff)


def _corrupt(run, outcome, **changes):
    """Send a request whose runner returns ``outcome`` with ``changes``
    applied to its result; returns the checked record."""
    bad = dataclasses.replace(outcome, result=dataclasses.replace(outcome.result, **changes))
    (record,) = run.send([outcome.request], lambda req: bad)
    return record


# ---------------------------------------------------------------------------
# output checks


def test_staffing_checker_counts_each_corruption_as_a_failure(staffing_run):
    good = staffing_run.plain(_request("ip"))
    (record,) = staffing_run.send([good.request], lambda req: good)
    assert record.problems == []

    result = good.result
    corrupted = [
        _corrupt(staffing_run, good, value=result.value + 1.0),
        _corrupt(staffing_run, good, feasible=False),
        _corrupt(staffing_run, good, violation=2.0),
        _corrupt(staffing_run, good, counts=HeadcountVector((0,) * 6)),
        _corrupt(staffing_run, good, counts=HeadcountVector((2, 3, 2, 3, 2, 3))),  # CSV disagrees
    ]
    assert all(r.problems for r in corrupted)
    assert sum(1 for r in staffing_run.records if r.problems) == len(corrupted)


def test_exact_bound_flags_a_heuristic_beating_the_exact_solver():
    assert checks.check_exact_bound({"ip": (3528.0, True), "sa": (3528.0, True)}) == []
    assert checks.check_exact_bound({"ip": (3528.0, True), "sa": (3000.0, False)}) == []
    assert checks.check_exact_bound({"ip": (3528.0, True), "pso": (3500.0, True)})


def test_a_raising_request_is_a_failure(staffing_run):
    def boom(req):
        raise ValueError("solver blew up")

    (record,) = staffing_run.send([_request("ip")], boom)
    assert record.outcome is None and "ValueError" in record.problems[0]


def test_roster_checker_counts_each_corruption_as_a_failure(tmp_path):
    inst = reference_instance()
    path = str(tmp_path / "instance.json")
    mio.save_instance(inst, path)
    run = driver.Run("roster", 0, inst, path, str(tmp_path))
    staff = (2, 6, 3, 4, 3, 2)
    cfg = EAConfig(population_size=4, generations=1, encoding="bg", seed=3)
    result = solve_assignment(HeadcountVector(staff), inst, parse_constraint_string(workloads.CONSTRAINTS), cfg)
    out = str(tmp_path / "roster.csv")
    mio.write_tensor_csv(result.tensor, inst, out)
    good = workloads.Outcome(_request("roster", staff=staff), result, out)
    (record,) = run.send([good.request], lambda req: good)
    assert record.problems == []

    other = AttendanceTensor.from_day_attendance(
        np.zeros_like(result.tensor.day_attendance()), result.tensor.job_of_employee, inst.n_jobs)
    corrupted = [
        _corrupt(run, good, value=result.value + 1.0),
        _corrupt(run, good, feasible=not result.feasible),
        _corrupt(run, good, violation=result.violation + 1.0),
        _corrupt(run, good, tensor=other),                       # CSV disagrees
    ]
    wrong_staff = dataclasses.replace(good, request=_request("roster", staff=(3, 5, 3, 4, 3, 2)))
    corrupted += run.send([wrong_staff.request], lambda req: wrong_staff)
    assert all(r.problems for r in corrupted)


run_bundle = workloads.SALARY_VS_HOURS


def _dominated_neighbour(entry, inst, expr):
    """A feasible staffing, with its true objectives, that ``entry``
    dominates: one person moved to a job that pays more and works less."""
    for j, k in itertools.permutations(range(inst.n_jobs), 2):
        counts = list(entry.counts.counts)
        counts[j] += 1
        counts[k] -= 1
        moved = HeadcountVector(tuple(max(0, c) for c in counts))
        objs = moea.evaluate_bundle(run_bundle, moved, None, inst)
        worse = all(a <= b for a, b in zip(entry.objectives, objs)) and entry.objectives != objs
        if worse and violation_expr(expr, None, moved, inst) == 0:
            return ArchiveEntry(moved, objs)
    raise AssertionError("no dominated neighbour")


def test_pareto_checker_counts_each_corruption_as_a_failure(tmp_path):
    inst = workloads.scaled_instance(5)
    path = str(tmp_path / "instance.json")
    mio.save_instance(inst, path)
    run = driver.Run("pareto", 5, inst, path, str(tmp_path))
    result = moea.run_moea(inst, run_bundle, run.expr,
                           EAConfig(population_size=12, generations=6, seed=1))
    assert len(result.archive) >= 2
    out = str(tmp_path / "archive.csv")

    def outcome(archive):
        mio.write_archive_csv(archive, inst, ["salary", "-total_time"], out)
        return workloads.Outcome(_request("pareto"), dataclasses.replace(result, archive=archive), out)

    assert run.check(outcome(result.archive)) == []
    first = result.archive[0]
    low = HeadcountVector(tuple(j.headcount_min for j in inst.jobs))    # violates k3
    shifted = ArchiveEntry(first.counts, (first.objectives[0] + 1.0, first.objectives[1] + 1.0))
    bad_archives = [
        (),
        result.archive + (shifted,),
        (ArchiveEntry(first.counts, (first.objectives[0] - 5.0, first.objectives[1])),) + result.archive[1:],
        result.archive + (ArchiveEntry(low, moea.evaluate_bundle(run_bundle, low, None, inst)),),
        result.archive + (_dominated_neighbour(first, inst, run.expr),),
    ]
    for archive in bad_archives:
        assert run.check(outcome(archive)), archive
    good = outcome(result.archive)
    stale = dataclasses.replace(good, result=dataclasses.replace(result, archive=result.archive[1:]))
    assert run.check(stale)                                    # CSV disagrees


# ---------------------------------------------------------------------------
# generated inputs


def test_scaled_instance_is_deterministic_and_seed_dependent():
    a, b = workloads.scaled_instance(3), workloads.scaled_instance(3)
    assert a == b
    assert workloads.scaled_instance(4) != a
    assert (a.n_jobs, a.horizon_days) == (16, 28)


@pytest.mark.parametrize("seed", range(5))
def test_scaled_instance_lower_corner_violates_k3(seed):
    inst = workloads.scaled_instance(seed)
    low, _ = workloads.box_corners(inst)
    assert not eval_atom(atom("k3").constraint, None, low, inst)
    assert violation_expr(atom("k3"), None, low, inst) > 0


def _first_requests(workload, seed, n):
    inst = workloads.workload_instance(workload, seed)
    out = []
    for batch in workloads.cycles(workload, seed, inst):
        out += batch
        if len(out) >= n:
            return out[:n]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_inputs_come_from_the_workload_seed(workload):
    assert _first_requests(workload, 11, 8) == _first_requests(workload, 11, 8)
    assert _first_requests(workload, 11, 8) != _first_requests(workload, 12, 8)


def test_roster_staff_is_drawn_inside_the_box():
    inst = reference_instance()
    for req in _first_requests("roster", 2, 30):
        lo, hi = workloads.ROSTER_STAFF
        assert lo <= sum(req.staff) <= hi
        assert all(a <= c <= b for c, (a, b) in zip(req.staff, inst.headcount_bounds()))


def test_staffing_cycle_holds_every_config():
    kinds = [r.kind for r in _first_requests("staffing", 0, 12)]
    assert kinds == list(workloads.STAFFING_CONFIGS) * 2


# ---------------------------------------------------------------------------
# tracing hygiene


def _originals():
    return {(owner, attr): _lookup(owner, attr) for owner, attr, _ in _patch_sites()}


def test_wrapped_sites_are_restored_even_when_a_request_raises():
    before = _originals()
    tracer = Tracer()
    assert wrapped_sites() == []

    def failing():
        assert wrapped_sites()
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.run(0, "ip", failing)
    assert wrapped_sites() == []
    assert _originals() == before
    assert all(before[k] is v for k, v in _originals().items())


def test_recursive_violation_expr_counts_once_per_outermost_call():
    inst = reference_instance()
    expr = parse_constraint_string("k1&(k2|!k3)&(k4|k5)&k6")
    hc = HeadcountVector((1, 2, 1, 2, 1, 2))
    tracer = Tracer()

    def three_calls():
        for fn in (evolution.violation_expr, moea.violation_expr, constraints.violation_expr):
            fn(expr, None, hc, inst)

    tracer.run(0, "test", three_calls)
    totals = tracer.totals()
    assert totals[VIOLATION][0] == 3
    assert totals["constraints.violation_atom.k1"][0] == 3
    assert tracer.counters["evaluated.test"] == 3
    assert tracer.counters["distinct.test"] == 1


def test_self_times_and_remainder_add_up_to_each_request(staffing_run):
    tracer = Tracer()
    for kind in ("ip", "sa"):
        req = _request(kind, index=len(tracer.roots))
        tracer.run(req.index, kind, workloads.execute, req, staffing_run.instance_path,
                   staffing_run.out_dir, tracer.call)
    own = tracer.self_times()
    bounds = [r[0] for r in tracer.roots] + [len(tracer.start)]
    for first, stop in zip(bounds, bounds[1:]):
        assert tracer.names[tracer.name[first]] == ROOT
        root = tracer.end[first] - tracer.start[first]
        assert math.isclose(sum(own[first:stop]), root, rel_tol=1e-9)
        for idx in range(first + 1, stop):
            p = tracer.parent[idx]
            assert first <= p < idx
            assert tracer.start[p] <= tracer.start[idx] <= tracer.end[idx] <= tracer.end[p]
            assert own[idx] >= -1e-9


def test_traced_and_untraced_results_agree(staffing_run):
    tracer = Tracer()
    traced, plain = staffing_run.traced(tracer, seconds=0.0)
    assert len(traced) == len(plain) == len(workloads.STAFFING_CONFIGS)
    assert all(not r.problems for r in traced + plain)
    assert wrapped_sites() == []
    for a, b in zip(traced, plain):
        assert driver.same_result(a.outcome.result, b.outcome.result)


# ---------------------------------------------------------------------------
# summaries


@pytest.mark.parametrize("n", [2, 5, 20, 25, 100, 1000])
def test_tail_is_the_fixed_percentile_whatever_the_request_count(n):
    walls = [float(i) for i in range(n)]
    assert math.isclose(driver.tail(walls), (n - 1) * driver.TAIL_PERCENTILE / 100)
    assert driver.tail([1.5]) == 1.5


def test_span_calls_are_counted_per_request_kind():
    tracer = Tracer()
    for index, (kind, n) in enumerate((("ea_barrier", 3), ("ea_ri", 5), ("ea_barrier", 2))):
        tracer.run(index, kind, lambda n=n: [tracer.call("x", int) for _ in range(n)])
    assert tracer.calls_in("x", "ea_barrier") == 5
    assert tracer.calls_in("x", "ea_ri") == 5
    assert tracer.calls_in("x", "sa") == 0
    assert tracer.calls_in("y", "ea_barrier") == 0


def test_benchmark_json_lists_the_metrics_the_driver_prints():
    with open(os.path.join(os.path.dirname(driver.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == driver.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == driver.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
