"""Benchmark driver: set-up, the closed request loop, output checks and
metric summaries.  Entered from ``run.py`` once the package is imported.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from manpower import io as mio
from manpower.constraints import parse_constraint_string
from manpower.evolution import EAConfig
from manpower.moea import hypervolume

import checks
import workloads
from tracing import ROOT, Tracer, wrapped_sites

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
SETUP_PROBES = 9
# request_tail_s percentile; fixed so that a slower or faster change is
# compared with its parent at the same point of the distribution
TAIL_PERCENTILE = 90

# name -> (unit, better); measured by untraced runs
END_TO_END = {
    "setup_s": ("s", "lower"),
    "request_p50_s": ("s", "lower"),
    "request_tail_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "objective_mean": ("wage", "lower"),
    "hypervolume_mean": ("share", "higher"),
}
# printed with the end-to-end metrics but not gated: 0 on a healthy run,
# or too coarse (a request is feasible or not) to be steady across seeds
REPORTED = {
    "failed_frac": ("share", "lower"),
    "feasible_frac": ("share", "higher"),
}
REPORTED_PREFIX = "reported: "

# spans reported as calls and self milliseconds per request
LAYER_SPANS = (
    "constraints.violation_expr",
    *(f"constraints.violation_atom.k{i}" for i in range(1, 7)),
    "constraints.boundary_distance",
    "domain.AttendanceTensor.from_day_attendance",
    "objectives.evaluate_bundle",
    "objectives.tensor_salary",
    "evolution.decode",
    "evolution.random_genome",
    "moea.non_dominated_sort",
    "moea.crowding",
    "moea.ParetoArchive.offer",
    "moea.hypervolume",
)
# self milliseconds per request, summed over the named spans
SELF_MS = {
    "evolution.self_ms": ("evolution.run_ea", "evolution.solve_assignment"),
    "moea.self_ms": ("moea.run_moea",),
    "baselines.pso_solve.self_ms": ("baselines.pso_solve",),
    "baselines.sa_solve.self_ms": ("baselines.sa_solve",),
    "baselines.ip_solve.self_ms": ("baselines.ip_solve",),
    "io.load_instance.ms": ("io.load_instance",),
    "io.write.ms": ("io.write",),
    "constraints.parse_constraint_string.ms": ("constraints.parse_constraint_string",),
    "request.unspanned_ms": (ROOT,),
}
PER_LAYER = {
    **{f"{n}.{k}": u for n in LAYER_SPANS for k, u in (("calls", ("count", "lower")),
                                                        ("ms", ("ms", "lower")))},
    **{n: ("ms", "lower") for n in SELF_MS},
    "evolution.init_accept_ratio.ea_barrier": ("ratio", "higher"),
    "evolution.distinct_ratio": ("ratio", "lower"),
    "evolution.distinct_ratio.ea_ri": ("ratio", "lower"),
    "baselines.ip_solve.leaves": ("count", "lower"),
    "moea.archive_accept_ratio": ("ratio", "higher"),
    "moea.archive_size": ("count", "higher"),
    "io.bytes_written": ("bytes", "lower"),
    "import.ms": ("ms", "lower"),
    "request.ms": ("ms", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, work_dir: str, t0: float):
    """Build the workload's instance and write its file; returns
    (instance, path, seconds since ``t0``)."""
    inst = workloads.workload_instance(workload, seed)
    path = os.path.join(work_dir, "instance.json")
    mio.save_instance(inst, path)
    return inst, path, time.perf_counter() - t0


def probe_setups(args, work_dir: str) -> list[float]:
    """Set-up times of fresh interpreters doing the same set-up."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, f"probe{i}")
        os.makedirs(probe_dir)
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe", probe_dir],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# the request loop


@dataclass
class Record:
    request: workloads.Request
    outcome: workloads.Outcome | None
    wall: float
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0


def same_result(a, b) -> bool:
    """Traced and untraced runs of one request must agree; the search
    trace is left out because it carries wall-clock times."""
    if hasattr(a, "archive"):
        return (a.archive, a.evaluations) == (b.archive, b.evaluations)
    solution = "tensor" if hasattr(a, "tensor") else "counts"
    return getattr(a, solution) == getattr(b, solution) and (
        a.value, a.feasible, a.violation, a.evaluations) == (
        b.value, b.feasible, b.violation, b.evaluations)


class Run:
    """One client sending request cycles; every output is checked after
    its cycle, outside the timed region."""

    def __init__(self, workload: str, seed: int, inst, instance_path: str, out_dir: str):
        self.workload, self.seed, self.inst = workload, seed, inst
        self.instance_path, self.out_dir = instance_path, out_dir
        self.expr = parse_constraint_string(workloads.CONSTRAINTS)
        self.records: list[Record] = []

    def plain(self, req):
        return workloads.execute(req, self.instance_path, self.out_dir)

    def check(self, outcome) -> list[str]:
        req, result = outcome.request, outcome.result
        if self.workload == "roster":
            return checks.check_roster(result, self.inst, self.expr, req.staff, outcome.out_path)
        if self.workload == "pareto":
            return checks.check_pareto(result, self.inst, self.expr, workloads.SALARY_VS_HOURS,
                                       outcome.out_path)
        return checks.check_staffing(result, self.inst, self.expr, workloads.SALARY, outcome.out_path)

    def send(self, batch, runner) -> list[Record]:
        done = []
        for req in batch:
            t0 = time.perf_counter()
            try:
                record = Record(req, runner(req), 0.0)
            except Exception as exc:  # a failed request is counted, not fatal
                record = Record(req, None, 0.0, [f"raised {type(exc).__name__}: {exc}"])
            record.wall = time.perf_counter() - t0
            if record.outcome is not None:
                record.bytes_written = os.path.getsize(record.outcome.out_path)
                record.problems += self.check(record.outcome)
            done.append(record)
        values = {r.request.kind: (r.outcome.result.value, r.outcome.result.feasible)
                  for r in done if r.outcome is not None and r.request.kind in workloads.STAFFING_CONFIGS}
        for r in done:
            if r.request.kind == "ip":
                r.problems += checks.check_exact_bound(values)
        self.records += done
        return done

    def untraced(self, seconds: float) -> list[list[Record]]:
        """Whole request cycles until ``seconds`` have passed."""
        done = []
        deadline = time.perf_counter() + seconds
        for batch in workloads.cycles(self.workload, self.seed, self.inst):
            done.append(self.send(batch, self.plain))
            if time.perf_counter() >= deadline:
                return done

    def traced(self, tracer: Tracer, seconds: float) -> tuple[list[Record], list[Record]]:
        """Each cycle runs traced, then again untraced for the overhead."""
        def run_traced(req):
            return tracer.run(req.index, req.kind, workloads.execute, req,
                              self.instance_path, self.out_dir, tracer.call)

        traced, plain = [], []
        deadline = time.perf_counter() + seconds
        for batch in workloads.cycles(self.workload, self.seed, self.inst):
            t = self.send(batch, run_traced)
            if wrapped_sites():
                t[-1].problems.append(f"left wrapped: {', '.join(wrapped_sites())}")
            u = self.send(batch, self.plain)
            for a, b in zip(t, u):
                if a.outcome and b.outcome and not same_result(a.outcome.result, b.outcome.result):
                    b.problems.append("traced and untraced results differ")
            traced += t
            plain += u
            if time.perf_counter() >= deadline:
                return traced, plain


# ---------------------------------------------------------------------------
# summaries


def tail(walls: list[float]) -> float:
    """Request wall time at :data:`TAIL_PERCENTILE`, interpolated between
    the two nearest requests (``statistics.quantiles``, inclusive)."""
    if len(walls) < 2:
        return walls[0]
    return statistics.quantiles(walls, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def quality(workload: str, outcome, inst) -> tuple[float, float, bool]:
    """(wage bill, hypervolume share, feasible) of one result.

    The wage bill of a trade-off is its cheapest archive entry.  The
    hypervolume is taken with ``moea.hypervolume`` against the dearest
    corner of the request's reference box and divided by the box's
    volume, so it is the share of the box the result dominates."""
    ideal, ref = workloads.reference_box(workload, inst, outcome.request)
    box = math.prod(r - i for r, i in zip(ref, ideal))
    result = outcome.result
    if workload == "pareto":
        points = [e.objectives for e in result.archive]
        return min(p[0] for p in points), hypervolume(points, ref) / box, True
    return result.value, hypervolume([(result.value,)], ref) / box, result.feasible


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def end_to_end(workload: str, cycles: list[list[Record]], inst, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.

    The median is taken over each cycle's median request time: a
    ``staffing`` cycle mixes solver configs whose times differ a
    thousandfold, and the plain median would fall in the gap between two
    configs and follow the slowest request of one of them.  With one
    request per cycle this is the plain median."""
    records = [r for cycle in cycles for r in cycle]
    walls = [r.wall for r in records]
    ok = [quality(workload, r.outcome, inst) for r in records if not r.problems]
    evaluations = sum(r.outcome.result.evaluations for r in records if r.outcome is not None)
    metrics = {
        "setup_s": setup_s,
        "request_p50_s": statistics.median(statistics.median(r.wall for r in c) for c in cycles),
        "request_tail_s": tail(walls),
        "evals_per_s": evaluations / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "objective_mean": _mean(q[0] for q in ok),
        "hypervolume_mean": _mean(q[1] for q in ok),
    }
    reported = {
        "failed_frac": sum(1 for r in records if r.problems) / len(records),
        "feasible_frac": _mean(float(q[2]) for q in ok),
    }
    return metrics, {**reported, "tail_percentile": TAIL_PERCENTILE, "requests": len(walls)}


def per_layer(tracer: Tracer, traced: list[Record], plain: list[Record], import_s: float) -> dict:
    n = len(traced)
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_ms(*names):
        return sum(totals.get(s, (0, 0.0))[1] for s in names) * 1e3 / n

    m = {}
    for name in LAYER_SPANS:
        m[f"{name}.calls"] = calls(name) / n
        m[f"{name}.ms"] = self_ms(name)
    for metric, names in SELF_MS.items():
        m[metric] = self_ms(*names)
    # only the barrier rejects initial genomes; every other solver keeps all it samples
    sampled = tracer.calls_in("evolution.random_genome", "ea_barrier")
    kept = EAConfig().population_size * sum(1 for r in traced if r.request.kind == "ea_barrier")
    counters = tracer.counters
    evaluated = sum(v for k, v in counters.items() if k.startswith("evaluated."))
    distinct = sum(v for k, v in counters.items() if k.startswith("distinct."))
    offers = calls("moea.ParetoArchive.offer")
    ip = [r.outcome.result.evaluations for r in traced if r.outcome and r.request.kind == "ip"]
    archives = [len(r.outcome.result.archive) for r in traced if r.outcome and r.request.kind == "pareto"]
    m.update({
        "evolution.init_accept_ratio.ea_barrier": kept / sampled if sampled else 0.0,
        "evolution.distinct_ratio": distinct / evaluated if evaluated else 0.0,
        "evolution.distinct_ratio.ea_ri": (counters["distinct.ea_ri"] / counters["evaluated.ea_ri"]
                                           if counters["evaluated.ea_ri"] else 0.0),
        "baselines.ip_solve.leaves": _mean(ip),
        "moea.archive_accept_ratio": counters["moea.archive_accepted"] / offers if offers else 0.0,
        "moea.archive_size": _mean(archives),
        "io.bytes_written": _mean(r.bytes_written for r in traced),
        "import.ms": import_s * 1e3,
        "request.ms": _mean(r.wall for r in traced) * 1e3,
        "trace_overhead_pct": (sum(r.wall for r in traced) / sum(r.wall for r in plain) - 1) * 100,
    })
    return m


def print_rows(rows: dict[str, dict], units: dict[str, tuple[str, str]]) -> None:
    """One row per workload, one column per metric, headed by the
    metric's name, unit and better direction."""
    names = list(units)
    width = {n: max(len(n), 12) for n in names}
    label = max([8] + [len(w) for w in rows])
    print("metric".ljust(label), *(n.rjust(width[n]) for n in names))
    print("unit".ljust(label), *(units[n][0].rjust(width[n]) for n in names))
    print("better".ljust(label), *(units[n][1].rjust(width[n]) for n in names))
    for workload, values in rows.items():
        print(workload.ljust(label), *(f"{values[n]:.6g}".rjust(width[n]) for n in names))


def print_layers(values: dict[str, float]) -> None:
    """One line per per-layer metric; self times also as a share of the
    traced request time."""
    total = values["request.ms"]
    for name, (unit, better) in PER_LAYER.items():
        share = (f"{100 * values[name] / total:6.2f}% of request"
                 if unit == "ms" and name not in ("request.ms", "import.ms") else "")
        print(f"{name:52s} {values[name]:14.6g} {unit:6s} {better:6s} {share}")


def result_line(correct: bool, records: list[Record], metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "metrics": {n: {"value": metrics[n], "unit": units[n][0]} for n in units},
    })


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process; one table row per workload."""
    rows, results = {}, {}
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            print(out.stdout + out.stderr, file=sys.stderr)
            return out.returncode
        lines = out.stdout.splitlines()
        results[workload] = json.loads(lines[-1])
        rows[workload] = {k: v["value"] for k, v in results[workload]["metrics"].items()}
        for line in lines:
            if line.startswith(REPORTED_PREFIX):
                rows[workload].update(json.loads(line[len(REPORTED_PREFIX):]))
    if args.trace:
        for workload, values in rows.items():
            print(f"== {workload}")
            print_layers(values)
    else:
        print_rows(rows, {**END_TO_END, **REPORTED})
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(args, t0: float, import_s: float) -> int:
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        *_, setup_s = setup(args.workload, args.seed, args.setup_probe, t0)
        print(repr(setup_s))
        return 0
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        inst, instance_path, own_setup = setup(args.workload, args.seed, work_dir, t0)
        run = Run(args.workload, args.seed, inst, instance_path, work_dir)
        if wrapped_sites():
            raise RuntimeError(f"package functions wrapped before the run: {wrapped_sites()}")
        if args.trace:
            tracer = Tracer()
            traced, plain = run.traced(tracer, args.seconds)
            values = per_layer(tracer, traced, plain, import_s)
            spans_path = os.path.join(WORK, f"spans-{args.workload}.jsonl.gz")
            n_spans = tracer.write_jsonl(spans_path)
            print(f"workload {args.workload}: {len(traced)} traced requests, "
                  f"{n_spans} spans written to {os.path.relpath(spans_path)}")
            print_layers(values)
            units = PER_LAYER
        else:
            setup_s = statistics.median([own_setup] + probe_setups(args, work_dir))
            values, extra = end_to_end(args.workload, run.untraced(args.seconds), inst, setup_s)
            print(f"workload {args.workload}: {extra['requests']} requests, "
                  f"tail = p{extra['tail_percentile']}")
            print(REPORTED_PREFIX + json.dumps(extra))
            print_rows({args.workload: {**values, **extra}}, {**END_TO_END, **REPORTED})
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [f"request {r.request.index} ({r.request.kind}): {p}"
              for r in run.records for p in r.problems]
    for line in failed[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(result_line(not failed, run.records, values, units))
    return 0
