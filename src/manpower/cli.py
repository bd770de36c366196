"""Command-line front end.

Subcommands: ``solve`` (staffing), ``pareto`` (two-or-more-objective
staffing), ``assign`` (roster for a fixed staff), ``table`` (duty
tables), ``bench`` (canned experiments), ``validate`` (instance files
and constraint strings).

Exit codes: 0 success, 1 no feasible solution, 2 bad usage or
configuration, 3 internal error.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from typing import Optional, Sequence

from . import io as mio
from .baselines import PSOConfig, SAConfig, ip_solve, pso_solve, sa_solve
from .bench import EXPERIMENT_IDS, run_experiment, write_report
from .constraints import headcount_kernel, parse_constraint_string
from .domain import HeadcountVector
from .errors import (
    ConfigurationError,
    InfeasibleError,
    MetricError,
    ParseError,
    SearchSpaceError,
    StructuralError,
    TableGenerationError,
)
from .evolution import EAConfig, PenaltyConfig, run_ea, solve_assignment
from .moea import run_moea
from .objectives import ObjectiveBundle, parse_objective_token
from .tablegen import SuitablePolicy, generate_table

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (omitted: drawn fresh and printed)")


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is not None:
        return seed
    drawn = secrets.randbelow(2**31)
    print(f"seed: {drawn} (drawn; pass --seed to reproduce)")
    return drawn


def _constraint_text(text: str) -> str:
    """Inline constraint expression, or ``@path`` to read one from a file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manpower",
        description="Constraint-composable manpower scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimize staffing levels")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--constraints", default="k1&k2&k3&k4&k5&k6",
                   help="constraint expression, e.g. 'k1&k2&(k5|y2)', or @file")
    p.add_argument("--objective", default="salary",
                   help="total_time | salary | salary_ms | headcount:a+b (prefix '-' to flip)")
    p.add_argument("--solver", choices=("ea", "ip", "pso", "sa"), default="ea")
    p.add_argument("--encoding", choices=("ri", "bg"), default="ri")
    p.add_argument("--penalty", choices=("external", "internal"), default="external")
    p.add_argument("--penalty-coefficient", type=float, default=1e4)
    p.add_argument("--population", type=int, default=100)
    p.add_argument("--generations", type=int, default=50)
    p.add_argument("--counts-out", help="write the winning staffing as CSV")
    p.add_argument("--trace-out", help="write the search trace as CSV")
    _add_seed(p)

    p = sub.add_parser("pareto", help="trade off several objectives")
    p.add_argument("--instance", required=True)
    p.add_argument("--constraints", default="k1&k2&k3&k4&k5&k6")
    p.add_argument("--objective", action="append", dest="objective_list", default=[],
                   help="one objective token (repeat the flag for each)")
    p.add_argument("--objectives", default=None,
                   help="comma-separated objective tokens, e.g. 'salary,-total_time'")
    p.add_argument("--population", type=int, default=60)
    p.add_argument("--generations", type=int, default=40)
    p.add_argument("--archive-out", help="write the archive as CSV")
    _add_seed(p)

    p = sub.add_parser("assign", help="evolve a roster for fixed staffing")
    p.add_argument("--instance", required=True)
    p.add_argument("--constraints", default="k1&k2&k3&k4&k5&k6")
    p.add_argument("--counts", required=True, help="comma-separated headcounts, one per job")
    p.add_argument("--population", type=int, default=60)
    p.add_argument("--generations", type=int, default=40)
    p.add_argument("--out", help="write the roster as CSV")
    _add_seed(p)

    p = sub.add_parser("table", help="generate a duty table")
    p.add_argument("--members", required=True,
                   help="member count ('8') or comma-separated names ('ann,bob,cid')")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--per-day", type=int, required=True)
    p.add_argument("--max-assignments", type=int, default=None)
    p.add_argument("--out", help="write the table as CSV")
    _add_seed(p)

    p = sub.add_parser("bench", help="run a canned experiment")
    p.add_argument("--experiment", choices=EXPERIMENT_IDS, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", help="directory for report.json, comparison.csv, and trace CSVs")
    _add_seed(p)

    p = sub.add_parser("validate", help="check an instance file (and optional constraints)")
    p.add_argument("--instance", required=True)
    p.add_argument("--constraints", default=None)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = mio.load_instance(args.instance)
    text = _constraint_text(args.constraints)
    expr = parse_constraint_string(text)
    bundle = ObjectiveBundle((parse_objective_token(args.objective, inst),))
    seed = _resolve_seed(args.seed)
    penalty = PenaltyConfig(method=args.penalty, coefficient=args.penalty_coefficient)
    if args.solver == "ea":
        cfg = EAConfig(
            population_size=args.population,
            generations=args.generations,
            encoding=args.encoding,
            penalty=penalty,
            seed=seed,
        )
        result = run_ea(inst, bundle, expr, cfg)
    elif args.solver == "ip":
        result = ip_solve(inst, bundle, expr)
    elif args.solver == "pso":
        result = pso_solve(inst, bundle, expr, PSOConfig(seed=seed, penalty=penalty))
    else:
        result = sa_solve(inst, bundle, expr, SAConfig(seed=seed, penalty=penalty))

    print(f"solver: {args.solver}  objective: {args.objective}  constraints: {text}")
    print(f"counts: {','.join(str(c) for c in result.counts.counts)}")
    print(f"value: {result.value:g}")
    print(f"feasible: {result.feasible}  violation: {result.violation:g}")
    print(f"evaluations: {result.evaluations}")
    if args.counts_out:
        mio.write_counts_csv(result.counts, inst, args.counts_out)
        print(f"wrote {args.counts_out}")
    if args.trace_out:
        mio.write_trace_csv(result.trace, args.trace_out)
        print(f"wrote {args.trace_out}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _cmd_pareto(args: argparse.Namespace) -> int:
    inst = mio.load_instance(args.instance)
    text = _constraint_text(args.constraints)
    expr = parse_constraint_string(text)
    tokens = [t.strip() for t in (args.objectives or "").split(",") if t.strip()] + args.objective_list
    if len(tokens) < 2:
        raise ConfigurationError("pareto needs at least two objectives")
    bundle = ObjectiveBundle(tuple(parse_objective_token(t, inst) for t in tokens))
    seed = _resolve_seed(args.seed)
    cfg = EAConfig(population_size=args.population, generations=args.generations, seed=seed)
    result = run_moea(inst, bundle, expr, cfg)
    print(f"objectives: {','.join(tokens)}  constraints: {text}")
    print(f"archive: {len(result.archive)} non-dominated staffings")
    print(f"hypervolume: {result.trace.points[-1].best:g}")
    for e in result.archive:
        objs = ", ".join(f"{v:g}" for v in e.objectives)
        print(f"  counts {','.join(str(c) for c in e.counts.counts)}  ->  {objs}")
    if args.archive_out:
        labels = [o.label for o in bundle]
        mio.write_archive_csv(result.archive, inst, labels, args.archive_out)
        print(f"wrote {args.archive_out}")
    return EXIT_OK if result.archive else EXIT_INFEASIBLE


def _cmd_assign(args: argparse.Namespace) -> int:
    inst = mio.load_instance(args.instance)
    text = _constraint_text(args.constraints)
    expr = parse_constraint_string(text)
    try:
        counts = HeadcountVector(tuple(int(x) for x in args.counts.split(",")))
    except ValueError as exc:
        raise ConfigurationError(f"bad --counts: {exc}") from None
    if len(counts) != inst.n_jobs:
        raise ConfigurationError(
            f"--counts has {len(counts)} entries but the instance has {inst.n_jobs} jobs"
        )
    seed = _resolve_seed(args.seed)
    cfg = EAConfig(
        population_size=args.population, generations=args.generations,
        encoding="bg", seed=seed,
    )
    result = solve_assignment(counts, inst, expr, cfg)
    print(f"roster for counts {args.counts} under {text}")
    print(f"value: {result.value:g}")
    print(f"feasible: {result.feasible}  violation: {result.violation:g}")
    if args.out:
        mio.write_tensor_csv(result.tensor, inst, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _cmd_table(args: argparse.Namespace) -> int:
    spec = args.members.strip()
    if "," in spec or not spec.isdigit():
        members = tuple(m.strip() for m in spec.split(",") if m.strip())
    else:
        members = tuple(f"m{i}" for i in range(int(spec)))
    seed = _resolve_seed(args.seed)
    policy = SuitablePolicy(max_assignments=args.max_assignments)
    table = generate_table(members, args.days, args.per_day, policy, seed=seed)
    for day, chosen in enumerate(table.picks):
        print(f"day {day}: {', '.join(chosen)}")
    if args.out:
        mio.write_table_csv(table, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    report = run_experiment(args.experiment, seed=seed, trials=args.trials)
    for row in report.rows:
        acc = f"{row.accuracy_pct}%" if row.accuracy_pct is not None else "-"
        print(
            f"{row.solver:10s} best={row.best:<12g} median={row.median:<12g} "
            f"feasible={row.feasible_rate:.0%} accuracy={acc} rank={row.rank}"
        )
    for key, value in report.notes.items():
        print(f"{key}: {value}")
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}/report.json, comparison.csv, and trace CSVs")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    """Load the instance, then parse the constraints and compile them for
    it; the first step that fails names the problem."""
    try:
        inst = mio.load_instance(args.instance)
        if args.constraints is not None:
            headcount_kernel(parse_constraint_string(_constraint_text(args.constraints)), inst)
    except ParseError as exc:
        print(f"problem: constraints: {exc}")
        return EXIT_USAGE
    except (StructuralError, ConfigurationError) as exc:
        print(f"problem: {exc}")
        return EXIT_USAGE
    print("ok")
    return EXIT_OK


# ---------------------------------------------------------------------------


_HANDLERS = {
    "solve": _cmd_solve,
    "pareto": _cmd_pareto,
    "assign": _cmd_assign,
    "table": _cmd_table,
    "bench": _cmd_bench,
    "validate": _cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: takes raw arguments, or ``None`` for ``sys.argv``."""
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (InfeasibleError, TableGenerationError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigurationError, ParseError, StructuralError, MetricError,
            SearchSpaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # anything else is a bug, not user error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
