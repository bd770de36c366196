"""Constraint-composable manpower scheduling.

The package splits the problem into three layers:

* a data model of jobs, problem instances, and binary attendance
  tensors (``domain``);
* composable constraint predicates with AND/OR/NOT algebra and paired
  violation magnitudes (``constraints``), plus objective functions over
  headcounts and rosters (``objectives``);
* solvers — a penalty-driven evolutionary search (``evolution``), an
  elite multi-objective variant (``moea``), exact/swarm/annealing
  baselines (``baselines``), and randomized duty-table generation
  (``tablegen``).

``instances`` ships ready-made problems, ``io`` the file formats,
``bench`` the canned experiments, and ``cli`` the command-line front
end.  ``tablegen``, ``io`` and ``bench`` are imported on first use of a
name they export, so ``import manpower`` loads the solvers only.
"""

import importlib

from .baselines import (
    PSOConfig,
    SAConfig,
    ip_solve,
    pso_solve,
    pso_step,
    sa_accept,
    sa_solve,
)
from .constraints import (
    ATOM_CODES,
    And,
    Atom,
    AtomicConstraint,
    ConstraintKind,
    Expr,
    Not,
    Or,
    apply_emergency,
    atom,
    boundary_distance,
    collect_atoms,
    conjunction,
    eval_atom,
    eval_expr,
    format_expr,
    is_conjunction,
    parse_constraint_string,
    violation_atom,
    violation_expr,
)
from .domain import (
    DEFAULT_SHIFT_HOURS,
    SHIFT_NAMES,
    SLOTS_PER_DAY,
    AttendanceTensor,
    EmergencySpec,
    HeadcountVector,
    Job,
    ProblemInstance,
    employee_jobs,
    full_attendance,
    total_work_time,
)
from .errors import (
    ConfigurationError,
    InfeasibleError,
    MetricError,
    ParseError,
    SearchSpaceError,
    StructuralError,
    TableGenerationError,
)
from .evolution import (
    AssignmentResult,
    EAConfig,
    Genome,
    PenaltyConfig,
    RunTrace,
    SolveResult,
    TracePoint,
    decode,
    random_genome,
    run_ea,
    solve_assignment,
)
from .instances import micro_instance, random_micro_instance, reference_instance
from .moea import (
    ArchiveEntry,
    MOEAResult,
    ParetoArchive,
    crowding,
    hypervolume,
    non_dominated_sort,
    run_moea,
)
from .objectives import (
    Direction,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    evaluate_bundle,
    f2_total_salary,
    parse_objective_token,
    tensor_salary,
    total_time_headcount,
)

__version__ = "0.1.0"

# Names resolved on first use, by module.  Nothing here imports ``cli``:
# that would put ``manpower.cli`` in ``sys.modules`` before
# ``python -m manpower.cli`` runs it, which makes runpy warn.
_LAZY = {
    "bench": (
        "EXPERIMENT_IDS", "ComparisonRow", "ExperimentReport", "ExperimentSpec", "TrialResult",
        "accuracy", "convergence_rank", "run_experiment", "stability", "write_report",
    ),
    "io": (
        "load_instance", "read_table_csv", "read_tensor_csv", "save_instance",
        "write_archive_csv", "write_counts_csv", "write_table_csv", "write_tensor_csv",
        "write_trace_csv",
    ),
    "tablegen": (
        "GeneratorState", "RotationSpec", "ScheduleTable", "SuitablePolicy",
        "default_max_assignments", "generate_rotation", "generate_table", "rotation_matrix",
        "table_to_tensor", "validate_table",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:  # the module itself, e.g. ``manpower.io``
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})
