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
end.
"""

from .baselines import (
    PSOConfig,
    SAConfig,
    SAState,
    ip_solve,
    pso_solve,
    pso_step,
    sa_accept,
    sa_solve,
)
from .bench import (
    EXPERIMENT_IDS,
    ComparisonRow,
    ExperimentReport,
    ExperimentSpec,
    TrialResult,
    accuracy,
    convergence_rank,
    run_experiment,
    stability,
    write_report,
)
from .cli import CliInvocation
from .constraints import (
    ATOM_CODES,
    And,
    Atom,
    AtomicConstraint,
    ConstraintExpr,
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
    ChannelMatrix,
    EmergencySpec,
    HeadcountVector,
    Job,
    ProblemInstance,
    combine_channels,
    daily_work_hours,
    employee_jobs,
    full_attendance,
    separate_channels,
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
    encode,
    fitness,
    random_genome,
    run_ea,
    solve_assignment,
)
from .instances import micro_instance, random_micro_instance, reference_instance
from .io import (
    load_instance,
    read_table_csv,
    read_tensor_csv,
    save_instance,
    validate_instance,
    write_archive_csv,
    write_counts_csv,
    write_table_csv,
    write_tensor_csv,
    write_trace_csv,
)
from .moea import (
    ArchiveEntry,
    MOEAResult,
    ParetoArchive,
    ScoredIndividual,
    crowding,
    dominates,
    hypervolume,
    non_dominated_sort,
    run_moea,
)
from .objectives import (
    Direction,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    evaluate,
    evaluate_bundle,
    f1_job_time,
    f2_total_salary,
    f3_multishift_salary,
    headcount_subset,
    headcount_upper_bound,
    headcount_upper_bounds,
    parse_objective_token,
    signed_value,
    tensor_salary,
    total_time_headcount,
)
from .tablegen import (
    GeneratorState,
    RotationSpec,
    ScheduleTable,
    SuitablePolicy,
    default_max_assignments,
    generate_rotation,
    generate_table,
    rotation_matrix,
    table_to_tensor,
    validate_table,
)

__version__ = "0.1.0"
