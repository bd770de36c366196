"""Penalty-based evolutionary search over staffing vectors and rosters.

Two genome encodings are supported: a concatenated fixed-width bit
string (``"bg"``) and a real-valued vector rounded to integers on decode
(``"ri"``).  Infeasibility is priced either externally (quadratic
penalty added to the objective) or internally (a barrier that grows near
the feasible boundary and is infinite outside; only meaningful for pure
AND-compositions).

:func:`run_ea` searches headcount vectors; :func:`solve_assignment`
reuses the same engine on per-day (or per-slot) attendance bits for a
fixed staff.

Candidates are scored a whole generation at a time: :class:`_Scorer`
compiles a run's objectives and constraint expression once into one
:class:`~manpower.constraints.ConstraintTable`, whose wage bill the
objective shares, over a (P, J) matrix of headcounts for staffings (the
generational loops decode their population into it with one array
operation) or over a (P, E, D, S) stack of rosters of one staff (S = 1
day bit in single-shift mode, else the four slots).  Solvers that move
one staffing at a time (annealing, the exact search) use the
single-row case behind a small memo.

A generational population is one (P, n) gene matrix, and a starting
population, or a block of the barrier's samples, is drawn with one
generator call.  Each generation is bred from four whole-array draws
(:func:`manpower.breeding.breed`).
"""

from __future__ import annotations

import collections
import functools
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .breeding import _selector, breed
# perfbench's tracer patches boundary_distance, violation_expr, evaluate_bundle, tensor_salary here
from .constraints import (
    ConstraintTable,
    Expr,
    boundary_distance,
    collect_atoms,
    headcount_kernel,
    is_conjunction,
    violation_expr,
)
from .domain import (
    SLOTS_PER_DAY,
    AttendanceTensor,
    HeadcountVector,
    ProblemInstance,
    employee_jobs,
)
from .errors import ConfigurationError, InfeasibleError, _require_int
from .objectives import (
    SCORE_CACHE_SIZE,
    ObjectiveBundle,
    evaluate_bundle,
    headcount_rows,
    objective_kernel,
    roster_salary_kernel,
    row_sums,
    tensor_salary,
)

# The barrier draws at most this many starting genomes per population
# member; at the reference week's acceptance ratio of 0.026 a member
# takes about 38.
INITIAL_SAMPLES_PER_MEMBER = 100


@dataclass(frozen=True)
class PenaltyConfig:
    """How infeasibility is priced into scalar fitness."""

    method: str = "external"  # "external" | "internal"
    coefficient: float = 1e4
    barrier_coefficient: float = 1.0

    def __post_init__(self):
        if self.method not in ("external", "internal"):
            raise ConfigurationError(f"unknown penalty method {self.method!r}")
        if not all(0 <= c < math.inf for c in (self.coefficient, self.barrier_coefficient)):
            raise ConfigurationError("penalty coefficients must be finite and nonnegative")


@dataclass(frozen=True)
class EAConfig:
    population_size: int = 100
    generations: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    selection: str = "tournament"  # "tournament" | "proportional"
    tournament_k: int = 2
    encoding: str = "ri"  # "ri" | "bg"
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    seed: int = 0

    def __post_init__(self):
        _require_int("population_size", self.population_size, 2)
        _require_int("generations", self.generations, 0)
        _require_int("tournament_k", self.tournament_k, 2)
        _require_int("seed", self.seed, 0)
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError("mutation_rate must be in [0, 1]")
        if self.selection not in ("tournament", "proportional"):
            raise ConfigurationError(f"unknown selection scheme {self.selection!r}")
        if self.encoding not in ("ri", "bg"):
            raise ConfigurationError(f"unknown encoding {self.encoding!r}")


# ---------------------------------------------------------------------------
# genomes


@dataclass(frozen=True)
class Genome:
    """One candidate: bit array (bg) or real vector (ri) plus the integer
    box it decodes into."""

    encoding: str
    data: np.ndarray
    bounds: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class _Box:
    """The arrays of one bounds tuple: its float corners, the ri gene
    interval ``[low, high)`` with ``span = high - low``, and the bg bit
    weights (``floor(bits @ weights)`` is each gene's offset from ``lo``)."""

    lo: np.ndarray
    hi: np.ndarray
    low: np.ndarray
    high: np.ndarray
    span: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=16)
def _box(bounds: tuple[tuple[int, int], ...]) -> _Box:
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    widths = [(b[1] - b[0]).bit_length() for b in bounds]
    weights = np.zeros((sum(widths), len(bounds)))
    row = 0
    for j, width in enumerate(widths):
        # bit k of a big-endian code v weighs (span + 1) * 2**-(k + 1), so
        # bits @ weights is v * (span + 1) / 2**width, exactly
        weights[row:row + width, j] = (hi[j] - lo[j] + 1) * 2.0 ** np.arange(-1, -width - 1, -1)
        row += width
    low, high = lo - 0.5, hi + 0.5
    arrays = (lo, hi, low, high, high - low, weights)
    for a in arrays:
        a.flags.writeable = False   # shared by every genome with these bounds
    return _Box(*arrays)


def _decode_rows(genes: np.ndarray, encoding: str, box: _Box) -> np.ndarray:
    """The integer counts of a (P, n) gene matrix of one encoding and box,
    as a (P, J) float matrix, inside the box: ri genes round half to even
    and clamp; a job's bg gene, a big-endian code ``v`` of ``w`` bits, is
    ``lo + floor(v * (hi - lo + 1) / 2**w)``, so every count of the box
    gets an equal share of the codes, give or take one."""
    if encoding == "ri":
        return np.minimum(np.maximum(np.rint(genes), box.lo), box.hi)
    if encoding == "bg":
        return box.lo + np.floor(genes @ box.weights)
    raise ConfigurationError(f"unknown encoding {encoding!r}")


def decode(genome: Genome) -> HeadcountVector:
    """Unpack a genome into integer counts (:func:`_decode_rows` of one)."""
    counts = _decode_rows(genome.data[None], genome.encoding, _box(genome.bounds))[0]
    return HeadcountVector(tuple(counts.astype(np.int64).tolist()))


def random_genome(rng: np.random.Generator, bounds: Sequence[tuple[int, int]], encoding: str) -> Genome:
    """One random genome: the one-row case of :func:`_random_genes`."""
    bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
    return Genome(encoding, _random_genes(rng, 1, _box(bounds), encoding)[0], bounds)


def _random_genes(rng: np.random.Generator, rows: int, box: _Box, encoding: str) -> np.ndarray:
    """A (rows, n) matrix of random genes in ``box``, drawn with one call
    that gives the values of one draw per row and leaves the generator
    where those draws would: ri rows are ``rng.uniform(low, high)``, bg
    rows :func:`_random_bits`."""
    if encoding == "ri":
        # the same doubles and generator state as rng.uniform(box.low, box.high) per row
        return box.low + box.span * rng.random((rows, len(box.lo)))
    if encoding == "bg":
        return _random_bits(rng, rows, box.weights.shape[0])
    raise ConfigurationError(f"unknown encoding {encoding!r}")


def _random_bits(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """A (rows, width) matrix of random bits with the values and generator
    state of one ``rng.integers(0, 2, size=width, dtype=np.uint8)`` per
    row: numpy's 8-bit draws restart on every call and read 4 bits from
    each 32-bit draw, so a row padded to a multiple of 4 bits reads what
    one such call reads."""
    return rng.integers(0, 2, size=(rows, -(-width // 4) * 4), dtype=np.uint8)[:, :width]


# ---------------------------------------------------------------------------
# fitness


# (penalized fitness, objective, violation, objective vector)
_Score = tuple[float, float, float, tuple[float, ...]]
# the same per row of a block of candidates: (P,), (P,), (P,), (P, M)
_Scores = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _Scorer:
    """One run's score of candidates, lower penalized fitness being
    better, from a function compiled once that scores a whole block of
    them (:meth:`rows`); every solver prices its candidates here.
    :meth:`score` is its single-row case for a staffing's counts tuple,
    and remembers the last :data:`SCORE_CACHE_SIZE` distinct staffings.
    """

    def __init__(self, rows: Callable[[np.ndarray], _Scores], objectives: Callable | None = None,
                 interior: Callable | None = None):
        self.rows, self._objectives, self.interior = rows, objectives, interior
        # memoized over ``rows``, not over ``self``, which would make a
        # reference cycle that only the cyclic collector frees
        self.score = functools.lru_cache(maxsize=SCORE_CACHE_SIZE)(functools.partial(_score_one, rows))

    @classmethod
    def staffings(cls, bundle: ObjectiveBundle, expr: Expr, inst: ProblemInstance,
                  penalty: PenaltyConfig) -> "_Scorer":
        """The scorer of (P, J) headcount matrices through one
        :class:`~manpower.constraints.ConstraintTable`, whose strict-interior
        mask is :attr:`interior`.  Its objective kernel remembers custom
        objective values, so every ``Objective.func`` must be pure."""
        objectives, table = objective_kernel(bundle, inst), ConstraintTable(expr, inst)
        return cls(functools.partial(_rows, objectives, table, penalty), objectives, table.interior)

    @classmethod
    def rosters(cls, expr: Expr, inst: ProblemInstance, staff: np.ndarray, penalty: PenaltyConfig) -> "_Scorer":
        """The scorer of (P, E, D, S) stacks of rosters of ``staff``, whose objective is the wage bill."""
        salary = roster_salary_kernel(inst, staff, inst.multi_shift)
        return cls(functools.partial(_rows, lambda slots, bill: (salary(slots) if bill is None else bill)[:, None],
                                     ConstraintTable(expr, inst, staff), penalty))

    def objective(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's objective, the sum of the bundle's min-oriented
        values, and the (P, M) values it sums."""
        values = self._objectives(counts)
        return row_sums(values), values


def _rows(objectives: Callable, table: ConstraintTable, penalty: PenaltyConfig, rows: np.ndarray) -> _Scores:
    # the objective and k4 share one wage bill; the external penalty reads
    # no slack, the barrier (+inf unless strictly inside) only the windows'
    bill = table.bill(rows)
    values = objectives(rows, bill)
    objective = row_sums(values)
    if penalty.method == "internal":
        violation, outside, barrier = table.barrier(rows, bill)
        penalized = np.where(outside, np.inf, objective + penalty.barrier_coefficient * barrier)
        return penalized, objective, violation, values
    violation = table.violation(rows, bill)
    # float_power is the C library's pow, as Python's ``**``;
    # ``violation**2`` on an array may round the last bit otherwise
    return objective + penalty.coefficient * np.float_power(violation, 2.0), objective, violation, values


def _score_one(rows: Callable[[np.ndarray], _Scores], counts: tuple[int, ...]) -> _Score:
    penalized, objective, violation, values = rows(np.array([counts], dtype=float))
    return float(penalized[0]), float(objective[0]), float(violation[0]), tuple(values[0].tolist())


def _check_internal_applicable(expr: Expr, penalty: PenaltyConfig) -> None:
    if penalty.method == "internal" and not is_conjunction(expr):
        raise ConfigurationError(
            "interior barrier penalty needs a pure AND-composition "
            "(OR/NOT have no usable boundary geometry)"
        )


# ---------------------------------------------------------------------------
# traces and results


@dataclass(frozen=True, slots=True)
class TracePoint:
    generation: int
    best: float
    mean: float
    evaluations: int
    millis: float


class _Packed:
    """Dataclass field descriptor that stores a value in the compact form
    ``pack`` makes and rebuilds it with ``unpack`` on every read, so a
    kept result costs a few arrays instead of hundreds of small objects."""

    def __init__(self, pack: Callable, unpack: Callable):
        self._pack, self._unpack = pack, unpack

    def __set_name__(self, owner, name: str) -> None:
        self._attr = f"_{name}_packed"

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("no default")  # a required dataclass field
        return self._unpack(getattr(obj, self._attr))

    def __set__(self, obj, value) -> None:
        object.__setattr__(obj, self._attr, self._pack(value))


def _pack_points(points: Sequence[TracePoint]) -> bytes:
    # deflated: the two counts as int64 steps from the point before, which
    # repeat; then the three floats column by column, each split into byte
    # planes, whose sign, exponent and leading mantissa bytes repeat.  A
    # trace keeps about 37% of its 40 bytes per point (a kept result is
    # mostly its trace)
    counts = np.array([(p.generation, p.evaluations) for p in points], dtype=np.int64).reshape(-1, 2)
    floats = np.array([(p.best, p.mean, p.millis) for p in points], dtype=float).reshape(-1, 3)
    planes = floats.T.copy().view(np.uint8).reshape(3, -1, 8).transpose(0, 2, 1)
    return zlib.compress(np.diff(counts, axis=0, prepend=0).T.tobytes() + planes.tobytes(), 9)


def _unpack_points(raw: bytes) -> tuple[TracePoint, ...]:
    data = zlib.decompress(raw)
    n = len(data) // 40
    generation, evaluations = np.frombuffer(data, np.int64, 2 * n).reshape(2, n).cumsum(axis=1)
    planes = np.frombuffer(data, np.uint8, offset=16 * n).reshape(3, 8, n)
    best, mean, millis = planes.transpose(0, 2, 1).copy().view(float).reshape(3, n)
    return tuple(map(TracePoint, generation.tolist(), best.tolist(), mean.tolist(),
                     evaluations.tolist(), millis.tolist()))


@dataclass(frozen=True)
class RunTrace:
    """One point per generation (or iteration, or temperature level),
    stored as a deflated float array."""

    points: tuple[TracePoint, ...] = _Packed(_pack_points, _unpack_points)

    def best_curve(self) -> list[float]:
        return [p.best for p in self.points]


@dataclass(frozen=True, slots=True)
class SolveResult:
    counts: HeadcountVector
    value: float
    feasible: bool
    violation: float
    trace: RunTrace
    evaluations: int
    seed: int


@dataclass(frozen=True, slots=True)
class AssignmentResult:
    tensor: AttendanceTensor
    value: float
    feasible: bool
    violation: float
    trace: RunTrace
    evaluations: int
    seed: int


# ---------------------------------------------------------------------------
# engine


class _Tracker:
    """One run's scoring and trace: keeps the first of the best
    penalized, best feasible and least-violating individuals seen so far,
    whether scored one at a time (:meth:`assess`, with ``score``) or a
    block at a time (:meth:`record`), and stamps trace points on the run
    clock started at construction."""

    def __init__(self, score: Callable[..., _Score] | None = None):
        self._score = score
        self._start = time.perf_counter()
        self._points: list[TracePoint] = []
        self.best_penalized: float = float("inf")
        self.best_genome = None
        self.best_feasible_obj: float = float("inf")
        self.best_feasible = None
        self.least_violation: float = float("inf")
        self.least_violator = None
        self.least_violator_obj: float = float("inf")
        self.evaluations = 0

    def assess(self, individual) -> _Score:
        """Score one individual and record it."""
        scored = self._score(individual)
        self.evaluations += 1
        self._note(individual, *scored[:3])
        return scored

    def record(self, individuals: Sequence, penalized: np.ndarray, objective: np.ndarray,
               violation: np.ndarray) -> np.ndarray:
        """Record a block of scored individuals in member order, as
        :meth:`assess` one by one would, and return ``penalized``.

        Only each kept quantity's first best member of the block can
        change what is kept, so just those members are noted, in order.
        When a member is feasible, the least violating members are the
        feasible ones, so the best feasible one is among those noted.
        """
        self.evaluations += len(penalized)
        least = violation == violation.min()
        firsts = {int(penalized.argmin()), int(np.where(least, objective, np.inf).argmin())}
        for i in sorted(firsts):
            self._note(individuals[i], float(penalized[i]), float(objective[i]), float(violation[i]))
        return penalized

    def _note(self, individual, penalized: float, objective: float, violation: float) -> None:
        if penalized < self.best_penalized:
            self.best_penalized = penalized
            self.best_genome = individual
        if violation == 0.0 and objective < self.best_feasible_obj:
            self.best_feasible_obj = objective
            self.best_feasible = individual
        if violation < self.least_violation or (
            violation == self.least_violation and objective < self.least_violator_obj
        ):
            self.least_violation = violation
            self.least_violator = individual
            self.least_violator_obj = objective

    def mark(self, generation: int, mean: float, best: float | None = None) -> None:
        """Add a trace point; ``best`` defaults to the best penalized score."""
        self._points.append(TracePoint(
            generation, self.best_penalized if best is None else best, mean,
            self.evaluations, (time.perf_counter() - self._start) * 1e3))

    def trace(self) -> RunTrace:
        return RunTrace(tuple(self._points))


def _mean(scores: np.ndarray) -> float:
    """``np.mean`` of a block's scores (the same sum and division), without its overhead."""
    return float(np.add.reduce(scores) / len(scores))


# (P, n) genes -> (penalized, objective, violation), one entry per row
_ScoreRows = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _evolve(
    rng: np.random.Generator,
    genes: np.ndarray,
    score_rows: _ScoreRows,
    cfg: EAConfig,
    ri_box: _Box | None = None,
) -> _Tracker:
    tracker = _Tracker()
    scores = tracker.record(genes, *score_rows(genes))
    tracker.mark(0, _mean(scores))
    for gen in range(1, cfg.generations + 1):
        # elitism: carry the best penalized genome forward untouched
        elite = genes[:0] if tracker.best_genome is None else tracker.best_genome[None]
        genes = breed(rng, genes, _selector(scores, cfg), cfg, elite, ri_box)
        scores = tracker.record(genes, *score_rows(genes))
        tracker.mark(gen, _mean(scores))
    return tracker


# ---------------------------------------------------------------------------
# public solvers


def run_ea(
    inst: ProblemInstance,
    bundle: ObjectiveBundle,
    expr: Expr,
    cfg: EAConfig,
) -> SolveResult:
    """Search headcount vectors minimizing the bundled objectives under
    the constraint expression."""
    _check_internal_applicable(expr, cfg.penalty)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    scorer = _Scorer.staffings(bundle, expr, inst, cfg.penalty)
    bounds = inst.headcount_bounds()
    box = _box(bounds)

    def score_rows(genes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return scorer.rows(_decode_rows(genes, cfg.encoding, box))[:3]

    genes = _initial_population(rng, inst, expr, cfg, scorer)
    tracker = _evolve(rng, genes, score_rows, cfg, box if cfg.encoding == "ri" else None)
    return _result(SolveResult, tracker, cfg.seed, lambda row: decode(Genome(cfg.encoding, row, bounds)))


def _initial_population(
    rng: np.random.Generator,
    inst: ProblemInstance,
    expr: Expr,
    cfg: EAConfig,
    scorer: _Scorer,
) -> np.ndarray:
    box = _box(inst.headcount_bounds())
    size = cfg.population_size
    if cfg.penalty.method == "external":
        return _random_genes(rng, size, box, cfg.encoding)
    # interior barrier: start strictly inside the feasible region, drawing
    # and scoring blocks of samples that double from a population's worth
    population: list[np.ndarray] = []
    rejected: list[np.ndarray] = []
    need, drawn, rows, cap = size, 0, size, INITIAL_SAMPLES_PER_MEMBER * size
    while drawn < cap:
        before = rng.bit_generator.state
        block = _random_genes(rng, min(rows, cap - drawn), box, cfg.encoding)
        drawn, rows = drawn + len(block), 2 * rows
        # a row outside the strict interior scores +inf, so only the rest are scored
        counts = _decode_rows(block, cfg.encoding, box)
        inside = scorer.interior(counts)
        inside[inside] = np.isfinite(scorer.rows(counts[inside])[0])
        kept = np.flatnonzero(inside)[:need]
        population.append(block[kept])
        need -= len(kept)
        if not need:
            # leave the generator where the sample-by-sample loop would
            rng.bit_generator.state = before
            _random_genes(rng, int(kept[-1]) + 1, box, cfg.encoding)
            return np.concatenate(population)
        rejected.append(block[~inside])
    last = np.concatenate(rejected)[-size:]
    raise InfeasibleError(
        f"could not sample a strictly feasible starting population ({size - need} "
        f"of {cfg.population_size} members in {cap} samples); atoms at or past their "
        f"boundary in the last {len(last)} rejected samples: "
        + _blocking_atoms(_decode_rows(last, cfg.encoding, box), expr, inst)
    )


def _blocking_atoms(counts: np.ndarray, expr: Expr, inst: ProblemInstance) -> str:
    """``"k3 in 100, k5 in 12"``: for each atom, how many rows of the
    (P, J) ``counts`` give it a slack of zero or less, most often first;
    an atom named twice counts once per row."""
    _, slacks = headcount_kernel(expr, inst)(counts)
    blocked: dict[str, np.ndarray] = {}
    for c, slack in zip(collect_atoms(expr), slacks):
        name = c.kind.value + (f"({','.join(c.jobs)})" if c.jobs else "")
        blocked[name] = blocked.get(name, False) | (slack <= 0.0)
    tally = collections.Counter({name: int(rows.sum()) for name, rows in blocked.items()})
    return ", ".join(f"{name} in {n}" for name, n in tally.most_common() if n)


def _result(cls, tracker: _Tracker, seed: int, solution: Callable = lambda x: x):
    """A ``cls`` result (:class:`SolveResult` or :class:`AssignmentResult`)
    for the best feasible individual seen, else the least violating one,
    with the tracker's trace; ``solution`` maps the tracked individual to
    the result's first field."""
    feasible = tracker.best_feasible is not None
    if feasible:
        chosen, value, violation = tracker.best_feasible, tracker.best_feasible_obj, 0.0
    else:
        chosen, value, violation = (
            tracker.least_violator, tracker.least_violator_obj, tracker.least_violation)
    return cls(
        solution(chosen),
        value=value,
        feasible=feasible,
        violation=violation,
        trace=tracker.trace(),
        evaluations=tracker.evaluations,
        seed=seed,
    )


def solve_assignment(
    hc: HeadcountVector,
    inst: ProblemInstance,
    expr: Expr,
    cfg: EAConfig,
) -> AssignmentResult:
    """Search attendance rosters for a fixed staff.

    The genome is one bit per employee-day (or employee-slot when the
    instance is multi-shift); the objective is the realized wage bill.
    Always bit-encoded regardless of ``cfg.encoding``.
    """
    if cfg.penalty.method == "internal":
        raise ConfigurationError("roster search supports the external penalty only")
    headcount_rows(hc, inst)  # a staff of the wrong length raises StructuralError
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    jobs_map = employee_jobs(hc)
    n_emp = jobs_map.shape[0]
    per_day = SLOTS_PER_DAY if inst.multi_shift else 1
    per_emp = inst.horizon_days * per_day
    n_bits = n_emp * per_emp
    scorer = _Scorer.rosters(expr, inst, jobs_map, cfg.penalty)

    def build(bits: np.ndarray) -> AttendanceTensor:
        grid = bits.reshape(n_emp, per_emp)
        if inst.multi_shift:
            return AttendanceTensor.from_slot_attendance(grid, jobs_map, inst.n_jobs)
        return AttendanceTensor.from_day_attendance(grid, jobs_map, inst.n_jobs)

    def score_rows(genes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (P, E, D, S) bits: S = 1 in single-shift mode, where a day's bit stands for its four slots
        return scorer.rows(genes.reshape(len(genes), n_emp, inst.horizon_days, per_day))[:3]

    # warm start: full attendance is feasible whenever the counts are,
    # so keep one all-ones roster among the random initial rosters
    genes = np.concatenate([np.ones((1, n_bits), dtype=np.uint8),
                            _random_bits(rng, cfg.population_size - 1, n_bits)])
    tracker = _evolve(rng, genes, score_rows, cfg)
    return _result(AssignmentResult, tracker, cfg.seed, build)
