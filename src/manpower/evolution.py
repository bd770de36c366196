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
"""

from __future__ import annotations

import collections
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .constraints import (
    Expr,
    boundary_distance,
    collect_atoms,
    is_conjunction,
    violation_expr,
)
from .domain import (
    AttendanceTensor,
    HeadcountVector,
    ProblemInstance,
    employee_jobs,
)
from .errors import ConfigurationError, InfeasibleError
from .objectives import ObjectiveBundle, evaluate_bundle, tensor_salary

# Distinct staffings one run's scorer remembers.  Replaying the calls of
# default runs on the reference week (seeds 0-4), this LRU keeps 97-100%
# of an unbounded memo's hits for ri, the barrier, PSO and SA, and 70%
# for bg, whose runs visit about four times as many staffings.
SCORE_CACHE_SIZE = 256
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
        if self.coefficient < 0 or self.barrier_coefficient < 0:
            raise ConfigurationError("penalty coefficients must be nonnegative")


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
        if self.population_size < 2:
            raise ConfigurationError("population_size must be at least 2")
        if self.generations < 0:
            raise ConfigurationError("generations must be nonnegative")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError("mutation_rate must be in [0, 1]")
        if self.selection not in ("tournament", "proportional"):
            raise ConfigurationError(f"unknown selection scheme {self.selection!r}")
        if self.tournament_k < 2:
            raise ConfigurationError("tournament_k must be at least 2")
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


def _bit_widths(bounds: Sequence[tuple[int, int]]) -> list[int]:
    return [(hi - lo).bit_length() for lo, hi in bounds]


@dataclass(frozen=True)
class _Box:
    """The arrays of one bounds tuple: its float corners, the ri gene
    interval ``[low, high)`` with ``span = high - low``, and the bg bit
    weights (``bits @ weights`` is each gene's offset from ``lo``)."""

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
    widths = _bit_widths(bounds)
    weights = np.zeros((sum(widths), len(bounds)))
    row = 0
    for j, width in enumerate(widths):
        weights[row:row + width, j] = 2.0 ** np.arange(width - 1, -1, -1)
        row += width
    low, high = lo - 0.5, hi + 0.5
    arrays = (lo, hi, low, high, high - low, weights)
    for a in arrays:
        a.flags.writeable = False   # shared by every genome with these bounds
    return _Box(*arrays)


def encode(counts: Sequence[int], bounds: Sequence[tuple[int, int]], encoding: str) -> Genome:
    """Pack integer counts into a genome.  Counts must lie inside the box."""
    bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
    values = [int(c) for c in counts]
    if len(values) != len(bounds):
        raise ConfigurationError("counts and bounds must have equal length")
    for v, (lo, hi) in zip(values, bounds):
        if not lo <= v <= hi:
            raise ConfigurationError(f"value {v} outside [{lo}, {hi}]")
    if encoding == "ri":
        return Genome("ri", np.asarray(values, dtype=float), bounds)
    if encoding == "bg":
        bits: list[int] = []
        for v, (lo, hi), width in zip(values, bounds, _bit_widths(bounds)):
            offset = v - lo
            bits.extend((offset >> (width - 1 - b)) & 1 for b in range(width))
        return Genome("bg", np.asarray(bits, dtype=np.uint8), bounds)
    raise ConfigurationError(f"unknown encoding {encoding!r}")


def decode(genome: Genome) -> HeadcountVector:
    """Unpack a genome into integer counts, clamping into the box: ri
    genes round half to even, bg genes are big-endian offsets from the
    lower bound."""
    box = _box(genome.bounds)
    if genome.encoding == "ri":
        values = np.minimum(np.maximum(np.rint(genome.data), box.lo), box.hi)
    elif genome.encoding == "bg":
        values = np.minimum(box.lo + genome.data @ box.weights, box.hi)
    else:
        raise ConfigurationError(f"unknown encoding {genome.encoding!r}")
    return HeadcountVector(tuple(values.astype(np.int64).tolist()))


def random_genome(rng: np.random.Generator, bounds: Sequence[tuple[int, int]], encoding: str) -> Genome:
    bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
    box = _box(bounds)
    if encoding == "ri":
        # the same doubles and generator state as rng.uniform(box.low, box.high)
        return Genome("ri", box.low + box.span * rng.random(len(bounds)), bounds)
    if encoding == "bg":
        return Genome("bg", rng.integers(0, 2, size=box.weights.shape[0], dtype=np.uint8), bounds)
    raise ConfigurationError(f"unknown encoding {encoding!r}")


def _crossover(rng: np.random.Generator, a: Genome, b: Genome) -> tuple[Genome, Genome]:
    n = a.data.shape[0]
    if a.encoding == "bg" or n >= 2:
        if n < 2:
            return a, b
        point = int(rng.integers(1, n))
        c1 = np.concatenate([a.data[:point], b.data[point:]])
        c2 = np.concatenate([b.data[:point], a.data[point:]])
    else:
        # single real gene: arithmetic blend
        w = float(rng.uniform())
        c1 = np.array([w * a.data[0] + (1 - w) * b.data[0]])
        c2 = np.array([w * b.data[0] + (1 - w) * a.data[0]])
    return Genome(a.encoding, c1, a.bounds), Genome(b.encoding, c2, b.bounds)


def _mutate(rng: np.random.Generator, g: Genome, rate: float) -> Genome:
    n = g.data.shape[0]
    if g.encoding == "bg":
        flips = rng.random(n) < rate
        if not flips.any():
            return g
        data = g.data.copy()
        data[flips] ^= 1
        return Genome("bg", data, g.bounds)
    # every draw is made, hit or not, so the generator advances the same
    hits = rng.random(n) < rate
    up = rng.random(n) < 0.5
    fresh = rng.random(n)
    # half the mutations nudge by one step, half resample the gene
    nudge = rng.random(n) < 0.5
    if not hits.any():
        return g
    box = _box(g.bounds)
    local = np.minimum(np.maximum(g.data + np.where(up, 1.0, -1.0), box.low), box.high)
    mutated = np.where(nudge, local, box.low + box.span * fresh)
    return Genome("ri", np.where(hits, mutated, g.data), g.bounds)


# ---------------------------------------------------------------------------
# fitness


def _objective(
    bundle: ObjectiveBundle, hc: HeadcountVector, inst: ProblemInstance
) -> tuple[float, tuple[float, ...]]:
    """The objective of a staffing: the sum of the bundle's min-oriented
    values, and the vector it sums."""
    objectives = evaluate_bundle(bundle, hc, None, inst)
    return float(sum(objectives)), objectives


# (penalized fitness, objective, violation, objective vector)
_Score = tuple[float, float, float, tuple[float, ...]]


def _scorer(
    bundle: ObjectiveBundle,
    expr: Expr,
    inst: ProblemInstance,
    penalty: PenaltyConfig,
) -> Callable[[tuple[int, ...]], _Score]:
    """One run's score of a staffing: ``counts -> (penalized fitness,
    objective, violation, objective vector)``, lower fitness being better.
    Every staffing solver prices its candidates here.

    The last :data:`SCORE_CACHE_SIZE` distinct staffings are remembered,
    so every objective's ``Objective.func`` must be a pure function of
    its arguments.
    """

    @functools.lru_cache(maxsize=SCORE_CACHE_SIZE)
    def score(counts: tuple[int, ...]) -> _Score:
        hc = HeadcountVector(counts)
        objective, objectives = _objective(bundle, hc, inst)
        violation = violation_expr(expr, None, hc, inst)
        if penalty.method == "external":
            return objective + penalty.coefficient * violation**2, objective, violation, objectives
        # interior barrier
        if violation > 0.0:
            return float("inf"), objective, violation, objectives
        barrier = 0.0
        for c in collect_atoms(expr):
            d = boundary_distance(c, None, hc, inst)
            if d <= 0.0:
                return float("inf"), objective, violation, objectives
            if np.isfinite(d):
                barrier += 1.0 / d
        return objective + penalty.barrier_coefficient * barrier, objective, violation, objectives

    return score


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


def _pack_points(points: Sequence[TracePoint]) -> np.ndarray:
    # the two counts stay exact in a double up to 2**53
    rows = [(p.generation, p.best, p.mean, p.evaluations, p.millis) for p in points]
    return np.array(rows, dtype=float).reshape(-1, 5)


def _unpack_points(rows: np.ndarray) -> tuple[TracePoint, ...]:
    return tuple(TracePoint(int(g), best, mean, int(e), millis)
                 for g, best, mean, e, millis in rows.tolist())


@dataclass(frozen=True)
class RunTrace:
    """One point per generation (or iteration, or temperature level),
    stored as a float array."""

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
    """One run's scoring and trace: scores individuals with ``score``,
    keeps the best penalized, best feasible and least-violating ones seen
    so far, and stamps trace points on the run clock started at
    construction."""

    def __init__(self, score: Callable[..., _Score]):
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
        penalized, objective, violation, _ = scored
        self.evaluations += 1
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
        return scored

    def assess_all(self, individuals) -> np.ndarray:
        """The penalized scores of ``individuals``, each recorded."""
        return np.array([self.assess(i)[0] for i in individuals])

    def mark(self, generation: int, mean: float, best: float | None = None) -> None:
        """Add a trace point; ``best`` defaults to the best penalized score."""
        self._points.append(TracePoint(
            generation, self.best_penalized if best is None else best, mean,
            self.evaluations, (time.perf_counter() - self._start) * 1e3))

    def trace(self) -> RunTrace:
        return RunTrace(tuple(self._points))


def _select(rng: np.random.Generator, scores: np.ndarray, cfg: EAConfig) -> int:
    n = scores.shape[0]
    if cfg.selection == "tournament":
        picks = rng.integers(0, n, size=cfg.tournament_k)
        return int(min(picks, key=lambda i: scores[i]))
    # fitness-proportional on min-oriented scores
    finite = np.isfinite(scores)
    if not finite.any():
        return int(rng.integers(0, n))
    worst = scores[finite].max()
    weights = np.where(finite, worst - scores + 1e-9, 0.0)
    total = weights.sum()
    if total <= 0:
        return int(rng.integers(0, n))
    return int(rng.choice(n, p=weights / total))


def _breed(
    rng: np.random.Generator,
    offspring: list[Genome],
    pick: Callable[[], Genome],
    cfg: EAConfig,
) -> list[Genome]:
    """Fill ``offspring`` up to the population size with mutated children
    of parent pairs drawn by ``pick``, crossed over at the crossover rate."""
    while len(offspring) < cfg.population_size:
        pa, pb = pick(), pick()
        if rng.random() < cfg.crossover_rate:
            pa, pb = _crossover(rng, pa, pb)
        offspring.append(_mutate(rng, pa, cfg.mutation_rate))
        if len(offspring) < cfg.population_size:
            offspring.append(_mutate(rng, pb, cfg.mutation_rate))
    return offspring


def _evolve(
    rng: np.random.Generator,
    population: list[Genome],
    score_fn: Callable[[Genome], _Score],
    cfg: EAConfig,
) -> _Tracker:
    tracker = _Tracker(score_fn)
    scores = tracker.assess_all(population)
    tracker.mark(0, float(np.mean(scores)))
    for gen in range(1, cfg.generations + 1):
        # elitism: carry the best penalized genome forward untouched
        elite = [] if tracker.best_genome is None else [tracker.best_genome]
        population = _breed(rng, elite, lambda: population[_select(rng, scores, cfg)], cfg)
        scores = tracker.assess_all(population)
        tracker.mark(gen, float(np.mean(scores)))
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
    score_counts = _scorer(bundle, expr, inst, cfg.penalty)

    def score(genome: Genome) -> _Score:
        return score_counts(decode(genome).counts)

    population = _initial_population(rng, inst, expr, cfg, score)
    tracker = _evolve(rng, population, score, cfg)
    return _result(SolveResult, tracker, cfg.seed, decode)


def _initial_population(
    rng: np.random.Generator,
    inst: ProblemInstance,
    expr: Expr,
    cfg: EAConfig,
    score_fn: Callable[[Genome], _Score],
) -> list[Genome]:
    bounds = inst.headcount_bounds()
    if cfg.penalty.method == "external":
        return [random_genome(rng, bounds, cfg.encoding) for _ in range(cfg.population_size)]
    # interior barrier: start strictly inside the feasible region
    population: list[Genome] = []
    rejected: collections.deque[Genome] = collections.deque(maxlen=cfg.population_size)
    cap = INITIAL_SAMPLES_PER_MEMBER * cfg.population_size
    for _ in range(cap):
        g = random_genome(rng, bounds, cfg.encoding)
        if not np.isfinite(score_fn(g)[0]):
            rejected.append(g)
            continue
        population.append(g)
        if len(population) == cfg.population_size:
            return population
    raise InfeasibleError(
        f"could not sample a strictly feasible starting population ({len(population)} "
        f"of {cfg.population_size} members in {cap} samples); atoms at or past their "
        f"boundary in the last {len(rejected)} rejected samples: "
        + _blocking_atoms(rejected, expr, inst)
    )


def _blocking_atoms(genomes: Sequence[Genome], expr: Expr, inst: ProblemInstance) -> str:
    """``"k6 in 100, k3 in 12"``: for each atom, how many of ``genomes``
    give it a boundary distance of zero or less, most often first."""
    tally: collections.Counter[str] = collections.Counter()
    atoms = collect_atoms(expr)
    for g in genomes:
        hc = decode(g)
        tally.update({
            c.kind.value + (f"({','.join(c.jobs)})" if c.jobs else "")
            for c in atoms if boundary_distance(c, None, hc, inst) <= 0.0
        })
    return ", ".join(f"{name} in {n}" for name, n in tally.most_common())


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
    objective: Callable[[AttendanceTensor, ProblemInstance], float] | None = None,
) -> AssignmentResult:
    """Search attendance rosters for a fixed staff.

    The genome is one bit per employee-day (or employee-slot when the
    instance is multi-shift); the default objective is the realized wage
    bill.  Always bit-encoded regardless of ``cfg.encoding``.
    """
    if cfg.penalty.method == "internal":
        raise ConfigurationError("roster search supports the external penalty only")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    jobs_map = employee_jobs(hc)
    n_emp = jobs_map.shape[0]
    per_emp = inst.slots if inst.multi_shift else inst.horizon_days
    n_bits = n_emp * per_emp
    obj_fn = objective if objective is not None else tensor_salary

    def build(bits: np.ndarray) -> AttendanceTensor:
        grid = bits.reshape(n_emp, per_emp)
        if inst.multi_shift:
            return AttendanceTensor.from_slot_attendance(grid, jobs_map, inst.n_jobs)
        return AttendanceTensor.from_day_attendance(grid, jobs_map, inst.n_jobs)

    def score(genome: Genome) -> _Score:
        tensor = build(genome.data)
        objective_value = float(obj_fn(tensor, inst))
        violation = violation_expr(expr, tensor, hc, inst)
        return (
            objective_value + cfg.penalty.coefficient * violation**2,
            objective_value,
            violation,
            (objective_value,),
        )

    bit_bounds = tuple((0, 1) for _ in range(n_bits))
    # warm start: full attendance is feasible whenever the counts are,
    # so keep one all-ones roster among the random initial rosters
    population = [Genome("bg", np.ones(n_bits, dtype=np.uint8), bit_bounds)]
    population += [
        Genome("bg", rng.integers(0, 2, size=n_bits, dtype=np.uint8), bit_bounds)
        for _ in range(cfg.population_size - 1)
    ]
    tracker = _evolve(rng, population, score, cfg)
    return _result(AssignmentResult, tracker, cfg.seed, lambda g: build(g.data))
