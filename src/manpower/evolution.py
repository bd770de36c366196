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

import time
from dataclasses import dataclass, field, replace
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
    """Unpack a genome into integer counts, clamping into the box."""
    if genome.encoding == "ri":
        values = []
        for x, (lo, hi) in zip(genome.data, genome.bounds):
            v = int(round(float(x)))
            values.append(min(hi, max(lo, v)))
        return HeadcountVector(tuple(values))
    if genome.encoding == "bg":
        values = []
        pos = 0
        for (lo, hi), width in zip(genome.bounds, _bit_widths(genome.bounds)):
            v = 0
            for b in range(width):
                v = (v << 1) | int(genome.data[pos + b])
            pos += width
            values.append(min(hi, lo + v))
        return HeadcountVector(tuple(values))
    raise ConfigurationError(f"unknown encoding {genome.encoding!r}")


def random_genome(rng: np.random.Generator, bounds: Sequence[tuple[int, int]], encoding: str) -> Genome:
    bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
    if encoding == "ri":
        lo = np.array([b[0] for b in bounds], dtype=float)
        hi = np.array([b[1] for b in bounds], dtype=float)
        data = rng.uniform(lo - 0.5, hi + 0.5)
        return Genome("ri", data, bounds)
    if encoding == "bg":
        n = sum(_bit_widths(bounds))
        return Genome("bg", rng.integers(0, 2, size=n, dtype=np.uint8), bounds)
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
    return replace(a, data=c1), replace(b, data=c2)


def _mutate(rng: np.random.Generator, g: Genome, rate: float) -> Genome:
    if g.encoding == "bg":
        flips = rng.random(g.data.shape[0]) < rate
        if not flips.any():
            return g
        data = g.data.copy()
        data[flips] ^= 1
        return replace(g, data=data)
    hits = rng.random(g.data.shape[0]) < rate
    lo = np.array([b[0] for b in g.bounds], dtype=float)
    hi = np.array([b[1] for b in g.bounds], dtype=float)
    # half the mutations nudge by one step, half resample the gene
    steps = np.where(rng.random(g.data.shape[0]) < 0.5, 1.0, -1.0)
    local = np.clip(g.data + steps, lo - 0.5, hi + 0.5)
    fresh = rng.uniform(lo - 0.5, hi + 0.5)
    mutated = np.where(rng.random(g.data.shape[0]) < 0.5, local, fresh)
    if not hits.any():
        return g
    data = np.where(hits, mutated, g.data)
    return replace(g, data=data)


# ---------------------------------------------------------------------------
# fitness


def fitness(
    genome: Genome,
    bundle: ObjectiveBundle,
    expr: Expr,
    inst: ProblemInstance,
    cfg: EAConfig,
) -> float:
    """Scalar penalized fitness of one genome (lower is better)."""
    hc = decode(genome)
    return _score(hc, None, bundle, expr, inst, cfg.penalty)[0]


def _score(
    hc: HeadcountVector,
    tensor: AttendanceTensor | None,
    bundle: ObjectiveBundle,
    expr: Expr,
    inst: ProblemInstance,
    penalty: PenaltyConfig,
) -> tuple[float, float, float]:
    """(penalized fitness, raw objective, violation)."""
    objective = float(sum(evaluate_bundle(bundle, hc, tensor, inst)))
    violation = violation_expr(expr, tensor, hc, inst)
    if penalty.method == "external":
        return objective + penalty.coefficient * violation**2, objective, violation
    # interior barrier
    if violation > 0.0:
        return float("inf"), objective, violation
    barrier = 0.0
    for c in collect_atoms(expr):
        d = boundary_distance(c, tensor, hc, inst)
        if d <= 0.0:
            return float("inf"), objective, violation
        if np.isfinite(d):
            barrier += 1.0 / d
    return objective + penalty.barrier_coefficient * barrier, objective, violation


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


@dataclass(frozen=True, slots=True)
class RunTrace:
    points: tuple[TracePoint, ...]

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
    """Keeps the best penalized, best feasible, and least-violating
    individuals seen so far."""

    def __init__(self):
        self.best_penalized: float = float("inf")
        self.best_genome = None
        self.best_feasible_obj: float = float("inf")
        self.best_feasible = None
        self.least_violation: float = float("inf")
        self.least_violator = None
        self.least_violator_obj: float = float("inf")
        self.evaluations = 0

    def observe(self, genome, scored: tuple[float, float, float]) -> None:
        penalized, objective, violation = scored
        self.evaluations += 1
        if penalized < self.best_penalized:
            self.best_penalized = penalized
            self.best_genome = genome
        if violation == 0.0 and objective < self.best_feasible_obj:
            self.best_feasible_obj = objective
            self.best_feasible = genome
        if violation < self.least_violation or (
            violation == self.least_violation and objective < self.least_violator_obj
        ):
            self.least_violation = violation
            self.least_violator = genome
            self.least_violator_obj = objective


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


def _evolve(
    rng: np.random.Generator,
    population: list[Genome],
    score_fn: Callable[[Genome], tuple[float, float, float]],
    cfg: EAConfig,
) -> tuple[_Tracker, RunTrace]:
    start = time.perf_counter()
    tracker = _Tracker()
    scores = []
    for g in population:
        s = score_fn(g)
        tracker.observe(g, s)
        scores.append(s[0])
    scores = np.asarray(scores)
    points = [
        TracePoint(0, tracker.best_penalized, float(np.mean(scores)), tracker.evaluations,
                   (time.perf_counter() - start) * 1e3)
    ]

    for gen in range(1, cfg.generations + 1):
        offspring: list[Genome] = []
        # elitism: carry the best penalized genome forward untouched
        if tracker.best_genome is not None:
            offspring.append(tracker.best_genome)
        while len(offspring) < cfg.population_size:
            pa = population[_select(rng, scores, cfg)]
            pb = population[_select(rng, scores, cfg)]
            if rng.random() < cfg.crossover_rate:
                ca, cb = _crossover(rng, pa, pb)
            else:
                ca, cb = pa, pb
            offspring.append(_mutate(rng, ca, cfg.mutation_rate))
            if len(offspring) < cfg.population_size:
                offspring.append(_mutate(rng, cb, cfg.mutation_rate))
        population = offspring
        scores = []
        for g in population:
            s = score_fn(g)
            tracker.observe(g, s)
            scores.append(s[0])
        scores = np.asarray(scores)
        points.append(
            TracePoint(gen, tracker.best_penalized, float(np.mean(scores)), tracker.evaluations,
                       (time.perf_counter() - start) * 1e3)
        )
    return tracker, RunTrace(tuple(points))


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
    bounds = inst.headcount_bounds()

    def score(genome: Genome) -> tuple[float, float, float]:
        return _score(decode(genome), None, bundle, expr, inst, cfg.penalty)

    population = _initial_population(rng, bounds, cfg, score)
    tracker, trace = _evolve(rng, population, score, cfg)
    return _result(SolveResult, tracker, trace, cfg.seed, decode)


def _initial_population(
    rng: np.random.Generator,
    bounds: Sequence[tuple[int, int]],
    cfg: EAConfig,
    score_fn: Callable[[Genome], tuple[float, float, float]],
) -> list[Genome]:
    if cfg.penalty.method == "external":
        return [random_genome(rng, bounds, cfg.encoding) for _ in range(cfg.population_size)]
    # interior barrier: start strictly inside the feasible region
    population: list[Genome] = []
    attempts = 0
    cap = 10_000 * cfg.population_size
    while len(population) < cfg.population_size:
        if attempts >= cap:
            raise InfeasibleError(
                "could not sample a strictly feasible starting population "
                f"({cap} attempts); the feasible interior may be empty"
            )
        g = random_genome(rng, bounds, cfg.encoding)
        attempts += 1
        if np.isfinite(score_fn(g)[0]):
            population.append(g)
    return population


def _result(cls, tracker: _Tracker, trace: RunTrace, seed: int, solution: Callable = lambda x: x):
    """A ``cls`` result (:class:`SolveResult` or :class:`AssignmentResult`)
    for the best feasible individual seen, else the least violating one;
    ``solution`` maps the tracked individual to the result's first field."""
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
        trace=trace,
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

    def score(genome: Genome) -> tuple[float, float, float]:
        tensor = build(genome.data)
        objective_value = float(obj_fn(tensor, inst))
        violation = violation_expr(expr, tensor, hc, inst)
        return (
            objective_value + cfg.penalty.coefficient * violation**2,
            objective_value,
            violation,
        )

    bit_bounds = tuple((0, 1) for _ in range(n_bits))
    # warm start: full attendance is feasible whenever the counts are,
    # so keep one all-ones roster among the random initial rosters
    population = [Genome("bg", np.ones(n_bits, dtype=np.uint8), bit_bounds)]
    population += [
        Genome("bg", rng.integers(0, 2, size=n_bits, dtype=np.uint8), bit_bounds)
        for _ in range(cfg.population_size - 1)
    ]
    tracker, trace = _evolve(rng, population, score, cfg)

    return _result(AssignmentResult, tracker, trace, cfg.seed, lambda g: build(g.data))
