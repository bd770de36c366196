"""Reference solvers: exact branch-and-bound, particle swarm, and
simulated annealing.

All three optimize the same penalized scalar the evolutionary solver
uses, over the same per-job headcount box, so their results are directly
comparable.  The exact solver is the ground truth on instances small
enough to enumerate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .constraints import Expr, collect_atoms, is_conjunction, ConstraintKind
from .domain import HeadcountVector, ProblemInstance
from .errors import ConfigurationError, InfeasibleError, SearchSpaceError
from .evolution import (
    PenaltyConfig,
    RunTrace,
    SolveResult,
    TracePoint,
    _result,
    _score,
    _Tracker,
)
from .objectives import Direction, ObjectiveBundle, ObjectiveKind

MAX_EXACT_NODES = 100_000_000


# ---------------------------------------------------------------------------
# exact search


def _bundle_monotone(bundle: ObjectiveBundle) -> bool:
    """True when every objective's min-oriented value can only grow as
    counts grow, making lower-bound pruning sound."""
    growing = (
        ObjectiveKind.TOTAL_TIME,
        ObjectiveKind.TOTAL_SALARY,
        ObjectiveKind.MULTISHIFT_SALARY,
    )
    return all(
        o.kind in growing and o.direction is Direction.MINIMIZE for o in bundle
    )


def ip_solve(
    inst: ProblemInstance,
    bundle: ObjectiveBundle,
    expr: Expr,
    penalty: Optional[PenaltyConfig] = None,
) -> SolveResult:
    """Depth-first exact search over the headcount box.

    Counts are explored in ascending order per job, so the first optimum
    found is the lexicographically smallest.  With monotone objectives,
    subtrees whose optimistic completion (remaining jobs at their lower
    bounds) already matches the incumbent are pruned; a staffing-cap
    atom inside a pure AND-composition prunes overfull prefixes too.
    """
    del penalty  # exact search needs no penalty; kept for registry parity
    start = time.perf_counter()
    bounds = inst.headcount_bounds()
    estimate = 1
    for lo, hi in bounds:
        estimate *= hi - lo + 1
    if estimate > MAX_EXACT_NODES:
        raise SearchSpaceError(
            f"search space of {estimate} points exceeds the exact-solver cap",
            estimate=estimate,
        )

    from .constraints import violation_expr
    from .objectives import evaluate_bundle

    monotone = _bundle_monotone(bundle)
    cap_prune = is_conjunction(expr) and any(
        c.kind is ConstraintKind.STAFF_CAP for c in collect_atoms(expr)
    )
    lows = [lo for lo, _ in bounds]
    min_tail = [0] * (len(bounds) + 1)
    for j in range(len(bounds) - 1, -1, -1):
        min_tail[j] = min_tail[j + 1] + lows[j]

    best_value = float("inf")
    best_counts: Optional[tuple[int, ...]] = None
    evaluations = 0
    n = len(bounds)
    prefix: list[int] = []

    def objective_at(counts: Sequence[int]) -> float:
        return float(sum(evaluate_bundle(bundle, HeadcountVector(tuple(counts)), None, inst)))

    def walk(j: int) -> None:
        nonlocal best_value, best_counts, evaluations
        if j == n:
            hc = HeadcountVector(tuple(prefix))
            evaluations += 1
            if violation_expr(expr, None, hc, inst) == 0.0:
                value = objective_at(prefix)
                if value < best_value:
                    best_value = value
                    best_counts = hc.counts
            return
        lo, hi = bounds[j]
        for v in range(lo, hi + 1):
            prefix.append(v)
            skip = False
            if cap_prune and sum(prefix) + min_tail[j + 1] > inst.max_total_staff:
                skip = True
            if not skip and monotone and best_counts is not None:
                optimistic = objective_at(prefix + lows[j + 1 :])
                if optimistic >= best_value:
                    skip = True
            if not skip:
                walk(j + 1)
            prefix.pop()

    walk(0)
    millis = (time.perf_counter() - start) * 1e3
    if best_counts is None:
        raise InfeasibleError("no feasible headcount vector in the search box")
    trace = RunTrace((TracePoint(0, best_value, best_value, evaluations, millis),))
    return SolveResult(
        counts=HeadcountVector(best_counts),
        value=best_value,
        feasible=True,
        violation=0.0,
        trace=trace,
        evaluations=evaluations,
        seed=0,
    )


# ---------------------------------------------------------------------------
# particle swarm


@dataclass(frozen=True)
class PSOConfig:
    swarm_size: int = 40
    iterations: int = 100
    inertia: tuple[float, float] = (0.9, 0.4)
    cognitive: float = 2.0
    social: float = 2.0
    v_max: Optional[float] = None
    seed: int = 0
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)

    def __post_init__(self):
        if self.swarm_size < 2 or self.iterations < 0:
            raise ConfigurationError("swarm_size >= 2 and iterations >= 0 required")
        if self.cognitive < 0 or self.social < 0:
            raise ConfigurationError("acceleration coefficients must be nonnegative")
        if any(w < 0 for w in self.inertia):
            raise ConfigurationError("inertia weights must be nonnegative")


def pso_step(
    particle: tuple[np.ndarray, np.ndarray],
    p_best: np.ndarray,
    g_best: np.ndarray,
    cfg: PSOConfig,
    rng: np.random.Generator,
    inertia: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One update of a particle ``(position, velocity)`` — or of a whole
    swarm stacked along the leading axis, since the math is elementwise.

    The new velocity blends inertia with pulls toward the particle's own
    best and the swarm best, each scaled by a fresh uniform draw from
    ``rng``; velocities are clipped to ``cfg.v_max`` but positions fly
    free.  ``inertia`` overrides the schedule (the solver passes the
    weight for the current iteration; default is the schedule start).
    """
    x = np.asarray(particle[0], dtype=float)
    v = np.asarray(particle[1], dtype=float)
    w = float(cfg.inertia[0]) if inertia is None else float(inertia)
    r1 = rng.random(x.shape)
    r2 = rng.random(x.shape)
    v = w * v + cfg.cognitive * r1 * (p_best - x) + cfg.social * r2 * (g_best - x)
    if cfg.v_max is not None:
        v = np.clip(v, -cfg.v_max, cfg.v_max)
    return x + v, v


def pso_solve(
    inst: ProblemInstance,
    bundle: ObjectiveBundle,
    expr: Expr,
    cfg: PSOConfig,
) -> SolveResult:
    """Particle swarm over the headcount box (positions rounded and
    clamped for evaluation only)."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    bounds = inst.headcount_bounds()
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    span = np.maximum(hi - lo, 1.0)

    start = time.perf_counter()
    tracker = _Tracker()

    def representative(x: np.ndarray) -> HeadcountVector:
        z = np.clip(np.rint(x), lo, hi).astype(int)
        return HeadcountVector(tuple(int(c) for c in z))

    def assess(x: np.ndarray) -> float:
        hc = representative(x)
        scored = _score(hc, None, bundle, expr, inst, cfg.penalty)
        tracker.observe(hc, scored)
        return scored[0]

    positions = rng.uniform(lo, hi, size=(cfg.swarm_size, len(bounds)))
    velocities = np.zeros_like(positions)
    scores = np.array([assess(x) for x in positions])
    pbest = positions.copy()
    pbest_scores = scores.copy()
    g = int(np.argmin(pbest_scores))
    gbest = pbest[g].copy()
    gbest_score = float(pbest_scores[g])

    points = [
        TracePoint(0, tracker.best_penalized, float(np.mean(scores)), tracker.evaluations,
                   (time.perf_counter() - start) * 1e3)
    ]
    w_start, w_end = cfg.inertia
    step_cfg = cfg if cfg.v_max is not None else replace(cfg, v_max=float(span.max()))
    for it in range(1, cfg.iterations + 1):
        w = w_start + (w_end - w_start) * (it - 1) / max(1, cfg.iterations - 1)
        positions, velocities = pso_step(
            (positions, velocities), pbest, gbest, step_cfg, rng, inertia=w
        )
        scores = np.array([assess(x) for x in positions])
        improved = scores < pbest_scores
        pbest[improved] = positions[improved]
        pbest_scores[improved] = scores[improved]
        g = int(np.argmin(pbest_scores))
        if float(pbest_scores[g]) < gbest_score:
            gbest_score = float(pbest_scores[g])
            gbest = pbest[g].copy()
        points.append(
            TracePoint(it, tracker.best_penalized, float(np.mean(scores)), tracker.evaluations,
                       (time.perf_counter() - start) * 1e3)
        )
    return _result(SolveResult, tracker, RunTrace(tuple(points)), cfg.seed)


# ---------------------------------------------------------------------------
# simulated annealing


@dataclass(frozen=True)
class SAConfig:
    initial_temperature: float = 100.0
    cooling: float = 0.9
    final_temperature: float = 0.01
    moves_per_temperature: int = 40
    seed: int = 0
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)

    def __post_init__(self):
        if self.initial_temperature <= 0 or self.final_temperature <= 0:
            raise ConfigurationError("temperatures must be positive")
        if not 0.0 < self.cooling < 1.0:
            raise ConfigurationError("cooling factor must be in (0, 1)")
        if self.initial_temperature < self.final_temperature:
            raise ConfigurationError("initial temperature below final temperature")
        if self.moves_per_temperature < 1:
            raise ConfigurationError("moves_per_temperature must be positive")


@dataclass(frozen=True)
class SAState:
    """One annealing state: a candidate staffing and its energy, the
    penalized objective value."""

    candidate: HeadcountVector
    energy: float


def sa_accept(
    energy_a: float,
    energy_b: float,
    temperature: float,
    rng: np.random.Generator,
) -> bool:
    """Metropolis rule for moving from energy ``energy_a`` to
    ``energy_b``: a drop always passes; otherwise the move passes with
    probability exp(-(energy_b - energy_a) / temperature), judged
    against a fresh uniform draw (a zero change therefore always
    passes)."""
    delta = energy_b - energy_a
    if delta < 0.0:
        return True
    if temperature <= 0.0:
        return delta == 0.0
    return float(rng.random()) < math.exp(-delta / temperature)


def sa_solve(
    inst: ProblemInstance,
    bundle: ObjectiveBundle,
    expr: Expr,
    cfg: SAConfig,
) -> SolveResult:
    """Annealing over the headcount box with single-coordinate +/-1
    moves and geometric cooling; the best state ever visited wins."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    bounds = inst.headcount_bounds()
    start = time.perf_counter()
    tracker = _Tracker()

    def assess(counts: tuple[int, ...]) -> float:
        hc = HeadcountVector(counts)
        scored = _score(hc, None, bundle, expr, inst, cfg.penalty)
        tracker.observe(hc, scored)
        return scored[0]

    counts = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in bounds)
    current = SAState(HeadcountVector(counts), assess(counts))
    points = [TracePoint(0, tracker.best_penalized, current.energy, tracker.evaluations,
                         (time.perf_counter() - start) * 1e3)]

    temperature = cfg.initial_temperature
    level = 0
    while temperature >= cfg.final_temperature:
        level += 1
        walk_energies = []
        for _ in range(cfg.moves_per_temperature):
            j = int(rng.integers(len(bounds)))
            step = 1 if rng.random() < 0.5 else -1
            lo, hi = bounds[j]
            here = current.candidate.counts
            moved = min(hi, max(lo, here[j] + step))
            if moved == here[j]:
                continue
            cand_counts = here[:j] + (moved,) + here[j + 1 :]
            cand = SAState(HeadcountVector(cand_counts), assess(cand_counts))
            if sa_accept(current.energy, cand.energy, temperature, rng):
                current = cand
            walk_energies.append(current.energy)
        mean_e = float(np.mean(walk_energies)) if walk_energies else current.energy
        points.append(TracePoint(level, tracker.best_penalized, mean_e, tracker.evaluations,
                                 (time.perf_counter() - start) * 1e3))
        temperature *= cfg.cooling
    return _result(SolveResult, tracker, RunTrace(tuple(points)), cfg.seed)
