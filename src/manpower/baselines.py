"""Reference solvers: exact branch-and-bound, particle swarm, and
simulated annealing.

All three score staffings through the evolutionary solver's scorer
(:class:`~manpower.evolution._Scorer`) and record them with its
tracker, over the same per-job headcount box, so their results are
directly comparable: the swarm scores all its particles with one call,
annealing and the exact search one staffing at a time through the
scorer's memo.  The exact solver is the ground truth on instances small
enough to enumerate; its pruning bound prices a completion with the
same objective function, without the constraint check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .constraints import Expr, collect_atoms, is_conjunction, ConstraintKind
from .domain import HeadcountVector, ProblemInstance
from .errors import ConfigurationError, InfeasibleError, SearchSpaceError
from .evolution import (
    PenaltyConfig,
    SolveResult,
    _box,
    _mean,
    _result,
    _Scorer,
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


def ip_solve(inst: ProblemInstance, bundle: ObjectiveBundle, expr: Expr) -> SolveResult:
    """Depth-first exact search over the headcount box.

    Counts are explored in ascending order per job, so the first optimum
    found is the lexicographically smallest.  With monotone objectives,
    subtrees whose optimistic completion (remaining jobs at their lower
    bounds) already matches the incumbent are pruned; a staffing-cap
    atom inside a pure AND-composition prunes overfull prefixes too.
    """
    scorer = _Scorer.staffings(bundle, expr, inst, PenaltyConfig())
    tracker = _Tracker(scorer.score)
    bounds = inst.headcount_bounds()
    estimate = 1
    for lo, hi in bounds:
        estimate *= hi - lo + 1
    if estimate > MAX_EXACT_NODES:
        raise SearchSpaceError(
            f"search space of {estimate} points exceeds the exact-solver cap",
            estimate=estimate,
        )

    monotone = _bundle_monotone(bundle)
    cap_prune = is_conjunction(expr) and any(
        c.kind is ConstraintKind.STAFF_CAP for c in collect_atoms(expr)
    )
    lows = [lo for lo, _ in bounds]
    min_tail = [0] * (len(bounds) + 1)
    for j in range(len(bounds) - 1, -1, -1):
        min_tail[j] = min_tail[j + 1] + lows[j]

    n = len(bounds)
    prefix: list[int] = []

    def walk(j: int, descend: Callable[[int, Callable], None]) -> None:
        if j == n:
            # the tracker keeps the first strictly best feasible leaf
            tracker.assess(tuple(prefix))
            return
        lo, hi = bounds[j]
        for v in range(lo, hi + 1):
            prefix.append(v)
            skip = False
            if cap_prune and sum(prefix) + min_tail[j + 1] > inst.max_total_staff:
                skip = True
            if not skip and monotone and tracker.best_feasible is not None:
                completion = np.array([prefix + lows[j + 1 :]], dtype=float)
                if scorer.objective(completion)[0][0] >= tracker.best_feasible_obj:
                    skip = True
            if not skip:
                descend(j + 1, descend)
            prefix.pop()

    # walk is handed itself rather than closing over its own name, which
    # would make a reference cycle that only the cyclic collector frees
    walk(0, walk)
    if tracker.best_feasible is None:
        raise InfeasibleError("no feasible headcount vector in the search box")
    best = tracker.best_feasible_obj
    tracker.mark(0, best, best=best)
    return _result(SolveResult, tracker, 0, HeadcountVector)


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
        if not (2 <= self.swarm_size < math.inf and 0 <= self.iterations < math.inf):
            raise ConfigurationError("finite swarm_size >= 2 and iterations >= 0 required")
        if not all(0 <= c < math.inf for c in (self.cognitive, self.social)):
            raise ConfigurationError("acceleration coefficients must be finite and nonnegative")
        if not all(0 <= w < math.inf for w in self.inertia):
            raise ConfigurationError("inertia weights must be finite and nonnegative")
        if self.v_max is not None and not 0 < self.v_max < math.inf:
            raise ConfigurationError("v_max must be positive and finite")


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
        v = np.minimum(np.maximum(v, -cfg.v_max), cfg.v_max)  # np.clip's values, sooner
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
    box = _box(inst.headcount_bounds())
    lo, hi = box.lo, box.hi
    span = np.maximum(hi - lo, 1.0)
    scorer = _Scorer.staffings(bundle, expr, inst, cfg.penalty)
    tracker = _Tracker()

    def assess(x: np.ndarray) -> np.ndarray:
        """Penalized scores of the swarm's positions, each rounded and
        clamped into the box, scored with one call and recorded."""
        rounded = np.minimum(np.maximum(np.rint(x), lo), hi)
        return tracker.record(rounded, *scorer.rows(rounded)[:3])

    positions = rng.uniform(lo, hi, size=(cfg.swarm_size, len(lo)))
    velocities = np.zeros_like(positions)
    scores = assess(positions)
    pbest = positions.copy()
    pbest_scores = scores.copy()
    g = int(np.argmin(pbest_scores))
    gbest = pbest[g].copy()
    gbest_score = float(pbest_scores[g])

    tracker.mark(0, _mean(scores))
    w_start, w_end = cfg.inertia
    step_cfg = cfg if cfg.v_max is not None else replace(cfg, v_max=float(span.max()))
    for it in range(1, cfg.iterations + 1):
        w = w_start + (w_end - w_start) * (it - 1) / max(1, cfg.iterations - 1)
        positions, velocities = pso_step(
            (positions, velocities), pbest, gbest, step_cfg, rng, inertia=w
        )
        scores = assess(positions)
        improved = scores < pbest_scores
        pbest[improved] = positions[improved]
        pbest_scores[improved] = scores[improved]
        g = int(np.argmin(pbest_scores))
        if float(pbest_scores[g]) < gbest_score:
            gbest_score = float(pbest_scores[g])
            gbest = pbest[g].copy()
        tracker.mark(it, _mean(scores))
    return _result(SolveResult, tracker, cfg.seed, HeadcountVector)


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
        if not all(0 < t < math.inf for t in (self.initial_temperature, self.final_temperature)):
            raise ConfigurationError("temperatures must be positive and finite")
        if not 0.0 < self.cooling < 1.0:
            raise ConfigurationError("cooling factor must be in (0, 1)")
        if self.initial_temperature < self.final_temperature:
            raise ConfigurationError("initial temperature below final temperature")
        if not 1 <= self.moves_per_temperature < math.inf:
            raise ConfigurationError("moves_per_temperature must be positive and finite")


def sa_accept(energy_a: float, energy_b: float, temperature: float, u: float) -> bool:
    """Metropolis rule for moving from energy ``energy_a`` to
    ``energy_b``: a drop always passes; otherwise the move passes with
    probability exp(-(energy_b - energy_a) / temperature), judged
    against the move's uniform draw ``u`` in [0, 1) (a zero change
    therefore always passes)."""
    delta = energy_b - energy_a
    if delta < 0.0:
        return True
    if temperature <= 0.0:
        return delta == 0.0
    return u < math.exp(-delta / temperature)


def sa_solve(
    inst: ProblemInstance,
    bundle: ObjectiveBundle,
    expr: Expr,
    cfg: SAConfig,
) -> SolveResult:
    """Annealing over the headcount box with single-coordinate +/-1
    moves and geometric cooling; the best state ever visited wins.

    The start is one ``rng.integers(lo, hi + 1)`` draw on the box.  Each
    temperature level then draws its whole walk up front: the coordinate
    of every move (``rng.integers(J, size=moves)``), its direction
    (``rng.random(moves)``, up below 0.5) and its acceptance uniform
    (``rng.random(moves)``, drawn whether or not it is used).  A move
    that would leave the box is skipped."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    box = np.array(inst.headcount_bounds(), dtype=np.int64).reshape(-1, 2)
    lows, highs = box.T.tolist()
    tracker = _Tracker(_Scorer.staffings(bundle, expr, inst, cfg.penalty).score)
    assess = tracker.assess

    here = tuple(rng.integers(box[:, 0], box[:, 1] + 1).tolist())
    energy = assess(here)[0]
    tracker.mark(0, energy)

    temperature = cfg.initial_temperature
    level = 0
    moves = cfg.moves_per_temperature
    while temperature >= cfg.final_temperature:
        level += 1
        coordinates = rng.integers(len(lows), size=moves).tolist()
        ups = (rng.random(moves) < 0.5).tolist()
        uniforms = rng.random(moves).tolist()
        walk_energies = []
        for j, up, u in zip(coordinates, ups, uniforms):
            moved = here[j] + 1 if up else here[j] - 1
            if not lows[j] <= moved <= highs[j]:
                continue
            candidate = here[:j] + (moved,) + here[j + 1:]
            candidate_energy = assess(candidate)[0]
            if sa_accept(energy, candidate_energy, temperature, u):
                here, energy = candidate, candidate_energy
            walk_energies.append(energy)
        mean_e = float(np.mean(walk_energies)) if walk_energies else energy
        tracker.mark(level, mean_e)
        temperature *= cfg.cooling
    return _result(SolveResult, tracker, cfg.seed, HeadcountVector)
