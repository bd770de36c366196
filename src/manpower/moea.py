"""Elite multi-objective search (non-dominated sorting + crowding).

Individuals are ranked by constraint-domination (Deb 2000): feasible
beats infeasible, less violation beats more, and among feasible
candidates ordinary Pareto dominance on the (min-oriented) objective
vector decides.  A population is an (N, M) objective array with a
violation vector; :func:`non_dominated_sort` compares every pair at once
in one N x N domination matrix and peels the NSGA-II fronts (Deb et al.
2002) from it.  An external archive, also an objective array,
accumulates every feasible non-dominated headcount vector ever seen, so
its hypervolume can only grow; two-objective hypervolume is one sweep.
The pairwise-loop versions are the reference in ``tests/oracle.py``.
Each generation is decoded into one headcount matrix and scored with
one call of the scorer of :mod:`~manpower.evolution`; only feasible
staffings not offered before reach the archive.  Offspring are bred by
the same loop as the single-objective solver's, with a rank-and-crowding
tournament in place of its selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# perfbench's tracer patches violation_expr, evaluate_bundle, decode and random_genome here
from .constraints import Expr, violation_expr
from .domain import HeadcountVector, ProblemInstance
from .errors import StructuralError
from .evolution import (
    EAConfig,
    Genome,
    PenaltyConfig,
    RunTrace,
    _breed,
    _decode_rows,
    _Packed,
    _Scorer,
    _Tracker,
    decode,
    random_genome,
)
from .objectives import ObjectiveBundle, evaluate_bundle


def _domination_matrix(objectives: np.ndarray, violations: np.ndarray) -> np.ndarray:
    """``D[i, j]`` is True when member ``i`` constraint-dominates member ``j``."""
    v = violations
    feasible, infeasible = v == 0.0, v > 0.0
    wins_on_feasibility = feasible[:, None] & infeasible[None, :]
    loses_on_feasibility = infeasible[:, None] & feasible[None, :]
    both_infeasible = infeasible[:, None] & infeasible[None, :]
    pareto_decides = ~(wins_on_feasibility | loses_on_feasibility | both_infeasible)
    a, b = objectives[:, None, :], objectives[None, :, :]
    # "never worse, somewhere better" rather than "<= everywhere", so a
    # coordinate that compares neither way is ignored, as in the loop
    pareto = ~(a > b).any(axis=2) & (a < b).any(axis=2)
    return (wins_on_feasibility
            | (both_infeasible & (v[:, None] < v[None, :]))
            | (pareto_decides & pareto))


def non_dominated_sort(objectives, violations=None) -> list[list[int]]:
    """Row indices of the (N, M) ``objectives`` split into fronts; front 0
    is non-dominated.  ``violations`` holds each row's total violation
    (default: every row feasible).

    Front 0 lists its members by index.  A later member is listed by the
    position of its last dominator in the previous front, then by index:
    the order of the pairwise peeling loop, which crowding tie-breaks
    and so every seeded run depend on.
    """
    objs = np.asarray(objectives, dtype=float)
    if len(objs) == 0:
        return []
    if objs.ndim != 2:
        raise StructuralError(f"objectives must be one row per member, got shape {objs.shape}")
    viol = np.zeros(len(objs)) if violations is None else np.asarray(violations, dtype=float)
    if viol.shape != (len(objs),):
        raise StructuralError(f"{len(objs)} members but violations of shape {viol.shape}")
    dom = _domination_matrix(objs, viol)
    count = dom.sum(axis=0)  # dominators not yet placed in a front
    fronts: list[list[int]] = []
    front = np.flatnonzero(count == 0)
    while front.size:
        fronts.append(front.tolist())
        hits = dom[front]
        count -= hits.sum(axis=0)
        freed = np.flatnonzero((count == 0) & hits.any(axis=0))
        last = len(front) - 1 - np.argmax(hits[::-1, freed], axis=0)
        front = freed[np.argsort(last, kind="stable")]
    return fronts


def crowding(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """Crowding distances for one front; boundary points get +inf."""
    n = len(objectives)
    dist = np.zeros(n)
    if n == 0:
        return dist
    objs = np.asarray(objectives, dtype=float)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for m in range(objs.shape[1]):
        order = np.argsort(objs[:, m], kind="stable")
        lo, hi = objs[order[0], m], objs[order[-1], m]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if hi > lo:
            # a boundary point of an earlier objective stays +inf
            dist[order[1:-1]] += (objs[order[2:], m] - objs[order[:-2], m]) / (hi - lo)
    return dist


# ---------------------------------------------------------------------------
# archive


@dataclass(frozen=True)
class ArchiveEntry:
    counts: HeadcountVector
    objectives: tuple[float, ...]


class ParetoArchive:
    """Cumulative store of feasible non-dominated headcount vectors.

    Deduplicates by counts (objectives are a function of counts here),
    so re-encountered points are free.  Dominated entries are evicted;
    the archive's hypervolume never decreases.  The entries' objectives
    are also held as one (n, M) array, so an offer is compared with all
    of them at once; objectives must be finite, which
    :func:`~manpower.objectives.evaluate_bundle` ensures.
    """

    def __init__(self):
        self._entries: list[ArchiveEntry] = []
        self._objectives: np.ndarray | None = None
        self._seen: set[tuple[int, ...]] = set()

    def offer(self, counts: HeadcountVector, objectives: tuple[float, ...], violation: float) -> bool:
        if violation > 0.0:
            return False
        key = counts.counts
        if key in self._seen:
            return False
        self._seen.add(key)
        new = np.array(objectives, dtype=float)
        held = np.empty((0, len(new))) if self._objectives is None else self._objectives
        if held.shape[1] != len(new):
            raise StructuralError(f"objective arity mismatch: {held.shape[1]} vs {len(new)}")
        if (held <= new).all(axis=1).any():  # dominated by or equal to an entry
            return False
        # no entry equals ``new``, so "nowhere worse" is domination here
        evicted = (new <= held).all(axis=1)
        if evicted.any():
            self._entries = [e for e, out in zip(self._entries, evicted.tolist()) if not out]
            held = held[~evicted]
        self._entries.append(ArchiveEntry(counts, objectives))
        self._objectives = np.vstack([held, new])
        return True

    def offered(self, counts: tuple[int, ...]) -> bool:
        """True when these counts were offered before."""
        return counts in self._seen

    def entries(self) -> tuple[ArchiveEntry, ...]:
        return tuple(sorted(self._entries, key=lambda e: e.objectives))

    def __len__(self) -> int:
        return len(self._entries)


def hypervolume(points: Sequence[Sequence[float]], ref: Sequence[float]) -> float:
    """Volume dominated by min-oriented ``points`` up to ``ref`` (the
    union of boxes [p, ref]); points not strictly below ``ref`` in every
    coordinate are ignored.

    Slices along the leading coordinate.  With two objectives a slice is
    a box up to the running minimum of the second coordinate, so the
    recursion becomes one sweep that adds the same terms in the same
    order.
    """
    ref = tuple(float(r) for r in ref)
    pts = sorted(
        {
            tuple(float(v) for v in p)
            for p in points
            if len(p) == len(ref) and all(v < r for v, r in zip(p, ref))
        }
    )
    if not pts:
        return 0.0

    def volume(pts: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
        if len(ref) == 1:
            return ref[0] - min(p[0] for p in pts)
        pts = sorted(set(pts))  # ascending in the leading coordinate
        total = 0.0
        lowest = np.inf  # of the second coordinate over pts[: i + 1]
        for i, p in enumerate(pts):
            upper = pts[i + 1][0] if i + 1 < len(pts) else ref[0]
            width = upper - p[0]
            lowest = min(lowest, p[1])
            if width > 0.0 and len(ref) == 2:
                total += width * (ref[1] - lowest)
            elif width > 0.0:
                total += width * volume([q[1:] for q in pts[: i + 1]], ref[1:])
        return total

    return volume(pts, ref)


# ---------------------------------------------------------------------------
# search


def _pack_archive(entries: Sequence[ArchiveEntry]) -> tuple[np.ndarray, np.ndarray]:
    counts = np.array([e.counts.counts for e in entries], dtype=np.int32)
    objectives = np.array([e.objectives for e in entries], dtype=float)
    return counts, objectives


def _unpack_archive(arrays: tuple[np.ndarray, np.ndarray]) -> tuple[ArchiveEntry, ...]:
    counts, objectives = arrays
    return tuple(ArchiveEntry(HeadcountVector(c), tuple(o))
                 for c, o in zip(counts.tolist(), objectives.tolist()))


@dataclass(frozen=True)
class MOEAResult:
    archive: tuple[ArchiveEntry, ...] = _Packed(_pack_archive, _unpack_archive)
    trace: RunTrace
    evaluations: int
    seed: int
    reference_point: tuple[float, ...]


def run_moea(
    inst: ProblemInstance,
    bundle: ObjectiveBundle,
    expr: Expr,
    cfg: EAConfig,
) -> MOEAResult:
    """Evolve a population toward the feasible Pareto front of the
    bundled objectives under the constraint expression."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    bounds = inst.headcount_bounds()
    archive = ParetoArchive()
    # ranking reads objectives and violations only, so the penalty is moot
    scorer = _Scorer.staffings(bundle, expr, inst, PenaltyConfig())
    tracker = _Tracker()

    def assess(genomes: list[Genome]) -> tuple[np.ndarray, np.ndarray]:
        """Objective rows and violations of ``genomes``, scored with one
        call; feasible staffings not offered before go to the archive,
        in member order."""
        counts = _decode_rows(genomes)
        penalized, objective, violations, rows = scorer.rows(counts)
        tracker.record(genomes, penalized, objective, violations)
        keys = counts.astype(np.int64).tolist()
        for i in np.flatnonzero(violations == 0.0).tolist():
            key = tuple(keys[i])
            if not archive.offered(key):
                archive.offer(HeadcountVector(key), tuple(rows[i].tolist()), 0.0)
        return rows, violations

    population = [random_genome(rng, bounds, cfg.encoding) for _ in range(cfg.population_size)]
    objectives, violations = assess(population)

    # freeze the hypervolume reference after the first evaluation sweep
    ref = tuple(float(w) + 1.0 for w in objectives.max(axis=0))

    def mark(gen: int) -> None:
        hv = hypervolume([e.objectives for e in archive.entries()], ref)
        tracker.mark(gen, float(len(archive)), best=hv)

    mark(0)

    for gen in range(1, cfg.generations + 1):
        ranks, crowd = _rank_and_crowd(objectives, violations)

        def pick() -> Genome:
            i, j = int(rng.integers(len(population))), int(rng.integers(len(population)))
            if ranks[i] != ranks[j]:
                return population[i] if ranks[i] < ranks[j] else population[j]
            return population[i] if crowd[i] >= crowd[j] else population[j]

        offspring = _breed(rng, [], pick, cfg)
        child_objectives, child_violations = assess(offspring)

        pool = population + offspring
        pool_objectives = np.vstack([objectives, child_objectives])
        pool_violations = np.concatenate([violations, child_violations])
        keep = _environmental_selection(pool_objectives, pool_violations, cfg.population_size)
        population = [pool[i] for i in keep]
        objectives, violations = pool_objectives[keep], pool_violations[keep]
        mark(gen)

    return MOEAResult(
        archive=archive.entries(),
        trace=tracker.trace(),
        evaluations=tracker.evaluations,
        seed=cfg.seed,
        reference_point=ref,
    )


def _rank_and_crowd(objectives: np.ndarray, violations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    fronts = non_dominated_sort(objectives, violations)
    ranks = np.zeros(len(objectives), dtype=np.int64)
    crowd = np.zeros(len(objectives))
    for r, front in enumerate(fronts):
        ranks[front] = r
        crowd[front] = crowding(objectives[front])
    return ranks, crowd


def _environmental_selection(objectives: np.ndarray, violations: np.ndarray, size: int) -> list[int]:
    """Indices of the best ``size`` members: whole fronts while they fit,
    then the most isolated members of the first overflowing front."""
    fronts = non_dominated_sort(objectives, violations)
    keep: list[int] = []
    for front in fronts:
        if len(keep) + len(front) <= size:
            keep.extend(front)
            continue
        dists = crowding(objectives[front])
        order = sorted(range(len(front)), key=lambda k: -dists[k])
        keep.extend(front[k] for k in order[: size - len(keep)])
        break
    return keep
