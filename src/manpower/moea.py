"""Elite multi-objective search (non-dominated sorting + crowding).

Individuals are ranked by constraint-domination (Deb 2000): feasible
beats infeasible, less violation beats more, and among feasible
candidates ordinary Pareto dominance on the (min-oriented) objective
vector decides.  A population is an (N, M) objective array with a
violation vector; :func:`non_dominated_sort` peels the NSGA-II fronts
(Deb et al. 2002) of one or two objectives from one lexicographic sort
(Jensen 2003), and of three or more from one N x N domination matrix.
An external archive, a counts matrix beside an objective matrix with
entries built on read, accumulates every feasible non-dominated
headcount vector ever seen, so its hypervolume can only grow.  It takes
each generation's feasible rows as one block and admits and evicts them
with a few matrix comparisons, ending as if they were offered one by
one.  Two-objective hypervolume is one array sweep over the archive's
objective array.  The
pairwise-loop versions are the reference in ``tests/oracle.py``.  The
population is one gene matrix, decoded into one headcount matrix and
scored with one call of the scorer of :mod:`~manpower.evolution`, and
the starting population is drawn with one generator call.  Offspring
are bred by the single-objective solver's
:func:`~manpower.breeding.breed`, from four whole-array draws a
generation, with a rank-and-crowding tournament (:func:`_crowded_pick`,
chosen for all pairs at once) in place of its selection.  The pool of
parents and offspring is peeled once per generation, up to the cut,
and the kept members' ranks and crowding are read off that one peel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .breeding import _Pick, breed
# perfbench's tracer patches violation_expr, evaluate_bundle, decode and random_genome here
from .constraints import Expr, violation_expr
from .domain import HeadcountVector, ProblemInstance
from .errors import StructuralError
from .evolution import (
    EAConfig,
    PenaltyConfig,
    RunTrace,
    _box,
    _decode_rows,
    _Packed,
    _random_genes,
    _Scorer,
    _Tracker,
    decode,
    random_genome,
)
from .objectives import ObjectiveBundle, evaluate_bundle


def _below(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L[i, j]``: some column of row ``a[i]`` is below row ``b[j]``.  Pareto
    dominance is ``L[i, j] & ~L[j, i]``, better somewhere, worse nowhere."""
    below = np.zeros((len(a), len(b)), dtype=bool)
    for x, y in zip(a.T, b.T):
        below |= x[:, None] < y[None, :]
    return below


def non_dominated_sort(objectives, violations=None) -> list[list[int]]:
    """Row indices of the (N, M) ``objectives`` split into fronts; front 0
    is non-dominated.  ``violations`` holds each row's total violation,
    0.0 or more (default: every row feasible); a negative or NaN one, or
    a NaN objective, raises :class:`StructuralError`.

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
    if np.isnan(objs).any():
        raise StructuralError(f"objectives must not be NaN, got row {int(np.isnan(objs).any(axis=1).argmax())}")
    viol = np.zeros(len(objs)) if violations is None else np.asarray(violations, dtype=float)
    if viol.shape != (len(objs),):
        raise StructuralError(f"{len(objs)} members but violations of shape {viol.shape}")
    if not (viol >= 0.0).all():
        raise StructuralError(f"violations must be 0.0 or more, got {viol[~(viol >= 0.0)][0]}")
    return [front.tolist() for front, _ in _peel(objs, viol)]


def _peel(objectives: np.ndarray, violations: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the fronts of the (N, M) ``objectives`` under the
    ``violations``, in :func:`non_dominated_sort`'s member order, each
    with the position of each member's last dominator in the previous
    front (0 in front 0).  A front is peeled only when it is asked for.

    One or two objectives (one serves as both columns) are swept in one
    lexicographic sort of the feasible members, a run of equal vectors
    at a time: a run joins the current front when its second objective
    is below that of every earlier run left, and the first run left
    always joins, even at +inf.  A later front is ordered by the last
    dominators that the small block between it and the previous front
    shows, then by index.  The infeasible members follow, one front per
    violation level, by index.  Other arities use :func:`_matrix_peel`.
    """
    if objectives.shape[1] not in (1, 2):
        yield from _matrix_peel(objectives, violations)
        return
    feasible = np.flatnonzero(violations == 0.0)
    x, y = objectives[feasible, 0], objectives[feasible, -1]
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    run = np.ones(len(order), dtype=bool)  # the first member of a run of equal vectors
    run[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    run_of = np.empty(len(order), dtype=np.intp)  # each feasible member's run
    run_of[order] = np.cumsum(run) - 1
    left, low = np.arange(np.count_nonzero(run)), y[run]  # the runs not yet placed, and their y
    prev = feasible[:0]
    while left.size:
        joins = np.append(True, low[1:] < np.minimum.accumulate(low[:-1]))
        placed = np.zeros(len(run_of), dtype=bool)  # by run; there are no more runs than members
        placed[left[joins]] = True
        front = feasible[placed[run_of]]
        left, low = left[~joins], low[~joins]
        last = np.zeros(len(front), dtype=np.intp)
        if prev.size:
            a, b = objectives[prev], objectives[front]
            dom = _below(a, b) & ~_below(b, a).T
            last = len(prev) - 1 - np.argmax(dom[::-1], axis=0)
            by_last = np.argsort(last, kind="stable")
            front, last = front[by_last], last[by_last]
        yield front, last
        prev = front
    levels = np.argsort(violations, kind="stable")[len(feasible):]  # the infeasible members
    if levels.size:
        v = violations[levels]
        for front in np.split(levels, np.flatnonzero(v[1:] != v[:-1]) + 1):
            yield front, np.full(len(front), max(len(prev) - 1, 0), dtype=np.intp)
            prev = front


def _matrix_peel(objectives: np.ndarray, violations: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`_peel` by the N x N domination matrix: less violation wins,
    which covers feasible over infeasible, then feasible pairs' dominance."""
    below = _below(objectives, objectives)
    feasible = violations == 0.0
    dom = (violations[:, None] < violations) | (below & ~below.T & feasible & feasible[:, None])
    count = dom.sum(axis=0)  # dominators not yet placed in a front
    front = np.flatnonzero(count == 0)
    last = np.zeros(len(front), dtype=np.intp)
    while front.size:
        yield front, last
        hits = dom[front]
        count -= hits.sum(axis=0)
        freed = np.flatnonzero((count == 0) & hits.any(axis=0))
        last = len(front) - 1 - np.argmax(hits[::-1, freed], axis=0)
        order = np.argsort(last, kind="stable")
        front, last = freed[order], last[order]


def _survivors(objectives: np.ndarray, violations: np.ndarray,
               size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool indices of the best ``size`` members, by one peel that stops
    at the cut: whole fronts while they fit, then the most isolated
    members of the first front that overflows.  Also the kept members'
    fronts and crowding as ranking them alone gives: ranked alone, those
    kept from the cut are listed by the position of their last dominator
    in the previous front, then by their place among the kept."""
    keep, crowd, room = [], [], size
    for front, last in _peel(objectives, violations):
        dist = crowding(objectives[front])
        if len(front) > room:
            chosen = np.argsort(-dist, kind="stable")[:room]
            alone = np.argsort(last[chosen], kind="stable")
            front, dist = front[chosen], np.empty(room)
            dist[alone] = crowding(objectives[front[alone]])
        keep.append(front)
        crowd.append(dist)
        room -= len(front)
        if not room:
            break
    ranks = np.repeat(np.arange(len(keep), dtype=np.int64), [len(f) for f in keep])
    return np.concatenate(keep), ranks, np.concatenate(crowd)


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
            # a boundary point of an earlier objective stays +inf, and a gap of inf / inf counts 0
            dist[order[1:-1]] += np.fmax((objs[order[2:], m] - objs[order[:-2], m]) / (hi - lo), 0.0)
    return dist


# ---------------------------------------------------------------------------
# archive


@dataclass(frozen=True)
class ArchiveEntry:
    counts: HeadcountVector
    objectives: tuple[float, ...]


def _weakly_below(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``W[i, j]`` is True when row ``a[i]`` is ``<=`` row ``b[j]`` in
    every column; built one column at a time."""
    below = np.ones((len(a), len(b)), dtype=bool)
    for x, y in zip(a.T, b.T):
        below &= x[:, None] <= y[None, :]
    return below


class ParetoArchive:
    """Cumulative store of feasible non-dominated headcount vectors.

    Deduplicates by counts (objectives are a function of counts here),
    so re-encountered points are free.  Dominated entries are evicted;
    the archive's hypervolume never decreases.  The entries are an (n, J)
    int64 counts matrix beside an (n, M) objective matrix, in insertion
    order, so a block of offers meets all of them at once; entries are
    built on read.  Objectives must be finite, which
    :func:`~manpower.objectives.objective_kernel` ensures.
    """

    def __init__(self):
        self._counts = np.empty((0, 0), dtype=np.int64)
        self._objectives = np.empty((0, 0))
        self._seen: set[bytes] = set()

    def offer(self, counts: HeadcountVector, objectives: tuple[float, ...], violation: float) -> bool:
        """Offer one staffing; True when it enters the archive."""
        if violation > 0.0:
            return False
        return self.offer_rows(np.array([counts.counts]), np.array([objectives], dtype=float)) == 1

    def offer_rows(self, counts: np.ndarray, objectives: np.ndarray) -> int:
        """Offer a block of feasible staffings, one per row of the (P, J)
        integer ``counts`` and the (P, M) ``objectives``, and return how
        many entered.  The archive ends as if the rows were offered one
        by one in row order:

        - a row whose counts were seen before, in an earlier block or
          earlier in this one, is skipped, as a repeat offer is;
        - a row is admitted when no held entry and no earlier row is
          ``<=`` it everywhere, and no later row strictly dominates it;
        - a held entry is evicted when some row strictly dominates it.

        Why: offered in turn, a row is refused exactly when an entry
        present at its turn is ``<=`` it.  That entry is a held one or an
        earlier row; conversely a held entry or earlier row that is
        ``<=`` it and has left was removed by something ``<=`` it too.
        A row is removed later exactly when a later admitted row strictly
        dominates it.  A refused row that strictly dominates some target
        was refused by an entry that strictly dominates the target as
        well: an earlier admitted row (held entries do not dominate one
        another, and a held one would have refused an admitted target),
        which had already removed it.  So refused rows may count as
        evictors, and a block that admits nothing evicts nothing.
        """
        # a row's key is its bytes after the cast, so an int32 row meets its int64 twin
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        fresh = []
        for i, key in enumerate(counts.view((np.void, 8 * counts.shape[1])).ravel().tolist()):
            if key not in self._seen:
                self._seen.add(key)
                fresh.append(i)
        if not fresh:
            return 0
        new = objectives[fresh]
        held = self._objectives if len(self) else np.empty((0, new.shape[1]))
        if held.shape[1] != new.shape[1]:
            raise StructuralError(f"objective arity mismatch: {held.shape[1]} vs {new.shape[1]}")
        # a row that a held entry is <= is refused, and refuses or evicts
        # nothing another entry does not: whatever it is <= that entry is too
        held_below = _weakly_below(held, new)
        rows = np.flatnonzero(~held_below.any(axis=0))
        below = _weakly_below(new[rows], new[rows])  # below[i, k]: row i <= row k
        earlier = np.tri(len(rows), k=-1, dtype=bool).T  # earlier[i, k]: row i comes before row k
        admitted = rows[~(below & (earlier | ~below.T)).any(axis=0)]
        if not admitted.size:
            return 0
        stays = ~(_weakly_below(new[rows], held) & ~held_below[:, rows].T).any(axis=0)
        held_counts = self._counts if len(self) else np.empty((0, counts.shape[1]), dtype=np.int64)
        self._counts = np.vstack([held_counts[stays], counts[fresh][admitted]])
        self._objectives = np.vstack([held[stays], new[admitted]])
        return len(admitted)

    @property
    def objectives(self) -> np.ndarray:
        """The entries' objectives as one (n, M) array, in no fixed order."""
        return self._objectives

    def entries(self) -> tuple[ArchiveEntry, ...]:
        """The entries sorted by objectives, ties in insertion order."""
        return _unpack_archive(_pack_archive(self))

    def __len__(self) -> int:
        return len(self._counts)


def hypervolume(points: Sequence[Sequence[float]] | np.ndarray, ref: Sequence[float]) -> float:
    """Volume dominated by min-oriented ``points`` up to ``ref`` (the
    union of boxes [p, ref]); points of another arity, and points not
    strictly below ``ref`` in every coordinate, are ignored.  ``points``
    is a sequence of points or an (n, M) array.

    Slices along the leading coordinate.  With two objectives a slice is
    a box up to the running minimum of the second coordinate, so the
    recursion becomes one array sweep that adds the same terms in the
    same order.
    """
    ref = tuple(float(r) for r in ref)
    if len(ref) == 2:
        if isinstance(points, np.ndarray) and points.ndim == 2 and points.shape[1] == 2:
            pts = points.astype(float, copy=False)
        else:
            pts = np.array([p for p in points if len(p) == 2], dtype=float).reshape(-1, 2)
        return _sweep(pts[(pts < ref).all(axis=1)], ref)
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
        if len(ref) == 2:
            return _sweep(np.array(pts), ref)
        pts = sorted(set(pts))  # ascending in the leading coordinate
        total = 0.0
        for i, p in enumerate(pts):
            upper = pts[i + 1][0] if i + 1 < len(pts) else ref[0]
            width = upper - p[0]
            if width > 0.0:
                total += width * volume([q[1:] for q in pts[: i + 1]], ref[1:])
        return total

    return volume(pts, ref)


def _sweep(pts: np.ndarray, ref: tuple[float, float]) -> float:
    """Two-objective volume of the (n, 2) ``pts``, all strictly below
    ``ref``: a slab per point, ascending in the first coordinate, as wide
    as the gap to the next point (or ``ref``) and as tall as the least
    second coordinate so far.  Tied and repeated points make slabs of
    width 0, which add nothing; the slabs are added left to right, as
    the recursion adds them, never pairwise."""
    if not len(pts):
        return 0.0
    pts = pts[np.argsort(pts[:, 0], kind="stable")]
    width = np.append(pts[1:, 0], ref[0]) - pts[:, 0]
    slabs = (width * (ref[1] - np.minimum.accumulate(pts[:, 1])))[width > 0.0]
    return float(np.add.accumulate(slabs)[-1])


# ---------------------------------------------------------------------------
# search


def _pack_archive(archive: Sequence[ArchiveEntry] | ParetoArchive) -> tuple[np.ndarray, np.ndarray]:
    # MOEAResult.archive is given as entries or as the run's archive;
    # int64 first, so an empty archive stays integer; then the narrowest
    # unsigned type that holds the largest count (counts are nonnegative)
    if isinstance(archive, ParetoArchive):
        order = np.lexsort(archive.objectives.T[::-1]) if len(archive) else slice(None)  # as entries() sorts
        counts, objectives = archive._counts[order], archive.objectives[order]
    else:
        counts = np.array([e.counts.counts for e in archive], dtype=np.int64)
        objectives = np.array([e.objectives for e in archive], dtype=float)
    return counts.astype(np.min_scalar_type(counts.max(initial=0))), objectives


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
    box = _box(inst.headcount_bounds())
    size = cfg.population_size
    archive = ParetoArchive()
    # ranking reads objectives and violations only, so the penalty is moot
    scorer = _Scorer.staffings(bundle, expr, inst, PenaltyConfig())
    tracker = _Tracker()

    def assess(genes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Objective rows and violations of the (P, n) ``genes``, scored
        with one call; the feasible ones are offered to the archive as one
        block, in member order, and the number admitted comes third."""
        counts = _decode_rows(genes, cfg.encoding, box)
        penalized, objective, violations, rows = scorer.rows(counts)
        tracker.record(genes, penalized, objective, violations)
        feasible = violations == 0.0
        return rows, violations, archive.offer_rows(counts[feasible], rows[feasible])

    genes = _random_genes(rng, size, box, cfg.encoding)
    objectives, violations, admitted = assess(genes)
    # freeze the hypervolume reference after the first evaluation sweep
    ref = tuple(float(w) + 1.0 for w in objectives.max(axis=0))
    # the starting population is ranked where it stands
    order, *ranked = _survivors(objectives, violations, size)
    ranks, crowd = (x[np.argsort(order)] for x in ranked)
    hv = 0.0
    ri_box = box if cfg.encoding == "ri" else None

    for gen in range(cfg.generations + 1):
        if gen:  # generation 0 is the starting population
            offspring = breed(rng, genes, _crowded_pick(ranks, crowd), cfg, genes[:0], ri_box)
            child_objectives, child_violations, admitted = assess(offspring)
            pool_objectives = np.vstack([objectives, child_objectives])
            pool_violations = np.concatenate([violations, child_violations])
            keep, ranks, crowd = _survivors(pool_objectives, pool_violations, size)
            genes = np.concatenate([genes, offspring])[keep]
            objectives, violations = pool_objectives[keep], pool_violations[keep]
        if admitted:  # else the archive, and so its volume, is unchanged
            hv = hypervolume(archive.objectives, ref)
        tracker.mark(gen, float(len(archive)), best=hv)

    return MOEAResult(
        archive=archive,
        trace=tracker.trace(),
        evaluations=tracker.evaluations,
        seed=cfg.seed,
        reference_point=ref,
    )


def _crowded_pick(ranks: np.ndarray, crowd: np.ndarray) -> _Pick:
    """The crowded binary tournament: of two members drawn with
    ``rng.integers(size)`` each, the one in the better front wins, and
    within a front the less crowded one, the first on a tie."""

    def choose(drawn: np.ndarray) -> np.ndarray:
        i, j = drawn.T
        return np.where(ranks[i] != ranks[j], np.where(ranks[i] < ranks[j], i, j),
                        np.where(crowd[i] >= crowd[j], i, j))

    return _Pick(2, len(ranks), choose)
