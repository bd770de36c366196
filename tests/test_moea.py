"""Multi-objective machinery against brute-force oracles."""

import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from manpower import (
    ArchiveEntry,
    Direction,
    EAConfig,
    HeadcountVector,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    ParetoArchive,
    StructuralError,
    crowding,
    evaluate_bundle,
    hypervolume,
    non_dominated_sort,
    parse_constraint_string,
    run_moea,
    violation_expr,
)
from manpower import moea
from manpower.instances import micro_instance, random_micro_instance

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
GRID = st.integers(0, 4).map(float)  # a coarse grid, so ties and duplicates are common
INFINITE = st.sampled_from([-np.inf, np.inf])
VIOLATION = st.one_of(st.just(0.0), st.integers(1, 3).map(float))  # equal violations too
INTEGER_TYPES = st.sampled_from([np.int32, np.uint8, np.int64])


def brute_force_fronts(pop):
    """Peel non-dominated layers by direct pairwise comparison."""
    remaining = list(range(len(pop)))
    fronts = []
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(oracle.dominates(pop[j], pop[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(layer))
        remaining = [i for i in remaining if i not in layer]
    return fronts


def dominates(a, b) -> bool:
    """Constraint-domination as the ranking applies it: ranking the pair
    puts ``a`` alone in front 0 and ``b`` in front 1.  Members are
    :class:`oracle.Scored` or bare objective vectors (feasible)."""
    (va, fa), (vb, fb) = oracle._unpack(a), oracle._unpack(b)
    return non_dominated_sort([fa, fb], [va, vb]) == [[0], [1]]


class TestDominance:
    def test_pareto_cases(self):
        assert dominates((1.0, 2.0), (2.0, 3.0))
        assert dominates((1.0, 3.0), (1.0, 4.0))
        assert not dominates((1.0, 2.0), (1.0, 2.0))
        assert not dominates((1.0, 4.0), (2.0, 3.0))
        assert not dominates((2.0, 3.0), (1.0, 4.0))

    def test_feasibility_rules(self):
        feas = oracle.Scored((5.0, 5.0), 0.0)
        bad = oracle.Scored((0.0, 0.0), 2.0)
        worse = oracle.Scored((0.0, 0.0), 3.0)
        assert dominates(feas, bad)
        assert not dominates(bad, feas)
        assert dominates(bad, worse)
        assert not dominates(worse, bad)

    def test_arity_mismatch_raises(self):
        archive = ParetoArchive()
        archive.offer(HeadcountVector((1,)), (1.0, 2.0), 0.0)
        with pytest.raises(StructuralError):
            archive.offer(HeadcountVector((2,)), (1.0, 2.0, 3.0), 0.0)


class TestSorting:
    @pytest.mark.parametrize("bad", [-1.0, -0.5e-300, float("nan")])
    def test_negative_or_nan_violations_rejected(self, bad):
        # the domination matrix lets less violation decide feasibility too
        with pytest.raises(StructuralError, match="violations must be 0.0 or more"):
            non_dominated_sort([(1.0, 2.0), (2.0, 1.0)], [0.0, bad])

    @pytest.mark.parametrize("rows", [
        [(0.0, np.inf), (1.0, np.inf), (np.nan, 0.0)],  # ranked [[2], [0], [1]] before
        [(np.nan,), (1.0,)],
        [(1.0, 2.0, 3.0), (0.0, np.nan, 1.0)],
    ])
    def test_nan_objectives_rejected(self, rows):
        with pytest.raises(StructuralError, match="objectives must not be NaN"):
            non_dominated_sort(rows)

    def test_known_layers(self):
        pts = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (3.0, 0.5), (2.0, 3.0)]
        fronts = non_dominated_sort(pts)
        assert sorted(fronts[0]) == [0, 2, 3]
        assert sorted(fronts[1]) == [1]
        assert sorted(fronts[2]) == [4]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(100):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(2, 4))
            pts = [tuple(float(x) for x in rng.integers(0, 8, size=d)) for _ in range(n)]
            got = [sorted(f) for f in non_dominated_sort(pts)]
            want = brute_force_fronts(pts)
            assert got == want

    def test_every_index_appears_once(self):
        rng = np.random.Generator(np.random.PCG64(8))
        pts = [tuple(float(x) for x in rng.random(3)) for _ in range(30)]
        fronts = non_dominated_sort(pts)
        flat = sorted(i for f in fronts for i in f)
        assert flat == list(range(30))


class TestAgainstLoopOracle:
    """The array ranking, crowding, archive and hypervolume against the
    pairwise loops they replaced (``tests/oracle.py``), compared with
    ``==``."""

    @PROPERTY
    @given(st.data())
    def test_fronts_and_member_order(self, data):
        """Also with -inf and +inf coordinates, and with no feasible
        member; the sweep of one or two objectives gives the matrix
        peel's last dominators too."""
        m = data.draw(st.integers(1, 3), label="objectives")
        coord = data.draw(st.sampled_from([GRID, st.one_of(GRID, INFINITE)]), label="coordinates")
        rows = data.draw(st.lists(st.tuples(*[coord] * m), max_size=40), label="rows")
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=5), label="duplicates") if rows else []
        violation = data.draw(st.sampled_from([VIOLATION, VIOLATION.map(lambda v: v or 1.0)]), label="infeasible")
        violations = data.draw(st.lists(violation, min_size=len(rows), max_size=len(rows)), label="violations")
        pop = [oracle.Scored(r, v) for r, v in zip(rows, violations)]

        assert non_dominated_sort(rows) == oracle.non_dominated_sort(rows)
        objectives = np.array(rows, dtype=float).reshape(len(rows), m)
        assert non_dominated_sort(objectives, np.array(violations)) == oracle.non_dominated_sort(pop)
        for viol in (np.zeros(len(rows)), np.array(violations)):
            assert ([(f.tolist(), last.tolist()) for f, last in moea._peel(objectives, viol)]
                    == [(f.tolist(), last.tolist()) for f, last in moea._matrix_peel(objectives, viol)])
        for a, b in itertools.product(pop[:12], repeat=2):
            assert dominates(a, b) == oracle.dominates(a, b)

    @PROPERTY
    @given(st.data())
    def test_survivors(self, data):
        """One peel that stops at the cut keeps the members, ranks and
        crowding of the two-peel selection (the pool's fronts choose, then
        the kept members are ranked on their own).  Sizes are drawn by
        where they cut: inside front 0, inside a later front, or at the end
        of a front that more fronts follow.  One objective on a wider grid,
        under three violation levels, leaves many fronts past the cut; three
        objectives on a narrower grid tie distinct members of a front, where
        the kept members' order changes their crowding.  Coordinates may
        be -inf or +inf, and a pool may have no feasible member."""
        m = data.draw(st.integers(1, 3), label="objectives")
        coord = st.integers(0, {1: 12, 2: 4, 3: 2}[m]).map(float)
        coord = data.draw(st.sampled_from([coord, st.one_of(coord, INFINITE)]), label="coordinates")
        rows = data.draw(st.lists(st.tuples(*[coord] * m), min_size=1, max_size=40), label="rows")
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=5), label="duplicates")
        violation = data.draw(st.sampled_from([
            st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]),  # mostly feasible, so fronts are wide
            st.sampled_from([1.0, 2.0, 3.0]),
        ]), label="infeasible")
        violations = data.draw(st.lists(violation, min_size=len(rows), max_size=len(rows)), label="violations")
        objectives, viol = np.array(rows, dtype=float), np.array(violations)

        ends = np.cumsum([len(f) for f in oracle.non_dominated_sort(
            [oracle.Scored(r, v) for r, v in zip(rows, violations)])])
        cuts = {"front 0": [], "later front": [], "front end": []}
        for size in range(1, len(rows)):
            k = int(np.searchsorted(ends, size))
            cuts["front end" if ends[k] == size else "later front" if k else "front 0"].append(size)
        kinds = [kind for kind, sizes in cuts.items() if sizes]
        if kinds:
            size = data.draw(st.sampled_from(cuts[data.draw(st.sampled_from(kinds), label="cut")]),
                             label="size")
            keep, ranks, crowd = moea._survivors(objectives, viol, size)
            want = oracle.environmental_selection(rows, violations, size)
            assert keep.tolist() == want
            assert (ranks.tolist(), crowd.tolist()) == oracle.rank_and_crowd(
                [rows[i] for i in want], [violations[i] for i in want])

        # a starting population is ranked where it stands
        order, ranks, crowd = moea._survivors(objectives, viol, len(rows))
        back = np.argsort(order)
        assert (ranks[back].tolist(), crowd[back].tolist()) == oracle.rank_and_crowd(rows, violations)

    def test_cut_front_is_crowded_in_its_own_order(self):
        """Front 1 is members 0, 2, 4 and 5, and three of them fit.  Kept
        most isolated first they are 0, 5, 2; ranked alone they come in
        the order of their last dominator, 0, 2, 5, so members 2 and 5,
        tied at the top of the second objective, trade the boundary there
        and member 2 becomes an interior point."""
        rows = [(2, 0, 0), (1, 0, 0), (1, 2, 0), (0, 1, 1), (1, 0, 1), (0, 2, 1)]
        keep, ranks, crowd = moea._survivors(np.array(rows, dtype=float), np.zeros(6), 5)
        assert keep.tolist() == oracle.environmental_selection(rows, [0.0] * 6, 5) == [1, 3, 0, 5, 2]
        assert (ranks.tolist(), crowd.tolist()) == oracle.rank_and_crowd([rows[i] for i in keep], [0.0] * 5)
        assert crowd[-1] == 3.0

    @PROPERTY
    @given(st.data())
    def test_archive_offer_stream(self, data):
        """One by one through ``offer``, and cut into blocks of feasible
        rows through ``offer_rows``: integer-grid ties, equal objectives
        under different counts, counts repeated inside a block, one to
        three count columns and empty blocks.  A block's counts come as
        ``int32``, ``uint8`` or ``int64`` rows, and equal rows of another
        type are the same staffing."""
        m = data.draw(st.integers(1, 3), label="objectives")
        width = data.draw(st.integers(1, 3), label="count columns")
        key = st.tuples(*[st.integers(0, 30 if width == 1 else 3)] * width)
        offers = data.draw(st.lists(st.tuples(key, st.tuples(*[GRID] * m), VIOLATION),
                                    max_size=60), label="offers")
        got, want = ParetoArchive(), oracle.ParetoArchive()
        for key, objs, violation in offers:
            counts = HeadcountVector(key)
            assert got.offer(counts, objs, violation) == want.offer(counts, objs, violation)
        assert got.entries() == want.entries()
        assert len(got) == len(want)

        cuts = sorted(data.draw(st.lists(st.integers(0, len(offers)), max_size=8), label="cuts"))
        blocks, want = ParetoArchive(), oracle.ParetoArchive()
        for start, stop in zip([0] + cuts, cuts + [len(offers)]):
            rows = [(key, objs) for key, objs, violation in offers[start:stop] if violation == 0.0]
            held = {e.counts for e in want.entries()}
            for key, objs in rows:
                want.offer(HeadcountVector(key), objs, 0.0)
            entered = {e.counts for e in want.entries()} - held
            counts = np.array([key for key, _ in rows], dtype=data.draw(INTEGER_TYPES, label="type"))
            counts = counts.reshape(-1, width)
            objectives = np.array([objs for _, objs in rows], dtype=float).reshape(-1, m)
            before = blocks.entries()
            admitted = blocks.offer_rows(counts, objectives)
            assert admitted == len(entered)
            if not admitted:
                assert blocks.entries() == before  # nothing admitted, nothing evicted
            assert blocks.entries() == want.entries()
            assert len(blocks) == len(want)
            assert sorted(map(tuple, blocks.objectives.tolist())) == [e.objectives for e in want.entries()]
            again = counts.astype(data.draw(INTEGER_TYPES, label="type again"))
            assert blocks.offer_rows(again, objectives) == 0
            assert blocks.offer_rows(np.empty((0, width), dtype=again.dtype), np.empty((0, m))) == 0
            assert blocks.entries() == want.entries()

    @PROPERTY
    @given(st.data())
    def test_crowding(self, data):
        m = data.draw(st.integers(1, 3), label="objectives")
        coord = st.one_of(GRID, INFINITE, st.floats(-3.0, 6.0, allow_nan=False, allow_infinity=False))
        front = data.draw(st.lists(st.tuples(*[coord] * m), max_size=30), label="front")
        assert crowding(front).tobytes() == oracle.crowding(front).tobytes()

    @PROPERTY
    @given(st.data())
    def test_hypervolume(self, data):
        m = data.draw(st.integers(1, 3), label="objectives")
        coord = st.one_of(GRID, st.floats(-3.0, 6.0, allow_nan=False, allow_infinity=False))
        points = data.draw(st.lists(st.tuples(*[coord] * m), max_size=30 if m < 3 else 10), label="points")
        ref = data.draw(st.tuples(*[st.floats(0.0, 6.0, allow_nan=False)] * m), label="reference")
        want = oracle.hypervolume(points, ref)
        assert hypervolume(points, ref) == want
        assert hypervolume(np.array(points, dtype=float).reshape(-1, m), ref) == want
        other = data.draw(st.lists(st.tuples(*[coord] * (m + 1)), max_size=3), label="other arity")
        assert hypervolume(points + other, ref) == want


    def test_hypervolume_adds_slabs_left_to_right(self):
        """Many slabs of arbitrary width: a pairwise sum rounds differently."""
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(20):
            points = rng.random((60, 2)) * 3.0
            assert hypervolume(points, (3.0, 3.0)) == oracle.hypervolume(points.tolist(), (3.0, 3.0))


class TestCrowding:
    def test_boundaries_are_infinite(self):
        d = crowding([(0.0, 4.0), (1.0, 2.0), (2.0, 1.0), (4.0, 0.0)])
        assert d[0] == np.inf and d[3] == np.inf
        assert np.isfinite(d[1]) and np.isfinite(d[2])

    def test_interior_normalized_span(self):
        d = crowding([(0.0, 4.0), (1.0, 2.0), (4.0, 0.0)])
        # middle point: (4-0)/4 + (4-0)/4 = 2
        assert d[1] == pytest.approx(2.0)

    def test_pairs_and_singletons_infinite(self):
        assert all(np.isinf(crowding([(1.0, 1.0)])))
        assert all(np.isinf(crowding([(1.0, 1.0), (2.0, 0.0)])))

    def test_degenerate_axis_ignored(self):
        d = crowding([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
        assert d[1] == pytest.approx(1.0)  # only the first axis spreads


class TestHypervolume:
    def test_staircase_2d(self):
        pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        assert hypervolume(pts, (4.0, 4.0)) == pytest.approx(6.0)

    def test_single_point_box(self):
        assert hypervolume([(1.0, 1.0, 1.0)], (3.0, 4.0, 5.0)) == pytest.approx(2 * 3 * 4)

    def test_dominated_points_add_nothing(self):
        base = hypervolume([(1.0, 1.0)], (5.0, 5.0))
        with_dup = hypervolume([(1.0, 1.0), (2.0, 2.0), (1.0, 1.0)], (5.0, 5.0))
        assert with_dup == pytest.approx(base)

    def test_points_outside_ref_ignored(self):
        assert hypervolume([(6.0, 1.0)], (5.0, 5.0)) == 0.0
        assert hypervolume([(5.0, 1.0)], (5.0, 5.0)) == 0.0

    def test_matches_grid_oracle_2d(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(30):
            pts = [tuple(float(v) for v in rng.integers(0, 10, size=2)) for _ in range(6)]
            ref = (10.0, 10.0)
            # integer grid: count unit cells dominated by some point
            cells = 0
            for x in range(10):
                for y in range(10):
                    if any(p[0] <= x and p[1] <= y for p in pts):
                        cells += 1
            assert hypervolume(pts, ref) == pytest.approx(float(cells))

    def test_matches_grid_oracle_3d(self):
        rng = np.random.Generator(np.random.PCG64(18))
        for _ in range(10):
            pts = [tuple(float(v) for v in rng.integers(0, 6, size=3)) for _ in range(5)]
            ref = (6.0, 6.0, 6.0)
            cells = sum(
                1
                for x in range(6)
                for y in range(6)
                for z in range(6)
                if any(p[0] <= x and p[1] <= y and p[2] <= z for p in pts)
            )
            assert hypervolume(pts, ref) == pytest.approx(float(cells))


class TestArchive:
    def test_keeps_only_non_dominated(self):
        a = ParetoArchive()
        assert a.offer(HeadcountVector((1,)), (2.0, 2.0), 0.0)
        assert a.offer(HeadcountVector((2,)), (1.0, 3.0), 0.0)
        assert not a.offer(HeadcountVector((3,)), (3.0, 3.0), 0.0)  # dominated
        assert a.offer(HeadcountVector((4,)), (1.0, 1.0), 0.0)  # dominates all
        assert [e.objectives for e in a.entries()] == [(1.0, 1.0)]

    def test_rejects_infeasible_and_duplicates(self):
        a = ParetoArchive()
        assert not a.offer(HeadcountVector((1,)), (0.0, 0.0), 1.0)
        assert a.offer(HeadcountVector((2,)), (1.0, 1.0), 0.0)
        assert not a.offer(HeadcountVector((2,)), (1.0, 1.0), 0.0)  # same counts

    def test_hypervolume_never_decreases(self):
        rng = np.random.Generator(np.random.PCG64(5))
        a = ParetoArchive()
        ref = (12.0, 12.0)
        last = 0.0
        for i in range(300):
            objs = tuple(float(v) for v in rng.integers(0, 10, size=2))
            a.offer(HeadcountVector((i,)), objs, 0.0)
            hv = hypervolume([e.objectives for e in a.entries()], ref)
            assert hv >= last - 1e-12
            last = hv


class TestRunMOEA:
    BUNDLE = ObjectiveBundle(
        (
            Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),
            Objective(ObjectiveKind.TOTAL_TIME, Direction.MAXIMIZE),
        )
    )
    BASIC = parse_constraint_string("k1&k2&k3&k4&k5&k6")

    def test_archive_entries_are_feasible_and_non_dominated(self):
        inst = micro_instance()
        res = run_moea(inst, self.BUNDLE, self.BASIC, EAConfig(population_size=30, generations=20, seed=0))
        assert len(res.archive) >= 1
        for e in res.archive:
            assert violation_expr(self.BASIC, None, e.counts, inst) == 0.0
            assert e.objectives == evaluate_bundle(self.BUNDLE, e.counts, None, inst)
        for a, b in itertools.permutations(res.archive, 2):
            assert not oracle.dominates(a.objectives, b.objectives)

    def test_recovers_exhaustive_front_on_micro(self):
        rng = np.random.Generator(np.random.PCG64(55))
        inst = random_micro_instance(rng)
        truth = set()
        feasible = []
        for combo in itertools.product(*[range(lo, hi + 1) for lo, hi in inst.headcount_bounds()]):
            hc = HeadcountVector(combo)
            if violation_expr(self.BASIC, None, hc, inst) == 0.0:
                feasible.append(evaluate_bundle(self.BUNDLE, hc, None, inst))
        for p in feasible:
            if not any(q != p and oracle.dominates(q, p) for q in feasible):
                truth.add(p)
        res = run_moea(inst, self.BUNDLE, self.BASIC, EAConfig(population_size=40, generations=30, seed=2))
        found = {e.objectives for e in res.archive}
        assert found == truth

    def test_seed_determinism(self):
        inst = micro_instance()
        cfg = EAConfig(population_size=24, generations=12, seed=9)
        a = run_moea(inst, self.BUNDLE, self.BASIC, cfg)
        b = run_moea(inst, self.BUNDLE, self.BASIC, cfg)
        assert [e.counts.counts for e in a.archive] == [e.counts.counts for e in b.archive]
        assert [p.best for p in a.trace.points] == [p.best for p in b.trace.points]

    def test_result_archive_reads_as_entries(self):
        res = run_moea(micro_instance(), self.BUNDLE, self.BASIC, EAConfig(population_size=20, generations=5, seed=1))
        archive = res.archive
        assert len(archive) >= 2 and all(isinstance(e, ArchiveEntry) for e in archive)
        assert "archive" in [f.name for f in dataclasses.fields(res)]
        assert dataclasses.replace(res) == res
        assert pickle.loads(pickle.dumps(res)) == res
        trimmed = dataclasses.replace(res, archive=archive[1:])
        assert trimmed.archive == archive[1:] and trimmed != res
        assert dataclasses.replace(res, archive=()).archive == ()

    def test_packed_archive_reads_back_exactly(self):
        res = run_moea(micro_instance(), self.BUNDLE, self.BASIC, EAConfig(population_size=20, generations=5, seed=1))
        counts, _ = res._archive_packed
        assert counts.dtype == np.uint8  # the narrowest type that holds the counts
        wide = (
            ArchiveEntry(HeadcountVector((0, 255, 256)), (1.0, -2.5)),
            ArchiveEntry(HeadcountVector((65_535, 65_536, 7)), (0.5, 3.0)),
            ArchiveEntry(HeadcountVector((2**40, 0, 1)), (-0.0, 0.1)),
        )
        for archive in ((), wide[:1], wide[:2], wide):
            kept = dataclasses.replace(res, archive=archive)
            assert kept._archive_packed[0].dtype.kind == "u"  # an empty archive too
            assert kept.archive == archive
            assert pickle.loads(pickle.dumps(kept)).archive == archive
            assert [type(c) for e in kept.archive for c in e.counts.counts] == [int] * (3 * len(archive))

    def test_hypervolume_trace_monotone(self):
        inst = micro_instance()
        res = run_moea(inst, self.BUNDLE, self.BASIC, EAConfig(population_size=20, generations=15, seed=4))
        curve = [p.best for p in res.trace.points]
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
