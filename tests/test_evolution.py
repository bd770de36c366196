"""Evolutionary-solver tests: genome codecs, penalty semantics,
determinism, and roster search on enumerable cases."""

import dataclasses
import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from manpower import (
    And,
    Atom,
    AtomicConstraint,
    ConfigurationError,
    ConstraintKind,
    Direction,
    EAConfig,
    Genome,
    HeadcountVector,
    InfeasibleError,
    Not,
    Objective,
    ObjectiveBundle,
    ObjectiveKind,
    Or,
    PenaltyConfig,
    PSOConfig,
    RunTrace,
    SAConfig,
    TracePoint,
    atom,
    conjunction,
    decode,
    f2_total_salary,
    ip_solve,
    parse_constraint_string,
    pso_solve,
    random_genome,
    run_ea,
    run_moea,
    sa_solve,
    solve_assignment,
    tensor_salary,
    violation_expr,
)
from manpower import breeding, evolution, moea
from manpower.constraints import HeadcountTable, headcount_kernel
from manpower.evolution import INITIAL_SAMPLES_PER_MEMBER, _box, _decode_rows, _random_genes, _Scorer
from manpower.instances import micro_instance, random_micro_instance, reference_instance
from test_golden import fractional_week

SALARY = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),))
TRADE_OFF = ObjectiveBundle((Objective(ObjectiveKind.TOTAL_SALARY, Direction.MINIMIZE),
                             Objective(ObjectiveKind.TOTAL_TIME, Direction.MAXIMIZE)))
BASIC = conjunction("k1", "k2", "k3", "k4", "k5", "k6")
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def boxes(draw):
    """Headcount bounds: 1-8 jobs, each box 0-70 wide."""
    bounds = []
    for _ in range(draw(st.integers(1, 8))):
        lo = draw(st.integers(0, 50))
        bounds.append((lo, lo + draw(st.integers(0, 70))))
    return tuple(bounds)


class TestGenomeCodec:
    BOUNDS = ((1, 6), (2, 15), (0, 8))

    def test_round_trip_all_points_bg(self):
        for a in range(1, 7):
            for b in range(2, 16):
                for c in range(0, 9):
                    g = oracle.encode((a, b, c), self.BOUNDS, "bg")
                    assert decode(g).counts == (a, b, c)

    def test_round_trip_all_points_ri(self):
        for a in range(1, 7):
            g = oracle.encode((a, 5, 3), self.BOUNDS, "ri")
            assert decode(g).counts == (a, 5, 3)

    def test_bit_width_is_span_bits(self):
        g = oracle.encode((1, 2, 0), self.BOUNDS, "bg")
        # spans 5, 13, 8 -> 3 + 4 + 4 bits
        assert g.data.shape[0] == 11

    def test_bg_decode_clamps_overflow(self):
        # all-ones bits, the top code, decode to the upper bound: no code
        # lands outside the box
        g = Genome("bg", np.ones(11, dtype=np.uint8), self.BOUNDS)
        assert decode(g).counts == (6, 15, 8)

    @pytest.mark.parametrize("lo", [0, 3])
    def test_bg_codes_spread_evenly_over_the_box(self, lo):
        # each count of a box of span s gets floor or ceil of 2**w / (s + 1)
        # of the 2**w codes of w = s.bit_length() bits
        for span in range(71):
            width = span.bit_length()
            codes = np.arange(2**width)
            bits = (codes[:, None] >> np.arange(width - 1, -1, -1)) & 1
            counts = _decode_rows(bits.astype(np.uint8), "bg", _box(((lo, lo + span),)))[:, 0]
            shares = np.bincount(counts.astype(int) - lo, minlength=span + 1)
            assert len(shares) == span + 1, span
            assert set(shares.tolist()) <= {2**width // (span + 1), -(-2**width // (span + 1))}, span

    def test_ri_decode_rounds_and_clamps(self):
        g = Genome("ri", np.array([0.2, 15.4, 4.5]), self.BOUNDS)
        assert decode(g).counts == (1, 15, 4)

    def test_encode_rejects_out_of_box(self):
        with pytest.raises(ConfigurationError):
            oracle.encode((0, 2, 0), self.BOUNDS, "bg")

    def test_round_trip_on_the_six_job_week(self):
        bounds = reference_instance().headcount_bounds()
        for encoding in ("bg", "ri"):
            g = oracle.encode((3, 10, 4, 8, 7, 8), bounds, encoding)
            assert decode(g).counts == (3, 10, 4, 8, 7, 8)

    def test_random_genomes_decode_inside_box(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for encoding in ("bg", "ri"):
            for _ in range(200):
                hc = decode(random_genome(rng, self.BOUNDS, encoding))
                for v, (lo, hi) in zip(hc.counts, self.BOUNDS):
                    assert lo <= v <= hi


def fitness(genome, bundle, expr, inst, cfg):
    """Penalized fitness of one genome, scored the way the solvers score it."""
    return _Scorer.staffings(bundle, expr, inst, cfg.penalty).score(decode(genome).counts)[0]


class TestDecodeAgainstLoopOracle:
    @PROPERTY
    @given(st.data())
    def test_ri(self, data):
        bounds = data.draw(boxes())
        genes = [
            data.draw(st.one_of(
                st.integers(lo - 3, hi + 3).map(float),
                st.integers(lo - 3, hi + 3).map(lambda k: k + 0.5),      # ties round to even
                st.integers(lo - 3, hi + 3).map(lambda k: k - 0.5),
                st.floats(lo - 1e6, hi + 1e6, allow_nan=False),          # far outside the box
            ))
            for lo, hi in bounds
        ]
        g = Genome("ri", np.array(genes), bounds)
        assert decode(g).counts == oracle.decode(g).counts

    @PROPERTY
    @given(st.data())
    def test_bg(self, data):
        bounds = data.draw(boxes())
        bits = ""
        for lo, hi in bounds:
            width = (hi - lo).bit_length()
            # every code of the width, those past hi - lo included
            offset = data.draw(st.integers(0, 2**width - 1))
            bits += format(offset, f"0{width}b") if width else ""
        g = Genome("bg", np.array([int(b) for b in bits], dtype=np.uint8), bounds)
        assert decode(g).counts == oracle.decode(g).counts

    @PROPERTY
    @given(st.data())
    def test_encode_decode_round_trip(self, data):
        bounds = data.draw(boxes())
        counts = tuple(data.draw(st.integers(lo, hi)) for lo, hi in bounds)
        for encoding in ("ri", "bg"):
            assert decode(oracle.encode(counts, bounds, encoding)).counts == counts


def _custom_objective(hc, tensor, inst):
    return 0.1 * sum(c * c for c in hc.counts) + 0.37


def _bits(values) -> list[str]:
    """Floats as ``float.hex``, so ``==`` sees every bit and the sign of zero."""
    return [float.hex(float(v)) for v in values]


@st.composite
def scoring_cases(draw):
    """A random micro instance of 2-13 jobs (wages and hours possibly
    non-integer, some headcount floors 0, y1 drawn from a job subset), a random
    AND/OR/NOT tree of atoms with job subsets and counts, a bundle of 1-3
    objectives of every kind in both directions, a penalty, and a
    population with duplicate rows."""
    seed = draw(st.integers(0, 2**32 - 1), label="instance seed")
    multi = draw(st.booleans(), label="multi_shift")
    # past 8 jobs numpy's .sum() adds pairwise, not left to right
    n_jobs = draw(st.sampled_from([2, 3, 9, 13]), label="jobs")
    inst = random_micro_instance(np.random.Generator(np.random.PCG64(seed)), n_jobs=n_jobs,
                                 with_emergency=True, multi_shift=multi)
    wage_scale = draw(st.sampled_from([1.0, 1.0731, 0.37, 3.3]), label="wage scale")
    hour_scale = draw(st.sampled_from([1.0, 1.05, 0.3]), label="hour scale")
    no_floor = draw(st.lists(st.booleans(), min_size=inst.n_jobs, max_size=inst.n_jobs),
                    label="zero headcount_min")
    codes = [job.code for job in inst.jobs]
    subsets = st.none() | st.lists(st.sampled_from(codes), max_size=3)
    inst = dataclasses.replace(
        inst,
        jobs=tuple(dataclasses.replace(
            job,
            wage_per_shift=tuple(w * wage_scale for w in job.wage_per_shift),
            shift_hours=tuple(h * hour_scale for h in job.shift_hours),
            headcount_min=0 if zero else job.headcount_min,
        ) for job, zero in zip(inst.jobs, no_floor)),
        emergency=dataclasses.replace(inst.emergency, jobs=draw(subsets, label="y1 jobs")),
    )
    kinds = [k for k in ConstraintKind if multi or k is not ConstraintKind.MULTI_SHIFT]
    atoms = st.builds(lambda kind, jobs, count: Atom(AtomicConstraint(kind, jobs, count)),
                      st.sampled_from(kinds), subsets, st.none() | st.integers(1, 3))
    tree = draw(st.recursive(atoms, lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda lr: And(*lr)),
        st.tuples(sub, sub).map(lambda lr: Or(*lr)),
        sub.map(Not),
    ), max_leaves=6), label="expression")
    directions = st.sampled_from(list(Direction))
    objective = st.one_of(
        st.builds(Objective, st.sampled_from([ObjectiveKind.TOTAL_TIME, ObjectiveKind.TOTAL_SALARY,
                                              ObjectiveKind.MULTISHIFT_SALARY]), directions),
        st.builds(lambda jobs, d: Objective(ObjectiveKind.HEADCOUNT_SUBSET, d, job_indices=jobs),
                  st.lists(st.integers(0, inst.n_jobs - 1), min_size=1, max_size=3), directions),
        st.builds(lambda d: Objective(ObjectiveKind.CUSTOM, d, func=_custom_objective), directions),
    )
    bundle = ObjectiveBundle(tuple(draw(st.lists(objective, min_size=1, max_size=3), label="bundle")))
    penalty = draw(st.one_of(
        st.builds(PenaltyConfig, st.just("external"), st.sampled_from([1e4, 0.3, 7.77])),
        st.builds(lambda b: PenaltyConfig(method="internal", barrier_coefficient=b),
                  st.sampled_from([1.0, 0.25, 3.1])),
    ), label="penalty")
    row = st.tuples(*[st.integers(0, job.headcount_max + 1) for job in inst.jobs])
    rows = draw(st.lists(row, min_size=1, max_size=12), label="population")
    rows += draw(st.lists(st.sampled_from(rows), max_size=4), label="duplicates")
    return inst, tree, bundle, penalty, rows


class TestScorerAgainstLoopOracle:
    """The array kernel a run compiles (:class:`_Scorer`) against the loop
    scorer in ``tests/oracle.py``, bit for bit, a whole population at once."""

    @PROPERTY
    @given(scoring_cases())
    def test_population_scores(self, case):
        inst, tree, bundle, penalty, rows = case
        scorer = _Scorer.staffings(bundle, tree, inst, penalty)
        counts = np.array(rows, dtype=float)
        penalized, objective, violation, values = scorer.rows(counts)
        _, slacks = headcount_kernel(tree, inst)(counts)
        assert len(slacks) == len(oracle.atoms(tree))
        for i, row in enumerate(rows):
            hc = HeadcountVector(row)
            want = oracle.score(bundle, tree, inst, penalty, hc)
            got = (penalized[i], objective[i], violation[i])
            assert _bits(got) == _bits(want[:3]), (i, row)
            assert _bits(values[i]) == _bits(want[3]), (i, row)
            one = scorer.score(row)  # the single-row case
            assert _bits(one[:3]) + _bits(one[3]) == _bits(want[:3]) + _bits(want[3])
            for c, slack in zip(oracle.atoms(tree), slacks):
                assert float.hex(slack[i]) == float.hex(oracle.slack_atom(c, hc, inst)), (c, row)
            assert violation_expr(tree, None, hc, inst) == want[2]

    def test_penalty_squares_as_python_does(self):
        # x * x and Python's x**2 (the C library's pow) differ in the last
        # bit here; an all-zero staffing misses the salary window by x
        x = float.fromhex("0x1.da62d1e730abdp+9")
        inst = dataclasses.replace(micro_instance(), salary_bounds=(x, x + 1.0))
        zero = HeadcountVector((0, 0))
        penalty = PenaltyConfig(coefficient=1.0)
        want = oracle.score(SALARY, atom("k4"), inst, penalty, zero)
        assert want[0] == x**2 and want[2] == x
        got = _Scorer.staffings(SALARY, atom("k4"), inst, penalty).score(zero.counts)
        assert _bits(got[:3]) == _bits(want[:3])


@st.composite
def interior_cases(draw):
    """A random micro instance of 2-13 jobs or the fractional week, a
    left-folded AND of y1, y2 and o2 among up to five more atoms (job
    subsets and counts, in any order), a bundle, and rows of counts from
    0 to each job's headcount_max + 1."""
    if draw(st.booleans(), label="fractional week"):
        inst = fractional_week()
    else:
        seed = draw(st.integers(0, 2**32 - 1), label="instance seed")
        inst = random_micro_instance(np.random.Generator(np.random.PCG64(seed)),
                                     n_jobs=draw(st.sampled_from([2, 3, 9, 13]), label="jobs"),
                                     with_emergency=True)
    subsets = st.none() | st.lists(st.sampled_from([job.code for job in inst.jobs]), max_size=3)
    kinds = [k for k in ConstraintKind if k is not ConstraintKind.MULTI_SHIFT]
    atoms = st.builds(AtomicConstraint, st.sampled_from(kinds), subsets, st.none() | st.integers(1, 3))
    named = [AtomicConstraint(ConstraintKind(code), draw(subsets, label=f"{code} jobs")) for code in ("y1", "y2", "o2")]
    chosen = draw(st.permutations(named + draw(st.lists(atoms, max_size=5), label="more atoms")), label="order")
    tree = Atom(chosen[0])
    for c in chosen[1:]:
        tree = And(tree, Atom(c))
    row = st.tuples(*[st.integers(0, job.headcount_max + 1) for job in inst.jobs])
    return inst, tree, draw(st.sampled_from([SALARY, TRADE_OFF]), label="bundle"), draw(
        st.lists(row, min_size=1, max_size=12), label="rows")


class TestHeadcountTable:
    """The paths of one compiled :class:`HeadcountTable` against the
    full kernel, the loop scorer and one another."""

    @PROPERTY
    @given(interior_cases())
    def test_interior_is_where_the_barrier_is_finite(self, case):
        inst, tree, bundle, rows = case
        penalty = PenaltyConfig(method="internal", barrier_coefficient=0.25)
        scorer = _Scorer.staffings(bundle, tree, inst, penalty)
        counts = np.array(rows, dtype=float)
        want = [math.isfinite(oracle.score(bundle, tree, inst, penalty, HeadcountVector(r))[0]) for r in rows]
        assert scorer.interior(counts).tolist() == np.isfinite(scorer.rows(counts)[0]).tolist() == want

    @PROPERTY
    @given(scoring_cases())
    def test_rows_outside_the_interior_score_inf(self, case):
        # on any tree: the barrier sampler scores only the rows inside
        inst, tree, bundle, _, rows = case
        scorer = _Scorer.staffings(bundle, tree, inst, PenaltyConfig(method="internal"))
        counts = np.array(rows, dtype=float)
        penalized = scorer.rows(counts)[0]
        assert np.isinf(penalized[~scorer.interior(counts)]).all()

    @PROPERTY
    @given(scoring_cases())
    def test_external_violation_is_the_kernels(self, case):
        inst, tree, bundle, _, rows = case
        counts = np.array(rows, dtype=float)
        want, _ = headcount_kernel(tree, inst)(counts)
        assert _bits(HeadcountTable(tree, inst).violation(counts)) == _bits(want)
        assert _bits(_Scorer.staffings(bundle, tree, inst, PenaltyConfig()).rows(counts)[2]) == _bits(want)


class TestTrackerRecordsBlocksLikeAssess:
    """A scored block, recorded at once, keeps what assessing its members
    one by one keeps: the first of tied best members."""

    FIELDS = ("best_penalized", "best_genome", "best_feasible_obj", "best_feasible",
              "least_violation", "least_violator", "least_violator_obj", "evaluations")

    def _both(self, blocks):
        scores = {}
        sequential, recorded = evolution._Tracker(scores.__getitem__), evolution._Tracker()
        for b, block in enumerate(blocks):
            names = [f"{b}:{i}" for i in range(len(block))]
            scores.update({n: (*s, ()) for n, s in zip(names, block)})
            for n in names:
                sequential.assess(n)
            columns = [np.array(c, dtype=float) for c in zip(*block)]
            assert recorded.record(names, *columns) is columns[0]
        return ([getattr(sequential, f) for f in self.FIELDS],
                [getattr(recorded, f) for f in self.FIELDS])

    def test_tied_rows_keep_the_first(self):
        # (penalized, objective, violation)
        block = [(9.0, 9.0, 0.0), (4.0, 4.0, 0.0), (4.0, 4.0, 0.0), (4.0, 1.0, 3.0),
                 (2.0, 1.0, 1.0), (2.0, 0.5, 1.0), (2.0, 0.5, 1.0)]
        seq, rec = self._both([block])
        assert seq == rec
        got = dict(zip(self.FIELDS, rec))
        assert got["best_genome"] == "0:4" and got["best_feasible"] == "0:1"
        assert got["least_violator"] == "0:1"

    @PROPERTY
    @given(st.lists(st.lists(st.tuples(st.integers(0, 3).map(float), st.integers(0, 3).map(float),
                                       st.sampled_from([0.0, 0.0, 1.0, 2.0])),
                             min_size=1, max_size=8), min_size=1, max_size=4))
    def test_blocks_match_sequential_assess(self, blocks):
        seq, rec = self._both(blocks)
        assert seq == rec


def _generation_scores(draw, size: int, selection: str):
    """One generation's scores to pick parents by, tied and infinite ones
    included: penalized scores, or for ``"crowded"`` run_moea's front
    numbers and crowding distances, tied in both."""
    if selection == "crowded":
        ranks = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        crowd = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, np.inf]), min_size=size, max_size=size))
        return np.array(ranks), np.array(crowd)
    return np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 40.0, np.inf]),
                                  min_size=size, max_size=size)))


@st.composite
def runs(draw):
    """Generations to breed one after another: (encoding, bounds, starting
    genes, config, per generation (scores, elite row or None), generator
    seed)."""
    encoding = draw(st.sampled_from(["ri", "bg"]))
    # genes: jobs for ri, bits for bg (none when every box is one point)
    n = draw(st.integers(1 if encoding == "ri" else 0, 9))
    size = draw(st.integers(2, 11))
    seed = draw(st.integers(0, 2**32 - 1))
    if encoding == "ri":
        bounds = tuple((lo, lo + w) for lo, w in draw(st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 6)), min_size=n, max_size=n)))
    else:
        bounds = ((0, 1),) * n
    rng = np.random.Generator(np.random.PCG64(seed ^ 0x5EED))
    genes = np.stack([random_genome(rng, bounds, encoding).data for _ in range(size)])
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    selection = draw(st.sampled_from(["tournament", "proportional", "crowded"]))
    cfg = EAConfig(population_size=size, crossover_rate=draw(rate), mutation_rate=draw(rate),
                   selection="tournament" if selection == "crowded" else selection,
                   tournament_k=draw(st.integers(2, 4)), encoding=encoding)
    steps = [(_generation_scores(draw, size, selection), draw(st.none() | st.integers(0, size - 1)))
             for _ in range(draw(st.integers(1, 5)))]
    return encoding, bounds, genes, cfg, steps, seed


class TestBreedAgainstLoopOracle:
    """Generations bred one after another are the child-by-child loop's,
    byte for byte, and each leaves the generator where the loop's calls
    leave it."""

    @staticmethod
    def _both(run) -> None:
        encoding, bounds, genes, cfg, steps, seed = run
        ours = np.random.Generator(np.random.PCG64(seed))
        loop = np.random.Generator(np.random.PCG64(seed))
        box = _box(bounds) if encoding == "ri" else None
        for scores, elite in steps:
            population = [Genome(encoding, row, bounds) for row in genes]
            first = [] if elite is None else [population[elite]]
            if isinstance(scores, tuple):
                pick, rule = moea._crowded_pick(*scores), oracle.crowded_pick(*scores)
            else:
                pick, rule = breeding._selector(scores, cfg), oracle._select(scores, cfg)
            want = oracle._breed(loop, first, population, rule, cfg)
            got = breeding.breed(ours, genes, pick, cfg, genes[:0] if elite is None else genes[elite][None], box)
            assert got.dtype == genes.dtype and got.shape == genes.shape
            assert got.tobytes() == np.stack([g.data for g in want]).tobytes(), (
                "the bred children are no longer the child-by-child loop's")
            assert ours.bit_generator.state == loop.bit_generator.state, (
                "breeding no longer makes the loop's draws: the picks, gates, cut points "
                "and mutation doubles, each one whole-array call, in that order")
            genes = got

    @PROPERTY
    @given(runs())
    def test_children_and_generator_state(self, run):
        self._both(run)

    @pytest.mark.parametrize("encoding,n", [("bg", 0), ("bg", 1), ("ri", 1), ("bg", 2), ("ri", 2)])
    @pytest.mark.parametrize("size", [5, 6])
    def test_few_genes(self, encoding, n, size):
        # no gene, a lone bit (no crossover), a lone real gene (blends),
        # two genes (one cut point); odd and even sizes; the elite appears
        # in the third generation and proportional selection meets
        # all-+inf scores in the fourth
        bounds = ((0, 1),) * n if encoding == "bg" else ((2, 7),) * n
        rng = np.random.Generator(np.random.PCG64(n))
        genes = np.stack([random_genome(rng, bounds, encoding).data for _ in range(size)])
        scores = np.array([3.0, 1.0, np.inf, 0.5, 1.0, 2.0][:size])
        steps = [(scores, None), (scores, None), (scores, 1), (np.full(size, np.inf), 1), (scores, 0)]
        cfg = EAConfig(population_size=size, encoding=encoding, selection="proportional",
                       crossover_rate=0.7, mutation_rate=0.3)
        for seed in range(4):
            self._both((encoding, bounds, genes, cfg, steps, seed))


class _CountingGenerator:
    """A generator that records the name of each draw method called."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.calls: list[str] = []

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if name not in ("integers", "random", "uniform", "choice"):
            return attr

        def counted(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)

        return counted


class TestDrawCalls:
    """Each stochastic solver's draws are whole-array calls in a fixed
    order: four per generation, and one plus three per annealing level."""

    @pytest.fixture
    def generators(self, monkeypatch) -> list:
        made = []
        make = np.random.Generator

        def counting(bitgen):
            made.append(_CountingGenerator(make(bitgen)))
            return made[-1]

        monkeypatch.setattr(np.random, "Generator", counting)
        return made

    def test_each_generation_makes_four_calls(self, generators):
        week, generations = reference_instance(), 6
        cfg = EAConfig(population_size=12, generations=generations)
        run_ea(week, SALARY, BASIC, cfg)
        run_ea(week, SALARY, BASIC, dataclasses.replace(cfg, encoding="bg", selection="proportional"))
        run_moea(week, TRADE_OFF, BASIC, cfg)
        solve_assignment(HeadcountVector((1, 2, 1, 2, 1, 2)), week, BASIC,
                         dataclasses.replace(cfg, encoding="bg"))
        # ri starts are doubles, bg starts and rosters bits; tournaments
        # pick with integers, proportional selection with doubles
        starts = ["random", "integers", "random", "integers"]
        picks = ["integers", "random", "integers", "integers"]
        assert len(generators) == 4
        for rng, start, pick in zip(generators, starts, picks):
            assert rng.calls == [start] + [pick, "random", "integers", "random"] * generations

    def test_each_annealing_level_makes_three_calls(self, generators):
        res = sa_solve(reference_instance(), SALARY, BASIC, SAConfig())
        levels = len(res.trace.points) - 1
        assert levels > 1
        assert generators[0].calls == ["integers"] + ["integers", "random", "random"] * levels


def test_box_draw_is_rng_uniform_bit_for_bit():
    meta = np.random.Generator(np.random.PCG64(99))
    for seed in range(40):
        lo = meta.integers(0, 40, size=meta.integers(1, 9))
        bounds = tuple((int(a), int(a + w)) for a, w in zip(lo, meta.integers(0, 60, size=lo.size)))
        box = _box(bounds)
        ours = np.random.Generator(np.random.PCG64(seed))
        numpys = np.random.Generator(np.random.PCG64(seed))
        for _ in range(25):
            drawn = box.low + box.span * ours.random(len(bounds))
            uniform = numpys.uniform(box.low, box.high)
            assert drawn.tobytes() == uniform.tobytes(), (
                "low + span * rng.random(n) no longer equals rng.uniform(low, high) bit for bit; "
                "random_genome and the ri mutation rely on it, so every seeded ri result would change")
        assert ours.bit_generator.state == numpys.bit_generator.state, (
            "rng.uniform(low, high) no longer consumes one rng.random() double per value")
        n = len(bounds)
        block = ours.random((4, n))
        rows = [numpys.random(n) for _ in range(4)]
        assert block.tobytes() == np.stack(rows).tobytes(), (
            "rng.random((4, n)) no longer fills row by row with the doubles of four rng.random(n) "
            "calls; the ri mutation draw relies on it, so every seeded ri result would change")
        assert ours.bit_generator.state == numpys.bit_generator.state, (
            "rng.random((4, n)) no longer consumes the same doubles as four rng.random(n) calls")


@PROPERTY
@given(st.sampled_from(["ri", "bg"]), st.integers(0, 9), st.integers(1, 12), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_block_sampling_is_sampling_member_by_member(encoding, genes, rows, primed, seed):
    # bg: W = 0..9 bits; ri: 1..9 jobs of boxes 0..9 wide
    bounds = tuple((j, j + (genes + 3 * j) % 10) for j in range(max(genes, 1)))
    if encoding == "bg":
        bounds = ((0, 1),) * genes
    ours = np.random.Generator(np.random.PCG64(seed))
    numpys = np.random.Generator(np.random.PCG64(seed))
    if primed:
        assert ours.integers(0, 3) == numpys.integers(0, 3)
    box = _box(bounds)
    block = _random_genes(ours, rows, box, encoding)
    if encoding == "ri":
        one_by_one = [numpys.uniform(box.low, box.high) for _ in range(rows)]
    else:
        one_by_one = [numpys.integers(0, 2, size=genes, dtype=np.uint8) for _ in range(rows)]
    assert block.dtype == one_by_one[0].dtype
    assert block.tobytes() == np.stack(one_by_one).tobytes(), (
        "one block draw no longer gives the rows of one draw per member; starting "
        "populations and the barrier's samples are drawn that way, so every seeded run_ea, "
        "run_moea and solve_assignment result would change")
    assert ours.bit_generator.state == numpys.bit_generator.state
    assert random_genome(ours, bounds, encoding).data.tobytes() == (
        _random_genes(numpys, 1, box, encoding)[0].tobytes())


class TestPenalties:
    def test_external_penalty_is_quadratic(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(coefficient=100.0))
        g = oracle.encode((4, 6), inst.headcount_bounds(), "ri")  # staffing 10 > cap 8
        expr = atom("k5")
        hc = decode(g)
        expected = f2_total_salary(hc, inst) + 100.0 * 2.0**2
        assert fitness(g, SALARY, expr, inst, cfg) == pytest.approx(expected)

    def test_feasible_point_pays_no_penalty(self):
        inst = micro_instance()
        cfg = EAConfig()
        g = oracle.encode((1, 1), inst.headcount_bounds(), "ri")
        assert fitness(g, SALARY, BASIC, inst, cfg) == f2_total_salary(decode(g), inst)

    def test_internal_penalty_infinite_outside(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(method="internal"))
        over = oracle.encode((4, 4), inst.headcount_bounds(), "ri")  # on the k5 boundary
        assert fitness(over, SALARY, atom("k5"), inst, cfg) == float("inf")

    def test_internal_penalty_grows_near_boundary(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(method="internal", barrier_coefficient=1.0))
        mid = fitness(oracle.encode((1, 1), inst.headcount_bounds(), "ri"), SALARY, atom("k5"), inst, cfg)
        near = fitness(oracle.encode((4, 3), inst.headcount_bounds(), "ri"), SALARY, atom("k5"), inst, cfg)
        mid_obj = f2_total_salary(HeadcountVector((1, 1)), inst)
        near_obj = f2_total_salary(HeadcountVector((4, 3)), inst)
        assert near - near_obj > mid - mid_obj  # larger barrier near the cap

    def test_internal_rejects_or_and_not(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(method="internal"))
        with pytest.raises(ConfigurationError):
            run_ea(inst, SALARY, Not(atom("k5")), cfg)
        with pytest.raises(ConfigurationError):
            run_ea(inst, SALARY, parse_constraint_string("k4|k5"), cfg)

    def test_fitness_ranks_random_genomes_like_hand_scores(self):
        inst = micro_instance()
        cfg = EAConfig()
        rng = np.random.Generator(np.random.PCG64(12))
        genomes = [random_genome(rng, inst.headcount_bounds(), "ri") for _ in range(20)]
        got = [fitness(g, SALARY, BASIC, inst, cfg) for g in genomes]

        def hand_score(g):
            hc = decode(g)
            v = violation_expr(BASIC, None, hc, inst)
            return f2_total_salary(hc, inst) + cfg.penalty.coefficient * v * v

        expected = [hand_score(g) for g in genomes]
        assert got == pytest.approx(expected)
        assert sorted(range(20), key=got.__getitem__) == sorted(
            range(20), key=expected.__getitem__
        )

    def test_barrier_with_no_interior_fails_fast_and_names_the_atom(self, monkeypatch):
        # a job whose headcount window is one point leaves y2 no slack on
        # any staffing, so no start is strictly inside
        micro = micro_instance()
        pinned = dataclasses.replace(micro.jobs[0], headcount_max=micro.jobs[0].headcount_min)
        inst = dataclasses.replace(micro, jobs=(pinned, micro.jobs[1]))
        sample = evolution._initial_population
        ends = []

        def watched(rng, *args):
            try:
                return sample(rng, *args)
            finally:
                ends.append(rng.bit_generator.state)

        monkeypatch.setattr(evolution, "_initial_population", watched)
        cfg = EAConfig(population_size=10, penalty=PenaltyConfig(method="internal"))
        with pytest.raises(InfeasibleError, match=r"atoms at or past their boundary .*: .*y2 in 10"):
            run_ea(inst, SALARY, conjunction("k5", "y2"), cfg)
        # the sampling drew exactly the cap of samples, no more and no fewer
        drew = np.random.Generator(np.random.PCG64(cfg.seed))
        for _ in range(INITIAL_SAMPLES_PER_MEMBER * 10):
            random_genome(drew, inst.headcount_bounds(), cfg.encoding)
        assert ends == [drew.bit_generator.state]

    def test_rest_cap_leaves_a_staffing_its_interior(self):
        # a staffing has no rest days, so k6 gives it +inf slack as k1
        # does, whatever the cap: even with no rest allowed, the barrier
        # finds a start and no sample is blocked by k6
        week = dataclasses.replace(reference_instance(), rest_cap=0)
        res = run_ea(week, SALARY, BASIC, EAConfig(generations=5, penalty=PenaltyConfig(method="internal")))
        assert res.feasible
        rng = np.random.Generator(np.random.PCG64(0))
        counts = _decode_rows(_random_genes(rng, 500, _box(week.headcount_bounds()), "ri"), "ri",
                              _box(week.headcount_bounds()))
        blocking = evolution._blocking_atoms(counts, BASIC, week)
        assert blocking and "k6" not in blocking

    def test_internal_solve_stays_feasible(self):
        inst = micro_instance()
        cfg = EAConfig(
            population_size=30, generations=20,
            penalty=PenaltyConfig(method="internal"), seed=5,
        )
        res = run_ea(inst, SALARY, conjunction("k4", "k5", "y2"), cfg)
        assert res.feasible
        assert violation_expr(conjunction("k4", "k5", "y2"), None, res.counts, inst) == 0.0


class TestRunEA:
    def test_scorer_memoizes_staffings(self):
        for solver in (run_ea, run_moea):
            calls = []

            def wage(hc, tensor, inst):
                calls.append(hc.counts)
                return f2_total_salary(hc, inst)

            bundle = ObjectiveBundle((Objective(ObjectiveKind.CUSTOM, func=wage),))
            res = solver(micro_instance(), bundle, BASIC, EAConfig(population_size=20, generations=10))
            # the 4 x 6 micro box fits in the cache, so no staffing is scored twice
            assert res.evaluations == 20 * 11, solver.__name__
            assert len(calls) == len(set(calls)) < res.evaluations, solver.__name__

    def test_same_seed_same_everything(self):
        inst = micro_instance()
        cfg = EAConfig(population_size=20, generations=15, seed=7)
        a = run_ea(inst, SALARY, BASIC, cfg)
        b = run_ea(inst, SALARY, BASIC, cfg)
        assert a.counts == b.counts
        assert a.value == b.value
        assert a.evaluations == b.evaluations
        assert [p.best for p in a.trace.points] == [p.best for p in b.trace.points]
        assert [p.mean for p in a.trace.points] == [p.mean for p in b.trace.points]

    def test_different_seeds_usually_differ(self):
        inst = micro_instance()
        cfg_a = EAConfig(population_size=10, generations=2, seed=1)
        cfg_b = EAConfig(population_size=10, generations=2, seed=2)
        a = run_ea(inst, SALARY, BASIC, cfg_a)
        b = run_ea(inst, SALARY, BASIC, cfg_b)
        assert a.trace.points[0].mean != b.trace.points[0].mean

    def test_best_curve_never_worsens(self):
        inst = micro_instance()
        res = run_ea(inst, SALARY, BASIC, EAConfig(seed=3))
        curve = res.trace.best_curve()
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_trace_reads_back_its_points(self):
        res = run_ea(micro_instance(), SALARY, BASIC, EAConfig(population_size=10, generations=3, seed=2))
        trace = res.trace
        points = trace.points + (TracePoint(4, float("inf"), float("inf"), 2**40, 0.1),)
        packed = RunTrace(points)
        assert packed.points == points
        assert all(type(p.generation) is int and type(p.evaluations) is int for p in packed.points)
        assert "points" in [f.name for f in dataclasses.fields(trace)]
        assert pickle.loads(pickle.dumps(res)) == res
        assert dataclasses.replace(trace, points=()).points == ()

    def test_trace_counts_evaluations(self):
        inst = micro_instance()
        cfg = EAConfig(population_size=12, generations=4, seed=0)
        res = run_ea(inst, SALARY, BASIC, cfg)
        assert res.trace.points[0].evaluations == 12
        assert res.evaluations == 12 * 5
        assert [p.generation for p in res.trace.points] == [0, 1, 2, 3, 4]

    def test_feasible_result_reports_zero_violation(self):
        inst = micro_instance()
        res = run_ea(inst, SALARY, BASIC, EAConfig(seed=0))
        assert res.feasible
        assert res.violation == 0.0
        assert violation_expr(BASIC, None, res.counts, inst) == 0.0

    def test_proportional_selection_runs(self):
        inst = micro_instance()
        cfg = EAConfig(population_size=16, generations=8, selection="proportional", seed=2)
        res = run_ea(inst, SALARY, BASIC, cfg)
        assert res.feasible

    def test_zero_generations_returns_best_of_initial_population(self):
        inst = micro_instance()
        res = run_ea(inst, SALARY, BASIC, EAConfig(population_size=15, generations=0, seed=9))
        assert res.evaluations == 15
        assert len(res.trace.points) == 1
        assert res.trace.points[0].generation == 0

    def test_infeasible_branch_reports_least_violation(self):
        inst = micro_instance()
        impossible = conjunction("k5") & Not(atom("k5"))
        res = run_ea(inst, SALARY, impossible, EAConfig(population_size=10, generations=3, seed=1))
        assert not res.feasible
        assert res.violation > 0.0


@pytest.mark.parametrize("solve", [
    lambda week: run_ea(week, SALARY, BASIC, EAConfig(generations=3)),
    lambda week: run_ea(week, SALARY, BASIC, EAConfig(generations=3, encoding="bg")),
    lambda week: run_ea(week, SALARY, BASIC, EAConfig(generations=3, penalty=PenaltyConfig(method="internal"))),
    lambda week: pso_solve(week, SALARY, BASIC, PSOConfig(iterations=3)),
    lambda week: sa_solve(week, SALARY, BASIC, SAConfig()),
    lambda week: ip_solve(week, SALARY, BASIC),
    lambda week: run_moea(week, TRADE_OFF, BASIC, EAConfig(generations=3)),
    lambda week: solve_assignment(HeadcountVector((1, 2, 1, 2, 1, 2)), week, BASIC,
                                  EAConfig(generations=3, encoding="bg")),
], ids=["ea_ri", "ea_bg", "ea_barrier", "pso", "sa", "ip", "moea", "roster"])
def test_runs_leave_no_reference_cycles(solve):
    # a run's scorer, kernels and memo are freed by reference counting the
    # moment the run returns, not left for the cyclic collector
    week = reference_instance()
    gc.collect()
    gc.disable()
    try:
        solve(week)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestAssignment:
    def test_matches_enumeration_on_small_cases(self):
        rng = np.random.Generator(np.random.PCG64(77))
        import itertools

        from manpower import AttendanceTensor, employee_jobs

        for seed in range(6):
            inst = random_micro_instance(rng, n_jobs=2)
            hc = HeadcountVector(tuple(lo for lo, _ in inst.headcount_bounds()))
            expr = conjunction("k1", "k2", "k3", "k6")
            jobs_map = employee_jobs(hc)
            n_bits = len(jobs_map) * inst.horizon_days
            if n_bits > 10:
                continue
            best = np.inf
            for bits in itertools.product((0, 1), repeat=n_bits):
                grid = np.array(bits, dtype=np.uint8).reshape(len(jobs_map), inst.horizon_days)
                t = AttendanceTensor.from_day_attendance(grid, jobs_map, inst.n_jobs)
                v = violation_expr(expr, t, hc, inst)
                best = min(best, tensor_salary(t, inst) + 1e4 * v**2)
            res = solve_assignment(
                hc, inst, expr,
                EAConfig(population_size=40, generations=30, seed=seed, encoding="bg"),
            )
            achieved = res.value if res.feasible else res.value + 1e4 * res.violation**2
            assert achieved == pytest.approx(best)

    def test_tensor_matches_reported_value(self):
        inst = micro_instance()
        hc = HeadcountVector((1, 2))
        res = solve_assignment(hc, inst, conjunction("k2", "k6"), EAConfig(seed=4, population_size=30, generations=20))
        assert res.feasible
        assert tensor_salary(res.tensor, inst) == res.value
        assert res.tensor.headcounts().counts == hc.counts

    def test_multi_shift_genome_is_per_slot(self):
        inst = micro_instance(multi_shift=True)
        hc = HeadcountVector((1, 1))
        res = solve_assignment(hc, inst, conjunction("k2"), EAConfig(seed=1, population_size=20, generations=10))
        assert res.tensor.entries.shape[1] == inst.slots

    @pytest.mark.parametrize("multi", [False, True])
    def test_empty_staff_gets_the_empty_roster(self, multi):
        # the genome has no bits; every roster of no one is the same roster
        inst = micro_instance(multi_shift=multi)
        res = solve_assignment(HeadcountVector((0, 0)), inst, conjunction("k1", "k2", "k6"),
                               EAConfig(seed=2, population_size=6, generations=3))
        assert res.tensor.entries.shape == (0, inst.slots, inst.n_jobs)
        assert (res.value, res.feasible, res.violation) == (0.0, False, 2.0 * inst.horizon_days)

    def test_internal_penalty_rejected(self):
        inst = micro_instance()
        cfg = EAConfig(penalty=PenaltyConfig(method="internal"))
        with pytest.raises(ConfigurationError):
            solve_assignment(HeadcountVector((1, 1)), inst, BASIC, cfg)


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            EAConfig(population_size=1)
        with pytest.raises(ConfigurationError):
            EAConfig(generations=-1)
        with pytest.raises(ConfigurationError):
            EAConfig(crossover_rate=1.5)
        with pytest.raises(ConfigurationError):
            EAConfig(selection="rank")
        with pytest.raises(ConfigurationError):
            EAConfig(encoding="gray")
        with pytest.raises(ConfigurationError):
            PenaltyConfig(method="annealed")

    @pytest.mark.parametrize("field", ["coefficient", "barrier_coefficient"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_penalty_coefficient_rejected(self, field, value):
        # 0 * nan and 0 * inf would make a feasible staffing's score NaN
        with pytest.raises(ConfigurationError, match="finite"):
            PenaltyConfig(**{field: value})
