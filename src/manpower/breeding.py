"""Breeding a generation from the generator's raw words.

A generational population is one (P, n) gene matrix.  One breeder per
run (:class:`_Breeder`) reads the draws of breeding one child at a time
(parent picks, crossover gate, cut point, one mutation draw per child)
off blocks of the generator's raw words (:class:`_Words`).  Where each
draw reads a block depends only on the words and on the generation's
geometry, so one plan places the draws of several generations in whole
arrays, and a generation only picks its parents, crosses them over and
mutates them; the generator is left where numpy's own calls would leave
it.  The rare generation whose draws read a 32-bit half that Lemire's
method rejects is bred with numpy's own calls instead
(:func:`_breed_calls`).  The child-by-child loop is the reference in
``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .evolution import EAConfig, _Box

# Raw words one breeding plan draws at most (128 KB); a plan covers as
# many generations as fit, and at least one.
PLAN_WORDS = 16384


class _Words:
    """One block of a PCG64 generator's raw 64-bit words, drawn in one
    call, off which a breeding plan (:class:`_Breeder`) reads numpy's
    draws.

    numpy's draws are fixed functions of the word stream (O'Neill 2014).
    ``rng.random()`` reads the next word ``w`` as ``(w >> 11) * 2**-53``
    (:meth:`units`).  ``rng.integers(0, b)``, ``b <= 2**32``, reads 32-bit
    halves: the low half of the next word, or the high half the generator
    kept from the last word it split (doubles pass a kept half by).  A
    half ``x`` gives ``(x * b) >> 32``, unless ``(x * b) mod 2**32 <
    2**32 mod b``; then the draw reads another half (Lemire 2019).
    ``b == 1`` reads nothing.

    Word 0 holds the half the generator kept before the block, as its
    high half (half 1; ``kept`` is 1 when there is one, else 0);
    ``halves`` views the words as 32-bit halves, low then high.
    """

    def __init__(self, rng: np.random.Generator, count: int):
        self._bitgen = rng.bit_generator
        state = self._bitgen.state
        self.kept = 1 if state["has_uint32"] else 0
        # word 0 is the word before the block, drawn again and overwritten,
        # so the block is drawn straight into place
        self._bitgen.advance(2**128 - 1)
        self.words = self._bitgen.random_raw(count + 1)
        self.words[0] = state["uinteger"] << 32
        self.halves = np.asarray(self.words, dtype="<u8").view("<u4")  # low, high, low, ...

    def units(self, words) -> np.ndarray:
        """The ``rng.random()`` values of the draws at ``words``."""
        return (self.words[words] >> 11) * 2.0**-53

    def close(self, pos: int, kept: int, last: int) -> None:
        """Leave the generator before word ``pos``, keeping the half
        ``kept`` (0: none) and with half ``last`` as numpy's last kept
        half."""
        self._bitgen.advance((pos - len(self.words)) % 2**128)  # back over the words not read
        state = self._bitgen.state
        state["has_uint32"] = int(kept != 0)
        state["uinteger"] = int(self.halves[last])
        self._bitgen.state = state


@dataclass(frozen=True)
class _Pick:
    """How breeding picks a parent: ``draws`` draws of
    ``rng.integers(0, bound)`` (``rng.random()`` when ``bound`` is 0), and
    ``choose``, which maps the (picks, draws) values of many picks to the
    rows picked."""

    draws: int
    bound: int
    choose: Callable[[np.ndarray], np.ndarray]


def _selector(scores: np.ndarray, cfg: EAConfig) -> _Pick:
    """The parent pick of one generation, lower penalized ``scores`` being
    fitter."""
    n = scores.shape[0]
    if cfg.selection == "tournament":
        # the first least score among the k entrants wins, as argmin does
        # (scores are finite or +inf, never NaN)
        return _Pick(cfg.tournament_k, n, lambda entrants: entrants[
            np.arange(len(entrants)), scores[entrants].argmin(axis=1)])
    # fitness-proportional on min-oriented scores
    finite = np.isfinite(scores)
    if finite.any():
        worst = scores[finite].max()
        weights = np.where(finite, worst - scores + 1e-9, 0.0)
        total = weights.sum()
        if total > 0:
            # rng.choice(n, p=p): one double searched in the normalized cumulative sums
            cdf = (weights / total).cumsum()
            cdf /= cdf[-1]
            return _Pick(1, 0, lambda u: cdf.searchsorted(u[:, 0], side="right"))
    return _Pick(1, n, lambda drawn: drawn[:, 0])


def _offspring(
    genes: np.ndarray,
    parents: np.ndarray,
    mix: np.ndarray,
    draws: np.ndarray,
    cfg: EAConfig,
    elite: np.ndarray,
    ri_box: _Box | None,
) -> np.ndarray:
    """The next generation's (P, n) gene matrix: the rows of ``elite``,
    then the children of the parent rows ``parents`` (two per pair, in
    pair order), crossed over at each pair's ``mix`` (the (pairs, 1) cut
    points, n for none; for a lone real gene the blend weights, nan for
    none) and mutated by the doubles ``draws`` (``per_child`` per child).
    ``ri_box`` is the box of real genes; None for bit genes."""
    size = cfg.population_size - len(elite)
    n = genes.shape[1]
    a, b = genes[parents[0::2]], genes[parents[1::2]]
    if ri_box is not None and n == 1:
        blended = ~np.isnan(mix)
        a, b = (np.where(blended, mix * a + (1 - mix) * b, a),
                np.where(blended, mix * b + (1 - mix) * a, b))
    else:
        first = np.arange(n) < mix
        a, b = np.where(first, a, b), np.where(first, b, a)
    children = np.stack([a, b], axis=1).reshape(2 * len(mix), n)[:size]
    if ri_box is None:
        children ^= draws.reshape(size, n) < cfg.mutation_rate
    else:
        # half the mutations nudge a gene by one step, half resample it
        hit, up, fresh, nudge = draws.reshape(size, 4, n).transpose(1, 0, 2)
        low, high = ri_box.low, ri_box.high
        local = np.minimum(np.maximum(children + np.where(up < 0.5, 1.0, -1.0), low), high)
        mutated = np.where(nudge < 0.5, local, low + ri_box.span * fresh)
        children = np.where(hit < cfg.mutation_rate, mutated, children)
    return np.concatenate([elite, children])


def _breed_calls(
    rng: np.random.Generator,
    genes: np.ndarray,
    pick: _Pick,
    cfg: EAConfig,
    elite: np.ndarray,
    ri_box: _Box | None = None,
) -> np.ndarray:
    """One generation bred with numpy's own calls, pair by pair as the
    child-by-child loop makes them, for the generation of a plan that
    reads a rejected half (see :class:`_Breeder`)."""
    size = cfg.population_size - len(elite)
    n = genes.shape[1]
    blends = ri_box is not None and n == 1
    per_child = n if ri_box is None else 4 * n   # mutation doubles
    pairs = -(-size // 2)
    picks = 2 * pick.draws
    values = np.empty((pairs, picks), dtype=np.intp if pick.bound else float)
    mix = np.full((pairs, 1), np.nan if blends else n)   # nan / n: no crossover
    draws = np.empty(size * per_child)
    for pair in range(pairs):
        values[pair] = rng.integers(0, pick.bound, picks) if pick.bound else rng.random(picks)
        if rng.random() < cfg.crossover_rate and (blends or n >= 2):
            mix[pair] = rng.random() if blends else rng.integers(1, n)
        rng.random(out=draws[2 * pair * per_child:2 * (pair + 1) * per_child])
    parents = pick.choose(values.reshape(2 * pairs, pick.draws))
    return _offspring(genes, parents, mix, draws, cfg, elite, ri_box)


class _Breeder:
    """One run's breeding: :meth:`breed` makes the next generation's
    (P, n) gene matrix, the rows of the elite, then mutated children of
    parent pairs crossed over at the crossover rate.

    The draws are those of breeding one child at a time (the reference
    loop in ``tests/oracle.py``): per pair, the two picks, the crossover
    gate, the cut point when the gate passes (``rng.integers(1, n)``, or
    a blend weight for a lone real gene; nothing for a lone bit), then
    one mutation draw per child, none for the pair's second child when it
    does not fit.  Where each draw reads the generator's raw words
    (:class:`_Words`) depends only on the words and on the generation's
    geometry (the pick's draws and bound, the number of children), never
    on the population or its scores.  So one plan places the draws of as
    many generations as :data:`PLAN_WORDS` words hold, in whole arrays:

    * a pair's 2 * ``pick.draws`` bounded picks read an even number of
      32-bit halves, so the generator keeps a half after them exactly
      when it kept one before.  Pair q of the plan thus starts
      ``q * stride`` words in (less the odd generations' undrawn second
      children), plus the words its block's earlier cut points split (a
      cut splits a new word only when no half is kept, so every other
      one) or its earlier blend weights read;
    * the crossover gates are the one serial step: a scalar loop over the
      pairs reads one precomputed pass byte at each pair's gate word;
    * the bounded draws read, in order, the halves of a stream that
      starts with the kept half and goes on with both halves of each word
      they split.

    A generation then only chooses its parents, crosses and mutates.  A
    change of geometry (the elite appears, or proportional selection
    meets all-+inf scores) starts a new plan where the last generation
    bred left the generator.  A plan whose draws read a rejected half
    (Lemire 2019; probability below bound / 2**32 a draw) breeds up to
    that generation, which is bred with numpy's own calls
    (:func:`_breed_calls`).  :meth:`close` leaves the generator where
    numpy's child-by-child calls would leave it.
    """

    def __init__(self, rng: np.random.Generator, cfg: EAConfig, n: int, generations: int,
                 ri_box: _Box | None = None):
        self._rng, self._cfg, self._n, self._ri_box = rng, cfg, n, ri_box
        self._left = generations   # generations still to breed
        self._words: _Words | None = None

    def breed(self, genes: np.ndarray, pick: _Pick, elite: np.ndarray) -> np.ndarray:
        """The generation after ``genes``: ``elite``, then children of
        parents chosen by ``pick``."""
        key = (pick.draws, pick.bound, self._cfg.population_size - len(elite))
        if self._words is None or key != self._key or self._gen == self._planned:
            self.close()
            self._plan(*key)
        g = self._gen
        self._left -= 1
        if g == self._usable:   # the generation reads a rejected half
            self.close()
            return _breed_calls(self._rng, genes, pick, self._cfg, elite, self._ri_box)
        self._gen = g + 1
        pairs = self._pairs
        rows = slice(g * pairs, (g + 1) * pairs)
        parents = pick.choose(self._picks[rows].reshape(2 * pairs, pick.draws))
        mutations = self._windows[self._mutations[rows]].reshape(-1)[:key[2] * self._per_child]
        return _offspring(genes, parents, self._mix[rows], (mutations >> 11) * 2.0**-53,
                          self._cfg, elite, self._ri_box)

    def close(self) -> None:
        """Leave the generator after the generations bred so far."""
        words = self._words
        if words is not None:
            words.close(*self._states[self._gen])
            self._words = None

    def _plan(self, draws: int, bound: int, size: int) -> None:
        """Place the draws of the next generations of this geometry."""
        n, cfg = self._n, self._cfg
        blends = self._ri_box is not None and n == 1
        per_child = self._per_child = n if self._ri_box is None else 4 * n   # mutation doubles
        pairs = self._pairs = -(-size // 2)
        m = 2 * draws                        # a pair's picks
        lead = m // 2 if bound else m        # the words they read
        stride = lead + 1 + 2 * per_child    # a pair's words but its cut's
        gens = max(1, min(self._left, PLAN_WORDS // (pairs * (stride + 1))))
        words = self._words = _Words(self._rng, gens * pairs * (stride + 1))
        raw, halves, s0 = words.words, words.halves, words.kept
        self._key, self._gen = (draws, bound, size), 0

        # where each pair would start if no cut point read a word
        q = np.arange(gens * pairs + 1)
        base = 1 + q * stride - q // pairs * (size % 2 * per_child)
        cuts_split = n >= 3 and not blends   # cut points are bounded draws that read halves
        crossings = np.zeros(len(q), dtype=np.intp)   # crossings before each pair
        if cfg.crossover_rate > 0 and (blends or n >= 2):
            # the gate's ``u < rate`` is ``word < limit`` on the raw word
            limit = math.ceil(cfg.crossover_rate * 2.0**53) << 11
            passes = raw < np.uint64(limit) if limit < 2**64 else np.ones(len(raw), dtype=bool)
            if blends or cuts_split:
                # a pair starts ``(C + add) >> halve`` words later after C crossings
                add, halve = (1 - s0, 1) if cuts_split else (0, 0)
                gate, c = passes.tobytes(), 0
                for k, at in enumerate((base[:-1] + lead).tolist(), 1):
                    c += gate[at + ((c + add) >> halve)]
                    crossings[k] = c
            else:
                crossings[1:] = np.cumsum(passes[base[:-1] + lead])
        shifted = (crossings + 1 - s0) >> 1 if cuts_split else (crossings if blends else 0)
        start = base + shifted               # start[-1]: where the plan's last generation ends
        crossed = np.diff(crossings) > 0
        cut_at = start[:-1] + lead + 1
        cut_reads = crossed & ((crossings[:-1] + s0) % 2 == 0) if cuts_split else crossed & blends
        self._mutations = cut_at + cut_reads
        self._windows = np.lib.stride_tricks.sliding_window_view(raw, 2 * per_child)

        # the bounded draws: picks (when ``bound``), then cut points
        bounded_picks, split_lead = (m, lead) if bound else (0, 0)
        before = q * bounded_picks + (crossings if cuts_split else 0)   # bounded draws before pair q
        splits = q * split_lead + (shifted if cuts_split else 0)        # words they split
        split = np.zeros(1 + splits[-1], dtype=np.intp)   # word 0 holds the kept half
        split[(1 + splits[:-1, None] + np.arange(split_lead)).ravel()] = (
            start[:-1, None] + np.arange(split_lead)).ravel()
        if cuts_split:
            split[1 + splits[:-1][cut_reads] + split_lead] = cut_at[cut_reads]
        stream = 2 - s0   # the stream's halves: the kept one, then both of each split word

        def bounded_draws(i: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
            """The ``rng.integers(0, b)`` values of bounded draws ``i``, and
            whether each read a rejected half."""
            at = i + stream
            x = halves[2 * split[at >> 1] + (at & 1)].astype(np.uint64) * np.uint64(b)
            return (x >> 32).astype(np.intp), x % 2**32 < 2**32 % b

        rejected_pairs = [len(crossed)]
        if bound:
            self._picks, rejected = bounded_draws(before[:-1, None] + np.arange(m), bound)
            if rejected.any():
                rejected_pairs.append(np.flatnonzero(rejected.any(axis=1))[0])
        else:
            self._picks = words.units(start[:-1, None] + np.arange(m))
        if blends:
            mix = np.full((len(crossed), 1), np.nan)   # the blend weight (nan: none)
            mix[crossed, 0] = words.units(cut_at[crossed])
        else:
            mix = np.where(crossed, 1, n)[:, None]     # the cut point (n: no crossover)
            if cuts_split and crossed.any():
                points, rejected = bounded_draws(before[:-1][crossed] + bounded_picks, n - 1)
                mix[crossed, 0] += points
                if rejected.any():
                    rejected_pairs.append(np.flatnonzero(crossed)[rejected][0])
        self._mix = mix
        self._planned = gens
        self._usable = int(min(rejected_pairs)) // pairs

        # the generator's state at each generation's start: next word, kept half, last kept half
        edges = q[::pairs]
        seen = before[edges] + 1 - s0        # halves of the stream passed
        last = 2 * split[seen >> 1] + 1
        self._states = list(zip(start[edges].tolist(), np.where(seen % 2, 0, last).tolist(),
                                last.tolist()))
