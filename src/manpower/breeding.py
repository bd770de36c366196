"""Breeding a generation from whole-array draws.

A generational population is one (P, n) gene matrix.  :func:`breed`
makes the next one, the elite rows and then mutated children of parent
pairs crossed over at the crossover rate, from four generator calls in
a fixed order, each drawing what the generation needs of one kind at
once: the parent picks, the crossover gates, the cut points (or blend
weights) and the mutation doubles.  Every draw is made whether or not it
is used, so the generator moves by the generation's geometry alone.
The child-by-child loop that makes the same calls is the reference in
``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .evolution import EAConfig, _Box


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


def breed(
    rng: np.random.Generator,
    genes: np.ndarray,
    pick: _Pick,
    cfg: EAConfig,
    elite: np.ndarray,
    ri_box: _Box | None = None,
) -> np.ndarray:
    """The generation after ``genes``: ``elite``, then children of parents
    chosen by ``pick``.  Its draws, in order: the picks,
    ``rng.integers(0, bound, (2 * pairs, draws))`` (``rng.random`` when
    ``bound`` is 0); the gates, ``rng.random(pairs)``; the cut points,
    ``rng.integers(1, n, pairs)`` when there are two genes or more, or
    for a lone real gene the blend weights, ``rng.random(pairs)``; the
    mutation doubles, ``rng.random((children, per_child))``.  The pair
    crosses over when its gate is below the crossover rate."""
    size = cfg.population_size - len(elite)
    n = genes.shape[1]
    blends = ri_box is not None and n == 1
    per_child = n if ri_box is None else 4 * n
    pairs = -(-size // 2)
    shape = (2 * pairs, pick.draws)
    values = rng.integers(0, pick.bound, shape) if pick.bound else rng.random(shape)
    crossed = rng.random(pairs) < cfg.crossover_rate
    if blends:   # the blend weight (nan: none)
        mix = np.where(crossed, rng.random(pairs), np.nan)
    elif n >= 2:  # the cut point (n: no crossover)
        mix = np.where(crossed, rng.integers(1, n, pairs), n)
    else:
        mix = np.full(pairs, n)
    draws = rng.random((size, per_child))
    return _offspring(genes, pick.choose(values), mix[:, None], draws, cfg, elite, ri_box)
