"""Bounded continuous maximizer: an artificial bee colony on one interval.

The bee colony follows the classical three-phase scheme (employed,
onlooker, scout) over one interval.  A run is fully determined by its
seed: the generator is Python's Mersenne Twister (``random.Random``)
and the draw order is fixed by the loop structure below, so identical
inputs give bitwise-identical results.

One loop, two entry points.  ``_colony`` runs the colony on an objective
that takes the point as a float; ``abc_maximize``, the public entry
point, passes it its objective wrapped to take a 1-tuple, and the
fairness solves of ``derive`` (``allocate.optimize_fair_two_user``)
pass their objective straight in, which spares each evaluation the
wrapper's calls.  So both share one draw-order contract, and a seed
gives the same bits through either; a test pins the two to each other.

Draw-order contract.  All draws come from the seeded generator: one
``random()`` for each new position (initial sources and scouts); per
onlooker, one ``random()`` for its roulette, or an index below
``food_count`` when every fitness is zero; per move, the partner index
(below ``food_count - 1``), the axis index (below 1: it picks nothing,
but every seeded result depends on it), then phi = ``-1.0 + 2.0 *
random()``.  An index below n is drawn as ``randrange(n)`` draws it,
inlined: ``getrandbits(n.bit_length())``, redrawn while ``>= n``.  The
tests check both inlined draws against ``randrange`` and ``uniform``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Tuple

__all__ = [
    "SearchSpace",
    "AbcConfig",
    "OptimizationResult",
    "abc_maximize",
]


@dataclass(frozen=True)
class SearchSpace:
    """The interval [lower[0], upper[0]], its bounds given as 1-tuples:
    finite, and finitely far apart, so every draw and move stays a
    finite point inside it."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if not (len(self.lower) == len(self.upper) == 1 and self.lower < self.upper):
            raise ValueError(f"need one lower bound below one upper bound: {self}")
        if not math.isfinite(self.upper[0] - self.lower[0]):
            raise ValueError(f"need finite bounds a finite span apart: {self}")


@dataclass(frozen=True)
class AbcConfig:
    """Colony size, evaluation budget, scout trigger, and PRNG seed."""

    food_count: int = 10
    max_evaluations: int = 4000
    limit: Optional[int] = None  # default food_count
    seed: int = 0

    def __post_init__(self):
        if self.food_count < 2:
            raise ValueError("food_count must be >= 2")
        if self.max_evaluations < self.food_count:
            raise ValueError("max_evaluations must be >= food_count")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1")


@dataclass(frozen=True)
class OptimizationResult:
    best_position: tuple
    best_objective: float
    evaluations_used: int
    trace: tuple  # best-so-far objective after each cycle


def abc_maximize(
    objective: Callable[[Tuple[float]], float],
    space: SearchSpace,
    config: AbcConfig,
) -> OptimizationResult:
    """Maximize ``objective`` over the interval with an artificial bee colony.

    The objective gets each point as a 1-tuple.  Cycle structure: an
    employed pass over all sources, an onlooker pass of the same size
    with roulette selection proportional to a shifted copy of the
    objective values, then at most one scout re-initialization of the
    most-stalled source.  Neighborhood moves perturb the point toward a
    random partner and clamp to the bounds; replacement is greedy.  The
    run stops once the number of objective evaluations reaches the
    budget and returns the best point ever evaluated.
    """
    (lo,), (up,) = space.lower, space.upper
    return _colony(lambda x: float(objective((x,))), lo, up, config)


def _colony(
    f: Callable[[float], float], lo: float, up: float, config: AbcConfig
) -> OptimizationResult:
    """abc_maximize over [lo, up], bounds a SearchSpace has accepted, of
    ``f``, which takes the point as a float and returns a float: one
    call per evaluation, with no wrapper between the loop and ``f``."""
    rng = random.Random(config.seed)
    draw_bits, draw_unit = rng.getrandbits, rng.random
    isfinite = math.isfinite
    food = config.food_count
    budget = config.max_evaluations
    limit = food if config.limit is None else config.limit
    span = up - lo
    # bit widths of the rejection draws for randrange(n)
    partners = food - 1
    partner_bits = partners.bit_length()
    food_bits = food.bit_length()

    def evaluate(x):
        value = f(x)
        if not isfinite(value):
            raise _not_finite(value, x)
        return value

    # the colony: source k sits at positions[k] with objective values[k],
    # and trials[k] counts its moves without improvement
    positions = [lo + draw_unit() * span for _ in range(food)]
    values = [evaluate(x) for x in positions]
    trials = [0] * food
    best_val = max(values)
    best_pos = positions[values.index(best_val)]
    evals = food

    trace = [best_val]  # initialization counts as cycle zero
    while evals < budget:
        # bees 0..food-1 are employed, one per source; the rest are
        # onlookers that pick a source by roulette on the values the
        # onlooker pass starts from; each bee evaluates once, so the
        # budget stops the cycle after `bees` of them
        bees = min(2 * food, budget - evals)
        for bee in range(bees):
            if bee < food:
                i = bee
            else:
                if bee == food:
                    shift = min(values)
                    fits = [v - shift for v in values] if shift < 0 else values
                    cumulative = list(accumulate(fits))
                    # the left-to-right fold, not sum(): from Python 3.12
                    # on sum() of floats is compensated
                    total = cumulative[-1]
                if total > 0:
                    # first source whose cumulative fitness reaches the draw
                    i = bisect_left(cumulative, draw_unit() * total)
                    if i == food:
                        i -= 1
                else:
                    i = draw_bits(food_bits)
                    while i >= food:
                        i = draw_bits(food_bits)

            # neighborhood move of source i toward partner m
            m = draw_bits(partner_bits)
            while m >= partners:
                m = draw_bits(partner_bits)
            if m >= i:
                m += 1
            # the axis index, randrange(1): it picks nothing, but without
            # this draw every seeded run would move
            while draw_bits(1):
                pass
            phi = -1.0 + 2.0 * draw_unit()
            xi = positions[i]
            x = xi + phi * (xi - positions[m])
            cand = lo if x < lo else up if x > up else x
            val = f(cand)
            if not isfinite(val):
                raise _not_finite(val, cand)
            if val > best_val:
                best_pos, best_val = cand, val
            if val > values[i]:
                positions[i], values[i], trials[i] = cand, val, 0
            elif trials[i] <= limit:
                # cap keeps the counter meaningful with one scout per cycle
                trials[i] += 1
        evals += bees

        if evals < budget:
            stalled = trials.index(max(trials))
            if trials[stalled] > limit:
                pos = lo + draw_unit() * span
                val = evaluate(pos)
                evals += 1
                positions[stalled], values[stalled], trials[stalled] = pos, val, 0
                if val > best_val:
                    best_pos, best_val = pos, val

        trace.append(best_val)

    return OptimizationResult(
        best_position=(best_pos,),
        best_objective=best_val,
        evaluations_used=evals,
        trace=tuple(trace),
    )


def _not_finite(value: float, x: float) -> ValueError:
    """The error of an objective that returned ``value`` at ``x``."""
    return ValueError(f"objective returned non-finite value {value!r} at {x!r}")
