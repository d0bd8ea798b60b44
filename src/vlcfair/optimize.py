"""Bounded continuous maximizers: artificial bee colony and a grid oracle.

The bee colony follows the classical three-phase scheme (employed,
onlooker, scout) over a fixed box.  A run is fully determined by its
seed: the generator is Python's Mersenne Twister (``random.Random``)
and the draw order is fixed by the loop structure below, so identical
inputs give bitwise-identical results.

Draw-order contract.  All draws come from the seeded generator: one
``random()`` per dimension for each new position (initial sources and
scouts); per onlooker, one ``random()`` for its roulette, or an index
below ``food_count`` when every fitness is zero; per move, the partner
index (below ``food_count - 1``), the dimension index (below ``dims``,
drawn even when ``dims`` is 1), then phi = ``-1.0 + 2.0 * random()``.
An index below n is drawn as ``randrange(n)`` draws it, inlined:
``getrandbits(n.bit_length())``, redrawn while ``>= n``.  The tests
check both inlined draws against ``randrange`` and ``uniform``.

The grid maximizer is an independent brute-force oracle used to
validate the colony on one-dimensional problems.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SearchSpace",
    "AbcConfig",
    "OptimizationResult",
    "abc_maximize",
    "grid_maximize",
]


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box: per-dimension lower and upper bounds."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValueError("lower and upper must be equal-length, non-empty")
        if any(lo >= up for lo, up in zip(self.lower, self.upper)):
            raise ValueError(f"need lower < upper per dimension: {self}")

    @property
    def dims(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class AbcConfig:
    """Colony size, evaluation budget, scout trigger, and PRNG seed."""

    food_count: int = 10
    max_evaluations: int = 4000
    limit: Optional[int] = None  # default food_count * dims
    seed: int = 0

    def __post_init__(self):
        if self.food_count < 2:
            raise ValueError("food_count must be >= 2")
        if self.max_evaluations < self.food_count:
            raise ValueError("max_evaluations must be >= food_count")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1")

    def effective_limit(self, dims: int) -> int:
        return self.limit if self.limit is not None else self.food_count * dims


@dataclass(frozen=True)
class OptimizationResult:
    best_position: tuple
    best_objective: float
    evaluations_used: int
    trace: tuple  # best-so-far objective after each cycle


def abc_maximize(
    objective: Callable[[Sequence[float]], float],
    space: SearchSpace,
    config: AbcConfig,
) -> OptimizationResult:
    """Maximize ``objective`` over the box with an artificial bee colony.

    Cycle structure: an employed pass over all sources, an onlooker pass
    of the same size with roulette selection proportional to a shifted
    copy of the objective values, then at most one scout
    re-initialization of the most-stalled source.  Neighborhood moves
    perturb one random coordinate toward a random partner and clamp to
    the bounds; replacement is greedy.  The run stops once the number of
    objective evaluations reaches the budget and returns the best point
    ever evaluated.
    """
    rng = random.Random(config.seed)
    draw_bits, draw_unit = rng.getrandbits, rng.random
    food = config.food_count
    budget = config.max_evaluations
    dims = space.dims
    limit = config.effective_limit(dims)
    lower, upper = space.lower, space.upper
    # bit widths of the rejection draws for randrange(n)
    partners = food - 1
    partner_bits = partners.bit_length()
    dim_bits = dims.bit_length()
    food_bits = food.bit_length()

    def evaluate(position):
        value = float(objective(position))
        if not math.isfinite(value):
            raise ValueError(
                f"objective returned non-finite value {value!r} at {tuple(position)}"
            )
        return value

    def random_position():
        return [lo + draw_unit() * (up - lo) for lo, up in zip(lower, upper)]

    # the colony: source k sits at positions[k] with objective values[k],
    # and trials[k] counts its moves without improvement
    positions = [random_position() for _ in range(food)]
    values = [evaluate(pos) for pos in positions]
    trials = [0] * food
    best_val = max(values)
    best_pos = positions[values.index(best_val)]
    evals = food

    trace = [best_val]  # initialization counts as cycle zero
    while evals < budget:
        # bees 0..food-1 are employed, one per source; the rest are
        # onlookers that pick a source by roulette on the values the
        # onlooker pass starts from
        for bee in range(2 * food):
            if evals >= budget:
                break
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
                    u = draw_unit() * total
                    i = min(bisect_left(cumulative, u), food - 1)
                else:
                    i = draw_bits(food_bits)
                    while i >= food:
                        i = draw_bits(food_bits)

            # neighborhood move of source i toward partner m along axis j
            m = draw_bits(partner_bits)
            while m >= partners:
                m = draw_bits(partner_bits)
            if m >= i:
                m += 1
            j = draw_bits(dim_bits)
            while j >= dims:
                j = draw_bits(dim_bits)
            phi = -1.0 + 2.0 * draw_unit()
            cand = positions[i][:]
            x = cand[j] + phi * (cand[j] - positions[m][j])
            lo, up = lower[j], upper[j]
            cand[j] = lo if x < lo else up if x > up else x
            val = evaluate(cand)
            evals += 1
            if val > best_val:
                best_pos, best_val = cand, val
            if val > values[i]:
                positions[i], values[i], trials[i] = cand, val, 0
            elif trials[i] <= limit:
                # cap keeps the counter meaningful with one scout per cycle
                trials[i] += 1

        if evals < budget:
            stalled = trials.index(max(trials))
            if trials[stalled] > limit:
                pos = random_position()
                val = evaluate(pos)
                evals += 1
                positions[stalled], values[stalled], trials[stalled] = pos, val, 0
                if val > best_val:
                    best_pos, best_val = pos, val

        trace.append(best_val)

    return OptimizationResult(
        best_position=tuple(best_pos),
        best_objective=best_val,
        evaluations_used=evals,
        trace=tuple(trace),
    )


def grid_maximize(
    objective: Callable,
    space: SearchSpace,
    resolution: int,
    refine: bool = False,
    batch: bool = False,
) -> OptimizationResult:
    """Brute-force 1-D maximizer on a uniform grid including both endpoints.

    With ``refine`` a second pass scans one grid cell on each side of
    the incumbent at 100x density.  With ``batch`` the objective is
    called once with an ndarray of points instead of point by point.
    """
    if space.dims != 1:
        raise ValueError("grid_maximize is one-dimensional only")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    lo, up = space.lower[0], space.upper[0]

    def sweep(xs):
        if batch:
            vals = np.asarray(objective(xs), dtype=float)
        else:
            vals = np.array([float(objective([x])) for x in xs])
        if not np.all(np.isfinite(vals)):
            bad = xs[~np.isfinite(vals)][0]
            raise ValueError(f"objective returned non-finite value at {bad}")
        i = int(np.argmax(vals))
        return float(xs[i]), float(vals[i])

    xs = np.linspace(lo, up, resolution)
    best_x, best_v = sweep(xs)
    evals = resolution
    if refine:
        h = (up - lo) / (resolution - 1)
        fine = np.linspace(max(lo, best_x - h), min(up, best_x + h), 201)
        x2, v2 = sweep(fine)
        evals += len(fine)
        if v2 > best_v:
            best_x, best_v = x2, v2
    return OptimizationResult(
        best_position=(best_x,),
        best_objective=best_v,
        evaluations_used=evals,
        trace=(best_v,),
    )
