"""Bee-colony maximizer against objectives whose maximizer is known
exactly, and its two entry points against each other."""

import math
import random
import re
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vlcfair import optimize
from vlcfair.allocate import TwoUserInstance, fairness_objective, optimize_fair_two_user
from vlcfair.optimize import AbcConfig, SearchSpace, _colony, abc_maximize

UNIT = SearchSpace(lower=(0.0,), upper=(1.0,))
TABLE_BUDGET = AbcConfig(food_count=10, max_evaluations=4000, seed=0)


def quadratic(peak):
    return lambda pos: -((pos[0] - peak) ** 2)


class TestAbc:
    def test_quadratic_peak(self):
        result = abc_maximize(quadratic(0.3), UNIT, TABLE_BUDGET)
        assert result.best_position[0] == pytest.approx(0.3, abs=1e-3)

    def test_determinism_bitwise(self):
        cfg = AbcConfig(food_count=10, max_evaluations=2000, seed=42)
        a = abc_maximize(quadratic(0.61), UNIT, cfg)
        b = abc_maximize(quadratic(0.61), UNIT, cfg)
        assert a == b  # dataclass equality covers position, value, trace

    def test_seed_changes_trajectory(self):
        a = abc_maximize(quadratic(0.61), UNIT, AbcConfig(seed=1, max_evaluations=500))
        b = abc_maximize(quadratic(0.61), UNIT, AbcConfig(seed=2, max_evaluations=500))
        assert a.trace != b.trace

    def test_trace_non_decreasing_and_best_is_max(self):
        result = abc_maximize(quadratic(0.8), UNIT, TABLE_BUDGET)
        assert all(b >= a for a, b in zip(result.trace, result.trace[1:]))
        assert result.best_objective == max(result.trace)

    def test_budget_respected(self):
        calls = []

        def counted(pos):
            calls.append(pos[0])
            return -((pos[0] - 0.5) ** 2)

        cfg = AbcConfig(food_count=10, max_evaluations=777, seed=5)
        result = abc_maximize(counted, UNIT, cfg)
        assert result.evaluations_used == len(calls)
        assert 777 <= len(calls) <= 777 + 10

    def test_all_candidates_inside_bounds(self):
        seen = []
        space = SearchSpace(lower=(-2.0,), upper=(3.5,))

        def watching(pos):
            seen.append(pos[0])
            return math.sin(pos[0])

        abc_maximize(watching, space, AbcConfig(seed=9, max_evaluations=1500))
        assert all(-2.0 <= x <= 3.5 for x in seen)

    @pytest.mark.parametrize(
        "lower, upper",
        [((0.0, -1.0), (1.0, 1.0)), ((), ()), ((0.0,), (1.0, 2.0)), ((1.0,), (1.0,))],
        ids=["two-axes", "no-axis", "unequal-lengths", "empty-interval"],
    )
    def test_one_axis_only(self, lower, upper):
        with pytest.raises(ValueError, match="one lower bound below one upper bound"):
            SearchSpace(lower=lower, upper=upper)

    @pytest.mark.parametrize(
        "lower, upper",
        [((-math.inf,), (1.0,)), ((0.0,), (math.inf,)), ((-1e308,), (1e308,))],
        ids=["lower-minus-inf", "upper-inf", "span-overflows"],
    )
    def test_span_must_be_finite(self, lower, upper):
        # an infinite bound or span would put nan into every position
        with pytest.raises(ValueError, match="need finite bounds a finite span apart"):
            SearchSpace(lower=lower, upper=upper)

    def test_objective_gets_a_one_tuple(self):
        seen = set()

        def watching(pos):
            seen.add(type(pos))
            assert len(pos) == 1
            return -pos[0]

        abc_maximize(watching, UNIT, AbcConfig(seed=4, max_evaluations=100))
        assert seen == {tuple}

    def test_non_finite_objective_aborts(self):
        def bad(pos):
            return math.nan

        with pytest.raises(ValueError):
            abc_maximize(bad, UNIT, AbcConfig(seed=1, max_evaluations=100))

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(food_count=1), "food_count must be >= 2"),
            (dict(food_count=10, max_evaluations=9), "max_evaluations must be >= food_count"),
            (dict(limit=0), "limit must be >= 1"),
            # random.Random seeds with |seed|: -3 would draw seed 3's colony
            (dict(seed=-3), "seed must be >= 0, got -3"),
        ],
        ids=["one-source", "budget-below-sources", "limit-zero", "seed-negative"],
    )
    def test_config_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            AbcConfig(**fields)

    def test_scout_reactivates_stalled_source(self):
        # flat objective stalls every source; the run must still finish
        result = abc_maximize(lambda pos: 0.0, UNIT, AbcConfig(seed=2, max_evaluations=500))
        assert result.best_objective == 0.0


class TestDrawContract:
    """Every number the colony draws is one ``random()`` of its seeded
    generator, as many per phase as the module docstring counts."""

    @pytest.mark.parametrize(
        "kind, food, budget, limit",
        [
            ("smooth", 10, 4000, None),  # the table budget
            ("smooth", 5, 5 + 37, 2),  # a last cycle cut inside the onlookers
            ("smooth", 4, 4 + 3, None),  # a first cycle cut inside the employed bees
            ("flat", 6, 400, 1),  # every fitness zero, a scout after every cycle
            ("piecewise", 2, 300, 1),  # one partner, whose index is still drawn
        ],
        ids=["table", "cut-onlookers", "cut-employed", "flat-scouts", "two-sources"],
    )
    def test_only_random_as_counted(self, kind, food, budget, limit):
        config = AbcConfig(food_count=food, max_evaluations=budget, limit=limit, seed=11)
        run, _, result = logged_colony(OBJECTIVES[kind](0.3), config)
        assert run.count("f") == result.evaluations_used
        # initial sources, then whole cycles (employed moves, onlooker
        # moves, at most one scout) and at most one cut cycle
        n = food
        cycles = rf"u{{{n}}}f{{{n}}}(?:(?:uuf){{{n}}}(?:uuuf){{{n}}}(?:uf)?)*"
        cut = rf"(?:(?:uuf){{1,{n}}}|(?:uuf){{{n}}}(?:uuuf){{1,{n - 1}}})?"
        assert re.fullmatch(cycles + cut, run)
        if kind == "flat":
            assert "fuf" in run  # a scout: one draw between two evaluations

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789, 2**40 + 3])
    def test_affine_draw_matches_uniform(self, seed):
        ref, fast = random.Random(seed), random.Random(seed)
        for _ in range(500):
            assert -1.0 + 2.0 * fast.random() == ref.uniform(-1.0, 1.0)
        assert fast.getstate() == ref.getstate()


class TestOracleAgreement:
    def test_twenty_seeded_concave_trials(self):
        # concave objectives whose unique maximizer, `peak`, lies inside the box
        rng = random.Random(2024)
        for trial in range(20):
            peak = rng.uniform(0.05, 0.95)
            width = rng.uniform(0.5, 4.0)
            kind = trial % 2

            def objective(pos, peak=peak, width=width, kind=kind):
                x = pos[0]
                if kind == 0:
                    return -width * (x - peak) ** 2
                return -abs(x - peak) ** 1.5 * width

            cfg = AbcConfig(food_count=10, max_evaluations=4000, seed=trial)
            abc = abc_maximize(objective, UNIT, cfg)
            assert abs(abc.best_position[0] - peak) <= 1e-3


def bits(result):
    """Every bit of a colony result: position, value, evaluations, trace."""
    return (
        result.best_position[0].hex(),
        result.best_objective.hex(),
        result.evaluations_used,
        [value.hex() for value in result.trace],
    )


# objectives of the point as a float, each with a peak inside the interval
OBJECTIVES = {
    "smooth": lambda peak: lambda x: -((x - peak) ** 2),
    "flat": lambda peak: lambda x: 0.0,
    "piecewise": lambda peak: lambda x: float(x > peak) - abs(x - peak),
}


def logged_colony(g, config, **stop):
    """_colony on [0, 1] of ``g``, logged: the run as one string ("u" for
    a random() draw, "f" for an evaluation, "b" for any other draw, since
    they all go through getrandbits), the values evaluated, and the
    result."""
    log, values = [], []

    class Logged(random.Random):
        def random(self):
            log.append("u")
            return super().random()

        def getrandbits(self, k):
            log.append("b")
            return super().getrandbits(k)

    def f(x):
        log.append("f")
        values.append(g(x))
        return values[-1]

    with mock.patch.object(optimize, "random", SimpleNamespace(Random=Logged)):
        result = _colony(f, 0.0, 1.0, config, **stop)
    return "".join(log), values, result


class TestEntryPoints:
    """abc_maximize and the fairness solves run one loop, ``_colony``: the
    same seed must give the same bits through every entry point."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        food=st.integers(2, 12),
        extra=st.integers(0, 600),
        limit=st.one_of(st.none(), st.integers(1, 20)),
        lower=st.floats(-1e6, 1e6),
        width=st.floats(1e-9, 1e6),
        where=st.floats(0.0, 1.0),
        kind=st.sampled_from(sorted(OBJECTIVES)),
    )
    def test_colony_equals_abc_maximize(self, seed, food, extra, limit, lower, width, where, kind):
        upper = lower + width
        assume(lower < upper)
        f = OBJECTIVES[kind](lower + where * width)
        config = AbcConfig(food_count=food, max_evaluations=food + extra, limit=limit, seed=seed)
        direct = _colony(f, lower, upper, config)
        public = abc_maximize(lambda pos: f(pos[0]), SearchSpace((lower,), (upper,)), config)
        assert bits(direct) == bits(public)

    @settings(max_examples=30, deadline=None)
    @given(
        gains=st.lists(st.floats(1e-6, 1e-3), min_size=2, max_size=2),
        p_max=st.floats(0.1, 50.0),
        noise=st.sampled_from([3e-14, 3e-12, 1.2e-11]),
        seed=st.integers(0, 2**64),
    )
    # derive's channel 0 (--h1 2h0, seed 1): the solve stops after 940 of 4000 evaluations
    @example(gains=[8.841941282883077e-07, 0.00015791635690151583], p_max=22.5, noise=1.2e-11,
             seed=4294967296)
    @example(gains=[5e-05, 2e-04], p_max=10.0, noise=3e-12, seed=0)  # stops after 828
    # derive's channel 10: never reaches 1.0, so it runs the whole budget
    @example(gains=[1.250439327995981e-06, 0.00015791635690151583], p_max=22.5, noise=1.2e-11,
             seed=4294967306)
    def test_fair_split_equals_abc_maximize(self, gains, p_max, noise, seed):
        # perfbench's traced replay solves through abc_maximize on the
        # whole budget and checks its points against the untraced derive,
        # which solves through optimize_fair_two_user and stops at 1.0
        h2, h1 = sorted(gains)
        inst = TwoUserInstance(
            h_strong=h1, h_weak=h2, p_max=p_max, bandwidth=3e7, noise_variance=noise
        )
        abc = AbcConfig(seed=seed)
        space = SearchSpace(lower=(0.0,), upper=(p_max / 2.0,))
        public = abc_maximize(lambda pos: fairness_objective(pos[0], inst), space, abc)
        assert optimize_fair_two_user(inst, abc).hex() == public.best_position[0].hex()


RUNS = dict(
    seed=st.integers(0, 2**64),
    food=st.integers(2, 12),
    extra=st.integers(0, 600),
    limit=st.one_of(st.none(), st.integers(1, 20)),
    kind=st.sampled_from(sorted(OBJECTIVES)),
)


class TestStop:
    """derive's solves end at the first evaluation whose value reaches
    ``stop_at``: the run up to there is the full budget's, draw for draw."""

    @settings(max_examples=200, deadline=None)
    @given(**RUNS, rank=st.floats(0.0, 1.0))
    @example(seed=3, food=5, extra=100, limit=None, kind="flat", rank=0.5)  # at the first value
    @example(seed=3, food=5, extra=100, limit=None, kind="smooth", rank=1.0)  # at the best
    def test_stopped_run_is_a_prefix_of_the_full_run(self, seed, food, extra, limit, kind, rank):
        config = AbcConfig(food_count=food, max_evaluations=food + extra, limit=limit, seed=seed)
        g = OBJECTIVES[kind](0.3)
        full_run, full_values, _ = logged_colony(g, config)
        # a level that some evaluation of the full run reaches
        stop_at = sorted(full_values)[round(rank * (len(full_values) - 1))]
        run, values, result = logged_colony(g, config, stop_at=stop_at)
        first = next(k for k, v in enumerate(full_values) if v >= stop_at)
        assert values == full_values[: first + 1]
        assert result.evaluations_used == run.count("f") == first + 1
        assert run.endswith("f") and full_run.startswith(run)

    @settings(max_examples=200, deadline=None)
    @given(**RUNS)
    def test_stop_at_an_upper_bound_keeps_the_full_result(self, seed, food, extra, limit, kind):
        config = AbcConfig(food_count=food, max_evaluations=food + extra, limit=limit, seed=seed)
        f = OBJECTIVES[kind](0.3)
        full = _colony(f, 0.0, 1.0, config)
        # the full run's best bounds every value it evaluates: stopping
        # at the first point that reaches it keeps that point
        stopped = _colony(f, 0.0, 1.0, config, stop_at=full.best_objective)
        assert bits(stopped)[:2] == bits(full)[:2]
        assert stopped.evaluations_used <= full.evaluations_used
        assert stopped.trace == full.trace[: len(stopped.trace)]
        # a level no evaluation reaches: the full run, bit for bit
        never = _colony(f, 0.0, 1.0, config, stop_at=math.nextafter(full.best_objective, math.inf))
        assert bits(never) == bits(full)
