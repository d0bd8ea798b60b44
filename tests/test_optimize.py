"""Bee-colony maximizer against objectives whose maximizer is known exactly."""

import math
import random

import pytest

from vlcfair.optimize import AbcConfig, SearchSpace, abc_maximize

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

    def test_multidimensional(self):
        space = SearchSpace(lower=(0.0, -1.0), upper=(1.0, 1.0))

        def bowl(pos):
            return -((pos[0] - 0.4) ** 2) - (pos[1] - 0.2) ** 2

        result = abc_maximize(bowl, space, AbcConfig(seed=3, max_evaluations=8000))
        assert result.best_position[0] == pytest.approx(0.4, abs=5e-3)
        assert result.best_position[1] == pytest.approx(0.2, abs=5e-3)

    def test_non_finite_objective_aborts(self):
        def bad(pos):
            return math.nan

        with pytest.raises(ValueError):
            abc_maximize(bad, UNIT, AbcConfig(seed=1, max_evaluations=100))

    def test_scout_reactivates_stalled_source(self):
        # flat objective stalls every source; the run must still finish
        result = abc_maximize(lambda pos: 0.0, UNIT, AbcConfig(seed=2, max_evaluations=500))
        assert result.best_objective == 0.0


class TestDrawContract:
    """The colony inlines two draws of ``random.Random``; their results
    and the generator state they leave must match the library calls."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789, 2**40 + 3])
    def test_rejection_draw_matches_randrange(self, seed):
        ref, fast = random.Random(seed), random.Random(seed)
        for n in range(1, 18):
            k = n.bit_length()
            for _ in range(50):
                r = fast.getrandbits(k)
                while r >= n:
                    r = fast.getrandbits(k)
                assert r == ref.randrange(n)
                assert fast.getstate() == ref.getstate()

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
