"""Allocators: fitted-curve method, baselines, and the offline dataset."""

import math
import os
import random
import re
import signal
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vlcfair.allocate import (
    MuMode,
    _fork_map,
    TwoUserInstance,
    build_efopa_dataset,
    channel_stream_seed,
    dataset_pairs,
    efopa_allocate,
    fairness_objective,
    grpa_allocate,
    ngdpa_allocate,
    oma_allocate,
    optimize_fair_two_user,
)
from vlcfair.channel import ChannelSet, enumerate_channels
from vlcfair.config import load_config
from vlcfair.optimize import AbcConfig
from vlcfair.rates import jain_index, noma_rates_vec
from vlcfair.reference import REFERENCE_MEAN_GAIN, reference_model

from oracle import exact_fair_split, lower_bound_fairness

H0 = REFERENCE_MEAN_GAIN
ANCHOR_NOISE = 1.2e-11
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "paper.cfg"


def instance(h1=2 * H0, r=0.5, p_max=22.5, noise=3e-12):
    return TwoUserInstance(
        h_strong=h1,
        h_weak=r * h1,
        p_max=p_max,
        bandwidth=30e6,
        noise_variance=noise,
    )


class TestFairnessObjective:
    def test_monopoly_is_half(self):
        inst = instance()
        assert fairness_objective(inst.p_max, inst) == pytest.approx(0.5, rel=1e-12)
        assert fairness_objective(0.0, inst) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("share", [-1e-9, 1.0 + 1e-9, math.nan])
    def test_split_outside_the_budget_rejected(self, share):
        inst = instance()
        with pytest.raises(ValueError, match=r"p1 must lie in \[0, p_max\]"):
            fairness_objective(share * inst.p_max, inst)

    def test_equal_gains_reach_full_fairness(self):
        inst = instance(r=1.0)
        p1 = exact_fair_split(
            inst.h_strong, inst.h_weak, inst.p_max, inst.noise_variance
        )
        assert lower_bound_fairness(p1, inst) == pytest.approx(1.0, abs=1e-12)

    def test_interior_maximizer(self):
        inst = instance(r=0.5)
        p1s = np.linspace(0.0, inst.p_max / 2, 2001)
        vals = lower_bound_fairness(p1s, inst)
        peak = int(np.argmax(vals))
        assert 0 < peak < len(p1s) - 1

    def test_matches_rate_module(self):
        # same numbers through the rate kernel and the scalar Jain index
        rng = random.Random(31)
        for _ in range(50):
            inst = instance(
                h1=rng.uniform(1e-5, 1e-3),
                r=rng.uniform(0.05, 0.99),
                noise=rng.choice([3e-12, 1.2e-11, 3e-14]),
            )
            p1 = rng.uniform(0.0, inst.p_max)
            rates = noma_rates_vec(
                inst.h_strong, inst.h_weak, p1, inst.p_max - p1,
                inst.bandwidth, inst.noise_variance, "lower-bound",
            )
            if sum(rates) == 0:
                continue
            assert fairness_objective(p1, inst) == pytest.approx(
                jain_index(rates), rel=1e-9
            )

    def test_profile_matches_scalar(self):
        # the colony's hoisted objective against the vectorized kernel
        inst = instance(r=0.3)
        p1s = np.linspace(0.0, inst.p_max, 64)
        vec = lower_bound_fairness(p1s, inst)
        for p1, v in zip(p1s, vec):
            assert fairness_objective(float(p1), inst) == pytest.approx(
                float(v), rel=1e-12
            )


class TestOptimizeFairTwoUser:
    def test_within_bounds(self):
        inst = instance(r=0.4)
        p1 = optimize_fair_two_user(inst, AbcConfig(seed=0))
        assert 0.0 <= p1 <= inst.p_max / 2

    def test_matches_grid_oracle(self):
        inst = instance(r=1.0, noise=ANCHOR_NOISE)
        # the oracle: the exact equal-rate split
        abc_p1 = optimize_fair_two_user(inst, AbcConfig(seed=7))
        exact = exact_fair_split(
            inst.h_strong, inst.h_weak, inst.p_max, inst.noise_variance
        )
        assert abs(abc_p1 - exact) <= 1e-3 * inst.p_max

    def test_weak_channel_needs_nearly_all_power(self):
        inst = instance(r=0.02, noise=ANCHOR_NOISE)
        p1 = optimize_fair_two_user(inst, AbcConfig(seed=1))
        assert 0.0 < p1 < 0.05 * inst.p_max


def toy_channels(gains):
    return ChannelSet(
        gains=tuple(sorted(gains)),
        combo_count=len(gains),
        mean_gain=sum(gains) / len(gains),
    )


def derive_config(**fields):
    """The paper config (p_max 22.5 W, 30 MHz, 1.2e-11 W derivation noise,
    a colony of 10 food sources) with ``fields`` replaced."""
    return replace(load_config(CONFIG), **fields)


class TestBuildDataset:
    def test_skip_mode_drops_channels_above_reference(self):
        h1 = 2 * H0
        channels = toy_channels([0.5 * H0, H0, 3 * H0])
        pts = build_efopa_dataset(
            dataset_pairs(h1, channels, "skip"),
            derive_config(abc_max_evaluations=400, seed=0),
        )
        assert len(pts) == 2
        assert all(0 < r <= 1 for r, _ in pts)

    def test_swap_mode_keeps_them(self):
        h1 = 2 * H0
        channels = toy_channels([3 * H0, 4 * H0])
        pts = build_efopa_dataset(
            dataset_pairs(h1, channels, "swap"),
            derive_config(abc_max_evaluations=400, seed=0),
        )
        assert len(pts) == 2
        # swapped pairs still satisfy weak <= strong
        assert all(0 < r <= 1 for r, _ in pts)
        assert pts[0][0] == pytest.approx(2 * H0 / (4 * H0), rel=1e-12)

    def test_single_channel_equal_reference(self):
        h1 = 2 * H0
        pts = build_efopa_dataset(
            dataset_pairs(h1, toy_channels([h1])),
            derive_config(abc_max_evaluations=400, seed=0),
        )
        assert len(pts) == 1
        assert pts[0][0] == pytest.approx(1.0, rel=1e-12)

    def test_points_sorted_ascending(self):
        channels = toy_channels([H0, 0.3 * H0, 1.5 * H0, 0.7 * H0])
        pts = build_efopa_dataset(
            dataset_pairs(2 * H0, channels),
            derive_config(abc_max_evaluations=400, seed=3),
        )
        rs = [r for r, _ in pts]
        assert rs == sorted(rs)

    def test_subsample_is_stream_stable(self):
        # kept channels get the same seeds whether or not others are skipped
        channels = toy_channels([0.2 * H0, 0.4 * H0, 0.6 * H0, 0.8 * H0])
        cfg = derive_config(abc_max_evaluations=400, seed=11)
        full = build_efopa_dataset(dataset_pairs(2 * H0, channels, subsample=1), cfg)
        half = build_efopa_dataset(dataset_pairs(2 * H0, channels, subsample=2), cfg)
        kept = [p for i, p in enumerate(full) if i % 2 == 0]
        assert half == kept

    @pytest.mark.parametrize("above_ref", ["skip", "swap"])
    def test_points_do_not_depend_on_the_cpu_count(self, monkeypatch, above_ref):
        # one usable CPU solves in this process; two and three share the
        # solves between this process and forked children: the points must
        # be the same bits every way
        cfg = derive_config(seed=5)
        channels = enumerate_channels(cfg.channel_grid(), cfg.params)
        pairs = dataset_pairs(2 * channels.mean_gain, channels, above_ref, subsample=64)
        runs = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            runs.append(build_efopa_dataset(pairs, cfg))
        assert len(runs[0]) >= 22
        assert runs[0] == runs[1] == runs[2]

    def test_stream_seeds_distinct(self):
        seeds = {channel_stream_seed(1, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestDatasetPairs:
    """dataset_pairs, derive's one channel rule."""

    def test_keeps_every_subsample_th_index_of_the_full_set(self):
        channels = toy_channels([k * 0.1 * H0 for k in range(1, 8)])
        pairs = dataset_pairs(2 * H0, channels, subsample=3)
        assert [index for index, _, _ in pairs] == [0, 3, 6]
        assert [weak for _, _, weak in pairs] == [channels.gains[i] for i in (0, 3, 6)]

    @pytest.mark.parametrize("above_ref", ["skip", "swap"])
    def test_a_gain_at_the_reference_is_kept_as_an_equal_pair(self, above_ref):
        h1 = 2 * H0
        assert dataset_pairs(h1, toy_channels([H0, h1]), above_ref) == [(0, h1, H0), (1, h1, h1)]

    def test_a_gain_above_the_reference_is_skipped_or_swapped(self):
        h1 = 2 * H0
        channels = toy_channels([H0, 3 * H0])
        assert dataset_pairs(h1, channels, "skip") == [(0, h1, H0)]
        assert dataset_pairs(h1, channels, "swap") == [(0, h1, H0), (1, 3 * H0, h1)]

    @pytest.mark.parametrize(
        "h1, above_ref, subsample, message",
        [
            (math.inf, "skip", 1, "h1 must be finite and > 0, got inf"),
            (math.nan, "skip", 1, "h1 must be finite and > 0, got nan"),
            (0.0, "skip", 1, "h1 must be finite and > 0, got 0.0"),
            (2 * H0, "bogus", 1, "above_ref must be 'skip' or 'swap', got 'bogus'"),
            (2 * H0, "skip", 0, "subsample must be >= 1, got 0"),
        ],
        ids=["h1-inf", "h1-nan", "h1-zero", "above-ref-bogus", "subsample-zero"],
    )
    def test_rejected(self, h1, above_ref, subsample, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            dataset_pairs(h1, toy_channels([H0]), above_ref, subsample)


class TestTwoUserInstance:
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    @pytest.mark.parametrize("field", ["p_max", "bandwidth", "noise_variance"])
    def test_budget_must_be_finite_and_positive(self, field, value):
        fields = dict(h_strong=2 * H0, h_weak=H0, p_max=22.5, bandwidth=30e6,
                      noise_variance=ANCHOR_NOISE)  # fmt: skip
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0, got {value}"):
            TwoUserInstance(**{**fields, field: value})

    @pytest.mark.parametrize(
        "h_strong, h_weak",
        [(math.inf, H0), (math.nan, H0), (0.0, H0), (2 * H0, math.inf), (2 * H0, math.nan),
         (2 * H0, 0.0), (H0, 2 * H0)],
        ids=["strong-inf", "strong-nan", "strong-zero", "weak-inf", "weak-nan", "weak-zero",
             "weak-above-strong"],
    )  # fmt: skip
    def test_gains_must_be_ordered_finite_and_positive(self, h_strong, h_weak):
        with pytest.raises(ValueError, match=re.escape("need 0 < h_weak <= h_strong < inf")):
            TwoUserInstance(h_strong, h_weak, 22.5, 30e6, ANCHOR_NOISE)


class TestForkMap:
    """_fork_map, the fork helper of both batch engines, on three usable
    CPUs: this process and two forked children."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        yield
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_results_come_back_in_item_order(self):
        # process j scores item j first, this process the last of those
        done = _fork_map(lambda k: (k * k, os.getpid()), list(range(40)))
        assert [value for value, _ in done] == [k * k for k in range(40)]
        assert done[0][1] != os.getpid() and done[1][1] != os.getpid()
        assert done[2][1] == os.getpid()
        assert len({pid for _, pid in done}) == 3

    def test_a_slow_process_scores_fewer_items(self):
        # the child held up by item 0 finds every other item taken by the
        # time it is done: items are taken one at a time, not dealt out
        def score(k):
            time.sleep(0.5 if k == 0 else 0.005)
            return os.getpid()

        pids = _fork_map(score, list(range(30)))
        assert pids.count(pids[0]) == 1


def _check_scored_once(monkeypatch, tmp_path, cpus: int, n: int):
    """_fork_map on ``cpus`` usable CPUs over n items that log their
    index as they are scored: each item is scored by exactly one process,
    the results come back in item order within 30 s, and no child is left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    log = os.open(tmp_path / "scored", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def score(k):
        os.write(log, b"%d\n" % k)  # one append, whole, from any process
        return -k

    def hung(signum, frame):
        raise TimeoutError("_fork_map took more than 30 s")

    start = time.monotonic()
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)  # fail, not hang, on a queue write that never ends
    try:
        done = _fork_map(score, list(range(n)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(log)
    assert time.monotonic() - start < 30
    assert done == [-k for k in range(n)]
    assert sorted(map(int, (tmp_path / "scored").read_text().split())) == list(range(n))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_scores_every_item_once(monkeypatch, tmp_path):
    # eight processes on fewer cores take 2000 short items from the one
    # claim queue
    _check_scored_once(monkeypatch, tmp_path, 8, 2000)


def test_fork_map_queue_larger_than_a_pipe_buffer(monkeypatch, tmp_path):
    # one 4-byte ticket per item would be ~80 KB, more than a pipe holds,
    # and the queue is written whole before the fork: a ticket stands for
    # a run of items, so the write fits and never waits
    _check_scored_once(monkeypatch, tmp_path, 3, 20_000)


class TestEfopaAllocate:
    def test_paper_example_mode_reference_point(self):
        model = reference_model(mu_mode=MuMode.PAPER_EXAMPLE)
        alloc = efopa_allocate(model, h1=9.5493e-5, h2=0.0963 * 9.5493e-5, p_new=22.5)
        assert alloc.powers[0] == pytest.approx(0.07903519733634813, rel=1e-9)
        assert sum(alloc.powers) == pytest.approx(22.5, rel=1e-12)

    def test_negative_curve_clamped_to_floor(self):
        model = reference_model(mu_mode=MuMode.PAPER_EXAMPLE)
        alloc = efopa_allocate(model, h1=1e-4, h2=1e-6, p_new=22.5)  # r = 0.01
        assert alloc.powers[0] == 0.0

    def test_clamp_floor_respected(self):
        model = reference_model(mu_mode=MuMode.PAPER_EXAMPLE, clamp_floor=0.05)
        alloc = efopa_allocate(model, h1=1e-4, h2=1e-6, p_new=22.5)
        assert alloc.powers[0] == 0.05

    def test_eq22_at_reference_point_equals_paper_example(self):
        eq22 = reference_model(mu_mode=MuMode.EQ22)
        plain = reference_model(mu_mode=MuMode.PAPER_EXAMPLE)
        a = efopa_allocate(eq22, h1=eq22.h_ref, h2=0.4 * eq22.h_ref, p_new=eq22.p_ref)
        b = efopa_allocate(plain, h1=eq22.h_ref, h2=0.4 * eq22.h_ref, p_new=eq22.p_ref)
        assert a.powers == pytest.approx(b.powers, rel=1e-12)

    def test_eq22_scaling_factor(self):
        model = reference_model()
        assert model.mu(9.5493e-5, 22.5) == pytest.approx(1.6576, abs=5e-4)
        # half the power budget scales mu by sqrt(1/2)
        assert model.mu(model.h_ref, model.p_ref / 2) == pytest.approx(
            math.sqrt(0.5), rel=1e-12
        )

    def test_ordering_violation_rejected(self):
        model = reference_model()
        with pytest.raises(ValueError):
            efopa_allocate(model, h1=1e-5, h2=2e-5, p_new=22.5)

    def test_never_exceeds_half_budget(self):
        model = reference_model()
        rng = random.Random(41)
        for _ in range(200):
            h1 = rng.uniform(1e-6, 1e-3)
            h2 = h1 * rng.uniform(1e-3, 1.0)
            p = rng.uniform(0.1, 50.0)
            alloc = efopa_allocate(model, h1, h2, p)
            assert 0.0 <= alloc.powers[0] <= p / 2 + 1e-15
            assert sum(alloc.powers) == pytest.approx(p, rel=1e-9)


class TestBaselines:
    def test_grpa_equal_channels_split_evenly(self):
        alloc = grpa_allocate(1e-4, 1e-4, 22.5)
        assert alloc.powers == pytest.approx((11.25, 11.25), rel=1e-12)

    def test_grpa_reference_ratio(self):
        alloc = grpa_allocate(1.0, 0.0963, 22.5)
        assert alloc.powers[0] == pytest.approx(0.20674077514098285, rel=1e-12)

    def test_grpa_vanishing_ratio(self):
        alloc = grpa_allocate(1.0, 1e-9, 22.5)
        assert alloc.powers[0] == pytest.approx(0.0, abs=1e-15)

    def test_ngdpa_tiny_ratio_near_equal_split(self):
        alloc = ngdpa_allocate(1.0, 1e-12, 22.5)
        assert alloc.powers[0] == pytest.approx(11.25, rel=1e-9)

    def test_ngdpa_half_ratio(self):
        alloc = ngdpa_allocate(1.0, 0.5, 22.5)
        assert alloc.powers == pytest.approx((7.5, 15.0), rel=1e-12)

    def test_ngdpa_equal_channels_starve_strong_user(self):
        alloc = ngdpa_allocate(1.0, 1.0, 22.5)
        assert alloc.powers == pytest.approx((0.0, 22.5), abs=1e-12)

    def test_strong_user_never_gets_more(self):
        rng = random.Random(53)
        for _ in range(300):
            h1 = rng.uniform(1e-6, 1e-3)
            h2 = h1 * rng.uniform(1e-6, 1.0)
            for fn in (grpa_allocate, ngdpa_allocate):
                alloc = fn(h1, h2, 22.5)
                assert alloc.powers[0] <= alloc.powers[1] + 1e-12
                assert sum(alloc.powers) == pytest.approx(22.5, rel=1e-9)

    def test_oma_full_power_per_slot(self):
        assert oma_allocate(22.5, 2) == (22.5, 22.5)
        assert oma_allocate(22.5, 1) == (22.5,)

    def test_ordering_errors(self):
        for fn in (grpa_allocate, ngdpa_allocate):
            with pytest.raises(ValueError):
                fn(1e-5, 2e-5, 22.5)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_budget_not_finite_and_positive_rejected(self, budget):
        splits = (
            grpa_allocate,
            ngdpa_allocate,
            lambda h1, h2, p: efopa_allocate(reference_model(), h1, h2, p),
        )
        for split in splits:
            with pytest.raises(ValueError, match="p_max must be finite and > 0"):
                split(1e-4, 5e-5, budget)
        with pytest.raises(ValueError, match="p_max must be finite and > 0"):
            oma_allocate(budget, 2)


class TestReferenceCurveShape:
    def test_strictly_increasing_on_unit_interval(self):
        model = reference_model()
        rs = np.linspace(0.0, 1.0, 1001)
        from vlcfair.expfit import eval_two_term_exp

        vals = eval_two_term_exp(model.coefficients, rs)
        assert np.all(np.diff(vals) > 0)
