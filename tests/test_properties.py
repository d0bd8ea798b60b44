"""Properties of the rate kernel, the power splits, the fairness index
and the exact fair split.

Drawn by hypothesis over the system's range of gains (1e-6 to 1e-3 for
both users), power budgets, noise variances and rates; skipped where
hypothesis is not installed.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vlcfair.allocate import (  # noqa: E402
    TwoUserInstance,
    efopa_allocate,
    fairness_objective,
    grpa_allocate,
    ngdpa_allocate,
    split_for_method,
)
from vlcfair.rates import RATE_MODELS, jain_index, jain_vec, noma_rates_vec  # noqa: E402
from vlcfair.reference import reference_model  # noqa: E402

from oracle import exact_fair_split  # noqa: E402

GAIN = st.floats(1e-6, 1e-3)
RATIO = st.floats(1e-4, 1.0)
P_MAX = st.floats(0.1, 50.0)
NOISE = st.sampled_from([3e-14, 3e-12, 1.2e-11])
SHARE = st.floats(0.0, 0.5)  # p1 / p_max
RATE = st.floats(0.0, 1e9)
MODEL = reference_model()
SCALAR_ALLOCATORS = {
    "efopa": lambda h1, h2, p: efopa_allocate(MODEL, h1, h2, p),
    "grpa": grpa_allocate,
    "ngdpa": ngdpa_allocate,
}


@settings(max_examples=200, deadline=None)
@given(
    h1=GAIN, r=RATIO, p_max=P_MAX, share=SHARE, noise=NOISE,
    model=st.sampled_from(RATE_MODELS),
)
def test_kernel_floats_equal_arrays(h1, r, p_max, share, noise, model):
    h2, p1 = r * h1, share * p_max
    args = (h1, h2, p1, p_max - p1)
    floats = noma_rates_vec(*args, 30e6, noise, model)
    arrays = noma_rates_vec(*(np.array([a, a]) for a in args), 30e6, noise, model)
    for f, a in zip(floats, arrays):
        assert np.array_equal(np.array([f, f]), a)


@settings(max_examples=200, deadline=None)
@given(h1=GAIN, r=RATIO, p_max=P_MAX, method=st.sampled_from(sorted(SCALAR_ALLOCATORS)))
def test_scalar_allocator_equals_split_for_method(h1, r, p_max, method):
    h2 = r * h1
    alloc = SCALAR_ALLOCATORS[method](h1, h2, p_max)
    vec = split_for_method(method, MODEL, np.array([h1]), np.array([h2 / h1]), p_max)
    assert alloc.powers[0] == vec[0]
    p1, p2 = alloc.powers
    assert 0.0 <= p1 <= p_max / 2.0
    assert p1 + p2 == pytest.approx(p_max, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(r1=RATE, r2=RATE)
def test_jain_index_equals_jain_vec_within_bounds(r1, r2):
    if r1 + r2 == 0.0:
        return  # undefined; jain_index rejects it
    scalar = jain_index((r1, r2))
    assert scalar == pytest.approx(float(jain_vec(r1, r2)), rel=1e-15)
    assert 0.5 - 1e-15 <= scalar <= 1.0 + 1e-15


@settings(max_examples=300, deadline=None)
@given(gains=st.lists(GAIN, min_size=2, max_size=2), p_max=P_MAX, share=SHARE, noise=NOISE)
def test_colony_objective_equals_kernel(gains, p_max, share, noise):
    # log1p against log2(1 + x): the weak user's SNR stays above ~1e-3
    # here, which keeps the kernel's rounding of 1 + x below 1e-12
    h2, h1 = sorted(gains)
    inst = TwoUserInstance(
        h_strong=h1, h_weak=h2, p_max=p_max, bandwidth=30e6, noise_variance=noise
    )
    p1 = share * p_max
    kernel = jain_vec(*noma_rates_vec(h1, h2, p1, p_max - p1, 30e6, noise, "lower-bound"))
    assert math.isclose(fairness_objective(p1, inst), float(kernel), rel_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(h1=GAIN, r=RATIO, p_max=P_MAX, noise=st.floats(1e-14, 1e-10))
def test_exact_split_equalizes_rates(h1, r, p_max, noise):
    # compared as SNRs: log2(1 + x) loses relative digits at low SNR
    h2 = r * h1
    p = exact_fair_split(h1, h2, p_max, noise)
    assert 0.0 < p <= p_max / 2.0
    strong = h1 * h1 * p / noise
    weak = h2 * h2 * (p_max - p) / (h2 * h2 * p + noise)
    assert math.isclose(strong, weak, rel_tol=1e-12)
    for model in ("lower-bound", "shannon"):
        rates = noma_rates_vec(h1, h2, p, p_max - p, 30e6, noise, model)
        assert jain_vec(*rates) >= 1.0 - 1e-12
