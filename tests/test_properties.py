"""Properties of the rate kernel, the power splits, the fairness index
and the exact fair split.

Drawn by hypothesis over the system's range of gains (1e-6 to 1e-3 for
both users), power budgets, noise variances and rates; skipped where
hypothesis is not installed.  The kernel runs Python floats on a branch
of its own, without 0-d arrays; the tests named ``*_floats_equal_arrays``
require that branch to give exactly the bits of the arrays.
"""

import math
import sys
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vlcfair.allocate import (  # noqa: E402
    TwoUserInstance,
    efopa_allocate,
    fairness_objective,
    grpa_allocate,
    ngdpa_allocate,
    split_for_method,
)
from vlcfair.expfit import eval_two_term_exp  # noqa: E402
from vlcfair.rates import (  # noqa: E402
    RATE_MODELS,
    NoiseModel,
    UserLink,
    evaluate,
    jain_index,
    jain_vec,
    noma_rates_vec,
)
from vlcfair.reference import reference_model  # noqa: E402
from vlcfair.stats import METHODS, method_rates  # noqa: E402

from oracle import exact_fair_split  # noqa: E402

GAIN = st.floats(1e-6, 1e-3)
RATIO = st.floats(1e-4, 1.0)
P_MAX = st.floats(0.1, 50.0)
NOISE = st.sampled_from([3e-14, 3e-12, 1.2e-11])
SHARE = st.floats(0.0, 0.5)  # p1 / p_max
RATE = st.floats(0.0, 1e9)
# rates at the edges of the Jain rule: zero, infinite, not a number, so
# small that their squares underflow (to zero or to a subnormal), and so
# large that their squares overflow
EDGE_RATE = st.one_of(
    RATE,
    st.sampled_from([0.0, math.inf, math.nan, 5e-324]),
    st.floats(0.0, 1e-150),
    st.floats(1e150, sys.float_info.max),
)
# every finite rate, subnormals included
ANY_RATE = st.floats(0.0, sys.float_info.max)
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


def _as_arrays(*values):
    """Each value repeated in an array long enough for numpy's vector loops."""
    return [np.full(17, v) for v in values]


@settings(max_examples=200, deadline=None)
@given(r=st.one_of(RATIO, st.floats(-1.0, 2.0)))
def test_eval_two_term_exp_floats_equal_arrays(r):
    value = eval_two_term_exp(MODEL.coefficients, r)
    assert type(value) is float
    (arrays,) = _as_arrays(r)
    assert np.array_equal(np.full(17, value), eval_two_term_exp(MODEL.coefficients, arrays))


@settings(max_examples=300, deadline=None)
@given(r1=EDGE_RATE, r2=EDGE_RATE)
@example(r1=math.inf, r2=math.nan)
def test_jain_vec_floats_equal_arrays(r1, r2):
    value = jain_vec(r1, r2)
    assert type(value) is float
    if math.isnan(r1) or math.isnan(r2):
        assert value == 0.0  # undefined, never the infinite limit
    assert np.array_equal(np.full(17, value), jain_vec(*_as_arrays(r1, r2)))


@settings(max_examples=500, deadline=None)
@given(r1=ANY_RATE, r2=ANY_RATE, exponent=st.integers(-1100, 1100))
@example(r1=1e200, r2=1.0, exponent=0)
@example(r1=3.0, r2=1.0, exponent=1000)
@example(r1=1e308, r2=1e308, exponent=-4)
@example(r1=1.6e-162, r2=1.6e-162, exponent=600)
def test_jain_vec_power_of_two_scale_invariant(r1, r2, exponent):
    # k = 2**exponent; the scaled pair must be exact: finite, no digit lost
    try:
        k1, k2 = math.ldexp(r1, exponent), math.ldexp(r2, exponent)
    except OverflowError:
        assume(False)
    assume(math.ldexp(k1, -exponent) == r1 and math.ldexp(k2, -exponent) == r2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = jain_vec(r1, r2)
        assert jain_vec(k1, k2) == value
        # arrays: the scaled pair next to the unscaled one
        mixed = jain_vec(np.array([k1, r1] * 9), np.array([k2, r2] * 9))
    assert r1 + r2 == 0.0 or 0.5 - 1e-15 <= value <= 1.0 + 1e-15
    assert np.array_equal(mixed, np.full(18, value))


@settings(max_examples=100, deadline=None)
@given(h1=GAIN, r=RATIO, p_max=P_MAX, noise=NOISE)
# r < ~0.018 clamps the efopa split to 0, which makes the paper-repro weak
# rate infinite; r = 1 is a pair of equal gains
@example(h1=1e-4, r=1e-3, p_max=22.5, noise=3e-12)
@example(h1=1e-4, r=1.0, p_max=22.5, noise=3e-12)
@pytest.mark.parametrize("rate_model", RATE_MODELS)
@pytest.mark.parametrize("method", METHODS)
def test_method_rates_floats_equal_arrays(method, rate_model, h1, r, p_max, noise):
    args = (p_max, 30e6, noise, rate_model)
    floats = method_rates(method, MODEL, h1, r * h1, *args)
    arrays = method_rates(method, MODEL, *_as_arrays(h1, r * h1), *args)
    for f, a in zip(floats, arrays):
        assert not isinstance(f, np.ndarray)
        assert np.array_equal(np.full(17, f), a)


@settings(max_examples=200, deadline=None)
@given(
    h1=GAIN, r=st.floats(1e-4, 0.999), p_max=P_MAX, noise=NOISE,
    method=st.sampled_from(sorted(SCALAR_ALLOCATORS)), rate_model=st.sampled_from(RATE_MODELS),
)
def test_evaluate_equals_method_rates(h1, r, p_max, noise, method, rate_model):
    h2 = r * h1
    alloc = SCALAR_ALLOCATORS[method](h1, h2, p_max)
    report = evaluate((UserLink(h1, 30e6), UserLink(h2, 30e6)), alloc, NoiseModel(noise), rate_model)
    _, _, r1, r2, sum_rate, fairness = method_rates(
        method, MODEL, h1, h2, p_max, 30e6, noise, rate_model
    )
    assert report.per_user_rates == (r1, r2)
    assert report.sum_rate == sum_rate
    assert report.fairness == fairness


def test_paper_repro_zero_interference_on_floats():
    # the weak user's SNR is signal / interference with the noise dropped:
    # at p1 = 0, x/0 is +inf and 0/0 nan on floats as on arrays, unwarned
    for p2, expected in ((22.5, math.inf), (0.0, math.nan)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, weak = noma_rates_vec(1e-4, 5e-5, 0.0, p2, 30e6, 3e-12, "paper-repro")
            _, arrays = noma_rates_vec(
                *_as_arrays(1e-4, 5e-5, 0.0, p2), 30e6, 3e-12, "paper-repro"
            )
        assert np.array_equal([weak, *arrays], np.full(18, expected), equal_nan=True)


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
@given(
    gains=st.lists(GAIN, min_size=2, max_size=2),
    p_max=P_MAX,
    share=SHARE,
    noise=NOISE,
    # rates whose squares underflow, ordinary ones, and ones whose squares overflow
    bandwidth=st.one_of(st.floats(1e-300, 1e-140), st.floats(1.0, 1e9), st.floats(1e150, 1e300)),
)
def test_colony_objective_is_the_jain_index_of_its_rates(gains, p_max, share, noise, bandwidth):
    h2, h1 = sorted(gains)
    inst = TwoUserInstance(
        h_strong=h1, h_weak=h2, p_max=p_max, bandwidth=bandwidth, noise_variance=noise
    )
    p1 = share * p_max
    # the objective's two rates, in its own order of operations
    half_b, pi_e, log2 = bandwidth / 2.0, math.pi * math.e, math.log(2.0)
    r1 = half_b * math.log1p(2.0 * (h1 * h1) * p1 / (pi_e * noise)) / log2
    r2 = half_b * math.log1p(2.0 * (h2 * h2) * (p_max - p1) / (pi_e * (h2 * h2 * p1 + noise))) / log2
    assert fairness_objective(p1, inst) == jain_vec(r1, r2)  # on floats: rates._jain


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
