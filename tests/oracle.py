"""Exact references for the two-user fair split, shared by the tests.

The Jain index of two rates is 1 exactly when the rates are equal.  With
h1 >= h2 the strong-user rate rises with its power p and the weak-user
rate falls, so the fairest split is the one crossing in [0, P/2].  Under
the lower-bound and the Shannon model alike it is the positive root of

    h1² h2² p² + (h1² + h2²) σ² p − σ² h2² P = 0.
"""

import numpy as np

from vlcfair.rates import jain_vec, noma_rates_vec


def exact_fair_split(h1, h2, p_max, noise):
    """Strong-user power that gives both users the same rate.

    The root is taken as 2C / (B + sqrt(B² + 4AC)) with A = h1²h2²,
    B = (h1² + h2²)σ², C = σ²h2²P: the textbook (−B + sqrt(…)) / 2A
    cancels when 4AC is small against B².  Floats or ndarrays.
    """
    h1sq, h2sq = h1 * h1, h2 * h2
    a = h1sq * h2sq
    b = (h1sq + h2sq) * noise
    c = noise * h2sq * p_max
    return 2.0 * c / (b + np.sqrt(b * b + 4.0 * a * c))


def lower_bound_fairness(p1, inst):
    """Jain index of the kernel's lower-bound rates: the colony's objective."""
    return jain_vec(*noma_rates_vec(
        inst.h_strong, inst.h_weak, p1, inst.p_max - p1,
        inst.bandwidth, inst.noise_variance, "lower-bound",
    ))
