"""Two-user NOMA and orthogonal-access rates, and the Jain fairness index.

The two users share the band and are separated in power.  The strong
user (gain h1, power p1) cancels the weak user's signal and decodes
interference-free; the weak user (gain h2 <= h1, power p2) sees the
residual interference I = h2^2 p1.  Every rate has the one form

    R = b * log2(1 + g p / n)

with the bandwidth share b, gain term g and noise-plus-interference n
of the named rate model (RATE_MODELS):

    lower-bound   b = B/2, g = 2 h^2, n = pi*e*(I + s2)
    shannon       b = B,   g = h^2,   n = I + s2
    paper-repro   as shannon, except that the weak user's n = I: the
                  noise is dropped next to the interference.  This is
                  the convention behind the reference worked rates; at
                  zero interference (p1 = 0) the weak rate is +inf, the
                  model's limit, which the fairness index handles.

Orthogonal access gives each of K users full power over a 1/K time
share: b = B/K, g = h^2, n = s2.

noma_rates_vec, oma_rates_vec and jain_vec are the kernel: they take
Python floats and ndarrays alike, and both the batch engines in
``stats`` and the scalar ``evaluate`` run them.  On floats they run the
same arithmetic without 0-d arrays or ``np.errstate``, which cost more
than the formulas; only guards and the paper-repro division by a zero
interference are spelled per branch.  ``np.log2`` stays, because on a
float it gives the array bits and ``math.log2`` does not always.  The
Jain index takes two rates, and ``_jain`` holds its edge rules: the
undefined case scores 0, m infinite rates score m/2, and rates whose
squares underflow or overflow are first rescaled by a power of two, so
scaling both rates by one never changes the index's bits.  Its array
branch, run on every block of ``pairs-stats``, writes the sum, its
square and the quotient into one fresh array and zeroes the undefined
entries in place; of the entries out of range it scores the infinite
ones as whole arrays and passes the finite ones to ``_jain``.  One
second copy of the rates stays on purpose, pinned to the kernel by
tests: the bee colony's objective ``allocate.TwoUserInstance._fairness``
hoists its constants and runs on math.log1p, because it is called up
to 4000 times per channel (about 900 on average, since the colony stops
at the first point that scores 1.0; ~0.4-0.7 us a call), straight from the
colony loop, in the forked derive workers, and the derive golden files
pin its bits.  It scores its two rates with ``_jain``, as jain_vec
does, capped at 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .rules import at_least, check

__all__ = [
    "RATE_MODELS",
    "UserLink",
    "AllocationVector",
    "NoiseModel",
    "RateReport",
    "noma_rates_vec",
    "oma_rates_vec",
    "jain_vec",
    "rate_oma",
    "jain_index",
    "evaluate",
    "paper_repro_models",
]

RATE_MODELS = ("lower-bound", "shannon", "paper-repro")
FloatOrArray = Union[float, np.ndarray]

_SUM_RTOL = 1e-9
_PI_E = math.pi * math.e
# r1^2 + r2^2 in [_Q_MIN, _Q_MAX] (rates ~1e-144 to ~3e150): the Jain formula
# forms normal floats only, or squares too small to move the sum
_Q_MIN = 2.0**-960
_Q_MAX = 2.0**1000


@dataclass(frozen=True)
class UserLink:
    """Channel gain and transceiver bandwidth of one user."""

    gain: float
    bandwidth: float

    def __post_init__(self):
        check("gain", self.gain)
        check("bandwidth", self.bandwidth)


@dataclass(frozen=True)
class AllocationVector:
    """Per-user powers in Watts, index 0 = strongest channel, summing to total."""

    powers: tuple
    total: float

    def __post_init__(self):
        powers = tuple(map(float, self.powers))
        object.__setattr__(self, "powers", powers)
        if not all(0.0 <= p < math.inf for p in powers):  # nan fails both tests
            raise ValueError(f"powers must be finite and >= 0, got {powers}")
        s = sum(powers)
        tolerance = _SUM_RTOL * max(abs(self.total), 1.0)
        if not abs(s - self.total) <= tolerance < math.inf:  # a nan or infinite total fails
            raise ValueError(
                f"powers sum to {s!r}, expected total {self.total!r}"
            )


@dataclass(frozen=True)
class NoiseModel:
    """Total in-band noise power (variance), Watts."""

    variance: float

    def __post_init__(self):
        check("variance", self.variance)


@dataclass(frozen=True)
class RateReport:
    per_user_rates: tuple
    sum_rate: float
    fairness: float


def _rate(share, snr):
    """share * log2(1 + snr): every rate of the module is this formula."""
    return share * np.log2(1.0 + snr)


def noma_rates_vec(
    h1: FloatOrArray,
    h2: FloatOrArray,
    p1: FloatOrArray,
    p2: FloatOrArray,
    bandwidth: float,
    noise_variance: float,
    rate_model: str,
) -> Tuple[FloatOrArray, FloatOrArray]:
    """Strong- and weak-user rates of the superposed downlink under the
    named model (see the module docstring), on floats or ndarrays."""
    h1sq, h2sq = h1 * h1, h2 * h2
    interference = h2sq * p1
    if rate_model == "lower-bound":
        half = bandwidth / 2.0
        return (
            _rate(half, 2.0 * h1sq * p1 / (_PI_E * noise_variance)),
            _rate(half, 2.0 * h2sq * p2 / (_PI_E * (interference + noise_variance))),
        )
    if rate_model not in RATE_MODELS:
        raise ValueError(f"unknown rate model {rate_model!r}")
    strong = _rate(bandwidth, h1sq * p1 / noise_variance)
    if rate_model == "shannon":
        return strong, _rate(bandwidth, h2sq * p2 / (interference + noise_variance))
    snr = h2sq * p2  # the signal until divided: one name keeps one array alive
    if isinstance(interference, np.ndarray):
        with np.errstate(all="ignore"):  # x/0 gives inf and 0/0 nan, quietly
            snr = snr / interference
    elif interference:
        snr = snr / interference
    else:  # on floats '/' would raise: the values of the arrays instead
        snr = math.inf if snr > 0.0 else math.nan
    return strong, _rate(bandwidth, snr)


def oma_rates_vec(
    h1: FloatOrArray,
    h2: FloatOrArray,
    p_max: float,
    bandwidth: float,
    noise_variance: float,
) -> Tuple[FloatOrArray, FloatOrArray]:
    """Two-user orthogonal-access rates: full power over half the time."""
    half = bandwidth / 2.0
    return (
        _rate(half, h1 * h1 * p_max / noise_variance),
        _rate(half, h2 * h2 * p_max / noise_variance),
    )


def jain_vec(r1: FloatOrArray, r2: FloatOrArray) -> FloatOrArray:
    """Two-user fairness index (r1 + r2)^2 / (2 (r1^2 + r2^2)) on floats
    or arrays: m/2 with m infinite rates (the limit), 0 where it is
    undefined (both rates zero, or any rate nan), and the same bits for
    rates scaled by any power of two."""
    if isinstance(r1, float) and isinstance(r2, float):
        return _jain(float(r1), float(r2))  # numpy scalars made plain
    r1, r2 = np.broadcast_arrays(np.asarray(r1, dtype=float), np.asarray(r2, dtype=float))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the fresh sum array becomes the output: one pass per operation
        out = np.add(r1, r2, out=np.empty(r1.shape))
        q = r1 * r1
        q += r2 * r2
        np.multiply(out, out, out=out)
        np.divide(out, 2.0 * q, out=out)
        out[~(q > 0.0)] = 0.0
        odd = (q < _Q_MIN) | (q > _Q_MAX)  # never with a nan rate: q is nan
        if odd.any():
            a, b = r1[odd], r2[odd]
            # m infinite rates score m/2, _jain's limit, on whole arrays:
            # paper-repro gives many; the rare finite rest goes through _jain
            j = 0.5 * np.isinf(a) + 0.5 * np.isinf(b)
            finite = j == 0.0
            j[finite] = [_jain(x, y) for x, y in zip(a[finite].tolist(), b[finite].tolist())]
            out[odd] = j
    return out


def _jain(r1: float, r2: float) -> float:
    """jain_vec of two Python floats, and the home of its edge rules."""
    s = r1 + r2
    q = r1 * r1 + r2 * r2
    if _Q_MIN <= q <= _Q_MAX:
        return s * s / (2.0 * q)
    if not s > 0.0:  # both rates zero, or a nan rate (inf + nan is nan)
        return 0.0
    if math.isinf(r1) or math.isinf(r2):
        return 0.5 * math.isinf(r1) + 0.5 * math.isinf(r2)
    e = math.frexp(max(r1, r2))[1]
    return _jain(math.ldexp(r1, -e), math.ldexp(r2, -e))


def rate_oma(
    link: UserLink, power: float, user_count: int, noise: NoiseModel
) -> float:
    """Orthogonal-access rate: full power over a 1/K time share, no interference."""
    check("power", power, at_least(0))
    if user_count < 1:
        raise ValueError(f"user_count must be >= 1, got {user_count}")
    h2 = link.gain * link.gain
    return float(_rate(link.bandwidth / user_count, h2 * power / noise.variance))


def jain_index(rates: Sequence[float]) -> float:
    """Fairness (R1 + R2)^2 / (2 (R1^2 + R2^2)) of two rates: 1 when
    equal, 1/2 at monopoly.

    An infinite rate is handled by the limit: with m infinite rates the
    index is m/2.
    """
    if len(rates) != 2 or any(not r >= 0 for r in rates):
        raise ValueError(f"need two rates >= 0, got {rates}")
    index = _jain(*map(float, rates))
    if index == 0.0:
        raise ValueError("both rates are zero; fairness undefined")
    return index


def paper_repro_models(user_count: int) -> str:
    """Name of the model reproducing the reference worked rates.

    Kept so that callers of the former per-user preset keep working;
    ``evaluate`` takes only two users.
    """
    return "paper-repro"


def evaluate(
    links: Sequence[UserLink],
    alloc: AllocationVector,
    noise: NoiseModel,
    model: str,
) -> RateReport:
    """Both users' rates under a model of RATE_MODELS, their sum and
    their fairness index.

    ``links`` holds the strong user first, and its gain must be strictly
    the larger; both users share one bandwidth.
    """
    if len(links) != 2 or len(alloc.powers) != 2:
        raise ValueError("need exactly two users and two powers")
    strong, weak = links
    if not weak.gain < strong.gain:
        raise ValueError(
            f"links must be strictly descending in gain, got {[strong.gain, weak.gain]}"
        )
    if weak.bandwidth != strong.bandwidth:
        raise ValueError("both users must share one bandwidth")
    r1, r2 = map(float, noma_rates_vec(
        strong.gain, weak.gain, *alloc.powers, strong.bandwidth, noise.variance, model
    ))
    return RateReport(
        per_user_rates=(r1, r2), sum_rate=r1 + r2, fairness=jain_index((r1, r2))
    )
