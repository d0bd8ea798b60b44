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
``stats`` and the scalar ``evaluate`` run them.  Two second copies stay
on purpose, each pinned to the kernel by tests.  The bee colony's
objective ``allocate.TwoUserInstance._fairness`` hoists its constants
and runs on math.log1p, because it is called 4000 times per channel
(~0.5 us a call), and the derive golden digests pin its bits.  The
scalar ``jain_index`` here costs ~1.3 us on floats against ~10 us for
``jain_vec``, which matters to the online allocate path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

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
# below the smallest normal float the squares of the rates have lost
# their precision (rates below ~1.5e-154): the Jain index rescales first
_TINY = sys.float_info.min


@dataclass(frozen=True)
class UserLink:
    """Channel gain and transceiver bandwidth of one user."""

    gain: float
    bandwidth: float

    def __post_init__(self):
        if not self.gain > 0:
            raise ValueError(f"gain must be > 0, got {self.gain}")
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")


@dataclass(frozen=True)
class AllocationVector:
    """Per-user powers in Watts, index 0 = strongest channel, summing to total."""

    powers: tuple
    total: float

    def __post_init__(self):
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))
        if any(p < 0 for p in self.powers):
            raise ValueError(f"powers must be >= 0, got {self.powers}")
        s = sum(self.powers)
        if abs(s - self.total) > _SUM_RTOL * max(abs(self.total), 1.0):
            raise ValueError(
                f"powers sum to {s!r}, expected total {self.total!r}"
            )


@dataclass(frozen=True)
class NoiseModel:
    """Total in-band noise power (variance), Watts."""

    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError(f"variance must be > 0, got {self.variance}")


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
    # np.divide, not '/': a zero interference on floats gives inf, as on
    # arrays, instead of raising; 0/0 and overflow stay quiet as well
    with np.errstate(all="ignore"):
        return strong, _rate(bandwidth, np.divide(h2sq * p2, interference))


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


def jain_vec(r1: FloatOrArray, r2: FloatOrArray) -> np.ndarray:
    """Two-user fairness index; infinite rates handled by their limit,
    and rates whose squares underflow rescaled by the larger one."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    inf1, inf2 = np.isinf(r1), np.isinf(r2)
    s = r1 + r2
    q = r1 * r1 + r2 * r2
    tiny = q < _TINY
    if tiny.any():
        top = np.where(tiny & (s > 0.0), np.maximum(r1, r2), 1.0)
        r1, r2 = r1 / top, r2 / top
        s = r1 + r2
        q = r1 * r1 + r2 * r2
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(q > 0.0, s * s / (2.0 * q), 0.0)
    out = np.where(inf1 & inf2, 1.0, out)
    out = np.where(inf1 ^ inf2, 0.5, out)
    return out


def rate_oma(
    link: UserLink, power: float, user_count: int, noise: NoiseModel
) -> float:
    """Orthogonal-access rate: full power over a 1/K time share, no interference."""
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    if user_count < 1:
        raise ValueError(f"user_count must be >= 1, got {user_count}")
    h2 = link.gain * link.gain
    return float(_rate(link.bandwidth / user_count, h2 * power / noise.variance))


def jain_index(rates: Sequence[float]) -> float:
    """Fairness (sum R)^2 / (K sum R^2): 1 when equal, 1/K at monopoly.

    Infinite rates are handled by the limit: with m infinite entries the
    index tends to m/K.
    """
    rates = tuple(rates)
    if not rates:
        raise ValueError("need at least one rate")
    if any(not r >= 0 for r in rates):
        raise ValueError(f"rates must be >= 0, got {rates}")
    n_inf = sum(1 for r in rates if math.isinf(r))
    if n_inf:
        return n_inf / len(rates)
    s = sum(rates)
    if s == 0.0:
        raise ValueError("all rates are zero; fairness undefined")
    q = sum(r * r for r in rates)
    if q < _TINY:
        top = max(rates)
        return jain_index([r / top for r in rates])
    return s * s / (len(rates) * q)


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
