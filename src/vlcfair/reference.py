"""Published reference constants for the standard two-user office setup.

These are the fixed numbers the toolkit is validated against: the
reference allocation-curve coefficients, the mean enumerated gain the
curve was anchored to, and the corresponding reference channel/power.
They let the online allocator run without re-deriving the curve.
"""

from __future__ import annotations

from .allocate import EfopaModel, MuMode
from .expfit import ExpFitCoefficients

__all__ = [
    "REFERENCE_COEFFICIENTS",
    "REFERENCE_MEAN_GAIN",
    "REFERENCE_POWER_W",
    "reference_model",
]

# fitted curve p1(r) = a e^{b r} + c e^{d r} at the reference point
REFERENCE_COEFFICIENTS = ExpFitCoefficients(a=0.1018, b=0.01274, c=-0.1432, d=-19.04)

# mean unique gain of the standard office enumeration
REFERENCE_MEAN_GAIN = 7.9144e-5

# total transmit power the curve was derived at
REFERENCE_POWER_W = 22.5


def reference_model(
    mu_mode: MuMode = EfopaModel.mu_mode, clamp_floor: float = EfopaModel.clamp_floor
) -> EfopaModel:
    """Allocation model built from the published reference constants.

    The reference strong-user channel is twice the mean enumerated
    gain.
    """
    return EfopaModel(
        coefficients=REFERENCE_COEFFICIENTS,
        h_ref=2.0 * REFERENCE_MEAN_GAIN,
        p_ref=REFERENCE_POWER_W,
        h0=REFERENCE_MEAN_GAIN,
        mu_mode=mu_mode,
        clamp_floor=clamp_floor,
    )
