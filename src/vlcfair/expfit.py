"""Two-term exponential least squares, a*exp(b*r) + c*exp(d*r).

Fitting is damped Gauss-Newton (Levenberg style) with the analytic
Jacobian

    d/da = exp(b r),  d/db = a r exp(b r),
    d/dc = exp(d r),  d/dd = c r exp(d r),

a multiplicative damping schedule (x10 on a rejected step, /10 on an
accepted one, starting at 1e-3), and a fixed deterministic multistart
around the asymptote-plus-fast-rise shape typical of the allocation
datasets; callers give no start.  Points must be finite: a non-finite
value is rejected with a ValueError before any descent.
The parameterization is symmetric under swapping (a,b) with (c,d), so
agreement between fits is judged in function space, not coefficient
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["ExpFitCoefficients", "FitReport", "eval_two_term_exp", "fit_two_term_exp"]

MIN_POINTS = 4  # one point per parameter of the two-term exponential

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 500
_DAMPING_INIT = 1e-3
_DAMPING_MIN = 1e-12
# multistart grid: amplitude scale x decay-rate start
_START_SCALES = (1.0, 0.5, 2.0, 1.5)
_START_DECAYS = (-20.0, -10.0, -40.0, -5.0)


@dataclass(frozen=True)
class ExpFitCoefficients:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c, self.d)):
            raise ValueError(f"coefficients must be finite: {self}")

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class FitReport:
    rmse: float
    iterations: int
    converged: bool


def eval_two_term_exp(coeffs: ExpFitCoefficients, r):
    """Evaluate a*exp(b*r) + c*exp(d*r) for scalar or array r."""
    if not isinstance(r, float):  # a float skips the 0-d array, same bits
        r = np.asarray(r, dtype=float)
    out = coeffs.a * np.exp(coeffs.b * r) + coeffs.c * np.exp(coeffs.d * r)
    return float(out) if out.ndim == 0 else out


def _residual(theta, r, y):
    a, b, c, d = theta
    return a * np.exp(b * r) + c * np.exp(d * r) - y


def _jacobian(theta, r):
    a, b, c, d = theta
    eb = np.exp(b * r)
    ed = np.exp(d * r)
    return np.column_stack([eb, a * r * eb, ed, c * r * ed])


def _lm_run(r, y, theta0):
    """One damped least-squares descent; returns (theta, sse, iters, converged)."""
    theta = np.asarray(theta0, dtype=float)
    res = _residual(theta, r, y)
    sse = float(res @ res)
    damping = _DAMPING_INIT
    for it in range(1, DEFAULT_MAX_ITER + 1):
        jac = _jacobian(theta, r)
        grad = jac.T @ res
        hess = jac.T @ jac
        diag = np.diag(np.diag(hess))
        for _ in range(60):
            try:
                step = np.linalg.solve(hess + damping * diag, -grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                damping *= 10.0
                continue
            cand = theta + step
            with np.errstate(over="ignore", invalid="ignore"):
                res_c = _residual(cand, r, y)
                sse_c = float(res_c @ res_c) if np.all(np.isfinite(res_c)) else math.inf
            if sse_c < sse:
                gain = (sse - sse_c) / sse if sse > 0 else 0.0
                theta, res, sse = cand, res_c, sse_c
                damping = max(damping / 10.0, _DAMPING_MIN)
                if gain < DEFAULT_TOL:
                    return theta, sse, it, True
                break
            damping *= 10.0
        else:
            # no downhill direction left at any damping: stationary
            return theta, sse, it, True
    return theta, sse, DEFAULT_MAX_ITER, False


def fit_two_term_exp(
    points: Sequence[Tuple[float, float]],
) -> Tuple[ExpFitCoefficients, FitReport]:
    """Least-squares fit of the two-term exponential to (r, value) points.

    Needs at least 4 finite points with distinct r values.  A 16-point
    scale/decay grid around the start a = max|value|, b = 0, c = -a,
    d = -20 is tried and the lowest final SSE wins (ties: earliest
    start).  Each descent stops after DEFAULT_MAX_ITER steps or once a
    step gains less than DEFAULT_TOL relative SSE, and it accepts only
    steps whose residuals are finite.  Non-convergence is reported
    through the FitReport, not raised.
    """
    pts = [(float(r), float(y)) for r, y in points]
    if len(pts) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points, one per parameter, got {len(pts)}")
    for point in pts:
        if not (math.isfinite(point[0]) and math.isfinite(point[1])):
            raise ValueError(f"points must be finite, got {point}")
    # a set, not np.unique, which imports numpy.ma (~10 ms, 0.6 MB, numpy
    # 2.4); the r values are finite, and 0.0 and -0.0 are one value to both
    if len({p[0] for p in pts}) != len(pts):
        raise ValueError("r values must be distinct")
    r = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])

    amax = float(np.max(np.abs(y))) or 1.0
    best = None
    for s in _START_SCALES:
        for dec in _START_DECAYS:
            run = _lm_run(r, y, (amax * s, 0.0, -amax * s, dec))
            if best is None or run[1] < best[1]:
                best = run
    theta, sse, iters, converged = best
    coeffs = ExpFitCoefficients(*[float(v) for v in theta])
    report = FitReport(
        rmse=math.sqrt(sse / len(pts)), iterations=iters, converged=converged
    )
    return coeffs, report
