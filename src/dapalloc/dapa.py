"""Optimal total transmit power for fixed per-user power fractions.

For fixed fractions ``omega`` the zero-forcing sum-rate is a function of
the total power P alone: raising P lifts every user's signal power but
simultaneously lowers the back-off, which both shrinks the Bussgang gain
and raises the distortion floor.  The derivative of the sum-rate in P
factors (for the ideal-clipper amplifier) into a positive per-user
factor, a positive common factor, and the scalar "power balance"

    balance(P) = 2 sigma^2 / (sqrt(pi) beta eta M p_max)
                 - erfc(sqrt(psi)) / sqrt(psi),        psi = M p_max / P,

which is strictly decreasing in P with exactly one root per user.  The
solver brackets the derivative's sign change between the smallest and
largest per-user roots -- themselves bounded in closed form through the
Lambert W function -- and bisects on the derivative sign.

All bracket arithmetic runs in the log domain: the W arguments grow like
``(beta M p_max / sigma^2)^2``, far beyond double-precision range for
strong channels.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dapalloc.metrics import Allocation, SystemConfig, UeSet, evaluate
from dapalloc.numerics import erfc, erfcx, lambert_w0_of_log
from dapalloc.pa_model import (
    SOFT_LIMITER,
    PaModel,
    bussgang_gain_soft,
    distortion_coeff_soft,
    input_backoff,
)

__all__ = [
    "DapaResult",
    "SolverError",
    "power_balance",
    "root_bounds",
    "sum_rate_derivative",
    "solve_dapa",
]

_SQRT_PI = math.sqrt(math.pi)
# Above this back-off, erfc(sqrt(psi)) underflows relative to the rest of
# the expression and the scaled-erfcx route is used instead.
_ERFCX_SWITCH = 25.0
_GUARD_SAMPLES = 32


class SolverError(RuntimeError):
    """A solver could not produce a trustworthy result.

    Carries a ``diagnostics`` dict with the offending inputs and
    intermediate values, for post-mortem inspection and error JSON.
    """

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class DapaResult:
    """Outcome of one total-power bisection.

    Attributes:
        total_power_p: the returned optimum P (midpoint of the final
            bisection interval), in watts.
        bracket_lo / bracket_hi: the initial search bracket, in watts.
        iterations: bisection steps performed (at most
            ceil(log2(width/delta)) + 1).
        derivative_residual: |d(sum rate)/dP| at the returned P divided
            by its value at bracket_lo -- a dimensionless stationarity
            measure that shrinks with delta.
    """

    total_power_p: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    derivative_residual: float


def _erfc_over_sqrt(psi):
    """erfc(sqrt(psi))/sqrt(psi) without underflow at large psi."""
    psi = np.asarray(psi, dtype=np.float64)
    root = np.sqrt(psi)
    out = np.empty_like(psi)
    small = psi <= _ERFCX_SWITCH
    if np.any(small):
        out[small] = erfc(root[small]) / root[small]
    if np.any(~small):
        rl = root[~small]
        with np.errstate(under="ignore"):
            out[~small] = erfcx(rl) * np.exp(-psi[~small]) / rl
    return out


def power_balance(total_power_p: float, sigma2, beta, cfg: SystemConfig):
    """The per-user power-balance function whose root is that user's
    optimal total power.

    Positive at small P (noise-limited: more power helps), negative at
    large P (distortion-limited: more power hurts), strictly decreasing
    in between.  ``sigma2`` and ``beta`` may be arrays (evaluated
    elementwise for several users at the same P).
    """
    if total_power_p <= 0:
        raise ValueError("total power must be positive")
    psi = input_backoff(total_power_p, cfg.m_antennas, cfg.p_max)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    lead = 2.0 * sigma2 / (_SQRT_PI * beta * cfg.eta * cfg.m_antennas * cfg.p_max)
    out = lead - _erfc_over_sqrt(psi)
    return float(out) if out.ndim == 0 else out


def root_bounds(sigma2: float, beta: float, cfg: SystemConfig) -> tuple[float, float]:
    """Closed-form bracket for the root of :func:`power_balance`.

    Bounding erfc by its standard exponential envelopes turns the root
    equation into ``w * e^w = arg`` form, giving

        P_lower = 2 M p_max / W(pi/2 * r^2),
        P_upper = 4 M p_max / W(e/2  * r^2),   r = beta eta M p_max / sigma^2.

    Both W arguments are passed as logarithms (r^2 overflows double
    precision for strong channels).  Scaling sigma2 and beta together
    leaves the bounds unchanged.
    """
    if sigma2 <= 0 or beta <= 0:
        raise ValueError("noise and channel gain must be positive")
    log_ratio = math.log(beta * cfg.eta * cfg.m_antennas * cfg.p_max) - math.log(
        sigma2
    )
    log_arg_lower = math.log(math.pi / 2.0) + 2.0 * log_ratio
    log_arg_upper = 1.0 - math.log(2.0) + 2.0 * log_ratio
    w_lower = float(lambert_w0_of_log(log_arg_lower))
    w_upper = float(lambert_w0_of_log(log_arg_upper))
    lower = 2.0 * cfg.m_antennas * cfg.p_max / w_lower
    upper = 4.0 * cfg.m_antennas * cfg.p_max / w_upper
    return lower, upper


def sum_rate_derivative(
    total_power_p: float, ues: UeSet, omega: np.ndarray, cfg: SystemConfig
) -> float:
    """d(sum rate)/dP at fixed fractions, ideal-clipper amplifier.

    Each user contributes (positive rate-curvature factor) x (common
    positive back-off factor) x (power balance); users with zero power
    fraction contribute nothing.  Units: bit/s per watt.  The solvers
    only consume the sign, but the full value is exposed for residual
    reporting and finite-difference cross-checks.
    """
    if total_power_p <= 0:
        raise ValueError("total power must be positive")
    omega = np.asarray(omega, dtype=np.float64)
    psi = input_backoff(total_power_p, cfg.m_antennas, cfg.p_max)

    # Amplifier state (ideal clipper).
    lam = bussgang_gain_soft(psi)
    dist = cfg.eta * distortion_coeff_soft(psi) * total_power_p

    active = omega > 0.0
    if not np.any(active):
        raise ValueError("at least one power fraction must be positive")
    beta = ues.beta[active]
    sigma2 = ues.noise_w[active]
    w = omega[active]

    array_gain = cfg.m_antennas - cfg.n_users
    denom = sigma2 + beta * dist
    gamma = array_gain * lam * w * total_power_p * beta / denom

    rate_factor = (
        cfg.bandwidth_hz
        / (math.log(2.0) * (1.0 + gamma))
        * array_gain
        * w
        * beta
        / denom**2
    )
    exp_neg = math.exp(-psi) if psi <= 700.0 else 0.0
    common = math.sqrt(lam) * (1.0 - exp_neg - psi * exp_neg)
    balance = power_balance(total_power_p, sigma2, beta, cfg)
    scale = (_SQRT_PI / 2.0) * beta * cfg.eta * cfg.m_antennas * cfg.p_max
    return float(np.sum(rate_factor * common * scale * balance))


def _objective(
    total_power_p: float, ues: UeSet, omega: np.ndarray, cfg: SystemConfig
) -> float:
    # The optimizer's model is always the ideal clipper, even when the
    # config carries a smooth amplifier for evaluation purposes.
    if cfg.pa.kind != SOFT_LIMITER:
        cfg = dataclasses.replace(cfg, pa=PaModel())
    alloc = Allocation(total_power_p, omega)
    return evaluate(cfg, ues, alloc, precoder="zf").sum_rate


def _bisect_on_sign(
    lo: float,
    hi: float,
    delta: float,
    ues: UeSet,
    omega: np.ndarray,
    cfg: SystemConfig,
) -> tuple[float, int]:
    """Plain sign bisection of the derivative; returns (midpoint, steps).

    Stops when the bracket is at most ``delta`` wide, or when a step
    leaves it unchanged: at P > delta / eps the bracket reaches one
    float ulp before it reaches ``delta``.
    """
    iterations = 0
    while hi - lo > delta:
        mid = 0.5 * (lo + hi)
        s = int(np.sign(sum_rate_derivative(mid, ues, omega, cfg)))  # int(nan) raises
        if s == 0:  # exact stationary point
            return mid, iterations + 1
        iterations += 1
        step = (mid, hi) if s > 0 else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
    return 0.5 * (lo + hi), iterations


def solve_dapa(
    ues: UeSet,
    omega: np.ndarray,
    cfg: SystemConfig,
    delta: Optional[float] = None,
) -> DapaResult:
    """Bisection for the total power maximizing the fixed-fraction sum rate.

    The initial bracket joins the Lambert-W lower bound of the
    best-channel user (smallest sigma^2/beta among users with positive
    fraction) with the upper bound of the worst-channel user.  The
    derivative must be nonnegative at the left end and nonpositive at
    the right end; a violation raises :class:`SolverError` with
    diagnostics.  ``delta`` is the absolute bracket-width stop (watts),
    defaulting to 1e-6 * M * p_max.

    After bisection the sum rate is sampled at 32 log-spaced points of
    the bracket; if any sample beats the bisection root (possible only
    if the K-term derivative had several sign changes), bisection is
    re-run inside the best sample's sub-interval and the best candidate
    wins.  This guard keeps the common single-root case untouched.
    """
    if delta is None:
        delta = 1e-6 * cfg.m_antennas * cfg.p_max
    if delta <= 0:
        raise ValueError("delta must be positive")
    omega = np.asarray(omega, dtype=np.float64)
    if omega.size != ues.n_users:
        raise ValueError("omega length must match the user set")
    active = omega > 0.0
    if not np.any(active):
        raise ValueError("at least one power fraction must be positive")

    # Users with zero fraction have constant rate terms in P and do not
    # constrain the bracket.
    ratio = ues.noise_w[active] / ues.beta[active]
    k_best = int(np.argmin(ratio))
    k_worst = int(np.argmax(ratio))
    sigma2_a = ues.noise_w[active]
    beta_a = ues.beta[active]
    lo, _ = root_bounds(float(sigma2_a[k_best]), float(beta_a[k_best]), cfg)
    _, hi = root_bounds(float(sigma2_a[k_worst]), float(beta_a[k_worst]), cfg)

    d_lo = sum_rate_derivative(lo, ues, omega, cfg)
    d_hi = sum_rate_derivative(hi, ues, omega, cfg)
    if d_lo < 0.0 or d_hi > 0.0:
        raise SolverError(
            "derivative sign condition violated at the initial bracket",
            diagnostics={
                "bracket_lo": lo,
                "bracket_hi": hi,
                "derivative_lo": d_lo,
                "derivative_hi": d_hi,
                "delta": delta,
                "m_antennas": cfg.m_antennas,
                "p_max": cfg.p_max,
            },
        )

    root, iterations = _bisect_on_sign(lo, hi, delta, ues, omega, cfg)
    best_p = root
    best_obj = _objective(root, ues, omega, cfg)

    # Multi-root guard: scan the bracket for a better objective.
    samples = np.geomspace(lo, hi, _GUARD_SAMPLES)
    sample_obj = np.array([_objective(float(p), ues, omega, cfg) for p in samples])
    i_best = int(np.argmax(sample_obj))
    if sample_obj[i_best] > best_obj:
        sub_lo = float(samples[max(i_best - 1, 0)])
        sub_hi = float(samples[min(i_best + 1, _GUARD_SAMPLES - 1)])
        sub_root, iterations = _bisect_on_sign(sub_lo, sub_hi, delta, ues, omega, cfg)
        for candidate in (sub_root, float(samples[i_best])):
            obj = _objective(candidate, ues, omega, cfg)
            if obj > best_obj:
                best_obj = obj
                best_p = candidate

    d_root = abs(sum_rate_derivative(best_p, ues, omega, cfg))
    residual = d_root / abs(d_lo) if d_lo != 0.0 else d_root
    return DapaResult(
        total_power_p=best_p,
        bracket_lo=lo,
        bracket_hi=hi,
        iterations=iterations,
        derivative_residual=residual,
    )
