"""Optimal total transmit power for fixed per-user power fractions.

For fixed fractions ``omega`` the zero-forcing sum-rate is a function of
the total power P alone: raising P lifts every user's signal power but
simultaneously lowers the back-off, which both shrinks the Bussgang gain
and raises the distortion floor.  The derivative of the sum-rate in P
factors (for the ideal-clipper amplifier) into a positive per-user
factor, a positive common factor, and the scalar "power balance"

    balance(P) = 2 sigma^2 / (sqrt(pi) beta ETA M p_max)
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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dapalloc.metrics import Allocation, SystemConfig, UeSet, _sindr, evaluate, rates, zf_gain
from dapalloc.numerics import erfc, erfcx, lambert_w0_of_log
from dapalloc.pa_model import (
    _ERFCX_SWITCH,
    _SQRT_PI,
    ETA,
    SOFT_LIMITER,
    bussgang_gain_soft,
    distortion_coeff_soft,
)

__all__ = [
    "DapaResult",
    "SolverError",
    "power_balance",
    "root_bounds",
    "sum_rate_derivative",
    "default_delta",
    "solve_dapa",
]

_GUARD_SAMPLES = 32
_LOOKAHEAD_LEVELS = 5  # midpoint-tree levels per derivative call: 31 points
_MIN_BRACKET_RATIO = 1e-13  # see root_bounds
# libm's log, exp and expm1 elementwise: numpy's SIMD versions can differ
# from them in the last bit, which could move a bracket end or a step.
_log = np.vectorize(math.log, otypes=[np.float64])
_exp = np.vectorize(math.exp, otypes=[np.float64])
_expm1 = np.vectorize(math.expm1, otypes=[np.float64])


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


def power_balance(total_power_p, sigma2, beta, cfg: SystemConfig):
    """The per-user power-balance function whose root is that user's
    optimal total power.

    Positive at small P (noise-limited: more power helps), negative at
    large P (distortion-limited: more power hurts), strictly decreasing
    in between.  ``sigma2`` and ``beta`` may be arrays (evaluated
    elementwise for several users at the same P, or a column of powers).
    """
    if np.any(np.asarray(total_power_p) <= 0):
        raise ValueError("total power must be positive")
    psi = cfg.m_antennas * cfg.p_max / total_power_p
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    lead = 2.0 * sigma2 / (_SQRT_PI * beta * ETA * cfg.m_antennas * cfg.p_max)
    out = lead - _erfc_over_sqrt(psi)
    return float(out) if out.ndim == 0 else out


def root_bounds(sigma2, beta, cfg: SystemConfig):
    """Closed-form bracket for the root of :func:`power_balance`.

    Bounding erfc by its standard exponential envelopes turns the root
    equation into ``w * e^w = arg`` form, giving

        P_lower = 2 M p_max / W(pi/2 * r^2),
        P_upper = 4 M p_max / W(e/2  * r^2),   r = beta ETA M p_max / sigma^2.

    Both W arguments are passed as logarithms (r^2 overflows double
    precision for strong channels).  Scaling sigma2 and beta together
    leaves the bounds unchanged.  Per-user arrays ``sigma2`` and ``beta``
    give per-user bounds; a scalar pair gives two floats.

    Raises:
        SolverError: if r < 1e-13 for any user.  There the lower bound's
            relative margin over the root, about r, is below the
            rounding of the W argument's log, so the bracket's sign is
            not guaranteed (it fails for r up to ~6e-15).
    """
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if not (np.all(sigma2 > 0) and np.all(beta > 0)):
        raise ValueError("noise and channel gain must be positive")
    log_ratio = _log(beta * ETA * cfg.m_antennas * cfg.p_max) - _log(sigma2)
    if np.any(log_ratio < math.log(_MIN_BRACKET_RATIO)):
        ratio = math.exp(np.min(log_ratio))
        raise SolverError(
            f"r = {ratio:.3g} is below the Lambert-W bracket's floor {_MIN_BRACKET_RATIO:g}",
            diagnostics={"ratio": ratio, "floor": _MIN_BRACKET_RATIO},
        )
    log_arg_lower = math.log(math.pi / 2.0) + 2.0 * log_ratio
    log_arg_upper = 1.0 - math.log(2.0) + 2.0 * log_ratio
    lower = 2.0 * cfg.m_antennas * cfg.p_max / lambert_w0_of_log(log_arg_lower)
    upper = 4.0 * cfg.m_antennas * cfg.p_max / lambert_w0_of_log(log_arg_upper)
    return lower, upper


def _clipper_state(power: np.ndarray, cfg: SystemConfig):
    """Back-off, gain and distortion ETA c P, as operating_point_at computes them."""
    psi = cfg.m_antennas * cfg.p_max / power
    return psi, bussgang_gain_soft(psi), ETA * distortion_coeff_soft(psi) * power


def sum_rate_derivative(total_power_p, ues: UeSet, omega: np.ndarray, cfg: SystemConfig):
    """d(sum rate)/dP at fixed fractions, ideal-clipper amplifier.

    Each user contributes (positive rate-curvature factor) x (common
    positive back-off factor) x (power balance); users with zero power
    fraction contribute nothing.  Units: bit/s per watt.  The solvers
    only consume the sign, but the full value is exposed for residual
    reporting and finite-difference cross-checks.  A 1-D array of powers
    gives one value per power, bitwise the scalar calls.
    """
    omega = np.asarray(omega, dtype=np.float64)
    active = omega > 0.0
    if not np.any(active):
        raise ValueError("at least one power fraction must be positive")
    beta = ues.beta[active]
    sigma2 = ues.noise_w[active]
    w = omega[active]
    column = np.asarray(total_power_p, dtype=np.float64)[..., np.newaxis]  # a row per power
    balance = power_balance(column, sigma2, beta, cfg)  # raises unless every P > 0
    psi, lam, dist = _clipper_state(column, cfg)

    array_gain = zf_gain(cfg, ues)
    denom = sigma2 + beta * dist
    gamma = array_gain * lam * w * column * beta / denom

    rate_factor = (
        cfg.bandwidth_hz / (math.log(2.0) * (1.0 + gamma)) * array_gain * w * beta / denom**2
    )
    # 1 - e^-psi - psi e^-psi ~ psi^2 / 2 at small psi; expm1 avoids the cancellation
    exp_neg = np.where(psi <= 700.0, _exp(-psi), 0.0)
    common = np.sqrt(lam) * (-_expm1(-psi) - psi * exp_neg)
    scale = (_SQRT_PI / 2.0) * beta * ETA * cfg.m_antennas * cfg.p_max
    out = np.sum(rate_factor * common * scale * balance, axis=-1)
    return float(out) if out.ndim == 0 else out


def _derivative_at(power: np.ndarray, ues: UeSet, omega: np.ndarray, cfg: SystemConfig):
    """:func:`sum_rate_derivative` at every point of ``power``, shaped like it."""
    return np.broadcast_to(sum_rate_derivative(power, ues, omega, cfg), power.shape)


def _sum_rates(power: np.ndarray, ues: UeSet, omega: np.ndarray, cfg: SystemConfig):
    """``evaluate(...).sum_rate`` (zero forcing) at every point of ``power``, bit for bit."""
    column = power[:, np.newaxis]
    _, lam, dist = _clipper_state(column, cfg)
    return np.sum(rates(cfg, _sindr(cfg, ues, omega, column, lam, dist, "zf")), axis=-1)


def _bisect_on_sign(
    lo: float, hi: float, delta: float, ues: UeSet, omega: np.ndarray, cfg: SystemConfig
) -> tuple[float, int]:
    """Plain sign bisection of the derivative; returns (midpoint, steps).

    Stops when the bracket is at most ``delta`` wide, or when a step
    leaves it unchanged: at P > delta / eps the bracket reaches one
    float ulp before it reaches ``delta``.

    Look-ahead: one derivative call covers the next ``_LOOKAHEAD_LEVELS``
    levels of midpoints (31 points), and the walk reads only its own path's
    signs, so its bits, and any NaN it meets, are those of one call per step.
    """
    iterations = 0
    while hi - lo > delta:
        ends = np.array([lo, hi])
        for _ in range(_LOOKAHEAD_LEVELS):
            ends = np.insert(ends, np.arange(1, ends.size), 0.5 * (ends[:-1] + ends[1:]))
        values = _derivative_at(ends[1:-1], ues, omega, cfg)
        a, b = 0, ends.size - 1  # (lo, hi) == (ends[a], ends[b]); midpoint ends[(a + b) // 2]
        while b - a > 1 and hi - lo > delta:
            m = (a + b) // 2
            mid = float(ends[m])
            s = int(np.sign(values[m - 1]))  # int(nan) raises
            if s == 0:  # exact stationary point
                return mid, iterations + 1
            iterations += 1
            step = (mid, hi) if s > 0 else (lo, mid)
            if step == (lo, hi):  # one ulp wide: mid is lo or hi
                return mid, iterations
            lo, hi = step
            a, b = (m, b) if s > 0 else (a, m)
    return 0.5 * (lo + hi), iterations


def default_delta(cfg: SystemConfig) -> float:
    """The solvers' default bracket-width stop, 1e-6 * M * p_max watts."""
    return 1e-6 * cfg.m_antennas * cfg.p_max


def solve_dapa(
    ues: UeSet,
    omega: np.ndarray,
    cfg: SystemConfig,
    delta: Optional[float] = None,
) -> DapaResult:
    """Bisection for the total power maximizing the fixed-fraction sum rate.

    The initial bracket runs from the smallest Lambert-W lower bound to
    the largest upper bound over the users with positive fraction.  The
    derivative must be nonnegative at the left end and nonpositive at
    the right end; a violation raises :class:`SolverError` with
    diagnostics.  ``delta`` is the absolute bracket-width stop (watts),
    defaulting to :func:`default_delta`.

    After bisection the sum rate is sampled at 32 log-spaced points of
    the bracket; if any sample beats the bisection root (possible only
    if the K-term derivative had several sign changes), bisection is
    re-run inside the best sample's sub-interval and the best candidate
    wins.  This guard keeps the common single-root case untouched.  Both
    stages batch their points: bisection evaluates five levels of
    midpoints per derivative call, and the guard rates its 32 samples in
    one call.  Every bit is that of one scalar call per point.

    ``cfg.pa`` must be the ideal clipper, the only amplifier the
    derivative models; any other raises ``ValueError``.
    """
    if cfg.pa.kind != SOFT_LIMITER:
        raise ValueError(f"pa must be {SOFT_LIMITER!r}, the only amplifier the derivative models")
    if delta is None:
        delta = default_delta(cfg)
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
    lower, upper = root_bounds(ues.noise_w[active], ues.beta[active], cfg)
    lo, hi = float(np.min(lower)), float(np.max(upper))

    d_lo, d_hi = map(float, _derivative_at(np.array([lo, hi]), ues, omega, cfg))
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
    best_obj = evaluate(cfg, ues, Allocation(root, omega)).sum_rate

    # Multi-root guard: scan the bracket for a better objective.
    samples = np.geomspace(lo, hi, _GUARD_SAMPLES)
    sample_obj = _sum_rates(samples, ues, omega, cfg)
    i_best = int(np.argmax(sample_obj))
    if sample_obj[i_best] > best_obj:
        sub_lo = float(samples[max(i_best - 1, 0)])
        sub_hi = float(samples[min(i_best + 1, _GUARD_SAMPLES - 1)])
        sub_root, iterations = _bisect_on_sign(sub_lo, sub_hi, delta, ues, omega, cfg)
        for candidate in (sub_root, float(samples[i_best])):
            obj = evaluate(cfg, ues, Allocation(candidate, omega)).sum_rate
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
