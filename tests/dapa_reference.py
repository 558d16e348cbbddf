"""Sequential total-power bisection that the tests compare against.

:func:`dapalloc.dapa._walk` evaluates a path of midpoints toward a
guessed root per derivative call; :func:`bisect_on_sign` here is the
plain form it must match bit for bit, one derivative call per step, on
every row of a lockstep chunk.
:func:`sum_rate_derivative_scalar` is the one-power derivative with a
libm ``exp``/``expm1`` call per power, which the batched derivative must
match bit for bit.
"""

import math

import numpy as np

from dapalloc import dapa
from dapalloc.metrics import zf_gain
from dapalloc.pa_model import _SQRT_PI, ETA, bussgang_gain_soft, distortion_coeff_soft


def bisect_on_sign(lo, hi, delta, ues, omega, cfg):
    """Sign bisection of ``dapa.sum_rate_derivative``; returns (midpoint, steps).

    Stops when the bracket is at most ``delta`` wide, or when a step
    leaves it unchanged (one float ulp).  The derivative is looked up on
    the module at every step, so a test may replace it.
    """
    return bisect_walk(lo, hi, delta, ues, omega, cfg)[:2]


def bisect_walk(lo, hi, delta, ues, omega, cfg):
    """:func:`bisect_on_sign` plus the rule that stopped it: ``"zero"``
    (an exact zero of the derivative), ``"ulp"`` (a one-ulp bracket) or
    ``"delta"`` (a bracket at most ``delta`` wide)."""
    iterations = 0
    while hi - lo > delta:
        mid = 0.5 * (lo + hi)
        s = int(np.sign(dapa.sum_rate_derivative(mid, ues, omega, cfg)))  # int(nan) raises
        if s == 0:  # exact stationary point
            return mid, iterations + 1, "zero"
        iterations += 1
        step = (mid, hi) if s > 0 else (lo, mid)
        if step == (lo, hi):
            return 0.5 * (lo + hi), iterations, "ulp"
        lo, hi = step
    return 0.5 * (lo + hi), iterations, "delta"


def sum_rate_derivative_scalar(total_power_p, ues, omega, cfg):
    """d(sum rate)/dP at one total power, with Python floats for the
    amplifier state and libm for its exponentials."""
    omega = np.asarray(omega, dtype=np.float64)
    psi = cfg.m_antennas * cfg.p_max / total_power_p
    lam = bussgang_gain_soft(psi)
    dist = ETA * distortion_coeff_soft(psi) * total_power_p
    active = omega > 0.0
    beta = ues.beta[active]
    sigma2 = ues.noise_w[active]
    w = omega[active]
    array_gain = zf_gain(cfg, ues)
    denom = sigma2 + beta * dist
    gamma = array_gain * lam * w * total_power_p * beta / denom
    rate_factor = (
        cfg.bandwidth_hz / (math.log(2.0) * (1.0 + gamma)) * array_gain * w * beta / denom**2
    )
    exp_neg = math.exp(-psi) if psi <= 700.0 else 0.0
    common = math.sqrt(lam) * (-math.expm1(-psi) - psi * exp_neg)
    balance = dapa.power_balance(total_power_p, sigma2, beta, cfg)
    scale = (_SQRT_PI / 2.0) * beta * ETA * cfg.m_antennas * cfg.p_max
    return float(np.sum(rate_factor * common * scale * balance))
