"""Power-amplifier back-off, Bussgang gain, and distortion curves.

A complex-Gaussian OFDM waveform driven through a memoryless amplifier
can be written, via the Bussgang decomposition, as a scaled copy of the
input plus uncorrelated distortion noise.  For a per-antenna input power
``P / M`` and saturation power ``p_max`` the single parameter governing
both terms is the input back-off

    psi = M * p_max / P        (linear; 10*log10(psi) in dB).

Two amplifier laws are supported:

* ``soft_limiter`` -- ideal clipper: linear below the saturation
  amplitude, hard-limited above.  Gain and distortion have closed forms
  in ``erfc``.
* ``rapp`` -- smooth saturation with knee sharpness ``p``; the moments
  have no closed form and are computed by a fixed Gauss-Legendre rule
  (``numerics.integrate_semi_infinite``) with extra panel ends around
  the knee t = sqrt(psi).
  As ``p -> inf`` the Rapp curves converge to the soft limiter.

The fraction ``dist_coeff`` returned here is normalized to the input
power, so the distortion power seen by a receiver is
``ETA * dist_coeff * P`` (the ``effective_distortion`` of
:class:`PaOperatingPoint`), with :data:`ETA` the precoder efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dapalloc._fields import BACKOFF, POSITIVE, check, require
from dapalloc.numerics import erfc, erfcx, integrate_semi_infinite

__all__ = [
    "ETA",
    "SOFT_LIMITER",
    "RAPP",
    "PaModel",
    "PaOperatingPoint",
    "input_backoff",
    "bussgang_gain_soft",
    "distortion_coeff_soft",
    "bussgang_gain_rapp",
    "distortion_coeff_rapp",
]

SOFT_LIMITER = "soft_limiter"
RAPP = "rapp"

# Precoder efficiency: the share of the amplifier distortion a user
# receives, 2/3 for both the zero-forcing and the maximum-ratio precoder.
ETA = 2.0 / 3.0

# Beyond this back-off the closed forms are evaluated through erfcx to
# dodge underflow of erfc(sqrt(psi)); see bussgang_gain_soft.
_ERFCX_SWITCH = 25.0

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class PaModel:
    """Which amplifier law to use, plus the Rapp knee sharpness.

    ``smoothness_p`` is ignored for the soft limiter.
    """

    kind: str = SOFT_LIMITER
    smoothness_p: float = 2.0

    def __post_init__(self) -> None:
        check(self, smoothness_p=POSITIVE)
        if self.kind not in (SOFT_LIMITER, RAPP):
            raise ValueError(f"unknown amplifier kind {self.kind!r}")


@dataclass(frozen=True)
class PaOperatingPoint:
    """Amplifier state at one total transmit power.

    Attributes:
        ibo: input back-off psi (linear scale; inf when P = 0).
        lam: Bussgang linear gain factor (the power gain lambda, not the
            amplitude gain sqrt(lambda)).
        dist_coeff: distortion power as a fraction of the input power.
        effective_distortion: ETA * dist_coeff * P, the distortion power
            after precoder-efficiency scaling, in watts.
    """

    ibo: float
    lam: float
    dist_coeff: float
    effective_distortion: float

    @property
    def ibo_db(self) -> float:
        return 10.0 * math.log10(self.ibo) if math.isfinite(self.ibo) else math.inf


def input_backoff(total_power_p, m_antennas: int, p_max: float):
    """Input back-off psi = M * p_max / P for a positive, finite total
    power P, or elementwise for an array of them."""
    check(locals(), total_power_p=POSITIVE, m_antennas=1, p_max=POSITIVE)
    return m_antennas * p_max / total_power_p


def _tail_term(psi):
    """0.5 * sqrt(pi * psi) * erfc(sqrt(psi)), stable at large psi."""
    psi = np.asarray(psi, dtype=np.float64)
    root = np.sqrt(psi)
    small = psi <= _ERFCX_SWITCH
    out = np.empty_like(psi)
    if small.any():
        out[small] = 0.5 * _SQRT_PI * root[small] * erfc(root[small])
    if not small.all():
        rl = np.minimum(root[~small], 1e3)  # keeps inf * 0 out at psi = inf
        with np.errstate(under="ignore"):
            out[~small] = 0.5 * _SQRT_PI * rl * erfcx(rl) * np.exp(-psi[~small])
    return out


def bussgang_gain_soft(psi):
    """Bussgang power gain of the ideal clipper at back-off psi.

    lambda(psi) = (1 - exp(-psi) + 0.5*sqrt(pi*psi)*erfc(sqrt(psi)))^2.

    Monotone increasing from 0 at psi = 0 toward 1 as psi -> inf; precise
    small-psi behaviour is lambda ~ pi*psi/4.  Accepts scalars or arrays.
    """
    require("psi", psi, BACKOFF)
    arr = np.asarray(psi, dtype=np.float64)
    base = -np.expm1(-arr) + _tail_term(arr)
    out = base * base
    return float(out) if np.ndim(psi) == 0 else out


def distortion_coeff_soft(psi, *, _lam=None):
    """Distortion power fraction of the ideal clipper at back-off psi.

    c(psi) = 1 - exp(-psi) - lambda(psi); the identity
    c + lambda = 1 - exp(-psi) holds exactly as computed.  The true value
    decays like a small multiple of exp(-psi), so past psi ~ 34 it drops
    below double-precision resolution of the subtraction and the result
    is clamped at 0.

    ``_lam`` is private to callers that have just computed
    ``bussgang_gain_soft(psi)``: that lambda, used as it is.
    """
    require("psi", psi, BACKOFF)
    arr = np.asarray(psi, dtype=np.float64)
    total = -np.expm1(-arr)
    out = np.maximum(total - (bussgang_gain_soft(arr) if _lam is None else _lam), 0.0)
    return float(out) if np.ndim(psi) == 0 else out


# Panel ends of the Rapp moments, as multiples of the knee t = sqrt(psi):
# a fixed spread around it, plus 1 +- j/p for j = 1, 2, 3, since the knee
# sharpens to a corner as p grows.
_KNEE_SPREAD = (0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0)
_KNEE_STEPS = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)


def _rapp_moment(psi: float, p: float, exponent: float) -> float:
    """integral_0^inf 2 t^3 (1 + (t^2/psi)^p)^(exponent) exp(-t^2) dt.

    The saturation factor is evaluated in the log domain so that huge
    ratios t^2/psi (tiny back-off, large t) neither overflow nor lose
    the small-argument accuracy of log1p.
    """

    def integrand(t: np.ndarray) -> np.ndarray:
        log_r = p * (2.0 * np.log(t) - math.log(psi))
        # log(1 + r^p): exact via log1p when r^p is representable,
        # asymptotically log_r when it is astronomically large.
        big = log_r > 50.0
        log1p_rp = np.where(big, log_r, np.log1p(np.exp(np.minimum(log_r, 50.0))))
        with np.errstate(under="ignore"):
            return 2.0 * t**3 * np.exp(exponent * log1p_rp - t * t)

    knee = math.sqrt(psi)
    scales = _KNEE_SPREAD + tuple(1.0 + j / p for j in _KNEE_STEPS)
    # a scale <= 0 gives a break of 0, below 0 or (psi = inf) NaN; the rule ignores it
    return integrate_semi_infinite(integrand, breaks=[knee * s for s in scales])


def _rapp_per_point(psi: float, p: float, law) -> float:
    """``law(psi)`` at one back-off, after the Rapp model's input checks."""
    require("psi", psi, BACKOFF)
    require("p", p, POSITIVE)
    if psi == 0.0:  # the law reads log(psi)
        raise ValueError("psi must be positive for the Rapp model")
    return float(law(float(psi)))


def bussgang_gain_rapp(psi, p: float = 2.0):
    """Bussgang power gain of a Rapp amplifier with knee sharpness p.

    lambda = (integral_0^inf 2 t^3 (1 + (t^2/psi)^p)^(-1/(2p)) e^(-t^2) dt)^2.

    Converges to :func:`bussgang_gain_soft` as p -> inf.
    """
    return _rapp_per_point(psi, p, lambda v: _rapp_moment(v, p, -1.0 / (2.0 * p)) ** 2)


def distortion_coeff_rapp(psi, p: float = 2.0, *, _lam=None):
    """Distortion power fraction of a Rapp amplifier with sharpness p.

    c = integral_0^inf 2 t^3 (1 + (t^2/psi)^p)^(-1/p) e^(-t^2) dt - lambda.

    (The first term is the total output power fraction; subtracting the
    coherent part lambda leaves the uncorrelated distortion.)  Clamped
    at 0 against quadrature-level cancellation for very large psi.

    ``_lam`` is private to callers that have just computed
    ``bussgang_gain_rapp(psi, p)``: that lambda, used as it is, so the
    point costs two quadratures in all, not three.
    """

    def law(v: float) -> float:
        total = _rapp_moment(v, p, -1.0 / p)
        lam = _rapp_moment(v, p, -1.0 / (2.0 * p)) ** 2 if _lam is None else _lam
        return max(total - lam, 0.0)

    return _rapp_per_point(psi, p, law)
