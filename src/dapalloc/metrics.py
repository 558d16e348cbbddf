"""Effective SINDR and rate evaluation for the distortion-aware downlink.

The model: an M-antenna base station serves K single-antenna users over
``n_subcarriers`` OFDM subcarriers of width ``delta_f`` (bandwidth
``B = n_subcarriers * delta_f``).  Every antenna's amplifier clips at
per-antenna saturation power ``p_max``; the Bussgang decomposition turns
the clipping into a linear gain ``lam`` and an additive distortion of
power ``D = ETA * dist_coeff * P`` at the transmitter, where ``ETA`` is
the precoder efficiency (2/3 for the precoders considered here) and
``P`` the total transmit power split as ``p_k = omega_k * P``.  K is
the length of the user set, so a :class:`SystemConfig` states only the
base station.

With large-scale channel gains ``beta_k``, per-user noise powers
``sigma_k^2`` and channel-estimation error fractions ``delta_k``, every
precoder shares one closed-form effective SINDR (:func:`sindr`):

    gamma_k = g lam p_k beta_k (1 - delta_k)
              / (sigma_k^2 + beta_k D + l_k lam beta_k (P - p_k))

with array gain ``g`` and interference leakage ``l_k`` set by the
precoder:

* zero-forcing (``"zf"``):            g = M - K, l_k = 0, delta_k = 0
  (:func:`zf_gain`)
* maximum ratio (``"mrt"``):          g = M,     l_k = 1, delta_k = 0
* zero-forcing, imperfect CSI
  (``"zf_icsi"``):                    g = M - K, l_k = delta_k

and the ergodic rate of user k is ``B * log2(1 + gamma_k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from dapalloc._fields import NONNEGATIVE, POSITIVE, check, require
from dapalloc.pa_model import (
    ETA,
    SOFT_LIMITER,
    PaModel,
    PaOperatingPoint,
    bussgang_gain_rapp,
    bussgang_gain_soft,
    distortion_coeff_rapp,
    distortion_coeff_soft,
    input_backoff,
)

__all__ = [
    "SystemConfig",
    "UeSet",
    "Allocation",
    "EvalReport",
    "operating_point_at",
    "zf_gain",
    "sindr",
    "rates",
    "evaluate",
    "csi_error_factor",
]

_OMEGA_SUM_TOL = 1e-9
# evaluate rates at most this many rows per array block, so its
# temporaries stay (128, K) however long the chunk is
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class SystemConfig:
    """The base station, shared by all solvers and metrics.

    The user count K is the length of the :class:`UeSet` it serves
    (:func:`zf_gain` checks K < M) and the precoder efficiency is the
    constant :data:`~dapalloc.pa_model.ETA`.

    Attributes:
        m_antennas: number of base-station antennas M.
        p_max: per-antenna amplifier saturation power in watts.
        bandwidth_hz: total signal bandwidth B in Hz.
        pa: amplifier law used when evaluating operating points.
    """

    m_antennas: int
    p_max: float
    bandwidth_hz: float
    pa: PaModel = field(default_factory=PaModel)

    def __post_init__(self) -> None:
        check(self, m_antennas=1, p_max=POSITIVE, bandwidth_hz=POSITIVE)


@dataclass(frozen=True)
class UeSet:
    """Large-scale state of the served users.

    Attributes:
        beta: length-K array of channel gains (linear, not dB).
        noise_w: length-K array of receiver noise powers in watts.
        csi_delta: optional length-K array of channel-estimation error
            fractions in [0, 1); required by the ``"zf_icsi"`` precoder of :func:`sindr`.
    """

    beta: np.ndarray
    noise_w: np.ndarray
    csi_delta: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        check(self, beta=POSITIVE, noise_w=POSITIVE, csi_delta=NONNEGATIVE)
        beta = np.atleast_1d(np.asarray(self.beta, dtype=np.float64))
        if beta.size == 0:
            raise ValueError("need at least one user")
        noise = np.atleast_1d(np.asarray(self.noise_w, dtype=np.float64))
        if noise.size == 1 and beta.size > 1:
            noise = np.full(beta.shape, noise.item())
        if beta.shape != noise.shape or beta.ndim != 1:
            raise ValueError("beta and noise_w must be 1-D arrays of equal length")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "noise_w", noise)
        if self.csi_delta is not None:
            delta = np.atleast_1d(np.asarray(self.csi_delta, dtype=np.float64))
            if delta.shape != beta.shape:
                raise ValueError("csi_delta must match beta in length")
            if not (delta < 1.0).all():
                raise ValueError("csi_delta must be below 1")
            object.__setattr__(self, "csi_delta", delta)

    @property
    def n_users(self) -> int:
        return int(self.beta.size)


@dataclass(frozen=True)
class Allocation:
    """A transmit-power decision: total power plus per-user fractions.

    ``omega`` must be nonnegative and sum to 1 within 1e-9.
    """

    total_power_p: float
    omega: np.ndarray

    def __post_init__(self) -> None:
        require("total_power_p", self.total_power_p, NONNEGATIVE)
        omega = np.atleast_1d(np.asarray(self.omega, dtype=np.float64))
        if omega.ndim != 1:
            raise ValueError("omega must be one-dimensional")
        _check_fractions(self.omega, omega)
        object.__setattr__(self, "omega", omega)

    @property
    def per_user_power(self) -> np.ndarray:
        return self.omega * self.total_power_p


def _check_fractions(given, omega: np.ndarray, n_users: Optional[int] = None) -> None:
    """The fractions rule on the ``given`` fractions, with ``omega`` their
    float array: nonnegative rows (along the last axis) of ``n_users``
    entries if that is given, each row summing to 1 within 1e-9."""
    if n_users is not None and omega.shape[-1:] != (n_users,):
        raise ValueError("omega length must match the user set")
    require("omega", given, NONNEGATIVE)
    if not (abs(omega.sum(axis=-1) - 1.0) <= _OMEGA_SUM_TOL).all():
        raise ValueError("omega entries must sum to 1")


@dataclass(frozen=True)
class EvalReport:
    """Rates and diagnostics of one allocation on one user set."""

    sindr: np.ndarray
    rate: np.ndarray
    sum_rate: float
    ibo_db: float
    operating_point: PaOperatingPoint


def operating_point_at(cfg: SystemConfig, total_power_p):
    """Amplifier gain/distortion state at a given total power.

    ``total_power_p = 0`` is the idle transmitter: infinite back-off,
    unit gain, zero distortion.  A negative, NaN or infinite power
    raises ``ValueError``.

    A 1-D array of powers gives a list with one point per power, each
    bitwise its scalar call.  The clipper law runs once over all of
    them, the Rapp laws once per distinct power, each on one float
    back-off.
    """
    power = np.asarray(total_power_p, dtype=np.float64)
    if power.ndim > 1:
        raise ValueError("total power must be a scalar or a 1-D array")
    require("total_power_p", total_power_p, NONNEGATIVE)
    points = [PaOperatingPoint(*state) for state in _states(cfg, power.reshape(-1)).T.tolist()]
    return points[0] if power.ndim == 0 else points


def _states(cfg: SystemConfig, power: np.ndarray) -> np.ndarray:
    """The fields of :class:`PaOperatingPoint` at every entry of ``power``
    (nonnegative and finite), stacked on a new first axis.  The clipper
    law runs once over the positive powers, the Rapp laws once per
    distinct one."""
    live = power > 0.0
    values, where = power[live], slice(None)
    if cfg.pa.kind != SOFT_LIMITER:  # each distinct power once, in order of first appearance
        index = {v: i for i, v in enumerate(dict.fromkeys(values.tolist()))}
        where = np.array([index[v] for v in values.tolist()], dtype=np.intp)
        values = np.array(list(index), dtype=np.float64)
    psi = input_backoff(values, cfg.m_antennas, cfg.p_max)
    if cfg.pa.kind == SOFT_LIMITER:
        lam = bussgang_gain_soft(psi)
        coeff = distortion_coeff_soft(psi)
    else:  # PaModel admits only the two laws
        p = cfg.pa.smoothness_p
        lam = np.array([bussgang_gain_rapp(v, p) for v in psi.tolist()])
        coeff = np.array([distortion_coeff_rapp(v, p) for v in psi.tolist()])
    out = np.empty((4, *power.shape))
    out.T[...] = (math.inf, 1.0, 0.0, 0.0)  # the idle transmitter, at 0.0 and -0.0
    out[:, live] = np.array([psi, lam, coeff, ETA * coeff * values])[:, where]
    return out


def zf_gain(cfg: SystemConfig, ues: UeSet) -> int:
    """Zero-forcing array gain M - K of the base station serving ``ues``."""
    return _zf_gain(cfg.m_antennas, ues.n_users)


def _zf_gain(m_antennas: int, n_users: int) -> int:
    """M - K, after the rule K < M."""
    if n_users >= m_antennas:
        raise ValueError("antenna count must exceed user count")
    return m_antennas - n_users


def sindr(
    cfg: SystemConfig,
    ues: UeSet,
    alloc: Allocation,
    op: PaOperatingPoint,
    precoder: str = "zf",
) -> np.ndarray:
    """Per-user effective SINDR of one precoder (see the module docstring).

    ``precoder`` is one of ``"zf"``, ``"mrt"``, ``"zf_icsi"``.  Maximum
    ratio leaves the other users' power ``lam * beta_k * (P - p_k)`` as
    interference; with imperfect CSI each user's error fraction
    ``delta_k`` (from ``ues.csi_delta``) removes a factor ``1 - delta_k``
    from the coherent gain and leaks that share of the interference.
    With ``delta_k = 0`` the imperfect-CSI SINDR is bitwise the
    zero-forcing one.
    """
    states = np.array([op.lam, op.effective_distortion])
    return _rate_rows(cfg, ues.beta, ues.noise_w, alloc.total_power_p, alloc.omega, precoder,
                      ues.csi_delta, states)[0]


def rates(cfg: SystemConfig, sindr: np.ndarray) -> np.ndarray:
    """Per-user rates B * log2(1 + gamma) in bit/s."""
    require("sindr", sindr, NONNEGATIVE)
    return cfg.bandwidth_hz * np.log2(1.0 + np.asarray(sindr, dtype=np.float64))


def _rate_rows(cfg, beta, noise, power, omega, precoder="zf", csi_delta=None, states=None):
    """:func:`sindr`, :func:`rates` and the sum rate on arrays: (..., K)
    SINDRs and rates and (...) sum rates, each row bitwise the same
    rating of that row alone.

    ``beta``, ``noise``, ``omega`` and ``csi_delta`` are (..., K) user
    arrays, ``power`` the (...) total powers they broadcast against, and
    ``states`` the (lam, distortion) pair at ``power``, computed here if
    not given.  Every row gets the checks of :class:`Allocation`,
    :func:`zf_gain` and the fraction count, with their messages.
    """
    require("total_power_p", power, NONNEGATIVE)
    power = np.asarray(power, dtype=np.float64)
    omega_given, omega = omega, np.ascontiguousarray(omega, dtype=np.float64)
    _check_fractions(omega_given, omega, np.shape(beta)[-1])
    gain = _zf_gain(cfg.m_antennas, omega.shape[-1])
    lam, dist = _states(cfg, power)[[1, 3]] if states is None else states
    total_power_p, lam, dist = power[..., None], lam[..., None], dist[..., None]
    if precoder == "mrt":
        gain, delta, leak = cfg.m_antennas, 0.0, 1.0
    elif precoder == "zf_icsi":
        if csi_delta is None:
            raise ValueError("UeSet.csi_delta is required for imperfect-CSI SINDR")
        delta = leak = csi_delta
    elif precoder != "zf":
        raise ValueError(f"unknown precoder {precoder!r}")
    p_k = omega * total_power_p
    signal = gain * lam * p_k * beta
    floor = noise + beta * dist
    if precoder == "zf":
        # delta = leak = 0: skip the two vanishing terms on the hot path
        gamma = signal / floor
    else:
        leakage = lam * beta * leak * (total_power_p - p_k)
        gamma = signal * (1.0 - delta) / (floor + leakage)
    rate = rates(cfg, gamma)
    # a C-contiguous block sums each row as its 1-D call does; a strided one may not
    return gamma, rate, np.ascontiguousarray(rate).sum(axis=-1)


def evaluate(cfg: SystemConfig, ues, alloc, precoder: str = "zf"):
    """Full rate evaluation of an allocation: SINDRs, rates, back-off.

    ``precoder`` is one of ``"zf"``, ``"mrt"``, ``"zf_icsi"``.  The
    amplifier law comes from ``cfg.pa``.  Everything is recomputed from
    the inputs on every call; there is no hidden state.

    A chunk -- ``ues`` and ``alloc`` sequences of N user sets and
    allocations sharing ``cfg`` and ``precoder`` -- gives a list of N
    reports, each bitwise its one-set call.  One
    :func:`operating_point_at` call gives every allocation's amplifier
    state, and the rows of each user count K are rated in array blocks
    of up to 128 rows.
    """
    if isinstance(ues, UeSet):  # one user set: the chunk with N = 1
        (report,) = evaluate(cfg, [ues], [alloc], precoder)
        return report
    ues, alloc = list(ues), list(alloc)
    if len(ues) != len(alloc):
        raise ValueError("need one allocation per user set")
    ops = operating_point_at(cfg, [a.total_power_p for a in alloc])
    reports: list = [None] * len(ues)
    by_count: dict = {}  # rows of one user count and one fraction count stack
    for r, (one_set, one_alloc) in enumerate(zip(ues, alloc)):
        by_count.setdefault((one_set.n_users, one_alloc.omega.size), []).append(r)
    blocks = [rows[i:i + _BLOCK_ROWS] for rows in by_count.values() for i in range(0, len(rows), _BLOCK_ROWS)]
    for rows in blocks:
        csi = [ues[r].csi_delta for r in rows]
        gamma, rate, total = _rate_rows(
            cfg,
            np.array([ues[r].beta for r in rows]),
            np.array([ues[r].noise_w for r in rows]),
            [alloc[r].total_power_p for r in rows],
            [alloc[r].omega for r in rows],
            precoder,
            None if any(c is None for c in csi) else np.array(csi),
            np.array([[ops[r].lam for r in rows], [ops[r].effective_distortion for r in rows]]),
        )
        for r, one_sindr, one_rate, sum_rate in zip(rows, gamma, rate, total.tolist()):
            reports[r] = EvalReport(one_sindr, one_rate, sum_rate, ops[r].ibo_db, ops[r])
    return reports


def csi_error_factor(beta, pilot_len: int, rho_ul_w: float):
    """Channel-estimation error fraction from uplink pilot SNR.

    delta = 1 / (1 + pilot_len * rho_ul_w * beta)

    where ``pilot_len`` is the number of pilot symbols and ``rho_ul_w``
    the uplink pilot power in watts, with ``beta`` normalized the same
    way as in :class:`UeSet` (noise-power scale carried by beta).  The
    limits are delta -> 0 for strong channels and delta -> 1 for
    vanishing ones.
    """
    check(locals(), beta=NONNEGATIVE, pilot_len=1, rho_ul_w=POSITIVE)
    arr = np.asarray(beta, dtype=np.float64)
    out = 1.0 / (1.0 + pilot_len * rho_ul_w * arr)
    return float(out) if np.ndim(beta) == 0 else out
