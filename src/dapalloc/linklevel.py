"""Time-domain OFDM validation of the analytic distortion model.

The analytic rate model rests on one claim: a precoded OFDM signal
driven through per-antenna clippers behaves, in-band, like the same
signal scaled by ``sqrt(lam(psi))`` plus uncorrelated distortion noise
of power ``ETA * dist_coeff(psi) * P``.  This module checks that claim
end to end, with no analytic shortcuts on the signal path:

1. draw i.i.d. unit-variance complex-Gaussian channel coefficients,
   independently per subcarrier, user, and antenna;
2. build per-subcarrier zero-forcing (pseudo-inverse) or maximum-ratio
   (conjugate) weights, each user's weight column scaled so its total
   transmit power across antennas and subcarriers is exactly its share
   p_k = P/K;
3. synthesize the time-domain waveform per antenna (oversampled IFFT
   over the used subcarriers, laid out antenna-major), a block of a few
   symbols at a time, which bounds the working set; per-antenna mean
   power averages P/M by construction, which sets the back-off;
4. clip each antenna's samples at the saturation amplitude, counting the
   cyclic prefix's power and clips from the symbol tail it repeats;
5. propagate through the same frequency-domain channel with zero
   thermal noise, the analysis FFT block by block like the synthesis;
6. per (user, subcarrier), least-squares-project the received symbols
   onto the transmitted ones across OFDM symbols: the projection is the
   wanted (Bussgang-scaled) component, the residual is distortion.  The
   block size sets the order the sums of steps 4-6 add in.  A point
   where no sample clips has no distortion to measure: +inf dB, unless
   MRT's multi-user interference is in the residual.

The measured signal-to-distortion ratio is then compared against the
closed-form prediction (array gain x lam / distortion) on the same
back-off grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dapalloc._fields import REAL, U64, check, require
from dapalloc.metrics import _zf_gain
from dapalloc.pa_model import ETA, bussgang_gain_soft, distortion_coeff_soft

__all__ = [
    "LinkSimConfig",
    "LinkSdrPoint",
    "simulate_sdr",
    "write_sdr_csv",
    "analytic_sdr_db",
]

_COND_LIMIT = 1e8
_MAX_REDRAW_ROUNDS = 100
_SYMBOL_BLOCK = 4  # symbols per pass: bounds the working set and sets the order the sums add in


@dataclass(frozen=True)
class LinkSimConfig:
    """Configuration of one link-level SDR measurement run.

    Attributes:
        m_antennas / n_users: array and user counts (M > K for ZF).
        fft_size: IFFT length N (the oversampling grid).
        n_used_subcarriers: occupied subcarriers, mapped symmetrically
            around (and excluding) DC.
        cp_len: cyclic-prefix length in samples; the prefix plays no
            propagation role here but its samples are clipped and
            counted like any the transmitter would emit.
        precoder: "zf" or "mrt".
        ibo_grid_db: back-off grid to sweep, in dB.
        n_symbols: OFDM symbols of random 16-PSK measured per grid point.
        seed: master seed; every grid point derives its own stream.
    """

    m_antennas: int
    n_users: int
    ibo_grid_db: tuple[float, ...]
    fft_size: int = 512
    n_used_subcarriers: int = 100
    cp_len: int = 32
    precoder: str = "zf"
    n_symbols: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        check(self, m_antennas=1, n_users=1, fft_size=1, n_used_subcarriers=1, cp_len=0,
              n_symbols=2, seed=U64)
        if self.precoder not in ("zf", "mrt"):
            raise ValueError("precoder must be 'zf' or 'mrt'")
        if self.precoder == "zf" and self.m_antennas <= self.n_users:
            raise ValueError("zero-forcing requires more antennas than users")
        if self.n_used_subcarriers >= self.fft_size:
            raise ValueError("used subcarriers must fit inside the FFT grid")
        if self.cp_len >= self.fft_size:
            raise ValueError("cyclic prefix must be shorter than the FFT")
        # a str is a sequence too: "45" would read as (4.0, 5.0)
        if isinstance(self.ibo_grid_db, str) or len(self.ibo_grid_db) == 0:
            raise ValueError("ibo_grid_db must be a non-empty sequence")
        for value in self.ibo_grid_db:
            require("ibo_grid_db entries", value, REAL)
        object.__setattr__(self, "ibo_grid_db", tuple(float(v) for v in self.ibo_grid_db))


@dataclass(frozen=True)
class LinkSdrPoint:
    """Measured and predicted SDR at one back-off, plus diagnostics."""

    ibo_db: float
    precoder: str
    m_antennas: int
    n_users: int
    sdr_meas_db: float
    sdr_analytic_db: float
    n_symbols: int
    clip_fraction: float
    # Diagnostics beyond the CSV columns:
    expected_clip_fraction: float
    conditional_clip_fraction: float
    n_samples: int
    mean_tx_power_per_antenna: float
    per_antenna_power: np.ndarray
    bussgang_gain_err: float
    n_channel_redraws: int


def analytic_sdr_db(
    ibo_db: float, m_antennas: int, n_users: int, precoder: str = "zf"
) -> float:
    """Closed-form zero-noise SDR prediction at a back-off value.

    ZF:  (M - K) * lam / (K * ETA * c)
    MRT:  M * lam / (K * ETA * c + lam * (K - 1))

    with lam and c the clipper gain/distortion at that back-off.  The
    value diverges (+inf dB) once c underflows at very large back-off.
    """
    check(locals(), ibo_db=REAL, m_antennas=1, n_users=1)
    psi = 10.0 ** (ibo_db / 10.0)
    lam = bussgang_gain_soft(psi)
    coeff = distortion_coeff_soft(psi, _lam=lam)
    if precoder == "zf":
        num = _zf_gain(m_antennas, n_users) * lam
        den = n_users * ETA * coeff
    elif precoder == "mrt":
        num = m_antennas * lam
        den = n_users * ETA * coeff + lam * (n_users - 1)
    else:
        raise ValueError("precoder must be 'zf' or 'mrt'")
    if den == 0.0:
        return math.inf
    return 10.0 * math.log10(num / den)


def _used_bin_indices(fft_size: int, n_used: int) -> np.ndarray:
    """Symmetric band around DC, DC itself excluded.

    ceil(n/2) positive-frequency bins 1..h and floor(n/2) negative bins.
    """
    n_pos = (n_used + 1) // 2
    n_neg = n_used - n_pos
    pos = np.arange(1, n_pos + 1)
    neg = np.arange(fft_size - n_neg, fft_size)
    return np.concatenate([pos, neg])


def _draw_channels(
    rng: np.random.Generator, n_sub: int, n_users: int, m_antennas: int
) -> tuple[np.ndarray, int]:
    """Per-subcarrier i.i.d. CN(0,1) channels, redrawing ill-conditioned ones."""

    def draw(count: int) -> np.ndarray:
        re = rng.standard_normal((count, n_users, m_antennas))
        im = rng.standard_normal((count, n_users, m_antennas))
        return (re + 1j * im) / np.sqrt(2.0)

    g = draw(n_sub)
    redraws = 0
    for _ in range(_MAX_REDRAW_ROUNDS):
        s = np.linalg.svd(g, compute_uv=False)
        bad = s[:, 0] / s[:, -1] > _COND_LIMIT
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            return g, redraws
        g[bad] = draw(n_bad)
        redraws += n_bad
    raise RuntimeError("channel redraw limit exceeded (pathological RNG state?)")


def _precoding_weights(
    g: np.ndarray, precoder: str, per_user_power: float
) -> np.ndarray:
    """Weights W[n, m, k], each user's column normalized to per_user_power."""
    gh = np.conj(np.transpose(g, (0, 2, 1)))  # (n, M, K)
    if precoder == "zf":
        gram = g @ gh  # (n, K, K)
        w = np.conj(np.transpose(np.linalg.solve(gram, g), (0, 2, 1)))
    else:  # mrt
        w = gh
    col_power = np.sum(np.abs(w) ** 2, axis=(0, 1))  # per user k
    w *= np.sqrt(per_user_power / col_power)
    return w


def _simulate_point(cfg: LinkSimConfig, ibo_db: float, point_index: int) -> LinkSdrPoint:
    psi = 10.0 ** (ibo_db / 10.0)
    p_max = 1.0  # clip level; SDR is invariant to the absolute scale
    total_p = cfg.m_antennas * p_max / psi
    p_k = total_p / cfg.n_users
    n, n_used = cfg.fft_size, cfg.n_used_subcarriers
    m, k = cfg.m_antennas, cfg.n_users
    clip_amp = math.sqrt(p_max)

    key = np.array([cfg.seed, point_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    bins = _used_bin_indices(n, n_used)
    g, redraws = _draw_channels(rng, n_used, k, m)
    w = _precoding_weights(g, cfg.precoder, p_k)

    # Realized complex gain of the linear path, per (subcarrier, user).
    lin_gain = np.einsum("nkm,nmk->nk", g, w)

    cross = np.zeros((n_used, k), dtype=np.complex128)
    rec_power = np.zeros((n_used, k))
    sym_count = cfg.n_symbols
    clip_count = 0
    antenna_power_sum = np.zeros(m)
    spec = np.zeros((_SYMBOL_BLOCK, m, n), dtype=np.complex128)  # antenna-major; unused bins stay 0
    emitted_power = np.empty((_SYMBOL_BLOCK, n + cfg.cp_len, m))  # symbol-major: sets the sum's order

    for start in range(0, cfg.n_symbols, _SYMBOL_BLOCK):
        ns = min(_SYMBOL_BLOCK, cfg.n_symbols - start)
        # Random 16-PSK symbols, unit power.
        phases = rng.integers(0, 16, size=(ns, n_used, k))
        s = np.exp(1j * (2.0 * np.pi / 16.0) * phases)
        spec[:ns, :, bins] = np.einsum("nmk,snk->smn", w, s)  # frequency domain
        # Synthesis y_t = sum_f X_f e^{+j 2 pi f t / N}.
        y = np.fft.ifft(spec[:ns])
        y *= n

        power = np.abs(y) ** 2
        emitted = emitted_power[:ns]  # the prefix repeats the symbol's tail
        emitted[:, cfg.cp_len :, :] = power.transpose(0, 2, 1)
        emitted[:, : cfg.cp_len, :] = emitted[:, n:, :]
        antenna_power_sum += emitted.sum(axis=(0, 1))
        clip_count += int(np.count_nonzero(emitted > p_max))

        # Ideal clipper: magnitude capped at the saturation amplitude.
        at = np.flatnonzero(power > p_max)
        y.reshape(-1)[at] *= clip_amp / np.sqrt(power.reshape(-1)[at])
        x_rx = np.fft.fft(y).transpose(0, 2, 1)[:, bins, :]  # subcarrier-major, as the reference's
        x_rx /= n
        r = np.einsum("snm,nkm->snk", x_rx, g)  # zero-noise reception

        cross += np.einsum("snk,snk->nk", r, np.conj(s))
        rec_power += np.sum(np.abs(r) ** 2, axis=0)

    # Least-squares projection per (subcarrier, user): r = g_ls * s + resid.
    g_ls = cross / sym_count  # E|s|^2 = 1
    wanted = np.abs(g_ls) ** 2
    resid = rec_power / sym_count - wanted
    # Unbiased residual variance (one complex parameter estimated).
    resid = np.maximum(resid, 0.0) * (sym_count / (sym_count - 1))
    # With no sample clipped the residual holds only rounding, unless MRT's
    # multi-user interference (which analytic_sdr_db predicts) is in it: +inf dB
    measured = clip_count or (cfg.precoder == "mrt" and k > 1)
    sdr_meas_db = 10.0 * math.log10(float(np.sum(wanted) / np.sum(resid))) if measured else math.inf

    lam = bussgang_gain_soft(psi)
    pred_gain = math.sqrt(lam) * np.abs(lin_gain)
    per_user_err = np.abs(np.sum(np.abs(g_ls), axis=0) / np.sum(pred_gain, axis=0) - 1.0)

    sample_count = sym_count * (n + cfg.cp_len) * m
    per_antenna_power = antenna_power_sum / (sym_count * (n + cfg.cp_len))
    cond_clip = float(np.mean(np.exp(-p_max / per_antenna_power)))

    return LinkSdrPoint(
        ibo_db=float(ibo_db),
        precoder=cfg.precoder,
        m_antennas=m,
        n_users=k,
        sdr_meas_db=sdr_meas_db,
        sdr_analytic_db=analytic_sdr_db(ibo_db, m, k, cfg.precoder),
        n_symbols=sym_count,
        clip_fraction=clip_count / sample_count,
        expected_clip_fraction=math.exp(-psi),
        conditional_clip_fraction=cond_clip,
        n_samples=sample_count,
        mean_tx_power_per_antenna=float(np.mean(per_antenna_power)),
        per_antenna_power=per_antenna_power,
        bussgang_gain_err=float(np.max(per_user_err)),
        n_channel_redraws=redraws,
    )


def simulate_sdr(cfg: LinkSimConfig) -> list[LinkSdrPoint]:
    """Measure SDR across the configured back-off grid.

    One independent random stream per grid point (keyed by the config
    seed and point index) makes the sweep deterministic and
    order-independent.  Returns one :class:`LinkSdrPoint` per grid
    value, in grid order.
    """
    return [
        _simulate_point(cfg, ibo_db, idx)
        for idx, ibo_db in enumerate(cfg.ibo_grid_db)
    ]


def write_sdr_csv(points: Sequence[LinkSdrPoint], path: str) -> None:
    """Write the standard measurement columns as CSV (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "ibo_db,precoder,m_antennas,n_users,"
            "sdr_meas_db,sdr_analytic_db,n_symbols,clip_fraction\n"
        )
        for p in points:
            fh.write(
                f"{p.ibo_db:.17g},{p.precoder},{p.m_antennas},{p.n_users},"
                f"{p.sdr_meas_db:.17g},{p.sdr_analytic_db:.17g},"
                f"{p.n_symbols},{p.clip_fraction:.17g}\n"
            )
