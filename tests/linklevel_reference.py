"""Symbol-major link-level kernel that the tests compare against.

:func:`dapalloc.linklevel._simulate_point` transforms along the
antenna-major layout, counts the cyclic prefix from each symbol's tail
and scales only the samples that clip; :func:`simulate_point` here is
the plain form it must match bit for bit: transforms along axis 1 of a
``(symbols, subcarriers, antennas)`` spectrum zeroed per block of
``linklevel._SYMBOL_BLOCK`` symbols, a copied prefix, and a clip factor
applied to every sample.
"""

import math

import numpy as np

from dapalloc import linklevel
from dapalloc.linklevel import (
    LinkSdrPoint,
    LinkSimConfig,
    _draw_channels,
    _precoding_weights,
    _used_bin_indices,
    analytic_sdr_db,
)
from dapalloc.pa_model import bussgang_gain_soft


def simulate_point(
    cfg: LinkSimConfig, ibo_db: float, point_index: int
) -> LinkSdrPoint:
    psi = 10.0 ** (ibo_db / 10.0)
    p_max = 1.0  # clip level; SDR is invariant to the absolute scale
    total_p = cfg.m_antennas * p_max / psi
    p_k = total_p / cfg.n_users
    n, n_used = cfg.fft_size, cfg.n_used_subcarriers
    m, k = cfg.m_antennas, cfg.n_users
    clip_amp = math.sqrt(p_max)

    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, point_index], dtype=np.uint64))
    )
    bins = _used_bin_indices(n, n_used)
    g, redraws = _draw_channels(rng, n_used, k, m)
    w = _precoding_weights(g, cfg.precoder, p_k)

    # Realized complex gain of the linear path, per (subcarrier, user).
    lin_gain = np.einsum("nkm,nmk->nk", g, w)

    cross = np.zeros((n_used, k), dtype=np.complex128)
    rec_power = np.zeros((n_used, k))
    sym_count = 0
    clip_count = 0
    sample_count = 0
    antenna_power_sum = np.zeros(m)

    block = linklevel._SYMBOL_BLOCK  # read per call: a test may patch it
    for start in range(0, cfg.n_symbols, block):
        ns = min(block, cfg.n_symbols - start)
        # Random 16-PSK symbols, unit power.
        phases = rng.integers(0, 16, size=(ns, n_used, k))
        s = np.exp(1j * (2.0 * np.pi / 16.0) * phases)

        x = np.einsum("nmk,snk->snm", w, s)  # frequency domain, used bins
        spec = np.zeros((ns, n, m), dtype=np.complex128)
        spec[:, bins, :] = x
        # Synthesis y_t = sum_f X_f e^{+j 2 pi f t / N}.
        y = np.fft.ifft(spec, axis=1) * n
        z = np.concatenate([y[:, n - cfg.cp_len :, :], y], axis=1)

        power = np.abs(z) ** 2
        antenna_power_sum += power.sum(axis=(0, 1))
        clip_count += int(np.count_nonzero(power > p_max))
        sample_count += power.size

        # Ideal clipper: magnitude capped at the saturation amplitude.
        amp = np.sqrt(power)
        z_clipped = z * np.minimum(1.0, clip_amp / np.maximum(amp, 1e-300))

        y_clipped = z_clipped[:, cfg.cp_len :, :]
        spec_rx = np.fft.fft(y_clipped, axis=1) / n
        x_rx = spec_rx[:, bins, :]
        r = np.einsum("snm,nkm->snk", x_rx, g)  # zero-noise reception

        cross += np.einsum("snk,snk->nk", r, np.conj(s))
        rec_power += np.sum(np.abs(r) ** 2, axis=0)
        sym_count += ns

    # Least-squares projection per (subcarrier, user): r = g_ls * s + resid.
    g_ls = cross / sym_count  # E|s|^2 = 1
    wanted = np.abs(g_ls) ** 2
    resid = rec_power / sym_count - wanted
    # Unbiased residual variance (one complex parameter estimated).
    resid = np.maximum(resid, 0.0) * (sym_count / (sym_count - 1))
    # no clipped sample and no MRT interference: nothing but rounding to measure
    measured = clip_count or (cfg.precoder == "mrt" and k > 1)
    sdr_meas_db = 10.0 * math.log10(float(np.sum(wanted) / np.sum(resid))) if measured else math.inf

    lam = bussgang_gain_soft(psi)
    pred_gain = math.sqrt(lam) * np.abs(lin_gain)
    per_user_err = np.abs(
        np.sum(np.abs(g_ls), axis=0) / np.sum(pred_gain, axis=0) - 1.0
    )

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
