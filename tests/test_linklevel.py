"""Waveform-level clipper simulation versus the closed-form predictions."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from dapalloc import linklevel
from dapalloc.linklevel import (
    LinkSdrPoint,
    LinkSimConfig,
    analytic_sdr_db,
    simulate_sdr,
    write_sdr_csv,
)
from dapalloc.pa_model import bussgang_gain_soft, distortion_coeff_soft
import linklevel_reference

# Small but statistically meaningful config: runs in well under a second.
SMALL = LinkSimConfig(
    m_antennas=16,
    n_users=2,
    ibo_grid_db=(4.0,),
    fft_size=128,
    n_used_subcarriers=48,
    cp_len=16,
    n_symbols=48,
    seed=3,
)


def test_analytic_formula_zf():
    # (M - K) lam / (K eta c) against the frozen clipper table
    lam = bussgang_gain_soft(10 ** 0.6)
    c = distortion_coeff_soft(10 ** 0.6)
    want = 10 * math.log10((64 - 4) * lam / (4 * (2 / 3) * c))
    assert analytic_sdr_db(6.0, 64, 4, "zf") == pytest.approx(want, rel=1e-14)
    assert analytic_sdr_db(6.0, 64, 4, "zf") == pytest.approx(41.2086702682, rel=1e-10)
    assert analytic_sdr_db(2.0, 64, 1, "zf") == pytest.approx(35.0368346858, rel=1e-10)


def test_analytic_formula_mrt():
    lam = bussgang_gain_soft(1.0)
    c = distortion_coeff_soft(1.0)
    want = 10 * math.log10(64 * lam / (2 * (2 / 3) * c + lam))
    assert analytic_sdr_db(0.0, 64, 2, "mrt") == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        analytic_sdr_db(0.0, 64, 2, "vector_perturbation")
    # deep back-off: distortion underflows, prediction diverges cleanly
    assert analytic_sdr_db(40.0, 64, 1, "zf") == math.inf


def test_small_sim_matches_prediction():
    pt = simulate_sdr(SMALL)[0]
    assert isinstance(pt, LinkSdrPoint)
    assert abs(pt.sdr_meas_db - pt.sdr_analytic_db) < 1.0
    # determinism pin for the configured seed
    assert pt.sdr_meas_db == pytest.approx(30.437936276057705, rel=1e-12)
    assert pt.n_symbols == 48


def test_clip_statistics():
    pt = simulate_sdr(SMALL)[0]
    assert pt.clip_fraction == pytest.approx(0.0833423755787037, rel=1e-12)
    # per-sample clip probability at the *realized* per-antenna powers
    # (exp(-psi) itself is biased low by Jensen at finite M);
    # binomial three-sigma envelope around the conditional prediction
    n = pt.n_samples
    pvar = pt.conditional_clip_fraction * (1 - pt.conditional_clip_fraction) / n
    # antenna powers are not identical, so allow the envelope plus the
    # observed dispersion across antennas
    spread = float(np.std(np.exp(-1.0 / pt.per_antenna_power)))
    tol = 3.0 * math.sqrt(pvar) + spread
    assert abs(pt.clip_fraction - pt.conditional_clip_fraction) < tol
    assert pt.expected_clip_fraction == pytest.approx(math.exp(-(10 ** 0.4)), rel=1e-12)


def test_mean_antenna_power_tracks_total():
    pt = simulate_sdr(SMALL)[0]
    total = SMALL.m_antennas * 1.0 / 10 ** 0.4
    want = total / SMALL.m_antennas
    # finite symbol count: a few percent of statistical slack
    assert pt.mean_tx_power_per_antenna == pytest.approx(want, rel=0.05)
    assert pt.per_antenna_power.shape == (16,)


def test_linear_gain_calibration():
    # the least-squares channel must match sqrt(lam) times the precoded
    # gain to well under a percent, otherwise the Bussgang layer is off
    pt = simulate_sdr(SMALL)[0]
    assert pt.bussgang_gain_err < 0.01


def test_determinism_across_calls():
    a = simulate_sdr(SMALL)[0]
    b = simulate_sdr(SMALL)[0]
    assert a.sdr_meas_db == b.sdr_meas_db
    assert a.clip_fraction == b.clip_fraction
    # a different seed must actually change the draw
    c = simulate_sdr(
        LinkSimConfig(
            m_antennas=16,
            n_users=2,
            ibo_grid_db=(4.0,),
            fft_size=128,
            n_used_subcarriers=48,
            cp_len=16,
            n_symbols=48,
            seed=4,
        )
    )[0]
    assert c.sdr_meas_db != a.sdr_meas_db


def test_grid_points_are_independent():
    cfg2 = LinkSimConfig(
        m_antennas=16,
        n_users=2,
        ibo_grid_db=(4.0, 8.0),
        fft_size=128,
        n_used_subcarriers=48,
        cp_len=16,
        n_symbols=48,
        seed=3,
    )
    pts = simulate_sdr(cfg2)
    assert [p.ibo_db for p in pts] == [4.0, 8.0]
    assert pts[0].sdr_meas_db == pytest.approx(30.437936276057705, rel=1e-12)
    # more back-off, cleaner signal
    assert pts[1].sdr_meas_db > pts[0].sdr_meas_db


def test_mrt_point_runs():
    cfg = LinkSimConfig(
        m_antennas=16,
        n_users=2,
        ibo_grid_db=(4.0,),
        fft_size=128,
        n_used_subcarriers=48,
        cp_len=16,
        n_symbols=48,
        seed=3,
        precoder="mrt",
    )
    pt = simulate_sdr(cfg)[0]
    # MRT keeps multi-user interference in the residual: measured "SDR"
    # sits near the analytic interference-limited value
    assert abs(pt.sdr_meas_db - pt.sdr_analytic_db) < 1.5


def test_csv_columns(tmp_path):
    pts = simulate_sdr(SMALL)
    path = tmp_path / "lls.csv"
    write_sdr_csv(pts, str(path))
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "ibo_db",
        "precoder",
        "m_antennas",
        "n_users",
        "sdr_meas_db",
        "sdr_analytic_db",
        "n_symbols",
        "clip_fraction",
    ]
    row = lines[1].split(",")
    assert float(row[4]) == pytest.approx(pts[0].sdr_meas_db, rel=1e-15)
    assert row[1] == "zf"


def test_config_validation():
    base = dict(m_antennas=16, n_users=2, ibo_grid_db=(4.0,))
    with pytest.raises(ValueError):
        LinkSimConfig(**{**base, "precoder": "dpc"})
    with pytest.raises(ValueError):
        LinkSimConfig(m_antennas=2, n_users=2, ibo_grid_db=(4.0,))
    with pytest.raises(ValueError):
        LinkSimConfig(**{**base, "n_used_subcarriers": 512, "fft_size": 512})
    with pytest.raises(ValueError):
        LinkSimConfig(**{**base, "cp_len": 512})
    with pytest.raises(ValueError):
        LinkSimConfig(**{**base, "n_symbols": 1})
    with pytest.raises(ValueError):
        LinkSimConfig(**{**base, "ibo_grid_db": ()})


@pytest.mark.parametrize(
    "name, value",
    [
        ("seed", 1.5),
        ("seed", -1),
        ("seed", 2**64),
        ("fft_size", 512.5),
        ("n_symbols", 20.5),
        ("cp_len", 3.5),
        ("m_antennas", 16.0),
        ("ibo_grid_db", "45"),
    ],
)
def test_config_rejects_a_value_of_the_wrong_kind_by_name(name, value):
    # seed 1.5 ran as seed 1, "45" as the grid (4.0, 5.0), and the others
    # failed only in simulate_sdr with an error that named no field
    with pytest.raises(ValueError, match=f"^{name} must "):
        LinkSimConfig(**{"m_antennas": 16, "n_users": 2, "ibo_grid_db": (4.0,), name: value})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_rejects_a_non_finite_backoff(bad):
    # a non-finite back-off gave a NaN or infinite SDR row, not an error
    with pytest.raises(ValueError, match="^ibo_grid_db entries must be finite$"):
        LinkSimConfig(m_antennas=16, n_users=2, ibo_grid_db=(4.0, bad))


@pytest.mark.parametrize("bad", ["4", True, None])
def test_config_rejects_a_backoff_that_is_no_number(bad):
    # float() read "4" as 4.0 and true as 1.0 dB
    with pytest.raises(ValueError, match="^ibo_grid_db entries must be a number$"):
        LinkSimConfig(m_antennas=16, n_users=2, ibo_grid_db=(4.0, bad))


def test_an_int_backoff_is_stored_as_its_float():
    cfg = LinkSimConfig(m_antennas=16, n_users=2, ibo_grid_db=[-2, 4])
    assert cfg.ibo_grid_db == (-2.0, 4.0) and all(type(v) is float for v in cfg.ibo_grid_db)


def _point_fields(pt):
    return {
        f.name: getattr(pt, f.name) if isinstance(getattr(pt, f.name), np.ndarray)
        else repr(getattr(pt, f.name))
        for f in dataclasses.fields(pt)
    }


def test_kernel_is_bitwise_the_reference(monkeypatch):
    # The kernel transforms antenna-major, counts the prefix from the
    # symbol's tail and scales only the samples that clip; every field
    # must keep the bits of the symbol-major form.  K=1 catches an x_rx
    # laid out differently from the fancy index (the sums over r add in
    # another order), fft sizes 96 and 100 an ifft scaled by norm=.
    # The block size sets the order the sums add in, so kernel and
    # reference run at each size together; 7 divides no case's symbol
    # count, and 53 symbols end on a partial block at 4 as well.
    # A point where no sample clips reads +inf dB in both, unless MRT
    # serves more than one user: its interference is measured.
    base = dict(m_antennas=8, n_used_subcarriers=40, ibo_grid_db=(-6.0, 3.0, 20.0), seed=11)
    cases = [
        dict(fft_size=64, cp_len=0, n_users=1, precoder="zf", n_symbols=10),
        dict(fft_size=96, cp_len=7, n_users=3, precoder="mrt", n_symbols=30),
        dict(fft_size=128, cp_len=16, n_users=2, precoder="zf", n_symbols=50),
        dict(fft_size=100, cp_len=5, n_users=1, precoder="mrt", n_symbols=24),
        dict(fft_size=64, cp_len=3, n_users=2, precoder="zf", n_symbols=53),
        dict(m_antennas=64, n_users=1, fft_size=128, n_used_subcarriers=32, cp_len=8, n_symbols=24,
             seed=0, ibo_grid_db=(20.0, 3.0)),
    ]
    for block, case in itertools.product((1, linklevel._SYMBOL_BLOCK, 7), cases):
        monkeypatch.setattr(linklevel, "_SYMBOL_BLOCK", block)
        cfg = LinkSimConfig(**{**base, **case})
        clip_fractions, sdrs = [], []
        for index, ibo_db in enumerate(cfg.ibo_grid_db):
            got = _point_fields(linklevel._simulate_point(cfg, ibo_db, index))
            want = _point_fields(linklevel_reference.simulate_point(cfg, ibo_db, index))
            assert got.keys() == want.keys()
            for name, value in want.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(got[name], value), (block, case, ibo_db, name)
                else:
                    assert got[name] == value, (block, case, ibo_db, name)
            clip_fractions.append(float(want["clip_fraction"]))
            sdrs.append(float(want["sdr_meas_db"]))
        if cfg.ibo_grid_db == base["ibo_grid_db"]:
            # the grid spans both ends: most samples clip at -6 dB, none at 20 dB
            assert clip_fractions[0] > 0.5 and clip_fractions[2] == 0.0, case
            interference = cfg.precoder == "mrt" and cfg.n_users > 1
            assert math.isfinite(sdrs[2]) == interference, case
        else:
            assert sdrs[0] == math.inf and clip_fractions[1] > 0.0 and math.isfinite(sdrs[1]), case


def test_a_point_where_no_sample_clips_reads_plus_inf_db():
    # 20 dB clips no sample, so no distortion is there to measure: +inf dB
    # by rule (the residual, all rounding, read 155 dB), with no warning
    cfg = LinkSimConfig(m_antennas=64, n_users=1, ibo_grid_db=(20.0, 3.0), fft_size=128,
                        n_used_subcarriers=32, cp_len=8, n_symbols=24, seed=0)
    quiet, clipped = simulate_sdr(cfg)
    assert quiet.clip_fraction == 0.0
    assert quiet.sdr_meas_db == math.inf and quiet.sdr_analytic_db == math.inf
    assert clipped.clip_fraction > 0.0 and math.isfinite(clipped.sdr_meas_db)
    assert abs(clipped.sdr_meas_db - clipped.sdr_analytic_db) < 1.0


def test_mrt_interference_is_measured_where_no_sample_clips():
    # MRT's residual holds the other users' signals, which the analytic
    # M / (K - 1) predicts; a clip-free point still measures it
    cfg = LinkSimConfig(m_antennas=8, n_users=3, ibo_grid_db=(20.0,), fft_size=96,
                        n_used_subcarriers=40, cp_len=7, precoder="mrt", n_symbols=30, seed=11)
    (point,) = simulate_sdr(cfg)
    assert point.clip_fraction == 0.0
    assert point.sdr_analytic_db == pytest.approx(10 * math.log10(8 / 2), abs=1e-6)
    assert abs(point.sdr_meas_db - point.sdr_analytic_db) < 1.0


def test_a_c02_point_keeps_its_working_set_small():
    # the kernel runs a few symbols at a time: spectra of a 24-symbol
    # chunk (12.6 MB each) peaked at 54.7 MB of traced allocation, and
    # sums over 24-symbol chunks with 4-symbol transforms at 19.1 MB
    import tracemalloc

    cfg = LinkSimConfig(m_antennas=64, n_users=4, ibo_grid_db=(4.0,), seed=2024)
    assert (cfg.fft_size, cfg.n_used_subcarriers, cfg.cp_len, cfg.n_symbols) == (512, 100, 32, 200)
    tracemalloc.start()
    try:
        linklevel._simulate_point(cfg, 4.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6, peak


def test_traced_kernel_records_its_transforms_and_einsums(monkeypatch):
    # perfbench/tracing.py times the kernel by rebinding linklevel.np; a
    # kernel that stops calling np.fft.* or np.einsum through it would
    # read 0 there instead of failing
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    cfg = LinkSimConfig(m_antennas=8, n_users=2, ibo_grid_db=(3.0,), fft_size=64,
                        n_used_subcarriers=20, cp_len=4, n_symbols=30, seed=1)
    plain = simulate_sdr(cfg)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = simulate_sdr(cfg)
    assert repr(traced) == repr(plain)
    spans = list(tracer.name_id)
    for name in ("linklevel.point", "linklevel.fft", "linklevel.einsum", "linklevel.linalg"):
        assert spans.count(tracer.name_of(name)) > 0, name
    assert min(tracer.observed["flops"]) > 0


def _cond(g):
    s = np.linalg.svd(g, compute_uv=False)
    return s[:, 0] / s[:, -1]


def test_ill_conditioned_channels_are_redrawn(monkeypatch):
    # at the default limit no tier-1 draw redraws; at 3 some 2 x 2
    # subcarrier channels do, and the same key still draws the same channels
    monkeypatch.setattr(linklevel, "_COND_LIMIT", 3.0)

    def draw():
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
        return linklevel._draw_channels(rng, 48, 2, 2)

    (g, redraws), (g_again, redraws_again) = draw(), draw()
    assert redraws > 0
    assert np.all(_cond(g) <= 3.0)
    assert g.tobytes() == g_again.tobytes() and redraws == redraws_again
    cfg = dataclasses.replace(SMALL, m_antennas=2, precoder="mrt")
    (point,) = simulate_sdr(cfg)
    assert point.n_channel_redraws > 0


def test_a_channel_limit_no_draw_meets_is_an_error(monkeypatch):
    # every condition number is at least 1, so at 1.0 the redraws never end
    monkeypatch.setattr(linklevel, "_COND_LIMIT", 1.0)
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    with pytest.raises(RuntimeError, match="^channel redraw limit exceeded"):
        linklevel._draw_channels(rng, 4, 2, 2)
