"""SINDR / rate layer: algebraic anchors and wiring checks."""

import math

import numpy as np
import pytest

from dapalloc.allocator import ALGORITHMS
from dapalloc.dapa import solve_dapa, sum_rate_derivative
from dapalloc.fpda import breakpoints
from dapalloc.metrics import (
    Allocation,
    EvalReport,
    SystemConfig,
    UeSet,
    _rate_rows,
    csi_error_factor,
    evaluate,
    operating_point_at,
    rates,
    sindr,
    zf_gain,
)
from dapalloc.pa_model import PaModel, bussgang_gain_rapp, input_backoff

RNG = np.random.default_rng(20240817)


def _cfg(m=64, p_max=0.01, bw=18e6, **kw):
    return SystemConfig(m_antennas=m, p_max=p_max, bandwidth_hz=bw, **kw)


# ---------------------------------------------------------------- dataclasses


def test_system_config_validation():
    with pytest.raises(ValueError):
        _cfg(p_max=0.0)
    with pytest.raises(ValueError):
        _cfg(bw=-1.0)
    with pytest.raises(ValueError, match="p_max"):
        _cfg(p_max=math.nan)
    with pytest.raises(ValueError, match="bandwidth_hz"):
        _cfg(bw=math.nan)
    with pytest.raises(ValueError, match="m_antennas"):
        _cfg(m=0)
    with pytest.raises(ValueError, match="m_antennas"):
        _cfg(m=64.0)
    # a number given as a string names its field
    with pytest.raises(ValueError, match="p_max"):
        _cfg(p_max="0.01")
    with pytest.raises(ValueError, match="bandwidth_hz"):
        _cfg(bw="0.01")
    # a bool is an int to Python, but no antenna count or power
    with pytest.raises(ValueError, match="^m_antennas must be a positive int$"):
        _cfg(m=True)
    with pytest.raises(ValueError, match="^p_max must be a number$"):
        _cfg(p_max=True)


_TWO = UeSet(beta=np.full(2, 1e-10), noise_w=7.2e-14, csi_delta=np.full(2, 0.1))
_HALF = np.full(2, 0.5)
_USER_COUNT_CASES = {
    "UeSet-empty": lambda cfg: UeSet(beta=np.array([]), noise_w=np.array([])),
    "evaluate-zf": lambda cfg: evaluate(cfg, _TWO, Allocation(0.01, _HALF), "zf"),
    "evaluate-mrt": lambda cfg: evaluate(cfg, _TWO, Allocation(0.01, _HALF), "mrt"),
    "evaluate-zf_icsi": lambda cfg: evaluate(cfg, _TWO, Allocation(0.01, _HALF), "zf_icsi"),
    "breakpoints": lambda cfg: breakpoints(_TWO, cfg, 0.01, operating_point_at(cfg, 0.01)),
    "sum_rate_derivative": lambda cfg: sum_rate_derivative(0.01, _TWO, _HALF, cfg),
    "solve_dapa": lambda cfg: solve_dapa(_TWO, _HALF, cfg),
    **{label: (lambda cfg, run=run: run(_TWO, cfg)) for label, run in ALGORITHMS.items()},
}


@pytest.mark.parametrize("case", _USER_COUNT_CASES.values(), ids=list(_USER_COUNT_CASES))
def test_user_count_is_checked(case):
    # K is the user set's length: two users on two antennas leave no
    # zero-forcing array gain, and a set needs at least one user
    with pytest.raises(ValueError, match="user"):
        case(_cfg(m=2))


def test_ueset_broadcast_and_validation():
    ues = UeSet(beta=np.array([1e-10, 1e-12]), noise_w=7e-14)
    assert ues.noise_w.shape == (2,)
    assert ues.n_users == 2
    with pytest.raises(ValueError):
        UeSet(beta=np.array([1e-10, -1e-12]), noise_w=7e-14)
    with pytest.raises(ValueError):
        UeSet(beta=np.array([1e-10]), noise_w=0.0)
    with pytest.raises(ValueError):
        UeSet(beta=np.array([1e-10, 1e-12]), noise_w=np.array([1e-14, 1e-14, 1e-14]))
    with pytest.raises(ValueError):
        UeSet(beta=np.array([1e-10]), noise_w=1e-14, csi_delta=np.array([1.0]))
    with pytest.raises(ValueError):
        UeSet(beta=np.array([1e-10]), noise_w=1e-14, csi_delta=np.array([-0.1]))
    with pytest.raises(ValueError, match="beta"):
        UeSet(beta=np.array([math.nan]), noise_w=1e-14)
    with pytest.raises(ValueError, match="noise_w"):
        UeSet(beta=np.array([1e-10]), noise_w=math.nan)
    with pytest.raises(ValueError, match="csi_delta"):
        UeSet(beta=np.array([1e-10]), noise_w=1e-14, csi_delta=np.array([math.nan]))
    with pytest.raises(ValueError, match="^csi_delta must match beta in length$"):
        UeSet(beta=np.array([1e-10, 1e-12]), noise_w=1e-14, csi_delta=np.array([0.1]))


def test_allocation_validation():
    a = Allocation(total_power_p=0.5, omega=np.array([0.7, 0.3]))
    np.testing.assert_allclose(a.per_user_power, [0.35, 0.15], rtol=1e-15)
    with pytest.raises(ValueError):
        Allocation(total_power_p=-0.1, omega=np.array([1.0]))
    with pytest.raises(ValueError):
        Allocation(total_power_p=0.5, omega=np.array([0.7, 0.31]))
    with pytest.raises(ValueError):
        Allocation(total_power_p=0.5, omega=np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="total_power_p"):
        Allocation(total_power_p=math.nan, omega=np.array([1.0]))
    with pytest.raises(ValueError, match="omega"):
        Allocation(total_power_p=1.0, omega=np.array([math.nan]))
    with pytest.raises(ValueError, match="^omega must be one-dimensional$"):
        Allocation(total_power_p=1.0, omega=np.full((2, 2), 0.25))


# ------------------------------------------------------------ operating point


def test_idle_transmitter():
    op = operating_point_at(_cfg(), 0.0)
    assert op.ibo == math.inf
    assert op.lam == 1.0
    assert op.dist_coeff == 0.0
    assert op.effective_distortion == 0.0
    with pytest.raises(ValueError):
        operating_point_at(_cfg(), -1e-9)


def test_operating_point_unit_backoff():
    # P = M * p_max puts the clipper at psi = 1
    cfg = _cfg()
    op = operating_point_at(cfg, cfg.m_antennas * cfg.p_max)
    assert op.ibo == pytest.approx(1.0, rel=1e-15)
    assert op.lam == pytest.approx(0.59524828186178631191, rel=3e-15)
    assert op.dist_coeff == pytest.approx(0.036872276966771366499, rel=2e-12)
    assert op.effective_distortion == pytest.approx(
        (2.0 / 3.0) * op.dist_coeff * cfg.m_antennas * cfg.p_max, rel=1e-15
    )
    assert op.ibo_db == pytest.approx(0.0, abs=1e-14)


def test_operating_point_rapp_dispatch():
    cfg = _cfg(pa=PaModel("rapp", 2.0))
    op = operating_point_at(cfg, cfg.m_antennas * cfg.p_max)
    assert op.lam == pytest.approx(0.5129139391851616729, rel=1e-9)
    assert op.lam == pytest.approx(bussgang_gain_rapp(1.0, 2.0), rel=1e-12)


# -------------------------------------------------------------------- sindr


def test_zf_hand_recomputation():
    cfg = _cfg()
    ues = UeSet(beta=np.array([1e-10, 3e-12]), noise_w=7.165929069962951e-14)
    alloc = Allocation(0.2, np.array([0.4, 0.6]))
    op = operating_point_at(cfg, alloc.total_power_p)
    got = sindr(cfg, ues, alloc, op)
    for k in range(2):
        num = (64 - 2) * op.lam * alloc.per_user_power[k] * ues.beta[k]
        den = ues.noise_w[k] + ues.beta[k] * op.effective_distortion
        assert got[k] == pytest.approx(num / den, rel=1e-15)


# Distortion-limited ZF anchors (noise -> 0): gamma_k = (M-K)*lam/(K*eta*c)
# for the equal split.  mpmath references, M = 64, in dB, at back-offs
# -2, 0, 2, 4, 6, 8 dB.
ZF_CEILING_DB = {
    1: [29.7021485876, 31.8343000169, 35.0368346858, 39.9173465768,
        47.4411631722, 59.0289198356],
    4: [23.4696556836, 25.6018071129, 28.8043417818, 33.6848536728,
        41.2086702682, 52.7964269316],
}


@pytest.mark.parametrize("k", [1, 4])
def test_zf_distortion_ceiling(k):
    """Vanishing noise leaves the closed-form distortion-limited SINDR."""
    cfg = _cfg()
    ues = UeSet(beta=np.full(k, 1e-8), noise_w=np.full(k, 1e-45))
    for ibo_db, want_db in zip([-2, 0, 2, 4, 6, 8], ZF_CEILING_DB[k]):
        psi = 10 ** (ibo_db / 10)
        total = cfg.m_antennas * cfg.p_max / psi
        alloc = Allocation(total, np.full(k, 1.0 / k))
        got = sindr(cfg, ues, alloc, operating_point_at(cfg, alloc.total_power_p))
        np.testing.assert_allclose(10 * np.log10(got), want_db, rtol=1e-10)


def test_zf_scale_invariance_exact():
    """Scaling beta and noise by the same power of two changes nothing."""
    cfg = _cfg(m=32)
    beta = np.array([1e-10, 4e-12, 8e-11])
    noise = np.array([7e-14, 7e-14, 9e-14])
    alloc = Allocation(0.11, np.array([0.2, 0.5, 0.3]))
    op = operating_point_at(cfg, alloc.total_power_p)
    base = sindr(cfg, UeSet(beta, noise), alloc, op)
    scaled = sindr(cfg, UeSet(beta * 1024.0, noise * 1024.0), alloc, op)
    assert np.array_equal(base, scaled)


def test_mrt_vs_zf_single_user():
    # K = 1 has no multi-user interference; the precoders differ only in
    # array gain, M versus M - K
    cfg = SystemConfig(m_antennas=64, p_max=0.01, bandwidth_hz=18e6)
    ues = UeSet(beta=np.array([1e-11]), noise_w=7.2e-14)
    alloc = Allocation(0.3, np.array([1.0]))
    op = operating_point_at(cfg, alloc.total_power_p)
    ratio = sindr(cfg, ues, alloc, op, "mrt")[0] / sindr(cfg, ues, alloc, op)[0]
    assert ratio == pytest.approx(64.0 / 63.0, rel=1e-15)


def test_mrt_interference_hurts():
    cfg = _cfg()
    ues = UeSet(beta=np.array([1e-10, 1e-10]), noise_w=7.2e-14)
    alloc = Allocation(0.2, np.array([0.5, 0.5]))
    op = operating_point_at(cfg, alloc.total_power_p)
    # with equal betas and strong signal the residual interference dominates:
    # MRT must come out below ZF here
    assert np.all(sindr(cfg, ues, alloc, op, "mrt") < sindr(cfg, ues, alloc, op))


def test_icsi_zero_delta_is_bitwise_zf():
    """delta = 0 must hit the exact same floats as the perfect-CSI path."""
    cfg_base = _cfg(m=128)
    for _ in range(100):
        beta = 10 ** RNG.uniform(-16, -6, size=4)
        noise = 10 ** RNG.uniform(-15, -12, size=4)
        omega = RNG.dirichlet(np.ones(4))
        total = 10 ** RNG.uniform(-3, 1)
        ues0 = UeSet(beta, noise, csi_delta=np.zeros(4))
        alloc = Allocation(total, omega)
        op = operating_point_at(cfg_base, alloc.total_power_p)
        perfect = sindr(cfg_base, UeSet(beta, noise), alloc, op)
        icsi = sindr(cfg_base, ues0, alloc, op, "zf_icsi")
        assert np.array_equal(perfect, icsi)


def test_icsi_positive_delta_strictly_below_zf():
    cfg = _cfg()
    beta = np.array([1e-10, 1e-11, 1e-12])
    noise = np.full(3, 7.2e-14)
    alloc = Allocation(0.15, np.array([0.3, 0.3, 0.4]))
    op = operating_point_at(cfg, alloc.total_power_p)
    perfect = sindr(cfg, UeSet(beta, noise), alloc, op)
    for delta in (1e-4, 0.1, 0.9):
        ues = UeSet(beta, noise, csi_delta=np.full(3, delta))
        assert np.all(sindr(cfg, ues, alloc, op, "zf_icsi") < perfect)


def test_icsi_requires_delta():
    cfg = _cfg()
    ues = UeSet(beta=np.array([1e-10, 1e-12]), noise_w=7.2e-14)
    alloc = Allocation(0.1, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        sindr(cfg, ues, alloc, operating_point_at(cfg, alloc.total_power_p), "zf_icsi")


def test_shape_mismatch_rejected():
    cfg = _cfg()
    ues3 = UeSet(beta=np.array([1e-10, 1e-11, 1e-12]), noise_w=7.2e-14)
    alloc2 = Allocation(0.1, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        sindr(cfg, ues3, alloc2, operating_point_at(cfg, alloc2.total_power_p))


# ------------------------------------------------------------------- rates


def test_rates_known_points():
    cfg = _cfg(bw=18e6)
    np.testing.assert_allclose(rates(cfg, np.array([1.0])), [18e6], rtol=1e-15)
    np.testing.assert_allclose(rates(cfg, np.array([3.0])), [36e6], rtol=1e-15)
    np.testing.assert_allclose(rates(cfg, np.array([0.0])), [0.0], atol=0)


def test_evaluate_report_consistency():
    cfg = _cfg()
    ues = UeSet(beta=np.array([1e-10, 1e-12]), noise_w=7.165929069962951e-14)
    alloc = Allocation(0.2, np.array([0.4, 0.6]))
    rep = evaluate(cfg, ues, alloc)
    assert isinstance(rep, EvalReport)
    assert rep.sum_rate == pytest.approx(float(np.sum(rep.rate)), rel=1e-15)
    np.testing.assert_array_equal(rep.rate, rates(cfg, rep.sindr))
    assert rep.ibo_db == rep.operating_point.ibo_db
    op = operating_point_at(cfg, 0.2)
    np.testing.assert_array_equal(rep.sindr, sindr(cfg, ues, alloc, op))


def test_evaluate_unknown_precoder():
    cfg = _cfg()
    ues = UeSet(beta=np.array([1e-10, 1e-12]), noise_w=7.2e-14)
    alloc = Allocation(0.2, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="precoder"):
        evaluate(cfg, ues, alloc, precoder="dirty_paper")


# ------------------------------------------------------------- csi helper


def test_csi_error_factor():
    assert csi_error_factor(0.0, 60, 0.2) == 1.0
    assert csi_error_factor(1e12, 60, 0.2) == pytest.approx(0.0, abs=1e-13)
    b = 1e-9
    assert csi_error_factor(b, 60, 0.2) == pytest.approx(1.0 / (1.0 + 12.0 * b), rel=1e-15)
    out = csi_error_factor(np.array([0.0, 1e-9]), 60, 0.2)
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        csi_error_factor(1e-9, 0, 0.2)
    with pytest.raises(ValueError):
        csi_error_factor(1e-9, 60, 0.0)
    with pytest.raises(ValueError):
        csi_error_factor(-1.0, 60, 0.2)


# ---------------------------------------------------------------- chunk forms

_PA_LAWS = {"clipper": PaModel(), "rapp-p2": PaModel(kind="rapp", smoothness_p=2.0)}
# At M p_max = 6.4 W these powers put psi = M p_max / P between 6.4e-4
# and 6.4e3, across the erfcx switch (psi = 25) and the exp cutoff
# (psi = 700); the idle transmitter and 0.5 W appear twice.
_POWERS = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 40), [0.5, 0.0, 0.5]])


def _op_bits(op):
    return np.array([op.ibo, op.lam, op.dist_coeff, op.effective_distortion]).tobytes()


@pytest.mark.parametrize("pa", _PA_LAWS.values(), ids=list(_PA_LAWS))
def test_array_operating_points_are_their_scalar_calls(pa):
    cfg = _cfg(p_max=0.1, pa=pa)
    points = operating_point_at(cfg, _POWERS)
    assert len(points) == _POWERS.size
    for power, op in zip(_POWERS, points):
        assert _op_bits(op) == _op_bits(operating_point_at(cfg, float(power))), power
    assert operating_point_at(cfg, np.array([])) == []


@pytest.mark.parametrize("precoder", ["zf", "mrt", "zf_icsi"])
@pytest.mark.parametrize("pa", _PA_LAWS.values(), ids=list(_PA_LAWS))
def test_chunk_evaluate_rows_are_their_one_set_calls(pa, precoder):
    cfg = _cfg(p_max=0.1, pa=pa)
    rng = np.random.default_rng(7)
    sets, allocs = [], []
    for power in _POWERS:
        k = int(rng.integers(1, 9))
        beta = 10 ** rng.uniform(-14, -9, k)
        sets.append(UeSet(beta=beta, noise_w=7.2e-14, csi_delta=rng.uniform(0.0, 0.5, k)))
        allocs.append(Allocation(float(power), rng.dirichlet(np.ones(k))))
    reports = evaluate(cfg, sets, allocs, precoder)
    assert len(reports) == len(sets)
    for ues, alloc, report in zip(sets, allocs, reports):
        one = evaluate(cfg, ues, alloc, precoder)
        assert report.sindr.tobytes() == one.sindr.tobytes()
        assert report.rate.tobytes() == one.rate.tobytes()
        assert np.float64(report.sum_rate).tobytes() == np.float64(one.sum_rate).tobytes()
        assert np.float64(report.ibo_db).tobytes() == np.float64(one.ibo_db).tobytes()
        assert _op_bits(report.operating_point) == _op_bits(one.operating_point)
    with pytest.raises(ValueError, match="one allocation per user set"):
        evaluate(cfg, sets, allocs[:-1], precoder)


def _rated_one_by_one(cfg, ues, alloc, precoder):
    """One row rated as a scalar operating point, 1-D user algebra and
    ``float(rate.sum())``, the arithmetic of the per-row rating."""
    op = operating_point_at(cfg, alloc.total_power_p)
    lam, dist, power, omega = op.lam, op.effective_distortion, alloc.total_power_p, alloc.omega
    gain, delta, leak = cfg.m_antennas - ues.n_users, 0.0, 0.0
    if precoder == "mrt":
        gain, leak = cfg.m_antennas, 1.0
    elif precoder == "zf_icsi":
        delta = leak = ues.csi_delta
    p_k = omega * power
    signal = gain * lam * p_k * ues.beta
    floor = ues.noise_w + ues.beta * dist
    if precoder == "zf":
        gamma = signal / floor
    else:
        gamma = signal * (1.0 - delta) / (floor + lam * ues.beta * leak * (power - p_k))
    rate = cfg.bandwidth_hz * np.log2(1.0 + gamma)
    return gamma, rate, float(rate.sum())


def _message(call) -> str:
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize("precoder", ["zf", "mrt", "zf_icsi"])
@pytest.mark.parametrize("pa", _PA_LAWS.values(), ids=list(_PA_LAWS))
def test_array_rating_is_bitwise_the_per_row_rating(pa, precoder):
    # K = 9 and 13 sum in numpy's pairwise blocks of 8; idle rows and
    # users with a zero fraction are mixed in
    cfg = _cfg(m=16, p_max=0.1, pa=pa)
    rng = np.random.default_rng(31)
    sets, allocs = [], []
    powers = [0.0, 0.5, 1e-3, 3.0, 0.5, 40.0, 0.0, 1e3, 2e-2, 7.0, 0.2, 12.0]
    for i, power in enumerate(powers):
        k = (1, 2, 9, 13)[i % 4]
        omega = rng.dirichlet(np.ones(k))
        omega[1:][rng.random(k - 1) < 0.3] = 0.0
        beta = 10 ** rng.uniform(-14, -9, k)
        sets.append(UeSet(beta=beta, noise_w=7.2e-14, csi_delta=rng.uniform(0.0, 0.5, k)))
        allocs.append(Allocation(power, omega / omega.sum()))
    expected = [_rated_one_by_one(cfg, ues, alloc, precoder) for ues, alloc in zip(sets, allocs)]
    assert any(0.0 in alloc.omega for alloc in allocs)

    def same_bits(got, want):
        assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()

    for k in (1, 2, 9, 13):  # the array path on each user count's rows, states computed there
        rows = [r for r, ues in enumerate(sets) if ues.n_users == k]
        gamma, rate, total = _rate_rows(
            cfg,
            *(np.array([getattr(sets[r], f) for r in rows]) for f in ("beta", "noise_w")),
            np.array([allocs[r].total_power_p for r in rows]),
            np.array([allocs[r].omega for r in rows]),
            precoder,
            np.array([sets[r].csi_delta for r in rows]),
        )
        for i, r in enumerate(rows):
            same_bits((gamma[i], rate[i], total[i]), expected[r])
    for report, want in zip(evaluate(cfg, sets, allocs, precoder), expected):
        same_bits((report.sindr, report.rate, report.sum_rate), want)

    # every row is checked as Allocation and zf_gain check it, with their messages
    two = UeSet(beta=np.array([1e-10, 1e-11]), noise_w=7.2e-14, csi_delta=np.full(2, 0.1))
    good = np.array([0.5, 0.5])

    def rated(power, omega, ues=two):
        return lambda: _rate_rows(cfg, ues.beta, ues.noise_w, power, omega, precoder, ues.csi_delta)

    for bad in ([1.2, -0.2], [0.5, 0.5 + 2e-9], [math.nan, 1.0]):
        assert _message(rated([0.5, 0.5], [good, bad])) == _message(lambda: Allocation(0.5, bad))
    for bad in (-1e-9, math.nan, math.inf):
        assert _message(rated([0.5, bad], [good, good])) == _message(lambda: Allocation(bad, good))
    full = UeSet(beta=np.full(16, 1e-10), noise_w=7.2e-14, csi_delta=np.full(16, 0.1))
    assert _message(rated([0.5], [np.full(16, 1 / 16)], full)) == _message(lambda: zf_gain(cfg, full))
    rated([0.5, 0.5], [good, [0.5, 0.5 + 5e-10]])()  # within 1e-9 of 1


def test_a_chunk_longer_than_one_block_is_rated_row_by_row():
    # 150 rows of each user count: each count spans a full block of 128
    # rows and part of a second
    cfg = _cfg(m=16, p_max=0.1)
    rng = np.random.default_rng(5)
    sets, allocs = [], []
    for i in range(300):
        k = (2, 9)[i % 2]
        sets.append(UeSet(beta=10 ** rng.uniform(-14, -9, k), noise_w=7.2e-14))
        allocs.append(Allocation(float(rng.uniform(0.0, 10.0)), rng.dirichlet(np.ones(k))))
    reports = evaluate(cfg, sets, allocs)
    assert len(reports) == len(sets)
    for ues, alloc, report in zip(sets, allocs, reports):
        gamma, rate, sum_rate = _rated_one_by_one(cfg, ues, alloc, "zf")
        assert report.rate.tobytes() == rate.tobytes()
        assert np.float64(report.sum_rate).tobytes() == np.float64(sum_rate).tobytes()


@pytest.mark.parametrize("power", [math.nan, math.inf])
def test_nan_or_infinite_power_is_rejected(power):
    cfg = _cfg()
    with pytest.raises(ValueError, match="finite"):
        operating_point_at(cfg, power)
    with pytest.raises(ValueError, match="finite"):
        operating_point_at(cfg, np.array([0.1, power]))
    with pytest.raises(ValueError, match="finite"):
        input_backoff(power, cfg.m_antennas, cfg.p_max)
    with pytest.raises(ValueError, match="finite"):
        breakpoints(_TWO, cfg, power, operating_point_at(cfg, 0.1))


def test_a_two_dimensional_power_is_rejected():
    with pytest.raises(ValueError, match="^total power must be a scalar or a 1-D array$"):
        operating_point_at(_cfg(), np.full((2, 2), 0.1))
