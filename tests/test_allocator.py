"""Alternating optimization and the fixed-back-off baselines."""

import inspect

import numpy as np
import pytest

from dapalloc.allocator import (
    ALGORITHMS,
    REF_BACKOFF_DB,
    AoTrace,
    alternating_optimize,
    dapa_e,
    ref_e,
    ref_fpda,
)
from dapalloc.dapa import solve_dapa
from dapalloc.metrics import Allocation, SystemConfig, UeSet, evaluate

NOISE_FULLBAND = 7.165929069962951e-14


def _cfg(m=64, k=4, p_max=0.01):
    return SystemConfig(m_antennas=m, n_users=k, p_max=p_max, bandwidth_hz=18e6)


def _mixed_ues(k=4, seed=11):
    rng = np.random.default_rng(seed)
    beta = 10 ** rng.uniform(-13, -9, size=k)
    return UeSet(beta=beta, noise_w=np.full(k, NOISE_FULLBAND))


def test_registry_contents():
    assert set(ALGORITHMS) == {"DAPA-FPDA", "DAPA-E", "REF-FPDA", "REF-E"}
    assert REF_BACKOFF_DB == 6.0


def test_ref_e_frozen_power():
    # M p_max / 10^0.6 at M = 64, p_max = 0.1 (mpmath)
    cfg = _cfg(k=4, p_max=0.1)
    alloc = ref_e(_mixed_ues(), cfg)
    assert alloc.total_power_p == pytest.approx(1.6076073161661312711, rel=1e-14)
    np.testing.assert_allclose(alloc.omega, 0.25, rtol=0)


def test_ref_fpda_same_power_waterfilled_split():
    cfg = _cfg()
    ues = _mixed_ues()
    e = ref_e(ues, cfg)
    f = ref_fpda(ues, cfg)
    assert f.total_power_p == e.total_power_p
    assert float(np.sum(f.omega)) == pytest.approx(1.0, abs=1e-12)
    # water-filling favors the stronger channels
    assert f.omega[np.argmax(ues.beta)] >= f.omega[np.argmin(ues.beta)]


def test_ao_converges_with_monotone_trace():
    cfg = _cfg()
    ues = _mixed_ues()
    alloc, trace = alternating_optimize(ues, cfg)
    assert isinstance(trace, AoTrace)
    assert trace.converged
    assert trace.iterations == len(trace.iterates) <= 100
    rates = [it[2] for it in trace.iterates]
    for a, b in zip(rates, rates[1:]):
        assert b >= a * (1 - 1e-9)
    # returned allocation is the last iterate
    assert alloc.total_power_p == trace.iterates[-1][0]


def test_dominance_ladder_on_one_instance():
    cfg = _cfg(k=6)
    ues = _mixed_ues(k=6, seed=5)

    def rate(alloc):
        return evaluate(cfg, ues, alloc).sum_rate

    r = {name: rate(fn(ues, cfg)) for name, fn in ALGORITHMS.items()}
    slack = 1e-9
    assert r["DAPA-FPDA"] >= r["DAPA-E"] * (1 - slack)
    assert r["DAPA-FPDA"] >= r["REF-FPDA"] * (1 - slack)
    assert r["DAPA-E"] >= r["REF-E"] * (1 - slack)
    assert r["REF-FPDA"] >= r["REF-E"] * (1 - slack)


def test_homogeneous_fpda_keeps_equal_split():
    """Identical users: water-filling has nothing to move, so the joint
    optimizer and the equal-split optimizer coincide."""
    cfg = _cfg(k=20, m=64)
    ues = UeSet(beta=np.full(20, 1e-10), noise_w=np.full(20, NOISE_FULLBAND))
    joint, _ = alternating_optimize(ues, cfg, delta=1e-9)
    equal = solve_dapa(ues, np.full(20, 0.05), cfg, delta=1e-9)
    np.testing.assert_allclose(joint.omega, 0.05, rtol=0, atol=1e-12)
    assert joint.total_power_p == pytest.approx(equal.total_power_p, abs=1e-8)


def test_dapa_e_improves_on_ref_e_at_cell_edge():
    cfg = _cfg(k=2)
    ues = UeSet(beta=np.full(2, 1e-13), noise_w=np.full(2, NOISE_FULLBAND))
    opt = dapa_e(ues, cfg)
    base = ref_e(ues, cfg)
    assert evaluate(cfg, ues, opt).sum_rate > evaluate(cfg, ues, base).sum_rate
    # weak channels want less back-off (more power) than the 6 dB rule
    assert opt.total_power_p > base.total_power_p


def test_max_iters_returns_best_iterate():
    cfg = _cfg()
    ues = _mixed_ues(seed=21)
    alloc, trace = alternating_optimize(ues, cfg, max_iters=1)
    assert not trace.converged
    assert trace.iterations == 1
    assert alloc.total_power_p == trace.iterates[0][0]
    with pytest.raises(ValueError):
        alternating_optimize(ues, cfg, max_iters=0)


def test_algorithms_take_users_and_config():
    cfg = _cfg()
    ues = _mixed_ues(seed=2)
    for name, fn in ALGORITHMS.items():
        assert len(inspect.signature(fn).parameters) == 2, name
        alloc = fn(ues, cfg)
        assert float(np.sum(alloc.omega)) == pytest.approx(1.0, abs=1e-9), name
