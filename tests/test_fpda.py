"""Water-filling of per-user fractions at a frozen operating point."""

import itertools

import numpy as np
import pytest
from fpda_reference import solve_fpda_bisect

from dapalloc.allocator import ALGORITHMS
from dapalloc.dapa import SolverError
from dapalloc.fpda import breakpoints, solve_fpda
from dapalloc.metrics import SystemConfig, UeSet, operating_point_at

RNG = np.random.default_rng(4242)


def test_frozen_two_user_case():
    # G = [0, 0.3]: level mu = (1 + 0.3)/2 = 0.65, omega = [0.65, 0.35]
    omega = solve_fpda([0.0, 0.3])
    np.testing.assert_allclose(omega, [0.65, 0.35], rtol=0, atol=1e-15)


def test_frozen_dropout_case():
    # G = [0, 1, 10]: only the first user is active
    omega = solve_fpda([0.0, 1.0, 10.0])
    np.testing.assert_allclose(omega, [1.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_ties_share_equally():
    omega = solve_fpda([0.5, 0.5, 0.5])
    np.testing.assert_allclose(omega, np.full(3, 1 / 3), rtol=1e-15)


def test_single_user_takes_budget():
    np.testing.assert_allclose(solve_fpda([2.7]), [1.0], rtol=0)


def test_budget_and_kkt_on_random_instances():
    for _ in range(300):
        k = int(RNG.integers(1, 12))
        g = 10 ** RNG.uniform(-4, 2, size=k)
        omega = solve_fpda(g)
        assert np.all(omega >= 0)
        assert float(np.sum(omega)) == pytest.approx(1.0, abs=1e-12)
        # complementary slackness: active users share one level,
        # inactive users sit at or above it
        active = omega > 0
        mu = omega[active] + g[active]
        assert np.ptp(mu) <= 1e-12 * max(1.0, float(mu[0]))
        if np.any(~active):
            assert np.min(g[~active]) >= np.max(mu) - 1e-12


def test_permutation_equivariance():
    g = np.array([0.9, 0.1, 2.0, 0.4])
    base = solve_fpda(g)
    perm = RNG.permutation(4)
    shuffled = solve_fpda(g[perm])
    np.testing.assert_allclose(shuffled, base[perm], rtol=0, atol=0)


def test_sweep_vs_bisection():
    """Two independent solvers must agree to the bisection tolerance."""
    for _ in range(1000):
        k = int(RNG.integers(1, 20))
        g = 10 ** RNG.uniform(-5, 3, size=k)
        a = solve_fpda(g)
        b = solve_fpda_bisect(g, tol=1e-12)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_optimality_against_brute_force():
    """Grid search over the 3-simplex cannot beat the analytic solution.

    Objective: sum_k log(G_k + omega_k) (water-filling maximizes exactly
    this form once constants are stripped).
    """

    def obj(g, w):
        return float(np.sum(np.log(g + w)))

    grid = np.linspace(0, 1, 101)
    for g in ([0.05, 0.3, 0.9], [0.2, 0.2, 0.7], [1e-3, 2.0, 3.0]):
        g = np.asarray(g)
        best = -np.inf
        for w1, w2 in itertools.product(grid, grid):
            if w1 + w2 <= 1.0 + 1e-12:
                best = max(best, obj(g, np.array([w1, w2, 1.0 - w1 - w2])))
        analytic = obj(g, solve_fpda(g))
        assert analytic >= best - 1e-9


def test_breakpoints_construction():
    cfg = SystemConfig(m_antennas=64, p_max=0.01, bandwidth_hz=18e6)
    ues = UeSet(beta=np.array([1e-10, 5e-12]), noise_w=7.165929069962951e-14)
    op = operating_point_at(cfg, 0.2)
    g = breakpoints(ues, cfg, 0.2, op)
    want = (ues.noise_w + ues.beta * op.effective_distortion) / (
        62 * op.lam * 0.2 * ues.beta
    )
    np.testing.assert_allclose(g, want, rtol=1e-15)
    # better channel -> smaller breakpoint -> earlier in the fill order
    assert np.argsort(g, kind="stable")[0] == 0
    with pytest.raises(ValueError):
        breakpoints(ues, cfg, 0.0, op)


def test_problem_validation():
    with pytest.raises(ValueError):
        solve_fpda([])
    with pytest.raises(ValueError):
        solve_fpda([0.1, np.inf])
    with pytest.raises(ValueError):
        solve_fpda([0.1, -0.2])
    with pytest.raises(ValueError):
        solve_fpda_bisect([0.1], tol=0.0)
    with pytest.raises(ValueError):
        solve_fpda_bisect([0.1], max_iters=0)


def test_bisect_exhaustion_raises():
    # note K = 2 with both users active solves exactly at the first
    # midpoint, so a starvation test needs K >= 3
    with pytest.raises(SolverError) as exc:
        solve_fpda_bisect([0.1, 0.5, 0.9], tol=1e-15, max_iters=3)
    assert "last_residual" in exc.value.diagnostics


@pytest.mark.parametrize("order", [[0, 1], [1, 0]])
def test_large_breakpoints_keep_the_unit_sum(order):
    # Both breakpoints are about 2.7e7: mu - G_k cancelled and the
    # fractions summed to 1 - 3.7e-9, so water-filling strategies raised.
    cfg = SystemConfig(m_antennas=3, p_max=1.0, bandwidth_hz=18e6)
    ues = UeSet(beta=np.array([5e-19, 5e-20])[order], noise_w=np.array([1e-11, 1e-12])[order])
    power = 0.75
    g = breakpoints(ues, cfg, power, operating_point_at(cfg, power))
    assert np.all(g > 1e7)
    omega = solve_fpda(g)
    assert abs(float(np.sum(omega)) - 1.0) <= 1e-12
    for label, strategy in ALGORITHMS.items():
        alloc = strategy(ues, cfg)
        assert abs(float(np.sum(alloc.omega)) - 1.0) <= 1e-12, label
