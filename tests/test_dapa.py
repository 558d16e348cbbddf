"""Total-power bisection: balance function, brackets, solver anchors."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from dapalloc import dapa
from dapalloc.allocator import ALGORITHMS, dapa_e
from dapalloc.dapa import (
    DapaResult,
    SolverError,
    power_balance,
    root_bounds,
    solve_dapa,
    sum_rate_derivative,
)
from dapalloc.metrics import Allocation, SystemConfig, UeSet, evaluate
from dapalloc.pa_model import ETA, RAPP, PaModel
from dapa_reference import bisect_on_sign, bisect_walk, sum_rate_derivative_scalar

NOISE_FULLBAND = 7.165929069962951e-14  # 1200 x 15 kHz thermal, watts


def _cfg(m=64, p_max=0.01):
    return SystemConfig(m_antennas=m, p_max=p_max, bandwidth_hz=18e6)


def _homog_ues(k, beta=1e-10, noise=NOISE_FULLBAND):
    return UeSet(beta=np.full(k, beta), noise_w=np.full(k, noise))


# ------------------------------------------------------------ power balance

# mpmath root of the balance function, psi* such that
# 2 sigma^2/(sqrt(pi) beta eta M p_max) = erfc(sqrt(psi))/sqrt(psi),
# at beta = 1e-10, sigma^2 = NOISE_FULLBAND, eta = 2/3.
PSI_STAR = {
    (0.01, 64): 4.171733157143584,
    (0.01, 512): 5.924983568883444,
    (0.1, 64): 6.11801784415879,
    (0.1, 512): 7.94980595242242,
}


@pytest.mark.parametrize("p_max,m", sorted(PSI_STAR))
def test_balance_root_anchor(p_max, m):
    cfg = _cfg(m=m, p_max=p_max)
    p_star = m * p_max / PSI_STAR[(p_max, m)]
    assert power_balance(p_star, NOISE_FULLBAND, 1e-10, cfg) == pytest.approx(
        0.0, abs=1e-18
    )
    # strictly decreasing through the root
    assert power_balance(0.9 * p_star, NOISE_FULLBAND, 1e-10, cfg) > 0
    assert power_balance(1.1 * p_star, NOISE_FULLBAND, 1e-10, cfg) < 0


def test_balance_vectorized():
    cfg = _cfg()
    sig = np.array([1e-14, 1e-13])
    bet = np.array([1e-10, 1e-11])
    out = power_balance(0.2, sig, bet, cfg)
    assert out.shape == (2,)
    assert out[0] == power_balance(0.2, 1e-14, 1e-10, cfg)
    with pytest.raises(ValueError):
        power_balance(0.0, 1e-14, 1e-10, cfg)


def test_balance_tail_continuous_across_erfcx_switch():
    """The underflow-safe branch must join the direct one seamlessly."""
    cfg = _cfg(p_max=0.1)
    # make the constant lead term negligible to expose the tail
    sigma2, beta = 1e-40, 1e-6
    for psi in np.linspace(24.5, 25.5, 21):
        p = cfg.m_antennas * cfg.p_max / psi
        got = power_balance(p, sigma2, beta, cfg)
        ref = -scipy.special.erfc(math.sqrt(psi)) / math.sqrt(psi)
        assert got == pytest.approx(ref, rel=1e-12)


def test_balance_matches_brentq_root():
    cfg = _cfg(p_max=0.1)
    lo, hi = root_bounds(7.2e-14, 1e-10, cfg)
    root = scipy.optimize.brentq(
        lambda p: power_balance(p, 7.2e-14, 1e-10, cfg), lo, hi, xtol=1e-12
    )
    psi_star = cfg.m_antennas * cfg.p_max / root
    assert psi_star == pytest.approx(6.1139063678645287348, rel=1e-9)


# -------------------------------------------------------------- root bounds


def test_root_bounds_frozen():
    cfg = _cfg(p_max=0.1)
    lo, hi = root_bounds(7.2e-14, 1e-10, cfg)
    assert lo == pytest.approx(0.84709953285333328389, rel=1e-13)
    assert hi == pytest.approx(1.7095527655491268142, rel=1e-13)
    # true root sits inside
    p_star = cfg.m_antennas * cfg.p_max / 6.1139063678645287348
    assert lo < p_star < hi


def test_root_bounds_bracket_sign_change():
    """balance > 0 at the lower bound, < 0 at the upper, over wide inputs."""
    rng = np.random.default_rng(7)
    cfg64 = _cfg(p_max=0.1)
    cfg512 = _cfg(m=512, p_max=0.01)
    for _ in range(500):
        sigma2 = 10 ** rng.uniform(-15, -12)
        beta = 10 ** rng.uniform(-16, -6)
        for cfg in (cfg64, cfg512):
            lo, hi = root_bounds(sigma2, beta, cfg)
            assert 0 < lo < hi
            assert power_balance(lo, sigma2, beta, cfg) > 0
            assert power_balance(hi, sigma2, beta, cfg) < 0


def test_root_bounds_scale_invariance():
    cfg = _cfg()
    a = root_bounds(7e-14, 1e-10, cfg)
    b = root_bounds(7e-14 * 1e3, 1e-10 * 1e3, cfg)
    assert a[0] == pytest.approx(b[0], rel=1e-12)
    assert a[1] == pytest.approx(b[1], rel=1e-12)


def test_root_bounds_validation():
    with pytest.raises(ValueError):
        root_bounds(0.0, 1e-10, _cfg())
    with pytest.raises(ValueError):
        root_bounds(1e-14, -1e-10, _cfg())
    # r = beta ETA M p_max / sigma^2 = 1e-14, below the bracket's floor
    cfg = _cfg()
    beta = 1e-14 * 7.2e-14 / (ETA * cfg.m_antennas * cfg.p_max)
    with pytest.raises(SolverError) as err:
        root_bounds(7.2e-14, beta, cfg)
    assert err.value.diagnostics["ratio"] == pytest.approx(1e-14, rel=1e-12)
    assert err.value.diagnostics["floor"] == 1e-13


# --------------------------------------------------------------- derivative


def test_derivative_matches_finite_difference():
    """Analytic dR/dP against a central difference of the evaluated rate."""
    rng = np.random.default_rng(99)
    cfg = _cfg()
    for _ in range(25):
        beta = 10 ** rng.uniform(-13, -9, size=4)
        ues = UeSet(beta=beta, noise_w=np.full(4, NOISE_FULLBAND))
        omega = rng.dirichlet(np.ones(4))
        p = 10 ** rng.uniform(-2.0, 0.5)
        got = sum_rate_derivative(p, ues, omega, cfg)
        h = 1e-6 * p
        up = evaluate(cfg, ues, Allocation(p + h, omega)).sum_rate
        dn = evaluate(cfg, ues, Allocation(p - h, omega)).sum_rate
        fd = (up - dn) / (2 * h)
        scale = max(abs(fd), abs(got), 1e-3)
        assert got == pytest.approx(fd, abs=2e-5 * scale)


def test_derivative_ignores_zero_fraction_users():
    cfg = _cfg()
    ues = UeSet(
        beta=np.array([1e-10, 1e-11, 1e-15]), noise_w=np.full(3, NOISE_FULLBAND)
    )
    full = sum_rate_derivative(0.3, ues, np.array([0.6, 0.4, 0.0]), cfg)
    ues2 = UeSet(beta=ues.beta[:2], noise_w=ues.noise_w[:2])
    two = sum_rate_derivative(0.3, ues2, np.array([0.6, 0.4]), cfg)
    # array gain differs (M-K), so only the structure is comparable; the
    # zero-fraction user must contribute nothing within the same config
    alt = sum_rate_derivative(0.3, ues, np.array([0.6, 0.4, 1e-300]), cfg)
    assert full == pytest.approx(alt, rel=1e-9)
    assert np.sign(full) == np.sign(two)


def test_derivative_sign_helper():
    cfg = _cfg()
    ues = _homog_ues(1)
    omega = np.array([1.0])
    p_star = 0.64 / PSI_STAR[(0.01, 64)]
    assert np.sign(sum_rate_derivative(0.5 * p_star, ues, omega, cfg)) == 1
    assert np.sign(sum_rate_derivative(2.0 * p_star, ues, omega, cfg)) == -1
    with pytest.raises(ValueError):
        sum_rate_derivative(0.0, ues, omega, cfg)
    with pytest.raises(ValueError):
        sum_rate_derivative(0.1, ues, np.zeros(1), cfg)


def test_nan_derivative_stops_the_solver(monkeypatch):
    # a NaN derivative has no sign; bisection must fail, not pick a side
    monkeypatch.setattr(dapa, "sum_rate_derivative", lambda *args: math.nan)
    with pytest.raises(ValueError):
        solve_dapa(_homog_ues(1), np.array([1.0]), _cfg())


def _mixed_problems(n_sets, k, seed):
    """Random user sets with about a fifth of the fractions zero."""
    rng = np.random.default_rng(seed)
    for _ in range(n_sets):
        ues = UeSet(beta=10 ** rng.uniform(-14, -9, size=k), noise_w=NOISE_FULLBAND)
        omega = rng.dirichlet(np.ones(k))
        omega[rng.random(k) < 0.2] = 0.0
        omega[0] += 1e-3  # keep one user active
        yield ues, omega / omega.sum()


def test_nan_off_the_visited_path_is_never_read(monkeypatch):
    # The look-ahead evaluates midpoints the walk may never visit; a NaN
    # there must not change the result.
    cfg = _cfg()
    real = dapa.sum_rate_derivative
    for ues, omega in _mixed_problems(3, 8, seed=11):
        monkeypatch.setattr(dapa, "sum_rate_derivative", real)
        expected = solve_dapa(ues, omega, cfg)
        visited = []

        def recording(p, *rest):
            visited.append(p)
            return real(p, *rest)

        monkeypatch.setattr(dapa, "sum_rate_derivative", recording)
        bisect_on_sign(
            expected.bracket_lo, expected.bracket_hi, dapa.default_delta(cfg), ues, omega, cfg
        )
        on_path = visited + [expected.bracket_lo, expected.bracket_hi]
        injected = []

        def nan_off_path(p, *rest):
            values = real(p, *rest)
            if np.ndim(p) > 0:
                values = np.where(np.isin(p, on_path), values, math.nan)
                injected.append(int(np.isnan(values).sum()))
            return values

        monkeypatch.setattr(dapa, "sum_rate_derivative", nan_off_path)
        assert solve_dapa(ues, omega, cfg) == expected
        assert sum(injected) > 0


def test_batched_derivative_and_guard_rates_are_bitwise():
    """One call on a vector of powers gives the one-power values bit for
    bit: the derivative matches its scalar calls and the libm reference,
    and the guard's sum rates match ``evaluate``.  The powers span the
    erfcx switch and the exp cutoff (psi from 6e-4 to 6e3)."""
    cfg = _cfg(p_max=0.1)
    powers = np.geomspace(1e-3, 1e4, 150)
    for ues, omega in _mixed_problems(4, 12, seed=5):
        batched = sum_rate_derivative(powers, ues, omega, cfg)
        scalar = [sum_rate_derivative(float(p), ues, omega, cfg) for p in powers]
        reference = [sum_rate_derivative_scalar(float(p), ues, omega, cfg) for p in powers]
        assert batched.tobytes() == np.array(scalar).tobytes() == np.array(reference).tobytes()
        rates = dapa._sum_rates(powers[None], [ues], [omega], cfg)[0]
        evaluated = [evaluate(cfg, ues, Allocation(float(p), omega)).sum_rate for p in powers]
        assert rates.tobytes() == np.array(evaluated).tobytes()


# -------------------------------------------------------------- solve_dapa

# P* = M p_max / psi*, same mpmath roots as above
P_STAR = {
    (0.01, 64): 0.64 / 4.171733157143584,
    (0.01, 512): 5.12 / 5.924983568883444,
    (0.1, 64): 6.4 / 6.11801784415879,
    (0.1, 512): 51.2 / 7.94980595242242,
}


@pytest.mark.parametrize("p_max,m", sorted(P_STAR))
def test_solver_anchor_homogeneous(p_max, m):
    """Equal users, equal split: bisection lands on the analytic root."""
    cfg = _cfg(m=m, p_max=p_max)
    ues = _homog_ues(20)
    res = solve_dapa(ues, np.full(20, 0.05), cfg, delta=1e-10)
    assert isinstance(res, DapaResult)
    assert res.total_power_p == pytest.approx(P_STAR[(p_max, m)], abs=5e-10)
    assert res.bracket_lo < res.total_power_p < res.bracket_hi


def test_solver_iteration_bound_and_residual():
    cfg = _cfg()
    ues = _homog_ues(20)
    delta = 1e-9
    res = solve_dapa(ues, np.full(20, 0.05), cfg, delta=delta)
    width = res.bracket_hi - res.bracket_lo
    assert res.iterations <= math.ceil(math.log2(width / delta)) + 1
    assert res.derivative_residual < 1e-6


def test_solver_matches_single_user_brentq():
    cfg = _cfg(p_max=0.1)
    ues = UeSet(beta=np.array([1e-10]), noise_w=np.array([7.2e-14]))
    res = solve_dapa(ues, np.array([1.0]), cfg, delta=1e-11)
    root = scipy.optimize.brentq(
        lambda p: power_balance(p, 7.2e-14, 1e-10, cfg),
        res.bracket_lo,
        res.bracket_hi,
        xtol=1e-13,
    )
    assert res.total_power_p == pytest.approx(root, abs=1e-10)


def test_solver_result_is_bracket_optimum():
    """No log-spaced sample of the bracket may beat the returned power."""
    rng = np.random.default_rng(3)
    cfg = _cfg()
    for _ in range(10):
        beta = 10 ** rng.uniform(-13, -9, size=4)
        ues = UeSet(beta=beta, noise_w=np.full(4, NOISE_FULLBAND))
        omega = rng.dirichlet(np.ones(4))
        res = solve_dapa(ues, omega, cfg)
        best = evaluate(cfg, ues, Allocation(res.total_power_p, omega)).sum_rate
        for p in np.geomspace(res.bracket_lo, res.bracket_hi, 32):
            obj = evaluate(cfg, ues, Allocation(float(p), omega)).sum_rate
            assert obj <= best * (1 + 1e-12) + 1e-9


def test_solver_heterogeneous_interior_root():
    # mixed channels: the optimum sits between each user's own root
    cfg = _cfg()
    ues = UeSet(beta=np.array([1e-9, 1e-12]), noise_w=np.full(2, NOISE_FULLBAND))
    omega = np.array([0.5, 0.5])
    res = solve_dapa(ues, omega, cfg, delta=1e-10)
    assert sum_rate_derivative(res.total_power_p * 0.99, ues, omega, cfg) > 0
    assert sum_rate_derivative(res.total_power_p * 1.01, ues, omega, cfg) < 0


def test_bisection_stops_at_a_one_ulp_bracket(monkeypatch):
    """At P > delta / eps the bracket reaches one float ulp before it
    reaches delta; the bisection then stops instead of looping.  The
    first solve (r = 5e-8) guards against a hang; the second reaches the
    one-ulp stop, as the sequential walk records."""
    cfg = _cfg()
    r = 5.0e-8  # beta ETA M p_max / sigma^2
    beta = r * 7.2e-14 / (ETA * cfg.m_antennas * cfg.p_max)
    ues = UeSet(beta=np.array([beta]), noise_w=np.array([7.2e-14]))
    points = [0]
    real = dapa.sum_rate_derivative

    def counted(*args):
        points[0] += np.size(args[0])
        if points[0] > 1000:
            raise AssertionError("bisection does not terminate")
        return real(*args)

    monkeypatch.setattr(dapa, "sum_rate_derivative", counted)
    res = solve_dapa(ues, np.array([1.0]), cfg)
    delta = 1e-6 * cfg.m_antennas * cfg.p_max
    assert res.total_power_p > delta / np.finfo(np.float64).eps
    width = res.bracket_hi - res.bracket_lo
    assert res.iterations <= math.ceil(math.log2(width / delta)) + 1
    assert res.bracket_lo <= res.total_power_p <= res.bracket_hi

    # The solve above ends at an exact zero of the derivative.  A delta
    # below the root's ulp drives the real derivative's bracket to one ulp.
    points[0] = 0
    ues = UeSet(beta=np.array([1e-10, 3e-11]), noise_w=np.full(2, NOISE_FULLBAND))
    omega = np.array([0.5, 0.5])
    res = solve_dapa(ues, omega, cfg, delta=1e-20)
    assert res.total_power_p * np.finfo(np.float64).eps > 1e-20
    _, steps, stop = bisect_walk(res.bracket_lo, res.bracket_hi, 1e-20, ues, omega, cfg)
    assert stop == "ulp"
    assert (res.total_power_p, res.iterations) == bisect_on_sign(
        res.bracket_lo, res.bracket_hi, 1e-20, ues, omega, cfg
    )
    assert res.iterations == steps


def test_solver_validation():
    cfg = _cfg()
    ues = UeSet(beta=np.array([1e-10, 1e-11]), noise_w=np.full(2, NOISE_FULLBAND))
    with pytest.raises(ValueError):
        solve_dapa(ues, np.array([0.5, 0.5]), cfg, delta=0.0)
    with pytest.raises(ValueError):
        solve_dapa(ues, np.array([0.0, 0.0]), cfg)
    with pytest.raises(ValueError):
        solve_dapa(ues, np.array([1.0]), cfg)


@pytest.mark.parametrize(
    "solve",
    [
        lambda ues, cfg: solve_dapa(ues, np.full(ues.n_users, 1.0 / ues.n_users), cfg),
        dapa_e,
        ALGORITHMS["DAPA-FPDA"],
    ],
    ids=["solve_dapa", "dapa_e", "DAPA-FPDA"],
)
def test_solvers_reject_a_rapp_config(solve):
    # The derivative models the clipper only.  Solving on it while
    # water-filling on the Rapp law would mix two amplifiers in one
    # allocation.
    cfg = SystemConfig(m_antennas=64, p_max=0.01, bandwidth_hz=18e6, pa=PaModel(RAPP, 2.0))
    ues = UeSet(beta=np.array([1e-9, 1e-11, 1e-12]), noise_w=NOISE_FULLBAND)
    with pytest.raises(ValueError, match="^pa must be"):
        solve(ues, cfg)


def test_solver_error_carries_diagnostics():
    err = SolverError("boom", {"bracket_lo": 1.0})
    assert err.diagnostics["bracket_lo"] == 1.0
    assert SolverError("no diag").diagnostics == {}
