"""End-to-end acceptance suite.

One test per shipped acceptance check, numbered c01..c13 (the same
numbering the README uses).  Each test prints the measured quantities it
gates on, so a failing run shows the evidence, and `pytest -v` gives one
pass/fail line per check.

Conventions shared by the whole suite:
  * thermal noise is -174 dBm/Hz over 1200 x 15 kHz occupied subcarriers;
  * the homogeneous anchor checks (c03-c05) run with a 10 mW per-antenna
    cap against that noise floor -- the optimizer depends on the cap and
    the noise only through their ratio, which c03 also verifies directly;
  * the system-level Monte-Carlo checks (c06, c10, c12) run with a
    100 mW per-antenna cap, 60 users, and a 2 km cell;
  * every randomized check fixes its seed, so the suite is deterministic.
"""

import itertools
import math

import numpy as np
import pytest
from fpda_reference import solve_fpda_bisect

from dapalloc import allocator
from dapalloc.allocator import ALGORITHMS, alternating_optimize, dapa_e, ref_e
from dapalloc.bench import (
    DEFAULT_ALGORITHMS,
    ccdf,
    evaluate_icsi_mode,
    evaluate_rapp_mode,
    run_montecarlo,
)
from dapalloc.dapa import power_balance, root_bounds
from dapalloc.fpda import breakpoints, solve_fpda
from dapalloc.linklevel import LinkSimConfig, simulate_sdr
from dapalloc.metrics import Allocation, SystemConfig, UeSet, evaluate, operating_point_at
from dapalloc.nonconvexity import (
    find_indefinite_point,
    hessian_eigs,
    reference_two_user_setup,
)
from dapalloc.pa_model import bussgang_gain_rapp, bussgang_gain_soft, distortion_coeff_soft
from dapalloc.scenario import ScenarioConfig, drop_ues, noise_power_w

BW_HZ = 1200 * 15e3
NOISE_W = noise_power_w(1200, 15e3)  # 7.165929069962951e-14 W full band


def _homog_config(m: int, p_max: float) -> SystemConfig:
    return SystemConfig(m_antennas=m, p_max=p_max, bandwidth_hz=BW_HZ)


def _homog_ues(pl_db: float, k: int, noise_w: float = NOISE_W) -> UeSet:
    beta = 10.0 ** (-pl_db / 10.0)
    return UeSet(beta=np.full(k, beta), noise_w=noise_w)


def _ibo_db(cfg: SystemConfig, alloc: Allocation) -> float:
    return 10.0 * math.log10(cfg.m_antennas * cfg.p_max / alloc.total_power_p)


def _optimal_ibo_db(pl_db: float, m: int, k: int, p_max: float, noise_w: float = NOISE_W):
    cfg = _homog_config(m, p_max)
    alloc = dapa_e(_homog_ues(pl_db, k, noise_w), cfg)
    return _ibo_db(cfg, alloc), alloc


def _random_instances(rng: np.random.Generator, n: int):
    """Random (cfg, ues) draws: K in 2..8, M in {32,64,128,512}, per-antenna
    cap in {10, 100} mW, per-user path loss uniform in [70, 150] dB,
    thermal noise."""
    for _ in range(n):
        k = int(rng.integers(2, 9))
        m = int(rng.choice([32, 64, 128, 512]))
        p_max = float(rng.choice([0.01, 0.1]))
        pl_db = rng.uniform(70.0, 150.0, size=k)
        cfg = _homog_config(m, p_max)
        ues = UeSet(beta=10.0 ** (-pl_db / 10.0), noise_w=NOISE_W)
        yield cfg, ues


def _by_config(instances):
    """The (cfg, ues) instances as (cfg, [ues, ...]) chunks, one per distinct cfg."""
    chunks: dict = {}
    for cfg, ues in instances:
        chunks.setdefault(cfg, []).append(ues)
    return chunks.items()


def _raising(outcomes: list) -> list:
    """A chunk call's outcomes, its first row error raised as the one-set call raises it."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _sum_rate(cfg: SystemConfig, ues: UeSet, alloc: Allocation) -> float:
    return evaluate(cfg, ues, alloc, precoder="zf").sum_rate


# ---------------------------------------------------------------------------
# c01 -- single-transmitter SDR anchor
# ---------------------------------------------------------------------------


def test_c01_clipper_sdr_at_6db_backoff():
    """lambda/c of the ideal clipper at 6 dB back-off is 27 dB +- 1 dB."""
    psi = 10.0 ** 0.6
    sdr_db = 10.0 * math.log10(bussgang_gain_soft(psi) / distortion_coeff_soft(psi))
    print(f"c01: single-TX SDR at 6 dB back-off = {sdr_db:.6f} dB (window 27 +- 1)")
    assert 26.0 <= sdr_db <= 28.0


# ---------------------------------------------------------------------------
# c02 -- link-level measurement matches the closed-form SDR
# ---------------------------------------------------------------------------


def test_c02_linklevel_sdr_matches_analytic_within_1db():
    """Time-domain OFDM measurement vs closed-form prediction, ZF, M=64,
    K in {1, 4}, N=512, 100 used subcarriers, 16-PSK, 200 symbols,
    back-off grid -2..8 dB: every point within 1 dB."""
    grid = (-2.0, 0.0, 2.0, 4.0, 6.0, 8.0)
    worst = 0.0
    for k in (1, 4):
        cfg = LinkSimConfig(m_antennas=64, n_users=k, ibo_grid_db=grid, seed=2024)
        for pt in simulate_sdr(cfg):
            err = abs(pt.sdr_meas_db - pt.sdr_analytic_db)
            worst = max(worst, err)
            print(
                f"c02: K={k} ibo={pt.ibo_db:+.0f} dB: measured {pt.sdr_meas_db:.3f}"
                f" vs analytic {pt.sdr_analytic_db:.3f} (|err| {err:.3f} dB)"
            )
            assert err <= 1.0
    print(f"c02: worst |measured - analytic| = {worst:.4f} dB (gate 1.0)")


# ---------------------------------------------------------------------------
# c03 -- homogeneous optimal back-off anchor and its antenna-count shift
# ---------------------------------------------------------------------------


def test_c03_homogeneous_optimal_backoff_anchor_and_crossing():
    """M=64, K=20, 10 mW cap, thermal noise: the optimal back-off at
    100 dB path loss sits in 6 +- 0.5 dB, and the path loss where M=512
    crosses 6 dB sits in 110 +- 3 dB.  Also verifies the cap/noise ratio
    invariance that pins this parameterization."""
    ibo_100, _ = _optimal_ibo_db(100.0, m=64, k=20, p_max=0.01)
    print(f"c03: optimal back-off at 100 dB path loss (M=64) = {ibo_100:.4f} dB (window 6 +- 0.5)")
    assert 5.5 <= ibo_100 <= 6.5

    # The balance the solver zeroes depends on (cap, noise) only through
    # their ratio: scaling both by 10 must reproduce the same back-off.
    ibo_scaled, _ = _optimal_ibo_db(100.0, m=64, k=20, p_max=0.1, noise_w=10.0 * NOISE_W)
    print(f"c03: back-off with cap and noise both x10 = {ibo_scaled:.9f} dB")
    assert abs(ibo_scaled - ibo_100) < 1e-9

    def crossing_pl_db(m: int) -> float:
        lo, hi = 80.0, 140.0  # back-off decreases with path loss
        f = lambda pl: _optimal_ibo_db(pl, m=m, k=20, p_max=0.01)[0] - 6.0
        assert f(lo) > 0.0 > f(hi)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    pl_512 = crossing_pl_db(512)
    print(f"c03: 6 dB crossing for M=512 at path loss = {pl_512:.4f} dB (window 110 +- 3)")
    assert 107.0 <= pl_512 <= 113.0


# ---------------------------------------------------------------------------
# c04 -- the homogeneous optimum does not depend on the user count
# ---------------------------------------------------------------------------


def test_c04_homogeneous_backoff_independent_of_user_count():
    """K=2 vs K=60 at the same path loss give the same optimal back-off,
    well inside the bisection's own power tolerance."""
    ibo_2, alloc_2 = _optimal_ibo_db(100.0, m=64, k=2, p_max=0.01)
    ibo_60, _ = _optimal_ibo_db(100.0, m=64, k=60, p_max=0.01)
    delta_w = 1e-6 * 64 * 0.01  # solver's default power tolerance
    tol_db = 10.0 * delta_w / (alloc_2.total_power_p * math.log(10.0))
    diff = abs(ibo_2 - ibo_60)
    print(f"c04: |IBO(K=2) - IBO(K=60)| = {diff:.3e} dB (tolerance {tol_db:.3e} dB)")
    assert diff < tol_db


# ---------------------------------------------------------------------------
# c05 -- two-user gain over the fixed-back-off baseline
# ---------------------------------------------------------------------------


def test_c05_two_user_gain_extreme_and_diagonal():
    """Optimized vs 6 dB equal-split baseline for two users (M=64, 10 mW
    cap): path losses (60, 150) dB give a sum-rate ratio in [1.6, 2.0];
    the symmetric (100, 100) point gives a ratio in [0.98, 1.05]."""

    def ratio(pl1_db: float, pl2_db: float) -> float:
        cfg = _homog_config(64, 0.01)
        beta = 10.0 ** (-np.array([pl1_db, pl2_db]) / 10.0)
        ues = UeSet(beta=beta, noise_w=NOISE_W)
        best, _ = alternating_optimize(ues, cfg)
        return _sum_rate(cfg, ues, best) / _sum_rate(cfg, ues, ref_e(ues, cfg))

    r_extreme = ratio(60.0, 150.0)
    r_diag = ratio(100.0, 100.0)
    print(f"c05: ratio at (60, 150) dB = {r_extreme:.6f} (window [1.6, 2.0])")
    print(f"c05: ratio at (100, 100) dB = {r_diag:.6f} (window [0.98, 1.05])")
    assert 1.6 <= r_extreme <= 2.0
    assert 0.98 <= r_diag <= 1.05


# ---------------------------------------------------------------------------
# c06 -- Monte-Carlo median gain windows
# ---------------------------------------------------------------------------


def test_c06_montecarlo_median_gain_windows():
    """200 drops, K=60, 2 km cell, 100 mW cap: the median per-drop
    sum-rate ratio DAPA-FPDA / REF-E lies in [2.5, 6] for M=64 and in
    [1.25, 1.9] for M=512."""
    windows = {64: (2.5, 6.0), 512: (1.25, 1.9)}
    for m, (lo, hi) in windows.items():
        sc = ScenarioConfig(n_users=60, m_antennas=m, p_max=0.1, seed=2024)
        results = run_montecarlo(sc, algorithms=("DAPA-FPDA", "REF-E"), n_drops=200)
        by_drop: dict[int, dict[str, float]] = {}
        for r in results:
            assert r.error is None
            by_drop.setdefault(r.drop_id, {})[r.algorithm] = r.sum_rate
        ratios = [v["DAPA-FPDA"] / v["REF-E"] for v in by_drop.values()]
        med = float(np.median(ratios))
        print(f"c06: M={m}: median ratio over 200 drops = {med:.4f} (window [{lo}, {hi}])")
        assert lo <= med <= hi


# ---------------------------------------------------------------------------
# c07 -- dominance ladder on random instances
# ---------------------------------------------------------------------------


def test_c07_dominance_ladder_500_instances():
    """On 500 random instances: DAPA-FPDA >= DAPA-E, DAPA-FPDA >= REF-FPDA,
    and REF-FPDA >= REF-E, each within 1e-9 relative slack."""
    rng = np.random.default_rng(20240819)
    worst_slack = 0.0
    # each strategy solves the instances that share a config as one chunk
    for cfg, chunk in _by_config(_random_instances(rng, 500)):
        allocs = {name: _raising(ALGORITHMS[name](chunk, cfg)) for name in DEFAULT_ALGORITHMS}
        for i, ues in enumerate(chunk):
            rate = {name: _sum_rate(cfg, ues, allocs[name][i]) for name in DEFAULT_ALGORITHMS}
            for better, worse in (
                ("DAPA-FPDA", "DAPA-E"),
                ("DAPA-FPDA", "REF-FPDA"),
                ("REF-FPDA", "REF-E"),
            ):
                slack = (rate[worse] - rate[better]) / rate[worse]
                worst_slack = max(worst_slack, slack)
                assert rate[better] >= rate[worse] * (1.0 - 1e-9), (better, worse, rate)
    print(f"c07: 500 instances, worst relative ladder violation = {worst_slack:.3e} (gate 1e-9)")


# ---------------------------------------------------------------------------
# c08 -- water-filling agrees with its bisection twin and a grid search
# ---------------------------------------------------------------------------


def _simplex_grid(k: int, n: int) -> np.ndarray:
    """All fraction vectors with components i/n summing to 1."""
    pts = [
        np.array(c, dtype=np.float64) / n
        for c in itertools.product(range(n + 1), repeat=k - 1)
        if sum(c) <= n
    ]
    grid = np.array([np.append(p, 1.0 - p.sum()) for p in pts])
    return grid


def test_c08_waterfill_bisect_and_grid_agreement():
    """solve_fpda vs solve_fpda_bisect within 1e-8 per component on 1000
    random instances; for K <= 4 the analytic solution's sum rate is
    within 1e-9 (relative) of a dense simplex grid search."""
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 17))
        g = 10.0 ** rng.uniform(-4.0, 3.0, size=k)
        problem = g
        exact = solve_fpda(problem)
        iterative = solve_fpda_bisect(problem, tol=1e-12)
        worst_gap = max(worst_gap, float(np.max(np.abs(exact - iterative))))
        assert np.allclose(exact, iterative, rtol=0.0, atol=1e-8)
    print(f"c08: worst per-component sweep-vs-bisection gap = {worst_gap:.3e} (gate 1e-8)")

    divisions = {2: 100, 3: 60, 4: 30}
    for k, n in divisions.items():
        cfg = _homog_config(64, 0.1)
        total_p = 64 * 0.1 / 10.0 ** 0.6  # a 6 dB back-off operating point
        op = operating_point_at(cfg, total_p)
        grid = _simplex_grid(k, n)
        for drop in range(5):
            sc = ScenarioConfig(n_users=k, m_antennas=64, p_max=0.1, seed=80 + k)
            ues = drop_ues(sc, drop)
            omega = solve_fpda(breakpoints(ues, cfg, total_p, op))
            gain = (
                (cfg.m_antennas - k)
                * op.lam
                * total_p
                * ues.beta
                / (ues.noise_w + ues.beta * op.effective_distortion)
            )
            grid_rates = BW_HZ * np.log2(1.0 + grid * gain).sum(axis=1)
            analytic = float(BW_HZ * np.log2(1.0 + omega * gain).sum())
            best_grid = float(grid_rates.max())
            assert analytic >= best_grid * (1.0 - 1e-9), (k, drop, analytic, best_grid)
        print(f"c08: K={k}: analytic water-filling beat all {len(grid)} grid points on 5 drops")


# ---------------------------------------------------------------------------
# c09 -- the closed-form bracket always contains the balance root
# ---------------------------------------------------------------------------


def test_c09_root_bracket_soundness_1000_pairs():
    """root_bounds brackets the power-balance root with a verified sign
    change on 1000 random (noise, channel-gain) pairs, at two array sizes."""
    rng = np.random.default_rng(1009)
    for m in (64, 512):
        cfg = _homog_config(m, 0.01)
        for _ in range(1000):
            beta = 10.0 ** rng.uniform(-16.0, -6.0)
            sigma2 = 10.0 ** rng.uniform(-15.0, -12.0)
            lo, hi = root_bounds(sigma2, beta, cfg)
            assert 0.0 < lo < hi < math.inf
            f_lo = power_balance(lo, sigma2, beta, cfg)
            f_hi = power_balance(hi, sigma2, beta, cfg)
            assert f_lo * f_hi < 0.0, (m, sigma2, beta, lo, hi, f_lo, f_hi)
    print("c09: 2000 random brackets (M=64 and M=512), all with a strict sign change")


# ---------------------------------------------------------------------------
# c10 -- smooth-amplifier limit and evaluation ordering
# ---------------------------------------------------------------------------


def test_c10_smooth_pa_limit_and_ordering():
    """The smooth amplifier at sharpness 200 matches the ideal clipper's
    gain within 1e-3 across back-offs 0.1..100; evaluating clipper-optimal
    allocations under the smooth law never raises a drop's sum rate and
    preserves the per-drop algorithm ranking on >= 95% of 200 drops."""
    psi_grid = np.geomspace(0.1, 100.0, 30)
    gap = max(
        abs(bussgang_gain_rapp(float(q), 200.0) - bussgang_gain_soft(float(q)))
        for q in psi_grid
    )
    print(f"c10: max |gain_rapp(p=200) - gain_clipper| over back-off grid = {gap:.3e} (gate 1e-3)")
    assert gap <= 1e-3

    sc = ScenarioConfig(n_users=60, m_antennas=64, p_max=0.1, seed=3)
    n_drops = 200
    soft_res, rapp_res = evaluate_rapp_mode(sc, n_drops=n_drops, smoothness_p=2.0)
    soft: dict[int, dict[str, float]] = {}
    rapp: dict[int, dict[str, float]] = {}
    for r in soft_res:
        assert r.error is None
        soft.setdefault(r.drop_id, {})[r.algorithm] = r.sum_rate
    for r in rapp_res:
        rapp.setdefault(r.drop_id, {})[r.algorithm] = r.sum_rate

    n_preserved = 0
    for d in range(n_drops):
        for name in DEFAULT_ALGORITHMS:
            assert rapp[d][name] <= soft[d][name] * (1.0 + 1e-12), (d, name)
        ranking_soft = sorted(DEFAULT_ALGORITHMS, key=soft[d].get)
        ranking_rapp = sorted(DEFAULT_ALGORITHMS, key=rapp[d].get)
        n_preserved += ranking_soft == ranking_rapp
    print(f"c10: smooth-law rate <= clipper rate on all {n_drops} drops")
    print(f"c10: full ranking preserved on {n_preserved}/{n_drops} drops (gate >= {int(0.95 * n_drops)})")
    assert n_preserved >= 0.95 * n_drops


# ---------------------------------------------------------------------------
# c11 -- the two-user sum rate is not concave
# ---------------------------------------------------------------------------


def test_c11_saddle_witness_stable_under_halving():
    """The grid scan over the shipped two-user setup finds an unflagged
    point whose finite-difference Hessian has one negative and one
    positive eigenvalue, and the sign pattern survives halving the step."""
    cfg, ues = reference_two_user_setup()
    probe = find_indefinite_point(cfg, ues, n_points=12)
    assert probe is not None, "no indefinite point found on the scan grid"
    lo, hi = probe.eigenvalues
    print(
        f"c11: indefinite point at (p1, p2) = ({probe.p1:.3e}, {probe.p2:.3e}) W,"
        f" eigenvalues ({lo:.3e}, {hi:.3e}), step {probe.step:.2e}"
    )
    assert not probe.flagged
    assert lo < 0.0 < hi
    halved = hessian_eigs((probe.p1, probe.p2), cfg, ues, step=0.5 * probe.step)
    print(f"c11: half-step eigenvalues ({halved.eigenvalues[0]:.3e}, {halved.eigenvalues[1]:.3e})")
    assert not halved.flagged
    assert halved.eigenvalues[0] < 0.0 < halved.eigenvalues[1]


# ---------------------------------------------------------------------------
# c12 -- channel-error evaluation degrades every drop, and zero error is exact
# ---------------------------------------------------------------------------


def test_c12_csi_error_ccdf_dominance():
    """With a uniform 0.1 channel-error fraction, every algorithm's
    sum-rate CCDF over 100 drops is pointwise dominated by its
    perfect-knowledge CCDF, and a zero error fraction reproduces the
    perfect-knowledge numbers bitwise."""
    sc = ScenarioConfig(n_users=60, m_antennas=64, p_max=0.1, seed=2024)
    perfect_res, icsi_res = evaluate_icsi_mode(sc, n_drops=100, delta_policy=0.1)
    perfect: dict[int, dict[str, float]] = {}
    icsi: dict[int, dict[str, float]] = {}
    for r in perfect_res:
        assert r.error is None
        perfect.setdefault(r.drop_id, {})[r.algorithm] = r.sum_rate
    for r in icsi_res:
        icsi.setdefault(r.drop_id, {})[r.algorithm] = r.sum_rate

    for d in perfect:
        for name in DEFAULT_ALGORITHMS:
            assert icsi[d][name] < perfect[d][name], (d, name)
    for name in DEFAULT_ALGORITHMS:
        curve_p = ccdf([perfect[d][name] for d in sorted(perfect)], label="perfect")
        curve_i = ccdf([icsi[d][name] for d in sorted(icsi)], label="icsi")
        assert np.array_equal(curve_p.probabilities, curve_i.probabilities)
        assert np.all(curve_p.values >= curve_i.values), name
    print("c12: delta=0.1 CCDF pointwise below perfect-knowledge CCDF for all 4 algorithms (100 drops)")

    perfect_res0, icsi_res0 = evaluate_icsi_mode(sc, n_drops=10, delta_policy=0.0)
    for rp, ri in zip(perfect_res0, icsi_res0):
        assert rp.sum_rate == ri.sum_rate
        assert np.array_equal(rp.rates, ri.rates)
    print("c12: delta=0 reproduces perfect-knowledge rates bitwise (10 drops)")


# ---------------------------------------------------------------------------
# c13 -- alternating optimizer: monotone ascent and bounded termination
# ---------------------------------------------------------------------------


def test_c13_alternating_optimizer_convergence():
    """On 500 random instances the iteration trace is non-decreasing in
    sum rate (up to 1e-9 relative) and terminates within 100 iterations
    with the final total-power move below the solver tolerance."""
    rng = np.random.default_rng(13)
    worst_drop = 0.0
    max_iters_seen = 0
    # the instances that share a config run as one lockstep chunk
    for cfg, chunk in _by_config(_random_instances(rng, 500)):
        delta = 1e-6 * cfg.m_antennas * cfg.p_max
        for _, trace in _raising(allocator._ao_rows(chunk, cfg, delta)):
            assert trace.converged
            assert trace.iterations <= 100
            max_iters_seen = max(max_iters_seen, trace.iterations)
            rates = [it[2] for it in trace.iterates]
            for earlier, later in zip(rates, rates[1:]):
                drop = (earlier - later) / earlier
                worst_drop = max(worst_drop, drop)
                assert later >= earlier * (1.0 - 1e-9)
            if trace.iterations >= 2:
                final_move = abs(trace.iterates[-1][0] - trace.iterates[-2][0])
                assert final_move < delta
    print(
        f"c13: 500 instances converged; max iterations = {max_iters_seen},"
        f" worst relative rate drop = {worst_drop:.3e} (gate 1e-9)"
    )
