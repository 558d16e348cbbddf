"""Properties of the solvers and strategies on generated inputs.

``r = beta ETA M p_max / sigma^2`` is the one number the power balance
depends on besides M and p_max, so the generated inputs draw it
log-uniformly and derive the channel gain from it.  Examples are derandomized, so the
suite stays deterministic.
"""

import math
import random
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dapalloc import dapa
from dapalloc.allocator import ALGORITHMS, dapa_e
from dapalloc.dapa import SolverError, default_delta, power_balance, root_bounds, solve_dapa
from dapalloc.metrics import SystemConfig, UeSet
from dapalloc.pa_model import ETA, input_backoff
from dapa_reference import bisect_on_sign, bisect_walk
from test_acceptance import NOISE_W, _homog_config, _sum_rate

SIGMA2 = 7.2e-14
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

log_p_max = st.floats(-4.0, 1.0)


def _beta(r, sigma2, cfg):
    return r * sigma2 / (ETA * cfg.m_antennas * cfg.p_max)


@PROPERTY
@given(log_r=st.floats(-12.0, 20.0), m=st.integers(2, 1024), log_p=log_p_max)
def test_root_bounds_bracket_the_balance_root(log_r, m, log_p):
    cfg = SystemConfig(m_antennas=m, p_max=10.0**log_p, bandwidth_hz=18e6)
    beta = _beta(10.0**log_r, SIGMA2, cfg)
    lo, hi = root_bounds(SIGMA2, beta, cfg)
    assert power_balance(lo, SIGMA2, beta, cfg) > 0.0 > power_balance(hi, SIGMA2, beta, cfg)


@PROPERTY
@given(log_r=st.floats(-12.0, 20.0), m=st.integers(2, 1024), log_p=log_p_max)
def test_single_user_solve_stays_in_its_bracket(log_r, m, log_p):
    # The derivative's factor 1 - e^-psi - psi e^-psi ~ psi^2 / 2 must
    # keep its sign at small psi, or the bracket check raises SolverError.
    cfg = SystemConfig(m_antennas=m, p_max=10.0**log_p, bandwidth_hz=18e6)
    beta = _beta(10.0**log_r, SIGMA2, cfg)
    res = solve_dapa(UeSet(beta=np.array([beta]), noise_w=SIGMA2), np.array([1.0]), cfg)
    assert res.bracket_lo <= res.total_power_p <= res.bracket_hi


@st.composite
def _problems(draw):
    k = draw(st.integers(1, 6))
    m = draw(st.integers(k + 1, 600))
    cfg = SystemConfig(
        m_antennas=m, p_max=10.0 ** draw(log_p_max), bandwidth_hz=18e6
    )
    log_r = draw(st.lists(st.floats(-12.0, 20.0), min_size=k, max_size=k))
    noise = 10.0 ** np.array(draw(st.lists(st.floats(-15.0, -11.0), min_size=k, max_size=k)))
    beta = _beta(10.0 ** np.array(log_r), noise, cfg)
    # at least one user holds power; the others may hold none
    weights = [1.0] + draw(st.lists(st.floats(0.0, 1.0), min_size=k - 1, max_size=k - 1))
    omega = np.array(draw(st.permutations(weights)))
    return UeSet(beta=beta, noise_w=noise), omega / omega.sum(), cfg


# A set on which the bisection once looped forever: at P > delta / eps
# its bracket reached one float ulp before it reached delta.
_ULP_BRACKET = (
    UeSet(beta=np.array([2.5e-13, 2.5e-13, 2.5e-13, 2.5e-20, 2.5e-13]), noise_w=1e-11),
    np.array([0.5, 0.0, 0.0, 0.5, 0.0]),
    SystemConfig(m_antennas=6, p_max=10.0, bandwidth_hz=18e6),
)


@PROPERTY
@given(problem=_problems())
@example(problem=_ULP_BRACKET)
def test_solve_dapa_returns_or_raises_solver_error(problem):
    ues, omega, cfg = problem
    # A hang shows as a failure: a terminating solve evaluates the
    # derivative at a few hundred points at most.
    points = [0]
    real = dapa.sum_rate_derivative

    def counted(*args, **kwargs):
        points[0] += np.size(args[0])
        if points[0] > 2000:
            raise AssertionError("bisection does not terminate")
        return real(*args, **kwargs)

    with mock.patch.object(dapa, "sum_rate_derivative", counted):
        try:
            res = solve_dapa(ues, omega, cfg)
        except SolverError:
            return
    delta = default_delta(cfg)
    width = res.bracket_hi - res.bracket_lo
    assert res.iterations <= math.ceil(math.log2(width / delta)) + 1
    assert res.bracket_lo <= res.total_power_p <= res.bracket_hi


def _lookahead(lo, hi, delta, ues, omega, cfg):
    """The lockstep bisection on a one-row chunk guessed at its bracket's
    midpoint, as (midpoint, steps)."""
    roots, steps = dapa._walk([lo], [hi], delta, [ues], [omega], cfg, guess=[0.5 * (lo + hi)])
    return roots[0], steps[0]


@PROPERTY
@given(problem=_problems())
@example(problem=_ULP_BRACKET)
def test_lookahead_bisection_is_bitwise_sequential(problem):
    ues, omega, cfg = problem
    active = omega > 0.0
    try:
        lower, upper = root_bounds(ues.noise_w[active], ues.beta[active], cfg)
    except SolverError:
        return
    args = (float(np.min(lower)), float(np.max(upper)), default_delta(cfg), ues, omega, cfg)
    fast, slow = _lookahead(*args), bisect_on_sign(*args)
    assert np.float64(fast[0]).tobytes() == np.float64(slow[0]).tobytes()
    assert fast[1] == slow[1]


@settings(PROPERTY, max_examples=400)
@given(
    lo=st.floats(1e-6, 1e6),
    log_width=st.floats(-12.0, 6.0),
    log2_steps=st.floats(0.0, 64.0),
    depth=st.integers(0, 64),
    turns=st.integers(0, 2**64 - 1),
    exact=st.booleans(),
)
def test_lookahead_bisection_matches_on_stub_derivatives(
    lo, log_width, log2_steps, depth, turns, exact
):
    # ``target`` is the midpoint that ``depth`` steps lead to (bit i of
    # ``turns`` set: keep the right half).  With ``exact`` the derivative
    # is exactly 0 there; without, it is +1 up to ``target`` and -1 past
    # it, so no midpoint is a zero and a small ``delta`` drives the
    # bracket to the one-ulp stop.  ``delta`` allows about ``log2_steps``
    # steps; both bisections together evaluate a few hundred points.
    hi = lo + 10.0**log_width
    a, b = lo, hi
    for i in range(depth):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if turns >> i & 1 else (a, mid)
    target = 0.5 * (a + b)
    points = [0]

    def stub(p, *rest, **kwargs):
        points[0] += np.size(p)
        if points[0] > 2000:
            raise AssertionError("bisection does not terminate")
        p = np.asarray(p)
        return np.sign(target - p) if exact else np.where(p <= target, 1.0, -1.0)

    args = (lo, hi, (hi - lo) / 2.0**log2_steps, None, None, None)
    with mock.patch.object(dapa, "sum_rate_derivative", stub):
        fast, slow = _lookahead(*args), bisect_on_sign(*args)
    assert np.float64(fast[0]).tobytes() == np.float64(slow[0]).tobytes()
    assert fast[1] == slow[1]


def _stub_target(lo, hi, depth, turns):
    """The midpoint that ``depth`` steps from (lo, hi) lead to; bit i of
    ``turns`` set: keep the right half."""
    a, b = lo, hi
    for i in range(depth):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if turns >> i & 1 else (a, mid)
    return 0.5 * (a + b)


def _stub_value(p, target, exact):
    p = np.asarray(p)
    return np.sign(target - p) if exact else np.where(p <= target, 1.0, -1.0)


_stub_row = st.tuples(
    st.floats(1e-6, 1e6),  # lo
    st.floats(-12.0, 6.0),  # log10 of the width
    st.integers(0, 64),  # depth
    st.integers(0, 2**64 - 1),  # turns
    st.booleans(),  # exact
)


def _stub_chunk(rows, delta):
    """Run the lockstep bisection on stub rows, and each row alone through
    the sequential walk; return both, and each row's stop rule."""
    brackets = [(lo, lo + 10.0**log_width) for lo, log_width, *_ in rows]
    # each row's "user set" is its (target, exact) pair, which the stub reads
    stubs = [
        (_stub_target(lo, hi, depth, turns), exact)
        for (lo, hi), (_, _, depth, turns, exact) in zip(brackets, rows)
    ]
    points = [0]

    def stub(p, ues, *rest, **kwargs):
        points[0] += np.size(p)
        if points[0] > 20000:
            raise AssertionError("bisection does not terminate")
        if isinstance(ues, tuple):  # the sequential walk's one-set form
            return _stub_value(p, *ues)
        return np.array([_stub_value(row, *row_stub) for row, row_stub in zip(p, ues)])

    with mock.patch.object(dapa, "sum_rate_derivative", stub):
        fast = dapa._walk(
            [lo for lo, _ in brackets], [hi for _, hi in brackets], delta, stubs, [None] * len(rows), None,
            guess=[0.5 * (lo + hi) for lo, hi in brackets],
        )[:2]
        slow = [bisect_walk(lo, hi, delta, row_stub, None, None) for (lo, hi), row_stub in zip(brackets, stubs)]
    return fast, slow


@settings(PROPERTY, max_examples=150)
@given(rows=st.lists(_stub_row, min_size=2, max_size=5), log_delta=st.floats(-16.0, 0.0))
@example(
    # an exact zero after 7 steps, a one-ulp bracket (P > delta / eps) and
    # a delta stop, all in the same walk
    rows=[(1.0, 0.0, 7, 0b1011001, True), (1e5, 0.0, 64, 12345, False), (1e-6, -3.0, 64, 99, False)],
    log_delta=-12.0,
)
def test_lookahead_bisection_matches_on_stub_derivatives_in_a_chunk(rows, log_delta):
    # Rows share delta but not their bracket, target or stop: a row may
    # end at an exact zero, at one ulp or at delta while the others walk
    # on.  Each row returns the sequential walk's bits.
    (roots, steps), slow = _stub_chunk(rows, 10.0**log_delta)
    for root, n, (mid, n_slow, _) in zip(roots, steps, slow):
        assert np.float64(root).tobytes() == np.float64(mid).tobytes()
        assert n == n_slow


def test_stub_chunk_example_stops_by_every_rule():
    # The pinned example above ends its three rows at three different stops.
    rows = [(1.0, 0.0, 7, 0b1011001, True), (1e5, 0.0, 64, 12345, False), (1e-6, -3.0, 64, 99, False)]
    (roots, steps), slow = _stub_chunk(rows, 1e-12)
    assert [stop for _, _, stop in slow] == ["zero", "ulp", "delta"]
    assert [n for _, n, _ in slow] == list(steps)


@st.composite
def _user_sets(draw):
    """Two to six users with mixed channels and noise powers."""
    k = draw(st.integers(2, 6))
    cfg = SystemConfig(
        m_antennas=draw(st.integers(k + 1, 600)),
        p_max=10.0 ** draw(log_p_max),
        bandwidth_hz=18e6,
    )
    log_r = draw(st.lists(st.floats(-12.0, 20.0), min_size=k, max_size=k))
    noise = 10.0 ** np.array(draw(st.lists(st.floats(-15.0, -11.0), min_size=k, max_size=k)))
    return UeSet(beta=_beta(10.0 ** np.array(log_r), noise, cfg), noise_w=noise), cfg


def _solved(strategy, ues, cfg):
    try:
        return strategy(ues, cfg)
    except SolverError:
        return None


STRATEGY_PROPERTY = settings(PROPERTY, max_examples=60)


@settings(PROPERTY, max_examples=300)
@given(
    m=st.sampled_from([32, 64, 128, 512]),
    p_max=st.sampled_from([0.01, 0.1]),
    pl_db=st.lists(st.floats(70.0, 150.0), min_size=2, max_size=8),
)
def test_dominance_ladder_on_generated_instances(m, p_max, pl_db):
    # c07's three relations, each within 1e-9 relative, on instances
    # drawn from the ranges of its 500 pinned ones: K 2 to 8, M in
    # {32, 64, 128, 512}, a 10 or 100 mW cap, path loss 70 to 150 dB.
    cfg = _homog_config(m, p_max)
    ues = UeSet(beta=10.0 ** (-np.array(pl_db) / 10.0), noise_w=NOISE_W)
    rate = {name: _sum_rate(cfg, ues, ALGORITHMS[name](ues, cfg)) for name in ALGORITHMS}
    for better, worse in (("DAPA-FPDA", "DAPA-E"), ("DAPA-FPDA", "REF-FPDA"), ("REF-FPDA", "REF-E")):
        assert rate[better] >= rate[worse] * (1.0 - 1e-9), (better, worse, rate)

# Water-filling once lost the unit sum on this set: both breakpoints are
# about 2.7e7, where mu - G_k cancels (REF-FPDA and DAPA-FPDA raised).
_LARGE_BREAKPOINTS = (
    UeSet(beta=np.array([5e-19, 5e-20]), noise_w=np.array([1e-11, 1e-12])),
    SystemConfig(m_antennas=3, p_max=1.0, bandwidth_hz=18e6),
)


@STRATEGY_PROPERTY
@given(problem=_user_sets(), rng=st.randoms(use_true_random=False))
@example(problem=_LARGE_BREAKPOINTS, rng=random.Random(0))  # swaps the two users
def test_strategies_are_permutation_equivariant(problem, rng):
    ues, cfg = problem
    perm = np.array(rng.sample(range(ues.n_users), ues.n_users))
    permuted = UeSet(beta=ues.beta[perm], noise_w=ues.noise_w[perm])
    for label, strategy in ALGORITHMS.items():
        base = _solved(strategy, ues, cfg)
        moved = _solved(strategy, permuted, cfg)
        assert (base is None) == (moved is None), label
        if base is not None:
            np.testing.assert_allclose(moved.omega, base.omega[perm], rtol=0, atol=1e-9, err_msg=label)
            assert abs(moved.total_power_p - base.total_power_p) <= default_delta(cfg), label


@STRATEGY_PROPERTY
@given(problem=_user_sets(), log_scale=st.floats(-3.0, 3.0))
def test_dapa_e_backoff_is_invariant_to_joint_cap_and_noise_scaling(problem, log_scale):
    # r = beta ETA M p_max / sigma^2 is unchanged, so the optimal
    # back-off M p_max / P is too, to c03's 1e-9 dB.
    ues, cfg = problem
    scale = 10.0**log_scale
    scaled_cfg = SystemConfig(cfg.m_antennas, cfg.p_max * scale, cfg.bandwidth_hz)
    base = _solved(dapa_e, ues, cfg)
    scaled = _solved(dapa_e, UeSet(beta=ues.beta, noise_w=ues.noise_w * scale), scaled_cfg)
    assert (base is None) == (scaled is None)
    if base is not None:
        ibo_db = [
            10.0 * math.log10(input_backoff(alloc.total_power_p, c.m_antennas, c.p_max))
            for alloc, c in ((base, cfg), (scaled, scaled_cfg))
        ]
        assert abs(ibo_db[1] - ibo_db[0]) < 1e-9
