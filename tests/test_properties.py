"""Properties of the total-power solver on generated inputs.

``r = beta ETA M p_max / sigma^2`` is the one number the power balance
depends on besides M and p_max, so the generated inputs draw it
log-uniformly and derive the channel gain from it.  Examples are derandomized, so the
suite stays deterministic.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dapalloc import dapa
from dapalloc.dapa import SolverError, default_delta, power_balance, root_bounds, solve_dapa
from dapalloc.metrics import SystemConfig, UeSet
from dapalloc.pa_model import ETA

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
    # derivative once per bisection step plus three times, a few hundred
    # times at most.
    calls = []
    real = dapa.sum_rate_derivative

    def counted(*args):
        calls.append(args[0])
        if len(calls) > 2000:
            raise AssertionError("bisection does not terminate")
        return real(*args)

    with mock.patch.object(dapa, "sum_rate_derivative", counted):
        try:
            res = solve_dapa(ues, omega, cfg)
        except SolverError:
            return
    delta = default_delta(cfg)
    width = res.bracket_hi - res.bracket_lo
    assert res.iterations <= math.ceil(math.log2(width / delta)) + 1
    assert res.bracket_lo <= res.total_power_p <= res.bracket_hi
