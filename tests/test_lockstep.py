"""Lockstep chunks: every row of a chunked solve is bitwise its own one-set solve.

The chunk holds the eight seed-2024 drops at the c06 shape (K = 60,
M = 64).  Their alternating optimizers keep 3 to 9 of the 60 users and
take 5 to 9 rounds, so the rows differ in active-user count and in when
they stop.  A ninth row whose channels are below the Lambert-W bracket's
floor raises ``SolverError`` alone while the other rows finish.
"""

import numpy as np
import pytest

from dapalloc import allocator, dapa
from dapalloc.allocator import ALGORITHMS, alternating_optimize
from dapalloc.bench import _system_config
from dapalloc.dapa import DapaResult, SolverError, solve_dapa
from dapalloc.metrics import UeSet
from dapalloc.pa_model import ETA
from dapalloc.scenario import ScenarioConfig, drop_ues

SC = ScenarioConfig(n_users=60, m_antennas=64, p_max=0.1, cell_radius_m=2000.0, seed=2024)
CFG = _system_config(SC)
DROPS = [drop_ues(SC, drop_id) for drop_id in range(8)]
# r = beta ETA M p_max / sigma^2 ~ 6e-17, below the bracket's floor of 1e-13
FAILING = UeSet(beta=np.full(60, 1e-30), noise_w=DROPS[0].noise_w)
CHUNK = DROPS[:4] + [FAILING] + DROPS[4:]


def _bits(x):
    """Raw bytes of a float, an array, or each field of a result."""
    if isinstance(x, DapaResult):
        return tuple(_bits(getattr(x, f)) for f in DapaResult.__dataclass_fields__)
    return np.asarray(x, dtype=np.float64).tobytes()


def _same_failure(outcome, one_set):
    """``outcome`` is the error that ``one_set()`` raises."""
    with pytest.raises(SolverError) as raised:
        one_set()
    assert isinstance(outcome, SolverError)
    assert str(outcome) == str(raised.value)
    assert outcome.diagnostics == raised.value.diagnostics


def _same_run(got, expected):
    """Two (Allocation, AoTrace) pairs agree bit for bit."""
    (alloc, trace), (alloc_1, trace_1) = got, expected
    assert _bits(alloc.total_power_p) == _bits(alloc_1.total_power_p)
    assert _bits(alloc.omega) == _bits(alloc_1.omega)
    assert (trace.converged, trace.iterations) == (trace_1.converged, trace_1.iterations)
    for (p, w, rate), (p_1, w_1, rate_1) in zip(trace.iterates, trace_1.iterates, strict=True):
        assert (_bits(p), _bits(w), _bits(rate)) == (_bits(p_1), _bits(w_1), _bits(rate_1))


@pytest.fixture(scope="module")
def ao_runs():
    return [alternating_optimize(ues, CFG) for ues in DROPS]


def test_chunk_rows_differ_in_users_and_rounds(ao_runs):
    # the premise of the tests below
    active = {int(np.sum(alloc.omega > 0)) for alloc, _ in ao_runs}
    rounds = {trace.iterations for _, trace in ao_runs}
    assert min(active) <= 3 and max(active) >= 9
    assert min(rounds) <= 5 and max(rounds) >= 9


def test_chunked_solve_dapa_rows_are_their_one_set_solves(ao_runs):
    # Equal fractions (all 60 users active) and the alternating
    # optimizer's water-filled fractions (3 to 9 active) in one chunk.
    omegas = [np.full(60, 1.0 / 60) for _ in DROPS]
    omegas += [trace.iterates[0][1] for _, trace in ao_runs]
    sets = DROPS + DROPS
    sets.insert(5, FAILING)
    omegas.insert(5, np.full(60, 1.0 / 60))
    outcomes = solve_dapa(sets, omegas, CFG)
    assert len(outcomes) == len(sets)
    for ues, omega, outcome in zip(sets, omegas, outcomes):
        if ues is FAILING:
            _same_failure(outcome, lambda: solve_dapa(ues, omega, CFG))
        else:
            assert _bits(outcome) == _bits(solve_dapa(ues, omega, CFG))


def test_guard_fires_on_some_rows_of_a_chunk(monkeypatch):
    # Channels spread over 32 decades give the derivative several sign
    # changes, so the multi-root guard re-bisects on some rows (its
    # candidates are the only evaluate calls of a solve) and not on others.
    rng = np.random.default_rng(8)
    noise = np.full(4, 7.2e-14)
    sets = [
        UeSet(beta=10.0 ** rng.uniform(-12, 20, size=4) * noise / (ETA * 64 * 0.1), noise_w=noise)
        for _ in range(12)
    ]
    omegas = [rng.dirichlet(np.ones(4)) for _ in sets]
    calls = [0]
    real = dapa.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(dapa, "evaluate", counted)
    expected, fired = [], []
    for ues, omega in zip(sets, omegas):
        calls[0] = 0
        expected.append(solve_dapa(ues, omega, CFG))
        fired.append(calls[0] > 0)
    assert any(fired) and not all(fired)
    for outcome, one_set in zip(solve_dapa(sets, omegas, CFG), expected, strict=True):
        assert _bits(outcome) == _bits(one_set)


def test_chunked_alternating_optimizer_rows_are_their_one_set_runs(ao_runs):
    outcomes = allocator._ao_rows(CHUNK, CFG)
    _same_failure(outcomes[4], lambda: alternating_optimize(FAILING, CFG))
    for outcome, expected in zip(outcomes[:4] + outcomes[5:], ao_runs, strict=True):
        _same_run(outcome, expected)


@pytest.mark.parametrize("max_iters", [5, 6])
def test_rows_that_run_out_of_rounds_keep_their_best_iterate(max_iters, ao_runs):
    # Rows that need more rounds stop at max_iters, unconverged, while
    # the others converge within the same chunk.
    outcomes = allocator._ao_rows(DROPS, CFG, max_iters=max_iters)
    converged = [trace.converged for _, trace in outcomes]
    assert any(converged) and not all(converged)
    for ues, outcome in zip(DROPS, outcomes):
        _same_run(outcome, alternating_optimize(ues, CFG, max_iters=max_iters))


@pytest.mark.parametrize("label", list(ALGORITHMS))
def test_strategies_on_a_chunk_are_their_one_set_calls(label):
    # The fixed-back-off strategies do not solve, so the failing row is
    # only for the optimizing ones (water-filling its channels is a ValueError).
    strategy = ALGORITHMS[label]
    chunk = CHUNK if label.startswith("DAPA") else DROPS
    outcomes = strategy(chunk, CFG)
    assert len(outcomes) == len(chunk)
    for ues, outcome in zip(chunk, outcomes):
        if ues is FAILING:
            _same_failure(outcome, lambda: strategy(ues, CFG))
            continue
        alloc = strategy(ues, CFG)
        assert _bits(outcome.total_power_p) == _bits(alloc.total_power_p)
        assert _bits(outcome.omega) == _bits(alloc.omega)
