"""Lockstep chunks: every row of a chunked solve is bitwise its own one-set solve.

The chunk holds the eight seed-2024 drops at the c06 shape (K = 60,
M = 64).  Their alternating optimizers keep 3 to 9 of the 60 users and
take 5 to 9 rounds, so the rows differ in active-user count and in when
they stop.  A ninth row whose channels are below the Lambert-W bracket's
floor raises ``SolverError`` alone while the other rows finish.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dapalloc import allocator, dapa
from dapalloc.allocator import ALGORITHMS, alternating_optimize
from dapalloc.bench import _system_config
from dapalloc.dapa import DapaResult, SolverError, solve_dapa, sum_rate_derivative
from dapalloc.metrics import UeSet
from dapalloc.pa_model import ETA
from dapalloc.scenario import ScenarioConfig, drop_ues
from dapa_reference import bisect_walk
from test_properties import PROPERTY, _stub_row, _stub_target, _stub_value

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


def _negate_rows(monkeypatch, negated):
    """Make ``dapa.sum_rate_derivative`` flip its sign on the rows whose
    user set is one of ``negated`` (by identity)."""

    def stub(p, ues_rows, omega_rows, cfg):
        flip = np.array([any(ues is n for n in negated) for ues in ues_rows])
        values = sum_rate_derivative(p, ues_rows, omega_rows, cfg)
        return np.where(flip[:, None], -values, values)

    monkeypatch.setattr(dapa, "sum_rate_derivative", stub)


def test_a_sign_violation_fails_its_row_alone(monkeypatch):
    # A derivative that falls at the bracket's left end or rises at its
    # right end violates the bracket's sign condition: that row, and only
    # it, comes back as the error; a chunk of such rows gives only errors.
    sets = DROPS[:3]
    omegas = [np.full(60, 1.0 / 60) for _ in sets]
    expected = [solve_dapa(ues, omega, CFG) for ues, omega in zip(sets, omegas)]
    _negate_rows(monkeypatch, [sets[1]])
    outcomes = solve_dapa(sets, omegas, CFG)
    for i in (0, 2):
        assert _bits(outcomes[i]) == _bits(expected[i])
    error = outcomes[1]
    assert isinstance(error, SolverError)
    assert str(error) == "derivative sign condition violated at the initial bracket"
    assert set(error.diagnostics) == {
        "bracket_lo", "bracket_hi", "derivative_lo", "derivative_hi", "delta", "m_antennas", "p_max"
    }
    assert _bits(error.diagnostics["bracket_lo"]) == _bits(expected[1].bracket_lo)
    assert _bits(error.diagnostics["bracket_hi"]) == _bits(expected[1].bracket_hi)
    assert error.diagnostics["derivative_lo"] < 0.0 < error.diagnostics["derivative_hi"]

    _negate_rows(monkeypatch, sets)
    outcomes = solve_dapa(sets, omegas, CFG)
    assert len(outcomes) == 3
    for outcome in outcomes:
        assert isinstance(outcome, SolverError)
        assert str(outcome) == "derivative sign condition violated at the initial bracket"


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


def _equal(ues):
    return np.full(ues.n_users, 1.0 / ues.n_users)


@pytest.mark.parametrize("dapa_e_first", [True, False])
def test_dapa_e_is_the_optimizers_first_round(dapa_e_first, monkeypatch):
    # DAPA-E's solve is the optimizer's first round; whichever runs first
    # solves it, and both give the bits of a plain equal-fraction solve.
    monkeypatch.setattr(allocator, "_equal_split_memo", None, raising=False)
    if dapa_e_first:
        dapa_e = allocator.dapa_e(CHUNK, CFG)
        ao = allocator._ao_rows(CHUNK, CFG)
    else:
        ao = allocator._ao_rows(CHUNK, CFG)
        dapa_e = allocator.dapa_e(CHUNK, CFG)
    plain = solve_dapa(CHUNK, [_equal(ues) for ues in CHUNK], CFG)
    for ues, alloc, run, solved in zip(CHUNK, dapa_e, ao, plain, strict=True):
        if ues is FAILING:
            for outcome in (alloc, run):
                assert isinstance(outcome, SolverError)
                assert (str(outcome), outcome.diagnostics) == (str(solved), solved.diagnostics)
            continue
        first_power = run[1].iterates[0][0]
        assert _bits(alloc.total_power_p) == _bits(first_power) == _bits(solved.total_power_p)
        assert _bits(alloc.omega) == _bits(_equal(ues))


def _count_solves(monkeypatch):
    """Count equal-fraction total-power solves and Lambert-W bound calls."""
    counts = {"equal_split": 0, "root_bounds": 0}
    solve, bounds = allocator.solve_dapa, dapa.root_bounds

    def counted_solve(ues, omega, *args, **kwargs):
        if all(np.array_equal(w, _equal(one_set)) for one_set, w in zip(ues, omega)):
            counts["equal_split"] += 1
        return solve(ues, omega, *args, **kwargs)

    def counted_bounds(*args, **kwargs):
        counts["root_bounds"] += 1
        return bounds(*args, **kwargs)

    monkeypatch.setattr(allocator, "solve_dapa", counted_solve)
    monkeypatch.setattr(dapa, "root_bounds", counted_bounds)
    monkeypatch.setattr(allocator, "_equal_split_memo", None, raising=False)
    return counts


def test_a_chunk_is_solved_at_equal_fractions_and_bounded_once(monkeypatch):
    counts = _count_solves(monkeypatch)
    ao = allocator.dapa_fpda(DROPS, CFG)
    equal = allocator.dapa_e(DROPS, CFG)
    assert counts == {"equal_split": 1, "root_bounds": 1}
    # the memo serves one hit, so a repeated chunk (a traced benchmark
    # pass repeats its untraced one) is solved again, as at first
    allocator.dapa_e(DROPS, CFG)
    assert counts == {"equal_split": 2, "root_bounds": 2}
    # each row is still its one-set solve
    for ues, alloc, fpda_alloc in zip(DROPS, equal, ao):
        assert _bits(alloc.total_power_p) == _bits(allocator.dapa_e(ues, CFG).total_power_p)
        assert _bits(fpda_alloc.omega) == _bits(allocator.dapa_fpda(ues, CFG).omega)


def test_a_changed_chunk_is_solved_afresh(monkeypatch):
    counts = _count_solves(monkeypatch)
    allocator.dapa_e(DROPS, CFG)
    changed = list(DROPS)
    beta = DROPS[5].beta.copy()
    beta[17] *= 2.0
    changed[5] = UeSet(beta=beta, noise_w=DROPS[5].noise_w)
    got = allocator.dapa_e(changed, CFG)
    assert counts["equal_split"] == 2
    plain = solve_dapa(changed, [_equal(ues) for ues in changed], CFG)
    for alloc, solved in zip(got, plain, strict=True):
        assert _bits(alloc.total_power_p) == _bits(solved.total_power_p)
    assert _bits(got[5].total_power_p) != _bits(allocator.dapa_e(DROPS[5], CFG).total_power_p)


def _guard_sets():
    """The twelve mixed-channel sets of the guard test above, with fractions."""
    rng = np.random.default_rng(8)
    noise = np.full(4, 7.2e-14)
    sets = [
        UeSet(beta=10.0 ** rng.uniform(-12, 20, size=4) * noise / (ETA * 64 * 0.1), noise_w=noise)
        for _ in range(12)
    ]
    return sets, [rng.dirichlet(np.ones(4)) for _ in sets]


@pytest.mark.parametrize("delta", [None, 1e-30, 1e9], ids=["delta", "one-ulp", "no-walk"])
def test_derivative_residual_is_a_fresh_derivative_ratio(delta, monkeypatch):
    # The default delta ends walks on the ladder's last level and before
    # it, 1e-30 drives them to one ulp, and 1e9 is wider than some
    # brackets, so those rows never walk.  Some guard rows stop at an
    # exact zero (the derivative underflows), and the guard moves their roots.
    sets, omegas = _guard_sets()
    # two users of drop 0 whose walk takes 30 steps: it ends on the last level
    pair = UeSet(beta=DROPS[0].beta[52:54], noise_w=DROPS[0].noise_w[52:54])
    sets, omegas = DROPS + [pair] + sets, [_equal(ues) for ues in DROPS + [pair]] + omegas
    fresh_rows = []
    real = dapa._derivative_rows

    def spied(power, ues_rows, *rest):
        if power.shape[1] == 1:  # the closing call at the returned powers
            fresh_rows.append(len(ues_rows))
        return real(power, ues_rows, *rest)

    monkeypatch.setattr(dapa, "_derivative_rows", spied)
    outcomes = solve_dapa(sets, omegas, CFG, delta)
    monkeypatch.undo()
    moved, walks = 0, []
    for ues, omega, res in zip(sets, omegas, outcomes, strict=True):
        at_root = dapa.sum_rate_derivative(res.total_power_p, ues, omega, CFG)
        at_lo = dapa.sum_rate_derivative(res.bracket_lo, ues, omega, CFG)
        assert _bits(res.derivative_residual) == _bits(abs(at_root) / abs(at_lo))
        width = delta or dapa.default_delta(CFG)
        root, steps, stop = bisect_walk(res.bracket_lo, res.bracket_hi, width, ues, omega, CFG)
        moved += res.total_power_p != root
        walks.append((steps, stop))
    stops = {stop for _, stop in walks}
    assert moved > 0
    if delta is None:
        assert stops == {"delta", "zero"}
        # rows on the last level and moved rows are fresh, the rest not
        assert moved < sum(fresh_rows) < len(sets)
    elif delta == 1e-30:
        assert stops == {"ulp", "zero"}
        assert sum(fresh_rows) == moved
    else:
        assert any(steps == 0 for steps, _ in walks)
        assert sum(fresh_rows) == len(sets)


@settings(PROPERTY, max_examples=150)
@given(rows=st.lists(_stub_row, min_size=2, max_size=5), log_delta=st.floats(-16.0, 0.0))
@example(
    # an exact zero, a one-ulp bracket and a delta stop in one walk
    rows=[(1.0, 0.0, 7, 0b1011001, True), (1e5, 0.0, 64, 12345, False), (1e-6, -3.0, 64, 99, False)],
    log_delta=-12.0,
)
def test_walk_returns_the_ladder_derivative_at_its_root(rows, log_delta):
    # On stub derivatives: a row that stops at an exact zero or one ulp,
    # or at delta before its ladder's last level, returns the derivative
    # at its root; a row that stops on the last level, or never walks,
    # returns NaN.
    delta = 10.0**log_delta
    brackets = [(lo, lo + 10.0**log_width) for lo, log_width, *_ in rows]
    stubs = [
        (_stub_target(lo, hi, depth, turns), exact)
        for (lo, hi), (_, _, depth, turns, exact) in zip(brackets, rows)
    ]

    def stub(p, ues, *rest):
        if isinstance(ues, tuple):  # the sequential walk's one-set form
            return _stub_value(p, *ues)
        return np.array([_stub_value(row, *row_stub) for row, row_stub in zip(p, ues)])

    with mock.patch.object(dapa, "sum_rate_derivative", stub):
        _, _, at_root = dapa._walk(
            [lo for lo, _ in brackets], [hi for _, hi in brackets], delta, stubs, [None] * len(rows), None
        )
        slow = [bisect_walk(lo, hi, delta, row_stub, None, None) for (lo, hi), row_stub in zip(brackets, stubs)]
    for value, (root, steps, stop), row_stub in zip(at_root, slow, stubs):
        assert np.isnan(value) == (stop == "delta" and steps % dapa._LOOKAHEAD_LEVELS == 0)
        if not np.isnan(value):
            assert _bits(value) == _bits(_stub_value(root, *row_stub))


def test_later_rounds_are_plain_solves_at_their_fractions(ao_runs):
    # Later rounds bracket from the first round's per-user bounds; each
    # round's power is bitwise a fresh solve at the last round's fractions,
    # unless the ascent safeguard kept the last power.
    for ues, (_, trace) in zip(DROPS, ao_runs):
        for (last, omega, rate), (power, _, _) in zip(trace.iterates, trace.iterates[1:]):
            fresh = solve_dapa(ues, omega, CFG)
            expected = last if fresh.sum_rate < rate else fresh.total_power_p
            assert _bits(power) == _bits(expected)
