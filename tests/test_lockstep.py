"""Lockstep chunks: every row of a chunked solve is bitwise its own one-set solve.

The chunk holds the eight seed-2024 drops at the c06 shape (K = 60,
M = 64).  Their alternating optimizers keep 3 to 9 of the 60 users and
take 5 to 9 rounds, so the rows differ in active-user count and in when
they stop.  A ninth row whose channels are below the Lambert-W bracket's
floor raises ``SolverError`` alone while the other rows finish.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dapalloc import allocator, dapa
from dapalloc.allocator import ALGORITHMS, alternating_optimize
from dapalloc.bench import _system_config
from dapalloc.dapa import DapaResult, SolverError, solve_dapa, sum_rate_derivative
from dapalloc.metrics import _BLOCK_ROWS, UeSet
from dapalloc.pa_model import ETA
from dapalloc.scenario import ScenarioConfig, drop_ues
from dapa_reference import bisect_walk
from test_acceptance import _by_config, _random_instances
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

    def stub(p, ues_rows, omega_rows, cfg, **kwargs):
        flip = np.array([any(ues is n for n in negated) for ues in ues_rows])
        values = sum_rate_derivative(p, ues_rows, omega_rows, cfg, **kwargs)
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


def test_the_guard_rates_a_chunk_in_blocks_with_each_rows_bits(monkeypatch):
    # One chunk holds 130 two-user sets, half of them spread over 32
    # decades, with sets of 3, 4 and 5 users amid and after them.  The
    # guard rates each user count's rows together, the two-user rows in
    # blocks of _BLOCK_ROWS and 2, and fires on rows of every count; each
    # row is bitwise its one-set solve.
    rng = np.random.default_rng(31)

    def mixed(k, low=-12.0, high=20.0):
        noise = np.full(k, 7.2e-14)
        return UeSet(beta=10.0 ** rng.uniform(low, high, size=k) * noise / (ETA * 64 * 0.1), noise_w=noise)

    few = [mixed(k) for _ in range(6) for k in (3, 4, 5)]
    pairs = [mixed(2) if i % 2 else mixed(2, 0.0, 2.0) for i in range(130)]
    sets = pairs[:60] + few[:9] + pairs[60:] + few[9:]
    omegas = [rng.dirichlet(np.ones(ues.n_users)) for ues in sets]
    calls, real = [0], dapa.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(dapa, "evaluate", counted)
    expected, fired = [], set()
    for ues, omega in zip(sets, omegas):
        calls[0] = 0
        expected.append(solve_dapa(ues, omega, CFG))
        if calls[0]:
            fired.add(ues.n_users)
    assert fired == {2, 3, 4, 5}
    blocks, real_rate = [], dapa._rate_rows

    def rated(cfg, beta, *args, **kwargs):
        blocks.append(beta.shape)
        return real_rate(cfg, beta, *args, **kwargs)

    monkeypatch.setattr(dapa, "_rate_rows", rated)
    for outcome, one_set in zip(solve_dapa(sets, omegas, CFG), expected, strict=True):
        assert _bits(outcome) == _bits(one_set)
    assert sorted(blocks) == [(2, 1, 2), (6, 1, 3), (6, 1, 4), (6, 1, 5), (_BLOCK_ROWS, 1, 2)]


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


@pytest.mark.parametrize(
    "solve", [*ALGORITHMS.values(), lambda ues, cfg: solve_dapa(ues, [], cfg)], ids=[*ALGORITHMS, "solve_dapa"]
)
def test_an_empty_chunk_has_no_outcomes(solve):
    # as for evaluate and sum_rate_derivative; the DAPA paths used to
    # fail inside np.concatenate
    assert solve([], CFG) == []


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


def _guard_sets(seed=8, n_sets=12):
    """Mixed-channel sets with fractions; by default the twelve of the
    guard test above."""
    rng = np.random.default_rng(seed)
    noise = np.full(4, 7.2e-14)
    sets = [
        UeSet(beta=10.0 ** rng.uniform(-12, 20, size=4) * noise / (ETA * 64 * 0.1), noise_w=noise)
        for _ in range(n_sets)
    ]
    return sets, [rng.dirichlet(np.ones(4)) for _ in sets]


# A mixed-channel set whose guard returns one of its samples, a power no
# derivative call evaluated, at every delta below and in the optimizer.
(SAMPLED,), (SAMPLED_OMEGA,) = _guard_sets(seed=218, n_sets=1)


@pytest.mark.parametrize("delta", [None, 1e-30, 1e9], ids=["delta", "one-ulp", "no-walk"])
def test_derivative_residual_is_a_fresh_derivative_ratio(delta, monkeypatch):
    # The default delta ends walks on the ladder's last level and before
    # it, 1e-30 drives them to one ulp, and 1e9 is wider than some
    # brackets, so those rows never walk.  Some guard rows stop at an
    # exact zero (the derivative underflows), and the guard moves their
    # roots; in every case some row returns a guard sample.
    sets, omegas = _guard_sets()
    # two users of drop 0 whose walk takes 30 steps: it ends on the last level
    pair = UeSet(beta=DROPS[0].beta[52:54], noise_w=DROPS[0].noise_w[52:54])
    sets = DROPS + [pair] + sets + [SAMPLED]
    omegas = [_equal(ues) for ues in DROPS + [pair]] + omegas + [SAMPLED_OMEGA]
    fresh_rows, evaluated = [], _record_evaluated_powers(monkeypatch)
    real = dapa._derivative_rows

    def spied(power, ues_rows, *rest):
        if power.shape[1] == 1:  # the closing call at the returned powers
            fresh_rows.extend(map(id, ues_rows))
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
        assert any(stop == "delta" and steps % dapa._LOOKAHEAD_LEVELS == 0 for steps, stop in walks)
    elif delta == 1e-30:
        assert stops == {"ulp", "zero"}
    else:
        assert any(steps == 0 for steps, _ in walks)
    # only the rows whose returned power no derivative call evaluated are
    # fresh, and that power is one of the guard's samples, never a walk's root
    assert sorted(fresh_rows) == sorted(
        id(ues) for ues, res in zip(sets, outcomes) if res.total_power_p not in evaluated[id(ues)]
    )
    samples = [np.geomspace(res.bracket_lo, res.bracket_hi, dapa._GUARD_SAMPLES).tolist() for res in outcomes]
    sampled = {id(ues) for ues, res, row in zip(sets, outcomes, samples) if res.total_power_p in row}
    assert fresh_rows and set(fresh_rows) <= sampled


def _record_evaluated_powers(monkeypatch):
    """Spy on ``dapa.sum_rate_derivative``; return the dict it fills with
    every power that the sign check and the walks evaluated for each user
    set, by ``id``.  The closing call, one power per row, is not recorded."""
    evaluated, derivative = {}, dapa.sum_rate_derivative

    def recorded(p, ues_rows, *rest, **kwargs):
        if p.shape[1] > 1:
            for ues, row in zip(ues_rows, p):
                evaluated.setdefault(id(ues), set()).update(row.tolist())
        return derivative(p, ues_rows, *rest, **kwargs)

    monkeypatch.setattr(dapa, "sum_rate_derivative", recorded)
    return evaluated


@settings(PROPERTY, max_examples=150)
@given(rows=st.lists(_stub_row, min_size=2, max_size=5), log_delta=st.floats(-16.0, 0.0))
@example(
    # an exact zero, a one-ulp bracket and a delta stop in one walk
    rows=[(1.0, 0.0, 7, 0b1011001, True), (1e5, 0.0, 64, 12345, False), (1e-6, -3.0, 64, 99, False)],
    log_delta=-12.0,
)
@example(rows=[(1.0, 0.0, 0, 0, False)] * 2, log_delta=0.0)  # brackets within delta: no step
def test_walk_returns_the_ladder_derivative_at_its_root(rows, log_delta):
    # On stub derivatives: every row, whether it stops at an exact zero,
    # at one ulp or at delta, on a ladder level or below it, or never
    # steps, holds the derivative at its root in its table.
    delta = 10.0**log_delta
    brackets = [(lo, lo + 10.0**log_width) for lo, log_width, *_ in rows]
    stubs = [
        (_stub_target(lo, hi, depth, turns), exact)
        for (lo, hi), (_, _, depth, turns, exact) in zip(brackets, rows)
    ]

    def stub(p, ues, *rest, **kwargs):
        if isinstance(ues, tuple):  # the sequential walk's one-set form
            return _stub_value(p, *ues)
        return np.array([_stub_value(row, *row_stub) for row, row_stub in zip(p, ues)])

    tables = [{} for _ in rows]
    with mock.patch.object(dapa, "sum_rate_derivative", stub):
        roots, _ = dapa._walk(
            [lo for lo, _ in brackets], [hi for _, hi in brackets], delta, stubs, [None] * len(rows), None,
            tables,
        )
        at_root = [table.get(root, np.nan) for table, root in zip(tables, roots.tolist())]
        slow = [bisect_walk(lo, hi, delta, row_stub, None, None) for (lo, hi), row_stub in zip(brackets, stubs)]
    for value, (root, _, _), row_stub in zip(at_root, slow, stubs):
        assert _bits(value) == _bits(_stub_value(root, *row_stub))


# A guess at a stub row's root: its kind, a fraction of the bracket width,
# and a midpoint-tree position (depth, turns) as _stub_target reads them.
_stub_guess = st.tuples(
    st.sampled_from(["inside", "below", "above", "lo", "hi", "ladder", "deep", "diverging"]),
    st.floats(0.0, 1.0),
    st.integers(0, 64),
    st.integers(0, 2**64 - 1),
)


def _guess_at(kind, fraction, depth, turns, lo, hi, row_depth, row_turns):
    width = hi - lo
    return {
        "inside": lo + fraction * width,
        "below": lo - fraction * width,
        "above": hi + fraction * width,
        "lo": lo,
        "hi": hi,
        # a midpoint on the ladder's levels, and one at any depth, where the path stops
        "ladder": _stub_target(lo, hi, depth % dapa._LOOKAHEAD_LEVELS, turns),
        "deep": _stub_target(lo, hi, depth, turns),
        # the root's own turns with the first one flipped: the paths part at once
        "diverging": _stub_target(lo, hi, max(row_depth, 1), row_turns ^ 1),
    }[kind]


def _stub(p, ues, *rest, **kwargs):
    """A stub derivative: row r's values are its (target, exact) stub's."""
    if isinstance(ues, tuple):  # the sequential walk's one-set form
        return _stub_value(p, *ues)
    return np.array([_stub_value(row, *row_stub) for row, row_stub in zip(p, ues)])


def _stub_walks(rows, delta):
    """The lockstep walk on stub rows with their guesses, the same walk
    with the guesses' paths removed, and each row alone through the
    sequential walk: (the walk's roots, steps and each row's table value
    at its root or NaN, calls per row, calls per row unguessed, the
    sequential walks, the stubs)."""
    brackets = [(lo, lo + 10.0**log_width) for (lo, log_width, *_), _ in rows]
    stubs = [
        (_stub_target(lo, hi, depth, turns), exact)
        for (lo, hi), ((_, _, depth, turns, exact), _) in zip(brackets, rows)
    ]
    guesses = [
        _guess_at(*guess, lo, hi, depth, turns)
        for (lo, hi), ((_, _, depth, turns, _), guess) in zip(brackets, rows)
    ]

    def walk():
        calls, tables = [0] * len(stubs), [{} for _ in stubs]

        def counted(p, ues, *rest, **kwargs):
            for row_stub in ues:
                calls[next(i for i, s in enumerate(stubs) if s is row_stub)] += 1
            if max(calls) > 200:  # a row of these walks takes at most about 70 steps
                raise AssertionError("walk does not terminate")
            return _stub(p, ues, *rest, **kwargs)

        with mock.patch.object(dapa, "sum_rate_derivative", counted):
            roots, steps = dapa._walk(
                [lo for lo, _ in brackets], [hi for _, hi in brackets], delta, stubs, [None] * len(rows),
                None, tables, guess=guesses,
            )
        return (roots, steps, [table.get(root, np.nan) for table, root in zip(tables, roots.tolist())]), calls

    walked, calls = walk()
    with mock.patch.object(dapa, "_guess_path", lambda *args: []):
        _, unguessed = walk()
    with mock.patch.object(dapa, "sum_rate_derivative", _stub):
        slow = [bisect_walk(lo, hi, delta, stub, None, None) for (lo, hi), stub in zip(brackets, stubs)]
    return walked, calls, unguessed, slow, stubs


# Rows that stop at an exact zero (guessed exactly), at one ulp and at
# delta, and guesses at the bracket's ends, outside it, on a ladder
# midpoint and on a path that parts from the root's at the first level.
_GUESSED_ROWS = [
    ((1.0, 0.0, 7, 0b1011001, True), ("deep", 0.0, 7, 0b1011001)),
    ((1e5, 0.0, 64, 12345, False), ("inside", 0.3, 0, 0)),
    ((1e-6, -3.0, 64, 99, False), ("below", 0.5, 0, 0)),
    ((2.0, 1.0, 40, 2**40 - 1, False), ("hi", 0.0, 0, 0)),
    ((3.0, 2.0, 33, 0, True), ("lo", 0.0, 0, 0)),
]
_MORE_GUESSED_ROWS = [
    ((1.0, 0.0, 30, 0b10110, False), ("diverging", 0.0, 0, 0)),
    ((1.0, -2.0, 30, 0b10110, True), ("ladder", 0.0, 3, 0b101)),
    ((5.0, 0.5, 50, 987654321, False), ("above", 0.7, 0, 0)),
]


@settings(PROPERTY, max_examples=150)
@given(
    rows=st.lists(st.tuples(_stub_row, _stub_guess), min_size=2, max_size=5), log_delta=st.floats(-16.0, 0.0)
)
@example(rows=_GUESSED_ROWS, log_delta=-12.0)
@example(rows=_MORE_GUESSED_ROWS, log_delta=-9.0)
def test_speculative_walk_is_the_plain_walk_in_no_more_calls(rows, log_delta):
    # On stub derivatives, with any guess: each row returns the
    # sequential walk's root and steps, and its table holds the
    # derivative at its root, bit for bit.  No row makes more derivative
    # calls than it does with its guess's path removed.
    (roots, steps, at_root), calls, unguessed, slow, stubs = _stub_walks(rows, 10.0**log_delta)
    for root, n, value, (root_1, n_1, _), row_stub in zip(roots, steps, at_root, slow, stubs):
        assert (_bits(root), n) == (_bits(root_1), n_1)
        assert _bits(value) == _bits(_stub_value(root_1, *row_stub))
    assert all(c <= c_1 for c, c_1 in zip(calls, unguessed))


def test_pinned_guessed_walks_stop_by_every_rule_and_save_calls():
    # The first pinned example ends by every stop rule, and each of its
    # guesses leads its walk part of the way, so saves calls.
    _, calls, unguessed, slow, _ = _stub_walks(_GUESSED_ROWS, 1e-12)
    assert {stop for _, _, stop in slow} == {"zero", "ulp", "delta"}
    assert all(c < c_1 for c, c_1 in zip(calls, unguessed))


def _log_affine(p, roots, *rest, **kwargs):
    """A stub derivative affine in log P, log(root) - log(P): row r's
    "user set" is its root, and each value is libm's, one power at a time."""
    if isinstance(roots, float):  # the sequential walk's one-set form
        return math.log(roots) - math.log(p)
    return np.array([[math.log(root) - math.log(x) for x in row] for root, row in zip(roots, p.tolist())])


def test_a_smooth_derivative_steers_each_walk_home_in_two_calls():
    # On a derivative affine in log P the interpolated guess is the root
    # to a few ulps, so from the second call on each row's path leads to
    # where its walk stops, however wrong the caller's guess was.  Without
    # the steering these walks take a call per three levels.
    brackets = [(1.0, 2.0), (1.0, 2.0), (3e-3, 7e-3), (0.25, 0.375), (10.0, 40.0)]
    fractions = [0.3, 0.55, 0.8, 0.4141, 0.77]
    roots = [lo + f * (hi - lo) for (lo, hi), f in zip(brackets, fractions)]
    guesses = [1.0, 2.0, 1e-9, 0.25, 1e9]  # the ends, and far outside
    delta, calls = 1e-12, [0] * len(roots)

    def counted(p, ues_rows, *rest, **kwargs):
        for root in ues_rows:
            calls[roots.index(root)] += 1
        return _log_affine(p, ues_rows)

    with mock.patch.object(dapa, "sum_rate_derivative", counted):
        walked, steps = dapa._walk(
            [lo for lo, _ in brackets], [hi for _, hi in brackets], delta, roots, [None] * len(roots), None,
            guess=guesses,
        )
    with mock.patch.object(dapa, "sum_rate_derivative", _log_affine):
        slow = [bisect_walk(lo, hi, delta, root, None, None) for (lo, hi), root in zip(brackets, roots)]
    for root, n, (root_1, n_1, _) in zip(walked, steps, slow):
        assert (_bits(root), n) == (_bits(root_1), n_1)
    assert min(n for _, n, _ in slow) >= 30
    assert max(calls) <= 2, calls


def test_later_rounds_are_plain_solves_at_their_fractions(ao_runs):
    # Later rounds bracket from the first round's per-user bounds; each
    # round's power is bitwise a fresh solve at the last round's fractions,
    # unless the ascent safeguard kept the last power.
    for ues, (_, trace) in zip(DROPS, ao_runs):
        for (last, omega, rate), (power, _, _) in zip(trace.iterates, trace.iterates[1:]):
            fresh = solve_dapa(ues, omega, CFG)
            expected = last if fresh.sum_rate < rate else fresh.total_power_p
            assert _bits(power) == _bits(expected)


def _awkward(case):
    """(cfg, chunk, delta, max_iters) of an optimizer run whose guesses are awkward."""
    if case == "drops-5":
        # the seed-2024 drops 448-455: drop 452 keeps its last power once
        # (keeping is a rounding-level event; DROPS keep none)
        return CFG, [drop_ues(SC, drop_id) for drop_id in range(448, 456)], None, 5
    # c13's 500 instances in its config chunks; chunk 4 keeps a last power
    # once, and chunk 7 has a last power outside its next bracket
    cfg, chunk = list(_by_config(_random_instances(np.random.default_rng(13), 500)))[
        {"c13-kept": 4, "c13-outside": 7}[case]
    ]
    return cfg, chunk, 1e-6 * cfg.m_antennas * cfg.p_max, 100


@pytest.mark.parametrize("case", ["drops-5", "c13-kept", "c13-outside"])
def test_later_rounds_are_plain_solves_where_the_guess_is_awkward(case):
    # A later round guesses its walk at the last power.  The guess is
    # awkward where the round's active users change, so its bracket moves;
    # where the last power lies outside that bracket; and where the ascent
    # safeguard kept the last power.  Each round's power is still bitwise
    # a fresh solve at the last round's fractions, or the kept power.
    cfg, chunk, delta, max_iters = _awkward(case)
    seen = {"moved": 0, "outside": 0, "kept": 0}
    for ues, (_, trace) in zip(chunk, allocator._ao_rows(chunk, cfg, delta, max_iters), strict=True):
        active = np.ones(ues.n_users, dtype=bool)  # the first round's fractions are equal
        for (last, omega, rate), (power, _, _) in zip(trace.iterates, trace.iterates[1:]):
            fresh = solve_dapa(ues, omega, cfg, delta)
            kept = fresh.sum_rate < rate
            assert _bits(power) == _bits(last if kept else fresh.total_power_p)
            seen["moved"] += not np.array_equal(omega > 0.0, active)
            seen["outside"] += not fresh.bracket_lo <= last <= fresh.bracket_hi
            seen["kept"] += kept
            active = omega > 0.0
    premise = {"drops-5": ("moved", "kept"), "c13-kept": ("moved", "kept"), "c13-outside": ("outside",)}
    assert all(seen[key] for key in premise[case]), seen


def _derivative_calls_per_solve(monkeypatch):
    """Run the optimizer on the lockstep chunk; return its outcomes and,
    per total-power solve, each user set's derivative calls."""
    log, calls = [], {}
    derivative, solve = dapa.sum_rate_derivative, allocator.solve_dapa

    def counted(p, ues_rows, *rest, **kwargs):
        for ues in ues_rows:
            calls[id(ues)] = calls.get(id(ues), 0) + 1
        return derivative(p, ues_rows, *rest, **kwargs)

    def logged(*args, **kwargs):
        calls.clear()
        outcomes = solve(*args, **kwargs)
        log.append(dict(calls))
        return outcomes

    monkeypatch.setattr(dapa, "sum_rate_derivative", counted)
    monkeypatch.setattr(allocator, "solve_dapa", logged)
    monkeypatch.setattr(allocator, "_equal_split_memo", None, raising=False)
    return allocator._ao_rows(CHUNK, CFG), log


def test_guessed_solves_make_no_more_derivative_calls(monkeypatch):
    # Every round's walk is guessed: the first at the smallest per-user
    # bound midpoint, later ones at the last power.  Without the guesses'
    # paths the optimizer gives the same bits, and no row of any solve
    # makes fewer derivative calls.
    guessed, log = _derivative_calls_per_solve(monkeypatch)
    monkeypatch.undo()
    monkeypatch.setattr(dapa, "_guess_path", lambda *args: [])
    plain, plain_log = _derivative_calls_per_solve(monkeypatch)
    for outcome, expected in zip(guessed, plain, strict=True):
        if isinstance(outcome, Exception):
            assert str(outcome) == str(expected)
        else:
            _same_run(outcome, expected)
    assert len(log) == len(plain_log)
    for calls, plain_calls in zip(log, plain_log):
        assert calls.keys() == plain_calls.keys()
        assert all(calls[row] <= plain_calls[row] for row in calls)
    assert sum(map(sum, (c.values() for c in log))) < sum(map(sum, (c.values() for c in plain_log)))


def test_the_strategies_keep_their_derivative_call_budget(monkeypatch):
    # DAPA-FPDA then DAPA-E on the lockstep chunk: nine chunked solves
    # (DAPA-E is the optimizer's first round), 22 derivative calls in all
    # with each row steered by its own table (32 with one fixed guess per
    # solve and five levels a call).
    counts = {"calls": 0, "solves": 0}
    derivative, solve = dapa.sum_rate_derivative, allocator.solve_dapa

    def counted(*args, **kwargs):
        counts["calls"] += 1
        return derivative(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(dapa, "sum_rate_derivative", counted)
    monkeypatch.setattr(allocator, "solve_dapa", counted_solve)
    monkeypatch.setattr(allocator, "_equal_split_memo", None, raising=False)
    allocator.dapa_fpda(CHUNK, CFG)
    allocator.dapa_e(CHUNK, CFG)
    assert counts["solves"] == 9
    assert counts["calls"] <= 22, counts


def test_each_solve_plans_its_rows_once_and_calls_again_only_for_moved_roots(monkeypatch):
    # Every total-power solve of the optimizer on the lockstep chunk and
    # a set whose guard returns a sample takes each row's active users,
    # and so checks its fractions, exactly once, and never inside a
    # derivative call.  Each row's table holds every value its derivative
    # calls evaluated, so a closing derivative call at the returned powers
    # covers only the rows whose returned power no call evaluated.
    active, rows, solve = dapa._active, dapa._derivative_rows, allocator.solve_dapa
    log, inside = [], [0]

    def counted_active(ues, omega):
        log[-1]["active"].append((id(ues), inside[0] > 0))
        return active(ues, omega)

    def spied_rows(power, ues_rows, *rest):
        if power.shape[1] == 1:  # the closing call at the returned powers
            log[-1]["closing"].extend(map(id, ues_rows))
        inside[0] += 1
        try:
            return rows(power, ues_rows, *rest)
        finally:
            inside[0] -= 1

    def logged(ues_rows, *args, **kwargs):
        evaluated.clear()
        log.append({"rows": list(map(id, ues_rows)), "active": [], "closing": []})
        outcomes = solve(ues_rows, *args, **kwargs)
        log[-1]["powers"] = {
            id(ues): res.total_power_p for ues, res in zip(ues_rows, outcomes) if isinstance(res, DapaResult)
        }
        log[-1]["evaluated"] = dict(evaluated)
        return outcomes

    evaluated = _record_evaluated_powers(monkeypatch)
    monkeypatch.setattr(dapa, "_active", counted_active)
    monkeypatch.setattr(dapa, "_derivative_rows", spied_rows)
    monkeypatch.setattr(allocator, "solve_dapa", logged)
    monkeypatch.setattr(allocator, "_equal_split_memo", None, raising=False)
    allocator._ao_rows(CHUNK + [SAMPLED], CFG)
    assert len(log) > 5
    closing, unevaluated = [], []
    for i, solved in enumerate(log):
        assert sorted(ues for ues, _ in solved["active"]) == sorted(solved["rows"])
        assert not any(in_derivative for _, in_derivative in solved["active"])
        closing += [(i, ues) for ues in solved["closing"]]
        unevaluated += [
            (i, ues) for ues, power in solved["powers"].items() if power not in solved["evaluated"][ues]
        ]
    assert closing and sorted(closing) == sorted(unevaluated)


def test_every_derivative_evaluation_goes_through_the_public_name(monkeypatch):
    # The guard sets return guard samples, so their solves make closing
    # calls; those, like the walks' calls, reach the row kernel through
    # sum_rate_derivative, the name a tracer wraps.
    sets, omegas = _guard_sets()
    derivative, rows = dapa.sum_rate_derivative, dapa._derivative_rows
    inside, calls = [0], []

    def wrapped(*args, **kwargs):
        inside[0] += 1
        try:
            return derivative(*args, **kwargs)
        finally:
            inside[0] -= 1

    def spied(power, *rest):
        calls.append((power.shape[1], inside[0] > 0))
        return rows(power, *rest)

    monkeypatch.setattr(dapa, "sum_rate_derivative", wrapped)
    monkeypatch.setattr(dapa, "_derivative_rows", spied)
    for delta in (None, 1e-30, 1e9):
        solve_dapa(sets + [SAMPLED], omegas + [SAMPLED_OMEGA], CFG, delta)
    assert any(width == 1 for width, _ in calls)  # the premise: closing calls were made
    assert all(through for _, through in calls)


def test_the_walk_reads_each_sign_by_power_not_by_position(monkeypatch):
    # Each row looks its midpoints up by power, so a derivative call
    # whose points come in another order gives the same walk: six chunks
    # of four drops at equal split, with each row's points reversed, give
    # the same roots, steps and residuals in as many derivative calls.
    # A walk that reads by column would wait for points it never finds;
    # the cap makes that fail instead of hang.
    chunks = [[drop_ues(SC, drop_id) for drop_id in range(4 * i, 4 * i + 4)] for i in range(6)]
    derivative = dapa.sum_rate_derivative

    def solved():
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            if calls[0] > 2000:
                raise AssertionError("the walk does not advance")
            return derivative(*args, **kwargs)

        monkeypatch.setattr(dapa, "sum_rate_derivative", counted)
        outcomes = [solve_dapa(chunk, list(map(_equal, chunk)), CFG) for chunk in chunks]
        return sum(outcomes, []), calls[0]

    outcomes, calls = solved()
    points = dapa._points
    monkeypatch.setattr(dapa, "_points", lambda *args: np.ascontiguousarray(points(*args)[:, ::-1]))
    reversed_outcomes, reversed_calls = solved()
    assert reversed_calls == calls
    for outcome, expected in zip(reversed_outcomes, outcomes, strict=True):
        assert _bits(outcome) == _bits(expected)
