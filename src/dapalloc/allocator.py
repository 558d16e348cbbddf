"""End-to-end power-allocation strategies.

Four strategies, all producing an :class:`~dapalloc.metrics.Allocation`
for one user set, or a list of them for a chunk of sets solved in
lockstep (see :data:`ALGORITHMS`):

* ``DAPA-FPDA`` -- :func:`alternating_optimize`: block-coordinate ascent
  alternating the total-power bisection (fractions fixed) with
  water-filling (total fixed), started from equal fractions.
* ``DAPA-E``    -- optimal total power, equal fractions.
* ``REF-FPDA``  -- fixed 6 dB back-off total power, water-filled
  fractions.
* ``REF-E``     -- fixed 6 dB back-off total power, equal fractions.

The 6 dB reference back-off is the value at which a single clipping
transmitter's signal-to-distortion ratio is near its practical sweet
spot (about 27 dB), making REF-E the standard fixed-design baseline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from dapalloc.dapa import _unwrap, _user_bounds, default_delta, solve_dapa
from dapalloc.fpda import breakpoints, solve_fpda
from dapalloc.metrics import (
    Allocation,
    SystemConfig,
    UeSet,
    evaluate,
    operating_point_at,
    zf_gain,
)

__all__ = [
    "AoTrace",
    "alternating_optimize",
    "ref_e",
    "ref_fpda",
    "dapa_e",
    "dapa_fpda",
    "ALGORITHMS",
    "REF_BACKOFF_DB",
]

REF_BACKOFF_DB = 6.0
_REF_BACKOFF_LINEAR = 10.0 ** (REF_BACKOFF_DB / 10.0)


@dataclass(frozen=True)
class AoTrace:
    """Iteration history of one alternating-optimization run.

    Attributes:
        iterates: one (total power, fractions, sum rate) triple per
            iteration, the sum rate evaluated after the water-filling
            half-step.
        converged: True when the total-power change fell below delta.
        iterations: number of completed iterations.
    """

    iterates: tuple[tuple[float, np.ndarray, float], ...]
    converged: bool
    iterations: int


def _ref_power(cfg: SystemConfig) -> float:
    return cfg.m_antennas * cfg.p_max / _REF_BACKOFF_LINEAR


# (key, (outcomes, bounds)) of the last chunk _equal_split solved, until
# one hit takes it; set and cleared whole, so a thread or worker can at
# worst miss.
_equal_split_memo: Optional[tuple] = None


def _equal_split(ues_rows: list, cfg: SystemConfig, delta: float) -> tuple[list, list]:
    """:func:`~dapalloc.dapa.solve_dapa` at fractions 1/K on a chunk:
    (each row's outcome, each set's per-user Lambert-W bounds).

    This solve is DAPA-E, and it is the alternating optimizer's first
    round, so one memo entry serves both on the same chunk.  Its key is
    everything the solve reads: ``cfg``, ``delta`` and each set's
    ``beta`` and ``noise_w`` bytes, so a hit is never stale.  The entry
    serves one hit, the second strategy's, and is then dropped: a run
    that repeats a chunk solves it again, and nothing is held after.
    Every user holds power, so the bounds cover every user a later
    round can keep.
    """
    global _equal_split_memo
    key = (cfg, delta, tuple((ues.beta.tobytes(), ues.noise_w.tobytes()) for ues in ues_rows))
    memo = _equal_split_memo
    if memo is not None and memo[0] == key:
        _equal_split_memo = None
        return memo[1]
    bounds = _user_bounds([ues.beta for ues in ues_rows], [ues.noise_w for ues in ues_rows], cfg)
    omega = [np.full(ues.n_users, 1.0 / ues.n_users) for ues in ues_rows]
    solved = (solve_dapa(ues_rows, omega, cfg, delta, _bounds=bounds), bounds)
    _equal_split_memo = (key, solved)
    return solved


def _one_set_or_chunk(solve_rows):
    """``solve_rows``, written on a chunk, also taking one set: then it
    returns that set's allocation or raises its error.  The wrapper keeps
    the name and signature, so the strategy pickles by name."""

    @functools.wraps(solve_rows)
    def strategy(ues, cfg: SystemConfig):
        if isinstance(ues, UeSet):
            return _unwrap(solve_rows([ues], cfg))
        return solve_rows(list(ues), cfg)

    return strategy


def alternating_optimize(
    ues: UeSet,
    cfg: SystemConfig,
    delta: Optional[float] = None,
    max_iters: int = 100,
) -> tuple[Allocation, AoTrace]:
    """Alternate total-power and fraction optimization to a fixed point.

    Starts from equal fractions; each iteration solves the total-power
    problem at the current fractions, then water-fills the fractions at
    the new total.  Convergence is declared when the total power moves
    by less than ``delta`` (defaulting to the solver's own
    :func:`~dapalloc.dapa.default_delta`); that is the only stop
    condition, and every run starts from equal fractions.

    If ``max_iters`` runs out, the best iterate seen is returned with
    ``converged = False`` in the trace.  This is the one-row case of
    the lockstep kernel that DAPA-FPDA runs on a chunk of user sets.
    """
    return _unwrap(_ao_rows([ues], cfg, delta, max_iters))


def _ao_rows(
    ues_rows: list, cfg: SystemConfig, delta: Optional[float] = None, max_iters: int = 100
) -> list:
    """:func:`alternating_optimize` on a chunk of user sets in lockstep.

    Every round solves the total power of each open row in one chunked
    :func:`~dapalloc.dapa.solve_dapa` call, then takes their operating
    points in one :func:`~dapalloc.metrics.operating_point_at` call and
    rates the water-filled iterates in one chunked
    :func:`~dapalloc.metrics.evaluate` call; each row keeps its own
    fractions, iterates, stop rule and best iterate.  Returns one
    (Allocation, AoTrace) pair, or the solver error, per row.

    The first round, at equal fractions, is DAPA-E's solve, taken from
    :func:`_equal_split` and its memo of the last chunk.  Later rounds
    bracket each row with that round's per-user Lambert-W bounds of the
    users they keep, computing no new bounds.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if delta is None:
        delta = default_delta(cfg)

    n_rows = len(ues_rows)
    outcomes: list = [None] * n_rows
    iterates: list[list[tuple[float, np.ndarray, float]]] = [[] for _ in range(n_rows)]
    omega = [np.full(ues.n_users, 1.0 / ues.n_users) for ues in ues_rows]
    prev_power: list[Optional[float]] = [None] * n_rows
    open_rows = list(range(n_rows))

    results, bounds = _equal_split(ues_rows, cfg, delta)
    for round_ in range(max_iters):
        if round_:
            results = solve_dapa(
                [ues_rows[r] for r in open_rows],
                [omega[r] for r in open_rows],
                cfg,
                delta,
                _bounds=[bounds[r] for r in open_rows],
            )
        rows, powers = [], []
        for r, result in zip(open_rows, results):
            if isinstance(result, Exception):
                outcomes[r] = result
                continue
            power = result.total_power_p
            # Ascent safeguard: the step, rated by the solve at (power, omega),
            # must not lose sum rate against the last iterate, which holds
            # (prev_power, omega); it fires in the multi-root corner the
            # bisection guard also covers, and at rounding level on
            # single-root drops.
            if prev_power[r] is not None and power != prev_power[r]:
                if result.sum_rate < iterates[r][-1][2]:
                    power = prev_power[r]
            rows.append(r)
            powers.append(power)
        for r, power, op in zip(rows, powers, operating_point_at(cfg, powers)):
            omega[r] = solve_fpda(breakpoints(ues_rows[r], cfg, power, op))
        reports = evaluate(
            cfg,
            [ues_rows[r] for r in rows],
            [Allocation(power, omega[r]) for r, power in zip(rows, powers)],
            precoder="zf",
        )
        open_rows = []
        for r, power, report in zip(rows, powers, reports):
            iterates[r].append((power, omega[r].copy(), report.sum_rate))
            if prev_power[r] is not None and abs(prev_power[r] - power) < delta:
                outcomes[r] = _ao_outcome(iterates[r], converged=True)
            else:
                prev_power[r] = power
                open_rows.append(r)
        if not open_rows:
            break
    for r in open_rows:
        outcomes[r] = _ao_outcome(iterates[r], converged=False)
    return outcomes


def _ao_outcome(iterates: list, converged: bool) -> tuple[Allocation, AoTrace]:
    """The last iterate if converged, else the best one, with the trace."""
    if converged:
        power, omega, _ = iterates[-1]
    else:
        power, omega, _ = max(iterates, key=lambda it: it[2])
    return Allocation(power, omega), AoTrace(
        iterates=tuple(iterates), converged=converged, iterations=len(iterates)
    )


@_one_set_or_chunk
def ref_e(ues, cfg: SystemConfig):
    """Fixed 6 dB back-off total power, equal per-user fractions.

    ``ues`` may be one user set or a chunk of them, as for every
    strategy in :data:`ALGORITHMS`.
    """
    for one_set in ues:
        zf_gain(cfg, one_set)  # rated with zero-forcing, so K < M
    return [
        Allocation(_ref_power(cfg), np.full(one_set.n_users, 1.0 / one_set.n_users)) for one_set in ues
    ]


@_one_set_or_chunk
def ref_fpda(ues, cfg: SystemConfig):
    """Fixed 6 dB back-off total power, water-filled fractions."""
    power = _ref_power(cfg)
    op = operating_point_at(cfg, power)  # one power for every row
    return [Allocation(power, solve_fpda(breakpoints(one_set, cfg, power, op))) for one_set in ues]


@_one_set_or_chunk
def dapa_e(ues, cfg: SystemConfig):
    """Optimal total power with fractions pinned at 1/K.

    This is the alternating optimizer's first round.  Both take it from
    a memo of the last chunk solved, keyed by ``cfg``, ``delta`` and
    each set's ``beta`` and ``noise_w`` bytes, so a chunk that both
    strategies solve is solved at equal fractions once.
    """
    results, _ = _equal_split(ues, cfg, default_delta(cfg))
    return [
        result
        if isinstance(result, Exception)
        else Allocation(result.total_power_p, np.full(one_set.n_users, 1.0 / one_set.n_users))
        for result, one_set in zip(results, ues)
    ]


@_one_set_or_chunk
def dapa_fpda(ues, cfg: SystemConfig):
    """The alternating optimizer's allocation (DAPA-FPDA).

    Its first round is DAPA-E's solve, shared through the same memo (see
    :func:`dapa_e`).
    """
    return [
        outcome if isinstance(outcome, Exception) else outcome[0] for outcome in _ao_rows(ues, cfg)
    ]


# Canonical strategy labels, as used in result records and CSV output.
# Each entry maps (ues, cfg) to an Allocation, raising SolverError or
# ConvergenceError on failure; given a chunk (a sequence of user sets
# sharing cfg) it solves them in lockstep and returns a list holding
# each row's Allocation or error.
ALGORITHMS: dict[str, Callable] = {
    "DAPA-FPDA": dapa_fpda,
    "DAPA-E": dapa_e,
    "REF-FPDA": ref_fpda,
    "REF-E": ref_e,
}
