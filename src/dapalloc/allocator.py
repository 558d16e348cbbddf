"""End-to-end power-allocation strategies.

Four strategies, all producing an :class:`~dapalloc.metrics.Allocation`:

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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from dapalloc.dapa import default_delta, solve_dapa
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
    ``converged = False`` in the trace.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if delta is None:
        delta = default_delta(cfg)

    n = ues.n_users
    iterates: list[tuple[float, np.ndarray, float]] = []
    converged = False
    prev_power: Optional[float] = None
    omega = np.full(n, 1.0 / n)

    for _ in range(max_iters):
        result = solve_dapa(ues, omega, cfg, delta)
        power = result.total_power_p
        if prev_power is not None and power != prev_power:
            # Ascent safeguard: the step must not lose sum rate against the
            # last iterate, which holds (prev_power, omega); this can only
            # trigger in the multi-root corner the bisection guard also covers.
            move = evaluate(cfg, ues, Allocation(power, omega), "zf").sum_rate
            if move < iterates[-1][2]:
                power = prev_power
        op = operating_point_at(cfg, power)
        omega = solve_fpda(breakpoints(ues, cfg, power, op))
        report = evaluate(cfg, ues, Allocation(power, omega), precoder="zf")
        iterates.append((power, omega.copy(), report.sum_rate))

        if prev_power is not None and abs(prev_power - power) < delta:
            converged = True
            break
        prev_power = power

    if converged:
        power, omega, _ = iterates[-1]
    else:
        power, omega, _ = max(iterates, key=lambda it: it[2])
    return Allocation(power, omega), AoTrace(
        iterates=tuple(iterates), converged=converged, iterations=len(iterates)
    )


def ref_e(ues: UeSet, cfg: SystemConfig) -> Allocation:
    """Fixed 6 dB back-off total power, equal per-user fractions."""
    zf_gain(cfg, ues)  # rated with zero-forcing, so K < M
    n = ues.n_users
    return Allocation(_ref_power(cfg), np.full(n, 1.0 / n))


def ref_fpda(ues: UeSet, cfg: SystemConfig) -> Allocation:
    """Fixed 6 dB back-off total power, water-filled fractions."""
    power = _ref_power(cfg)
    op = operating_point_at(cfg, power)
    omega = solve_fpda(breakpoints(ues, cfg, power, op))
    return Allocation(power, omega)


def dapa_e(ues: UeSet, cfg: SystemConfig) -> Allocation:
    """Optimal total power with fractions pinned at 1/K."""
    n = ues.n_users
    omega = np.full(n, 1.0 / n)
    result = solve_dapa(ues, omega, cfg)
    return Allocation(result.total_power_p, omega)


# Canonical strategy labels, as used in result records and CSV output.
# Each entry maps (ues, cfg) to an Allocation.  DAPA-FPDA looks
# ``alternating_optimize`` up at each call, so a rebinding of that name
# (as the benchmark tracer does) is seen.
ALGORITHMS: dict[str, Callable[[UeSet, SystemConfig], Allocation]] = {
    "DAPA-FPDA": lambda ues, cfg: alternating_optimize(ues, cfg)[0],
    "DAPA-E": dapa_e,
    "REF-FPDA": ref_fpda,
    "REF-E": ref_e,
}
