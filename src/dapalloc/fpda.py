"""Water-filling distribution of a fixed total power across users.

With the total power P (hence amplifier gain and distortion) frozen, the
per-user fractions solve a concave simplex-constrained problem whose
optimum is classic water-filling: each user k has a breakpoint

    G_k = (sigma_k^2 + beta_k * D) / ((M - K) * lam * P * beta_k)

(dimensionless inverse channel quality), and the optimal fraction is
``omega_k = max(0, mu - G_k)`` where the water level ``mu`` spends the
whole unit budget.  :func:`breakpoints` returns the G_k as an array in
user order, and :func:`solve_fpda` takes that array and finds the level
exactly in a single pass over the sorted breakpoints; the tests check it
against an independent bisection on the water level.
"""

from __future__ import annotations

import math

import numpy as np

from dapalloc.metrics import SystemConfig, UeSet, zf_gain
from dapalloc.pa_model import PaOperatingPoint

__all__ = [
    "breakpoints",
    "solve_fpda",
]


def breakpoints(
    ues: UeSet, cfg: SystemConfig, total_power_p: float, op: PaOperatingPoint
) -> np.ndarray:
    """The users' breakpoints G_k at a given operating point.

    ``op`` must describe the amplifier at ``total_power_p`` (gain ``lam``
    and effective distortion); the breakpoints keep the users' original
    order.
    """
    # written so that NaN fails the comparison
    if not 0.0 < total_power_p < math.inf:
        raise ValueError("total power must be positive and finite")
    array_gain = zf_gain(cfg, ues)
    return (ues.noise_w + ues.beta * op.effective_distortion) / (
        array_gain * op.lam * total_power_p * ues.beta
    )


def solve_fpda(g) -> np.ndarray:
    """Exact water-filling of a unit budget over breakpoints ``g``.

    ``g`` holds one finite, nonnegative G_k per user, as
    :func:`breakpoints` returns it.  Sorts the breakpoints ascending
    (stably, so ties keep user order), then finds the largest prefix S
    for which the water level ``mu = (1 + sum_{k in S} G_k) / |S|`` sits
    strictly above the last breakpoint of S.  Every user below the
    level receives ``mu - G_k``; the rest receive zero.  The result sums
    to 1 within 1e-12 and satisfies the complementary-slackness
    conditions exactly (up to that tolerance).

    The level is measured from the smallest breakpoint: ``omega_k =
    mu' - (G_k - G_min)`` with ``mu' = (1 + sum_{j in S} (G_j - G_min))
    / |S|``.  Every active ``G_k - G_min`` is below 1, so the unit sum
    holds at any scale of G; ``mu - G_k`` cancels when G is large
    (about 3.7e-9 lost at G = 2.7e7).
    """
    g = np.atleast_1d(np.asarray(g, dtype=np.float64))
    if g.ndim != 1 or g.size == 0:
        raise ValueError("breakpoints must be a non-empty 1-D array")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise ValueError("breakpoints must be finite and nonnegative")
    order = np.argsort(g, kind="stable")
    rise = g[order] - g[order[0]]  # G_k - G_min, ascending
    n = rise.size
    prefix = np.cumsum(rise)
    levels = (1.0 + prefix) / np.arange(1, n + 1)
    # The prefix of size j is feasible iff its level exceeds its largest
    # breakpoint; feasibility is monotone, so take the largest such j.
    feasible = levels > rise
    j = int(np.max(np.nonzero(feasible)[0])) + 1  # j >= 1 always (rise[0] = 0)
    mu = float(levels[j - 1])
    omega_sorted = np.maximum(0.0, mu - rise)
    omega_sorted[j:] = 0.0
    omega = np.empty_like(omega_sorted)
    omega[order] = omega_sorted
    return omega
