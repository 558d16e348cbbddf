"""Water-filling distribution of a fixed total power across users.

With the total power P (hence amplifier gain and distortion) frozen, the
per-user fractions solve a concave simplex-constrained problem whose
optimum is classic water-filling: each user k has a breakpoint

    G_k = (sigma_k^2 + beta_k * D) / ((M - K) * lam * P * beta_k)

(dimensionless inverse channel quality), and the optimal fraction is
``omega_k = max(0, mu - G_k)`` where the water level ``mu`` spends the
whole unit budget.  Two independent solvers are provided and
cross-validated in the tests:

* :func:`solve_fpda` -- exact single pass over the sorted breakpoints,
* :func:`solve_fpda_bisect` -- bisection on the water level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dapalloc.dapa import SolverError
from dapalloc.metrics import SystemConfig, UeSet
from dapalloc.pa_model import PaOperatingPoint

__all__ = [
    "WaterfillProblem",
    "breakpoints",
    "solve_fpda",
    "solve_fpda_bisect",
]

_KKT_TOL = 1e-12


@dataclass(frozen=True)
class WaterfillProblem:
    """A unit-budget water-filling instance.

    Attributes:
        breakpoints: per-user G_k in original user order; all positive
            and finite.
        order: indices sorting the breakpoints ascending (stable, so
            ties keep original order); carried so solutions can be
            mapped back to the original user indexing.
    """

    breakpoints: np.ndarray
    order: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g = np.atleast_1d(np.asarray(self.breakpoints, dtype=np.float64))
        if g.ndim != 1 or g.size == 0:
            raise ValueError("breakpoints must be a non-empty 1-D array")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ValueError("breakpoints must be finite and nonnegative")
        object.__setattr__(self, "breakpoints", g)
        object.__setattr__(self, "order", np.argsort(g, kind="stable"))


def breakpoints(
    ues: UeSet, cfg: SystemConfig, total_power_p: float, op: PaOperatingPoint
) -> WaterfillProblem:
    """Build the water-filling instance at a given operating point.

    ``op`` must describe the amplifier at ``total_power_p`` (gain ``lam``
    and effective distortion); the breakpoints keep the users' original
    order.
    """
    if total_power_p <= 0:
        raise ValueError("total power must be positive")
    if ues.n_users != cfg.n_users:
        raise ValueError("user set size does not match SystemConfig.n_users")
    array_gain = cfg.m_antennas - cfg.n_users
    g = (ues.noise_w + ues.beta * op.effective_distortion) / (
        array_gain * op.lam * total_power_p * ues.beta
    )
    return WaterfillProblem(breakpoints=g)


def solve_fpda(problem: WaterfillProblem) -> np.ndarray:
    """Exact water-filling by breakpoint sweep.

    Sorts the breakpoints ascending, then finds the largest prefix S for
    which the water level ``mu = (1 + sum_{k in S} G_k) / |S|`` sits
    strictly above the last breakpoint of S.  Every user below the
    level receives ``mu - G_k``; the rest receive zero.  The result sums
    to 1 within 1e-12 and satisfies the complementary-slackness
    conditions exactly (up to that tolerance).
    """
    g_sorted = problem.breakpoints[problem.order]
    n = g_sorted.size
    prefix = np.cumsum(g_sorted)
    levels = (1.0 + prefix) / np.arange(1, n + 1)
    # The prefix of size j is feasible iff its level exceeds its largest
    # breakpoint; feasibility is monotone, so take the largest such j.
    feasible = levels > g_sorted
    j = int(np.max(np.nonzero(feasible)[0])) + 1  # j >= 1 always (G >= 0)
    mu = float(levels[j - 1])
    omega_sorted = np.maximum(0.0, mu - g_sorted)
    omega_sorted[j:] = 0.0
    omega = np.empty_like(omega_sorted)
    omega[problem.order] = omega_sorted
    return omega


def solve_fpda_bisect(
    problem: WaterfillProblem, tol: float = 1e-12, max_iters: int = 200
) -> np.ndarray:
    """Water-filling by bisection on the water level.

    The spent budget ``s(mu) = sum_k max(0, mu - G_k)`` is piecewise
    linear and strictly increasing once any user is active, so the level
    solving ``s(mu) = 1`` is found by plain bisection.  (The level
    is the reciprocal of the simplex constraint's dual price, so this is
    equivalently a bisection on that multiplier.)  Stops when
    ``|s(mu) - 1| <= tol``; if the interval collapses to
    floating-point resolution first, the result is accepted only if the
    residual is already at the rounding floor of the summation,
    otherwise a :class:`SolverError` is raised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    g = problem.breakpoints
    lo = float(np.min(g))  # spends 0 < 1
    hi = float(np.max(g)) + 1.0  # spends >= 1
    mu = 0.5 * (lo + hi)
    eps = np.finfo(np.float64).eps
    # Rounding floor of evaluating s(mu): K subtractions at scale mu.
    for _ in range(max_iters):
        mu = 0.5 * (lo + hi)
        spent = float(np.sum(np.maximum(0.0, mu - g)))
        resid = spent - 1.0
        if abs(resid) <= tol:
            return np.maximum(0.0, mu - g)
        if resid > 0:
            hi = mu
        else:
            lo = mu
        if hi - lo <= eps * max(1.0, abs(hi)):
            floor = 4.0 * eps * g.size * max(1.0, abs(mu) + float(np.max(g)))
            if abs(resid) <= floor:
                return np.maximum(0.0, mu - g)
            break
    raise SolverError(
        "water-level bisection did not reach tolerance",
        diagnostics={
            "tol": tol,
            "max_iters": max_iters,
            "last_level": mu,
            "last_residual": resid,
        },
    )
