"""Reference water-filling solver that the tests compare against.

:func:`dapalloc.fpda.solve_fpda` solves the unit-budget water-filling
problem exactly by a breakpoint sweep; this module solves it a second,
independent way, by bisection on the water level.
"""

import numpy as np

from dapalloc.dapa import SolverError


def solve_fpda_bisect(g: np.ndarray, tol: float = 1e-12, max_iters: int = 200) -> np.ndarray:
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
    g = np.asarray(g, dtype=np.float64)
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
