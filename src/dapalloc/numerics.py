"""Self-contained special functions and adaptive quadrature.

Everything here is plain numpy so that results are bit-stable across
environments and so the library has no runtime dependency on scipy.  The
module provides exactly what the power-allocation code needs:

* ``erfc`` / ``erfcx`` -- complementary error function and its scaled
  variant, via Cody-style rational approximations (three argument
  regions, accurate to ~1e-16 relative in double precision),
* ``lambert_w0_of_log`` -- principal Lambert W of ``exp(log_x)`` by
  Newton iteration, which never forms the (possibly overflowing)
  exponential,
* ``integrate_semi_infinite`` -- adaptive Gauss-Kronrod quadrature on
  ``[0, inf)`` for integrands with a Gaussian decay envelope.

All functions accept scalars or numpy arrays and preserve the floating
dtype of the input (float64 stays float64, longdouble stays longdouble).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

__all__ = [
    "ConvergenceError",
    "erfc",
    "erfcx",
    "lambert_w0_of_log",
    "integrate_semi_infinite",
]


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its requested tolerance."""


# ---------------------------------------------------------------------------
# erfc / erfcx: rational approximations in three regions (|x| <= 0.46875,
# 0.46875 < x <= 4, x > 4), following W. J. Cody's classic scheme.  The
# coefficients below are the standard published ones; each region is a
# ratio of polynomials evaluated by Horner recurrences.
# ---------------------------------------------------------------------------

_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
_ERF_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERF_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
_ERF_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERF_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)

_ONE_OVER_SQRT_PI = 5.6418958354775628695e-1  # 1/sqrt(pi)
_REGION_SMALL = 0.46875
_REGION_MID = 4.0


def _erf_small(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| <= 0.46875 (rational approximation in x^2)."""
    z = x * x
    num = _ERF_A[4] * z
    den = z
    for i in range(3):
        num = (num + _ERF_A[i]) * z
        den = (den + _ERF_B[i]) * z
    return x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfcx_mid(y: np.ndarray) -> np.ndarray:
    """exp(y^2) * erfc(y) for 0.46875 < y <= 4."""
    num = _ERF_C[8] * y
    den = y
    for i in range(7):
        num = (num + _ERF_C[i]) * y
        den = (den + _ERF_D[i]) * y
    return (num + _ERF_C[7]) / (den + _ERF_D[7])


def _erfcx_large(y: np.ndarray) -> np.ndarray:
    """exp(y^2) * erfc(y) for y > 4."""
    z = 1.0 / (y * y)
    num = _ERF_P[5] * z
    den = z
    for i in range(4):
        num = (num + _ERF_P[i]) * z
        den = (den + _ERF_Q[i]) * z
    r = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
    return (_ONE_OVER_SQRT_PI - r) / y


def _erfcx_tail(y: np.ndarray) -> np.ndarray:
    """exp(y^2) * erfc(y) for y > 0.46875: the mid and large regions."""
    # one-region arrays (every scalar call) skip the masked assembly
    large = y > _REGION_MID
    if not large.any():
        return _erfcx_mid(y)
    if large.all():
        return _erfcx_large(y)
    out = np.empty_like(y)
    out[~large] = _erfcx_mid(y[~large])
    out[large] = _erfcx_large(y[large])
    return out


def _exp_neg_sq(y: np.ndarray) -> np.ndarray:
    """exp(-y^2) with reduced rounding for large y.

    Splitting y into a 1/16-grid part and a remainder keeps the argument
    of each exponential small enough that the product loses less than an
    ulp, which matters once y^2 is in the hundreds.  The grid part is
    capped at 128, where exp(-128^2) is 0 even in longdouble (whose
    erfc underflows near y = 107), so y = inf gives 0, not inf - inf.
    """
    ysq = np.trunc(np.minimum(y, 128.0) * 16.0) / 16.0
    # minus the remainder (y - ysq)(y + ysq), without a separate negation
    return np.exp(-ysq * ysq) * np.exp((ysq - y) * (y + ysq))


def _dispatch_unary(x, core) -> np.ndarray | float:
    """Apply ``core`` to ``x`` as a floating ndarray, unwrap 0-d results."""
    arr = np.asarray(x)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    out = core(arr)
    if np.ndim(x) == 0:
        return float(out) if out.dtype == np.float64 else out[()]
    return out


def erfc(x):
    """Complementary error function, accurate over the full real line.

    Relative error is ~1e-16 for moderate arguments and stays below
    1e-13 out to the underflow edge near x = 26.5.  Accepts scalars or
    arrays; negative arguments use erfc(-x) = 2 - erfc(x).
    """

    def core(ax: np.ndarray) -> np.ndarray:
        y = np.abs(ax)
        out = np.empty_like(y)

        small = y <= _REGION_SMALL
        tail = ~small
        if small.any():
            out[small] = 1.0 - _erf_small(ax[small])
        if tail.any():
            yt = y[tail]
            with np.errstate(under="ignore"):
                out[tail] = _erfcx_tail(yt) * _exp_neg_sq(yt)

        neg = ax < 0
        if neg.any():
            # erf is odd; the small-region branch already handled signs.
            flip = neg & tail
            out[flip] = 2.0 - out[flip]
        return out

    return _dispatch_unary(x, core)


def erfcx(x):
    """Scaled complementary error function exp(x^2) * erfc(x) for x >= 0.

    The scaling removes the Gaussian decay, so values stay representable
    for arbitrarily large arguments (erfcx(x) ~ 1/(x sqrt(pi))).

    Raises:
        ValueError: if any argument is negative (exp(x^2) would
            overflow long before erfc loses accuracy there, so the
            negative half-line is deliberately out of contract).
    """

    def core(ax: np.ndarray) -> np.ndarray:
        if (ax < 0).any():
            raise ValueError("erfcx requires x >= 0")
        out = np.empty_like(ax)

        small = ax <= _REGION_SMALL
        tail = ~small
        if small.any():
            xs = ax[small]
            out[small] = np.exp(xs * xs) * (1.0 - _erf_small(xs))
        if tail.any():
            out[tail] = _erfcx_tail(ax[tail])
        return out

    return _dispatch_unary(x, core)


# ---------------------------------------------------------------------------
# Lambert W, principal branch, of a positive argument given by its log.
# ---------------------------------------------------------------------------

_MAX_NEWTON_ITERS = 64


def lambert_w0_of_log(log_x):
    """Principal Lambert W of ``x = exp(log_x)``, the w with w e^w = x,
    for any finite ``log_x``, without forming x where it would overflow.

    Newton's method from ``log(1 + x) >= W0(x)`` steps by ``r / (1 + w)``
    with ``r = w - x e^-w`` for ``log_x < 0`` (x is representable) and
    ``r = w (w + ln w - log_x)`` otherwise (``ln w - log_x`` does not
    cancel).  Below exp's underflow, log_x < -745, the result is 0.
    Each element stops at its own convergence, so an array gives the
    same bits as its elements passed one at a time.

    Raises:
        ConvergenceError: if the step is still above 4 eps relative
            after 64 iterations, which should not happen.
    """

    def core(lx: np.ndarray) -> np.ndarray:
        eps = np.finfo(lx.dtype).eps
        below = lx < 0.0
        x = np.exp(np.where(below, lx, 0.0))  # only read where below
        w = np.logaddexp(0.0, lx)
        done = np.zeros(lx.shape, dtype=bool)
        # each side also evaluates the other's form, whose log(0) is discarded
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_MAX_NEWTON_ITERS):
                r = np.where(below, w - x * np.exp(-w), w * (w + np.log(w) - lx))
                step = r / (1.0 + w)
                w = np.where(done, w, w - step)
                done |= np.abs(step) <= 4.0 * eps * w
                if done.all():
                    return w
        raise ConvergenceError("lambert_w0_of_log failed to converge")

    return _dispatch_unary(log_x, core)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature on [0, inf) for Gaussian-decay
# integrands.  A 7-point Gauss rule is embedded in a 15-point Kronrod
# rule; the difference between the two serves as the local error
# estimate, and the interval with the largest estimate is split first.
# ---------------------------------------------------------------------------

_QUAD_ABS_TOL = 1e-12
_QUAD_REL_TOL = 1e-9
_QUAD_MAX_SPLITS = 2000

_KRONROD_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_KRONROD_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
# Gauss-7 nodes sit at the odd Kronrod indices (1, 3, ..., 13).
_GAUSS_IDX = np.arange(1, 15, 2)
_GAUSS_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray) -> list[tuple[float, float]]:
    """15-point Kronrod estimate plus an error estimate on each interval
    [a[i], b[i]], from one call of ``f`` on every interval's nodes.  Each
    interval's sums are its own 15-point dot products."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * _KRONROD_NODES
    vals = np.asarray(f(nodes.ravel()), dtype=np.float64)
    if vals.shape != (nodes.size,):
        raise ValueError("integrand must be vectorized (array in, array out)")
    vals = vals.reshape(nodes.shape)
    out = []
    for h, row in zip(half, vals):
        kronrod = float(h) * float(np.dot(_KRONROD_WEIGHTS, row))
        gauss = float(h) * float(np.dot(_GAUSS_WEIGHTS, row[_GAUSS_IDX]))
        out.append((kronrod, abs(kronrod - gauss)))
    return out


def integrate_semi_infinite(f: Callable) -> float:
    """Integrate a vectorized ``f`` over [0, inf).

    The integrand is assumed to decay at least like exp(-t^2) times a
    modest polynomial, so the infinite tail can be truncated where the
    Gaussian envelope falls below a tenth of the absolute tolerance; a
    fixed two-unit margin covers polynomial prefactors.  The finite part
    is then handled by adaptive 7/15 Gauss-Kronrod subdivision, always
    splitting the interval with the largest error estimate, until the
    error estimate is below 1e-12 absolute or 1e-9 relative.  The four
    seed intervals share one call of ``f``, and so do the two halves of
    each split; each interval keeps its own 15-point sums, so the result
    is bitwise that of one call per interval.

    Raises:
        ConvergenceError: if the error estimate is still above tolerance
            after 2000 splits.
    """
    upper = math.sqrt(math.log(10.0 / _QUAD_ABS_TOL)) + 2.0

    # Seed with a few intervals so sharply peaked integrands are noticed.
    seeds = np.linspace(0.0, upper, 5)
    heap: list[tuple[float, int, float, float, float]] = []
    tie = 0
    total = 0.0
    total_err = 0.0
    for a, b, (val, err) in zip(seeds[:-1], seeds[1:], _gk15(f, seeds[:-1], seeds[1:])):
        total += val
        total_err += err
        heapq.heappush(heap, (-err, tie, float(a), float(b), val))
        tie += 1

    splits = 0
    while total_err > max(_QUAD_ABS_TOL, _QUAD_REL_TOL * abs(total)):
        if splits >= _QUAD_MAX_SPLITS:
            raise ConvergenceError(
                "quadrature error estimate "
                f"{total_err:.3e} above tolerance after {splits} subdivisions"
            )
        neg_err, _, a, b, val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        (left_val, left_err), (right_val, right_err) = _gk15(
            f, np.array([a, mid]), np.array([mid, b])
        )
        total += left_val + right_val - val
        total_err += left_err + right_err - (-neg_err)
        heapq.heappush(heap, (-left_err, tie, a, mid, left_val))
        tie += 1
        heapq.heappush(heap, (-right_err, tie, mid, b, right_val))
        tie += 1
        splits += 1

    return total
