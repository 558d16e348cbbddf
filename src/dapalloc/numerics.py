"""Self-contained special functions and a fixed quadrature rule.

The library has no runtime dependency on scipy; this module provides
exactly what the power-allocation code needs:

* ``erfc`` / ``erfcx`` -- complementary error function and its scaled
  variant: ``erfc`` is the platform libm's, and ``erfcx`` adds Cody's
  rational approximation for x > 4,
* ``lambert_w0_of_log`` -- principal Lambert W of ``exp(log_x)`` by
  Newton iteration, which never forms the (possibly overflowing)
  exponential,
* ``integrate_semi_infinite`` -- a fixed composite Gauss-Legendre rule
  on ``[0, inf)`` for integrands with a Gaussian decay envelope, with
  extra panel ends where the caller knows the integrand bends.

``erfc``, and the ``exp``/``expm1``/``log`` that :mod:`dapalloc.dapa`
takes through :func:`_libm`, follow the platform's libm, so their last
bits (and the solvers' digests) can differ between hosts whose libm
differs; the rest is numpy.  All functions accept scalars or numpy
arrays, return a Python float for a 0-d float64 input, and return the
input's float dtype (other dtypes are read as float64); ``erfc``
computes in float64 whatever that dtype.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

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
# erfc / erfcx.  erfc is the platform libm's, element by element; erfcx
# keeps W. J. Cody's rational approximation (1969, Math. Comp. 23) for
# x > 4, where exp(x^2) * erfc(x) would overflow or lose its digits.
# ---------------------------------------------------------------------------

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
_ERFCX_LARGE = 4.0  # erfcx's rational approximation covers x > 4


def _libm(fn, x) -> np.ndarray:
    """``fn``, a :mod:`math` function, mapped over the elements of ``x``.

    ``x`` is a float array.  Each element is computed in float64 by the
    platform's libm, so the result follows libm's last bits rather than
    numpy's SIMD loops, and is returned in ``x``'s dtype and shape.  The
    map costs a Python call per element: it beats numpy's per-call
    overhead on the small arrays the solvers pass, but is slower than a
    numpy ufunc chain from about 10^4 elements on.
    """
    flat = x.astype(np.float64, copy=False).ravel().tolist()
    out = np.fromiter(map(fn, flat), np.float64, x.size).reshape(x.shape)
    return out.astype(x.dtype, copy=False)


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
    """Complementary error function over the full real line: the
    platform libm's ``erfc``, element by element (see :func:`_libm`).

    Accepts scalars or arrays.  Computes in float64 and returns the
    input's float dtype; glibc's ``erfc`` is within a few ulp, and
    underflows to 0 past x = 27.23 without a warning.
    """
    return _dispatch_unary(x, lambda ax: _libm(math.erfc, ax))


def erfcx(x):
    """Scaled complementary error function exp(x^2) * erfc(x) for x >= 0.

    The scaling removes the Gaussian decay, so values stay representable
    for arbitrarily large arguments (erfcx(x) ~ 1/(x sqrt(pi))).  Up to
    x = 4 it is exp(x^2) * erfc(x); past that, Cody's rational
    approximation in 1/x^2.

    Raises:
        ValueError: if any argument is negative (exp(x^2) would
            overflow long before erfc loses accuracy there, so the
            negative half-line is deliberately out of contract).
    """

    def core(ax: np.ndarray) -> np.ndarray:
        if (ax < 0).any():
            raise ValueError("erfcx requires x >= 0")
        large = ax > _ERFCX_LARGE
        if large.all():  # every in-library call: psi > 25 (pa_model._ERFCX_SWITCH)
            return _erfcx_large(ax)
        out = np.empty_like(ax)
        out[large] = _erfcx_large(ax[large])
        small = ax[~large]
        out[~large] = np.exp(small * small) * erfc(small)
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
# A fixed composite Gauss-Legendre rule on [0, inf) for Gaussian-decay
# integrands (Davis & Rabinowitz, Methods of Numerical Integration, 1984).
# ---------------------------------------------------------------------------

# exp(-t^2) falls below 1e-13 at sqrt(ln 1e13); two more units cover
# polynomial prefactors, so the rule stops at t = 7.47.
_QUAD_UPPER = math.sqrt(math.log(1e13)) + 2.0
_QUAD_PANEL_ENDS = np.linspace(0.0, _QUAD_UPPER, 13)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def integrate_semi_infinite(f: Callable, breaks: Iterable[float] = ()) -> float:
    """Integrate a vectorized ``f`` over [0, inf).

    The integrand is assumed to decay at least like exp(-t^2) times a
    modest polynomial, so the tail past t = 7.47 is dropped.  The rule
    is fixed: 20-node Gauss-Legendre on 12 uniform panels of [0, 7.47],
    with a further panel end at each of ``breaks`` inside (0, 7.47);
    other breaks are ignored.  ``breaks`` are the points where ``f``
    bends sharply (a knee), which a polynomial on one panel would
    smooth over.  ``f`` is called once, on every node, and only at
    interior points (never at 0).  There is no tolerance and no error
    estimate: the accuracy is what the panels give.
    """
    ends = np.union1d(_QUAD_PANEL_ENDS, [b for b in breaks if 0.0 < b < _QUAD_UPPER])
    half = 0.5 * np.diff(ends)
    nodes = (ends[:-1] + half)[:, None] + half[:, None] * _GL_NODES
    vals = np.asarray(f(nodes.ravel()), dtype=np.float64)
    if vals.shape != (nodes.size,):
        raise ValueError("integrand must be vectorized (array in, array out)")
    return float(half @ (vals.reshape(nodes.shape) @ _GL_WEIGHTS))
