"""Optimal total transmit power for fixed per-user power fractions.

For fixed fractions ``omega`` the zero-forcing sum-rate is a function of
the total power P alone: raising P lifts every user's signal power but
simultaneously lowers the back-off, which both shrinks the Bussgang gain
and raises the distortion floor.  The derivative of the sum-rate in P
factors (for the ideal-clipper amplifier) into a positive per-user
factor, a positive common factor, and the scalar "power balance"

    balance(P) = 2 sigma^2 / (sqrt(pi) beta ETA M p_max)
                 - erfc(sqrt(psi)) / sqrt(psi),        psi = M p_max / P,

which is strictly decreasing in P with exactly one root per user.  The
solver brackets the derivative's sign change between the smallest and
largest per-user roots -- themselves bounded in closed form through the
Lambert W function -- and bisects on the derivative sign.

All bracket arithmetic runs in the log domain: the W arguments grow like
``(beta M p_max / sigma^2)^2``, far beyond double-precision range for
strong channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dapalloc.metrics import Allocation, SystemConfig, UeSet, _rate_rows, evaluate, zf_gain
from dapalloc.numerics import ConvergenceError, erfc, erfcx, lambert_w0_of_log
from dapalloc.pa_model import (
    _ERFCX_SWITCH,
    _SQRT_PI,
    ETA,
    SOFT_LIMITER,
    bussgang_gain_soft,
    distortion_coeff_soft,
)

__all__ = [
    "DapaResult",
    "SolverError",
    "power_balance",
    "root_bounds",
    "sum_rate_derivative",
    "default_delta",
    "solve_dapa",
]

_GUARD_SAMPLES = 32
_LOOKAHEAD_LEVELS = 5  # midpoint-tree levels per derivative call: 31 points
_MIN_BRACKET_RATIO = 1e-13  # see root_bounds
# libm's log, exp and expm1 elementwise: numpy's SIMD versions can differ
# from them in the last bit, which could move a bracket end or a step.
_log = np.vectorize(math.log, otypes=[np.float64])
_exp = np.vectorize(math.exp, otypes=[np.float64])
_expm1 = np.vectorize(math.expm1, otypes=[np.float64])


class SolverError(RuntimeError):
    """A solver could not produce a trustworthy result.

    Carries a ``diagnostics`` dict with the offending inputs and
    intermediate values, for post-mortem inspection and error JSON.
    """

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class DapaResult:
    """Outcome of one total-power bisection.

    Attributes:
        total_power_p: the returned optimum P (midpoint of the final
            bisection interval), in watts.
        bracket_lo / bracket_hi: the initial search bracket, in watts.
        iterations: bisection steps performed (at most
            ceil(log2(width/delta)) + 1).
        derivative_residual: |d(sum rate)/dP| at the returned P divided
            by its value at bracket_lo -- a dimensionless stationarity
            measure that shrinks with delta.
        sum_rate: the zero-forcing sum rate at the returned P, bitwise
            ``evaluate(...).sum_rate``; the guard compared it.
    """

    total_power_p: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    derivative_residual: float
    sum_rate: float


def _erfc_over_sqrt(psi):
    """erfc(sqrt(psi))/sqrt(psi) without underflow at large psi."""
    psi = np.asarray(psi, dtype=np.float64)
    root = np.sqrt(psi)
    out = np.empty_like(psi)
    small = psi <= _ERFCX_SWITCH
    if small.any():
        out[small] = erfc(root[small]) / root[small]
    if not small.all():
        rl = root[~small]
        with np.errstate(under="ignore"):
            out[~small] = erfcx(rl) * np.exp(-psi[~small]) / rl
    return out


def power_balance(total_power_p, sigma2, beta, cfg: SystemConfig):
    """The per-user power-balance function whose root is that user's
    optimal total power.

    Positive at small P (noise-limited: more power helps), negative at
    large P (distortion-limited: more power hurts), strictly decreasing
    in between.  ``sigma2`` and ``beta`` may be arrays (evaluated
    elementwise for several users at the same P, or a column of powers).
    """
    if np.any(np.asarray(total_power_p) <= 0):
        raise ValueError("total power must be positive")
    psi = cfg.m_antennas * cfg.p_max / total_power_p
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    out = _balance_lead(sigma2, beta, cfg) - _erfc_over_sqrt(psi)
    return float(out) if out.ndim == 0 else out


def _balance_lead(sigma2, beta, cfg: SystemConfig):
    """The power balance's constant term 2 sigma^2 / (sqrt(pi) beta ETA M p_max)."""
    return 2.0 * sigma2 / (_SQRT_PI * beta * ETA * cfg.m_antennas * cfg.p_max)


def root_bounds(sigma2, beta, cfg: SystemConfig):
    """Closed-form bracket for the root of :func:`power_balance`.

    Bounding erfc by its standard exponential envelopes turns the root
    equation into ``w * e^w = arg`` form, giving

        P_lower = 2 M p_max / W(pi/2 * r^2),
        P_upper = 4 M p_max / W(e/2  * r^2),   r = beta ETA M p_max / sigma^2.

    Both W arguments are passed as logarithms (r^2 overflows double
    precision for strong channels).  Scaling sigma2 and beta together
    leaves the bounds unchanged.  Per-user arrays ``sigma2`` and ``beta``
    give per-user bounds; a scalar pair gives two floats.

    Raises:
        SolverError: if r < 1e-13 for any user.  There the lower bound's
            relative margin over the root, about r, is below the
            rounding of the W argument's log, so the bracket's sign is
            not guaranteed (it fails for r up to ~6e-15).
    """
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if not ((sigma2 > 0).all() and (beta > 0).all()):
        raise ValueError("noise and channel gain must be positive")
    log_ratio = _log(beta * ETA * cfg.m_antennas * cfg.p_max) - _log(sigma2)
    if (log_ratio < math.log(_MIN_BRACKET_RATIO)).any():
        ratio = math.exp(np.min(log_ratio))
        raise SolverError(
            f"r = {ratio:.3g} is below the Lambert-W bracket's floor {_MIN_BRACKET_RATIO:g}",
            diagnostics={"ratio": ratio, "floor": _MIN_BRACKET_RATIO},
        )
    log_arg_lower = math.log(math.pi / 2.0) + 2.0 * log_ratio
    log_arg_upper = 1.0 - math.log(2.0) + 2.0 * log_ratio
    lower = 2.0 * cfg.m_antennas * cfg.p_max / lambert_w0_of_log(log_arg_lower)
    upper = 4.0 * cfg.m_antennas * cfg.p_max / lambert_w0_of_log(log_arg_upper)
    return lower, upper


def _clipper_state(power: np.ndarray, cfg: SystemConfig):
    """Back-off, gain, distortion coefficient and distortion ETA c P, as
    operating_point_at computes them, at every point of ``power``."""
    psi = cfg.m_antennas * cfg.p_max / power
    coeff = distortion_coeff_soft(psi)
    return psi, bussgang_gain_soft(psi), coeff, ETA * coeff * power


def _active(ues: UeSet, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel gains, noise powers and fractions of the users with positive fraction."""
    omega = np.asarray(omega, dtype=np.float64)
    active = omega > 0.0
    if not active.any():
        raise ValueError("at least one power fraction must be positive")
    return ues.beta[active], ues.noise_w[active], omega[active]


def sum_rate_derivative(total_power_p, ues, omega, cfg: SystemConfig):
    """d(sum rate)/dP at fixed fractions, ideal-clipper amplifier.

    Each user contributes (positive rate-curvature factor) x (common
    positive back-off factor) x (power balance); users with zero power
    fraction contribute nothing.  Units: bit/s per watt.  The solvers
    only consume the sign, but the full value is exposed for residual
    reporting and finite-difference cross-checks.

    A 1-D array of powers gives one value per power, bitwise the scalar
    calls.  A chunk -- ``ues`` and ``omega`` sequences of N user sets and
    fractions, ``total_power_p`` an (N, n) array -- gives an (N, n)
    array whose row r is bitwise the call on row r alone.
    """
    if isinstance(ues, UeSet):  # one user set: the chunk with N = 1
        power = np.asarray(total_power_p, dtype=np.float64)
        out = _derivative_rows(power.reshape(1, -1), [ues], [omega], cfg)
        return float(out[0, 0]) if power.ndim == 0 else out.reshape(power.shape)
    return _derivative_rows(np.asarray(total_power_p, dtype=np.float64), ues, omega, cfg)


def _derivative_rows(power: np.ndarray, ues_rows, omega_rows, cfg: SystemConfig) -> np.ndarray:
    """:func:`sum_rate_derivative` on a chunk: row r of ``power`` on row r's users.

    The terms that depend on P alone are computed once over every row's
    points; each row's user algebra and user sum run on its own active
    users, so each sum has that row's length and bits.
    """
    if (power <= 0).any():
        raise ValueError("total power must be positive")
    psi, lam, _, dist = _clipper_state(power, cfg)
    tail = _erfc_over_sqrt(psi)
    # 1 - e^-psi - psi e^-psi ~ psi^2 / 2 at small psi; expm1 avoids the cancellation
    exp_neg = np.where(psi <= 700.0, _exp(-psi), 0.0)
    common = np.sqrt(lam) * (-_expm1(-psi) - psi * exp_neg)
    out = np.empty(power.shape)
    for r, (ues, omega) in enumerate(zip(ues_rows, omega_rows)):
        beta, sigma2, w = _active(ues, omega)
        column, lam_r, dist_r = power[r, :, None], lam[r, :, None], dist[r, :, None]
        array_gain = zf_gain(cfg, ues)
        denom = sigma2 + beta * dist_r
        gamma = array_gain * lam_r * w * column * beta / denom
        rate_factor = (
            cfg.bandwidth_hz / (math.log(2.0) * (1.0 + gamma)) * array_gain * w * beta / denom**2
        )
        balance = _balance_lead(sigma2, beta, cfg) - tail[r, :, None]
        scale = (_SQRT_PI / 2.0) * beta * ETA * cfg.m_antennas * cfg.p_max
        out[r] = np.sum(rate_factor * common[r, :, None] * scale * balance, axis=-1)
    return out


def _ladder(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each row's next ``_LOOKAHEAD_LEVELS`` levels of midpoints between
    its (lo, hi), as one sorted row of 2^levels + 1 bracket ends."""
    ends = np.stack([lo, hi], axis=1)
    for _ in range(_LOOKAHEAD_LEVELS):
        finer = np.empty((ends.shape[0], 2 * ends.shape[1] - 1))
        finer[:, ::2] = ends
        finer[:, 1::2] = 0.5 * (ends[:, :-1] + ends[:, 1:])
        ends = finer
    return ends


def _walk(lo, hi, delta: float, ues_rows, omega_rows, cfg, first: Optional[np.ndarray] = None):
    """Sign bisection of the derivative on a chunk of N brackets in
    lockstep; returns (midpoints, steps, derivative at each midpoint),
    one per row.

    Each row stops on its own: at an exact zero of the derivative, when
    its bracket is at most ``delta`` wide, or when a step leaves it
    unchanged (at P > delta / eps the bracket reaches one float ulp
    before it reaches ``delta``).

    Look-ahead: one ``sum_rate_derivative`` call, read through the module
    name so that a test may replace it, covers the next
    ``_LOOKAHEAD_LEVELS`` levels of midpoints (31 points) of every open
    row.  Each row's walk reads only its own path's signs, so its bits,
    and any NaN it meets, are those of one call per step.  ``first``, if
    given, holds the derivative at every row's first ladder,
    ``_ladder(lo, hi)`` with both ends, and stands in for the first call.

    A row that stops at an exact zero or one ulp, or at ``delta`` before
    its walk used every level, returns a midpoint of its ladder, whose
    derivative is already known; one that stops on the last level, or
    never walks, gets NaN.
    """
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    root = 0.5 * (lo + hi)
    at_root = np.full(lo.size, np.nan)
    steps = np.zeros(lo.size, dtype=np.int64)
    open_rows = np.flatnonzero(hi - lo > delta)
    while open_rows.size:
        ends = _ladder(lo[open_rows], hi[open_rows])
        if first is not None:
            values, first = first[open_rows, 1:-1], None
        else:
            values = sum_rate_derivative(
                ends[:, 1:-1], [ues_rows[r] for r in open_rows], [omega_rows[r] for r in open_rows], cfg
            )
        still_open = []
        for i, r in enumerate(open_rows):
            row_lo, row_hi, n = float(lo[r]), float(hi[r]), int(steps[r])
            a, b = 0, ends.shape[1] - 1  # (lo, hi) == (ends[a], ends[b])
            stop = None
            while b - a > 1 and row_hi - row_lo > delta:
                m = (a + b) // 2
                mid = float(ends[i, m])
                s = int(np.sign(values[i, m - 1]))  # int(nan) raises
                if s == 0:  # exact stationary point
                    stop, n = mid, n + 1
                    break
                n += 1
                step = (mid, row_hi) if s > 0 else (row_lo, mid)
                if step == (row_lo, row_hi):  # one ulp wide: mid is lo or hi
                    stop = mid
                    break
                row_lo, row_hi = step
                a, b = (m, b) if s > 0 else (a, m)
            lo[r], hi[r], steps[r] = row_lo, row_hi, n
            if stop is not None:
                root[r], at_root[r] = stop, values[i, m - 1]
            elif row_hi - row_lo > delta:
                still_open.append(r)
            else:
                root[r] = 0.5 * (row_lo + row_hi)
                if b - a > 1:  # ends[(a + b) // 2] is that midpoint, bit for bit
                    at_root[r] = values[i, (a + b) // 2 - 1]
        open_rows = np.array(still_open, dtype=np.intp)
    return root, steps, at_root


def default_delta(cfg: SystemConfig) -> float:
    """The solvers' default bracket-width stop, 1e-6 * M * p_max watts."""
    return 1e-6 * cfg.m_antennas * cfg.p_max


def solve_dapa(ues, omega, cfg: SystemConfig, delta: Optional[float] = None, *, _bounds=None):
    """Bisection for the total power maximizing the fixed-fraction sum rate.

    The initial bracket runs from the smallest Lambert-W lower bound to
    the largest upper bound over the users with positive fraction.  The
    derivative must be nonnegative at the left end and nonpositive at
    the right end; a violation raises :class:`SolverError` with
    diagnostics.  ``delta`` is the absolute bracket-width stop (watts),
    defaulting to :func:`default_delta`.

    After bisection the sum rate is sampled at 32 log-spaced points of
    the bracket; if any sample beats the bisection root (possible only
    if the K-term derivative had several sign changes), bisection is
    re-run inside the best sample's sub-interval and the best candidate
    wins.  This guard keeps the common single-root case untouched.  Both
    stages batch their points: bisection evaluates five levels of
    midpoints per derivative call, and the guard rates its 32 samples in
    one call.  Every bit is that of one scalar call per point.

    Derivative calls per solve: one per five bisection levels, the first
    of which also holds the bracket ends that the sign check reads (33
    points), and as many for a guard re-bisection.  The residual reads
    the derivative at the returned power off the last ladder when the
    walk stopped on it: at an exact zero, at one ulp, or at ``delta``
    before the ladder's last level.  One more call, over the rows of a
    chunk that need it, covers the rest: walks that stopped on the last
    level, brackets already within ``delta``, and roots the guard moved.

    A chunk -- ``ues`` and ``omega`` sequences of N user sets and
    fractions sharing ``cfg`` and ``delta`` -- is solved in lockstep and
    gives a list of N outcomes: a :class:`DapaResult`, or the
    :class:`SolverError` or :class:`~dapalloc.numerics.ConvergenceError`
    that row raised.  Each row is bitwise its own one-set solve.

    ``cfg.pa`` must be the ideal clipper, the only amplifier the
    derivative models; any other raises ``ValueError``.

    ``_bounds`` is private to the alternating optimizer, whose later
    rounds pass each set's per-user Lambert-W bounds from its first.
    """
    if isinstance(ues, UeSet):  # one user set: the chunk with N = 1
        return _unwrap(_solve_rows([ues], [omega], cfg, delta, _bounds))
    return _solve_rows(list(ues), list(omega), cfg, delta, _bounds)


def _unwrap(outcomes: list):
    """The one outcome of a one-row chunk: its value, or its error raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _user_bounds(beta_rows: list, sigma2_rows: list, cfg: SystemConfig) -> list:
    """Each row's per-user :func:`root_bounds` as a (lower, upper) pair
    of arrays, or the error they raised.

    One :func:`root_bounds` call covers every row; it is elementwise, so
    each row gets the bits of its own call.  If it fails, each row is
    bounded alone to tell which rows fail.
    """
    try:
        lower, upper = root_bounds(np.concatenate(sigma2_rows), np.concatenate(beta_rows), cfg)
    except (SolverError, ConvergenceError) as exc:
        if len(beta_rows) == 1:
            return [exc]
        return [
            bounds
            for beta, sigma2 in zip(beta_rows, sigma2_rows)
            for bounds in _user_bounds([beta], [sigma2], cfg)
        ]
    cuts = np.cumsum([beta.size for beta in beta_rows])[:-1]
    return list(zip(np.split(lower, cuts), np.split(upper, cuts)))


def _solve_rows(
    ues_rows: list, omega_rows: list, cfg: SystemConfig, delta, bounds: Optional[list] = None
) -> list:
    """:func:`solve_dapa` on a chunk, every stage in lockstep over its rows.

    ``bounds``, if given, holds each set's per-user bounds over all of
    its users (or their error), as :func:`_user_bounds` gives them, and
    no :func:`root_bounds` call is made.
    """
    if cfg.pa.kind != SOFT_LIMITER:
        raise ValueError(f"pa must be {SOFT_LIMITER!r}, the only amplifier the derivative models")
    if delta is None:
        delta = default_delta(cfg)
    if delta <= 0:
        raise ValueError("delta must be positive")
    omega_rows = [np.asarray(omega, dtype=np.float64) for omega in omega_rows]
    for ues, omega in zip(ues_rows, omega_rows, strict=True):
        if omega.size != ues.n_users:
            raise ValueError("omega length must match the user set")
        Allocation(1.0, omega)  # the fractions evaluate checks: nonnegative, summing to 1

    # Users with zero fraction have constant rate terms in P and do not
    # constrain the bracket.
    users = [_active(ues, omega) for ues, omega in zip(ues_rows, omega_rows)]
    if bounds is None:
        bounds = _user_bounds([beta for beta, _, _ in users], [sigma2 for _, sigma2, _ in users], cfg)
    else:
        bounds = [
            row if isinstance(row, Exception) else (row[0][omega > 0.0], row[1][omega > 0.0])
            for row, omega in zip(bounds, omega_rows, strict=True)
        ]
    # Each row's bracket spans its active users' bounds; errors stay, the
    # rest are replaced.
    outcomes: list = [
        row if isinstance(row, Exception) else (float(np.min(row[0])), float(np.max(row[1])))
        for row in bounds
    ]
    rows = [r for r, bracket in enumerate(outcomes) if not isinstance(bracket, Exception)]
    if not rows:
        return outcomes
    lo, hi = np.array([outcomes[r] for r in rows]).T
    ues_rows = [ues_rows[r] for r in rows]
    omega_rows = [omega_rows[r] for r in rows]
    # The sign check reads the ends of the bisection's first ladder, so
    # one derivative call serves both.
    ladder = sum_rate_derivative(_ladder(lo, hi), ues_rows, omega_rows, cfg)
    d_lo, d_hi = ladder[:, 0], ladder[:, -1]
    violated = (d_lo < 0.0) | (d_hi > 0.0)
    for i in np.flatnonzero(violated):
        outcomes[rows[i]] = SolverError(
            "derivative sign condition violated at the initial bracket",
            diagnostics={
                "bracket_lo": float(lo[i]),
                "bracket_hi": float(hi[i]),
                "derivative_lo": float(d_lo[i]),
                "derivative_hi": float(d_hi[i]),
                "delta": delta,
                "m_antennas": cfg.m_antennas,
                "p_max": cfg.p_max,
            },
        )
    keep = np.flatnonzero(~violated)
    if not keep.size:
        return outcomes
    rows = [rows[i] for i in keep]
    ues_rows = [ues_rows[i] for i in keep]
    omega_rows = [omega_rows[i] for i in keep]
    lo, hi, d_lo = lo[keep], hi[keep], d_lo[keep]

    roots, iterations, d_root = _walk(lo, hi, delta, ues_rows, omega_rows, cfg, ladder[keep])
    # Multi-root guard: scan each bracket for a better objective.  Column
    # 0 rates the root, as evaluate would.
    samples = np.array([np.geomspace(a, b, _GUARD_SAMPLES) for a, b in zip(lo, hi)])
    power = np.column_stack([roots, samples])
    _, lam, _, dist = _clipper_state(power, cfg)
    # row by row: a chunk of a whole run's drops stacked into one (N, 33, K)
    # block would hold 33 N K floats per temporary
    rated = np.array([
        _rate_rows(cfg, ues.beta, ues.noise_w, power[i], omega, states=(lam[i], dist[i]))[2]
        for i, (ues, omega) in enumerate(zip(ues_rows, omega_rows))
    ])
    best_p, best_obj = roots, rated[:, 0]
    i_best = np.argmax(rated[:, 1:], axis=1)
    fired = np.flatnonzero(rated[np.arange(len(rows)), 1 + i_best] > best_obj)
    if fired.size:
        sub_lo = samples[fired, np.maximum(i_best[fired] - 1, 0)]
        sub_hi = samples[fired, np.minimum(i_best[fired] + 1, _GUARD_SAMPLES - 1)]
        sub_roots, iterations[fired], _ = _walk(
            sub_lo, sub_hi, delta, [ues_rows[i] for i in fired], [omega_rows[i] for i in fired], cfg
        )
        for i, sub_root in zip(fired, sub_roots):
            for candidate in (float(sub_root), float(samples[i, i_best[i]])):
                obj = evaluate(cfg, ues_rows[i], Allocation(candidate, omega_rows[i])).sum_rate
                if obj > best_obj[i]:
                    best_obj[i] = obj
                    best_p[i] = candidate
                    d_root[i] = np.nan

    # Rows without the derivative at their power from the walk get one call.
    fresh = np.flatnonzero(np.isnan(d_root))
    if fresh.size:
        d_root[fresh] = _derivative_rows(
            best_p[fresh, np.newaxis], [ues_rows[i] for i in fresh], [omega_rows[i] for i in fresh], cfg
        )[:, 0]
    d_root = np.abs(d_root)
    for i, r in enumerate(rows):
        outcomes[r] = DapaResult(
            total_power_p=float(best_p[i]),
            bracket_lo=float(lo[i]),
            bracket_hi=float(hi[i]),
            iterations=int(iterations[i]),
            derivative_residual=float(d_root[i] / abs(d_lo[i]) if d_lo[i] != 0.0 else d_root[i]),
            sum_rate=float(best_obj[i]),
        )
    return outcomes
