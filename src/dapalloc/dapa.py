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

from dapalloc._fields import POSITIVE, check, require
from dapalloc.metrics import Allocation, SystemConfig, UeSet, _blocks, _check_fractions, _rate_rows, evaluate, zf_gain
from dapalloc.numerics import ConvergenceError, _libm, erfc, erfcx, lambert_w0_of_log
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
_MIN_BRACKET_RATIO = 1e-13  # see root_bounds


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


def _require_clipper(cfg: SystemConfig) -> None:
    """``cfg.pa`` must be the ideal clipper, the only amplifier the derivative models."""
    if cfg.pa.kind != SOFT_LIMITER:
        raise ValueError(f"pa must be {SOFT_LIMITER!r}, the only amplifier the derivative models")


def power_balance(total_power_p, sigma2, beta, cfg: SystemConfig):
    """The per-user power-balance function whose root is that user's
    optimal total power.

    Positive at small P (noise-limited: more power helps), negative at
    large P (distortion-limited: more power hurts), strictly decreasing
    in between.  ``sigma2`` and ``beta`` may be arrays (evaluated
    elementwise for several users at the same P, or a column of powers).
    """
    check(locals(), total_power_p=POSITIVE, sigma2=POSITIVE, beta=POSITIVE)
    _require_clipper(cfg)
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
    check(locals(), sigma2=POSITIVE, beta=POSITIVE)
    _require_clipper(cfg)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    log_ratio = _libm(math.log, beta * ETA * cfg.m_antennas * cfg.p_max) - _libm(math.log, sigma2)
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
    lam = bussgang_gain_soft(psi)
    coeff = distortion_coeff_soft(psi, _lam=lam)
    return psi, lam, coeff, ETA * coeff * power


def _active(ues: UeSet, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains, noise powers and fractions of the users with positive fraction; checks the fractions."""
    omega_given, omega = omega, np.asarray(omega, dtype=np.float64)
    _check_fractions(omega_given, omega, ues.n_users)
    active = omega > 0.0
    return ues.beta[active], ues.noise_w[active], omega[active]


def _plan(ues: UeSet, active: tuple, cfg: SystemConfig) -> tuple:
    """A row's derivative terms that stay fixed while P moves: its
    :func:`_active` (beta, sigma2, w), the ZF gain, the power balance's
    lead and the back-off scale."""
    beta, sigma2, w = active
    scale = (_SQRT_PI / 2.0) * beta * ETA * cfg.m_antennas * cfg.p_max
    return beta, sigma2, w, zf_gain(cfg, ues), _balance_lead(sigma2, beta, cfg), scale


def sum_rate_derivative(total_power_p, ues, omega, cfg: SystemConfig, *, _plans=None):
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

    ``_plans`` is private to the solver: each row's :func:`_plan`, built
    once per solve, so that no call repeats the fractions check.
    """
    require("total_power_p", total_power_p, POSITIVE)
    _require_clipper(cfg)
    power = np.asarray(total_power_p, dtype=np.float64)
    if isinstance(ues, UeSet):  # one user set: the chunk with N = 1
        out = _derivative_rows(power.reshape(1, -1), [ues], [omega], cfg, _plans)
        return float(out[0, 0]) if power.ndim == 0 else out.reshape(power.shape)
    if len(omega) != len(ues):
        raise ValueError("omega must have one fraction vector per user set")
    if power.ndim != 2 or len(power) != len(ues):
        raise ValueError("total_power_p must have one row per user set")
    return _derivative_rows(power, ues, omega, cfg, _plans)


def _derivative_rows(power: np.ndarray, ues_rows, omega_rows, cfg: SystemConfig, plans=None) -> np.ndarray:
    """:func:`sum_rate_derivative` on a chunk: row r of ``power`` on row r's users.

    The terms that depend on P alone are computed once over every row's
    points; each row's user algebra and user sum run on its own active
    users, so each sum has that row's length and bits.  Without
    ``plans``, each row's :func:`_plan` is built here.
    """
    psi, lam, _, dist = _clipper_state(power, cfg)
    tail = _erfc_over_sqrt(psi)
    # 1 - e^-psi - psi e^-psi ~ psi^2 / 2 at small psi; expm1 avoids the cancellation
    common = np.sqrt(lam) * (-_libm(math.expm1, -psi) - psi * _libm(math.exp, -psi))
    if plans is None:
        plans = [_plan(ues, _active(ues, omega), cfg) for ues, omega in zip(ues_rows, omega_rows)]
    out = np.empty(power.shape)
    for r, (beta, sigma2, w, array_gain, lead, scale) in enumerate(plans):
        column, lam_r, dist_r = power[r, :, None], lam[r, :, None], dist[r, :, None]
        denom = sigma2 + beta * dist_r
        gamma = array_gain * lam_r * w * column * beta / denom
        rate_factor = (
            cfg.bandwidth_hz / (math.log(2.0) * (1.0 + gamma)) * array_gain * w * beta / denom**2
        )
        balance = lead - tail[r, :, None]
        out[r] = np.sum(rate_factor * common[r, :, None] * scale * balance, axis=-1)
    return out


def _guess_path(lo: float, hi: float, guess: float, delta: float) -> list:
    """The midpoints that a walk from (lo, hi) reads if every sign points
    toward ``guess`` (the caller's or :func:`_steer`'s), from the bracket's
    own midpoint down to where that walk stops: an exact hit, one ulp, or
    ``delta``, whose midpoint is the root it returns."""
    path = []
    while True:
        mid = 0.5 * (lo + hi)
        path.append(mid)
        if hi - lo <= delta or mid in (guess, lo, hi):
            return path
        lo, hi = (mid, hi) if guess > mid else (lo, mid)


def _steer(table: dict, lo: float, hi: float, guess: float) -> float:
    """The root where a row's table puts it: inverse interpolation in log P
    through lo, hi and the nearest point beyond each, else false position
    in log P; ``guess`` if an end is missing, NaN or not of strict sign, or
    if the estimate is the log midpoint, as a sign-only table gives."""
    f_lo, f_hi, width = table.get(lo, math.nan), table.get(hi, math.nan), math.log(hi / lo)
    if not (f_lo > 0.0 > f_hi and width > 0.0):
        return guess
    below = max((p for p in table if p < lo), default=lo)
    above = min((p for p in table if p > hi), default=hi)
    ys = {math.log(p / lo) / width: table[p] for p in (below, lo, hi, above)}  # by log-bracket fraction t
    t = f_lo / (f_lo - f_hi)
    if len(set(ys.values())) == len(ys):  # Lagrange in y at y = 0
        t_4 = sum(t_k * math.prod(y / (y - y_k) for y in ys.values() if y != y_k) for t_k, y_k in ys.items())
        t = t_4 if 0.0 < t_4 < 1.0 else t
    return lo * math.exp(t * width) if 0.0 < t < 1.0 and t != 0.5 else guess  # in range before exp


def _points(lo: np.ndarray, hi: np.ndarray, guess: list, delta: float, tables: list) -> np.ndarray:
    """The powers one derivative call evaluates for each row: the ends of
    its bracket that its table lacks, then its :func:`_guess_path`, padded
    with repeats of the row's first point."""
    rows = [
        [end for end in (row_lo, row_hi) if end not in table] + _guess_path(row_lo, row_hi, row_guess, delta)
        for row_lo, row_hi, row_guess, table in zip(lo.tolist(), hi.tolist(), guess, tables)
    ]
    width = max(map(len, rows))
    return np.array([row + row[:1] * (width - len(row)) for row in rows])


def _walk(lo, hi, delta: float, ues_rows, omega_rows, cfg, tables=None, *, guess, plans=None):
    """Sign bisection of the derivative on a chunk of N brackets in
    lockstep; returns (midpoints, steps), one per row.

    Each row stops on its own, at a midpoint it evaluated: at an exact
    zero of the derivative, when its bracket is at most ``delta`` wide,
    or when a step leaves it unchanged (at P > delta / eps the bracket
    reaches one float ulp before it reaches ``delta``).

    Each row steps while its next midpoint is in its table, a
    ``{power: derivative}`` dict (``tables[r]``, if given, which may
    already hold values).  One ``sum_rate_derivative`` call, read through
    the module name so that a test may replace it, adds the
    :func:`_points` of every row whose midpoint is missing: the bracket
    ends its table lacks and the path from its midpoint toward the root
    that :func:`_steer` reads off the row's table, or toward ``guess[r]``
    where it reads none, as on a first call.  Each value is elementwise
    in P, so each step has the bits of one call at its midpoint; a row
    reads only its own path, so a NaN elsewhere is never read, and each
    call advances every open row at least one level.  ``plans``, if
    given, are the rows' :func:`_plan`.
    """
    lo, hi = np.array([lo, hi], dtype=np.float64)
    guess = np.asarray(guess, dtype=np.float64).tolist()
    tables = [{} for _ in range(lo.size)] if tables is None else tables
    steps = np.zeros(lo.size, dtype=np.int64)
    open_rows = list(range(lo.size))
    while True:
        missing = []
        for r in open_rows:
            row_lo, row_hi, n, table = float(lo[r]), float(hi[r]), int(steps[r]), tables[r]
            while (mid := 0.5 * (row_lo + row_hi)) in table:
                if row_hi - row_lo <= delta:  # at delta, the midpoint is the root
                    break
                s = int(np.sign(table[mid]))  # int(nan) raises
                n += 1
                step = (mid, row_hi) if s > 0 else (row_lo, mid)
                if s == 0 or step == (row_lo, row_hi):  # exact stationary point, or one ulp
                    break
                row_lo, row_hi = step
            else:  # its next midpoint, or the root it would return, is missing
                missing.append(r)
            lo[r], hi[r], steps[r] = row_lo, row_hi, n
        if not missing:
            return 0.5 * (lo + hi), steps
        open_rows = missing
        steered = [_steer(tables[r], lo.item(r), hi.item(r), guess[r]) for r in missing]
        points = _points(lo[missing], hi[missing], steered, delta, _pick(tables, missing))
        values = sum_rate_derivative(
            points, _pick(ues_rows, missing), _pick(omega_rows, missing), cfg, _plans=_pick(plans, missing)
        )
        for r, row_points, row_values in zip(missing, points.tolist(), values.tolist()):
            tables[r].update(zip(row_points, row_values))


def _pick(items: Optional[list], index) -> Optional[list]:
    """The items at ``index``, or None for None."""
    return None if items is None else [items[i] for i in index]


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
    re-run inside the best sample's sub-interval, and its root replaces
    the sample unless it rates lower.  This guard keeps the common
    single-root case untouched.  Both stages batch their points:
    bisection evaluates the path a walk toward a guessed root would take
    per derivative call, and the guard rates every row's root and 32
    samples in one call per user count.  Every bit is that of one scalar
    call per point.

    Derivative calls per solve: each covers at least one bisection level
    and the path a walk toward a guessed root would take, so a walk that
    goes where its guess points ends in that call.  The first call
    guesses the smallest per-user bound midpoint, or the optimizer's
    last power, and later ones where the row's table interpolates the
    root.  The first call also holds the bracket ends that the sign
    check reads; a guard re-bisection first guesses its best sample,
    and its first call holds its sub-interval's missing ends.  Every call
    reuses each row's plan, its active users and the terms fixed in P,
    set up once per solve.  Each row keeps one ``{power: derivative}``
    table that every call fills: the sign check, the walk and the guard's
    re-walk read their signs from it, and the residual reads the returned
    power there: every root a walk returns is a point it evaluated.  A
    row whose returned power is a guard sample no call evaluated gets one
    more call.

    A chunk -- ``ues`` and ``omega`` sequences of N user sets and
    fractions sharing ``cfg`` and ``delta`` -- is solved in lockstep and
    gives a list of N outcomes: a :class:`DapaResult`, or the
    :class:`SolverError` or :class:`~dapalloc.numerics.ConvergenceError`
    that row raised.  Each row is bitwise its own one-set solve; an
    empty chunk gives an empty list.

    ``cfg.pa`` must be the ideal clipper, the only amplifier the
    derivative models; any other raises ``ValueError``.

    ``_bounds`` is private to the alternating optimizer, whose later
    rounds pass each set's per-user Lambert-W bounds from its first and
    its last power as the guess.
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
    if not beta_rows:  # an empty chunk
        return []
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
    maybe a guess after them; no :func:`root_bounds` call is made.
    """
    _require_clipper(cfg)
    if len(omega_rows) != len(ues_rows):
        raise ValueError("omega must have one fraction vector per user set")
    if delta is None:
        delta = default_delta(cfg)
    require("delta", delta, POSITIVE)
    # Users with zero fraction have constant rate terms in P and do not
    # constrain the bracket.
    users = [_active(ues, omega) for ues, omega in zip(ues_rows, omega_rows)]
    omega_rows = [np.asarray(omega, dtype=np.float64) for omega in omega_rows]
    if bounds is None:
        bounds = _user_bounds([beta for beta, _, _ in users], [sigma2 for _, sigma2, _ in users], cfg)
    else:
        bounds = [
            row if isinstance(row, Exception) else (row[0][omega > 0.0], row[1][omega > 0.0], *row[2:])
            for row, omega in zip(bounds, omega_rows, strict=True)
        ]
    # Each row's bracket spans its active users' bounds, and its guess is
    # the power passed with them or its smallest bound midpoint; errors
    # stay, the rest are replaced.
    outcomes: list = [
        row
        if isinstance(row, Exception)
        else (np.min(row[0]), np.max(row[1]), *(row[2:] or [np.min(row[0] + row[1]) / 2]))
        for row in bounds
    ]
    rows = [r for r, bracket in enumerate(outcomes) if not isinstance(bracket, Exception)]
    if not rows:
        return outcomes
    lo, hi, guess = np.array([outcomes[r] for r in rows]).T
    plans = [_plan(ues_rows[r], users[r], cfg) for r in rows]
    ues_rows, omega_rows = _pick(ues_rows, rows), _pick(omega_rows, rows)
    # The sign check reads the bracket ends, evaluated with the walk's
    # first points, so one derivative call serves both and starts each row's table.
    tables = [{} for _ in rows]
    points = _points(lo, hi, guess.tolist(), delta, tables)
    values = sum_rate_derivative(points, ues_rows, omega_rows, cfg, _plans=plans)
    for table, row_points, row_values in zip(tables, points.tolist(), values.tolist()):
        table.update(zip(row_points, row_values))
    d_lo, d_hi = (np.array([table[p] for table, p in zip(tables, ends.tolist())]) for ends in (lo, hi))
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
    rows, ues_rows, omega_rows, plans = (_pick(items, keep) for items in (rows, ues_rows, omega_rows, plans))
    lo, hi, d_lo, tables = lo[keep], hi[keep], d_lo[keep], _pick(tables, keep)

    roots, iterations = _walk(lo, hi, delta, ues_rows, omega_rows, cfg, tables, guess=guess[keep], plans=plans)
    # Multi-root guard: scan each bracket for a better objective.  Column
    # 0 rates the root, as evaluate would.
    samples = np.geomspace(lo, hi, _GUARD_SAMPLES, axis=1)
    power = np.column_stack([roots, samples])
    _, lam, _, dist = _clipper_state(power, cfg)
    # rows of one user count stack as (rows, 33, K) blocks of at most
    # _BLOCK_ROWS rows, as evaluate rates them, which bounds each temporary
    rated = np.empty(power.shape)
    for block in _blocks([ues.n_users for ues in ues_rows]):
        beta = np.array([ues_rows[i].beta for i in block])[:, None]
        noise = np.array([ues_rows[i].noise_w for i in block])[:, None]
        omega = np.array(_pick(omega_rows, block))[:, None]
        rated[block] = _rate_rows(cfg, beta, noise, power[block], omega, states=(lam[block], dist[block]))[2]
    best_p, best_obj = roots, rated[:, 0]
    i_best = np.argmax(rated[:, 1:], axis=1)
    fired = np.flatnonzero(rated[np.arange(len(rows)), 1 + i_best] > best_obj)
    if fired.size:
        # a fired row starts from its best sample, rated with evaluate's bits
        best = i_best[fired]
        best_p[fired], best_obj[fired] = samples[fired, best], rated[fired, 1 + best]
        sub_lo = samples[fired, np.maximum(best - 1, 0)]
        sub_hi = samples[fired, np.minimum(best + 1, _GUARD_SAMPLES - 1)]
        sub_ues, sub_omega, sub_tables, sub_plans = (
            _pick(items, fired) for items in (ues_rows, omega_rows, tables, plans)
        )
        sub_roots, iterations[fired] = _walk(
            sub_lo, sub_hi, delta, sub_ues, sub_omega, cfg, sub_tables, guess=best_p[fired], plans=sub_plans
        )
        for i, sub_root in zip(fired, sub_roots.tolist()):
            obj = evaluate(cfg, ues_rows[i], Allocation(sub_root, omega_rows[i])).sum_rate
            if obj >= best_obj[i]:  # a tie goes to the re-walked root
                best_p[i], best_obj[i] = sub_root, obj

    # The residual reads each row's table at its power; a row whose power
    # is a guard sample no call evaluated gets one call.
    d_root = np.array([table.get(p, np.nan) for table, p in zip(tables, best_p.tolist())])
    fresh = [i for i, p in enumerate(best_p.tolist()) if p not in tables[i]]
    if fresh:
        fresh_p, picked = best_p[fresh, None], (_pick(items, fresh) for items in (ues_rows, omega_rows))
        d_root[fresh] = sum_rate_derivative(fresh_p, *picked, cfg, _plans=_pick(plans, fresh))[:, 0]
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
