"""Finite-difference curvature probes of the two-user sum rate.

The sum rate as a function of the two per-user powers (p1, p2) is not
jointly concave: because the amplifier back-off depends on p1 + p2, the
objective mixes a concave rate term with the gain/distortion response.
This module measures that directly — no symbolic derivatives — with
central finite differences:

* gradient and 2x2 Hessian at a probe point,
* closed-form eigenvalues of the symmetric 2x2 Hessian,
* a Richardson-style consistency check at twice the step,
* a log-grid scan for points whose Hessian is indefinite (one negative,
  one positive eigenvalue), which certifies non-convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from dapalloc._fields import NONNEGATIVE, POSITIVE, check, require
from dapalloc.metrics import Allocation, SystemConfig, UeSet, _rate_rows, evaluate

__all__ = [
    "HessianProbe",
    "sum_rate_2ue",
    "hessian_eigs",
    "scan_grid",
    "find_indefinite_point",
    "reference_two_user_setup",
    "probes_to_csv",
]

_DEFAULT_STEP_FACTOR = 1e-4


@dataclass(frozen=True)
class HessianProbe:
    """Finite-difference curvature measurement at one (p1, p2) point.

    Attributes:
        p1, p2: probe point, watts.
        step: central-difference step, watts.
        eigenvalues: Hessian eigenvalues sorted ascending.
        gradient: (d/dp1, d/dp2) of the sum rate.
        mixed_rel_diff: relative disagreement of the two independent
            mixed-derivative stencils (diagnostic for step quality).
        flagged: True when the step failed the consistency check against
            a 2x-step evaluation (eigenvalue signs unstable or wildly
            different magnitudes) — treat the probe as unreliable.
    """

    p1: float
    p2: float
    step: float
    eigenvalues: tuple[float, float]
    gradient: tuple[float, float]
    mixed_rel_diff: float
    flagged: bool


def reference_two_user_setup() -> tuple[SystemConfig, UeSet]:
    """The fixed two-user configuration used by the indefiniteness demo.

    64 antennas, 10 mW saturation, 18 MHz bandwidth, one weak user
    (110 dB path loss) and one strong user (70 dB), with the noise power
    pinned at 5.97e-14 W.
    """
    cfg = SystemConfig(m_antennas=64, p_max=0.01, bandwidth_hz=18e6)
    ues = UeSet(
        beta=np.array([1e-11, 1e-7]),
        noise_w=np.array([5.97e-14, 5.97e-14]),
    )
    return cfg, ues


def sum_rate_2ue(p1: float, p2: float, cfg: SystemConfig, ues: UeSet) -> float:
    """Zero-forcing sum rate at per-user powers (p1, p2), in bit/s.

    Evaluated through the metrics module: total power p1 + p2 sets the
    amplifier operating point, the fractions set the per-user split.
    """
    check(locals(), p1=NONNEGATIVE, p2=NONNEGATIVE)
    if p1 + p2 <= 0:
        raise ValueError("need p1 + p2 > 0")
    total = p1 + p2
    alloc = Allocation(total, np.array([p1 / total, p2 / total]))
    return evaluate(cfg, ues, alloc, precoder="zf").sum_rate


def _eig_2x2(h11: float, h22: float, h12: float) -> tuple[float, float]:
    mean = 0.5 * (h11 + h22)
    radius = math.hypot(0.5 * (h11 - h22), h12)
    return (mean - radius, mean + radius)


# Stencil point offsets in steps, in the order _raw_probe reads their values.
_STENCIL = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))


def _raw_probe(
    values: list[float], h: float
) -> tuple[tuple[float, float], tuple[float, float], float]:
    """One central-difference pass on the sum rates at the ``_STENCIL``
    points of step h: (eigenvalues, gradient, mixed-diff)."""
    f00, fp0, fm0, f0p, f0m, fpp, fmm, fpm, fmp = values

    h11 = (fp0 - 2.0 * f00 + fm0) / (h * h)
    h22 = (f0p - 2.0 * f00 + f0m) / (h * h)
    # Mixed derivative, two independent stencils:
    h12_cross = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    h12_diag = (fpp + fmm - 2.0 * f00) / (2.0 * h * h) - 0.5 * (h11 + h22)
    scale = max(abs(h12_cross), abs(h12_diag), 1e-300)
    mixed_rel = abs(h12_cross - h12_diag) / scale

    grad = ((fp0 - fm0) / (2.0 * h), (f0p - f0m) / (2.0 * h))
    return _eig_2x2(h11, h22, h12_cross), grad, mixed_rel


def _probes(
    points: list[tuple[float, float]], steps: list[float], cfg: SystemConfig, ues: UeSet
) -> list[HessianProbe]:
    """One :class:`HessianProbe` per point and step.

    The stencils of every probe, at its step and at twice it, are rated
    as one array block with no :class:`Allocation`: each point's powers
    are formed, summed and split in :func:`sum_rate_2ue`'s order, so each
    sum rate is bitwise its :func:`sum_rate_2ue` call.
    """
    if ues.n_users != 2:
        raise ValueError("curvature probes are defined for the 2-user problem")
    h = np.array(steps)[:, None]
    w = np.repeat(np.hstack([h, 2.0 * h]), len(_STENCIL), axis=1)
    a1, a2 = np.array(_STENCIL * 2, dtype=np.float64).T
    base = np.array(points)[:, :, None]
    q1, q2 = base[:, 0] + a1 * w, base[:, 1] + a2 * w
    total = q1 + q2
    omega = np.stack([q1 / total, q2 / total], axis=-1)
    _, _, rates = _rate_rows(cfg, ues.beta, ues.noise_w, total, omega)
    per_probe = rates.reshape(len(points), 2, len(_STENCIL)).tolist()
    probes = []
    for (p1, p2), step, (fine, wide) in zip(points, steps, per_probe):
        eigs, grad, mixed_rel = _raw_probe(fine, step)
        eigs_wide, _, _ = _raw_probe(wide, 2.0 * step)

        signs_stable = all((a < 0) == (b < 0) for a, b in zip(eigs, eigs_wide))
        # Richardson: central differences have O(h^2) truncation error, so
        # the 2x-step eigenvalues should differ by roughly 4x that error.
        mags_consistent = all(
            abs(a - b) <= 0.5 * max(abs(a), abs(b)) or max(abs(a), abs(b)) == 0.0
            for a, b in zip(eigs, eigs_wide)
        )
        flagged = not (signs_stable and mags_consistent)
        probes.append(HessianProbe(p1, p2, step, eigs, grad, mixed_rel, flagged))
    return probes


def hessian_eigs(
    probe_point: tuple[float, float],
    cfg: SystemConfig,
    ues: UeSet,
    step: Optional[float] = None,
) -> HessianProbe:
    """Finite-difference Hessian eigenvalues of the 2-user sum rate.

    ``step`` defaults to 1e-4 * (p1 + p2).  Central differences need
    p_i > 2 * step so that all stencil points stay strictly positive;
    smaller coordinates raise ValueError.  A second evaluation at twice
    the step flags probes whose eigenvalue signs or magnitudes are
    step-dependent (e.g. step below the rounding floor of the rate).
    """
    if np.shape(probe_point) != (2,):
        raise ValueError("probe_point must be a pair (p1, p2)")
    for coordinate in probe_point:  # each checked as one number
        require("probe_point", coordinate, POSITIVE)
    p1, p2 = float(probe_point[0]), float(probe_point[1])
    if step is None:
        step = _DEFAULT_STEP_FACTOR * (p1 + p2)
    require("step", step, POSITIVE)
    if p1 <= 2.0 * step or p2 <= 2.0 * step:
        raise ValueError("probe point too close to the axes for this step")
    (probe,) = _probes([(p1, p2)], [step], cfg, ues)
    return probe


def _grid_probes(
    cfg: SystemConfig, ues: UeSet, n_points: int, p_min: float, p_max: float
) -> Iterator[list[HessianProbe]]:
    """The probes of :func:`scan_grid`, one list per grid row of p1.

    Each row is rated in one array block, so that the witness search
    can stop after the row that holds its witness.
    """
    check(locals(), n_points=1, p_min=POSITIVE, p_max=POSITIVE)
    grid = np.geomspace(p_min, p_max, n_points).tolist()
    for p1 in grid:
        points, steps = [], []
        for p2 in grid:
            step = _DEFAULT_STEP_FACTOR * (p1 + p2)
            if p1 > 2.0 * step and p2 > 2.0 * step:
                points.append((p1, p2))
                steps.append(step)
        if points:
            yield _probes(points, steps, cfg, ues)


def scan_grid(
    cfg: SystemConfig,
    ues: UeSet,
    n_points: int = 40,
    p_min: float = 1e-6,
    p_max: float = 1.0,
) -> list[HessianProbe]:
    """Probe the Hessian on an n x n log grid over [p_min, p_max]^2.

    Grid points too close to the axes for the default step (coordinate
    ratio below ~2e-4) are skipped.
    """
    return [probe for row in _grid_probes(cfg, ues, n_points, p_min, p_max) for probe in row]


def find_indefinite_point(
    cfg: SystemConfig,
    ues: UeSet,
    n_points: int = 40,
    p_min: float = 1e-6,
    p_max: float = 1.0,
) -> Optional[HessianProbe]:
    """First unflagged grid probe with one negative and one positive
    eigenvalue whose sign pattern survives halving the step.

    Returns None when the scan finds no such point (which would mean the
    objective looked concave on the whole grid).  The scan stops after
    the grid row that holds the witness.
    """
    rows = _grid_probes(cfg, ues, n_points, p_min, p_max)
    return _first_witness((probe for row in rows for probe in row), cfg, ues)


def _first_witness(
    probes: Iterable[HessianProbe], cfg: SystemConfig, ues: UeSet
) -> Optional[HessianProbe]:
    """The first of ``probes`` that :func:`find_indefinite_point` accepts,
    or None; the probes are read only up to it."""
    for probe in probes:
        if probe.flagged:
            continue
        lo, hi = probe.eigenvalues
        if lo < 0.0 < hi:
            halved = hessian_eigs((probe.p1, probe.p2), cfg, ues, step=0.5 * probe.step)
            if (not halved.flagged) and halved.eigenvalues[0] < 0.0 < halved.eigenvalues[1]:
                return probe
    return None


def probes_to_csv(probes: list[HessianProbe], path: str) -> None:
    """Write a probe table (one row per grid point) as CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "p1,p2,step,eig_min,eig_max,grad_p1,grad_p2,mixed_rel_diff,flagged\n"
        )
        for pr in probes:
            fh.write(
                f"{pr.p1:.17g},{pr.p2:.17g},{pr.step:.17g},"
                f"{pr.eigenvalues[0]:.17g},{pr.eigenvalues[1]:.17g},"
                f"{pr.gradient[0]:.17g},{pr.gradient[1]:.17g},"
                f"{pr.mixed_rel_diff:.17g},{int(pr.flagged)}\n"
            )
