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
from typing import Iterator, Optional

import numpy as np

from dapalloc.metrics import Allocation, SystemConfig, UeSet, evaluate
from dapalloc.pa_model import PaModel

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
    cfg = SystemConfig(
        m_antennas=64,
        n_users=2,
        p_max=0.01,
        bandwidth_hz=18e6,
        eta=2.0 / 3.0,
        pa=PaModel(),
    )
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
    if p1 < 0 or p2 < 0 or p1 + p2 <= 0:
        raise ValueError("need p1, p2 >= 0 with p1 + p2 > 0")
    total = p1 + p2
    alloc = Allocation(total, np.array([p1 / total, p2 / total]))
    return evaluate(cfg, ues, alloc, precoder="zf").sum_rate


def _eig_2x2(h11: float, h22: float, h12: float) -> tuple[float, float]:
    mean = 0.5 * (h11 + h22)
    radius = math.hypot(0.5 * (h11 - h22), h12)
    return (mean - radius, mean + radius)


def _raw_probe(
    f, p1: float, p2: float, h: float
) -> tuple[tuple[float, float], tuple[float, float], float]:
    """One central-difference pass: (eigenvalues, gradient, mixed-diff)."""
    f00 = f(p1, p2)
    fp0 = f(p1 + h, p2)
    fm0 = f(p1 - h, p2)
    f0p = f(p1, p2 + h)
    f0m = f(p1, p2 - h)
    fpp = f(p1 + h, p2 + h)
    fmm = f(p1 - h, p2 - h)
    fpm = f(p1 + h, p2 - h)
    fmp = f(p1 - h, p2 + h)

    h11 = (fp0 - 2.0 * f00 + fm0) / (h * h)
    h22 = (f0p - 2.0 * f00 + f0m) / (h * h)
    # Mixed derivative, two independent stencils:
    h12_cross = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    h12_diag = (fpp + fmm - 2.0 * f00) / (2.0 * h * h) - 0.5 * (h11 + h22)
    scale = max(abs(h12_cross), abs(h12_diag), 1e-300)
    mixed_rel = abs(h12_cross - h12_diag) / scale

    grad = ((fp0 - fm0) / (2.0 * h), (f0p - f0m) / (2.0 * h))
    return _eig_2x2(h11, h22, h12_cross), grad, mixed_rel


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
    p1, p2 = float(probe_point[0]), float(probe_point[1])
    if ues.n_users != 2 or cfg.n_users != 2:
        raise ValueError("curvature probes are defined for the 2-user problem")
    if step is None:
        step = _DEFAULT_STEP_FACTOR * (p1 + p2)
    if step <= 0:
        raise ValueError("step must be positive")
    if p1 <= 2.0 * step or p2 <= 2.0 * step:
        raise ValueError("probe point too close to the axes for this step")

    def f(a: float, b: float) -> float:
        return sum_rate_2ue(a, b, cfg, ues)

    eigs, grad, mixed_rel = _raw_probe(f, p1, p2, step)
    eigs_wide, _, _ = _raw_probe(f, p1, p2, 2.0 * step)

    signs_stable = all(
        (a < 0) == (b < 0)
        for a, b in zip(eigs, eigs_wide)
    )
    # Richardson: central differences have O(h^2) truncation error, so
    # the 2x-step eigenvalues should differ by roughly 4x that error.
    mags_consistent = all(
        abs(a - b) <= 0.5 * max(abs(a), abs(b)) or max(abs(a), abs(b)) == 0.0
        for a, b in zip(eigs, eigs_wide)
    )
    return HessianProbe(
        p1=p1,
        p2=p2,
        step=step,
        eigenvalues=eigs,
        gradient=grad,
        mixed_rel_diff=mixed_rel,
        flagged=not (signs_stable and mags_consistent),
    )


def _grid_probes(
    cfg: SystemConfig, ues: UeSet, n_points: int, p_min: float, p_max: float
) -> Iterator[HessianProbe]:
    """The probes of :func:`scan_grid`, made one at a time in row order."""
    grid = np.geomspace(p_min, p_max, n_points)
    for p1 in grid:
        for p2 in grid:
            step = _DEFAULT_STEP_FACTOR * (p1 + p2)
            if p1 <= 2.0 * step or p2 <= 2.0 * step:
                continue
            yield hessian_eigs((float(p1), float(p2)), cfg, ues)


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
    return list(_grid_probes(cfg, ues, n_points, p_min, p_max))


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
    objective looked concave on the whole grid).
    """
    for probe in _grid_probes(cfg, ues, n_points, p_min, p_max):
        if probe.flagged:
            continue
        lo, hi = probe.eigenvalues
        if lo < 0.0 < hi:
            halved = hessian_eigs(
                (probe.p1, probe.p2), cfg, ues, step=0.5 * probe.step
            )
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
