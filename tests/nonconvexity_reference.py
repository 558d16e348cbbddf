"""One-probe-at-a-time curvature scan that the tests compare against.

:mod:`dapalloc.nonconvexity` rates a whole grid row of stencils in one
``evaluate`` call; the functions here are the plain form it must match
bit for bit: one :func:`~dapalloc.nonconvexity.sum_rate_2ue` call per
stencil point, one probe at a time, in row order.
"""

import numpy as np

from dapalloc.nonconvexity import HessianProbe, _eig_2x2, sum_rate_2ue


def raw_probe(f, p1, p2, h):
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
    h12_cross = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    h12_diag = (fpp + fmm - 2.0 * f00) / (2.0 * h * h) - 0.5 * (h11 + h22)
    scale = max(abs(h12_cross), abs(h12_diag), 1e-300)
    mixed_rel = abs(h12_cross - h12_diag) / scale

    grad = ((fp0 - fm0) / (2.0 * h), (f0p - f0m) / (2.0 * h))
    return _eig_2x2(h11, h22, h12_cross), grad, mixed_rel


def hessian_eigs(probe_point, cfg, ues, step=None):
    """The probe at ``probe_point``: steps h and 2h, 18 scalar sum rates."""
    p1, p2 = float(probe_point[0]), float(probe_point[1])
    if step is None:
        step = 1e-4 * (p1 + p2)

    def f(a, b):
        return sum_rate_2ue(a, b, cfg, ues)

    eigs, grad, mixed_rel = raw_probe(f, p1, p2, step)
    eigs_wide, _, _ = raw_probe(f, p1, p2, 2.0 * step)
    signs_stable = all((a < 0) == (b < 0) for a, b in zip(eigs, eigs_wide))
    mags_consistent = all(
        abs(a - b) <= 0.5 * max(abs(a), abs(b)) or max(abs(a), abs(b)) == 0.0
        for a, b in zip(eigs, eigs_wide)
    )
    flagged = not (signs_stable and mags_consistent)
    return HessianProbe(p1, p2, step, eigs, grad, mixed_rel, flagged)


def grid_probes(cfg, ues, n_points, p_min, p_max):
    """The grid probes, made one at a time in row order."""
    grid = np.geomspace(p_min, p_max, n_points)
    for p1 in grid:
        for p2 in grid:
            step = 1e-4 * (p1 + p2)
            if p1 <= 2.0 * step or p2 <= 2.0 * step:
                continue
            yield hessian_eigs((float(p1), float(p2)), cfg, ues)


def find_indefinite_point(probes, cfg, ues):
    """First unflagged indefinite probe of ``probes`` that stays so at half step."""
    for probe in probes:
        if probe.flagged:
            continue
        if probe.eigenvalues[0] < 0.0 < probe.eigenvalues[1]:
            halved = hessian_eigs((probe.p1, probe.p2), cfg, ues, step=0.5 * probe.step)
            if not halved.flagged and halved.eigenvalues[0] < 0.0 < halved.eigenvalues[1]:
                return probe
    return None
