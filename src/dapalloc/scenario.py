"""Cell geometry, path loss, noise, and deterministic user placement.

The simulated deployment is a circular cell: users drop uniformly over
the disk area between a configurable minimum distance and the cell
radius, the log-distance path-loss law maps distance to channel gain,
and the thermal noise floor follows from the occupied bandwidth.

Randomness is counter-based: each user's distance is produced by a
Philox generator keyed by ``(seed, drop_id)`` with the user index as
counter, so any drop (and any user within a drop) can be generated
independently, in any order, on any number of workers, with bit-identical
results.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from dapalloc._fields import POSITIVE, REAL, check, require
from dapalloc.metrics import UeSet, csi_error_factor

__all__ = [
    "ScenarioConfig",
    "path_loss_db",
    "noise_power_w",
    "drop_ues",
    "homogeneous_sweep",
    "two_ue_grid",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Deployment and waveform parameters for scenario generation.

    Attributes:
        n_users: users per drop (K).
        m_antennas: base-station antennas (M).
        p_max: per-antenna amplifier saturation power, watts.
        cell_radius_m: cell radius in meters.
        min_distance_m: smallest allowed user distance in meters (the
            log-distance law diverges at 0; 10 m is the default guard).
        fc_ghz: carrier frequency in GHz (3.0 and 3.5 are the presets
            used by the shipped experiment configs).
        n_subcarriers: occupied subcarrier count.
        delta_f_hz: subcarrier spacing in Hz.
        seed: 64-bit master seed; all randomness derives from it.
        pilot_len: optional uplink pilot length; when set together with
            rho_ul_w, each generated user carries a channel-estimation
            error fraction.
        rho_ul_w: optional uplink pilot power in watts.
    """

    n_users: int
    m_antennas: int
    p_max: float
    cell_radius_m: float = 2000.0
    min_distance_m: float = 10.0
    fc_ghz: float = 3.0
    n_subcarriers: int = 1200
    delta_f_hz: float = 15e3
    seed: int = 0
    pilot_len: Optional[int] = None
    rho_ul_w: Optional[float] = None

    def __post_init__(self) -> None:
        check(self, n_users=1, m_antennas=1, p_max=POSITIVE, cell_radius_m=POSITIVE,
              min_distance_m=POSITIVE, fc_ghz=POSITIVE, n_subcarriers=1, delta_f_hz=POSITIVE,
              seed=0, pilot_len=1, rho_ul_w=POSITIVE)
        if self.m_antennas <= self.n_users:
            raise ValueError("need 1 <= n_users < m_antennas")
        if self.min_distance_m >= self.cell_radius_m:
            raise ValueError("need 0 < min_distance_m < cell_radius_m")
        if self.seed >= 2**64:
            raise ValueError("seed must fit in 64 bits")
        if (self.pilot_len is None) != (self.rho_ul_w is None):
            raise ValueError("pilot_len and rho_ul_w must be set together")

    @property
    def bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.delta_f_hz

    @property
    def noise_w(self) -> float:
        return noise_power_w(self.n_subcarriers, self.delta_f_hz)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**data)


def path_loss_db(d_m, fc_ghz: float):
    """Log-distance path loss 22.7 + 36.7*log10(d) + 26*log10(fc) in dB.

    ``d_m`` in meters (scalar or array, each >= 1 -- the model is not
    defined closer in), ``fc_ghz`` in GHz.  The linear channel gain is
    ``beta = 10**(-PL/10)``.
    """
    check(locals(), d_m=POSITIVE, fc_ghz=POSITIVE)
    d = np.asarray(d_m, dtype=np.float64)
    if np.any(d < 1.0):
        raise ValueError("path-loss model requires distance >= 1 m")
    out = 22.7 + 36.7 * np.log10(d) + 26.0 * np.log10(fc_ghz)
    return float(out) if np.ndim(d_m) == 0 else out


def noise_power_w(n_subcarriers: int, delta_f_hz: float) -> float:
    """Thermal noise power over the occupied bandwidth, in watts.

    -174 dBm/Hz + 10*log10(n_subcarriers * delta_f), converted to watts.
    """
    check(locals(), n_subcarriers=1, delta_f_hz=POSITIVE)
    dbm = -174.0 + 10.0 * math.log10(n_subcarriers * delta_f_hz)
    return 10.0 ** ((dbm - 30.0) / 10.0)


def drop_ues(sc: ScenarioConfig, drop_id: int) -> UeSet:
    """Generate one random drop of users.

    Distances are area-uniform over the cell (clipped below at the
    minimum distance), gains follow the path-loss law, and every user
    sees the same thermal noise.  When pilot parameters are configured,
    each user also carries its channel-estimation error fraction.
    Deterministic in (seed, drop_id): the same pair always produces the
    same UeSet, regardless of generation order or worker count.
    """
    require("drop_id", drop_id, 0)
    if drop_id >= 2**64:
        raise ValueError("drop_id must fit in 64 bits")
    # Generator identity (fixed for reproducibility): numpy Philox keyed
    # with (seed, drop_id); user k takes the first draw from the counter
    # (0, 0, 0, k).  That draw leaves the counter at (1, 0, 0, k), and
    # advancing by 2^192 - 1 carries it to (0, 0, 0, k + 1) and empties
    # the output buffer, so one generator serves every user of the drop.
    bits = np.random.Philox(key=np.array([sc.seed, drop_id], dtype=np.uint64))
    draw = np.random.Generator(bits)
    u = np.empty(sc.n_users)
    for k in range(sc.n_users):
        if k:
            bits.advance(2**192 - 1)
        u[k] = draw.random()
    # area-uniform: d^2 uniform on [min^2, radius^2]
    lo = sc.min_distance_m**2
    hi = sc.cell_radius_m**2
    d = np.sqrt(lo + u * (hi - lo))
    beta = 10.0 ** (-path_loss_db(d, sc.fc_ghz) / 10.0)
    noise = np.full(sc.n_users, sc.noise_w)
    delta = None
    if sc.pilot_len is not None:
        delta = csi_error_factor(beta, sc.pilot_len, sc.rho_ul_w)
    return UeSet(beta=beta, noise_w=noise, csi_delta=delta)


def homogeneous_sweep(pl_db_grid: Sequence[float], sc: ScenarioConfig) -> list[UeSet]:
    """One UeSet per grid value, all users at the same path loss."""
    out = []
    for pl in pl_db_grid:
        require("pl_db_grid entries", pl, REAL)
        beta = np.full(sc.n_users, 10.0 ** (-float(pl) / 10.0))
        out.append(UeSet(beta=beta, noise_w=np.full(sc.n_users, sc.noise_w)))
    return out


def two_ue_grid(
    lo_db: float, hi_db: float, step_db: float, sc: ScenarioConfig
) -> tuple[np.ndarray, list[list[UeSet]]]:
    """All (path loss 1, path loss 2) combinations on a square dB grid.

    Returns the grid values and a nested list ``cells[i][j]`` holding the
    two-user set at (grid[i], grid[j]).  The grid is symmetric: swapping
    the users maps cell (i, j) to (j, i).  A grid of more than 10^6 cells
    (1,000 levels per axis) is rejected before any cell is built.
    """
    if sc.n_users != 2:
        raise ValueError("two_ue_grid requires a 2-user scenario config")
    check(locals(), lo_db=REAL, hi_db=REAL, step_db=POSITIVE)  # before int(round(...)) below
    if hi_db < lo_db:
        raise ValueError("need hi_db >= lo_db")
    require("(hi_db - lo_db) / step_db", (hi_db - lo_db) / step_db, REAL)  # hi_db - lo_db may overflow
    n = int(round((hi_db - lo_db) / step_db)) + 1
    if n > 1000:  # 10^6 cells
        raise ValueError(f"the grid would have {n * n:,} cells, more than 1,000,000")
    grid = lo_db + step_db * np.arange(n)
    noise = np.full(2, sc.noise_w)
    cells: list[list[UeSet]] = []
    for pl1 in grid:
        row = []
        for pl2 in grid:
            beta = np.array([10.0 ** (-pl1 / 10.0), 10.0 ** (-pl2 / 10.0)])
            row.append(UeSet(beta=beta, noise_w=noise))
        cells.append(row)
    return grid, cells
