"""The three benchmark workloads, each a closed loop of batches.

A batch is one call into the public API at the paper's shape plus the
result files it writes.  Batch 0 always uses the fixed reference inputs
(the shapes and seeds of the acceptance checks), so its result files
hash to one digest per commit; later batches draw their inputs from the
workload seed.  Every batch carries the output checks for its own
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dapalloc import bench, linklevel, nonconvexity
from dapalloc.scenario import ScenarioConfig

REFERENCE_SEED = 2024
LADDER_SLACK = 1e-9  # c07
RAPP_SLACK = 1e-12  # c10
SDR_GATE_DB = 1.0  # c02
LADDER = (("DAPA-FPDA", "DAPA-E"), ("DAPA-FPDA", "REF-FPDA"), ("REF-FPDA", "REF-E"))


@dataclass
class Batch:
    """What one batch did: work units, operations, files and checks."""

    units: int
    attempted: int
    failed: int
    files: list[Path]
    checks: list[tuple[str, bool, str]]
    values: dict[str, list[float]] = field(default_factory=dict)
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    host_speed: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    shape: dict
    tiny_shape: dict
    batch: Callable[[dict, int, int, Path], Batch]
    calibrate: bool  # divide throughput by the host speed (calibration.py)

    def run(self, shape: dict, seed: int, index: int, out_dir: Path) -> Batch:
        """Run batch ``index`` at ``shape``, writing its result files to ``out_dir``."""
        out_dir.mkdir(parents=True, exist_ok=True)
        return self.batch(shape, seed, index, out_dir)


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _scenario_seed(seed: int, index: int) -> int:
    if index == 0:
        return REFERENCE_SEED
    return int(_batch_rng(seed, index).integers(0, 2**63))


def _scenario(shape: dict, seed: int, index: int) -> ScenarioConfig:
    return ScenarioConfig(
        n_users=shape["n_users"],
        m_antennas=shape["m_antennas"],
        p_max=shape["p_max"],
        cell_radius_m=shape["cell_radius_m"],
        seed=_scenario_seed(seed, index),
    )


def _write_per_algorithm(results, prefix: str, out_dir: Path) -> list[Path]:
    files = []
    for label in sorted({r.algorithm for r in results}):
        path = out_dir / f"{prefix}_{label}.csv"
        bench.write_drop_results_csv([r for r in results if r.algorithm == label], str(path))
        files.append(path)
    return files


def _by_drop(results) -> dict[int, dict[str, float]]:
    table: dict[int, dict[str, float]] = {}
    for r in results:
        table.setdefault(r.drop_id, {})[r.algorithm] = r.sum_rate
    return table


def _mc_k60(shape: dict, seed: int, index: int, out_dir: Path) -> Batch:
    sc = _scenario(shape, seed, index)
    # Solve once, evaluate under the ideal clipper and the Rapp law (the
    # c10 experiment at the c06 shape); the clipper half is run_montecarlo.
    soft, rapp = bench.evaluate_rapp_mode(
        sc, shape["drops"], bench.DEFAULT_ALGORITHMS, smoothness_p=shape["smoothness_p"]
    )
    bench.summarize(soft)
    bench.summarize(rapp)
    files = _write_per_algorithm(soft, "montecarlo", out_dir)
    files += _write_per_algorithm(rapp, "montecarlo_rapp", out_dir)

    by_drop = _by_drop(soft)
    slack = {
        f"drop {drop_id} {better} vs {worse}": (rate[worse] - rate[better]) / rate[worse]
        for drop_id, rate in by_drop.items()
        for better, worse in LADDER
    }
    worst = max(slack, key=slack.get)
    ladder_ok = all(s <= LADDER_SLACK for s in slack.values())  # a NaN fails too
    above = [
        f"drop {s.drop_id} {s.algorithm}"
        for s, r in zip(soft, rapp)
        if not r.sum_rate <= s.sum_rate * (1.0 + RAPP_SLACK)
    ]
    return Batch(
        units=shape["drops"],
        attempted=len(soft) + len(rapp),
        failed=sum(r.error is not None for r in soft + rapp),
        files=files,
        checks=[
            ("c07-dominance-ladder", ladder_ok, f"worst slack {slack[worst]:.3e} at {worst}"),
            ("c10-rapp-below-clipper", not above, f"violated on {above[:3]}"),
        ],
        values={"gain": [rate["DAPA-FPDA"] / rate["REF-E"] for rate in by_drop.values()]},
    )


def _linklevel_sdr(shape: dict, seed: int, index: int, out_dir: Path) -> Batch:
    n_configs = len(shape["n_users"])
    if index == 0:
        seeds = [REFERENCE_SEED] * n_configs
    else:
        seeds = _batch_rng(seed, index).integers(0, 2**63, size=n_configs).tolist()
    points = []
    for n_users, point_seed in zip(shape["n_users"], seeds):
        cfg = linklevel.LinkSimConfig(
            m_antennas=shape["m_antennas"],
            n_users=n_users,
            ibo_grid_db=shape["ibo_grid_db"],
            fft_size=shape["fft_size"],
            n_used_subcarriers=shape["n_used_subcarriers"],
            cp_len=shape["cp_len"],
            precoder="zf",
            n_symbols=shape["n_symbols"],
            seed=point_seed,
        )
        points += linklevel.simulate_sdr(cfg)
    path = out_dir / "linklevel.csv"
    linklevel.write_sdr_csv(points, str(path))

    errors = [abs(p.sdr_meas_db - p.sdr_analytic_db) for p in points]
    finite = all(math.isfinite(p.sdr_meas_db) for p in points)
    checks = [("sdr-finite", finite, "a measured SDR is not finite")]
    if index == 0:
        # c02 gates the reference sweep: it is pinned to seed 2024.
        worst = max(errors)
        checks.append(("c02-sdr-within-1db", worst <= SDR_GATE_DB, f"worst error {worst:.4f} dB"))
    return Batch(
        units=len(points),
        attempted=len(points),
        failed=0,
        files=[path],
        checks=checks,
        values={"sdr_err_db": errors},
    )


def _curvature_scan(shape: dict, seed: int, index: int, out_dir: Path) -> Batch:
    p_min, p_max = shape["p_min"], shape["p_max"]
    if index > 0:
        u, v = _batch_rng(seed, index).random(2)
        p_min *= 10.0 ** (shape["jitter_decades"] * u)
        p_max *= 10.0 ** (-shape["jitter_decades"] * v)
    cfg, ues = nonconvexity.reference_two_user_setup()
    n_points = shape["n_points"]
    probes = nonconvexity.scan_grid(cfg, ues, n_points, p_min, p_max)
    path = out_dir / "hessian_probes.csv"
    nonconvexity.probes_to_csv(probes, str(path))
    witness = nonconvexity.find_indefinite_point(cfg, ues, n_points, p_min, p_max)
    found = (
        witness is not None
        and not witness.flagged
        and witness.eigenvalues[0] < 0.0 < witness.eigenvalues[1]
    )
    return Batch(
        units=len(probes),
        attempted=len(probes),
        failed=0,
        files=[path],
        checks=[("c11-indefinite-witness", found, f"grid [{p_min:.3e}, {p_max:.3e}]")],
    )


_MC_SHAPE = {"n_users": 60, "m_antennas": 64, "p_max": 0.1, "cell_radius_m": 2000.0}
_MC_TINY = {"n_users": 4, "m_antennas": 8, "p_max": 0.1, "cell_radius_m": 2000.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-k60",
            unit="drop",
            shape={**_MC_SHAPE, "drops": 4, "smoothness_p": 2.0},
            tiny_shape={**_MC_TINY, "drops": 2, "smoothness_p": 2.0},
            batch=_mc_k60,
            calibrate=True,
        ),
        Workload(
            name="linklevel-sdr",
            unit="point",
            shape={
                "m_antennas": 64,
                "n_users": (1, 4),
                "fft_size": 512,
                "n_used_subcarriers": 100,
                "cp_len": 32,
                "n_symbols": 200,
                "ibo_grid_db": (-2.0, 0.0, 2.0, 4.0, 6.0, 8.0),
            },
            tiny_shape={
                "m_antennas": 64,
                "n_users": (2, 4),
                "fft_size": 128,
                "n_used_subcarriers": 32,
                "cp_len": 8,
                "n_symbols": 24,
                "ibo_grid_db": (0.0, 4.0),
            },
            batch=_linklevel_sdr,
            calibrate=False,
        ),
        Workload(
            name="curvature-scan",
            unit="probe",
            shape={"n_points": 40, "p_min": 1e-6, "p_max": 1.0, "jitter_decades": 0.5},
            tiny_shape={"n_points": 6, "p_min": 1e-6, "p_max": 1.0, "jitter_decades": 0.5},
            batch=_curvature_scan,
            calibrate=True,
        ),
    )
}
