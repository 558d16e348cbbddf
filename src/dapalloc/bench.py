"""Monte-Carlo experiment driver and statistics.

Runs the allocation strategies over many random user drops, collects
per-drop results, computes empirical survival functions (CCDF) and
quartile summaries, and serializes everything as diff-able CSV (17
significant digits) plus a JSON summary.

One loop serves every Monte-Carlo mode: a per-drop task builds the
drop once, solves every strategy, and rates each allocation under a
list of (config, precoder, csi) evaluators.  Solver failures become NaN
rows carrying the error; any other exception propagates.

Determinism: a drop is a pure function of (scenario seed, drop id), and
results are collected in drop order, so the output is byte-identical
for any worker count.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from dapalloc.allocator import ALGORITHMS
from dapalloc.dapa import SolverError
from dapalloc.metrics import SystemConfig, UeSet, evaluate
from dapalloc.numerics import ConvergenceError
from dapalloc.pa_model import RAPP, PaModel
from dapalloc.scenario import ScenarioConfig, drop_ues

__all__ = [
    "DropResult",
    "CcdfSeries",
    "run_montecarlo",
    "evaluate_rapp_mode",
    "evaluate_icsi_mode",
    "ccdf",
    "sweep_homogeneous",
    "grid_2ue",
    "summarize",
    "write_drop_results_csv",
    "write_table_csv",
    "write_summary_json",
]

logger = logging.getLogger(__name__)

DEFAULT_ALGORITHMS = ("DAPA-FPDA", "DAPA-E", "REF-FPDA", "REF-E")


@dataclass(frozen=True)
class DropResult:
    """One (drop, strategy) outcome.

    ``error`` is None for successful solves; failed solves carry the
    error message with NaN metrics so a run never dies on one drop.
    """

    drop_id: int
    algorithm: str
    sum_rate: float
    total_power_p: float
    ibo_db: float
    omega_max: float
    rates: np.ndarray
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm label {self.algorithm!r}")


@dataclass(frozen=True)
class CcdfSeries:
    """Empirical survival function: P(X > value) on the sample grid."""

    values: np.ndarray
    probabilities: np.ndarray
    label: str = ""


def _system_config(sc: ScenarioConfig, pa: Optional[PaModel] = None) -> SystemConfig:
    return SystemConfig(
        m_antennas=sc.m_antennas,
        n_users=sc.n_users,
        p_max=sc.p_max,
        bandwidth_hz=sc.bandwidth_hz,
        pa=pa if pa is not None else PaModel(),
    )


# How one allocation is rated: (config, precoder, csi).  ``csi`` None
# keeps the drop's own ``csi_delta``; an array replaces it.
_Evaluator = tuple[SystemConfig, str, Optional[np.ndarray]]


def _solve_and_rate(
    drop_id: int,
    ues: UeSet,
    cfg: SystemConfig,
    algorithms: Sequence[str],
    evaluators: Sequence[_Evaluator],
) -> list[list[DropResult]]:
    """Solve every strategy on one user set, rate it under every evaluator.

    Returns one result list per evaluator, in strategy order.  A solver
    failure gives the same NaN result in every list; any other error
    propagates.
    """
    views = [
        ues if csi is None else UeSet(beta=ues.beta, noise_w=ues.noise_w, csi_delta=csi)
        for _, _, csi in evaluators
    ]
    out: list[list[DropResult]] = [[] for _ in evaluators]
    for label in algorithms:
        try:
            alloc = ALGORITHMS[label](ues, cfg)
        except (SolverError, ConvergenceError) as exc:
            logger.warning("drop %d, %s failed: %s", drop_id, label, exc)
            nan = math.nan
            rates = np.full(ues.n_users, nan)
            failure = DropResult(drop_id, label, nan, nan, nan, nan, rates, str(exc))
            for results in out:
                results.append(failure)
            continue
        for results, view, (eval_cfg, precoder, _) in zip(out, views, evaluators):
            report = evaluate(eval_cfg, view, alloc, precoder=precoder)
            results.append(
                DropResult(
                    drop_id=drop_id,
                    algorithm=label,
                    sum_rate=report.sum_rate,
                    total_power_p=alloc.total_power_p,
                    ibo_db=report.ibo_db,
                    omega_max=float(np.max(alloc.omega)),
                    rates=report.rate,
                )
            )
    return out


def _drop_task(
    drop_id: int,
    sc: ScenarioConfig,
    algorithms: Sequence[str],
    evaluators: Sequence[_Evaluator],
) -> list[list[DropResult]]:
    """Build one drop, then solve and rate it."""
    ues = drop_ues(sc, drop_id)
    return _solve_and_rate(drop_id, ues, _system_config(sc), algorithms, evaluators)


def _map(task, items: list, workers: int) -> list:
    """``task`` over ``items`` in order, in a process pool if workers > 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, items))
    return [task(item) for item in items]


def _run(
    sc: ScenarioConfig,
    algorithms: Sequence[str],
    n_drops: int,
    workers: int,
    evaluators: Sequence[_Evaluator],
) -> list[list[DropResult]]:
    """The Monte-Carlo loop: one result list per evaluator, ordered by
    (drop, algorithm) regardless of the worker count."""
    for label in algorithms:
        if label not in ALGORITHMS:
            raise ValueError(f"unknown algorithm label {label!r}")
    if n_drops < 1:
        raise ValueError("n_drops must be >= 1")
    task = partial(
        _drop_task,
        sc=sc,
        algorithms=tuple(algorithms),
        evaluators=tuple(evaluators),
    )
    per_drop = _map(task, list(range(n_drops)), workers)
    return [[r for drop in per_drop for r in drop[i]] for i in range(len(evaluators))]


def run_montecarlo(
    sc: ScenarioConfig,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    n_drops: int = 1000,
    workers: int = 1,
) -> list[DropResult]:
    """Random drops -> allocations -> ideal-clipper evaluation.

    Returns n_drops * len(algorithms) results ordered by (drop,
    algorithm).  Individual solver failures are logged and recorded as
    NaN results; the run continues.
    """
    evaluators = [(_system_config(sc), "zf", None)]
    (results,) = _run(sc, algorithms, n_drops, workers, evaluators)
    return results


def evaluate_rapp_mode(
    sc: ScenarioConfig,
    n_drops: int,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    smoothness_p: float = 2.0,
    workers: int = 1,
) -> tuple[list[DropResult], list[DropResult]]:
    """Optimize for the ideal clipper, evaluate under both amplifier laws.

    Returns (clipper-evaluated, smooth-amplifier-evaluated) result lists
    over identical allocations, so any rate difference is purely the
    amplifier model.
    """
    cfg_rapp = _system_config(sc, PaModel(kind=RAPP, smoothness_p=smoothness_p))
    evaluators = [(_system_config(sc), "zf", None), (cfg_rapp, "zf", None)]
    soft, rapp = _run(sc, algorithms, n_drops, workers, evaluators)
    return soft, rapp


def evaluate_icsi_mode(
    sc: ScenarioConfig,
    n_drops: int,
    delta_policy: Union[float, str] = 0.1,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    workers: int = 1,
) -> tuple[list[DropResult], list[DropResult]]:
    """Optimize with perfect channel knowledge, evaluate with and
    without channel-estimation error.

    ``delta_policy`` is either a uniform error fraction in [0, 1) or
    the string ``"estimated"`` to use each drop's per-user fractions
    derived from the scenario's pilot parameters.
    """
    if isinstance(delta_policy, str):
        if delta_policy != "estimated":
            raise ValueError("delta_policy must be a float or 'estimated'")
        if sc.pilot_len is None:
            raise ValueError("'estimated' policy requires pilot parameters in the scenario")
        csi = None  # drop_ues already carries the estimated fractions
    elif not 0 <= float(delta_policy) < 1:
        raise ValueError("uniform csi error fraction must lie in [0, 1)")
    else:
        csi = np.full(sc.n_users, float(delta_policy))
    cfg = _system_config(sc)
    perfect, imperfect = _run(
        sc, algorithms, n_drops, workers, [(cfg, "zf", None), (cfg, "zf_icsi", csi)]
    )
    return perfect, imperfect


def ccdf(values: Sequence[float], label: str = "") -> CcdfSeries:
    """Empirical survival function of a sample.

    Sorted ascending; the probability attached to the i-th sorted value
    is the fraction of samples strictly above it, stepping from
    1 - 1/n down to 0.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("ccdf needs at least one value")
    probs = 1.0 - np.arange(1, arr.size + 1) / arr.size
    return CcdfSeries(values=arr, probabilities=probs, label=label)


def sweep_homogeneous(
    sc: ScenarioConfig,
    pl_db_grid: Sequence[float],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> list[dict]:
    """All-users-equal path-loss sweep: one row per grid value.

    Each row holds the path loss plus every strategy's sum rate and
    back-off at that path loss (NaN where the solver failed; the
    failure is logged under the grid index).
    """
    from dapalloc.scenario import homogeneous_sweep

    cfg = _system_config(sc)
    rows = []
    for index, (pl_db, ues) in enumerate(zip(pl_db_grid, homogeneous_sweep(pl_db_grid, sc))):
        (results,) = _solve_and_rate(index, ues, cfg, algorithms, [(cfg, "zf", None)])
        row: dict = {"pl_db": float(pl_db)}
        for r in results:
            row[f"{r.algorithm}_sum_rate"] = r.sum_rate
            row[f"{r.algorithm}_ibo_db"] = r.ibo_db
        rows.append(row)
    return rows


def _grid_cell(cell: tuple[float, float, UeSet], sc: ScenarioConfig) -> dict:
    from dapalloc.allocator import alternating_optimize, ref_e

    pl1_db, pl2_db, ues = cell
    cfg = _system_config(sc)
    row: dict = {"pl1_db": pl1_db, "pl2_db": pl2_db}
    try:
        alloc, _ = alternating_optimize(ues, cfg)
        report = evaluate(cfg, ues, alloc, precoder="zf")
        ref_report = evaluate(cfg, ues, ref_e(ues, cfg), precoder="zf")
        row["sum_rate_ratio_vs_ref_e"] = report.sum_rate / ref_report.sum_rate
        row["omega1"] = float(alloc.omega[0])
        row["ibo_db"] = report.ibo_db
    except (SolverError, ConvergenceError) as exc:
        logger.warning("2-user cell (%g, %g) dB failed: %s", pl1_db, pl2_db, exc)
        row["sum_rate_ratio_vs_ref_e"] = math.nan
        row["omega1"] = math.nan
        row["ibo_db"] = math.nan
    return row


def grid_2ue(
    sc: ScenarioConfig,
    grid: tuple[np.ndarray, list[list[UeSet]]],
    workers: int = 1,
) -> list[dict]:
    """Two-user path-loss grid: optimality gain, split, and back-off.

    ``grid`` is the (values, cells) pair from
    :func:`dapalloc.scenario.two_ue_grid`; each ``cells[i][j]`` is rated
    as built.  Each record compares the alternating optimizer against
    the fixed-back-off equal-split baseline on one (path loss 1, path
    loss 2) cell.
    """
    grid_db, cells = grid
    items = [
        (float(grid_db[i]), float(grid_db[j]), ues)
        for i, row in enumerate(cells)
        for j, ues in enumerate(row)
    ]
    return _map(partial(_grid_cell, sc=sc), items, workers)


def _quartiles(values: np.ndarray) -> dict:
    clean = values[np.isfinite(values)]
    if clean.size == 0:
        return {"n": 0, "median": math.nan, "q1": math.nan, "q3": math.nan}
    return {
        "n": int(clean.size),
        "median": float(np.median(clean)),
        "q1": float(np.percentile(clean, 25)),
        "q3": float(np.percentile(clean, 75)),
    }


def summarize(results: Sequence[DropResult]) -> dict:
    """Per-strategy medians/quartiles plus per-drop ratios vs REF-E."""
    labels = sorted({r.algorithm for r in results})
    summary: dict = {"algorithms": {}}
    by_label = {
        label: sorted(
            (r for r in results if r.algorithm == label), key=lambda r: r.drop_id
        )
        for label in labels
    }
    for label, rows in by_label.items():
        summary["algorithms"][label] = {
            "sum_rate": _quartiles(np.array([r.sum_rate for r in rows])),
            "ibo_db": _quartiles(np.array([r.ibo_db for r in rows])),
            "omega_max": _quartiles(np.array([r.omega_max for r in rows])),
            "failures": sum(1 for r in rows if r.error is not None),
        }
    if "REF-E" in by_label:
        ref = {r.drop_id: r.sum_rate for r in by_label["REF-E"]}
        for label, rows in by_label.items():
            if label == "REF-E":
                continue
            ratios = np.array(
                [
                    r.sum_rate / ref[r.drop_id]
                    for r in rows
                    if r.drop_id in ref and math.isfinite(r.sum_rate)
                ]
            )
            summary["algorithms"][label]["sum_rate_ratio_vs_ref_e"] = _quartiles(ratios)
    return summary


def write_drop_results_csv(results: Sequence[DropResult], path: str) -> None:
    """Per-drop CSV: metrics plus one rate column per user."""
    if not results:
        raise ValueError("no results to write")
    n_users = results[0].rates.size
    rate_cols = ",".join(f"rate_{i}" for i in range(n_users))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"drop_id,algorithm,sum_rate,total_power_p,ibo_db,omega_max,{rate_cols}\n"
        )
        for r in results:
            rates = ",".join(f"{v:.17g}" for v in r.rates)
            fh.write(
                f"{r.drop_id},{r.algorithm},{r.sum_rate:.17g},"
                f"{r.total_power_p:.17g},{r.ibo_db:.17g},{r.omega_max:.17g},{rates}\n"
            )


def write_table_csv(rows: Sequence[dict], path: str) -> None:
    """Write a list of uniform dict rows as CSV (17 significant digits)."""
    if not rows:
        raise ValueError("no rows to write")
    cols = list(rows[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for c in cols:
                v = row[c]
                cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")


def write_summary_json(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
