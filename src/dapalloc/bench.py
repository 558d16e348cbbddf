"""Monte-Carlo experiment driver and statistics.

Runs the allocation strategies over many random user drops, collects
per-drop results, computes empirical survival functions (CCDF) and
quartile summaries, and serializes everything as diff-able CSV (17
significant digits) plus a JSON summary.

One runner serves every run -- the Monte-Carlo modes, the homogeneous
sweep and the two-user grid.  It checks the strategy labels, the set
count and ``workers >= 1``, cuts the user sets into one contiguous span
per worker (the whole run when ``workers`` is 1), and hands each span to
one task.  The task builds its span's sets (the drops from the
scenario, or a slice of the sweep's points or the grid's cells), solves
every strategy on the whole span in lockstep, and rates the span's
allocations under each of a list of (config, precoder, csi) evaluators
in one chunked ``evaluate`` call.  That call runs the Rapp law once per
distinct total power: REF-E and REF-FPDA share one power over every
drop, so a span of n drops runs the Rapp law at most 2n + 1 times, not
4n.  A row that a strategy returns as an error (a solver failure)
becomes a NaN row carrying it, logged in set order once every span is
back; an exception that a strategy raises propagates.

Determinism: a drop is a pure function of (scenario seed, drop id),
each row of a lockstep solve or a chunked rating is bitwise its own
one-set call, and results are collected in drop order, so the output
is byte-identical for any worker count and any chunking.
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

from dapalloc._fields import ERROR_FRACTION, REAL, require
from dapalloc.allocator import ALGORITHMS
from dapalloc.metrics import SystemConfig, UeSet, evaluate
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
    omega: np.ndarray
    rates: np.ndarray
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm label {self.algorithm!r}")

    @property
    def omega_max(self) -> float:
        return float(np.max(self.omega))


@dataclass(frozen=True)
class CcdfSeries:
    """Empirical survival function: P(X > value) on the sample grid."""

    values: np.ndarray
    probabilities: np.ndarray
    label: str = ""


def _system_config(sc: ScenarioConfig, pa: Optional[PaModel] = None) -> SystemConfig:
    return SystemConfig(
        m_antennas=sc.m_antennas,
        p_max=sc.p_max,
        bandwidth_hz=sc.bandwidth_hz,
        pa=pa if pa is not None else PaModel(),
    )


# How one allocation is rated: (config, precoder, csi).  ``csi`` None
# keeps the drop's own ``csi_delta``; an array replaces it.
_Evaluator = tuple[SystemConfig, str, Optional[np.ndarray]]


def _solve_and_rate(
    ids: range,
    chunk: Optional[Sequence[UeSet]],
    sc: ScenarioConfig,
    algorithms: Sequence[str],
    evaluators: Sequence[_Evaluator],
) -> list[list[DropResult]]:
    """Solve every strategy on the user sets ``ids``, rate each allocation
    under every evaluator.

    The sets are ``chunk`` when given, else the drops ``ids`` of ``sc``,
    built here.  Each strategy solves the whole chunk in lockstep, and
    each evaluator rates every allocation of the chunk in one
    :func:`~dapalloc.metrics.evaluate` call.  Returns one result list per
    evaluator, ordered by (set, strategy), each result carrying its set's
    id.  A row that a strategy returns as an error gives the same NaN
    result in every list; an exception that a strategy raises propagates.
    """
    if chunk is None:
        chunk = [drop_ues(sc, drop_id) for drop_id in ids]
    cfg = _system_config(sc)
    outcomes = {label: ALGORITHMS[label](chunk, cfg) for label in algorithms}
    # (set id, set, strategy, allocation or error) in (set, strategy) order
    pairs = [
        (set_id, ues, label, outcomes[label][row])
        for row, (set_id, ues) in enumerate(zip(ids, chunk, strict=True))
        for label in algorithms
    ]
    solved = [(ues, alloc) for _, ues, _, alloc in pairs if not isinstance(alloc, Exception)]
    out: list[list[DropResult]] = []
    for eval_cfg, precoder, csi in evaluators:
        views = [
            ues if csi is None else UeSet(beta=ues.beta, noise_w=ues.noise_w, csi_delta=csi)
            for ues, _ in solved
        ]
        reports = iter(evaluate(eval_cfg, views, [alloc for _, alloc in solved], precoder))
        results = []
        for set_id, ues, label, alloc in pairs:
            if isinstance(alloc, Exception):
                nan = math.nan
                unknown = np.full(ues.n_users, nan)
                results.append(DropResult(set_id, label, nan, nan, nan, unknown, unknown, str(alloc)))
            else:
                report = next(reports)
                power, omega = alloc.total_power_p, alloc.omega
                results.append(
                    DropResult(set_id, label, report.sum_rate, power, report.ibo_db, omega, report.rate)
                )
        out.append(results)
    return out


def _run(
    sc: ScenarioConfig,
    sets: Union[int, list[UeSet]],
    algorithms: Sequence[str],
    evaluators: Sequence[_Evaluator],
    workers: int = 1,
    unit: str = "drop",
) -> list[list[DropResult]]:
    """Every run: one result list per evaluator, ordered by (set, strategy)
    for any worker count.

    ``sets`` is a number of Monte-Carlo drops of ``sc``, or a list of
    prebuilt user sets (sweep points, grid cells).  The sets are cut into
    one contiguous span per worker, sizes within one, and each span is
    built and solved in one task, in a process pool if workers > 1.
    Each solver failure is logged under ``unit`` and its set's id once
    every span is back, so the log is in (set, strategy) order.
    """
    # a str would read as five labels and a dict as its keys
    is_str_list = isinstance(algorithms, (list, tuple)) and all(isinstance(a, str) for a in algorithms)
    if not is_str_list or not algorithms:
        raise ValueError("algorithms must be a non-empty sequence of strategy labels")
    for i, label in enumerate(algorithms):
        if label not in ALGORITHMS:
            raise ValueError(f"unknown algorithm label {label!r}")
        if label in algorithms[:i]:  # every result row would be written twice
            raise ValueError(f"algorithms lists {label!r} twice")
    if not isinstance(sets, list):
        require("n_drops", sets, 1)
    elif not sets:
        raise ValueError(f"need at least one {unit}")
    n_sets, prebuilt = (len(sets), sets) if isinstance(sets, list) else (sets, None)
    require("workers", workers, 1)
    n_spans = min(n_sets, workers)
    spans = [range(n_sets * i // n_spans, n_sets * (i + 1) // n_spans) for i in range(n_spans)]
    chunks = [None if prebuilt is None else prebuilt[span.start:span.stop] for span in spans]
    task = partial(_solve_and_rate, sc=sc, algorithms=tuple(algorithms), evaluators=tuple(evaluators))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_span = list(pool.map(task, spans, chunks))
    else:
        per_span = list(map(task, spans, chunks))
    out = [[r for span in per_span for r in span[i]] for i in range(len(evaluators))]
    for r in out[0]:
        if r.error is not None:
            logger.warning("%s %d, %s failed: %s", unit, r.drop_id, r.algorithm, r.error)
    return out


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
    (results,) = _run(sc, n_drops, algorithms, evaluators, workers)
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
    soft, rapp = _run(sc, n_drops, algorithms, evaluators, workers)
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
    if np.ndim(delta_policy):  # one fraction for every user; an array's == would be elementwise
        raise ValueError("delta_policy must be a number or 'estimated'")
    if delta_policy == "estimated":
        if sc.pilot_len is None:
            raise ValueError("'estimated' policy requires pilot parameters in the scenario")
        csi = None  # drop_ues already carries the estimated fractions
    else:
        require("delta_policy", delta_policy, ERROR_FRACTION)
        csi = np.full(sc.n_users, float(delta_policy))
    cfg = _system_config(sc)
    perfect, imperfect = _run(
        sc, n_drops, algorithms, [(cfg, "zf", None), (cfg, "zf_icsi", csi)], workers
    )
    return perfect, imperfect


def ccdf(values: Sequence[float], label: str = "") -> CcdfSeries:
    """Empirical survival function of a sample.

    Sorted ascending; the probability attached to the i-th sorted value
    is the fraction of samples strictly above it, stepping from
    1 - 1/n down to 0.
    """
    require("values", values, REAL)
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
    failure is logged as that sweep point).
    """
    from dapalloc.scenario import homogeneous_sweep

    sets = homogeneous_sweep(pl_db_grid, sc)
    evaluators = [(_system_config(sc), "zf", None)]
    (results,) = _run(sc, sets, algorithms, evaluators, unit="sweep point")
    rows = []
    for index, pl_db in enumerate(pl_db_grid):
        row: dict = {"pl_db": float(pl_db)}
        for r in results[index * len(algorithms):(index + 1) * len(algorithms)]:
            row[f"{r.algorithm}_sum_rate"] = r.sum_rate
            row[f"{r.algorithm}_ibo_db"] = r.ibo_db
        rows.append(row)
    return rows


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
    loss 2) cell; a failed solve gives NaN entries, logged under the
    cell's row-major index.
    """
    grid_db, cells = grid
    path_loss = [
        (float(grid_db[i]), float(grid_db[j])) for i, row in enumerate(cells) for j in range(len(row))
    ]
    sets = [ues for row in cells for ues in row]
    algorithms = ("DAPA-FPDA", "REF-E")
    evaluators = [(_system_config(sc), "zf", None)]
    (results,) = _run(sc, sets, algorithms, evaluators, workers, "grid cell")
    return [
        {
            "pl1_db": pl1_db,
            "pl2_db": pl2_db,
            "sum_rate_ratio_vs_ref_e": opt.sum_rate / ref.sum_rate,
            "omega1": float(opt.omega[0]),
            "ibo_db": opt.ibo_db,
        }
        for (pl1_db, pl2_db), opt, ref in zip(path_loss, results[0::2], results[1::2], strict=True)
    ]


def _quartiles(arrays: list) -> list[dict]:
    """Count, median and quartiles of each array's finite values.  Arrays
    with as many finite values share one numpy call per statistic, whose
    rows have the bits of 1-D calls."""
    clean = [values[np.isfinite(values)] for values in arrays]
    out = [{"n": 0, "median": math.nan, "q1": math.nan, "q3": math.nan}] * len(clean)
    for size in {values.size for values in clean} - {0}:
        rows = [i for i, values in enumerate(clean) if values.size == size]
        stack = np.array([clean[i] for i in rows])
        stats = zip(np.median(stack, axis=1).tolist(), *np.percentile(stack, [25, 75], axis=1).tolist())
        for i, (median, q1, q3) in zip(rows, stats):
            out[i] = {"n": size, "median": median, "q1": q1, "q3": q3}
    return out


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
    # (label, key, values) of every statistic, rated in one _quartiles call
    stats = []
    for label, rows in by_label.items():
        summary["algorithms"][label] = {"failures": sum(1 for r in rows if r.error is not None)}
        for key in ("sum_rate", "ibo_db", "omega_max"):
            stats.append((label, key, np.array([getattr(r, key) for r in rows])))
    if "REF-E" in by_label:
        # a drop whose REF-E rate is not positive has no ratio, as a NaN ratio has none
        ref = {r.drop_id: r.sum_rate for r in by_label["REF-E"] if r.sum_rate > 0.0}
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
            stats.append((label, "sum_rate_ratio_vs_ref_e", ratios))
    for (label, key, _), quartiles in zip(stats, _quartiles([values for _, _, values in stats])):
        summary["algorithms"][label][key] = quartiles
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
            rates = ",".join(map("{:.17g}".format, r.rates.tolist()))
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
