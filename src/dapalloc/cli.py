"""Command-line front end.

Subcommands
-----------
solve
    One user set from a JSON config -> allocation JSON on stdout.
sweep-homogeneous
    Equal-path-loss sweep; one CSV per strategy plus a summary JSON.
grid-2ue
    Two-user path-loss grid; CSV of per-cell ratio/split/back-off.
montecarlo
    Random-drop benchmark (optionally re-evaluated under the smooth
    amplifier law or under channel-estimation error); one CSV per
    strategy plus a summary JSON.
linklevel
    Time-domain OFDM simulation; measured-vs-analytic SDR CSV.
hessian-check
    Curvature probes of the two-user sum rate; CSV plus a summary
    locating an indefinite point.

All commands exit 0 on success.  Any failure prints a single-line
machine-readable JSON object ``{"error": {...}}`` on stdout and exits
nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from typing import Optional

import numpy as np

from dapalloc._fields import POSITIVE, REAL, U64, require

__all__ = ["main"]

_EXIT_ERROR = 2


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    return cfg


def _reject_unknown(cfg: dict, known: str) -> None:
    unknown = set(cfg) - set(known.split())
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")


def _number_from(cfg: dict, key: str, default, kind):
    """``cfg[key]``, or ``default``, of ``kind`` (see :mod:`dapalloc._fields`)."""
    value = cfg.get(key, default)
    require(key, value, kind)
    return value


def _numbers_from(cfg: dict, key: str) -> np.ndarray:
    """``cfg[key]``, a number or a list of them, as a float array.  A bool
    or string fails by name here; a float conversion reads true as 1.0."""
    value = cfg[key]
    if isinstance(value, list):
        for entry in value:
            require(f"{key} entries", entry, REAL)
    else:
        require(key, value, REAL)
    return np.asarray(value, dtype=np.float64)


def _scenario_from(cfg: dict, seed: Optional[int]):
    from dapalloc.scenario import ScenarioConfig

    sc = ScenarioConfig.from_dict(cfg.get("scenario", {}))
    if seed is not None:
        sc = dataclasses.replace(sc, seed=seed)
    return sc


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# ---------------------------------------------------------------------------
# solve


def _ue_set_from(cfg: dict):
    from dapalloc.metrics import UeSet

    if "beta" in cfg and "pl_db" in cfg:
        raise ValueError("give either 'beta' or 'pl_db', not both")
    if "beta" in cfg:
        beta = _numbers_from(cfg, "beta")
    elif "pl_db" in cfg:
        beta = 10.0 ** (-_numbers_from(cfg, "pl_db") / 10.0)
    else:
        raise ValueError("config needs a 'beta' or 'pl_db' array")
    if "noise_w" not in cfg:
        raise ValueError("config needs 'noise_w' (scalar watts or per-user array)")
    return UeSet(beta=beta, noise_w=_numbers_from(cfg, "noise_w"))


def _cmd_solve(args: argparse.Namespace) -> int:
    from dapalloc.allocator import ALGORITHMS
    from dapalloc.bench import write_summary_json
    from dapalloc.metrics import SystemConfig, evaluate

    cfg = _load_config(args.config)
    if args.config is None:
        raise ValueError("solve requires --config")
    _reject_unknown(cfg, "m_antennas p_max bandwidth_hz beta pl_db noise_w algorithm")
    ues = _ue_set_from(cfg)
    sys_cfg = SystemConfig(
        m_antennas=cfg["m_antennas"], p_max=cfg["p_max"], bandwidth_hz=cfg["bandwidth_hz"]
    )
    label = cfg.get("algorithm", "DAPA-FPDA")
    if not isinstance(label, str) or label not in ALGORITHMS:  # a list is unhashable
        raise ValueError(f"unknown algorithm label {label!r}")
    alloc = ALGORITHMS[label](ues, sys_cfg)
    report = evaluate(sys_cfg, ues, alloc, precoder="zf")
    payload = {
        "algorithm": label,
        "total_power_p": alloc.total_power_p,
        "omega": alloc.omega.tolist(),
        "per_user_power": alloc.per_user_power.tolist(),
        "ibo_db": report.ibo_db,
        "sindr": report.sindr.tolist(),
        "rates": report.rate.tolist(),
        "sum_rate": report.sum_rate,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        write_summary_json(payload, _out_path(args.out, "solve.json"))
    return 0


# ---------------------------------------------------------------------------
# sweep-homogeneous


def _cmd_sweep_homogeneous(args: argparse.Namespace) -> int:
    from dapalloc.bench import DEFAULT_ALGORITHMS, sweep_homogeneous
    from dapalloc.bench import write_summary_json, write_table_csv

    cfg = _load_config(args.config)
    _reject_unknown(cfg, "scenario pl_db_grid algorithms")
    sc = _scenario_from(cfg, args.seed)
    grid = cfg.get("pl_db_grid")
    if grid is None:
        grid = np.arange(80.0, 130.0 + 1e-9, 2.5).tolist()
    elif not isinstance(grid, list):  # a str is iterable too: "95" would read as two entries
        raise ValueError("pl_db_grid must be a list of numbers")
    algorithms = cfg.get("algorithms", DEFAULT_ALGORITHMS)
    rows = sweep_homogeneous(sc, grid, algorithms)
    for label in algorithms:
        per_alg = [
            {
                "pl_db": row["pl_db"],
                "sum_rate": row[f"{label}_sum_rate"],
                "ibo_db": row[f"{label}_ibo_db"],
            }
            for row in rows
        ]
        write_table_csv(per_alg, _out_path(args.out, f"sweep_homogeneous_{label}.csv"))
    write_summary_json(
        {"scenario": sc.to_dict(), "pl_db_grid": list(map(float, grid)),
         "algorithms": list(algorithms)},
        _out_path(args.out, "sweep_homogeneous_summary.json"),
    )
    print(f"wrote {len(algorithms)} CSV file(s) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# grid-2ue


def _cmd_grid_2ue(args: argparse.Namespace) -> int:
    from dapalloc.bench import grid_2ue, write_summary_json, write_table_csv
    from dapalloc.scenario import two_ue_grid

    cfg = _load_config(args.config)
    _reject_unknown(cfg, "scenario pl_lo_db pl_hi_db pl_step_db")
    sc = _scenario_from(cfg, args.seed)
    lo = float(_number_from(cfg, "pl_lo_db", 60.0, REAL))
    hi = float(_number_from(cfg, "pl_hi_db", 150.0, REAL))
    step = float(_number_from(cfg, "pl_step_db", 5.0, POSITIVE))
    grid = two_ue_grid(lo, hi, step, sc)
    rows = grid_2ue(sc, grid, args.workers)
    write_table_csv(rows, _out_path(args.out, "grid_2ue.csv"))
    write_summary_json(
        {"scenario": sc.to_dict(), "pl_lo_db": lo, "pl_hi_db": hi,
         "pl_step_db": step, "n_cells": len(rows)},
        _out_path(args.out, "grid_2ue_summary.json"),
    )
    print(f"wrote grid_2ue.csv ({len(rows)} cells) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# montecarlo


def _split_by_algorithm(results):
    labels = sorted({r.algorithm for r in results})
    return {label: [r for r in results if r.algorithm == label] for label in labels}


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from dapalloc import bench

    cfg = _load_config(args.config)
    mode = cfg.get("mode", "plain")
    # each mode's own key, accepted in that mode only
    mode_keys = {"plain": "", "rapp": "smoothness_p", "icsi": "csi_delta"}
    if not isinstance(mode, str) or mode not in mode_keys:
        raise ValueError(f"unknown mode {mode!r}; expected plain, rapp, or icsi")
    _reject_unknown(cfg, "scenario n_drops algorithms mode " + mode_keys[mode])
    sc = _scenario_from(cfg, args.seed)
    n_drops = _number_from(cfg, "n_drops", 1000, 1)
    algorithms = cfg.get("algorithms", bench.DEFAULT_ALGORITHMS)

    if mode == "plain":
        results = bench.run_montecarlo(sc, algorithms, n_drops, args.workers)
        paired: dict = {"montecarlo": results}
    elif mode == "rapp":
        soft, rapp = bench.evaluate_rapp_mode(
            sc, n_drops, algorithms,
            smoothness_p=cfg.get("smoothness_p", 2.0),
            workers=args.workers,
        )
        paired = {"montecarlo": soft, "montecarlo_rapp": rapp}
    else:
        policy = cfg.get("csi_delta", 0.1)
        perfect, icsi = bench.evaluate_icsi_mode(
            sc, n_drops, policy, algorithms, args.workers
        )
        paired = {"montecarlo": perfect, "montecarlo_icsi": icsi}

    n_files = 0
    summary: dict = {"scenario": sc.to_dict(), "n_drops": n_drops, "mode": mode}
    for experiment, results in paired.items():
        for label, rows in _split_by_algorithm(results).items():
            bench.write_drop_results_csv(
                rows, _out_path(args.out, f"{experiment}_{label}.csv")
            )
            n_files += 1
        summary[experiment] = bench.summarize(results)
    bench.write_summary_json(summary, _out_path(args.out, "montecarlo_summary.json"))
    print(f"wrote {n_files} CSV file(s) and montecarlo_summary.json to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# linklevel


def _cmd_linklevel(args: argparse.Namespace) -> int:
    from dapalloc.linklevel import LinkSimConfig, simulate_sdr, write_sdr_csv

    # the keys are LinkSimConfig's fields, which rejects any other
    params = _load_config(args.config)
    if args.seed is not None:
        params["seed"] = args.seed
    try:
        sim_cfg = LinkSimConfig(**params)
    except TypeError as exc:
        raise ValueError(f"bad linklevel config: {exc}") from exc
    points = simulate_sdr(sim_cfg)
    write_sdr_csv(points, _out_path(args.out, "linklevel.csv"))
    worst = max(abs(p.sdr_meas_db - p.sdr_analytic_db) if p.sdr_meas_db != p.sdr_analytic_db
                else 0.0 for p in points)  # two +inf SDRs are 0 dB apart, not inf - inf = nan
    print(
        f"wrote linklevel.csv ({len(points)} points) to {args.out}; "
        f"worst |measured - analytic| = {worst:.3f} dB"
    )
    return 0


# ---------------------------------------------------------------------------
# hessian-check


def _cmd_hessian_check(args: argparse.Namespace) -> int:
    from dapalloc.bench import write_summary_json
    from dapalloc.nonconvexity import (
        _first_witness,
        probes_to_csv,
        reference_two_user_setup,
        scan_grid,
    )

    cfg = _load_config(args.config)
    _reject_unknown(cfg, "n_points")
    n_points = _number_from(cfg, "n_points", 40, 1)
    sys_cfg, ues = reference_two_user_setup()
    probes = scan_grid(sys_cfg, ues, n_points=n_points)
    probes_to_csv(probes, _out_path(args.out, "hessian_probes.csv"))
    # the witness search of find_indefinite_point, on the probes just written
    witness = _first_witness(probes, sys_cfg, ues)
    summary: dict = {"n_probes": len(probes), "indefinite_found": witness is not None}
    if witness is not None:
        summary["witness"] = {
            "p1": witness.p1,
            "p2": witness.p2,
            "step": witness.step,
            "eigenvalues": list(witness.eigenvalues),
        }
    write_summary_json(summary, _out_path(args.out, "hessian_summary.json"))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dapalloc",
        description="Distortion-aware downlink power allocation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "config": dict(type=str, default=None, help="JSON config file"),
        "seed": dict(type=int, default=None, help="override scenario seed"),
        "out": dict(type=str, default=".", help="output directory"),
        "workers": dict(type=int, default=1, help="worker processes"),
    }
    # Each subcommand takes exactly the flags its handler reads.
    commands = {
        "solve": (_cmd_solve, "config out"),
        "sweep-homogeneous": (_cmd_sweep_homogeneous, "config seed out"),
        "grid-2ue": (_cmd_grid_2ue, "config seed out workers"),
        "montecarlo": (_cmd_montecarlo, "config seed out workers"),
        "linklevel": (_cmd_linklevel, "config seed out"),
        "hessian-check": (_cmd_hessian_check, "config out"),
    }
    for name, (handler, names) in commands.items():
        p = sub.add_parser(name)
        for flag in names.split():
            p.add_argument(f"--{flag}", **flags[flag])
        p.set_defaults(handler=handler)
    # solve prints its allocation; it writes solve.json only when --out is given
    sub.choices["solve"].set_defaults(out=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:  # before the handler, which may fail on its config first
            require("seed", args.seed, U64)
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns errors into JSON
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
