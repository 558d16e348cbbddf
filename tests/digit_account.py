"""Digit account of a source tree: its results, bit for bit, and how far
they moved from another tree's.

    python tests/digit_account.py [--parent PATH]

The tree is the checkout holding this script; to account another checkout,
run that checkout's copy of the script.  For the tree it prints one SHA-256
line per source of results:

* ``digest <workload>``: the reference batch (batch 0, full shape) of each
  ``perfbench`` workload, hashed as ``perfbench/run.py`` hashes it: for each
  result file in name order, its name, a NUL byte, then its bytes;
* ``c07``: c07's 500 instances (``test_acceptance._random_instances`` at
  seed 20240819, one chunk per config, in first-seen order), hashed the
  same way over the two files below.  The instances come from the
  ``tests/test_acceptance.py`` beside this script, run against each tree's
  ``src/``, so both trees solve the same inputs; a parent whose ``src/``
  lacks a name that file imports cannot be accounted;
* ``c02``: every ``LinkSdrPoint`` field of the c02 reference sweep, the
  ``linklevel-sdr`` workload's reference batch (its shape, ZF, seed 2024
  for each user count), hashed the same way over the file below.  The
  workload's CSV leaves out ``per_antenna_power``, the clip diagnostics,
  ``mean_tx_power_per_antenna`` and ``bussgang_gain_err``;
* ``montecarlo <mode> workers=<n>``: the files ``dapalloc montecarlo``
  writes (20 users, M = 64, ``p_max`` 0.1 W, 24 drops, seed 31) in the
  plain, rapp (``smoothness_p`` 2) and icsi (``csi_delta`` 0.1) modes,
  with ``--workers`` 1 and 2, hashed the same way.

c07's byte layout: two UTF-8 CSV files with a header line, ``\\n`` line
ends, floats as Python ``repr`` (the shortest string that reads back to
the same double), and an empty cell where a row has no value.

* ``c07_results.csv``: ``chunk,row,delta,mode,total_power_p,bracket_lo,
  bracket_hi,iterations,derivative_residual,sum_rate,error``; one line per
  equal-split ``solve_dapa`` of every row, for each ``delta`` in order
  (``default``: 1e-6 M p_max, ``1e-30``, ``1e9``, ``1e-3Mp``: 1e-3 M p_max)
  and each ``mode`` in order (``chunk``: one call per chunk, ``set``: one
  call per row); ``error`` is ``<type>: <message>`` of a row's error.
* ``c07_iterates.csv``: ``chunk,row,round,user,total_power_p,fraction,
  sum_rate,error``; one line per user of every iterate of
  ``allocator._ao_rows`` on each chunk at its default ``delta``, the
  iterate's power and sum rate repeated on each of its users' lines; a
  row that raised has one line with ``round`` and ``user`` empty.

c02's byte layout: one CSV file, ``c02_points.csv``, in the same form
(a header line, ``\\n`` line ends, floats as ``repr``).  Its columns are
``LinkSdrPoint``'s fields in declaration order, with ``per_antenna_power``
spread over one cell per antenna, ``per_antenna_power_0`` to
``per_antenna_power_<M-1>``; one line per point, the user counts in the
workload's order and each sweep in grid order.

With ``--parent PATH`` it also runs the parent tree and prints, for each
table (a result file kind) and column, how many cells moved and the
largest relative move |tree - parent| / |parent| (``inf`` where the parent
has 0) and the largest absolute move.  Rows are matched by
their key columns (``chunk``, ``row``, ``delta``, ``mode``, ``round``,
``user``, ``drop_id``, ``algorithm``) where a file has them, else by line;
columns ``rate_<i>`` are folded into ``rate_*``; a JSON summary is one
column of its numeric leaves.  A text cell that differs, or a row only one
tree has, counts as moved by ``inf``.

Each tree runs in its own process, with this script's ``tests/`` first on
the path, then the tree's ``src/`` and ``perfbench/``, and BLAS pinned to
one thread, as ``perfbench/run.py`` pins it.  ``--dump DIR`` is that
process: it writes the tree's result files under DIR.  A tree takes about
12 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KEY_COLUMNS = ("chunk", "row", "delta", "mode", "round", "user", "drop_id", "algorithm")
MONTECARLO = {
    "plain": {},
    "rapp": {"mode": "rapp", "smoothness_p": 2.0},
    "icsi": {"mode": "icsi", "csi_delta": 0.1},
}
MC_SCENARIO = {"scenario": {"n_users": 20, "m_antennas": 64, "p_max": 0.1}, "n_drops": 24}
MC_SEED = 31


def _digest(directory: Path) -> str:
    """SHA-256 over the files of ``directory`` in name order: name, NUL, bytes."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cell(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(x) for x in row) + "\n")


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")


# --- the tree's side: runs with this tests/, then the tree's src/ and perfbench/, on the path


def _dump_workloads(out: Path) -> None:
    from workloads import REFERENCE_SEED, WORKLOADS

    for name, workload in sorted(WORKLOADS.items()):
        batch = workload.run(workload.shape, REFERENCE_SEED, 0, out / name)
        if sorted(batch.files) != sorted((out / name).iterdir()):
            raise RuntimeError(f"{name} wrote files that are not its result files")


def _dump_c07(out: Path) -> None:
    import numpy as np
    from test_acceptance import _by_config, _random_instances

    from dapalloc import allocator
    from dapalloc.dapa import DapaResult, SolverError, solve_dapa
    from dapalloc.numerics import ConvergenceError

    fields = list(DapaResult.__dataclass_fields__)
    results, iterates = [], []
    chunks = _by_config(_random_instances(np.random.default_rng(20240819), 500))
    for c, (cfg, chunk) in enumerate(chunks):
        omega = [np.full(ues.n_users, 1.0 / ues.n_users) for ues in chunk]
        m_p = cfg.m_antennas * cfg.p_max
        deltas = {"default": 1e-6 * m_p, "1e-30": 1e-30, "1e9": 1e9, "1e-3Mp": 1e-3 * m_p}
        for label, delta in deltas.items():
            chunked = solve_dapa(chunk, omega, cfg, delta)
            one_set = []
            for ues, w in zip(chunk, omega):
                try:
                    one_set.append(solve_dapa(ues, w, cfg, delta))
                except (SolverError, ConvergenceError) as exc:  # the errors a chunk row holds
                    one_set.append(exc)
            for mode, outcomes in (("chunk", chunked), ("set", one_set)):
                for r, outcome in enumerate(outcomes):
                    if isinstance(outcome, Exception):
                        values = [""] * len(fields) + [_error(outcome)]
                    else:
                        values = [getattr(outcome, f) for f in fields] + [""]
                    results.append([c, r, label, mode, *values])
        for r, outcome in enumerate(allocator._ao_rows(chunk, cfg)):
            if isinstance(outcome, Exception):
                iterates.append([c, r, "", "", "", "", "", _error(outcome)])
                continue
            for n, (power, fractions, rate) in enumerate(outcome[1].iterates):
                for u, fraction in enumerate(fractions.tolist()):
                    iterates.append([c, r, n, u, power, fraction, rate, ""])
    (out / "c07").mkdir(parents=True)
    _write_csv(out / "c07" / "c07_results.csv", ["chunk", "row", "delta", "mode", *fields, "error"], results)
    _write_csv(
        out / "c07" / "c07_iterates.csv",
        ["chunk", "row", "round", "user", "total_power_p", "fraction", "sum_rate", "error"],
        iterates,
    )


def _dump_c02(out: Path) -> None:
    import dataclasses

    from workloads import REFERENCE_SEED, WORKLOADS

    from dapalloc.linklevel import LinkSdrPoint, LinkSimConfig, simulate_sdr

    shape = WORKLOADS["linklevel-sdr"].shape
    sizes = {key: shape[key] for key in ("m_antennas", "fft_size", "n_used_subcarriers", "cp_len", "n_symbols")}
    fields = [f.name for f in dataclasses.fields(LinkSdrPoint)]
    antennas = [f"per_antenna_power_{i}" for i in range(shape["m_antennas"])]
    header = [column for name in fields for column in (antennas if name == "per_antenna_power" else [name])]
    rows = []
    for n_users in shape["n_users"]:
        cfg = LinkSimConfig(n_users=n_users, ibo_grid_db=shape["ibo_grid_db"], precoder="zf",
                            seed=REFERENCE_SEED, **sizes)
        for point in simulate_sdr(cfg):
            rows.append([cell for name in fields
                         for cell in (point.per_antenna_power.tolist() if name == "per_antenna_power"
                                      else [getattr(point, name)])])
    (out / "c02").mkdir(parents=True)
    _write_csv(out / "c02" / "c02_points.csv", header, rows)


def _dump_montecarlo(out: Path) -> None:
    for mode, extra in MONTECARLO.items():
        config = out / f"montecarlo-{mode}.json"
        config.write_text(json.dumps({**MC_SCENARIO, **extra}))
        for workers in (1, 2):
            target = out / f"montecarlo-{mode}-workers{workers}"
            command = [sys.executable, "-m", "dapalloc.cli", "montecarlo", "--config", str(config),
                       "--seed", str(MC_SEED), "--out", str(target), "--workers", str(workers)]
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        config.unlink()


def _dump(out: Path) -> None:
    _dump_workloads(out)
    _dump_c07(out)
    _dump_c02(out)
    _dump_montecarlo(out)


# --- the account's side


def _run_tree(tree: Path, out: Path) -> dict[str, str]:
    """Dump ``tree``'s results under ``out``; (label, digest) of each source."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), str(tree / "perfbench"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(out)],
                   env=env, cwd=tree, check=True)
    digests = {}
    for directory in sorted(out.iterdir()):
        name = directory.name
        if name.startswith("montecarlo-"):
            mode, workers = name[len("montecarlo-"):].split("-workers")
            label = f"montecarlo {mode} workers={workers}"
        else:
            label = name if name in ("c02", "c07") else f"digest {name}"
        digests[label] = _digest(directory)
    return digests


def _table(path: Path) -> dict[tuple, dict[str, str]]:
    """{row key: {column: cell}} of a CSV file, or of a JSON file's numeric leaves."""
    if path.suffix == ".json":
        leaves = {}

        def walk(node, key):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, f"{key}/{k}")
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(v, f"{key}/{i}")
            else:
                leaves[(key,)] = {"summary": str(node)}

        walk(json.loads(path.read_text()), "")
        return leaves
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    keys = [k for k in KEY_COLUMNS if rows and k in rows[0]]
    return {tuple(row[k] for k in keys) if keys else (i,): row for i, row in enumerate(rows)}


def _move(ours, theirs) -> tuple[float, float]:
    """(relative, absolute) move of one cell: 0 if it did not move, inf for
    text or a cell only one tree has."""
    if ours == theirs:
        return 0.0, 0.0
    try:
        a, b = float(ours), float(theirs)
    except (TypeError, ValueError):
        return math.inf, math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    return (abs(a - b) / abs(b) if b else math.inf), abs(a - b)


def _moves(tree_out: Path, parent_out: Path) -> list[tuple]:
    """(table, column, moved cells, cells, largest relative and absolute move)
    of every column."""
    stats: dict[tuple[str, str], list] = {}
    files = {p.relative_to(out) for out in (tree_out, parent_out) for p in out.glob("*/*")}
    for name in sorted(files):
        table = f"{name.parent}/" + re.sub(r"_(DAPA-FPDA|DAPA-E|REF-FPDA|REF-E)\.csv$", "_*.csv", name.name)
        ours, theirs = (_table(out / name) if (out / name).exists() else {} for out in (tree_out, parent_out))
        for key in theirs.keys() | ours.keys():
            mine, old = ours.get(key, {}), theirs.get(key, {})
            for column in mine.keys() | old.keys():
                if column in KEY_COLUMNS:
                    continue
                rel, diff = _move(mine.get(column), old.get(column))
                entry = stats.setdefault((table, re.sub(r"_\d+$", "_*", column)), [0, 0, 0.0, 0.0])
                entry[0] += rel > 0.0
                entry[1] += 1
                entry[2], entry[3] = max(entry[2], rel), max(entry[3], diff)
    return [(table, column, *entry) for (table, column), entry in sorted(stats.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, default=None)
    parser.add_argument("--dump", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump is not None:
        _dump(args.dump)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"tree": HERE.parent}
        if args.parent is not None:
            trees["parent"] = args.parent.resolve()
        digests = {side: _run_tree(path, Path(tmp) / side) for side, path in trees.items()}
        for label, digest in digests["tree"].items():
            print(f"{label} {digest}")
        if args.parent is None:
            return 0
        print("# tree against parent: table column moved/cells largest-relative-move largest-absolute-move")
        for label, digest in digests["parent"].items():
            same = "same" if digests["tree"].get(label) == digest else "differs"
            print(f"# parent {label} {digest} ({same})")
        for table, column, moved, cells, rel, diff in _moves(Path(tmp) / "tree", Path(tmp) / "parent"):
            print(f"{table} {column} {moved}/{cells} {rel:.3g} {diff:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
