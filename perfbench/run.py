"""dapalloc benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload mc-k60 --seed 2024 --seconds 35 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; without it the run exits with code 2 and prints no
result.  Each workload is a closed loop with one caller: the next batch
starts when the previous one returns.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs each batch untraced and then
traced, and reports the per-layer metrics.  Every run checks its
outputs, hashes the result files of the reference batch (one digest per
commit) and writes a run record under ``.perfbench_out/``.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
COLD_START = Path(__file__).resolve().parent / "cold_start.py"
# One process on at most 2 cores: BLAS/OpenMP pools are pinned to one
# thread, which also keeps reductions, and so the digests, reproducible.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# Host-speed samples: the first one, and after each batch a tenth of the
# batch's CPU time, at least CALIBRATE_MIN_S.
CALIBRATE_FIRST_S = 0.5
CALIBRATE_SHARE = 0.1
CALIBRATE_MIN_S = 0.05
END_TO_END = {"setup_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB"}
UNIT_RATE_NAMES = {"drop": "drops_per_s", "point": "points_per_s", "probe": "probes_per_s"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny shapes, for the smoke check of the benchmark itself")
    return parser.parse_args(argv)


def _tree_digest(paths: list[Path], base: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(base)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _metadata(args, workload, shape) -> dict:
    import numpy as np

    sources = sorted(SRC.rglob("*.py"))
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "unit": workload.unit,
        "shape": shape,
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(sources, SRC),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sources),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_seconds(workload_name: str) -> float:
    """Median CPU time of fresh processes that import, configure and warm up.

    CPU time, user plus system, of each waited-for child: on a shared
    virtual machine it leaves out the time the host ran someone else.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = _children_cpu()
        subprocess.run(
            [sys.executable, str(COLD_START), workload_name, str(OUT / "cold_start" / workload_name)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(_children_cpu() - before)
    return statistics.median(times)


def _more(untraced, traced, start: float, seconds: float) -> bool:
    """Start a batch if none ran yet or if its expected midpoint falls
    before the deadline, so a run measures about ``seconds`` on average."""
    if not untraced:
        return True
    mean = sum(b.seconds for b in untraced + traced) / len(untraced)
    return time.perf_counter() - start + mean / 2 < seconds


def _timed(run_batch, index: int, seed: int, target: Path):
    t0, c0 = time.perf_counter(), time.process_time()
    batch = run_batch(index, seed, target)
    batch.seconds = time.perf_counter() - t0
    batch.cpu_seconds = time.process_time() - c0
    return batch


def _rate(batches) -> float:
    """Median over batches of work units per CPU second of the process.

    The process runs one thread, so on an idle machine CPU time equals
    wall time.  On a shared virtual machine CPU time leaves out the time
    the host ran someone else (steal time), and the median leaves out
    the batches that a burst of contention slowed.
    """
    return statistics.median(b.units / b.cpu_seconds for b in batches)


def _rate_at_reference_speed(batches) -> float:
    """Like :func:`_rate`, with each batch's rate divided by the host speed
    sampled around it (see ``calibration.py``)."""
    return statistics.median(b.units / b.cpu_seconds / b.host_speed for b in batches)


def _run_batches(run_batch, seed: int, out_dir: Path, seconds: float, tracer=None,
                 calibrate=False):
    """Batches 0, 1, ... for about ``seconds``; returns (untraced, traced).

    With a tracer, each batch runs untraced and then traced, so both
    copies see the same state of a shared machine.  With ``calibrate``,
    the host speed is sampled before the first batch and after each one,
    and each batch gets the mean of the samples around it.
    """
    from calibration import host_speed
    from tracing import instrument

    untraced, traced = [], []
    start = time.perf_counter()
    speed = host_speed(CALIBRATE_FIRST_S) if calibrate else 1.0
    while _more(untraced, traced, start, seconds):
        index = len(untraced)
        name = "reference" if index == 0 else "work"
        batch = _timed(run_batch, index, seed, out_dir / name)
        if calibrate:
            after = host_speed(max(CALIBRATE_MIN_S, CALIBRATE_SHARE * batch.cpu_seconds))
            batch.host_speed = (speed + after) / 2
            speed = after
        untraced.append(batch)
        if tracer is not None:
            tracer.batch = index
            with instrument(tracer):
                traced.append(_timed(run_batch, index, seed, out_dir / "traced" / name))
    return untraced, traced


def _ledger_check(key: str, digest: str) -> tuple[bool, str]:
    """The first run of a source tree records its digest; later runs must match."""
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    known = ledger.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return known == digest, f"expected {known}, got {digest}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dapalloc" / "__init__.py").is_file():
        print(f"perfbench: no dapalloc sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import dapalloc

    if Path(dapalloc.__file__).resolve().parent != (SRC / "dapalloc").resolve():
        print(f"perfbench: imported dapalloc from {dapalloc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import REFERENCE_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    shape = workload.tiny_shape if args.tiny else workload.shape
    out_dir = OUT / ("tiny" if args.tiny else "full") / workload.name

    def run_batch(index, seed, target):
        return workload.run(shape, seed, index, target)

    # First-call warm-up: one tiny reference batch through every code path.
    workload.run(workload.tiny_shape, REFERENCE_SEED, 0, OUT / "warmup" / workload.name)

    metrics: dict[str, float] = {}
    tracer = Tracer() if args.trace == 1 else None
    if tracer is None:
        metrics["setup_s"] = _setup_seconds(workload.name)
    calibrate = workload.calibrate and tracer is None
    measured, traced = _run_batches(run_batch, args.seed, out_dir, args.seconds, tracer,
                                    calibrate)
    batches = measured + traced
    units = sum(b.units for b in measured)
    busy = sum(b.seconds for b in measured)
    rate = _rate(measured)

    checks: dict[str, tuple[bool, str]] = {}
    for batch in batches:
        for name, ok, detail in batch.checks:
            if checks.get(name, (True, ""))[0]:
                checks[name] = (ok, detail)
    reference = measured[0]
    digest = _tree_digest(reference.files, reference.files[0].parent)
    meta = _metadata(args, workload, shape)
    # One digest per source tree and reference shape.
    ledger_key = hashlib.sha256(json.dumps(
        [meta["src_sha256"], workload.name, shape], sort_keys=True).encode()).hexdigest()
    checks["digest-stable"] = _ledger_check(ledger_key, digest)
    if args.trace == 1:
        traced_digest = _tree_digest(traced[0].files, traced[0].files[0].parent)
        checks["trace-neutral"] = (traced_digest == digest,
                                   f"traced digest {traced_digest} differs")

    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    # Workload results: gain_p50 and sdr_err_db_max come from the
    # reference batch, so they are deterministic per commit.
    results = {UNIT_RATE_NAMES[workload.unit]: rate, "failed_frac": failed / attempted}
    if calibrate:
        results["host_speed_p50"] = statistics.median(b.host_speed for b in measured)
    if "gain" in reference.values:
        results["gain_p50"] = statistics.median(reference.values["gain"])
    if "sdr_err_db" in reference.values:
        results["sdr_err_db_max"] = max(reference.values["sdr_err_db"])
        seeded = [e for b in measured[1:] for e in b.values["sdr_err_db"]]
        if seeded:
            results["sdr_err_db_max_seeded"] = max(seeded)

    if args.trace == 0:
        metrics["units_per_s"] = _rate_at_reference_speed(measured)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units_of = END_TO_END
    else:
        metrics.update(layer_metrics(tracer, sum(b.units for b in traced)))
        metrics["trace.overhead_frac"] = _rate(measured) / _rate(traced) - 1.0
        metrics.update({k: results.get(k, 0.0) for k in ("gain_p50", "sdr_err_db_max", "failed_frac")})
        units_of = PER_LAYER

    meta.update(batches=len(measured), units=units, measured_seconds=busy,
                batch_seconds=[b.seconds for b in measured],
                batch_cpu_seconds=[b.cpu_seconds for b in measured],
                batch_host_speed=[b.host_speed for b in measured],
                batch_units=[b.units for b in measured], reference_digest=digest)
    correct = all(ok for ok, _ in checks.values())

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    if args.trace == 1:
        tracer.save(str(runs / f"{stem}-spans.npz"))
    reported = {name: {"value": v, "unit": units_of[name]} for name, v in metrics.items()}
    record = {
        "meta": meta,
        "checks": {name: {"ok": ok, "detail": detail} for name, (ok, detail) in checks.items()},
        "results": results,
        "metrics": reported,
        "attempted": attempted,
        "failed": failed,
    }
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace}"
          f" batches={len(measured)} {workload.unit}s={units}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (ok, detail) in checks.items():
        print(f"# check {'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))
    print(f"# digest reference {digest}")
    for name, value in results.items():
        print(f"# result {name} = {value!r}")
    for name, value in metrics.items():
        print(f"# metric {name} = {value!r} {units_of[name]}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
