"""Smoke check of the benchmark itself, at tiny shapes.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench)

Runs every workload named in BENCHMARK.json for one second with tracing
off and on, and asserts that each run passes its output checks and
prints every end-to-end and per-layer metric with the unit that
BENCHMARK.json gives it.  It also asserts that a directory holding only
BENCHMARK.json and the benchmark exits non-zero without a result.
"""

import json
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_every_workload_prints_every_metric_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            done = _run(ROOT, workload, trace)
            assert done.returncode == 0, (workload, trace, done.stdout, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace, done.stdout)
            assert result["attempted"] >= 1 and result["failed"] == 0
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, (workload, trace, set(printed) ^ set(expected))


def test_bare_directory_exits_nonzero_without_result():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert not done.stdout.strip(), done.stdout


if __name__ == "__main__":
    test_every_workload_prints_every_metric_with_its_unit()
    test_bare_directory_exits_nonzero_without_result()
    print("perfbench smoke check passed")
