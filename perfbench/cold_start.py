"""Cold start of one workload, timed from outside for ``setup_s``.

    python3 perfbench/cold_start.py WORKLOAD OUT_DIR

A fresh interpreter imports dapalloc from the checkout's ``src/``,
builds the workload's configuration and runs its tiny reference batch,
the first-call warm-up, writing the result files under OUT_DIR.  It
prints the monotonic clock when done; the caller started its clock
before spawning the process.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    name, out_dir = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import REFERENCE_SEED, WORKLOADS

    workload = WORKLOADS[name]
    workload.run(workload.tiny_shape, REFERENCE_SEED, 0, out_dir)
    print(time.perf_counter())  # system-wide monotonic clock on Linux


if __name__ == "__main__":
    main()
