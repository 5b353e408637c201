"""One set-up sample, in a fresh interpreter: import ``repro`` and build
the workloads of a run's first ``MIN_JOBS`` jobs.  Prints the host
seconds taken.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``
(``run.py`` calls it; the checkout's ``src`` is put on the path first).
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import repro.harness.runner  # noqa: F401  (the import users pay)
    import repro.verify.explorer  # noqa: F401
    from perfbench.jobs import MIN_JOBS, WORKLOADS

    workload = WORKLOADS[name]
    for index in range(MIN_JOBS):
        workload.spec(seed, index).build_workload()
    print(time.perf_counter() - start)
