"""Run the blasius-net benchmark.

    python3 perfbench/run.py --workload {sweep,single,validate,all} \
        --seed N --seconds S --trace {0,1}

Starts bench.py in a child process whose BLAS and OpenMP pools are capped at
one thread, so the load is one process with no more threads than cores, and
relays its output.  The last line of a run is its JSON result.  ``--workload
all`` runs every workload in turn.  Run from the root of a checkout; the
package is imported from its ``src`` directory, never from site-packages.
"""

import os
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "bench.py"
WORKLOADS = ("sweep", "single", "validate")
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIMEOUT_S = 170


def run_worker(args: list[str]) -> int:
    env = dict(os.environ, **THREAD_CAPS)
    child = subprocess.Popen([sys.executable, str(WORKER), *args], env=env)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: benchmark still running after {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main(argv: list[str]) -> int:
    if "all" not in argv:
        return run_worker(argv)
    at = argv.index("all")
    for workload in WORKLOADS:
        code = run_worker(argv[:at] + [workload] + argv[at + 1:])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
