"""One measurement of set-up time, in a fresh interpreter.

Times what a `dynlearn run` invocation pays before its first trial:
importing dynlearn (with harness and cli), loading the workload's configs,
and one warm-up trial at a tiny horizon, which covers numpy's and BLAS's
lazy initialisation. The clock starts before anything is imported.
run.py starts this script and sets the BLAS thread variables for it.

    python3 perfbench/setup_probe.py <workload> <seed> <profile> <outdir>

Prints the set-up time in seconds.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dynlearn  # noqa: E402,F401
import dynlearn.cli  # noqa: E402,F401
import dynlearn.harness  # noqa: E402,F401

import workloads  # noqa: E402


def main(workload, seed, profile, outdir):
    calls = workloads.build(workload, int(seed), os.path.join(ROOT, "configs"), profile)
    calls[0].shortened(5).invoke(outdir)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(*sys.argv[1:])
