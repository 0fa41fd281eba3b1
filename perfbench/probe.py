"""Set-up probe: a fresh interpreter imports qrandlab.cli and runs one warm-up request.

Usage: python3 perfbench/probe.py <workload> <seed> <out-file>

Prints one JSON line with ``import_s`` and ``warmup_s``; exits non-zero
if the warm-up request fails.  The import is timed before anything else
is imported, so numpy and scipy count towards it.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qrandlab.cli  # noqa: E402

T1 = time.perf_counter()

from workloads import WORKLOADS, request_argv  # noqa: E402


def main() -> int:
    workload, seed, out_path = WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3]
    argv = request_argv(workload, seed, "warmup", out_path)
    t2 = time.perf_counter()
    code = qrandlab.cli.main(argv)
    t3 = time.perf_counter()
    if code != 0:
        print(f"warm-up request {argv} exited with {code}", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": T1 - T0, "warmup_s": t3 - t2}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
