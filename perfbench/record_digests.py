"""Record the output digests that runs with a reference seed are checked against.

Usage (from the repository root, on the commit whose outputs are the reference):

    python3 perfbench/record_digests.py

Runs the first requests of every workload for each reference seed,
checks each record, and rewrites perfbench/digests.json.  A run that
gets further than the recorded requests checks the rest by invariants only.
"""

from __future__ import annotations

import json

from run import BENCH, OUT, Loop, check, load_program
from workloads import WORKLOADS, output_digest

REFERENCE_SEEDS = (0, 1)
RECORDED_REQUESTS = {"owsg-search": 40, "abort-vote": 40, "extract-d4096": 64}


def main() -> int:
    cli = load_program()
    OUT.mkdir(exist_ok=True)
    digests = {}
    for name, count in RECORDED_REQUESTS.items():
        for seed in REFERENCE_SEEDS:
            loop = Loop(cli, WORKLOADS[name], seed, OUT / f"digest-{name}-{seed}.jsonl")
            for index in range(count):
                loop.call(index)
            failures = check(loop, [])
            if failures:
                raise SystemExit(f"{name} seed {seed}: {failures}")
            digests.setdefault(name, {})[str(seed)] = [
                output_digest(json.loads(req["lines"][0])) for req in loop.requests
            ]
            print(f"{name} seed {seed}: {count} requests recorded", flush=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
