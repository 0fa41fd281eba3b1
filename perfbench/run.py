"""qrandlab benchmark: three CLI study workloads driven in process as a closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload owsg-search --seed 0 --seconds 32 --trace 0

One client calls ``qrandlab.cli.main(argv)`` and starts the next request
only after the previous one returns.  Every emitted record is read back
and checked.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
traces every other request through wrappers around the layers' public
functions, runs the kernel sweep, and prints the per-layer metrics.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 3
# Set-up time is scaled to a host on which a fresh interpreter imports numpy
# in this many seconds (the median on the 2-core VM the benchmark was tuned on).
SETUP_REF_S = 0.125
SETUP_REF_CMD = [sys.executable, "-c", "import numpy; print(flush=True)"]
# Spans are kept in memory; an abort-vote request opens about 800k of them.
MAX_TRACED_REQUESTS = 4

NPROC = len(os.sched_getaffinity(0))
# Never run more BLAS threads than this process may use; probes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > NPROC:
        os.environ[_var] = str(NPROC)

from workloads import WORKLOADS, Workload, check_record, output_digest, request_argv, request_seed  # noqa: E402

# Function spans reported per layer, in the order of the benchmark's README.
LAYER_FUNCTIONS = (
    "rng.SeededRng", "rng.bits", "rng.draw", "rng.derive_bits", "rng.fisher_yates_table",
    "qcore.StateVector", "qcore.haar_sample", "qcore.fidelity",
    "tomography.sampled_diagonal",
    "extraction.extract", "extraction.good_set_member",
    "primitives.vote", "primitives.determinism_audit",
    "constructions.con1_qsamp", "constructions.con1_eval",
    "oracles.bot_oracle_eval", "oracles.o_value", "oracles.bruteforce_owsg_adversary",
    "experiments.exp_owsg",
    "cli.main",
)


def _spawn_until_line(cmd: list[str]) -> tuple[float, str]:
    """Seconds from spawning ``cmd`` until its first line of output, and that line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or not line:
        raise RuntimeError(f"{cmd} exited with {code}")
    return elapsed, line


def measure_setup(workload: Workload, seed: int) -> list[dict]:
    """Time fresh interpreters that import qrandlab.cli and finish one warm-up
    request, each followed by a fresh interpreter that only imports numpy."""
    samples = []
    out_path = OUT / f"warmup-{workload.name}.jsonl"
    out_path.write_text("")
    for _ in range(SETUP_PROBES):
        total, line = _spawn_until_line(
            [sys.executable, str(BENCH / "probe.py"), workload.name, str(seed), str(out_path)]
        )
        ref, _ = _spawn_until_line(SETUP_REF_CMD)
        samples.append({"setup_s": total, "ref_s": ref, **json.loads(line)})
    return samples


def load_program():
    sys.path.insert(0, str(ROOT / "src"))
    import qrandlab.cli

    if Path(qrandlab.cli.__file__).resolve().parent != ROOT / "src" / "qrandlab":
        raise RuntimeError(f"qrandlab imported from {qrandlab.cli.__file__}, not from src/")
    return qrandlab.cli


class Loop:
    """Closed-loop client: one request at a time, records read back from --out."""

    def __init__(self, cli, workload: Workload, seed: int, out_path: Path):
        self.cli, self.workload, self.seed, self.out_path = cli, workload, seed, out_path
        out_path.write_text("")
        self.offset = 0
        self.requests: list[dict] = []

    def call(self, index, tracer=None) -> dict:
        argv = request_argv(self.workload, self.seed, index, str(self.out_path))
        error = None
        if tracer is not None:
            tracer.request = index
            tracer.install()
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            code, error = None, traceback.format_exc()
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        with open(self.out_path, "rb") as fh:
            fh.seek(self.offset)
            emitted = fh.read()
        self.offset += len(emitted)
        req = {"index": index, "argv": argv, "code": code, "error": error, "latency": latency,
               "lines": emitted.decode().splitlines(), "traced": tracer is not None}
        if index != "warmup":
            self.requests.append(req)
        return req

    def run(self, seconds: float, tracer=None, reference=None) -> float:
        """Run requests until ``seconds`` have passed.

        With ``reference``, the reference task is timed before the first
        request and after each one, and a request's ``ref_s`` is the mean of
        the two timings around it.  Traced runs alternate untraced and traced
        requests, trace at most ``MAX_TRACED_REQUESTS``, and need at least
        one of each.
        """
        t0 = time.perf_counter()
        ref_before = _timed(reference) if reference else None
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 1 and index < 2 * MAX_TRACED_REQUESTS
            req = self.call(index, tracer if traced else None)
            if reference is not None:
                ref_after = _timed(reference)
                req["ref_s"] = (ref_before + ref_after) / 2
                ref_before = ref_after
            index += 1
            if time.perf_counter() - t0 >= seconds and (tracer is None or index >= 2):
                return time.perf_counter() - t0


def _timed(task) -> float:
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def check(loop: Loop, digests: list[str]) -> list[str]:
    """Problems per failed request; every request is checked."""
    failures = []
    for req in loop.requests:
        i = req["index"]
        seed = int(req["argv"][req["argv"].index("--seed") + 1])
        if req["code"] != 0:
            failures.append(f"request {i}: exit {req['code']} {req['error'] or ''}")
            continue
        if len(req["lines"]) != 1:
            failures.append(f"request {i}: {len(req['lines'])} records emitted, expected 1")
            continue
        problems = check_record(loop.workload, req["lines"][0], seed)
        if not problems and i < len(digests) and output_digest(json.loads(req["lines"][0])) != digests[i]:
            problems.append("output differs from the recorded digest")
        failures.extend(f"request {i}: {p}" for p in problems)
    return failures


def environment() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def end_to_end(loop: Loop, setup: list[dict]) -> tuple[dict, dict]:
    """The bounded metrics, with request time in reference-task units, and
    the same two figures in wall-clock seconds."""
    items = sum(1 for r in loop.requests if r["code"] == 0) * loop.workload.items_per_request
    latencies = [r["latency"] for r in loop.requests]
    in_ref = [r["latency"] / r["ref_s"] for r in loop.requests]
    metrics = {
        "items_per_ref": (items / sum(in_ref), "1/ref"),
        "request_ref_p50": (statistics.median(in_ref), "ref"),
        "setup_s": (statistics.median(s["setup_s"] / s["ref_s"] for s in setup) * SETUP_REF_S, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {
        "items_per_s": (items / sum(latencies), "1/s"),
        "request_s_p50": (statistics.median(latencies), "s"),
        "reference_s_p50": (statistics.median(r["ref_s"] for r in loop.requests), "s"),
        "setup_wall_s": (statistics.median(s["setup_s"] for s in setup), "s"),
    }
    return metrics, wall


def per_layer(loop: Loop, tracer, setup: list[dict], seed: int) -> dict:
    from kernels import sweep
    from tracer import LAYERS, layer_summary

    summary = layer_summary(tracer)
    traced = [r for r in loop.requests if r["traced"]]
    # the untraced requests interleaved with the traced ones, so host drift cancels
    untraced = [r for r in loop.requests if not r["traced"] and r["index"] < 2 * len(traced)]
    items = loop.workload.items_per_request

    def time_per_item(reqs):
        return sum(r["latency"] for r in reqs) / (items * len(reqs))

    n = len(traced)
    traced_wall = sum(r["latency"] for r in traced)
    metrics = {
        "setup.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
        "setup.warmup_s": (statistics.median(s["warmup_s"] for s in setup), "s"),
    }
    # Self time as a share of the traced requests' wall time: seconds swing
    # with the host's speed, shares do not.
    for name in LAYER_FUNCTIONS:
        calls, self_s = summary["per_name"].get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_frac"] = (self_s / traced_wall, "ratio")
    for name, value in summary["ratios"].items():
        metrics[name] = (value, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = (summary["module_self_s"][layer] / traced_wall, "ratio")
    metrics["trace.requests"] = (n, "count")
    metrics["trace.request_s"] = (traced_wall / n, "s")
    metrics["trace.overhead_frac"] = (time_per_item(traced) / time_per_item(untraced) - 1, "ratio")
    metrics["trace.accounted_frac"] = (sum(summary["module_self_s"].values()) / traced_wall, "ratio")
    metrics.update(sweep(request_seed(loop.workload.name, seed, "kernel")))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qrandlab" / "cli.py").is_file():
        print(f"error: no qrandlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    setup = measure_setup(workload, args.seed)
    cli = load_program()
    loop = Loop(cli, workload, args.seed, OUT / f"records-{workload.name}-{args.seed}.jsonl")
    warm = loop.call("warmup")
    if warm["code"] != 0:
        raise RuntimeError(f"warm-up request failed: {warm['error'] or warm['code']}")
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        phase_s = loop.run(args.seconds, tracer=tracer)
    else:
        from reference import TASKS

        phase_s = loop.run(args.seconds, reference=TASKS[workload.name])
    digests = json.loads((BENCH / "digests.json").read_text()).get(workload.name, {})
    failures = check(loop, digests.get(str(args.seed), []))

    wall = {}
    if args.trace:
        tracer.save(OUT / f"spans-{workload.name}-{args.seed}.npz")
        metrics = per_layer(loop, tracer, setup, args.seed)
    else:
        metrics, wall = end_to_end(loop, setup)

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(loop.requests),
        "failed": len({f.split(":", 1)[0] for f in failures}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    samples = {
        "requests": len(loop.requests),
        "traced_requests": sum(r["traced"] for r in loop.requests),
        "setup_probes": len(setup),
        "phase_s": phase_s,
    }
    (OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": environment(), "samples": samples, "setup": setup, "wall": wall, **result}, indent=1)
    )
    print(f"# {workload.name} seed={args.seed} trace={args.trace} item={workload.item} samples={samples}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in wall.items():
        print(f"{name} {value:.6g} {unit} (wall clock, not bounded)")
    if not args.trace:
        print(f"# request medians are over {len(loop.requests)} requests")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
