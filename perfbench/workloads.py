"""The CLI study workloads: request shapes, request seeds and output checks.

This module imports nothing heavy, so the set-up probe can time the
program's own import without the benchmark's imports mixed in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # per-request shape, without --seed/--out
    warmup_argv: tuple[str, ...]  # small request of the same type, untimed
    item: str  # what one item is
    items_per_request: int
    why: str
    invariant: Callable[[dict], list[str]]


def _owsg_ok(result: dict) -> list[str]:
    trials, successes = result.get("trials"), result.get("successes")
    if not trials or successes is None or successes / trials < 0.5:
        return [f"inversion success {successes}/{trials} below 0.5"]
    return []


def _abort_ok(result: dict) -> list[str]:
    # Construction 1 is deterministic only with high probability: a bad input
    # whose abort probability p survives the key sampler's vote makes all 16
    # inner evaluations abort with probability p^16.  About one request in 700
    # has such a key with a modal frequency of 0.98 (p = 0.70), so requiring
    # 0.999 of every key would fail correct code.  A key below 0.9 needs
    # p > 0.84, which by the same count passes the sampler's vote about once
    # in 10^5 requests.
    problems = []
    if result.get("bot_keys") != 0:
        problems.append(f"bot_keys {result.get('bot_keys')!r} != 0")
    low, mean = result.get("min_modal_frequency"), result.get("mean_modal_frequency")
    if not isinstance(low, float) or low < 0.9:
        problems.append(f"min_modal_frequency {low!r} below 0.9")
    if not isinstance(mean, float) or mean < 0.99:
        problems.append(f"mean_modal_frequency {mean!r} below 0.99")
    return problems


def _extract_ok(result: dict) -> list[str]:
    good = result.get("good_fraction")
    if not isinstance(good, float) or good < 0.5:
        return [f"good_fraction {good!r} below 0.5"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "owsg-search",
            tuple(
                "experiment --name owsg --lambda 8 --dim 16 --t 2 --adversary bruteforce --trials 40".split()
            ),
            tuple(
                "experiment --name owsg --lambda 8 --dim 16 --t 2 --adversary bruteforce --trials 2".split()
            ),
            "trial",
            40,
            "brute-force inversion: many tiny SeededRng, derive_bits and 16-dim state calls",
            _owsg_ok,
        ),
        Workload(
            "abort-vote",
            tuple("prg-qs --from bot-oracle --n 16 --c 1.0 --keys 40 --evals 100".split()),
            tuple("prg-qs --from bot-oracle --n 8 --c 1.0 --keys 2 --evals 10".split()),
            "key",
            40,
            "retry-and-vote over the abort oracle: world table build and bot_oracle_eval calls",
            _abort_ok,
        ),
        Workload(
            "extract-d4096",
            tuple("extract --d 4096 --states 300 --mode sampled --t 1000000".split()),
            tuple("extract --d 4096 --states 4 --mode sampled --t 1000000".split()),
            "state",
            300,
            "rounding pipeline: few large states, bulk multinomial draws, good-set tests",
            _extract_ok,
        ),
    )
}


def request_seed(workload: str, seed: int, index) -> int:
    """63-bit seed of request ``index`` (or "warmup") of a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def request_argv(workload: Workload, seed: int, index, out_path: str) -> list[str]:
    argv = workload.warmup_argv if index == "warmup" else workload.argv
    return [*argv, "--seed", str(request_seed(workload.name, seed, index)), "--out", out_path]


def _strip_timing(obj):
    # the checker keeps its own copy of cli.strip_timing_fields, so a change
    # to the program cannot change what it is checked against
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "wallclock_ms"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def output_digest(record: dict) -> str:
    """SHA-256 of the record's canonical JSON, timing stripped.

    Only the run description (subcommand, params, seed) and the result
    are digested: ROADMAP plans to delete ``config.threads`` and to add
    work counters beside the result, and neither is a change of output.
    """
    config = record["config"]
    kept = {
        "config": {k: config[k] for k in ("subcommand", "params", "seed")},
        "result": _strip_timing(record["result"]),
    }
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _expected_params(argv: tuple[str, ...]) -> dict:
    """The requested flags, keyed by the record's param names."""
    names = {"--lambda": "lam", "--from": "source"}
    flags = dict(zip(argv[1::2], argv[2::2]))
    return {names.get(flag, flag[2:]): value for flag, value in flags.items()}


def check_record(workload: Workload, line: str, seed: int) -> list[str]:
    """Problems with one emitted record line; an empty list means it passed."""
    try:
        record = json.loads(line)
        config, result = record["config"], record["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable record: {exc}"]
    problems = []
    if config.get("subcommand") != workload.argv[0] or config.get("seed") != seed:
        problems.append(f"record describes {config.get('subcommand')!r} seed {config.get('seed')!r}")
    params = config.get("params", {})
    for key, value in _expected_params(workload.argv).items():
        if str(params.get(key)) != value:
            problems.append(f"param {key}={params.get(key)!r}, requested {value}")
    return problems + workload.invariant(result)
