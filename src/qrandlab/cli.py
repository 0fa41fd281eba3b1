"""Batch command-line front end emitting reproducible JSON-lines records.

Every run resolves its full configuration (including the seed, drawn
from entropy when not given) before any work happens, and embeds that
configuration in the emitted record.  Re-running a record's config
reproduces every non-timing field byte-for-byte: numeric output is
canonicalized to 12 significant digits and keys are sorted.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import secrets
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from .constructions import Con3Params, con1_handle, con3_handle
from .experiments import (
    bot_count_adversary,
    bruteforce_owsg_handle,
    bruteforce_prg_handle,
    coin_flip_adversary,
    constant_adversary,
    exp_botprg,
    exp_owsg,
    exp_prg,
    moment_distance,
    owsg_coin_flip_adversary,
)
from .extraction import RoundParams, _clears_margin, block_sums, gaussian_block_check, round_mask
from .oracles import (
    OracleWorld,
    bot_oracle_eval,
    bot_prg_handle,
    decode_flip_index,
    measure_flipped,
    sampler_oracle,
)
from .primitives import determinism_audit
from .qcore import MAX_TENSOR_DIM, MemoryBudgetError
from .rng import ParameterError, SeededRng, parse_bits
from .tomography import _check_sample_count, prefix_law
from .toys import random_phase_sprs, toy_owsg_basis, toy_owsg_haar, toy_prg

USAGE_ERROR = 2

MAX_RESPONSES = 1 << 20  # oracle-sim holds every response, up to about 1 KB each at its peak


_KEPT_TYPES = frozenset((int, str, bool, type(None)))  # exact types a record keeps as they are


def _round12(obj):
    """Recursively canonicalize numerics to 12 significant digits.

    The exact types a record is made of are dispatched first; numpy
    scalars, lists, tuples and subclasses take the isinstance chain.
    """
    kind = type(obj)
    if kind is dict:
        return {k: _round12(v) for k, v in obj.items()}
    if kind is float:
        return float(f"{obj:.12g}")
    if kind in _KEPT_TYPES:  # bool included, so the chain below never meets one
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """One JSON line of ``obj``: numerics at 12 significant digits
    (``_round12``), keys sorted, no spaces."""
    return json.dumps(_round12(obj), sort_keys=True, separators=(",", ":"))


def strip_timing_fields(obj):
    """Drop every wallclock field, at any depth; replay comparisons use this."""
    if isinstance(obj, dict):
        return {k: strip_timing_fields(v) for k, v in obj.items() if k != "wallclock_ms"}
    if isinstance(obj, list):
        return [strip_timing_fields(v) for v in obj]
    return obj


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; re-running it reproduces the run."""

    subcommand: str
    params: dict
    seed: int

    def to_record(self) -> dict:
        return {"subcommand": self.subcommand, "params": self.params, "seed": self.seed}


def _resolve_seed(seed) -> int:
    return secrets.randbits(63) if seed is None else int(seed)


def _count(params: dict, name: str) -> int:
    """The count flag --name, which must be at least 1."""
    if params[name] < 1:
        raise ParameterError(f"--{name} must be at least 1, got {params[name]}")
    return params[name]


# -- subcommand implementations ------------------------------------------------


# Below this dimension a state's work is interpreter-bound, so threads only
# contend for the interpreter lock: at d = 64 two were about 1.6x slower.
_MIN_SPREAD_D = 4096

# A share of cmd_extract holds the states of one block at a time, at most this
# many amplitudes: 8 states at d = 4096, one from d = 2^15 up.
_BLOCK_AMPLITUDES = 2**15


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _block_states(d: int) -> int:
    """States a share of ``cmd_extract`` rounds together: as many d-amplitude
    states as ``_BLOCK_AMPLITUDES`` holds, and at least one."""
    return max(1, _BLOCK_AMPLITUDES // d)


def _extract_workers(d: int, n_states: int) -> int:
    """Shares that ``cmd_extract`` spreads its states over: one per usable CPU
    and at most one per state, with no more amplitudes in the shares' blocks
    than the one-state budget of ``MAX_TENSOR_DIM**2``; one below
    d = ``_MIN_SPREAD_D``."""
    if d < _MIN_SPREAD_D:
        return 1
    return min(_usable_cpus(), n_states, MAX_TENSOR_DIM**2 // (_block_states(d) * d))


def cmd_extract(params: dict, seed: int) -> dict:
    d = params["d"]
    rparams = RoundParams(d)
    mode = params["mode"]
    t = params["t"] if mode == "sampled" else None  # None: the exact diagonal
    if mode == "sampled":
        if not t:
            raise ParameterError("sampled mode needs --t copies")
        _check_sample_count(t)
    rng = SeededRng(seed)
    n_states = _count(params, "states")
    workers = _extract_workers(d, n_states)
    block, k = _block_states(d), rparams.k
    # Share w runs states w, w + workers, ..., each on its own stream rng.child(i),
    # a block of them at a time, and keeps integer counts, so the totals depend on
    # neither the worker count nor the block size.  A state's own calls are its
    # draws and its norm, which release the interpreter lock; the arithmetic
    # between them is a few calls per block on 2-D arrays, so the shares seldom
    # wait for the lock and run in parallel.
    shares: list = [None] * workers  # share w's (good, agree, ones), or what it raised
    stop = threading.Event()

    def run_share(w: int) -> None:
        good = agree = 0
        ones = np.zeros(rparams.num_bits, dtype=np.int64)
        amps = np.empty((block, d), dtype=complex)  # each row's normals, normalised in place
        normals = amps.view(np.float64)
        norms = np.empty((block, 1))
        probs = np.empty((block, d))
        quotients = None if t is None else np.empty((block, 2, k))  # each row's two draws' first k counts, over t
        own = range(w, n_states, workers)
        try:
            for start in range(0, len(own), block):
                if stop.is_set():
                    return
                children = [rng.child(i) for i in own[start : start + block]]
                m = len(children)
                for j, child in enumerate(children):
                    child.standard_normal(out=normals[j])
                    norms[j] = np.linalg.norm(amps[j])
                np.divide(amps[:m], norms[:m], out=amps[:m])
                np.abs(amps[:m], out=probs[:m])
                np.square(probs[:m], out=probs[:m])
                good += int(_clears_margin(block_sums(probs[:m], rparams), rparams).sum())
                if t is None:
                    first = second = round_mask(probs[:m], rparams)
                else:
                    for j, child in enumerate(children):
                        quotients[j, 0] = child.multinomial(t, probs[j])[:k]
                    # The repeat is the last draw on child(i): its prefix draw gives
                    # the bits of a full d-cell draw and only leaves the stream
                    # elsewhere, which nothing reads.
                    laws = prefix_law(probs[:m], k)
                    for j, child in enumerate(children):
                        quotients[j, 1] = child.multinomial(t, laws[j])[:k]
                    np.divide(quotients[:m], t, out=quotients[:m])
                    masks = round_mask(quotients[:m], rparams)
                    first, second = masks[:, 0], masks[:, 1]
                agree += int(np.all(first == second, axis=-1).sum())
                ones += first.sum(axis=0)
        except BaseException as exc:  # re-raised below, once every share has stopped
            shares[w] = exc
            stop.set()
            return
        shares[w] = (good, agree, ones)

    threads = [threading.Thread(target=run_share, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        run_share(0)
        for thread in threads:
            thread.join()
    except BaseException:  # interrupted while waiting: stop the other shares too
        stop.set()
        raise
    for share in shares:
        if isinstance(share, BaseException):
            raise share
    good, agree, ones = (sum(column) for column in zip(*shares))
    return {
        "d": d,
        "n_states": n_states,
        "mode": mode,
        "t": t,
        "good_fraction": good / n_states,
        "bit_frequencies": list(ones / n_states),
        "repeat_agreement": agree / n_states,
    }


def cmd_haar_stats(params: dict, seed: int) -> dict:
    return gaussian_block_check(params["d"], _count(params, "states"), SeededRng(seed))


def cmd_prg_qs(params: dict, seed: int) -> dict:
    stride = 10**6  # key i samples on child(i) and is audited on child(stride + i)
    if _count(params, "keys") > stride:
        raise ParameterError(f"--keys must be at most {stride}, or key sampling reuses an audit stream")
    if params["evals"] < 2:
        raise ParameterError(f"--evals must be at least 2, got {params['evals']}")
    if params["evals"] > MAX_TENSOR_DIM**2:  # the audit tallies as it goes, so this bounds time, not memory
        raise ParameterError(f"--evals {params['evals']} exceeds the {MAX_TENSOR_DIM**2} evaluations an audit runs")
    n = params["n"]
    world = OracleWorld("bot-world", seed, n_max=n, c=params["c"])
    handle = con1_handle(bot_prg_handle(world, n))
    rng = SeededRng(seed, 1)
    bots = 0
    modal_freqs = []
    for i in range(params["keys"]):
        key = handle.qsamp(rng.child(i))
        if key.is_bot:
            bots += 1
            continue
        _, modal_frequency = determinism_audit(handle, key, params["evals"], rng.child(stride + i))
        modal_freqs.append(modal_frequency)
    return {
        "n": n,
        "c": params["c"],
        "output_len": handle.output_len,
        "keys_sampled": params["keys"],
        "bot_keys": bots,
        "min_modal_frequency": min(modal_freqs) if modal_freqs else None,
        "mean_modal_frequency": float(np.mean(modal_freqs)) if modal_freqs else None,
    }


def cmd_sprs_qs(params: dict, seed: int) -> dict:
    stride = 1000  # key i samples on child(i) and evaluates on child(stride + i), child(2 * stride + i)
    if _count(params, "keys") > stride:
        raise ParameterError(f"--keys must be at most {stride}, or key sampling reuses an evaluation stream")
    n = params["n"]
    N = params["N"]
    world = OracleWorld("bot-world", seed, n_max=n, c=params["c"])
    inner = con1_handle(bot_prg_handle(world, n))
    con = Con3Params(lam=n, c=params["con3_c"], N=N, inner=inner)
    handle = con3_handle(con)
    rng = SeededRng(seed, 1)
    flatness = 0.0
    refidelity = 1.0
    for i in range(params["keys"]):
        key = handle.qsamp(rng.child(i))
        psi = handle.eval(key, rng.child(stride + i))
        again = handle.eval(key, rng.child(2 * stride + i))
        flatness = max(flatness, float(np.abs(np.abs(psi.amplitudes) - N**-0.5).max()))
        refidelity = min(refidelity, psi.fidelity(again))
    return {
        "n": n,
        "N": N,
        "keys_sampled": params["keys"],
        "max_modulus_deviation": flatness,
        "min_regeneration_fidelity": refidelity,
        "flags": list(con.flags),
    }


def _json_lines(path: str):
    """The JSON objects of a JSON-lines file, one per non-blank line, read lazily."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # invalid JSON or invalid UTF-8
                raise ParameterError(f"{path} line {number}: not JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise ParameterError(f"{path} line {number}: expected a JSON object, got a {type(obj).__name__}")
            yield obj


def cmd_oracle_sim(params: dict, seed: int) -> dict:
    world_name = params["world"]
    if world_name == "bot" and not params["queries"]:
        raise ParameterError("a bot world answers the 'x' of each query: give them in a --queries file")
    queries = _json_lines(params["queries"]) if params["queries"] else itertools.repeat({}, _count(params, "draws"))
    queries = list(itertools.islice(queries, MAX_RESPONSES + 1))  # one past the cap is enough to refuse
    if len(queries) > MAX_RESPONSES:
        raise MemoryBudgetError(f"oracle-sim answers at most {MAX_RESPONSES} queries (--draws or --queries lines)")
    n = params["n"]
    world = OracleWorld(f"{world_name}-world", seed, n_max=n, c=params["c"])
    rng = SeededRng(seed, 1)
    responses = []
    for i, query in enumerate(queries):
        child = rng.child(i)
        if world_name == "bot":
            x = query.get("x")
            parse_bits(x, n, name=f"query {i}: 'x'")
            responses.append({"query": i, "x": x, "value": str(bot_oracle_eval(world, x, child))})
        elif world_name == "sampler":
            x, y = sampler_oracle(world, n, child)
            responses.append({"query": i, "x": x, "y": y})
        else:
            state = parse_bits(query.get("state", "0" * (9 * n + 1)), 9 * n + 1, name=f"query {i}: 'state'")
            lead, x, y = decode_flip_index(measure_flipped(world, n, state, child), n)
            responses.append({"query": i, "lead": lead, "x": x, "y": y})
    return {"world": world.to_record(), "responses": responses}


# Each game's adversaries by name, each built over the game's generator.  The
# owsg brute force memoises its last handle, search table and answers included:
# equal toy_owsg_haar handles hold equal states.
_ADVERSARIES = {
    "prg": {
        "bruteforce": bruteforce_prg_handle,
        "coin-flip": lambda gen: coin_flip_adversary(),
        "constant-0": lambda gen: constant_adversary(0),
    },
    "bot-prg": {
        "bot-count": lambda gen: bot_count_adversary(),
        "coin-flip": lambda gen: coin_flip_adversary(),
    },
    "owsg": {
        "bruteforce": functools.lru_cache(maxsize=1)(bruteforce_owsg_handle),
        "coin-flip": lambda gen: owsg_coin_flip_adversary(),
    },
    # the moment study plays no adversary; it accepts only the flag's default, which its record keeps
    "moment": {"coin-flip": None},
}


def cmd_experiment(params: dict, seed: int) -> dict:
    name, adversary = params["name"], params["adversary"]
    adversaries = _ADVERSARIES[name]
    if adversary not in adversaries:
        raise ParameterError(f"{name} has no adversary {adversary!r}; valid adversaries: {', '.join(adversaries)}")
    rng = SeededRng(seed)
    if name == "moment":
        gen = random_phase_sprs(params["N"])
        dist = moment_distance(gen, params["t"], _count(params, "keys"), "monte-carlo", rng)
        return {"name": "moment", "N": params["N"], "t": params["t"], "keys": params["keys"], "distance": dist}
    if name == "prg":
        gen = toy_prg(params["lam"], params["s"])
        return exp_prg(gen, adversaries[adversary](gen), params["trials"], rng)
    if name == "bot-prg":
        gen = bot_prg_handle(OracleWorld("bot-world", seed, n_max=params["n"], c=params["c"]), params["n"])
        return exp_botprg(gen, adversaries[adversary](gen), params["q"], params["trials"], rng)
    # the brute force searches Haar states' amplitudes; the coin flip measures a basis state
    gen = toy_owsg_haar(params["lam"], params["dim"]) if adversary == "bruteforce" else toy_owsg_basis(params["lam"])
    return exp_owsg(gen, adversaries[adversary](gen), params["t"], params["trials"], rng)


_DISPATCH = {
    "extract": cmd_extract,
    "haar-stats": cmd_haar_stats,
    "prg-qs": cmd_prg_qs,
    "sprs-qs": cmd_sprs_qs,
    "oracle-sim": cmd_oracle_sim,
    "experiment": cmd_experiment,
}


def run_config(config: RunConfig) -> dict:
    """Execute a resolved configuration and return the emitted record."""
    t0 = time.perf_counter()
    result = _DISPATCH[config.subcommand](config.params, config.seed)
    return {
        "config": config.to_record(),
        "result": result,
        "wallclock_ms": (time.perf_counter() - t0) * 1e3,
    }


def _emit(record: dict, out_path: str | None) -> None:
    line = canonical_json(record)
    if out_path:
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    else:
        print(line)


@functools.cache  # parsing leaves a parser unchanged, so one serves every call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrandlab",
        description="statevector lab for pseudorandom-state generators and oracle worlds",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="omit to draw from entropy (recorded)")
        p.add_argument("--out", type=str, default=None, help="append JSON-lines here instead of stdout")

    p = sub.add_parser("extract", help="good-set and determinism statistics of the rounding pipeline")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--states", type=int, default=1000)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--t", type=int, default=None)
    add_common(p)

    p = sub.add_parser("haar-stats", help="block-sum statistics of Haar states")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--states", type=int, default=1000)
    add_common(p)

    p = sub.add_parser("prg-qs", help="retry-and-vote generator over an abort oracle")
    p.add_argument("--from", dest="source", choices=["bot-oracle"], required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--keys", type=int, default=20)
    p.add_argument("--evals", type=int, default=50)
    add_common(p)

    p = sub.add_parser("sprs-qs", help="phase states over a quantum-sampled-key generator")
    p.add_argument("--from", dest="source", choices=["prg-qs"], required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--con3-c", dest="con3_c", type=float, default=4.0)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--keys", type=int, default=5)
    add_common(p)

    p = sub.add_parser("oracle-sim", help="replay a query list against a seeded world")
    p.add_argument("--world", choices=["flip", "bot", "sampler"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--queries", type=str, default=None, help="JSON-lines query file")
    p.add_argument("--draws", type=int, default=8, help="query count when no file is given")
    add_common(p)

    p = sub.add_parser("experiment", help="run one of the boxed security experiments")
    p.add_argument("--name", choices=list(_ADVERSARIES), required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=8)
    p.add_argument("--s", type=int, default=24)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--keys", type=int, default=20000)
    p.add_argument("--trials", type=int, default=500)
    adversaries = "; ".join(f"{game}: {', '.join(names)}" for game, names in _ADVERSARIES.items())
    p.add_argument("--adversary", type=str, default="coin-flip", help=adversaries)
    p.add_argument("--dim", type=int, default=16)
    add_common(p)

    p = sub.add_parser("rerun", help="re-execute the config embedded in an emitted record")
    p.add_argument("--record", type=str, required=True, help="JSON-lines file; first line is replayed")
    p.add_argument("--out", type=str, default=None)

    return parser


def _flags(subcommand: str) -> dict:
    """The flag that sets each recorded param of ``subcommand``: every flag but --seed and --out."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest: action.option_strings[0]
        for action in subparsers.choices[subcommand]._actions
        if action.dest not in ("help", "seed", "out")
    }


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # every subcommand flag is a recorded param, except the run's seed and output file
    params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "seed", "out")}
    for name, value in params.items():
        # a record keeps 12 significant digits, so a longer float would replay as another value
        if isinstance(value, float) and not math.isnan(value) and _round12(value) != value:
            raise ParameterError(
                f"{_flags(args.subcommand)[name]} {value!r} has more than the 12 significant digits "
                f"a record keeps; its rerun would use {_round12(value)!r}"
            )
    return RunConfig(args.subcommand, params, _resolve_seed(args.seed))


def _replay_config(path: str) -> RunConfig:
    """The config of the first record in ``path``, parsed as a fresh run's argv.

    Each recorded param becomes ``--flag=value`` under the flag that the
    subcommand's parser maps to it, so a replay passes the same checks as a
    fresh run; argparse exits 2 on a value it cannot parse.  The parsed
    config must equal the recorded one.  Config fields other than
    subcommand, params and seed (an older record's "threads") are ignored.
    """
    config = next(_json_lines(path), {}).get("config")
    if not isinstance(config, dict) or not isinstance(config.get("params"), dict):
        raise ParameterError(f"{path}: the first record has no config with a params object")
    subcommand, params, seed = config.get("subcommand"), config["params"], config.get("seed")
    if not isinstance(subcommand, str) or subcommand not in _DISPATCH:
        raise ParameterError(f"{path}: unknown subcommand {subcommand!r}; a record replays {', '.join(_DISPATCH)}")
    flags = _flags(subcommand)
    if params.keys() - flags.keys():
        raise ParameterError(f"{path}: unknown {subcommand} params {sorted(params.keys() - flags.keys())}")
    if flags.keys() - params.keys():
        raise ParameterError(f"{path}: missing {subcommand} params {sorted(flags.keys() - params.keys())}")
    argv = [f"{flags[name]}={value}" for name, value in params.items() if value is not None]
    replay = _config_from_args(build_parser().parse_args([subcommand, *argv, f"--seed={seed}"]))
    recorded, parsed = {**params, "seed": seed}, {**replay.params, "seed": replay.seed}
    for name, value in recorded.items():
        if canonical_json(parsed[name]) != canonical_json(value):
            raise ParameterError(f"{path}: recorded {name}={value!r} parses as {parsed[name]!r}")
    return replay


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _replay_config(args.record) if args.subcommand == "rerun" else _config_from_args(args)
        _emit(run_config(config), args.out)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
