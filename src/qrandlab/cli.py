"""Batch command-line front end emitting reproducible JSON-lines records.

Every run resolves its full configuration (including the seed, drawn
from entropy when not given) before any work happens, and embeds that
configuration in the emitted record.  Re-running a record's config
reproduces every non-timing field byte-for-byte: numeric output is
canonicalized to 12 significant digits and keys are sorted.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .constructions import Con1Params, Con3Params, con1_handle, con3_handle
from .experiments import (
    AdversaryHandle,
    BudgetExceededError,
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
from .extraction import RoundParams, extract, gaussian_block_check, good_set_member
from .oracles import (
    OracleWorld,
    bot_oracle_eval,
    bot_prg_handle,
    decode_flip_index,
    measure_flipped,
    sampler_oracle,
)
from .primitives import determinism_audit
from .qcore import haar_sample
from .rng import SeededRng
from .tomography import exact_diagonal
from .toys import random_phase_sprs, toy_owsg_basis, toy_owsg_haar, toy_prg

USAGE_ERROR = 2

EXPERIMENT_NAMES = ("prg", "bot-prg", "owsg", "moment")


class CliUsageError(ValueError):
    pass


def _round12(obj):
    """Recursively canonicalize numerics to 12 significant digits."""
    if isinstance(obj, bool):
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

    @classmethod
    def from_record(cls, rec: dict) -> "RunConfig":
        # fields beyond these (such as an older record's "threads") are ignored
        return cls(subcommand=rec["subcommand"], params=dict(rec["params"]), seed=rec["seed"])


def _resolve_seed(seed) -> int:
    return secrets.randbits(63) if seed is None else int(seed)


def _count(params: dict, name: str) -> int:
    """The count flag --name, which must be at least 1."""
    if params[name] < 1:
        raise CliUsageError(f"--{name} must be at least 1, got {params[name]}")
    return params[name]


# -- subcommand implementations ------------------------------------------------


def cmd_extract(params: dict, seed: int) -> dict:
    d = params["d"]
    rparams = RoundParams(d)
    mode, t = params["mode"], params["t"]
    if mode == "sampled" and not t:
        raise CliUsageError("sampled mode needs --t copies")
    rng = SeededRng(seed)
    n_states = _count(params, "states")
    good = 0
    agree = 0
    bit_ones = np.zeros(rparams.num_bits)
    for i in range(n_states):
        child = rng.child(i)
        psi = haar_sample(d, child)
        if good_set_member(exact_diagonal(psi), rparams):
            good += 1
        first = extract(psi, rparams, mode=mode, t=t, rng=child)
        second = extract(psi, rparams, mode=mode, t=t, rng=child)
        agree += first == second
        bit_ones += np.array([b == "1" for b in first])
    return {
        "d": d,
        "n_states": n_states,
        "mode": mode,
        "t": t if mode == "sampled" else None,
        "good_fraction": good / n_states,
        "bit_frequencies": list(bit_ones / n_states),
        "repeat_agreement": agree / n_states,
    }


def cmd_haar_stats(params: dict, seed: int) -> dict:
    return asdict(gaussian_block_check(params["d"], _count(params, "states"), SeededRng(seed)))


def cmd_prg_qs(params: dict, seed: int) -> dict:
    if params["source"] != "bot-oracle":
        raise CliUsageError("only --from bot-oracle is available")
    stride = 10**6  # key i samples on child(i) and is audited on child(stride + i)
    if _count(params, "keys") > stride:
        raise CliUsageError(f"--keys must be at most {stride}, or key sampling reuses an audit stream")
    n = params["n"]
    world = OracleWorld("bot-world", seed, n_max=n, c=params["c"])
    con = Con1Params(lam=n, inner=bot_prg_handle(world, n))
    handle = con1_handle(con)
    rng = SeededRng(seed, 1)
    bots = 0
    modal_freqs = []
    for i in range(params["keys"]):
        key = handle.qsamp(rng.child(i))
        if key.is_bot:
            bots += 1
            continue
        audit = determinism_audit(handle, key, params["evals"], rng.child(stride + i))
        modal_freqs.append(audit.modal_frequency)
    return {
        "n": n,
        "c": params["c"],
        "output_len": con.m,
        "keys_sampled": params["keys"],
        "bot_keys": bots,
        "min_modal_frequency": min(modal_freqs) if modal_freqs else None,
        "mean_modal_frequency": float(np.mean(modal_freqs)) if modal_freqs else None,
    }


def cmd_sprs_qs(params: dict, seed: int) -> dict:
    if params["source"] != "prg-qs":
        raise CliUsageError("only --from prg-qs is available")
    stride = 1000  # key i samples on child(i) and evaluates on child(stride + i), child(2 * stride + i)
    if _count(params, "keys") > stride:
        raise CliUsageError(f"--keys must be at most {stride}, or key sampling reuses an evaluation stream")
    n = params["n"]
    N = params["N"]
    world = OracleWorld("bot-world", seed, n_max=n, c=params["c"])
    inner = con1_handle(Con1Params(lam=n, inner=bot_prg_handle(world, n)))
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


def _load_queries(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cmd_oracle_sim(params: dict, seed: int) -> dict:
    kind = {"flip": "flip-world", "bot": "bot-world", "sampler": "sampler-world"}.get(
        params["world"]
    )
    if kind is None:
        raise CliUsageError(f"unknown world {params['world']!r}; pick flip, bot, or sampler")
    n = params["n"]
    world = OracleWorld(kind, seed, n_max=n, c=params["c"])
    queries = _load_queries(params["queries"]) if params["queries"] else [{}] * _count(params, "draws")
    rng = SeededRng(seed, 1)
    responses = []
    for i, query in enumerate(queries):
        child = rng.child(i)
        if kind == "bot-world":
            if "x" not in query or len(query["x"]) != n:
                raise CliUsageError(f"bot-world queries need an n-bit 'x' field (n={n})")
            out = bot_oracle_eval(world, query["x"], child)
            responses.append({"query": i, "x": query["x"], "value": str(out)})
        elif kind == "sampler-world":
            x, y = sampler_oracle(world, n, child)
            responses.append({"query": i, "x": x, "y": y})
        else:
            state_bits = query.get("state", "0" * (9 * n + 1))
            if len(state_bits) != 9 * n + 1:
                raise CliUsageError(f"flip-world queries need a {9 * n + 1}-bit 'state' field")
            lead, x, y = decode_flip_index(measure_flipped(world, n, int(state_bits, 2), child), n)
            responses.append({"query": i, "lead": lead, "x": x, "y": y})
    return {"world": world.to_record(), "responses": responses}


def _prg_adversary(name: str, gen) -> AdversaryHandle:
    if name == "bruteforce":
        return bruteforce_prg_handle(gen)
    if name == "coin-flip":
        return coin_flip_adversary()
    if name == "constant-0":
        return constant_adversary(0)
    raise CliUsageError(f"unknown adversary {name!r}")


def cmd_experiment(params: dict, seed: int) -> dict:
    name = params["name"]
    rng = SeededRng(seed)
    if name == "prg":
        gen = toy_prg(params["lam"], params["s"])
        adversary = _prg_adversary(params["adversary"], gen)
        report = exp_prg(gen, adversary, params["trials"], rng)
    elif name == "bot-prg":
        world = OracleWorld("bot-world", seed, n_max=params["n"], c=params["c"])
        gen = bot_prg_handle(world, params["n"])
        if params["adversary"] == "bot-count":
            adversary = bot_count_adversary()
        elif params["adversary"] == "coin-flip":
            adversary = coin_flip_adversary()
        else:
            raise CliUsageError(f"unknown adversary {params['adversary']!r}")
        report = exp_botprg(gen, adversary, params["q"], params["trials"], rng)
    elif name == "owsg":
        if params["adversary"] == "bruteforce":
            gen = toy_owsg_haar(params["lam"], params["dim"])
            adversary = bruteforce_owsg_handle(gen)
        elif params["adversary"] == "coin-flip":
            gen = toy_owsg_basis(params["lam"])
            adversary = owsg_coin_flip_adversary()
        else:
            raise CliUsageError(f"unknown adversary {params['adversary']!r}")
        report = exp_owsg(gen, adversary, params["t"], params["trials"], rng)
    elif name == "moment":
        gen = random_phase_sprs(params["N"])
        dist = moment_distance(gen, params["t"], _count(params, "keys"), "monte-carlo", rng)
        return {"name": "moment", "N": params["N"], "t": params["t"], "keys": params["keys"], "distance": dist}
    else:
        raise CliUsageError(f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}")
    return report.to_record()


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
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--keys", type=int, default=20)
    p.add_argument("--evals", type=int, default=50)
    add_common(p)

    p = sub.add_parser("sprs-qs", help="phase states over a quantum-sampled-key generator")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--con3-c", dest="con3_c", type=float, default=4.0)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--keys", type=int, default=5)
    add_common(p)

    p = sub.add_parser("oracle-sim", help="replay a query list against a seeded world")
    p.add_argument("--world", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--queries", type=str, default=None, help="JSON-lines query file")
    p.add_argument("--draws", type=int, default=8, help="query count when no file is given")
    add_common(p)

    p = sub.add_parser("experiment", help="run one of the boxed security experiments")
    p.add_argument("--name", required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=8)
    p.add_argument("--s", type=int, default=24)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--keys", type=int, default=20000)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--adversary", type=str, default="coin-flip")
    p.add_argument("--dim", type=int, default=16)
    add_common(p)

    p = sub.add_parser("rerun", help="re-execute the config embedded in an emitted record")
    p.add_argument("--record", type=str, required=True, help="JSON-lines file; first line is replayed")
    p.add_argument("--out", type=str, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "rerun":
            with open(args.record, "r", encoding="utf-8") as fh:
                first = json.loads(fh.readline())
            config = RunConfig.from_record(first["config"])
        else:
            # every subcommand flag is a recorded param, except the run's seed and output file
            params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "seed", "out")}
            config = RunConfig(args.subcommand, params, _resolve_seed(args.seed))
        record = run_config(config)
    except (ValueError, BudgetExceededError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit(record, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
