"""The three separation-oracle worlds and the brute-force search tables.

A world is a seed plus a kind; every function the world exposes is
derived from the seed by the keyed SHA-256 derivation in ``rng``, so
two runs (or two implementations) with the same seed see bit-identical
worlds.  O_n, P_n and Q_n values are derived lazily, one input at a
time.  The module keeps one exponential table, the last bot world's
bad-input mask (2^n booleans, n <= 20); the brute-force search tables
below are built afresh on each call and kept by the caller.

Kinds:

* ``flip-world``  -- random O_n: n -> 8n bits and P_n: 2n -> n bits; the
  swap unitary exchanges the all-zeros basis state with the uniform
  superposition over (1, x, O_n(x)); the verify/eval channel maps
  (x, y, a) to P_n(x, a) when O_n(x) = y and aborts otherwise.
* ``bot-world``   -- a permutation P_n on n bits marks a 2^-w fraction
  of inputs as bad: x is bad when P_n(x) falls in the all-zeros
  w-prefix, that is P_n(x) < 2^(n-w).  Bad inputs abort with probability
  Q_n(x)/2^n, good inputs evaluate to O_n(x) deterministically.  P_n is
  the seeded Fisher-Yates shuffle of ``rng``; the oracle reads only which
  inputs are bad, so the world resolves only where the 2^(n-w) values
  below the prefix bound land (``fisher_yates_positions``), never the
  whole table.
* ``sampler-world`` -- like flip-world but O_n: n -> n bits and the key
  sampler is classical: each call returns a fresh uniform (x, O_n(x)).

The brute-force search tables realize, at toy key sizes, the exhaustive
attacks that an unbounded search oracle would mount: image membership
for generators and an amplitude oracle for state generators.  Their
key-space caps are the one bound on that search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .primitives import BOT, BotValue, GeneratorHandle, as_bot
from .qcore import MAX_TENSOR_DIM, MemoryBudgetError, sample_index
from .rng import (
    IMAGE_SEARCH_SEED,
    OWSG_SEARCH_SEED,
    ParameterError,
    SeededRng,
    check_power,
    derive_int,
    fisher_yates_positions,
    int_to_bits,
    parse_bits,
)

WORLD_KINDS = ("flip-world", "bot-world", "sampler-world")
DERIVATION_ID = "sha256ctr/fisher-yates/v1"

# Exhaustive stand-ins for an unbounded search oracle stay honest only
# while brute force is actually exhaustive; cap the key spaces.
MAX_PRG_KEY_BITS = 20
MAX_OWSG_KEY_BITS = 16

# exhaustive 2^n-entry tables (the good set, the flipped support) stop here
_MAX_ENUM_N = 20


class WrongWorldKindError(ParameterError):
    pass


class KeySpaceTooLargeError(ParameterError):
    pass


@dataclass(frozen=True)
class BotOracleParams:
    """Abort-oracle shape at one input length: error rate mu = n^-c and
    the bad-prefix width w, the smallest integer with 2^-w <= mu/4."""

    n: int
    c: float

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if self.c <= 0:
            raise ParameterError(f"c must be positive, got {self.c}")
        check_power(self.c, self.n, -self.c, "mu = n^-c")
        if self.w > self.n:
            raise ParameterError(
                f"bad-prefix width w={self.w} exceeds n={self.n}; mu={self.mu} is too small"
            )

    @property
    def mu(self) -> float:
        return self.n ** (-self.c)

    @property
    def w(self) -> int:
        w = math.ceil(math.log2(4 / self.mu))
        # log2 can round up onto an integer: 32^-0.4 is 0.24999999999999997 and
        # log2(4 / mu) comes out 4.0, one ulp short of the width 2^-w <= mu/4 needs
        return w + 1 if 2.0**-w > self.mu / 4 else w

    @property
    def m(self) -> int:
        """Output length; any polynomial > n works, fixed here to 2n."""
        return 2 * self.n


@dataclass(frozen=True)
class OracleWorld:
    """Seed-derived oracle family; immutable and shareable.

    Per-call randomness (the abort coin, the sampler's fresh x) comes
    from the caller's rng, never from the world, so trials parallelize
    deterministically.
    """

    kind: str
    seed: int
    n_max: int
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in WORLD_KINDS:
            raise ParameterError(f"unknown world kind {self.kind!r}")
        if self.n_max < 2:
            raise ParameterError(f"n_max must be >= 2, got {self.n_max}")
        if self.kind == "bot-world":  # an invalid (n_max, c) fails here, not at the first query
            self.bot_params(self.n_max)

    def _check_n(self, n: int) -> None:
        if not 2 <= n <= self.n_max:
            raise ParameterError(f"n={n} outside this world's range [2, {self.n_max}]")

    # -- derived functions ------------------------------------------------

    def o_output_len(self, n: int) -> int:
        if self.kind == "flip-world":
            return 8 * n
        if self.kind == "sampler-world":
            return n
        return self.bot_params(n).m

    def o_value(self, n: int, x: int) -> int:
        self._check_n(n)
        return derive_int(self.seed, f"{self.kind}/O", n, x, self.o_output_len(n))

    def p_value(self, n: int, xa: int) -> int:
        """P_n: 2n -> n bits for flip/sampler worlds."""
        self._check_n(n)
        if self.kind == "bot-world":
            raise WrongWorldKindError("bot-world's P_n is a permutation; use bad_inputs()")
        return derive_int(self.seed, f"{self.kind}/P", n, xa, n)

    def q_value(self, n: int, x: int) -> int:
        self._check_n(n)
        if self.kind != "bot-world":
            raise WrongWorldKindError(f"{self.kind} has no Q_n")
        return derive_int(self.seed, f"{self.kind}/Q", n, x, n)

    def bad_inputs(self, n: int) -> np.ndarray:
        """The read-only 2^n-entry bool mask of the bad inputs x, those with P_n(x) < 2^(n-w)."""
        self._check_n(n)
        if self.kind != "bot-world":
            raise WrongWorldKindError(f"{self.kind} has no bad-input mask")
        w = self.bot_params(n).w
        if n > _MAX_ENUM_N:
            raise MemoryBudgetError(f"the 2^{n}-entry bad-input mask is capped at n <= {_MAX_ENUM_N}")
        return _bad_input_mask(self.seed, n, w)

    def bot_params(self, n: int) -> BotOracleParams:
        if self.kind != "bot-world":
            raise WrongWorldKindError(f"{self.kind} has no abort parameters")
        return _bot_params(n, self.c)

    # -- serialization -----------------------------------------------------

    def to_record(self) -> dict:
        rec = {
            "world-kind": self.kind,
            "seed": self.seed,
            "n-max": self.n_max,
            "derivation-id": DERIVATION_ID,
        }
        if self.kind == "bot-world":
            rec["c"] = self.c
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "OracleWorld":
        if rec.get("derivation-id", DERIVATION_ID) != DERIVATION_ID:
            raise ParameterError(f"unsupported derivation-id {rec.get('derivation-id')!r}")
        return cls(
            kind=rec["world-kind"],
            seed=rec["seed"],
            n_max=rec["n-max"],
            c=rec.get("c", 1.0),
        )


@lru_cache(maxsize=64)
def _bot_params(n: int, c: float) -> BotOracleParams:
    # validated once per shape; a failed validation is not cached and re-raises
    return BotOracleParams(n, c)


# The bad-input mask is the one world function held in memory; O_n, P_n
# and Q_n values are hashed again on each lookup, at a few microseconds
# each.  A command queries one world at one n, so one mask (1 MB at
# n = 20) is all a run reuses; an older world's mask would only hold memory.
@lru_cache(maxsize=1)
def _bad_input_mask(seed: int, n: int, w: int) -> np.ndarray:
    mask = np.zeros(1 << n, dtype=bool)
    mask[fisher_yates_positions(seed, "bot-world/P", n, 1 << (n - w))] = True
    mask.setflags(write=False)
    return mask


# -- bot-world ---------------------------------------------------------------


def bot_oracle_eval(world: OracleWorld, x: str, rng: SeededRng) -> BotValue:
    """One abort-oracle query: the k = 1 batch, whose one draw is ``rng.uniform()``."""
    return bot_oracle_eval_many(world, x, rng, 1)[0]


def bot_oracle_eval_many(world: OracleWorld, x: str, rng: SeededRng, k: int) -> list[BotValue]:
    """k abort-oracle queries on the n-bit input x, in sequence on rng.

    A good x (P_n(x) outside the all-zeros w-prefix) returns O_n(x) and
    draws nothing.  A bad x aborts each query with probability Q_n(x)/2^n
    on k uniforms drawn in one call: on Philox, k ``uniform()`` draws.
    """
    if world.kind != "bot-world":
        raise WrongWorldKindError(f"bot_oracle_eval needs a bot-world, got {world.kind}")
    if k < 0:
        raise ParameterError(f"query count must be non-negative, got {k}")
    xi = parse_bits(x, name="x")
    n = len(x)
    params = world.bot_params(n)
    value = BotValue.of(int_to_bits(world.o_value(n, xi), params.m))
    if not world.bad_inputs(n)[xi]:
        return [value] * k
    p_x = world.q_value(n, xi) / (1 << n)
    return [BOT if u < p_x else value for u in rng.uniforms(k).tolist()]


def bot_oracle_good_set(world: OracleWorld, n: int) -> set[str]:
    """Exact good set by exhaustive enumeration (n <= 20, as the bad-input mask)."""
    if world.kind != "bot-world":
        raise WrongWorldKindError(f"good set needs a bot-world, got {world.kind}")
    good = np.flatnonzero(~world.bad_inputs(n))
    return {int_to_bits(int(x), n) for x in good}


def bot_prg_handle(world: OracleWorld, n: int) -> GeneratorHandle:
    """The abort oracle packaged as an abort-capable generator on n-bit keys."""
    params = world.bot_params(n)
    return GeneratorHandle(
        kind="bot-prg",
        input_len=n,
        output_len=params.m,
        eval=lambda key, rng: bot_oracle_eval(world, key, rng),
        eval_many=lambda key, rng, k: bot_oracle_eval_many(world, key, rng, k),
        description=f"bot-world seed={world.seed} n={n}",
    )


# -- flip-world --------------------------------------------------------------


def flip_state_dim(n: int) -> int:
    return 1 << (9 * n + 1)


def _flip_index(n: int, x: int, y: int) -> int:
    return (1 << (9 * n)) | (x << (8 * n)) | y


def decode_flip_index(index: int, n: int) -> tuple[int, str, str]:
    """Split a 9n+1 bit basis index into (leading bit, x, y)."""
    lead = index >> (9 * n)
    x = (index >> (8 * n)) & ((1 << n) - 1)
    y = index & ((1 << (8 * n)) - 1)
    return lead, int_to_bits(x, n), int_to_bits(y, 8 * n)


def measure_flipped(world: OracleWorld, n: int, basis_index: int, rng: SeededRng) -> int:
    """Measure the swap unitary F applied to the basis state |basis_index>.

    F = I - dd^dag with d = |0...0> - target, where the target is the
    uniform superposition over (1, x, O_n(x)) with amplitude 2^(-n/2).
    F|s> is sparse, so it is written in closed form:

    * s = 0 gives the target, in x order;
    * s on the target, F|s> = |s> + 2^(-n/2) (|0...0> - target), gives
      index 0 plus the target;
    * any other s is orthogonal to d and is left as it is.

    The amplitudes are the float values the dense rank-1 update produces,
    and ``sample_index`` draws one uniform(), so the outcome and the
    stream match measuring the dense 2^(9n+1)-amplitude state.  A query
    derives at most two O_n values.
    """
    if world.kind != "flip-world":
        raise WrongWorldKindError(f"measure_flipped needs a flip-world, got {world.kind}")
    world._check_n(n)
    if n > _MAX_ENUM_N:
        raise MemoryBudgetError(f"flipped support has 2^{n} + 1 outcomes; capped at n <= {_MAX_ENUM_N}")
    if not 0 <= basis_index < flip_state_dim(n):
        raise ParameterError(f"basis index {basis_index} outside [0, 2^{9 * n + 1})")
    amp = 2.0 ** (-n / 2)
    lead = basis_index >> (9 * n)
    x0 = (basis_index >> (8 * n)) & ((1 << n) - 1)
    if basis_index == 0:
        head, amps = 0, np.full(1 << n, amp, dtype=complex)
    elif lead == 1 and world.o_value(n, x0) == basis_index & ((1 << (8 * n)) - 1):
        head, amps = 1, np.full(1 + (1 << n), -amp * amp, dtype=complex)
        amps[0] = amp
        amps[1 + x0] = 1 - amp * amp
    else:
        rng.uniform()  # the outcome is certain, but the measurement still draws
        return basis_index
    x = sample_index(np.abs(amps) ** 2, rng) - head
    return 0 if x < 0 else _flip_index(n, x, world.o_value(n, x))


# -- verify/eval channel (flip and sampler worlds) ---------------------------


def verify_eval_oracle(world: OracleWorld, x: str, y: str, a: str) -> BotValue:
    """Return P_n(x, a) if O_n(x) = y, abort otherwise."""
    if world.kind not in ("flip-world", "sampler-world"):
        raise WrongWorldKindError(f"verify/eval channel undefined for {world.kind}")
    xi = parse_bits(x, name="x")
    n = len(x)
    yi = parse_bits(y, world.o_output_len(n), name="y")
    ai = parse_bits(a, n, name="a")
    if world.o_value(n, xi) != yi:
        return BOT
    xa = (xi << n) | ai
    return BotValue.of(int_to_bits(world.p_value(n, xa), n))


# -- sampler-world -----------------------------------------------------------


def sampler_oracle(world: OracleWorld, n: int, rng: SeededRng) -> tuple[str, str]:
    """Fresh uniform x paired with O_n(x); classical output."""
    if world.kind != "sampler-world":
        raise WrongWorldKindError(f"sampler_oracle needs a sampler-world, got {world.kind}")
    world._check_n(n)
    if n > 63:  # numpy draws integers below 2^63 only
        raise ParameterError(f"the sampler world draws x below 2^63, so n must be at most 63, got {n}")
    x = int(rng.integers(0, 1 << n))
    return int_to_bits(x, n), int_to_bits(world.o_value(n, x), n)


# -- the keyed-function generator over a world --------------------------------


def prfqs_from_world(world: OracleWorld, n: int) -> GeneratorHandle:
    """Keyed pseudorandom function backed by a flip or sampler world.

    Key sampling measures the world's key channel to obtain (x, O_n(x)):
    a flip world's key is ``measure_flipped`` of the all-zeros state
    (so n <= 20), a sampler world's is one ``sampler_oracle`` call.
    Evaluation on input a runs the verify/eval channel, which equals
    P_n(x, a) for any honestly sampled key -- exactly deterministic,
    since the same key is reused across evaluations.
    """
    key_channel = {
        "flip-world": lambda world, n, rng: decode_flip_index(measure_flipped(world, n, 0, rng), n)[1:],
        "sampler-world": sampler_oracle,
    }.get(world.kind)
    if key_channel is None:
        raise WrongWorldKindError(f"no keyed-function construction over {world.kind}")

    y_len = world.o_output_len(n)

    def eval_fn(key: str, a: str, rng: SeededRng | None = None) -> BotValue:
        if len(key) != n + y_len:
            raise ParameterError(f"key must be {n + y_len} bits, got {len(key)}")
        return verify_eval_oracle(world, key[:n], key[n:], a)

    return GeneratorHandle(
        kind="prf-qs",
        input_len=n + y_len,
        output_len=n,
        eval=eval_fn,
        qsamp=lambda rng: "".join(key_channel(world, n, rng)),
        description=f"{world.kind} seed={world.seed} n={n}",
    )


# -- brute-force search tables (exhaustive search stand-ins) -----------------


def candidate_image(candidate: GeneratorHandle) -> set[str]:
    """Non-abort outputs of an oracle-free generator over its whole key space.

    Key k is evaluated once, on the stream (IMAGE_SEARCH_SEED, k << 8).
    """
    if candidate.input_len > MAX_PRG_KEY_BITS:
        raise KeySpaceTooLargeError(
            f"key space 2^{candidate.input_len} exceeds the 2^{MAX_PRG_KEY_BITS} search budget"
        )
    if candidate.output_len << candidate.input_len > 16 * MAX_TENSOR_DIM**2:
        raise MemoryBudgetError(
            f"2^{candidate.input_len} outputs of {candidate.output_len} bits exceed {16 * MAX_TENSOR_DIM**2} "
            "characters, the bytes of the largest candidate_states table"
        )
    image = set()
    for k in range(1 << candidate.input_len):
        key = int_to_bits(k, candidate.input_len)
        y = as_bot(candidate.eval(key, SeededRng(IMAGE_SEARCH_SEED, k << 8)))
        if not y.is_bot:
            image.add(y.payload)
    return image


def candidate_states(gen: GeneratorHandle) -> np.ndarray:
    """Amplitudes of a state generator over its whole key space, one row per key.

    Key k is evaluated once, on the stream (OWSG_SEARCH_SEED, k); the
    result is a read-only 2^lambda x dim array, which the caller keeps.
    """
    if gen.kind != "owsg":
        raise ParameterError(f"expected an owsg handle, got {gen.kind}")
    if gen.input_len > MAX_OWSG_KEY_BITS:
        raise KeySpaceTooLargeError(
            f"key space 2^{gen.input_len} exceeds the 2^{MAX_OWSG_KEY_BITS} search budget"
        )
    if gen.dim << gen.input_len > MAX_TENSOR_DIM**2:
        raise MemoryBudgetError(f"2^{gen.input_len} x {gen.dim} table exceeds {MAX_TENSOR_DIM**2} amplitudes")
    keys = range(1 << gen.input_len)
    states = (gen.eval(int_to_bits(k, gen.input_len), SeededRng(OWSG_SEARCH_SEED, k)) for k in keys)
    table = np.array([state.amplitudes for state in states])
    table.setflags(write=False)
    return table
