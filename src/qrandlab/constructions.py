"""Executable generator constructions built on the combinators.

* Construction 1: a quantum-sampled-key generator from an abort-capable
  inner generator -- the key sampler retries until a key's outputs vote
  to a non-abort value, and evaluation returns the plurality of
  repeated inner evaluations.
* Construction 2: a quantum-sampled-key generator from a short
  pseudorandom-state generator -- the key sampler keeps a key only if
  the generated state's Born diagonal lies in the rounding good set,
  and evaluation extracts the rounded bits from the regenerated state.
* Construction 3: log-size phase states from an expanding generator --
  the generator output is read as a function table whose values become
  N-th roots of unity on the N amplitudes.
* The table construction: an expanding generator's output read as the
  complete function table of a keyed function with polynomial domain.

Desk-scale parameter relaxations never fail silently: each params
object carries a ``flags`` tuple naming every nominal coupling it
relaxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .extraction import RoundParams, extract, good_set_member
from .primitives import BOT, BotValue, GeneratorHandle, as_bot, vote, vote_non_bot
from .qcore import StateVector
from .rng import TABLE_EVAL_SEED, ParameterError, SeededRng, check_power
from .tomography import estimate_diagonal


def con1_qsamp(inner: GeneratorHandle, rng: SeededRng) -> BotValue:
    """Sample up to lam candidate keys, lam the inner key length; return the
    first whose lam inner outputs vote to a non-abort value, or abort if all
    candidates fail."""
    lam = inner.input_len
    for _ in range(lam):
        key = rng.bits(lam)
        if not vote(inner.eval_repeated(key, rng, lam)).is_bot:
            return BotValue.of(key)
    return BOT


def con1_eval(inner: GeneratorHandle, key: BotValue, rng: SeededRng) -> BotValue:
    """Plurality of lam inner evaluations; an aborted key maps to 0^m, m the
    inner output length."""
    if key.is_bot:
        return BotValue.of("0" * inner.output_len)
    lam = inner.input_len
    if len(key.payload) != lam:
        raise ParameterError(f"key must be {lam} bits, got {len(key.payload)}")
    return vote_non_bot(inner.eval_repeated(key.payload, rng, lam))


def con1_handle(inner: GeneratorHandle) -> GeneratorHandle:
    """Retry-and-vote over an abort-capable generator: lam, the inner key
    length, is also the retry and vote count, and the output length is the
    inner's."""
    if inner.kind != "bot-prg":
        raise ParameterError(f"inner must be a bot-prg, got {inner.kind}")
    return GeneratorHandle(
        kind="prg-qs",
        input_len=inner.input_len,
        output_len=inner.output_len,
        eval=lambda key, rng: con1_eval(inner, key, rng),
        qsamp=lambda rng: con1_qsamp(inner, rng),
        description=f"retry-and-vote over [{inner.description}]",
    )


@dataclass(frozen=True)
class Con2Params:
    """Good-set-filtered extraction over a state generator.

    The nominal parameter coupling (c > 24, output length ceil(lam^(c/12)))
    is checked symbolically; at desk scale the actual output length is
    the rounding width l = d^(1/6), and every relaxation is recorded in
    ``flags``.
    """

    lam: int
    c: float
    inner: GeneratorHandle
    t: int | None = None  # copies per diagonal estimate; None reads the exact diagonal
    attempts: int | None = None  # key-sampling retries; nominally lam
    round_params: RoundParams = field(init=False)
    flags: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.inner.kind != "sprs-qs":
            raise ParameterError(f"inner must be a sprs-qs, got {self.inner.kind}")
        d = self.inner.dim
        object.__setattr__(self, "round_params", RoundParams(d))  # validates the dimension shape
        if self.attempts is not None and self.attempts < 1:
            raise ParameterError("attempts must be positive")
        check_power(self.c, self.lam, self.c, "lam^c")
        flags = []
        if self.attempts is not None and self.attempts != self.lam:
            flags.append(f"key sampling retries {self.attempts} != lam {self.lam}")
        if self.c <= 24:
            flags.append(f"c={self.c} <= 24 (nominal constraint relaxed at desk scale)")
        if math.ceil(self.lam**self.c) != d:
            flags.append(
                f"d={d} != ceil(lam^c)={math.ceil(self.lam ** self.c)} (taken from inner)"
            )
        if self.m != self.m_nominal:
            flags.append(
                f"output length {self.m} (rounding width) != nominal ceil(lam^(c/12))={self.m_nominal}"
            )
        object.__setattr__(self, "flags", tuple(flags))

    @property
    def m(self) -> int:
        """Actual output length: the rounding width d^(1/6)."""
        return self.round_params.num_bits

    @property
    def m_nominal(self) -> int:
        return math.ceil(self.lam ** (self.c / 12))


def con2_qsamp(params: Con2Params, rng: SeededRng) -> BotValue:
    """Sample inner keys (nominally lam retries); keep the first whose state's
    diagonal estimate lands in the rounding good set, or abort."""
    for _ in range(params.attempts or params.lam):
        key = params.inner.qsamp(rng)
        psi = params.inner.eval(key, rng)
        diag = estimate_diagonal(psi, params.t, rng)
        if good_set_member(diag, params.round_params):
            return BotValue.of(key)
    return BOT


def con2_eval(params: Con2Params, key: BotValue, rng: SeededRng) -> BotValue:
    """Regenerate the state for the key and return its extracted bits."""
    if key.is_bot:
        return BOT
    psi = params.inner.eval(key.payload, rng)
    bits = extract(psi, params.round_params, t=params.t, rng=rng)
    return BotValue.of(bits)


def con2_handle(params: Con2Params) -> GeneratorHandle:
    return GeneratorHandle(
        kind="prg-qs",
        input_len=params.inner.input_len,
        output_len=params.m,
        eval=lambda key, rng: con2_eval(params, key, rng),
        qsamp=lambda rng: con2_qsamp(params, rng),
        description=f"good-set extraction over [{params.inner.description}]",
    )


@dataclass(frozen=True)
class Con3Params:
    """Phase-state construction over an expanding generator.

    N amplitudes, each an N-th root of unity selected by a t-bit slice
    of the inner output (t = ceil(log2 N)); N is restricted to powers
    of two at desk scale so slice values and roots align exactly.
    """

    lam: int
    c: float
    N: int
    inner: GeneratorHandle
    flags: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.N < 2 or self.N & (self.N - 1) != 0:
            raise ParameterError(f"N must be a power of two at desk scale, got {self.N}")
        if self.inner.kind not in ("prg-qs", "prg"):
            raise ParameterError(f"inner must be an expanding generator, got {self.inner.kind}")
        if self.inner.output_len < self.N * self.word_len:
            raise ParameterError(
                f"inner output {self.inner.output_len} bits cannot define a function "
                f"table of {self.N} values of {self.word_len} bits"
            )
        check_power(self.c, self.lam, 2 * self.c + 1, "lam^(2c+1)")  # bounds lam^c too
        flags = []
        if self.c <= 12:
            flags.append(f"c={self.c} <= 12 (nominal constraint relaxed at desk scale)")
        if self.N != math.ceil(self.lam**self.c):
            flags.append(f"N={self.N} != ceil(lam^c)={math.ceil(self.lam ** self.c)}")
        if self.inner.output_len <= self.lam ** (2 * self.c + 1):
            flags.append(
                f"inner output {self.inner.output_len} <= lam^(2c+1)="
                f"{self.lam ** (2 * self.c + 1):.6g} (nominal coupling relaxed)"
            )
        object.__setattr__(self, "flags", tuple(flags))

    @cached_property
    def word_len(self) -> int:
        return max(1, math.ceil(math.log2(self.N)))


def table_slices(bits: str, domain: int, word_len: int) -> list[int]:
    """Read ``bits`` as a function table: value i is the integer in the
    zero-based slice bits[i*word_len : (i+1)*word_len], MSB first."""
    if len(bits) < domain * word_len:
        raise ParameterError(f"{len(bits)} bits cannot hold {domain} x {word_len}-bit words")
    return [int(bits[i * word_len : (i + 1) * word_len], 2) for i in range(domain)]


def phase_state(f_values, N: int) -> StateVector:
    """(1/sqrt(N)) * sum_x omega_N^f(x) |x>, omega_N = exp(2*pi*i/N)."""
    f = np.asarray(f_values)
    if f.shape != (N,):
        raise ParameterError(f"need exactly {N} phase values, got shape {f.shape}")
    amps = np.exp(2j * np.pi * f / N) / math.sqrt(N)
    return StateVector(amps)


def con3_stategen(params: Con3Params, key, rng: SeededRng) -> StateVector:
    y = as_bot(params.inner.eval(key, rng))
    if y.is_bot:
        raise ValueError("inner generator aborted; no state can be generated")
    return phase_state(table_slices(y.payload, params.N, params.word_len), params.N)


def con3_handle(params: Con3Params) -> GeneratorHandle:
    return GeneratorHandle(
        kind="sprs-qs",
        input_len=params.inner.input_len,
        output_len=params.N.bit_length() - 1,
        eval=lambda key, rng: con3_stategen(params, key, rng),
        qsamp=params.inner.sample_key,
        dim=params.N,
        description=f"phase states over [{params.inner.description}]",
    )


def prfqs_from_prgqs(inner: GeneratorHandle, domain_size: int) -> GeneratorHandle:
    """The inner generator's output read as a complete keyed function table.

    Evaluation on x in [domain_size] returns the x-th word slice of the
    inner output, whose words are output_len // domain_size bits; distinct
    inputs read disjoint slices.
    """
    if domain_size < 1:
        raise ParameterError(f"domain size must be at least 1, got {domain_size}")
    word_len = inner.output_len // domain_size
    if word_len < 1:
        raise ParameterError(
            f"inner output {inner.output_len} bits cannot hold a word for each of {domain_size} inputs"
        )

    def eval_fn(key, x: int, rng: SeededRng | None = None):
        if not 0 <= x < domain_size:
            raise ParameterError(f"input {x} outside domain [0, {domain_size})")
        y = as_bot(inner.eval(key, rng if rng is not None else SeededRng(TABLE_EVAL_SEED, 0)))
        if y.is_bot:
            return BOT
        return y.payload[x * word_len : (x + 1) * word_len]

    return GeneratorHandle(
        kind="prf-qs",
        input_len=inner.input_len,
        output_len=word_len,
        eval=eval_fn,
        qsamp=inner.sample_key,
        description=f"table function over [{inner.description}]",
    )
