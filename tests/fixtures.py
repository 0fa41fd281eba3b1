"""Generators and an adversary that only the tests build; no CLI command builds these fixtures."""

from __future__ import annotations

from qrandlab.experiments import AdversaryHandle
from qrandlab.primitives import BOT, BotValue, GeneratorHandle
from qrandlab.qcore import StateVector, haar_sample
from qrandlab.rng import SeededRng, derive_bits, derive_int, parse_bits


def zero_padding_prg(lam: int, s: int) -> GeneratorHandle:
    """Identity followed by zero padding; trivially distinguishable."""
    return GeneratorHandle(
        kind="prg",
        input_len=lam,
        output_len=s,
        eval=lambda key, rng=None: key + "0" * (s - lam),
        description=f"zero-padding lam={lam} s={s}",
    )


def padding_check_adversary(lam: int) -> AdversaryHandle:
    """Perfect distinguisher for the zero-padding generator."""

    def decide(challenge: str, rng) -> int:
        return 0 if set(challenge[lam:]) <= {"0"} else 1

    return AdversaryHandle("padding-check", decide)


def constant_owsg(lam: int, dim: int) -> GeneratorHandle:
    """Every key maps to the same state."""
    return GeneratorHandle(
        kind="owsg",
        input_len=lam,
        output_len=0,
        eval=lambda key, rng=None: StateVector.basis(dim, 0),
        dim=dim,
        description=f"constant-owsg lam={lam} dim={dim}",
    )


def haar_keyed_sprs(d: int, key_len: int = 32, seed: int = 13) -> GeneratorHandle:
    """Toy short-pseudorandom-state generator: uniform keys, one fixed
    pseudo-Haar state per key (exactly deterministic by key)."""

    def stategen(key: str, rng=None) -> StateVector:
        key_seed = derive_int(seed, "haar-keyed-sprs", d.bit_length(), parse_bits(key, key_len, "key"), 64)
        return haar_sample(d, SeededRng(key_seed, 0))

    return GeneratorHandle(
        kind="sprs-qs",
        input_len=key_len,
        output_len=d.bit_length() - 1,
        eval=stategen,
        qsamp=lambda rng: rng.bits(key_len),
        dim=d,
        description=f"haar-keyed-sprs d={d} seed={seed}",
    )


def uniform_state_sprs(d: int, key_len: int = 8) -> GeneratorHandle:
    """Degenerate state generator: every key yields the uniform superposition."""

    def stategen(key, rng=None) -> StateVector:
        return StateVector.normalized([1.0] * d)

    return GeneratorHandle(
        kind="sprs-qs",
        input_len=key_len,
        output_len=d.bit_length() - 1,
        eval=stategen,
        qsamp=lambda rng: rng.bits(key_len),
        dim=d,
        description=f"uniform-state-sprs d={d}",
    )


def haar_sprs_reference(d: int, key_len: int = 16) -> GeneratorHandle:
    """The Haar sampler itself as a state generator (fresh state per call).

    Deliberately non-deterministic; used as the ideal reference in
    moment studies.
    """
    return GeneratorHandle(
        kind="sprs-qs",
        input_len=key_len,
        output_len=d.bit_length() - 1,
        eval=lambda key, rng: haar_sample(d, rng),
        qsamp=lambda rng: rng.bits(key_len),
        dim=d,
        description=f"haar-reference d={d}",
    )


def constant_state_sprs(d: int, index: int = 0, key_len: int = 8) -> GeneratorHandle:
    """Every key yields the same basis state; maximally non-Haar."""
    return GeneratorHandle(
        kind="sprs-qs",
        input_len=key_len,
        output_len=d.bit_length() - 1,
        eval=lambda key, rng=None: StateVector.basis(d, index),
        qsamp=lambda rng: rng.bits(key_len),
        dim=d,
        description=f"constant-state-sprs d={d} index={index}",
    )


def constant_bot_prg(lam: int, value: str) -> GeneratorHandle:
    """Abort-capable generator that always returns the same value."""
    out = BotValue.of(value)
    return GeneratorHandle(
        kind="bot-prg",
        input_len=lam,
        output_len=len(value),
        eval=lambda key, rng=None: out,
        description=f"constant-bot-prg lam={lam}",
    )


def fair_coin_bot_prg(lam: int, m: int) -> GeneratorHandle:
    """Returns one of two fixed values with probability 1/2 each."""
    values = (BotValue.of("0" * m), BotValue.of("1" * m))
    return GeneratorHandle(
        kind="bot-prg",
        input_len=lam,
        output_len=m,
        eval=lambda key, rng: values[rng.bit()],
        description=f"fair-coin lam={lam} m={m}",
    )


def always_bot_prg(lam: int, m: int) -> GeneratorHandle:
    """Aborts on every evaluation."""
    return GeneratorHandle(
        kind="bot-prg",
        input_len=lam,
        output_len=m,
        eval=lambda key, rng=None: BOT,
        description=f"always-bot lam={lam} m={m}",
    )


def derived_bot_prg(lam: int, m: int, seed: int = 17) -> GeneratorHandle:
    """Deterministic, never-aborting abort-capable generator."""
    return GeneratorHandle(
        kind="bot-prg",
        input_len=lam,
        output_len=m,
        eval=lambda key, rng=None: BotValue.of(
            derive_bits(seed, "derived-bot-prg", lam, parse_bits(key, lam, "key"), m)
        ),
        description=f"derived-bot-prg lam={lam} m={m} seed={seed}",
    )
