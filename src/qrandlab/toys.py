"""Small self-contained generators used by tests, experiments, and the CLI.

All of them are deterministic functions of (seed, key) via the keyed
derivation, so determinism-by-key holds exactly and every experiment
that consumes them is reproducible from its seed.
"""

from __future__ import annotations

from .constructions import phase_state, table_slices
from .primitives import BOT, BotValue, GeneratorHandle
from .qcore import StateVector, haar_sample
from .rng import SeededRng, derive_bits, derive_int


def toy_prg(lam: int, s: int, seed: int = 7) -> GeneratorHandle:
    """Deterministic oracle-free expanding generator {0,1}^lam -> {0,1}^s."""
    return GeneratorHandle(
        kind="prg",
        input_len=lam,
        output_len=s,
        eval=lambda key, rng=None: derive_bits(seed, "toy-prg", lam, int(key, 2), s),
        description=f"toy-prg lam={lam} s={s} seed={seed}",
    )


def zero_padding_prg(lam: int, s: int) -> GeneratorHandle:
    """Identity followed by zero padding; trivially distinguishable."""
    return GeneratorHandle(
        kind="prg",
        input_len=lam,
        output_len=s,
        eval=lambda key, rng=None: key + "0" * (s - lam),
        description=f"zero-padding lam={lam} s={s}",
    )


def toy_owsg_haar(lam: int, dim: int, seed: int = 11) -> GeneratorHandle:
    """Keys map to fixed pseudo-Haar states (one per key, derived from the seed)."""

    def eval_fn(key: str, rng=None) -> StateVector:
        key_seed = derive_int(seed, "toy-owsg-haar", lam, int(key, 2), 64)
        return haar_sample(dim, SeededRng(key_seed, 0))

    return GeneratorHandle(
        kind="owsg",
        input_len=lam,
        output_len=0,
        eval=eval_fn,
        dim=dim,
        description=f"toy-owsg-haar lam={lam} dim={dim} seed={seed}",
    )


def toy_owsg_basis(lam: int) -> GeneratorHandle:
    """Injective generator with orthogonal outputs: key k maps to |k>."""
    return GeneratorHandle(
        kind="owsg",
        input_len=lam,
        output_len=0,
        eval=lambda key, rng=None: StateVector.basis(1 << lam, int(key, 2)),
        dim=1 << lam,
        description=f"toy-owsg-basis lam={lam}",
    )


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
        key_seed = derive_int(seed, "haar-keyed-sprs", d.bit_length(), int(key, 2), 64)
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


def random_phase_sprs(N: int) -> GeneratorHandle:
    """Phase states with a truly random function: the key is the function
    table itself, N words of log2 N bits drawn fresh by qsamp."""
    if N < 2 or N & (N - 1) != 0:  # as Con3Params: words and N-th roots align
        raise ValueError(f"N must be a power of two at desk scale, got {N}")
    word = N.bit_length() - 1

    def stategen(key: str, rng=None) -> StateVector:
        return phase_state(table_slices(key, N, word), N)

    return GeneratorHandle(
        kind="sprs-qs",
        input_len=N * word,
        output_len=word,
        eval=stategen,
        qsamp=lambda rng: rng.bits(N * word),
        dim=N,
        description=f"random-phase-states N={N}",
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
        eval=lambda key, rng=None: BotValue.of(derive_bits(seed, "derived-bot-prg", lam, int(key, 2), m)),
        description=f"derived-bot-prg lam={lam} m={m} seed={seed}",
    )
