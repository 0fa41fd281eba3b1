"""Small self-contained generators that the CLI's games and studies build.

Each is a deterministic function of (seed, key), through the keyed
derivation or the key itself, so determinism-by-key holds exactly and
every experiment that consumes them is reproducible from its seed.
"""

from __future__ import annotations

from functools import lru_cache

from .constructions import phase_state, table_slices
from .primitives import GeneratorHandle
from .qcore import MAX_TENSOR_DIM, InvalidDimensionError, MemoryBudgetError, StateVector, haar_sample
from .rng import ParameterError, SeededRng, derive_bits, derive_int, parse_bits


def toy_prg(lam: int, s: int, seed: int = 7) -> GeneratorHandle:
    """Deterministic oracle-free expanding generator {0,1}^lam -> {0,1}^s."""
    return GeneratorHandle(
        kind="prg",
        input_len=lam,
        output_len=s,
        eval=lambda key, rng=None: derive_bits(seed, "toy-prg", lam, parse_bits(key, lam, "key"), s),
        description=f"toy-prg lam={lam} s={s} seed={seed}",
    )


@lru_cache(maxsize=1)
def toy_owsg_haar(lam: int, dim: int, seed: int = 11) -> GeneratorHandle:
    """Keys map to fixed pseudo-Haar states (one per key, derived from the seed).

    A key's state depends on the key alone, so the handle keeps each state
    it builds, keyed by the key string, at most ``MAX_TENSOR_DIM**2``
    amplitudes of them: the budget of a ``candidate_states`` table.  A key
    is checked with ``parse_bits`` when its state is built, not again when
    the kept state is returned.  The states are read-only, so sharing
    one between callers is safe.  The process keeps the last handle made,
    memoised on ``(lam, dim, seed)``, so a repeated command reuses its
    states, and the CLI's memoised brute force its search table; one
    handle is all a command uses, and an older one would only hold memory.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")

    @lru_cache(maxsize=MAX_TENSOR_DIM**2 // dim)
    def state(key: str) -> StateVector:
        k = parse_bits(key, lam, "key")
        return haar_sample(dim, SeededRng(derive_int(seed, "toy-owsg-haar", lam, k, 64), 0))

    def stategen(key, rng=None) -> StateVector:
        if not isinstance(key, str):  # refused here, before the cache hashes it
            parse_bits(key, lam, "key")
        return state(key)  # a kept state's key was checked when the state was built

    return GeneratorHandle(
        kind="owsg",
        input_len=lam,
        output_len=0,
        eval=stategen,
        dim=dim,
        description=f"toy-owsg-haar lam={lam} dim={dim} seed={seed}",
    )


def toy_owsg_basis(lam: int) -> GeneratorHandle:
    """Injective generator with orthogonal outputs: key k maps to |k>, a state
    of 2^lam amplitudes, at most ``MAX_TENSOR_DIM**2``."""
    dim = 2**lam  # a fraction for lam < 0, whose key length the handle rejects
    if dim > MAX_TENSOR_DIM**2:
        raise MemoryBudgetError(f"a {lam}-bit key's state |k> has 2^{lam} amplitudes, above {MAX_TENSOR_DIM**2}")
    return GeneratorHandle(
        kind="owsg",
        input_len=lam,
        output_len=0,
        eval=lambda key, rng=None: StateVector.basis(dim, parse_bits(key, lam, "key")),
        dim=dim,
        description=f"toy-owsg-basis lam={lam}",
    )


def random_phase_sprs(N: int) -> GeneratorHandle:
    """Phase states with a truly random function: the key is the function
    table itself, N words of log2 N bits drawn fresh by qsamp."""
    if N < 2 or N & (N - 1) != 0:  # as Con3Params: words and N-th roots align
        raise ParameterError(f"N must be a power of two at desk scale, got {N}")
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
