"""The boxed security experiments and the moment-closeness statistic.

Each experiment runs independent trials, trial i on the child rng stream
i, so a run of trials [a, b) draws exactly what those trials draw in a
longer run.  Advantage is always reported as success rate minus 1/2, with a
Wilson 95% interval.

The per-trial draw order is part of the reproducibility contract:
``key, b, (challenge randomness if b = 1), generator evaluations,
adversary`` in the distinguishing games, and ``key, copies, adversary,
verifier, guess, coin`` in the inversion game.  With a deterministic
never-aborting generator this makes the single-query abort game couple
exactly with the plain distinguishing game under a shared seed.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Optional, Sequence

import numpy as np

from .oracles import candidate_image, candidate_states
from .primitives import BotValue, GeneratorHandle, as_bot, is_bot
from .qcore import MAX_TENSOR_DIM, MemoryBudgetError, StateVector, measure_computational
from .rng import ParameterError, SeededRng, int_to_bits

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class AdversaryHandle:
    """A strategy and the name that records carry for it.

    ``decide`` receives (challenge, rng); the challenge is an s-bit
    string for the distinguishing game, a tuple of outputs for the abort
    game, and a tuple of state copies for the inversion game.  A game
    calls it once per trial, on that trial's stream.
    """

    strategy_id: str
    decide: Callable = field(compare=False)


def coin_flip_adversary() -> AdversaryHandle:
    return AdversaryHandle("coin-flip", lambda challenge, rng: rng.bit())


def constant_adversary(bit: int) -> AdversaryHandle:
    return AdversaryHandle(f"constant-{bit}", lambda challenge, rng: bit)


def bot_count_adversary() -> AdversaryHandle:
    """Guess from the abort pattern only; zero advantage by design of the game."""

    def decide(challenge: Sequence[BotValue], rng) -> int:
        return 1 if any(v.is_bot for v in challenge) else 0

    return AdversaryHandle("bot-count", decide)


def bruteforce_prg_handle(candidate: GeneratorHandle) -> AdversaryHandle:
    """Image-membership search over the candidate's whole key space; the
    image is built once, with the handle."""
    image = candidate_image(candidate)

    def decide(challenge: str, rng) -> int:
        return 0 if challenge in image else 1

    return AdversaryHandle("bruteforce-image", decide)


def _ml_scores(table: np.ndarray, copies: np.ndarray) -> np.ndarray:
    """Product over one trial's t x dim ``copies`` c of |<k|c>|^2 for each row k of
    ``table``, which is not copied: the copies are conjugated instead, and
    |<k|c>| is |conj <k|c>| bit for bit."""
    weights = np.abs(table @ copies.conj().T) ** 2
    scores = weights[:, 0]
    for column in weights.T[1:]:  # left to right, as np.prod multiplies
        scores = scores * column
    return scores


_ANSWER_BUDGET = 1 << 15  # amplitudes of challenges whose answers a handle keeps


def bruteforce_owsg_handle(gen: GeneratorHandle) -> AdversaryHandle:
    """An amplitude oracle: key search that reads the copies' amplitudes.

    No quantum adversary can read amplitudes, so this is not an attack
    but an upper bound that no t-copy adversary reaches.  It scores every
    key k by the product over copies of |<state_k|copy>|^2 and returns the
    first best key; the copies are identical vectors, so the score is a
    power of one overlap and t cannot change the guess.  The handle
    builds its table of candidate states once, with ``candidate_states``;
    ``_ml_scores`` reads that table with no per-request copy.

    The guess is a pure function of the copies, so the handle also keeps
    it, keyed on the bytes of the trial's stacked t x dim copies, up to
    ``_ANSWER_BUDGET`` amplitudes of stored challenges; a repeated
    challenge is answered from there, and past the budget a challenge is
    scored without being stored.  The strategy id stays ``bruteforce-ml``,
    the name that records carry.
    """
    table = candidate_states(gen)
    answers: dict[bytes, str] = {}
    stored = 0  # bytes of the stored challenges

    def decide(copies: Sequence[StateVector], rng) -> str:
        nonlocal stored
        if not copies:
            raise ParameterError("need at least one copy")
        stack = np.array([copy.amplitudes for copy in copies])
        key = stack.tobytes()
        guess = answers.get(key)
        if guess is None:
            guess = int_to_bits(int(_ml_scores(table, stack).argmax()), gen.input_len)  # the first best key
            if stored + len(key) <= stack.itemsize * _ANSWER_BUDGET:
                answers[key] = guess
                stored += len(key)
        return guess

    return AdversaryHandle("bruteforce-ml", decide)


def owsg_coin_flip_adversary() -> AdversaryHandle:
    """Null strategy for the inversion game: measure the first copy to read
    off a key, then on a fair coin either return it or flip its last bit.

    Against an injective orthogonal-output generator the final
    verification succeeds exactly half the time, which is the Bernoulli
    null the calibration needs.
    """

    def decide(copies: Sequence[StateVector], rng) -> str:
        first = copies[0]
        lam = first.dim.bit_length() - 1
        key = int_to_bits(measure_computational(first, rng), lam)
        if rng.bit():
            return key
        return key[:-1] + ("1" if key[-1] == "0" else "0")

    return AdversaryHandle("coin-flip", decide)


def advantage_ci(successes: int, trials: int) -> tuple[float, tuple[float, float]]:
    """Wilson 95% interval for the success probability, shifted by -1/2."""
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ParameterError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return p - 0.5, (center - half - 0.5, center + half - 0.5)


def _run_trials(
    name: str,
    gen: GeneratorHandle,
    adversary: AdversaryHandle,
    trials: int,
    rng: SeededRng,
    first_trial: int,
    play: Callable[[SeededRng], bool],
    **game_params,
) -> dict:
    """The one trial loop: ``play(trial)`` plays trial i whole on stream
    ``rng.child(i)`` and returns whether the adversary won.  Returns the
    run's record, whose advantage and Wilson interval come from
    ``advantage_ci``; the game's own parameters are recorded between the
    shared ones."""
    t0 = time.perf_counter()
    successes = 0
    for i in range(first_trial, first_trial + trials):
        successes += play(rng.child(i))
    parameters = {"generator": gen.description, "adversary": adversary.strategy_id}
    parameters.update(game_params, first_trial=first_trial)
    advantage, ci95 = advantage_ci(successes, trials)
    return {
        "name": name,
        "parameters": parameters,
        "seed": rng.seed,
        "trials": trials,
        "successes": successes,
        "advantage": advantage,
        "ci95": list(ci95),
        "wallclock_ms": (time.perf_counter() - t0) * 1e3,
    }


def _challenge_bits(value) -> str:
    value = as_bot(value)
    if value.is_bot:
        raise ValueError("generator aborted inside the distinguishing game")
    return value.payload


def exp_prg(
    gen: GeneratorHandle,
    adversary: AdversaryHandle,
    trials: int,
    rng: SeededRng,
    first_trial: int = 0,
) -> dict:
    """Distinguishing game: generator output vs uniform string.

    Keys come from the generator's own sampler when it has one,
    uniformly otherwise.
    """
    s = gen.output_len
    if s > MAX_TENSOR_DIM**2:  # a uniform challenge is drawn as s integers
        raise MemoryBudgetError(f"an s = {s} bit challenge exceeds {MAX_TENSOR_DIM**2} entries")

    def play(trial: SeededRng) -> bool:
        key = gen.sample_key(trial)
        b = trial.bit()
        y = _challenge_bits(gen.eval(key, trial)) if b == 0 else trial.bits(s)
        return adversary.decide(y, trial) == b

    return _run_trials("prg", gen, adversary, trials, rng, first_trial, play, output_len=s)


def exp_botprg(
    gen: GeneratorHandle,
    adversary: AdversaryHandle,
    q: int,
    trials: int,
    rng: SeededRng,
    first_trial: int = 0,
) -> dict:
    """Abort-aware distinguishing game with q queries per trial.

    The random branch hides abort events: each query is the abort-hiding
    combinator applied to a fresh generator evaluation and one fixed
    uniform string, so abort patterns match across branches.
    """
    if q < 1:
        raise ParameterError("need q >= 1 queries")
    m = gen.output_len
    if q * m > MAX_TENSOR_DIM**2:  # a trial holds its q outputs at once
        raise MemoryBudgetError(f"{q} queries of {m} bits exceed {MAX_TENSOR_DIM**2} entries")

    def play(trial: SeededRng) -> bool:
        key = gen.sample_key(trial)
        b = trial.bit()
        if b == 0:
            ys = tuple(as_bot(gen.eval(key, trial)) for _ in range(q))
        else:
            y = trial.bits(m)
            ys = tuple(is_bot(as_bot(gen.eval(key, trial)), y) for _ in range(q))
        return adversary.decide(ys, trial) == b

    return _run_trials("bot-prg", gen, adversary, trials, rng, first_trial, play, q=q, output_len=m)


def exp_owsg(
    gen: GeneratorHandle,
    adversary: AdversaryHandle,
    t: int,
    trials: int,
    rng: SeededRng,
    first_trial: int = 0,
) -> dict:
    """Inversion game: recover a key whose state passes projective verification.

    The final measurement is realized analytically as a Bernoulli draw
    from the exact fidelity between the guessed key's state and a
    regenerated copy.
    """
    if t < 1:
        raise ParameterError("need t >= 1 copies")
    # a trial holds its t copies, the verifier's state and the guess's state at once
    if (t + 2) * gen.dim > MAX_TENSOR_DIM**2:
        raise MemoryBudgetError(
            f"{t} copies of {gen.dim} amplitudes exceed {MAX_TENSOR_DIM**2} amplitudes"
            f" with the verifier's and the guess's states"
        )

    def play(trial: SeededRng) -> bool:
        key = trial.bits(gen.input_len)
        copies = tuple(gen.eval(key, trial) for _ in range(t))
        guess = adversary.decide(copies, trial)
        verifier_state = gen.eval(key, trial)
        prob = gen.eval(guess, trial).fidelity(verifier_state)  # bound first: the coin is the trial's last draw
        return trial.uniform() < prob

    return _run_trials("owsg", gen, adversary, trials, rng, first_trial, play, t=t)


# -- moment-closeness statistic ----------------------------------------------

_MAX_EXACT_ENUM_BITS = 16


def _moment_keys(gen: GeneratorHandle, n_keys: int, mode: str, rng: SeededRng):
    """The key count K and the function that gives key j < K: all 2^input_len
    inputs in order under ``exact-enum``, ``gen.sample_key(rng.child(j))``
    under ``monte-carlo``."""
    if mode == "exact-enum":
        if gen.input_len > _MAX_EXACT_ENUM_BITS:
            raise MemoryBudgetError(
                f"exact enumeration capped at 2^{_MAX_EXACT_ENUM_BITS} keys"
            )
        return 1 << gen.input_len, lambda j: int_to_bits(j, gen.input_len)
    if mode == "monte-carlo":
        return n_keys, lambda j: gen.sample_key(rng.child(j))
    raise ParameterError(f"mode must be 'exact-enum' or 'monte-carlo', got {mode!r}")


def _key_states(gen: GeneratorHandle, n_keys: int, key, rng: SeededRng, start: int, stop: int) -> np.ndarray:
    """Amplitudes of keys start .. stop - 1 of n_keys, one row per key, each
    key drawn here.  Key j evaluates on ``rng.child(n_keys + j)``, past the
    key-sampling streams, so a stochastic generator never replays the draws
    that produced its key."""
    rows = range(start, min(stop, n_keys))
    return np.array([gen.eval(key(j), rng.child(n_keys + j)).amplitudes for j in rows])


_MOMENT_KEY_BLOCK = 2000  # keys whose symmetric-subspace rows are formed at a time


def _moment_gramians(gen: GeneratorHandle, t: int, n_keys: int, key, rng: SeededRng):
    """Unnormalised t-copy gramian of each ``_MOMENT_KEY_BLOCK`` consecutive keys,
    whose keys are drawn with the block.

    The rows are in symmetric-subspace coordinates, which is exact since
    tensor powers live entirely in that subspace: the coordinate of
    psi^{tensor t} on a multiset m of t indices is
    sqrt(t!/prod m_i!) * prod_{i in m} psi_i.  For t = 2 these are the
    upper-triangle pairs with weights 1 and sqrt(2).
    """
    multisets = list(combinations_with_replacement(range(gen.dim), t))
    columns = np.array(multisets, dtype=np.intp).T
    weights = np.array(
        [
            math.sqrt(math.factorial(t) / math.prod(map(math.factorial, Counter(m).values())))
            for m in multisets
        ]
    )
    for start in range(0, n_keys, _MOMENT_KEY_BLOCK):
        states = _key_states(gen, n_keys, key, rng, start, start + _MOMENT_KEY_BLOCK)
        w = states[:, columns[0]]
        for column in columns[1:]:
            w = w * states[:, column]
        w = w * weights
        yield w.conj().T @ w


def moment_distance(
    gen: GeneratorHandle,
    t: int,
    n_keys: int,
    mode: str = "monte-carlo",
    rng: Optional[SeededRng] = None,
) -> float:
    """Plug-in trace distance between the generator's key-averaged t-copy
    moment and the Haar t-copy moment.

    Exact under ``exact-enum``; under ``monte-carlo`` sampling noise biases
    it upward at few keys: random-function phase states at N = 64, t = 2
    and 100 000 keys read 0.0672 against the closed form 63/4160 = 0.0151.
    ``moment_hs2`` estimates the squared Hilbert-Schmidt distance without bias.
    """
    if t < 1:
        raise ParameterError("need t >= 1 copies")
    if mode == "monte-carlo" and n_keys < 1:
        raise ParameterError(f"need at least 1 key, got {n_keys}")
    dim = gen.dim
    if dim**t > MAX_TENSOR_DIM:
        raise MemoryBudgetError(f"dim**t = {dim ** t} exceeds the tensor budget")
    if rng is None:
        rng = SeededRng(0)
    n_keys, key = _moment_keys(gen, n_keys, mode, rng)
    size = math.comb(dim + t - 1, t)
    avg = np.zeros((size, size), dtype=complex)
    for gram in _moment_gramians(gen, t, n_keys, key, rng):
        avg += gram  # in place: one accumulator, not one matrix per block
    avg /= n_keys
    avg -= np.eye(size) / size
    return float(0.5 * np.abs(np.linalg.eigvalsh(avg)).sum())


_HS2_ROW_BLOCK = 128  # overlap rows formed at a time by moment_hs2


def moment_hs2(
    gen: GeneratorHandle, t: int, n_keys: int, rng: SeededRng
) -> tuple[float, tuple[float, float]]:
    """Unbiased squared Hilbert-Schmidt distance from the generator's key-averaged
    t-copy moment to the Haar one, with a 95% leave-one-key-out jackknife interval.

    With S the sum of |<psi_k|psi_l>|^{2t} over ordered pairs of the K keys,
    S / (K(K-1)) - 1/C(dim+t-1, t) is unbiased.  The pair overlaps are formed
    a row block at a time, so no C x C moment is built and only the K x dim
    states are capped.  Leaving key k out removes its row sum r_k twice from
    S, so the replicates need no resampling.  Keys and evaluation streams are
    those of ``moment_distance``; random-function phase states at t = 2 have
    HS^2 = (N-1)/(N^3 (N+1)).
    """
    if t < 1:
        raise ParameterError("need t >= 1 copies")
    if n_keys < 3:
        raise ParameterError(f"the jackknife needs at least 3 keys, got {n_keys}")
    if n_keys * gen.dim > MAX_TENSOR_DIM**2:
        raise MemoryBudgetError(f"{n_keys} x {gen.dim} states exceed {MAX_TENSOR_DIM**2} amplitudes")
    n_keys, key = _moment_keys(gen, n_keys, "monte-carlo", rng)
    states = _key_states(gen, n_keys, key, rng, 0, n_keys)
    rows = np.zeros(n_keys)
    for start in range(0, n_keys, _HS2_ROW_BLOCK):
        # pairs k < l only: each pair adds to the row sums of both keys
        overlaps = states[start : start + _HS2_ROW_BLOCK].conj() @ states[start:].T
        powers = (overlaps.real**2 + overlaps.imag**2) ** t
        size = len(powers)
        powers[:, :size] = np.triu(powers[:, :size], 1)
        rows[start : start + size] += powers.sum(axis=1)
        rows[start:] += powers.sum(axis=0)
    total = float(rows.sum())
    inv_c = 1 / math.comb(gen.dim + t - 1, t)
    k = n_keys
    estimate = total / (k * (k - 1)) - inv_c
    replicates = (total - 2 * rows) / ((k - 1) * (k - 2)) - inv_c
    half = Z95 * math.sqrt((k - 1) / k * float(np.sum((replicates - replicates.mean()) ** 2)))
    return estimate, (estimate - half, estimate + half)
