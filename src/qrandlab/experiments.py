"""The boxed security experiments and the moment-closeness statistic.

Each experiment runs independent trials, each on its own child rng
stream, so a run can be sharded and merged without changing a single
draw.  Advantage is always reported as success rate minus 1/2, with a
Wilson 95% interval.

The per-trial draw order is part of the reproducibility contract:
``key, b, (challenge randomness if b = 1), generator evaluations,
adversary``.  With a deterministic never-aborting generator this makes
the single-query abort game couple exactly with the plain
distinguishing game under a shared seed.
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
from .rng import SeededRng, int_to_bits

Z95 = 1.959963984540054  # two-sided 95% normal quantile


class BudgetExceededError(RuntimeError):
    pass


class CallBudget:
    """Counts an adversary's oracle/generator calls against its declared budget."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"adversary exceeded its declared budget of {self.limit} calls"
            )


@dataclass(frozen=True)
class AdversaryHandle:
    """A strategy plus its declared work budget.

    ``decide`` receives (challenge, budget, rng); the challenge is an
    s-bit string for the distinguishing game, a tuple of outputs for
    the abort game, and a tuple of state copies for the inversion game.
    """

    strategy_id: str
    work_budget: int
    decide: Callable = field(compare=False)


def coin_flip_adversary() -> AdversaryHandle:
    return AdversaryHandle("coin-flip", 0, lambda challenge, budget, rng: rng.bit())


def constant_adversary(bit: int) -> AdversaryHandle:
    return AdversaryHandle(f"constant-{bit}", 0, lambda challenge, budget, rng: bit)


def padding_check_adversary(lam: int) -> AdversaryHandle:
    """Perfect distinguisher for the zero-padding generator."""

    def decide(challenge: str, budget, rng) -> int:
        return 0 if set(challenge[lam:]) <= {"0"} else 1

    return AdversaryHandle("padding-check", 0, decide)


def bot_count_adversary() -> AdversaryHandle:
    """Guess from the abort pattern only; zero advantage by design of the game."""

    def decide(challenge: Sequence[BotValue], budget, rng) -> int:
        return 1 if any(v.is_bot for v in challenge) else 0

    return AdversaryHandle("bot-count", 0, decide)


def bruteforce_prg_handle(candidate: GeneratorHandle) -> AdversaryHandle:
    """Image-membership search over the candidate's whole key space.

    The image is built once, with the handle; each decision is still
    charged the whole search, since the budget models the search oracle.
    """
    image = candidate_image(candidate)

    def decide(challenge: str, budget: CallBudget, rng) -> int:
        budget.charge(1 << candidate.input_len)
        return 0 if challenge in image else 1

    return AdversaryHandle("bruteforce-image", 1 << 20, decide)


def bruteforce_owsg_handle(gen: GeneratorHandle) -> AdversaryHandle:
    """Maximum-likelihood key search over the generator's whole key space.

    The candidate states are built once, with the handle.  Each decision
    is charged the whole search, scores every key k by the product over
    copies of |<state_k|copy>|^2 and returns the first best key.
    """
    conj_states = candidate_states(gen).conj()

    def decide(copies: Sequence[StateVector], budget: CallBudget, rng) -> str:
        budget.charge(1 << gen.input_len)
        if not copies:
            raise ValueError("need at least one copy")
        overlaps = conj_states @ np.array([copy.amplitudes for copy in copies]).T
        scores = np.prod(np.abs(overlaps) ** 2, axis=1)
        return int_to_bits(int(np.argmax(scores)), gen.input_len)

    return AdversaryHandle("bruteforce-ml", 1 << 20, decide)


def owsg_coin_flip_adversary() -> AdversaryHandle:
    """Null strategy for the inversion game: measure the first copy to read
    off a key, then on a fair coin either return it or flip its last bit.

    Against an injective orthogonal-output generator the final
    verification succeeds exactly half the time, which is the Bernoulli
    null the calibration needs.
    """

    def decide(copies: Sequence[StateVector], budget, rng) -> str:
        first = copies[0]
        lam = first.dim.bit_length() - 1
        key = int_to_bits(measure_computational(first, rng), lam)
        if rng.bit():
            return key
        return key[:-1] + ("1" if key[-1] == "0" else "0")

    return AdversaryHandle("coin-flip", 0, decide)


@dataclass(frozen=True)
class ExperimentReport:
    """One run's tally; ``advantage`` and ``ci95`` are derived from it."""

    name: str
    parameters: dict
    seed: int
    trials: int
    successes: int
    advantage: float = field(init=False)
    ci95: tuple[float, float] = field(init=False)
    wallclock_ms: float

    def __post_init__(self):
        adv, ci = advantage_ci(self.successes, self.trials)
        object.__setattr__(self, "advantage", adv)
        object.__setattr__(self, "ci95", ci)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "seed": self.seed,
            "trials": self.trials,
            "successes": self.successes,
            "advantage": self.advantage,
            "ci95": list(self.ci95),
            "wallclock_ms": self.wallclock_ms,
        }


def advantage_ci(successes: int, trials: int) -> tuple[float, tuple[float, float]]:
    """Wilson 95% interval for the success probability, shifted by -1/2."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return p - 0.5, (center - half - 0.5, center + half - 0.5)


def merge_reports(reports: Sequence[ExperimentReport]) -> ExperimentReport:
    """Combine shards of one experiment by summing successes and trials.

    Associative and order-independent; shards must agree on name and
    parameters.
    """
    if not reports:
        raise ValueError("nothing to merge")
    head = reports[0]

    def shared(params):  # shards differ exactly in their trial window
        return {k: v for k, v in params.items() if k != "first_trial"}

    for rep in reports[1:]:
        if rep.name != head.name or shared(rep.parameters) != shared(head.parameters):
            raise ValueError("cannot merge reports of different experiments")
    parameters = dict(head.parameters)
    if "first_trial" in parameters:
        parameters["first_trial"] = min(r.parameters["first_trial"] for r in reports)
    return ExperimentReport(
        name=head.name,
        parameters=parameters,
        seed=head.seed,
        trials=sum(r.trials for r in reports),
        successes=sum(r.successes for r in reports),
        wallclock_ms=sum(r.wallclock_ms for r in reports),
    )


def _run_trials(
    name: str,
    gen: GeneratorHandle,
    adversary: AdversaryHandle,
    trials: int,
    rng: SeededRng,
    first_trial: int,
    play: Callable[[SeededRng, CallBudget], bool],
    **game_params,
) -> ExperimentReport:
    """The one trial loop: trial i plays on stream ``rng.child(i)`` with a
    fresh budget, and ``play`` returns whether the adversary won.  The
    game's own parameters are recorded between the shared ones."""
    t0 = time.perf_counter()
    successes = 0
    for i in range(first_trial, first_trial + trials):
        successes += play(rng.child(i), CallBudget(adversary.work_budget))
    parameters = {"generator": gen.description, "adversary": adversary.strategy_id}
    parameters.update(game_params, first_trial=first_trial)
    return ExperimentReport(
        name=name,
        parameters=parameters,
        seed=rng.seed,
        trials=trials,
        successes=successes,
        wallclock_ms=(time.perf_counter() - t0) * 1e3,
    )


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
) -> ExperimentReport:
    """Distinguishing game: generator output vs uniform string.

    Keys come from the generator's own sampler when it has one,
    uniformly otherwise.
    """
    s = gen.output_len

    def play(trial: SeededRng, budget: CallBudget) -> bool:
        key = gen.sample_key(trial)
        b = trial.bit()
        y = _challenge_bits(gen.eval(key, trial)) if b == 0 else trial.bits(s)
        return adversary.decide(y, budget, trial) == b

    return _run_trials("prg", gen, adversary, trials, rng, first_trial, play, output_len=s)


def exp_botprg(
    gen: GeneratorHandle,
    adversary: AdversaryHandle,
    q: int,
    trials: int,
    rng: SeededRng,
    first_trial: int = 0,
) -> ExperimentReport:
    """Abort-aware distinguishing game with q queries per trial.

    The random branch hides abort events: each query is the abort-hiding
    combinator applied to a fresh generator evaluation and one fixed
    uniform string, so abort patterns match across branches.
    """
    if q < 1:
        raise ValueError("need q >= 1 queries")
    m = gen.output_len

    def play(trial: SeededRng, budget: CallBudget) -> bool:
        key = gen.sample_key(trial)
        b = trial.bit()
        if b == 0:
            ys = tuple(as_bot(gen.eval(key, trial)) for _ in range(q))
        else:
            y = trial.bits(m)
            ys = tuple(is_bot(as_bot(gen.eval(key, trial)), y) for _ in range(q))
        return adversary.decide(ys, budget, trial) == b

    return _run_trials("bot-prg", gen, adversary, trials, rng, first_trial, play, q=q, output_len=m)


def exp_owsg(
    gen: GeneratorHandle,
    adversary: AdversaryHandle,
    t: int,
    trials: int,
    rng: SeededRng,
    first_trial: int = 0,
) -> ExperimentReport:
    """Inversion game: recover a key whose state passes projective verification.

    The final measurement is realized analytically as a Bernoulli draw
    from the exact fidelity between the guessed key's state and a
    regenerated copy.
    """
    if t < 1:
        raise ValueError("need t >= 1 copies")

    def play(trial: SeededRng, budget: CallBudget) -> bool:
        key = trial.bits(gen.input_len)
        copies = tuple(gen.eval(key, trial) for _ in range(t))
        guess = adversary.decide(copies, budget, trial)
        verifier_state = gen.eval(key, trial)
        prob = gen.eval(guess, trial).fidelity(verifier_state)
        return trial.uniform() < prob

    return _run_trials("owsg", gen, adversary, trials, rng, first_trial, play, t=t)


# -- moment-closeness statistic ----------------------------------------------

_MAX_EXACT_ENUM_BITS = 16


def _key_iter(gen: GeneratorHandle, n_keys: int, mode: str, rng: SeededRng):
    if mode == "exact-enum":
        if gen.input_len > _MAX_EXACT_ENUM_BITS:
            raise MemoryBudgetError(
                f"exact enumeration capped at 2^{_MAX_EXACT_ENUM_BITS} keys"
            )
        return [int_to_bits(k, gen.input_len) for k in range(1 << gen.input_len)]
    if mode == "monte-carlo":
        return [gen.sample_key(rng.child(j)) for j in range(n_keys)]
    raise ValueError(f"mode must be 'exact-enum' or 'monte-carlo', got {mode!r}")


def _key_states(gen: GeneratorHandle, keys, rng: SeededRng, start: int, stop: int) -> np.ndarray:
    """Amplitudes of keys[start:stop], one row per key.  Key j evaluates on
    ``rng.child(len(keys) + j)``, past the key-sampling streams, so a
    stochastic generator never replays the draws that produced its key."""
    block = enumerate(keys[start:stop], len(keys) + start)
    return np.array([gen.eval(k, rng.child(j)).amplitudes for j, k in block])


def _moment_gramians(gen: GeneratorHandle, t: int, keys, rng: SeededRng, chunk: int):
    """Unnormalised t-copy gramian of each ``chunk`` consecutive keys.

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
    for start in range(0, len(keys), chunk):
        states = _key_states(gen, keys, rng, start, start + chunk)
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
    chunk: int = 2000,
) -> float:
    """Plug-in trace distance between the generator's key-averaged t-copy
    moment and the Haar t-copy moment.

    Exact under ``exact-enum``; under ``monte-carlo`` sampling noise biases
    it upward at few keys: random-function phase states at N = 64, t = 2
    and 100 000 keys read 0.0672 against the closed form 63/4160 = 0.0151.
    ``moment_hs2`` estimates the squared Hilbert-Schmidt distance without bias.
    """
    if rng is None:
        rng = SeededRng(0)
    keys = _key_iter(gen, n_keys, mode, rng)
    dim = gen.dim
    if t < 1:
        raise ValueError("need t >= 1 copies")
    if dim**t > MAX_TENSOR_DIM:
        raise MemoryBudgetError(f"dim**t = {dim ** t} exceeds the tensor budget")
    size = math.comb(dim + t - 1, t)
    avg = np.zeros((size, size), dtype=complex)
    for gram in _moment_gramians(gen, t, keys, rng, chunk):
        avg += gram  # in place: one accumulator, not one matrix per chunk
    avg /= len(keys)
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
        raise ValueError("need t >= 1 copies")
    if n_keys < 3:
        raise ValueError(f"the jackknife needs at least 3 keys, got {n_keys}")
    if n_keys * gen.dim > MAX_TENSOR_DIM**2:
        raise MemoryBudgetError(f"{n_keys} x {gen.dim} states exceed {MAX_TENSOR_DIM**2} amplitudes")
    keys = _key_iter(gen, n_keys, "monte-carlo", rng)
    states = _key_states(gen, keys, rng, 0, n_keys)
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
