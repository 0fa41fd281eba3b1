"""Generator interfaces, the abort-aware combinators, and determinism audits.

``BotValue`` is the output type of abort-capable generators: either a
fixed-width bitstring or the distinguished abort symbol.  ``as_bot`` is
the one reader of a classical generator output; ``is_bot`` and the two
plurality votes are the combinators the constructions and security
games are built from.  ``determinism_audit`` measures how
deterministic a generator actually is on a key by repeated evaluation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Hashable, Iterable, Optional, Sequence

import numpy as np

from .qcore import StateVector
from .rng import ParameterError, SeededRng, parse_bits

GENERATOR_KINDS = ("prg", "prg-qs", "bot-prg", "sprs-qs", "prf-qs", "owsg")

# Pairwise fidelity at or above this clusters two state outputs as equal;
# exact state equality is meaningless under floating point.
STATE_EQUAL_FIDELITY = 1 - 1e-8


@dataclass(frozen=True)
class BotValue:
    """A bitstring or the abort symbol."""

    payload: Optional[str]

    def __post_init__(self):
        if self.payload is not None:
            parse_bits(self.payload, name="payload")

    @classmethod
    def bot(cls) -> "BotValue":
        return cls(None)

    @classmethod
    def of(cls, bits: str) -> "BotValue":
        return cls(bits)

    @property
    def is_bot(self) -> bool:
        return self.payload is None

    def __str__(self) -> str:
        return "bot" if self.is_bot else self.payload


BOT = BotValue.bot()


def as_bot(value) -> BotValue:
    """A classical generator output, a BotValue or a bare bitstring, as a BotValue."""
    return value if isinstance(value, BotValue) else BotValue.of(value)


def is_bot(a: BotValue, b) -> BotValue:
    """Abort-hiding combinator: abort iff ``a`` aborts, else ``b``."""
    if a.is_bot:
        return BOT
    return as_bot(b)


def _modal(counts: Counter):
    """The most common value and its count.  A Counter keeps first-seen order
    and ``max`` keeps the first of equal counts, so ties go to the earliest."""
    modal = max(counts, key=counts.__getitem__)
    return modal, counts[modal]


def _plurality(values: Sequence[Hashable]):
    """Most common element; ties broken by earliest first occurrence."""
    if values.count(values[0]) == len(values):  # unanimous, the common case
        return values[0]
    return _modal(Counter(values))[0]


def vote(values: Sequence[BotValue]) -> BotValue:
    """Plurality over all entries, the abort symbol included."""
    if not values:
        raise ParameterError("vote needs a nonempty sequence")
    return _plurality(list(values))


def vote_non_bot(values: Sequence[BotValue]) -> BotValue:
    """Plurality over non-abort entries; abort only if every entry aborts."""
    if not values:
        raise ParameterError("vote needs a nonempty sequence")
    non_bot = [v for v in values if not v.is_bot]
    if not non_bot:
        return BOT
    return _plurality(non_bot)


@dataclass(frozen=True)
class GeneratorHandle:
    """A primitive instance: its kind, lengths, and callables.

    ``eval`` maps (key, rng) to the generator output -- a BotValue or
    bitstring for classical kinds, a StateVector for state kinds; for
    'prf-qs' it maps (key, x, rng).  ``qsamp`` is the key sampler for
    quantum-input-sampling kinds.  ``eval_many``, if given, maps
    (key, rng, k) to the k outputs of k ``eval`` calls on that one rng.
    Handles are immutable and safe to share; all randomness comes in
    through the per-call rng.  ``eval`` draws only from that rng, never
    from a child of it: ``determinism_audit`` takes an evaluation that left
    its rng undrawn as fixed by the key, so a missed draw would report a
    random evaluation as fixed, while a spurious draw costs a full audit.
    """

    kind: str
    input_len: int
    output_len: int
    eval: Callable = field(compare=False)
    qsamp: Optional[Callable] = field(default=None, compare=False)
    dim: Optional[int] = None
    description: str = ""
    eval_many: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ParameterError(f"unknown generator kind {self.kind!r}")
        if self.input_len < 1:
            raise ParameterError(f"key length must be at least 1, got {self.input_len}")
        if self.kind in ("prg", "prg-qs", "bot-prg") and self.output_len <= self.input_len:
            raise ParameterError(
                f"{self.kind} must expand: output {self.output_len} <= input {self.input_len}"
            )
        if self.kind in ("prg-qs", "sprs-qs", "prf-qs") and self.qsamp is None:
            raise ParameterError(f"{self.kind} needs a qsamp key sampler")
        if self.kind in ("sprs-qs", "owsg") and self.dim is None:
            raise ParameterError(f"{self.kind} needs a state dimension")

    def eval_repeated(self, key, rng: SeededRng, k: int) -> list:
        """k evaluations of ``key`` in sequence on one stream."""
        if self.eval_many is not None:
            return self.eval_many(key, rng, k)
        return [self.eval(key, rng) for _ in range(k)]

    def sample_key(self, rng: SeededRng):
        if self.qsamp is not None:
            return self.qsamp(rng)
        return rng.bits(self.input_len)


def _cluster_states(outputs: Iterable[StateVector]):
    """Greedy fidelity clustering; two states match above STATE_EQUAL_FIDELITY."""
    reps: list[StateVector] = []
    counts: list[int] = []
    for psi in outputs:
        for i, rep in enumerate(reps):
            if rep.fidelity(psi) >= STATE_EQUAL_FIDELITY:
                counts[i] += 1
                break
        else:
            reps.append(psi)
            counts.append(1)
    best = int(np.argmax(counts))
    return reps[best], counts[best]


def determinism_audit(gen: GeneratorHandle, key, trials: int, rng: SeededRng):
    """Evaluate ``gen`` on ``key``, trial i on ``rng.child(i)``; return the
    modal output and its frequency.  A trial 0 that draws nothing is a
    function of the key alone, which every trial would repeat: the audit
    stops there.  Outputs are tallied as they come, so only distinct ones
    are held.
    """
    if trials < 2:
        raise ParameterError(f"audit needs at least 2 trials, got {trials}")
    first = rng.child(0)
    output = gen.eval(key, first)
    if not first.drawn:
        return output, 1.0
    outputs = chain([output], (gen.eval(key, rng.child(i)) for i in range(1, trials)))
    if isinstance(output, StateVector):
        modal, count = _cluster_states(outputs)
    else:
        modal, count = _modal(Counter(outputs))
    return modal, count / trials
