"""Computational-basis diagonal estimation from simulated state copies.

The downstream rounding step reads only the diagonal of an estimated
density matrix, so estimation here is diagonal-only: ``sampled_diagonal``
is the frequency estimate from t simulated measurements and
``exact_diagonal`` is its t -> infinity idealization;
``estimate_diagonal`` takes t = None for the latter.
Estimation error is judged in the L-infinity norm on probability
vectors, the norm the rounding thresholds actually respond to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import StateVector, born_distribution
from .rng import ParameterError, SeededRng


class InvalidSampleCountError(ParameterError):
    pass


@dataclass(frozen=True)
class DiagonalEstimate:
    """Estimated or exact Born probabilities of a state.

    samples_used 0 (exact): entries sum to 1 within 1e-9.
    samples_used t >= 1: entries are frequencies k_i / t, so they are
    multiples of 1/t and sum to exactly 1 in exact arithmetic.
    """

    probs: np.ndarray
    samples_used: int

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1:
            raise ParameterError(f"probs must be a vector, got shape {probs.shape}")
        if probs.min() < 0:
            raise ParameterError("negative probability entry")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ParameterError(f"probabilities sum to {probs.sum()}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def dim(self) -> int:
        return len(self.probs)


def exact_diagonal(psi: StateVector) -> DiagonalEstimate:
    """Infinite-copy idealization: the exact Born diagonal."""
    return DiagonalEstimate(born_distribution(psi), 0)


def sampled_diagonal(psi: StateVector, t: int, rng: SeededRng) -> DiagonalEstimate:
    """Empirical frequencies of t computational-basis measurements.

    Counts of t i.i.d. categorical draws are exactly multinomial, so the
    t measurements are simulated with one multinomial draw.
    """
    if t < 1:
        raise InvalidSampleCountError(f"need at least one sample, got t={t}")
    counts = rng.multinomial(t, born_distribution(psi))
    return DiagonalEstimate(counts / t, t)


def estimate_diagonal(psi: StateVector, t: int | None, rng: SeededRng | None) -> DiagonalEstimate:
    """The t-copy estimate, or the exact diagonal when t is None."""
    if t is None:
        return exact_diagonal(psi)
    if rng is None:
        raise ParameterError("a t-copy estimate needs an rng")
    return sampled_diagonal(psi, t, rng)
