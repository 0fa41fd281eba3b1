"""Computational-basis diagonal estimation from simulated state copies.

The downstream rounding step reads only the diagonal of an estimated
density matrix, so estimation here is diagonal-only: ``exact_diagonal``
is the infinite-copy idealization and ``sampled_diagonal`` is the
finite-copy frequency estimate from t simulated measurements;
``estimate_diagonal`` picks one of the two by mode name.
Estimation error is judged in the L-infinity norm on probability
vectors, the norm the rounding thresholds actually respond to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import StateVector, born_distribution
from .rng import SeededRng


class InvalidSampleCountError(ValueError):
    pass


@dataclass(frozen=True)
class DiagonalEstimate:
    """Estimated or exact Born probabilities of a state.

    mode 'exact': entries sum to 1 within 1e-9.
    mode 'sampled': entries are frequencies k_i / samples_used, so they
    are multiples of 1/t and sum to exactly 1 in exact arithmetic.
    """

    dim: int
    probs: np.ndarray
    mode: str
    samples_used: int

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (self.dim,):
            raise ValueError(f"probs shape {probs.shape} does not match dim {self.dim}")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if probs.min() < 0:
            raise ValueError("negative probability entry")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def exact_diagonal(psi: StateVector) -> DiagonalEstimate:
    """Infinite-copy idealization: the exact Born diagonal."""
    return DiagonalEstimate(psi.dim, born_distribution(psi), "exact", 0)


def sampled_diagonal(psi: StateVector, t: int, rng: SeededRng) -> DiagonalEstimate:
    """Empirical frequencies of t computational-basis measurements.

    Counts of t i.i.d. categorical draws are exactly multinomial, so the
    t measurements are simulated with one multinomial draw.
    """
    if t < 1:
        raise InvalidSampleCountError(f"need at least one sample, got t={t}")
    counts = rng.multinomial(t, born_distribution(psi))
    return DiagonalEstimate(psi.dim, counts / t, "sampled", t)


def estimate_diagonal(
    psi: StateVector, mode: str, t: int | None, rng: SeededRng | None
) -> DiagonalEstimate:
    """The exact diagonal (mode 'exact') or the t-copy estimate (mode 'sampled')."""
    if mode == "exact":
        return exact_diagonal(psi)
    if mode == "sampled":
        if t is None or rng is None:
            raise ValueError("sampled mode needs a copy count t and an rng")
        return sampled_diagonal(psi, t, rng)
    raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
