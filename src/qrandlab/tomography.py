"""Computational-basis diagonal estimation from simulated state copies.

The downstream rounding step reads only the diagonal of an estimated
density matrix, so estimation here is diagonal-only, and a diagonal is
a plain 1-D array of probabilities: ``sampled_diagonal`` is the
frequency estimate from t simulated measurements and
``qcore.born_distribution`` is its t -> infinity idealization, the
exact diagonal; ``estimate_diagonal`` takes t = None for the latter.
Estimation error is judged in the L-infinity norm on probability
vectors, the norm the rounding thresholds actually respond to.
"""

from __future__ import annotations

import numpy as np

from .qcore import StateVector, born_distribution
from .rng import ParameterError, SeededRng


class InvalidSampleCountError(ParameterError):
    pass


def sampled_diagonal(psi: StateVector, t: int, rng: SeededRng) -> np.ndarray:
    """Empirical frequencies k_i / t of t computational-basis measurements.

    Counts of t i.i.d. categorical draws are exactly multinomial, so the
    t measurements are simulated with one multinomial draw.
    """
    if not 1 <= t <= 2**63 - 1:  # numpy's multinomial takes a C long
        raise InvalidSampleCountError(f"t must be in [1, 2**63 - 1], got t={t}")
    return rng.multinomial(t, born_distribution(psi)) / t


def estimate_diagonal(psi: StateVector, t: int | None, rng: SeededRng | None) -> np.ndarray:
    """The t-copy estimate, or the exact diagonal when t is None."""
    if t is None:
        return born_distribution(psi)
    if rng is None:
        raise ParameterError("a t-copy estimate needs an rng")
    return sampled_diagonal(psi, t, rng)
