"""Computational-basis diagonal estimation from simulated state copies.

The downstream rounding step reads only the diagonal of an estimated
density matrix, so estimation here is diagonal-only, and a diagonal is
a plain 1-D array of probabilities; a state's exact one, ``probs`` =
``qcore.born_distribution(psi)``, is computed once by the caller.
``sampled_diagonal(probs, t, rng)`` is the frequency estimate from t
simulated measurements and ``probs`` its t -> infinity idealization;
``estimate_diagonal(psi, ...)`` is the state-level entry, t = None giving
the latter.  ``prefix_law(probs, k)`` is the cell law of a (k + 1)-cell
multinomial whose first k counts are ``sampled_diagonal``'s first k, bit
for bit on the same stream position, for one diagonal or a stack of them.
Estimation error is judged in the L-infinity norm on probability
vectors, the norm the rounding thresholds actually respond to.
"""

from __future__ import annotations

import numpy as np

from .qcore import StateVector, born_distribution
from .rng import ParameterError, SeededRng


class InvalidSampleCountError(ParameterError):
    pass


def _check_sample_count(t: int) -> None:
    if not 1 <= t <= 2**63 - 1:  # numpy's multinomial takes a C long
        raise InvalidSampleCountError(f"t must be in [1, 2**63 - 1], got t={t}")


def sampled_diagonal(probs: np.ndarray, t: int, rng: SeededRng) -> np.ndarray:
    """Empirical frequencies k_i / t of t measurements with outcome law ``probs``.

    Counts of t i.i.d. categorical draws are exactly multinomial, so the
    t measurements are simulated with one multinomial draw.
    """
    _check_sample_count(t)
    return rng.multinomial(t, probs) / t


def prefix_law(probs: np.ndarray, k: int) -> np.ndarray:
    """The cell law [p_0 ... p_{k-1}, tail], tail = max(0, 1 - sum p_i), made
    in place: entry k of ``probs``'s last axis is overwritten by the tail,
    and the first k + 1 entries are returned as a view.  On a stack of
    diagonals it makes each row's law.

    numpy draws a multinomial's cells in order: cell j is a binomial on
    the count left and p_j over the probability left, and the last cell
    takes the remainder without a draw.  So the first k counts of
    Multinomial(t, law) are those of Multinomial(t, probs) on the same
    stream position; only the position the draw leaves the stream at
    differs, so it fits only a stream's last draw.  1 <= k < len(probs);
    at k = len(probs) the last cell would be drawn.
    """
    law = probs[..., : k + 1]
    law[..., k] = np.maximum(0.0, 1.0 - law[..., :k].sum(axis=-1))
    return law


def estimate_diagonal(psi: StateVector, t: int | None, rng: SeededRng | None) -> np.ndarray:
    """The t-copy estimate, or the exact diagonal when t is None."""
    if t is None:
        return born_distribution(psi)
    if rng is None:
        raise ParameterError("a t-copy estimate needs an rng")
    return sampled_diagonal(born_distribution(psi), t, rng)
