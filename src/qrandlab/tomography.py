"""Computational-basis diagonal estimation from simulated state copies.

The downstream rounding step reads only the diagonal of an estimated
density matrix, so estimation here is diagonal-only, and a diagonal is
a plain 1-D array of probabilities; a state's exact one, ``probs`` =
``qcore.born_distribution(psi)``, is computed once by the caller.
``sampled_diagonal(probs, t, rng)`` is the frequency estimate from t
simulated measurements and ``probs`` its t -> infinity idealization;
``estimate_diagonal(psi, ...)`` is the state-level entry, t = None giving
the latter.  ``sampled_prefix`` is the first k entries of
``sampled_diagonal`` from a (k + 1)-cell draw, equal bit for bit on the
same stream position but leaving the stream elsewhere, so it serves
only a stream's last draw; ``prefix_law`` makes that draw's cell law,
for one diagonal or a stack of them.
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
    """The cell law [p_0 ... p_{k-1}, tail], tail = max(0, 1 - sum p_i), of
    ``sampled_prefix``'s draw, made in place: entry k of ``probs``'s last
    axis is overwritten by the tail, and the first k + 1 entries are
    returned as a view.  On a stack of diagonals it makes each row's law."""
    law = probs[..., : k + 1]
    law[..., k] = np.maximum(0.0, 1.0 - law[..., :k].sum(axis=-1))
    return law


def sampled_prefix(probs: np.ndarray, t: int, k: int, rng: SeededRng) -> np.ndarray:
    """``sampled_diagonal(probs, t, rng)[:k]``, bit for bit, from the draw
    Multinomial(t, ``prefix_law(probs, k)``).

    numpy draws a multinomial's cells in order: cell j is a binomial on
    the count left and p_j over the probability left, and the last cell
    takes the remainder without a draw.  So the first k counts are the
    full draw's, on the same stream position; only the position the draw
    leaves ``rng`` at differs.  Use it only where nothing draws on ``rng``
    afterwards.  1 <= k < len(probs); k = len(probs) would draw the last cell too.
    """
    _check_sample_count(t)
    if not 1 <= k < len(probs):
        raise ParameterError(f"prefix length must be in [1, {len(probs) - 1}], got k={k}")
    return rng.multinomial(t, prefix_law(probs[: k + 1].copy(), k))[:k] / t


def estimate_diagonal(psi: StateVector, t: int | None, rng: SeededRng | None) -> np.ndarray:
    """The t-copy estimate, or the exact diagonal when t is None."""
    if t is None:
        return born_distribution(psi)
    if rng is None:
        raise ParameterError("a t-copy estimate needs an rng")
    return sampled_diagonal(born_distribution(psi), t, rng)
