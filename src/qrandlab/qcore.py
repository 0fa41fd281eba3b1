"""Dense complex statevector engine.

Everything downstream (tomography, extraction, oracle worlds, the
experiment harness) manipulates states through the handful of
operations defined here: Haar sampling, computational-basis Born
statistics and measurement, and fidelity.

Numerical contract: exact linear-algebra identities hold to ATOL =
1e-10; anything sampled is judged by Monte-Carlo intervals, never by
ATOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import ParameterError, SeededRng

ATOL = 1e-10

# Caps the t-copy moment matrix (dim**t <= MAX_TENSOR_DIM; its
# symmetric-coordinate side C(dim+t-1, t) is smaller still) and the
# brute-force candidate-state table (at most MAX_TENSOR_DIM**2
# amplitudes, 268 MB of complex128).
MAX_TENSOR_DIM = 4096


class InvalidDimensionError(ParameterError):
    pass


class DimensionMismatchError(ParameterError):
    pass


class MemoryBudgetError(ParameterError):
    pass


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector of dimension >= 2; states compare
    by ``fidelity``, and ``==`` is identity."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise InvalidDimensionError(
                f"state needs a 1-d amplitude vector of dim >= 2, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= ATOL:  # a NaN norm fails this too
            raise ParameterError(f"state norm {norm} deviates from 1 by more than {ATOL}")
        if amps.flags.writeable or not amps.flags.owndata:  # a caller's array, or a view of one: copy it
            amps = amps.copy()
            amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def normalized(cls, raw) -> "StateVector":
        raw = np.asarray(raw, dtype=complex)
        norm = np.linalg.norm(raw)
        if norm == 0:
            raise ParameterError("cannot normalize the zero vector")
        if not np.isfinite(norm):  # refused before the divide, which would warn
            raise ParameterError(f"cannot normalize a vector of norm {norm}")
        amps = raw / norm  # a fresh array, so it is kept read-only, not copied again
        amps.setflags(write=False)
        return cls(amps)

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        if not 0 <= index < dim:
            raise ParameterError(f"basis index {index} outside [0, {dim})")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def fidelity(self, other: "StateVector") -> float:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} vs {other.dim}")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


def haar_sample(dim: int, rng: SeededRng) -> StateVector:
    """Haar-random pure state: normalized i.i.d. standard complex Gaussians."""
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    raw = rng.standard_normal(2 * dim).view(complex)
    return StateVector.normalized(raw)


def born_distribution(psi: StateVector) -> np.ndarray:
    """Exact computational-basis outcome probabilities |amplitude_i|^2."""
    return np.abs(psi.amplitudes) ** 2


def sample_index(probs: np.ndarray, rng: SeededRng) -> int:
    """Index drawn from the weights probs with one uniform().

    The running sum is sequential, so zero weights add exactly: dropping
    them and mapping the drawn position back gives the same outcome.
    """
    cdf = np.cumsum(probs)
    return int(np.searchsorted(cdf, rng.uniform() * cdf[-1], side="right"))


def measure_computational(psi: StateVector, rng: SeededRng) -> int:
    """One computational-basis measurement; returns the outcome index."""
    return sample_index(born_distribution(psi), rng)
