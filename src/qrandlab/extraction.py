"""Rounding block sums of a Born diagonal into bits, and the good-set test.

A diagonal is a plain 1-D probability array: ``born_distribution`` of a
state, or a ``tomography`` estimate of it.

For dimension d = 2^(6a) the derived quantities k = d^(5/6), r = d^(2/3)
and l = d^(1/6) are exact integers.  The diagonal's first l*r entries
are grouped into l blocks of r; each block sum q_i is thresholded
strictly against r/d to produce one output bit.  A state is in the good
set when every block sum clears the threshold by a margin of more than
2/d, which is what makes the whole pipeline deterministic on that state.

Rounding reads only the first k = l*r entries.  ``round_mask`` rounds a
diagonal, or a t-copy estimate of its first k entries alone (a
multinomial over ``tomography.prefix_law``), into a bool vector of bits;
``round_bits`` and ``extract`` format it as the '0'/'1' string the API returns.

``gaussian_block_check`` measures how closely the block sums of Haar
states follow their limiting normal law N(r/d, r/d^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qcore import (
    MAX_TENSOR_DIM,
    DimensionMismatchError,
    InvalidDimensionError,
    MemoryBudgetError,
    StateVector,
    born_distribution,
    haar_sample,
)
from .rng import SeededRng
from .tomography import estimate_diagonal


@dataclass(frozen=True)
class RoundParams:
    """Block geometry for dimension d = 2^(6a), a >= 1, with d at most
    ``MAX_TENSOR_DIM**2``: a d-amplitude state is built for each use."""

    d: int

    def __post_init__(self):
        d = self.d
        if d < 64 or d & (d - 1) != 0 or (d.bit_length() - 1) % 6 != 0:
            raise InvalidDimensionError(
                f"d must be 2**(6a) for integer a >= 1 (64, 4096, ...), got {d}"
            )
        if d > MAX_TENSOR_DIM**2:
            raise MemoryBudgetError(f"a d = {d} state exceeds {MAX_TENSOR_DIM**2} amplitudes")

    @cached_property
    def a(self) -> int:
        return (self.d.bit_length() - 1) // 6

    @cached_property
    def k(self) -> int:
        return 1 << (5 * self.a)

    @cached_property
    def r(self) -> int:
        return 1 << (4 * self.a)

    @cached_property
    def num_bits(self) -> int:
        """Output length l = d^(1/6)."""
        return 1 << self.a

    @cached_property
    def threshold(self) -> float:
        """r/d = 2^(-2a), exactly representable."""
        return self.r / self.d

    @cached_property
    def margin(self) -> float:
        return 2 / self.d


def _head_sums(head: np.ndarray, params: RoundParams) -> np.ndarray:
    """Block sums of the first l*r = k entries of ``head``'s last axis."""
    l, r = params.num_bits, params.r
    return head[..., : l * r].reshape(*head.shape[:-1], l, r).sum(axis=-1)


def block_sums(diag: np.ndarray, params: RoundParams) -> np.ndarray:
    """q_i = sum of the i-th block of r consecutive diagonal entries.

    Only the first l*r = k entries are consumed; the tail is ignored.  On
    a stack of diagonals (the last axis holding the entries) it sums each one.
    """
    if diag.shape[-1] != params.d:
        raise DimensionMismatchError(f"diagonal dim {diag.shape[-1]} != params d {params.d}")
    return _head_sums(diag, params)


def round_mask(head: np.ndarray, params: RoundParams) -> np.ndarray:
    """The rounded block sums as a bool vector: b_i = q_i > r/d (strict;
    ties round to 0), from a diagonal or from its first k entries.  On a
    stack of them (the last axis holding the entries) it rounds each one."""
    length = head.shape[-1]
    if length != params.d and length != params.k:
        raise DimensionMismatchError(f"diagonal length {length} is neither d = {params.d} nor k = {params.k}")
    return _head_sums(head, params) > params.threshold


def round_bits(diag: np.ndarray, params: RoundParams) -> str:
    """``round_mask``'s bits as a '0'/'1' string."""
    return "".join("1" if b else "0" for b in round_mask(diag, params))


def _clears_margin(q: np.ndarray, params: RoundParams) -> np.ndarray:
    """Whether every block sum on ``q``'s last axis clears the threshold by more than 2/d."""
    return np.all(np.abs(q - params.threshold) > params.margin, axis=-1)


def good_set_member(diag: np.ndarray, params: RoundParams) -> bool:
    """True iff every block sum clears the threshold by more than 2/d."""
    return bool(_clears_margin(block_sums(diag, params), params))


def extract(
    psi: StateVector, params: RoundParams, t: int | None = None, rng: SeededRng | None = None
) -> str:
    """Diagonal estimation (from t sampled copies, or exact when t is None) followed by rounding."""
    return round_bits(estimate_diagonal(psi, t, rng), params)


def _ks_statistic(sample: np.ndarray, loc: float, scale: float) -> float:
    """One-sample Kolmogorov-Smirnov statistic of ``sample`` against N(loc, scale^2):
    D = max over the sorted x_i of i/n - F(x_i) and F(x_i) - (i-1)/n."""
    x = np.sort(sample)
    cdf = np.array([math.erfc(-(v - loc) / scale / math.sqrt(2)) / 2 for v in x.tolist()])
    n = len(x)
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))


def gaussian_block_check(d: int, n_states: int, rng: SeededRng) -> dict:
    """Compare Haar block sums against their limiting law N(r/d, r/d^2).

    Samples n_states Haar states, pools all their block sums, and
    reports empirical mean and variance plus the one-sample
    Kolmogorov-Smirnov statistic against the normal model, with the
    per-bit frequencies and the good-set fraction: the haar-stats record.
    """
    params = RoundParams(d)
    if n_states * params.num_bits > MAX_TENSOR_DIM**2:
        raise MemoryBudgetError(f"{n_states} x {params.num_bits} block sums exceed {MAX_TENSOR_DIM**2} entries")
    sums = np.empty((n_states, params.num_bits))
    for i in range(n_states):
        sums[i] = block_sums(born_distribution(haar_sample(d, rng)), params)
    pooled = sums.ravel()
    return {
        "d": d,
        "n_states": n_states,
        "mean": float(pooled.mean()),
        "variance": float(pooled.var(ddof=1)),
        "ks_statistic": _ks_statistic(pooled, params.threshold, math.sqrt(params.r) / d),
        "bit_frequencies": [float(f) for f in (sums > params.threshold).mean(axis=0)],
        "good_fraction": int(_clears_margin(sums, params).sum()) / n_states,
    }
