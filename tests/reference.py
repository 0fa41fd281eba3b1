"""Dense references that only the tests read.

The library measures flipped states sparsely (``oracles.measure_flipped``)
and computes moments in symmetric-subspace coordinates; the dense
versions here are the independent computations those are checked
against, together with the density-operator algebra and tomography
bounds the tests state their claims in.  ``looped_audit`` is the
determinism audit without its early exit: every trial evaluated.
``looped_extract`` is the extract command's result as one serial
loop over validated states and ``extract`` calls, whose repeat
extraction is a second full d-cell ``extract``.
``looped_owsg`` is the inversion game played one whole trial at a time,
the adversary's per-trial ``decide`` included, and ``haar_noise_owsg``
a state generator whose copies never repeat.
``fisher_yates_reference`` is the permutation table as the plain
top-down swap loop, one bounded draw per step, over words that
``reference_words`` hashes one block at a time from the documented
encoding without calling the library; ``reference_derive_int`` is
``derive_int`` hashed the same way.  ``philox_uniforms`` is
Philox4x64-10 (Salmon et al., SC 2011) in plain integers, the stream
``SeededRng`` names, read as numpy reads a double.  ``round12`` is the
record canonicaliser as one isinstance chain, the check of
``cli._round12``'s exact-type dispatch.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from qrandlab.extraction import RoundParams, extract, good_set_member
from qrandlab.oracles import OracleWorld, WrongWorldKindError, _flip_index, flip_state_dim
from qrandlab.primitives import GeneratorHandle, _cluster_states, _plurality
from qrandlab.qcore import (
    ATOL,
    MAX_TENSOR_DIM,
    DimensionMismatchError,
    InvalidDimensionError,
    MemoryBudgetError,
    StateVector,
    born_distribution,
    haar_sample,
)
from qrandlab.rng import SeededRng

MAX_DENSE_FLIP_N = 2  # 2^(9n+1) amplitudes: n=2 is 8 MB, n=3 is 4 GB


# -- density operators ----------------------------------------------------------


@dataclass(frozen=True)
class DensityOp:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    Positivity is an O(dim^3) eigencheck, so it is only enforced at
    construction for dim <= 256.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise InvalidDimensionError(f"density operator needs a square matrix, got {mat.shape}")
        if not np.allclose(mat, mat.conj().T, atol=ATOL, rtol=0):
            raise ValueError("matrix is not Hermitian within 1e-10")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace {tr} deviates from 1 by more than {ATOL}")
        if mat.shape[0] <= 256:
            if np.linalg.eigvalsh(mat).min() < -ATOL:
                raise ValueError("matrix has an eigenvalue below -1e-10")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density(psi: StateVector) -> DensityOp:
    return DensityOp(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def trace_distance(rho: DensityOp, sigma: DensityOp) -> float:
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} vs {sigma.dim}")
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.abs(eigs).sum())


# -- Haar moments in the full tensor space ---------------------------------------


def symmetric_projector(dim: int, t: int) -> np.ndarray:
    """Projector onto the symmetric subspace of (C^dim)^{tensor t}."""
    size = dim**t
    proj = np.zeros((size, size))
    digits = np.empty((size, t), dtype=np.int64)
    rem = np.arange(size)
    for pos in range(t - 1, -1, -1):
        digits[:, pos] = rem % dim
        rem //= dim
    weights = dim ** np.arange(t - 1, -1, -1)
    rows = np.arange(size)
    for perm in itertools.permutations(range(t)):
        cols = digits[:, list(perm)] @ weights
        proj[rows, cols] += 1.0
    return proj / math.factorial(t)


def symmetric_moment(dim: int, t: int) -> DensityOp:
    """Haar t-copy average E[|phi><phi|^{tensor t}]: sym projector / binom(dim+t-1, t)."""
    if dim < 2 or t < 1:
        raise InvalidDimensionError(f"need dim >= 2 and t >= 1, got dim={dim}, t={t}")
    if dim**t > MAX_TENSOR_DIM:
        raise MemoryBudgetError(
            f"dim**t = {dim ** t} exceeds the tensor budget {MAX_TENSOR_DIM}"
        )
    proj = symmetric_projector(dim, t)
    return DensityOp(proj.astype(complex) / math.comb(dim + t - 1, t))


# -- tomography bounds -------------------------------------------------------------


def tomography_samples_required(lam: int, d: int, delta: float) -> int:
    """Copy count ceil(36 * lam * d^3 / delta) guaranteeing estimation error delta."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if lam < 1:
        raise ValueError(f"lam must be >= 1, got {lam}")
    return math.ceil(36 * lam * d**3 / delta)


def linf_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    if len(estimate) != len(reference):
        raise ValueError(f"dims {len(estimate)} vs {len(reference)}")
    return float(np.abs(estimate - reference).max())


# -- the dense flip unitary --------------------------------------------------------


@dataclass(frozen=True)
class RankTwoFlip:
    """Unitary that swaps orthogonal states a <-> b and fixes their complement.

    Stored as the two defining vectors only; applying it is a rank-1
    update, so no dim x dim matrix ever materializes.
    """

    a: StateVector
    b: StateVector

    def __post_init__(self):
        if self.a.dim != self.b.dim:
            raise DimensionMismatchError(f"dims {self.a.dim} vs {self.b.dim}")
        overlap = abs(np.vdot(self.a.amplitudes, self.b.amplitudes))
        if overlap > ATOL:
            raise ValueError(f"flip endpoints overlap by {overlap} > {ATOL}")

    @property
    def dim(self) -> int:
        return self.a.dim


def apply_flip(flip: RankTwoFlip, psi: StateVector) -> StateVector:
    """Apply the flip unitary: psi - <a-b|psi>(a-b) since F = I - dd^dag, d = a-b."""
    if flip.dim != psi.dim:
        raise DimensionMismatchError(f"dims {flip.dim} vs {psi.dim}")
    d = flip.a.amplitudes - flip.b.amplitudes
    out = psi.amplitudes - np.vdot(d, psi.amplitudes) * d
    return StateVector(out)


def flip_target_state(world: OracleWorld, n: int) -> StateVector:
    """The swap target: uniform superposition over (1, x, O_n(x))."""
    amps = np.zeros(flip_state_dim(n), dtype=complex)
    amp = 2.0 ** (-n / 2)
    for x in range(1 << n):
        amps[_flip_index(n, x, world.o_value(n, x))] = amp
    return StateVector(amps)


def flip_oracle(world: OracleWorld, n: int) -> RankTwoFlip:
    """Dense swap unitary between the all-zeros state and the flip target (n <= 2)."""
    if world.kind != "flip-world":
        raise WrongWorldKindError(f"flip_oracle needs a flip-world, got {world.kind}")
    if n > MAX_DENSE_FLIP_N:
        raise MemoryBudgetError(
            f"dense flip needs 2^{9 * n + 1} amplitudes; capped at n <= {MAX_DENSE_FLIP_N}"
        )
    dim = flip_state_dim(n)
    return RankTwoFlip(a=StateVector.basis(dim, 0), b=flip_target_state(world, n))


# -- the determinism audit, one evaluation per trial ---------------------------------


def looped_audit(handle, key, trials: int, rng: SeededRng):
    """``determinism_audit`` as a plain loop: trial i on ``rng.child(i)``, all trials run."""
    outputs = [handle.eval(key, rng.child(i)) for i in range(trials)]
    if isinstance(outputs[0], StateVector):
        modal, count = _cluster_states(outputs)
    else:
        modal = _plurality(outputs)
        count = outputs.count(modal)
    return modal, count / trials


def looped_extract(d: int, n_states: int, t: int | None, seed: int) -> dict:
    """The ``extract`` result, sampled from t copies or exact when t is None,
    state i on ``SeededRng(seed).child(i)`` with two full ``extract`` calls,
    one after the other, on that stream."""
    params = RoundParams(d)
    good = agree = 0
    ones = np.zeros(params.num_bits, dtype=np.int64)
    for i in range(n_states):
        child = SeededRng(seed).child(i)
        psi = haar_sample(d, child)
        good += good_set_member(born_distribution(psi), params)
        first = extract(psi, params, t, child)
        agree += first == extract(psi, params, t, child)
        ones += np.array([b == "1" for b in first])
    return {
        "d": d,
        "n_states": n_states,
        "mode": "exact" if t is None else "sampled",
        "t": t,
        "good_fraction": good / n_states,
        "bit_frequencies": list(ones / n_states),
        "repeat_agreement": agree / n_states,
    }


def looped_owsg(gen, adversary, t: int, trials: int, rng: SeededRng, first_trial: int = 0) -> int:
    """The successes of ``exp_owsg``, trial i played whole on ``rng.child(i)``
    before trial i + 1 starts: key, copies, ``decide``, verifier, guess, coin."""
    successes = 0
    for i in range(first_trial, first_trial + trials):
        trial = rng.child(i)
        key = trial.bits(gen.input_len)
        copies = tuple(gen.eval(key, trial) for _ in range(t))
        guess = adversary.decide(copies, trial)
        verifier_state = gen.eval(key, trial)
        prob = gen.eval(guess, trial).fidelity(verifier_state)
        successes += trial.uniform() < prob
    return successes


def haar_noise_owsg(lam: int = 8, dim: int = 16) -> GeneratorHandle:
    """Every evaluation is a fresh Haar state drawn from the trial stream, so a
    game's outcome rests on each stream's draw order and no two copies repeat."""
    return GeneratorHandle(
        kind="owsg", input_len=lam, output_len=0, dim=dim, description="haar-noise-owsg",
        eval=lambda key, rng: haar_sample(dim, rng),
    )


# -- the Fisher-Yates table, one swap at a time ---------------------------------------


def reference_words(seed: int, function_id: str, n_bits: int):
    """The table's 64-bit words in order: block b is SHA-256 over
    ``seed(8B) || len(id)(4B) || id || n_bits(4B) || b(8B)``, big-endian,
    read as four big-endian words."""
    fid = function_id.encode("utf-8")
    prefix = struct.pack(">QI", seed, len(fid)) + fid + struct.pack(">I", n_bits)
    for block in itertools.count():
        yield from struct.unpack(">4Q", hashlib.sha256(prefix + struct.pack(">Q", block)).digest())


def reference_derive_int(seed: int, function_id: str, n: int, x: int, nbits: int) -> int:
    """The first nbits of the digests over ``seed(8B) || len(id)(4B) || id ||
    n(4B) || x(16B) || b(4B)`` for b = 0, 1, ..., big-endian, as an integer."""
    fid = function_id.encode("utf-8")
    prefix = struct.pack(">QI", seed, len(fid)) + fid + struct.pack(">I", n) + x.to_bytes(16, "big")
    blocks = -(-nbits // 256)
    digests = b"".join(hashlib.sha256(prefix + struct.pack(">I", b)).digest() for b in range(blocks))
    return int.from_bytes(digests, "big") >> (256 * blocks - nbits)


def fisher_yates_reference(seed: int, function_id: str, n_bits: int, words=None) -> list[int]:
    """Durstenfeld's shuffle of range(2^n_bits): position i, from the top down,
    swaps with j = w mod (i + 1), w the next word below the largest multiple
    of i + 1.  ``words`` replaces ``reference_words`` as the word source."""
    words = reference_words(seed, function_id, n_bits) if words is None else iter(words)
    table = list(range(1 << n_bits))
    for i in range(len(table) - 1, 0, -1):
        limit = (1 << 64) - (1 << 64) % (i + 1)
        j = next(w for w in words if w < limit) % (i + 1)
        table[i], table[j] = table[j], table[i]
    return table


# -- Philox4x64-10, one block at a time -------------------------------------------------

_U64 = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key schedule increments


def philox_block(counter: int, key: tuple[int, int]) -> list[int]:
    """The four 64-bit words of Philox4x64-10 at a 256-bit counter (word 0
    least significant) under a 128-bit key: ten rounds, the key bumped
    between rounds."""
    c = [(counter >> (64 * i)) & _U64 for i in range(4)]
    k0, k1 = key
    for round_index in range(10):
        if round_index:
            k0, k1 = (k0 + _PHILOX_W[0]) & _U64, (k1 + _PHILOX_W[1]) & _U64
        p0, p1 = _PHILOX_M[0] * c[0], _PHILOX_M[1] * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & _U64, (p0 >> 64) ^ c[3] ^ k1, p0 & _U64]
    return c


def philox_uniforms(seed: int, counter: int, k: int) -> list[float]:
    """The first k uniforms of stream ``(seed, counter)``: key ``(seed, 0)``,
    the counter started at ``counter << 128`` and incremented before each
    block, each word w read as (w >> 11) * 2^-53."""
    words: list[int] = []
    position = counter << 128
    while len(words) < k:
        position = (position + 1) & ((1 << 256) - 1)
        words.extend(philox_block(position, (seed, 0)))
    return [(w >> 11) * 2.0**-53 for w in words[:k]]


# -- the record canonicaliser as one isinstance chain -----------------------------------


def round12(obj):
    """Recursively canonicalize numerics to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj
