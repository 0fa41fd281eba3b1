"""Deterministic randomness: a counter-based RNG and a keyed bit derivation.

Two distinct sources of determinism live here and they serve different
masters:

* ``SeededRng`` wraps numpy's Philox4x64-10 counter-based bit generator.
  It drives all *simulation* randomness (Haar sampling, measurement,
  experiment coins).  A stream is fully named by ``(seed, counter)``;
  stream ``counter`` starts the 256-bit Philox counter at
  ``counter * 2**128``, so distinct counters can never overlap as long
  as each stream draws fewer than 2**128 blocks.  Counters must stay
  below 2**128: four levels of ``child`` below a counter-0 stream fit,
  a fifth is rejected.

* ``derive_int`` and ``sha_words`` are two stateless keyed derivations
  (SHA-256 in counter mode) over one unambiguous prefix encoding
  ``seed || function-id || n``, so an oracle world is reproducible from
  its seed alone, across platforms and languages.  ``derive_int`` hashes
  an input ``x`` and a 4-byte block counter (``derive_bits`` is its
  '0'/'1' string); ``sha_words``, the word stream of Fisher-Yates
  tables, an 8-byte one.  Both widths are part of ``DERIVATION_ID`` v1.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

PHILOX_ALGORITHM = "philox4x64-10/block128"

# Seeds of the fixed streams that evaluate a generator outside any caller's
# stream; distinct so no two of them share draws.
IMAGE_SEARCH_SEED = 0xA0D1  # brute-force image search, stream (key << 8) + eval
OWSG_SEARCH_SEED = 0xA0D2  # brute-force OWSG key search, stream key
TABLE_EVAL_SEED = 0xA0D3  # table-function evaluation called without an rng

_U64 = (1 << 64) - 1
_MAX_COUNTER = 1 << 128  # counter << 128 must fit Philox's 256-bit counter
_CHILD_FANOUT = (1 << 32) - 1  # child indices below this never reach the next parent's range


class _KeySeed(np.random.bit_generator.ISeedSequence):
    """The seed sequence whose two 64-bit words are the Philox key ``[seed, 0]``."""

    def __init__(self, seed: int):
        self.seed = seed

    def generate_state(self, n_words, dtype=np.uint64):
        return np.array([self.seed, 0], dtype=dtype)


_BIT_CHARS = np.frombuffer(b"01", dtype=np.uint8)  # draw b -> ASCII '0' + b


@dataclass
class SeededRng:
    """Named, reproducible randomness stream over Philox4x64-10
    (``PHILOX_ALGORITHM``).

    Identical ``(seed, counter)`` pairs yield identical draw sequences.
    The object is single-owner: it holds a live numpy ``Generator``
    whose position advances with every draw.  Parallel trials should
    each construct their own ``SeededRng`` via ``child``.  The Philox
    generator is built on the first draw, so a stream that never draws
    costs only its validation; it is built from a seed sequence that
    gives the key ``[seed, 0]`` and from the counter ``counter << 128``,
    so no state dict is set and no OS entropy is gathered for it.
    """

    seed: int
    counter: int = 0
    _gen: np.random.Generator | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _U64:
            raise ParameterError(f"seed must fit in 64 bits, got {self.seed}")
        if not 0 <= self.counter < _MAX_COUNTER:
            raise ParameterError(f"stream counter must be in [0, 2**128), got {self.counter}")

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            # Philox(key=seed) would first gather OS entropy that the key then discards
            philox = np.random.Philox(_KeySeed(self.seed), counter=self.counter << 128)
            self._gen = np.random.Generator(philox)
        return self._gen

    @property
    def drawn(self) -> bool:
        """True once a draw, or reading ``generator``, has built the Philox generator."""
        return self._gen is not None

    def child(self, index: int) -> "SeededRng":
        """Independent stream for sub-task ``index`` (e.g. one trial).

        Children of a stream with counter c occupy counters
        c*2**32 + 1 + index.  Indices are capped below 2**32 - 1 so the
        children of c never reach the range of c + 1.
        """
        if not 0 <= index < _CHILD_FANOUT:
            raise ParameterError(f"child index must be in [0, 2**32 - 1), got {index}")
        return SeededRng(self.seed, (self.counter << 32) + 1 + index)

    # Thin draw helpers so call sites read like the math they implement.

    def uniform(self) -> float:
        return float(self.generator.random())

    def integers(self, low: int, high: int, size=None):
        return self.generator.integers(low, high, size=size)

    def standard_normal(self, size):
        return self.generator.standard_normal(size)

    def bit(self) -> int:
        return int(self.generator.integers(0, 2))

    def bits(self, n: int) -> str:
        return _BIT_CHARS[self.generator.integers(0, 2, size=n)].tobytes().decode("ascii")

    def multinomial(self, n: int, pvals) -> np.ndarray:
        return self.generator.multinomial(n, pvals)


def _derivation_prefix(seed: int, function_id: str, n: int) -> bytes:
    fid = function_id.encode("utf-8")
    return struct.pack(">QI", seed & _U64, len(fid)) + fid + struct.pack(">I", n)


def derive_int(seed: int, function_id: str, n: int, x: int, nbits: int) -> int:
    """nbits of keyed pseudorandomness for input ``x``, as an integer.

    SHA-256 in counter mode over the fixed-width encoding
    ``seed(8B) || len(id)(4B) || id || n(4B) || x(16B) || block(4B)``;
    the value is the first nbits of the digests, most significant first.
    """
    if nbits <= 0:
        raise ParameterError("nbits must be positive")
    prefix = _derivation_prefix(seed, function_id, n) + x.to_bytes(16, "big")
    out = b""
    for block in range(-(-nbits // 256)):
        out += hashlib.sha256(prefix + struct.pack(">I", block)).digest()
    return int.from_bytes(out, "big") >> (8 * len(out) - nbits)


def derive_bits(seed: int, function_id: str, n: int, x: int, nbits: int) -> str:
    """``derive_int``'s value as an nbits-wide '0'/'1' string."""
    return format(derive_int(seed, function_id, n, x, nbits), f"0{nbits}b")


_BLOCK = struct.Struct(">Q")  # sha_words's block counter


def sha_words(seed: int, function_id: str, n: int, start: int, count: int) -> np.ndarray:
    """Words start .. start + count - 1 of a keyed 64-bit word stream, as a uint64 array.

    Block b is SHA-256 over ``seed(8B) || len(id)(4B) || id || n(4B) ||
    b(8B)``, read as four big-endian words, so word i is word i % 4 of
    block i // 4 and any span is computed without the words before it.
    """
    prefixed = hashlib.sha256(_derivation_prefix(seed, function_id, n))  # hashed once per call

    def digest(block: int) -> bytes:
        h = prefixed.copy()
        h.update(_BLOCK.pack(block))
        return h.digest()

    first = start // 4
    data = b"".join(map(digest, range(first, -(-(start + count) // 4))))
    skip = start - 4 * first
    return np.frombuffer(data, dtype=">u8")[skip : skip + count].astype(np.uint64)


_FISHER_YATES_CHUNK = 4096  # bounded draws per word slice; bounds the slice's memory


def fisher_yates_table(seed: int, function_id: str, n_bits: int) -> np.ndarray:
    """Seeded permutation table on {0,1}^n_bits as a uint64 array.

    Position i, from the top down, swaps with j_i: the next ``sha_words``
    word below 2**64 - (2**64 % (i + 1)), modulo i + 1.  A rejected word
    is skipped, which shifts every later draw by one word.

    The swaps are drawn first and then resolved without a Python loop.
    Position i is final after its own swap, which moves there the value
    that position j_i holds at that time: j_i itself, unless a step k > i
    with j_k = j_i ran earlier.  The smallest such k (the most recent)
    left there the value position k held just before its own swap, and
    that value is found the same way: position k holds k unless a step
    above k swapped with it, and then it holds what the smallest such
    step found.  Those chains only go up, so pointer jumping resolves
    them in log2(longest chain) rounds.
    """
    size = 1 << n_bits
    swap = np.zeros(size, dtype=np.int32)  # swap[i] = j_i; step 0 is the no-op j_0 = 0
    top, next_word = size - 1, 0  # the highest step not yet drawn, and the word it reads first
    while top > 0:
        bounds = np.arange(top + 1, max(top - _FISHER_YATES_CHUNK, 0) + 1, -1, dtype=np.uint64)
        words = sha_words(seed, function_id, n_bits, next_word, bounds.size)
        # word < 2**64 - r  <=>  word <= ~r, where r = 2**64 % bound = (2**64 - bound) % bound
        rejected = np.flatnonzero(words > ~((~bounds + np.uint64(1)) % bounds))
        take = int(rejected[0]) if rejected.size else bounds.size  # draws before the first rejection
        swap[top : top - take : -1] = words[:take] % bounds[:take]
        top -= take
        next_word += take + (take < bounds.size)  # past the rejected word, if any

    # Steps sorted by the position they swap with, each group in ascending step order.
    order = np.argsort(swap.astype(np.min_scalar_type(size - 1)), kind="stable").astype(np.int32)
    grouped = swap[order]
    same = grouped[1:] == grouped[:-1]
    later = np.full(size, -1, dtype=np.int32)  # later[i]: next step above i with the same j, or -1
    later[order[:-1][same]] = order[1:][same]
    # up[p]: the smallest step above p that swaps with position p (the head of p's
    # group), or p itself when none does.  A step p with j_p = p heads its own group,
    # so up[p] = p there too; no chain reads it, as every step in a chain is above its j.
    up = np.arange(size, dtype=np.int32)
    heads = np.flatnonzero(np.concatenate(([True], ~same)))
    up[grouped[heads]] = order[heads]
    del order, grouped, same, heads
    while True:
        jumped = up[up]
        if np.array_equal(jumped, up):
            break
        up = jumped
    del jumped
    return np.where(later >= 0, up[later], swap).astype(np.uint64)


class ParameterError(ValueError):
    """A caller's argument outside its domain: a library parameter, a CLI
    flag, a record field or a query.  The CLI exits 2 on it; a plain
    ``ValueError`` from the library is a bug and keeps its traceback."""


# A power 2^b with |b| up to this stays a normal float, with room for the
# few factors the parameter classes multiply it by.
_MAX_POWER_BITS = 1000


def check_power(c: float, base: int, exponent: float, what: str) -> None:
    """Reject an exponent parameter ``c`` whose power ``base ** exponent``
    (named ``what``, such as ``"n^-c"``) a float cannot hold: a non-finite
    exponent, or one so large that the power or its reciprocal would
    underflow to 0 or overflow.  Checked before the power is computed."""
    if not (math.isfinite(exponent) and abs(exponent) * math.log2(max(base, 2)) <= _MAX_POWER_BITS):
        raise ParameterError(f"c={c} is out of range: {what} = {base}^{exponent} does not fit a float")


def int_to_bits(value: int, width: int) -> str:
    if value < 0 or value >= 1 << width:
        raise ParameterError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def parse_bits(bits, width: int | None = None, name: str = "bits") -> int:
    """The integer that the '0'/'1' string ``bits`` spells, most significant bit first.

    The one check of a caller's bitstring: ``int(s, 2)`` alone would also
    read "0b1", "0_1" or " 1".  With a width, the length must equal it.
    """
    if not isinstance(bits, str) or bits.strip("01") or (width is not None and len(bits) != width):
        chars = "'0'/'1' characters" if width is None else f"{width} '0'/'1' characters"
        raise ParameterError(f"{name} must be {chars}, got {name}={bits!r}")
    return int(bits, 2) if bits else 0
