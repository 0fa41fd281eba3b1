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
  a fifth is rejected.  A stream is built from two arrays, the counter
  words ``[0, 0, counter mod 2**64, counter >> 64]`` and the key
  ``[seed, 0]``, which is made once per seed and shared read-only by
  that seed's streams until another seed's stream is built.

* ``derive_int`` and ``sha_words`` are two stateless keyed derivations
  (SHA-256 in counter mode) over one unambiguous prefix encoding
  ``seed || function-id || n``, so an oracle world is reproducible from
  its seed alone, across platforms and languages.  ``derive_int`` hashes
  an input ``x`` below 2**128 and a 4-byte block counter (``derive_bits``
  is its '0'/'1' string); ``sha_words``, the word stream of the seeded
  Fisher-Yates shuffle, an 8-byte one.  Both widths are part of
  ``DERIVATION_ID`` v1.  ``fisher_yates_positions`` resolves the
  shuffle's swaps for the values below a count only, which is all the
  bot world's bad-input mask reads; at count = 2^n it places every
  value, the whole permutation.  The digests are SHA-256's
  whichever code computes them: ``_sha256`` is CPython's built-in
  SHA-256 (module ``_sha256`` on 3.10/3.11, ``_sha2`` from 3.12), which
  skips the per-call set-up of hashlib's OpenSSL constructor, and that
  constructor only on a CPython built without its own.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

# Seeds of the fixed streams that evaluate a generator outside any caller's
# stream; distinct so no two of them share draws.
IMAGE_SEARCH_SEED = 0xA0D1  # brute-force image search, stream (key << 8) + eval
OWSG_SEARCH_SEED = 0xA0D2  # brute-force OWSG key search, stream key
TABLE_EVAL_SEED = 0xA0D3  # table-function evaluation called without an rng

_U64 = (1 << 64) - 1
_MAX_COUNTER = 1 << 128  # counter << 128 must fit Philox's 256-bit counter
_CHILD_FANOUT = (1 << 32) - 1  # child indices below this never reach the next parent's range


class _KeySeed(np.random.bit_generator.ISeedSequence):
    """The seed sequence whose two 64-bit words are the Philox key ``[seed, 0]``,
    held as one read-only uint64 array."""

    def __init__(self, seed: int):
        self.seed = seed
        self.key = np.array([seed, 0], dtype=np.uint64)
        self.key.flags.writeable = False

    def generate_state(self, n_words, dtype=np.uint64):
        return self.key.astype(dtype, copy=False)


_key_seed = functools.lru_cache(maxsize=1)(_KeySeed)  # the last seed's key, made once


_BIT_CHARS = np.frombuffer(b"01", dtype=np.uint8)  # draw b -> ASCII '0' + b


@dataclass
class SeededRng:
    """Named, reproducible randomness stream over Philox4x64-10, the
    counter-based generator of Salmon et al. (SC 2011).

    Identical ``(seed, counter)`` pairs yield identical draw sequences.
    The object is single-owner: it holds a live numpy ``Generator``
    whose position advances with every draw.  Parallel trials should
    each construct their own ``SeededRng`` via ``child``.  The Philox
    generator is built on the first draw, so a stream that never draws
    costs only its validation.  It is built from a seed sequence that
    gives the key ``[seed, 0]``, kept from the last build of the same
    seed, and from the counter words of ``counter << 128``, so no state
    dict is set, no OS entropy is gathered and no Python int is split
    into words for it.
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
            # Philox(key=seed) would first gather OS entropy that the key then discards;
            # the words [0, 0, c mod 2**64, c >> 64] are the 256-bit counter c << 128
            counter = np.array((0, 0, self.counter & _U64, self.counter >> 64), dtype=np.uint64)
            philox = np.random.Philox(_key_seed(self.seed), counter=counter)
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

    def uniforms(self, k: int) -> np.ndarray:
        return self.generator.random(k)

    def integers(self, low: int, high: int, size=None):
        return self.generator.integers(low, high, size=size)

    def standard_normal(self, size=None, out=None):
        return self.generator.standard_normal(size, out=out)

    def bit(self) -> int:
        return int(self.generator.integers(0, 2))

    def bits(self, n: int) -> str:
        return _BIT_CHARS[self.generator.integers(0, 2, size=n)].tobytes().decode("ascii")

    def multinomial(self, n: int, pvals) -> np.ndarray:
        return self.generator.multinomial(n, pvals)


try:  # CPython's own SHA-256: the same digests without OpenSSL's per-call set-up
    _sha256 = hashlib.__get_builtin_constructor("sha256")
except ValueError:  # a CPython built without it
    _sha256 = hashlib.sha256


def _derivation_prefix(seed: int, function_id: str, n: int) -> bytes:
    fid = function_id.encode("utf-8")
    return struct.pack(">QI", seed & _U64, len(fid)) + fid + struct.pack(">I", n)


def derive_int(seed: int, function_id: str, n: int, x: int, nbits: int) -> int:
    """nbits of keyed pseudorandomness for input ``x``, as an integer.

    SHA-256 in counter mode over the fixed-width encoding
    ``seed(8B) || len(id)(4B) || id || n(4B) || x(16B) || block(4B)``;
    the value is the first nbits of the digests, most significant first.
    An ``x`` outside [0, 2**128), which 16 bytes cannot hold, is refused.
    """
    if nbits <= 0:
        raise ParameterError("nbits must be positive")
    try:
        prefix = _derivation_prefix(seed, function_id, n) + x.to_bytes(16, "big")
    except OverflowError:  # checked here, where it costs nothing on an input that fits
        raise ParameterError(f"input x must be in [0, 2**128) for its 128-bit encoding, got x={x}") from None
    out = b""
    for block in range(-(-nbits // 256)):
        out += _sha256(prefix + struct.pack(">I", block)).digest()
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
    prefix, first, end = _derivation_prefix(seed, function_id, n), start // 4, -(-(start + count) // 4)
    data = b"".join([_sha256(prefix + _BLOCK.pack(b)).digest() for b in range(first, end)])
    skip = start - 4 * first
    return np.frombuffer(data, dtype=">u8")[skip : skip + count].astype(np.uint64)


_FISHER_YATES_CHUNK = 4096  # bounded draws per word slice; bounds the slice's memory


def _fisher_yates_swaps(seed: int, function_id: str, n_bits: int) -> np.ndarray:
    """The swap indices of the Fisher-Yates shuffle on {0,1}^n_bits, as an int32 array.

    Entry i is j_i, drawn for position i from the top down: the next
    ``sha_words`` word below 2**64 - (2**64 % (i + 1)), modulo i + 1.  A
    rejected word is skipped, which shifts every later draw by one word.
    Entry 0 is the no-op j_0 = 0.
    """
    size = 1 << n_bits
    swap = np.zeros(size, dtype=np.int32)
    top, next_word = size - 1, 0  # the highest step not yet drawn, and the word it reads first
    while top > 0:
        bounds = np.arange(top + 1, max(top - _FISHER_YATES_CHUNK, 0) + 1, -1, dtype=np.uint64)
        words = sha_words(seed, function_id, n_bits, next_word, bounds.size)
        # A word is rejected when word >= 2**64 - r, r = 2**64 % bound < bound, so
        # only words >= 2**64 - bound (word > ~bound) need the exact limit ~r.
        near = np.flatnonzero(words > ~bounds)
        b = bounds[near]
        rejected = near[words[near] > ~((~b + np.uint64(1)) % b)]
        take = int(rejected[0]) if rejected.size else bounds.size  # draws before the first rejection
        swap[top : top - take : -1] = words[:take] % bounds[:take]
        top -= take
        next_word += take + (take < bounds.size)  # past the rejected word, if any
    return swap


def fisher_yates_positions(seed: int, function_id: str, n_bits: int, count: int) -> np.ndarray:
    """Final positions of the values below ``count`` in the seeded permutation
    of {0,1}^n_bits, as an int32 array: entry v is the position that holds v.

    Step k of the shuffle, from the top down, swaps positions k and
    j_k <= k (``_fisher_yates_swaps``), so no step after k reaches
    position k.  A value at position p is next reached either by the
    latest step k > p still to run with j_k = p, which moves it up to k
    for good, or, when none is left, by step p, which moves it down to
    j_p (or leaves it at p for good when j_p = p).  So a value moves down
    until it moves up once, and a value below ``count`` only ever waits
    at positions below ``count``: only the steps with j_k < count are
    read.  Grouped by j_k in step order, a value v is first reached by
    the last step of group v, and after step p moved it down, by the step
    before p in group j_p.  The values walk down together, one step per
    numpy round, about n_bits rounds in all.
    """
    size = 1 << n_bits
    if not 0 < count <= size:
        raise ParameterError(f"count must be in [1, 2**{n_bits}], got {count}")
    swap = _fisher_yates_swaps(seed, function_id, n_bits)
    # The steps that swap with a position below count, grouped by that position
    # in ascending step order; step 0 (j_0 = 0) heads group 0, so no walk passes 0.
    steps = np.flatnonzero(swap < count)
    keys = np.sort((swap[steps].astype(np.int64) << n_bits) | steps)  # (j_k, k), distinct
    steps, groups = (keys & (size - 1)).astype(np.int32), (keys >> n_bits).astype(np.int32)
    same = groups[1:] == groups[:-1]
    last = np.full(count, -1, dtype=np.int32)  # last[p]: the last step in group p, or -1
    ends = np.flatnonzero(np.append(~same, True))
    last[groups[ends]] = steps[ends]
    before = np.full(count, -1, dtype=np.int32)  # before[p]: the step before p in group j_p, or -1
    low = np.flatnonzero(steps[1:] < count)  # steps[0] is 0, which no step precedes
    before[steps[1:][low]] = np.where(same[low], steps[:-1][low], -1)
    del steps, groups, same, keys, ends, low

    position = last  # a value v whose group has a step ends at its last one
    waiting = np.flatnonzero(position < 0)
    at = waiting.astype(np.int32)  # the position each waiting value sits at
    while waiting.size:
        up = before[at]  # step at moves the value to j_at; up is the next step to reach it there
        moved = up >= 0
        position[waiting[moved]] = up[moved]
        waiting, at = waiting[~moved], swap[at[~moved]]
    return position


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
        raise ParameterError(f"{name} must be {chars}, got {bits!r}")
    return int(bits, 2) if bits else 0
