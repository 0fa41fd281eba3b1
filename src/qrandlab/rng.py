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

* ``derive_int`` / ``ShaStream`` implement a keyed deterministic
  derivation (SHA-256 in counter mode over an unambiguous encoding of
  ``seed || function-id || n || input``).  Oracle worlds are built from
  it, so a world is reproducible from its seed alone, across platforms
  and across reimplementations in other languages.  ``derive_bits`` is
  the same value as a '0'/'1' string.  ``derive_int`` packs its block
  counter as 4 big-endian bytes and ``ShaStream`` as 8; both widths are
  part of ``DERIVATION_ID`` v1 and must not change.
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


class _ZeroSeedSequence(np.random.bit_generator.ISeedSequence):
    """All-zero seed words: the Philox it seeds gets its real state set next."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_ZERO_SEED = _ZeroSeedSequence()


@dataclass
class SeededRng:
    """Named, reproducible randomness stream over Philox4x64-10
    (``PHILOX_ALGORITHM``).

    Identical ``(seed, counter)`` pairs yield identical draw sequences.
    The object is single-owner: it holds a live numpy ``Generator``
    whose position advances with every draw.  Parallel trials should
    each construct their own ``SeededRng`` via ``child``.  The Philox
    generator is built on the first draw, so a stream that never draws
    costs only its validation; it is built by setting the documented
    Philox state (key ``[seed, 0]``, counter ``counter << 128``), so no
    OS entropy is gathered for it.
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
            # Philox(key=seed, counter=counter << 128) gives the same stream but first
            # draws an OS-entropy SeedSequence that a given key then discards.
            philox = np.random.Philox(_ZERO_SEED)
            philox.state = {
                "bit_generator": "Philox",
                "state": {
                    "counter": np.array([0, 0, self.counter & _U64, self.counter >> 64], dtype=np.uint64),
                    "key": np.array([self.seed, 0], dtype=np.uint64),
                },
                "buffer": np.zeros(4, dtype=np.uint64),
                "buffer_pos": 4,  # the buffer is empty: the first draw computes block 0
                "has_uint32": 0,
                "uinteger": 0,
            }
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
        return "".join("01"[b] for b in self.generator.integers(0, 2, size=n))

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


_BLOCK = struct.Struct(">Q")  # ShaStream's block counter


class ShaStream:
    """Deterministic byte stream (SHA-256 counter mode) with bounded draws.

    Used for seeded Fisher-Yates permutation tables.  Bounded integers
    come from rejection sampling on 64-bit big-endian words, so the
    stream is exactly reproducible in any language with SHA-256.  Words
    are hashed and tested in bulk; the draws are the same as one word
    at a time.
    """

    def __init__(self, seed: int, function_id: str, n: int):
        self._prefixed = hashlib.sha256(_derivation_prefix(seed, function_id, n))
        self._block = 0
        self._buf = b""

    def _digest(self, block: int) -> bytes:
        h = self._prefixed.copy()  # the prefix is hashed once per stream
        h.update(_BLOCK.pack(block))
        return h.digest()

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` words as a uint64 array."""
        need = 8 * count - len(self._buf)
        if need > 0:
            blocks = range(self._block, self._block + -(-need // 32))
            self._buf += b"".join(map(self._digest, blocks))
            self._block = blocks.stop
        data, self._buf = self._buf[: 8 * count], self._buf[8 * count :]
        return np.frombuffer(data, dtype=">u8").astype(np.uint64)

    def _next_word(self) -> int:
        return int(self._words(1)[0])

    def bounded_many(self, bounds: np.ndarray) -> np.ndarray:
        """Uniform integers in [0, bounds[i]), drawn in order, as a uint64 array.

        Each draw takes words until one lies below the largest multiple
        of its bound, 2**64 - (2**64 % bound), and returns it modulo the
        bound; a rejected word shifts every later draw by one word.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        if (bounds == 0).any():
            raise ParameterError("bound must be positive")
        # word < 2**64 - r  <=>  word <= ~r, where r = 2**64 % bound = (2**64 - bound) % bound
        highest = ~((~bounds + np.uint64(1)) % bounds)
        out = np.empty(bounds.size, dtype=np.uint64)
        done = 0
        while done < bounds.size:
            words = self._words(bounds.size - done)
            used = 0
            while used < words.size:
                span = slice(done, done + words.size - used)
                w = words[used:]
                rejected = np.flatnonzero(w > highest[span])
                take = int(rejected[0]) if rejected.size else w.size
                out[done : done + take] = w[:take] % bounds[done : done + take]
                done += take
                used += take + 1  # skip the rejected word, if any
        return out

    def bounded(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection below the largest multiple."""
        if not 0 < bound < 1 << 64:
            raise ParameterError(f"bound must be in [1, 2**64), got {bound}")
        return int(self.bounded_many(np.array([bound], dtype=np.uint64))[0])


_FISHER_YATES_CHUNK = 4096  # bounded draws per bulk call; bounds the word buffer's memory


def fisher_yates_table(seed: int, function_id: str, n_bits: int) -> np.ndarray:
    """Seeded permutation table on {0,1}^n_bits as a uint64 array.

    Position i, from the top down, swaps with j_i = stream.bounded(i + 1).
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
    stream = ShaStream(seed, function_id, n_bits)
    swap = np.zeros(size, dtype=np.int32)  # swap[i] = j_i; step 0 is the no-op j_0 = 0
    for top in range(size - 1, 0, -_FISHER_YATES_CHUNK):
        low = max(top - _FISHER_YATES_CHUNK, 0)
        swap[top:low:-1] = stream.bounded_many(np.arange(top + 1, low + 1, -1, dtype=np.uint64))

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
