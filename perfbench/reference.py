"""Fixed reference tasks that measure how fast the host is running right now.

This host's speed swings by up to 2x over tens of seconds, and CPU time
swings with wall time, so raw request times of one workload spread by
15-35 % between 32-second runs.  Each workload therefore has a reference
task made of the same library calls that the seed code's hot path makes
(hashlib, numpy Philox draws, small dataclasses, int/str conversion),
without importing qrandlab.  The benchmark runs it between requests and
reports request time in multiples of it, which a host slowdown moves in
both alike and a change to qrandlab moves in one only.

These tasks must not change: a changed task changes every normalised figure.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Bits:
    payload: str

    def __post_init__(self):
        if set(self.payload) - {"0", "1"}:
            raise ValueError(self.payload)


def owsg_search() -> float:
    """Key scoring: SHA-256 derived seed, fresh Philox stream, 16-dim state, fidelities."""
    acc = 0.0
    prefix = struct.pack(">QI", 11, 12) + b"toy-owsg-haar" + struct.pack(">I", 8)
    copy = np.ones(16, dtype=complex) / 4
    for k in range(400):
        digest = hashlib.sha256(prefix + k.to_bytes(16, "big") + struct.pack(">I", 0)).digest()
        seed = int("".join(f"{b:08b}" for b in digest)[:64], 2)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=0))
        raw = gen.standard_normal(32).view(complex)
        amps = np.asarray(raw / np.linalg.norm(raw), dtype=complex)
        norm = np.linalg.norm(amps)
        amps = amps.copy()
        amps.setflags(write=False)
        acc += abs(np.vdot(amps, copy)) ** 2 * abs(np.vdot(amps, copy)) ** 2 + norm
    return acc


def abort_vote() -> float:
    """A small seeded Fisher-Yates table, then cached abort-oracle style lookups and votes."""
    acc = 0
    cache = {}
    table = np.arange(1 << 12, dtype=np.uint64)
    digest = hashlib.sha256(b"ref").digest()
    for i in range(len(table) - 1, 0, -1):
        if i % 4 == 0:
            digest = hashlib.sha256(digest + struct.pack(">Q", i)).digest()
        j = int.from_bytes(digest[(i % 4) * 8 : (i % 4) * 8 + 8], "big") % (i + 1)
        table[i], table[j] = table[j], table[i]
    for r in range(6000):
        x = format(r & 255, "016b")
        xi = int(x, 2)
        w = math.ceil(math.log2(4 / (16**-1.0)))
        value = cache.get(xi)
        if value is None:
            value = int.from_bytes(hashlib.sha256(x.encode()).digest()[:4], "big")
            cache[xi] = value
        y = format(value, "032b")
        if int(table[xi]) >> (16 - w) == 0:
            acc += 1
        counts = {}
        for out in (_Bits(y), _Bits(y)):
            counts[out] = counts.get(out, 0) + 1
        acc += max(counts.values())
    return float(acc)


def extract_d4096() -> float:
    """4096-dim Haar-like states, two multinomial diagonal estimates each, block sums."""
    gen = np.random.Generator(np.random.Philox(3))
    acc = 0.0
    for _ in range(40):
        raw = gen.standard_normal(8192).view(complex)
        probs = np.abs(raw / np.linalg.norm(raw)) ** 2
        for _ in range(2):
            counts = gen.multinomial(1000000, probs)
            acc += float((counts / 1000000).reshape(4, 1024).sum(axis=1)[0])
    return acc


TASKS = {"owsg-search": owsg_search, "abort-vote": abort_vote, "extract-d4096": extract_d4096}
