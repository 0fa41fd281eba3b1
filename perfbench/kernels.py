"""Kernel sweep: ROADMAP item 1's seed table, timed through public calls.

Each kernel runs in ``REPEATS`` batches and reports the median batch
time per call, so one slow batch does not move the figure.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 5


def _per_call(batch, calls: int, scale: float) -> float:
    times = []
    for rep in range(REPEATS):
        t0 = time.perf_counter()
        batch(rep)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / calls * scale


def sweep(seed: int) -> dict[str, tuple[float, str]]:
    from qrandlab.experiments import moment_distance
    from qrandlab.oracles import OracleWorld, bot_oracle_eval, candidate_image
    from qrandlab.qcore import haar_sample
    from qrandlab.rng import SeededRng, derive_bits, int_to_bits
    from qrandlab.toys import random_phase_sprs, toy_prg

    rng = SeededRng(seed, 7)
    out = {}

    def seeded_rng(rep):
        for i in range(2000):
            SeededRng(seed, rep * 2000 + i)

    out["kernel.SeededRng_us"] = (_per_call(seeded_rng, 2000, 1e6), "us")
    out["kernel.rng_bits384_us"] = (_per_call(lambda rep: [rng.bits(384) for _ in range(500)], 500, 1e6), "us")

    def derive(rep):
        for x in range(rep * 2000, (rep + 1) * 2000):
            derive_bits(seed, "toy-prg", 8, x, 24)

    out["kernel.derive_bits24_us"] = (_per_call(derive, 2000, 1e6), "us")
    out["kernel.haar_sample4096_us"] = (_per_call(lambda rep: [haar_sample(4096, rng) for _ in range(50)], 50, 1e6), "us")

    # A fresh world; its permutation table is built before timing, and each
    # batch queries inputs the world has not seen, so every call hashes.
    world = OracleWorld("bot-world", seed, n_max=16, c=1.0)
    bot_oracle_eval(world, "0" * 16, rng)
    inputs = [int_to_bits(x, 16) for x in range(1, 1 + REPEATS * 1000)]

    def bot_eval(rep):
        for x in inputs[rep * 1000 : (rep + 1) * 1000]:
            bot_oracle_eval(world, x, rng)

    out["kernel.bot_oracle_eval_us"] = (_per_call(bot_eval, 1000, 1e6), "us")
    prg = toy_prg(8, 24)
    out["kernel.candidate_image_toy_prg_8_24_ms"] = (_per_call(lambda rep: candidate_image(prg), 1, 1e3), "ms")

    # One 2000-key gramian chunk plus the 2080 x 2080 eigensolve.
    gen = random_phase_sprs(64)
    t0 = time.perf_counter()
    moment_distance(gen, 2, 2000, "monte-carlo", SeededRng(seed, 9))
    out["kernel.moment_distance_n64_2000_s"] = (time.perf_counter() - t0, "s")
    return out
