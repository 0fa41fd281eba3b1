import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qrandlab import experiments
from qrandlab.experiments import (
    _ANSWER_BUDGET,
    _ml_scores,
    bruteforce_owsg_handle,
    bruteforce_prg_handle,
    exp_owsg,
    exp_prg,
)
from qrandlab.oracles import (
    BotOracleParams,
    KeySpaceTooLargeError,
    OracleWorld,
    WrongWorldKindError,
    bot_oracle_eval,
    bot_oracle_eval_many,
    bot_oracle_good_set,
    bot_prg_handle,
    candidate_states,
    decode_flip_index,
    flip_state_dim,
    _bad_input_mask,
    measure_flipped,
    prfqs_from_world,
    sampler_oracle,
    verify_eval_oracle,
)
from qrandlab.primitives import GeneratorHandle
from qrandlab.qcore import MemoryBudgetError, StateVector, born_distribution, haar_sample, measure_computational
from qrandlab.rng import OWSG_SEARCH_SEED, ParameterError, SeededRng, fisher_yates_positions, int_to_bits
from qrandlab.toys import toy_owsg_basis, toy_owsg_haar, toy_prg
from fixtures import constant_owsg
from reference import apply_flip, flip_oracle, flip_target_state, haar_noise_owsg, reference_derive_int


class TestBotOracleParams:
    def test_smallest_w_in_window(self):
        params = BotOracleParams(12, 1.0)
        assert params.w == 6
        assert params.mu / 16 <= 2.0**-params.w <= params.mu / 4

    # 32^-c lands one ulp below a power of two at these c, so log2(4 / mu) rounds
    # down onto an integer; a scan of n <= 128 and c in steps of 0.001 finds no others
    LOG2_EDGE_C = [0.4, 0.8, 1.6, 1.8, 2.6, 3.2, 3.6, 4.2, 5.2]

    @pytest.mark.parametrize("c", LOG2_EDGE_C)
    def test_world_builds_where_log2_rounds_onto_an_integer(self, c):
        params = OracleWorld("bot-world", 1, n_max=32, c=c).bot_params(32)
        assert 2.0**-params.w <= params.mu / 4 < 2.0 ** -(params.w - 1)

    @given(st.integers(2, 128), st.floats(0.01, 10).map(lambda c: float(f"{c:.12g}")))
    @example(32, 0.4)
    @example(12, 1.0)
    @settings(max_examples=300, deadline=None)
    def test_w_is_the_smallest_width_under_a_quarter_of_mu(self, n, c):
        try:
            params = BotOracleParams(n, c)
        except ParameterError as exc:  # mu too small for n
            assert "exceeds" in str(exc)
            return
        assert params.mu / 16 <= 2.0**-params.w <= params.mu / 4 < 2.0 ** -(params.w - 1)

    def test_w_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            BotOracleParams(4, 10.0)

    def test_output_longer_than_input(self):
        assert BotOracleParams(12, 1.0).m > 12

    @pytest.mark.parametrize("c", [math.inf, math.nan, 1e300, 400.0])
    def test_exponent_a_float_cannot_hold_rejected(self, c):
        # 8^-1e300 and 8^-400 = 2^-1200 underflow to 0, inf and nan give no finite power
        with pytest.raises(ParameterError, match=r"out of range: mu = n\^-c"):
            BotOracleParams(8, c)
        with pytest.raises(ParameterError, match=r"out of range: mu = n\^-c"):
            OracleWorld("bot-world", 1, n_max=8, c=c)


class TestBotOracle:
    world = OracleWorld("bot-world", seed=5, n_max=12)

    def good_and_bad(self, n=12):
        good = bot_oracle_good_set(self.world, n)
        bad = [int_to_bits(x, n) for x in range(1 << n) if int_to_bits(x, n) not in good]
        return good, bad

    def test_good_input_is_deterministic(self):
        good, _ = self.good_and_bad()
        x = sorted(good)[0]
        rng = SeededRng(1)
        outputs = {str(bot_oracle_eval(self.world, x, rng)) for _ in range(1000)}
        assert len(outputs) == 1 and "bot" not in outputs

    def test_zero_abort_probability_bad_input(self):
        # Each world has exactly 2^(12-6) = 64 bad inputs at n = 12, each with
        # Q_n(x) = 0 with probability 2^-12, so 1024 worlds hold none with
        # probability (1 - 2^-12)^65536 = 1.1e-7.
        n, seeds = 12, 1024
        found = None
        for seed in range(seeds):
            world = OracleWorld("bot-world", seed=seed, n_max=n)
            good = bot_oracle_good_set(world, n)
            bad = [x for x in range(1 << n) if int_to_bits(x, n) not in good]
            assert len(bad) == 1 << (n - world.bot_params(n).w)
            zero = [x for x in bad if world.q_value(n, x) == 0]
            if zero:
                found = world, int_to_bits(zero[0], n)
                break
        assert found is not None, f"no bad input with Q_n(x) = 0 in {seeds} worlds"
        world, x = found
        rng = SeededRng(2)
        assert all(not bot_oracle_eval(world, x, rng).is_bot for _ in range(500))

    def test_bad_input_abort_frequency(self):
        _, bad = self.good_and_bad()
        n, evals = 12, 20_000
        x = max(bad, key=lambda x: self.world.q_value(n, int(x, 2)))
        p = self.world.q_value(n, int(x, 2)) / (1 << n)
        rng = SeededRng(3)
        freq = sum(bot_oracle_eval(self.world, x, rng).is_bot for _ in range(evals)) / evals
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / evals)

    def test_bad_input_has_exactly_two_outcomes(self):
        _, bad = self.good_and_bad()
        n = 12
        x = max(bad, key=lambda x: self.world.q_value(n, int(x, 2)))
        expected = int_to_bits(self.world.o_value(n, int(x, 2)), 24)
        rng = SeededRng(4)
        seen = {str(bot_oracle_eval(self.world, x, rng)) for _ in range(2000)}
        assert seen == {"bot", expected}

    def test_membership_agrees_with_abort_behavior(self):
        good, bad = self.good_and_bad()
        rng = SeededRng(6)
        for x in sorted(good)[:5]:
            assert all(
                not bot_oracle_eval(self.world, x, rng).is_bot for _ in range(1000)
            )
        n = 12
        heavy = max(bad, key=lambda x: self.world.q_value(n, int(x, 2)))
        assert any(bot_oracle_eval(self.world, heavy, rng).is_bot for _ in range(1000))

    def test_good_set_mass_exact(self):
        for seed in (5, 6, 7):
            world = OracleWorld("bot-world", seed=seed, n_max=12)
            good = bot_oracle_good_set(world, 12)
            w = world.bot_params(12).w
            assert len(good) / 4096 == 1 - 2.0**-w

    def test_good_set_budget(self):
        world = OracleWorld("bot-world", seed=5, n_max=24)
        with pytest.raises(MemoryBudgetError):
            bot_oracle_good_set(world, 21)

    def test_permutation_is_bijection(self):
        for n in (4, 8, 12):
            world = OracleWorld("bot-world", seed=9, n_max=n)
            table = np.argsort(fisher_yates_positions(world.seed, "bot-world/P", n, 1 << n))
            assert sorted(table.tolist()) == list(range(1 << n))
            # the bad inputs are the positions of P_n's 2^(n-w) smallest values
            assert np.array_equal(world.bad_inputs(n), table < 1 << (n - world.bot_params(n).w))

    def test_same_seed_same_world(self):
        a = OracleWorld("bot-world", seed=11, n_max=8)
        b = OracleWorld("bot-world", seed=11, n_max=8)
        assert np.array_equal(a.bad_inputs(8), b.bad_inputs(8))
        assert bot_oracle_good_set(a, 8) == bot_oracle_good_set(b, 8)
        assert all(a.o_value(8, x) == b.o_value(8, x) for x in range(256))

    def test_handle_wraps_oracle(self):
        gen = bot_prg_handle(self.world, 12)
        assert gen.kind == "bot-prg" and gen.output_len == 24
        out = gen.eval("0" * 12, SeededRng(1))
        assert out == bot_oracle_eval(self.world, "0" * 12, SeededRng(1))

    def test_wrong_world_kind(self):
        flip = OracleWorld("flip-world", seed=1, n_max=4)
        with pytest.raises(WrongWorldKindError):
            bot_oracle_eval(flip, "0000", SeededRng(0))


class TestOracleWorldSeed:
    """One world per recorded seed: a seed is refused unless it is an int in [0, 2^64)."""

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 3 * (1 << 64) - 1, "3", 3.0, True])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # each would derive another seed's O_n (or fail at its first query) under its own recorded name
        with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            OracleWorld("sampler-world", seed, n_max=8)

    def test_largest_seed_round_trips_its_record(self):
        world = OracleWorld("sampler-world", (1 << 64) - 1, n_max=8)
        again = OracleWorld.from_record(world.to_record())
        assert again == world
        assert again.o_value(8, 5) == reference_derive_int((1 << 64) - 1, "sampler-world/O", 8, 5, 8)

    @pytest.mark.parametrize("field", ["world-kind", "seed", "n-max"])
    def test_record_without_a_field_is_refused(self, field):
        rec = OracleWorld("bot-world", 11, n_max=8).to_record()
        del rec[field]
        with pytest.raises(ParameterError, match=f"lacks the '{field}' field"):
            OracleWorld.from_record(rec)

    def test_empty_record_is_refused(self):
        with pytest.raises(ParameterError, match="lacks the 'world-kind' field"):
            OracleWorld.from_record({})

    def test_record_with_a_string_seed_is_refused(self):
        rec = {**OracleWorld("bot-world", 3, n_max=8).to_record(), "seed": "3"}
        with pytest.raises(ParameterError, match="got '3'"):
            OracleWorld.from_record(rec)

    @pytest.mark.parametrize(
        "kind, changes, message",
        [
            ("flip-world", {"n-max": "8"}, "n_max must be an integer >= 2, got '8'"),
            ("flip-world", {"n-max": 8.5}, "n_max must be an integer >= 2, got 8.5"),
            ("flip-world", {"n-max": 1}, "n_max must be an integer >= 2, got 1"),
            ("bot-world", {"c": "1.0"}, "c must be an int or a float, got '1.0'"),
            ("bot-world", {"c": True}, "c must be an int or a float, got True"),
        ],
    )
    def test_record_with_an_invalid_field_is_refused_by_name(self, kind, changes, message):
        # a bare TypeError would not name the field, and 8.5 or True would build a world
        rec = {**OracleWorld(kind, 3, n_max=8).to_record(), **changes}
        with pytest.raises(ParameterError, match=message):
            OracleWorld.from_record(rec)


class TestBotOracleEvalMany:
    world = OracleWorld("bot-world", seed=5, n_max=12)

    def inputs(self):
        good = bot_oracle_good_set(self.world, 12)
        bad = [int_to_bits(x, 12) for x in range(1 << 12) if int_to_bits(x, 12) not in good]
        heavy = max(bad, key=lambda x: self.world.q_value(12, int(x, 2)))
        return {"good": sorted(good)[0], "bad": heavy}

    @pytest.mark.parametrize("kind", ["good", "bad"])
    def test_equals_sequential_calls_on_one_stream(self, kind):
        x = self.inputs()[kind]
        batched, single = SeededRng(8, 2), SeededRng(8, 2)
        many = bot_oracle_eval_many(self.world, x, batched, 300)
        assert many == [bot_oracle_eval(self.world, x, single) for _ in range(300)]
        assert batched.uniform() == single.uniform()
        assert any(v.is_bot for v in many) == (kind == "bad")

    @pytest.mark.parametrize("kind", ["good", "bad"])
    def test_single_query_draws_one_uniform(self, kind):
        # the k = 1 batch, random(1) on Philox, is one uniform() draw
        x = self.inputs()[kind]
        p_x = self.world.q_value(12, int(x, 2)) / (1 << 12) if kind == "bad" else 0.0
        queried, reference = SeededRng(8, 3), SeededRng(8, 3)
        for _ in range(200):
            aborted = bot_oracle_eval(self.world, x, queried).is_bot
            assert aborted == (kind == "bad" and reference.uniform() < p_x)
        assert queried.drawn == (kind == "bad")
        assert queried.uniform() == reference.uniform()

    def test_handle_batches_through_eval_many(self):
        x = self.inputs()["bad"]
        gen = bot_prg_handle(self.world, 12)
        a, b = SeededRng(9), SeededRng(9)
        assert gen.eval_repeated(x, a, 40) == [gen.eval(x, b) for _ in range(40)]
        assert a.uniform() == b.uniform()

    @pytest.mark.parametrize("x", ["0b010101", "0001_101"])
    def test_rejects_malformed_bitstrings(self, x):
        # int(x, 2) reads these 8-character strings as "00010101" and "00001101"
        world = OracleWorld("bot-world", seed=5, n_max=8)
        rng = SeededRng(0)
        with pytest.raises(ValueError, match="'0'/'1' characters"):
            bot_oracle_eval(world, x, rng)
        with pytest.raises(ValueError, match="'0'/'1' characters"):
            bot_oracle_eval_many(world, x, rng, 3)
        assert not rng.drawn

    def test_rejects_negative_count_and_wrong_world(self):
        with pytest.raises(ValueError):
            bot_oracle_eval_many(self.world, "0" * 12, SeededRng(0), -1)
        flip = OracleWorld("flip-world", seed=1, n_max=4)
        with pytest.raises(WrongWorldKindError):
            bot_oracle_eval_many(flip, "0000", SeededRng(0), 3)

class TestFlipOracle:
    world = OracleWorld("flip-world", seed=21, n_max=4)

    def test_swaps_zero_state_to_target(self):
        flip = flip_oracle(self.world, 2)
        out = apply_flip(flip, StateVector.basis(flip_state_dim(2), 0))
        assert np.allclose(out.amplitudes, flip.b.amplitudes, atol=1e-10)

    def test_target_encodes_oracle_pairs(self):
        target = flip_target_state(self.world, 2)
        support = np.nonzero(target.amplitudes)[0]
        assert len(support) == 4
        for idx in support:
            lead, x, y = decode_flip_index(int(idx), 2)
            assert lead == 1
            assert int(y, 2) == self.world.o_value(2, int(x, 2))
            assert abs(target.amplitudes[idx] - 0.5) <= 1e-12

    def test_endpoints_orthogonal(self):
        flip = flip_oracle(self.world, 2)
        assert abs(np.vdot(flip.a.amplitudes, flip.b.amplitudes)) <= 1e-10

    def test_self_inverse(self):
        flip = flip_oracle(self.world, 2)
        psi = StateVector.normalized(
            flip.b.amplitudes + StateVector.basis(flip_state_dim(2), 0).amplitudes
        )
        back = apply_flip(flip, apply_flip(flip, psi))
        assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-10)

    def test_dense_budget(self):
        world = OracleWorld("flip-world", seed=21, n_max=4)
        with pytest.raises(MemoryBudgetError):
            flip_oracle(world, 3)

    def test_lazy_key_consistent(self):
        world = OracleWorld("flip-world", seed=23, n_max=4)
        key = prfqs_from_world(world, 3).qsamp(SeededRng(5))
        x, y = key[:3], key[3:]
        assert len(x) == 3 and len(y) == 24
        assert int(y, 2) == world.o_value(3, int(x, 2))


class TestMeasureFlipped:
    n = 2

    @staticmethod
    def target_indices(world, n):
        return [(1 << (9 * n)) | (x << (8 * n)) | world.o_value(n, x) for x in range(1 << n)]

    def test_matches_dense_measurement_and_stream(self):
        # the dense swap of each basis state is the reference for outcome and draw
        n, dim = self.n, flip_state_dim(self.n)
        outcomes_from_target = set()
        for seed in range(10):
            world = OracleWorld("flip-world", seed=300 + seed, n_max=n)
            flip = flip_oracle(world, n)
            target = self.target_indices(world, n)
            # off the support: a one-bit slip in y, a lead-0 index, the top index
            off = [target[1] ^ 1, target[2] ^ (1 << (8 * n - 1)), 1, 5 << (8 * n), dim - 1]
            for s in [0, *target, *off]:
                swapped = apply_flip(flip, StateVector.basis(dim, s))
                for stream in range(6):
                    dense_rng, sparse_rng = SeededRng(seed, stream), SeededRng(seed, stream)
                    expected = measure_computational(swapped, dense_rng)
                    got = measure_flipped(world, n, s, sparse_rng)
                    assert got == expected, (seed, s, stream)
                    assert sparse_rng.uniform() == dense_rng.uniform()
                    if s in target:
                        outcomes_from_target.add("self" if got == s else "zero" if got == 0 else "other")
        assert outcomes_from_target == {"self", "zero", "other"}

    def test_zero_state_lands_on_oracle_pairs_above_dense_size(self):
        world = OracleWorld("flip-world", seed=41, n_max=8)
        for n in (3, 8):
            for stream in range(20):
                lead, x, y = decode_flip_index(measure_flipped(world, n, 0, SeededRng(5, stream)), n)
                assert lead == 1
                assert int(y, 2) == world.o_value(n, int(x, 2))

    def test_off_support_state_is_fixed(self):
        world = OracleWorld("flip-world", seed=43, n_max=8)
        s = self.target_indices(world, 8)[17] ^ 1
        assert measure_flipped(world, 8, s, SeededRng(1)) == s

    def test_rejects_wrong_world_and_range(self):
        with pytest.raises(WrongWorldKindError):
            measure_flipped(OracleWorld("sampler-world", 1, n_max=4), 2, 0, SeededRng(0))
        world = OracleWorld("flip-world", seed=1, n_max=4)
        with pytest.raises(ValueError):
            measure_flipped(world, 2, flip_state_dim(2), SeededRng(0))
        with pytest.raises(ValueError):
            measure_flipped(world, 5, 0, SeededRng(0))
        with pytest.raises(MemoryBudgetError):  # 2^21 + 1 outcomes
            measure_flipped(OracleWorld("flip-world", seed=1, n_max=21), 21, 0, SeededRng(0))


class TestBadInputMaskCache:
    def test_holds_only_the_latest_mask(self):
        first = OracleWorld("bot-world", seed=71, n_max=8).bad_inputs(8)
        latest = OracleWorld("bot-world", seed=72, n_max=8)
        assert latest.bad_inputs(8) is latest.bad_inputs(8)
        info = _bad_input_mask.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)
        assert OracleWorld("bot-world", seed=71, n_max=8).bad_inputs(8) is not first

    def test_read_only_bool_mask(self):
        mask = OracleWorld("bot-world", seed=73, n_max=16).bad_inputs(16)
        assert mask.dtype == bool and mask.nbytes == 1 << 16
        with pytest.raises(ValueError):
            mask[0] = not mask[0]


class TestBadInputMask:
    # at c = 1, w = ceil(log2(4n)) exceeds n below n = 4
    @pytest.mark.parametrize("n", range(4, 17))
    def test_exactly_two_to_the_n_minus_w_bad_inputs(self, n):
        world = OracleWorld("bot-world", seed=n, n_max=n)
        assert np.count_nonzero(world.bad_inputs(n)) == 1 << (n - world.bot_params(n).w)

    def test_n_20_equals_full_table(self):
        world = OracleWorld("bot-world", seed=2024, n_max=20)
        w = world.bot_params(20).w
        table = np.argsort(fisher_yates_positions(2024, "bot-world/P", 20, 1 << 20))
        assert np.array_equal(world.bad_inputs(20), table < 1 << (20 - w))

    def test_refused_for_other_kinds_and_above_the_cap(self):
        with pytest.raises(WrongWorldKindError):
            OracleWorld("flip-world", seed=1, n_max=8).bad_inputs(8)
        with pytest.raises(ParameterError):
            OracleWorld("bot-world", seed=1, n_max=8).bad_inputs(9)
        with pytest.raises(MemoryBudgetError, match="capped at n <= 20"):
            OracleWorld("bot-world", seed=1, n_max=21).bad_inputs(21)


class TestVerifyEvalOracle:
    world = OracleWorld("flip-world", seed=31, n_max=4)

    def test_valid_triple(self):
        n = 2
        x, a = "01", "11"
        y = int_to_bits(self.world.o_value(n, int(x, 2)), 8 * n)
        out = verify_eval_oracle(self.world, x, y, a)
        assert out.payload == int_to_bits(self.world.p_value(n, (int(x, 2) << n) | int(a, 2)), n)

    def test_wrong_y_aborts(self):
        n = 2
        x = "01"
        y = int_to_bits(self.world.o_value(n, int(x, 2)) ^ 1, 8 * n)
        assert verify_eval_oracle(self.world, x, y, "00").is_bot

    def test_deterministic_function_of_a(self):
        n = 2
        x = "10"
        y = int_to_bits(self.world.o_value(n, int(x, 2)), 8 * n)
        for a_int in range(4):
            a = int_to_bits(a_int, n)
            first = verify_eval_oracle(self.world, x, y, a)
            assert all(
                verify_eval_oracle(self.world, x, y, a) == first for _ in range(5)
            )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            verify_eval_oracle(self.world, "01", "0000", "01")

    @pytest.mark.parametrize("field", ["x", "y", "a"])
    def test_rejects_malformed_bitstrings(self, field):
        # int("0b1", 2) == 1: with x = "0b1" the triple used to answer as x = "001"
        x, a = "001", "110"
        triple = {"x": x, "y": int_to_bits(self.world.o_value(3, int(x, 2)), 24), "a": a}
        assert not verify_eval_oracle(self.world, **triple).is_bot
        triple[field] = "0b1" + triple[field][3:]
        with pytest.raises(ValueError, match=f"{field} must be .*, got '0b1"):
            verify_eval_oracle(self.world, **triple)

    def test_sampler_world_lengths(self):
        world = OracleWorld("sampler-world", seed=33, n_max=4)
        x = "0110"
        y = int_to_bits(world.o_value(4, int(x, 2)), 4)
        assert not verify_eval_oracle(world, x, y, "0000").is_bot

    def test_undefined_for_bot_world(self):
        with pytest.raises(WrongWorldKindError):
            verify_eval_oracle(OracleWorld("bot-world", 1, n_max=4), "0000", "0" * 8, "0000")


class TestSamplerOracle:
    world = OracleWorld("sampler-world", seed=41, n_max=12)

    def test_pair_consistency(self):
        rng = SeededRng(1)
        for _ in range(200):
            x, y = sampler_oracle(self.world, 12, rng)
            assert int(y, 2) == self.world.o_value(12, int(x, 2))

    def test_fresh_draws(self):
        rng = SeededRng(2)
        xs = [sampler_oracle(self.world, 12, rng)[0] for _ in range(50)]
        assert len(set(xs)) > 40

    def test_uniformity_chi_square(self):
        rng = SeededRng(3)
        buckets = np.zeros(16)
        for _ in range(10_000):
            x, _ = sampler_oracle(self.world, 12, rng)
            buckets[int(x[:4], 2)] += 1
        assert stats.chisquare(buckets).pvalue > 0.01

    def test_stream_reproducibility(self):
        a = [sampler_oracle(self.world, 12, SeededRng(9, i)) for i in range(20)]
        b = [sampler_oracle(self.world, 12, SeededRng(9, i)) for i in range(20)]
        assert a == b

    def test_rejects_n_above_63_before_drawing(self):
        world = OracleWorld("sampler-world", seed=41, n_max=64)
        rng = SeededRng(1)
        with pytest.raises(ValueError, match="n must be at most 63, got 64"):
            sampler_oracle(world, 64, rng)
        assert not rng.drawn
        x, y = sampler_oracle(world, 63, rng)
        assert len(x) == len(y) == 63


class TestPrfFromWorld:
    def test_flip_keys_uniform_over_x_exactly(self):
        world = OracleWorld("flip-world", seed=51, n_max=2)
        target = flip_target_state(world, 2)
        probs = born_distribution(target)
        by_x = {}
        for idx in np.nonzero(probs)[0]:
            lead, x, _ = decode_flip_index(int(idx), 2)
            assert lead == 1
            by_x[x] = by_x.get(x, 0.0) + probs[idx]
        assert set(by_x) == {"00", "01", "10", "11"}
        assert all(abs(p - 0.25) <= 1e-10 for p in by_x.values())

    def test_key_sampling_measures_target(self):
        world = OracleWorld("flip-world", seed=51, n_max=2)
        gen = prfqs_from_world(world, 2)
        key = gen.qsamp(SeededRng(7))
        x, y = key[:2], key[2:]
        assert int(y, 2) == world.o_value(2, int(x, 2))

    def test_evaluations_exactly_deterministic(self):
        world = OracleWorld("flip-world", seed=53, n_max=2)
        gen = prfqs_from_world(world, 2)
        key = gen.qsamp(SeededRng(8))
        for a_int in range(4):
            a = int_to_bits(a_int, 2)
            outs = {gen.eval(key, a).payload for _ in range(10)}
            assert len(outs) == 1

    def test_invalid_key_always_aborts(self):
        world = OracleWorld("flip-world", seed=53, n_max=2)
        gen = prfqs_from_world(world, 2)
        x = "01"
        bad_y = int_to_bits(world.o_value(2, 1) ^ 5, 16)
        for a_int in range(4):
            assert gen.eval(x + bad_y, int_to_bits(a_int, 2)).is_bot

    def test_lazy_keys_follow_dense_measurement_law(self):
        # the dense swap of |0...0> is the reference for every key and the next draw
        world = OracleWorld("flip-world", seed=59, n_max=2)
        swapped = apply_flip(flip_oracle(world, 2), StateVector.basis(flip_state_dim(2), 0))
        gen = prfqs_from_world(world, 2)
        for stream in range(40):
            dense_rng, key_rng = SeededRng(12, stream), SeededRng(12, stream)
            lead, x, y = decode_flip_index(measure_computational(swapped, dense_rng), 2)
            assert lead == 1
            assert gen.qsamp(key_rng) == x + y
            assert key_rng.uniform() == dense_rng.uniform()

    def test_lazy_sampling_above_dense_budget(self):
        world = OracleWorld("flip-world", seed=55, n_max=4)
        gen = prfqs_from_world(world, 3)
        key = gen.qsamp(SeededRng(9))
        assert len(key) == 27
        assert not gen.eval(key, "000").is_bot

    def test_sampler_world_variant(self):
        world = OracleWorld("sampler-world", seed=57, n_max=12)
        gen = prfqs_from_world(world, 12)
        key = gen.qsamp(SeededRng(10))
        assert len(key) == 24
        first = gen.eval(key, "0" * 12)
        assert not first.is_bot
        assert gen.eval(key, "0" * 12) == first

    def test_outputs_uniform_over_reseeded_worlds(self):
        buckets = np.zeros(16)
        inputs = [int_to_bits(i, 12) for i in range(8)]
        for seed in range(125):
            world = OracleWorld("sampler-world", seed=seed, n_max=12)
            gen = prfqs_from_world(world, 12)
            key = gen.qsamp(SeededRng(seed, 77))
            for a in inputs:
                out = gen.eval(key, a)
                buckets[int(out.payload[:4], 2)] += 1
        assert stats.chisquare(buckets).pvalue > 0.01


class TestWorldSerialization:
    def test_round_trip(self):
        world = OracleWorld("bot-world", seed=61, n_max=12, c=1.5)
        again = OracleWorld.from_record(world.to_record())
        assert again == world

    def test_rejects_foreign_derivation(self):
        rec = OracleWorld("flip-world", seed=1, n_max=4).to_record()
        rec["derivation-id"] = "something-else"
        with pytest.raises(ValueError):
            OracleWorld.from_record(rec)


class TestBruteforcePrgAdversary:
    gen = toy_prg(8, 24)

    def test_image_member_flagged_pseudorandom(self):
        challenge = self.gen.eval("00000001", None)
        assert bruteforce_prg_handle(self.gen).decide(challenge, None) == 0

    def test_uniform_challenges_flagged_random(self):
        decide = bruteforce_prg_handle(self.gen).decide
        rng = SeededRng(71)
        flags = [decide(rng.bits(24), None) for _ in range(300)]
        assert sum(flags) >= 299  # image covers 2^-16 of the challenge space

    def test_key_space_cap(self):
        with pytest.raises(KeySpaceTooLargeError, match=r"key space 2\^21 exceeds the 2\^20"):
            bruteforce_prg_handle(toy_prg(21, 24))

    def test_distinguishing_advantage_over_thousand_challenges(self):
        report = exp_prg(self.gen, bruteforce_prg_handle(self.gen), 1000, SeededRng(73))
        assert report["advantage"] >= 0.49


def _reference_ml_key(candidates, copies):
    """The per-key fidelity-product search the vectorised handle replaced."""
    best_k, best_score = None, -1.0
    for k, candidate in enumerate(candidates):
        score = 1.0
        for copy in copies:
            score *= candidate.fidelity(copy)
        if score > best_score:
            best_k, best_score = k, score
    return best_k


class TestBruteforceOwsgAdversary:
    def test_exact_recovery_orthogonal_outputs(self):
        gen = toy_owsg_basis(8)
        decide = bruteforce_owsg_handle(gen).decide
        for key in ("00000000", "01100101", "11111111"):
            copy = gen.eval(key, None)
            assert decide((copy,), None) == key

    def test_key_space_cap(self):
        gen = toy_owsg_basis(8)
        big = type(gen)(**{**gen.__dict__, "input_len": 17})
        with pytest.raises(KeySpaceTooLargeError, match=r"key space 2\^17 exceeds the 2\^16"):
            bruteforce_owsg_handle(big)

    def test_candidate_table_memory_cap(self):
        with pytest.raises(MemoryBudgetError):
            bruteforce_owsg_handle(toy_owsg_basis(16))  # 2^16 states of dim 2^16

    def test_rejects_non_owsg_and_empty_copies(self):
        with pytest.raises(ValueError, match="expected an owsg handle"):
            bruteforce_owsg_handle(toy_prg(8, 24))
        with pytest.raises(ValueError, match="need at least one copy"):
            bruteforce_owsg_handle(toy_owsg_basis(4)).decide((), None)

    def test_candidate_states_rows_are_key_states(self):
        gen = toy_owsg_haar(4, 8)
        table = candidate_states(gen)
        assert table.shape == (16, 8)
        for k in (0, 5, 15):
            assert np.array_equal(table[k], gen.eval(int_to_bits(k, 4), None).amplitudes)

    def test_matches_per_key_fidelity_search(self):
        gen = toy_owsg_haar(8, 16)
        decide = bruteforce_owsg_handle(gen).decide
        candidates = [gen.eval(int_to_bits(k, 8), SeededRng(OWSG_SEARCH_SEED, k)) for k in range(256)]
        rng = SeededRng(74)
        checked = 0
        for t in (1, 2, 3):
            for i in range(40):
                if i % 2 == 0:
                    copies = (gen.eval(rng.bits(8), None),) * t
                else:
                    copies = tuple(haar_sample(16, rng) for _ in range(t))
                expected = int_to_bits(_reference_ml_key(candidates, copies), 8)
                assert decide(copies, None) == expected
                checked += 1
        assert checked >= 100

    def test_ties_return_first_key(self):
        gen = constant_owsg(6, 8)  # every key scores 1
        copies = (gen.eval("101010", None),)
        assert bruteforce_owsg_handle(gen).decide(copies, None) == "000000"

    @pytest.mark.parametrize("lam, dim", [(8, 16), (4, 256)])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_scores_equal_conjugated_table_scores(self, lam, dim, t):
        # _ml_scores conjugates the copies, not the table; not one bit of a score moves
        gen = toy_owsg_haar(lam, dim)
        table = candidate_states(gen)
        rng = SeededRng(75)
        keyed = [np.array([gen.eval(int_to_bits(k, lam), None).amplitudes] * t) for k in range(1 << lam)]
        haar = [np.array([haar_sample(dim, rng).amplitudes for _ in range(t)]) for _ in range(200)]
        for copies in keyed + haar:
            expected = np.prod(np.abs(table.conj() @ copies.T) ** 2, axis=1)
            assert np.array_equal(_ml_scores(table, copies), expected)

    def test_block_guesses_are_each_trials_first_best_key(self, scored):
        # keys k and k + 4 share the basis state |k mod 4>, so every score ties with another key's;
        # a run of trials repeats challenges, and a repeat answered from the store keeps its first best key
        shared = GeneratorHandle(
            kind="owsg", input_len=4, output_len=0, dim=4, description="shared-states",
            eval=lambda key, rng: StateVector.basis(4, int(key, 2) % 4),
        )
        indices = [3, 1, 3, 0, 2, 1, 1, 3]
        for t in (1, 2):
            decide = bruteforce_owsg_handle(shared).decide
            scored.clear()
            guesses = [decide((StateVector.basis(4, j),) * t, None) for j in indices]
            assert guesses == [int_to_bits(j, 4) for j in indices]
            assert len(scored) == 4  # each handle scores its 4 distinct challenges once
        constant = constant_owsg(6, 8)  # every key scores 1
        decide = bruteforce_owsg_handle(constant).decide
        scored.clear()
        assert [decide((constant.eval("101010", None),), None) for _ in range(5)] == ["000000"] * 5
        assert len(scored) == 1

    def test_warm_game_copies_no_table(self):
        # a per-request copy of the 16 MB table would make a warm game peak at about one table
        gen = toy_owsg_haar(12, 256)
        adversary = bruteforce_owsg_handle(gen)  # built before tracing: the table is the handle's
        exp_owsg(gen, adversary, 2, 1, SeededRng(76))
        tracemalloc.start()
        try:
            exp_owsg(gen, adversary, 2, 40, SeededRng(77))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 16 * (gen.dim << gen.input_len)  # a tenth of the table's complex128 bytes


@pytest.fixture
def tables(monkeypatch):
    """A weak reference to each table a brute-force handle builds, in build order."""
    refs = []

    def build(gen):
        table = candidate_states(gen)
        refs.append(weakref.ref(table))
        return table

    monkeypatch.setattr(experiments, "candidate_states", build)
    return refs


class TestCandidateStatesMemo:
    """candidate_states keeps no table; a brute-force handle builds one and holds it."""

    def test_warm_call_returns_the_same_table(self, tables, monkeypatch):
        # the handle builds its one table with itself and scores every challenge on it
        searched = []
        score = experiments._ml_scores
        monkeypatch.setattr(experiments, "_ml_scores", lambda table, copies: searched.append(table) or score(table, copies))
        gen = toy_owsg_haar(4, 8)
        decide = bruteforce_owsg_handle(gen).decide
        for k in (6, 9, 6, 3):
            decide((gen.eval(int_to_bits(k, 4), None),), None)
        assert len(tables) == 1 and len(searched) == 3 and all(table is tables[0]() for table in searched)
        a, b = candidate_states(gen), candidate_states(gen)  # each call builds a table of its own
        assert a is not b and np.array_equal(a, b)

    def test_equal_handles_keep_their_own_tables(self):
        # handles compare without their eval, so equality cannot key the table
        def handle(index):
            return GeneratorHandle(
                kind="owsg", input_len=2, output_len=0, dim=4, description="equal",
                eval=lambda key, rng: StateVector.basis(4, index),
            )

        a, b = handle(0), handle(3)
        assert a == b and hash(a) == hash(b)
        for gen, index in ((a, 0), (b, 3), (a, 0)):
            table = candidate_states(gen)
            assert np.array_equal(table, np.tile(StateVector.basis(4, index).amplitudes, (4, 1)))

    def test_holds_one_table(self, tables):
        handle = bruteforce_owsg_handle(toy_owsg_haar(4, 8))
        gc.collect()
        assert len(tables) == 1 and tables[0]() is not None  # the handle holds its table
        del handle
        gc.collect()
        assert tables[0]() is None  # and nothing else does: the module keeps no search state

    def test_table_is_read_only(self):
        table = candidate_states(toy_owsg_haar(4, 8))
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0


def _fresh_guesses(table, challenges, lam):
    """Each challenge's first best key, scored on its own."""
    stacks = (np.array([copy.amplitudes for copy in copies]) for copies in challenges)
    return [int_to_bits(int(_ml_scores(table, stack).argmax()), lam) for stack in stacks]


def _stack_bytes(copies):
    """The bytes that ``scored`` records for one challenge."""
    return np.array([copy.amplitudes for copy in copies]).tobytes()


@pytest.fixture
def scored(monkeypatch):
    """The bytes of each challenge the brute force scores, one entry per ``_ml_scores`` call."""
    challenges = []
    score = experiments._ml_scores

    def counted(table, copies):
        challenges.append(copies.tobytes())
        return score(table, copies)

    monkeypatch.setattr(experiments, "_ml_scores", counted)
    return challenges


class TestBruteforceOwsgAnswers:
    """bruteforce_owsg_handle answers each distinct challenge once per handle."""

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_answers_equal_fresh_scoring(self, t, scored):
        gen = toy_owsg_haar(8, 16)
        table = candidate_states(gen)
        challenges = [(gen.eval(int_to_bits(k, 8), None),) * t for k in range(256)]
        expected = _fresh_guesses(table, challenges, 8)
        handle = bruteforce_owsg_handle(gen)
        for copies in challenges[:100]:  # warm: these are answered from the store below
            handle.decide(copies, None)
        rng = SeededRng(90 + t)
        order = [int(rng.bits(8), 2) for _ in range(300)]
        # random runs repeat challenges within and across runs; then one repeat-heavy run and every key
        runs = [order[i : i + 56] for i in range(0, 300, 56)] + [[7, 7, 200, 7, 150], list(range(256))]
        for run in runs:
            assert [handle.decide(challenges[k], None) for k in run] == [expected[k] for k in run]
        scored.clear()
        assert [handle.decide(copies, None) for copies in challenges] == expected
        assert [handle.decide(copies, None) for copies in challenges[::-1]] == expected[::-1]
        assert scored == []  # every key is stored: nothing is scored again

    def test_repeats_in_a_block_are_scored_once(self, scored):
        gen = toy_owsg_haar(8, 16)
        stacks = [(gen.eval(int_to_bits(k, 8), None),) * 2 for k in (3, 9)]
        decide = bruteforce_owsg_handle(gen).decide
        assert [decide(copies, None) for copies in stacks * 3] == ["00000011", "00001001"] * 3
        assert scored == [_stack_bytes(copies) for copies in stacks]

    def test_noise_guesses_equal_empty_store_guesses(self, scored):
        # the noise generator's copies never repeat, so no stored answer may be given
        gen = haar_noise_owsg(8, 16)
        handle = bruteforce_owsg_handle(gen)
        table = candidate_states(gen)
        rng = SeededRng(94)
        runs = [[tuple(gen.eval(None, rng) for _ in range(2)) for _ in range(56)] for _ in range(6)]
        warm = [[handle.decide(copies, None) for copies in run] for run in runs]
        assert len(scored) == 6 * 56
        scored.clear()
        assert [[handle.decide(copies, None) for copies in run] for run in runs] == warm
        assert scored == []  # all 336 are stored
        for run, guesses in zip(runs, warm):
            cold = bruteforce_owsg_handle(gen)  # an empty store
            assert [cold.decide(copies, None) for copies in run] == guesses == _fresh_guesses(table, run, 8)
        report = exp_owsg(gen, handle, 2, 300, SeededRng(95))
        assert exp_owsg(gen, bruteforce_owsg_handle(gen), 2, 300, SeededRng(95))["successes"] == report["successes"]

    def test_evicted_table_takes_its_answers(self, scored, tables):
        gen = toy_owsg_haar(8, 16)
        handle = bruteforce_owsg_handle(gen)
        exp_owsg(gen, handle, 2, 40, SeededRng(96))
        cold = len(scored)
        assert cold > 30  # the distinct keys of 40 draws from 256
        scored.clear()
        exp_owsg(gen, handle, 2, 40, SeededRng(96))
        assert scored == []
        del handle  # as when the CLI's memo evicts it for another size
        gc.collect()
        assert tables[0]() is None
        scored.clear()
        exp_owsg(gen, bruteforce_owsg_handle(gen), 2, 40, SeededRng(96))
        assert len(scored) == cold  # the new handle scores every challenge again

    def test_store_is_capped(self, request):
        gen = haar_noise_owsg(8, 16)
        exp_owsg(gen, bruteforce_owsg_handle(gen), 2, 4000, SeededRng(97))  # so Python's free lists hold no traced block below
        rng = SeededRng(98)
        challenges = [tuple(gen.eval(None, rng) for _ in range(2)) for _ in range(4000)]  # never repeated
        handle = bruteforce_owsg_handle(gen)
        tracemalloc.start()
        try:
            for copies in challenges:
                handle.decide(copies, None)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        stored = 16 * _ANSWER_BUDGET  # 2^15 amplitudes: 1 024 challenges of 2 x 16
        assert held <= stored + 160 * 1024  # each key's bytes header, its guess and its dict slot
        expected = _fresh_guesses(candidate_states(gen), challenges[:1025], 8)
        scored = request.getfixturevalue("scored")  # spied from here on, so the traced run above keeps no record
        assert [handle.decide(copies, None) for copies in challenges[:1025]] == expected
        assert [handle.decide(challenges[1024], None)] == expected[1024:]
        # the first 1 024 challenges are stored; the 1 025th, past the cap, is scored each time
        assert scored == [_stack_bytes(challenges[1024])] * 2
