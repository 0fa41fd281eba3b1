import math

import numpy as np
import pytest
from scipy import stats

from qrandlab.experiments import CallBudget, bruteforce_owsg_handle, bruteforce_prg_handle, exp_prg
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
    _derived_value,
    measure_flipped,
    prfqs_from_world,
    sampler_oracle,
    verify_eval_oracle,
)
from qrandlab.qcore import MemoryBudgetError, StateVector, born_distribution, haar_sample, measure_computational
from qrandlab.rng import OWSG_SEARCH_SEED, SeededRng, int_to_bits
from qrandlab.toys import constant_owsg, toy_owsg_basis, toy_owsg_haar, toy_prg
from reference import apply_flip, flip_oracle, flip_target_state


class TestBotOracleParams:
    def test_smallest_w_in_window(self):
        params = BotOracleParams(12, 1.0)
        assert params.w == 6
        assert params.mu / 16 <= 2.0**-params.w <= params.mu / 4

    def test_w_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            BotOracleParams(4, 10.0)

    def test_output_longer_than_input(self):
        assert BotOracleParams(12, 1.0).m > 12


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
        # seed 9 puts x = 100100111100 in the bad set with Q_n(x) = 0
        world = OracleWorld("bot-world", seed=9, n_max=12)
        x = "100100111100"
        assert x not in bot_oracle_good_set(world, 12)
        assert world.q_value(12, int(x, 2)) == 0
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
            table = world.permutation(n)
            assert sorted(table.tolist()) == list(range(1 << n))

    def test_same_seed_same_world(self):
        a = OracleWorld("bot-world", seed=11, n_max=8)
        b = OracleWorld("bot-world", seed=11, n_max=8)
        assert np.array_equal(a.permutation(8), b.permutation(8))
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

    def test_handle_batches_through_eval_many(self):
        x = self.inputs()["bad"]
        gen = bot_prg_handle(self.world, 12)
        a, b = SeededRng(9), SeededRng(9)
        assert gen.eval_repeated(x, a, 40) == [gen.eval(x, b) for _ in range(40)]
        assert a.uniform() == b.uniform()

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


class TestDerivedValueCache:
    def test_bounded_and_still_caching(self):
        for seed in range(20_000):
            OracleWorld("sampler-world", seed=10**6 + seed, n_max=4).o_value(4, 3)
        info = _derived_value.cache_info()
        assert info.maxsize == 1 << 14
        assert info.currsize <= 1 << 14
        OracleWorld("sampler-world", seed=10**6 + 19_999, n_max=4).o_value(4, 3)
        assert _derived_value.cache_info().hits == info.hits + 1


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
        budget = CallBudget(1 << 20)
        assert bruteforce_prg_handle(self.gen).decide(challenge, budget, None) == 0
        assert budget.used == 1 << 8

    def test_uniform_challenges_flagged_random(self):
        decide = bruteforce_prg_handle(self.gen).decide
        rng = SeededRng(71)
        flags = [decide(rng.bits(24), CallBudget(1 << 20), None) for _ in range(300)]
        assert sum(flags) >= 299  # image covers 2^-16 of the challenge space

    def test_key_space_cap(self):
        with pytest.raises(KeySpaceTooLargeError, match=r"key space 2\^21 exceeds the 2\^20"):
            bruteforce_prg_handle(toy_prg(21, 24))

    def test_distinguishing_advantage_over_thousand_challenges(self):
        report = exp_prg(self.gen, bruteforce_prg_handle(self.gen), 1000, SeededRng(73))
        assert report.advantage >= 0.49


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
            budget = CallBudget(1 << 20)
            assert decide((copy,), budget, None) == key
            assert budget.used == 1 << 8

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
            bruteforce_owsg_handle(toy_owsg_basis(4)).decide((), CallBudget(1 << 20), None)

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
                assert decide(copies, CallBudget(1 << 20), None) == expected
                checked += 1
        assert checked >= 100

    def test_ties_return_first_key(self):
        gen = constant_owsg(6, 8)  # every key scores 1
        copies = (gen.eval("101010", None),)
        assert bruteforce_owsg_handle(gen).decide(copies, CallBudget(1 << 20), None) == "000000"
