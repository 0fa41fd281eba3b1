import dataclasses
import hashlib
import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from scipy import stats

from qrandlab.cli import canonical_json
from qrandlab.experiments import (
    _ANSWER_BUDGET,
    _moment_gramians,
    _moment_keys,
    AdversaryHandle,
    advantage_ci,
    bot_count_adversary,
    bruteforce_owsg_handle,
    bruteforce_prg_handle,
    coin_flip_adversary,
    constant_adversary,
    exp_botprg,
    exp_owsg,
    exp_prg,
    moment_distance,
    moment_hs2,
    owsg_coin_flip_adversary,
)
from qrandlab.oracles import OracleWorld, bot_prg_handle, candidate_image
from qrandlab.primitives import GeneratorHandle
from qrandlab.qcore import haar_sample
from qrandlab.rng import SeededRng
from qrandlab.toys import random_phase_sprs, toy_owsg_basis, toy_owsg_haar, toy_prg
from fixtures import (
    constant_owsg,
    constant_state_sprs,
    derived_bot_prg,
    haar_keyed_sprs,
    haar_sprs_reference,
    padding_check_adversary,
    zero_padding_prg,
)
from reference import haar_noise_owsg, looped_owsg, symmetric_moment


def record_without_wallclock(report):
    return {k: v for k, v in report.items() if k != "wallclock_ms"}


class TestAdvantageCi:
    def test_balanced_is_centered_at_zero(self):
        est, (lo, hi) = advantage_ci(500, 1000)
        assert est == 0
        assert lo < 0 < hi

    def test_perfect_score(self):
        est, (lo, hi) = advantage_ci(1000, 1000)
        assert est == 0.5
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_wilson_values(self):
        est, (lo, hi) = advantage_ci(600, 1000)
        assert est == pytest.approx(0.1)
        assert lo == pytest.approx(0.069, abs=5e-4)
        assert hi == pytest.approx(0.130, abs=5e-4)

    def test_against_exact_binomial(self):
        # Clopper-Pearson exact interval as the independent reference
        s, n = 600, 1000
        cp_lo = stats.beta.ppf(0.025, s, n - s + 1) - 0.5
        cp_hi = stats.beta.ppf(0.975, s + 1, n - s) - 0.5
        _, (lo, hi) = advantage_ci(s, n)
        assert lo == pytest.approx(cp_lo, abs=5e-3)
        assert hi == pytest.approx(cp_hi, abs=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            advantage_ci(5, 0)
        with pytest.raises(ValueError):
            advantage_ci(11, 10)


class TestExpPrg:
    def test_constant_adversary_has_no_advantage(self):
        report = exp_prg(toy_prg(8, 24), constant_adversary(0), 1000, SeededRng(1))
        assert report["ci95"][0] <= 0 <= report["ci95"][1]

    def test_padding_check_is_perfect(self):
        gen = zero_padding_prg(8, 24)
        report = exp_prg(gen, padding_check_adversary(8), 1000, SeededRng(2))
        assert report["advantage"] >= 0.49

    def test_bruteforce_beats_toy_generator(self):
        gen = toy_prg(8, 24)
        report = exp_prg(gen, bruteforce_prg_handle(gen), 300, SeededRng(3))
        assert report["advantage"] >= 0.45

    def test_reproducible(self):
        gen = toy_prg(8, 24)
        a = exp_prg(gen, coin_flip_adversary(), 200, SeededRng(4))
        b = exp_prg(gen, coin_flip_adversary(), 200, SeededRng(4))
        assert record_without_wallclock(a) == record_without_wallclock(b)


class TestExpBotPrg:
    def test_coin_flip_null(self):
        world = OracleWorld("bot-world", seed=5, n_max=12)
        gen = bot_prg_handle(world, 12)
        report = exp_botprg(gen, coin_flip_adversary(), 4, 800, SeededRng(5))
        assert report["ci95"][0] <= 0 <= report["ci95"][1]

    def test_bot_pattern_carries_no_signal(self):
        world = OracleWorld("bot-world", seed=6, n_max=12)
        gen = bot_prg_handle(world, 12)
        report = exp_botprg(gen, bot_count_adversary(), 6, 1500, SeededRng(6))
        assert report["ci95"][0] <= 0 <= report["ci95"][1]

    def test_bruteforce_distinguishes_deterministic_generator(self):
        gen = derived_bot_prg(8, 16)
        image = candidate_image(gen)

        def decide(ys, rng):
            return 0 if ys[0].payload in image else 1

        adversary = AdversaryHandle("image-on-first", decide)
        report = exp_botprg(gen, adversary, 1, 400, SeededRng(7))
        assert report["advantage"] >= 0.45

    def test_requires_positive_q(self):
        with pytest.raises(ValueError):
            exp_botprg(derived_bot_prg(8, 16), coin_flip_adversary(), 0, 10, SeededRng(0))


class TestExpOwsg:
    def test_true_key_always_verifies(self):
        gen = toy_owsg_basis(6)

        def recover(copies, rng):
            from qrandlab.qcore import measure_computational
            from qrandlab.rng import int_to_bits

            return int_to_bits(measure_computational(copies[0], rng), 6)

        report = exp_owsg(gen, AdversaryHandle("readout", recover), 2, 300, SeededRng(8))
        assert report["successes"] == 300

    def test_orthogonal_guess_never_verifies(self):
        gen = toy_owsg_basis(6)

        def wrong(copies, rng):
            from qrandlab.qcore import measure_computational
            from qrandlab.rng import int_to_bits

            key = int_to_bits(measure_computational(copies[0], rng), 6)
            return key[:-1] + ("1" if key[-1] == "0" else "0")

        report = exp_owsg(gen, AdversaryHandle("wrong", wrong), 2, 300, SeededRng(9))
        assert report["successes"] == 0

    def test_bruteforce_recovers_haar_keyed_states(self):
        gen = toy_owsg_haar(8, 16)
        report = exp_owsg(gen, bruteforce_owsg_handle(gen), 2, 150, SeededRng(10))
        assert report["successes"] / report["trials"] >= 0.5

    def test_coin_flip_null_on_orthogonal_generator(self):
        gen = toy_owsg_basis(8)
        report = exp_owsg(gen, owsg_coin_flip_adversary(), 2, 1000, SeededRng(11))
        assert report["ci95"][0] <= 0 <= report["ci95"][1]

    def test_constant_generator_accepts_any_guess(self):
        gen = constant_owsg(6, 8)

        def arbitrary(copies, rng):
            return rng.bits(6)

        report = exp_owsg(gen, AdversaryHandle("arbitrary", arbitrary), 1, 200, SeededRng(12))
        assert report["successes"] == 200

    def test_per_trial_draw_order_known_answer(self):
        # Every evaluation of this generator draws from the trial stream, so
        # the pinned record fixes the draw order: key, copies, adversary,
        # verifier state, guess state, then the verification coin.
        gen = GeneratorHandle(
            kind="owsg",
            input_len=1,
            output_len=0,
            eval=lambda key, rng: haar_sample(2, rng),
            dim=2,
            description="haar-noise-owsg",
        )
        report = exp_owsg(gen, owsg_coin_flip_adversary(), 2, 200, SeededRng(5))
        digest = hashlib.sha256(canonical_json(record_without_wallclock(report)).encode()).hexdigest()
        assert report["successes"] == 105
        assert digest == "351547e3083a037d72535217ad55d727cc87741718a30157b3a45ca6c3503cba"


def random_guess_adversary(lam: int) -> AdversaryHandle:
    """A decide-only handle that draws its guess from the trial stream."""
    return AdversaryHandle("random-guess", lambda copies, rng: rng.bits(lam))


OWSG_GAMES = {
    "bruteforce-keyed": (lambda: toy_owsg_haar(8, 16), bruteforce_owsg_handle),
    "bruteforce-noise": (haar_noise_owsg, bruteforce_owsg_handle),
    "coin-flip-keyed": (lambda: toy_owsg_haar(4, 16), lambda gen: owsg_coin_flip_adversary()),
    "coin-flip-noise": (haar_noise_owsg, lambda gen: owsg_coin_flip_adversary()),
    "decide-only-keyed": (lambda: toy_owsg_haar(8, 16), lambda gen: random_guess_adversary(8)),
    "decide-only-noise": (haar_noise_owsg, lambda gen: random_guess_adversary(8)),
}


def spied_game(name: str):
    """The game's generator with every evaluation logged as (stream counter,
    key), its adversary, and the log, emptied after the adversary is made."""
    make_gen, make_adversary = OWSG_GAMES[name]
    gen, log = make_gen(), []

    def logged_eval(key, rng):
        log.append((rng.counter, key))
        return gen.eval(key, rng)

    spied = dataclasses.replace(gen, eval=logged_eval)
    adversary = make_adversary(spied)
    log.clear()
    return spied, adversary, log


def by_stream(log) -> dict:
    keys = defaultdict(list)
    for counter, key in log:
        keys[counter].append(key)
    return dict(keys)


class TestBlockedPlay:
    """The inversion game plays what ``reference.looped_owsg`` plays, one whole trial at a time."""

    @pytest.mark.parametrize("first_trial", [0, 17])
    @pytest.mark.parametrize("trials", [1, 55, 56, 57, 300])
    @pytest.mark.parametrize("name", sorted(OWSG_GAMES))
    def test_equals_looped_play(self, name, trials, first_trial):
        gen, adversary, log = spied_game(name)
        report = exp_owsg(gen, adversary, 2, trials, SeededRng(21), first_trial)
        blocked = by_stream(log)
        log.clear()
        assert report["successes"] == looped_owsg(gen, adversary, 2, trials, SeededRng(21), first_trial)
        assert blocked == by_stream(log)
        assert sorted(blocked) == [1 + i for i in range(first_trial, first_trial + trials)]

    @pytest.mark.parametrize("name", sorted(OWSG_GAMES))
    def test_trial_range_draws_what_a_longer_run_draws(self, name):
        gen, adversary, log = spied_game(name)
        longer = exp_owsg(gen, adversary, 2, 17 + 57, SeededRng(22))
        tail = {counter: keys for counter, keys in by_stream(log).items() if counter > 17}
        log.clear()
        head = exp_owsg(gen, adversary, 2, 17, SeededRng(22))
        log.clear()
        rest = exp_owsg(gen, adversary, 2, 57, SeededRng(22), 17)
        assert by_stream(log) == tail
        assert head["successes"] + rest["successes"] == longer["successes"]

    def test_long_game_holds_one_block(self):
        gen = toy_owsg_haar(8, 16)
        adversary = bruteforce_owsg_handle(gen)
        exp_owsg(gen, adversary, 2, 40, SeededRng(30))  # every key's state is built and kept
        peaks = {}
        for trials in (40, 4000):
            tracemalloc.start()
            try:
                exp_owsg(gen, adversary, 2, trials, SeededRng(31))
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] <= peaks[40] + 16 * _ANSWER_BUDGET  # the stored answers' cap, in complex128 entries


class TestCoupling:
    def test_single_query_abort_game_couples_with_plain_game(self):
        gen = toy_prg(8, 24)
        image = candidate_image(gen)

        def prg_decide(y, rng):
            return 0 if y in image else 1

        def bot_decide(ys, rng):
            return prg_decide(ys[0].payload, rng)

        seed = 12
        plain = exp_prg(gen, AdversaryHandle("img", prg_decide), 400, SeededRng(seed))
        abort = exp_botprg(gen, AdversaryHandle("img", bot_decide), 1, 400, SeededRng(seed))
        assert plain["successes"] == abort["successes"]


class TestMergeAndBudget:
    def test_sharded_run_equals_full_run(self):
        gen = toy_prg(8, 24)
        adversary = constant_adversary(0)
        full = exp_prg(gen, adversary, 400, SeededRng(13))
        first = exp_prg(gen, adversary, 250, SeededRng(13))
        second = exp_prg(gen, adversary, 150, SeededRng(13), first_trial=250)
        assert first["successes"] + second["successes"] == full["successes"]
        assert first["trials"] + second["trials"] == full["trials"]


class TestMomentDistance:
    def test_haar_reference_first_moment_is_flat(self):
        gen = haar_sprs_reference(8)
        dist = moment_distance(gen, 1, 3000, "monte-carlo", SeededRng(15))
        assert dist <= 0.1

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_constant_state_first_moment_exact(self, t):
        # a pure state's t-th power against the maximally mixed symmetric
        # subspace of dimension C(d+t-1, t): 7/8, 35/36 and 119/120 at d = 8
        gen = constant_state_sprs(8, key_len=8)
        dist = moment_distance(gen, t, 0, "exact-enum", SeededRng(16))
        assert dist == pytest.approx(1 - 1 / math.comb(8 + t - 1, t), abs=1e-12)

    def test_sym_coordinates_match_dense_tensor_average(self):
        # independent dense-space computation of the same statistic
        gen = haar_keyed_sprs(4, key_len=6, seed=3)
        for t in (2, 3):
            via_module = moment_distance(gen, t, 0, "exact-enum", SeededRng(17))
            acc = np.zeros((4**t, 4**t), dtype=complex)
            for k in range(64):
                psi = gen.eval(format(k, "06b"), None).amplitudes
                power = psi
                for _ in range(t - 1):
                    power = np.kron(power, psi)
                acc += np.outer(power, power.conj())
            diff = acc / 64 - symmetric_moment(4, t).matrix
            dense = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
            assert via_module == pytest.approx(dense, abs=1e-12)

    def test_random_phase_states_two_copies(self):
        # closed form (N-1)/(N(N+1)) = 7/72 at N = 8; see the exact N = 4 test below
        dist = moment_distance(random_phase_sprs(8), 2, 20_000, "monte-carlo", SeededRng(18))
        assert abs(dist - 7 / 72) <= 2e-3

    def test_random_phase_states_exact_second_moment_closed_form(self):
        # For random-function phase states with N a power of two >= 4 the
        # exact t=2 trace distance to Haar is (N-1)/(N(N+1)); see Ji-Liu-Song
        # (CRYPTO 2018) and Brakerski-Shmueli (TCC 2019).
        N = 4
        dist = moment_distance(random_phase_sprs(N), 2, 0, "exact-enum", SeededRng(0))
        assert dist == pytest.approx((N - 1) / (N * (N + 1)), abs=1e-12)

    def test_rejects_fewer_than_one_copy(self):
        def no_sampling(rng):
            raise AssertionError("a key was sampled")

        gen = dataclasses.replace(random_phase_sprs(8), qsamp=no_sampling)
        with pytest.raises(ValueError, match="t >= 1"):
            moment_distance(gen, 0, 10, "monte-carlo", SeededRng(0))

    @pytest.mark.parametrize("n_keys", [0, -3])
    def test_rejects_fewer_than_one_sampled_key(self, n_keys):
        with pytest.raises(ValueError, match="at least 1 key"):
            moment_distance(random_phase_sprs(4), 2, n_keys, "monte-carlo", SeededRng(0))

    def test_exact_enum_key_space_cap(self):
        gen = random_phase_sprs(8)  # 24-bit keys
        with pytest.raises(Exception):
            moment_distance(gen, 2, 0, "exact-enum", SeededRng(0))


class TestMomentHs2:
    @pytest.mark.parametrize("N, t", [(4, 2), (8, 2), (64, 2), (8, 1)])
    def test_interval_covers_closed_form(self, N, t):
        # t = 2: HS^2 = (N-1)/(N^3 (N+1)) for random-function phase states;
        # t = 1: their key-averaged state is exactly I/N
        truth = (N - 1) / (N**3 * (N + 1)) if t == 2 else 0.0
        gen = random_phase_sprs(N)
        covered = 0
        for seed in range(20):
            _, (lo, hi) = moment_hs2(gen, t, 500, SeededRng(seed))
            covered += lo <= truth <= hi
        assert covered >= 17

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_equals_gramian_purity_u_statistic(self, t):
        # the same keys through the symmetric-coordinate moment: with
        # unit-norm states, K^2 ||M||_F^2 = K + sum over pairs k != l
        for gen in (random_phase_sprs(8), haar_keyed_sprs(4), haar_sprs_reference(8)):
            k = 300
            est, _ = moment_hs2(gen, t, k, SeededRng(5))
            rng = SeededRng(5)
            moment = sum(_moment_gramians(gen, t, *_moment_keys(gen, k, "monte-carlo", rng), rng)) / k
            purity = (k * np.sum(np.abs(moment) ** 2) - 1) / (k - 1)
            assert est == pytest.approx(purity - 1 / math.comb(gen.dim + t - 1, t), abs=1e-12)

    def test_rejects_too_few_copies_or_keys(self):
        with pytest.raises(ValueError, match="t >= 1"):
            moment_hs2(random_phase_sprs(8), 0, 10, SeededRng(0))
        with pytest.raises(ValueError, match="at least 3 keys"):
            moment_hs2(random_phase_sprs(8), 2, 2, SeededRng(0))


class TestReportShape:
    def test_record_fields(self):
        rec = exp_prg(toy_prg(8, 24), constant_adversary(0), 50, SeededRng(20))
        assert set(rec) == {
            "name", "parameters", "seed", "trials", "successes",
            "advantage", "ci95", "wallclock_ms",
        }
        assert rec["advantage"] == rec["successes"] / rec["trials"] - 0.5
