import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qrandlab.constructions import (
    Con2Params,
    Con3Params,
    con1_eval,
    con1_handle,
    con1_qsamp,
    con2_eval,
    con2_handle,
    con2_qsamp,
    con3_handle,
    con3_stategen,
    phase_state,
    prfqs_from_prgqs,
    table_slices,
)
from qrandlab.extraction import good_set_member
from qrandlab.oracles import OracleWorld, bot_oracle_good_set, bot_prg_handle
from qrandlab.primitives import BOT, BotValue, GeneratorHandle, determinism_audit
from qrandlab.qcore import StateVector, born_distribution
from qrandlab.rng import ParameterError, SeededRng
from qrandlab.toys import random_phase_sprs, toy_owsg_basis, toy_owsg_haar, toy_prg
from fixtures import (
    always_bot_prg,
    constant_bot_prg,
    constant_owsg,
    constant_state_sprs,
    derived_bot_prg,
    fair_coin_bot_prg,
    haar_keyed_sprs,
    haar_sprs_reference,
    uniform_state_sprs,
    zero_padding_prg,
)
from reference import looped_audit

# seed 10: all four keys sit in the rounding good set with block-sum
# margins >= 1.3e-3, so sampled rounding at t = 1e6 agrees with exact
CON2_INNER = haar_keyed_sprs(4096, key_len=2, seed=10)
CON2 = Con2Params(lam=2, c=12.0, inner=CON2_INNER, attempts=8)


def bot_world_con1(n=12, seed=5):
    """Construction 1's inner generator: the bot-world's abort-capable generator."""
    world = OracleWorld("bot-world", seed=seed, n_max=n)
    return bot_prg_handle(world, n)


class TestCon1:
    def test_never_bot_inner_returns_first_key(self):
        seed = 31
        key = con1_qsamp(derived_bot_prg(8, 16), SeededRng(seed))
        assert key == BotValue.of(SeededRng(seed).bits(8))

    def test_always_bot_inner_aborts(self):
        assert con1_qsamp(always_bot_prg(8, 16), SeededRng(1)).is_bot

    def test_bot_oracle_inner_rarely_aborts(self):
        inner = bot_world_con1()
        rng = SeededRng(3)
        bots = sum(con1_qsamp(inner, rng.child(i)).is_bot for i in range(1000))
        assert bots <= 1

    def test_eval_on_bot_key_gives_zeros(self):
        out = con1_eval(derived_bot_prg(8, 16), BOT, SeededRng(0))
        assert out == BotValue.of("0" * 16)

    def test_eval_reproduces_deterministic_inner(self):
        inner = derived_bot_prg(8, 16)
        key = "01011100"
        expected = inner.eval(key, SeededRng(0))
        assert con1_eval(inner, BotValue.of(key), SeededRng(9)) == expected

    def test_eval_modal_on_sampled_keys(self):
        handle = con1_handle(bot_world_con1())
        rng = SeededRng(7)
        for i in range(10):
            key = handle.qsamp(rng.child(i))
            assert not key.is_bot
            _, frequency = determinism_audit(handle, key, 100, rng.child(100 + i))
            assert frequency >= 0.99

    def test_output_length_is_m(self):
        inner = bot_world_con1()
        key = con1_qsamp(inner, SeededRng(11))
        out = con1_eval(inner, key, SeededRng(12))
        assert len(out.payload) == inner.output_len
        assert inner.output_len > inner.input_len

    def test_inner_must_be_bot_prg(self):
        with pytest.raises(ParameterError, match="inner must be a bot-prg, got prg"):
            con1_handle(toy_prg(4, 24))


    def test_known_answers_over_bot_world(self):
        # Pinned before the inner evaluations were batched.  Child 55's first
        # candidate key is bad and loses its vote; 110001000010 is a bad key
        # that aborts with probability 0.97.
        inner = bot_world_con1(seed=2024)
        rng = SeededRng(2024, 5)
        keys = [con1_qsamp(inner, rng.child(i)) for i in (0, 1, 2)]
        assert [k.payload for k in keys] == ["101001111101", "111010101110", "000010101100"]
        retried = rng.child(55)
        assert con1_qsamp(inner, retried).payload == "011011101011"
        assert retried.uniform() == 0.1056485145888878
        assert con1_eval(inner, keys[0], rng.child(100)).payload == "101101001001010011101100"
        stream = rng.child(300)
        outputs = [con1_eval(inner, BotValue.of("110001000010"), stream) for _ in range(40)]
        assert "".join("1" if v.is_bot else "0" for v in outputs) == "1010010100111100101110111001111101111010"
        assert {v.payload for v in outputs if not v.is_bot} == {"110011001110010110011100"}
        assert stream.uniform() == 0.19071621107276104

def bad_bot_key(world, n):
    """The bad input of the bot world with the highest abort probability."""
    bad = np.flatnonzero(world.bad_inputs(n)).tolist()
    return format(max(bad, key=lambda x: world.q_value(n, x)), f"0{n}b")


def good_con1_keys(world, count):
    """``count`` keys spread over the bot world's good set at n = 12: a good
    key's evaluation draws nothing, whichever stream ``qsamp`` would use."""
    good = sorted(bot_oracle_good_set(world, 12))
    return [BotValue.of(x) for x in good[:: len(good) // count][:count]]


def con1_audit_case(kind):
    world = OracleWorld("bot-world", seed=5, n_max=12)
    handle = con1_handle(bot_prg_handle(world, 12))
    if kind == "good":
        return handle, good_con1_keys(world, 5), False
    if kind == "bad":
        return handle, [BotValue.of(bad_bot_key(world, 12))], True
    return handle, [BOT], False


def bot_prg_audit_case(kind):
    world = OracleWorld("bot-world", seed=5, n_max=12)
    handle = bot_prg_handle(world, 12)
    if kind == "good":
        return handle, [sorted(bot_oracle_good_set(world, 12))[0]], False
    return handle, [bad_bot_key(world, 12)], True


def con3_over_con1_audit_case():
    inner, keys, _ = con1_audit_case("good")
    return con3_handle(Con3Params(lam=12, c=4.0, N=8, inner=inner)), keys[:2], False


def keys_from_qsamp(handle, count=2, draws=False):
    return handle, [handle.qsamp(SeededRng(3).child(i)) for i in range(count)], draws


CON2_SAMPLED = Con2Params(lam=2, c=12.0, inner=CON2_INNER, t=10**6, attempts=8)

# name -> () -> (handle, keys, whether an evaluation draws from its stream)
AUDIT_CASES = {
    "toy-prg": lambda: (toy_prg(8, 24), ["01011100"], False),
    "zero-padding-prg": lambda: (zero_padding_prg(8, 24), ["01011100"], False),
    "derived-bot-prg": lambda: (derived_bot_prg(8, 16), ["01011100"], False),
    "constant-bot-prg": lambda: (constant_bot_prg(4, "10101010"), ["0000"], False),
    "always-bot-prg": lambda: (always_bot_prg(4, 8), ["0000"], False),
    "fair-coin-bot-prg": lambda: (fair_coin_bot_prg(4, 8), ["0000"], True),
    "bot-prg-good": lambda: bot_prg_audit_case("good"),
    "bot-prg-bad": lambda: bot_prg_audit_case("bad"),
    "con1-good": lambda: con1_audit_case("good"),
    "con1-bad": lambda: con1_audit_case("bad"),
    "con1-bot": lambda: con1_audit_case("bot"),
    "toy-owsg-haar": lambda: (toy_owsg_haar(4, 16), ["0110"], False),
    "toy-owsg-basis": lambda: (toy_owsg_basis(4), ["0110"], False),
    "constant-owsg": lambda: (constant_owsg(4, 16), ["0110"], False),
    "haar-keyed-sprs": lambda: keys_from_qsamp(haar_keyed_sprs(64, key_len=8)),
    "haar-sprs-reference": lambda: keys_from_qsamp(haar_sprs_reference(64, key_len=8), draws=True),
    "uniform-state-sprs": lambda: keys_from_qsamp(uniform_state_sprs(16)),
    "constant-state-sprs": lambda: keys_from_qsamp(constant_state_sprs(16)),
    "random-phase-sprs": lambda: keys_from_qsamp(random_phase_sprs(8)),
    "con2-exact": lambda: (con2_handle(CON2), [con2_qsamp(CON2, SeededRng(17))], False),
    "con2-sampled": lambda: (con2_handle(CON2_SAMPLED), [con2_qsamp(CON2, SeededRng(17))], True),
    "con3-over-con1": con3_over_con1_audit_case,
    "con3-over-toy-prg": lambda: keys_from_qsamp(con3_handle(Con3Params(lam=2, c=3.0, N=8, inner=toy_prg(4, 24)))),
}


@pytest.mark.parametrize("case", list(AUDIT_CASES))
def test_audit_equals_looped_reference(case, monkeypatch):
    """The audit stops after trial 0 exactly when that trial drew nothing,
    and reports what evaluating every trial reports."""
    handle, keys, draws = AUDIT_CASES[case]()
    trials = 8
    wants = [looped_audit(handle, key, trials, SeededRng(40, i)) for i, key in enumerate(keys)]
    children = []
    child = SeededRng.child
    monkeypatch.setattr(SeededRng, "child", lambda rng, j: children.append(j) or child(rng, j))
    for i, (key, want) in enumerate(zip(keys, wants)):
        children.clear()
        got_value, got_frequency = determinism_audit(handle, key, trials, SeededRng(40, i))
        want_value, want_frequency = want
        assert children == (list(range(trials)) if draws else [0])
        assert got_frequency == want_frequency
        if isinstance(want_value, StateVector):
            np.testing.assert_array_equal(got_value.amplitudes, want_value.amplitudes)
        else:
            assert got_value == want_value


class TestCon1FixedOutput:
    def test_good_key_audit_makes_one_child_stream(self, monkeypatch):
        handle = con1_handle(bot_world_con1())
        (key,) = good_con1_keys(OracleWorld("bot-world", seed=5, n_max=12), 1)
        calls = []
        child = SeededRng.child

        def counted_child(rng, i):
            calls.append(i)
            return child(rng, i)

        monkeypatch.setattr(SeededRng, "child", counted_child)
        _, frequency = determinism_audit(handle, key, 100, SeededRng(10))
        assert (frequency, calls) == (1.0, [0])

    def test_wrong_key_length_raises_like_eval(self):
        inner = bot_world_con1()
        handle = con1_handle(inner)
        short = BotValue.of("0101")
        with pytest.raises(ValueError, match="^key must be 12 bits, got 4$"):
            con1_eval(inner, short, SeededRng(0))
        with pytest.raises(ValueError, match="^key must be 12 bits, got 4$"):
            determinism_audit(handle, short, 10, SeededRng(0))


class TestCon2:
    def test_qsamp_returns_good_key(self):
        rng = SeededRng(13)
        for i in range(10):
            key = con2_qsamp(CON2, rng.child(i))
            assert not key.is_bot
            diag = born_distribution(CON2_INNER.eval(key.payload, None))
            assert good_set_member(diag, CON2.round_params)

    def test_uniform_state_inner_always_aborts(self):
        params = Con2Params(lam=2, c=12.0, inner=uniform_state_sprs(4096, key_len=2))
        assert con2_qsamp(params, SeededRng(1)).is_bot

    def test_abort_rate_over_thousand_runs(self):
        # An exact-mode attempt draws one of the four keys uniformly and fails iff
        # that key's state is outside the good set, so a run aborts with
        # probability (bad/4)^8.  The count must clear Bin(1000, rate)'s alpha
        # upper tail.  With seed 10 all four states are good: rate 0, bound 0 and
        # no false failure.  Two bad states would give rate 1/256, bound 16 and a
        # false-failure rate of 7.6e-7.
        runs, alpha = 1000, 1e-6
        keys = [format(x, "02b") for x in range(4)]
        bad = sum(
            not good_set_member(born_distribution(CON2_INNER.eval(key, None)), CON2.round_params)
            for key in keys
        )
        rate = (bad / len(keys)) ** CON2.attempts
        bound = int(stats.binom.isf(alpha, runs, rate))
        assert stats.binom.sf(bound, runs, rate) <= alpha
        rng = SeededRng(29)
        bots = sum(con2_qsamp(CON2, rng.child(i)).is_bot for i in range(runs))
        assert bots <= bound

    def test_eval_on_bot_key_aborts(self):
        assert con2_eval(CON2, BOT, SeededRng(0)).is_bot

    def test_exact_mode_deterministic(self):
        rng = SeededRng(17)
        key = con2_qsamp(CON2, rng)
        first = con2_eval(CON2, key, SeededRng(100))
        second = con2_eval(CON2, key, SeededRng(200))
        assert first == second and len(first.payload) == CON2.m

    def test_sampled_mode_modal(self):
        sampled = Con2Params(
            lam=2, c=12.0, inner=CON2_INNER, t=10**6, attempts=8
        )
        rng = SeededRng(19)
        key = con2_qsamp(sampled, rng)
        assert not key.is_bot
        outs = [con2_eval(sampled, key, rng.child(i)) for i in range(100)]
        counts = {o: outs.count(o) for o in outs}
        assert max(counts.values()) / 100 >= 0.99

    def test_handle_expansion_holds(self):
        handle = con2_handle(CON2)
        assert handle.output_len == 4 > handle.input_len == 2

    def test_desk_scale_flags_recorded(self):
        assert any("c=12.0 <= 24" in f for f in CON2.flags)
        assert any("retries 8 != lam 2" in f for f in CON2.flags)
        assert any("nominal" in f for f in CON2.flags)

    def test_rejects_wrong_inner_kind(self):
        with pytest.raises(ValueError):
            Con2Params(lam=2, c=12.0, inner=derived_bot_prg(8, 16))

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan, 1e300, 1001.0])
    def test_exponent_a_float_cannot_hold_rejected(self, c):
        # 2^1e300 overflows, inf and nan give no finite power; 2^1000 is the largest power admitted
        with pytest.raises(ParameterError, match=re.escape(f"c={c} is out of range: lam^c = 2^")):
            Con2Params(lam=2, c=c, inner=CON2_INNER)
        assert Con2Params(lam=2, c=1000.0, inner=CON2_INNER).m_nominal == math.ceil(2 ** (1000 / 12))


class TestCon3:
    def zeros_inner(self, bits):
        return GeneratorHandle(
            kind="prg",
            input_len=4,
            output_len=bits,
            eval=lambda key, rng=None: "0" * bits,
            description="zeros",
        )

    def test_zero_table_gives_uniform_superposition(self):
        params = Con3Params(lam=2, c=3.0, N=8, inner=self.zeros_inner(24))
        psi = con3_stategen(params, "0000", SeededRng(0))
        np.testing.assert_allclose(psi.amplitudes, np.full(8, 8**-0.5), atol=1e-12)

    def test_flat_modulus_profile(self):
        params = Con3Params(lam=2, c=3.0, N=8, inner=toy_prg(4, 24))
        for k in range(16):
            psi = con3_stategen(params, format(k, "04b"), SeededRng(0))
            assert np.abs(np.abs(psi.amplitudes) - 8**-0.5).max() <= 1e-10

    def test_phase_values_match_slices(self):
        inner = toy_prg(4, 24)
        params = Con3Params(lam=2, c=3.0, N=8, inner=inner)
        key = "1010"
        y = inner.eval(key, None)
        f = table_slices(y, 8, 3)
        psi = con3_stategen(params, key, SeededRng(0))
        expected = np.exp(2j * np.pi * np.array(f) / 8) / math.sqrt(8)
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-12)

    def test_two_copy_moment_close_to_haar(self):
        from qrandlab.experiments import moment_distance

        dist = moment_distance(random_phase_sprs(8), 2, 20_000, "monte-carlo", SeededRng(23))
        assert dist <= 0.25

    def test_output_too_short_rejected(self):
        with pytest.raises(ValueError):
            Con3Params(lam=2, c=3.0, N=8, inner=self.zeros_inner(20))

    def test_inner_must_be_expanding(self):
        with pytest.raises(ParameterError, match="inner must be an expanding generator, got bot-prg"):
            Con3Params(lam=2, c=3.0, N=8, inner=derived_bot_prg(8, 16))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            Con3Params(lam=2, c=3.0, N=10, inner=self.zeros_inner(64))

    @pytest.mark.parametrize("c", [math.inf, math.nan, 1e300, 340.0])
    def test_exponent_a_float_cannot_hold_rejected(self, c):
        # 8^681 (c = 340) overflows a float, inf and nan give no finite power
        with pytest.raises(ParameterError, match=r"out of range: lam\^\(2c\+1\)"):
            Con3Params(lam=8, c=c, N=8, inner=toy_prg(4, 24))

    def test_nominal_coupling_flagged(self):
        params = Con3Params(lam=2, c=3.0, N=8, inner=toy_prg(4, 24))
        assert any("c=3.0 <= 12" in f for f in params.flags)
        assert any("lam^(2c+1)" in f for f in params.flags)

    def test_handle_round_trip(self):
        params = Con3Params(lam=2, c=3.0, N=8, inner=toy_prg(4, 24))
        handle = con3_handle(params)
        key = handle.qsamp(SeededRng(1))
        psi = handle.eval(key, SeededRng(2))
        again = handle.eval(key, SeededRng(3))
        assert psi.fidelity(again) >= 1 - 1e-12


class TestPrfFromTable:
    def test_slicing_convention(self):
        inner = GeneratorHandle(
            kind="prg",
            input_len=4,
            output_len=8,
            eval=lambda key, rng=None: "11100100",
            description="fixed",
        )
        prf = prfqs_from_prgqs(inner, 4)
        table = {x: prf.eval("0000", x) for x in range(4)}
        assert table == {0: "11", 1: "10", 2: "01", 3: "00"}

    def test_deterministic_per_key(self):
        prf = prfqs_from_prgqs(toy_prg(8, 24), 8)
        key = "00110101"
        for x in range(8):
            assert prf.eval(key, x) == prf.eval(key, x)

    def test_distinct_inputs_read_disjoint_slices(self):
        # indicator outputs: slice x of the inner output marks position x
        def indicator(key, rng=None):
            x = int(key, 2)
            out = ["00"] * 4
            out[x] = "11"
            return "".join(out)

        inner = GeneratorHandle(kind="prg", input_len=2, output_len=8, eval=indicator)
        prf = prfqs_from_prgqs(inner, 4)
        for k in range(4):
            key = format(k, "02b")
            values = [prf.eval(key, x) for x in range(4)]
            assert values[k] == "11"
            assert all(v == "00" for i, v in enumerate(values) if i != k)

    def test_aborting_inner_gives_bot_on_every_input(self):
        prf = prfqs_from_prgqs(always_bot_prg(4, 8), 4)
        assert all(prf.eval("0101", x) is BOT for x in range(4))

    def test_domain_bound(self):
        prf = prfqs_from_prgqs(toy_prg(8, 24), 8)
        with pytest.raises(ValueError):
            prf.eval("00000000", 8)

    def test_domain_too_large(self):
        with pytest.raises(ValueError):
            prfqs_from_prgqs(toy_prg(8, 24), 32)

    @pytest.mark.parametrize("domain_size", [0, -4])
    def test_domain_size_below_one(self, domain_size):
        # checked before output_len // domain_size, which raised ZeroDivisionError at 0
        with pytest.raises(ParameterError, match=f"domain size must be at least 1, got {domain_size}"):
            prfqs_from_prgqs(toy_prg(8, 24), domain_size)


class TestConstructionInvariants:
    @given(st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_con1_bot_key_always_zeroes(self, seed):
        assert con1_eval(derived_bot_prg(8, 16), BOT, SeededRng(seed)) == BotValue.of("0" * 16)

    @given(st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_con2_bot_key_always_aborts(self, seed):
        assert con2_eval(CON2, BOT, SeededRng(seed)).is_bot

    def test_phase_state_validates_length(self):
        with pytest.raises(ValueError):
            phase_state([0, 1, 2], 8)
