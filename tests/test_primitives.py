import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrandlab.primitives import (
    BOT,
    BotValue,
    GeneratorHandle,
    _plurality,
    determinism_audit,
    is_bot,
    vote,
    vote_non_bot,
)
from qrandlab.rng import SeededRng
from fixtures import constant_bot_prg, fair_coin_bot_prg, haar_keyed_sprs, haar_sprs_reference

bits4 = st.text(alphabet="01", min_size=4, max_size=4)
maybe_bot = st.one_of(st.none(), bits4).map(lambda p: BOT if p is None else BotValue.of(p))


class TestBotValue:
    def test_rejects_non_binary_payload(self):
        with pytest.raises(ValueError):
            BotValue.of("012")

    def test_bot_has_no_payload(self):
        assert BOT.is_bot and BOT.payload is None

    def test_str(self):
        assert str(BOT) == "bot"
        assert str(BotValue.of("10")) == "10"


class TestIsBot:
    def test_bot_absorbs(self):
        assert is_bot(BOT, "1011").is_bot

    def test_passes_second_argument(self):
        assert is_bot(BotValue.of("0000"), "1011") == BotValue.of("1011")

    def test_identity_on_equal_values(self):
        x = BotValue.of("0110")
        assert is_bot(x, x) == x

    @given(maybe_bot, bits4)
    @settings(max_examples=50, deadline=None)
    def test_bot_output_iff_bot_input(self, a, b):
        assert is_bot(a, b).is_bot == a.is_bot


class TestVote:
    def test_strict_majority(self):
        one, two = BotValue.of("01"), BotValue.of("10")
        assert vote([one, two, two]) == two

    def test_tie_goes_to_first_occurrence(self):
        a, b = BotValue.of("00"), BotValue.of("11")
        assert vote([a, b]) == a
        assert vote([b, a]) == b

    def test_bot_is_eligible(self):
        y = BotValue.of("11")
        assert vote([BOT, BOT, y]).is_bot

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vote([])

    @given(st.lists(maybe_bot, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_defining_property(self, values):
        # winner has maximal multiplicity and the earliest first occurrence
        # among maximal-multiplicity values
        winner = vote(values)
        counts = {v: values.count(v) for v in values}
        top = max(counts.values())
        assert counts[winner] == top
        contenders = [v for v in values if counts[v] == top]
        assert values.index(winner) == min(values.index(v) for v in contenders)

    def test_permutation_preserving_first_occurrences(self):
        a, b, c = (BotValue.of(x) for x in ("00", "01", "10"))
        original = [a, b, a, b, c]
        # swap the trailing duplicates; first occurrences of a and b keep their order
        shuffled = [a, b, b, a, c]
        assert vote(original) == vote(shuffled)


    def test_tie_rule_with_equal_distinct_objects(self):
        a1, a2 = BotValue.of("01"), BotValue.of("01")
        b1, b2 = BotValue.of("10"), BotValue.of("10")
        assert vote([a1, a2, a2]) is a1
        assert vote([b1, a1, a2, b2]) is b1
        assert vote([a2, BOT, a1, BOT]) is a2
        assert vote([BOT, a1, BOT, a2]) is BOT
        assert vote_non_bot([BOT, b2, a1, b1, a2]) is b2

class TestVoteNonBot:
    def test_all_bot(self):
        assert vote_non_bot([BOT, BOT, BOT]).is_bot

    def test_single_value_wins_over_bots(self):
        y = BotValue.of("01")
        assert vote_non_bot([BOT, y, BOT]) == y

    def test_plurality_of_values(self):
        y, z = BotValue.of("01"), BotValue.of("10")
        assert vote_non_bot([y, z, z]) == z

    @given(st.lists(maybe_bot, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_non_bot_whenever_any_value_present(self, values):
        result = vote_non_bot(values)
        assert result.is_bot == all(v.is_bot for v in values)


class TestGeneratorHandle:
    def test_prg_must_expand(self):
        with pytest.raises(ValueError):
            GeneratorHandle(kind="prg", input_len=8, output_len=8, eval=lambda k, r: k)

    def test_botprg_must_expand(self):
        with pytest.raises(ValueError):
            GeneratorHandle(kind="bot-prg", input_len=8, output_len=4, eval=lambda k, r: k)

    def test_qs_kinds_need_sampler(self):
        with pytest.raises(ValueError):
            GeneratorHandle(kind="prg-qs", input_len=4, output_len=8, eval=lambda k, r: k)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GeneratorHandle(kind="prp", input_len=4, output_len=8, eval=lambda k, r: k)

    @pytest.mark.parametrize("kind", ["prg", "owsg"])
    def test_key_length_below_one_rejected(self, kind):
        with pytest.raises(ValueError, match="key length must be at least 1, got 0"):
            GeneratorHandle(kind=kind, input_len=0, output_len=8, eval=lambda k, r: k, dim=2)

    def test_eval_repeated_without_batch_loops_eval(self):
        gen = fair_coin_bot_prg(4, 8)
        a, b = SeededRng(5), SeededRng(5)
        assert gen.eval_repeated("0101", a, 30) == [gen.eval("0101", b) for _ in range(30)]
        assert a.uniform() == b.uniform()

class TestDeterminismAudit:
    def test_constant_generator(self):
        gen = constant_bot_prg(4, "10101010")
        assert determinism_audit(gen, "0000", 100, SeededRng(1)) == (BotValue.of("10101010"), 1.0)

    def test_fair_coin(self):
        gen = fair_coin_bot_prg(4, 8)
        _, frequency = determinism_audit(gen, "0000", 10_000, SeededRng(2))
        assert abs(frequency - 0.5) <= 3 * np.sqrt(0.25 / 10_000)

    def test_state_valued_deterministic(self):
        gen = haar_keyed_sprs(64, key_len=8)
        _, frequency = determinism_audit(gen, "00010011", 20, SeededRng(3))
        assert frequency == 1.0

    def test_state_valued_fresh_haar_never_clusters(self):
        gen = haar_sprs_reference(64, key_len=8)
        _, frequency = determinism_audit(gen, "00000000", 20, SeededRng(4))
        assert frequency == pytest.approx(1 / 20)

    def test_handle_without_fixed_evaluates_every_trial(self, monkeypatch):
        gen = fair_coin_bot_prg(4, 8)
        children = []
        child = SeededRng.child

        def counted_child(rng, i):
            children.append(i)
            return child(rng, i)

        monkeypatch.setattr(SeededRng, "child", counted_child)
        audit = determinism_audit(gen, "0000", 30, SeededRng(6))
        assert children == list(range(30))
        outputs = [gen.eval("0000", SeededRng(6).child(i)) for i in range(30)]
        modal = _plurality(outputs)
        assert audit == (modal, outputs.count(modal) / 30)

    def test_output_without_draws_is_audited_on_child_zero(self, monkeypatch):
        # the one evaluation sees child 0; no other child stream is made
        value = BotValue.of("10101010")
        seen = []
        gen = GeneratorHandle(
            kind="bot-prg", input_len=4, output_len=8, eval=lambda key, rng: seen.append(rng) or value
        )
        child = SeededRng.child
        monkeypatch.setattr(SeededRng, "child", lambda rng, i: child(rng, i) if i == 0 else pytest.fail("child made"))
        assert determinism_audit(gen, "0000", 50, SeededRng(7)) == (value, 1.0)
        assert seen == [SeededRng(7).child(0)]

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            determinism_audit(constant_bot_prg(4, "11111"), "0000", 1, SeededRng(0))
