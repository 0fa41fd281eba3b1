"""Known-answer tests for the reproducibility contract.

Every golden value below was produced by the code before any
optimisation touched these streams; a change that moves one of them
changes what a recorded seed reproduces.
"""

import hashlib
import importlib.util
import re
import sys
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrandlab import rng
from qrandlab.experiments import moment_distance, moment_hs2
from qrandlab.oracles import OracleWorld, prfqs_from_world
from qrandlab.rng import (
    ParameterError,
    SeededRng,
    derive_bits,
    derive_int,
    fisher_yates_positions,
    parse_bits,
    sha_words,
)
from qrandlab.toys import random_phase_sprs
from reference import fisher_yates_reference, philox_uniforms, reference_derive_int, reference_words


class TestSeededRngStreams:
    def test_first_draws(self):
        rng = SeededRng(2024, 3)
        assert rng.integers(0, 1 << 32, size=4).tolist() == [
            3382451414, 3833137510, 1605422298, 2081687668,
        ]
        assert rng.uniform() == 0.4902606015572777

    def test_child_first_draws(self):
        child = SeededRng(2024, 3).child(5)
        assert child.counter == (3 << 32) + 1 + 5
        assert child.integers(0, 1 << 32, size=4).tolist() == [
            1241146508, 181044989, 2403135797, 570890450,
        ]
        assert child.uniform() == 0.19331473097178065

    def test_bits(self):
        bits = SeededRng(2024).bits(300)
        assert len(bits) == 300
        assert int(bits, 2) == 0x5D5831D20704CE3BC283D76028FC2F71999CE587C29FEC8339BE48E4D11C1D05D6A2B897379

    @pytest.mark.parametrize("seed", [2024, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 33, 64, 385, 4096, 4099])
    def test_bits_spell_the_integer_draws(self, seed, n):
        # bits(n) converts its n integer draws in one b"01" lookup; the per-bit join and
        # the ASCII offset conversion that bits used before are the references
        rng, ref, offset = SeededRng(seed, 5), SeededRng(seed, 5), SeededRng(seed, 5)
        bits = rng.bits(n)
        assert bits == "".join("01"[b] for b in ref.integers(0, 2, size=n))
        assert bits == (offset.integers(0, 2, size=n).astype(np.uint8) + ord("0")).tobytes().decode("ascii")
        assert rng.uniform() == ref.uniform()  # the stream goes on where the draws left it


class TestPhiloxState:
    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("counter", [0, 1, 1 << 64, (1 << 128) - 1])
    def test_built_state(self, seed, counter):
        # key [seed, 0], the stream in the counter's high half, and an empty buffer
        state = SeededRng(seed, counter).generator.bit_generator.state
        assert state["state"]["key"].tolist() == [seed, 0]
        assert state["state"]["counter"].tolist() == [0, 0, counter & (1 << 64) - 1, counter >> 64]
        assert (state["buffer_pos"], state["has_uint32"]) == (4, 0)

    @pytest.mark.parametrize("seed", [0, 123, 987654321, (1 << 64) - 1])
    @pytest.mark.parametrize("counter", [0, 5, (1 << 96) + 7, (1 << 128) - 1])
    def test_draws_equal_keyed_philox(self, seed, counter):
        # the stream is the one numpy's Philox(key=seed, counter=counter << 128) gives
        ours = SeededRng(seed, counter)
        keyed = np.random.Generator(np.random.Philox(key=seed, counter=counter << 128))
        for _ in range(3):
            assert ours.standard_normal(7).tolist() == keyed.standard_normal(7).tolist()
            assert ours.integers(0, 1 << 40, size=5).tolist() == keyed.integers(0, 1 << 40, size=5).tolist()
            assert ours.uniform() == keyed.random()
            assert ours.bit() == keyed.integers(0, 2)


class TestPhiloxReference:
    """The uniforms are pinned to a Philox4x64-10 written out in plain integers,
    not to numpy's own Philox: the abort coins and ``sample_index`` draw them."""

    STREAMS = [(0, 0), (2024, 5), ((1 << 64) - 1, (1 << 96) + 7)]

    @pytest.mark.parametrize("seed, counter", STREAMS)
    def test_random_batch(self, seed, counter):
        assert SeededRng(seed, counter).uniforms(12).tolist() == philox_uniforms(seed, counter, 12)

    @pytest.mark.parametrize("seed, counter", STREAMS)
    def test_uniform_calls(self, seed, counter):
        stream = SeededRng(seed, counter)
        assert [stream.uniform() for _ in range(12)] == philox_uniforms(seed, counter, 12)


def _plain(state):
    """A bit generator's state with its arrays as lists, so two states compare with ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


SEEDS = st.integers(0, (1 << 64) - 1)
COUNTERS = st.integers(0, (1 << 128) - 1)


class TestStreamBuild:
    """A stream is built from its counter words and its seed's shared key array;
    it is numpy's keyed Philox over the whole seed and counter range."""

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, counter=COUNTERS)
    @example(seed=0, counter=0)
    @example(seed=0, counter=(1 << 128) - 1)
    @example(seed=(1 << 64) - 1, counter=0)
    @example(seed=(1 << 64) - 1, counter=(1 << 128) - 1)
    def test_equals_keyed_philox(self, seed, counter):
        ours = SeededRng(seed, counter)
        keyed = np.random.Generator(np.random.Philox(key=seed, counter=counter << 128))
        assert _plain(ours.generator.bit_generator.state) == _plain(keyed.bit_generator.state)
        assert ours.uniform() == keyed.random()
        assert ours.integers(0, 1 << 40, size=5).tolist() == keyed.integers(0, 1 << 40, size=5).tolist()
        assert ours.standard_normal(7).tolist() == keyed.standard_normal(7).tolist()
        assert ours.bits(9) == "".join("01"[b] for b in keyed.integers(0, 2, size=9))
        assert ours.bit() == keyed.integers(0, 2)

    @settings(max_examples=30, deadline=None)
    @given(seeds=st.tuples(SEEDS, SEEDS), counters=st.tuples(COUNTERS, COUNTERS))
    @example(seeds=(0, (1 << 64) - 1), counters=(0, (1 << 128) - 1))
    def test_interleaved_seeds_draw_as_alone(self, seeds, counters):
        # streams of the two seeds alternate, so each build swaps the once-per-seed key
        names = [(s, c) for c in counters for s in seeds]
        names += [(s, ((c % (1 << 96)) << 32) + 1 + 7) for s, c in names]  # child(7) of counter c mod 2**96
        alone = [SeededRng(s, c).generator.random(4).tolist() for s, c in names]
        streams = [SeededRng(s, c) for s, c in names[:4]]
        streams += [SeededRng(r.seed, r.counter % (1 << 96)).child(7) for r in streams]
        rounds = [[r.uniform() for r in streams] for _ in range(4)]  # the first round builds each in turn
        assert [list(draws) for draws in zip(*rounds)] == alone
        for r in streams:
            key = r.generator.bit_generator.seed_seq.key
            assert key.tolist() == [r.seed, 0] and not key.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                key[1] = 1

    def test_one_key_per_seed(self):
        a, b = SeededRng(5, 1), SeededRng(5, 2).child(3)
        other = SeededRng(6)
        key = a.generator.bit_generator.seed_seq
        assert b.generator.bit_generator.seed_seq is key  # the same seed's next stream reuses it
        assert other.generator.bit_generator.seed_seq is not key
        assert SeededRng(5).generator.bit_generator.seed_seq is not key  # another seed came between


class TestStreamLimits:
    def test_child_index_cap(self):
        # index 2**32 would land on child(0).child(0)'s counter
        with pytest.raises(ValueError, match=r"2\*\*32 - 1"):
            SeededRng(1).child(2**32)
        with pytest.raises(ValueError, match=r"2\*\*32 - 1"):
            SeededRng(1).child(2**32 - 1)
        assert SeededRng(1).child(2**32 - 2).counter == 2**32 - 1
        with pytest.raises(ValueError):
            SeededRng(1).child(-1)

    def test_counter_cap(self):
        assert SeededRng(1, 2**128 - 1).counter == 2**128 - 1
        with pytest.raises(ValueError, match=r"2\*\*128"):
            SeededRng(1, 2**128)
        with pytest.raises(ValueError):
            SeededRng(1, -1)

    def test_nesting_depth(self):
        rng = SeededRng(1)
        for _ in range(4):
            rng = rng.child(0)
        rng.uniform()
        with pytest.raises(ValueError, match=r"2\*\*128"):
            rng.child(0)


class TestParseBits:
    def test_reads_msb_first(self):
        assert parse_bits("0110") == 6
        assert parse_bits("0110", 4) == 6
        assert parse_bits("") == 0

    @pytest.mark.parametrize("bits", ["0b1", "0_1", " 01", "012", "1\n"])
    def test_rejects_what_int_base_2_would_read(self, bits):
        with pytest.raises(ParameterError, match="'0'/'1' characters"):
            parse_bits(bits)

    @pytest.mark.parametrize("bits", ["011", "01101"])
    def test_width(self, bits):
        with pytest.raises(ParameterError, match=f"^key must be 4 '0'/'1' characters, got {bits!r}$"):
            parse_bits(bits, 4, name="key")

    @pytest.mark.parametrize("bits", [5, None, b"01", ["0", "1"]])
    def test_non_string(self, bits):
        message = f"bits must be '0'/'1' characters, got {bits!r}"  # the field is named once
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            parse_bits(bits)

    def test_is_a_value_error(self):
        assert issubclass(ParameterError, ValueError)


class TestDerivation:
    def test_derive_bits_single_block(self):
        assert derive_bits(2024, "toy-prg", 8, 5, 24) == "010001111100100111001100"
        assert derive_int(2024, "toy-prg", 8, 5, 24) == 0b010001111100100111001100

    def test_derive_bits_two_blocks(self):
        bits = derive_bits(2024, "toy-prg", 8, 5, 300)
        assert bits[:24] == derive_bits(2024, "toy-prg", 8, 5, 24)
        assert int(bits, 2) == 0x47C9CC5F15D30016D3EC1E0C2BD7CEB78D7145347BE67BA62FE8AE53AC71D5304F238321A46

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, (1 << 64) - 1),
        function_id=st.text(max_size=12),
        n=st.integers(0, (1 << 32) - 1),
        x=st.integers(0, (1 << 128) - 1),
        nbits=st.integers(1, 600),
    )
    def test_derive_int_is_derive_bits_read_as_binary(self, seed, function_id, n, x, nbits):
        bits = derive_bits(seed, function_id, n, x, nbits)
        assert len(bits) == nbits
        assert derive_int(seed, function_id, n, x, nbits) == int(bits, 2)

    def test_sha_stream_words(self):
        words = [16295676159294212735, 1412019605716616561, 7756634153501359397, 7097334249635145607, 12991602247814294835]
        assert sha_words(2024, "bot-world/P", 8, 0, 5).tolist() == words
        assert list(islice(reference_words(2024, "bot-world/P", 8), 5)) == words

    def test_sha_words_random_access(self):
        # words 4094..4101 cross a 4096-draw batch and a four-word block boundary
        words = sha_words(2024, "bot-world/P", 16, 4094, 8)
        assert words.dtype == np.uint64
        assert words.tolist() == [
            11081191098692843689,
            15059662687827883332,
            17605387141253595729,
            2925121888502161592,
            950866736572271485,
            13574460696681469564,
            8525748621690103191,
            830270319634465506,
        ]
        assert words.tolist() == sha_words(2024, "bot-world/P", 16, 0, 4102)[4094:].tolist()
        assert words.tolist() == list(islice(reference_words(2024, "bot-world/P", 16), 4094, 4102))

    def test_fisher_yates_table(self):
        table = np.argsort(fisher_yates_positions(2024, "bot-world/P", 8, 1 << 8)).astype(np.uint64)
        assert table[:16].tolist() == [55, 117, 67, 21, 133, 141, 221, 178, 152, 177, 199, 196, 75, 77, 173, 176]
        assert sorted(table.tolist()) == list(range(256))
        digest = hashlib.sha256(table.astype(">u8").tobytes()).hexdigest()
        assert digest == "b5376f2d665c0df7536e991757c18c4bf4b3e26fc5c385694a04ea278f80a188"


# the constructor rng resolved at import, and hashlib's OpenSSL one, its fallback
KERNELS = pytest.mark.parametrize("kernel", [rng._sha256, hashlib.sha256], ids=["resolved", "fallback"])


class TestSha256Kernel:
    """Both derivations equal plain hashlib loops over the documented encoding,
    whichever SHA-256 constructor computes their digests."""

    def test_resolved_at_import(self):
        # CPython's built-in SHA-256, and hashlib's only where the interpreter has none;
        # getattr, since a class body would mangle the dunder name
        try:
            builtin = getattr(hashlib, "__get_builtin_constructor")("sha256")
        except ValueError:
            builtin = hashlib.sha256
        assert rng._sha256 is builtin
        assert rng._sha256(b"abc").hexdigest() == hashlib.sha256(b"abc").hexdigest()

    def test_falls_back_to_hashlib_without_a_builtin(self, monkeypatch):
        # a fresh copy of the module, imported on an interpreter that lacks the built-in
        def no_builtin(name):
            raise ValueError(f"unsupported hash type {name}")

        monkeypatch.setattr(hashlib, "__get_builtin_constructor", no_builtin)
        spec = importlib.util.spec_from_file_location("rng_without_builtin", rng.__file__)
        copy = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, copy)  # its dataclasses resolve annotations there
        spec.loader.exec_module(copy)
        assert copy._sha256 is hashlib.sha256
        assert copy.derive_int(3, "f", 8, 5, 64) == reference_derive_int(3, "f", 8, 5, 64)

    @KERNELS
    @settings(max_examples=150, deadline=None)
    @given(
        seed=SEEDS,
        function_id=st.text(max_size=12),
        n=st.integers(0, (1 << 32) - 1),
        start=st.integers(0, 5000),
        count=st.integers(0, 40),
    )
    @example(seed=(1 << 64) - 1, function_id="bot-wörld/P☃", n=16, start=4094, count=8)
    @example(seed=0, function_id="", n=0, start=3, count=1)
    def test_sha_words_equal_reference(self, kernel, seed, function_id, n, start, count):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_sha256", kernel)
            words = sha_words(seed, function_id, n, start, count)
        assert words.dtype == np.uint64
        assert words.tolist() == list(islice(reference_words(seed, function_id, n), start, start + count))

    @KERNELS
    @settings(max_examples=150, deadline=None)
    @given(
        seed=SEEDS,
        function_id=st.text(max_size=12),
        n=st.integers(0, (1 << 32) - 1),
        x=st.integers(0, (1 << 128) - 1),
        nbits=st.integers(1, 800),
    )
    @example(seed=(1 << 64) - 1, function_id="haar-kéyed-sprs", n=7, x=(1 << 128) - 1, nbits=513)
    def test_derive_int_equals_reference(self, kernel, seed, function_id, n, x, nbits):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_sha256", kernel)
            value = derive_int(seed, function_id, n, x, nbits)
        assert value == reference_derive_int(seed, function_id, n, x, nbits)

    @pytest.mark.parametrize("x", [1 << 128, -1, 1 << 130, -(1 << 200)])
    def test_input_outside_128_bits_is_refused(self, x):
        # the encoding holds x in 16 bytes: a ParameterError, which the CLI reports with exit 2
        with pytest.raises(ParameterError, match=r"\[0, 2\*\*128\) for its 128-bit encoding"):
            derive_int(2024, "toy-prg", 8, x, 24)
        with pytest.raises(ParameterError, match="128-bit encoding"):
            derive_bits(2024, "toy-prg", 8, x, 24)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 3 * (1 << 64) - 1, "3"])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # masked to 64 bits, seeds -1 and 3 * 2^64 - 1 would derive 2^64 - 1's streams under other names
        with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            derive_int(seed, "toy-prg", 8, 5, 24)
        with pytest.raises(ParameterError, match="seed must be"):
            sha_words(seed, "bot-world/P", 8, 0, 4)

    def test_largest_input_is_accepted(self):
        x = (1 << 128) - 1
        assert derive_int(2024, "toy-prg", 8, x, 24) == reference_derive_int(2024, "toy-prg", 8, x, 24)
        assert derive_int(2024, "toy-prg", 8, 0, 24) == reference_derive_int(2024, "toy-prg", 8, 0, 24)


class TestPinnedStatistics:
    def test_moment_distance(self):
        dist = moment_distance(random_phase_sprs(8), 2, 3000, "monte-carlo", SeededRng(3, 2))
        assert dist == pytest.approx(0.10446886260421989, rel=1e-12)

    def test_moment_hs2(self):
        est, (lo, hi) = moment_hs2(random_phase_sprs(8), 2, 2013, SeededRng(4))
        assert est == pytest.approx(0.0015101797227599217, rel=1e-12)
        assert lo == pytest.approx(0.0014026783624289472, rel=1e-12)
        assert hi == pytest.approx(0.0016176810830908963, rel=1e-12)

    def test_flip_world_key(self):
        world = OracleWorld("flip-world", 2024, n_max=2)
        assert prfqs_from_world(world, 2).qsamp(SeededRng(2024, 1)) == "00" + "0111111000011001"


class TestLazyGenerator:
    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(philox(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(np.random, "Philox", counting)
        return built

    def test_stream_that_never_draws_builds_no_generator(self, builds):
        rng = SeededRng(2024, 3)
        child = rng.child(5)
        assert builds == []
        assert child.integers(0, 1 << 32, size=4).tolist() == [1241146508, 181044989, 2403135797, 570890450]
        assert child.uniform() == 0.19331473097178065
        assert len(builds) == 1 and builds[0] is child.generator.bit_generator
        state = builds[0].state["state"]
        assert state["key"].tolist() == [2024, 0]
        # the high half of the 256-bit counter names the stream; the low half counts its blocks
        assert state["counter"][2:].tolist() == [child.counter & (1 << 64) - 1, child.counter >> 64]

    def test_out_of_range_raises_at_construction(self, builds):
        for seed, counter in ((-1, 0), (1 << 64, 0), (1, -1), (1, 1 << 128)):
            with pytest.raises(ValueError):
                SeededRng(seed, counter)
        assert builds == []


class TestDrawnFlag:
    DRAWS = {
        "uniform": lambda r: r.uniform(),
        "integers": lambda r: r.integers(0, 5),
        "standard_normal": lambda r: r.standard_normal(2),
        "bit": lambda r: r.bit(),
        "bits": lambda r: r.bits(3),
        "multinomial": lambda r: r.multinomial(4, [0.5, 0.5]),
        "generator": lambda r: r.generator,
    }

    def test_fresh_stream_and_child_are_not_drawn(self):
        rng = SeededRng(2024, 3)
        assert not rng.drawn
        assert not rng.child(5).drawn
        assert not rng.drawn

    @pytest.mark.parametrize("draw", list(DRAWS))
    def test_each_draw_helper_marks_drawn(self, draw):
        rng = SeededRng(2024, 3)
        self.DRAWS[draw](rng)
        assert rng.drawn
        assert not rng.child(0).drawn

    def test_drawn_is_read_only(self):
        with pytest.raises(AttributeError):
            SeededRng(1).drawn = True


def _table_digest(table) -> str:
    return hashlib.sha256(table.tobytes()).hexdigest()


class TestBulkFisherYates:
    @pytest.mark.parametrize(
        "n_bits, digest",
        [
            (12, "21fcf2fa5a54fd2350d30a84cffd1c64d5a7fcc1cb23966faa8e0b2a4a745fda"),
            (13, "113dd335c9bc7c6ec3d125fe86be4faefaaf7d982b7829b657274b405f827d1b"),
            (16, "87edf7ec783f201d7cc2ebf679e29bb8da96d223e7756d93092deca84b0db9c5"),
            (1, "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
            (2, "6bea2dbe6c90de32fb23d57777278a9404c073bec9d68266568279e275ea2f24"),
            (20, "b86648c7dde963bf6166d8f9787deb9d164eecebc520847f5899fe6bce2069af"),
        ],
    )
    def test_known_answers(self, n_bits, digest):
        table = np.argsort(fisher_yates_positions(2024, "bot-world/P", n_bits, 1 << n_bits)).astype(np.uint64)
        assert _table_digest(table) == digest

    @settings(max_examples=30, deadline=None)
    @given(n_bits=st.integers(1, 12), seed=st.integers(0, (1 << 64) - 1))
    def test_equals_swap_loop(self, n_bits, seed):
        table = np.argsort(fisher_yates_positions(seed, "bot-world/P", n_bits, 1 << n_bits))
        assert table.tolist() == fisher_yates_reference(seed, "bot-world/P", n_bits)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_bits=st.integers(1, 12), seed=st.integers(0, (1 << 64) - 1))
    def test_positions_equal_swap_loop(self, data, n_bits, seed):
        count = 1 << (n_bits - data.draw(st.integers(0, n_bits), label="w"))
        reference = fisher_yates_reference(seed, "bot-world/P", n_bits)
        positions = fisher_yates_positions(seed, "bot-world/P", n_bits, count)
        assert positions.tolist() == np.argsort(reference)[:count].tolist()
        mask = np.zeros(1 << n_bits, dtype=bool)
        mask[positions] = True
        assert mask.tolist() == [v < count for v in reference]

    @pytest.mark.parametrize("count", [0, -1, 257])
    def test_positions_count_out_of_range(self, count):
        with pytest.raises(ParameterError, match="count must be in"):
            fisher_yates_positions(2024, "bot-world/P", 8, count)

    @staticmethod
    def force_word(monkeypatch, n_bits: int, position: int, word: int):
        """Make word ``position`` of every ``sha_words`` stream ``word``; returns
        the reference word stream of ``(2024, "bot-world/P", n_bits)`` so altered."""
        words = rng.sha_words

        def forced(seed, function_id, n, start, count):
            out = words(seed, function_id, n, start, count)
            if start <= position < start + count:
                out[position - start] = word
            return out

        monkeypatch.setattr(rng, "sha_words", forced)
        stream = reference_words(2024, "bot-world/P", n_bits)
        return (word if i == position else w for i, w in enumerate(stream))

    # (13, 4095) forces the last word of the first 4096-draw batch
    @pytest.mark.parametrize("n_bits, position", [(8, 3), (13, 4095), (5, 1), (6, 59), (10, 1000)])
    def test_forced_rejection_matches_scalar_loop(self, monkeypatch, n_bits, position):
        # Word `position` is set to the rejection limit of the bound it is
        # drawn for, so that draw takes the following word.
        bound = (1 << n_bits) - position
        limit = (1 << 64) - (1 << 64) % bound
        altered = self.force_word(monkeypatch, n_bits, position, limit)
        table = np.argsort(fisher_yates_positions(2024, "bot-world/P", n_bits, 1 << n_bits))
        reference = fisher_yates_reference(2024, "bot-world/P", n_bits, altered)
        assert table.tolist() == reference
        # the positions behind every bad-input mask of the shifted stream, down to one value
        for w in range(n_bits + 1):
            count = 1 << (n_bits - w)
            positions = fisher_yates_positions(2024, "bot-world/P", n_bits, count)
            assert positions.tolist() == np.argsort(reference)[:count].tolist()
        monkeypatch.undo()
        unforced = np.argsort(fisher_yates_positions(2024, "bot-world/P", n_bits, 1 << n_bits))
        assert table.tolist() != unforced.tolist()

    def test_word_below_limit_is_kept(self, monkeypatch):
        # Step 252 of the n = 8 table draws word 3 for the bound 253.
        bound = 253
        limit = (1 << 64) - (1 << 64) % bound

        def table_with_word_3(word):
            altered = self.force_word(monkeypatch, 8, 3, word)
            table = np.argsort(fisher_yates_positions(2024, "bot-world/P", 8, 1 << 8)).tolist()
            monkeypatch.undo()
            return table, fisher_yates_reference(2024, "bot-world/P", 8, altered)

        kept, reference = table_with_word_3(limit - 1)
        assert kept == reference
        # kept, the word draws j = (limit - 1) % 253 and shifts no later draw
        assert kept == table_with_word_3((limit - 1) % bound)[0]
        assert kept != table_with_word_3(limit)[0]
