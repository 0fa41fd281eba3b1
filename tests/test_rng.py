"""Known-answer tests for the reproducibility contract.

Every golden value below was produced by the code before any
optimisation touched these streams; a change that moves one of them
changes what a recorded seed reproduces.
"""

import hashlib

import numpy as np
import pytest

from qrandlab.experiments import moment_distance, moment_hs2
from qrandlab.oracles import OracleWorld, prfqs_from_world
from qrandlab.rng import ShaStream, SeededRng, derive_bits, derive_int, fisher_yates_table
from qrandlab.toys import random_phase_sprs


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


class TestDerivation:
    def test_derive_bits_single_block(self):
        assert derive_bits(2024, "toy-prg", 8, 5, 24) == "010001111100100111001100"
        assert derive_int(2024, "toy-prg", 8, 5, 24) == 0b010001111100100111001100

    def test_derive_bits_two_blocks(self):
        bits = derive_bits(2024, "toy-prg", 8, 5, 300)
        assert bits[:24] == derive_bits(2024, "toy-prg", 8, 5, 24)
        assert int(bits, 2) == 0x47C9CC5F15D30016D3EC1E0C2BD7CEB78D7145347BE67BA62FE8AE53AC71D5304F238321A46

    def test_sha_stream_words(self):
        stream = ShaStream(2024, "bot-world/P", 8)
        assert [stream._next_word() for _ in range(5)] == [
            16295676159294212735,
            1412019605716616561,
            7756634153501359397,
            7097334249635145607,
            12991602247814294835,
        ]

    def test_fisher_yates_table(self):
        table = fisher_yates_table(2024, "bot-world/P", 8)
        assert table[:16].tolist() == [55, 117, 67, 21, 133, 141, 221, 178, 152, 177, 199, 196, 75, 77, 173, 176]
        assert sorted(table.tolist()) == list(range(256))
        digest = hashlib.sha256(table.astype(">u8").tobytes()).hexdigest()
        assert digest == "b5376f2d665c0df7536e991757c18c4bf4b3e26fc5c385694a04ea278f80a188"


class TestPinnedStatistics:
    def test_moment_distance(self):
        dist = moment_distance(random_phase_sprs(8), 2, 3000, "monte-carlo", SeededRng(3, 2), 700)
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
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        return built

    def test_stream_that_never_draws_builds_no_generator(self, builds):
        rng = SeededRng(2024, 3)
        child = rng.child(5)
        assert builds == []
        assert child.integers(0, 1 << 32, size=4).tolist() == [1241146508, 181044989, 2403135797, 570890450]
        assert child.uniform() == 0.19331473097178065
        assert builds == [{"key": 2024, "counter": child.counter << 128}]

    def test_out_of_range_raises_at_construction(self, builds):
        for seed, counter in ((-1, 0), (1 << 64, 0), (1, -1), (1, 1 << 128)):
            with pytest.raises(ValueError):
                SeededRng(seed, counter)
        assert builds == []


def _table_digest(table) -> str:
    return hashlib.sha256(table.tobytes()).hexdigest()


class TestBulkFisherYates:
    @pytest.mark.parametrize(
        "n_bits, digest",
        [
            (12, "21fcf2fa5a54fd2350d30a84cffd1c64d5a7fcc1cb23966faa8e0b2a4a745fda"),
            (13, "113dd335c9bc7c6ec3d125fe86be4faefaaf7d982b7829b657274b405f827d1b"),
            (16, "87edf7ec783f201d7cc2ebf679e29bb8da96d223e7756d93092deca84b0db9c5"),
        ],
    )
    def test_known_answers(self, n_bits, digest):
        assert _table_digest(fisher_yates_table(2024, "bot-world/P", n_bits)) == digest

    @pytest.mark.parametrize("n_bits, position", [(8, 3), (13, 4095)])
    def test_forced_rejection_matches_scalar_loop(self, monkeypatch, n_bits, position):
        # Word `position` of every stream is set to the rejection limit of
        # the bound it is drawn for, so that draw takes the following word.
        size = 1 << n_bits
        bound = size - position
        limit = (1 << 64) - (1 << 64) % bound
        words = ShaStream._words

        def forced(self, count):
            start = getattr(self, "drawn", 0)
            self.drawn = start + count
            out = words(self, count).copy()
            if start <= position < start + count:
                out[position - start] = limit
            return out

        monkeypatch.setattr(ShaStream, "_words", forced)
        table = fisher_yates_table(2024, "bot-world/P", n_bits)
        stream = ShaStream(2024, "bot-world/P", n_bits)
        reference = list(range(size))
        for i in range(size - 1, 0, -1):
            j = stream.bounded(i + 1)
            reference[i], reference[j] = reference[j], reference[i]
        assert table.tolist() == reference
        monkeypatch.undo()
        assert table.tolist() != fisher_yates_table(2024, "bot-world/P", n_bits).tolist()

    def test_word_below_limit_is_kept(self, monkeypatch):
        bound = 253
        limit = (1 << 64) - (1 << 64) % bound
        monkeypatch.setattr(ShaStream, "_words", lambda self, count: np.full(count, limit - 1, dtype=np.uint64))
        assert ShaStream(0, "x", 1).bounded(bound) == (limit - 1) % bound
