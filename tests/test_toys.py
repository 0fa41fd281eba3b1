"""The toy generators: keys read at the boundary, and the per-process state memo."""

import hashlib
import re

import numpy as np
import pytest

from qrandlab import toys
from qrandlab.cli import strip_timing_fields
from qrandlab.experiments import bruteforce_owsg_handle, exp_owsg, owsg_coin_flip_adversary
from qrandlab.oracles import candidate_states
from qrandlab.qcore import InvalidDimensionError, haar_sample
from qrandlab.rng import ParameterError, SeededRng, derive_int, parse_bits
from qrandlab.toys import toy_owsg_basis, toy_owsg_haar, toy_prg
from fixtures import derived_bot_prg, haar_keyed_sprs


@pytest.fixture(autouse=True)
def cold_owsg_memo():
    """Each test starts from no memoised toy handle and leaves none behind,
    so a spy or a patched budget never meets a handle an earlier test made."""
    toy_owsg_haar.cache_clear()
    yield
    toy_owsg_haar.cache_clear()


class TestOwsgPins:
    """Known answers of the brute-force OWSG path, taken before its states were memoised.

    Each holds on a cold call, which builds the states and the table, and
    on a warm one, which reuses the states and builds the table again.
    """

    def test_candidate_table_digest(self):
        for _ in range(2):
            table = candidate_states(toy_owsg_haar(8, 16))
            digest = hashlib.sha256(table.tobytes()).hexdigest()
            assert digest == "e5665252380c38a67b09a83b14a6f4e2de07a2907f79c304760237c034c600cb"

    def test_bruteforce_success_count(self):
        records = []
        for _ in range(2):
            gen = toy_owsg_haar(8, 16)
            report = exp_owsg(gen, bruteforce_owsg_handle(gen), 2, 40, SeededRng(1))
            assert (report["trials"], report["successes"]) == (40, 40)
            records.append(strip_timing_fields(report))
        assert records[0] == records[1]

    def test_coin_flip_success_count(self):
        # the guesses are mostly wrong keys, so the count depends on every state and draw
        report = exp_owsg(toy_owsg_haar(4, 16), owsg_coin_flip_adversary(), 2, 300, SeededRng(5))
        assert report["successes"] == 45


class TestOwsgHaarMemo:
    def test_repeated_evals_share_one_state(self):
        gen = toy_owsg_haar(4, 16)
        first = gen.eval("0110", None)
        assert gen.eval("0110", SeededRng(3)) is first
        fresh = haar_sample(16, SeededRng(derive_int(11, "toy-owsg-haar", 4, 0b0110, 64), 0))
        assert np.array_equal(first.amplitudes, fresh.amplitudes)
        assert not first.amplitudes.flags.writeable

    def test_eval_leaves_its_rng_undrawn(self):
        gen = toy_owsg_haar(4, 16)
        for _ in range(2):  # a built state, then a remembered one
            rng = SeededRng(7)
            gen.eval("1001", rng)
            assert not rng.drawn

    def test_shared_between_factory_calls(self, monkeypatch):
        built = []
        monkeypatch.setattr(toys, "haar_sample", lambda dim, rng: built.append(dim) or haar_sample(dim, rng))
        a, b = toy_owsg_haar(4, 16), toy_owsg_haar(4, 16)
        assert a is b
        assert a.eval("0011", None) is b.eval("0011", None)
        assert len(built) == 1
        fresh = haar_sample(16, SeededRng(derive_int(11, "toy-owsg-haar", 4, 0b0011, 64), 0))
        assert np.array_equal(b.eval("0011", None).amplitudes, fresh.amplitudes)
        assert len(built) == 1

    def test_holds_at_most_the_candidate_table_budget(self, monkeypatch):
        # a 4 x 4 amplitude budget holds four states of dim 4
        monkeypatch.setattr(toys, "MAX_TENSOR_DIM", 4)
        built = []
        monkeypatch.setattr(toys, "haar_sample", lambda dim, rng: built.append(rng.seed) or haar_sample(dim, rng))
        gen = toy_owsg_haar(3, 4)
        keys = ["000", "001", "010", "011", "100"]
        states = [gen.eval(key, None) for key in keys]
        assert len(built) == 5
        assert gen.eval("100", None) is states[4]  # among the four most recent
        assert len(built) == 5
        again = gen.eval("000", None)  # evicted, so built again, to the same amplitudes
        assert len(built) == 6
        assert np.array_equal(again.amplitudes, states[0].amplitudes)

    def test_kept_key_is_checked_once(self, monkeypatch):
        checked = []
        monkeypatch.setattr(toys, "parse_bits", lambda bits, *args: checked.append(bits) or parse_bits(bits, *args))
        gen = toy_owsg_haar(4, 16)
        states = [gen.eval(key, None) for key in ("0110", "0110", "1001", "0110")]
        assert checked == ["0110", "1001"]
        assert states[0] is states[1] is states[3]

    @pytest.mark.parametrize(
        "key",
        [6, b"0110", ["0", "1", "1", "0"], "011", "01100", "01x0", "0b10"],
        ids=["int", "bytes", "unhashable", "short", "long", "non-binary", "prefixed"],
    )
    def test_refusals_unchanged_once_states_are_kept(self, key):
        gen = toy_owsg_haar(4, 16)
        for _ in range(2):  # before and after a valid key's state is kept
            with pytest.raises(ParameterError, match=re.escape(f"key must be 4 '0'/'1' characters, got {key!r}")):
                gen.eval(key, None)
            gen.eval("0110", None)

    def test_dimension_below_two_rejected_with_the_handle(self):
        with pytest.raises(InvalidDimensionError, match="dim must be >= 2"):
            toy_owsg_haar(4, 1)


class TestToyKeys:
    """Keys are read with parse_bits: exactly lam '0'/'1' characters."""

    @pytest.mark.parametrize("key", ["0b11", "11", "1_1", " 011", "0011 ", "00112", "00011"])
    @pytest.mark.parametrize(
        "make", [lambda: toy_owsg_haar(4, 16), lambda: toy_owsg_basis(4), lambda: toy_prg(4, 24),
                 lambda: derived_bot_prg(4, 8)],
        ids=["toy-owsg-haar", "toy-owsg-basis", "toy-prg", "derived-bot-prg"],
    )
    def test_malformed_key_rejected(self, make, key):
        gen = make()
        with pytest.raises(ParameterError, match=f"key must be 4 '0'/'1' characters, got {key!r}"):
            gen.eval(key, None)

    def test_haar_keyed_sprs_reads_key_len_bits(self):
        gen = haar_keyed_sprs(4, key_len=6)
        gen.eval("010101", None)
        with pytest.raises(ParameterError, match="key must be 6"):
            gen.eval("0b0101", None)
