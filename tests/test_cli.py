import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrandlab
from qrandlab import cli, experiments, oracles
from qrandlab.cli import canonical_json, main, strip_timing_fields as strip_timing
from qrandlab.experiments import bruteforce_owsg_handle
from qrandlab.extraction import RoundParams, good_set_member, round_mask
from qrandlab.qcore import MAX_TENSOR_DIM, born_distribution, haar_sample
from qrandlab.rng import SeededRng
from qrandlab.tomography import sampled_diagonal
from qrandlab.toys import toy_owsg_basis, toy_owsg_haar
from reference import looped_extract, round12


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def parser_exit(capsys, argv, choices):
    """``argv`` is refused by argparse: exit 2, the flag's ``choices`` listed on stderr, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    _, listed = err.split("invalid choice")
    assert all(choice in listed.split("choose from")[1] for choice in choices)


class _DictSubclass(dict):
    pass


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 2.225e-308, 0.30000000000000004]),
    st.floats(0.1, 1.0).map(lambda x: float(f"{x:.16e}")),  # 17 significant digits
)
_LEAVES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(1 << 63, 1 << 70),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32, allow_subnormal=True).map(np.float32),
    st.integers(-(1 << 63), (1 << 63) - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(max_size=4),
)
RECORD_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=4).map(_DictSubclass),
    ),
    max_leaves=12,
)


class TestCanonicalJson:
    def test_floats_are_12_significant_digits(self):
        value = 0.1234567890123456789
        assert canonical_json({"x": value}) == '{"x":0.123456789012}'

    def test_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    @settings(max_examples=300, deadline=None)
    @given(value=RECORD_VALUES)
    @example(value={"x": [0.1234567890123456789, -0.0, 5e-324, 1 << 64, np.float32(0.1), (np.int64(-3), True)]})
    @example(value=_DictSubclass(a=np.bool_(True)))  # json refuses np.bool_ in both
    def test_equals_isinstance_chain(self, value):
        # the exact-type dispatch gives the one-chain canonicaliser's string, or its exception type
        expected = error = None
        try:
            expected = json.dumps(round12(value), sort_keys=True, separators=(",", ":"))
        except Exception as e:  # the exact type is what must match
            error = type(e)
        if error is None:
            assert canonical_json(value) == expected
        else:
            with pytest.raises(error):
                canonical_json(value)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs over a second to import; only gaussian_block_check needs it
    src = str(Path(qrandlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, qrandlab.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


class TestExtractCommand:
    def test_emits_good_fraction(self, capsys):
        code, out, _ = run_cli(
            capsys, ["extract", "--d", "4096", "--states", "50", "--mode", "exact", "--seed", "7"]
        )
        assert code == 0
        (record,) = parse_lines(out)
        result = record["result"]
        assert 0 <= result["good_fraction"] <= 1
        assert result["repeat_agreement"] == 1.0
        assert record["config"]["seed"] == 7

    def test_invalid_dimension_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["extract", "--d", "100", "--seed", "1"])
        assert code == 2
        assert "2**(6a)" in err

    def test_haar_stats_invalid_dimension_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["haar-stats", "--d", "100", "--seed", "1"])
        assert (code, out) == (2, "")
        assert "2**(6a)" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ["extract", "--d", "64", "--states", "30", "--seed", "9"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        a, b = parse_lines(out1)[0], parse_lines(out2)[0]
        assert canonical_json(strip_timing(a)) == canonical_json(strip_timing(b))

    def test_omitted_seed_is_recorded(self, capsys):
        code, out, _ = run_cli(capsys, ["extract", "--d", "64", "--states", "5"])
        assert code == 0
        (record,) = parse_lines(out)
        assert isinstance(record["config"]["seed"], int)


class TestExtractShares:
    """extract spreads its states over threads; the record must not depend on how many."""

    CASES = {
        "d4096-sampled": ["extract", "--d", "4096", "--states", "8", "--mode", "sampled", "--t", "1000000"],
        "d4096-exact": ["extract", "--d", "4096", "--states", "8", "--mode", "exact"],
        "d64-sampled": ["extract", "--d", "64", "--states", "12", "--mode", "sampled", "--t", "1000"],
    }

    @staticmethod
    def run_with_workers(capsys, monkeypatch, argv, workers):
        """The stripped record of ``argv`` with the CPU set forced to ``workers``
        CPUs, and the threads that made its states' streams."""
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(cli, "_MIN_SPREAD_D", 64)  # spread d = 64 too, which runs serially
        samplers = set()  # thread objects, not idents: a finished thread's ident is reused
        child = SeededRng.child

        def child_stream(rng, index):
            samplers.add(threading.current_thread())
            return child(rng, index)

        monkeypatch.setattr(SeededRng, "child", child_stream)
        code, out, _ = run_cli(capsys, [*argv, "--seed", "5"])
        monkeypatch.undo()
        assert code == 0
        return canonical_json(strip_timing(parse_lines(out)[0])), len(samplers)

    @pytest.mark.parametrize("case", CASES)
    def test_record_independent_of_worker_count(self, capsys, monkeypatch, case):
        serial, threads = self.run_with_workers(capsys, monkeypatch, self.CASES[case], 1)
        assert threads == 1
        for workers in (2, 3):
            assert self.run_with_workers(capsys, monkeypatch, self.CASES[case], workers) == (serial, workers)

    def test_more_shares_than_cores_under_frequent_switches(self, capsys, monkeypatch):
        argv = ["extract", "--d", "4096", "--states", "16", "--mode", "sampled", "--t", "1000"]
        serial, _ = self.run_with_workers(capsys, monkeypatch, argv, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert self.run_with_workers(capsys, monkeypatch, argv, 5) == (serial, 5)
        finally:
            sys.setswitchinterval(interval)

    def test_error_in_another_share_stops_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        child = SeededRng.child
        main_states, failed = [], []
        main_started, worker_entered = threading.Event(), threading.Event()

        def child_stream(rng, index):
            if threading.current_thread() is threading.main_thread():
                if not main_states:
                    # share 0's first block starts only after share 1 has failed on state 1 and exited
                    main_started.set()
                    assert worker_entered.wait(timeout=30)
                    failed[0].join(timeout=30)
                    assert not failed[0].is_alive()
                main_states.append(index)
                return child(rng, index)
            failed.append(threading.current_thread())
            worker_entered.set()
            assert main_started.wait(timeout=30)
            raise cli.ParameterError("share 1 failed")

        monkeypatch.setattr(SeededRng, "child", child_stream)
        # 40 states: three blocks of up to 8 per share
        code, out, err = run_cli(capsys, ["extract", "--d", "4096", "--states", "40", "--seed", "1"])
        assert (code, out) == (2, "")
        assert "share 1 failed" in err
        assert len(failed) == 1  # share 1 stopped at its first state
        assert main_states == list(range(0, 16, 2))  # share 0 stopped at its next block

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d, t", [(64, 1), (64, 500), (4096, 1000), (4096, 10**6)])
    def test_result_equals_two_full_extracts(self, monkeypatch, d, t, workers):
        # the repeat draws only the cells rounding reads, yet every result is
        # the one two full d-cell extractions per state give
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(cli, "_MIN_SPREAD_D", 64)
        for seed in (0, 1, 2):
            params = {"d": d, "states": 8, "mode": "sampled", "t": t}
            assert cli.cmd_extract(params, seed) == looped_extract(d, 8, t, seed)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d, t", [(d, t) for d in (64, 4096) for t in (None, 1000, 10**6)])
    def test_record_equals_serial_reference(self, capsys, monkeypatch, d, t, workers):
        # one Born diagonal per state, a prefix repeat draw and rounding on arrays
        # record what validated states and two full extract calls per state give
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(cli, "_MIN_SPREAD_D", 64)
        mode = ["--mode", "exact"] if t is None else ["--mode", "sampled", "--t", str(t)]
        for seed in (0, 5, 2**63 - 1):
            code, out, _ = run_cli(capsys, ["extract", "--d", str(d), "--states", "8", *mode, "--seed", str(seed)])
            assert code == 0
            record = strip_timing(parse_lines(out)[0])
            assert record["result"] == json.loads(canonical_json(looped_extract(d, 8, t, seed)))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t", [None, 10**6])
    @pytest.mark.parametrize("d, n_states", [(4096, 1), (4096, 9), (4096, 37), (64, 1100)])
    def test_blocks_equal_serial_reference(self, monkeypatch, d, n_states, t, workers):
        # one block, several and a ragged last one per share: 8 states a block at
        # d = 4096, 512 at d = 64
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(cli, "_MIN_SPREAD_D", 64)
        mode = "exact" if t is None else "sampled"
        params = {"d": d, "states": n_states, "mode": mode, "t": t}
        assert cli.cmd_extract(params, 4) == looped_extract(d, n_states, t, 4)

    @pytest.mark.parametrize("t", [None, 1000, 10**6])
    @pytest.mark.parametrize("d, n_states", [(4096, 9), (64, 600)])
    def test_block_steps_equal_per_state_calls(self, monkeypatch, d, n_states, t):
        # serially, block rows are states in order: each row's diagonal, quotients,
        # good test and masks are what the per-state calls give, bit for bit
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        calls = {"block_sums": [], "_clears_margin": [], "round_mask": []}
        for name, seen in calls.items():

            def spy(block, params, _call=getattr(cli, name), _seen=seen):
                out = _call(block, params)
                _seen.append((block.copy(), out))
                return out

            monkeypatch.setattr(cli, name, spy)
        mode = "exact" if t is None else "sampled"
        cli.cmd_extract({"d": d, "states": n_states, "mode": mode, "t": t}, 3)
        diags = np.concatenate([block for block, _ in calls["block_sums"]])
        good = np.concatenate([out for _, out in calls["_clears_margin"]])
        rounded = np.concatenate([block for block, _ in calls["round_mask"]])
        masks = np.concatenate([out for _, out in calls["round_mask"]])
        assert len(diags) == len(good) == len(masks) == n_states
        params = RoundParams(d)
        for i in range(n_states):
            child = SeededRng(3).child(i)
            probs = born_distribution(haar_sample(d, child))
            assert diags[i].tobytes() == probs.tobytes()
            assert good[i] == good_set_member(probs, params)
            if t is None:
                assert np.array_equal(masks[i], round_mask(probs, params))
                continue
            first = sampled_diagonal(probs, t, child)
            second = sampled_diagonal(probs, t, child)[: params.k]
            assert rounded[i].tobytes() == np.stack([first[: params.k], second]).tobytes()
            assert np.array_equal(masks[i], [round_mask(first, params), round_mask(second, params)])

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
        assert cli._extract_workers(2**24, 8) == 1  # one state fills the amplitude budget
        assert cli._extract_workers(64, 8) == 1  # interpreter-bound
        assert cli._extract_workers(4096, 8) == 8
        assert cli._extract_workers(4096, 3) == 3
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 128)
        assert cli._extract_workers(2**18, 1000) == 64

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._usable_cpus() == 3


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["extract", "--d", "64", "--states", "0"], "--states"),
            (["haar-stats", "--d", "64", "--states", "0"], "--states"),
            (["prg-qs", "--from", "bot-oracle", "--keys", "-3"], "--keys"),
            (["prg-qs", "--from", "bot-oracle", "--keys", "0"], "--keys"),
            (["sprs-qs", "--from", "prg-qs", "--keys", "-3"], "--keys"),
            (["experiment", "--name", "moment", "--keys", "0"], "--keys"),
            (["oracle-sim", "--world", "sampler", "--n", "4", "--draws", "0"], "--draws"),
            (["oracle-sim", "--world", "flip", "--n", "2", "--draws", "-2"], "--draws"),
        ],
    )
    def test_count_below_one_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, argv + ["--seed", "1"])
        assert code == 2
        assert out == ""
        assert f"{flag} must be at least 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("evals", ["1", "0"])
    def test_prg_qs_evals_below_two_is_usage_error(self, capsys, evals):
        argv = ["prg-qs", "--from", "bot-oracle", "--n", "8", "--keys", "2", "--evals", evals]
        code, out, err = run_cli(capsys, argv + ["--seed", "1"])
        assert (code, out) == (2, "")
        assert f"--evals must be at least 2, got {evals}" in err
        assert "Traceback" not in err

    def test_moment_phase_count_not_power_of_two_is_usage_error(self, capsys):
        argv = ["experiment", "--name", "moment", "--N", "3", "--keys", "50", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "N must be a power of two" in err

class TestRerun:
    def test_rerun_reproduces_non_timing_fields(self, capsys, tmp_path):
        first = tmp_path / "run.jsonl"
        code, _, _ = run_cli(
            capsys,
            ["haar-stats", "--d", "64", "--states", "40", "--seed", "11", "--out", str(first)],
        )
        assert code == 0
        code, out, _ = run_cli(capsys, ["rerun", "--record", str(first)])
        assert code == 0
        original = json.loads(first.read_text().splitlines()[0])
        replay = parse_lines(out)[0]
        assert canonical_json(strip_timing(original)) == canonical_json(strip_timing(replay))

    def test_record_config_is_subcommand_params_seed(self, capsys):
        _, out, _ = run_cli(capsys, ["extract", "--d", "64", "--states", "3", "--seed", "5"])
        assert set(parse_lines(out)[0]["config"]) == {"subcommand", "params", "seed"}

    def test_rerun_accepts_record_with_threads(self, capsys, tmp_path):
        argv = ["haar-stats", "--d", "64", "--states", "20", "--seed", "12"]
        _, out, _ = run_cli(capsys, argv)
        original = parse_lines(out)[0]
        old = tmp_path / "old.jsonl"
        old.write_text(json.dumps({**original, "config": {**original["config"], "threads": 4}}) + "\n")
        code, out, _ = run_cli(capsys, ["rerun", "--record", str(old)])
        assert code == 0
        replay = parse_lines(out)[0]
        assert canonical_json(strip_timing(replay)) == canonical_json(strip_timing(original))

    def test_missing_record_file(self, capsys):
        code, _, err = run_cli(capsys, ["rerun", "--record", "/nonexistent.jsonl"])
        assert code == 2
        assert "error" in err

    PRG_QS = ["prg-qs", "--from", "bot-oracle", "--n", "8", "--keys", "2", "--evals", "3", "--seed", "4"]
    EXTRACT = ["extract", "--d", "64", "--states", "2", "--seed", "5"]

    @staticmethod
    def mutated_record(capsys, tmp_path, mutate, argv=PRG_QS):
        _, out, _ = run_cli(capsys, argv)
        record = parse_lines(out)[0]
        mutate(record["config"])
        path = tmp_path / "mutated.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return str(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda c: c.update(subcommand="nosuch"), "unknown subcommand 'nosuch'"),
            (lambda c: c.update(subcommand="rerun"), "unknown subcommand 'rerun'"),
            (lambda c: c["params"].pop("keys"), "missing prg-qs params ['keys']"),
            (lambda c: c["params"].update(n="8"), "recorded n='8' parses as 8"),
            (lambda c: c["params"].update(c=1), "recorded c=1 parses as 1.0"),
            (lambda c: c["params"].update(bogus=1), "unknown prg-qs params ['bogus']"),
            (lambda c: c.update(params=[]), "no config with a params object"),
            (lambda c: c.clear(), "no config with a params object"),
        ],
    )
    def test_malformed_record_is_usage_error(self, capsys, tmp_path, mutate, message):
        code, out, err = run_cli(capsys, ["rerun", "--record", self.mutated_record(capsys, tmp_path, mutate)])
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err

    def test_extract_record_with_string_dimension(self, capsys, tmp_path):
        path = self.mutated_record(capsys, tmp_path, lambda c: c["params"].update(d="64"), self.EXTRACT)
        code, out, err = run_cli(capsys, ["rerun", "--record", path])
        assert (code, out) == (2, "")
        assert "recorded d='64' parses as 64" in err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c["params"].update(keys="two"),
            lambda c: c["params"].update(keys=2.0),
            lambda c: c.pop("seed"),
        ],
    )
    def test_record_argparse_rejects_exits_2(self, capsys, tmp_path, mutate):
        with pytest.raises(SystemExit) as exc:
            main(["rerun", "--record", self.mutated_record(capsys, tmp_path, mutate)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err

    def test_unknown_mode_is_rejected_by_the_parser(self, capsys, tmp_path):
        sim = ["oracle-sim", "--world", "flip", "--n", "2", "--draws", "1", "--seed", "5"]
        sprs = ["sprs-qs", "--from", "prg-qs", "--n", "12", "--keys", "1", "--seed", "5"]
        for argv, name, value in [
            (self.EXTRACT, "mode", "weird"),
            (sim, "world", "flip-world"),
            (self.PRG_QS, "source", "prg-qs"),
            (sprs, "source", "bot-oracle"),
        ]:
            path = self.mutated_record(capsys, tmp_path, lambda c: c["params"].update({name: value}), argv)
            with pytest.raises(SystemExit) as exc:
                main(["rerun", "--record", path])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and f"invalid choice: {value!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["[]\n", "{not json\n", "", "\n\n"])
    def test_record_file_without_a_record(self, capsys, tmp_path, text):
        path = tmp_path / "record.jsonl"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["rerun", "--record", str(path)])
        assert (code, out) == (2, "")
        assert str(path) in err and "Traceback" not in err


class TestExitStatus:
    @pytest.mark.parametrize("error", [ValueError("internal"), np.linalg.LinAlgError("internal")])
    def test_internal_error_propagates(self, monkeypatch, error):
        def broken(params, seed):
            raise error

        monkeypatch.setitem(cli._DISPATCH, "haar-stats", broken)
        with pytest.raises(type(error), match="internal"):
            main(["haar-stats", "--d", "64", "--seed", "1"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["prg-qs", "--from", "bot-oracle", "--n", "32", "--c", "0.4", "--keys", "1", "--evals", "2"],
            ["experiment", "--name", "bot-prg", "--n", "32", "--c", "1.6", "--trials", "2"],
            ["oracle-sim", "--world", "bot", "--n", "32", "--c", "0.8"],
        ],
    )
    def test_n32_bot_world_is_the_mask_cap_usage_error(self, capsys, tmp_path, argv):
        # 32^-c at these c once made a bad-prefix width the world refused with a traceback
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"x": "0" * 32}) + "\n")
        extra = ["--queries", str(queries)] if argv[0] == "oracle-sim" else []
        code, out, err = run_cli(capsys, [*argv, *extra, "--seed", "1"])
        assert (code, out) == (2, "")
        assert "capped at n <= 20" in err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        argv = ["extract", "--d", "64", "--states", "2", "--seed", "1", "--out", str(tmp_path)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "Is a directory" in err


def test_one_parser_serves_every_run(capsys, tmp_path, monkeypatch):
    parser = cli.build_parser()
    monkeypatch.setattr(cli.argparse, "ArgumentParser", lambda *a, **k: pytest.fail("parser rebuilt"))
    record = tmp_path / "run.jsonl"
    assert run_cli(capsys, ["haar-stats", "--d", "64", "--states", "2", "--seed", "1", "--out", str(record)])[0] == 0
    assert run_cli(capsys, ["rerun", "--record", str(record)])[0] == 0
    assert cli.build_parser() is parser


class TestOracleSim:
    def test_bot_world_replay_is_deterministic(self, capsys, tmp_path):
        queries = tmp_path / "queries.jsonl"
        queries.write_text("\n".join(json.dumps({"x": format(i, "012b")}) for i in range(10)))
        argv = ["oracle-sim", "--world", "bot", "--n", "12", "--seed", "3", "--queries", str(queries)]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert parse_lines(out1)[0]["result"] == parse_lines(out2)[0]["result"]

    def test_sampler_world_same_stream(self, capsys):
        argv = ["oracle-sim", "--world", "sampler", "--n", "12", "--seed", "5", "--draws", "6"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        r1, r2 = parse_lines(out1)[0]["result"], parse_lines(out2)[0]["result"]
        assert r1["responses"] == r2["responses"]

    def test_flip_world_measurement_consistent_with_oracle(self, capsys):
        from qrandlab.oracles import OracleWorld

        code, out, _ = run_cli(
            capsys, ["oracle-sim", "--world", "flip", "--n", "2", "--seed", "13", "--draws", "4"]
        )
        assert code == 0
        result = parse_lines(out)[0]["result"]
        world = OracleWorld.from_record(result["world"])
        for resp in result["responses"]:
            assert resp["lead"] == 1
            assert int(resp["y"], 2) == world.o_value(2, int(resp["x"], 2))

    def test_flip_world_above_dense_size(self, capsys, tmp_path):
        # n = 3 would need 2^28 dense amplitudes; the sparse measurement answers every n
        from qrandlab.oracles import OracleWorld

        for n in (3, 8):
            world = OracleWorld("flip-world", seed=17, n_max=n)
            target = (1 << (9 * n)) | (5 << (8 * n)) | world.o_value(n, 5)
            queries = tmp_path / f"queries{n}.jsonl"
            queries.write_text((json.dumps({"state": format(target, f"0{9 * n + 1}b")}) + "\n") * 6)
            for source in (["--draws", "6"], ["--queries", str(queries)]):
                out = tmp_path / f"run{n}{source[0]}.jsonl"
                argv = ["oracle-sim", "--world", "flip", "--n", str(n), "--seed", "17", *source]
                code, _, _ = run_cli(capsys, [*argv, "--out", str(out)])
                assert code == 0
                record = json.loads(out.read_text())
                for resp in record["result"]["responses"]:
                    if resp["lead"] == 0:  # F|target> keeps weight 2^-n on index 0
                        assert "--queries" in source and resp["x"] + resp["y"] == "0" * (9 * n)
                    else:
                        assert int(resp["y"], 2) == world.o_value(n, int(resp["x"], 2))
                code, replay, _ = run_cli(capsys, ["rerun", "--record", str(out)])
                assert code == 0
                assert canonical_json(strip_timing(parse_lines(replay)[0])) == canonical_json(
                    strip_timing(record)
                )

    @pytest.mark.parametrize(
        "world, query",
        [
            ("bot", {"x": "0b010101"}),
            ("bot", {"x": "0000_001"}),
            ("bot", {"x": " 0000001"}),
            ("bot", {"x": 12}),
            ("bot", {}),
            ("flip", {"state": "0b" + "0" * 17}),
            ("flip", {"state": "0" * 18 + "2"}),
        ],
    )
    def test_malformed_bitstring_is_usage_error(self, capsys, tmp_path, world, query):
        field = "x" if world == "bot" else "state"
        queries = tmp_path / "queries.jsonl"
        good = {"x": "0101" * 2} if world == "bot" else {}
        queries.write_text(json.dumps(good) + "\n" + json.dumps(query) + "\n")
        argv = ["oracle-sim", "--world", world, "--n", "8" if world == "bot" else "2", "--queries", str(queries)]
        code, out, err = run_cli(capsys, [*argv, "--seed", "1"])
        assert (code, out) == (2, "")
        assert f"query 1: {field!r} must be" in err
        assert err.count(repr(field)) == 1 and f"characters, got {query.get(field)!r}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]\n", "line 2: expected a JSON object, got a list"),
            ('"abc"\n', "line 2: expected a JSON object, got a str"),
            ("{\"x\": \n", "line 2: not JSON"),
            (b"\xff\n", "line 2: not JSON"),
        ],
    )
    def test_malformed_query_line_is_usage_error(self, capsys, tmp_path, text, message):
        queries = tmp_path / "queries.jsonl"
        first = json.dumps({"x": "0101" * 2}) + "\n"
        queries.write_bytes(first.encode() + (text if isinstance(text, bytes) else text.encode()))
        argv = ["oracle-sim", "--world", "bot", "--n", "8", "--queries", str(queries), "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert f"{queries} {message}" in err
        assert "Traceback" not in err

    def test_query_path_is_a_directory(self, capsys, tmp_path):
        argv = ["oracle-sim", "--world", "bot", "--n", "8", "--queries", str(tmp_path), "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "Is a directory" in err and "Traceback" not in err

    def test_sampler_world_above_n63_is_usage_error(self, capsys):
        argv = ["oracle-sim", "--world", "sampler", "--draws", "1", "--seed", "1", "--n"]
        code, out, err = run_cli(capsys, [*argv, "64"])
        assert (code, out) == (2, "")
        assert "n must be at most 63, got 64" in err
        assert "Traceback" not in err
        code, out, _ = run_cli(capsys, [*argv, "63"])
        assert code == 0 and len(parse_lines(out)[0]["result"]["responses"][0]["x"]) == 63

    def test_unknown_world(self, capsys):
        parser_exit(capsys, ["oracle-sim", "--world", "warp", "--n", "4", "--seed", "1"], ("flip", "bot", "sampler"))

    def test_bot_world_needs_a_query_file(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "OracleWorld", lambda *a, **k: pytest.fail("world built"))
        code, out, err = run_cli(capsys, ["oracle-sim", "--world", "bot", "--n", "8", "--draws", "1", "--seed", "1"])
        assert (code, out) == (2, "")
        assert "--queries" in err and "Traceback" not in err


class TestExperimentCommand:
    @pytest.mark.parametrize("argv", [["prg"], ["owsg"], ["owsg", "--adversary", "bruteforce"]])
    def test_key_length_below_one_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, ["experiment", "--name", *argv, "--lambda", "0", "--seed", "1"])
        assert (code, out) == (2, "")
        assert "key length must be at least 1, got 0" in err
        assert "Traceback" not in err

    def test_owsg_experiment_reports_advantage(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "experiment", "--name", "owsg", "--lambda", "8", "--t", "2",
                "--trials", "50", "--adversary", "bruteforce", "--seed", "1",
            ],
        )
        assert code == 0
        result = parse_lines(out)[0]["result"]
        assert "advantage" in result and result["trials"] == 50

    def test_owsg_bruteforce_key_space_cap(self, capsys):
        code, out, err = run_cli(
            capsys,
            [
                "experiment", "--name", "owsg", "--lambda", "17", "--dim", "16",
                "--adversary", "bruteforce", "--seed", "1",
            ],
        )
        assert code == 2 and out == ""
        assert "key space 2^17 exceeds the 2^16 search budget" in err

    def test_unknown_experiment_lists_names(self, capsys):
        parser_exit(capsys, ["experiment", "--name", "nosuch", "--seed", "1"], ("prg", "bot-prg", "owsg", "moment"))

    @pytest.mark.parametrize(
        "game, adversary, valid",
        [
            ("prg", "bot-count", "bruteforce, coin-flip, constant-0"),
            ("prg", "oracle", "bruteforce, coin-flip, constant-0"),
            ("bot-prg", "bruteforce", "bot-count, coin-flip"),
            ("bot-prg", "constant-0", "bot-count, coin-flip"),
            ("owsg", "constant-0", "bruteforce, coin-flip"),
            ("owsg", "bot-count", "bruteforce, coin-flip"),
            ("moment", "nonsense", "coin-flip"),
        ],
    )
    def test_adversary_outside_its_game_is_usage_error(self, capsys, monkeypatch, game, adversary, valid):
        # the adversary is checked before any generator or world is built
        for builder in ("toy_prg", "OracleWorld", "toy_owsg_haar", "toy_owsg_basis", "random_phase_sprs"):
            monkeypatch.setattr(cli, builder, lambda *a, **k: pytest.fail("generator built"))
        argv = ["experiment", "--name", game, "--adversary", adversary, "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert f"{game} has no adversary {adversary!r}; valid adversaries: {valid}" in err
        assert "Traceback" not in err

    def test_moment_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["experiment", "--name", "moment", "--N", "8", "--t", "2", "--keys", "2000", "--seed", "2"],
        )
        assert code == 0
        result = parse_lines(out)[0]["result"]
        assert 0 <= result["distance"] <= 1

    def test_prg_experiment_with_bruteforce(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "experiment", "--name", "prg", "--lambda", "8", "--s", "24",
                "--trials", "60", "--adversary", "bruteforce", "--seed", "3",
            ],
        )
        assert code == 0
        result = parse_lines(out)[0]["result"]
        assert result["advantage"] >= 0.4

    def test_bot_prg_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "experiment", "--name", "bot-prg", "--n", "12", "--q", "3",
                "--trials", "100", "--adversary", "bot-count", "--seed", "4",
            ],
        )
        assert code == 0
        result = parse_lines(out)[0]["result"]
        assert result["ci95"][0] <= 0 <= result["ci95"][1]


class TestBruteforceMemo:
    """The CLI keeps its last owsg brute-force handle, with the handle's search table and answers."""

    ARGV = "experiment --name owsg --lambda 8 --dim 16 --t 2 --adversary bruteforce --trials 5 --seed 1".split()

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        cli._ADVERSARIES["owsg"]["bruteforce"].cache_clear()
        yield
        cli._ADVERSARIES["owsg"]["bruteforce"].cache_clear()

    @pytest.fixture
    def tables(self, monkeypatch):
        """A weak reference to each table a brute-force handle builds, in build order."""
        refs, build = [], experiments.candidate_states

        def spy(gen):
            table = build(gen)
            refs.append(weakref.ref(table))
            return table

        monkeypatch.setattr(experiments, "candidate_states", spy)
        return refs

    def test_two_requests_build_one_table(self, capsys, tables):
        (code, out, _), (again, replay, _) = run_cli(capsys, self.ARGV), run_cli(capsys, self.ARGV)
        assert code == again == 0 and len(tables) == 1
        assert strip_timing(parse_lines(out)[0]) == strip_timing(parse_lines(replay)[0])

    def test_another_size_frees_the_first_table(self, capsys, tables):
        smaller = [*self.ARGV[:4], "4", *self.ARGV[5:]]
        assert self.ARGV[3:5] == ["--lambda", "8"]
        assert run_cli(capsys, self.ARGV)[0] == run_cli(capsys, smaller)[0] == 0
        gc.collect()
        assert len(tables) == 2 and tables[0]() is None and tables[1]() is not None

    def test_library_handles_score_their_own_challenges(self, monkeypatch):
        # outside the CLI's memo, two handles over one generator share no answers
        scored, score = [], experiments._ml_scores
        monkeypatch.setattr(experiments, "_ml_scores", lambda table, copies: scored.append(copies) or score(table, copies))
        gen = toy_owsg_haar(8, 16)
        first, second = bruteforce_owsg_handle(gen), bruteforce_owsg_handle(gen)
        copies = (gen.eval("01100101", None),) * 2
        assert [handle.decide(copies, None) for handle in (first, second, first, second)] == ["01100101"] * 4
        assert len(scored) == 2  # once for each handle, which then answers from its own store


class TestSizeBudgets:
    """A size above its budget (a dense state or table above MAX_TENSOR_DIM**2
    entries, a search key space, an audit, a response list) is refused where
    it enters, before anything is allocated."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["extract", "--d", "68719476736", "--states", "1"], "exceeds 16777216 amplitudes"),
            (["haar-stats", "--d", "68719476736", "--states", "1"], "exceeds 16777216 amplitudes"),
            (["haar-stats", "--d", "64", "--states", "1000000000000"], "block sums exceed 16777216 entries"),
            (
                ["experiment", "--name", "owsg", "--adversary", "coin-flip", "--lambda", "40", "--t", "1", "--trials", "1"],
                "2^40 amplitudes, above 16777216",
            ),
            # 2**-1 is checked as a key length, not shifted
            (["experiment", "--name", "owsg", "--adversary", "coin-flip", "--lambda", "-1"], "at least 1, got -1"),
            (
                ["experiment", "--name", "prg", "--lambda", "8", "--s", "100000000000", "--adversary", "coin-flip", "--trials", "1"],
                "bit challenge exceeds 16777216 entries",
            ),
            (
                ["experiment", "--name", "prg", "--lambda", "8", "--s", "100000000000", "--adversary", "bruteforce", "--trials", "1"],
                "exceed 268435456 characters",
            ),
            (
                ["experiment", "--name", "bot-prg", "--n", "8", "--q", "100000000000", "--trials", "1"],
                "100000000000 queries of 16 bits exceed 16777216 entries",
            ),
            (
                ["experiment", "--name", "owsg", "--adversary", "bruteforce", "--lambda", "8", "--dim", "16", "--t", "100000000", "--trials", "1"],
                "100000000 copies of 16 amplitudes exceed 16777216 amplitudes",
            ),
            (
                ["prg-qs", "--from", "bot-oracle", "--n", "8", "--keys", "20", "--evals", "100000000000"],
                "--evals 100000000000 exceeds the 16777216 evaluations an audit runs",
            ),
            (
                ["oracle-sim", "--world", "sampler", "--n", "8", "--draws", "10000000000"],
                "oracle-sim answers at most 1048576 queries",
            ),
            (
                ["experiment", "--name", "prg", "--adversary", "bruteforce", "--lambda", "21", "--trials", "1"],
                "key space 2^21 exceeds the 2^20",
            ),
            # one copy fits the budget, but not with the verifier's and the guess's states
            (
                ["experiment", "--name", "owsg", "--adversary", "coin-flip", "--lambda", "24", "--t", "1", "--trials", "1"],
                "1 copies of 16777216 amplitudes exceed 16777216 amplitudes with the verifier's and the guess's states",
            ),
        ],
    )
    def test_oversized_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, [*argv, "--seed", "1"])
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err

    def test_response_cap_counts_draws_and_queries(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "MAX_RESPONSES", 3)
        queries = tmp_path / "queries.jsonl"
        for count in (3, 4):
            queries.write_text('{"x": "0101"}\n' * count)
            runs = [
                ["oracle-sim", "--world", "sampler", "--n", "4", "--draws", str(count)],
                ["oracle-sim", "--world", "bot", "--n", "4", "--queries", str(queries)],
            ]
            for argv in runs:
                code, out, err = run_cli(capsys, [*argv, "--seed", "1"])
                if count == 3:
                    assert code == 0, err
                    assert len(parse_lines(out)[0]["result"]["responses"]) == 3
                else:
                    assert (code, out) == (2, "")
                    assert "oracle-sim answers at most 3 queries" in err

    def test_largest_basis_key_is_allowed(self):
        assert toy_owsg_basis(24).dim == MAX_TENSOR_DIM**2


class TestGeneratorCommands:
    def test_prg_qs_over_bot_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["prg-qs", "--from", "bot-oracle", "--n", "12", "--keys", "3", "--evals", "10", "--seed", "21"],
        )
        assert code == 0
        result = parse_lines(out)[0]["result"]
        assert result["bot_keys"] == 0
        assert result["min_modal_frequency"] >= 0.9

    def test_sprs_qs_over_prg_qs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sprs-qs", "--from", "prg-qs", "--n", "12", "--N", "8", "--keys", "2", "--seed", "23"],
        )
        assert code == 0
        result = parse_lines(out)[0]["result"]
        assert result["max_modulus_deviation"] <= 1e-10
        assert result["min_regeneration_fidelity"] >= 1 - 1e-9

    def test_sprs_qs_key_count_limit(self, capsys):
        # key 1000 would sample on key 0's first evaluation stream
        code, out, err = run_cli(capsys, ["sprs-qs", "--from", "prg-qs", "--keys", "1001", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert "--keys must be at most 1000" in err

    def test_prg_qs_key_count_limit(self, capsys):
        # key 10**6 would sample on key 0's audit stream
        code, out, err = run_cli(capsys, ["prg-qs", "--from", "bot-oracle", "--keys", "1000001", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert "--keys must be at most 1000000" in err

    def test_prg_qs_permutation_table_cap(self, capsys, monkeypatch):
        # a 2^21-entry mask is refused before any of it is built
        monkeypatch.setattr(oracles, "fisher_yates_positions", lambda *a: pytest.fail("mask built"))
        argv = ["prg-qs", "--from", "bot-oracle", "--n", "21", "--keys", "2", "--evals", "3", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert "capped at n <= 20" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["prg-qs", "--from", "bot-oracle", "--n", "130", "--keys", "1", "--evals", "2", "--seed", "1"],
            ["sprs-qs", "--from", "prg-qs", "--n", "130", "--N", "8", "--keys", "1", "--seed", "1"],
        ],
        ids=["prg-qs", "sprs-qs"],
    )
    def test_input_above_the_derivations_128_bits(self, capsys, tmp_path, argv):
        # an n = 130 key or input does not fit derive_int's 16-byte encoding: a usage error, not a traceback
        path = tmp_path / "r.jsonl"
        code, out, err = run_cli(capsys, [*argv, "--out", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "[0, 2**128)" in err
        assert not path.exists()
        assert run_cli(capsys, argv)[:2] == (2, "")

    def test_unknown_source_rejected(self, capsys):
        parser_exit(capsys, ["prg-qs", "--from", "thin-air", "--seed", "1"], ("bot-oracle",))
        parser_exit(capsys, ["sprs-qs", "--from", "bot-oracle", "--seed", "1"], ("prg-qs",))


class TestFloatFlags:
    PRG_QS = ["prg-qs", "--from", "bot-oracle", "--n", "8", "--keys", "1", "--evals", "2", "--seed", "1"]
    SPRS_QS = ["sprs-qs", "--from", "prg-qs", "--n", "8", "--N", "4", "--keys", "1", "--seed", "1"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (PRG_QS + ["--c", "inf"], "c=inf is out of range: mu = n^-c"),
            (PRG_QS + ["--c", "1e300"], "c=1e+300 is out of range: mu = n^-c"),
            (PRG_QS + ["--c", "nan"], "c=nan is out of range: mu = n^-c"),
            (SPRS_QS + ["--con3-c", "inf"], "c=inf is out of range: lam^(2c+1)"),
        ],
    )
    def test_exponent_a_float_cannot_hold_is_usage_error(self, capsys, argv, message):
        # each would otherwise reach a float operation that raises, and exit 1 with a traceback
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_float_a_record_cannot_hold_is_usage_error(self, capsys):
        # the record would keep con3_c 4.0, so its rerun would run another config
        code, out, err = run_cli(capsys, self.SPRS_QS + ["--con3-c", "4.00000000000001"])
        assert (code, out) == (2, "")
        assert "--con3-c 4.00000000000001 has more than the 12 significant digits" in err
        assert "its rerun would use 4.0" in err

    def test_thirteen_digit_c_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, self.PRG_QS + ["--c", "0.1234567890123"])
        assert (code, out) == (2, "")
        assert "--c 0.1234567890123 has more than the 12 significant digits a record keeps; " in err
        assert "its rerun would use 0.123456789012" in err

    def test_twelve_digit_float_reruns_identically(self, capsys, tmp_path):
        record = tmp_path / "run.jsonl"
        code, _, _ = run_cli(capsys, self.SPRS_QS + ["--con3-c", "4.00000000001", "--out", str(record)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["rerun", "--record", str(record)])
        assert code == 0
        original = json.loads(record.read_text().splitlines()[0])
        assert original["config"]["params"]["con3_c"] == 4.00000000001
        assert canonical_json(strip_timing(original)) == canonical_json(strip_timing(parse_lines(out)[0]))
