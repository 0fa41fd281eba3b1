import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrandlab
from qrandlab.cli import canonical_json, main, strip_timing_fields as strip_timing


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestCanonicalJson:
    def test_floats_are_12_significant_digits(self):
        value = 0.1234567890123456789
        assert canonical_json({"x": value}) == '{"x":0.123456789012}'

    def test_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


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

    def test_unknown_world(self, capsys):
        code, _, err = run_cli(capsys, ["oracle-sim", "--world", "warp", "--n", "4", "--seed", "1"])
        assert code == 2
        assert "flip" in err and "sampler" in err


class TestExperimentCommand:
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
        code, _, err = run_cli(capsys, ["experiment", "--name", "nosuch", "--seed", "1"])
        assert code == 2
        for name in ("prg", "bot-prg", "owsg", "moment"):
            assert name in err

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

    def test_unknown_source_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["prg-qs", "--from", "thin-air", "--seed", "1"])
        assert code == 2
        assert "bot-oracle" in err
