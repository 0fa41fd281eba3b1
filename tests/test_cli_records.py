"""Known-answer tests for complete CLI records, one per subcommand.

Each case runs the CLI at a small size and pins the SHA-256 of the
record's canonical JSON with every timing field stripped, so the
config (subcommand, params, seed) and the whole result are covered.
The golden digests were produced by the code before the generator
output, diagonal estimation, moment and parameter paths were merged;
``experiment-owsg-bruteforce-blocks``, a 300-trial brute-force game
past the 256 keys of the answer store, by the code that scored one
trial at a time.  ``experiment-prg-coin-flip``, ``experiment-prg-constant-0``
and ``experiment-bot-prg-coin-flip`` were recorded by the code that chose
each game's adversary with its own if-chain, before one table held them,
so every (game, adversary) pair the CLI offers has a pin.
"""

import hashlib
import json

import pytest

from qrandlab.cli import canonical_json, main, strip_timing_fields

PINNED = {
    "extract-exact": (
        ["extract", "--d", "64", "--states", "20", "--mode", "exact", "--seed", "3"],
        "2b62c8626fdfb2ab376e23e14945f20cd284b25f8ca7545f8ad8f0b7f470b75a",
    ),
    "extract-sampled": (
        ["extract", "--d", "64", "--states", "20", "--mode", "sampled", "--t", "500", "--seed", "3"],
        "e720fc736e8d26651386338bd37ac9a7c23a5080bd9899beb63ea532e36ad74e",
    ),
    "haar-stats": (
        ["haar-stats", "--d", "64", "--states", "20", "--seed", "3"],
        "53b310c1f9d38364d4ab2d904e4df72c41826067b2336fd9f9829153fa61c027",
    ),
    "prg-qs": (
        ["prg-qs", "--from", "bot-oracle", "--n", "8", "--keys", "4", "--evals", "5", "--seed", "3"],
        "c789187b451e1543277d53096586a05371de6a3d7ad646ffcec502427268e9e3",
    ),
    "sprs-qs": (
        ["sprs-qs", "--from", "prg-qs", "--n", "12", "--N", "8", "--keys", "3", "--seed", "3"],
        "ea706ea5dc2e66a28a99e872e73ea6e39fc338513aeb8a86d2d83dee140da9f1",
    ),
    "oracle-sim-sampler": (
        ["oracle-sim", "--world", "sampler", "--n", "6", "--draws", "5", "--seed", "3"],
        "d2a04c4739b66fc1102bb56b23aaf656caa7034f04e25fa5cd9e251cce72d3b2",
    ),
    "oracle-sim-flip": (
        ["oracle-sim", "--world", "flip", "--n", "2", "--draws", "3", "--seed", "3"],
        "0e23e6decb4a4bcdd308793f53d2bd087faf4442e5157ace042060e5a9a5b576",
    ),
    "experiment-prg": (
        [
            "experiment", "--name", "prg", "--lambda", "6", "--s", "16",
            "--trials", "20", "--adversary", "bruteforce", "--seed", "3",
        ],
        "2b66284382e36d33a5729289a30c5fd285e21f26d97f11038a699a9c55406f8a",
    ),
    "experiment-prg-coin-flip": (
        [
            "experiment", "--name", "prg", "--lambda", "6", "--s", "16",
            "--trials", "20", "--adversary", "coin-flip", "--seed", "3",
        ],
        "438faff8733ab893d00f385624dcde6bbeff3dc7db87c1b5ee116ca7fcdc9fdf",
    ),
    "experiment-prg-constant-0": (
        [
            "experiment", "--name", "prg", "--lambda", "6", "--s", "16",
            "--trials", "20", "--adversary", "constant-0", "--seed", "3",
        ],
        "261d7e7c9e17762973c6a7b82170a0f2115f2297c2ffd435041e6cca9f964595",
    ),
    "experiment-bot-prg": (
        [
            "experiment", "--name", "bot-prg", "--n", "8", "--q", "3",
            "--trials", "20", "--adversary", "bot-count", "--seed", "3",
        ],
        "23c60bcbc35800b5ecc1095a66faebb1c8a3d630b4b9816b77efefb87b1087ab",
    ),
    "experiment-bot-prg-coin-flip": (
        [
            "experiment", "--name", "bot-prg", "--n", "8", "--q", "3",
            "--trials", "20", "--adversary", "coin-flip", "--seed", "3",
        ],
        "633c21990a228cbc349b0b807f8c16a8daacbe6eb3fa6fcf43523e35bcda21a7",
    ),
    "experiment-owsg-bruteforce": (
        [
            "experiment", "--name", "owsg", "--lambda", "4", "--t", "2",
            "--trials", "10", "--adversary", "bruteforce", "--seed", "3",
        ],
        "ed0e39240de1cec1db56091bc307b36b738c62802fd77d41b2a3775d8f04b246",
    ),
    "experiment-owsg-bruteforce-blocks": (
        [
            "experiment", "--name", "owsg", "--lambda", "8", "--dim", "16", "--t", "2",
            "--trials", "300", "--adversary", "bruteforce", "--seed", "3",
        ],
        "4f07d5b5533a070846a79991bbe68996092cd43db4e9553548d77b2179831949",
    ),
    "experiment-owsg-coin-flip": (
        [
            "experiment", "--name", "owsg", "--lambda", "4", "--t", "2",
            "--trials", "10", "--adversary", "coin-flip", "--seed", "3",
        ],
        "ef02d528056e39c8431dbe51841a00e0094d052abb00548872cd087cefb711f8",
    ),
    "experiment-moment": (
        ["experiment", "--name", "moment", "--N", "4", "--t", "2", "--keys", "200", "--seed", "3"],
        "6b1a1f5aa3f83d8ac95b6553dfe2379e47a4922d4ca59b3a7fbca1af03ae73b4",
    ),
}

# The bot-world record carries the query file's path in params; the
# digest leaves that one field out.
BOT_QUERIES_DIGEST = "2441c31c15605783fec6f70cbbab1986c227cc22adf0479155ee88fc34aa8216"


def _digest(record: dict) -> str:
    return hashlib.sha256(canonical_json(strip_timing_fields(record)).encode()).hexdigest()


def _run(capsys, argv) -> dict:
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    (line,) = out.strip().splitlines()
    return json.loads(line)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_record_digest(capsys, case):
    argv, expected = PINNED[case]
    assert _digest(_run(capsys, argv)) == expected


def test_oracle_sim_bot_record_digest(capsys, tmp_path):
    queries = tmp_path / "queries.jsonl"
    queries.write_text("\n".join(json.dumps({"x": format(i * 37 % 256, "08b")}) for i in range(12)))
    record = _run(capsys, ["oracle-sim", "--world", "bot", "--n", "8", "--seed", "3", "--queries", str(queries)])
    assert record["config"]["params"].pop("queries") == str(queries)
    assert _digest(record) == BOT_QUERIES_DIGEST
