"""Property-based contract of the command line, over small flag ranges.

* A valid configuration exits 0, and its ``rerun`` emits the same record
  once the wall-clock timing is stripped.
* An out-of-domain flag exits 2 with nothing on stdout and no traceback;
  the CLI's own count checks also name their flag.
* A record whose params gained, lost or changed the type of one param
  replays with exit 2, whether the replay's parser or a library check
  rejects it.
"""

import contextlib
import io
import json
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrandlab.cli import canonical_json, main, strip_timing_fields

SEEDS = st.integers(0, 2**63 - 1)
COUNTS = st.integers(1, 3)
BOT_C = st.sampled_from([0.5, 1.0])  # with n >= 4, the bad-prefix width stays within n
NON_POSITIVE = st.integers(-3, 0)


@dataclass(frozen=True)
class Case:
    """One command line: a subcommand, its flags, and the bot world's queries, if any."""

    subcommand: str
    flags: dict
    queries: tuple | None = None

    def with_flag(self, flag: str, value) -> "Case":
        return replace(self, flags={**self.flags, flag: value})

    def argv(self, workdir, seed: int) -> list[str]:
        argv = [self.subcommand, *(str(part) for item in self.flags.items() for part in item)]
        if self.queries is not None:
            path = workdir / "queries.jsonl"
            path.write_text("".join(json.dumps({"x": x}) + "\n" for x in self.queries))
            argv += ["--queries", str(path)]
        return argv + ["--seed", str(seed)]


def case(subcommand: str, flags: dict, queries=st.none()) -> st.SearchStrategy:
    """Cases of one subcommand; each flag value is a strategy or a constant."""
    drawn = {f: v if isinstance(v, st.SearchStrategy) else st.just(v) for f, v in flags.items()}
    return st.builds(Case, st.just(subcommand), st.fixed_dictionaries(drawn), queries)


def bot_sim(n: st.SearchStrategy) -> st.SearchStrategy:
    """oracle-sim on a bot world, with one to three n-bit queries."""
    bits = lambda k: st.text("01", min_size=k, max_size=k)  # noqa: E731
    queries = lambda k: st.lists(bits(k), min_size=1, max_size=3).map(tuple)  # noqa: E731
    return n.flatmap(lambda k: case("oracle-sim", {"--world": "bot", "--n": k, "--c": BOT_C}, queries(k)))


EXTRACT = case(
    "extract",
    {"--d": 64, "--states": COUNTS, "--mode": st.sampled_from(["exact", "sampled"]), "--t": st.integers(1, 500)},
)
HAAR = case("haar-stats", {"--d": 64, "--states": COUNTS})
PRG_QS = case(
    "prg-qs",
    {"--from": "bot-oracle", "--n": st.integers(4, 10), "--c": BOT_C, "--keys": COUNTS, "--evals": st.integers(2, 4)},
)
SPRS_QS = case(
    "sprs-qs",
    {
        "--from": "prg-qs",
        "--n": st.integers(4, 10),
        "--c": BOT_C,
        "--con3-c": st.sampled_from([1.0, 4.0, 13.0]),
        "--N": st.sampled_from([2, 4]),  # N = 8 needs 24 output bits, n = 12
        "--keys": COUNTS,
    },
)
FLIP_SIM = case("oracle-sim", {"--world": "flip", "--n": st.integers(2, 4), "--draws": COUNTS})
SAMPLER_SIM = case("oracle-sim", {"--world": "sampler", "--n": st.integers(2, 10), "--draws": COUNTS})
BOT_SIM = bot_sim(st.integers(4, 10))
EXP_PRG = case(
    "experiment",
    {
        "--name": "prg",
        "--lambda": st.integers(1, 6),
        "--s": st.integers(7, 16),
        "--trials": COUNTS,
        "--adversary": st.sampled_from(["coin-flip", "constant-0", "bruteforce"]),
    },
)
EXP_BOT_PRG = case(
    "experiment",
    {
        "--name": "bot-prg",
        "--n": st.integers(4, 8),
        "--c": BOT_C,
        "--q": COUNTS,
        "--trials": COUNTS,
        "--adversary": st.sampled_from(["bot-count", "coin-flip"]),
    },
)
EXP_OWSG = case(
    "experiment",
    {
        "--name": "owsg",
        "--lambda": st.integers(1, 4),
        "--t": st.integers(1, 2),
        "--trials": COUNTS,
        "--adversary": st.sampled_from(["coin-flip", "bruteforce"]),
        "--dim": st.integers(2, 16),
    },
)
EXP_MOMENT = case(
    "experiment", {"--name": "moment", "--N": st.sampled_from([2, 4, 8]), "--t": st.integers(1, 2), "--keys": COUNTS}
)

VALID = st.one_of(
    EXTRACT, HAAR, PRG_QS, SPRS_QS, FLIP_SIM, SAMPLER_SIM, BOT_SIM, EXP_PRG, EXP_BOT_PRG, EXP_OWSG, EXP_MOMENT
)

NOT_2_POW_6A = st.sampled_from([2, 32, 63, 65, 100, 128, 4095])
NOT_POWER_OF_TWO = st.sampled_from([-2, 0, 1, 3, 5, 6, 12])
OVERSIZED_D = st.sampled_from([2**30, 2**36])  # 2**(6a) above the MAX_TENSOR_DIM**2 state budget


def invalid(base: st.SearchStrategy, flag: str, bad: st.SearchStrategy, own: bool = False):
    """``base`` with ``flag`` set out of its domain; ``own`` marks a check the CLI makes itself."""
    return st.tuples(base, bad).map(lambda pair: (pair[0].with_flag(flag, pair[1]), flag if own else None))


INVALID = st.one_of(
    invalid(EXTRACT, "--states", NON_POSITIVE, own=True),
    invalid(EXTRACT, "--d", NOT_2_POW_6A),
    invalid(EXTRACT, "--d", OVERSIZED_D),
    # above numpy's C-long multinomial count; exact mode never reads --t
    invalid(EXTRACT.map(lambda c: c.with_flag("--mode", "sampled")), "--t", st.sampled_from([2**63, 10**20])),
    invalid(HAAR, "--states", NON_POSITIVE, own=True),
    invalid(HAAR, "--d", NOT_2_POW_6A),
    invalid(HAAR, "--d", OVERSIZED_D),
    invalid(HAAR, "--states", st.sampled_from([2**23 + 1, 10**12])),  # above 2**24 block sums at d = 64
    invalid(PRG_QS, "--keys", NON_POSITIVE, own=True),
    invalid(PRG_QS, "--evals", st.integers(-2, 1), own=True),
    invalid(PRG_QS, "--evals", st.sampled_from([2**24 + 1, 10**11])),  # above 2**24 audit outputs
    invalid(PRG_QS, "--n", st.integers(21, 24)),  # above the bot world's n <= 20 cap
    invalid(PRG_QS, "--n", st.integers(-1, 1)),
    invalid(PRG_QS, "--c", NON_POSITIVE),
    invalid(PRG_QS, "--from", st.sampled_from(["thin-air", "prg-qs"])),
    invalid(SPRS_QS, "--keys", NON_POSITIVE, own=True),
    invalid(SPRS_QS, "--N", NOT_POWER_OF_TWO),
    invalid(SPRS_QS, "--c", NON_POSITIVE),
    invalid(SPRS_QS, "--n", st.integers(21, 24)),
    invalid(FLIP_SIM, "--draws", NON_POSITIVE, own=True),
    invalid(SAMPLER_SIM, "--draws", NON_POSITIVE, own=True),
    invalid(FLIP_SIM, "--draws", st.sampled_from([2**20 + 1, 10**10])),  # above 2**20 responses
    invalid(SAMPLER_SIM, "--draws", st.sampled_from([2**20 + 1, 10**10])),
    invalid(SAMPLER_SIM, "--n", st.integers(64, 70)),
    invalid(FLIP_SIM, "--world", st.sampled_from(["warp", "bot-world", ""])),
    invalid(BOT_SIM, "--c", NON_POSITIVE),
    bot_sim(st.integers(21, 24)).map(lambda c: (c, None)),
    invalid(EXP_PRG, "--name", st.sampled_from(["nosuch", "PRG"])),
    invalid(EXP_PRG, "--lambda", NON_POSITIVE),
    invalid(EXP_PRG, "--trials", NON_POSITIVE),
    invalid(EXP_PRG, "--adversary", st.sampled_from(["oracle", "bot-count"])),
    invalid(EXP_BOT_PRG, "--n", st.integers(21, 24)),
    invalid(EXP_BOT_PRG, "--c", NON_POSITIVE),
    invalid(EXP_BOT_PRG, "--q", NON_POSITIVE),
    invalid(EXP_OWSG, "--t", NON_POSITIVE),
    invalid(EXP_OWSG, "--lambda", st.integers(25, 40)),  # coin-flip: |k> above 2**24 amplitudes
    invalid(EXP_OWSG, "--lambda", NON_POSITIVE),
    invalid(EXP_MOMENT, "--keys", NON_POSITIVE, own=True),
    invalid(EXP_MOMENT, "--N", NOT_POWER_OF_TWO),
    invalid(EXP_MOMENT, "--adversary", st.sampled_from(["nonsense", "bruteforce"])),  # the study plays no adversary
)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call; argparse's own exit counts as a code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def stripped(line: str) -> str:
    return canonical_json(strip_timing_fields(json.loads(line)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=30, deadline=None)
@given(case=VALID, seed=SEEDS)
def test_valid_config_runs_and_replays(workdir, case, seed):
    code, out, err = run(case.argv(workdir, seed))
    assert code == 0, err
    record = workdir / "record.jsonl"
    record.write_text(out)
    code, replay, err = run(["rerun", "--record", str(record)])
    assert code == 0, err
    assert stripped(replay) == stripped(out)


@settings(max_examples=40, deadline=None)
@given(bad=INVALID, seed=SEEDS)
def test_out_of_domain_flag_exits_2(workdir, bad, seed):
    case, own_flag = bad
    code, out, err = run(case.argv(workdir, seed))
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err
    if own_flag is not None:
        assert f"{own_flag} must be at least" in err


@settings(max_examples=20, deadline=None)
@given(case=VALID, seed=SEEDS, mutation=st.sampled_from(["extra", "missing", "mistyped"]), data=st.data())
def test_mutated_record_exits_2(workdir, case, seed, mutation, data):
    code, out, err = run(case.argv(workdir, seed))
    assert code == 0, err
    record = json.loads(out)
    params = record["config"]["params"]
    if mutation == "extra":
        params["bogus"] = data.draw(st.integers(0, 9))
    else:
        name = data.draw(st.sampled_from(sorted(params)))
        if mutation == "missing":
            del params[name]
        else:  # a string becomes a list, anything else its string
            params[name] = [params[name]] if isinstance(params[name], str) else str(params[name])
    path = workdir / "mutated.jsonl"
    path.write_text(json.dumps(record) + "\n")
    code, out, err = run(["rerun", "--record", str(path)])
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err
