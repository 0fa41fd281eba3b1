"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; every tolerance is pinned here, none is tuned at runtime.
"""

import json
import math

import numpy as np
from scipy import stats

from qrandlab.cli import canonical_json, main, strip_timing_fields
from qrandlab.constructions import con1_handle
from qrandlab.experiments import (
    advantage_ci,
    bruteforce_owsg_handle,
    bruteforce_prg_handle,
    coin_flip_adversary,
    exp_botprg,
    exp_owsg,
    exp_prg,
    moment_hs2,
    owsg_coin_flip_adversary,
)
from qrandlab.extraction import RoundParams, extract, gaussian_block_check, good_set_member
from qrandlab.oracles import (
    OracleWorld,
    bot_oracle_eval_many,
    bot_oracle_good_set,
    bot_prg_handle,
    prfqs_from_world,
)
from qrandlab.primitives import determinism_audit
from qrandlab.qcore import StateVector, born_distribution, haar_sample
from qrandlab.rng import SeededRng, int_to_bits
from qrandlab.toys import random_phase_sprs, toy_owsg_basis, toy_owsg_haar, toy_prg
from reference import apply_flip, flip_oracle, flip_target_state


def check(num: int, description: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict} {description}: {detail}")
    assert ok, f"criterion {num}: {description}: {detail}"


def test_criterion_01_extract_determinism():
    d, wanted = 4096, 200
    params = RoundParams(d)
    rng = SeededRng(101)
    exact_same = sampled_same = found = 0
    i = 0
    while found < wanted:
        child = rng.child(i)
        i += 1
        psi = haar_sample(d, child)
        if not good_set_member(born_distribution(psi), params):
            continue
        found += 1
        first = extract(psi, params)
        second = extract(psi, params)
        exact_same += first == second
        sampled = extract(psi, params, t=10**6, rng=child)
        sampled_same += sampled == first
    ok = exact_same == wanted and sampled_same >= math.ceil(0.99 * wanted)
    check(
        1,
        "extract determinism on the good set at d=4096",
        ok,
        f"exact identical {exact_same}/{wanted}, sampled(t=1e6) agreement {sampled_same}/{wanted}",
    )


def test_criterion_02_good_set_prevalence():
    n_states = 1000
    rng = SeededRng(102)
    fractions = {}
    for d in (64, 4096):
        params = RoundParams(d)
        hits = sum(
            good_set_member(born_distribution(haar_sample(d, rng.child(d + i))), params)
            for i in range(n_states)
        )
        fractions[d] = hits / n_states
    sigma = math.sqrt(0.25 / n_states)
    ok = fractions[4096] >= fractions[64] - 3 * sigma and fractions[4096] >= 0.5
    check(
        2,
        "good-set prevalence grows with dimension",
        ok,
        f"fraction(d=64)={fractions[64]:.3f}, fraction(d=4096)={fractions[4096]:.3f} (>= 0.5)",
    )


def test_criterion_03_gaussian_block_statistics():
    d, n_states = 4096, 1000
    st = gaussian_block_check(d, n_states, SeededRng(103))
    params = RoundParams(d)
    model_mean = params.threshold  # r/d = 1/16
    model_var = params.r / d**2
    sigma_mean = math.sqrt(model_var / (n_states * params.num_bits))
    sigma_bit = math.sqrt(0.25 / n_states)
    mean_ok = abs(st["mean"] - model_mean) <= 3 * sigma_mean
    var_ok = abs(st["variance"] - model_var) <= 0.25 * model_var
    bits_ok = all(abs(f - 0.5) <= 3 * sigma_bit + 0.1 for f in st["bit_frequencies"])
    check(
        3,
        "Haar block sums follow N(r/d, r/d^2)",
        mean_ok and var_ok and bits_ok,
        f"mean={st['mean']:.6f} (model {model_mean:.6f}), "
        f"variance={st['variance']:.3e} (model {model_var:.3e}), "
        f"bit freqs={[round(f, 3) for f in st['bit_frequencies']]}",
    )


def test_criterion_04_bot_oracle_law():
    n, evals = 12, 10**5
    world = OracleWorld("bot-world", seed=104, n_max=n)
    w = world.bot_params(n).w
    good = bot_oracle_good_set(world, n)
    mass_ok = len(good) / 2**n == 1 - 2.0**-w
    bad = [int_to_bits(x, n) for x in range(2**n) if int_to_bits(x, n) not in good][:20]
    rng = SeededRng(1041)
    freq_ok = True
    worst = 0.0
    for j, x in enumerate(bad):
        p = world.q_value(n, int(x, 2)) / 2**n
        child = rng.child(j)
        freq = sum(v.is_bot for v in bot_oracle_eval_many(world, x, child, evals)) / evals
        dev = abs(freq - p)
        worst = max(worst, dev - 3 * math.sqrt(p * (1 - p) / evals))
        if dev > 3 * math.sqrt(p * (1 - p) / evals):
            freq_ok = False
    check(
        4,
        "abort oracle law at n=12",
        mass_ok and freq_ok,
        f"good mass {len(good)}/{2 ** n} (exact 1-2^-{w}), "
        f"20 bad inputs within 3 sigma of Q(x)/2^n (worst slack {worst:.2e})",
    )


def test_criterion_05_construction1_end_to_end():
    n = 16  # mu = n^-1 = 2^-4
    world = OracleWorld("bot-world", seed=105, n_max=n, c=1.0)
    handle = con1_handle(bot_prg_handle(world, n))
    rng = SeededRng(1050)
    bots = sum(handle.qsamp(rng.child(i)).is_bot for i in range(10_000))
    key_rng = SeededRng(1051)
    min_modal = 1.0
    for i in range(100):
        key = handle.qsamp(key_rng.child(i))
        assert not key.is_bot
        _, frequency = determinism_audit(handle, key, 100, key_rng.child(10_000 + i))
        min_modal = min(min_modal, frequency)
    ok = bots <= 10 and min_modal >= 0.999
    check(
        5,
        "retry-and-vote generator over the abort oracle (n=16, mu=2^-4)",
        ok,
        f"sampler aborts {bots}/10000 (<= 10), min modal frequency {min_modal:.4f} over 100 keys x 100 evals",
    )


def test_criterion_06_flip_oracle_and_keyed_function():
    n = 2
    world = OracleWorld("flip-world", seed=106, n_max=n)
    flip = flip_oracle(world, n)
    rng = SeededRng(1060)
    basket = [flip.a, flip.b, haar_sample(flip.dim, rng), haar_sample(flip.dim, rng)]
    basket.append(StateVector.normalized(flip.a.amplitudes + flip.b.amplitudes))
    involution_dev = max(
        np.abs(apply_flip(flip, apply_flip(flip, psi)).amplitudes - psi.amplitudes).max()
        for psi in basket
    )
    probs = born_distribution(flip_target_state(world, n))
    by_x = np.zeros(4)
    for idx in np.nonzero(probs)[0]:
        by_x[(int(idx) >> (8 * n)) & 3] += probs[idx]
    keys_uniform = np.abs(by_x - 0.25).max() <= 1e-10

    gen = prfqs_from_world(world, n)
    key = gen.qsamp(rng)
    deterministic = all(
        len({gen.eval(key, int_to_bits(a, n)).payload for _ in range(10)}) == 1
        for a in range(4)
    )
    buckets = np.zeros(4)
    for seed in range(250):
        reseeded = prfqs_from_world(OracleWorld("flip-world", seed=seed, n_max=n), n)
        k = reseeded.qsamp(SeededRng(seed, 999))
        for a in range(4):
            buckets[int(reseeded.eval(k, int_to_bits(a, n)).payload, 2)] += 1
    pvalue = stats.chisquare(buckets).pvalue
    ok = involution_dev <= 1e-10 and keys_uniform and deterministic and pvalue >= 0.01
    check(
        6,
        "flip oracle involution, uniform keys, deterministic keyed function",
        ok,
        f"max |sigma^2 psi - psi| = {involution_dev:.2e}, keys uniform {keys_uniform}, "
        f"deterministic {deterministic}, chi-square p = {pvalue:.3f}",
    )


def test_criterion_07_phase_state_moment_closeness():
    # squared Hilbert-Schmidt distance to the Haar 2-copy moment; for
    # random-function phase states it is (N-1)/(N^3 (N+1)) exactly
    n_keys = 10_000
    truth8, truth64 = 7 / 4608, 63 / 17039360
    est8, (lo8, hi8) = moment_hs2(random_phase_sprs(8), 2, n_keys, SeededRng(107))
    est64, (lo64, hi64) = moment_hs2(random_phase_sprs(64), 2, n_keys, SeededRng(1070))
    ok = (
        lo8 <= truth8 <= hi8
        and lo64 <= truth64 <= hi64
        and est8 - est64 > (hi8 - lo8) + (hi64 - lo64)
        and (hi8 - lo8) / 2 <= 0.1 * truth8
        and (hi64 - lo64) / 2 <= 0.25 * truth64
    )
    check(
        7,
        "random-function phase states approach the Haar 2-copy moment",
        ok,
        f"HS^2(N=8)={est8:.4e} in [{lo8:.4e}, {hi8:.4e}] (truth {truth8:.4e}), "
        f"HS^2(N=64)={est64:.4e} in [{lo64:.4e}, {hi64:.4e}] (truth {truth64:.4e})",
    )


def test_criterion_08_bruteforce_attacks():
    gen = toy_prg(8, 24)
    prg_report = exp_prg(gen, bruteforce_prg_handle(gen), 1000, SeededRng(108))
    owsg_gen = toy_owsg_haar(8, 16)
    owsg_report = exp_owsg(owsg_gen, bruteforce_owsg_handle(owsg_gen), 2, 500, SeededRng(1080))
    success = owsg_report["successes"] / owsg_report["trials"]
    ok = prg_report["advantage"] >= 0.45 and success >= 0.5
    check(
        8,
        "exhaustive-search attacks at toy sizes",
        ok,
        f"distinguishing advantage {prg_report['advantage']:.3f} (>= 0.45), "
        f"inversion success {success:.3f} (>= 0.5)",
    )


def _wilson_coverage(trials: int) -> float:
    """Exact probability that the Wilson 95% interval of Bin(trials, 1/2) successes contains 1/2."""
    pmf = stats.binom.pmf(np.arange(trials + 1), trials, 0.5)
    covers = [lo <= 0 <= hi for lo, hi in (advantage_ci(k, trials)[1] for k in range(trials + 1))]
    return float(pmf[covers].sum())


def test_criterion_09_null_calibration():
    runs, alpha = 20, 1e-4
    trials = {"prg": 500, "bot-prg": 400, "owsg": 400}
    # A game's count of covering intervals is Bin(runs, coverage): it must clear that law's
    # alpha lower tail.  Coverage is 0.9456 at 500 trials and 0.9490 at 400, so each game
    # needs 14 of 20, which a calibrated game misses with odds 5.8e-5 and 3.9e-5.
    need = 14
    assert {int(stats.binom.ppf(alpha, runs, _wilson_coverage(n))) for n in trials.values()} == {need}
    contains = {"prg": 0, "bot-prg": 0, "owsg": 0}
    world = OracleWorld("bot-world", seed=109, n_max=12)
    bot_gen = bot_prg_handle(world, 12)
    prg_gen = toy_prg(8, 24)
    owsg_gen = toy_owsg_basis(8)
    for seed in range(runs):
        rep = exp_prg(prg_gen, coin_flip_adversary(), trials["prg"], SeededRng(3000 + seed))
        contains["prg"] += rep["ci95"][0] <= 0 <= rep["ci95"][1]
        rep = exp_botprg(bot_gen, coin_flip_adversary(), 2, trials["bot-prg"], SeededRng(4000 + seed))
        contains["bot-prg"] += rep["ci95"][0] <= 0 <= rep["ci95"][1]
        rep = exp_owsg(owsg_gen, owsg_coin_flip_adversary(), 2, trials["owsg"], SeededRng(5000 + seed))
        contains["owsg"] += rep["ci95"][0] <= 0 <= rep["ci95"][1]
    ok = all(v >= need for v in contains.values())
    check(
        9,
        "coin-flip adversaries calibrate to zero advantage",
        ok,
        f"CIs containing 0 out of {runs} reseeded runs: {contains}; alpha = {alpha} needs {need} each",
    )


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    commands = [
        ["extract", "--d", "64", "--states", "40", "--mode", "sampled", "--t", "20000", "--seed", "31"],
        ["haar-stats", "--d", "64", "--states", "50", "--seed", "32"],
        ["oracle-sim", "--world", "sampler", "--n", "12", "--seed", "33", "--draws", "6"],
        ["oracle-sim", "--world", "flip", "--n", "2", "--seed", "34", "--draws", "3"],
        ["experiment", "--name", "owsg", "--lambda", "8", "--t", "2", "--trials", "40",
         "--adversary", "bruteforce", "--seed", "35"],
        ["prg-qs", "--from", "bot-oracle", "--n", "12", "--keys", "3", "--evals", "20", "--seed", "36"],
        ["sprs-qs", "--from", "prg-qs", "--n", "12", "--N", "8", "--keys", "2", "--seed", "37"],
        ["experiment", "--name", "moment", "--N", "8", "--t", "2", "--keys", "3000", "--seed", "38"],
    ]
    queries = tmp_path / "queries.jsonl"
    queries.write_text("\n".join(json.dumps({"x": format(7 * i, "012b")}) for i in range(8)))
    commands.append(
        ["oracle-sim", "--world", "bot", "--n", "12", "--seed", "39", "--queries", str(queries)]
    )
    replayed = 0
    for i, argv in enumerate(commands):
        first = tmp_path / f"run{i}.jsonl"
        assert main(argv + ["--out", str(first)]) == 0
        second = tmp_path / f"replay{i}.jsonl"
        assert main(["rerun", "--record", str(first), "--out", str(second)]) == 0
        original = json.loads(first.read_text().splitlines()[0])
        replay = json.loads(second.read_text().splitlines()[0])
        assert canonical_json(strip_timing_fields(original)) == canonical_json(
            strip_timing_fields(replay)
        ), argv
        replayed += 1
    capsys.readouterr()
    check(
        10,
        "every CLI run replays byte-identically from its emitted config",
        replayed == len(commands),
        f"{replayed}/{len(commands)} commands reproduced (all non-timing fields)",
    )
