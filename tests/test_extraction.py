from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qrandlab.extraction import (
    RoundParams,
    block_sums,
    extract,
    gaussian_block_check,
    good_set_member,
    round_bits,
    round_mask,
)
from qrandlab.qcore import (
    DimensionMismatchError,
    InvalidDimensionError,
    StateVector,
    born_distribution,
    haar_sample,
)
from qrandlab.rng import SeededRng
from qrandlab.tomography import prefix_law, sampled_diagonal
from reference import round12

P4096 = RoundParams(4096)


def uniform_diag(d):
    return np.full(d, 1.0 / d)


def concentrated_diag(d, r):
    probs = np.zeros(d)
    probs[:r] = 1.0 / r
    return probs


class TestRoundParams:
    def test_d4096_geometry(self):
        assert (P4096.k, P4096.r, P4096.num_bits) == (1024, 256, 4)
        assert P4096.num_bits * P4096.r == P4096.k

    def test_d64_geometry(self):
        p = RoundParams(64)
        assert (p.k, p.r, p.num_bits) == (32, 16, 2)

    @pytest.mark.parametrize("bad", [2, 100, 128, 2048, 4095])
    def test_rejects_non_sixth_power_dims(self, bad):
        with pytest.raises(InvalidDimensionError):
            RoundParams(bad)


class TestBlockSums:
    def test_uniform_diag(self):
        q = block_sums(uniform_diag(4096), P4096)
        assert np.array_equal(q, np.full(4, 256 / 4096))

    def test_point_mass(self):
        probs = np.zeros(4096)
        probs[0] = 1.0
        assert np.array_equal(block_sums(probs, P4096), [1, 0, 0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            block_sums(uniform_diag(64), P4096)

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_total_at_most_one(self, seed):
        diag = born_distribution(haar_sample(64, SeededRng(seed)))
        assert block_sums(diag, RoundParams(64)).sum() <= 1 + 1e-12


class TestRoundBits:
    def test_uniform_is_boundary_all_zero(self):
        # q_i equals r/d exactly; the strict comparison must fail
        assert round_bits(uniform_diag(4096), P4096) == "0000"

    def test_concentrated_first_block(self):
        assert round_bits(concentrated_diag(4096, 256), P4096) == "1000"

    @pytest.mark.parametrize("d", [64, 4096])
    def test_mask_reads_the_first_k_entries(self, d):
        params = RoundParams(d)
        for i in range(20):
            diag = born_distribution(haar_sample(d, SeededRng(d, i)))
            mask = round_mask(diag, params)
            assert mask.dtype == bool and np.array_equal(round_mask(diag[: params.k], params), mask)
            assert round_bits(diag, params) == "".join("1" if b else "0" for b in mask)

    def test_output_length(self):
        for d in (64, 4096):
            diag = born_distribution(haar_sample(d, SeededRng(1)))
            assert len(round_bits(diag, RoundParams(d))) == RoundParams(d).num_bits

    def test_haar_bits_near_fair(self):
        rng = SeededRng(7)
        n = 400
        ones = np.zeros(4)
        for _ in range(n):
            bits = round_bits(born_distribution(haar_sample(4096, rng)), P4096)
            ones += [b == "1" for b in bits]
        sigma = np.sqrt(0.25 / n)
        assert np.all(np.abs(ones / n - 0.5) <= 3 * sigma + 0.1)


class TestGoodSetMember:
    def test_uniform_not_member(self):
        assert not good_set_member(uniform_diag(4096), P4096)

    def test_concentrated_is_member(self):
        assert good_set_member(concentrated_diag(4096, 256), P4096)

    def test_exact_margin_is_excluded(self):
        # first block sum sits exactly at r/d + 2/d: |q - r/d| = 2/d is not > 2/d
        d, r, l = 4096, 256, 4
        probs = np.zeros(d)
        probs[:r] = (r / d + 2 / d) / r
        rest = 1.0 - probs[:r].sum()
        probs[l * r :] = rest / (d - l * r)
        diag = probs / probs.sum()
        assert not good_set_member(diag, P4096)

    def test_good_fraction_grows_with_dimension(self):
        rng = SeededRng(11)
        n = 300
        fractions = {}
        for d in (64, 4096):
            params = RoundParams(d)
            hits = sum(
                good_set_member(born_distribution(haar_sample(d, rng)), params)
                for _ in range(n)
            )
            fractions[d] = hits / n
        sigma = np.sqrt(0.25 / n)
        assert fractions[4096] >= fractions[64] - 3 * sigma


class TestExtract:
    def test_basis_state(self):
        assert extract(StateVector.basis(4096, 0), P4096) == "1000"

    def test_exact_mode_deterministic(self):
        psi = haar_sample(4096, SeededRng(13))
        assert extract(psi, P4096) == extract(psi, P4096)

    def test_sampled_mode_matches_exact_on_good_state(self):
        rng = SeededRng(17)
        psi = haar_sample(4096, rng)
        while not good_set_member(born_distribution(psi), P4096):
            psi = haar_sample(4096, rng)
        expected = extract(psi, P4096)
        agreements = sum(
            extract(psi, P4096, t=10**6, rng=rng.child(i)) == expected
            for i in range(100)
        )
        assert agreements >= 99

    def test_sampled_mode_needs_t_and_rng(self):
        psi = haar_sample(4096, SeededRng(0))
        with pytest.raises(ValueError):
            extract(psi, P4096, t=10**6)

    def test_dim_mismatch(self):
        # round_mask's length check on both estimators, and on a prefix of neither k nor d entries
        psi = haar_sample(64, SeededRng(0))
        for t in (None, 100):
            with pytest.raises(DimensionMismatchError):
                extract(psi, P4096, t=t, rng=SeededRng(1))
        for length in (64, P4096.k - 1, P4096.k + 1):
            with pytest.raises(DimensionMismatchError):
                round_mask(uniform_diag(length), P4096)

    @pytest.mark.parametrize("t", [1, 1000, 10**6])
    @pytest.mark.parametrize("d", [64, 4096])
    def test_prefix_path_gives_extract_bits(self, d, t):
        params = RoundParams(d)
        states = [haar_sample(d, SeededRng(d, i)) for i in range(20)]
        states += [StateVector.basis(d, i) for i in (0, params.k - 1, params.k, d - 1)]
        for i, psi in enumerate(states):
            # rounding the k-entry prefix draw gives the full d-cell draw's bits, and extract's
            probs = born_distribution(psi)
            prefix = SeededRng(3, i).multinomial(t, prefix_law(probs.copy(), params.k))[: params.k] / t
            full = sampled_diagonal(probs, t, SeededRng(3, i))
            assert np.array_equal(round_mask(prefix, params), round_mask(full, params))
            assert round_bits(prefix, params) == extract(psi, params, t, SeededRng(3, i))


class TestMarginRobustness:
    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_sampled_within_margin_gap_preserves_bits(self, seed):
        d = 64
        params = RoundParams(d)
        rng = SeededRng(seed)
        diag = born_distribution(haar_sample(d, rng))
        q = block_sums(diag, params)
        margins = np.abs(q - params.threshold)
        eps = (margins.min() - params.margin) / 2
        if eps <= 0:
            return  # state outside the good set with slack; nothing to assert
        # zero-sum perturbation with entrywise magnitude <= eps / r
        noise = rng.generator.uniform(-1, 1, size=d)
        noise -= noise.mean()
        noise *= eps / (params.r * max(1e-12, np.abs(noise).max()))
        perturbed = diag + noise
        if perturbed.min() < 0:
            return
        shifted = perturbed / perturbed.sum()
        assert round_bits(shifted, params) == round_bits(diag, params)


class TestGaussianBlockCheck:
    def test_block_moments_at_d4096(self):
        stats = gaussian_block_check(4096, 400, SeededRng(19))
        n_q = 400 * 4
        model_mean, model_var = 1 / 16, 256 / 4096**2
        sigma_mean = np.sqrt(model_var / n_q)
        assert abs(stats["mean"] - model_mean) <= 3 * sigma_mean
        assert abs(stats["variance"] - model_var) <= 0.25 * model_var

    def test_distribution_distance_shrinks_with_dimension(self):
        ks = {}
        for d, seed in ((64, 23), (4096, 29)):
            runs = [gaussian_block_check(d, 150, SeededRng(seed + i))["ks_statistic"] for i in range(5)]
            ks[d] = np.median(runs)
        assert ks[4096] <= ks[64]

    def test_ks_statistic_equals_scipys_to_12_digits(self):
        # the record keeps 12 significant digits of the library's erfc-based statistic;
        # scipy's kstest against the same law must round to the same value, seed by seed
        mismatches = []
        for d in (64, 4096):
            params = RoundParams(d)
            for seed in range(25):
                record = gaussian_block_check(d, 200, SeededRng(seed))
                rng = SeededRng(seed)
                pooled = np.concatenate([block_sums(born_distribution(haar_sample(d, rng)), params) for _ in range(200)])
                scipy_ks = stats.kstest(pooled, "norm", args=(params.r / d, np.sqrt(params.r) / d)).statistic
                if round12(record["ks_statistic"]) != round12(float(scipy_ks)):
                    mismatches.append((d, seed, record["ks_statistic"], float(scipy_ks)))
        assert not mismatches, f"(d, seed, library, scipy) differing at 12 digits: {mismatches}"

    @pytest.mark.parametrize("d", [64, 4096])
    def test_variance_meets_the_exact_beta_law(self, d):
        # A Haar state's Born diagonal is Dirichlet(1, ..., 1), so two of its blocks of r entries have
        # E[q^a q'^b] = r^(a) r^(b) / d^(a + b) in rising factorials, and one block sum is Beta(r, d - r).
        params, n_states = RoundParams(d), 1000
        r, n = params.r, n_states * params.num_bits

        def moment(a, b):
            return Fraction(prod(range(r, r + a)) * prod(range(r, r + b)), prod(range(d, d + a + b)))

        mu = moment(1, 0)
        var = moment(2, 0) - mu**2
        assert var == Fraction(r * (d - r), d**2 * (d + 1))
        mu4 = sum(comb(4, j) * moment(j, 0) * (-mu) ** (4 - j) for j in range(5))
        # the l blocks of one state are dependent: each pair's squared deviations covary by c
        c = sum(comb(2, i) * comb(2, j) * moment(i, j) * (-mu) ** (4 - i - j) for i in range(3) for j in range(3))
        c -= var**2
        # the standard error of the pooled variance, a mean of n squared deviations
        se = float((mu4 - var**2 + (params.num_bits - 1) * c) / n) ** 0.5
        # n >= 2000 terms make the pooled variance near normal: 4 standard errors miss with odds 6e-5
        variance = gaussian_block_check(d, n_states, SeededRng(36))["variance"]
        assert abs(variance - float(var)) <= 4 * se
