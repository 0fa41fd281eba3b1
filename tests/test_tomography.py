import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrandlab.qcore import StateVector, born_distribution, haar_sample
from qrandlab.rng import SeededRng
from qrandlab.tomography import InvalidSampleCountError, prefix_law, sampled_diagonal
from reference import linf_error, tomography_samples_required


def uniform_state(dim):
    return StateVector.normalized(np.ones(dim))


def uniform_probs(dim):
    return born_distribution(uniform_state(dim))


class TestExactDiagonal:
    def test_basis_state(self):
        assert np.array_equal(born_distribution(StateVector.basis(4, 0)), [1, 0, 0, 0])

    def test_uniform_dim8(self):
        np.testing.assert_allclose(born_distribution(uniform_state(8)), 1 / 8, atol=1e-12)

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_sums_to_one(self, seed):
        diag = born_distribution(haar_sample(16, SeededRng(seed)))
        assert abs(diag.sum() - 1) <= 1e-10


class TestSampledDiagonal:
    def test_basis_state_deterministic(self):
        diag = sampled_diagonal(born_distribution(StateVector.basis(8, 0)), 100, SeededRng(1))
        assert np.array_equal(diag, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_uniform_qubit_large_t(self):
        t = 10**6
        diag = sampled_diagonal(uniform_probs(2), t, SeededRng(2))
        assert np.abs(diag - 0.5).max() <= 3 * math.sqrt(0.25 / t)

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidSampleCountError):
            sampled_diagonal(uniform_probs(2), 0, SeededRng(0))

    @pytest.mark.parametrize("t", [2**63, 10**20])
    def test_oversized_count_rejected_before_drawing(self, t):
        # numpy's multinomial takes a C long; a larger t is a usage error
        rng = SeededRng(0)
        with pytest.raises(InvalidSampleCountError):
            sampled_diagonal(uniform_probs(2), t, rng)
        assert not rng.drawn

    def test_hoeffding_envelope(self):
        # P(linf error > sqrt(ln(2 dim / 0.01) / 2t)) <= 0.01
        dim, t, trials = 16, 2000, 200
        bound = math.sqrt(math.log(2 * dim / 0.01) / (2 * t))
        rng = SeededRng(3)
        reference = born_distribution(haar_sample(dim, rng))
        violations = sum(
            linf_error(sampled_diagonal(reference, t, rng.child(i)), reference) > bound
            for i in range(trials)
        )
        assert violations <= math.ceil(0.01 * trials) + 2

    @given(st.integers(0, 2**32), st.integers(1, 500))
    @settings(max_examples=25, deadline=None)
    def test_frequencies_are_multiples_summing_to_one(self, seed, t):
        rng = SeededRng(seed)
        diag = sampled_diagonal(born_distribution(haar_sample(8, rng)), t, rng)
        counts = np.rint(diag * t)
        assert counts.sum() == t
        assert np.array_equal(diag, counts / t)

    def test_error_shrinks_as_t_grows(self):
        dim, trials = 16, 100
        rng = SeededRng(5)
        reference = born_distribution(haar_sample(dim, rng))
        medians = []
        for t in (10**3, 10**4, 10**5, 10**6):
            errs = [
                linf_error(sampled_diagonal(reference, t, rng.child(1000 * t + i)), reference)
                for i in range(trials)
            ]
            medians.append(np.median(errs))
        assert all(b <= a for a, b in zip(medians, medians[1:]))

    def test_converges_to_born_distribution(self):
        t = 10**6
        for seed in range(20):
            rng = SeededRng(seed)
            probs = born_distribution(haar_sample(64, rng))
            err = linf_error(sampled_diagonal(probs, t, rng), probs)
            assert err <= 0.005


class TestSampledPrefix:
    """The (k + 1)-cell draw over ``prefix_law`` gives the first k counts of the full d-cell draw."""

    # d -> (k = d^(5/6), the cells rounding reads; Haar states per t)
    CASES = {64: (32, 50), 4096: (1024, 50), 2**18: (2**15, 3)}

    @pytest.mark.parametrize("t", [1, 500, 10**6, 2**62])
    @pytest.mark.parametrize("d", list(CASES))
    def test_equals_full_draw_prefix(self, d, t):
        k, n_haar = self.CASES[d]
        rng = SeededRng(d, t)
        states = [haar_sample(d, rng.child(i)) for i in range(n_haar)]
        # |0>: the tail is 0; |d-1>: the prefix is all zero
        states += [StateVector.basis(d, i) for i in (0, k - 1, k, d - 1)]
        for i, psi in enumerate(states):
            probs = born_distribution(psi)
            full = sampled_diagonal(probs, t, SeededRng(7, i))
            prefix = SeededRng(7, i).multinomial(t, prefix_law(probs.copy(), k))[:k] / t
            assert prefix.shape == (k,)
            assert np.array_equal(prefix, full[:k])


class TestSamplesRequired:
    def test_known_copy_counts(self):
        assert tomography_samples_required(1, 2, 1.0) == 288
        assert tomography_samples_required(1, 2, 0.5) == 576

    @given(
        st.integers(1, 50),
        st.integers(2, 64),
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_delta(self, lam, d, d1, d2):
        lo, hi = sorted((d1, d2))
        assert tomography_samples_required(lam, d, hi) <= tomography_samples_required(lam, d, lo)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            tomography_samples_required(1, 2, 0.0)
        with pytest.raises(ValueError):
            tomography_samples_required(1, 2, 1.5)
