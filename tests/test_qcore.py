import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrandlab.qcore import (
    DimensionMismatchError,
    InvalidDimensionError,
    MemoryBudgetError,
    StateVector,
    born_distribution,
    haar_sample,
    measure_computational,
)
from qrandlab.rng import ParameterError, SeededRng
from reference import DensityOp, RankTwoFlip, apply_flip, density, symmetric_moment, trace_distance

ATOL = 1e-10


def uniform_state(dim):
    return StateVector.normalized(np.ones(dim))


class TestStateVector:
    def test_rejects_dim_below_two(self):
        with pytest.raises(InvalidDimensionError):
            StateVector(np.array([1.0 + 0j]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    def test_amplitudes_read_only(self):
        psi = StateVector.basis(4, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_caller_arrays_are_copied(self):
        # a writeable array, or a read-only view of one, could still change under the state
        amps = np.array([1.0, 0.0], dtype=complex)
        view = amps[:]
        view.setflags(write=False)
        for given in (amps, view):
            psi = StateVector(given)
            amps[0] = 0.6
            assert psi.amplitudes[0] == 1.0 and not psi.amplitudes.flags.writeable
            amps[0] = 1.0

    def test_equality_is_identity(self):
        # value equality would compare amplitude arrays, whose truth value is ambiguous
        psi, same = StateVector.basis(4, 0), StateVector.basis(4, 0)
        assert psi == psi and psi != same and psi in [same, psi]
        assert len({psi, same, psi}) == 2
        assert psi.fidelity(same) == 1.0

    @pytest.mark.parametrize("index", [-1, 4])
    def test_basis_rejects_index_outside_dim(self, index):
        # a negative index would wrap to |3>, and 4 would fail in numpy's indexing
        with pytest.raises(ParameterError, match=rf"basis index {index} outside \[0, 4\)"):
            StateVector.basis(4, index)

    @pytest.mark.parametrize("index", [0, 3])
    def test_basis_ends(self, index):
        assert np.array_equal(StateVector.basis(4, index).amplitudes, np.eye(4)[index])

    @pytest.mark.parametrize(
        "amps",
        [[np.nan, 0], [1, np.nan], [complex(0, np.nan), 0], [np.inf, 0], [1, -np.inf], [np.nan, np.inf]],
    )
    def test_rejects_non_finite_amplitudes(self, amps):
        # every comparison with NaN is False, so the norm check must be "within ATOL" to refuse it
        with pytest.raises(ParameterError, match="state norm"):
            StateVector(np.array(amps, dtype=complex))

    @pytest.mark.parametrize(
        "raw", [[np.nan, 1.0], [np.inf, 1.0], [1.0, complex(np.inf, 1)], [np.nan, np.inf]]
    )
    def test_normalized_rejects_non_finite_norm(self, raw):
        # refused before the divide, which would give an all-NaN state or a RuntimeWarning
        with pytest.raises(ParameterError, match="cannot normalize a vector of norm"):
            StateVector.normalized(raw)


class TestHaarSample:
    def test_unit_norm(self):
        psi = haar_sample(2, SeededRng(3))
        assert abs(np.linalg.norm(psi.amplitudes) - 1) <= ATOL

    def test_first_moment_dim_64(self):
        # E |<e_0|psi>|^2 = 1/64 for Haar states
        rng = SeededRng(101)
        samples = np.array(
            [born_distribution(haar_sample(64, rng))[0] for _ in range(10_000)]
        )
        sigma = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - 1 / 64) <= 3 * sigma

    def test_same_seed_same_state(self):
        a = haar_sample(2, SeededRng(7, 5))
        b = haar_sample(2, SeededRng(7, 5))
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            haar_sample(1, SeededRng(0))

    @pytest.mark.parametrize(
        "dim, seed, digest",
        [
            (16, 0, "4a8b3a769b11d01eec2cf1a5d8852a3c7d5f7b3238635180e4632f951d46022e"),
            (16, 1, "733749ce4888070ab0faea983d1eb15890b598a97e51ce626e2aebc403ae32c9"),
            (4096, 0, "8f7ca6885855a71f67c6fc8f5ae737edcf5c5caaf9510ba42c78a45007a6e6e8"),
            (4096, 1, "c186031009b4742dbe887e46357ad3f6c748d7c197bc088224c537fa8b57748a"),
        ],
    )
    def test_amplitudes_known_answer(self, dim, seed, digest):
        # the state keeps the one array that normalizing divides into: read-only, its own, not one bit moved
        amps = haar_sample(dim, SeededRng(seed)).amplitudes
        assert amps.flags.owndata and not amps.flags.writeable
        assert hashlib.sha256(amps.tobytes()).hexdigest() == digest


class TestBornDistribution:
    def test_basis_state(self):
        assert np.array_equal(born_distribution(StateVector.basis(4, 0)), [1, 0, 0, 0])

    def test_uniform_superposition(self):
        np.testing.assert_allclose(born_distribution(uniform_state(4)), 0.25, atol=ATOL)

    def test_squared_moduli(self):
        psi = StateVector(np.array([math.sqrt(0.36), math.sqrt(0.64)], dtype=complex))
        np.testing.assert_allclose(born_distribution(psi), [0.36, 0.64], atol=ATOL)

    @given(st.integers(0, 2**32), st.integers(2, 32))
    @settings(max_examples=25, deadline=None)
    def test_sums_to_one(self, seed, dim):
        psi = haar_sample(dim, SeededRng(seed))
        assert abs(born_distribution(psi).sum() - 1) <= ATOL


class TestMeasureComputational:
    def test_basis_state_is_certain(self):
        rng = SeededRng(5)
        psi = StateVector.basis(8, 3)
        assert all(measure_computational(psi, rng) == 3 for _ in range(50))

    def test_uniform_qubit_frequency(self):
        rng = SeededRng(11)
        psi = uniform_state(2)
        hits = sum(measure_computational(psi, rng) == 0 for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 3 * math.sqrt(0.25 / 10_000)

    def test_biased_qubit_frequency(self):
        rng = SeededRng(13)
        psi = StateVector(np.array([math.sqrt(0.36), math.sqrt(0.64)], dtype=complex))
        hits = sum(measure_computational(psi, rng) == 1 for _ in range(10_000))
        assert abs(hits / 10_000 - 0.64) <= 3 * math.sqrt(0.64 * 0.36 / 10_000)


class TestTraceDistance:
    def test_identical_states(self):
        rho = density(StateVector.basis(4, 2))
        assert trace_distance(rho, rho) <= ATOL

    def test_orthogonal_pure_states(self):
        rho = density(StateVector.basis(2, 0))
        sigma = density(StateVector.basis(2, 1))
        assert abs(trace_distance(rho, sigma) - 1) <= ATOL

    def test_zero_vs_plus(self):
        # pure-state closed form sqrt(1 - |<phi|psi>|^2)
        rho = density(StateVector.basis(2, 0))
        sigma = density(uniform_state(2))
        assert abs(trace_distance(rho, sigma) - math.sqrt(1 - 0.5)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(density(StateVector.basis(2, 0)), density(StateVector.basis(4, 0)))

    @given(st.integers(0, 2**32), st.integers(2, 16))
    @settings(max_examples=25, deadline=None)
    def test_metric_properties(self, seed, dim):
        rng = SeededRng(seed)
        rho, sig, tau = (density(haar_sample(dim, rng)) for _ in range(3))
        d_rs, d_st, d_rt = trace_distance(rho, sig), trace_distance(sig, tau), trace_distance(rho, tau)
        assert abs(d_rs - trace_distance(sig, rho)) <= 1e-9
        assert -ATOL <= d_rs <= 1 + ATOL
        assert d_rt <= d_rs + d_st + 1e-9


class TestApplyFlip:
    def flip(self, seed=0, dim=16):
        rng = SeededRng(seed)
        a = haar_sample(dim, rng)
        raw = haar_sample(dim, rng).amplitudes
        raw = raw - np.vdot(a.amplitudes, raw) * a.amplitudes
        return RankTwoFlip(a=a, b=StateVector.normalized(raw))

    def test_maps_a_to_b(self):
        flip = self.flip()
        out = apply_flip(flip, flip.a)
        assert np.allclose(out.amplitudes, flip.b.amplitudes, atol=ATOL)

    def test_fixes_orthogonal_complement(self):
        flip = self.flip(dim=8)
        raw = haar_sample(8, SeededRng(9)).amplitudes
        for v in (flip.a.amplitudes, flip.b.amplitudes):
            raw = raw - np.vdot(v, raw) * v
        psi = StateVector.normalized(raw)
        assert np.allclose(apply_flip(flip, psi).amplitudes, psi.amplitudes, atol=ATOL)

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_involution_and_isometry(self, seed):
        flip = self.flip(seed=1)
        psi = haar_sample(flip.dim, SeededRng(seed))
        once = apply_flip(flip, psi)
        assert abs(np.linalg.norm(once.amplitudes) - 1) <= ATOL
        twice = apply_flip(flip, once)
        assert np.allclose(twice.amplitudes, psi.amplitudes, atol=ATOL)

    def test_rejects_non_orthogonal_endpoints(self):
        a = StateVector.basis(4, 0)
        with pytest.raises(ValueError):
            RankTwoFlip(a=a, b=uniform_state(4))

    def test_dimension_mismatch(self):
        flip = self.flip(dim=8)
        with pytest.raises(DimensionMismatchError):
            apply_flip(flip, StateVector.basis(4, 0))


class TestSymmetricMoment:
    def test_dim2_t1_is_maximally_mixed(self):
        moment = symmetric_moment(2, 1)
        assert np.allclose(moment.matrix, np.eye(2) / 2, atol=ATOL)

    def test_dim2_t2_closed_form(self):
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1
        moment = symmetric_moment(2, 2)
        assert np.allclose(moment.matrix, (np.eye(4) + swap) / 6, atol=ATOL)

    def test_trace_one(self):
        assert abs(np.trace(symmetric_moment(3, 2).matrix) - 1) <= ATOL

    def test_matches_monte_carlo_haar_average(self):
        rng = SeededRng(21)
        acc = np.zeros((4, 4), dtype=complex)
        n = 10_000
        for _ in range(n):
            amps = haar_sample(2, rng).amplitudes
            pair = np.kron(amps, amps)
            acc += np.outer(pair, pair.conj())
        avg = DensityOp((acc / n + (acc / n).conj().T) / 2)
        assert trace_distance(avg, symmetric_moment(2, 2)) <= 0.02

    def test_memory_budget(self):
        with pytest.raises(MemoryBudgetError):
            symmetric_moment(64, 3)


class TestDensityOp:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOp(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityOp(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOp(np.diag([1.5, -0.5]).astype(complex))


class TestUnitaryInvarianceProxy:
    def test_born_entries_invariant_under_fixed_unitaries(self):
        from scipy import stats

        rng = SeededRng(33)
        dim, n_states = 8, 300
        perm = np.array([3, 0, 6, 1, 7, 2, 5, 4])
        phases = np.exp(2j * np.pi * np.arange(dim) / dim)
        base, permuted, phased = [], [], []
        for _ in range(n_states):
            psi = haar_sample(dim, rng)
            base.append(born_distribution(psi))
            permuted.append(born_distribution(StateVector(psi.amplitudes[perm])))
            phased.append(born_distribution(StateVector(phases * psi.amplitudes)))
        base = np.ravel(base)
        for other in (permuted, phased):
            assert stats.ks_2samp(base, np.ravel(other)).pvalue > 1e-3
