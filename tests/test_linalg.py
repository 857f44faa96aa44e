import math

import numpy as np
import pytest

from qoc.linalg import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    entropy_of_squared_weights,
    expm_hermitian,
    fidelity,
    ground_state,
    kron,
    partial_trace,
    partial_trace_rho,
    purity,
    random_state,
    schmidt,
)

from conftest import SX, SY, SZ, I2, ghz_amplitudes, w3_amplitudes


def brute_force_reduced(amps, site_dims, keep):
    """Independent index-contraction oracle for the partial trace."""
    keep = sorted(keep)
    rest = [i for i in range(len(site_dims)) if i not in keep]
    d_keep = math.prod(site_dims[i] for i in keep)
    rho = np.zeros((d_keep, d_keep), dtype=complex)
    tensor = amps.reshape(site_dims)

    def flat(idx_keep, idx_rest):
        idx = [0] * len(site_dims)
        for pos, site in enumerate(keep):
            idx[site] = idx_keep[pos]
        for pos, site in enumerate(rest):
            idx[site] = idx_rest[pos]
        return tuple(idx)

    keep_ranges = [range(site_dims[i]) for i in keep]
    rest_ranges = [range(site_dims[i]) for i in rest]
    import itertools

    for a_i, ia in enumerate(itertools.product(*keep_ranges)):
        for a_j, ja in enumerate(itertools.product(*keep_ranges)):
            acc = 0.0 + 0.0j
            for rb in itertools.product(*rest_ranges):
                acc += tensor[flat(ia, rb)] * np.conj(tensor[flat(ja, rb)])
            rho[a_i, a_j] = acc
    return rho


class TestStateVector:
    def test_dims_must_match(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(3), (2, 2))

    def test_normalized(self, rng):
        s = StateVector(rng.standard_normal(8) + 1j * rng.standard_normal(8), (2, 2, 2))
        assert abs(s.normalized().norm - 1.0) < 1e-10


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_accepts_pauli(self):
        for p in (SX, SY, SZ):
            assert HermitianOperator(p).dim == 2


class TestKron:
    def test_identity(self):
        out = kron(HermitianOperator(I2), HermitianOperator(I2))
        assert np.array_equal(out.matrix, np.eye(4))

    def test_zz_diagonal(self):
        out = kron(HermitianOperator(SZ), HermitianOperator(SZ))
        assert np.allclose(out.matrix, np.diag([1, -1, -1, 1]))

    def test_state_kron_elementwise_oracle(self):
        zero = StateVector(np.array([1, 0], dtype=complex), (2,))
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2), (2,))
        out = kron(zero, plus)
        expected = np.array(
            [zero.amplitudes[i] * plus.amplitudes[j] for i in range(2) for j in range(2)]
        )
        assert np.allclose(out.amplitudes, expected, atol=1e-15)
        assert out.site_dims == (2, 2)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            kron(StateVector(np.array([1, 0]), (2,)), HermitianOperator(I2))


class TestExpmHermitian:
    def test_zero_matrix(self):
        assert np.allclose(expm_hermitian(np.zeros((3, 3)), 1.234), np.eye(3))

    def test_diagonal_phases(self):
        theta = 0.7713
        u = expm_hermitian(SZ, -theta)
        assert np.allclose(u, np.diag([np.exp(-1j * theta), np.exp(1j * theta)]), atol=1e-14)

    def test_taylor_series_oracle(self):
        # exp(i * s * H) summed directly, far past machine precision.
        s = -np.pi / 2
        term = np.eye(2, dtype=complex)
        acc = np.zeros((2, 2), dtype=complex)
        for k in range(40):
            acc += term
            term = term @ (1j * s * SX) / (k + 1)
        u = expm_hermitian(SX, s)
        assert np.abs(u - acc).max() < 1e-12
        assert np.allclose(u, -1j * SX, atol=1e-12)

    def test_unitarity_and_inverse(self, rng):
        for _ in range(10):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            h = a + a.conj().T
            s = rng.uniform(-2, 2)
            u = expm_hermitian(h, s)
            assert np.abs(u @ u.conj().T - np.eye(6)).max() < 1e-10
            assert np.abs(u @ expm_hermitian(h, -s) - np.eye(6)).max() < 1e-9

    def test_stack_matches_matrix_by_matrix(self, rng):
        a = rng.standard_normal((2, 3, 5, 5)) + 1j * rng.standard_normal((2, 3, 5, 5))
        h = a + a.conj().swapaxes(-1, -2)
        u = expm_hermitian(h, 0.37)
        assert u.shape == h.shape
        for i in range(2):
            for j in range(3):
                assert np.abs(u[i, j] - expm_hermitian(h[i, j], 0.37)).max() < 1e-14


class TestPartialTrace:
    def test_product_state_factorizes(self):
        zero = StateVector(np.array([1, 0], dtype=complex), (2,))
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2), (2,))
        rho = partial_trace(kron(zero, plus), {0})
        assert np.allclose(rho.matrix, np.array([[1, 0], [0, 0]]), atol=1e-12)

    def test_ghz4_half(self):
        state = StateVector(ghz_amplitudes(4), (2,) * 4)
        rho = partial_trace(state, {0, 1})
        assert np.allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_w3_against_brute_force(self):
        amps = w3_amplitudes()
        state = StateVector(amps, (2, 2, 2))
        rho = partial_trace(state, {0})
        oracle = brute_force_reduced(amps, (2, 2, 2), [0])
        assert np.allclose(rho.matrix, oracle, atol=1e-12)
        assert np.allclose(rho.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_random_against_brute_force(self, rng):
        for dims, keep in [((2, 3, 2), {1}), ((2, 2, 2, 2), {1, 3}), ((3, 2), {0})]:
            s = random_state(dims, rng)
            got = partial_trace(s, keep).matrix
            want = brute_force_reduced(s.amplitudes, dims, keep)
            assert np.abs(got - want).max() < 1e-12

    def test_invalid_keep_sets(self):
        s = StateVector(ghz_amplitudes(2), (2, 2))
        with pytest.raises(ValueError):
            partial_trace(s, set())
        with pytest.raises(ValueError):
            partial_trace(s, {0, 1})

    def test_density_matrix_input(self, rng):
        s = random_state((2, 2, 2), rng)
        rho_full = DensityMatrix(np.outer(s.amplitudes, s.amplitudes.conj()))
        got = partial_trace(rho_full, {0, 2})
        want = partial_trace(s, {0, 2})
        assert np.abs(got.matrix - want.matrix).max() < 1e-12

    def test_partial_trace_rho_non_qubit(self, rng):
        s = random_state((3, 2), rng)
        rho_full = np.outer(s.amplitudes, s.amplitudes.conj())
        got = partial_trace_rho(rho_full, (3, 2), {0})
        want = brute_force_reduced(s.amplitudes, (3, 2), [0])
        assert np.abs(got.matrix - want).max() < 1e-12


class TestPurityFidelity:
    def test_pure_state(self, rng):
        s = random_state((2, 2), rng)
        rho = DensityMatrix(np.outer(s.amplitudes, s.amplitudes.conj()))
        assert abs(purity(rho) - 1.0) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(purity(DensityMatrix(np.eye(2) / 2)) - 0.5) < 1e-15

    def test_two_thirds_one_third(self):
        rho = DensityMatrix(np.diag([2 / 3, 1 / 3]).astype(complex))
        assert abs(purity(rho) - 5 / 9) < 1e-12

    def test_fidelity_identical(self, rng):
        s = random_state((2, 2), rng)
        rho = DensityMatrix(np.outer(s.amplitudes, s.amplitudes.conj()))
        assert abs(fidelity(s, rho) - 1.0) < 1e-10

    def test_fidelity_orthogonal(self):
        zero = StateVector(np.array([1, 0], dtype=complex), (2,))
        one_proj = DensityMatrix(np.diag([0, 1]).astype(complex))
        assert fidelity(zero, one_proj) == 0.0

    def test_fidelity_plus_zero(self):
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2), (2,))
        zero_proj = DensityMatrix(np.diag([1, 0]).astype(complex))
        assert abs(fidelity(plus, zero_proj) - 0.5) < 1e-12

    def test_fidelity_dim_mismatch(self):
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2), (2,))
        with pytest.raises(ValueError):
            fidelity(plus, DensityMatrix(np.eye(4) / 4))


class TestSchmidt:
    def test_product_state(self, rng):
        a = random_state((2,), rng)
        b = random_state((2, 2), rng)
        prof = schmidt(kron(a, b), {0})
        assert abs(prof.singular_values[0] - 1.0) < 1e-10
        assert np.all(prof.singular_values[1:] < 1e-10)
        assert abs(prof.entropy) < 1e-10

    @pytest.mark.parametrize("n,cut", [(2, {0}), (4, {0, 1}), (4, {2}), (5, {1, 3})])
    def test_ghz_two_terms(self, n, cut):
        state = StateVector(ghz_amplitudes(n), (2,) * n)
        prof = schmidt(state, cut)
        r = 1 / np.sqrt(2)
        assert abs(prof.singular_values[0] - r) < 1e-10
        assert abs(prof.singular_values[1] - r) < 1e-10
        assert np.all(prof.singular_values[2:] < 1e-12)
        assert abs(prof.entropy - 1.0) < 1e-10

    def test_entropy_base_e(self):
        state = StateVector(ghz_amplitudes(2), (2, 2))
        prof = schmidt(state, {0}, base=np.e)
        assert abs(prof.entropy - np.log(2)) < 1e-10

    def test_zero_log_zero_convention(self):
        assert entropy_of_squared_weights(np.array([1.0, 0.0, 0.0])) == 0.0


class TestCrossInvariants:
    """Relations tying the primitives together on random states."""

    def test_schmidt_symmetry_and_purity(self, rng):
        for _ in range(8):
            s = random_state((2, 2, 2, 2), rng)
            cut = {0, 2}
            comp = {1, 3}
            ev_a = np.sort(partial_trace(s, cut).eigenvalues())[::-1]
            ev_b = np.sort(partial_trace(s, comp).eigenvalues())[::-1]
            assert np.abs(ev_a - ev_b).max() < 1e-9

            prof_a = schmidt(s, cut)
            assert abs(purity(partial_trace(s, cut)) - np.sum(prof_a.singular_values**4)) < 1e-9
            assert abs(prof_a.entropy - schmidt(s, comp).entropy) < 1e-9

    def test_schmidt_values_match_reduced_spectrum(self, rng):
        s = random_state((2, 2, 2), rng)
        prof = schmidt(s, {1})
        ev = np.sort(partial_trace(s, {1}).eigenvalues())[::-1]
        assert np.abs(prof.singular_values**2 - ev).max() < 1e-10

    def test_singular_values_sum_to_one(self, rng):
        s = random_state((2, 2, 2), rng)
        prof = schmidt(s, {0, 1})
        assert abs(np.sum(prof.singular_values**2) - 1.0) < 1e-8

    def test_ground_state(self):
        g = ground_state((2, 2, 2))
        assert g.amplitudes[0] == 1.0
        assert np.all(g.amplitudes[1:] == 0.0)
