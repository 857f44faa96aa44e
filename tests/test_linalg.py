import math

import numpy as np
import pytest

from qoc.linalg import StateVector, _bipartition_matrix, ground_state
from qoc.pulses import ground_leakage, subsystem_impurity

from conftest import SX, SZ, expm_hermitian, ghz_amplitudes, kron, random_state, w3_amplitudes


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


def reduced(state, keep):
    """Reduced density matrix on the kept sites, from the bipartition matrix."""
    m, _ = _bipartition_matrix(state, keep)
    return m @ m.conj().T


def schmidt_values(state, keep):
    """Singular values of the bipartition matrix, in descending order."""
    m, _ = _bipartition_matrix(state, keep)
    return np.linalg.svd(m, compute_uv=False)


class TestStateVector:
    def test_dims_must_match(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(3), (2, 2))

    def test_normalized(self, rng):
        s = StateVector(rng.standard_normal(8) + 1j * rng.standard_normal(8), (2, 2, 2))
        assert abs(s.normalized().norm - 1.0) < 1e-10

    def test_zero_vector_cannot_be_normalized(self):
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            StateVector(np.zeros(4), (2, 2)).normalized()

    @pytest.mark.parametrize("amps, dims", [(np.ones(0), (0, 2)), (np.ones(4), (-2, -2))])
    def test_site_dims_below_one_rejected(self, amps, dims):
        # Both pass the amplitude-count check: 0 * 2 = 0 and -2 * -2 = 4.
        with pytest.raises(ValueError, match="site dimensions must be >= 1"):
            StateVector(amps, dims)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_amplitudes(self, bad):
        amps = np.full(16, 0.25, dtype=complex)
        amps[5] = bad
        with pytest.raises(ValueError, match="finite"):
            StateVector(amps, (2,) * 4)


    @pytest.mark.parametrize("dims", [(2.7, 2), (2.0, 2), ("2", 2)])
    def test_non_integer_site_dims_rejected(self, dims, rng):
        # int() would give (2.7, 2) the dims (2, 2).
        with pytest.raises(TypeError):
            StateVector(np.ones(4), dims)
        with pytest.raises(TypeError):
            ground_state(dims)
        with pytest.raises(TypeError):
            random_state(dims, rng)

    def test_owns_a_read_only_copy(self):
        amps = np.array([1.0, 0.0], dtype=complex)  # complex128: asarray would alias it
        s = StateVector(amps, (2,))
        amps[0] = 2.0
        assert s.norm == 1.0
        with pytest.raises(ValueError, match="read-only"):
            s.amplitudes[0] = 2.0

    def test_numpy_integer_site_dims_accepted(self):
        s = StateVector(np.ones(4), np.array([2, 2]))
        assert s.site_dims == (2, 2) and all(type(d) is int for d in s.site_dims)
        assert ground_state(np.array([2, 2])).site_dims == (2, 2)


class TestKron:
    def test_state_kron_elementwise_oracle(self):
        zero = StateVector(np.array([1, 0], dtype=complex), (2,))
        plus = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2), (2,))
        out = kron(zero, plus)
        expected = np.array(
            [zero.amplitudes[i] * plus.amplitudes[j] for i in range(2) for j in range(2)]
        )
        assert np.allclose(out.amplitudes, expected, atol=1e-15)
        assert out.site_dims == (2, 2)


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
        rho = reduced(kron(zero, plus), {0})
        assert np.allclose(rho, np.array([[1, 0], [0, 0]]), atol=1e-12)

    def test_ghz4_half(self):
        state = StateVector(ghz_amplitudes(4), (2,) * 4)
        rho = reduced(state, {0, 1})
        assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_w3_against_brute_force(self):
        amps = w3_amplitudes()
        state = StateVector(amps, (2, 2, 2))
        rho = reduced(state, {0})
        oracle = brute_force_reduced(amps, (2, 2, 2), [0])
        assert np.allclose(rho, oracle, atol=1e-12)
        assert np.allclose(rho, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_random_against_brute_force(self, rng):
        for dims, keep in [((2, 3, 2), {1}), ((2, 2, 2, 2), {1, 3}), ((3, 2), {0})]:
            s = random_state(dims, rng)
            got = reduced(s, keep)
            want = brute_force_reduced(s.amplitudes, dims, keep)
            assert np.abs(got - want).max() < 1e-12

    def test_invalid_keep_sets(self):
        s = StateVector(ghz_amplitudes(2), (2, 2))
        with pytest.raises(ValueError):
            _bipartition_matrix(s, set())
        with pytest.raises(ValueError):
            _bipartition_matrix(s, {0, 1})
        with pytest.raises(ValueError):
            _bipartition_matrix(s, {2})

    def test_non_integer_sites_rejected(self):
        # int() would cut at site 0 for 0.9.
        s = StateVector(ghz_amplitudes(3), (2, 2, 2))
        for cut in (_bipartition_matrix, subsystem_impurity, ground_leakage):
            with pytest.raises(TypeError):
                cut(s, [0.9])
        assert subsystem_impurity(s, [np.int64(0)]) == subsystem_impurity(s, [0])

    def test_partial_trace_rho_non_qubit(self, rng):
        s = random_state((3, 3), rng)
        want = brute_force_reduced(s.amplitudes, (3, 3), [1])
        assert np.abs(reduced(s, {1}) - want).max() < 1e-12
        purity = np.trace(want @ want).real
        assert abs(subsystem_impurity(s, {1}) - (1.0 - purity)) < 1e-12


class TestPurityFidelity:
    """Purity of reduced states, read as 1 - subsystem_impurity."""

    def test_pure_state(self, rng):
        s = kron(random_state((2,), rng), random_state((2, 2), rng))
        assert abs(subsystem_impurity(s, {0})) < 1e-12
        assert abs(subsystem_impurity(s, {1, 2})) < 1e-12

    def test_maximally_mixed_qubit(self):
        state = StateVector(ghz_amplitudes(2), (2, 2))
        assert abs(reduced(state, {0}) - np.eye(2) / 2).max() < 1e-12
        assert abs(subsystem_impurity(state, {0}) - 0.5) < 1e-12

    def test_two_thirds_one_third(self):
        amps = np.array([np.sqrt(2 / 3), 0, 0, np.sqrt(1 / 3)], dtype=complex)
        state = StateVector(amps, (2, 2))
        assert abs(reduced(state, {1}) - np.diag([2 / 3, 1 / 3])).max() < 1e-12
        assert abs(subsystem_impurity(state, {1}) - (1 - 5 / 9)) < 1e-12


class TestSchmidt:
    def test_product_state(self, rng):
        a = random_state((2,), rng)
        b = random_state((2, 2), rng)
        sv = schmidt_values(kron(a, b), {0})
        assert abs(sv[0] - 1.0) < 1e-10
        assert np.all(sv[1:] < 1e-10)

    @pytest.mark.parametrize("n,cut", [(2, {0}), (4, {0, 1}), (4, {2}), (5, {1, 3})])
    def test_ghz_two_terms(self, n, cut):
        state = StateVector(ghz_amplitudes(n), (2,) * n)
        sv = schmidt_values(state, cut)
        r = 1 / np.sqrt(2)
        assert abs(sv[0] - r) < 1e-10
        assert abs(sv[1] - r) < 1e-10
        assert np.all(sv[2:] < 1e-12)


class TestCrossInvariants:
    """Relations tying the primitives together on random states."""

    def test_schmidt_symmetry_and_purity(self, rng):
        for _ in range(8):
            s = random_state((2, 2, 2, 2), rng)
            cut = {0, 2}
            comp = {1, 3}
            ev_a = np.sort(np.linalg.eigvalsh(reduced(s, cut)))[::-1]
            ev_b = np.sort(np.linalg.eigvalsh(reduced(s, comp)))[::-1]
            assert np.abs(ev_a - ev_b).max() < 1e-9

            sv_a = schmidt_values(s, cut)
            assert abs(1.0 - subsystem_impurity(s, cut) - np.sum(sv_a**4)) < 1e-9
            assert abs(subsystem_impurity(s, cut) - subsystem_impurity(s, comp)) < 1e-9
            assert np.abs(sv_a - schmidt_values(s, comp)).max() < 1e-9

    def test_schmidt_values_match_reduced_spectrum(self, rng):
        s = random_state((2, 2, 2), rng)
        ev = np.sort(np.linalg.eigvalsh(reduced(s, {1})))[::-1]
        assert np.abs(schmidt_values(s, {1}) ** 2 - ev).max() < 1e-10

    def test_singular_values_sum_to_one(self, rng):
        # The site permutation and reshape keep every amplitude.
        s = random_state((2, 3, 2), rng)
        assert abs(np.sum(schmidt_values(s, {0, 2}) ** 2) - 1.0) < 1e-12

    def test_ground_state(self):
        g = ground_state((2, 2, 2))
        assert g.amplitudes[0] == 1.0
        assert np.all(g.amplitudes[1:] == 0.0)
