import numpy as np
import pytest

from qoc.linalg import StateVector, _bipartition_matrix, kron, random_state
from qoc.pulses import subsystem_impurity
from qoc.targets import PqcSpec, ghz, pqc_state, u_gate

from conftest import SX, w3_amplitudes


def leading_cut_values(state, n_keep):
    """Singular values of the amplitudes across the cut after the first n_keep qubits."""
    return np.linalg.svd(state.amplitudes.reshape(2**n_keep, -1), compute_uv=False)


def leading_cut_entropy(state, n_keep):
    """Entanglement entropy in bits across the cut after the first n_keep qubits."""
    p = leading_cut_values(state, n_keep) ** 2
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


class TestGhz:
    def test_single_qubit_plus(self):
        s = ghz(1)
        assert np.abs(s.amplitudes - np.array([1, 1]) / np.sqrt(2)).max() < 1e-15

    def test_two_qubit(self):
        s = ghz(2)
        want = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.abs(s.amplitudes - want).max() < 1e-15

    def test_entropy_one_bit(self):
        assert abs(leading_cut_entropy(ghz(4), 2) - 1.0) < 1e-10
        assert abs(subsystem_impurity(ghz(4), {0, 1}) - 0.5) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ghz(0)


class TestUGate:
    def test_zero_angles(self):
        assert np.abs(u_gate(0, 0, 0) - np.diag([1, -1])).max() < 1e-15

    def test_pi_rotation(self):
        assert np.abs(u_gate(np.pi, 0, 0) + SX).max() < 1e-15

    def test_unitarity_sweep(self, rng):
        for _ in range(1000):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            lam = rng.uniform(0, 2 * np.pi)
            u = u_gate(theta, phi, lam)
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


class TestPqcState:
    def test_zero_angles_single_layer_stays_on_ground(self):
        spec = PqcSpec(qubits=3, layers=1)
        state = pqc_state(spec, parameters=np.zeros((1, 3, 3)))
        assert abs(abs(state.amplitudes[0]) - 1.0) < 1e-12
        assert np.abs(state.amplitudes[1:]).max() < 1e-12

    def test_single_layer_is_product_5q(self):
        # Depth 1 applies no entangler, so every cut shows one singular value.
        spec = PqcSpec(qubits=5, layers=1, seed=11)
        state = pqc_state(spec)
        sv = leading_cut_values(state, 2)
        assert abs(sv[0] - 1.0) < 1e-6
        assert np.abs(sv[1:4]).max() < 1e-6
        assert leading_cut_entropy(state, 2) < 1e-6
        for cut in ({0}, {0, 1}, {2}, {1, 3}, {0, 2, 4}):
            assert subsystem_impurity(state, cut) < 1e-12

    def test_deterministic_under_seed(self):
        a = pqc_state(PqcSpec(qubits=4, layers=3, seed=5))
        b = pqc_state(PqcSpec(qubits=4, layers=3, seed=5))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = pqc_state(PqcSpec(qubits=4, layers=3, seed=6))
        assert not np.allclose(a.amplitudes, c.amplitudes)

    def test_normalized(self):
        state = pqc_state(PqcSpec(qubits=5, layers=4, seed=3))
        assert abs(state.norm - 1.0) < 1e-10

    def test_entropy_grows_with_depth(self):
        # Statistical trend: deeper circuits entangle more on average.
        def mean_entropy(layers):
            vals = []
            for seed in range(10):
                state = pqc_state(PqcSpec(qubits=4, layers=layers, seed=seed))
                vals.append(leading_cut_entropy(state, 2))
            return float(np.mean(vals))

        e1, e3, e7 = mean_entropy(1), mean_entropy(3), mean_entropy(7)
        assert e1 < 1e-6
        assert e3 > 0.1
        assert e7 > e1 + 0.3

    def test_parameter_ranges(self):
        params = PqcSpec(qubits=6, layers=9, seed=1).parameters()
        assert params[..., 0].min() >= 0.0 and params[..., 0].max() <= np.pi
        assert params[..., 1].min() >= 0.0 and params[..., 1].max() <= 2 * np.pi
        assert params[..., 2].min() >= 0.0 and params[..., 2].max() <= 2 * np.pi


class TestEntanglementProfile:
    """Entanglement of generated targets across cuts of their qubits."""

    def test_ghz8_half_split(self):
        assert abs(leading_cut_entropy(ghz(8), 4) - 1.0) < 1e-10
        assert abs(subsystem_impurity(ghz(8), set(range(4))) - 0.5) < 1e-12

    def test_product_zero(self, rng):
        s = kron(random_state((2,), rng), random_state((2, 2), rng))
        assert np.all(leading_cut_values(s, 1)[1:] < 1e-10)
        assert leading_cut_entropy(s, 1) < 1e-10
        assert abs(subsystem_impurity(s, {0})) < 1e-12

    def test_w3_entropy_eigenvalue_oracle(self):
        s = StateVector(w3_amplitudes(), (2, 2, 2))
        oracle = -(2 / 3) * np.log2(2 / 3) - (1 / 3) * np.log2(1 / 3)
        assert abs(leading_cut_entropy(s, 1) - oracle) < 1e-6
        assert abs(subsystem_impurity(s, {0}) - (1 - 5 / 9)) < 1e-12

    def test_schmidt_symmetry(self):
        s = pqc_state(PqcSpec(qubits=4, layers=5, seed=3))
        a = np.linalg.svd(_bipartition_matrix(s, {0, 3})[0], compute_uv=False)
        b = np.linalg.svd(_bipartition_matrix(s, {1, 2})[0], compute_uv=False)
        assert a[1] > 1e-3
        assert np.abs(a - b).max() < 1e-10
        assert abs(subsystem_impurity(s, {0, 3}) - subsystem_impurity(s, {1, 2})) < 1e-12
