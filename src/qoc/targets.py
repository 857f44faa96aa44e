"""Target-state generators: GHZ states and layered-circuit states.

The circuit-generated family applies one layer of general single-qubit
rotations, then alternates entangler sweeps (CNOT along a nearest-neighbour
chain) with further rotation layers.  A depth-1 circuit therefore produces
an exact product state; deeper circuits ramp up entanglement with depth.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import StateVector, ground_state

__all__ = ["PqcSpec", "ghz", "u_gate", "pqc_state"]


def ghz(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2); for n = 1 this degenerates to |+>."""
    n = operator.index(n)  # TypeError if not an integer
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(amps, (2,) * n)


def u_gate(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit rotation with the sign pattern

        [[cos(t/2),            -e^{i lam} sin(t/2)       ],
         [-e^{i phi} sin(t/2), -e^{i(lam+phi)} cos(t/2)]].
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [-np.exp(1j * phi) * s, -np.exp(1j * (lam + phi)) * c],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class PqcSpec:
    """Circuit shape and the seed that fixes its random rotation angles."""

    qubits: int
    layers: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "qubits", operator.index(self.qubits))
        object.__setattr__(self, "layers", operator.index(self.layers))
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.qubits < 1:
            raise ValueError("qubit count must be >= 1")
        if self.layers < 1:
            raise ValueError("layer count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def parameters(self) -> np.ndarray:
        """(layers, qubits, 3) array of angles, reproducible from the seed.

        theta in [0, pi]; phi and lambda in [0, 2 pi].
        """
        rng = np.random.default_rng(self.seed)
        out = np.empty((self.layers, self.qubits, 3))
        out[..., 0] = rng.uniform(0.0, np.pi, (self.layers, self.qubits))
        out[..., 1] = rng.uniform(0.0, 2 * np.pi, (self.layers, self.qubits))
        out[..., 2] = rng.uniform(0.0, 2 * np.pi, (self.layers, self.qubits))
        return out


def _apply_single_qubit(amps: np.ndarray, n: int, qubit: int, gate: np.ndarray) -> np.ndarray:
    pre = 2**qubit
    post = 2 ** (n - qubit - 1)
    tensor = amps.reshape(pre, 2, post)
    return np.einsum("ab,pbq->paq", gate, tensor).reshape(-1)


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    tensor = amps.reshape((2,) * n).copy()
    moved = np.moveaxis(tensor, (control, target), (0, 1))
    moved[1] = moved[1, ::-1].copy()  # flip the target within the control=1 block
    return tensor.reshape(-1)


def pqc_state(spec: PqcSpec) -> StateVector:
    """State produced by the layered circuit acting on |0...0>."""
    n = spec.qubits
    params = spec.parameters()
    amps = ground_state((2,) * n).amplitudes.copy()
    for layer in range(spec.layers):
        if layer > 0:
            for q in range(n - 1):
                amps = _apply_cnot(amps, n, q, q + 1)
        for q in range(n):
            theta, phi, lam = params[layer, q]
            amps = _apply_single_qubit(amps, n, q, u_gate(theta, phi, lam))
    state = StateVector(amps, (2,) * n)
    return state.normalized()
