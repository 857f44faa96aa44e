"""Target-state generators and entanglement profiling.

The circuit-generated family applies one layer of general single-qubit
rotations, then alternates entangler sweeps (CNOT along a nearest-neighbour
chain) with further rotation layers.  A depth-1 circuit therefore produces
an exact product state, which anchors the depth-1 singular-value checks;
deeper circuits ramp up entanglement with depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import SchmidtProfile, StateVector, ground_state, schmidt

__all__ = [
    "PqcSpec",
    "ghz",
    "u_gate",
    "pqc_state",
    "entanglement_profile",
    "state_file_text",
    "parse_state_file_text",
    "write_state_file",
    "read_state_file",
]


def ghz(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2); for n = 1 this degenerates to |+>."""
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
        if self.qubits < 1:
            raise ValueError("qubit count must be >= 1")
        if self.layers < 1:
            raise ValueError("layer count must be >= 1")

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


def pqc_state(spec: PqcSpec, parameters: np.ndarray | None = None) -> StateVector:
    """State produced by the layered circuit acting on |0...0>."""
    n = spec.qubits
    params = spec.parameters() if parameters is None else np.asarray(parameters)
    if params.shape != (spec.layers, n, 3):
        raise ValueError(f"parameters must have shape {(spec.layers, n, 3)}")
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


def entanglement_profile(
    state: StateVector, bipartition: Iterable[int], base: float = 2.0
) -> SchmidtProfile:
    """Schmidt profile of the cut; thin wrapper kept for discoverability."""
    return schmidt(state, bipartition, base=base)


# ---------------------------------------------------------------------------
# Text export: one "index real imag" row per amplitude, repr precision.


def state_file_text(state: StateVector) -> str:
    lines = ["# qoc state v1", f"# dims: {' '.join(str(d) for d in state.site_dims)}"]
    for idx, amp in enumerate(state.amplitudes):
        lines.append(f"{idx} {float(amp.real)!r} {float(amp.imag)!r}")
    return "\n".join(lines) + "\n"


def parse_state_file_text(text: str, site_dims: Sequence[int] | None = None) -> StateVector:
    dims = tuple(int(d) for d in site_dims) if site_dims else None
    rows: dict[int, complex] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if dims is None and line.startswith("# dims:"):
                dims = tuple(int(tok) for tok in line.split(":", 1)[1].split())
            continue
        idx_tok, re_tok, im_tok = line.split()
        rows[int(idx_tok)] = float(re_tok) + 1j * float(im_tok)
    size = max(rows) + 1 if rows else 0
    if dims is None:
        n = max(size - 1, 1).bit_length()
        if 2**n != size:
            raise ValueError("state file lacks a dims header and is not qubit-sized")
        dims = (2,) * n
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    for idx, val in rows.items():
        amps[idx] = val
    return StateVector(amps, dims)


def write_state_file(state: StateVector, path) -> None:
    with open(path, "w") as fh:
        fh.write(state_file_text(state))


def read_state_file(path, site_dims: Sequence[int] | None = None) -> StateVector:
    with open(path) as fh:
        return parse_state_file_text(fh.read(), site_dims)
