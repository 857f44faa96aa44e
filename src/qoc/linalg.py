"""Dense complex linear algebra and quantum-state primitives.

States live on a tensor product of finite-dimensional sites; site 0 is the
leftmost (most significant) factor, matching ``numpy.kron`` ordering.  All
values are immutable after construction and every operation here is a pure
function, so everything in this module is safe to use from concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DecompositionError

__all__ = [
    "StateVector",
    "HermitianOperator",
    "DensityMatrix",
    "SchmidtProfile",
    "ground_state",
    "random_state",
    "kron",
    "expm_hermitian",
    "partial_trace",
    "purity",
    "fidelity",
    "schmidt",
    "entropy_of_squared_weights",
]

HERMITICITY_TOL = 1e-12


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a tensor-product Hilbert space.

    ``site_dims`` records the per-site dimensions; their product must equal
    the amplitude count.
    """

    amplitudes: np.ndarray
    site_dims: tuple[int, ...]

    def __post_init__(self):
        amps = _as_complex(self.amplitudes).reshape(-1)
        dims = tuple(int(d) for d in self.site_dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"site dimensions must be >= 1, got {dims}")
        if math.prod(dims) != amps.size:
            raise ValueError(
                f"amplitude count {amps.size} does not match site_dims {dims}"
            )
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "site_dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n, self.site_dims)

    def overlap(self, other: "StateVector") -> complex:
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class HermitianOperator:
    """Square complex matrix equal to its conjugate transpose (within 1e-12)."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dev = float(np.abs(m - m.conj().T).max())
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max |A - A†| = {dev:.3e})")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace square matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dev = float(np.abs(m - m.conj().T).max())
        if dev > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (max dev {dev:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} != 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True)
class SchmidtProfile:
    """Singular values of a bipartite split plus the entanglement entropy."""

    singular_values: np.ndarray
    entropy: float
    log_base: float = 2.0

    def __post_init__(self):
        sv = np.asarray(self.singular_values, dtype=np.float64)
        if np.any(np.diff(sv) > 1e-12):
            raise ValueError("singular values must be sorted in descending order")
        object.__setattr__(self, "singular_values", sv)


def ground_state(site_dims: Sequence[int]) -> StateVector:
    """|0...0> on the given sites."""
    dims = tuple(int(d) for d in site_dims)
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(amps, dims)


def random_state(site_dims: Sequence[int], rng: np.random.Generator) -> StateVector:
    """Haar-ish random normalized state (Gaussian amplitudes)."""
    dims = tuple(int(d) for d in site_dims)
    n = math.prod(dims)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(amps, dims).normalized()


def kron(a, b):
    """Kronecker product preserving kind: states give states, operators operators."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(
            np.kron(a.amplitudes, b.amplitudes), a.site_dims + b.site_dims
        )
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.matrix, b.matrix))
    if isinstance(a, (StateVector, HermitianOperator)) or isinstance(
        b, (StateVector, HermitianOperator)
    ):
        raise TypeError(f"kron operands must be the same kind, got {type(a)}, {type(b)}")
    return np.kron(np.asarray(a), np.asarray(b))


def expm_hermitian(h, scale: float) -> np.ndarray:
    """exp(i * scale * H) via the eigendecomposition of Hermitian H.

    ``h`` is one matrix or a ``(..., d, d)`` stack, exponentiated matrix by
    matrix.  The eigen route keeps the result unitary to roundoff; ``scale``
    carries the sign convention (e.g. -dt for forward time evolution).
    """
    m = h.matrix if isinstance(h, HermitianOperator) else _as_complex(h)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        residual = float(np.abs(m - m.conj().swapaxes(-1, -2)).max())
        raise DecompositionError(f"eigendecomposition failed: {exc}", residual) from exc
    phases = np.exp(1j * scale * w)
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _split_axes(site_dims: Sequence[int], keep: Iterable[int]) -> tuple[list[int], list[int]]:
    n = len(site_dims)
    keep_sorted = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep_sorted):
        raise ValueError(f"site indices {keep_sorted} out of range for {n} sites")
    rest = [i for i in range(n) if i not in keep_sorted]
    return keep_sorted, rest


def _bipartition_matrix(state: StateVector, keep: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """Amplitudes as a (kept x traced) matrix, plus the site order of its axes.

    Kept sites come first, each group in ascending order.
    """
    keep_sorted, rest = _split_axes(state.site_dims, keep)
    if not keep_sorted or not rest:
        raise ValueError("bipartition must be a non-empty proper subset of sites")
    order = keep_sorted + rest
    tensor = np.transpose(state.amplitudes.reshape(state.site_dims), order)
    d_keep = math.prod(state.site_dims[i] for i in keep_sorted)
    return tensor.reshape(d_keep, -1), order


def partial_trace(state, keep: Iterable[int], site_dims: Sequence[int] | None = None) -> DensityMatrix:
    """Reduced density matrix on the kept sites (sorted site order).

    Accepts a ``StateVector`` (dims carried by the state) or a
    ``DensityMatrix``; the latter needs ``site_dims`` unless its dimension is
    a power of two, in which case qubit sites are assumed.
    """
    if isinstance(state, StateVector):
        m, _ = _bipartition_matrix(state, keep)
        rho = m @ m.conj().T
        # Symmetrize away roundoff so downstream validation stays quiet.
        rho = 0.5 * (rho + rho.conj().T)
        return DensityMatrix(rho / rho.trace().real)
    if isinstance(state, DensityMatrix):
        if site_dims is None:
            n = state.dim.bit_length() - 1
            if 2**n != state.dim:
                raise ValueError("site_dims required for non-qubit density matrices")
            site_dims = (2,) * n
        return partial_trace_rho(state, site_dims, keep)
    raise TypeError(f"unsupported input {type(state)}")


def partial_trace_rho(
    rho, site_dims: Sequence[int], keep: Iterable[int]
) -> DensityMatrix:
    """Partial trace of a density matrix given explicit site dimensions."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else _as_complex(rho)
    dims = tuple(int(d) for d in site_dims)
    keep_sorted, rest = _split_axes(dims, keep)
    if not keep_sorted or not rest:
        raise ValueError("bipartition must be a non-empty proper subset of sites")
    n = len(dims)
    tensor = m.reshape(dims + dims)
    # Trace out each dropped site, highest axis first so indices stay valid.
    for ax in sorted(rest, reverse=True):
        tensor = np.trace(tensor, axis1=ax, axis2=ax + n)
        n -= 1
    d_keep = math.prod(dims[i] for i in keep_sorted)
    out = tensor.reshape(d_keep, d_keep)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out / out.trace().real)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), in [1/d, 1]."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else _as_complex(rho)
    return float(np.vdot(m, m).real)


def fidelity(psi: StateVector, rho: DensityMatrix) -> float:
    """<psi|rho|psi> for a pure reference state and a density matrix."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else _as_complex(rho)
    if m.shape[0] != psi.dim:
        raise ValueError(f"dimension mismatch: state {psi.dim}, matrix {m.shape[0]}")
    val = float(np.vdot(psi.amplitudes, m @ psi.amplitudes).real)
    return min(max(val, 0.0), 1.0)


def entropy_of_squared_weights(weights_sq: np.ndarray, base: float = 2.0) -> float:
    """-sum p*log(p) with the 0*log(0) := 0 continuity convention."""
    p = np.asarray(weights_sq, dtype=np.float64)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log(p)) / np.log(base))


def schmidt(state: StateVector, bipartition: Iterable[int], base: float = 2.0) -> SchmidtProfile:
    """Schmidt profile of the split (bipartition sites | rest).

    Singular values come from the SVD of the reshaped amplitude matrix and
    are returned in descending order; the entropy uses their squares.
    """
    m, _ = _bipartition_matrix(state, bipartition)
    try:
        sv = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed: {exc}") from exc
    ent = entropy_of_squared_weights(sv**2, base=base)
    return SchmidtProfile(singular_values=sv, entropy=ent, log_base=base)
