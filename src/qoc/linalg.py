"""State vectors, Hermitian operators and their exponentials.

States live on a tensor product of finite-dimensional sites; site 0 is the
leftmost (most significant) factor, matching ``numpy.kron`` ordering.  Both
value types reject non-finite entries at construction.  A state's amplitudes
reshaped across a cut of its sites (``_bipartition_matrix``) underlie the
reduced-state costs in ``pulses``.  All values are immutable after
construction and every operation here is a pure function, so everything in
this module is safe to use from concurrent tasks.
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
    "ground_state",
    "random_state",
    "kron",
    "expm_hermitian",
]

HERMITICITY_TOL = 1e-12


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a tensor-product Hilbert space.

    ``site_dims`` records the per-site dimensions; their product must equal
    the amplitude count.  Amplitudes must be finite.
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
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
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
    """Finite square complex matrix equal to its conjugate transpose (within 1e-12)."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        dev = float(np.abs(m - m.conj().T).max())
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max |A - A†| = {dev:.3e})")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])


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


def _bipartition_matrix(state: StateVector, keep: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """Amplitudes as a (kept x traced) matrix, plus the site order of its axes.

    Kept sites come first, each group in ascending order.
    """
    n = len(state.site_dims)
    keep_sorted = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep_sorted):
        raise ValueError(f"site indices {keep_sorted} out of range for {n} sites")
    rest = [i for i in range(n) if i not in keep_sorted]
    if not keep_sorted or not rest:
        raise ValueError("bipartition must be a non-empty proper subset of sites")
    order = keep_sorted + rest
    tensor = np.transpose(state.amplitudes.reshape(state.site_dims), order)
    d_keep = math.prod(state.site_dims[i] for i in keep_sorted)
    return tensor.reshape(d_keep, -1), order
