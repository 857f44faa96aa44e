"""State vectors on a tensor product of sites.

States live on a tensor product of finite-dimensional sites; site 0 is the
leftmost (most significant) factor, matching ``numpy.kron`` ordering.  The
one value type, ``StateVector``, rejects non-finite amplitudes and owns a
read-only copy of them, so it is immutable.  Operators are not kept here:
a ``hamiltonians.SystemModel`` holds them as its sparse pattern and checks
them there.  A state's amplitudes reshaped across a cut of its sites
(``_bipartition_matrix``) underlie the reduced-state costs in ``pulses``.
Every operation here is a pure function, so everything in this module is
safe to use from concurrent tasks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["StateVector", "ground_state"]

@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a tensor-product Hilbert space.

    ``site_dims`` records the per-site dimensions; their product must equal
    the amplitude count.  Amplitudes must be finite; the state keeps a
    read-only copy of them.
    """

    amplitudes: np.ndarray
    site_dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        dims = tuple(operator.index(d) for d in self.site_dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"site dimensions must be >= 1, got {dims}")
        if math.prod(dims) != amps.size:
            raise ValueError(
                f"amplitude count {amps.size} does not match site_dims {dims}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
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
        if other.site_dims != self.site_dims:
            raise ValueError(f"sites mismatch: {self.site_dims} vs {other.site_dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def ground_state(site_dims: Sequence[int]) -> StateVector:
    """|0...0> on the given sites."""
    dims = tuple(operator.index(d) for d in site_dims)
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(amps, dims)


def _bipartition_matrix(state: StateVector, keep: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """Amplitudes as a (kept x traced) matrix, plus the site order of its axes.

    Kept sites come first, each group in ascending order.
    """
    n = len(state.site_dims)
    keep_sorted = sorted(set(operator.index(k) for k in keep))
    if any(k < 0 or k >= n for k in keep_sorted):
        raise ValueError(f"site indices {keep_sorted} out of range for {n} sites")
    rest = [i for i in range(n) if i not in keep_sorted]
    if not keep_sorted or not rest:
        raise ValueError("bipartition must be a non-empty proper subset of sites")
    order = keep_sorted + rest
    tensor = np.transpose(state.amplitudes.reshape(state.site_dims), order)
    d_keep = math.prod(state.site_dims[i] for i in keep_sorted)
    return tensor.reshape(d_keep, -1), order
