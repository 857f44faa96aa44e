import math
import operator

import numpy as np
import pytest

from qoc.linalg import StateVector

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def ghz_amplitudes(n: int) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return amps


def w3_amplitudes() -> np.ndarray:
    amps = np.zeros(8, dtype=complex)
    for idx in (0b001, 0b010, 0b100):
        amps[idx] = 1 / np.sqrt(3)
    return amps


def pattern_of(drift, stack) -> tuple[np.ndarray, ...]:
    """The ``SystemModel.pattern`` of a dense (d, d) drift and (A, d, d) control
    stack: the entries where either is nonzero, in the C order of H^T, the
    drift's values on all of them and the controls' on the driven ones.
    """
    drift = np.asarray(drift, dtype=complex)
    stack = np.asarray(stack, dtype=complex).reshape(-1, *drift.shape)
    touched = (stack != 0).any(axis=0)
    cols, rows = np.nonzero(((drift != 0) | touched).T)
    driven = touched[rows, cols]
    return rows, cols, drift[rows, cols], driven, stack[:, rows[driven], cols[driven]]


def random_state(site_dims, rng: np.random.Generator) -> StateVector:
    """Haar-ish random normalized state (Gaussian amplitudes)."""
    dims = tuple(operator.index(d) for d in site_dims)
    n = math.prod(dims)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(amps, dims).normalized()


def kron(a: StateVector, b: StateVector) -> StateVector:
    """Product state a (x) b, with a's sites first."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes), a.site_dims + b.site_dims)


def expm_hermitian(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(i * scale * H) via the eigendecomposition of Hermitian H: the
    propagator oracle.

    ``h`` is one matrix or a ``(..., d, d)`` stack, exponentiated matrix by
    matrix.  The eigen route keeps the result unitary to roundoff; ``scale``
    carries the sign convention (e.g. -dt for forward time evolution).
    """
    w, v = np.linalg.eigh(np.asarray(h, dtype=np.complex128))
    return (v * np.exp(1j * scale * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def finite_difference_gradient(cost, amplitudes: np.ndarray, step: float) -> np.ndarray:
    """Central differences of a cost over a K x A amplitude matrix."""
    if not (step > 0.0):
        raise ValueError("step must be positive")
    amps = np.asarray(amplitudes, dtype=np.float64)
    grad = np.zeros_like(amps)
    for k in range(amps.shape[0]):
        for a in range(amps.shape[1]):
            up = amps.copy()
            up[k, a] += step
            dn = amps.copy()
            dn[k, a] -= step
            grad[k, a] = (cost(up) - cost(dn)) / (2.0 * step)
    return grad
