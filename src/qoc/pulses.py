"""Piecewise-constant time evolution, transfer costs, and their gradients.

Sign conventions
----------------
A segment with Hamiltonian H_k = H_drift + sum_a u_a(k) H_a propagates as

    forward:   exp(-i dt H_k)     physical play-out direction
    reversed:  exp(+i dt H_k)     optimization direction for the iterative
                                  scheme, so that playing the optimized
                                  segments in reverse order under the forward
                                  sign implements the adjoint exactly

Gradients use the first-order rule dU_k/du ~ (+-i dt) H_a U_k; the overall
sign of each analytic gradient below is fixed against the central-difference
oracle (see tests), which is authoritative.  All gradients cost one forward
sweep plus one backward adjoint sweep.  Each cost is written once, as a
function of the final state that returns its value, the adjoint vector that
starts the backward sweep, and a real factor and complex weight; one driver
serves all three ``*_value_and_gradient`` functions: it checks the sign,
calls ``propagate``, contracts A[k, a] = <bw_k| H_a |fw_k> and returns
factor dt Im(weight A).

Routes
------
``propagate`` applies the K segments by one of two routes, chosen once per
call from its inputs; both give the same states to roundoff.

- Dense: ``segment_unitaries`` builds the (K, d, d) stack of segment
  propagators by batched Hermitian eigensolves, and both sweeps multiply
  states by it.
- Action: each chunk of segment Hamiltonians is assembled with one GEMM
  and exp(+-i dt H_k) is applied to the state directly by a truncated
  Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488);
  no propagator is formed.  The bound
  theta_k = dt (||H_drift||_1 + sum_a |u_a(k)| ||H_a||_1) >= dt ||H_k||_2
  sets s_k = max(1, ceil(theta_k)) steps of norm at most 1, each truncated
  at the least degree m_k whose leading tail term
  (theta_k / s_k)^(m_k+1) / (m_k+1)! is at most 2^-53.

The action route is taken when 2 sum_k s_k m_k < K d, that is, when the
matvecs of the forward and backward sweeps (d^2 work each) cost less than
the dense route's d^3 work per segment.  Small d, or a large dt ||H_k||,
goes dense: the 4-spin NMR sample (d = 16) needs 50 to 70 matvecs per
segment and sweep.  The qubit chain at full-box amplitudes goes by action
from d = 32 on.  The action route runs on the calling thread only.

Memory
------
Both routes keep (K+1, d) forward states.  The dense route also keeps one
(K, d, d) stack, the segment unitaries that its backward sweep reuses; the
action route keeps no (K, d, d) array, and its backward sweep assembles
the segment Hamiltonians again, chunk by chunk in reverse.  Segment
Hamiltonians and their exponentials are built in chunks of segments.  On
the action route one chunk is in flight, within CHUNK_BYTES, beside a
transposed copy of the control stack.  On the dense route the W chunks in
flight share that budget: each (n, d, d) temporary stays within
CHUNK_BYTES / W, or holds _MIN_CHUNK segments where that is more.  The
gradient contraction forms H_a |fw_k> for one chunk of segments at a time,
an (n, A, d) array within CHUNK_BYTES.  Either way the transients of a call
do not grow with K.

Parallelism
-----------
Once the amplitudes are fixed the segment exponentials are independent, so
on the dense route ``segment_unitaries`` fills its chunks on W threads, W
being the number of CPUs in the process's affinity mask (restrict a process
with ``taskset`` to run several side by side).  The calling thread fills
chunks 0, W, 2W, ... and a lazily created pool of W - 1 threads fills the
rest; the einsum, eigh and matmul calls release the GIL.  Every chunk
applies the same per-matrix arithmetic, so U is bit-identical for any W.
With W = 1, or a single chunk, no thread starts.  A forked child drops the
parent's pool and creates its own on first use.  The action route's sweeps
are chains of dependent matvecs and start no thread.  They want one BLAS
thread, which the library leaves callers to set: one 8-qubit chain gradient
(d = 256, K = 1460) took 35.4 s under OpenBLAS's default two, 4.35 s under one.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg.blas import zgemv

from .errors import ContractError
from .hamiltonians import SystemModel
from .linalg import StateVector, _bipartition_matrix, expm_hermitian

__all__ = [
    "SIGN_FORWARD",
    "SIGN_REVERSED",
    "PulseGrid",
    "PulseSequence",
    "Workspace",
    "propagate",
    "segment_unitaries",
    "state_infidelity",
    "subsystem_impurity",
    "ground_leakage",
    "infidelity_value_and_gradient",
    "impurity_value_and_gradient",
    "ground_leakage_value_and_gradient",
    "finite_difference_gradient",
    "random_initial_pulses",
]

SIGN_FORWARD = "forward"
SIGN_REVERSED = "reversed"
_SIGN_FACTOR = {SIGN_FORWARD: -1.0, SIGN_REVERSED: +1.0}

# Byte budget of the (n, d, d) complex temporaries that segment_unitaries has
# in flight at once, one per worker.  A few such budgets stay far below the
# U stack they fill and near cache size; 4 and 8 MiB budgets ran slower at
# d = 64 on one thread.
CHUNK_BYTES = 1 << 20

# Fewest segments in a dense-route chunk.  The budget split W ways would
# leave one matrix per chunk at d >= 32 on a machine with 64 CPUs.
_MIN_CHUNK = 4

# Leading Taylor tail term allowed per action-route step: float64 roundoff.
_TAYLOR_TAIL = 2.0**-53

# _TAYLOR_REACH[m] is the largest step norm theta whose leading tail term
# theta^(m+1) / (m+1)! is at most _TAYLOR_TAIL.  Steps have theta <= 1,
# which degree 18 reaches.
_TAYLOR_REACH = np.array(
    [math.exp((math.log(_TAYLOR_TAIL) + math.lgamma(m + 2)) / (m + 1)) for m in range(19)]
)

# Threads that fill segment_unitaries chunks, the caller included.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

_pool: ThreadPoolExecutor | None = None  # the W - 1 helpers, created on first use
_pool_lock = threading.Lock()


def _reset_pool_after_fork() -> None:
    # The parent's helper threads do not exist in a forked child; work queued
    # on its pool would never run.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool_after_fork)


def _helpers() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="qoc-segments")
        return _pool


@dataclass(frozen=True)
class PulseGrid:
    """Uniform time grid: K segments of duration dt."""

    dt: float
    segments: int

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf):
            raise ValueError(f"segment duration must be positive and finite, got {self.dt}")
        if self.segments < 1:
            raise ValueError(f"segment count must be >= 1, got {self.segments}")


@dataclass(frozen=True)
class PulseSequence:
    """K x A real control amplitudes on a grid, with a sign convention tag."""

    grid: PulseGrid
    amplitudes: np.ndarray
    channels: tuple[str, ...]
    sign: str
    bounds: tuple[float, float] = (-np.inf, np.inf)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        if amps.ndim != 2:
            raise ValueError(f"amplitudes must be K x A, got shape {amps.shape}")
        if amps.shape[0] != self.grid.segments:
            raise ValueError(
                f"amplitude rows {amps.shape[0]} != grid segments {self.grid.segments}"
            )
        if amps.shape[1] != len(self.channels):
            raise ValueError(
                f"amplitude columns {amps.shape[1]} != channel count {len(self.channels)}"
            )
        if self.sign not in _SIGN_FACTOR:
            raise ValueError(f"sign must be forward or reversed, got {self.sign!r}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        lo, hi = self.bounds
        if not (lo <= hi):
            raise ValueError(f"invalid bounds {self.bounds}")
        if amps.size and (amps.min() < lo or amps.max() > hi):
            raise ValueError("amplitudes exceed the configured box bounds")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    def with_amplitudes(self, amps: np.ndarray) -> "PulseSequence":
        return replace(self, amplitudes=np.asarray(amps, dtype=np.float64))

    def reversed_play_order(self) -> "PulseSequence":
        """Segments in reverse time order under the opposite sign.

        For a reversed-sign sequence this is the physical (forward-sign)
        realisation of the adjoint of the optimized propagator.
        """
        flipped = SIGN_FORWARD if self.sign == SIGN_REVERSED else SIGN_REVERSED
        return replace(self, amplitudes=self.amplitudes[::-1].copy(), sign=flipped)


@dataclass
class Workspace:
    """Forward states of one propagation, and what its backward sweep needs.

    Every propagation keeps its (K+1, d) forward states.  On the dense route
    it also keeps the (K, d, d) segment unitaries, which the backward sweep
    reuses without copying.  On the action route ``unitaries`` is None: the
    backward sweep assembles the segment Hamiltonians again and applies the
    inverse of each segment to the adjoint vector by Taylor series.
    """

    model: SystemModel
    pulses: PulseSequence
    unitaries: np.ndarray | None  # (K, d, d) on the dense route, else None
    forward: np.ndarray  # (K+1, d); forward[k] = state after k segments

    @property
    def final_amplitudes(self) -> np.ndarray:
        return self.forward[-1]

    def backward_adjoint(self, vec: np.ndarray) -> np.ndarray:
        """bw[k] = (U_K ... U_{k+2} U_{k+1})† vec, returned for k = 1..K."""
        if self.unitaries is None:
            return _taylor_sweep(self.model, self.pulses, vec, backward=True)
        k_seg = self.unitaries.shape[0]
        bw = np.empty((k_seg, self.unitaries.shape[1]), dtype=complex)
        acc = np.asarray(vec, dtype=complex)
        bw[k_seg - 1] = acc  # nothing after the last segment
        for k in range(k_seg - 1, 0, -1):
            acc = (acc.conj() @ self.unitaries[k]).conj()  # U_k† acc, no transposed copy
            bw[k - 1] = acc
        return bw


def segment_hamiltonians(model: SystemModel, amplitudes: np.ndarray) -> np.ndarray:
    """(K, d, d) stack of per-segment total Hamiltonians."""
    amps = np.asarray(amplitudes, dtype=np.float64)
    stack = model.control_stack
    h = np.broadcast_to(model.drift.matrix, (amps.shape[0],) + model.drift.matrix.shape).copy()
    if stack.shape[0]:
        h += np.einsum("ka,aij->kij", amps, stack)
    return h


def _chunk_length(dim: int) -> int:
    """Most segments per dense-route chunk: d x d complex matrices within
    CHUNK_BYTES / W, but never fewer than _MIN_CHUNK."""
    return max(_MIN_CHUNK, CHUNK_BYTES // _WORKERS // (16 * dim * dim))


def _chunk_bounds(segments: int, dim: int) -> list[tuple[int, int]]:
    """(start, stop) of each chunk: a multiple of W chunks, lengths within one.

    Equal chunks let the workers finish together; never more chunks than
    segments.
    """
    count = -(-segments // _chunk_length(dim))
    count = min(segments, -(-count // _WORKERS) * _WORKERS)
    edges = [segments * i // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _fill_chunks(u, model, amps, scale, chunks) -> None:
    for start, stop in chunks:
        u[start:stop] = expm_hermitian(segment_hamiltonians(model, amps[start:stop]), scale)


def segment_unitaries(model: SystemModel, pulses: PulseSequence) -> np.ndarray:
    """(K, d, d) stack of segment propagators, via batched Hermitian eigensolves.

    The stack is allocated once and filled chunk by chunk, so temporaries
    are bounded by CHUNK_BYTES rather than growing with K.  The calling
    thread fills every W-th chunk and the helper pool the others; an error
    in any chunk is raised here once every chunk has finished.
    """
    amps = pulses.amplitudes
    scale = _SIGN_FACTOR[pulses.sign] * pulses.grid.dt
    u = np.empty((amps.shape[0], model.dim, model.dim), dtype=complex)
    chunks = _chunk_bounds(amps.shape[0], model.dim)
    lanes = min(_WORKERS, len(chunks))
    futures = [
        _helpers().submit(_fill_chunks, u, model, amps, scale, chunks[j::lanes])
        for j in range(1, lanes)
    ]
    try:
        _fill_chunks(u, model, amps, scale, chunks[::lanes])
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return u


def _one_norm(matrix: np.ndarray) -> float:
    return float(np.abs(matrix).sum(axis=0).max())


def _taylor_plan(model: SystemModel, pulses: PulseSequence) -> tuple[np.ndarray, np.ndarray]:
    """Steps s_k and degrees m_k of each segment's Taylor series (see Routes)."""
    control_norms = np.array([_one_norm(op) for op in model.control_stack])
    theta = pulses.grid.dt * (
        _one_norm(model.drift.matrix) + np.abs(pulses.amplitudes) @ control_norms
    )
    steps = np.maximum(1.0, np.ceil(theta))
    return steps, np.searchsorted(_TAYLOR_REACH, theta / steps)


def _takes_action_route(model: SystemModel, pulses: PulseSequence) -> bool:
    """Whether both sweeps' Taylor matvecs cost less than K dense d^3 segments."""
    steps, degrees = _taylor_plan(model, pulses)
    return 2.0 * float(steps @ degrees) < pulses.grid.segments * model.dim


def _hamiltonian_chunks(
    model: SystemModel, amplitudes: np.ndarray, lo: int, hi: int, reverse: bool
):
    """Yield (start, H_start ... H_stop-1) over segments lo..hi-1, chunk by chunk.

    A chunk stays within CHUNK_BYTES and costs one real GEMM over the
    transposed control stack viewed as interleaved float64 (re, im) pairs,
    so the real amplitudes are not promoted to complex.  Assembling H_k^T
    makes each yielded H_k Fortran-ordered, as zgemv takes it without a copy.
    """
    d = model.dim
    length = max(1, CHUNK_BYTES // (16 * d * d))
    controls = np.ascontiguousarray(model.control_stack.transpose(0, 2, 1))
    controls = controls.reshape(-1, d * d).view(np.float64)
    drift = model.drift.matrix.T.reshape(-1)
    starts = range(lo, hi, length)
    for start in reversed(starts) if reverse else starts:
        h_t = (amplitudes[start : min(start + length, hi)] @ controls).view(complex)
        h_t += drift
        yield start, h_t.reshape(-1, d, d).transpose(0, 2, 1)


def _taylor_apply(h: np.ndarray, psi: np.ndarray, coef: complex, steps: int, degree: int):
    """exp(steps * coef * h) psi, as ``steps`` Taylor series truncated at ``degree``.

    Each series runs in Horner form, w <- psi + (coef / j) h w for
    j = degree ... 1, one BLAS call per term.
    """
    for _ in range(steps):
        w = psi
        for j in range(degree, 0, -1):
            w = zgemv(coef / j, h, w, beta=1.0, y=psi)
        psi = w
    return psi


def _taylor_sweep(
    model: SystemModel, pulses: PulseSequence, vec: np.ndarray, backward: bool = False
) -> np.ndarray:
    """States of an action-route sweep, exp(+-i scale H_k) applied by Taylor series.

    Forward: out[0] = vec and out[k+1] = exp(i scale H_k) out[k], (K+1, d).
    Backward: out[K-1] = vec and out[k-1] = exp(-i scale H_k) out[k], (K, d),
    the states that ``Workspace.backward_adjoint`` returns on the dense route.
    """
    amps = pulses.amplitudes
    k_seg = amps.shape[0]
    steps, degrees = (p.tolist() for p in _taylor_plan(model, pulses))
    coef = (-1.0 if backward else 1.0) * 1j * _SIGN_FACTOR[pulses.sign] * pulses.grid.dt
    out = np.empty((k_seg if backward else k_seg + 1, model.dim), dtype=complex)
    psi = np.asarray(vec, dtype=complex)
    out[-1 if backward else 0] = psi
    # The backward sweep stops before segment 0: out[0] needs no inverse of it.
    for start, h in _hamiltonian_chunks(model, amps, int(backward), k_seg, backward):
        for i in range(len(h) - 1, -1, -1) if backward else range(len(h)):
            k = start + i
            psi = _taylor_apply(h[i], psi, coef / steps[k], int(steps[k]), degrees[k])
            out[k - 1 if backward else k + 1] = psi
    return out


def _dense_route(model: SystemModel, pulses: PulseSequence, initial: StateVector) -> Workspace:
    u = segment_unitaries(model, pulses)
    fw = np.empty((u.shape[0] + 1, model.dim), dtype=complex)
    fw[0] = initial.amplitudes
    for k in range(u.shape[0]):
        fw[k + 1] = u[k] @ fw[k]
    return Workspace(model=model, pulses=pulses, unitaries=u, forward=fw)


def _action_route(model: SystemModel, pulses: PulseSequence, initial: StateVector) -> Workspace:
    fw = _taylor_sweep(model, pulses, initial.amplitudes)
    return Workspace(model=model, pulses=pulses, unitaries=None, forward=fw)


def propagate(
    model: SystemModel, pulses: PulseSequence, initial: StateVector
) -> tuple[StateVector, Workspace]:
    """Apply the segments in order by the cheaper route; norm is preserved to roundoff."""
    if initial.dim != model.dim:
        raise ValueError(f"state dim {initial.dim} != model dim {model.dim}")
    if pulses.num_channels != model.num_channels:
        raise ValueError(
            f"pulse channels {pulses.num_channels} != model channels {model.num_channels}"
        )
    route = _action_route if _takes_action_route(model, pulses) else _dense_route
    ws = route(model, pulses, initial)
    return StateVector(ws.forward[-1], initial.site_dims), ws


# ---------------------------------------------------------------------------
# Costs: each maps a final state to (value, adjoint vector, factor, weight),
# the value formula being in the docstring of its public value function.  The
# weight scales A, not the adjoint vector, whose roundoff would change.


def _unpermute(matrix: np.ndarray, site_dims: Sequence[int], order: list[int]) -> np.ndarray:
    """Flat amplitudes back from a ``_bipartition_matrix`` layout."""
    tensor = matrix.reshape([site_dims[i] for i in order])
    return np.transpose(tensor, np.argsort(order)).reshape(-1)


def _transfer(final: StateVector, target: StateVector):
    c = target.overlap(final)
    return max(0.0, 1.0 - abs(c) ** 2), target.amplitudes, -2.0, np.conj(c)


def _impurity(final: StateVector, keep: Iterable[int]):
    m, order = _bipartition_matrix(final, keep)
    rho = m @ m.conj().T
    lam = _unpermute(rho @ m, final.site_dims, order)
    return max(0.0, 1.0 - float(np.vdot(rho, rho).real)), lam, 4.0, 1.0


def _ground_leakage(final: StateVector, frozen: Iterable[int]):
    m, order = _bipartition_matrix(final, frozen)
    eta = np.zeros_like(m)
    eta[0] = m[0]
    eta = _unpermute(eta, final.site_dims, order)
    return max(0.0, 1.0 - float(np.vdot(m[0], m[0]).real)), eta, 2.0, 1.0


def state_infidelity(final: StateVector, target: StateVector) -> float:
    """1 - |<target|final>|^2; zero iff equal up to a global phase."""
    return _transfer(final, target)[0]


def subsystem_impurity(state: StateVector, keep: Iterable[int]) -> float:
    """1 - tr(rho_keep^2); zero iff the state is a product across the cut."""
    return _impurity(state, keep)[0]


def ground_leakage(state: StateVector, frozen: Iterable[int]) -> float:
    """1 - <0...0| rho_frozen |0...0>; zero iff the frozen block sits in |0...0>."""
    return _ground_leakage(state, frozen)[0]


# ---------------------------------------------------------------------------
# Analytic gradients (one forward plus one backward sweep each)


def _gradient_terms(ws: Workspace, adjoint: np.ndarray) -> np.ndarray:
    """A[k, a] = <bw_k| H_a |fw_k>, one GEMM per chunk of segments within CHUNK_BYTES.

    A short tail joins the chunk before it, because BLAS rounds a product of
    one or two rows differently and A would then depend on K.
    """
    stack = ws.model.control_stack
    fw = ws.forward[1:]  # state after segment k, k = 1..K
    bw = ws.backward_adjoint(adjoint)
    n_ch, d, _ = stack.shape
    k_seg = fw.shape[0]
    terms = np.zeros((k_seg, n_ch), dtype=complex)
    if not n_ch:
        return terms
    controls = stack.reshape(n_ch * d, d).T
    length = max(1, CHUNK_BYTES // (16 * n_ch * d))
    edges = [i * length for i in range(max(1, k_seg // length))] + [k_seg]
    for start, stop in zip(edges[:-1], edges[1:]):
        h_fw = (fw[start:stop] @ controls).reshape(stop - start, n_ch, d)
        np.einsum("ki,kai->ka", bw[start:stop].conj(), h_fw, out=terms[start:stop])
    return terms


def _value_and_gradient(cost, sign, model, pulses, initial, spec):
    """Value and gradient of ``cost(final, spec)``; the pulses must have sign ``sign``."""
    if pulses.sign != sign:
        what = cost.__name__.lstrip("_")
        raise ContractError(f"{what} gradient requires sign={sign!r} pulses, got {pulses.sign!r}")
    final, ws = propagate(model, pulses, initial)
    value, adjoint, factor, weight = cost(final, spec)
    return value, factor * pulses.grid.dt * np.imag(weight * _gradient_terms(ws, adjoint)), ws


def infidelity_value_and_gradient(
    model: SystemModel, pulses: PulseSequence, initial: StateVector, target: StateVector
) -> tuple[float, np.ndarray, Workspace]:
    """Cost and d(cost)/du for the overlap infidelity, forward convention."""
    return _value_and_gradient(_transfer, SIGN_FORWARD, model, pulses, initial, target)


def impurity_value_and_gradient(
    model: SystemModel, pulses: PulseSequence, initial: StateVector, keep: Iterable[int]
) -> tuple[float, np.ndarray, Workspace]:
    """Cost and gradient for the reduced-state impurity, reversed convention.

    The adjoint vector is (rho_keep (x) 1) |phi>, the closed form of the
    elementwise double-sum definition.
    """
    return _value_and_gradient(_impurity, SIGN_REVERSED, model, pulses, initial, keep)


def ground_leakage_value_and_gradient(
    model: SystemModel, pulses: PulseSequence, initial: StateVector, frozen: Iterable[int]
) -> tuple[float, np.ndarray, Workspace]:
    """Cost and gradient for the frozen-block ground projection, reversed sign.

    The adjoint vector is (|0..0><0..0|_frozen (x) 1) |phi>.
    """
    return _value_and_gradient(_ground_leakage, SIGN_REVERSED, model, pulses, initial, frozen)


def finite_difference_gradient(
    cost: Callable[[np.ndarray], float], amplitudes: np.ndarray, step: float
) -> np.ndarray:
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


def random_initial_pulses(
    grid: PulseGrid,
    channels: Sequence[str],
    bounds: tuple[float, float],
    seed,
    sign: str,
    fraction: float = 0.1,
) -> PulseSequence:
    """Uniform random amplitudes inside ``fraction`` of the box, seeded."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"a random start needs finite bounds, got {bounds}")
    amps = rng.uniform(fraction * lo, fraction * hi, size=(grid.segments, len(channels)))
    return PulseSequence(
        grid=grid, amplitudes=amps, channels=tuple(channels), sign=sign, bounds=bounds
    )
