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

A model is its ``pattern``, and every pass over the operators reads it:
the union of the nonzeros of the drift and of every control, the drift's
values on all of them, a mask of the driven ones, where some control is
nonzero, and the controls' values on those.  What depends on the operators
alone, the model derives from it once: their norms (``operator_norms``),
the x/y drive pairs (``drive_pairs``) and the real kernel's form
(``spin_form``).  The qubit chain's single-qubit drives and couplings leave
544 of 4096 entries at 6 qubits, 384 of them driven, and 2944 of 65536 at 8.

Routes
------
``propagate`` applies the K segments by one of two routes, chosen once per
call from its inputs; both give the same states to roundoff.  One loop,
``_sweep``, walks the segments forward or backward on either route.

Both routes assemble H_k by ``_hamiltonian_chunks``, at O(A p) per segment
for the p pattern entries that some control touches: one real GEMM per
block of segments computes H_k there, the pattern's other entries hold the
drift's values, written once per call, and the rest of each H_k stays zero.
The dense route's real kernel is the exception: it builds a real matrix per
segment itself.  Both routes truncate Taylor series under one rule.  The
bound

    theta_k = dt (||H_drift||_1 + sum_(a, b) hypot(u_a(k), u_b(k)) ||H_a||_1
                  + sum_c |u_c(k)| ||H_c||_1) >= dt ||H_k||_1 >= dt ||H_k||_2,

(a, b) running over the model's ``drive_pairs`` and c over the other
controls, scales each segment to a norm theta that degree m reaches,
meaning that the leading tail term theta^(m+1) / (m+1)! is at most 2^-53.
A pair's term is the exact 1-norm of u_a H_a + u_b H_b, whose every entry
has modulus hypot(u_a, u_b) |(H_a)_ij|.

- Dense: ``segment_unitaries`` fills the stack of propagators by one of two
  kernels, chosen from the model's operators.  The real kernel takes a real
  diagonal drift with controls that each drive one spin, as every spin
  sample has: it rotates each spin's drive phase out, H_k = P_k R_k P_k†
  with P_k diagonal and R_k real symmetric, and evaluates cos and sin of
  2^-j_k dt R_k as real Taylor polynomials, then takes j_k double-angle
  steps.  The complex kernel takes every other model, such as a coupled
  chain: it assembles all K segments as one chunk and overwrites them by
  batched Taylor scaling and squaring, one degree m per call, the
  polynomial of 2^-j_k (+-i dt H_k) by matrix products, then j_k
  squarings.  Either way j_k is the least count that brings the segment's
  norm bound times 2^-j_k within the polynomial's reach.  Each sweep step
  is one zgemv call on the stored U_k, Fortran-ordered, that writes the
  next state in place in its row of the sweep's output; going backward,
  the call's trans = 2 applies U_k† itself, with no conjugate pass over
  the states.
- Action: the sweep assembles one chunk of segments at a time and applies
  exp(+-i dt H_k) to the state directly by a truncated Taylor series
  (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488); no propagator is
  formed.  theta_k sets s_k = max(1, ceil(theta_k)) steps of norm at most
  1, each truncated at the least degree m_k that reaches theta_k / s_k.
  Each term is one zgemv call, its alpha worked out once per sweep for
  each distinct (s_k, m_k).

``propagate`` computes this plan of steps and degrees once per call, and
takes the action route when the dense route's U stack, 16 K d^2 bytes, would
exceed DENSE_STACK_BYTES, or when 2 sum_k s_k m_k < K d, that is, when the
matvecs of the forward and backward sweeps (d^2 work each) cost less than
the dense route's d^3 work per segment.  That price was measured with one
Hermitian eigensolve per segment and is not yet re-fitted to the Taylor
fill.  Per segment, the complex kernel takes 3 complex d x d products at
dt ||H_k|| ~ 1e-4 and 8 on the 6-qubit chain; the real kernel takes 9 real
ones on the 4-spin NMR sample, each about a quarter of a complex one, and
35 at laboratory-frame shifts.
Small d, or a large dt ||H_k||, goes dense: the 4-spin NMR sample
(d = 16) needs 48 to 65 matvecs per segment and sweep.  The qubit chain at
full-box amplitudes goes by action from d = 32 on.  The action route runs
on the calling thread only.

Both routes call one zgemv, loaded at import from the file of scipy's
compiled BLAS extension, ``scipy/linalg/_fblas``, and not through
``scipy.linalg.blas``, whose package init a sweep never needs: after numpy,
a fresh process took a median 0.23 s and 28 MB of peak RSS for that import
and 0.017 s and 4 MB for ``import scipy`` and the file (seven processes, 2
shared x86-64 cores).  ``optimize._load_extension`` loads it, as it loads
the search's L-BFGS-B routine; where scipy has no such file, it imports
``scipy.linalg._fblas`` by name.  Either way zgemv is the function that
``scipy.linalg.blas.zgemv`` names.

Memory
------
Both routes keep (K+1, d) forward states, and what the backward sweep
needs: the dense route the (K, d, d) stack of segment unitaries, the action
route its plan, two length-K arrays.  The action route keeps no (K, d, d)
array; its backward sweep assembles the segment Hamiltonians again, chunk
by chunk in reverse.  Every chunked loop below cuts its segments by one
rule, ``_chunk_bounds``: equal chunks, whatever W is, each holding within
CHUNK_BYTES the one array a thread has in flight or, in the dense fill, a
quarter of its work array.  No pass copies or gathers the operators: each
reads the (A, p) control values that the model stores on its p driven
entries, and assembly computes an (n, p) block of values for n segments at
a time.  On the action route one chunk of H_k is in flight, in a buffer
that is zeroed, and given the drift's values on the pattern entries no
control touches, once per sweep and reused by every chunk, so a chunk is
valid until the next one.  On the dense route each busy thread has one
work array in flight.  The complex kernel's, beside U that first holds the
H_k, has up to 9 complex (n, d, d) slots (``_TAYLOR_SLOTS``): the stacked
powers of its chunk's X, their linear combinations and a spare for the
squarings.  The real kernel's has 11 real slots (``_COS_SIN_SLOTS``), 88
bytes per matrix entry against 144: R_k, its powers and the six blocks of
its Horner scheme, which then hold cos, sin and the double-angle steps; U
is written once, from them.  The gradient contraction forms the products
conj(bw_k[i]) fw_k[j] on the driven entries for one chunk of n segments at
a time, an (n, p) array.  The transients of a call do not grow with K, and
none outlive it.

Parallelism
-----------
Once the amplitudes are fixed the segment exponentials are independent, so
on the dense route ``segment_unitaries`` fills its chunks on up to W lanes,
W being the number of CPUs in the process's affinity mask (restrict a
process with ``taskset`` to run several side by side).  W sets only how
many lanes run, not how the segments are cut.  The calling thread is one
lane and the threads of a pool that the call starts, and joins before it
returns or raises, are the others; each lane takes the next chunk from one
shared queue, so none waits while chunks remain.  The matmul and
elementwise calls release the GIL.  For the complex kernel all K segments
are assembled on the calling thread before the lanes start, in blocks whose
bounds depend on the pattern and K only, the degree is chosen once per call
and the squarings once per segment.  The real kernel works out every
segment's drive amplitudes, phases and double-angle steps on the calling
thread, and a chunk builds its R_k by a GEMM in which each entry has one
nonzero term, exact in any chunk.  So every matrix gets the same arithmetic
whatever chunk and lane hold it, and U is bit-identical for any W and any
order in which the lanes take the chunks.  With W = 1, or a single chunk,
no thread starts.  On 2 shared cores, one BLAS thread, the 4-spin fill
(K = 1760, medians of 100 calls in three runs) took 6.9-7.1 ms at W = 2
against 9.2-10.3 ms at W = 1 from the seed-0 GRAPE start, and 7.9-8.2
against 10.1-10.8 ms with full-box pulses.  The module keeps no state
between calls, so a forked child needs no hook, and each concurrent caller
starts up to W - 1 threads of its own.  The action route's sweeps are
chains of dependent matvecs and start no thread.  They want one BLAS
thread, which the library leaves callers to set: on 2 cores one 6-qubit
chain gradient (d = 64, K = 1400, full-box pulses) took a median 0.29 s
under OpenBLAS's default two and 0.09 s under one; under two, cProfile put
0.19 s of it in the sweeps' Taylor terms and 0.07 s in the contraction's
small GEMMs.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError
from .hamiltonians import SystemModel
from .linalg import StateVector, _bipartition_matrix
from .optimize import _box, _load_extension

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
    "random_initial_pulses",
]

SIGN_FORWARD = "forward"
SIGN_REVERSED = "reversed"
_SIGN_FACTOR = MappingProxyType({SIGN_FORWARD: -1.0, SIGN_REVERSED: +1.0})

# Byte budget of one thread's array in flight in a chunked loop, or of a
# quarter of the dense fill's work array: a few per thread stay far below
# the U stack they fill and near cache size.  Median fill, seed-0 full-box
# pulses, one BLAS thread, 2 x86-64 cores with AVX-512, shared, by budget at
# 0.125 / 0.25 / 0.5 / 1 / 2 / 4 / 8 MiB.  Real kernel: 4-spin NMR (d = 16,
# K = 1760) 17 / 14 / 14 / 15 / 18 / 15 / 15 ms with W = 1 and 19 / 12 / 10 /
# 9 / 9 / 10 / 9 ms with W = 2; 5-spin NMR (d = 32, K = 2400) 87 / 73 / 84 /
# 91 / 108 / 92 / 101 ms with W = 1 and 114 / 71 / 56 / 56 / 58 / 55 / 72 ms
# with W = 2.  Complex kernel: 6-qubit chain at catalogue frequencies
# (d = 64, K = 1400), W = 1: 624 / 710 / 733 / 671 / 817 / 803 / 909 ms.
CHUNK_BYTES = 1 << 19

# Leading Taylor tail term allowed per action-route step or scaled dense
# segment: float64 roundoff.
_TAYLOR_TAIL = 2.0**-53

# _TAYLOR_REACH[m] is the largest step norm theta whose leading tail term
# theta^(m+1) / (m+1)! is at most _TAYLOR_TAIL.  Action-route steps have
# theta <= 1, which degree 18 reaches.
_TAYLOR_REACH = tuple(
    math.exp((math.log(_TAYLOR_TAIL) + math.lgamma(m + 2)) / (m + 1)) for m in range(19)
)

# Bytes of the largest U stack the dense route may form.  The catalogue's
# 8-qubit chain (d = 256, K = 1460, full box; 2 cores, one BLAS thread) took
# 26 s and 1.6 GB dense, a 1460 MiB stack, against 14.6 s and 92 MB by action;
# no other measured route changes at 256 MiB (6-qubit chain at catalogue
# frequencies: 88 MiB, dense; crotonic acid: 750 MiB, action by matvecs).
DENSE_STACK_BYTES = 1 << 28

# Matrix products that evaluate the dense route's Taylor polynomial of each
# degree by the schemes of Bader, Blanes & Casas (Mathematics 7 (2019) 1174).
_TAYLOR_PRODUCTS = MappingProxyType({8: 3, 18: 5})

# (n, d, d) slots of the one work array that _expm_taylor fills per chunk.
_TAYLOR_SLOTS = MappingProxyType({8: 6, 18: 9})

# Linear combinations of each scheme, one row per matrix formed: column 0
# multiplies I, column i > 0 the i-th of the scheme's stacked powers of X.
# Degree 8 over X, X^2, X^4, with r = sqrt(177): X^4 = X^2 (x1 X + x2 X^2), then
# the rows x3 X^2 + X^4, x4 I + x5 X + x6 X^2 + x7 X^4 and I + X + y2 X^2.
_R, _X3 = math.sqrt(177.0), 2 / 3
_T8_FIRST = np.array([[0.0, _X3 * (1 + _R) / 88, _X3 * (1 + _R) / 352]])
_T8 = np.array([
    [0.0, 0.0, _X3, 1.0],
    [(-271 + 29 * _R) / (315 * _X3), 11 * (-1 + _R) / (1260 * _X3),
     11 * (-9 + _R) / (5040 * _X3), (89 - _R) / (5040 * _X3**2)],
    [1.0, 1.0, (857 - 58 * _R) / 630, 0.0],
])  # fmt: skip
# Degree 18: B1 .. B5 over X, X^2, X^3, X^6.
_T18 = np.array([
    [0.0, -0.10036558103014462001, -0.00802924648241156960,
     -0.00089213849804572995, 0.0],
    [0.0, 0.39784974949964507614, 1.36783778460411719922,
     0.49828962252538267755, -0.00063789819459472151],
    [-10.9676396052962062593, 1.68015813878906197182, 0.05717798464788655127,
     -0.00698210122488052084, 0.00003349750170860705],
    [-0.09043168323908105619, -0.06764045190713819075, 0.06759613017704596460,
     0.02955525704293155274, -0.00001391802575160607],
    [0.0, 0.0, -0.09233646193671185927,
     -0.01693649390020817171, -0.00001400867981820361],
])  # fmt: skip

# Largest scaled norm of the real kernel, which truncates cos at degree 24 and
# sin at degree 25: its leading omitted term, cos's theta^26 / 26!, is at most
# _TAYLOR_TAIL.
_COS_SIN_REACH = math.exp((math.log(_TAYLOR_TAIL) + math.lgamma(27)) / 26)

# cos(Y) and sin(Y) / Y, each I plus a polynomial of degree 12 in Z = Y^2,
# cut into three blocks of Horner's rule in Z^4 with each block's I term
# moved to the block before as a Z^4 term: row 2 b holds cos's block b, row
# 2 b + 1 sin's, and column c - 1 multiplies Z^c.
_COS_SIN = np.array([
    [(-1) ** n / math.factorial(2 * n + odd) for n in range(4 * block + 1, 4 * block + 5)]
    for block in range(3) for odd in (0, 1)
])  # fmt: skip

# (n, d, d) real slots of the real kernel's work array per chunk: Y, Z .. Z^4
# and the six blocks of _COS_SIN.
_COS_SIN_SLOTS = 11

# Most lanes, the calling thread among them, that fill segment_unitaries
# chunks; it does not set the chunks.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


zgemv = _load_extension("linalg", "_fblas").zgemv


@dataclass(frozen=True)
class PulseGrid:
    """Uniform time grid: K segments of duration dt."""

    dt: float
    segments: int

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf):
            raise ValueError(f"segment duration must be positive and finite, got {self.dt}")
        # A float32 dt would make the sweeps' Horner coefficients complex64.
        object.__setattr__(self, "dt", float(self.dt))
        # TypeError for a count that is not an integer, as range(2.5) raises.
        object.__setattr__(self, "segments", operator.index(self.segments))
        if self.segments < 1:
            raise ValueError(f"segment count must be >= 1, got {self.segments}")


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """K x A real control amplitudes on a grid, with a sign convention tag.

    The sequence keeps a read-only copy of the amplitudes it is given.  It
    holds no amplitude box; the search's ``OptimizerConfig.bounds`` is one.
    """

    grid: PulseGrid
    amplitudes: np.ndarray
    channels: tuple[str, ...]
    sign: str

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.float64)
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
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "channels", tuple(self.channels))

    def with_amplitudes(self, amps: np.ndarray) -> "PulseSequence":
        return replace(self, amplitudes=amps)

    def reversed_play_order(self) -> "PulseSequence":
        """Segments in reverse time order under the opposite sign.

        For a reversed-sign sequence this is the physical (forward-sign)
        realisation of the adjoint of the optimized propagator.
        """
        flipped = SIGN_FORWARD if self.sign == SIGN_REVERSED else SIGN_REVERSED
        return replace(self, amplitudes=self.amplitudes[::-1], sign=flipped)


@dataclass(eq=False)
class Workspace:
    """Forward states of one propagation, and what its backward sweep needs.

    Every propagation keeps its (K+1, d) forward states.  On the dense route
    it also keeps the (K, d, d) segment unitaries, which the backward sweep
    reuses without copying, and ``plan`` is None.  On the action route
    ``unitaries`` is None and ``plan`` holds the Taylor steps and degrees
    that ``propagate`` computed: the backward sweep assembles the segment
    Hamiltonians again and applies the inverse of each segment to the
    adjoint vector by Taylor series.  Both sweeps run the same loop.
    """

    model: SystemModel
    pulses: PulseSequence
    unitaries: np.ndarray | None  # (K, d, d) on the dense route, else None
    plan: tuple[np.ndarray, np.ndarray] | None  # (steps, degrees) on the action route, else None
    forward: np.ndarray  # (K+1, d); forward[k] = state after k segments

    @property
    def final_amplitudes(self) -> np.ndarray:
        return self.forward[-1]

    def backward_adjoint(self, vec: np.ndarray) -> np.ndarray:
        """bw[k] = (U_K ... U_{k+2} U_{k+1})† vec, returned for k = 1..K."""
        return _sweep(self.model, self.pulses, self.unitaries, self.plan, vec, backward=True)


def segment_hamiltonians(model: SystemModel, amplitudes: np.ndarray) -> np.ndarray:
    """(K, d, d) stack of per-segment total Hamiltonians, each Fortran-ordered."""
    amps = np.asarray(amplitudes, dtype=np.float64)
    return next(_hamiltonian_chunks(model, amps, [(0, amps.shape[0])]))[1]


def _hamiltonian_chunks(model: SystemModel, amplitudes: np.ndarray, chunks):
    """Yield (start, H_start ... H_stop-1) for each (start, stop) in ``chunks``.

    Only the entries on the model's ``pattern`` are computed, into a buffer
    that holds H_k^T in C order, so each yielded H_k is Fortran-ordered, as
    zgemv takes it without a copy.  The buffer is zeroed once per call, and
    the pattern entries that no control touches, where every H_k holds the
    drift's value, are written into it once per call too.  The p entries
    that some control touches, the pattern's driven ones, change with the
    amplitudes: their (A, p) control values, viewed as interleaved float64
    (re, im) pairs so that the real amplitudes are not promoted to complex,
    go into one real GEMM per block of segments, plus the drift's values
    if the drift is nonzero on any of them: O(A p) per segment, in blocks of
    one ``_chunk_bounds`` cut for (p,) complex rows.  Each value is the same
    length-A dot product plus drift as a GEMM over all the pattern entries
    would give.  Every chunk reuses the buffer: a yielded chunk is valid
    until the next one is asked for.
    """
    d = model.dim
    rows, cols, drift, driven, controls = model.pattern
    controls = controls.view(np.float64)
    flat = cols * d + rows  # index of each pattern entry in a row of buf
    driven_drift = drift[driven]
    add_drift = driven_drift.any()
    row_bytes = 16 * max(1, len(driven_drift))
    chunks = [(start, stop, _chunk_bounds(stop - start, row_bytes)) for start, stop in chunks]
    longest = max((stop - start for start, stop, _ in chunks), default=0)
    buf = np.zeros((longest, d * d), dtype=complex)
    buf[:, flat[~driven]] = drift[~driven]
    block = max((b - a for _, _, blocks in chunks for a, b in blocks), default=0)
    # Flat indices of a block's driven values in its rows of buf; a shorter
    # block takes a prefix.
    scatter = (np.arange(block)[:, None] * (d * d) + flat[driven]).reshape(-1)
    for start, stop, blocks in chunks:
        h_t = buf[: stop - start]
        for a, b in blocks:
            values = (amplitudes[start + a : start + b] @ controls).view(complex)
            if add_drift:
                values += driven_drift
            h_t[a:b].reshape(-1)[scatter[: values.size]] = values.reshape(-1)
        yield start, h_t.reshape(-1, d, d).transpose(0, 2, 1)


def _chunk_bounds(segments: int, row_bytes: int) -> list[tuple[int, int]]:
    """(start, stop) of equal chunks of segments 0..segments-1, lengths within one.

    The one chunk rule of this module: a chunk holds at most
    max(1, CHUNK_BYTES // row_bytes) segments, ``row_bytes`` being the size
    of one segment's row of the array that a thread has in flight, so that
    array stays within CHUNK_BYTES.  Equal chunks leave no one- or two-row
    tail, whose BLAS products round differently from longer ones.
    """
    if not segments:
        return []
    count = -(-segments // max(1, CHUNK_BYTES // row_bytes))
    edges = [segments * i // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def segment_unitaries(model: SystemModel, pulses: PulseSequence) -> np.ndarray:
    """(K, d, d) stack of segment propagators U_k = exp(X_k), X_k = +-i dt H_k.

    Both kernels scale X_k by 2^-j_k, take its Taylor series to a degree
    whose truncated tail is at most 2^-53, and undo the scaling in j_k steps
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970); j_k is the
    least count that brings the segment's norm bound theta_k times 2^-j_k
    within reach of the degree.  Each step can double the error of the
    matrix it acts on, so U_k is accurate and unitary to about 2^j_k u, u the
    unit roundoff, which is of order theta_k u: a few u at theta_k ~ 1, and
    about 1e-11 at the laboratory-frame scale theta_k ~ 1e4.

    The real kernel takes every model that has a ``spin_form``: a real
    diagonal drift D, and controls that each drive one spin, as ``build_nmr``
    gives for any sample, restriction or frozen spins.  With the drive phases
    rotated out, H_k = P_k R_k P_k† for a diagonal P_k and a real symmetric
    R_k (``_spin_fill``), so U_k = P_k (cos(s R_k) + i sin(s R_k)) P_k†, with
    s = -dt forward and +dt reversed.  cos to degree 24 and sin to degree 25
    take 9 real d x d products, about the price of 2.25 complex ones, and
    each of the j_k double-angle steps 2 more (``_expm_cos_sin``).  The
    kernel's bound theta_k = dt (max |D| + sum_b r_b), the r_b being the
    spins' drive amplitudes, is never above the complex kernel's, and equals
    it when each spin's x and y drives pair, as ``build_nmr`` gives; its
    reach is 2.57, and laboratory-frame shifts take 13 steps.

    The complex kernel takes every other model, such as a coupled chain.  It
    evaluates the degree-m Taylor polynomial of 2^-j_k X_k by the schemes of
    Bader, Blanes & Casas (Mathematics 7 (2019) 1174), degree 8 in 3 complex
    products and degree 18 in 5, with theta_k the norm bound of Routes, and
    squares it j_k times; m is chosen once per call, for the fewest matrix
    products over all segments.

    For the complex kernel ``segment_hamiltonians`` assembles all K segments
    on the calling thread.  Its buffer holds each H_k^T C-ordered, and the
    chunks overwrite it in place by exp(i scale H_k^T) = U_k^T; the real
    kernel writes each U_k^T into a buffer of the same layout.  So the stack
    is returned transposed.  ``_chunk_bounds`` cuts the stack for rows of a
    quarter of a segment's share of the work array, so a chunk's work array
    stays within 4 CHUNK_BYTES rather than growing with K, and the chunks are
    the same for any W.  With more than one chunk and W > 1, the calling
    thread and a pool of min(W, chunks) - 1 threads that lives for this call
    fill them, each taking the next chunk from one shared queue
    (``_fill_chunks``).  Once a chunk raises no lane starts another, and the
    pool is joined before the first error is raised, so no thread writes
    into U once the call has returned or raised.
    """
    scale = _SIGN_FACTOR[pulses.sign] * pulses.grid.dt
    form = model.spin_form
    if form is None:
        degree, squarings = _scaling_plan(_norm_bounds(model, pulses))
        u_t = segment_hamiltonians(model, pulses.amplitudes).transpose(0, 2, 1)

        def fill(chunk):
            start, stop = chunk
            _expm_taylor(u_t[start:stop], scale, squarings[start:stop], degree)

        work_bytes = _TAYLOR_SLOTS[degree] * 16
    else:
        u_t, fill = _spin_fill(form, pulses, scale)
        work_bytes = _COS_SIN_SLOTS * 8

    # Rows of a quarter of a segment's share of the work array, so the array
    # stays within 4 CHUNK_BYTES.  The complex kernel's 4-spin fill (degree
    # 18, nine slots) at W = 2 by the array's budget, median time and peak
    # RSS growth over 20 gradients: 9 CHUNK_BYTES 26 ms, +28 MB; 4.5: 25 ms,
    # +17 MB; 4: 25 ms, +14 MB; 3: 28 ms; 1.8: 33 ms; 1: 39 ms.  Shorter
    # chunks make more numpy calls, over which the threads contend for the GIL.
    chunks = _chunk_bounds(len(u_t), work_bytes * model.dim**2 // 4)
    _fill_chunks(fill, chunks)
    return u_t.transpose(0, 2, 1)


def _fill_chunks(fill, chunks: list[tuple[int, int]]) -> None:
    """Call fill(chunk) once for each chunk, on min(W, chunks) lanes.

    The calling thread is one lane, and a pool of the other lanes' threads
    lives for this call.  Each lane takes the next chunk from one shared
    queue until it is empty, or until a chunk has raised.  The pool is
    joined before the first error is raised, so no thread outlives the call
    and none still writes into U.
    """
    lanes = min(_WORKERS, len(chunks))
    if lanes == 1:
        for chunk in chunks:
            fill(chunk)
        return
    queue, errors, lock = iter(chunks), [], threading.Lock()

    def lane():
        while True:
            with lock:
                chunk = None if errors else next(queue, None)
            if chunk is None:
                return
            try:
                fill(chunk)
            except BaseException as error:  # raised below, once every lane has returned
                with lock:
                    errors.append(error)

    with ThreadPoolExecutor(lanes - 1, thread_name_prefix="qoc-segments") as pool:
        for _ in range(lanes - 1):
            pool.submit(lane)
        lane()
    if errors:
        raise errors[0]


def _scaling_plan(theta: np.ndarray) -> tuple[int, np.ndarray]:
    """Degree m, and squarings j_k = max(0, ceil(log2(theta_k / reach_m))).

    m is the degree of _TAYLOR_PRODUCTS with the fewest matrix products over
    all segments: K times its products for the polynomial, plus sum_k j_k
    squarings.  A tie goes to the higher degree, which squares less.
    """
    best = None
    for degree, products in _TAYLOR_PRODUCTS.items():
        squarings = _halvings(theta, _TAYLOR_REACH[degree])
        cost = len(theta) * products + int(squarings.sum())
        if best is None or cost <= best[0]:
            best = cost, degree, squarings
    return best[1], best[2]


def _halvings(theta: np.ndarray, reach: float) -> np.ndarray:
    """Least j_k >= 0 with theta_k 2^-j_k <= reach: max(0, ceil(log2(theta_k / reach)))."""
    mantissa, exponent = np.frexp(theta / reach)
    return np.maximum(0, exponent - (mantissa == 0.5))


def _combine(coef: np.ndarray, powers: np.ndarray, out: np.ndarray) -> None:
    """out[j] = coef[j, 0] I + sum_i coef[j, i] powers[i - 1], for (p, n, d, d) powers.

    One real GEMM of the coefficient rows against the stacked powers, viewed
    as interleaved float64 (re, im) pairs, then the identity's diagonal.
    """
    rows, n, d, _ = out.shape
    flat = powers.view(np.float64).reshape(len(powers), -1)
    np.matmul(coef[:, 1:], flat, out=out.view(np.float64).reshape(rows, -1))
    out.reshape(rows, n, d * d)[:, :, :: d + 1] += coef[:, :1, None]


def _expm_taylor(h: np.ndarray, scale: float, squarings: np.ndarray, degree: int) -> None:
    """Overwrite a (n, d, d) chunk h of H_k by exp(i scale H_k), given the squarings j_k.

    Evaluates the degree-m Taylor polynomial T_m(X) = sum_{i<=m} X^i / i! at
    X = i scale 2^-j_k H_k in _TAYLOR_PRODUCTS[m] matrix products, m being 8
    or 18, by the schemes of Bader, Blanes & Casas (Mathematics 7 (2019)
    1174), each exactly T_m.  Each linear combination of powers is one
    ``_combine`` GEMM, and every product writes into h or into one work
    array of _TAYLOR_SLOTS[m] (n, d, d) slots.  Then the k-th result is
    squared j_k times.  Each matrix gets the same arithmetic whatever chunk
    it is in.
    """
    n, d, _ = h.shape
    work = np.empty((_TAYLOR_SLOTS[degree], n, d, d), dtype=complex)
    x = work[0]
    np.multiply(h, (1j * scale * np.ldexp(1.0, -squarings))[:, None, None], out=x)
    if degree == 8:  # T8 = (x3 X^2 + X^4)(x4 I + x5 X + x6 X^2 + x7 X^4) + I + X + y2 X^2
        p, b = work[:3], work[3:6]
        np.matmul(x, x, out=p[1])
        _combine(_T8_FIRST, p[:2], b[:1])
        np.matmul(p[1], b[0], out=p[2])
        _combine(_T8, p, b)
        np.matmul(b[0], b[1], out=h)
        h += b[2]
    else:  # degree 18: X^9 = B1 B5 + B4;  T18 = B2 + (B3 + X^9) X^9
        p, b = work[:4], work[4:9]
        np.matmul(x, x, out=p[1])
        np.matmul(p[1], x, out=p[2])
        np.matmul(p[2], p[2], out=p[3])
        _combine(_T18, p, b)
        np.matmul(b[0], b[4], out=p[0])
        p[0] += b[3]
        b[2] += p[0]
        np.matmul(b[2], p[0], out=h)
        h += b[1]
    result, spare = h, work[0]
    for done in range(int(squarings.max(initial=0))):
        more = squarings > done
        if more.all():
            np.matmul(result, result, out=spare)
            result, spare = spare, result
        else:
            part = result[more]
            result[more] = np.matmul(part, part, out=spare[: len(part)])
    if result is not h:
        h[...] = result


def _spin_fill(form, pulses: PulseSequence, scale: float):
    """(U^T buffer, chunk filler) of the real kernel, for a model's ``spin_form``.

    The controls on bit b add up to w_b = sum_a u_a z_a = r_b e^(-i phi_b)
    above the diagonal of X_b's pattern and conj(w_b) below it.  So
    H_k = P_k R_k P_k†, with R_k = D + sum_b r_b X_b real symmetric and P_k
    the diagonal phase e^(i phi_b) on each index with bit b set, which
    commutes with D; then U_k = P_k exp(i scale R_k) P_k†.  Here, for all K
    segments at once: the norm bounds theta_k = dt (max |D| + sum_b r_b),
    the halvings j_k, the phases and the coefficients of each
    Y_k = 2^-j_k scale R_k on the basis D, X_b.  A chunk forms its Y_k by one
    real GEMM against that basis, ``_expm_cos_sin`` writes exp(i scale R_k)
    into U, and the phases turn it into U_k^T = conj(P_k) exp(i scale R_k) P_k,
    R_k being symmetric.
    """
    diagonal, bits, drive, z, basis = form
    amps = pulses.amplitudes
    k, d = len(amps), len(diagonal)
    w = np.zeros((k, len(bits)), dtype=complex)
    for a, b in enumerate(drive):
        w[:, b] += amps[:, a] * z[a]
    r = np.abs(w)
    turn = np.divide(w, r, out=np.ones_like(w), where=r > 0).conj()  # e^(i phi_b)
    theta = pulses.grid.dt * (np.abs(diagonal).max() + r.sum(axis=1))
    halvings = _halvings(theta, _COS_SIN_REACH)
    coef = np.column_stack([np.ones(k), r]) * (scale * np.ldexp(1.0, -halvings))[:, None]
    phase = _drive_phases(turn, bits, d)
    u_t = np.empty((k, d, d), dtype=complex)

    def fill(chunk):
        start, stop = chunk
        y = (coef[start:stop] @ basis).reshape(-1, d, d)
        out = u_t[start:stop]
        _expm_cos_sin(y, halvings[start:stop], out)
        out *= phase[start:stop, :, None].conj()
        out *= phase[start:stop, None, :]

    return u_t, fill


def _drive_phases(turn: np.ndarray, bits: np.ndarray, d: int) -> np.ndarray:
    """(K, d) diagonals of the P_k: at index i, the product of turn[:, j] over bits[j] set in i.

    Built by doubling, one bit b at a time in ascending order: the indices
    with bit b set take the phases of those below b times turn_b, so every
    product runs over its set bits in ascending order.  A bit that no
    control drives copies them.  The phases are built in a C-ordered (d, K)
    array, so that each doubling writes one contiguous block, and returned
    as its (K, d) transpose.
    """
    phase = np.empty((d, len(turn)), dtype=complex)
    phase[0] = 1.0
    turn = turn.T
    column = {bit: j for j, bit in enumerate(bits.tolist())}
    for bit in (1 << i for i in range(d.bit_length() - 1)):
        if bit in column:
            np.multiply(phase[:bit], turn[column[bit]], out=phase[bit : 2 * bit])
        else:
            phase[bit : 2 * bit] = phase[:bit]
    return phase.T


def _expm_cos_sin(y: np.ndarray, halvings: np.ndarray, out: np.ndarray) -> None:
    """Write cos(2^j_k Y_k) + i sin(2^j_k Y_k) into out, for a real (n, d, d) chunk y of Y_k.

    Each Y_k is within _COS_SIN_REACH.  Z = Y^2, Z^2, Z^3 and Z^4 take four
    real matrix products; one GEMM combines them into the six blocks of
    _COS_SIN, Horner's rule in Z^4 takes two products each for cos(Y) and
    sin(Y) / Y, run as one stacked call per step, and S = Y (sin(Y) / Y) one
    more: nine in all.  Then the k-th pair is doubled j_k times, C <- 2 C^2 - I
    and S <- 2 S C, two products per step.  Each matrix gets the same
    arithmetic whatever chunk it is in.
    """
    n, d, _ = y.shape
    work = np.empty((_COS_SIN_SLOTS - 1, n, d, d))
    z, b = work[:4], work[4:]
    np.matmul(y, y, out=z[0])
    np.matmul(z[0], z[0], out=z[1])
    np.matmul(z[1], z[0], out=z[2])
    np.matmul(z[1], z[1], out=z[3])
    np.matmul(_COS_SIN, z.reshape(4, -1), out=b.reshape(6, -1))
    b[:2].reshape(2, n, d * d)[:, :, :: d + 1] += 1.0
    np.matmul(z[3], b[4:], out=z[:2])
    z[:2] += b[2:4]
    np.matmul(z[3], z[:2], out=b[4:])
    b[4:] += b[:2]  # b[4] = cos(Y), b[5] = sin(Y) / Y
    np.matmul(y, b[5], out=b[3])

    def double(products):  # (S C, C C) -> (2 S C, 2 C C - I)
        products *= 2.0
        products[1].reshape(-1, d * d)[:, :: d + 1] -= 1.0
        return products

    pair, spare = b[3:5], z[:2]  # (S, C)
    for done in range(int(halvings.max(initial=0))):
        more = halvings > done
        if more.all():
            pair, spare = double(np.matmul(pair, pair[1], out=spare)), pair
        else:
            part = pair[:, more]
            pair[:, more] = double(np.matmul(part, part[1]))
    out.real, out.imag = pair[1], pair[0]


def _norm_bounds(model: SystemModel, pulses: PulseSequence) -> np.ndarray:
    """theta_k of Routes, >= dt ||H_k||_1 >= dt ||H_k||_2, per segment.

    Each of the model's ``drive_pairs`` (a, b) counts hypot(u_a, u_b) in
    u_a's place and 0 in u_b's, as ||H_a||_1 = ||H_b||_1; every other control
    counts |u_c|.  Without pairs this is dt (||H_drift||_1 +
    sum_a |u_a(k)| ||H_a||_1), by the same GEMV.
    """
    drift, controls = model.operator_norms
    amps = pulses.amplitudes
    magnitudes = np.abs(amps)
    first, second = model.drive_pairs.T
    magnitudes[:, first] = np.hypot(amps[:, first], amps[:, second])
    magnitudes[:, second] = 0.0
    return pulses.grid.dt * (drift + magnitudes @ controls)


def _taylor_plan(model: SystemModel, pulses: PulseSequence) -> tuple[np.ndarray, np.ndarray]:
    """Steps s_k and degrees m_k of each segment's Taylor series (see Routes)."""
    theta = _norm_bounds(model, pulses)
    steps = np.maximum(1.0, np.ceil(theta))
    return steps, np.searchsorted(_TAYLOR_REACH, theta / steps)


def _action_is_cheaper(model: SystemModel, plan: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether the U stack would exceed DENSE_STACK_BYTES, or cost more than both sweeps."""
    steps, degrees = plan
    k, d = len(steps), model.dim
    return 16 * k * d * d > DENSE_STACK_BYTES or 2.0 * float(steps @ degrees) < k * d


def _taylor_apply(h: np.ndarray, psi: np.ndarray, alphas: tuple[complex, ...], steps: int):
    """exp(steps * c * h) psi, as ``steps`` Taylor series truncated at degree m.

    ``alphas`` is (c / m, ..., c / 2, c / 1).  Each series runs in Horner
    form, w <- psi + (c / j) h w for j = m ... 1, one zgemv call per term.
    """
    for _ in range(steps):
        w = psi
        for alpha in alphas:
            w = zgemv(alpha, h, w, 1.0, psi)
        psi = w
    return psi


def _sweep(
    model: SystemModel,
    pulses: PulseSequence,
    unitaries: np.ndarray | None,
    plan: tuple[np.ndarray, np.ndarray] | None,
    vec: np.ndarray,
    backward: bool,
) -> np.ndarray:
    """States of one sweep over the segments U_k = exp(+-i dt H_k), on either route.

    Forward: out[0] = vec and out[k+1] = U_k out[k], (K+1, d).
    Backward: out[K-1] = vec and out[k-1] = U_k† out[k], (K, d).
    Without a plan each step is one zgemv call on the stored, Fortran-ordered
    U_k (trans = 2 for U_k†), which writes the next row of ``out`` in place.
    With a plan each step applies the plan's Taylor series to the H_k that
    ``_hamiltonian_chunks`` yields, with the Horner alphas of each distinct
    (s_k, m_k) worked out once per sweep.
    """
    k_seg = pulses.grid.segments
    out = np.empty((k_seg if backward else k_seg + 1, model.dim), dtype=complex)
    out[-1 if backward else 0] = vec
    psi = out[-1 if backward else 0]
    # The backward sweep stops before segment 0: out[0] needs no inverse of it.
    first = int(backward)
    if plan is None:
        ops, rows = (unitaries[:0:-1], out[-2::-1]) if backward else (unitaries, out[1:])
        trans = 2 if backward else 0
        for u, row in zip(ops, rows):
            psi = zgemv(1.0, u, psi, 0.0, row, 0, 1, 0, 1, trans, 1)
            if psi is not row:  # zgemv returned a copy rather than write the row
                row[...] = psi
        return out
    walk = reversed if backward else iter
    step = -1 if backward else 1
    coef = (-1.0 if backward else 1.0) * 1j * _SIGN_FACTOR[pulses.sign] * pulses.grid.dt
    steps, degrees = (p.tolist() for p in plan)
    alphas = {
        (s, m): tuple(coef / s / j for j in range(m, 0, -1)) for s, m in set(zip(steps, degrees))
    }
    chunks = [(first + a, first + b) for a, b in _chunk_bounds(k_seg - first, 16 * model.dim**2)]
    for start, h in _hamiltonian_chunks(model, pulses.amplitudes, walk(chunks)):
        for i in walk(range(len(h))):
            k = start + i
            s, m = steps[k], degrees[k]
            psi = _taylor_apply(h[i], psi, alphas[s, m], int(s))
            out[k + step] = psi
    return out


def propagate(
    model: SystemModel, pulses: PulseSequence, initial: StateVector
) -> tuple[StateVector, Workspace]:
    """Apply the segments in order by the cheaper route; norm is preserved to roundoff."""
    if initial.site_dims != model.site_dims:
        raise ValueError(f"state sites {initial.site_dims} != model sites {model.site_dims}")
    if pulses.channels != model.channel_labels:
        raise ValueError(
            f"pulse channels {pulses.channels} != model channels {model.channel_labels}"
        )
    plan = _taylor_plan(model, pulses)
    if _action_is_cheaper(model, plan):
        unitaries = None
    else:
        plan, unitaries = None, segment_unitaries(model, pulses)
    fw = _sweep(model, pulses, unitaries, plan, initial.amplitudes, backward=False)
    ws = Workspace(model=model, pulses=pulses, unitaries=unitaries, plan=plan, forward=fw)
    return StateVector(fw[-1], initial.site_dims), ws


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
    """A[k, a] = <bw_k| H_a |fw_k>, summed over the entries some control touches.

    With (i, j) running over the p driven entries of the model's ``pattern``,
    the only entries where any (H_a)_ij is nonzero, A[k, a] is the sum of
    conj(bw_k[i]) fw_k[j] (H_a)_ij: the products of the gathered states form
    an (n, p) array per ``_chunk_bounds`` chunk of n segments, and one
    (n, p) @ (p, A) GEMM against the controls' values contracts it.
    """
    model = ws.model
    rows, cols, _, driven, controls = model.pattern
    rows, cols = rows[driven], cols[driven]
    fw = ws.forward[1:]  # state after segment k, k = 1..K
    bw = ws.backward_adjoint(adjoint)
    terms = np.empty((len(fw), model.num_channels), dtype=complex)
    for start, stop in _chunk_bounds(len(fw), 16 * max(1, len(rows))):
        pairs = bw[start:stop, rows]
        np.conjugate(pairs, out=pairs)
        pairs *= fw[start:stop, cols]
        np.matmul(pairs, controls.T, out=terms[start:stop])
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


def random_initial_pulses(
    grid: PulseGrid,
    channels: Sequence[str],
    bounds: tuple[float, float],
    seed,
    sign: str,
    fraction: float = 0.1,
) -> PulseSequence:
    """Uniform random amplitudes in ``fraction`` of the box about its centre, seeded."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lo, hi = _box(bounds)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be finite and within [0, 1], got {fraction}")
    centre, half = (lo + hi) / 2, (hi - lo) / 2
    amps = rng.uniform(
        centre - fraction * half, centre + fraction * half, size=(grid.segments, len(channels))
    )
    np.clip(amps, lo, hi, out=amps)  # centre ± half may round an ulp past an edge
    return PulseSequence(grid=grid, amplitudes=amps, channels=tuple(channels), sign=sign)
