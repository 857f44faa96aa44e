"""Drift Hamiltonians and control operators for the two platforms.

Spin samples (always-on scalar couplings) give

    H = sum_j pi*nu_j Z_j + sum_{i<j} (pi/2) J_ij Z_i Z_j      [rad/s]

with control channels pi*X_j and pi*Y_j per spin, so control amplitudes
are plain Hz.  The qubit chain (tunable couplers) gives

    H = sum_j (w_j n_j + (eta_j/2) n_j (n_j - 1))
      + sum_j g_j (a†_j a_{j+1} + a_j a†_{j+1})                [rad/ns]

with channels (a_j + a†_j) and i(a_j - a†_j); chain amplitudes are rad/ns.
Everything is converted to angular frequency at build time so the pulse
engine never sees a 2*pi.

``sample_registry()`` loads the packaged catalogue, ``data/samples.json``,
once per process, bit-exactly and read-only, with reference schedules at the
tabulated sizes only; samples are addressed by their exact names.  Each
field name carries its unit: shifts and couplings in Hz, idle frequencies in
GHz, anharmonicities and coupler strengths in MHz, relaxation times in s
(``t1_s``, ``t2_s``) for spins and in us (``t1_us``, ``t2_us``) for qubits.
Spin and site indices must be integers (numpy integers included); a float
is a TypeError rather than being truncated.  Spin subsets are chosen by
``NmrSample.restricted``.  Catalogue shifts are laboratory-frame values;
callers substitute rotating-frame offsets via ``with_shifts`` /
``with_idle_frequencies`` before building.  The models are closed systems:
relaxation times and formulas are inert metadata that the loader skips.
Non-finite shifts, couplings or frequencies, and repeated spin labels, are
rejected when a sample is constructed.

A ``SystemModel`` is its ``pattern``, read-only and checked finite and
Hermitian at construction: the entries where the drift or some control is
nonzero, the drift's values on all of them and the controls' on the driven
ones.  The pulse engine reads only it and what the model derives from it
once; the dense ``drift`` and ``control_stack`` are views, built on request.
Each builder lists its drift terms and its x and y drives, and ``_model``
forms each as a sparse Kronecker chain, straight into the pattern.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SampleNotFoundError

__all__ = [
    "NmrSample",
    "ScSample",
    "SystemModel",
    "build_nmr",
    "build_sc",
    "frozen_subsystem_hamiltonian",
    "sample_registry",
    "SampleRegistry",
    "NMR_AMPLITUDE_BOUND_HZ",
    "SC_AMPLITUDE_BOUND_RAD_PER_NS",
]

# Default box bounds for control amplitudes; callers pass bounds per problem:
# +-20 kHz for spin rf channels, +-2*pi*50 MHz for chain drive channels.
NMR_AMPLITUDE_BOUND_HZ = 2.0e4
SC_AMPLITUDE_BOUND_RAD_PER_NS = 2.0 * math.pi * 50.0e-3

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class NmrSample:
    """A molecular spin system: labelled spins, shifts, scalar couplings."""

    name: str
    spins: tuple[tuple[str, float], ...]  # (label, chemical shift in Hz)
    couplings: Mapping[tuple[int, int], float]  # (i, j) i<j -> Hz

    def __post_init__(self):
        spins = tuple((str(l), float(s)) for l, s in self.spins)
        if not spins:
            raise ValueError(f"no spins in sample {self.name}")
        if not all(math.isfinite(s) for _, s in spins):
            raise ValueError(f"non-finite chemical shift in {self.name}")
        labels = [label for label, _ in spins]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(
                f"spin labels must be distinct in {self.name}, got {repeated} more than once"
            )
        canon: dict[tuple[int, int], float] = {}
        n = len(spins)
        for (i, j), val in dict(self.couplings).items():
            i, j = operator.index(i), operator.index(j)
            if i == j:
                raise ValueError(f"self-coupling on spin {i} in sample {self.name}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"coupling ({i},{j}) out of range in {self.name}")
            if not np.isfinite(val):
                raise ValueError(f"non-finite coupling ({i},{j}) in {self.name}")
            key = (min(i, j), max(i, j))
            if key in canon and canon[key] != val:
                raise ValueError(f"conflicting duplicate coupling {key} in {self.name}")
            canon[key] = float(val)
        object.__setattr__(self, "couplings", MappingProxyType(canon))
        object.__setattr__(self, "spins", spins)

    def __reduce__(self):
        # A read-only mapping does not pickle; construction rebuilds it.
        return NmrSample, (self.name, self.spins, dict(self.couplings))

    @property
    def size(self) -> int:
        return len(self.spins)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.spins)

    def coupling(self, i: int, j: int) -> float:
        return self.couplings.get((min(i, j), max(i, j)), 0.0)

    def with_shifts(self, shifts: Sequence[float] | float) -> "NmrSample":
        """Replace chemical shifts, e.g. with rotating-frame offsets."""
        if np.isscalar(shifts):
            shifts = [float(shifts)] * self.size
        if len(shifts) != self.size:
            raise ValueError("shift count does not match spin count")
        spins = tuple((l, float(s)) for (l, _), s in zip(self.spins, shifts))
        return dataclasses.replace(self, spins=spins)

    def restricted(self, indices: Iterable[int]) -> "NmrSample":
        """Sub-sample on the given spins (sorted), keeping their couplings."""
        idx = sorted(set(operator.index(i) for i in indices))
        if not idx:
            raise ValueError(f"no spins chosen from sample {self.name}")
        if idx[0] < 0 or idx[-1] >= self.size:
            raise ValueError(f"spin indices {idx} out of range for sample {self.name}")
        remap = {old: new for new, old in enumerate(idx)}
        spins = tuple(self.spins[i] for i in idx)
        coup = {
            (remap[i], remap[j]): v
            for (i, j), v in self.couplings.items()
            if i in remap and j in remap
        }
        return NmrSample(
            name=f"{self.name}[{','.join(self.labels[i] for i in idx)}]",
            spins=spins,
            couplings=coup,
        )


@dataclass(frozen=True)
class ScSample:
    """A chain of anharmonic qubits with switchable nearest-neighbour couplers.

    The coupler strength is an operating point, not a device constant, so
    one value serves every coupler of the chain.
    """

    name: str
    qubits: tuple[tuple[str, float, float], ...]  # (label, idle GHz, anharmonicity MHz)
    coupling_mhz: float = 20.0
    truncation: int = 2

    def __post_init__(self):
        object.__setattr__(self, "truncation", operator.index(self.truncation))
        if self.truncation < 2:
            raise ValueError("per-site truncation must be at least 2")
        qubits = tuple((str(l), float(w), float(e)) for l, w, e in self.qubits)
        if not qubits:
            raise ValueError(f"no qubits in sample {self.name}")
        if not all(math.isfinite(w) and math.isfinite(e) for _, w, e in qubits):
            raise ValueError(f"non-finite idle frequency or anharmonicity in {self.name}")
        object.__setattr__(self, "coupling_mhz", float(self.coupling_mhz))
        if not math.isfinite(self.coupling_mhz):
            raise ValueError(f"non-finite coupler strength in {self.name}")
        object.__setattr__(self, "qubits", qubits)

    @property
    def size(self) -> int:
        return len(self.qubits)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _, _ in self.qubits)

    def idle_ghz(self, j: int) -> float:
        return self.qubits[j][1]

    def anharmonicity_mhz(self, j: int) -> float:
        return self.qubits[j][2]

    def with_idle_frequencies(self, ghz: Sequence[float] | float) -> "ScSample":
        """Replace idle frequencies, e.g. with rotating-frame offsets."""
        if np.isscalar(ghz):
            ghz = [float(ghz)] * self.size
        if len(ghz) != self.size:
            raise ValueError("frequency count does not match qubit count")
        qubits = tuple((l, float(w), e) for (l, _, e), w in zip(self.qubits, ghz))
        return dataclasses.replace(self, qubits=qubits)


@dataclass(frozen=True, eq=False)
class SystemModel:
    """The operators as their ``pattern``: (rows, cols, drift values (nnz,),
    driven (nnz,) bool, control values (A, p)), control a on channel
    ``channel_labels[a]``.  Its entries, distinct and in the C order of H^T,
    are where the drift or some control is nonzero, ``driven`` marks the p
    where some control is, and the controls' values are given on those only.
    Each operator must be finite and Hermitian.  d = prod(site_dims), kept as
    a tuple of integers >= 1; the channel labels must be distinct and the
    platform "nmr" or "sc".  ``coupling_mask``, when given, is kept as a tuple
    of one bool per boundary between neighbouring sites.  Arrays already of
    the pattern's dtypes are kept, not copied, and made read-only.
    """

    pattern: tuple[np.ndarray, ...]
    channel_labels: tuple[str, ...]
    site_dims: tuple[int, ...]
    platform: str  # "nmr" | "sc"
    coupling_mask: tuple[bool, ...] | None = None

    def __post_init__(self):
        labels = tuple(self.channel_labels)
        dims = tuple(operator.index(d) for d in self.site_dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"site dimensions must be >= 1, got {dims}")
        mask = self.coupling_mask
        if mask is not None:
            mask = tuple(bool(on) for on in mask)
            if len(mask) != len(dims) - 1:
                raise ValueError(f"coupling mask needs {len(dims) - 1} entries, got {len(mask)}")
        if self.platform not in ("nmr", "sc"):
            raise ValueError(f"platform must be 'nmr' or 'sc', got {self.platform!r}")
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"channel labels must be distinct, got {repeated} more than once")
        if len(self.pattern) != 5:
            raise ValueError("a pattern is (rows, cols, drift values, driven, control values)")
        dtypes = (np.intp, np.intp, complex, bool, complex)
        pattern = tuple(np.ascontiguousarray(a, dtype=t) for a, t in zip(self.pattern, dtypes))
        rows, cols, drift, driven, controls = pattern
        dim, count, shapes = math.prod(dims), len(labels), [array.shape for array in pattern]
        if shapes != [(len(rows),)] * 4 + [(count, driven.sum())]:
            raise ValueError(f"pattern of shapes {shapes} does not fit {count} channel labels")
        keys, flipped = cols * dim + rows, rows * dim + cols
        within = ((rows | cols) >= 0) & (np.maximum(rows, cols) < dim)
        if not np.all(within & (np.diff(keys, prepend=-1) > 0)):
            raise ValueError(f"pattern entries must be distinct, below d = {dim}, in H^T's C order")
        # max |A - A†| may reach 1e-12 max(1, max |A_ij|): lab-frame shifts reach 1e9 rad/s.
        named = [(f"control {label!r}", values) for label, values in zip(labels, controls)]
        for on, operators in ((slice(None), [("drift", drift)]), (driven, named)):
            at = np.searchsorted(keys[on], flipped[on])
            mirrored = keys[on].take(at, mode="clip") == flipped[on]
            for what, values in operators:
                if not np.isfinite(values).all():
                    raise ValueError(f"{what}: matrix entries must be finite")
                mirror = np.zeros_like(values)
                mirror[mirrored] = values[at[mirrored]]
                dev = float(np.abs(values - mirror.conj()).max(initial=0.0))
                if dev > 1e-12 * max(1.0, float(np.abs(values).max(initial=0.0))):
                    raise ValueError(f"{what}: matrix is not Hermitian, max |A - A†| = {dev:.3e}")
        for array in pattern:
            array.flags.writeable = False
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "channel_labels", labels)
        object.__setattr__(self, "site_dims", dims)
        object.__setattr__(self, "coupling_mask", mask)

    def __reduce__(self):
        # Copies and unpickled models go through construction, so they are read-only too.
        return SystemModel, tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def _dense(self, values: np.ndarray, on) -> np.ndarray:
        dense = np.zeros((len(values), self.dim, self.dim), dtype=complex)
        dense[:, self.pattern[0][on], self.pattern[1][on]] = values
        dense.flags.writeable = False
        return dense

    # Read-only dense views of the operators, (d, d) and (A, d, d), built on each request.
    drift = property(lambda self: self._dense(self.pattern[2][None], slice(None))[0])
    control_stack = property(lambda self: self._dense(self.pattern[4], self.pattern[3]))

    @cached_property
    def operator_norms(self) -> tuple[np.floating, np.ndarray]:
        """(||drift||_1, read-only (A,) ||H_a||_1), each the largest column sum of |entries|.

        Read from ``pattern``, built once, on first use.  Column sums of the
        pattern values add in row order, as over a dense column: the same bits.
        The two controls of a ``drive_pairs`` pair have equal norms, and the
        pulse engine's norm bound counts a pair's norm once, times
        hypot(u_a, u_b), rather than each control's times |u|.
        """
        _, cols, drift, driven, controls = self.pattern
        driven_cols = cols[driven]
        control_norms = np.array(
            [np.bincount(driven_cols, np.abs(v), minlength=self.dim).max() for v in controls]
        )
        control_norms.flags.writeable = False
        return np.bincount(cols, np.abs(drift), minlength=self.dim).max(), control_norms

    @cached_property
    def drive_pairs(self) -> np.ndarray:
        """Read-only (P, 2) channel indices (a, b), a < b, of the drive pairs.

        Controls a and b pair when, at every driven ``pattern`` entry,
        control b's value is +i or -i times control a's, so the two have the
        same nonzeros; each control is in at most one pair, the first it
        forms.  Every entry of u_a H_a + u_b H_b then has modulus
        hypot(u_a, u_b) |(H_a)_ij|, so that is its exact 1-norm.  A spin's or
        a chain site's x and y drives pair.  The comparison is exact, as
        multiplying by +-i is.  Built once, on first use.
        """
        controls = self.pattern[4]
        pairs, paired = [], set()
        for a, b in itertools.combinations(range(len(controls)), 2):
            if a in paired or b in paired:
                continue
            turned = 1j * controls[a]
            if np.all((controls[b] == turned) | (controls[b] == -turned)):
                pairs.append((a, b))
                paired.update((a, b))
        pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        pairs.flags.writeable = False
        return pairs

    @cached_property
    def spin_form(self) -> tuple[np.ndarray, ...] | None:
        """(diagonal, bits, drive, z, basis), read-only, when every H_k is
        P_k R_k P_k† with P_k diagonal and R_k real symmetric; else None.

        That holds when, on ``pattern``, the drift is real and diagonal, and
        each control a, for one bit b of the basis index, holds z_a at every
        (i, i ^ b) with bit b of i clear, conj(z_a) at every one with it
        set, and nothing else: a drive on one spin, z = pi for pi X, -i pi
        for pi Y and i for the chain's i(a - a†).  ``bits`` lists the
        distinct bits, ``drive[a]`` indexes control a's bit there, and
        ``basis`` holds the flattened (d, d) real matrices D (the drift's
        ``diagonal``) and then X_b, 1 at every (i, i ^ b), for each bit b.
        The check is exact, so a model that is not of this form takes the
        pulse engine's complex kernel, whatever its platform.  Built once,
        on first use.
        """
        rows, cols, drift, driven, controls = self.pattern
        d = self.dim
        on_diagonal = rows == cols
        if d & (d - 1) or drift[~on_diagonal].any() or drift.imag.any():
            return None
        driven_rows, driven_cols = rows[driven], cols[driven]
        flips, z = [], []
        for values in controls:
            nonzero = values != 0
            row = driven_rows[nonzero]
            flip = row ^ driven_cols[nonzero]
            bit = int(flip[0]) if len(flip) == d else 0
            if not bit or bit & (bit - 1) or (flip != bit).any():
                return None
            values, low = values[nonzero], (row & bit) == 0
            z_a = values[low][0]
            if (values[low] != z_a).any() or (values[~low] != z_a.conj()).any():
                return None
            flips.append(bit)
            z.append(z_a)
        diagonal = np.zeros(d)
        diagonal[rows[on_diagonal]] = drift[on_diagonal].real
        bits, drive = np.unique(np.array(flips, dtype=np.int64), return_inverse=True)
        index = np.arange(d)
        basis = np.zeros((1 + len(bits), d, d))
        basis[0, index, index] = diagonal
        for j, bit in enumerate(bits):
            basis[1 + j, index, index ^ bit] = 1.0
        z = np.array(z, dtype=complex)
        form = (diagonal, bits, drive.reshape(-1), z, basis.reshape(len(basis), -1))
        for array in form:
            array.flags.writeable = False
        return form

    @property
    def dim(self) -> int:
        return math.prod(self.site_dims)

    @property
    def num_channels(self) -> int:
        return len(self.channel_labels)


def _kron_chain(factors: Mapping, dims: Sequence[int], scale: float = 1.0) -> tuple:
    """(keys, values), keyed col * d + row, of ``scale`` times the Kronecker
    chain of ``factors[i]`` on site i and identities: index arithmetic over
    the factors' nonzeros, the values multiplied left to right as in np.kron."""
    rows = cols = np.zeros(1, dtype=np.intp)
    values = np.ones(1, dtype=complex)
    for i, d in enumerate(dims):
        factor = factors.get(i, np.eye(d))
        r, c = np.nonzero(factor)
        values = (values[:, None] * factor[r, c]).reshape(-1)
        rows, cols = (rows[:, None] * d + r).reshape(-1), (cols[:, None] * d + c).reshape(-1)
    return cols * math.prod(dims) + rows, scale * values


def _pattern(dim: int, operators: Sequence[list]) -> tuple[np.ndarray, ...]:
    """The pattern of operators, the drift first, each a list of terms (keys,
    values) keyed col * dim + row: an operator's terms add in order, as a dense
    sum adds them, and entries that end zero on every operator drop out."""
    terms = [(a, keys, values) for a, op in enumerate(operators) for keys, values in op]
    keys = np.concatenate([np.zeros(0, dtype=np.intp), *(k for _, k, _ in terms)])
    keys, at = np.unique(keys, return_inverse=True)
    values = np.zeros((len(operators), len(keys)), dtype=complex)
    for (a, _, term), where in zip(terms, np.split(at, np.cumsum([len(k) for _, k, _ in terms]))):
        np.add.at(values[a], where, term)
    driven = (values[1:] != 0).any(axis=0)
    kept = driven | (values[0] != 0)
    keys = keys[kept]
    return keys % dim, keys // dim, values[0, kept], driven[kept], values[1:, driven]


def _model(
    dims: tuple[int, ...], terms: Iterable, drives: tuple, site_labels: Sequence[str],
    platform: str, coupling_mask: Sequence[bool] | None = None,
) -> SystemModel:
    """Model whose drift sums the terms ``(c, {site: op})`` with c != 0, in order,
    each c times one Kronecker chain over sites.  Site j gets the two ``drives``
    as channels ``x:<site_labels[j]>`` and ``y:<site_labels[j]>``.
    """
    drift = [_kron_chain(factors, dims, c) for c, factors in terms if c != 0.0]
    controls = [[_kron_chain({pos: op}, dims)] for pos in range(len(dims)) for op in drives]
    labels = [f"{axis}:{label}" for label in site_labels for axis in "xy"]
    pattern = _pattern(math.prod(dims), [drift, *controls])
    return SystemModel(pattern, labels, dims, platform, coupling_mask)


def build_nmr(sample: NmrSample) -> SystemModel:
    """Spin-system model on every spin of ``sample``.

    The drift is diagonal in the computational basis; each spin gets an x
    and a y rf channel.  Build a model on a subset from ``restricted``.
    """
    terms = [(math.pi * shift, {j: _SZ}) for j, (_, shift) in enumerate(sample.spins)]
    terms += [((math.pi / 2.0) * v, {i: _SZ, j: _SZ}) for (i, j), v in sample.couplings.items()]
    return _model((2,) * sample.size, terms, (math.pi * _SX, math.pi * _SY), sample.labels, "nmr")


def frozen_subsystem_hamiltonian(sample: NmrSample, frozen: Iterable[int]) -> SystemModel:
    """Reduced model for the other spins while the frozen ones sit in |0...0>.

    The active spins are the complement of ``frozen``, in sample order.
    Each frozen spin p contributes its coupling J_p,i as a +J_p,i/2 shift on
    every active spin i (Z eigenvalue +1 on |0>), which is exactly how the
    full drift acts on the invariant frozen-block-at-ground subspace.
    Freezing every spin, or an index outside the sample, is a ValueError.
    """
    frozen_set = sorted(set(operator.index(i) for i in frozen))
    if frozen_set and (frozen_set[0] < 0 or frozen_set[-1] >= sample.size):
        raise ValueError(f"frozen spins {frozen_set} out of range for sample {sample.name}")
    active = [i for i in range(sample.size) if i not in frozen_set]
    if not active:
        raise ValueError(f"freezing every spin of {sample.name} leaves none active")
    shifted = [
        shift + 0.5 * sum(sample.coupling(p, i) for p in frozen_set)
        for i, (_, shift) in enumerate(sample.spins)
    ]
    return build_nmr(sample.with_shifts(shifted).restricted(active))


def build_sc(
    sample: ScSample,
    coupling_mask: Sequence[bool] | None = None,
    sites: Sequence[int] | None = None,
) -> SystemModel:
    """Chain model on a contiguous run of qubits with per-boundary couplers.

    With the default two-level truncation the anharmonicity term vanishes
    identically (n(n-1) = 0 on {0, 1}).
    """
    d = sample.truncation
    sites = list(range(sample.size)) if sites is None else [operator.index(s) for s in sites]
    if not sites:
        raise ValueError(f"empty site list for sample {sample.name}")
    if sites != list(range(sites[0], sites[0] + len(sites))):
        raise ValueError("chain subsystems must be contiguous site runs")
    if sites[0] < 0 or sites[-1] >= sample.size:
        raise ValueError("site indices out of range")
    n = len(sites)
    if coupling_mask is None:
        coupling_mask = (True,) * (n - 1)
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)  # the lowering operator
    up = a.conj().T
    num = up @ a
    anh = num @ num - num  # n(n-1)
    g = 2.0 * math.pi * 1.0e-3 * sample.coupling_mhz  # MHz -> rad/ns
    terms = []
    for pos, q in enumerate(sites):
        terms.append((2.0 * math.pi * sample.idle_ghz(q), {pos: num}))  # GHz -> rad/ns
        if d > 2:
            eta = 2.0 * math.pi * 1.0e-3 * sample.anharmonicity_mhz(q)
            terms.append((0.5 * eta, {pos: anh}))
    for b, on in zip(range(n - 1), coupling_mask):  # SystemModel checks the mask's length
        if on:
            terms += [(g, {b: up, b + 1: a}), (g, {b: a, b + 1: up})]
    drives = (a + up, 1j * (a - up))
    return _model((d,) * n, terms, drives, [sample.labels[q] for q in sites], "sc", coupling_mask)


# ---------------------------------------------------------------------------
# Registry


def _parse_nmr(name: str, spec: Mapping) -> NmrSample:
    spins = tuple((s["label"], float(s["shift_hz"])) for s in spec["spins"])
    labels = [label for label, _ in spins]
    # NmrSample orders each pair and rejects conflicting duplicates.
    pairs = spec.get("couplings_hz", [])
    couplings = {(labels.index(a), labels.index(b)): val for a, b, val in pairs}
    return NmrSample(name=name, spins=spins, couplings=couplings)


def _parse_sc(name: str, spec: Mapping) -> ScSample:
    # ScSample converts the values and owns the chain defaults.
    qubits = tuple((q["label"], q["idle_ghz"], q["anharmonicity_mhz"]) for q in spec["qubits"])
    chain = {key: spec[key] for key in ("coupling_mhz", "truncation") if key in spec}
    return ScSample(name=name, qubits=qubits, **chain)


@dataclass(frozen=True)
class SampleRegistry:
    """The built-in catalogue: spin samples, chain samples and schedules.

    ``schedules[platform]`` holds the segment length ``dt`` and, per system
    size, a row: ``igrape``, the segment count of each stage of the
    iterative scheme; ``grape``, the segment count of the single-sequence
    baseline; and ``transfer``, the transfer time.  Times are in seconds
    for spin samples and in nanoseconds for the qubit chain.
    """

    nmr: Mapping[str, NmrSample]
    sc: Mapping[str, ScSample]
    schedules: Mapping[str, Mapping]

    def get(self, name: str) -> NmrSample | ScSample:
        if name in self.nmr:
            return self.nmr[name]
        if name in self.sc:
            return self.sc[name]
        raise SampleNotFoundError(
            f"no sample named {name!r}; known: {sorted([*self.nmr, *self.sc])}"
        )

    def reference_schedule(self, platform: str, size: int) -> dict:
        """Reference segment length and budgets at a tabulated size."""
        size = operator.index(size)  # TypeError if not an integer, as in restricted()
        table = self.schedules.get(platform)
        if table is None:
            raise KeyError(f"no schedule table for platform {platform!r}")
        sizes = table["sizes"]
        if size not in sizes:
            raise KeyError(
                f"no {platform} schedule for size {size}; tabulated sizes: {sorted(sizes)}"
            )
        row = sizes[size]
        return {
            "dt": float(table["dt"]),
            "igrape": list(row["igrape"]),
            "grape": int(row["grape"]),
        }


def _read_only(value):
    """Parsed JSON with mappings as read-only views and lists as tuples."""
    if isinstance(value, Mapping):
        return MappingProxyType({key: _read_only(item) for key, item in value.items()})
    if isinstance(value, list):
        return tuple(_read_only(item) for item in value)
    return value


@cache
def sample_registry() -> SampleRegistry:
    """The built-in catalogue, loaded once per process and shared read-only."""
    doc = json.loads(resources.files("qoc.data").joinpath("samples.json").read_text())
    for table in doc["schedules"].values():  # JSON object keys are strings
        table["sizes"] = {int(size): row for size, row in table["sizes"].items()}
    nmr = {name: _parse_nmr(name, spec) for name, spec in doc["nmr_samples"].items()}
    sc = {name: _parse_sc(name, spec) for name, spec in doc["sc_samples"].items()}
    return SampleRegistry(
        nmr=MappingProxyType(nmr), sc=MappingProxyType(sc), schedules=_read_only(doc["schedules"])
    )
