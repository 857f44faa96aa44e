"""Drift Hamiltonians and control operators for the two platforms.

Spin samples (always-on scalar couplings) give

    H = sum_j pi*nu_j Z_j + sum_{i<j} (pi/2) J_ij Z_i Z_j      [rad/s]

with control channels pi*X_j and pi*Y_j per active spin, so control
amplitudes are plain Hz.  The qubit chain (tunable couplers) gives

    H = sum_j (w_j n_j + (eta_j/2) n_j (n_j - 1))
      + sum_j g_j (a†_j a_{j+1} + a_j a†_{j+1})                [rad/ns]

with channels (a_j + a†_j) and i(a_j - a†_j); chain amplitudes are rad/ns.
Everything is converted to angular frequency at build time so the pulse
engine never sees a 2*pi.

Registry values mirror the built-in catalogue bit-exactly.  Chemical shifts
are used exactly as configured: the catalogue stores laboratory-frame
values, and rotating-frame offsets (usually all zero) are substituted by
the caller via ``with_shifts`` / ``with_idle_frequencies`` before building.
The models are closed systems: the catalogue's relaxation times and
formulas are left unread.  Non-finite shifts, couplings or frequencies are
rejected when a sample is constructed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Iterable, Mapping, Sequence

import numpy as np
import yaml

from .errors import SampleNotFoundError
from .linalg import HermitianOperator

__all__ = [
    "NmrSample",
    "ScSample",
    "SystemModel",
    "build_nmr",
    "build_sc",
    "frozen_subsystem_hamiltonian",
    "sample_registry",
    "SampleRegistry",
    "load_samples_file",
    "NMR_AMPLITUDE_BOUND_HZ",
    "SC_AMPLITUDE_BOUND_RAD_PER_NS",
]

# Default box bounds for control amplitudes (overridable in configs):
# +-20 kHz for spin rf channels, +-2*pi*50 MHz for chain drive channels.
NMR_AMPLITUDE_BOUND_HZ = 2.0e4
SC_AMPLITUDE_BOUND_RAD_PER_NS = 2.0 * math.pi * 50.0e-3

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _embed(op: np.ndarray, position: int, dims: Sequence[int]) -> np.ndarray:
    """Single-site operator -> full-space operator (identity elsewhere)."""
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        out = np.kron(out, op if i == position else np.eye(d, dtype=complex))
    return out


@dataclass(frozen=True)
class NmrSample:
    """A molecular spin system: labelled spins, shifts, scalar couplings."""

    name: str
    spins: tuple[tuple[str, float], ...]  # (label, chemical shift in Hz)
    couplings: Mapping[tuple[int, int], float]  # (i, j) i<j -> Hz

    def __post_init__(self):
        canon: dict[tuple[int, int], float] = {}
        n = len(self.spins)
        for (i, j), val in dict(self.couplings).items():
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
        spins = tuple((str(l), float(s)) for l, s in self.spins)
        if not all(math.isfinite(s) for _, s in spins):
            raise ValueError(f"non-finite chemical shift in {self.name}")
        object.__setattr__(self, "couplings", canon)
        object.__setattr__(self, "spins", spins)

    @property
    def size(self) -> int:
        return len(self.spins)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.spins)

    def spin_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"sample {self.name} has no spin {label!r}") from None

    def coupling(self, a: int | str, b: int | str) -> float:
        i = a if isinstance(a, int) else self.spin_index(a)
        j = b if isinstance(b, int) else self.spin_index(b)
        return self.couplings.get((min(i, j), max(i, j)), 0.0)

    def with_shifts(self, shifts: Sequence[float] | float) -> "NmrSample":
        """Replace chemical shifts, e.g. with rotating-frame offsets."""
        if np.isscalar(shifts):
            shifts = [float(shifts)] * self.size
        if len(shifts) != self.size:
            raise ValueError("shift count does not match spin count")
        spins = tuple((l, float(s)) for (l, _), s in zip(self.spins, shifts))
        return dataclasses.replace(self, spins=spins)

    def restricted(self, indices: Sequence[int], name: str | None = None) -> "NmrSample":
        """Sub-sample on the given spins (sorted), keeping their couplings."""
        idx = sorted(set(int(i) for i in indices))
        remap = {old: new for new, old in enumerate(idx)}
        spins = tuple(self.spins[i] for i in idx)
        coup = {
            (remap[i], remap[j]): v
            for (i, j), v in self.couplings.items()
            if i in remap and j in remap
        }
        return NmrSample(
            name=name or f"{self.name}[{','.join(self.labels[i] for i in idx)}]",
            spins=spins,
            couplings=coup,
        )


@dataclass(frozen=True)
class ScSample:
    """A chain of anharmonic qubits with switchable nearest-neighbour couplers."""

    name: str
    qubits: tuple[tuple[str, float, float], ...]  # (label, idle GHz, anharmonicity MHz)
    coupling_mhz: float = 20.0
    truncation: int = 2

    def __post_init__(self):
        if self.truncation < 2:
            raise ValueError("per-site truncation must be at least 2")
        qubits = tuple((str(l), float(w), float(e)) for l, w, e in self.qubits)
        if not all(math.isfinite(w) and math.isfinite(e) for _, w, e in qubits):
            raise ValueError(f"non-finite idle frequency or anharmonicity in {self.name}")
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


@dataclass(frozen=True)
class SystemModel:
    """Drift plus labelled control operators on an explicit site layout."""

    drift: HermitianOperator
    controls: tuple[tuple[str, HermitianOperator], ...]
    site_dims: tuple[int, ...]
    platform: str  # "nmr" | "sc"
    coupling_mask: tuple[bool, ...] | None = None

    def __post_init__(self):
        dim = math.prod(self.site_dims)
        if self.drift.dim != dim:
            raise ValueError("drift dimension does not match site_dims")
        for label, op in self.controls:
            if op.dim != dim:
                raise ValueError(f"control {label!r} dimension mismatch")

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def num_channels(self) -> int:
        return len(self.controls)

    @property
    def channel_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.controls)

    @cached_property
    def control_stack(self) -> np.ndarray:
        """(A, d, d) array of control operators, in channel order."""
        if not self.controls:
            return np.zeros((0, self.dim, self.dim), dtype=complex)
        return np.stack([op.matrix for _, op in self.controls])


def _nmr_drift_and_controls(
    spins: Sequence[tuple[str, float]],
    couplings: Mapping[tuple[int, int], float],
) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]]:
    n = len(spins)
    dims = (2,) * n
    dim = 2**n
    drift = np.zeros((dim, dim), dtype=complex)
    for j, (_, shift) in enumerate(spins):
        if shift != 0.0:
            drift += math.pi * shift * _embed(_SZ, j, dims)
    for (i, j), val in couplings.items():
        if val != 0.0:
            zz = _embed(_SZ, i, dims) @ _embed(_SZ, j, dims)
            drift += (math.pi / 2.0) * val * zz
    controls = []
    for j, (label, _) in enumerate(spins):
        controls.append((f"x:{label}", math.pi * _embed(_SX, j, dims)))
        controls.append((f"y:{label}", math.pi * _embed(_SY, j, dims)))
    return drift, controls


def build_nmr(sample: NmrSample, active_spins: Iterable[int] | None = None) -> SystemModel:
    """Spin-system model on the chosen spins (all by default).

    The drift is diagonal in the computational basis; each active spin gets
    an x and a y rf channel.
    """
    if active_spins is None:
        sub = sample
    else:
        active = sorted(set(int(i) for i in active_spins))
        if not active:
            raise ValueError("active_spins must be non-empty")
        if any(i < 0 or i >= sample.size for i in active):
            raise ValueError(f"unknown spin index in {active} for sample {sample.name}")
        sub = sample.restricted(active)
    drift, controls = _nmr_drift_and_controls(sub.spins, sub.couplings)
    return SystemModel(
        drift=HermitianOperator(drift),
        controls=tuple((lab, HermitianOperator(m)) for lab, m in controls),
        site_dims=(2,) * sub.size,
        platform="nmr",
    )


def frozen_subsystem_hamiltonian(
    sample: NmrSample,
    frozen: Iterable[int],
    active: Iterable[int],
) -> SystemModel:
    """Reduced model for the active spins while the frozen ones sit in |0...0>.

    Each frozen spin p contributes its coupling J_p,i as a +J_p,i/2 shift on
    every active spin i (Z eigenvalue +1 on |0>), which is exactly how the
    full drift acts on the invariant frozen-block-at-ground subspace.
    """
    frozen_set = sorted(set(int(i) for i in frozen))
    active_set = sorted(set(int(i) for i in active))
    if set(frozen_set) & set(active_set):
        raise ValueError("frozen and active spin sets overlap")
    if not active_set:
        raise ValueError("active spin set is empty")
    for i in frozen_set + active_set:
        if i < 0 or i >= sample.size:
            raise ValueError(f"unknown spin index {i} for sample {sample.name}")
    shifted = [
        shift + 0.5 * sum(sample.coupling(p, i) for p in frozen_set)
        for i, (_, shift) in enumerate(sample.spins)
    ]
    return build_nmr(sample.with_shifts(shifted), active_set)


def _ladder(d: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        a[k - 1, k] = math.sqrt(k)
    return a


def build_sc(
    sample: ScSample,
    coupling_mask: Sequence[bool] | None = None,
    sites: Sequence[int] | None = None,
    truncation: int | None = None,
) -> SystemModel:
    """Chain model on a contiguous run of qubits with per-boundary couplers.

    With the default two-level truncation the anharmonicity term vanishes
    identically (n(n-1) = 0 on {0, 1}).
    """
    d = int(truncation if truncation is not None else sample.truncation)
    if d < 2:
        raise ValueError("per-site truncation must be at least 2")
    if sites is None:
        sites = list(range(sample.size))
    else:
        sites = [int(s) for s in sites]
        if sites != list(range(min(sites), min(sites) + len(sites))):
            raise ValueError("chain subsystems must be contiguous site runs")
        if sites[0] < 0 or sites[-1] >= sample.size:
            raise ValueError("site indices out of range")
    n = len(sites)
    if coupling_mask is None:
        coupling_mask = (True,) * (n - 1)
    coupling_mask = tuple(bool(b) for b in coupling_mask)
    if len(coupling_mask) != n - 1:
        raise ValueError(f"coupling mask needs {n - 1} entries, got {len(coupling_mask)}")

    dims = (d,) * n
    dim = d**n
    a = _ladder(d)
    num = a.conj().T @ a
    anh = num @ num - num  # n(n-1)
    g = 2.0 * math.pi * 1.0e-3 * sample.coupling_mhz  # MHz -> rad/ns

    drift = np.zeros((dim, dim), dtype=complex)
    for pos, q in enumerate(sites):
        w = 2.0 * math.pi * sample.idle_ghz(q)  # GHz -> rad/ns
        eta = 2.0 * math.pi * 1.0e-3 * sample.anharmonicity_mhz(q)
        if w != 0.0:
            drift += w * _embed(num, pos, dims)
        if eta != 0.0 and d > 2:
            drift += 0.5 * eta * _embed(anh, pos, dims)
    for b, on in enumerate(coupling_mask):
        if on and g != 0.0:
            hop = _embed(a.conj().T, b, dims) @ _embed(a, b + 1, dims)
            drift += g * (hop + hop.conj().T)

    controls = []
    x_op = a + a.conj().T
    y_op = 1j * (a - a.conj().T)
    for pos, q in enumerate(sites):
        label = sample.labels[q]
        controls.append((f"x:{label}", HermitianOperator(_embed(x_op, pos, dims))))
        controls.append((f"y:{label}", HermitianOperator(_embed(y_op, pos, dims))))

    return SystemModel(
        drift=HermitianOperator(drift),
        controls=tuple(controls),
        site_dims=dims,
        platform="sc",
        coupling_mask=coupling_mask,
    )


# ---------------------------------------------------------------------------
# Registry


def _parse_nmr(name: str, spec: Mapping) -> NmrSample:
    spins = tuple((s["label"], float(s["shift_hz"])) for s in spec["spins"])
    labels = [s["label"] for s in spec["spins"]]
    couplings = {}
    for a, b, val in spec.get("couplings_hz", []):
        i, j = labels.index(a), labels.index(b)
        couplings[(min(i, j), max(i, j))] = float(val)
    return NmrSample(name=name, spins=spins, couplings=couplings)


def _parse_sc(name: str, spec: Mapping) -> ScSample:
    qubits = tuple(
        (q["label"], float(q["idle_ghz"]), float(q["anharmonicity_mhz"]))
        for q in spec["qubits"]
    )
    return ScSample(
        name=name,
        qubits=qubits,
        coupling_mhz=float(spec.get("coupling_mhz", 20.0)),
        truncation=int(spec.get("truncation", 2)),
    )


@dataclass
class SampleRegistry:
    nmr: dict[str, NmrSample] = field(default_factory=dict)
    sc: dict[str, ScSample] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    schedules: dict = field(default_factory=dict)

    def names(self) -> list[str]:
        return sorted(list(self.nmr) + list(self.sc))

    def get(self, name: str) -> NmrSample | ScSample:
        name = self.aliases.get(name, name)
        if name in self.nmr:
            return self.nmr[name]
        if name in self.sc:
            return self.sc[name]
        raise SampleNotFoundError(f"no sample named {name!r}; known: {self.names()}")

    def reference_schedule(self, platform: str, size: int) -> dict:
        """Reference segment budgets and transfer time for a system size."""
        table = self.schedules.get(platform)
        if table is None:
            raise KeyError(f"no schedule table for platform {platform!r}")
        sizes = table["sizes"]
        if size in sizes:
            row = sizes[size]
        else:
            # Interpolate between the nearest tabulated sizes.
            below = max((s for s in sizes if s < size), default=None)
            above = min((s for s in sizes if s > size), default=None)
            if below is None or above is None:
                edge = below if above is None else above
                row = sizes[edge]
            else:
                f = (size - below) / (above - below)
                lo, hi = sizes[below], sizes[above]
                n_st = max(len(lo["igrape"]), len(hi["igrape"]))
                pad = lambda v: v + [v[-1]] * (n_st - len(v))
                row = {
                    "igrape": [
                        int(round((1 - f) * a + f * b))
                        for a, b in zip(pad(lo["igrape"]), pad(hi["igrape"]))
                    ],
                    "grape": int(round((1 - f) * lo["grape"] + f * hi["grape"])),
                    "transfer": (1 - f) * lo["transfer"] + f * hi["transfer"],
                }
        return {
            "dt": float(table["dt"]),
            "igrape": list(row["igrape"]),
            "grape": int(row["grape"]),
            "transfer": float(row["transfer"]),
        }

    def merge(self, doc: Mapping) -> None:
        for name, spec in (doc.get("nmr_samples") or {}).items():
            self.nmr[name] = _parse_nmr(name, spec)
        for name, spec in (doc.get("sc_samples") or {}).items():
            self.sc[name] = _parse_sc(name, spec)
        self.aliases.update(doc.get("aliases") or {})
        for platform, table in (doc.get("schedules") or {}).items():
            self.schedules[platform] = table


_REGISTRY: SampleRegistry | None = None


def sample_registry() -> SampleRegistry:
    """The built-in catalogue, loaded once per process."""
    global _REGISTRY
    if _REGISTRY is None:
        text = resources.files("qoc.data").joinpath("samples.yaml").read_text()
        reg = SampleRegistry()
        reg.merge(yaml.safe_load(text))
        _REGISTRY = reg
    return _REGISTRY


def load_samples_file(path) -> SampleRegistry:
    """Registry extended with user samples from a YAML file (same schema)."""
    base = sample_registry()
    reg = SampleRegistry(
        nmr=dict(base.nmr), sc=dict(base.sc), aliases=dict(base.aliases),
        schedules=dict(base.schedules),
    )
    with open(path) as fh:
        reg.merge(yaml.safe_load(fh))
    return reg
