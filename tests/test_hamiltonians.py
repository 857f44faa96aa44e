import math

import numpy as np
import pytest

from qoc.errors import SampleNotFoundError
from qoc.hamiltonians import (
    NmrSample,
    ScSample,
    build_nmr,
    build_sc,
    frozen_subsystem_hamiltonian,
    load_samples_file,
    sample_registry,
)
from qoc.linalg import expm_hermitian, ground_state, kron, random_state

from conftest import SX, SY, SZ


def two_spin_sample(j=47.6, shifts=(0.0, 0.0)):
    return NmrSample(
        name="pair",
        spins=(("A", shifts[0]), ("B", shifts[1])),
        couplings={(0, 1): j},
    )


class TestBuildNmr:
    def test_two_spin_zz_drift(self):
        model = build_nmr(two_spin_sample())
        want = (math.pi / 2) * 47.6 * np.diag([1, -1, -1, 1])
        assert np.abs(model.drift.matrix - want).max() < 1e-12

    def test_single_spin_zero_shift(self):
        sample = NmrSample(name="one", spins=(("A", 0.0),), couplings={})
        model = build_nmr(sample)
        assert np.abs(model.drift.matrix).max() == 0.0

    def test_single_spin_controls(self):
        sample = NmrSample(name="one", spins=(("A", 0.0),), couplings={})
        model = build_nmr(sample)
        assert model.channel_labels == ("x:A", "y:A")
        assert np.abs(model.controls[0][1].matrix - math.pi * SX).max() < 1e-15
        assert np.abs(model.controls[1][1].matrix - math.pi * SY).max() < 1e-15

    def test_active_subset(self):
        reg = sample_registry()
        full = reg.get("diethyl-fluoromalonate-3q").with_shifts(0.0)
        model = build_nmr(full, active_spins={1, 2})  # H, F pair
        want = (math.pi / 2) * 47.6 * np.diag([1, -1, -1, 1])
        assert np.abs(model.drift.matrix - want).max() < 1e-12
        assert model.channel_labels == ("x:H", "y:H", "x:F", "y:F")

    def test_unknown_spin_index(self):
        with pytest.raises(ValueError):
            build_nmr(two_spin_sample(), active_spins={0, 5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_shift_rejected(self, bad):
        sample = sample_registry().get("iodotrifluoroethylene")
        with pytest.raises(ValueError, match="finite"):
            sample.with_shifts([0.0, bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            two_spin_sample(shifts=(0.0, bad))

    def test_drift_diagonal(self):
        reg = sample_registry()
        model = build_nmr(reg.get("iodotrifluoroethylene"))
        off = model.drift.matrix - np.diag(np.diag(model.drift.matrix))
        assert np.abs(off).max() == 0.0


class TestBuildSc:
    def test_two_site_hopping(self):
        sample = ScSample(
            name="pair", qubits=(("Q1", 0.0, -200.0), ("Q2", 0.0, -200.0)), coupling_mhz=1.0
        )
        model = build_sc(sample)
        g = 2 * math.pi * 1e-3
        want = np.zeros((4, 4), dtype=complex)
        want[1, 2] = want[2, 1] = g  # |01><10| + h.c.
        assert np.abs(model.drift.matrix - want).max() < 1e-15

    def test_masked_off_couplings_block_local(self):
        reg = sample_registry()
        sample = reg.get("sc-chain-12")
        model = build_sc(sample, coupling_mask=[False, False], sites=range(3))
        # With all couplers off the drift is a sum of single-site number terms,
        # hence diagonal.
        off = model.drift.matrix - np.diag(np.diag(model.drift.matrix))
        assert np.abs(off).max() == 0.0

    def test_two_level_anharmonicity_vanishes(self):
        sample = ScSample(name="pair", qubits=(("Q1", 0.0, -300.0),), coupling_mhz=0.0)
        model = build_sc(sample)
        assert np.abs(model.drift.matrix).max() == 0.0

    def test_three_level_anharmonicity_present(self):
        sample = ScSample(
            name="pair", qubits=(("Q1", 0.0, -300.0),), coupling_mhz=0.0, truncation=3
        )
        model = build_sc(sample)
        eta = 2 * math.pi * 1e-3 * (-300.0)
        assert abs(model.drift.matrix[2, 2] - eta) < 1e-12

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            ScSample(name="bad", qubits=(("Q1", 0.0, 0.0),), truncation=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        sample = sample_registry().get("sc-chain-12")
        with pytest.raises(ValueError, match="finite"):
            sample.with_idle_frequencies([0.0] * 5 + [bad] + [0.0] * 6)
        with pytest.raises(ValueError, match="finite"):
            ScSample(name="bad", qubits=(("Q1", 0.0, bad),))
        with pytest.raises(ValueError, match="finite"):
            ScSample(name="bad", qubits=(("Q1", 0.0, -200.0),), coupling_mhz=bad)

    def test_mask_length_guard(self):
        sample = sample_registry().get("sc-chain-12")
        with pytest.raises(ValueError):
            build_sc(sample, coupling_mask=[True], sites=range(3))

    def test_excitation_conserved_under_drift(self, rng):
        sample = sample_registry().get("sc-chain-12").with_idle_frequencies(0.0)
        model = build_sc(sample, sites=range(3))
        dims = model.site_dims
        num_total = np.zeros((model.dim, model.dim), dtype=complex)
        n_op = np.diag([0.0, 1.0]).astype(complex)
        for pos in range(3):
            left = np.eye(2**pos)
            right = np.eye(2 ** (2 - pos))
            num_total += np.kron(np.kron(left, n_op), right)
        comm = model.drift.matrix @ num_total - num_total @ model.drift.matrix
        assert np.abs(comm).max() < 1e-12

        psi = random_state(dims, rng)
        u = expm_hermitian(model.drift, -3.7)
        evolved = u @ psi.amplitudes
        before = np.vdot(psi.amplitudes, num_total @ psi.amplitudes).real
        after = np.vdot(evolved, num_total @ evolved).real
        assert abs(before - after) < 1e-9


class TestFrozenSubsystem:
    def test_empty_frozen_matches_build(self):
        reg = sample_registry()
        sample = reg.get("diethyl-fluoromalonate-3q").with_shifts(0.0)
        a = frozen_subsystem_hamiltonian(sample, frozen=set(), active={0, 1, 2})
        b = build_nmr(sample)
        assert np.abs(a.drift.matrix - b.drift.matrix).max() == 0.0

    def test_two_spin_freeze_first(self):
        sample = two_spin_sample()
        model = frozen_subsystem_hamiltonian(sample, frozen={0}, active={1})
        want = (math.pi / 2) * 47.6 * SZ
        assert np.abs(model.drift.matrix - want).max() < 1e-12
        assert model.channel_labels == ("x:B", "y:B")

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            frozen_subsystem_hamiltonian(two_spin_sample(), frozen={0}, active={0, 1})

    @pytest.mark.parametrize("n,frozen", [(2, {0}), (3, {2}), (3, {0, 1}), (4, {1, 3})])
    def test_freeze_identity_against_full_evolution(self, n, frozen, rng):
        # Full-space evolution of |0..0>_frozen (x) |psi>_active must match the
        # reduced-model prediction up to a global phase.
        reg = sample_registry()
        base = {2: "diethyl-fluoromalonate-2q", 3: "diethyl-fluoromalonate-3q",
                4: "iodotrifluoroethylene"}[n]
        sample = reg.get(base).with_shifts(0.0)
        active = sorted(set(range(n)) - set(frozen))
        full = build_nmr(sample)
        reduced = frozen_subsystem_hamiltonian(sample, frozen=frozen, active=active)

        for _ in range(5):
            psi_b = random_state((2,) * len(active), rng)
            t = rng.uniform(0.0, 5e-3)
            # Embed |0>_frozen (x) |psi_b> into the full register.
            amps = np.zeros(2**n, dtype=complex)
            tensor = amps.reshape((2,) * n)
            sub = psi_b.amplitudes.reshape((2,) * len(active))
            idx = [0] * n
            import itertools

            for conf in itertools.product(*(range(2) for _ in active)):
                for pos, site in enumerate(active):
                    idx[site] = conf[pos]
                tensor[tuple(idx)] = sub[conf]
            full_evolved = expm_hermitian(full.drift, -t) @ amps
            red_evolved = expm_hermitian(reduced.drift, -t) @ psi_b.amplitudes
            # Rebuild the embedded prediction and compare overlap magnitude.
            pred = np.zeros(2**n, dtype=complex)
            pt = pred.reshape((2,) * n)
            rs = red_evolved.reshape((2,) * len(active))
            for conf in itertools.product(*(range(2) for _ in active)):
                for pos, site in enumerate(active):
                    idx[site] = conf[pos]
                pt[tuple(idx)] = rs[conf]
            overlap = abs(np.vdot(pred, full_evolved))
            assert overlap > 1.0 - 1e-9


class TestRegistry:
    def test_crotonic_coupling_bit_exact(self):
        sample = sample_registry().get("crotonic-acid")
        assert sample.coupling("C1", "H3") == 128.0
        assert sample.coupling("C2", "H2") == -0.7

    def test_sc_chain_idle_frequency(self):
        sample = sample_registry().get("sc-chain-12")
        assert sample.idle_ghz(0) == 4.978
        assert sample.anharmonicity_mhz(0) == -248.0

    def test_two_qubit_sample_values(self):
        sample = sample_registry().get("diethyl-fluoromalonate-2q")
        assert sample.coupling("H", "F") == 47.6
        assert sample.spins[0][1] == 400.0e6

    def test_alias(self):
        reg = sample_registry()
        assert reg.get("diethyl-fluoromalonate").size == 3

    def test_unknown_sample(self):
        with pytest.raises(SampleNotFoundError):
            sample_registry().get("nonexistent")

    def test_all_built_models_hermitian(self):
        reg = sample_registry()
        for name in ("diethyl-fluoromalonate-2q", "iodotrifluoroethylene"):
            model = build_nmr(reg.get(name))
            m = model.drift.matrix
            assert np.abs(m - m.conj().T).max() < 1e-12
        model = build_sc(reg.get("sc-chain-12"), sites=range(4))
        m = model.drift.matrix
        assert np.abs(m - m.conj().T).max() < 1e-12

    def test_reference_schedules(self):
        reg = sample_registry()
        row = reg.reference_schedule("nmr", 2)
        assert row["igrape"] == [500, 100]
        assert row["grape"] == 600
        assert row["transfer"] == 3.0e-3
        assert row["dt"] == 5.0e-6
        row = reg.reference_schedule("sc", 4)
        assert row["igrape"] == [380, 320, 300]
        # Interpolation between tabulated sizes stays sane.
        row = reg.reference_schedule("sc", 5)
        assert row["grape"] == 1200
        assert row["igrape"] == [400, 340, 310, 300]

    def test_user_file_merge(self, tmp_path):
        extra = tmp_path / "extra.yaml"
        extra.write_text(
            "nmr_samples:\n"
            "  toy-pair:\n"
            "    spins:\n"
            "      - {label: A, shift_hz: 0.0}\n"
            "      - {label: B, shift_hz: 0.0}\n"
            "    couplings_hz:\n"
            "      - [A, B, 100.0]\n"
        )
        reg = load_samples_file(extra)
        assert reg.get("toy-pair").coupling("A", "B") == 100.0
        assert reg.get("crotonic-acid").size == 7  # built-ins still present

    def test_relaxation_keys_ignored(self, tmp_path):
        extra = tmp_path / "extra.yaml"
        extra.write_text(
            "nmr_samples:\n"
            "  toy-one:\n"
            "    formula: AB\n"
            "    spins:\n"
            "      - {label: A, shift_hz: 5.0, t1_s: 2.0, t2_s: 1.0}\n"
            "sc_samples:\n"
            "  toy-chain:\n"
            "    qubits:\n"
            "      - {label: Q1, idle_ghz: 5.0, anharmonicity_mhz: -250.0, t1_us: 40.0, t2_us: 30.0}\n"
        )
        reg = load_samples_file(extra)
        assert reg.get("toy-one") == NmrSample(name="toy-one", spins=(("A", 5.0),), couplings={})
        assert reg.get("toy-chain") == ScSample(name="toy-chain", qubits=(("Q1", 5.0, -250.0),))
