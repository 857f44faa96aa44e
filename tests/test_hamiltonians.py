import copy
import dataclasses
import hashlib
import json
import math
import pickle
import re
import tracemalloc
from functools import partial
from importlib import resources

import numpy as np
import pytest

from qoc.errors import SampleNotFoundError
from qoc.hamiltonians import (
    NmrSample,
    ScSample,
    SystemModel,
    build_nmr,
    build_sc,
    _parse_nmr,
    _parse_sc,
    _read_only,
    frozen_subsystem_hamiltonian,
    sample_registry,
)
from qoc.linalg import ground_state
from qoc.pulses import SIGN_FORWARD, PulseGrid, PulseSequence, propagate

from conftest import SX, SY, SZ, expm_hermitian, kron, pattern_of, random_state


def two_spin_sample(j=47.6, shifts=(0.0, 0.0)):
    return NmrSample(
        name="pair",
        spins=(("A", shifts[0]), ("B", shifts[1])),
        couplings={(0, 1): j},
    )


def catalogue_models():
    """Builders of the catalogue models whose operators are pinned, by case name."""
    reg = sample_registry()
    chain = reg.get("sc-chain-12")
    models = {}
    for name, sample in reg.nmr.items():
        models[name] = partial(build_nmr, sample)
        for p, label in enumerate(sample.labels):
            models[f"{name}-frozen-{label}"] = partial(frozen_subsystem_hamiltonian, sample, {p})
    for n in (2, 4, 6):
        models[f"chain-{n}"] = partial(build_sc, chain, sites=range(n))
        models[f"chain-{n}-idle-0"] = partial(
            build_sc, chain.with_idle_frequencies(0.0), sites=range(n)
        )
        mask = [b % 2 == 1 for b in range(n - 1)]
        models[f"chain-{n}-masked"] = partial(
            build_sc, chain, coupling_mask=mask, sites=range(1, n + 1)
        )
    models["chain-3-three-level"] = partial(
        build_sc, dataclasses.replace(chain, truncation=3), sites=range(3)
    )
    return models


def operator_digest(model):
    """SHA-256 of the drift, control stack and channel labels; -0.0 hashes as 0.0."""
    h = hashlib.sha256()
    for array in (model.drift, model.control_stack):
        h.update((array + 0.0).tobytes())
    h.update("\n".join(model.channel_labels).encode())
    return h.hexdigest()


# Recorded at commit 4e15fc7, where each builder formed its own operators;
# any changed operator bit or label changes a digest.
CATALOGUE_DIGESTS = {
    "diethyl-fluoromalonate-2q": "381d1fa128d465ddd8dafc04356f4459604f2a501651d4ef489aa3dc2933aee1",
    "diethyl-fluoromalonate-2q-frozen-H": "d44dda59b696b6a4186ca9a05d698bdbf679db408361b595fb6cbc0d78075259",
    "diethyl-fluoromalonate-2q-frozen-F": "6abd938814f81bc810b4becca4e670e5068f715b1512415cedff946766902a96",
    "diethyl-fluoromalonate-3q": "ccbffa67fe695ead892bd407930566a94da3897b9f28a61510289cd389b3b5cb",
    "diethyl-fluoromalonate-3q-frozen-C": "38de8fd5cc2aff74001dcf8c50ebaf176fe67afe31430566eff345f4ae0457ef",
    "diethyl-fluoromalonate-3q-frozen-H": "c6938194f4589fbbbe44f70e43027799de0318cb32b7f96e4ff43f3563f6e086",
    "diethyl-fluoromalonate-3q-frozen-F": "2f41854db15be7144dc08f1f8df5ee5b1f31b6f742543998d6b3b7e9b2b2fb3f",
    "iodotrifluoroethylene": "b18bb6117c9daebd32e80df380b9aff701885bd0f20e935c2f60e428f2bdc9b1",
    "iodotrifluoroethylene-frozen-C": "f151dd9bf82fe2c8ab160e67cb48ee1e59e8fe836e6812ebb0ecffcfe2c2df1e",
    "iodotrifluoroethylene-frozen-F1": "f7fe79f91a44fdeb01709ee76157da9e3fb00c951265756158e3590a5b6ab5ee",
    "iodotrifluoroethylene-frozen-F2": "3acece3021e4ca695cd0b0af3f0cf857d842cf9f07ce77a48568ef1c433d42b5",
    "iodotrifluoroethylene-frozen-F3": "2700ed4e986c05f926b172921c0d30dcc04f23521581877a146a2e9d3671eab8",
    "bromotrifluorobenzene": "7e3c03bbab6fcc56589649b4730a5053163d33eb669808917955d1c2655bb9da",
    "bromotrifluorobenzene-frozen-F1": "19966f3e40d1eb21301186f9caf177422138fac7ee6a613e7209bb8d7963bcd3",
    "bromotrifluorobenzene-frozen-F2": "e663db95e52fb5b95c860068a449bff7747894e8a31024f33fc694884fbd860b",
    "bromotrifluorobenzene-frozen-F3": "a28ca97667361bde205e056932fa90e7c274ec65a1705ae01ba7ab1738332801",
    "bromotrifluorobenzene-frozen-H1": "3eb330a21f8048b3be8fd7ff59fd0a61f94e67b4881e87b52791add660d3f566",
    "bromotrifluorobenzene-frozen-H2": "fa2a6920a7550fb10d1eab33420cc07fd3d8a4e6e08cb2cd2e2308c44aa1618e",
    "crotonic-acid": "37241390aec800841e8cc83f31b1c2e30157fcb653aa979e69a6eea29c3b0110",
    "crotonic-acid-frozen-C1": "db981827e14d9688290f67ab665969babb6742469e359de301e051abcd1886f6",
    "crotonic-acid-frozen-C2": "fea3164d18bc15ae51e1c70c0ba8acf2bdbb0fec1c927fcec2bd3717194aada0",
    "crotonic-acid-frozen-C3": "1069a01f89c5629e0f48a41eed341371d95d3572914baa18acba20a37c74f14b",
    "crotonic-acid-frozen-C4": "03ea830e7d2e5c3e9450b38df4d3135c4121a9d845fb2fd80af079c6ee1abefe",
    "crotonic-acid-frozen-H1": "f5f1e7096c440c9852ed2c90b1d7463735cab2ba66e23accc3f1ab2497fefef5",
    "crotonic-acid-frozen-H2": "ce89d2fd2cdad8be3ae76d7036b8c2aaa81429f1b1affb7243e4abf968dc9d40",
    "crotonic-acid-frozen-H3": "65b0126ed418249647a688a0fb0d8986c9889cad860dd8022a175ee5733b4b7e",
    "chain-2": "977952681dd4aa30cd28771e522069c50136f0b76c00cd2835801dae9bc9a83e",
    "chain-2-idle-0": "52870ae20e34b4f25eae4e6f3717631b2e56111bed45a11e81685e0736931e1b",
    "chain-2-masked": "be5cccd079f5d71a8cc6dce99281947ce2a5a960057820d3f285567a17b47ae0",
    "chain-4": "36f69ad617ce96241743afe5aee03aafa1aed187771900f45209cf821b220aa1",
    "chain-4-idle-0": "23217e1d5bad88996132d61610e4e8f137f9b6e4f376069528d103304c5f0bce",
    "chain-4-masked": "dea0ffea5793776a672d51bca869b34e79eb79489a2191b08c6a8af0f04607e3",
    "chain-6": "a8a54a588c049349a93b7ae58adc81758635a15a227336ecbbf9a4536f6e8c42",
    "chain-6-idle-0": "534c270941bc0b13d4a8797bfd853b49f20f075bb8e6567c8beb8a7cc071d714",
    "chain-6-masked": "552d97ec3b21170721c56fe55b5f4fce866d85914c5e4660972ff55eb94c76fc",
    "chain-3-three-level": "0271e1c7998fe4d3ddef4cba22a95ddee453ecddeeea2f0aa3a751cd49f0c469",
}


class TestSystemModel:
    @staticmethod
    def model(drift=SZ, stack=(SX, SY), labels=("x", "y"), site_dims=(2,)):
        return SystemModel(pattern_of(drift, stack), labels, site_dims, platform="nmr")

    def test_accepts_pauli_operators(self):
        model = self.model()
        assert (model.dim, model.num_channels, model.channel_labels) == (2, 2, ("x", "y"))
        assert model.drift.dtype == model.control_stack.dtype == np.complex128

    @pytest.mark.parametrize(
        "case, match",
        [
            ("four arrays", "a pattern is"),
            ("short cols", "does not fit"),
            ("controls off the driven entries", "does not fit"),
            ("two-dimensional rows", "does not fit"),
            ("repeated entry", "pattern entries must be distinct"),
            ("rows before cols", "pattern entries must be distinct"),
            ("negative row", "below d = 2"),
        ],
    )
    def test_rejects_malformed_patterns(self, case, match):
        rows, cols, drift, driven, controls = (np.array(a) for a in pattern_of(SZ, (SX, SY)))
        assert rows.tolist() == [0, 1, 0, 1] and cols.tolist() == [0, 0, 1, 1]
        pattern = [rows, cols, drift, driven, controls]
        if case == "four arrays":
            pattern.pop()
        elif case == "short cols":
            pattern[1] = cols[:-1]
        elif case == "controls off the driven entries":
            pattern[4] = np.zeros((2, 4))
        elif case == "two-dimensional rows":
            pattern[0] = rows[None]
        elif case == "repeated entry":
            pattern[0], pattern[1] = np.array([0, 1, 1, 1]), np.array([0, 0, 0, 1])
        elif case == "rows before cols":  # the C order of H, not of H^T
            pattern[0], pattern[1] = cols, rows
        else:
            pattern[0] = np.array([0, -1, 0, 1])
        with pytest.raises(ValueError, match=match):
            SystemModel(tuple(pattern), ("x", "y"), (2,), "nmr")

    def test_shapes_must_match_site_dims(self):
        with pytest.raises(ValueError, match="below d = 2"):
            self.model(np.kron(SZ, SZ), (np.kron(SX, SX),), ("x",), site_dims=(2,))
        with pytest.raises(ValueError, match="below d = 2"):
            self.model(np.kron(SZ, SZ), (np.kron(SX, SX),), ("x",), site_dims=(1, 2))
        assert self.model(np.kron(SZ, SZ), (np.kron(SX, SX),), ("x",), site_dims=(2, 2)).dim == 4

    def test_site_dims_stored_as_a_tuple(self):
        # A list used to be kept as given, so every propagate raised
        # "state sites (2,) != model sites [2]".
        model = self.model(site_dims=[2])
        assert model.site_dims == (2,) and type(model.site_dims) is tuple
        assert self.model(site_dims=np.array([2])).site_dims == (2,)
        pulses = PulseSequence(PulseGrid(1e-3, 1), np.zeros((1, 2)), ("x", "y"), SIGN_FORWARD)
        state, _ = propagate(model, pulses, ground_state((2,)))
        assert state.site_dims == (2,)

    def test_coupling_mask_stored_as_a_tuple_of_bools(self):
        model = self.model(np.kron(SZ, SZ), (np.kron(SX, SX),), ("x",), site_dims=(2, 2))
        assert model.coupling_mask is None
        masked = dataclasses.replace(model, coupling_mask=[np.bool_(False)])
        assert masked.coupling_mask == (False,) and type(masked.coupling_mask[0]) is bool

    @pytest.mark.parametrize("mask", [[], [True], [True] * 7])
    def test_coupling_mask_needs_one_entry_per_boundary(self, mask):
        # A 7-entry list on a 3-spin model used to be stored as given.
        stack = np.array([np.eye(8)])
        with pytest.raises(ValueError, match="coupling mask needs 2 entries"):
            SystemModel(pattern_of(np.eye(8), stack), ("x",), (2, 2, 2), "nmr", mask)

    def test_site_dims_must_be_positive(self):
        # (-2, -2) multiplies out to the drift's 4 rows.
        with pytest.raises(ValueError, match="site dimensions must be >= 1"):
            self.model(np.kron(SZ, SZ), (np.kron(SX, SX),), ("x",), site_dims=(-2, -2))

    def test_site_dims_must_be_integers(self):
        with pytest.raises(TypeError):
            self.model(np.kron(SZ, SZ), (np.kron(SX, SX),), ("x",), site_dims=(2.0, 2))

    @pytest.mark.parametrize("labels", [("x",), ("x", "y", "z")])
    def test_label_count_must_match_stack(self, labels):
        with pytest.raises(ValueError, match=f"{len(labels)} channel labels"):
            self.model(labels=labels)

    @pytest.mark.parametrize("labels", [("x", "x"), ("x:Q1", "x:Q1")])
    def test_rejects_repeated_channel_labels(self, labels):
        with pytest.raises(ValueError, match="channel labels must be distinct"):
            self.model(labels=labels)

    @pytest.mark.parametrize("platform", ["banana", "NMR", ""])
    def test_rejects_unknown_platform(self, platform):
        with pytest.raises(ValueError, match="platform must be 'nmr' or 'sc'"):
            SystemModel(pattern_of(SZ, (SX, SY)), ("x", "y"), (2,), platform=platform)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN slips past the Hermiticity test: nan > tol is False.
        m = np.diag([1.0, bad]).astype(complex)
        with pytest.raises(ValueError, match="drift: matrix entries must be finite"):
            self.model(drift=m)
        with pytest.raises(ValueError, match="control 'y': matrix entries must be finite"):
            self.model(stack=(SX, m))

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="drift: matrix is not Hermitian"):
            self.model(drift=m)
        with pytest.raises(ValueError, match="control 'y': matrix is not Hermitian"):
            self.model(stack=(SX, m))

    def test_hermiticity_tolerance_scales_with_the_entries(self):
        # Rounding in a rotated 1e9 rad/s spectrum leaves |A - A†| ~ 6e-8,
        # far above an absolute 1e-12.
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        lab = q @ np.diag([1e9, -1e9, 5e8, 0.0]) @ q.conj().T
        assert np.abs(lab - lab.conj().T).max() > 1e-8
        stack = (np.kron(SX, np.eye(2)),)
        assert self.model(lab, stack, ("x",), site_dims=(2, 2)).dim == 4
        skewed = SZ + np.array([[0, 1e-9], [0, 0]])
        with pytest.raises(ValueError, match="drift: matrix is not Hermitian"):
            self.model(drift=skewed)

    def test_operators_are_read_only(self):
        built = build_nmr(two_spin_sample())
        for model in (built, pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
            with pytest.raises(ValueError, match="read-only"):
                model.drift[0, 1] = 5.0
            with pytest.raises(ValueError, match="read-only"):
                model.control_stack[0, 0, 0] = 1e3
            assert np.array_equal(model.drift, built.drift)
            assert np.array_equal(model.control_stack, built.control_stack)
            assert model.channel_labels == built.channel_labels

    @pytest.mark.parametrize(
        "build, nnz, driven",
        [
            (lambda registry: build_nmr(registry.get("iodotrifluoroethylene")), 80, 64),
            (lambda registry: build_sc(
                registry.get("sc-chain-12").with_idle_frequencies(0.0), sites=range(6)
            ), 544, 384),
            # |000> has zero energy: one diagonal entry is off the pattern.
            (lambda registry: build_sc(registry.get("sc-chain-12"), sites=range(3)), 39, 24),
        ],
        ids=["nmr4", "sc6-idle-0", "sc3"],
    )
    def test_pattern_built_once_read_only_and_equal_to_the_dense_operators(
        self, build, nnz, driven
    ):
        model = build(sample_registry())
        pattern = model.pattern
        assert all(a is b for a, b in zip(model.pattern, pattern))
        assert not any(array.flags.writeable for array in pattern)
        rows, cols, drift, mask, controls = pattern
        touched = (model.control_stack != 0).any(axis=0)
        want_cols, want_rows = np.nonzero(((model.drift != 0) | touched).T)  # the C order of H^T
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert len(rows) == nnz < model.dim**2
        assert np.array_equal(drift, model.drift[rows, cols])
        # The controls are given on the driven entries only, where some control is nonzero.
        assert np.array_equal(mask, touched[rows, cols]) and mask.sum() == driven
        assert np.array_equal(controls, model.control_stack[:, rows, cols][:, mask])
        assert controls.flags.c_contiguous
        assert np.all(drift[~mask] != 0)

    def test_copies_hold_equal_read_only_patterns(self):
        built = build_nmr(two_spin_sample())
        pattern = built.pattern
        for model in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
            assert all(a is not b and np.array_equal(a, b) for a, b in zip(model.pattern, pattern))
            assert [a.dtype for a in model.pattern] == [a.dtype for a in pattern]
            assert not any(array.flags.writeable for array in model.pattern)
        # A replaced field leaves the read-only arrays shared.
        replaced = dataclasses.replace(built, coupling_mask=None)
        assert all(a is b for a, b in zip(replaced.pattern, pattern))

    def test_entries_that_sum_to_zero_leave_the_pattern(self):
        # Opposite shifts and no coupling: the drift cancels exactly on |00>
        # and |11>, so only its two other diagonal entries and the drives'
        # off-diagonal ones are left.
        rows, cols, drift, driven, _ = build_nmr(two_spin_sample(0.0, (10.0, -10.0))).pattern
        assert [(r, c) for r, c in zip(rows, cols) if r == c] == [(1, 1), (2, 2)]
        assert np.all(drift[rows == cols] != 0) and driven[rows != cols].all()
        assert not driven[rows == cols].any()

    @pytest.mark.parametrize("spins", [True, False], ids=["nmr4", "coupled-sc3"])
    def test_derived_forms_built_once_read_only_and_equal_to_the_dense_operators(self, spins):
        registry = sample_registry()
        model = (
            build_nmr(registry.get("iodotrifluoroethylene")) if spins
            else build_sc(registry.get("sc-chain-12"), sites=range(3))
        )
        norms, form = model.operator_norms, model.spin_form
        assert model.operator_norms is norms and model.spin_form is form
        assert not norms[1].flags.writeable
        dense = [np.abs(op).sum(axis=0).max() for op in (model.drift, *model.control_stack)]
        assert norms[0] == dense[0] and np.array_equal(norms[1], dense[1:])
        if not spins:
            assert form is None  # the couplings flip two bits at once
            return
        assert not any(array.flags.writeable for array in form)
        diagonal, bits, drive, z, basis = form
        assert np.array_equal(np.diag(model.drift).real, diagonal) and list(bits) == [1, 2, 4, 8]
        d = model.dim
        for a, (b, za) in enumerate(zip(drive, z)):
            x_b = basis[1 + b].reshape(d, d)
            upper = np.triu(x_b)
            assert np.array_equal(model.control_stack[a], za * upper + np.conj(za) * upper.T)
        assert np.array_equal(basis[0].reshape(d, d), np.diag(diagonal))

    def test_copies_derive_their_own_forms(self):
        built = build_nmr(two_spin_sample())
        norms, form = built.operator_norms, built.spin_form
        pairs = built.drive_pairs
        for model in (pickle.loads(pickle.dumps(built)), dataclasses.replace(built, coupling_mask=None)):
            assert model.operator_norms[1] is not norms[1]
            assert np.array_equal(model.operator_norms[1], norms[1])
            assert all(a is not b and np.array_equal(a, b) for a, b in zip(model.spin_form, form))
            assert model.drive_pairs is not pairs and np.array_equal(model.drive_pairs, pairs)

    @pytest.mark.parametrize(
        "build, pairs",
        [
            (lambda registry: build_sc(registry.get("sc-chain-12"), sites=range(6)), 6),
            (lambda registry: build_sc(
                dataclasses.replace(registry.get("sc-chain-12"), truncation=3), sites=range(2)
            ), 2),
            (lambda registry: build_nmr(registry.get("iodotrifluoroethylene")), 4),
            (lambda registry: frozen_subsystem_hamiltonian(
                registry.get("iodotrifluoroethylene"), [0]
            ), 3),
        ],
        ids=["sc6", "sc2-three-level", "nmr4", "nmr4-frozen"],
    )
    def test_each_sites_x_and_y_drives_pair(self, build, pairs):
        model = build(sample_registry())
        found = model.drive_pairs
        assert model.drive_pairs is found and not found.flags.writeable
        assert found.tolist() == [[2 * j, 2 * j + 1] for j in range(pairs)]
        for a, b in found:  # +-i times x's value at each entry, by the dense operators
            x, y = model.control_stack[a], model.control_stack[b]
            assert np.all((y == 1j * x) | (y == -1j * x))

    @pytest.mark.parametrize("case", ["random", "y doubled", "y support differs"])
    def test_other_controls_do_not_pair(self, case):
        # The y drive of spin 0 is spoiled; spin 1's drives still pair.
        model = build_nmr(two_spin_sample())
        stack = model.control_stack.copy()
        if case == "random":
            rng = np.random.default_rng(4)
            for a in range(2):
                m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                stack[a] = m + m.conj().T
        elif case == "y doubled":
            stack[1] *= 2.0
        else:
            stack[1, 0, 2] = stack[1, 2, 0] = 0.0  # spin 0 is the high bit
        spoiled = SystemModel(
            pattern_of(model.drift, stack), model.channel_labels, model.site_dims, "nmr"
        )
        assert model.drive_pairs.tolist() == [[0, 1], [2, 3]]
        assert spoiled.drive_pairs.tolist() == [[2, 3]]

    def test_models_built_separately_compare_unequal_and_hash(self):
        # Equal fields, but the arrays among them have no single truth value:
        # models compare and hash by identity.
        sample = sample_registry().get("diethyl-fluoromalonate-2q")
        first, second = build_nmr(sample), build_nmr(sample)
        assert first == first and first != second
        keys = {first: "first", second: "second"}
        assert len(keys) == 2 and keys[second] == "second"

    def test_built_model_holds_its_pattern_only(self):
        sample = sample_registry().get("sc-chain-12")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = build_sc(sample, sites=range(6))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1.1 * sum(array.nbytes for array in model.pattern)
        assert set(vars(model)) == {f.name for f in dataclasses.fields(model)}
        # The dense operators are views, built afresh on each request.
        assert model.drift is not model.drift and model.control_stack is not model.control_stack
        assert set(vars(model)) == {f.name for f in dataclasses.fields(model)}


class TestBuildNmr:
    def test_two_spin_zz_drift(self):
        model = build_nmr(two_spin_sample())
        want = (math.pi / 2) * 47.6 * np.diag([1, -1, -1, 1])
        assert np.abs(model.drift - want).max() < 1e-12

    def test_single_spin_zero_shift(self):
        sample = NmrSample(name="one", spins=(("A", 0.0),), couplings={})
        model = build_nmr(sample)
        assert np.abs(model.drift).max() == 0.0

    def test_single_spin_controls(self):
        sample = NmrSample(name="one", spins=(("A", 0.0),), couplings={})
        model = build_nmr(sample)
        assert model.channel_labels == ("x:A", "y:A")
        assert np.abs(model.control_stack[0] - math.pi * SX).max() < 1e-15
        assert np.abs(model.control_stack[1] - math.pi * SY).max() < 1e-15

    def test_active_subset(self):
        reg = sample_registry()
        full = reg.get("diethyl-fluoromalonate-3q").with_shifts(0.0)
        model = build_nmr(full.restricted({1, 2}))  # H, F pair
        want = (math.pi / 2) * 47.6 * np.diag([1, -1, -1, 1])
        assert np.abs(model.drift - want).max() < 1e-12
        assert model.channel_labels == ("x:H", "y:H", "x:F", "y:F")

    def test_unknown_spin_index(self):
        with pytest.raises(ValueError):
            two_spin_sample().restricted({0, 5})

    @pytest.mark.parametrize("indices", [[], [-1], [2]])
    def test_restricted_rejects_empty_or_out_of_range(self, indices):
        # [-1] would otherwise wrap round to the last spin.
        with pytest.raises(ValueError):
            two_spin_sample().restricted(indices)

    def test_empty_sample_rejected(self):
        # It used to build a model with d = 1 and no channels.
        with pytest.raises(ValueError, match="no spins in sample e"):
            NmrSample("e", (), {})

    @pytest.mark.parametrize("indices", [[1.7], [0, 1.0], ["1"]])
    def test_restricted_rejects_non_integer_indices(self, indices):
        # int() would truncate 1.7 to spin 1 (F) instead of rejecting it.
        with pytest.raises(TypeError):
            sample_registry().get("diethyl-fluoromalonate-2q").restricted(indices)

    def test_restricted_accepts_numpy_integers(self):
        sample = sample_registry().get("diethyl-fluoromalonate-2q")
        assert sample.restricted(np.array([1])) == sample.restricted([1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_shift_rejected(self, bad):
        sample = sample_registry().get("iodotrifluoroethylene")
        with pytest.raises(ValueError, match="finite"):
            sample.with_shifts([0.0, bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            two_spin_sample(shifts=(0.0, bad))

    @pytest.mark.parametrize(
        "labels, repeated", [(("H", "H"), "['H']"), (("F", "H", "C", "H", "F"), "['F', 'H']")]
    )
    def test_repeated_spin_labels_rejected(self, labels, repeated):
        # Caught at construction, not later as repeated channel labels in build_nmr.
        spins = tuple((label, 0.0) for label in labels)
        with pytest.raises(ValueError, match=re.escape(f"in dup, got {repeated} more than once")):
            NmrSample(name="dup", spins=spins, couplings={})

    def test_non_integer_coupling_index_rejected(self):
        # A (0, 1.5) key used to be kept, and build_nmr then put Z on spin 0
        # alone instead of Z_0 Z_1 into the drift.
        with pytest.raises(TypeError):
            NmrSample("s", (("A", 0.0), ("B", 0.0)), {(0, 1.5): 10.0})

    @pytest.mark.parametrize(
        "couplings, message",
        [
            ({(1, 1): 10.0}, "self-coupling on spin 1 in sample s"),
            ({(0, 2): 10.0}, r"coupling \(0,2\) out of range in s"),
            ({(-1, 0): 10.0}, r"coupling \(-1,0\) out of range in s"),
            ({(0, 1): math.nan}, r"non-finite coupling \(0,1\) in s"),
            ({(0, 1): 10.0, (1, 0): 12.0}, r"conflicting duplicate coupling \(0, 1\) in s"),
        ],
        ids=["self", "past-end", "negative", "non-finite", "conflicting"],
    )
    def test_bad_coupling_rejected(self, couplings, message):
        with pytest.raises(ValueError, match=message):
            NmrSample("s", (("A", 0.0), ("B", 0.0)), couplings)

    def test_repeated_equal_coupling_accepted(self):
        sample = NmrSample("s", (("A", 0.0), ("B", 0.0)), {(0, 1): 10.0, (1, 0): 10.0})
        assert dict(sample.couplings) == {(0, 1): 10.0}

    def test_numpy_integer_coupling_index_accepted(self):
        sample = NmrSample("s", (("A", 0.0), ("B", 0.0)), {(np.int64(1), np.int64(0)): 10.0})
        assert dict(sample.couplings) == {(0, 1): 10.0}
        assert all(type(i) is int for key in sample.couplings for i in key)

    def test_drift_diagonal(self):
        reg = sample_registry()
        model = build_nmr(reg.get("iodotrifluoroethylene"))
        off = model.drift - np.diag(np.diag(model.drift))
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
        assert np.abs(model.drift - want).max() < 1e-15

    def test_masked_off_couplings_block_local(self):
        reg = sample_registry()
        sample = reg.get("sc-chain-12")
        model = build_sc(sample, coupling_mask=[False, False], sites=range(3))
        # With all couplers off the drift is a sum of single-site number terms,
        # hence diagonal.
        off = model.drift - np.diag(np.diag(model.drift))
        assert np.abs(off).max() == 0.0

    def test_two_level_anharmonicity_vanishes(self):
        sample = ScSample(name="pair", qubits=(("Q1", 0.0, -300.0),), coupling_mhz=0.0)
        model = build_sc(sample)
        assert np.abs(model.drift).max() == 0.0

    def test_three_level_anharmonicity_present(self):
        sample = ScSample(
            name="pair", qubits=(("Q1", 0.0, -300.0),), coupling_mhz=0.0, truncation=3
        )
        model = build_sc(sample)
        eta = 2 * math.pi * 1e-3 * (-300.0)
        assert abs(model.drift[2, 2] - eta) < 1e-12

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            ScSample(name="bad", qubits=(("Q1", 0.0, 0.0),), truncation=1)

    def test_non_integer_truncation_rejected(self):
        # 2.5 used to pass construction and fail inside the ladder operator.
        with pytest.raises(TypeError):
            ScSample(name="bad", qubits=(("Q1", 0.0, 0.0),), truncation=2.5)
        spec = {"qubits": [{"label": "Q1", "idle_ghz": 5.0, "anharmonicity_mhz": -250.0}]}
        with pytest.raises(TypeError):
            _parse_sc("bad", {**spec, "truncation": 2.5})
        assert _parse_sc("ok", {**spec, "truncation": 3}).truncation == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        sample = sample_registry().get("sc-chain-12")
        with pytest.raises(ValueError, match="finite"):
            sample.with_idle_frequencies([0.0] * 5 + [bad] + [0.0] * 6)
        with pytest.raises(ValueError, match="finite"):
            ScSample(name="bad", qubits=(("Q1", 0.0, bad),))
        with pytest.raises(ValueError, match="finite"):
            ScSample(name="bad", qubits=(("Q1", 0.0, -200.0),), coupling_mhz=bad)

    @pytest.mark.parametrize("count", [11, 13])
    def test_value_count_must_match_size(self, count):
        # zip() would quietly drop the extra values, or the sites left without one.
        chain = sample_registry().get("sc-chain-12")
        with pytest.raises(ValueError, match="frequency count does not match qubit count"):
            chain.with_idle_frequencies([0.0] * count)
        nmr = sample_registry().get("iodotrifluoroethylene")
        with pytest.raises(ValueError, match="shift count does not match spin count"):
            nmr.with_shifts([0.0] * (count - 8))

    @pytest.mark.parametrize(
        "sites, message",
        [
            ([0, 2], "contiguous"),
            ([3, 2], "contiguous"),
            ([11, 12], "out of range"),
            ([-1, 0], "out of range"),
        ],
    )
    def test_bad_sites_rejected(self, sites, message):
        # [-1, 0] would otherwise wrap round to the last qubit.
        with pytest.raises(ValueError, match=message):
            build_sc(sample_registry().get("sc-chain-12"), sites=sites)

    def test_mask_length_guard(self):
        sample = sample_registry().get("sc-chain-12")
        with pytest.raises(ValueError):
            build_sc(sample, coupling_mask=[True], sites=range(3))

    @pytest.mark.parametrize("sites", [[0.5, 1.5], [0, 1.0]])
    def test_non_integer_sites_rejected(self, sites):
        # int() would build sites 0-1 from [0.5, 1.5].
        with pytest.raises(TypeError):
            build_sc(sample_registry().get("sc-chain-12"), sites=sites)

    def test_numpy_integer_sites_accepted(self):
        sample = sample_registry().get("sc-chain-12")
        got = build_sc(sample, sites=np.arange(2, 4))
        assert got.channel_labels == build_sc(sample, sites=[2, 3]).channel_labels

    def test_empty_sites_rejected(self):
        with pytest.raises(ValueError, match="empty site list"):
            build_sc(sample_registry().get("sc-chain-12"), sites=[])
        # An empty chain used to fail in build_sc, on its coupling mask.
        with pytest.raises(ValueError, match="no qubits in sample e"):
            ScSample("e", ())

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
        comm = model.drift @ num_total - num_total @ model.drift
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
        a = frozen_subsystem_hamiltonian(sample, frozen=set())
        b = build_nmr(sample)
        assert np.abs(a.drift - b.drift).max() == 0.0

    def test_two_spin_freeze_first(self):
        sample = two_spin_sample()
        model = frozen_subsystem_hamiltonian(sample, frozen={0})
        want = (math.pi / 2) * 47.6 * SZ
        assert np.abs(model.drift - want).max() < 1e-12
        assert model.channel_labels == ("x:B", "y:B")

    @pytest.mark.parametrize("frozen", [{0, 1}, {2}, {-1}])
    def test_bad_frozen_set_rejected(self, frozen):
        # Freezing every spin leaves nothing to model; {2} and {-1} name no spin.
        with pytest.raises(ValueError):
            frozen_subsystem_hamiltonian(two_spin_sample(), frozen=frozen)

    def test_non_integer_frozen_set_rejected(self):
        with pytest.raises(TypeError):
            frozen_subsystem_hamiltonian(two_spin_sample(), frozen=[0.5])
        got = frozen_subsystem_hamiltonian(two_spin_sample(), frozen=[np.int64(0)])
        want = frozen_subsystem_hamiltonian(two_spin_sample(), frozen=[0])
        assert np.array_equal(got.drift, want.drift)

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
        reduced = frozen_subsystem_hamiltonian(sample, frozen=frozen)

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
        c1, c2, h2, h3 = (sample.labels.index(l) for l in ("C1", "C2", "H2", "H3"))
        assert sample.coupling(c1, h3) == 128.0
        assert sample.coupling(c2, h2) == -0.7

    def test_sc_chain_idle_frequency(self):
        sample = sample_registry().get("sc-chain-12")
        assert sample.idle_ghz(0) == 4.978
        assert sample.anharmonicity_mhz(0) == -248.0

    def test_two_qubit_sample_values(self):
        sample = sample_registry().get("diethyl-fluoromalonate-2q")
        assert sample.labels == ("H", "F")
        assert sample.coupling(0, 1) == sample.coupling(1, 0) == 47.6
        assert sample.spins[0][1] == 400.0e6

    def test_unknown_sample(self):
        with pytest.raises(SampleNotFoundError):
            sample_registry().get("nonexistent")

    def test_catalogue_matches_json_loads(self):
        # The registry must hold what json.loads reads from the file, with
        # integer schedule sizes; repr also tells -0.0 from 0.0 and an int
        # from an equal float.
        text = resources.files("qoc.data").joinpath("samples.json").read_text()
        doc = json.loads(text)
        for table in doc["schedules"].values():
            table["sizes"] = {int(size): row for size, row in table["sizes"].items()}
        reg = sample_registry()
        for kind, parse in (("nmr", _parse_nmr), ("sc", _parse_sc)):
            want = {name: parse(name, spec) for name, spec in doc[f"{kind}_samples"].items()}
            got = dict(getattr(reg, kind))
            assert got == want and repr(got) == repr(want)
        assert repr(_read_only(doc["schedules"])) == repr(reg.schedules)
        for platform, table in doc["schedules"].items():
            for size, row in table["sizes"].items():
                want = {"dt": table["dt"], "igrape": row["igrape"], "grape": row["grape"]}
                got = reg.reference_schedule(platform, size)
                assert got == want and repr(got) == repr(want)

    def test_all_built_models_hermitian(self):
        reg = sample_registry()
        for name in ("diethyl-fluoromalonate-2q", "iodotrifluoroethylene"):
            model = build_nmr(reg.get(name))
            m = model.drift
            assert np.abs(m - m.conj().T).max() < 1e-12
        model = build_sc(reg.get("sc-chain-12"), sites=range(4))
        m = model.drift
        assert np.abs(m - m.conj().T).max() < 1e-12

    def test_reference_schedules(self):
        reg = sample_registry()
        row = reg.reference_schedule("nmr", 2)
        assert row == {"dt": 5.0e-6, "igrape": [500, 100], "grape": 600}
        row = reg.reference_schedule("sc", 4)
        assert row["igrape"] == [380, 320, 300]

    @pytest.mark.parametrize("size", [1, 5, 100])
    def test_untabulated_schedule_size_rejected(self, size):
        # Neither interpolated between rows nor clamped to the nearest edge.
        with pytest.raises(KeyError, match="tabulated sizes"):
            sample_registry().reference_schedule("sc", size)

    @pytest.mark.parametrize("platform", ["ion", "NMR"])
    def test_unknown_schedule_platform_rejected(self, platform):
        with pytest.raises(KeyError, match=f"no schedule table for platform '{platform}'"):
            sample_registry().reference_schedule(platform, 4)

    @pytest.mark.parametrize("size", [4.0, 4.5, "4"])
    def test_non_integer_schedule_size_rejected(self, size):
        # 4.0 used to find the size-4 row, because 4.0 == 4 as a dict key.
        with pytest.raises(TypeError):
            sample_registry().reference_schedule("nmr", size)

    def test_numpy_integer_schedule_size_accepted(self):
        reg = sample_registry()
        assert reg.reference_schedule("nmr", np.int64(4)) == reg.reference_schedule("nmr", 4)

    def test_catalogue_is_read_only(self):
        reg = sample_registry()
        before = reg.reference_schedule("nmr", 4)
        with pytest.raises(TypeError):
            reg.nmr["tmp"] = reg.get("crotonic-acid")
        with pytest.raises(TypeError):
            reg.sc["tmp"] = reg.get("sc-chain-12")
        with pytest.raises(TypeError):
            reg.schedules["tmp"] = {}
        with pytest.raises(TypeError):
            reg.schedules["nmr"]["sizes"][4]["grape"] = 1
        with pytest.raises(TypeError):
            reg.schedules["nmr"]["sizes"][4]["igrape"][0] = 1
        before["igrape"].append(1)  # a fresh copy for each caller
        again = sample_registry()
        assert "tmp" not in again.nmr and "tmp" not in again.sc
        assert "tmp" not in again.schedules
        assert again.reference_schedule("nmr", 4) == {
            "dt": 5.0e-6, "igrape": [1500, 260], "grape": 1760
        }

    def test_sample_couplings_read_only_and_picklable(self):
        sample = sample_registry().get("diethyl-fluoromalonate-2q")
        with pytest.raises(TypeError):
            sample.couplings[(0, 1)] = 0.0
        assert sample_registry().get("diethyl-fluoromalonate-2q").coupling(0, 1) == 47.6
        again = pickle.loads(pickle.dumps(sample))
        assert again == sample
        with pytest.raises(TypeError):
            again.couplings[(0, 1)] = 0.0

    def test_chain_spec_without_coupler_or_truncation_takes_the_sample_defaults(self):
        spec = {"qubits": [{"label": "Q1", "idle_ghz": 5, "anharmonicity_mhz": -250}]}
        defaults = {field.name: field.default for field in dataclasses.fields(ScSample)}
        sc = _parse_sc("toy", spec)
        assert (sc.coupling_mhz, sc.truncation) == (defaults["coupling_mhz"], defaults["truncation"])
        given = _parse_sc("toy", {**spec, "coupling_mhz": 7, "truncation": 3})
        assert (given.coupling_mhz, given.truncation) == (7.0, 3)
        # The sample converts what the file gives, integers included.
        assert repr(given.qubits) == repr((("Q1", 5.0, -250.0),))
        assert type(given.coupling_mhz) is float
        assert type(ScSample("c", given.qubits, coupling_mhz=7).coupling_mhz) is float

    def test_catalogue_models_pinned_cover_every_case(self):
        assert sorted(catalogue_models()) == sorted(CATALOGUE_DIGESTS)
        assert len(CATALOGUE_DIGESTS) == 36

    @pytest.mark.parametrize("case", list(CATALOGUE_DIGESTS))
    def test_catalogue_operators_pinned(self, case):
        assert operator_digest(catalogue_models()[case]()) == CATALOGUE_DIGESTS[case]

    def test_relaxation_keys_ignored(self):
        nmr = _parse_nmr("toy-one", {
            "formula": "AB",
            "spins": [{"label": "A", "shift_hz": 5.0, "t1_s": 2.0, "t2_s": 1.0}],
        })
        sc = _parse_sc("toy-chain", {
            "qubits": [{"label": "Q1", "idle_ghz": 5.0, "anharmonicity_mhz": -250.0,
                        "t1_us": 40.0, "t2_us": 30.0}],
        })
        assert nmr == NmrSample(name="toy-one", spins=(("A", 5.0),), couplings={})
        assert sc == ScSample(name="toy-chain", qubits=(("Q1", 5.0, -250.0),))
