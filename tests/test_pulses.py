import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg.blas import zgemv

from qoc import optimize, pulses
from qoc.errors import ContractError
from qoc.hamiltonians import (
    NMR_AMPLITUDE_BOUND_HZ,
    SC_AMPLITUDE_BOUND_RAD_PER_NS,
    NmrSample,
    SystemModel,
    build_nmr,
    build_sc,
    frozen_subsystem_hamiltonian,
    sample_registry,
)
from qoc.linalg import StateVector, ground_state
from qoc.pulses import (
    _SIGN_FACTOR,
    SIGN_FORWARD,
    SIGN_REVERSED,
    PulseGrid,
    PulseSequence,
    ground_leakage,
    ground_leakage_value_and_gradient,
    impurity_value_and_gradient,
    infidelity_value_and_gradient,
    propagate,
    random_initial_pulses,
    segment_unitaries,
    state_infidelity,
    subsystem_impurity,
)

from conftest import (
    expm_hermitian,
    finite_difference_gradient,
    ghz_amplitudes,
    kron,
    pattern_of,
    random_state,
    w3_amplitudes,
)


def unit_norm_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = a + a.conj().T
    return h / np.linalg.norm(h, 2)


def toy_model(rng, n_sites=2, n_channels=3):
    d = 2**n_sites
    drift = unit_norm_hermitian(rng, d)
    stack = np.array([unit_norm_hermitian(rng, d) for _ in range(n_channels)])
    labels = tuple(f"c{j}" for j in range(n_channels))
    return SystemModel(pattern_of(drift, stack), labels, site_dims=(2,) * n_sites, platform="nmr")


def toy_sequence(rng, model, segments, dt, sign, scale=2.0):
    amps = rng.uniform(-scale, scale, (segments, model.num_channels))
    return PulseSequence(PulseGrid(dt=dt, segments=segments), amps, model.channel_labels, sign)


def most_per_chunk(row_bytes):
    """Most segments that ``pulses._chunk_bounds`` keeps in one chunk of such rows."""
    n = 1
    while len(pulses._chunk_bounds(n + 1, row_bytes)) == 1:
        n += 1
    return n


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def catalogue_nmr(name, size, fraction, frame=None, sign=SIGN_FORWARD):
    """Model of a catalogue spin sample, with seed-0 pulses over ``fraction`` of
    the box at its reference dt and GRAPE budget; ``frame`` sets every shift."""
    registry = sample_registry()
    sample = registry.get(name)
    model = build_nmr(sample if frame is None else sample.with_shifts(frame))
    schedule = registry.reference_schedule("nmr", size)
    seq = random_initial_pulses(
        PulseGrid(schedule["dt"], schedule["grape"]), model.channel_labels,
        (-NMR_AMPLITUDE_BOUND_HZ, NMR_AMPLITUDE_BOUND_HZ), 0, sign, fraction=fraction,
    )
    return model, seq


def catalogue_sc(name, size, fraction, frame=None):
    """Model of a catalogue qubit chain on ``size`` sites, with seed-0 pulses
    over ``fraction`` of the box at its reference dt and GRAPE budget;
    ``frame`` sets every idle frequency."""
    registry = sample_registry()
    sample = registry.get(name)
    if frame is not None:
        sample = sample.with_idle_frequencies(frame)
    model = build_sc(sample, sites=range(size))
    schedule = registry.reference_schedule("sc", size)
    seq = random_initial_pulses(
        PulseGrid(schedule["dt"], schedule["grape"]), model.channel_labels,
        (-SC_AMPLITUDE_BOUND_RAD_PER_NS, SC_AMPLITUDE_BOUND_RAD_PER_NS), 0, SIGN_FORWARD,
        fraction=fraction,
    )
    return model, seq


class TestPropagate:
    def test_identity_when_everything_zero(self):
        sample = NmrSample(name="one", spins=(("A", 0.0),), couplings={})
        model = build_nmr(sample)
        seq = PulseSequence(
            PulseGrid(1e-5, 4), np.zeros((4, 2)), model.channel_labels, SIGN_FORWARD
        )
        psi0 = StateVector(np.array([0.6, 0.8j]), (2,))
        final, _ = propagate(model, seq, psi0)
        assert np.abs(final.amplitudes - psi0.amplitudes).max() < 1e-12

    def test_quarter_turn_about_x(self):
        # One segment of the pi*sigma_x channel with area pi/4 rotates
        # |0> into (|0> - i|1>)/sqrt(2).
        sample = NmrSample(name="one", spins=(("A", 0.0),), couplings={})
        model = build_nmr(sample)
        dt = 5e-6
        u = 1.0 / (4.0 * dt)  # theta = pi * u * dt = pi/4
        amps = np.array([[u, 0.0]])
        seq = PulseSequence(PulseGrid(dt, 1), amps, model.channel_labels, SIGN_FORWARD)
        final, _ = propagate(model, seq, ground_state((2,)))
        want = np.array([1.0, -1.0j]) / np.sqrt(2)
        assert np.abs(final.amplitudes - want).max() < 1e-12

    def test_reversal_contract(self, rng):
        model = toy_model(rng)
        seq = toy_sequence(rng, model, 6, 0.05, SIGN_FORWARD)
        psi0 = random_state(model.site_dims, rng)
        mid, _ = propagate(model, seq, psi0)
        back, _ = propagate(model, seq.reversed_play_order(), mid)
        assert np.abs(back.amplitudes - psi0.amplitudes).max() < 1e-9

    def test_reversed_sequence_realises_adjoint(self, rng):
        # Optimizing with the reversed sign then playing segments backwards
        # under the forward sign must invert the optimized map.
        model = toy_model(rng)
        seq_r = toy_sequence(rng, model, 5, 0.04, SIGN_REVERSED)
        psi0 = random_state(model.site_dims, rng)
        phi, _ = propagate(model, seq_r, psi0)
        physical = seq_r.reversed_play_order()
        assert physical.sign == SIGN_FORWARD
        back, _ = propagate(model, physical, phi)
        assert np.abs(back.amplitudes - psi0.amplitudes).max() < 1e-9

    def test_norm_preserved(self, rng):
        model = toy_model(rng, n_sites=3, n_channels=4)
        for _ in range(5):
            seq = toy_sequence(rng, model, 8, 0.02, SIGN_FORWARD)
            psi0 = random_state(model.site_dims, rng)
            final, _ = propagate(model, seq, psi0)
            assert abs(final.norm - 1.0) < 1e-9

    def test_workspace_consistency(self, rng):
        model = toy_model(rng)
        seq = toy_sequence(rng, model, 6, 0.03, SIGN_FORWARD)
        psi0 = random_state(model.site_dims, rng)
        _, ws = propagate(model, seq, psi0)
        redone, _ = propagate(model, seq, psi0)
        assert np.linalg.norm(redone.amplitudes - ws.final_amplitudes) < 1e-10

    def test_dimension_mismatch(self, rng):
        model = toy_model(rng)
        seq = toy_sequence(rng, model, 3, 0.01, SIGN_FORWARD)
        with pytest.raises(ValueError):
            propagate(model, seq, ground_state((2,)))

    def test_site_split_must_match_the_model(self):
        # Same dimension, other split: the reduced-state costs would cut the
        # caller's sites instead of the model's.
        model = build_nmr(sample_registry().get("iodotrifluoroethylene"))
        amps = np.zeros((3, model.num_channels))
        seq = PulseSequence(PulseGrid(1e-5, 3), amps, model.channel_labels, SIGN_REVERSED)
        split = StateVector(ghz_amplitudes(4), (4, 4))
        with pytest.raises(ValueError, match=r"\(4, 4\).*\(2, 2, 2, 2\)"):
            propagate(model, seq, split)
        with pytest.raises(ValueError, match="sites"):
            impurity_value_and_gradient(model, seq, split, [0])
        # A target of the right size on another split is rejected too.
        pair = build_nmr(sample_registry().get("diethyl-fluoromalonate-2q"))
        forward = PulseSequence(
            PulseGrid(1e-5, 3), np.zeros((3, 4)), pair.channel_labels, SIGN_FORWARD
        )
        zero, target = ground_state((2, 2)), StateVector(ghz_amplitudes(2), (4,))
        with pytest.raises(ValueError, match=r"\(4,\) vs \(2, 2\)"):
            infidelity_value_and_gradient(pair, forward, zero, target)
        with pytest.raises(ValueError, match=r"\(4,\) vs \(2, 2\)"):
            state_infidelity(zero, target)

    def test_channel_labels_must_match_the_model(self):
        model = build_nmr(sample_registry().get("diethyl-fluoromalonate-2q"))
        assert model.channel_labels == ("x:H", "y:H", "x:F", "y:F")
        seq = PulseSequence(
            PulseGrid(1e-5, 3), np.zeros((3, 4)), ("y:F", "x:F", "y:H", "x:H"), SIGN_FORWARD
        )
        with pytest.raises(ValueError, match="channels"):
            propagate(model, seq, ground_state(model.site_dims))


class TestSegmentHamiltonians:
    @pytest.mark.parametrize("channels", [0, 3])
    @pytest.mark.parametrize("segments", [1, 2, 257])
    def test_matches_operator_sum_and_is_fortran_ordered(self, segments, channels, rng):
        toy = toy_model(rng, n_sites=3)
        stack = toy.control_stack[:channels]
        labels = toy.channel_labels[:channels]
        model = SystemModel(pattern_of(toy.drift, stack), labels, toy.site_dims, "nmr")
        amps = rng.uniform(-2.0, 2.0, (segments, channels))
        h = pulses.segment_hamiltonians(model, amps)
        assert h.shape == (segments, model.dim, model.dim)
        for row, h_k in zip(amps, h):
            want = model.drift + sum(u * op for u, op in zip(row, stack))
            assert h_k.flags.f_contiguous  # zgemv takes it without a copy
            assert np.abs(h_k - want).max() <= 4 * np.finfo(float).eps * np.linalg.norm(want, 2)

    @staticmethod
    def full_gemm(model, amps):
        """Every entry assembled: one real GEMM of the amplitudes against the
        whole transposed control stack viewed as (re, im) pairs, plus the drift."""
        d = model.dim
        controls = np.ascontiguousarray(model.control_stack.transpose(0, 2, 1))
        h_t = (amps @ controls.reshape(-1, d * d).view(np.float64)).view(complex)
        h_t += model.drift.T.reshape(-1)
        return h_t.reshape(-1, d, d).transpose(0, 2, 1)

    @staticmethod
    def pattern_model(rng, case):
        """A 5-site model whose operators' nonzeros are laid out as ``case`` says."""
        if case == "chain":  # 6 sites: hops on the 160 entries that no drive touches
            return build_sc(sample_registry().get("sc-chain-12").with_idle_frequencies(0.0),
                            sites=range(6))
        toy = toy_model(rng, n_sites=5)
        drift, stack, labels = toy.drift, toy.control_stack, toy.channel_labels
        if case == "no controls":
            stack, labels = stack[:0], ()
        elif case == "all zero":
            drift, stack = np.zeros_like(drift), np.zeros_like(stack)
        elif case == "disjoint":
            # A diagonal drift, and controls that are zero on the diagonal
            # and sparse off it.
            drift = np.diag(np.diag(drift))
            keep = np.triu(rng.random(drift.shape) < 0.1, 1)
            stack = stack * (keep | keep.T)
        return SystemModel(pattern_of(drift, stack), labels, toy.site_dims, "nmr")

    @pytest.mark.parametrize("segments", [1, 257])
    @pytest.mark.parametrize("case", ["no controls", "all zero", "dense", "disjoint", "chain"])
    def test_equals_the_full_gemm_on_any_pattern(self, case, segments, rng):
        model = self.pattern_model(rng, case)
        d = model.dim
        rows, cols = model.pattern[:2]
        nnz = {"all zero": 0, "dense": d * d}.get(case, len(rows))
        assert len(rows) == nnz
        if case == "disjoint":
            on_diagonal = rows == cols
            assert 0 < on_diagonal.sum() < nnz
            assert not model.control_stack[:, rows[on_diagonal], cols[on_diagonal]].any()
            assert not model.drift[rows[~on_diagonal], cols[~on_diagonal]].any()
        # More segments than one block of values holds on the dense pattern.
        assert len(pulses._chunk_bounds(257, 16 * d * d)) > 1
        amps = rng.uniform(-2.0, 2.0, (segments, model.num_channels))
        amps[::3] = 0.0
        h = pulses.segment_hamiltonians(model, amps)
        assert np.array_equal(h, self.full_gemm(model, amps))
        assert all(h_k.flags.f_contiguous for h_k in h)

    def test_zero_pattern_takes_no_matvec(self, route, rng):
        model = self.pattern_model(rng, "all zero")
        seq = toy_sequence(rng, model, 9, 0.3, SIGN_FORWARD)
        assert not pulses._taylor_plan(model, seq)[1].any()  # every degree m_k = 0
        route("action")
        psi0 = random_state(model.site_dims, rng)
        _, ws = propagate(model, seq, psi0)
        assert ws.unitaries is None
        assert np.array_equal(ws.forward, np.broadcast_to(psi0.amplitudes, ws.forward.shape))

    def test_calls_return_arrays_that_share_no_memory(self, rng):
        model = toy_model(rng, n_sites=3)
        amps = rng.uniform(-2.0, 2.0, (5, model.num_channels))
        first = pulses.segment_hamiltonians(model, amps)
        assert not np.shares_memory(first, pulses.segment_hamiltonians(model, amps))


class TestNormBounds:
    @staticmethod
    def case(name, fraction, sign):
        """(model, first 200 segments of its seed-0 pulses over ``fraction`` of the box)."""
        if name == "toy":
            model = toy_model(np.random.default_rng(5), n_sites=3)
            seq = toy_sequence(np.random.default_rng(6), model, 200, 0.3, sign, scale=fraction)
            return model, seq
        if name == "nmr4":
            model, seq = catalogue_nmr("iodotrifluoroethylene", 4, fraction, sign=sign)
        else:
            sample = sample_registry().get("sc-chain-12").with_idle_frequencies(0.0)
            if name == "sc2-three-level":
                sample = replace(sample, truncation=3)
            model = build_sc(sample, sites=range(int(name[2])))
            dt = sample_registry().reference_schedule("sc", 6)["dt"]
            seq = random_initial_pulses(
                PulseGrid(dt, 200), model.channel_labels,
                (-SC_AMPLITUDE_BOUND_RAD_PER_NS, SC_AMPLITUDE_BOUND_RAD_PER_NS), 0, sign,
                fraction=fraction,
            )
        amps = seq.amplitudes[:200]
        return model, PulseSequence(PulseGrid(seq.grid.dt, len(amps)), amps, seq.channels, sign)

    @staticmethod
    def norms(model, seq):
        """dt ||H_k||_1 and dt ||H_k||_2 of each segment."""
        h = pulses.segment_hamiltonians(model, seq.amplitudes)
        one = np.abs(h).sum(axis=1).max(axis=1)
        return seq.grid.dt * one, seq.grid.dt * np.linalg.norm(h, 2, axis=(1, 2))

    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    @pytest.mark.parametrize("name", ["sc6", "sc2-three-level", "nmr4", "toy"])
    def test_bound_holds_both_norms(self, name, fraction, sign):
        # On sc6 and nmr4 every column of H_k carries every pair's full
        # drive, so theta_k equals dt ||H_k||_1 in exact arithmetic (see
        # below); a few ulps of roundoff may fall either way.
        model, seq = self.case(name, fraction, sign)
        theta = pulses._norm_bounds(model, seq)
        one, two = self.norms(model, seq)
        slack = 1 + 8 * np.finfo(float).eps
        assert np.all(theta * slack >= one) and np.all(theta * slack >= two)

    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    @pytest.mark.parametrize("name", ["sc6", "nmr4"])
    def test_pairs_make_the_bound_the_exact_one_norm(self, name, fraction):
        # |u_x| + |u_y| in place of hypot(u_x, u_y) would overshoot by up to 41%.
        model, seq = self.case(name, fraction, SIGN_FORWARD)
        one, _ = self.norms(model, seq)
        assert np.abs(pulses._norm_bounds(model, seq) / one - 1).max() <= 1e-14

    @pytest.mark.parametrize("name", ["toy", "sc6-y-doubled"])
    def test_without_pairs_the_bound_sums_every_control(self, name):
        if name == "toy":
            model, seq = self.case("toy", 1.0, SIGN_FORWARD)
        else:
            sc6, seq = self.case("sc6", 1.0, SIGN_FORWARD)
            stack = sc6.control_stack * np.array([1.0, 2.0] * 6)[:, None, None]
            model = SystemModel(
                pattern_of(sc6.drift, stack), sc6.channel_labels, sc6.site_dims, "sc"
            )
        assert not len(model.drive_pairs)
        drift, controls = model.operator_norms
        want = seq.grid.dt * (drift + np.abs(seq.amplitudes) @ controls)
        assert np.array_equal(pulses._norm_bounds(model, seq), want)


class TestChunkedUnitaries:
    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    def test_chunk_boundaries_match_per_segment_exponentials(self, sign, rng):
        model = toy_model(rng, n_sites=5)
        n = most_per_chunk(16 * model.dim**2)
        assert 1 < n < 200  # several chunks in a small test
        scale = (-1.0 if sign == SIGN_FORWARD else 1.0) * 0.3
        for segments in (1, n - 1, n, n + 1, 2 * n + 3):
            seq = toy_sequence(rng, model, segments, 0.3, sign)
            u = segment_unitaries(model, seq)
            assert u.shape == (segments, model.dim, model.dim)
            for k, row in enumerate(seq.amplitudes):
                h = model.drift + sum(amp * op for amp, op in zip(row, model.control_stack))
                assert np.abs(u[k] - expm_hermitian(h, scale)).max() <= 1e-13

    def test_scaling_plan_least_squarings_and_fewest_products(self, rng):
        products = {8: 3, 18: 5}  # Bader-Blanes-Casas
        assert dict(pulses._TAYLOR_PRODUCTS) == products
        reach = pulses._TAYLOR_REACH

        def least_squarings(theta, degree):
            return [max(0, math.ceil(math.log2(t / reach[degree]))) if t else 0 for t in theta]

        for theta in (np.zeros(3), np.logspace(-6, 5, 300), rng.uniform(0.5, 5.0, 1760)):
            degree, squarings = pulses._scaling_plan(theta)
            assert squarings.tolist() == least_squarings(theta, degree)
            cost = {m: len(theta) * products[m] + sum(least_squarings(theta, m)) for m in products}
            assert cost[degree] == min(cost.values())
            assert degree == max(m for m in cost if cost[m] == cost[degree])

    @staticmethod
    def expand(degree):
        """Coefficients of the degree-m scheme's polynomial in X, by exact
        arithmetic on the stored float coefficients."""

        def mul(p, q):
            out = [Fraction(0)] * (len(p) + len(q) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    out[i + j] += a * b
            return out

        def add(*terms):
            out = [Fraction(0)] * max(map(len, terms))
            for p in terms:
                for i, a in enumerate(p):
                    out[i] += a
            return out

        def combine(coef, powers):
            return [
                add(*(mul([Fraction(c)], p) for c, p in zip(row, [[Fraction(1)], *powers])))
                for row in coef.tolist()
            ]

        x = [Fraction(0), Fraction(1)]
        x2 = mul(x, x)
        x3 = mul(x2, x)
        if degree == 8:
            x4 = mul(x2, combine(pulses._T8_FIRST, [x, x2])[0])
            l2, l3, tail = combine(pulses._T8, [x, x2, x4])
            return add(tail, mul(l2, l3))
        b1, b2, b3, b4, b5 = combine(pulses._T18, [x, x2, x3, mul(x3, x3)])
        x9 = add(mul(b1, b5), b4)
        return add(b2, mul(add(b3, x9), x9))

    @pytest.mark.parametrize("degree", [8, 18])
    def test_each_scheme_is_exactly_its_taylor_polynomial(self, degree):
        # Then _TAYLOR_REACH[m] bounds the tail as for the plain series.
        coef = self.expand(degree)
        assert max(k for k, c in enumerate(coef) if c) == degree
        for k in range(degree + 1):
            assert abs(coef[k] * math.factorial(k) - 1) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("degree", sorted(pulses._TAYLOR_PRODUCTS))
    def test_kernel_evaluates_the_taylor_polynomial(self, degree):
        # X = N, the nilpotent shift: row 0 of T(N) lists the coefficients of T.
        d = 26  # room for degree 24 = 18 + 6, should B1 or B5 of T18 lose its zeros
        shift = np.eye(d, k=1)
        h = np.stack([-1j * shift, np.zeros((d, d))])
        squarings = np.array([0, 3])
        pulses._expm_taylor(h, 1.0, squarings, degree)
        want = [1 / math.factorial(k) for k in range(degree + 1)]
        got = h[0, 0]
        assert not got.imag.any() and not got.real[degree + 1 :].any()
        assert np.abs(got.real[: degree + 1] / want - 1).max() <= 4e-15
        assert np.array_equal(h[1], np.eye(d))  # X = 0, squared three times

    @staticmethod
    def catalogue_plan(name, size, fraction, frame=None):
        """Degree and matrix products per segment of the dense fill's plan on a
        catalogue sample, at its reference dt and GRAPE budget, with seed-0
        pulses over ``fraction`` of the box; ``frame`` sets every shift or idle
        frequency."""
        spins = isinstance(sample_registry().get(name), NmrSample)
        model, seq = (catalogue_nmr if spins else catalogue_sc)(name, size, fraction, frame)
        assert not pulses._action_is_cheaper(model, pulses._taylor_plan(model, seq))
        degree, squarings = pulses._scaling_plan(pulses._norm_bounds(model, seq))
        products = len(squarings) * pulses._TAYLOR_PRODUCTS[degree] + squarings.sum()
        return degree, products / len(squarings)

    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    def test_catalogue_nmr4_plan_takes_seven_products_per_segment(self, fraction):
        assert self.catalogue_plan("iodotrifluoroethylene", 4, fraction) == (18, 7)

    # Every dense catalogue case takes degree 8 or 18, at these products per
    # segment; a change that moves one to another scheme fails here.
    @pytest.mark.parametrize(
        "name, size, fraction, frame, degree, per_segment",
        [
            ("bromotrifluorobenzene", 5, 0.1, None, 18, 15273 / 2400),
            ("diethyl-fluoromalonate-2q", 2, 0.1, None, 18, 19),  # laboratory frame
            ("diethyl-fluoromalonate-3q", 3, 0.1, 0.0, 8, 3.64),  # on resonance
            ("sc-chain-12", 4, 1.0, 0.0, 8, 3.385),  # idle frequencies 0
            ("sc-chain-12", 6, 1.0, None, 18, 8),  # catalogue frequencies
        ],
        ids=["nmr5", "nmr2-laboratory", "nmr3-on-resonance", "sc4-idle-0", "sc6"],
    )
    def test_catalogue_plan_keeps_its_scheme(
        self, name, size, fraction, frame, degree, per_segment
    ):
        assert self.catalogue_plan(name, size, fraction, frame) == (degree, per_segment)

    @staticmethod
    def assert_accurate_and_unitary(model, seq):
        # Scaling and squaring loses about one bit per squaring, so the bound
        # grows with the segment's norm bound theta_k.
        u = segment_unitaries(model, seq)
        scale = _SIGN_FACTOR[seq.sign] * seq.grid.dt
        want = expm_hermitian(pulses.segment_hamiltonians(model, seq.amplitudes), scale)
        bound = 1e-13 * np.maximum(1.0, pulses._norm_bounds(model, seq))
        eye = np.eye(model.dim)
        assert np.all(np.abs(u - want).max(axis=(1, 2)) <= bound)
        assert np.all(np.abs(u.conj().transpose(0, 2, 1) @ u - eye).max(axis=(1, 2)) <= bound)

    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    @pytest.mark.parametrize("theta", [1e-4, 0.5, 4.0, 30.0, 1e4])
    def test_each_unitary_matches_eigen_oracle_and_is_unitary(self, theta, sign, rng):
        model = toy_model(rng, n_sites=4)
        seq = TestActionRoute.sequence(rng, model, 40, theta, sign)
        self.assert_accurate_and_unitary(model, seq)

    def test_laboratory_frame_sample_accurate_and_unitary(self):
        # Shifts of 100-400 MHz at dt = 5 us: theta_k ~ 1.2e4, 14 squarings.
        registry = sample_registry()
        model = build_nmr(registry.get("diethyl-fluoromalonate-2q"))
        schedule = registry.reference_schedule("nmr", 2)
        bound = (-NMR_AMPLITUDE_BOUND_HZ, NMR_AMPLITUDE_BOUND_HZ)
        seq = random_initial_pulses(
            PulseGrid(schedule["dt"], schedule["grape"]), model.channel_labels, bound, 0,
            SIGN_FORWARD, fraction=1.0,
        )
        assert pulses._norm_bounds(model, seq).min() > 1e4
        self.assert_accurate_and_unitary(model, seq)

    def test_gradient_peak_memory_bounded_by_one_unitary_stack(self, rng):
        # One U stack is kept for the backward sweep; everything else a
        # cost-and-gradient call allocates must stay small beside it.
        model = toy_model(rng, n_sites=5, n_channels=6)
        seq = toy_sequence(rng, model, 512, 0.1, SIGN_FORWARD)
        psi0 = random_state(model.site_dims, rng)
        target = random_state(model.site_dims, rng)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _, _, ws = infidelity_value_and_gradient(model, seq, psi0, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * ws.unitaries.nbytes


def kernels_run(monkeypatch, model, seq):
    """The dense-fill kernels that segment_unitaries runs, and the stack it returns."""
    logs = {name: ChunkLog(monkeypatch, kernel=name) for name in ("_expm_taylor", "_expm_cos_sin")}
    u = segment_unitaries(model, seq)
    return {name for name, log in logs.items() if log.started}, u


class TestRealKernel:
    """The dense fill's kernel for a real diagonal drift and drives on single spins."""

    @staticmethod
    def expand():
        """Coefficients of C + i S in Y, by exact arithmetic on the stored float
        coefficients: C = I + B0 + Z^4 (B1 + Z^4 B2) over cos's blocks, and
        S = Y (I + B0 + Z^4 (B1 + Z^4 B2)) over sin's, Z = Y^2."""
        terms = [Fraction(0)] * 27
        for odd in (0, 1):
            rows = [[Fraction(c) for c in pulses._COS_SIN[2 * block + odd]] for block in range(3)]
            poly = [Fraction(0)] * 13  # in Z
            for block in (2, 1, 0):
                # poly <- block + Z^4 poly: the block's columns multiply Z^1 .. Z^4
                poly = [Fraction(0)] * 4 + poly[:9]
                for c, value in enumerate(rows[block], start=1):
                    poly[c] += value
            poly[0] += 1
            for n, value in enumerate(poly):
                terms[2 * n + odd] += value * (1j if odd else 1)
        return terms

    def test_blocks_are_exactly_the_taylor_polynomials_of_cos_and_sin(self):
        # C + i S = sum_k (iY)^k / k! to degree 25: cos to 24, sin to 25.
        terms = self.expand()
        assert max(k for k, c in enumerate(terms) if c) == 25
        for k in range(26):
            assert abs(terms[k] * math.factorial(k) / 1j**k - 1) <= 8 * np.finfo(float).eps

    def test_reach_meets_the_tail_rule(self):
        # cos's leading omitted term theta^26 / 26! reaches 2^-53 at the reach,
        # to roundoff; sin's theta^27 / 27! is smaller still.
        reach = pulses._COS_SIN_REACH
        tail = lambda theta: theta**26 / math.factorial(26)
        assert tail(reach * (1 - 1e-12)) <= 2.0**-53 < tail(reach * (1 + 1e-12))
        assert 2.56 < pulses._COS_SIN_REACH < 2.57

    @pytest.mark.parametrize("halvings", [0, 3])
    def test_kernel_evaluates_the_taylor_polynomials(self, halvings):
        # Y = N / 2^j, N the nilpotent shift: row 0 of cos(N) + i sin(N) lists
        # the coefficients.  Double-angle steps change only terms of degree
        # 26 and up, so its entries 0 .. 25 hold them either way.
        d = 30
        shift = np.eye(d, k=1)
        y = np.stack([shift * 2.0**-halvings, np.zeros((d, d))])
        out = np.empty((2, d, d), dtype=complex)
        pulses._expm_cos_sin(y, np.array([halvings, 3]), out)
        want = np.array([1j**k / math.factorial(k) for k in range(26)])
        got = out[0, 0]
        assert np.abs(got.real[:26:2] / want.real[::2] - 1).max() <= 4e-15
        assert np.abs(got.imag[1:26:2] / want.imag[1::2] - 1).max() <= 4e-15
        assert not got.real[1:26:2].any() and not got.imag[:26:2].any()
        if not halvings:  # degrees 24 and 25 exactly
            assert not got[26:].any()
        assert np.array_equal(out[1], np.eye(d))  # Y = 0, doubled three times

    @pytest.mark.parametrize(
        "make",
        [
            lambda sample: build_nmr(sample),
            lambda sample: build_nmr(sample.restricted(range(1, sample.size))),
            lambda sample: frozen_subsystem_hamiltonian(sample, [0]),
        ],
        ids=["full", "restricted", "frozen"],
    )
    @pytest.mark.parametrize("name", sorted(sample_registry().nmr))
    def test_every_catalogue_spin_model_takes_the_real_kernel(self, name, make, monkeypatch):
        model = make(sample_registry().get(name))
        seq = random_initial_pulses(
            PulseGrid(5e-6, 3), model.channel_labels,
            (-NMR_AMPLITUDE_BOUND_HZ, NMR_AMPLITUDE_BOUND_HZ), 0, SIGN_FORWARD,
        )
        kernels, u = kernels_run(monkeypatch, model, seq)
        assert kernels == {"_expm_cos_sin"}
        eye = np.eye(model.dim)
        assert np.abs(u.conj().transpose(0, 2, 1) @ u - eye).max() <= 1e-13

    def test_dense_drift_and_coupled_chain_take_the_complex_kernel(self, monkeypatch, rng):
        # toy_model is labelled "nmr", but its drift is dense: the operators
        # choose the kernel, not the platform.
        chain = build_sc(sample_registry().get("sc-chain-12"), sites=range(3))
        for model in (toy_model(rng), chain):
            seq = toy_sequence(rng, model, 3, 0.1, SIGN_FORWARD)
            assert kernels_run(monkeypatch, model, seq)[0] == {"_expm_taylor"}

    def test_uncoupled_chain_takes_the_real_kernel_with_its_own_drive_phases(self, rng):
        # The chain's y drive is i(a - a†), the opposite sign of a spin's Y.
        sample = sample_registry().get("sc-chain-12")
        model = build_sc(sample, coupling_mask=[False, False], sites=range(3))
        assert model.spin_form is not None
        seq = toy_sequence(rng, model, 20, 0.5, SIGN_REVERSED)
        TestChunkedUnitaries.assert_accurate_and_unitary(model, seq)

    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    @pytest.mark.parametrize(
        "name, size, fraction, frame",
        [
            ("diethyl-fluoromalonate-2q", 2, 1.0, None),  # laboratory frame
            ("diethyl-fluoromalonate-3q", 3, 0.1, 0.0),  # on resonance
            ("iodotrifluoroethylene", 4, 0.1, None),
            ("iodotrifluoroethylene", 4, 1.0, None),
            ("bromotrifluorobenzene", 5, 0.1, None),
        ],
        ids=["nmr2-laboratory", "nmr3-on-resonance", "nmr4-0.1", "nmr4-1.0", "nmr5"],
    )
    def test_accurate_unitary_and_equal_to_the_complex_kernel(
        self, name, size, fraction, frame, sign, monkeypatch
    ):
        model, seq = catalogue_nmr(name, size, fraction, frame, sign)
        TestChunkedUnitaries.assert_accurate_and_unitary(model, seq)
        real = segment_unitaries(model, seq)
        monkeypatch.setattr(SystemModel, "spin_form", property(lambda model: None))
        # The complex kernel squares 14 times at laboratory-frame shifts, so
        # the two agree to 1e-13 theta_k there, as each does with the oracle.
        bound = 1e-13 * np.maximum(1.0, pulses._norm_bounds(model, seq))
        assert np.all(np.abs(real - segment_unitaries(model, seq)).max(axis=(1, 2)) <= bound)

    @pytest.mark.parametrize(
        "make, driven",
        [
            (lambda registry: build_nmr(registry.get("iodotrifluoroethylene")), 4),
            (lambda registry: frozen_subsystem_hamiltonian(
                registry.get("iodotrifluoroethylene"), [0]
            ), 3),
            (lambda registry: build_sc(
                registry.get("sc-chain-12"), coupling_mask=[False, False], sites=range(3)
            ), 3),
        ],
        ids=["nmr4", "nmr4-frozen", "sc3-uncoupled"],
    )
    def test_drive_phases_by_doubling_equal_the_per_bit_loop(self, make, driven, rng):
        # The loop multiplies each index's phase by turn_b for every set bit
        # b, in ascending order, as doubling does: the same bits.  A frozen
        # spin's bit is driven by no control.
        model = make(sample_registry())
        bits = model.spin_form[1]
        assert len(bits) == driven
        k, d = 1760, model.dim
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi, (k, len(bits))))
        turn[:5] = 1.0  # segments whose drives are all off
        want = np.ones((k, d), dtype=complex)
        for j, bit in enumerate(bits):
            want.reshape(k, -1, 2, bit)[:, :, 1] *= turn[:, j, None, None]
        assert np.array_equal(pulses._drive_phases(turn, bits, d), want)

    @staticmethod
    def halvings(model, seq, monkeypatch):
        """Double-angle steps per segment of the real kernel's plan; W = 1 keeps
        the chunks in order."""
        steps = []
        real = pulses._expm_cos_sin
        spy = lambda y, halvings, out: steps.extend(halvings.tolist()) or real(y, halvings, out)
        monkeypatch.setattr(pulses, "_expm_cos_sin", spy)
        monkeypatch.setattr(pulses, "_WORKERS", 1)
        segment_unitaries(model, seq)
        return np.array(steps)

    # At the GRAPE start the norm bound stays within reach: no double-angle
    # step, so nine real products per segment against the complex kernel's
    # seven complex ones.  Full-box pulses take one step, two products more.
    @pytest.mark.parametrize("fraction, steps", [(0.1, 0), (1.0, 1)])
    def test_catalogue_nmr4_plan_takes_nine_products_per_segment(
        self, fraction, steps, monkeypatch
    ):
        halvings = self.halvings(*catalogue_nmr("iodotrifluoroethylene", 4, fraction), monkeypatch)
        assert len(halvings) == 1760 and set(halvings) == {steps}


@pytest.fixture
def route(monkeypatch):
    """Send propagate down one route: route("action") or route("dense")."""

    def force(name):
        monkeypatch.setattr(pulses, "_action_is_cheaper", lambda model, plan: name == "action")

    return force


def one_norm(m):
    return np.abs(m).sum(axis=0).max()


class TestActionRoute:
    @staticmethod
    def sequence(rng, model, segments, theta, sign):
        """Random amplitudes, with dt such that max_k dt ||H_k||_2 = theta."""
        amps = toy_sequence(rng, model, segments, 1.0, sign).amplitudes
        norm = max(np.linalg.norm(h, 2) for h in pulses.segment_hamiltonians(model, amps))
        return PulseSequence(PulseGrid(theta / norm, segments), amps, model.channel_labels, sign)

    @staticmethod
    def chunk_lengths(model, segments):
        """Lengths of the chunks of H_k that a forward sweep by action assembles."""
        lengths = []
        assemble = pulses._hamiltonian_chunks

        def spy(*args):
            for start, h in assemble(*args):
                lengths.append(len(h))
                yield start, h

        amps = np.zeros((segments, model.num_channels))
        seq = PulseSequence(PulseGrid(1e-9, segments), amps, model.channel_labels, SIGN_FORWARD)
        plan = pulses._taylor_plan(model, seq)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pulses, "_hamiltonian_chunks", spy)
            pulses._sweep(model, seq, None, plan, np.zeros(model.dim), backward=False)
        return lengths

    def test_plan_takes_unit_steps_and_least_degree(self, rng):
        model = toy_model(rng, n_sites=3)
        amps = rng.uniform(-2.0, 2.0, (200, model.num_channels)) * np.logspace(-4, 3, 200)[:, None]
        seq = PulseSequence(PulseGrid(1e-3, 200), amps, model.channel_labels, SIGN_FORWARD)
        steps, degrees = pulses._taylor_plan(model, seq)
        for row, s, m in zip(seq.amplitudes, steps, degrees):
            theta = seq.grid.dt * (
                one_norm(model.drift)
                + sum(abs(u) * one_norm(op) for u, op in zip(row, model.control_stack))
            )
            assert s == max(1, math.ceil(theta))
            tail = lambda m: (theta / s) ** (m + 1) / math.factorial(m + 1)
            assert tail(m) <= 2.0**-53 * (1 + 1e-12)
            assert m == 0 or tail(m - 1) > 2.0**-53 * (1 - 1e-12)
        assert steps.min() == 1 and steps.max() >= 5 and degrees.min() <= 5

    @pytest.mark.parametrize("degree", [0, 1, 2, 7])
    def test_series_is_the_truncated_taylor_polynomial(self, degree, rng):
        h = unit_norm_hermitian(rng, 8)
        psi = random_state((2, 2, 2), rng).amplitudes
        coef = -0.3j
        want, term = psi.copy(), psi.copy()
        for j in range(1, degree + 1):
            term = coef * (h @ term) / j
            want += term
        alphas = tuple(coef / j for j in range(degree, 0, -1))
        got = pulses._taylor_apply(np.asfortranarray(h), psi, alphas, 1)
        assert np.abs(got - want).max() <= 1e-15
        twice = pulses._taylor_apply(np.asfortranarray(h), got, alphas, 1)
        assert np.abs(pulses._taylor_apply(h, psi, alphas, 2) - twice).max() <= 1e-15

    @pytest.mark.parametrize("theta", [1e-4, 0.1, 1.0, 4.0])
    def test_matches_dense_route(self, theta, route, rng):
        model = toy_model(rng, n_sites=5)
        n = most_per_chunk(16 * model.dim**2)
        assert 1 < n < 1000
        psi0 = random_state(model.site_dims, rng)
        target = random_state(model.site_dims, rng)
        costs = {
            SIGN_FORWARD: [lambda s: infidelity_value_and_gradient(model, s, psi0, target)],
            SIGN_REVERSED: [
                lambda s: impurity_value_and_gradient(model, s, psi0, (0,)),
                lambda s: ground_leakage_value_and_gradient(model, s, psi0, (0,)),
            ],
        }
        # The backward sweep's chunks start at segment 1, so n + 2 splits it.
        for segments in (1, n - 1, n, n + 1, n + 2):
            lengths = self.chunk_lengths(model, segments)
            assert len(lengths) == -(-segments // n) and max(lengths) - min(lengths) <= 1
            for sign, value_and_grads in costs.items():
                seq = self.sequence(rng, model, segments, theta, sign)
                route("dense")
                _, dense = propagate(model, seq, psi0)
                route("action")
                _, action = propagate(model, seq, psi0)
                assert action.unitaries is None and dense.plan is None
                assert np.abs(action.forward - dense.forward).max() <= 1e-12
                vec = random_state(model.site_dims, rng).amplitudes
                bw = action.backward_adjoint(vec)
                assert bw.shape == (segments, model.dim)
                assert np.abs(bw - dense.backward_adjoint(vec)).max() <= 1e-12
                for value_and_grad in value_and_grads:
                    route("dense")
                    cost_d, grad_d, ws_d = value_and_grad(seq)
                    route("action")
                    cost_a, grad_a, ws_a = value_and_grad(seq)
                    assert ws_d.unitaries is not None and ws_a.unitaries is None
                    assert abs(cost_a - cost_d) <= 1e-12
                    assert rel_err(grad_a, grad_d) <= 1e-12

    @pytest.mark.parametrize("n_sites, action", [(2, False), (5, True)])
    def test_plan_computed_once_per_gradient(self, n_sites, action, monkeypatch, rng):
        # At dt ||H_k|| ~ 1e-4 each segment needs one step of degree 3, so
        # the rule goes dense at d = 4 and by action at d = 32.
        calls = []
        plan = pulses._taylor_plan
        monkeypatch.setattr(pulses, "_taylor_plan", lambda *args: calls.append(1) or plan(*args))
        model = toy_model(rng, n_sites=n_sites)
        seq = self.sequence(rng, model, 12, 1e-4, SIGN_FORWARD)
        psi0, target = (random_state(model.site_dims, rng) for _ in range(2))
        _, _, ws = infidelity_value_and_gradient(model, seq, psi0, target)
        assert (ws.unitaries is None) == action
        assert len(calls) == 1

    def test_rule_picks_dense_for_nmr_and_small_d_and_action_for_sc6(self, rng):
        registry = sample_registry()
        nmr = build_nmr(registry.get("iodotrifluoroethylene"))
        schedule = registry.reference_schedule("nmr", 4)
        bound = (-NMR_AMPLITUDE_BOUND_HZ, NMR_AMPLITUDE_BOUND_HZ)
        seq = random_initial_pulses(
            PulseGrid(schedule["dt"], schedule["grape"]), nmr.channel_labels, bound, 0, SIGN_FORWARD
        )
        _, ws = propagate(nmr, seq, ground_state(nmr.site_dims))
        assert ws.unitaries is not None

        toy = toy_model(rng)
        _, ws = propagate(toy, toy_sequence(rng, toy, 8, 1e-4, SIGN_FORWARD), ground_state(toy.site_dims))
        assert ws.unitaries is not None

        sc = build_sc(registry.get("sc-chain-12").with_idle_frequencies(0.0), sites=range(6))
        schedule = registry.reference_schedule("sc", 6)
        bound = (-SC_AMPLITUDE_BOUND_RAD_PER_NS, SC_AMPLITUDE_BOUND_RAD_PER_NS)
        seq = random_initial_pulses(
            PulseGrid(schedule["dt"], schedule["grape"]), sc.channel_labels, bound, 0,
            SIGN_FORWARD, fraction=1.0,
        )
        final, ws = propagate(sc, seq, ground_state(sc.site_dims))
        assert ws.unitaries is None
        assert abs(final.norm - 1.0) < 1e-12

    def test_rule_goes_by_action_when_the_stack_exceeds_its_budget(self, monkeypatch, rng):
        # The matvec count alone sends this small model dense (see above).
        toy = toy_model(rng)
        seq = toy_sequence(rng, toy, 8, 1e-4, SIGN_FORWARD)
        stack_bytes = 16 * 8 * toy.dim**2
        for budget, dense in ((stack_bytes, True), (stack_bytes - 1, False)):
            monkeypatch.setattr(pulses, "DENSE_STACK_BYTES", budget)
            _, ws = propagate(toy, seq, ground_state(toy.site_dims))
            assert (ws.unitaries is not None) == dense

    def test_gradient_peak_memory_far_below_a_unitary_stack(self, route, rng):
        model = toy_model(rng, n_sites=6, n_channels=6)
        segments = 512
        seq = self.sequence(rng, model, segments, 0.5, SIGN_FORWARD)
        psi0 = random_state(model.site_dims, rng)
        target = random_state(model.site_dims, rng)
        route("action")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _, _, ws = infidelity_value_and_gradient(model, seq, psi0, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ws.unitaries is None
        assert peak <= 0.25 * segments * model.dim**2 * 16

    def test_gradient_makes_no_copy_of_the_control_stack(self, route, rng):
        # 8 chain qubits: the control stack is 16 MiB, and the sweeps and the
        # contraction read it only on its nonzero pattern.
        registry = sample_registry()
        sample = registry.get("sc-chain-12").with_idle_frequencies(0.0)
        model = build_sc(sample, sites=range(8))
        bound = (-SC_AMPLITUDE_BOUND_RAD_PER_NS, SC_AMPLITUDE_BOUND_RAD_PER_NS)
        dt = registry.reference_schedule("sc", 8)["dt"]
        seq = random_initial_pulses(
            PulseGrid(dt, 200), model.channel_labels, bound, 0, SIGN_FORWARD, fraction=1.0
        )
        psi0 = ground_state(model.site_dims)
        target = random_state(model.site_dims, rng)
        route("action")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _, _, ws = infidelity_value_and_gradient(model, seq, psi0, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ws.unitaries is None
        assert peak <= 0.5 * model.control_stack.nbytes


class TestSweepReference:
    """``_sweep`` against reference loops written out here, step by step.

    Action route: the Horner series with keyword zgemv calls, on the H_k
    that the sweep itself assembled; the same BLAS operation on the same
    operands, so the states must be equal.  Dense route: np.matmul per step
    from the sweep's own previous state, backward on the conjugates, U_k^T
    conj(psi) = conj(U_k† psi); numpy may link another BLAS, so each step is
    held to 1e-15 ||psi||.
    """

    @staticmethod
    def sweep(model, seq, psi0, backward):
        """(states, H_k by segment, workspace) of one sweep from psi0."""
        _, ws = propagate(model, seq, StateVector(psi0, model.site_dims))
        seen = {}
        assemble = pulses._hamiltonian_chunks

        def spy(*args):
            for start, h in assemble(*args):
                seen.update((start + i, h_k.copy(order="K")) for i, h_k in enumerate(h))
                yield start, h

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pulses, "_hamiltonian_chunks", spy)
            if backward:
                got = ws.backward_adjoint(psi0)
            else:
                got = pulses._sweep(model, seq, ws.unitaries, ws.plan, psi0, backward=False)
        return got, seen, ws

    @staticmethod
    def horner(h, psi, coef, steps, degree):
        for _ in range(steps):
            w = psi
            for j in range(degree, 0, -1):
                w = zgemv(coef / j, h, w, beta=1.0, y=psi)
            psi = w
        return psi

    @pytest.fixture
    def case(self, rng):
        model = toy_model(rng, n_sites=4)
        # Three chunks of H_k per action sweep, with steps and degrees that vary.
        segments = 2 * most_per_chunk(16 * model.dim**2) + 5
        psi0 = random_state(model.site_dims, rng).amplitudes
        return model, segments, psi0

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    def test_action_sweep_equals_keyword_horner(self, case, sign, backward, route, rng):
        model, segments, psi0 = case
        seq = TestActionRoute.sequence(rng, model, segments, 3.0, sign)
        route("action")
        got, seen, ws = self.sweep(model, seq, psi0, backward)
        steps, degrees = ws.plan
        assert len(set(zip(steps, degrees))) > 2
        coef = (-1.0 if backward else 1.0) * 1j * _SIGN_FACTOR[sign] * seq.grid.dt
        order = range(segments - 1, 0, -1) if backward else range(segments)
        assert sorted(seen) == sorted(order)
        want = np.empty_like(got)
        psi = want[-1 if backward else 0] = psi0
        for k in order:
            psi = self.horner(seen[k], psi, coef / steps[k], int(steps[k]), degrees[k])
            want[k - 1 if backward else k + 1] = psi
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    def test_dense_sweep_matches_matmul_per_step(self, case, sign, backward, route, rng):
        model, segments, psi0 = case
        seq = TestActionRoute.sequence(rng, model, segments, 3.0, sign)
        route("dense")
        got, _, ws = self.sweep(model, seq, psi0, backward)
        u = ws.unitaries
        assert got.shape == (segments if backward else segments + 1, model.dim)
        assert np.array_equal(got[-1 if backward else 0], psi0)
        for k in range(1, segments) if backward else range(segments):
            if backward:
                want = np.matmul(u[k].T, got[k].conj()).conj()
                psi, out = got[k], got[k - 1]
            else:
                want = np.matmul(u[k], got[k])
                psi, out = got[k], got[k + 1]
            assert np.abs(out - want).max() <= 1e-15 * np.linalg.norm(psi)

    @pytest.mark.parametrize("backward", [False, True])
    def test_dense_sweep_keeps_a_copy_zgemv_returns(self, case, backward, route, rng):
        # Should zgemv ever return a new array rather than write the row it
        # is given, the sweep still fills every row with that array.
        model, segments, psi0 = case
        seq = TestActionRoute.sequence(rng, model, segments, 3.0, SIGN_FORWARD)
        route("dense")
        want, _, _ = self.sweep(model, seq, psi0, backward)

        def copying(*args):
            return zgemv(*args[:-1], 0)  # overwrite_y = 0: y is copied first

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pulses, "zgemv", copying)
            got, _, ws = self.sweep(model, seq, psi0, backward)
        assert ws.plan is None and np.array_equal(got, want)


class TestExtensionBinding:
    """``optimize._load_extension`` loads scipy's compiled extensions from
    their files without their packages, or imports them by name where there
    is no such file; ``pulses.zgemv`` comes from ``_fblas`` and
    ``optimize.setulb`` from ``_lbfgsb`` this way."""

    @staticmethod
    def no_extension_files(patch):
        # No suffix matches, so the loader finds no file and imports by name.
        patch.setattr(optimize, "EXTENSION_SUFFIXES", [])

    def test_loader_falls_back_without_an_extension_file(self):
        with pytest.MonkeyPatch.context() as patch:
            self.no_extension_files(patch)
            fblas = optimize._load_extension("linalg", "_fblas")
            lbfgsb = optimize._load_extension("optimize", "_lbfgsb")
        assert fblas is sys.modules["scipy.linalg._fblas"] and fblas.zgemv is zgemv
        assert lbfgsb is sys.modules["scipy.optimize._lbfgsb"]
        assert lbfgsb.setulb is optimize.setulb

    @pytest.mark.parametrize(
        "subpackage, stem, routine", [("linalg", "_fblas", "zgemv"), ("optimize", "_lbfgsb", "setulb")]
    )
    def test_loader_keeps_the_extension_that_scipy_registered(self, subpackage, stem, routine):
        import scipy.optimize  # registers scipy.optimize._lbfgsb

        name = f"scipy.{subpackage}.{stem}"
        registered = sys.modules[name]
        loaded = optimize._load_extension(subpackage, stem)
        assert getattr(loaded, routine) is getattr(registered, routine)
        assert sys.modules[name] is registered
        assert pulses.zgemv is zgemv
        assert optimize.setulb is scipy.optimize._lbfgsb.setulb

    @pytest.mark.parametrize("case", ["nmr4", "sc6-idle0"])
    def test_results_are_bit_identical_on_either_path(self, case, rng):
        # nmr4 sweeps dense, sc6 at idle 0 with full-box pulses by action.
        if case == "nmr4":
            model, seq = catalogue_nmr("iodotrifluoroethylene", 4, 1.0)
        else:
            model, seq = catalogue_sc("sc-chain-12", 6, 1.0, frame=0.0)
        psi0 = ground_state(model.site_dims)
        target = random_state(model.site_dims, rng)

        def results():
            final, ws = propagate(model, seq, psi0)
            value, grad, _ = infidelity_value_and_gradient(model, seq, psi0, target)
            return final.amplitudes, value, grad, ws.unitaries is None

        want = results()
        assert want[-1] == (case == "sc6-idle0")
        for from_file in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not from_file:
                    self.no_extension_files(patch)
                patch.setattr(pulses, "zgemv", optimize._load_extension("linalg", "_fblas").zgemv)
                got = results()
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


class Untouchable:
    """Stands in for a dense operator; any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"dense operator read: .{name}")

    def __getitem__(self, key):
        raise AssertionError("dense operator indexed")

    def __iter__(self):
        raise AssertionError("dense operator iterated")

    def __array__(self, *args, **kwargs):
        raise AssertionError("dense operator converted to an array")


class TestPatternOnly:
    def test_model_only_work_is_derived_once_per_model(self):
        # The real kernel's form and basis and the operator norms are kept on
        # the model: later fills and route plans never read the pattern again.
        nmr = catalogue_nmr("iodotrifluoroethylene", 4, 0.1)
        chain = catalogue_sc("sc-chain-12", 2, 0.1, frame=0.0)

        def work():
            plans = pulses._taylor_plan(*nmr), pulses._taylor_plan(*chain)
            return [segment_unitaries(*nmr), *plans[0], *plans[1]]

        want = work()
        for model, _ in (nmr, chain):
            object.__setattr__(model, "pattern", Untouchable())
        assert all(np.array_equal(a, b) for a, b in zip(work(), want))

    @staticmethod
    def results(model, forward, reversed_, psi0, target):
        """Final state, forward states and U stack of propagate and of each gradient call."""
        final, ws = propagate(model, forward, psi0)
        out = [final.amplitudes, ws.forward, ws.unitaries]
        for value, grad, ws in (
            infidelity_value_and_gradient(model, forward, psi0, target),
            impurity_value_and_gradient(model, reversed_, psi0, (0,)),
            ground_leakage_value_and_gradient(model, reversed_, psi0, (0,)),
        ):
            out += [value, grad, ws.forward, ws.unitaries]
        return out

    @pytest.mark.parametrize("name", ["action", "dense"])
    def test_propagation_and_gradients_read_only_the_pattern(self, name, route, rng, monkeypatch):
        model = toy_model(rng, n_sites=3)
        # A model of its own, so that it derives its forms under the patch below.
        blind = SystemModel(model.pattern, model.channel_labels, model.site_dims, "nmr")
        route(name)
        args = (
            toy_sequence(rng, model, 40, 0.3, SIGN_FORWARD),
            toy_sequence(rng, model, 40, 0.3, SIGN_REVERSED),
            random_state(model.site_dims, rng),
            random_state(model.site_dims, rng),
        )
        want = self.results(model, *args)
        for view in ("drift", "control_stack"):
            monkeypatch.setattr(SystemModel, view, property(lambda self: Untouchable()))
        got = self.results(blind, *args)
        assert (got[2] is None) == (name == "action")
        for a, b in zip(want, got):
            assert (a is None and b is None) or np.array_equal(a, b)


class TestChunkedContraction:
    @staticmethod
    def chunk_length(model):
        return most_per_chunk(16 * len(model.pattern[0]))

    @staticmethod
    def pattern_terms(model, fw, bw):
        """A[k, a] = sum over the pattern of conj(bw_k[i]) (H_a)_ij fw_k[j], all segments at once."""
        rows, cols = model.pattern[:2]
        controls = np.ascontiguousarray(model.control_stack[:, rows, cols])
        return (bw[:, rows].conj() * fw[:, cols]) @ controls.T

    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    def test_matches_unchunked_contraction(self, sign, route, rng):
        route("dense")  # either route's workspace serves; this one is quicker here
        model = toy_model(rng, n_sites=5, n_channels=24)
        n = self.chunk_length(model)
        assert 3 < n < 200
        for segments in (1, 2, 3, n - 1, n, n + 1, 2 * n + 1):
            seq = toy_sequence(rng, model, segments, 0.05, sign)
            _, ws = propagate(model, seq, random_state(model.site_dims, rng))
            adjoint = random_state(model.site_dims, rng).amplitudes
            want = self.pattern_terms(model, ws.forward[1:], ws.backward_adjoint(adjoint))
            np.testing.assert_array_equal(pulses._gradient_terms(ws, adjoint), want)

    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    @pytest.mark.parametrize("chain", [False, True])
    def test_matches_dense_contraction(self, chain, sign, route, rng):
        # The pattern sum reorders the dense one, so it agrees to roundoff:
        # within 1e-14 ||bw_k|| ||H_a||_2 ||fw_k|| per term.
        route("dense")
        if chain:
            registry = sample_registry()
            model = build_sc(registry.get("sc-chain-12").with_idle_frequencies(0.0), sites=range(6))
            bound = (-SC_AMPLITUDE_BOUND_RAD_PER_NS, SC_AMPLITUDE_BOUND_RAD_PER_NS)
            dt = registry.reference_schedule("sc", 6)["dt"]
            seq = random_initial_pulses(
                PulseGrid(dt, 200), model.channel_labels, bound, rng, sign, fraction=1.0
            )
            assert len(model.pattern[0]) < model.dim**2 / 4
        else:
            model = toy_model(rng, n_sites=5, n_channels=24)
            seq = toy_sequence(rng, model, 200, 0.05, sign)
        _, ws = propagate(model, seq, random_state(model.site_dims, rng))
        adjoint = random_state(model.site_dims, rng).amplitudes
        fw, bw = ws.forward[1:], ws.backward_adjoint(adjoint)
        stack = model.control_stack
        h_fw = (fw @ stack.reshape(-1, model.dim).T).reshape(len(fw), -1, model.dim)
        want = np.einsum("ki,kai->ka", bw.conj(), h_fw)
        norms = np.linalg.norm(bw, axis=1) * np.linalg.norm(fw, axis=1)
        bound = 1e-14 * norms[:, None] * np.linalg.norm(stack, 2, axis=(1, 2))
        assert np.all(np.abs(pulses._gradient_terms(ws, adjoint) - want) <= bound)

    def test_peak_memory_far_below_all_segments_at_once(self, route, rng):
        # H_a fw_k for every segment would be a (K, A, d) array of 24 MiB.
        # Zero drift and amplitudes make the sweeps exact and free of matvecs.
        toy = toy_model(rng, n_sites=6, n_channels=12)
        model = SystemModel(
            pattern=pattern_of(np.zeros((toy.dim, toy.dim)), toy.control_stack),
            channel_labels=toy.channel_labels,
            site_dims=toy.site_dims,
            platform="nmr",
        )
        segments = 2048
        seq = PulseSequence(
            PulseGrid(0.1, segments),
            np.zeros((segments, model.num_channels)),
            model.channel_labels,
            SIGN_FORWARD,
        )
        psi0 = random_state(model.site_dims, rng)
        target = random_state(model.site_dims, rng)
        route("action")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            infidelity_value_and_gradient(model, seq, psi0, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * segments * model.num_channels * model.dim * 16


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count W."""
    return lambda count: monkeypatch.setattr(pulses, "_WORKERS", count)


class InjectedError(Exception):
    """A chunk's failure, raised by ``ChunkLog`` on purpose."""


class ChunkLog:
    """Wrap ``pulses.<kernel>``, which each chunk of the dense fill calls once:
    ``_expm_taylor`` for the complex kernel, ``_expm_cos_sin`` for the real one.

    Records the threads that fill chunks and the chunks' lengths.  The first
    ``meet`` chunks to start wait until all of them have started; a lane
    holds one chunk at a time, so they run on ``meet`` distinct threads.
    Then the ``fail_at``-th chunk to start raises, or with ``fail_at`` set
    to "caller" or "pool" every chunk on the thread that built the log or
    on any other thread; every other chunk first sleeps ``delay`` seconds.
    ``busy`` counts chunks that have started and not yet finished.
    """

    def __init__(self, monkeypatch, fail_at=None, delay=0.0, meet=1, kernel="_expm_taylor"):
        self.threads, self.lengths, self.started, self.busy = set(), [], 0, 0
        self.caller = threading.get_ident()
        lock = threading.Lock()
        meeting = threading.Barrier(meet, timeout=30)
        real = getattr(pulses, kernel)

        def fails(index):
            on_caller = threading.get_ident() == self.caller
            return index == fail_at or fail_at == ("caller" if on_caller else "pool")

        def expm(*args):
            with lock:
                index = self.started
                self.started += 1
                self.busy += 1
                self.threads.add(threading.get_ident())
                self.lengths.append(len(args[0]))
            try:
                if index < meet:
                    meeting.wait()
                if fails(index):
                    raise InjectedError("injected")
                time.sleep(delay)
                return real(*args)
            finally:
                with lock:
                    self.busy -= 1

        monkeypatch.setattr(pulses, kernel, expm)


def _fill_in_child(model, seq, expected):
    np.testing.assert_array_equal(segment_unitaries(model, seq), expected)


class TestParallelChunks:
    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    @pytest.mark.parametrize("count", [2, 3])
    def test_bit_identical_for_any_worker_count(self, count, sign, workers, rng):
        model = toy_model(rng, n_sites=4, n_channels=4)
        workers(count)
        n = most_per_chunk(16 * model.dim**2)
        cases = [
            toy_sequence(rng, model, segments, 0.3, sign)
            for segments in (1, 2, count * n - 1, count * n, count * n + 1, 1760)
        ]
        parallel = [segment_unitaries(model, seq) for seq in cases]
        workers(1)
        for seq, u in zip(cases, parallel):
            assert np.array_equal(u, segment_unitaries(model, seq))

    @pytest.mark.parametrize("count", [2, 3])
    def test_bit_identical_when_segment_norms_jump(self, count, workers, rng):
        # Zero amplitudes, then full-box ones: chunks of W = 1 and W = count
        # cut the jump at different places, so a degree or squaring count
        # chosen per chunk would round differently.
        model = toy_model(rng, n_sites=4, n_channels=4)
        amps = rng.uniform(-2.0, 2.0, (1760, model.num_channels))
        amps[:880] = 0.0
        dt = 0.05 / one_norm(model.drift)
        seq = PulseSequence(PulseGrid(dt, 1760), amps, model.channel_labels, SIGN_FORWARD)
        theta = pulses._norm_bounds(model, seq)
        halves = [pulses._scaling_plan(theta[:880]), pulses._scaling_plan(theta[880:])]
        assert halves[0][0] != halves[1][0]  # each half alone takes another degree
        assert len(set(pulses._scaling_plan(theta)[1][880:])) > 1
        workers(count)
        parallel = segment_unitaries(model, seq)
        workers(1)
        assert np.array_equal(parallel, segment_unitaries(model, seq))

    # The real kernel's chunk rows on the 4-spin sample: a quarter of one
    # segment's share of its work array.
    NMR4_ROW_BYTES = pulses._COS_SIN_SLOTS * 8 * 16**2 // 4

    @staticmethod
    def nmr4(rng, segments, zero=0):
        """The 4-spin sample at its reference dt, full-box random pulses, the
        first ``zero`` segments at zero amplitude."""
        model, seq = catalogue_nmr("iodotrifluoroethylene", 4, 1.0)
        amps = rng.uniform(-NMR_AMPLITUDE_BOUND_HZ, NMR_AMPLITUDE_BOUND_HZ, (segments, 8))
        amps[:zero] = 0.0
        return model, replace(seq, grid=PulseGrid(seq.grid.dt, segments), amplitudes=amps)

    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    def test_real_kernel_bit_identical_for_any_worker_count(self, sign, workers, rng):
        n = most_per_chunk(self.NMR4_ROW_BYTES)
        assert 1 < n < 200
        for segments in (1, 2, 2 * n - 1, 2 * n, 3 * n + 1, 1760):
            model, seq = self.nmr4(rng, segments)
            seq = replace(seq, sign=sign)
            u = {}
            for count in (1, 2, 3):
                workers(count)
                u[count] = segment_unitaries(model, seq)
            assert np.array_equal(u[1], u[2]) and np.array_equal(u[1], u[3])

    def test_real_kernel_bit_identical_when_segment_norms_jump(self, workers, monkeypatch, rng):
        # Zero amplitudes, then full-box ones: only the full-box segments take
        # a double-angle step, and the chunk that holds the jump steps only
        # some of its segments.
        model, seq = self.nmr4(rng, 1760, zero=880)
        halvings = TestRealKernel.halvings(model, seq, monkeypatch)
        assert not halvings[:880].any() and halvings[880:].all()
        chunks = pulses._chunk_bounds(1760, self.NMR4_ROW_BYTES)
        assert any(start < 880 < stop for start, stop in chunks)
        u = {}
        for count in (1, 2, 3):
            workers(count)
            u[count] = segment_unitaries(model, seq)
        assert np.array_equal(u[1], u[2]) and np.array_equal(u[1], u[3])

    def test_complex_kernel_on_the_catalogue_chain_bit_identical_for_any_worker_count(
        self, workers, monkeypatch
    ):
        # sc4 at idle frequency 0, full box: the catalogue chain that the
        # dense route's complex kernel fills, in several chunks.
        model, seq = catalogue_sc("sc-chain-12", 4, 1.0, frame=0.0)
        assert propagate(model, seq, ground_state(model.site_dims))[1].unitaries is not None
        u = {}
        for count in (1, 2, 3):
            workers(count)
            log = ChunkLog(monkeypatch, meet=count)
            u[count] = segment_unitaries(model, seq)
            assert len(log.threads) == count and len(log.lengths) > count
        assert np.array_equal(u[1], u[2]) and np.array_equal(u[1], u[3])
        TestChunkedUnitaries.assert_accurate_and_unitary(model, seq)

    def test_real_kernel_chunks_run_on_the_pool(self, workers, monkeypatch, rng):
        # The caller is one of the W lanes; its first chunk waits for the
        # pool lane's, so it cannot drain the queue alone.
        model, seq = self.nmr4(rng, 1760)
        lengths = {}
        for count in (1, 2):
            workers(count)
            log = ChunkLog(monkeypatch, meet=count, kernel="_expm_cos_sin")
            segment_unitaries(model, seq)
            lengths[count] = sorted(log.lengths)
            assert log.caller in log.threads and len(log.threads) == count
        assert lengths[1] == lengths[2] and sum(lengths[1]) == 1760
        assert max(lengths[1]) == most_per_chunk(self.NMR4_ROW_BYTES)

    @pytest.mark.parametrize(
        "segments, row_bytes, lengths",
        [
            (0, pulses.CHUNK_BYTES // 64, []),
            (1, pulses.CHUNK_BYTES // 64, [1]),
            (64, pulses.CHUNK_BYTES // 64, [64]),
            (65, pulses.CHUNK_BYTES // 64, [32, 33]),
            (1760, pulses.CHUNK_BYTES // 512, [440] * 4),
            (1000, pulses.CHUNK_BYTES // 64, [62, 63] * 8),
            (5, 4 * pulses.CHUNK_BYTES, [1] * 5),  # a row over budget is a chunk
        ],
    )
    def test_chunk_bounds(self, segments, row_bytes, lengths):
        bounds = pulses._chunk_bounds(segments, row_bytes)
        assert [stop - start for start, stop in bounds] == lengths
        assert [start for start, _ in bounds] == [sum(lengths[:i]) for i in range(len(lengths))]

    def test_dense_fill_cuts_the_same_chunks_for_any_worker_count(self, workers, monkeypatch, rng):
        model = toy_model(rng, n_sites=4)
        seq = toy_sequence(rng, model, 1760, 0.3, SIGN_FORWARD)
        lengths = {}
        for count in (1, 3):
            workers(count)
            log = ChunkLog(monkeypatch)
            segment_unitaries(model, seq)
            lengths[count] = sorted(log.lengths)
        assert lengths[1] == lengths[3]
        assert sum(lengths[1]) == 1760 and max(lengths[1]) <= most_per_chunk(16 * model.dim**2)

    def test_chunk_sizing_ignores_worker_count(self, workers):
        # Sizing only: a segment_unitaries call here would start 64 threads.
        workers(64)
        lengths = [b - a for a, b in pulses._chunk_bounds(1760, 16 * 16**2)]
        assert len(lengths) == 14 and set(lengths) == {125, 126}
        assert [b - a for a, b in pulses._chunk_bounds(1760, 16 * 32**2)] == [32] * 55
        assert [b - a for a, b in pulses._chunk_bounds(3, 16 * 256**2)] == [1] * 3

    @pytest.mark.parametrize("count, segments", [(1, 1760), (2, 1)])
    def test_single_lane_starts_no_thread(self, count, segments, workers, monkeypatch, rng):
        # The caller fills every chunk under a pool too, so only a pool that
        # is never made shows that no thread starts.
        model = toy_model(rng, n_sites=4)
        workers(count)
        log = ChunkLog(monkeypatch)

        def no_pool(*args, **kwargs):
            raise AssertionError("a single lane started a pool")

        monkeypatch.setattr(pulses, "ThreadPoolExecutor", no_pool)
        segment_unitaries(model, toy_sequence(rng, model, segments, 0.3, SIGN_FORWARD))
        assert log.threads == {log.caller}

    @pytest.mark.parametrize("count", [1, 3])
    def test_assembled_once_on_the_calling_thread(self, count, workers, monkeypatch, rng):
        # One GEMM over all K segments, whatever W is; the benchmark's layer
        # timer also needs every call on the caller's thread.
        model = toy_model(rng, n_sites=4)
        seq = toy_sequence(rng, model, 1760, 0.3, SIGN_FORWARD)
        workers(count)
        threads = []
        assemble = pulses.segment_hamiltonians

        def log(*args):
            threads.append(threading.get_ident())
            return assemble(*args)

        monkeypatch.setattr(pulses, "segment_hamiltonians", log)
        segment_unitaries(model, seq)
        assert threads == [threading.get_ident()]

    @pytest.mark.parametrize("failing", ["pool", "caller"])
    def test_lane_error_raised_after_the_other_lane_finishes(
        self, failing, workers, monkeypatch, rng
    ):
        # One lane's chunk fails at once while the other lane sleeps in its
        # chunk: the error must wait until no thread writes into U, and
        # neither lane starts a chunk after it.
        model = toy_model(rng, n_sites=4)
        seq = toy_sequence(rng, model, 1760, 0.3, SIGN_FORWARD)
        workers(2)
        log = ChunkLog(monkeypatch, fail_at=failing, delay=0.1, meet=2)
        before = threading.active_count()
        with pytest.raises(InjectedError, match="injected"):
            segment_unitaries(model, seq)
        assert log.busy == 0 and log.started == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("count", [2, 3])
    def test_no_thread_outlives_a_call(self, count, fails, workers, monkeypatch, rng):
        model = toy_model(rng, n_sites=4)
        seq = toy_sequence(rng, model, 1760, 0.3, SIGN_FORWARD)
        workers(count)
        log = ChunkLog(monkeypatch, fail_at=3 if fails else None, meet=count)
        before = threading.active_count()
        if fails:
            with pytest.raises(InjectedError, match="injected"):
                segment_unitaries(model, seq)
        else:
            segment_unitaries(model, seq)
        assert threading.active_count() == before
        # The chunks ran on the caller and a pool of W - 1 threads.
        assert log.caller in log.threads and len(log.threads) == count

    def test_concurrent_callers_get_the_serial_result(self, workers, rng):
        # More threads than cores and frequent switches: every caller must
        # get the serial result, and no caller leaves a thread behind.
        model = toy_model(rng, n_sites=4)
        seq = toy_sequence(rng, model, 700, 0.3, SIGN_FORWARD)
        workers(1)
        expected = segment_unitaries(model, seq)
        workers(3)
        existing = set(threading.enumerate())
        results = []
        callers = [
            threading.Thread(target=lambda: results.append(segment_unitaries(model, seq)))
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(results) == 4 and all(np.array_equal(u, expected) for u in results)
        assert set(threading.enumerate()) - existing - set(callers) == set()

    def test_forked_child_fills_the_stack(self, workers, rng):
        model = toy_model(rng, n_sites=4)
        seq = toy_sequence(rng, model, 1760, 0.3, SIGN_FORWARD)
        workers(2)
        expected = segment_unitaries(model, seq)  # starts and joins a pool first
        child = multiprocessing.get_context("fork").Process(
            target=_fill_in_child, args=(model, seq, expected)
        )
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("forked child hung in segment_unitaries")
        assert child.exitcode == 0


class TestCosts:
    def test_infidelity_identical_and_orthogonal(self, rng):
        a = random_state((2, 2), rng)
        assert state_infidelity(a, a) < 1e-12
        zero = ground_state((2,))
        one = StateVector(np.array([0, 1], dtype=complex), (2,))
        assert abs(state_infidelity(zero, one) - 1.0) < 1e-12

    def test_infidelity_half_overlap(self):
        a = ground_state((2,))
        b = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2), (2,))
        assert abs(state_infidelity(a, b) - 0.5) < 1e-12

    def test_impurity_product_zero(self, rng):
        s = kron(random_state((2,), rng), random_state((2, 2), rng))
        assert subsystem_impurity(s, {0}) < 1e-12

    def test_impurity_ghz_half(self):
        s = StateVector(ghz_amplitudes(4), (2,) * 4)
        assert abs(subsystem_impurity(s, {0, 1}) - 0.5) < 1e-12

    def test_impurity_w3(self):
        s = StateVector(w3_amplitudes(), (2, 2, 2))
        assert abs(subsystem_impurity(s, {0}) - 4.0 / 9.0) < 1e-12

    def test_ground_leakage_cases(self, rng):
        psi_b = random_state((2, 2), rng)
        zero_block = kron(ground_state((2, 2)), psi_b)
        assert ground_leakage(zero_block, {0, 1}) < 1e-12

        s = StateVector(ghz_amplitudes(4), (2,) * 4)
        assert abs(ground_leakage(s, {0, 1}) - 0.5) < 1e-12

        ones = StateVector(np.array([0, 0, 0, 1], dtype=complex), (2, 2))
        flipped = kron(ones, psi_b)
        assert abs(ground_leakage(flipped, {0, 1}) - 1.0) < 1e-12

    def test_improper_subsets_rejected(self, rng):
        s = random_state((2, 2), rng)
        with pytest.raises(ValueError):
            subsystem_impurity(s, set())
        with pytest.raises(ValueError):
            subsystem_impurity(s, {0, 1})
        with pytest.raises(ValueError):
            ground_leakage(s, {0, 1})


class TestGradients:
    DT_NORM = 1e-4  # dt * max||H|| operating point for oracle comparisons

    def fd_check(self, rng, kind, n_sites=2, keep=(0,)):
        model = toy_model(rng, n_sites=n_sites)
        max_h = 1.0 + 2.0 * model.num_channels
        dt = self.DT_NORM / max_h
        psi0 = random_state(model.site_dims, rng)
        target = random_state(model.site_dims, rng)

        if kind == "transfer":
            sign = SIGN_FORWARD
            value_and_grad = lambda s: infidelity_value_and_gradient(model, s, psi0, target)
            cost_of = lambda st: state_infidelity(st, target)
        elif kind == "impurity":
            sign = SIGN_REVERSED
            value_and_grad = lambda s: impurity_value_and_gradient(model, s, psi0, keep)
            cost_of = lambda st: subsystem_impurity(st, keep)
        else:
            sign = SIGN_REVERSED
            value_and_grad = lambda s: ground_leakage_value_and_gradient(model, s, psi0, keep)
            cost_of = lambda st: ground_leakage(st, keep)

        seq = toy_sequence(rng, model, 4, dt, sign)
        _, grad, _ = value_and_grad(seq)

        def cost_fn(u):
            state, _ = propagate(model, seq.with_amplitudes(u), psi0)
            return cost_of(state)

        fd = finite_difference_gradient(cost_fn, seq.amplitudes, 1e-4)
        err = rel_err(grad, fd)

        refined = PulseSequence(
            PulseGrid(dt / 2.0, 8), np.repeat(seq.amplitudes, 2, axis=0), seq.channels, sign
        )
        _, grad2, _ = value_and_grad(refined)

        def cost_fn2(u):
            state, _ = propagate(model, refined.with_amplitudes(u), psi0)
            return cost_of(state)

        fd2 = finite_difference_gradient(cost_fn2, refined.amplitudes, 1e-4)
        err2 = rel_err(grad2, fd2)
        return err, err2

    @pytest.mark.parametrize("kind", ["transfer", "impurity", "ground"])
    def test_matches_finite_differences(self, kind, rng):
        errs = [self.fd_check(rng, kind)[0] for _ in range(4)]
        assert max(errs) < 1e-4

    @pytest.mark.parametrize("kind", ["transfer", "impurity", "ground"])
    def test_action_route_matches_finite_differences(self, kind, route, rng):
        route("action")
        errs = [self.fd_check(rng, kind)[0] for _ in range(4)]
        assert max(errs) < 1e-4

    @pytest.mark.parametrize("kind", ["transfer", "impurity", "ground"])
    def test_first_order_convergence(self, kind, rng):
        ratios = []
        for _ in range(4):
            err, err2 = self.fd_check(rng, kind)
            ratios.append(err2 / err)
        assert np.median(ratios) < 0.65

    @pytest.mark.parametrize("seed", [1, 4, 8])
    @pytest.mark.parametrize("kind", ["transfer", "impurity", "ground"])
    def test_first_order_convergence_seeded(self, kind, seed):
        # Propagators that lose digits in U - I at dt ||H|| = 1e-4 gave
        # median ratios up to 0.96 at these seeds.
        self.test_first_order_convergence(kind, np.random.default_rng(seed))

    def test_transfer_fixed_point(self, rng):
        model = toy_model(rng)
        seq = toy_sequence(rng, model, 4, 1e-4, SIGN_FORWARD)
        psi0 = random_state(model.site_dims, rng)
        final, _ = propagate(model, seq, psi0)
        cost, grad, _ = infidelity_value_and_gradient(model, seq, psi0, final)
        assert cost < 1e-12
        assert np.abs(grad).max() < 1e-9

    def test_impurity_fixed_point_zero_hamiltonian(self, rng):
        sample = NmrSample(name="pair", spins=(("A", 0.0), ("B", 0.0)), couplings={})
        model = build_nmr(sample)
        seq = PulseSequence(
            PulseGrid(1e-5, 3), np.zeros((3, 4)), model.channel_labels, SIGN_REVERSED
        )
        product = kron(random_state((2,), rng), random_state((2,), rng))
        cost, grad, _ = impurity_value_and_gradient(model, seq, product, {0})
        assert cost < 1e-12
        assert np.abs(grad).max() < 1e-9

    def test_ground_fixed_point(self, rng):
        sample = NmrSample(name="pair", spins=(("A", 0.0), ("B", 0.0)), couplings={})
        model = build_nmr(sample)
        seq = PulseSequence(
            PulseGrid(1e-5, 3), np.zeros((3, 4)), model.channel_labels, SIGN_REVERSED
        )
        state = kron(ground_state((2,)), random_state((2,), rng))
        cost, grad, _ = ground_leakage_value_and_gradient(model, seq, state, {0})
        assert cost < 1e-12
        assert np.abs(grad).max() < 1e-9

    def test_descent_direction_decreases_ground_cost(self, rng):
        model = toy_model(rng, n_sites=3, n_channels=4)
        dt = 1e-3 / (1 + 2 * model.num_channels)
        seq = toy_sequence(rng, model, 5, dt, SIGN_REVERSED)
        psi0 = random_state(model.site_dims, rng)
        cost, grad, _ = ground_leakage_value_and_gradient(model, seq, psi0, {0})
        stepped = seq.with_amplitudes(seq.amplitudes - 1e-2 * grad)
        state, _ = propagate(model, stepped, psi0)
        assert ground_leakage(state, {0}) < cost

    def test_sign_contract_enforced(self, rng):
        model = toy_model(rng)
        fwd = toy_sequence(rng, model, 3, 1e-4, SIGN_FORWARD)
        rev = toy_sequence(rng, model, 3, 1e-4, SIGN_REVERSED)
        psi0 = random_state(model.site_dims, rng)
        target = random_state(model.site_dims, rng)
        with pytest.raises(ContractError):
            infidelity_value_and_gradient(model, rev, psi0, target)
        with pytest.raises(ContractError):
            impurity_value_and_gradient(model, fwd, psi0, {0})
        with pytest.raises(ContractError):
            ground_leakage_value_and_gradient(model, fwd, psi0, {0})

    def test_adjoint_closed_form_matches_elementwise_definition(self, rng):
        # The impurity adjoint vector (rho_A (x) 1)|phi> must equal the raw
        # double-sum lambda_{ij} = sum_{i'j'} conj(phi_{i'j'}) phi_{ij'} phi_{i'j}.
        for _ in range(5):
            phi = random_state((2, 2, 2), rng)
            m = phi.amplitudes.reshape(2, 4)  # A = site 0, B = sites 1,2
            rho = m @ m.conj().T
            closed = (rho @ m).reshape(-1)
            element = np.zeros_like(closed).reshape(2, 4)
            for i in range(2):
                for j in range(4):
                    acc = 0.0 + 0.0j
                    for ip in range(2):
                        for jp in range(4):
                            acc += np.conj(m[ip, jp]) * m[i, jp] * m[ip, j]
                    element[i, j] = acc
            assert np.abs(closed - element.reshape(-1)).max() < 1e-12


class TestFiniteDifferences:
    def test_constant_cost(self):
        grad = finite_difference_gradient(lambda u: 3.5, np.ones((4, 2)), 1e-3)
        assert np.abs(grad).max() == 0.0

    def test_quadratic(self, rng):
        u0 = rng.uniform(-1, 1, (3, 2))
        grad = finite_difference_gradient(lambda u: float(np.sum(u**2)), u0, 1e-5)
        assert np.abs(grad - 2 * u0).max() < 1e-8

    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda u: 0.0, np.ones((1, 1)), 0.0)


class TestPulseFiles:
    """Construction checks on pulse grids, sequences and random starts."""

    def test_initial_guess_inside_fraction_of_box(self, rng):
        grid = PulseGrid(dt=1.0, segments=50)
        seq = random_initial_pulses(grid, ("a", "b"), (-10.0, 10.0), rng, SIGN_FORWARD)
        assert np.abs(seq.amplitudes).max() <= 1.0

    @pytest.mark.parametrize("fraction", [np.nan, np.inf, 1.5, -0.5])
    def test_random_start_fraction_within_unit_interval(self, fraction, rng):
        with pytest.raises(ValueError, match="fraction"):
            random_initial_pulses(
                PulseGrid(1.0, 3), ("a",), (-1.0, 1.0), rng, SIGN_FORWARD, fraction=fraction
            )

    @pytest.mark.parametrize(
        "fraction, bounds", [(0.0, (-1.0, 1.0)), (1.0, (-1.0, 1.0)), (1.0, (2.0, 2.0))]
    )
    def test_random_start_accepts_edges(self, fraction, bounds, rng):
        seq = random_initial_pulses(PulseGrid(1.0, 3), ("a",), bounds, rng, SIGN_FORWARD, fraction)
        lo, hi = bounds
        assert np.all((fraction * lo <= seq.amplitudes) & (seq.amplitudes <= fraction * hi))

    @pytest.mark.parametrize("bounds", [(2.0, 4.0), (-7.5, -0.25), (0.1, 0.7)])
    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    def test_random_start_about_box_centre(self, bounds, fraction, rng):
        # A box that excludes 0 still gives a start, drawn about its centre.
        lo, hi = bounds
        seq = random_initial_pulses(PulseGrid(1.0, 200), ("a",), bounds, rng, SIGN_FORWARD, fraction)
        centre, half = (lo + hi) / 2, (hi - lo) / 2
        amps = seq.amplitudes
        assert np.all((lo <= amps) & (amps <= hi))
        assert np.abs(amps - centre).max() <= fraction * half * (1 + 1e-12)

    @pytest.mark.parametrize(
        "bound, fraction",
        [(2.0e4, 0.1), (2 * np.pi * 0.05, 1.0), (2 * np.pi * 0.05, 0.1), (3.0, 0.37)],
    )
    def test_random_start_symmetric_box_draws_unchanged(self, bound, fraction):
        # Symmetric boxes keep the draws of uniform(f lo, f hi), so seeded runs do not move.
        grid = PulseGrid(1.0, 64)
        seq = random_initial_pulses(grid, ("a", "b"), (-bound, bound), 7, SIGN_FORWARD, fraction)
        want = np.random.default_rng(7).uniform(-fraction * bound, fraction * bound, size=(64, 2))
        assert np.array_equal(seq.amplitudes, want)

    @pytest.mark.parametrize(
        "amps, channels, sign, message",
        [
            (np.zeros(2), ("a",), SIGN_FORWARD, "must be K x A"),
            (np.zeros((3, 1)), ("a",), SIGN_FORWARD, "amplitude rows 3 != grid segments 2"),
            (np.zeros((2, 2)), ("a",), SIGN_FORWARD, "amplitude columns 2 != channel count 1"),
            (np.zeros((2, 1)), ("a",), "backward", "sign must be forward or reversed"),
        ],
        ids=["shape", "rows", "columns", "sign"],
    )
    def test_malformed_sequence_rejected(self, amps, channels, sign, message):
        with pytest.raises(ValueError, match=message):
            PulseSequence(PulseGrid(dt=1.0, segments=2), amps, channels, sign)

    def test_amplitudes_are_a_read_only_copy(self):
        a = np.zeros((2, 1))
        seq = PulseSequence(PulseGrid(1e-3, 2), a, ("x",), SIGN_FORWARD)
        later = seq.with_amplitudes(a)
        a[0, 0] = 5.0
        assert seq.amplitudes[0, 0] == later.amplitudes[0, 0] == 0.0
        for each in (seq, later, seq.reversed_play_order()):
            with pytest.raises(ValueError, match="read-only"):
                each.amplitudes[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        grid = PulseGrid(dt=1.0, segments=2)
        with pytest.raises(ValueError, match="finite"):
            PulseSequence(grid, np.array([[0.5], [bad]]), ("a",), SIGN_FORWARD)

    @pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -1.0])
    def test_bad_segment_duration_rejected(self, dt):
        with pytest.raises(ValueError):
            PulseGrid(dt=dt, segments=1)

    @pytest.mark.parametrize("segments", [2.5, 2.0, "2"])
    def test_non_integer_segment_count_rejected(self, segments):
        with pytest.raises(TypeError):
            PulseGrid(dt=1.0, segments=segments)

    @pytest.mark.parametrize("segments", [0, -1])
    def test_segment_count_at_least_one(self, segments):
        with pytest.raises(ValueError, match="segment count"):
            PulseGrid(dt=1.0, segments=segments)

    def test_float32_segment_duration_kept_as_python_float(self):
        # A float32 dt made the action route's Horner coefficients complex64:
        # on sc6 the final state's norm was then off by 1.8e-11.
        model, seq = catalogue_sc("sc-chain-12", 6, 1.0, frame=0.0)
        dt, segments = np.float32(seq.grid.dt), seq.grid.segments
        grid = PulseGrid(dt, segments)
        assert type(grid.dt) is float
        psi0 = ground_state(model.site_dims)
        final32, ws = propagate(model, replace(seq, grid=grid), psi0)
        final, _ = propagate(model, replace(seq, grid=PulseGrid(float(dt), segments)), psi0)
        assert ws.unitaries is None
        assert np.array_equal(final32.amplitudes, final.amplitudes)

    def test_numpy_integer_segment_count_accepted(self):
        grid = PulseGrid(dt=1.0, segments=np.int64(3))
        assert grid == PulseGrid(dt=1.0, segments=3)
        assert type(grid.segments) is int
