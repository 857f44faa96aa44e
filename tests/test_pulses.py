import math
import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qoc import pulses
from qoc.errors import ContractError, DecompositionError
from qoc.hamiltonians import (
    NMR_AMPLITUDE_BOUND_HZ,
    SC_AMPLITUDE_BOUND_RAD_PER_NS,
    NmrSample,
    SystemModel,
    build_nmr,
    build_sc,
    sample_registry,
)
from qoc.linalg import (
    HermitianOperator,
    StateVector,
    expm_hermitian,
    ground_state,
    kron,
    random_state,
)
from qoc.pulses import (
    _chunk_length,
    SIGN_FORWARD,
    SIGN_REVERSED,
    PulseGrid,
    PulseSequence,
    finite_difference_gradient,
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

from conftest import ghz_amplitudes, w3_amplitudes


def unit_norm_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = a + a.conj().T
    return h / np.linalg.norm(h, 2)


def toy_model(rng, n_sites=2, n_channels=3):
    d = 2**n_sites
    drift = HermitianOperator(unit_norm_hermitian(rng, d))
    controls = tuple(
        (f"c{j}", HermitianOperator(unit_norm_hermitian(rng, d))) for j in range(n_channels)
    )
    return SystemModel(drift=drift, controls=controls, site_dims=(2,) * n_sites, platform="nmr")


def toy_sequence(rng, model, segments, dt, sign, scale=2.0):
    amps = rng.uniform(-scale, scale, (segments, model.num_channels))
    return PulseSequence(
        PulseGrid(dt=dt, segments=segments),
        amps,
        model.channel_labels,
        sign,
        bounds=(-scale, scale),
    )


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


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


class TestChunkedUnitaries:
    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    def test_chunk_boundaries_match_per_segment_exponentials(self, sign, rng):
        model = toy_model(rng, n_sites=5)
        n = _chunk_length(model.dim)
        assert 1 < n < 200  # several chunks in a small test
        scale = (-1.0 if sign == SIGN_FORWARD else 1.0) * 0.3
        for segments in (1, n - 1, n, n + 1, 2 * n + 3):
            seq = toy_sequence(rng, model, segments, 0.3, sign)
            u = segment_unitaries(model, seq)
            assert u.shape == (segments, model.dim, model.dim)
            for k, row in enumerate(seq.amplitudes):
                h = model.drift.matrix + sum(
                    amp * op.matrix for amp, (_, op) in zip(row, model.controls)
                )
                assert np.abs(u[k] - expm_hermitian(h, scale)).max() <= 1e-13

    def test_gradient_peak_memory_bounded_by_one_unitary_stack(self, rng):
        # One U stack is kept for the backward sweep; everything else a
        # cost-and-gradient call allocates must stay small beside it.
        model = toy_model(rng, n_sites=5, n_channels=6)
        seq = toy_sequence(rng, model, 512, 0.1, SIGN_FORWARD)
        psi0 = random_state(model.site_dims, rng)
        target = random_state(model.site_dims, rng)
        model.control_stack  # cached on first use; not part of the call
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _, _, ws = infidelity_value_and_gradient(model, seq, psi0, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * ws.unitaries.nbytes

    def test_chunk_length_floor_with_many_workers(self, monkeypatch):
        # Sizing only: a segment_unitaries call here would start 63 threads.
        monkeypatch.setattr(pulses, "_WORKERS", 64)
        assert 1 < _chunk_length(32) < 200  # the boundary test above needs this
        assert _chunk_length(256) == pulses._MIN_CHUNK
        bounds = pulses._chunk_bounds(1760, 32)
        assert len(bounds) % 64 == 0
        assert {stop - start for start, stop in bounds} == {3, 4}
        assert bounds[0][0] == 0 and bounds[-1][1] == 1760
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


@pytest.fixture
def route(monkeypatch):
    """Send propagate down one route: route("action") or route("dense")."""

    def force(name):
        monkeypatch.setattr(pulses, "_takes_action_route", lambda model, seq: name == "action")

    return force


def one_norm(m):
    return np.abs(m).sum(axis=0).max()


class TestActionRoute:
    @staticmethod
    def sequence(rng, model, segments, theta, sign):
        """Random amplitudes, with dt such that max_k dt ||H_k||_2 = theta."""
        amps = toy_sequence(rng, model, segments, 1.0, sign).amplitudes
        norm = max(np.linalg.norm(h, 2) for h in pulses.segment_hamiltonians(model, amps))
        return PulseSequence(
            PulseGrid(theta / norm, segments), amps, model.channel_labels, sign, (-2.0, 2.0)
        )

    @staticmethod
    def chunk_lengths(model, segments):
        amps = np.zeros((segments, model.num_channels))
        return [len(h) for _, h in pulses._hamiltonian_chunks(model, amps, 0, segments, False)]

    def test_plan_takes_unit_steps_and_least_degree(self, rng):
        model = toy_model(rng, n_sites=3)
        amps = rng.uniform(-2.0, 2.0, (200, model.num_channels)) * np.logspace(-4, 3, 200)[:, None]
        seq = PulseSequence(PulseGrid(1e-3, 200), amps, model.channel_labels, SIGN_FORWARD)
        steps, degrees = pulses._taylor_plan(model, seq)
        for row, s, m in zip(seq.amplitudes, steps, degrees):
            theta = seq.grid.dt * (
                one_norm(model.drift.matrix)
                + sum(abs(u) * one_norm(op.matrix) for u, (_, op) in zip(row, model.controls))
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
        got = pulses._taylor_apply(np.asfortranarray(h), psi, coef, 1, degree)
        assert np.abs(got - want).max() <= 1e-15
        twice = pulses._taylor_apply(np.asfortranarray(h), got, coef, 1, degree)
        assert np.abs(pulses._taylor_apply(h, psi, coef, 2, degree) - twice).max() <= 1e-15

    @pytest.mark.parametrize("theta", [1e-4, 0.1, 1.0, 4.0])
    def test_matches_dense_route(self, theta, route, rng):
        model = toy_model(rng, n_sites=5)
        n = self.chunk_lengths(model, 1000)[0]
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
            assert self.chunk_lengths(model, segments)[0] == min(segments, n)
            for sign, value_and_grads in costs.items():
                seq = self.sequence(rng, model, segments, theta, sign)
                dense = pulses._dense_route(model, seq, psi0)
                action = pulses._action_route(model, seq, psi0)
                assert action.unitaries is None
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

    def test_gradient_peak_memory_far_below_a_unitary_stack(self, route, rng):
        model = toy_model(rng, n_sites=6, n_channels=6)
        segments = 512
        seq = self.sequence(rng, model, segments, 0.5, SIGN_FORWARD)
        psi0 = random_state(model.site_dims, rng)
        target = random_state(model.site_dims, rng)
        model.control_stack  # cached on first use; not part of the call
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


class TestChunkedContraction:
    @staticmethod
    def chunk_length(model):
        return pulses.CHUNK_BYTES // (16 * model.num_channels * model.dim)

    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    def test_matches_unchunked_contraction(self, sign, route, rng):
        route("dense")  # either route's workspace serves; this one is quicker here
        model = toy_model(rng, n_sites=5, n_channels=24)
        n = self.chunk_length(model)
        assert 3 < n < 200
        stack = model.control_stack
        for segments in (1, 2, 3, n - 1, n, n + 1, 2 * n + 1):
            seq = toy_sequence(rng, model, segments, 0.05, sign)
            _, ws = propagate(model, seq, random_state(model.site_dims, rng))
            adjoint = random_state(model.site_dims, rng).amplitudes
            fw, bw = ws.forward[1:], ws.backward_adjoint(adjoint)
            h_fw = (fw @ stack.reshape(-1, model.dim).T).reshape(segments, -1, model.dim)
            want = np.einsum("ki,kai->ka", bw.conj(), h_fw)
            np.testing.assert_array_equal(pulses._gradient_terms(ws, adjoint), want)

    def test_peak_memory_far_below_all_segments_at_once(self, route, rng):
        # H_a fw_k for every segment would be a (K, A, d) array of 24 MiB.
        # Zero drift and amplitudes make the sweeps exact and free of matvecs.
        toy = toy_model(rng, n_sites=6, n_channels=12)
        model = SystemModel(
            drift=HermitianOperator(np.zeros((toy.dim, toy.dim))),
            controls=toy.controls,
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
        model.control_stack  # cached on first use; not part of the call
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
    """Set the worker count W; each setting gets its own helper pool."""
    shared = pulses._pool

    def shut_test_pool():
        if pulses._pool is not None and pulses._pool is not shared:
            pulses._pool.shutdown()

    def set_workers(count):
        shut_test_pool()
        monkeypatch.setattr(pulses, "_WORKERS", count)
        monkeypatch.setattr(pulses, "_pool", None)

    yield set_workers
    shut_test_pool()


def _fill_in_child(model, seq, expected):
    np.testing.assert_array_equal(segment_unitaries(model, seq), expected)


class TestParallelChunks:
    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    @pytest.mark.parametrize("count", [2, 3])
    def test_bit_identical_for_any_worker_count(self, count, sign, workers, rng):
        model = toy_model(rng, n_sites=4, n_channels=4)
        workers(count)
        n = _chunk_length(model.dim)
        cases = [
            toy_sequence(rng, model, segments, 0.3, sign)
            for segments in (1, 2, count * n - 1, count * n, count * n + 1, 1760)
        ]
        parallel = [segment_unitaries(model, seq) for seq in cases]
        workers(1)
        for seq, u in zip(cases, parallel):
            assert np.array_equal(u, segment_unitaries(model, seq))

    def test_chunks_are_a_multiple_of_workers_and_equal(self, workers):
        workers(2)
        bounds = pulses._chunk_bounds(1760, 16)
        assert len(bounds) == 14
        assert {stop - start for start, stop in bounds} == {125, 126}
        assert bounds[0][0] == 0 and bounds[-1][1] == 1760
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("count, segments", [(1, 1760), (2, 1)])
    def test_single_lane_starts_no_thread(self, count, segments, workers, rng):
        model = toy_model(rng, n_sites=4)
        workers(count)
        before = threading.active_count()
        segment_unitaries(model, toy_sequence(rng, model, segments, 0.3, SIGN_FORWARD))
        assert threading.active_count() == before
        assert pulses._pool is None

    def test_helper_error_reaches_caller(self, workers, monkeypatch, rng):
        model = toy_model(rng, n_sites=4)
        seq = toy_sequence(rng, model, 1760, 0.3, SIGN_FORWARD)
        workers(2)
        caller = threading.get_ident()
        real = pulses.expm_hermitian

        def failing_on_helpers(h, scale):
            if threading.get_ident() != caller:
                raise DecompositionError("injected", 1.0)
            return real(h, scale)

        monkeypatch.setattr(pulses, "expm_hermitian", failing_on_helpers)
        with pytest.raises(DecompositionError, match="injected"):
            segment_unitaries(model, seq)

    def test_caller_error_raised_after_helpers_finish(self, workers, monkeypatch, rng):
        model = toy_model(rng, n_sites=4)
        seq = toy_sequence(rng, model, 1760, 0.3, SIGN_FORWARD)
        workers(2)
        caller = threading.get_ident()
        real = pulses.expm_hermitian
        helper_chunks = []

        def failing_on_caller(h, scale):
            if threading.get_ident() == caller:
                raise DecompositionError("injected", 1.0)
            helper_chunks.append(h.shape[0])
            return real(h, scale)

        monkeypatch.setattr(pulses, "expm_hermitian", failing_on_caller)
        with pytest.raises(DecompositionError, match="injected"):
            segment_unitaries(model, seq)
        assert len(helper_chunks) == len(pulses._chunk_bounds(1760, model.dim)) // 2

    def test_concurrent_callers_share_one_pool(self, workers, rng):
        # More threads than cores and frequent switches: every caller must
        # get the serial result, and the helper threads never exceed W - 1.
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
        started = set(threading.enumerate()) - existing - set(callers)
        assert 0 < len(started) <= 2

    def test_forked_child_gets_a_working_pool(self, workers, rng):
        model = toy_model(rng, n_sites=4)
        seq = toy_sequence(rng, model, 1760, 0.3, SIGN_FORWARD)
        workers(2)
        expected = segment_unitaries(model, seq)  # the parent's pool now has a thread
        assert pulses._pool is not None
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
            PulseGrid(dt / 2.0, 8),
            np.repeat(seq.amplitudes, 2, axis=0),
            seq.channels,
            sign,
            seq.bounds,
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

    @pytest.mark.parametrize("bounds", [(-np.inf, np.inf), (-1.0, np.inf), (np.nan, 1.0)])
    def test_random_start_needs_finite_bounds(self, bounds, rng):
        with pytest.raises(ValueError, match="finite"):
            random_initial_pulses(PulseGrid(1.0, 3), ("a",), bounds, rng, SIGN_FORWARD)

    def test_bounds_enforced(self):
        grid = PulseGrid(dt=1.0, segments=1)
        with pytest.raises(ValueError):
            PulseSequence(grid, np.array([[5.0]]), ("a",), SIGN_FORWARD, bounds=(-1, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        grid = PulseGrid(dt=1.0, segments=2)
        with pytest.raises(ValueError, match="finite"):
            PulseSequence(grid, np.array([[0.5], [bad]]), ("a",), SIGN_FORWARD)
        with pytest.raises(ValueError, match="finite"):
            PulseSequence(grid, np.array([[0.5], [bad]]), ("a",), SIGN_FORWARD, bounds=(-1, 1))

    @pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -1.0])
    def test_bad_segment_duration_rejected(self, dt):
        with pytest.raises(ValueError):
            PulseGrid(dt=dt, segments=1)
