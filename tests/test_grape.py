import math

import numpy as np
import pytest

from qoc.grape import GrapeProblem, GrapeResult, run_grape
from qoc.hamiltonians import (
    NMR_AMPLITUDE_BOUND_HZ,
    NmrSample,
    SystemModel,
    build_nmr,
    sample_registry,
)
from qoc.linalg import HermitianOperator, StateVector, ground_state
from qoc.optimize import OptimizerConfig
from qoc.pulses import PulseGrid, propagate, state_infidelity
from qoc.targets import ghz

from conftest import SX


def single_channel_qubit():
    drift = HermitianOperator(np.zeros((2, 2)))
    controls = (("x", HermitianOperator(math.pi * SX)),)
    return SystemModel(drift=drift, controls=controls, site_dims=(2,), platform="nmr")


class TestRunGrape:
    def test_target_already_reached_zero_controls(self):
        model = single_channel_qubit()
        problem = GrapeProblem(
            model=model,
            target=ground_state((2,)),
            grid=PulseGrid(1e-5, 10),
            optimizer=OptimizerConfig(tolerance=1e-3, max_iterations=50),
            bounds=(-2e4, 2e4),
            seed=1,
        )
        result = run_grape(problem)
        assert result.converged
        assert result.report.iterations == 0
        assert np.abs(result.pulses.amplitudes).max() == 0.0
        assert abs(result.fidelity - 1.0) < 1e-12

    def test_single_qubit_flip(self):
        model = single_channel_qubit()
        one = StateVector(np.array([0, 1], dtype=complex), (2,))
        problem = GrapeProblem(
            model=model,
            target=one,
            grid=PulseGrid(5e-6, 20),
            optimizer=OptimizerConfig(tolerance=1e-3, max_iterations=200),
            bounds=(-2e4, 2e4),
            seed=3,
        )
        result = run_grape(problem)
        assert result.converged
        assert result.final_cost <= 1e-3

    def test_report_honesty_on_resimulation(self):
        model = single_channel_qubit()
        one = StateVector(np.array([0, 1], dtype=complex), (2,))
        problem = GrapeProblem(
            model=model,
            target=one,
            grid=PulseGrid(5e-6, 20),
            optimizer=OptimizerConfig(tolerance=1e-3, max_iterations=200),
            bounds=(-2e4, 2e4),
            seed=5,
        )
        result = run_grape(problem)
        replayed, _ = propagate(model, result.pulses, ground_state((2,)))
        replay_fidelity = 1.0 - state_infidelity(replayed, one)
        assert abs(replay_fidelity - result.fidelity) < 1e-10
        assert abs(result.fidelity - (1.0 - result.final_cost)) < 1e-12

    def test_non_convergence_is_flagged_not_hidden(self):
        model = single_channel_qubit()
        one = StateVector(np.array([0, 1], dtype=complex), (2,))
        problem = GrapeProblem(
            model=model,
            target=one,
            grid=PulseGrid(5e-6, 20),
            optimizer=OptimizerConfig(tolerance=1e-12, max_iterations=2),
            bounds=(-2e4, 2e4),
            seed=3,
        )
        result = run_grape(problem)
        assert not result.converged
        assert result.final_cost >= 1e-12

    def test_bell_state_with_sufficient_coupling_budget(self):
        # C-F pair of the three-spin sample: |J| = 194.4 Hz over 3 ms gives
        # more entangling angle than a Bell state needs, so the pipeline must
        # reach the benchmark fidelity floor here.
        sample = sample_registry().get("diethyl-fluoromalonate-3q").with_shifts(0.0)
        model = build_nmr(sample, active_spins={0, 2})
        problem = GrapeProblem(
            model=model,
            target=ghz(2),
            grid=PulseGrid(5e-6, 600),
            optimizer=OptimizerConfig(tolerance=0.003, max_iterations=400),
            bounds=(-NMR_AMPLITUDE_BOUND_HZ, NMR_AMPLITUDE_BOUND_HZ),
            seed=0,
        )
        result = run_grape(problem)
        assert result.converged
        assert result.fidelity >= 0.997

    def test_determinism_same_seed(self):
        model = single_channel_qubit()
        one = StateVector(np.array([0, 1], dtype=complex), (2,))
        kwargs = dict(
            model=model,
            target=one,
            grid=PulseGrid(5e-6, 20),
            optimizer=OptimizerConfig(tolerance=1e-4, max_iterations=100),
            bounds=(-2e4, 2e4),
        )
        a = run_grape(GrapeProblem(seed=7, **kwargs))
        b = run_grape(GrapeProblem(seed=7, **kwargs))
        assert np.array_equal(a.pulses.amplitudes, b.pulses.amplitudes)
        assert a.report.cost_trace == b.report.cost_trace

    def test_unnormalized_target_rejected(self):
        model = single_channel_qubit()
        with pytest.raises(ValueError):
            GrapeProblem(
                model=model,
                target=StateVector(np.array([1.0, 1.0]), (2,)),
                grid=PulseGrid(1e-5, 5),
                optimizer=OptimizerConfig(tolerance=1e-3),
                bounds=(-1e4, 1e4),
            )

    def test_nan_target_rejected(self):
        # GrapeProblem's norm check cannot catch NaN: abs(nan - 1) > tol is False.
        amps = ghz(4).amplitudes.copy()
        amps[-1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            StateVector(amps, (2,) * 4)

    @pytest.mark.parametrize("bounds", [(-math.inf, math.inf), (-1e4, math.inf), (math.nan, 1e4)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            GrapeProblem(
                model=single_channel_qubit(),
                target=ground_state((2,)),
                grid=PulseGrid(1e-5, 5),
                optimizer=OptimizerConfig(tolerance=1e-3),
                bounds=bounds,
            )

    def test_conflicting_optimizer_bounds_rejected(self):
        kwargs = dict(
            model=single_channel_qubit(),
            target=ground_state((2,)),
            grid=PulseGrid(1e-5, 5),
            bounds=(-1e4, 1e4),
        )
        with pytest.raises(ValueError, match="conflict"):
            GrapeProblem(optimizer=OptimizerConfig(tolerance=1e-3, bounds=(-1.0, 1.0)), **kwargs)
        for same in (None, (-1e4, 1e4)):
            problem = GrapeProblem(optimizer=OptimizerConfig(tolerance=1e-3, bounds=same), **kwargs)
            assert run_grape(problem).converged
