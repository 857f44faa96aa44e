import dataclasses
import json
import math

import numpy as np
import pytest

from qoc import grape
from qoc.grape import GrapeProblem, GrapeResult, run_grape
from qoc.hamiltonians import (
    NMR_AMPLITUDE_BOUND_HZ,
    NmrSample,
    SystemModel,
    build_nmr,
    sample_registry,
)
from qoc.linalg import StateVector, ground_state
from qoc.optimize import OptimizerConfig
from qoc.pulses import (
    SIGN_FORWARD,
    PulseGrid,
    propagate,
    random_initial_pulses,
    state_infidelity,
)
from qoc.targets import ghz

from conftest import SX, SZ


def single_channel_qubit():
    return SystemModel(
        drift=np.zeros((2, 2)),
        control_stack=np.array([math.pi * SX]),
        channel_labels=("x",),
        site_dims=(2,),
        platform="nmr",
    )


def test_records_with_arrays_compare_and_hash_by_identity():
    model = single_channel_qubit()
    problem = GrapeProblem(
        model=model,
        target=ground_state((2,)),
        grid=PulseGrid(1e-5, 10),
        optimizer=OptimizerConfig(tolerance=1e-3, max_iterations=50),
        bounds=(-2e4, 2e4),
    )
    result = run_grape(problem)
    pulses = result.pulses
    _, ws = propagate(model, pulses, ground_state((2,)))
    for first, second in (
        (ghz(2), ghz(2)),
        (pulses, pulses.with_amplitudes(pulses.amplitudes)),
        (ws, dataclasses.replace(ws)),
        (problem, dataclasses.replace(problem)),
        (result, dataclasses.replace(result)),
    ):
        assert first == first and first != second
        assert len({first, second}) == 2


@pytest.mark.parametrize(
    "bounds, error",
    [
        pytest.param((-math.inf, math.inf), ValueError, id="inf-inf"),
        pytest.param((-1.0, math.inf), ValueError, id="inf-hi"),
        pytest.param((math.nan, 1.0), ValueError, id="nan-lo"),
        pytest.param((2.0, -2.0), ValueError, id="lo-above-hi"),
        pytest.param((1.0,), ValueError, id="one"),
        pytest.param((-1.0, 0.0, 1.0), ValueError, id="three"),
        pytest.param(("0", "1"), TypeError, id="strings"),
        pytest.param((0.0, None), TypeError, id="none-hi"),
        # Arrays used to pass OptimizerConfig's ordering check and fail inside
        # the backend with "can only convert an array of size 1 to a Python scalar".
        pytest.param((np.zeros(2), np.ones(2)), TypeError, id="arrays"),
        pytest.param((np.zeros(1), 1.0), TypeError, id="array-lo"),
    ],
)
def test_every_entry_point_rejects_a_bad_box_alike(bounds, error):
    entry_points = [
        lambda: OptimizerConfig(bounds=bounds),
        lambda: GrapeProblem(
            single_channel_qubit(), ground_state((2,)), PulseGrid(1e-5, 5),
            OptimizerConfig(tolerance=1e-3), bounds,
        ),
        lambda: random_initial_pulses(PulseGrid(1.0, 3), ("a",), bounds, 0, SIGN_FORWARD),
    ]
    messages = set()
    for build in entry_points:
        with pytest.raises(error) as raised:
            build()
        messages.add(str(raised.value))
    assert len(messages) == 1  # one rule, worded once


class TestRunGrape:
    @pytest.mark.parametrize("case", ["already-there", "flip", "bell"])
    def test_every_record_is_the_searchs_own(self, case):
        # A start already at the target also goes through the search, so
        # each record counts its work and ends at the play-out's cost.
        qubit_box = (-2e4, 2e4)
        problem = {
            "already-there": lambda: GrapeProblem(
                single_channel_qubit(), ground_state((2,)), PulseGrid(1e-5, 10),
                OptimizerConfig(tolerance=1e-3, max_iterations=50), qubit_box, seed=1,
            ),
            "flip": lambda: GrapeProblem(
                single_channel_qubit(), StateVector(np.array([0, 1], dtype=complex), (2,)),
                PulseGrid(5e-6, 20), OptimizerConfig(tolerance=1e-3, max_iterations=200),
                qubit_box, seed=3,
            ),
            "bell": lambda: GrapeProblem(
                build_nmr(
                    sample_registry().get("diethyl-fluoromalonate-3q")
                    .with_shifts(0.0).restricted({0, 2})
                ),
                ghz(2), PulseGrid(5e-6, 600), OptimizerConfig(tolerance=0.003, max_iterations=400),
                (-NMR_AMPLITUDE_BOUND_HZ, NMR_AMPLITUDE_BOUND_HZ),
            ),
        }[case]()
        result = run_grape(problem)
        assert result.converged
        assert result.iterations == result.report.iterations
        assert result.report.evaluations >= 1 and result.report.wall_time > 0
        assert result.final_cost == result.report.cost_trace[-1]

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
        model = build_nmr(sample.restricted({0, 2}))
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

    def test_box_without_zero_returns_a_result(self, monkeypatch):
        # Bounds that exclude 0 are valid, and every sequence the search
        # evaluates lies inside them.
        seen = []

        def recorded(model, seq, *args):
            seen.append(seq.amplitudes)
            return infidelity(model, seq, *args)

        infidelity = grape.infidelity_value_and_gradient
        monkeypatch.setattr(grape, "infidelity_value_and_gradient", recorded)
        sample = sample_registry().get("diethyl-fluoromalonate-3q").with_shifts(0.0)
        problem = GrapeProblem(
            model=build_nmr(sample),
            target=ghz(3),
            grid=PulseGrid(5e-6, 40),
            optimizer=OptimizerConfig(tolerance=1e-3, max_iterations=3),
            bounds=(1.0, 2e4),
        )
        result = run_grape(problem)
        assert isinstance(result, GrapeResult)
        for amps in [result.pulses.amplitudes, *seen]:
            assert amps.min() >= 1.0 and amps.max() <= 2e4
        assert len(seen) == result.report.evaluations > 0

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

    @pytest.mark.parametrize("role", ["target"])
    def test_state_with_another_site_split_rejected(self, role):
        model = build_nmr(sample_registry().get("diethyl-fluoromalonate-2q"))
        split = StateVector(ghz(2).amplitudes, (4,))
        with pytest.raises(ValueError, match=r"\(4,\).*\(2, 2\)"):
            GrapeProblem(
                model=model,
                grid=PulseGrid(1e-5, 5),
                optimizer=OptimizerConfig(tolerance=1e-3),
                bounds=(-1e4, 1e4),
                **{role: split},
            )

    def test_nan_target_rejected(self):
        # GrapeProblem's norm check cannot catch NaN: abs(nan - 1) > tol is False.
        amps = ghz(4).amplitudes.copy()
        amps[-1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            StateVector(amps, (2,) * 4)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), ("0", TypeError)])
    def test_bad_seed_rejected(self, seed, error):
        with pytest.raises(error):
            GrapeProblem(
                model=single_channel_qubit(),
                target=ground_state((2,)),
                grid=PulseGrid(1e-5, 5),
                optimizer=OptimizerConfig(tolerance=1e-3),
                bounds=(-1e4, 1e4),
                seed=seed,
            )

    def test_numpy_integer_seed_stored_as_int(self):
        # An np.int64 seed used to come back in GrapeResult.seed, which
        # json.dumps cannot write.
        problem = GrapeProblem(
            model=single_channel_qubit(),
            target=ground_state((2,)),
            grid=PulseGrid(1e-5, 5),
            optimizer=OptimizerConfig(tolerance=1e-3),
            bounds=(-1e4, 1e4),
            seed=np.int64(3),
        )
        result = run_grape(problem)
        assert type(problem.seed) is int and type(result.seed) is int
        assert json.loads(json.dumps({"seed": result.seed})) == {"seed": 3}

    def test_model_without_controls_reports_non_convergence(self):
        # A drift that cannot reach the target and nothing to optimize: the
        # search used to raise inside the backend.
        model = SystemModel(
            math.pi * SZ, np.zeros((0, 2, 2)), channel_labels=(), site_dims=(2,), platform="nmr"
        )
        problem = GrapeProblem(
            model=model,
            target=StateVector(np.array([0, 1], dtype=complex), (2,)),
            grid=PulseGrid(1e-3, 5),
            optimizer=OptimizerConfig(tolerance=1e-3),
            bounds=(-1e4, 1e4),
        )
        result = run_grape(problem)
        assert not result.converged and result.final_cost == 1.0
        assert result.pulses.amplitudes.shape == (5, 0)
        assert result.report.message == "no free parameters"

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
            assert problem.optimizer.bounds == problem.bounds == (-1e4, 1e4)
            assert run_grape(problem).converged
