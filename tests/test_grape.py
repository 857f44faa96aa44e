import dataclasses
import functools
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qoc
from qoc import grape
from qoc.grape import GrapeProblem, GrapeResult, igrape_plan, run_grape
from qoc.hamiltonians import (
    NMR_AMPLITUDE_BOUND_HZ,
    SC_AMPLITUDE_BOUND_RAD_PER_NS,
    SystemModel,
    build_nmr,
    build_sc,
    frozen_subsystem_hamiltonian,
    sample_registry,
)
from qoc.linalg import StateVector, _bipartition_matrix, ground_state
from qoc.optimize import OptimizerConfig
from qoc.pulses import (
    SIGN_FORWARD,
    SIGN_REVERSED,
    PulseGrid,
    ground_leakage,
    propagate,
    random_initial_pulses,
    state_infidelity,
)
from qoc.targets import PqcSpec, ghz, pqc_state

from conftest import SX, SZ, pattern_of


def single_channel_qubit():
    return SystemModel(
        pattern=pattern_of(np.zeros((2, 2)), [math.pi * SX]),
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
    ((_, pulses),) = result.preparation
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


# The benchmark's grape-nmr4 problem: GHZ(4) on iodotrifluoroethylene at the
# catalogue's GRAPE budget, seed 0; prints what the search found.
_GRAPE_NMR4 = """
import hashlib, json
from qoc.grape import GrapeProblem, run_grape
from qoc.hamiltonians import NMR_AMPLITUDE_BOUND_HZ as bound, build_nmr, sample_registry
from qoc.optimize import OptimizerConfig
from qoc.pulses import PulseGrid
from qoc.targets import ghz
registry = sample_registry()
schedule = registry.reference_schedule("nmr", 4)
result = run_grape(GrapeProblem(
    build_nmr(registry.get("iodotrifluoroethylene")), ghz(4),
    PulseGrid(schedule["dt"], schedule["grape"]),
    OptimizerConfig(tolerance=1e-6, max_iterations=500), (-bound, bound), seed=0,
))
(report,) = result.reports
print(json.dumps({
    "iterations": report.iterations, "evaluations": report.evaluations,
    "final_cost": result.final_cost,
    "sha256": hashlib.sha256(result.preparation[0][1].amplitudes.tobytes()).hexdigest(),
}))
"""


def test_grape_nmr4_seed_0_is_pinned_bit_for_bit():
    # A change that keeps the model's operators and the search's arithmetic
    # keeps these: the counts, the cost and the pulses' bits.  In a process of
    # its own with one BLAS thread, as the benchmark runs it: under other
    # thread counts OpenBLAS rounds otherwise, and the search ends elsewhere.
    root = os.path.dirname(os.path.dirname(os.path.abspath(qoc.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _GRAPE_NMR4],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out.splitlines()[-1]) == {
        "iterations": 64,
        "evaluations": 95,
        "final_cost": 9.128928716295448e-07,
        "sha256": "8e54686a7dbdf7ffb8c417208251b4d79635db8a41821752a5d5c7fcb2fcbe18",
    }


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
        (report,) = result.reports
        assert result.iterations == report.iterations
        assert report.evaluations >= 1 and report.wall_time > 0
        assert result.final_cost == report.cost_trace[-1] == result.stage_costs[0]

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
        ((played_on, pulses),) = result.preparation
        assert played_on is model
        replayed, _ = propagate(model, pulses, ground_state((2,)))
        replay_fidelity = 1.0 - state_infidelity(replayed, one)
        assert abs(replay_fidelity - result.fidelity) < 1e-10
        assert abs(result.fidelity - (1.0 - result.final_cost)) < 1e-12

    def test_non_convergence_is_flagged_not_hidden(self, caplog):
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
        with caplog.at_level(logging.DEBUG, logger="qoc.grape"):
            result = run_grape(problem)
        assert not result.converged
        assert result.final_cost >= 1e-12
        # A one-stage plan names the platform and site count in place of a sample.
        assert [(r.levelname, r.getMessage().split(":")[0]) for r in caplog.records] == [
            ("DEBUG", "stage 1 of 1 (1-site nmr model)"),
            ("INFO", "1-site nmr model"),
        ]
        assert "stage 1 of 1 ended at" in caplog.records[-1].getMessage()

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
        for amps in [result.preparation[0][1].amplitudes, *seen]:
            assert amps.min() >= 1.0 and amps.max() <= 2e4
        assert len(seen) == result.reports[0].evaluations > 0

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
        assert np.array_equal(a.preparation[0][1].amplitudes, b.preparation[0][1].amplitudes)
        assert a.reports[0].cost_trace == b.reports[0].cost_trace

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

    def test_numpy_float_tolerance_gives_a_python_bool(self):
        # A float32 tolerance used to make converged a numpy.bool, which
        # json.dumps cannot write.
        problem = GrapeProblem(
            model=single_channel_qubit(),
            target=ground_state((2,)),
            grid=PulseGrid(1e-5, 5),
            optimizer=OptimizerConfig(tolerance=np.float32(1e-3)),
            bounds=(-1e4, 1e4),
            seed=3,
        )
        result = run_grape(problem)
        assert type(problem.optimizer.tolerance) is float
        assert type(result.converged) is bool
        assert json.dumps(result.converged) in ("true", "false")

    def test_model_without_controls_reports_non_convergence(self):
        # A drift that cannot reach the target and nothing to optimize: the
        # search used to raise inside the backend.
        model = SystemModel(
            pattern_of(math.pi * SZ, np.zeros((0, 2, 2))), (), site_dims=(2,), platform="nmr"
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
        assert result.preparation[0][1].amplitudes.shape == (5, 0)
        assert result.reports[0].message == "no free parameters"

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


@functools.cache
def igrape_run(name, max_iterations, target="ghz"):
    """(problem, result) of iGRAPE's default plan from |0...0> to GHZ, or to
    ``pqc_state(PqcSpec(n, 3, 0))``, seed 0, tolerance 1e-6: on a spin
    sample, the 3-spin one on resonance, or on sc-chain-12's Q1-Q4 at idle 0.
    """
    sample = sample_registry().get(name)
    optimizer = OptimizerConfig(tolerance=1e-6, max_iterations=max_iterations)
    if name == "sc-chain-12":
        sample = sample.with_idle_frequencies(0.0)
        model, bound = build_sc(sample, sites=range(4)), SC_AMPLITUDE_BOUND_RAD_PER_NS
        plan = igrape_plan(sample, optimizer, range(4))
    else:
        if name == "diethyl-fluoromalonate-3q":
            sample = sample.with_shifts(0.0)
        model, bound = build_nmr(sample), NMR_AMPLITUDE_BOUND_HZ
        plan = igrape_plan(sample, optimizer)
    n = len(model.site_dims)
    psi = ghz(n) if target == "ghz" else pqc_state(PqcSpec(n, 3, 0))
    problem = GrapeProblem(model, psi, None, optimizer, (-bound, bound), plan=plan)
    return problem, run_grape(problem)


SPIN_SAMPLES = ["iodotrifluoroethylene", "diethyl-fluoromalonate-3q"]


def in_frozen_block(state, site_dims, frozen):
    """``state``, on the sites not in ``frozen``, with the ``frozen`` sites in |0>."""
    amplitudes = np.zeros(site_dims, dtype=complex)
    index = tuple(0 if j in frozen else slice(None) for j in range(len(site_dims)))
    amplitudes[index] = state.amplitudes.reshape(amplitudes[index].shape)
    return StateVector(amplitudes.reshape(-1), site_dims)


class TestIgrape:
    @pytest.mark.parametrize("name", [*SPIN_SAMPLES, "sc-chain-12"])
    def test_default_plan_reaches_the_tolerance(self, name):
        problem, result = igrape_run(name, 500)
        plan, searched = problem.resolved_plan
        n, platform = len(problem.model.site_dims), problem.model.platform
        frozen = [list(stage.frozen) for stage in plan.stages]
        dims = [model.dim for model in searched]
        if platform == "nmr":
            assert frozen == [list(range(1, n)), []] and dims == [2**n, 2]
        else:
            assert frozen == [[0], [0], []] and dims == [16, 8, 4]
        schedule = sample_registry().reference_schedule(platform, n)
        assert [stage.grid.segments for stage in plan.stages] == schedule["igrape"]
        # Split by price: log(1 - eps_i*) is the same share of log(1 - tol) as d_i of sum(d).
        shares = [stage.optimizer.tolerance for stage in plan.stages]
        assert abs(math.prod(1 - share for share in shares) - (1 - 1e-6)) < 1e-15
        rates = [math.log1p(-share) / dim for share, dim in zip(shares, dims)]
        assert np.allclose(rates, math.log1p(-1e-6) / sum(dims), rtol=1e-12, atol=0.0)
        assert result.converged and result.final_cost < 1e-6
        assert all(r.termination == "tolerance" for r in result.reports)

    def test_a_plan_that_cannot_converge_returns_every_record(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="qoc.grape"):
            problem, result = igrape_run.__wrapped__("diethyl-fluoromalonate-3q", 2)
        assert not result.converged and result.final_cost >= 1e-6
        assert len(result.reports) == len(result.stage_costs) == len(result.preparation) == 2
        assert all(r.iterations <= 2 and r.termination == "max-iter" for r in result.reports)
        messages = [(r.levelname, r.getMessage()) for r in caplog.records]
        assert [level for level, _ in messages] == ["DEBUG", "DEBUG", "INFO"]
        for i, (_, message) in enumerate(messages[:2]):
            assert message.startswith(f"stage {i + 1} of 2 (diethyl-fluoromalonate-3q): cost ")
            assert message.endswith("after 2 iterations (max-iter)")
        assert messages[2][1].startswith("diethyl-fluoromalonate-3q: preparation did not converge")
        assert "stage 1 of 2 ended at" in messages[2][1]

    @pytest.mark.parametrize(
        "name, sample, frozen, masks",
        [
            ("diethyl-fluoromalonate-3q", "diethyl-fluoromalonate-3q", [[1, 2], []], [None, None]),
            (
                "sc-chain-12", "sc-chain-12[Q1,Q2,Q3,Q4]", [[0], [0], []],
                [None, [False, True, True], [False, False, True]],
            ),
        ],
    )
    def test_record_is_plain_json(self, name, sample, frozen, masks):
        # coupling_mask names the couplers each stage played with, null on the
        # problem's model.
        problem, result = igrape_run(name, 500)
        record = result.to_dict()
        assert json.loads(json.dumps(record)) == record
        assert record["plan"]["sample"] == sample
        assert [stage["frozen"] for stage in record["plan"]["stages"]] == frozen
        assert [stage["coupling_mask"] for stage in record["plan"]["stages"]] == masks
        assert [stage["cost"] for stage in record["stages"]] == list(result.stage_costs)
        assert record["stages"][0]["report"] == result.reports[0].to_dict()
        assert (record["final_cost"], record["converged"], record["seed"]) == (
            result.final_cost, True, 0,
        )

    @pytest.mark.parametrize(
        "case",
        [
            "last-stage-freezes", "first-freezes-all", "grid-and-plan", "neither-grid-nor-plan",
            "chain-stage-unmasked", "chain-stage-on-other-sites", "chain-at-other-frequencies",
        ],
    )
    def test_plan_that_does_not_fit_the_problem_rejected(self, case):
        registry = sample_registry()
        optimizer = OptimizerConfig(tolerance=1e-6)
        if case.startswith("chain"):
            chain = registry.get("sc-chain-12").with_idle_frequencies(0.0)
            model, plan = build_sc(chain, sites=range(4)), igrape_plan(chain, optimizer, range(4))
        else:
            sample = registry.get("diethyl-fluoromalonate-3q").with_shifts(0.0)
            model, plan = build_nmr(sample), igrape_plan(sample, optimizer)
        stages, grid, match = list(plan.stages), None, "stage"
        if case == "last-stage-freezes":
            stages[-1] = dataclasses.replace(stages[-1], frozen=(0,))
        elif case == "first-freezes-all":
            stages[0] = dataclasses.replace(stages[0], frozen=(0, 1, 2))
        elif case == "chain-stage-unmasked":
            # Q1's coupler on: hopping carries an excitation into the frozen Q1.
            stages[1] = dataclasses.replace(stages[1], model=build_sc(chain, sites=range(4)))
        elif case == "chain-stage-on-other-sites":
            # Q2-Q5 with Q2's coupler off: as many sites, and three of the labels.
            other = build_sc(chain, (False, True, True), range(1, 5))
            stages[1] = dataclasses.replace(stages[1], model=other)
        elif case == "chain-at-other-frequencies":
            # The stages' models at catalogue frequencies, the problem's at idle 0.
            stages = igrape_plan(registry.get("sc-chain-12"), optimizer, range(4)).stages
        elif case == "grid-and-plan":
            grid, match = PulseGrid(5e-6, 10), "grid"
        plan = dataclasses.replace(plan, stages=tuple(stages))
        if case == "neither-grid-nor-plan":
            plan, match = None, "grid"
        with pytest.raises(ValueError, match=match):
            GrapeProblem(model, ghz(len(model.site_dims)), grid, optimizer, (-1e4, 1e4), plan=plan)

    @pytest.mark.parametrize("case", ["spin-sample-given-sites"])
    def test_sites_that_do_not_fit_the_sample_rejected(self, case):
        sample = sample_registry().get("diethyl-fluoromalonate-3q")
        with pytest.raises(ValueError, match="a spin plan takes no sites"):
            igrape_plan(sample, OptimizerConfig(), range(3))

    def test_whole_chain_plans_without_dense_operators(self):
        # Each dense operator of all 12 qubits is 256 MiB, and one control
        # stack 6 GiB; the patterns, the plan's stage models, their search
        # blocks and the problem fit in well under 256 MiB together.
        chain = sample_registry().get("sc-chain-12").with_idle_frequencies(0.0)
        optimizer = OptimizerConfig(tolerance=1e-6)
        tracemalloc.start()
        try:
            model = build_sc(chain)
            plan = igrape_plan(chain, optimizer)
            problem = GrapeProblem(
                model, ghz(12), None, optimizer,
                (-SC_AMPLITUDE_BOUND_RAD_PER_NS, SC_AMPLITUDE_BOUND_RAD_PER_NS), plan=plan,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        assert model.dim == 4096 and len(model.pattern[0]) < model.dim**2 / 200
        assert plan.sample == f"sc-chain-12[{','.join(chain.labels)}]"
        assert [stage.frozen for stage in plan.stages] == [(0,)] * 4 + [()]
        masks = [stage.to_dict()["coupling_mask"] for stage in plan.stages]
        assert masks == [None, *([b >= i for b in range(11)] for i in range(1, 5))]
        _, searched = problem.resolved_plan
        assert [m.site_dims for m in searched] == [(2,) * n for n in range(12, 7, -1)]

    @pytest.mark.parametrize("tolerance", [1.0, 2.0])
    def test_tolerance_that_cannot_be_split_rejected(self, tolerance):
        sample = sample_registry().get("iodotrifluoroethylene")
        with pytest.raises(ValueError, match=f"tolerance below 1, got {tolerance}"):
            igrape_plan(sample, OptimizerConfig(tolerance=tolerance))


def equal_up_to_identity(a, b):
    """Whether a - b is a multiple of the identity, to 1e-12 of b's largest entry."""
    offset = a - b
    offset[np.diag_indices_from(offset)] -= np.trace(offset) / len(offset)
    return np.abs(offset).max() <= 1e-12 * np.abs(b).max()


class TestStagedPlayOut:
    """The identities that iGRAPE's honest play-out rests on.

    A disentangling stage drives the target to a state whose frozen block is
    near |0...0>; the last stage prepares that block's row on the sites left.
    The preparation plays the last stage on its model from |0...0>, then the
    earlier stages' reversed play order, each on its own full-size model.
    """

    @pytest.mark.parametrize(
        "name, max_iterations, target",
        [
            *((name, cap, "ghz") for name in [*SPIN_SAMPLES, "sc-chain-12"] for cap in (2, 500)),
            ("iodotrifluoroethylene", 2, "pqc"),
        ],
    )
    def test_honest_cost_is_the_product_of_the_stage_costs(self, name, max_iterations, target):
        # A staged run of run_grape, checked against a play-out of its
        # preparation and stage costs recomputed here, each on the full-size
        # model its stage plays on.  A cap of 2 leaves each stage far from its
        # share, so the product rule is far from a rule such as sum(eps_i).
        problem, result = igrape_run(name, max_iterations, target)
        full, psi = problem.model, problem.target
        plan, searched = problem.resolved_plan
        in_stage_order = result.preparation[::-1]
        assert [model for model, _ in in_stage_order] == [s.model or full for s in plan.stages]

        phi, frozen, eps = psi, [], []
        for stage, reduced, (model, seq) in zip(plan.stages, searched, in_stage_order):
            columns = [model.channel_labels.index(label) for label in reduced.channel_labels]
            assert not np.delete(seq.amplitudes, columns, axis=1).any()
            if stage.frozen:
                chi, _ = propagate(model, seq.reversed_play_order(), phi)
                active = [j for j in range(len(full.site_dims)) if j not in frozen]
                frozen += [active[j] for j in stage.frozen]
                eps.append(ground_leakage(chi, frozen))
                row = _bipartition_matrix(chi, frozen)[0][0]
                rest = StateVector(row / np.linalg.norm(row), searched[len(eps)].site_dims)
                phi = in_frozen_block(rest, full.site_dims, frozen)
            else:
                w, _ = propagate(model, seq, ground_state(full.site_dims))
                eps.append(state_infidelity(w, phi))
        assert np.allclose(result.stage_costs, eps, rtol=0.0, atol=1e-12)

        state = ground_state(full.site_dims)
        for model, seq in result.preparation:
            state, _ = propagate(model, seq, state)
        assert abs(result.final_cost - state_infidelity(state, psi)) < 1e-12
        product = 1 - math.prod(1 - e for e in result.stage_costs)
        assert abs(result.final_cost - product) < 1e-12
        if max_iterations == 2:
            assert all(0.0 < e < 1.0 for e in eps)
            assert sum(eps) - product > 1e-6
        else:
            assert result.final_cost < 1e-6

    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    @pytest.mark.parametrize("case", ["sc-idle-0", "sc-catalogue", "nmr"])
    def test_reduced_chain_stage_on_the_masked_full_chain(self, case, sign, fraction, rng):
        # Every stage after the first of the default plan, on the chain (Q1-Q4,
        # its couplers off next to the frozen sites) and on a spin sample.  The
        # model a stage searches, derived from the problem's, is the one the
        # Keep-listed builders give; played on the stage's full-size model,
        # its pulses give the reduced propagation tensored with the frozen
        # |0...0>, up to a global phase.  That phase is 1 on the chain at idle
        # 0, where the frozen |0> and the dropped trace carry none.  At idle 0
        # the route rule sends the 4-site chains by action and the reduced
        # ones dense, so this also compares the routes.
        registry = sample_registry()
        optimizer = OptimizerConfig(tolerance=1e-6)
        if case == "nmr":
            sample, bound = registry.get("iodotrifluoroethylene"), NMR_AMPLITUDE_BOUND_HZ
            model, plan = build_nmr(sample), igrape_plan(sample, optimizer)
        else:
            sample, bound = registry.get("sc-chain-12"), SC_AMPLITUDE_BOUND_RAD_PER_NS
            if case == "sc-idle-0":
                sample = sample.with_idle_frequencies(0.0)
            model, plan = build_sc(sample, sites=range(4)), igrape_plan(sample, optimizer, range(4))
        problem = GrapeProblem(model, ghz(4), None, optimizer, (-bound, bound), plan=plan)
        plan, searched = problem.resolved_plan
        frozen = list(plan.stages[0].frozen)
        for stage, reduced in zip(plan.stages[1:], searched[1:]):
            active = [j for j in range(4) if j not in frozen]
            if case == "nmr":
                built = frozen_subsystem_hamiltonian(sample, frozen)
                assert reduced.spin_form is not None
            else:
                built = build_sc(sample, sites=active)
            assert reduced.channel_labels == built.channel_labels
            assert np.array_equal(reduced.control_stack, built.control_stack)
            if case == "sc-idle-0":
                assert np.array_equal(reduced.drift, built.drift)
            assert equal_up_to_identity(reduced.drift, built.drift)
            # Traceless, and no entry that ends zero is left on the pattern.
            drift = reduced.drift
            assert abs(np.trace(drift)) <= 1e-12 * len(drift) * np.abs(drift).max()
            canonical = pattern_of(drift, reduced.control_stack)
            assert all(np.array_equal(a, b) for a, b in zip(reduced.pattern, canonical))

            seq = random_initial_pulses(
                stage.grid, reduced.channel_labels, (-bound, bound), rng, sign, fraction=fraction
            )
            start = pqc_state(PqcSpec(len(active), 2, 1))
            want, _ = propagate(reduced, seq, start)
            played = stage.model or model
            embedded = grape._embedded(seq, played.channel_labels)
            got, _ = propagate(played, embedded, in_frozen_block(start, model.site_dims, frozen))
            want = in_frozen_block(want, model.site_dims, frozen).amplitudes
            phase = np.vdot(want, got.amplitudes)
            assert np.abs(got.amplitudes - phase * want).max() < 1e-12
            assert abs(abs(phase) - 1.0) < 1e-12
            if case == "sc-idle-0":
                assert abs(phase - 1.0) < 1e-12
            frozen += [active[j] for j in stage.frozen]
