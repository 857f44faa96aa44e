import dataclasses
import functools
import json
import logging
import math

import numpy as np
import pytest

from qoc import grape
from qoc.grape import GrapeProblem, GrapeResult, igrape_plan, run_grape
from qoc.hamiltonians import (
    NMR_AMPLITUDE_BOUND_HZ,
    SC_AMPLITUDE_BOUND_RAD_PER_NS,
    SystemModel,
    build_nmr,
    build_sc,
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

from conftest import SX, SZ, kron


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
    ``pqc_state(PqcSpec(n, 3, 0))``, on a spin sample, seed 0, tolerance
    1e-6; the 3-spin sample runs on resonance.
    """
    sample = sample_registry().get(name)
    if name == "diethyl-fluoromalonate-3q":
        sample = sample.with_shifts(0.0)
    psi = ghz(sample.size) if target == "ghz" else pqc_state(PqcSpec(sample.size, 3, 0))
    optimizer = OptimizerConfig(tolerance=1e-6, max_iterations=max_iterations)
    problem = GrapeProblem(
        build_nmr(sample), psi, None, optimizer,
        (-NMR_AMPLITUDE_BOUND_HZ, NMR_AMPLITUDE_BOUND_HZ), plan=igrape_plan(sample, optimizer),
    )
    return problem, run_grape(problem)


SPIN_SAMPLES = ["iodotrifluoroethylene", "diethyl-fluoromalonate-3q"]


class TestIgrape:
    @pytest.mark.parametrize("name", SPIN_SAMPLES)
    def test_default_plan_reaches_the_tolerance(self, name):
        problem, result = igrape_run(name, 500)
        first, last = problem.resolved_plan.stages
        assert list(first.frozen) == list(range(1, len(problem.model.site_dims)))
        assert last.model.site_dims == (2,) and not last.frozen
        schedule = sample_registry().reference_schedule("nmr", len(problem.model.site_dims))
        assert [stage.grid.segments for stage in (first, last)] == schedule["igrape"]
        shares = [stage.optimizer.tolerance for stage in (first, last)]
        assert shares[0] == shares[1] and abs((1 - shares[0]) ** 2 - (1 - 1e-6)) < 1e-15
        assert result.converged and result.final_cost < 1e-6
        assert [r.termination for r in result.reports] == ["tolerance", "tolerance"]

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

    def test_record_is_plain_json(self):
        problem, result = igrape_run("diethyl-fluoromalonate-3q", 500)
        record = result.to_dict()
        assert json.loads(json.dumps(record)) == record
        assert record["plan"]["sample"] == "diethyl-fluoromalonate-3q"
        assert [stage["frozen"] for stage in record["plan"]["stages"]] == [[1, 2], []]
        assert [stage["cost"] for stage in record["stages"]] == list(result.stage_costs)
        assert record["stages"][0]["report"] == result.reports[0].to_dict()
        assert (record["final_cost"], record["converged"], record["seed"]) == (
            result.final_cost, True, 0,
        )

    @pytest.mark.parametrize(
        "case",
        [
            "other-sample", "other-shifts", "stage-0-model", "last-stage-freezes",
            "first-freezes-all", "grid-and-plan", "neither-grid-nor-plan",
        ],
    )
    def test_plan_that_does_not_fit_the_problem_rejected(self, case):
        sample = sample_registry().get("diethyl-fluoromalonate-3q").with_shifts(0.0)
        optimizer = OptimizerConfig(tolerance=1e-6)
        plan = igrape_plan(sample, optimizer)
        first, last = plan.stages
        model, grid, match = build_nmr(sample), None, "stage"
        if case == "other-sample":
            model = build_nmr(sample_registry().get("iodotrifluoroethylene"))
        elif case == "other-shifts":
            # Same sites and channels, but spin 0 off resonance: stage 1 would
            # search a Hamiltonian other than the one the preparation plays on.
            model = build_nmr(sample_registry().get("diethyl-fluoromalonate-3q"))
        elif case == "stage-0-model":
            plan = dataclasses.replace(plan, stages=(dataclasses.replace(first, model=model), last))
        elif case == "last-stage-freezes":
            plan = dataclasses.replace(plan, stages=(first, dataclasses.replace(last, frozen=(0,))))
        elif case == "first-freezes-all":
            first = dataclasses.replace(first, frozen=(0, 1, 2))
            plan = dataclasses.replace(plan, stages=(first, last))
        elif case == "grid-and-plan":
            grid, match = PulseGrid(5e-6, 10), "grid"
        else:
            plan, match = None, "grid"
        with pytest.raises(ValueError, match=match):
            GrapeProblem(model, ghz(len(model.site_dims)), grid, optimizer, (-1e4, 1e4), plan=plan)

    @pytest.mark.parametrize("tolerance", [1.0, 2.0])
    def test_tolerance_that_cannot_be_split_rejected(self, tolerance):
        sample = sample_registry().get("iodotrifluoroethylene")
        with pytest.raises(ValueError, match=f"tolerance below 1, got {tolerance}"):
            igrape_plan(sample, OptimizerConfig(tolerance=tolerance))

    def test_chain_sample_rejected(self):
        with pytest.raises(TypeError, match="spin samples"):
            igrape_plan(sample_registry().get("sc-chain-12"), OptimizerConfig())


class TestStagedPlayOut:
    """The identities that iGRAPE's honest play-out rests on.

    A disentangling stage drives the target to a state whose frozen block is
    near |0...0>; the last stage prepares that block's row on the sites left.
    The preparation plays the last stage on the full model from |0...0>, then
    the earlier stages' reversed play order.
    """

    @pytest.mark.parametrize(
        "name, max_iterations, target",
        [
            *((name, cap, "ghz") for name in SPIN_SAMPLES for cap in (2, 500)),
            ("iodotrifluoroethylene", 2, "pqc"),
        ],
    )
    def test_honest_cost_is_the_product_of_the_stage_costs(self, name, max_iterations, target):
        # A staged run of run_grape, checked against a play-out of its
        # preparation and stage costs recomputed here.  A cap of 2 leaves
        # each stage far from its share, so eps_0 eps_1 is far above the
        # bound and a rule such as eps_0 + eps_1 would fail.
        problem, result = igrape_run(name, max_iterations, target)
        full, psi = problem.model, problem.target
        first, last = problem.resolved_plan.stages
        (played, last_pulses), (again, first_pulses) = result.preparation
        assert played is again is full

        chi, _ = propagate(full, first_pulses.reversed_play_order(), psi)
        eps0 = ground_leakage(chi, first.frozen)
        row = _bipartition_matrix(chi, first.frozen)[0][0]
        phi = StateVector(row / np.linalg.norm(row), last.model.site_dims)

        reduced = last.model.channel_labels
        columns = [full.channel_labels.index(label) for label in reduced]
        assert not np.delete(last_pulses.amplitudes, columns, axis=1).any()
        on_reduced = dataclasses.replace(
            last_pulses, amplitudes=last_pulses.amplitudes[:, columns], channels=reduced
        )
        w, _ = propagate(last.model, on_reduced, ground_state(last.model.site_dims))
        eps1 = state_infidelity(w, phi)
        assert np.allclose(result.stage_costs, (eps0, eps1), rtol=0.0, atol=1e-12)

        mid, _ = propagate(full, last_pulses, ground_state(full.site_dims))
        final, _ = propagate(full, first_pulses, mid)
        assert abs(result.final_cost - state_infidelity(final, psi)) < 1e-12
        eps = result.stage_costs
        assert abs(result.final_cost - (1 - (1 - eps[0]) * (1 - eps[1]))) < 1e-12
        if max_iterations == 2:
            assert 0.0 < eps0 < 1.0 and 0.0 < eps1 < 1.0
            assert eps0 * eps1 > 1e-6

    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    @pytest.mark.parametrize("sign", [SIGN_FORWARD, SIGN_REVERSED])
    def test_reduced_chain_stage_on_the_masked_full_chain(self, sign, fraction, rng):
        # At idle 0 the frozen site's |0> carries no phase.  The route rule
        # sends the full model by action and the reduced one dense, so this
        # also compares the routes.
        registry = sample_registry()
        sample = registry.get("sc-chain-12").with_idle_frequencies(0.0)
        full = build_sc(sample, sites=range(4), coupling_mask=(False, True, True))
        reduced = build_sc(sample, sites=range(1, 4))
        schedule = registry.reference_schedule("sc", 4)
        box = (-SC_AMPLITUDE_BOUND_RAD_PER_NS, SC_AMPLITUDE_BOUND_RAD_PER_NS)
        seq = random_initial_pulses(
            PulseGrid(schedule["dt"], schedule["igrape"][0]), reduced.channel_labels, box, rng,
            sign, fraction=fraction,
        )
        start = pqc_state(PqcSpec(3, 2, 1))
        want, _ = propagate(reduced, seq, start)
        frozen = ground_state((2,))
        got, _ = propagate(full, grape._embedded(seq, full.channel_labels), kron(frozen, start))
        assert np.abs(got.amplitudes - kron(frozen, want).amplitudes).max() < 1e-12
