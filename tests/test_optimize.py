import json
import math
import weakref

import numpy as np
import pytest

from qoc import optimize
from qoc.errors import ContractError, OptimizationError
from qoc.optimize import OptimizerConfig, minimize


def quadratic_shifted(x):
    return float(np.sum((x - 1.0) ** 2)), 2.0 * (x - 1.0)


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100.0 * (b - a**2) ** 2
    g = np.array([-2 * (1 - a) - 400.0 * a * (b - a**2), 200.0 * (b - a**2)])
    return float(f), g


def uphill(x):
    """|x - 1|^2 with its gradient's sign flipped, so every line search fails."""
    return float(np.sum((x - 1.0) ** 2)), -2.0 * (x - 1.0)


class TestMinimize:
    def test_convex_quadratic(self):
        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=200)
        x, report = minimize(quadratic_shifted, np.zeros(5), cfg)
        assert np.abs(x - 1.0).max() < 1e-8
        assert report.iterations >= 1

    def test_active_bound(self):
        cfg = OptimizerConfig(tolerance=1e-30, bounds=(1.0, 2.0), max_iterations=100)
        x, report = minimize(lambda v: (float(v @ v), 2.0 * v), np.array([1.5]), cfg)
        assert x[0] == 1.0

    def test_rosenbrock_with_gradient_certificate(self):
        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=400)
        x, report = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        assert np.abs(x - 1.0).max() < 1e-6
        _, g = rosenbrock(x)
        assert np.linalg.norm(g) <= 1e-8

    def test_early_stop_on_tolerance(self):
        cfg = OptimizerConfig(tolerance=1e-2, max_iterations=500)
        x, report = minimize(quadratic_shifted, np.zeros(4), cfg)
        assert report.termination == "tolerance"
        assert report.cost_trace[-1] < 1e-2

    def test_initial_point_below_tolerance(self):
        cfg = OptimizerConfig(tolerance=0.5)
        x0 = np.full(3, 0.9)
        x, report = minimize(quadratic_shifted, x0, cfg)
        assert report.iterations == 0
        assert report.termination == "tolerance"
        assert np.array_equal(x, np.full(3, 0.9))
        assert not np.shares_memory(x, x0)

    def test_max_iterations(self):
        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=3)
        x, report = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        assert report.termination == "max-iter"
        assert report.iterations <= 3 + 1

    def test_monotone_trace(self):
        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=300)
        _, report = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        trace = np.asarray(report.cost_trace)
        assert np.all(np.diff(trace) < 0.0)

    def test_bound_feasibility_of_result(self):
        cfg = OptimizerConfig(tolerance=1e-30, bounds=(-0.5, 0.5), max_iterations=200)
        x, _ = minimize(quadratic_shifted, np.zeros(6), cfg)
        assert np.all(x >= -0.5) and np.all(x <= 0.5)
        assert np.abs(x - 0.5).max() < 1e-10  # projected optimum sits on the bound

    def test_determinism(self):
        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=150)
        x1, r1 = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        x2, r2 = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        assert np.array_equal(x1, x2)
        assert r1.cost_trace == r2.cost_trace

    def test_non_finite_cost_raises_with_iterate(self):
        def bad(x):
            if x[0] > 0.5:
                return np.nan, np.zeros_like(x)
            return float((x[0] - 1.0) ** 2 + x[1] ** 2), np.array([2 * (x[0] - 1.0), 2 * x[1]])

        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=50)
        with pytest.raises(OptimizationError) as err:
            minimize(bad, np.array([0.0, 0.0]), cfg)
        assert err.value.iterate is not None

    def test_non_finite_gradient_raises_with_iterate(self):
        def bad(x):
            g = np.array([2 * (x[0] - 1.0), 2 * x[1]])
            if x[0] > 0.5:
                g[1] = np.inf
            return float((x[0] - 1.0) ** 2 + x[1] ** 2), g

        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=50)
        with pytest.raises(OptimizationError, match="gradient became non-finite") as err:
            minimize(bad, np.array([0.0, 0.0]), cfg)
        assert err.value.iterate[0] > 0.5

    @pytest.mark.parametrize("gradient", [np.ones(1), np.zeros(3)], ids=["size-1", "size-3"])
    def test_gradient_of_the_wrong_size_rejected(self, gradient):
        # Unchecked, [1.0] ended in a line-search failure after 47 evaluations
        # and three zeros in a "gradient" stop after one.
        calls = []

        def wrong(x):
            calls.append(x.copy())
            return float(x @ x), gradient

        cfg = OptimizerConfig(tolerance=1e-30, bounds=(-1.0, 1.0))
        message = f"gradient has {gradient.size} elements for 2 parameters"
        with pytest.raises(ContractError, match=message):
            minimize(wrong, np.array([0.5, 0.5]), cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("bounds", [None, (-1.0, 1.0)])
    def test_no_free_parameters_ends_as_data(self, bounds):
        # An empty start used to fail inside the backend: "not enough values
        # to unpack" with bounds, "ERROR: N <= 0" without.
        calls = []

        def constant(x):
            calls.append(x.size)
            return 0.5, np.zeros(0)

        x, report = minimize(constant, np.zeros(0), OptimizerConfig(tolerance=1e-3, bounds=bounds))
        assert x.shape == (0,) and calls == [0]
        assert (report.termination, report.message) == ("gradient", "no free parameters")
        assert report.cost_trace == [0.5] and report.iterations == 0
        x, report = minimize(constant, np.zeros(0), OptimizerConfig(tolerance=1.0, bounds=bounds))
        assert report.termination == "tolerance"

    def test_x0_outside_bounds_rejected(self):
        cfg = OptimizerConfig(tolerance=1e-3, bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            minimize(quadratic_shifted, np.array([2.0]), cfg)

    @pytest.mark.parametrize(
        "x0, bounds",
        [([math.nan, 0.5], (-1.0, 1.0)), ([math.nan, 0.5], None), ([0.5, math.inf], None)],
        ids=["nan-in-box", "nan-no-box", "inf-no-box"],
    )
    def test_non_finite_x0_rejected_before_any_evaluation(self, x0, bounds):
        # NaN compares false, so [nan, 0.5] passed the box check, and after
        # four evaluations came back as the best point.
        calls = []

        def recorded(x):
            calls.append(x.copy())
            return quadratic_shifted(x)

        with pytest.raises(ValueError, match="finite"):
            minimize(recorded, np.array(x0), OptimizerConfig(tolerance=1e-3, bounds=bounds))
        assert calls == []


class TestRestart:
    # From -1.9 the restart probe's first step, 0.1 * 5.8, leaves the box
    # unless it is projected back.
    @pytest.mark.parametrize("x0", [0.0, -1.9])
    def test_wrong_sign_gradient_ends_in_line_search_failure(self, monkeypatch, x0):
        # The gradient points uphill, so the quasi-Newton line search fails and
        # the one projected-gradient restart finds no decrease either.
        # The probe starts from the best point's stored gradient, so it must
        # not evaluate that point again.
        runs = []
        probes = []

        def recorded(x):
            runs.append(x.copy())
            return uphill(x)

        def counted_probe(objective, x, *args):
            before = len(runs)
            out = probe(objective, x, *args)
            probes.append(out[1])
            assert not any(np.array_equal(r, x) for r in runs[before:])
            return out

        probe = optimize._descent_probe
        monkeypatch.setattr(optimize, "_descent_probe", counted_probe)
        cfg = OptimizerConfig(tolerance=1e-8, max_iterations=50, bounds=(-2.0, 2.0))
        x, report = minimize(recorded, np.full(3, x0), cfg)
        assert report.termination == "line-search-failure"
        assert probes == [False]
        assert np.all(x >= -2.0) and np.all(x <= 2.0)
        assert all(np.all(r >= -2.0) and np.all(r <= 2.0) for r in runs)
        assert report.evaluations == len(runs)

    # The gradient of |x - 1|^2 plus 100 times itself turned by 90 degrees
    # fails the line search at once, but its projection onto -t still descends,
    # so the restart probe finds a lower cost.  From [-1.5, 0.1] the backend
    # stops at its start point and reports a cost there 1.4e-13 below the true
    # one; the probe must be measured against the true cost.
    @pytest.mark.parametrize("x0", [[-1.5, 0.1], [0.0, 0.3]], ids=["phantom-cost", "plain"])
    def test_improving_probe_keeps_one_record(self, monkeypatch, x0):
        calls = []
        probes = []

        def cost(x):
            return float(np.sum((x - 1.0) ** 2))

        def spiral(x):
            calls.append(x.copy())
            t = 2.0 * (x - 1.0)
            return cost(x), t + 100.0 * np.array([-t[1], t[0]])

        def recorded_probe(objective, x, f_ref, bounds):
            assert f_ref == cost(x)
            out = probe(objective, x, f_ref, bounds)
            probes.append(out[1])
            return out

        probe = optimize._descent_probe
        monkeypatch.setattr(optimize, "_descent_probe", recorded_probe)
        cfg = OptimizerConfig(tolerance=1e-8, max_iterations=50, bounds=(-2.0, 2.0))
        x, report = minimize(spiral, np.array(x0), cfg)
        assert report.termination == "line-search-failure"
        assert probes == [True]
        assert np.all(np.diff(report.cost_trace) < 0.0)
        assert report.cost_trace[-1] == cost(x)
        assert report.evaluations == len(calls)


class TestEvaluatedPoints:
    # The callable never sees a point outside the box: not a quasi-Newton
    # trial step, not a restart probe step.  The rosenbrock box holds
    # neither 0 nor the unbounded minimum (1, 1).
    @pytest.mark.parametrize(
        "fn, x0, bounds",
        [(rosenbrock, [1.9, 1.3], (1.2, 2.0)), (uphill, [0.0] * 3, (-2.0, 2.0)),
         (uphill, [-1.9] * 3, (-2.0, 2.0))],
        ids=["box-without-zero", "restart", "restart-near-edge"],
    )
    def test_every_evaluated_point_lies_in_the_box(self, fn, x0, bounds):
        seen = []

        def recorded(x):
            seen.append(x.copy())
            return fn(x)

        cfg = OptimizerConfig(tolerance=1e-8, max_iterations=50, bounds=bounds)
        x, report = minimize(recorded, np.array(x0), cfg)
        lo, hi = bounds
        assert len(seen) == report.evaluations > 1
        assert all(np.all((lo <= p) & (p <= hi)) for p in seen)
        if fn is uphill:
            assert report.termination == "line-search-failure"
        else:
            assert x[0] == lo  # the bound is active at the returned point


class TestConfigValidation:
    def test_tolerance_positive(self):
        # An infinite tolerance used to report convergence after 0 evaluations.
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                OptimizerConfig(tolerance=bad)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_max_iterations_at_least_one(self, budget):
        # A zero or negative budget used to run one iteration and report max-iter.
        with pytest.raises(ValueError, match="max_iterations"):
            OptimizerConfig(max_iterations=budget)

    def test_max_iterations_integer(self):
        # 2.5 used to run three L-BFGS-B iterations and report max-iter.
        with pytest.raises(TypeError):
            OptimizerConfig(max_iterations=2.5)
        budget = OptimizerConfig(max_iterations=np.int64(3)).max_iterations
        assert budget == 3 and type(budget) is int

    def test_bounds_kept_as_python_floats(self):
        bounds = OptimizerConfig(bounds=(np.float32(-1.5), 2)).bounds
        assert bounds == (-1.5, 2.0) and all(type(b) is float for b in bounds)


class TestReport:
    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [1.0, 1.0]])
    def test_evaluations_count_callable_runs(self, x0):
        runs = []

        def counted(x):
            runs.append(1)
            return rosenbrock(x)

        config = OptimizerConfig(tolerance=1e-8, max_iterations=60)
        _, report = minimize(counted, np.array(x0), config)
        assert report.evaluations == len(runs) >= 1

    def test_memo_keeps_only_latest_and_best_gradients(self):
        # A long bounded search on the 40-variable Rosenbrock chain.  Of the
        # gradients the callable has returned, the optimizer may keep only
        # the latest (its memo) and the best point's; a point cache would
        # keep one per remembered point.
        returned = []
        alive = []

        def chained(x):
            alive.append(sum(ref() is not None for ref in returned))
            d = x[1:] - x[:-1] ** 2
            g = np.zeros_like(x)
            g[:-1] = -2.0 * (1.0 - x[:-1]) - 400.0 * x[:-1] * d
            g[1:] += 200.0 * d
            returned.append(weakref.ref(g))
            return float(np.sum((1.0 - x[:-1]) ** 2) + 100.0 * np.sum(d**2)), g

        cfg = OptimizerConfig(tolerance=1e-10, max_iterations=1000, bounds=(-2.0, 2.0))
        _, report = minimize(chained, np.tile([-1.2, 1.0], 20), cfg)
        assert report.termination == "tolerance"
        assert report.evaluations == len(alive) > 200
        assert max(alive) <= 2

    def test_to_dict_round_trips_through_json(self):
        _, report = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimizerConfig(tolerance=1e-8))
        data = json.loads(json.dumps(report.to_dict()))
        assert data == report.to_dict()
        assert data["evaluations"] == report.evaluations
        assert data["cost_trace"] == report.cost_trace
        assert data["termination"] == report.termination
