import json

import numpy as np
import pytest

from qoc import optimize
from qoc.errors import OptimizationError
from qoc.optimize import OptimizerConfig, minimize


def quadratic_shifted(x):
    return float(np.sum((x - 1.0) ** 2)), 2.0 * (x - 1.0)


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100.0 * (b - a**2) ** 2
    g = np.array([-2 * (1 - a) - 400.0 * a * (b - a**2), 200.0 * (b - a**2)])
    return float(f), g


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
        assert report.converged
        assert report.final_cost < 1e-2

    def test_initial_point_below_tolerance(self):
        cfg = OptimizerConfig(tolerance=0.5)
        x, report = minimize(quadratic_shifted, np.full(3, 0.9), cfg)
        assert report.iterations == 0
        assert report.termination == "tolerance"
        assert np.array_equal(x, np.full(3, 0.9))

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

    def test_x0_outside_bounds_rejected(self):
        cfg = OptimizerConfig(tolerance=1e-3, bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            minimize(quadratic_shifted, np.array([2.0]), cfg)


class TestRestart:
    # From -1.9 the restart probe's first step, 0.1 * 5.8, leaves the box
    # unless it is projected back.
    @pytest.mark.parametrize("x0", [0.0, -1.9])
    def test_wrong_sign_gradient_ends_in_line_search_failure(self, monkeypatch, x0):
        # The gradient points uphill, so the quasi-Newton line search fails and
        # the one projected-gradient restart finds no decrease either.
        runs = []
        probes = []

        def uphill(x):
            runs.append(x.copy())
            return float(np.sum((x - 1.0) ** 2)), -2.0 * (x - 1.0)

        def counted_probe(*args, **kwargs):
            out = probe(*args, **kwargs)
            probes.append(out[1])
            return out

        probe = optimize._descent_probe
        monkeypatch.setattr(optimize, "_descent_probe", counted_probe)
        cfg = OptimizerConfig(tolerance=1e-8, max_iterations=50, bounds=(-2.0, 2.0))
        x, report = minimize(uphill, np.full(3, x0), cfg)
        assert report.termination == "line-search-failure"
        assert not report.converged
        assert probes == [False]
        assert np.all(x >= -2.0) and np.all(x <= 2.0)
        assert all(np.all(r >= -2.0) and np.all(r <= 2.0) for r in runs)
        assert report.evaluations == len(runs)


class TestConfigValidation:
    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)

    def test_bounds_ordering(self):
        with pytest.raises(ValueError):
            OptimizerConfig(bounds=(2.0, 1.0))


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

    def test_to_dict_round_trips_through_json(self):
        _, report = minimize(rosenbrock, np.array([-1.2, 1.0]), OptimizerConfig(tolerance=1e-8))
        data = json.loads(json.dumps(report.to_dict()))
        assert data == report.to_dict()
        assert data["evaluations"] == report.evaluations
        assert data["cost_trace"] == report.cost_trace
        assert data["termination"] == report.termination
