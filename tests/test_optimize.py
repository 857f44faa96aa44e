import json
import math
import weakref

import numpy as np
import pytest

from qoc import optimize
from qoc.errors import ContractError, OptimizationError
from qoc.optimize import FIRST_STEP_CAP, GRADIENT_TOLERANCE, OptimizerConfig, minimize


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


class TestLineSearchFailure:
    # Each search is one backend run, so a failed line search ends it and is
    # returned as data.

    @pytest.fixture
    def backend_runs(self, monkeypatch):
        # Each call of _lbfgsb is one backend run.
        runs = []
        backend = optimize._lbfgsb

        def counted(*args, **kwargs):
            runs.append(1)
            return backend(*args, **kwargs)

        monkeypatch.setattr(optimize, "_lbfgsb", counted)
        return runs

    # From -1.9 the descent direction reaches the box's edge after 0.1.
    @pytest.mark.parametrize("x0", [0.0, -1.9])
    def test_wrong_sign_gradient_ends_in_line_search_failure(self, backend_runs, x0):
        # The gradient points uphill, so the quasi-Newton line search fails.
        # However often the backend asks for its start again, the callable
        # runs there once.
        runs = []

        def recorded(x):
            runs.append(x.copy())
            return uphill(x)

        cfg = OptimizerConfig(tolerance=1e-8, max_iterations=50, bounds=(-2.0, 2.0))
        start = np.full(3, x0)
        x, report = minimize(recorded, start, cfg)
        assert report.termination == "line-search-failure"
        assert backend_runs == [1]
        assert np.array_equal(x, start) and report.cost_trace == [uphill(start)[0]]
        assert all(np.all(r >= -2.0) and np.all(r <= 2.0) for r in runs)
        assert sum(np.array_equal(r, start) for r in runs) == 1
        assert report.evaluations == len(runs)

    # The gradient of |x - 1|^2 plus 100 times itself turned by 90 degrees
    # fails the line search at once.  From [-1.5, 0.1] the backend stops at
    # its start point and reports a cost there 1.4e-13 below the true one;
    # the report must carry the true cost.
    @pytest.mark.parametrize("x0", [[-1.5, 0.1], [0.0, 0.3]], ids=["phantom-cost", "plain"])
    def test_spiral_gradient_runs_the_backend_once(self, backend_runs, x0):
        calls = []

        def cost(x):
            return float(np.sum((x - 1.0) ** 2))

        def spiral(x):
            calls.append(x.copy())
            t = 2.0 * (x - 1.0)
            return cost(x), t + 100.0 * np.array([-t[1], t[0]])

        cfg = OptimizerConfig(tolerance=1e-8, max_iterations=50, bounds=(-2.0, 2.0))
        x, report = minimize(spiral, np.array(x0), cfg)
        assert report.termination == "line-search-failure"
        assert backend_runs == [1]
        assert np.all(np.diff(report.cost_trace) < 0.0)
        assert report.cost_trace[-1] == cost(x)
        assert report.evaluations == len(calls)

    @pytest.mark.parametrize(
        "x0, runs", [([0.9] * 3, []), ([0.0] * 3, [1])], ids=["below", "above"]
    )
    def test_backend_runs_only_above_tolerance(self, backend_runs, x0, runs):
        _, report = minimize(quadratic_shifted, np.array(x0), OptimizerConfig(tolerance=0.5))
        assert report.termination == "tolerance"
        assert backend_runs == runs


def rosenbrock_chain(x):
    """The 40-variable Rosenbrock chain when x has 40 elements."""
    d = x[1:] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[:-1] = -2.0 * (1.0 - x[:-1]) - 400.0 * x[:-1] * d
    g[1:] += 200.0 * d
    return float(np.sum((1.0 - x[:-1]) ** 2) + 100.0 * np.sum(d**2)), g


CHAIN_START = np.tile([-1.2, 1.0], 20)


def scipy_search(fn, x0, config):
    """The search through ``scipy.optimize.minimize(method="L-BFGS-B")``:
    the same kappa-scaled objective and options, with the tolerance stop in
    a callback.  Returns its objective, which holds the record, and the result.
    """
    from scipy.optimize import Bounds, minimize as scipy_minimize

    objective = optimize._Objective(fn)
    report = objective.report
    objective.accept(x0)
    kappa = optimize._first_step_scale(report.cost_trace[-1], objective.best_gradient, config.bounds)

    def scaled(x):
        f, g = objective(x)
        return kappa * f, kappa * g

    def callback(xk):
        report.iterations += 1
        if objective.accept(xk) < config.tolerance:
            raise StopIteration

    options = {
        "maxcor": optimize.MEMORY_PAIRS, "ftol": optimize.RELATIVE_COST_TOLERANCE,
        "gtol": GRADIENT_TOLERANCE * kappa, "maxiter": config.max_iterations,
        "maxls": optimize.LINE_SEARCH_STEPS, "maxfun": optimize.MAX_EVALUATIONS,
    }
    res = scipy_minimize(
        scaled, x0, jac=True, method="L-BFGS-B", callback=callback, options=options,
        bounds=None if config.bounds is None else Bounds(*config.bounds),
    )
    return objective, res


class TestParityWithScipy:
    # minimize drives scipy's setulb itself, so it must take the public
    # solver's steps bit for bit on every scipy it runs with.

    @pytest.mark.parametrize(
        "fn, x0, config, termination",
        [
            (rosenbrock_chain, CHAIN_START,
             OptimizerConfig(tolerance=1e-10, max_iterations=1000, bounds=(-2.0, 2.0)), "tolerance"),
            (rosenbrock, [-1.2, 1.0], OptimizerConfig(tolerance=1e-30, max_iterations=400),
             "gradient"),
            (rosenbrock, [-1.2, 1.0],
             OptimizerConfig(tolerance=1e-30, max_iterations=500, bounds=(-2.0, 2.0)), "gradient"),
            (uphill, [0.0] * 3, OptimizerConfig(tolerance=1e-8, max_iterations=50, bounds=(-2.0, 2.0)),
             "line-search-failure"),
            (rosenbrock_chain, CHAIN_START,
             OptimizerConfig(tolerance=1e-10, max_iterations=7, bounds=(-2.0, 2.0)), "max-iter"),
        ],
        ids=["chain-in-box", "no-box", "gradient-in-box", "uphill", "max-iter"],
    )
    def test_same_search_as_scipy_minimize(self, fn, x0, config, termination):
        x0 = np.array(x0)
        recorded, calls = recording(fn)
        x, report = minimize(recorded, x0, config)
        recorded, want_calls = recording(fn)
        want, res = scipy_search(recorded, x0, config)
        assert len(calls) == len(want_calls) == report.evaluations == want.report.evaluations
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(calls, want_calls))
        assert np.array_equal(x, np.clip(want.best, *config.bounds or (-np.inf, np.inf)))
        assert report.cost_trace == want.report.cost_trace
        assert report.gradient_norm_trace == want.report.gradient_norm_trace
        assert report.iterations == want.report.iterations == res.nit
        assert report.termination == termination
        if report.cost_trace[-1] >= config.tolerance:
            mapped = {0: "gradient", 1: "max-iter"}.get(res.status, "line-search-failure")
            assert mapped == termination
        if termination in ("gradient", "line-search-failure"):
            assert report.message == res.message

    def test_callable_that_overwrites_its_point_leaves_the_search_unchanged(self):
        config = OptimizerConfig(tolerance=1e-10, max_iterations=60, bounds=(-2.0, 2.0))
        recorded, want_calls = recording(rosenbrock_chain)
        want_x, want = minimize(recorded, CHAIN_START, config)
        seen = []

        def overwriting(x):
            seen.append(x.copy())
            f, g = rosenbrock_chain(x)
            x[:] = 0.5  # inside the box
            return f, g

        x0 = CHAIN_START.copy()
        x, report = minimize(overwriting, x0, config)
        assert np.array_equal(x0, CHAIN_START)
        assert len(seen) == len(want_calls) > 60
        assert all(np.array_equal(a, b[0]) for a, b in zip(seen, want_calls))
        assert np.array_equal(x, want_x) and report.cost_trace == want.cost_trace
        assert report.iterations == want.iterations == 60


class TestEvaluatedPoints:
    # The callable never sees a point outside the box, not even a
    # quasi-Newton trial step.  The rosenbrock box holds neither 0 nor the
    # unbounded minimum (1, 1).
    @pytest.mark.parametrize(
        "fn, x0, bounds",
        [(rosenbrock, [1.9, 1.3], (1.2, 2.0)), (uphill, [0.0] * 3, (-2.0, 2.0)),
         (uphill, [-1.9] * 3, (-2.0, 2.0))],
        ids=["box-without-zero", "line-search-failure", "line-search-failure-near-edge"],
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


def recording(fn):
    """fn, plus the list of (point, cost, gradient) of every call."""
    calls = []

    def recorded(x):
        f, g = fn(x)
        calls.append((x.copy(), f, g))
        return f, g

    return recorded, calls


def flat_at_zero(x):
    """(x.x - 1)^2, whose gradient vanishes at 0, which is no minimum."""
    return float((x @ x - 1.0) ** 2), 4.0 * (x @ x - 1.0) * x


def offset_quadratic(centre):
    return lambda x: (float(np.sum((x - centre) ** 2)), 2.0 * (x - centre))


class TestFirstStepScale:
    # The backend sees kappa f and kappa g, kappa = min(f0 / |g0|_2^2,
    # FIRST_STEP_CAP h / |g0|_inf) with h the box's half-width, so its first
    # trial point is clip(x0 - kappa g0).  Everything reported stays in the
    # callable's units.

    @pytest.mark.parametrize(
        "centre, x0, bounds, capped",
        [
            # Polyak's step would move x[1] by 0.5, a quarter of h = 2.  The
            # first variable sits on its bound and its step is clipped.
            ([-3.0, 1.0], [-2.0, 0.0], (-2.0, 2.0), True),
            # Polyak's step moves 0.05, within 2% of h = 10: to halfway.
            ([0.1, -0.05, 0.0], [0.0, 0.0, 0.0], (-10.0, 10.0), False),
        ],
        ids=["cap-binds", "polyak"],
    )
    def test_first_trial_point_is_the_scaled_projected_step(self, centre, x0, bounds, capped):
        fn, calls = recording(offset_quadratic(np.array(centre)))
        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=20, bounds=bounds)
        x0 = np.array(x0)
        minimize(fn, x0, cfg)
        _, f0, g0 = calls[0]
        polyak = f0 / (g0 @ g0)
        cap = FIRST_STEP_CAP * (bounds[1] - bounds[0]) / 2 / np.abs(g0).max()
        assert (cap < polyak) == capped
        want = np.clip(x0 - min(polyak, cap) * g0, *bounds)
        assert np.array_equal(calls[0][0], x0)
        np.testing.assert_allclose(calls[1][0], want, rtol=1e-12, atol=0.0)

    def test_report_and_best_point_in_the_callables_units(self, monkeypatch):
        kept = []

        class Kept(optimize._Objective):
            def __init__(self, fn):
                super().__init__(fn)
                kept.append(self)

        monkeypatch.setattr(optimize, "_Objective", Kept)
        fn, calls = recording(rosenbrock)
        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=60, bounds=(-2.0, 2.0))
        x, report = minimize(fn, np.array([-1.2, 1.0]), cfg)
        # kappa is 1.9e-4 here (the cap binds), so a scaled value would show.
        returned = {f: g for _, f, g in calls}
        assert len(report.cost_trace) > 10
        for f, norm in zip(report.cost_trace, report.gradient_norm_trace):
            assert f in returned and norm == np.abs(returned[f]).max()
        at_best = [(f, g) for p, f, g in calls if np.array_equal(p, x)]
        assert at_best and all(f == report.cost_trace[-1] for f, _ in at_best)
        assert np.array_equal(kept[0].best_gradient, at_best[0][1])

    def test_flat_gradient_stop_reads_the_callables_gradient(self):
        # Boxed Rosenbrock from the usual start: kappa = 1.9e-4.  Unscaled,
        # the backend's stop would come once |g|_inf fell below
        # GRADIENT_TOLERANCE / kappa = 5.4e-6, at 1.4e-6 here.
        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=500, bounds=(-2.0, 2.0))
        _, report = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        norms = report.gradient_norm_trace
        assert report.termination == "gradient"
        assert norms[-1] <= GRADIENT_TOLERANCE < min(norms[:-1])

    @pytest.mark.parametrize(
        "fn, x0, bounds",
        [
            (rosenbrock, [-1.2, 1.0], None),
            (quadratic_shifted, [0.0] * 4, None),
            (flat_at_zero, [0.0] * 3, (-2.0, 2.0)),
        ],
        ids=["rosenbrock-no-box", "quadratic-no-box", "flat-start-in-box"],
    )
    def test_unit_scale_without_a_box_or_at_a_flat_start(self, fn, x0, bounds, monkeypatch):
        cfg = OptimizerConfig(tolerance=1e-30, max_iterations=100, bounds=bounds)
        recorded, calls = recording(fn)
        x, report = minimize(recorded, np.array(x0), cfg)
        # The same search in the backend's own units throughout.
        monkeypatch.setattr(optimize, "_first_step_scale", lambda *args: 1.0)
        recorded, unit_calls = recording(fn)
        unit_x, unit_report = minimize(recorded, np.array(x0), cfg)
        assert len(calls) == len(unit_calls)
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(calls, unit_calls))
        assert np.array_equal(x, unit_x) and report.cost_trace == unit_report.cost_trace

    @pytest.mark.parametrize(
        "f0, g0, bounds, kappa",
        [
            (1.0, np.array([3.0, 4.0]), None, 1.0),
            (1.0, np.zeros(2), (-1.0, 1.0), 1.0),
            (0.0, np.array([3.0, 4.0]), (-1.0, 1.0), 1.0),
            (-1.0, np.array([3.0, 4.0]), (-1.0, 1.0), 1.0),
            (1.0, np.array([3.0, 4.0]), (0.5, 0.5), 1.0),
            # |g0|^2 underflows to 0, so Polyak's step is infinite: the cap holds it.
            (1.0, np.array([1e-200, 0.0]), (-1.0, 1.0), FIRST_STEP_CAP / 1e-200),
            (1.0, np.array([3.0, 4.0]), (-1.0, 1.0), FIRST_STEP_CAP / 4.0),
            (1e-4, np.array([3.0, 4.0]), (-1.0, 1.0), 1e-4 / 25.0),
        ],
        ids=["no-box", "flat", "zero-cost", "negative-cost", "point-box", "underflow",
             "capped", "polyak"],
    )
    def test_scale_rule(self, f0, g0, bounds, kappa):
        assert optimize._first_step_scale(f0, g0, bounds) == kappa


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

    def test_tolerance_kept_as_python_float(self):
        tolerance = OptimizerConfig(tolerance=np.float32(3e-3)).tolerance
        assert tolerance == float(np.float32(3e-3)) and type(tolerance) is float

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
            f, g = rosenbrock_chain(x)
            returned.append(weakref.ref(g))
            return f, g

        cfg = OptimizerConfig(tolerance=1e-10, max_iterations=1000, bounds=(-2.0, 2.0))
        _, report = minimize(chained, CHAIN_START, cfg)
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
