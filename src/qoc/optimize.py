"""Box-bounded minimization given a cost-and-gradient callable.

The workhorse is the limited-memory quasi-Newton method with gradient
projection (scipy's L-BFGS-B backend) plus three extra behaviours the pulse
engines rely on:

* early termination as soon as the cost drops below the configured
  tolerance (the natural stopping rule for transfer problems),
* a diagnostic error carrying the offending iterate when the cost or
  gradient goes non-finite,
* one projected steepest-descent restart after a line-search failure
  before giving up.

The search is deterministic given the same inputs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .errors import OptimizationError

__all__ = ["OptimizerConfig", "OptimizationReport", "minimize"]

TERMINATION_TOLERANCE = "tolerance"
TERMINATION_GRADIENT = "gradient"
TERMINATION_MAX_ITER = "max-iter"
TERMINATION_LINE_SEARCH = "line-search-failure"

MEMORY_PAIRS = 10  # correction pairs the quasi-Newton backend keeps
RELATIVE_COST_TOLERANCE = 0.0  # its relative cost-decrease stop, switched off
GRADIENT_TOLERANCE = 1e-9  # its flat-gradient stop, on the largest projected component
PROBE_STEP = 0.1  # first step of the restart probe, halved until the cost drops


@dataclass(frozen=True)
class OptimizerConfig:
    """Stop below ``tolerance`` or after ``max_iterations`` quasi-Newton
    iterations; ``bounds`` apply elementwise when given.

    The module constants above fix every other setting of the search.
    """

    tolerance: float = 1e-3
    max_iterations: int = 500
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if not (self.tolerance > 0.0):
            raise ValueError("tolerance must be positive")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not np.all(np.asarray(lo) <= np.asarray(hi)):
                raise ValueError(f"invalid bounds {self.bounds}")


@dataclass
class OptimizationReport:
    """Accepted-iterate traces, the work done and the reason the run stopped.

    ``evaluations`` counts calls of the cost-and-gradient callable; repeated
    points answered from the cache are not counted.
    """

    cost_trace: list[float] = field(default_factory=list)
    gradient_norm_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    evaluations: int = 0
    wall_time: float = 0.0
    termination: str = ""
    message: str = ""

    def to_dict(self) -> dict:
        """Plain fields, ready for ``json.dumps``."""
        return asdict(self)

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1] if self.cost_trace else np.inf

    @property
    def converged(self) -> bool:
        return self.termination == TERMINATION_TOLERANCE


class _Objective:
    """Finiteness-checked wrapper that remembers recent evaluations."""

    def __init__(self, fn: Callable[[np.ndarray], tuple[float, np.ndarray]]):
        self.fn = fn
        self.cache: dict[bytes, tuple[float, np.ndarray]] = {}
        self.evaluations = 0

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        key = x.tobytes()
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        f, g = self.fn(x)
        self.evaluations += 1
        g = np.asarray(g, dtype=np.float64).reshape(-1)
        if not np.isfinite(f):
            raise OptimizationError(f"cost became non-finite ({f})", iterate=x.copy())
        if not np.all(np.isfinite(g)):
            raise OptimizationError("gradient became non-finite", iterate=x.copy())
        if len(self.cache) > 16:
            self.cache.clear()
        self.cache[key] = (float(f), g)
        return float(f), g


def _clip(x: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return x
    lo, hi = bounds
    return np.clip(x, lo, hi)


def minimize(
    cost_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: Sequence[float],
    config: OptimizerConfig,
) -> tuple[np.ndarray, OptimizationReport]:
    """Minimize under box bounds; stop at tolerance, flat gradient, or budget."""
    start = time.perf_counter()
    objective = _Objective(cost_and_grad)
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if config.bounds is not None:
        lo, hi = config.bounds
        if np.any(x0 < lo) or np.any(x0 > hi):
            raise ValueError("x0 violates the bounds")
        scipy_bounds = [(lo, hi)] * x0.size
    else:
        scipy_bounds = None

    report = OptimizationReport()
    f0, g0 = objective(x0)
    report.cost_trace.append(f0)
    report.gradient_norm_trace.append(float(np.abs(g0).max(initial=0.0)))
    best_x, best_f = x0.copy(), f0

    if f0 < config.tolerance:
        report.termination = TERMINATION_TOLERANCE
        report.message = "initial point already below tolerance"
        report.evaluations = objective.evaluations
        report.wall_time = time.perf_counter() - start
        return x0, report

    hit_tolerance = False

    def callback(xk):
        nonlocal best_x, best_f, hit_tolerance
        f, g = objective(np.asarray(xk))
        if f < report.cost_trace[-1]:
            report.cost_trace.append(f)
            report.gradient_norm_trace.append(float(np.abs(g).max(initial=0.0)))
        if f < best_f:
            best_f, best_x = f, np.asarray(xk, dtype=np.float64).copy()
        if f < config.tolerance:
            hit_tolerance = True
            raise StopIteration

    remaining = config.max_iterations
    iterations = 0
    restarts_left = 1
    termination = ""
    message = ""
    x = x0

    while True:
        res = _scipy_minimize(
            objective,
            x,
            jac=True,
            method="L-BFGS-B",
            bounds=scipy_bounds,
            callback=callback,
            options={
                "maxiter": remaining,
                "maxcor": MEMORY_PAIRS,
                "ftol": RELATIVE_COST_TOLERANCE,
                "gtol": GRADIENT_TOLERANCE,
            },
        )
        iterations += int(res.nit)
        remaining -= int(res.nit)
        if float(res.fun) < best_f:
            best_f, best_x = float(res.fun), np.asarray(res.x, dtype=np.float64).copy()

        if hit_tolerance or best_f < config.tolerance:
            termination, message = TERMINATION_TOLERANCE, "cost below tolerance"
            break
        if res.status == 1 or remaining <= 0:
            termination, message = TERMINATION_MAX_ITER, "iteration budget exhausted"
            break
        if res.status == 0:
            # Converged by the backend's flat-gradient / flat-cost tests
            # without reaching the cost tolerance.
            termination, message = TERMINATION_GRADIENT, str(res.message)
            break
        # Abnormal line-search termination: try one projected steepest-descent
        # restart from the best point before declaring failure.
        if restarts_left > 0:
            restarts_left -= 1
            stepped, improved = _descent_probe(objective, best_x, best_f, config.bounds)
            if improved:
                x = stepped
                f, g = objective(x)
                if f < report.cost_trace[-1]:
                    report.cost_trace.append(f)
                    report.gradient_norm_trace.append(float(np.abs(g).max(initial=0.0)))
                best_f, best_x = f, x.copy()
                if f < config.tolerance:
                    termination, message = TERMINATION_TOLERANCE, "cost below tolerance"
                    break
                continue
        termination, message = TERMINATION_LINE_SEARCH, str(res.message)
        break

    report.iterations = iterations
    report.evaluations = objective.evaluations
    report.termination = termination
    report.message = message
    report.wall_time = time.perf_counter() - start
    return _clip(best_x, config.bounds), report


def _descent_probe(objective, x, f_ref, bounds, max_halvings: int = 30):
    """One backtracking projected-gradient step; (new_x, improved)."""
    _, g = objective(x)
    step = PROBE_STEP
    for _ in range(max_halvings):
        candidate = _clip(x - step * g, bounds)
        f_new, _ = objective(candidate)
        if f_new < f_ref:
            return candidate, True
        step *= 0.5
    return x, False
