"""Box-bounded minimization given a cost-and-gradient callable.

The workhorse is the limited-memory quasi-Newton method with gradient
projection (scipy's L-BFGS-B backend) plus three extra behaviours the pulse
engines rely on:

* early termination as soon as the cost drops below the configured
  tolerance (the natural stopping rule for transfer problems),
* a diagnostic error carrying the offending iterate when the cost or
  gradient goes non-finite, and a ``ContractError`` when the gradient's
  size is not the parameter count,
* one projected steepest-descent restart after a line-search failure; only
  when it lowers the cost does the backend run a second, last time.

The start, each quasi-Newton iterate and an improving restart step are
accepted when their cost falls below the last accepted one; the last
accepted point is returned, so ``cost_trace[-1]`` is the cost there (the
backend's ``res.fun``, after a line-search failure not always the cost at
any point, is not read).  Its gradient is kept with it, so the restart needs
no evaluation to find its direction.  Besides that point, only the latest
evaluation is remembered, in a memo.  The two answer the points the backend
asks for again without running the callable: each iterate handed to the
callback and, after a failed line search, the backend's last iterate.

The search is deterministic given the same inputs.  The backend is imported
on the first call of ``minimize``, not with this module, so a process that
only propagates or takes gradients never loads ``scipy.optimize``.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, OptimizationError

__all__ = ["OptimizerConfig", "OptimizationReport", "minimize"]

TERMINATION_TOLERANCE = "tolerance"
TERMINATION_GRADIENT = "gradient"
TERMINATION_MAX_ITER = "max-iter"
TERMINATION_LINE_SEARCH = "line-search-failure"

MEMORY_PAIRS = 10  # correction pairs the quasi-Newton backend keeps
RELATIVE_COST_TOLERANCE = 0.0  # its relative cost-decrease stop, switched off
GRADIENT_TOLERANCE = 1e-9  # its flat-gradient stop, on the largest projected component
PROBE_STEP = 0.1  # first step of the restart probe, halved until the cost drops
PROBE_HALVINGS = 30  # steps the restart probe tries before it gives up


def _box(bounds) -> tuple[float, float]:
    """(lo, hi) as Python floats: TypeError unless each is a real number,
    ValueError unless there are two, both finite, with lo <= hi.
    """
    box = tuple(bounds)
    if not all(isinstance(b, numbers.Real) for b in box):
        raise TypeError(f"bounds must be real numbers, got {bounds}")
    if len(box) != 2 or not -math.inf < box[0] <= box[1] < math.inf:
        raise ValueError(f"bounds must be two finite numbers with lo <= hi, got {bounds}")
    return float(box[0]), float(box[1])


@dataclass(frozen=True)
class OptimizerConfig:
    """Stop below ``tolerance`` or after ``max_iterations`` quasi-Newton
    iterations; every element stays in the box ``bounds``, (lo, hi): two
    finite real numbers, or None for no box.

    The module constants above fix every other setting of the search.
    """

    tolerance: float = 1e-3
    max_iterations: int = 500
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if not (0.0 < self.tolerance < float("inf")):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        object.__setattr__(self, "max_iterations", operator.index(self.max_iterations))
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.bounds is not None:
            object.__setattr__(self, "bounds", _box(self.bounds))


@dataclass
class OptimizationReport:
    """Accepted-iterate traces, the work done and the reason the run stopped.

    ``cost_trace`` falls strictly, and its last entry is the cost at the
    returned point; the backend's ``res.fun`` is not read.  ``evaluations``
    counts calls of the cost-and-gradient callable; repeated points answered
    from the memo are not counted.
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


class _Objective:
    """Finiteness-checked wrapper that remembers its latest evaluation and
    answers again for the best point too.

    It also keeps the search record: ``report``'s traces and counts, and
    ``best``, the point accepted last.
    """

    def __init__(self, fn: Callable[[np.ndarray], tuple[float, np.ndarray]]):
        self.fn = fn
        self.memo: tuple[bytes, float, np.ndarray] | None = None
        self.report = OptimizationReport()
        self.best: np.ndarray | None = None
        self.best_gradient: np.ndarray | None = None

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        key = x.tobytes()
        if self.memo is not None and self.memo[0] == key:
            return self.memo[1:]
        if self.best is not None and self.best.tobytes() == key:
            return self.report.cost_trace[-1], self.best_gradient
        f, g = self.fn(x)
        self.report.evaluations += 1
        g = np.asarray(g, dtype=np.float64).reshape(-1)
        if g.size != x.size:
            raise ContractError(f"gradient has {g.size} elements for {x.size} parameters")
        if not np.isfinite(f):
            raise OptimizationError(f"cost became non-finite ({f})", iterate=x.copy())
        if not np.all(np.isfinite(g)):
            raise OptimizationError("gradient became non-finite", iterate=x.copy())
        self.memo = (key, float(f), g)
        return self.memo[1:]

    def accept(self, x: np.ndarray) -> float:
        """The cost at ``x``.  When it is the lowest yet, a copy of ``x``
        becomes ``best``, its gradient ``best_gradient``, and its cost and
        gradient norm join the traces.
        """
        f, g = self(x)
        trace = self.report.cost_trace
        if not trace or f < trace[-1]:
            trace.append(f)
            self.report.gradient_norm_trace.append(float(np.abs(g).max(initial=0.0)))
            self.best, self.best_gradient = np.array(x, dtype=np.float64), g
        return f


def _clip(x: np.ndarray, bounds) -> np.ndarray:
    return x if bounds is None else np.clip(x, *bounds)


def minimize(
    cost_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: Sequence[float],
    config: OptimizerConfig,
) -> tuple[np.ndarray, OptimizationReport]:
    """Minimize under box bounds; stop at tolerance, flat gradient, or budget."""
    # Imported here, not at module level: scipy.optimize costs a fresh process
    # about 0.25 s and 20 MB that propagation and gradients never use.
    from scipy.optimize import minimize as _scipy_minimize

    start = time.perf_counter()
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    bounds = config.bounds
    if not (np.all(np.isfinite(x0)) and np.array_equal(_clip(x0, bounds), x0)):
        raise ValueError("x0 must be finite and inside the bounds")
    options = {"maxcor": MEMORY_PAIRS, "ftol": RELATIVE_COST_TOLERANCE, "gtol": GRADIENT_TOLERANCE}

    objective = _Objective(cost_and_grad)
    report = objective.report
    objective.accept(x0)

    def callback(xk):
        report.iterations += 1
        if objective.accept(xk) < config.tolerance:
            raise StopIteration

    def search():
        options["maxiter"] = config.max_iterations - report.iterations
        return _scipy_minimize(
            objective, objective.best, jac=True, method="L-BFGS-B", callback=callback,
            bounds=None if bounds is None else [bounds] * x0.size, options=options,
        )

    res = None
    if x0.size and report.cost_trace[-1] >= config.tolerance:
        res = search()
        # An abnormal line-search end gets one projected steepest-descent
        # restart from the best point; the backend runs again if it helps.
        if res.status not in (0, 1) and report.cost_trace[-1] >= config.tolerance:
            x, improved = _descent_probe(objective, objective.best, report.cost_trace[-1], bounds)
            if improved and objective.accept(x) >= config.tolerance:
                res = search()

    if report.cost_trace[-1] < config.tolerance:
        report.termination, report.message = TERMINATION_TOLERANCE, "cost below tolerance"
        if len(report.cost_trace) == 1:
            report.message = "initial point already below tolerance"
    elif not x0.size:
        report.termination, report.message = TERMINATION_GRADIENT, "no free parameters"
    elif res.status == 1:
        report.termination, report.message = TERMINATION_MAX_ITER, "iteration budget exhausted"
    elif res.status == 0:
        # The backend's flat-gradient / flat-cost stop, short of the tolerance.
        report.termination, report.message = TERMINATION_GRADIENT, str(res.message)
    else:
        report.termination, report.message = TERMINATION_LINE_SEARCH, str(res.message)

    report.wall_time = time.perf_counter() - start
    return _clip(objective.best, bounds), report


def _descent_probe(objective, x, f_ref, bounds):
    """One backtracking projected-gradient step along ``best_gradient``; (new_x, improved)."""
    g = objective.best_gradient
    step = PROBE_STEP
    for _ in range(PROBE_HALVINGS):
        candidate = _clip(x - step * g, bounds)
        f_new, _ = objective(candidate)
        if f_new < f_ref:
            return candidate, True
        step *= 0.5
    return x, False
