"""Box-bounded minimization given a cost-and-gradient callable.

Each search is one run of the limited-memory quasi-Newton method with
gradient projection (scipy's L-BFGS-B backend), plus three behaviours the
pulse engines rely on:

* early termination as soon as the cost drops below the configured
  tolerance (the natural stopping rule for transfer problems),
* a diagnostic error carrying the offending iterate when the cost or
  gradient goes non-finite, and a ``ContractError`` when the gradient's
  size is not the parameter count,
* a first step in the box's units.  With a box on every variable the
  backend's first trial point is x0 - g0, in the caller's units, and so is
  every trial after a skipped correction pair; on the 4-spin sample that
  moved the largest amplitude by 4e-6 Hz, and the line search then spent
  12 to 14 evaluations growing the step 4-fold at a time.  So the backend
  sees kappa f and kappa g, with kappa = f0 / |g0|_2^2, Polyak's step to
  the minimum 0 of every qoc cost (Polyak, Introduction to Optimization,
  1987), capped so that the first trial moves no variable by more than
  FIRST_STEP_CAP of the box's half-width.  Its flat-gradient stop is scaled
  by kappa too, so it still reads GRADIENT_TOLERANCE in the caller's units.
  The quasi-Newton steps after an accepted pair do not depend on kappa.
  Without a box, or with a flat start, kappa is 1.

Every other stop, a failed line search included, is returned as data.  The
start and each quasi-Newton iterate are accepted when their cost falls below
the last accepted one; the last accepted point is returned, so
``cost_trace[-1]`` is the cost there (the backend's ``res.fun``, after a
line-search failure not always the cost at any point, is not read).  Its
gradient is kept with it.  Besides that point, only the latest evaluation is
remembered, in a memo.  The two answer the points the backend asks for again
without running the callable: each iterate handed to the callback and, once
a line search's trial steps shrink until they round back to its start, that
start, which is the best point.

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
# Largest move of the first trial point, as a fraction of the box's half-width.
# Uncapped, the Polyak step moved at most 1.85% of it on the spin samples
# (GRAPE on 3 and 4 spins and the 4-spin disentangling searches, seeds 0-4),
# but up to 43% on the 4-qubit chain to GHZ(4) and 2.4 to 5.5 half-widths
# in the 6-qubit chain's first iGRAPE stage, which then ended 500 iterations
# at 1.19e-5 instead of 4.16e-7 (seed 1).  So the cap binds on the chains only.
FIRST_STEP_CAP = 0.02


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
        object.__setattr__(self, "tolerance", float(self.tolerance))
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
    answers again for the best point too, which the backend's line search
    asks for once its trial steps round back to their start.

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


def _first_step_scale(f0: float, g0: np.ndarray, bounds) -> float:
    """kappa = min(f0 / |g0|_2^2, FIRST_STEP_CAP h / |g0|_inf), h the box's
    half-width; 1 without a box, or when kappa is not positive and finite.
    """
    if bounds is None:
        return 1.0
    half_width = (bounds[1] - bounds[0]) / 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa = min(f0 / (g0 @ g0), FIRST_STEP_CAP * half_width / np.abs(g0).max())
    return float(kappa) if 0.0 < kappa < math.inf else 1.0


def minimize(
    cost_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: Sequence[float],
    config: OptimizerConfig,
) -> tuple[np.ndarray, OptimizationReport]:
    """Minimize under box bounds; stop at tolerance, flat gradient, or budget."""
    # Imported here, not at module level: after ``import qoc``, scipy.optimize
    # and the scipy.linalg package it loads cost a fresh process about 0.4 s
    # and 43 MB of peak RSS that propagation and gradients never use.
    from scipy.optimize import Bounds, minimize as _scipy_minimize

    start = time.perf_counter()
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    bounds = config.bounds
    if not (np.all(np.isfinite(x0)) and np.array_equal(_clip(x0, bounds), x0)):
        raise ValueError("x0 must be finite and inside the bounds")
    objective = _Objective(cost_and_grad)
    report = objective.report
    objective.accept(x0)

    def callback(xk):
        report.iterations += 1
        if objective.accept(xk) < config.tolerance:
            raise StopIteration

    res = None
    if x0.size and report.cost_trace[-1] >= config.tolerance:
        kappa = _first_step_scale(report.cost_trace[-1], objective.best_gradient, bounds)

        def scaled(x):
            f, g = objective(x)
            return kappa * f, kappa * g

        options = {
            "maxcor": MEMORY_PAIRS, "ftol": RELATIVE_COST_TOLERANCE,
            "gtol": GRADIENT_TOLERANCE * kappa, "maxiter": config.max_iterations,
        }
        res = _scipy_minimize(
            scaled, x0, jac=True, method="L-BFGS-B", callback=callback,
            bounds=None if bounds is None else Bounds(*bounds), options=options,
        )

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

