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
``cost_trace[-1]`` is the cost there.  Its gradient is kept with it.
Besides that point, only the latest evaluation is remembered, in a memo.
The two answer the points the backend asks for again without running the
callable: each new iterate and, once a line search's trial steps shrink
until they round back to its start, that start, which is the best point.
The callable gets a copy of each point, never the backend's work array.

The search is deterministic given the same inputs.  The backend is scipy's
compiled L-BFGS-B routine ``setulb``, which asks by reverse communication for
the cost and gradient at a point (task FG) and reports each new iterate
(NEW_X); ``_lbfgsb`` answers it with the arguments that
``scipy.optimize.minimize(method="L-BFGS-B")`` passes, so the iterates are
the same bit for bit.  ``setulb`` is loaded at import from the file of the
extension ``scipy/optimize/_lbfgsb``, and ``zgemv`` for the sweeps from
``scipy/linalg/_fblas``, without either package's init, so a qoc process
loads none of ``scipy.optimize``, ``scipy.linalg`` and ``scipy.sparse``
(where scipy has no such file, the module is imported by name).  After
numpy and ``import scipy``, a fresh process took a median 4 ms and 1.8 MB of
peak RSS to load the ``_lbfgsb`` file, against 0.65 to 0.69 s and 48 MB for
``import scipy.optimize`` (seven processes, three times, 2 shared x86-64
cores, scipy 1.17.1).
"""

from __future__ import annotations

import importlib.util
import math
import numbers
import operator
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
from typing import Callable, Sequence

import numpy as np
import scipy

from .errors import ContractError, OptimizationError

__all__ = ["OptimizerConfig", "OptimizationReport", "minimize"]

TERMINATION_TOLERANCE = "tolerance"
TERMINATION_GRADIENT = "gradient"
TERMINATION_MAX_ITER = "max-iter"
TERMINATION_LINE_SEARCH = "line-search-failure"

MEMORY_PAIRS = 10  # correction pairs the quasi-Newton backend keeps
RELATIVE_COST_TOLERANCE = 0.0  # its relative cost-decrease stop, switched off
GRADIENT_TOLERANCE = 1e-9  # its flat-gradient stop, on the largest projected component
LINE_SEARCH_STEPS = 20  # trial steps per line search before it fails (scipy's maxls)
MAX_EVALUATIONS = 15000  # evaluations after which an iteration ends the run (scipy's maxfun)
# Largest move of the first trial point, as a fraction of the box's half-width.
# Uncapped, the Polyak step moved at most 1.85% of it on the spin samples
# (GRAPE on 3 and 4 spins and the 4-spin disentangling searches, seeds 0-4),
# but up to 43% on the 4-qubit chain to GHZ(4) and 2.4 to 5.5 half-widths
# in the 6-qubit chain's first iGRAPE stage, which then ended 500 iterations
# at 1.19e-5 instead of 4.16e-7 (seed 1).  So the cap binds on the chains only.
FIRST_STEP_CAP = 0.02

# setulb's task codes: task[0] is what it asks for, task[1] why it stopped.
_NEW_X, _FG, _CONVERGENCE, _STOP, _ABNORMAL = 1, 3, 4, 5, 8
_EVALUATION_LIMIT, _ITERATION_LIMIT, _HALT = 502, 504, 505
# The report's message for each end of a search that is not the tolerance's;
# setulb's own ends read as scipy words them.
_MESSAGES = {
    (_CONVERGENCE, 401): "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL",
    (_CONVERGENCE, 402): "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    (_STOP, _ITERATION_LIMIT): "iteration budget exhausted",
    (_STOP, _EVALUATION_LIMIT): "evaluation budget exhausted",
    (_ABNORMAL, 0): "ABNORMAL: ",
}


def _load_extension(subpackage: str, stem: str):
    """scipy's compiled extension ``scipy.<subpackage>.<stem>``, loaded from
    its file without running the subpackage's init.

    The module gets the name scipy gives it, so that a later import of the
    subpackage finds it in the interpreter's extension cache.  Its init
    registers it in ``sys.modules``; the entry is dropped again unless it was
    there before, since its package is not loaded.  Without such a file the
    module is imported by name, subpackage and all.
    """
    name = f"scipy.{subpackage}.{stem}"
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(scipy.__path__[0], subpackage, stem + suffix)
        if os.path.isfile(path):
            break
    else:
        return importlib.import_module(name)
    registered = name in sys.modules
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        sys.modules.pop(name, None)
    return module


setulb = _load_extension("optimize", "_lbfgsb").setulb


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
    returned point.  ``evaluations`` counts calls of the cost-and-gradient
    callable; repeated points answered from the memo are not counted.
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
        f, g = self.fn(x.copy())
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


def _lbfgsb(
    objective: _Objective, x0: np.ndarray, bounds, kappa: float, config: OptimizerConfig
) -> tuple[int, int]:
    """One L-BFGS-B run from x0 on kappa times ``objective``; its final task.

    Every argument is the one ``scipy.optimize.minimize(method="L-BFGS-B")``
    passes setulb for these options, and it stops where that does: after the
    iteration that reaches the budget or takes more than MAX_EVALUATIONS
    evaluations, here also once an accepted cost is below the tolerance.
    """
    n, m = x0.size, MEMORY_PAIRS
    nbd = np.full(n, 0 if bounds is None else 2, dtype=np.int32)
    lo, hi = (0.0, 0.0) if bounds is None else bounds
    lower, upper = np.full(n, lo), np.full(n, hi)
    x, f, g = x0.copy(), 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = RELATIVE_COST_TOLERANCE / np.finfo(float).eps
    pgtol = GRADIENT_TOLERANCE * kappa
    evaluations = 0
    while True:
        setulb(m, x, lower, upper, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave,
               dsave, LINE_SEARCH_STEPS, ln_task)
        if task[0] == _FG:
            f, g = objective(x)
            f, g = kappa * f, kappa * g
            evaluations += 1
        elif task[0] == _NEW_X:
            objective.report.iterations += 1
            if objective.accept(x) < config.tolerance:
                task[:] = _STOP, _HALT
            elif objective.report.iterations >= config.max_iterations:
                task[:] = _STOP, _ITERATION_LIMIT
            elif evaluations > MAX_EVALUATIONS:
                task[:] = _STOP, _EVALUATION_LIMIT
        else:
            return int(task[0]), int(task[1])


def minimize(
    cost_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: Sequence[float],
    config: OptimizerConfig,
) -> tuple[np.ndarray, OptimizationReport]:
    """Minimize under box bounds; stop at tolerance, flat gradient, or budget."""
    start = time.perf_counter()
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    bounds = config.bounds
    if not (np.all(np.isfinite(x0)) and np.array_equal(_clip(x0, bounds), x0)):
        raise ValueError("x0 must be finite and inside the bounds")
    objective = _Objective(cost_and_grad)
    report = objective.report
    objective.accept(x0)

    task = None
    if x0.size and report.cost_trace[-1] >= config.tolerance:
        kappa = _first_step_scale(report.cost_trace[-1], objective.best_gradient, bounds)
        task = _lbfgsb(objective, x0, bounds, kappa, config)

    if report.cost_trace[-1] < config.tolerance:
        report.termination, report.message = TERMINATION_TOLERANCE, "cost below tolerance"
        if len(report.cost_trace) == 1:
            report.message = "initial point already below tolerance"
    elif task is None:
        report.termination, report.message = TERMINATION_GRADIENT, "no free parameters"
    else:
        report.termination = {_STOP: TERMINATION_MAX_ITER, _CONVERGENCE: TERMINATION_GRADIENT}.get(
            task[0], TERMINATION_LINE_SEARCH
        )
        report.message = _MESSAGES.get(task, f"L-BFGS-B task {task[0]}, {task[1]}")

    report.wall_time = time.perf_counter() - start
    return _clip(objective.best, bounds), report
