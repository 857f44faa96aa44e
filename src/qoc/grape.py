"""Baseline gradient-based pulse search for |0...0> -> target transfers.

One forward-sign pulse sequence is optimized against the overlap
infidelity.  Non-convergence is a first-class outcome recorded in the
result, never an exception: benchmark sweeps need failed seeds as data.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import SystemModel
from .linalg import StateVector, ground_state
from .optimize import OptimizationReport, OptimizerConfig, minimize
from .pulses import (
    SIGN_FORWARD,
    PulseGrid,
    PulseSequence,
    infidelity_value_and_gradient,
    propagate,
    random_initial_pulses,
    state_infidelity,
)

logger = logging.getLogger(__name__)

__all__ = ["GrapeProblem", "GrapeResult", "run_grape"]


@dataclass(frozen=True)
class GrapeProblem:
    model: SystemModel
    target: StateVector
    grid: PulseGrid
    optimizer: OptimizerConfig
    bounds: tuple[float, float]
    seed: int = 0
    initial: StateVector | None = None

    def __post_init__(self):
        if abs(self.target.norm - 1.0) > 1e-8:
            raise ValueError("target state must be normalized")
        if self.target.dim != self.model.dim:
            raise ValueError("target dimension does not match the model")
        if not all(math.isfinite(b) for b in self.bounds):
            raise ValueError(f"amplitude bounds must be finite, got {self.bounds}")
        solver_bounds = self.optimizer.bounds  # run_grape replaces them by self.bounds
        if solver_bounds is not None and not np.array_equal(solver_bounds, self.bounds):
            raise ValueError(f"optimizer bounds {solver_bounds} conflict with bounds {self.bounds}")


@dataclass
class GrapeResult:
    pulses: PulseSequence
    report: OptimizationReport
    fidelity: float
    final_cost: float
    converged: bool
    seed: int

    @property
    def iterations(self) -> int:
        return self.report.iterations

    @property
    def wall_time(self) -> float:
        return self.report.wall_time


def run_grape(problem: GrapeProblem) -> GrapeResult:
    """Optimize a forward-sign sequence; flag rather than hide failures."""
    model = problem.model
    initial = problem.initial or ground_state(model.site_dims)
    grid = problem.grid
    tolerance = problem.optimizer.tolerance

    zero_seq = PulseSequence(
        grid,
        np.zeros((grid.segments, model.num_channels)),
        model.channel_labels,
        SIGN_FORWARD,
        bounds=problem.bounds,
    )
    drift_only, _ = propagate(model, zero_seq, initial)
    zero_cost = state_infidelity(drift_only, problem.target)
    if zero_cost < tolerance:
        report = OptimizationReport(
            cost_trace=[zero_cost],
            gradient_norm_trace=[0.0],
            iterations=0,
            wall_time=0.0,
            termination="tolerance",
            message="drift alone reaches the target; controls left at zero",
        )
        return GrapeResult(
            pulses=zero_seq,
            report=report,
            fidelity=1.0 - zero_cost,
            final_cost=zero_cost,
            converged=True,
            seed=problem.seed,
        )

    guess = random_initial_pulses(
        grid, model.channel_labels, problem.bounds, problem.seed, SIGN_FORWARD
    )
    shape = guess.amplitudes.shape

    def cost_and_grad(x: np.ndarray):
        seq = guess.with_amplitudes(x.reshape(shape))
        cost, grad, _ = infidelity_value_and_gradient(model, seq, initial, problem.target)
        return cost, grad.reshape(-1)

    config = dataclasses.replace(problem.optimizer, bounds=problem.bounds)
    x_star, report = minimize(cost_and_grad, guess.amplitudes.reshape(-1), config)
    pulses = guess.with_amplitudes(x_star.reshape(shape))

    # Re-simulate from scratch so the reported fidelity is what a fresh
    # play-out of the returned pulses actually achieves.
    final_state, _ = propagate(model, pulses, initial)
    final_cost = state_infidelity(final_state, problem.target)
    fidelity = 1.0 - final_cost
    converged = final_cost < tolerance
    if not converged:
        logger.info(
            "transfer did not converge: cost %.3e after %d iterations (%s)",
            final_cost, report.iterations, report.termination,
        )
    return GrapeResult(
        pulses=pulses,
        report=report,
        fidelity=fidelity,
        final_cost=final_cost,
        converged=converged,
        seed=problem.seed,
    )
