"""Baseline gradient-based pulse search for |0...0> -> target transfers.

One forward-sign pulse sequence is optimized from |0...0> against the
overlap infidelity inside the amplitude box, the rf or drive limit.
Non-convergence is a first-class outcome recorded in the result, never an
exception: benchmark sweeps need failed seeds as data.
"""

from __future__ import annotations

import dataclasses
import logging
import operator
from dataclasses import dataclass

import numpy as np

from .hamiltonians import SystemModel
from .linalg import StateVector, ground_state
from .optimize import OptimizationReport, OptimizerConfig, _box, minimize
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


@dataclass(frozen=True, eq=False)
class GrapeProblem:
    """|0...0> -> ``target`` on ``grid``, with every channel inside ``bounds``.

    ``bounds`` is a box as ``OptimizerConfig.bounds`` takes, but not None.
    ``optimizer.bounds`` is None or equal to it; the stored ``optimizer``
    carries it.  ``seed`` draws the start.
    """

    model: SystemModel
    target: StateVector
    grid: PulseGrid
    optimizer: OptimizerConfig
    bounds: tuple[float, float]
    seed: int = 0

    def __post_init__(self):
        target, dims = self.target, self.model.site_dims
        if abs(target.norm - 1.0) > 1e-8:
            raise ValueError("target state must be normalized")
        if target.site_dims != dims:
            raise ValueError(f"target sites {target.site_dims} do not match the model's {dims}")
        box, solver = _box(self.bounds), self.optimizer
        if solver.bounds not in (None, box):
            raise ValueError(f"optimizer bounds {solver.bounds} conflict with bounds {box}")
        object.__setattr__(self, "bounds", box)
        object.__setattr__(self, "optimizer", dataclasses.replace(solver, bounds=box))
        object.__setattr__(self, "seed", operator.index(self.seed))  # TypeError if not an integer
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class GrapeResult:
    pulses: PulseSequence
    report: OptimizationReport
    final_cost: float
    converged: bool
    seed: int

    @property
    def iterations(self) -> int:
        return self.report.iterations

    @property
    def fidelity(self) -> float:
        return 1.0 - self.final_cost


def run_grape(problem: GrapeProblem) -> GrapeResult:
    """Optimize a forward-sign sequence; flag rather than hide failures."""
    model = problem.model
    initial = ground_state(model.site_dims)
    guess = random_initial_pulses(
        problem.grid, model.channel_labels, problem.bounds, problem.seed, SIGN_FORWARD
    )
    shape = guess.amplitudes.shape

    def cost_and_grad(x: np.ndarray):
        seq = guess.with_amplitudes(x.reshape(shape))
        cost, grad, _ = infidelity_value_and_gradient(model, seq, initial, problem.target)
        return cost, grad.reshape(-1)

    x_star, report = minimize(cost_and_grad, guess.amplitudes.reshape(-1), problem.optimizer)
    pulses = guess.with_amplitudes(x_star.reshape(shape))

    # Re-simulate so the reported fidelity is what a fresh play-out of the
    # returned pulses actually achieves.
    final_cost = state_infidelity(propagate(model, pulses, initial)[0], problem.target)
    converged = final_cost < problem.optimizer.tolerance
    if not converged:
        logger.info(
            "transfer did not converge: cost %.3e after %d iterations (%s)",
            final_cost, report.iterations, report.termination,
        )
    return GrapeResult(
        pulses=pulses,
        report=report,
        final_cost=final_cost,
        converged=converged,
        seed=problem.seed,
    )
