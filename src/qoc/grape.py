"""Staged pulse search for |0...0> -> target preparations: iGRAPE, and GRAPE
as its one-stage plan.

``run_grape`` runs a problem's ``Plan``, a list of stages, in order.  One
function, ``_search_stage``, runs every stage: a seeded start, one
box-bounded ``minimize`` of the stage's cost, and a fresh play-out of the
pulses it returns.  Only the cost, the sign and the start state differ.

* A disentangling stage freezes some of the sites still active.  From phi,
  the target at stage 0, its reversed-sign pulses drive the ground leakage
  1 - <0...0| rho_frozen |0...0> down.  The normalised |0...0> row of the
  frozen block of its fresh play-out, a state on the sites left, is the next
  stage's phi.  Its model holds every site frozen so far in |0...0>
  (``frozen_subsystem_hamiltonian``); stage 0's is the problem's model.
* The last stage freezes nothing: the forward-sign transfer |0...0> -> phi.
  GRAPE is the plan of this stage alone, on the problem's model, grid and
  optimizer, and that is the default plan.

The preparation is then played out afresh on the full model from |0...0>:
the last stage's pulses first, then each earlier stage's
``reversed_play_order``, from the last of them back to the first, every
sequence embedded in the full channel set by label with zeros on the frozen
channels.  Its infidelity to the target is the reported cost.  With eps_i
each disentangling stage's fresh leakage and the last stage's fresh
infidelity, that cost is 1 - prod(1 - eps_i) up to roundoff: each
projection drops exactly the part orthogonal to the frozen |0...0>, and on
a spin sample, whose drift is diagonal, the full model acts on a frozen
|0...0> block as the stage's reduced model does (``GrapeProblem`` rejects a
stage model for which this fails).  So a plan whose stages all
end below their share of the tolerance meets it, and the result records
each stage's part of the error.

Non-convergence is a first-class outcome recorded in the result, never an
exception: benchmark sweeps need failed seeds as data.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hamiltonians import NmrSample, SystemModel, frozen_subsystem_hamiltonian, sample_registry
from .linalg import StateVector, _bipartition_matrix, ground_state
from .optimize import OptimizationReport, OptimizerConfig, _box, minimize
from .pulses import (
    SIGN_FORWARD,
    SIGN_REVERSED,
    PulseGrid,
    PulseSequence,
    ground_leakage,
    ground_leakage_value_and_gradient,
    infidelity_value_and_gradient,
    propagate,
    random_initial_pulses,
    state_infidelity,
)

logger = logging.getLogger(__name__)

__all__ = ["GrapeProblem", "GrapeResult", "Plan", "Stage", "igrape_plan", "run_grape"]


@dataclass(frozen=True, eq=False)
class Stage:
    """One search of a plan.

    ``frozen`` lists the sites of the stage's model that it drives into
    |0...0>; the last stage freezes none.  ``grid`` sets its segments and
    ``optimizer`` its iteration cap and tolerance; the problem's box is its
    box.  ``model`` holds the sites no earlier stage froze.  Stage 0 leaves
    it None and runs on the problem's model.
    """

    frozen: tuple[int, ...]
    grid: PulseGrid
    optimizer: OptimizerConfig
    model: SystemModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "frozen", tuple(sorted({operator.index(s) for s in self.frozen})))

    def to_dict(self) -> dict:
        return {
            "frozen": list(self.frozen),
            "dt": self.grid.dt,
            "segments": self.grid.segments,
            "max_iterations": self.optimizer.max_iterations,
            "tolerance": self.optimizer.tolerance,
        }


@dataclass(frozen=True, eq=False)
class Plan:
    """The stages of a run in search order, and what its log lines name: the
    sample, or for the default plan the platform and site count.
    """

    stages: tuple[Stage, ...]
    sample: str

    def to_dict(self) -> dict:
        return {"sample": self.sample, "stages": [stage.to_dict() for stage in self.stages]}


def igrape_plan(sample: NmrSample, optimizer: OptimizerConfig) -> Plan:
    """iGRAPE's default plan on a spin sample: stage 0 freezes every spin but
    spin 0, and the last stage prepares spin 0.

    Segment counts and dt are the catalogue's ``igrape`` row for the
    sample's size.  Each of the S stages stops after
    ``optimizer.max_iterations`` or below 1 - (1 - tolerance)^(1/S), an even
    split of the tolerance under the product rule.  The models of the
    stages after stage 0 are built here, once.
    """
    if not isinstance(sample, NmrSample):
        raise TypeError(
            f"iGRAPE plans are built for spin samples only, got {type(sample).__name__}"
        )
    if optimizer.tolerance >= 1.0:
        raise ValueError(f"iGRAPE splits a tolerance below 1, got {optimizer.tolerance}")
    schedule = sample_registry().reference_schedule("nmr", sample.size)
    share = -math.expm1(math.log1p(-optimizer.tolerance) / len(schedule["igrape"]))
    stage_optimizer = dataclasses.replace(optimizer, tolerance=share)
    stages, frozen_so_far = [], []
    for frozen, segments in zip((range(1, sample.size), ()), schedule["igrape"], strict=True):
        model = frozen_subsystem_hamiltonian(sample, frozen_so_far) if frozen_so_far else None
        grid = PulseGrid(schedule["dt"], segments)
        stages.append(Stage(tuple(frozen), grid, stage_optimizer, model))
        frozen_so_far += frozen
    return Plan(tuple(stages), sample.name)


def _boxed(optimizer: OptimizerConfig, box: tuple[float, float]) -> OptimizerConfig:
    if optimizer.bounds not in (None, box):
        raise ValueError(f"optimizer bounds {optimizer.bounds} conflict with bounds {box}")
    return dataclasses.replace(optimizer, bounds=box)


def _acts_as(model: SystemModel, reduced: SystemModel, frozen: list[int]) -> bool:
    """Whether ``model`` keeps the block of basis states with the ``frozen``
    sites in |0> and acts on it as ``reduced`` does, by its drift and by
    each of ``reduced``'s channels, matched by label: what the product
    identity rests on.  Each operator may differ by a multiple of the
    identity, such as a frozen spin's own shift, which only turns the
    global phase.
    """
    dims = model.site_dims
    labels = model.channel_labels
    if reduced.site_dims != tuple(d for j, d in enumerate(dims) if j not in frozen):
        return False
    if not set(reduced.channel_labels) <= set(labels):
        return False
    block = np.zeros(dims, dtype=bool)
    block[tuple(0 if j in frozen else slice(None) for j in range(len(dims)))] = True
    block = block.reshape(-1)
    channels = [labels.index(label) for label in reduced.channel_labels]
    for full, small in zip(
        [model.drift, *model.control_stack[channels]], [reduced.drift, *reduced.control_stack]
    ):
        scale = 1e-12 * np.abs(full).max(initial=0.0)
        if full[np.ix_(~block, block)].any():
            return False
        offset = full[np.ix_(block, block)] - small
        offset[np.diag_indices_from(offset)] -= np.trace(offset) / len(offset)
        if not np.allclose(offset, 0.0, rtol=0.0, atol=scale):
            return False
    return True


@dataclass(frozen=True, eq=False)
class GrapeProblem:
    """|0...0> -> ``target`` on ``model``, with every channel inside ``bounds``.

    With ``plan`` None the run is GRAPE: one stage on ``model``, ``grid``
    and ``optimizer``.  A plan given in its place sets every stage's grid,
    so ``grid`` must then be None.  Its stage 0 runs on ``model``, and each
    later stage's model must be how ``model`` acts with the sites frozen so
    far in |0...0>.  Whatever the plan, ``converged`` compares the honest
    cost with ``optimizer.tolerance``; with a plan, that tolerance and the
    box are all that is read of ``optimizer``.  ``bounds`` is a box as
    ``OptimizerConfig.bounds`` takes, but not None; every stage's optimizer
    bounds are None or equal to it.  ``seed`` draws every stage's start.
    """

    model: SystemModel
    target: StateVector
    grid: PulseGrid | None
    optimizer: OptimizerConfig
    bounds: tuple[float, float]
    seed: int = 0
    plan: Plan | None = None

    def __post_init__(self):
        target, model = self.target, self.model
        if abs(target.norm - 1.0) > 1e-8:
            raise ValueError("target state must be normalized")
        if target.site_dims != model.site_dims:
            raise ValueError(
                f"target sites {target.site_dims} do not match the model's {model.site_dims}"
            )
        if (self.plan is None) == (self.grid is None):
            raise ValueError("give a grid for GRAPE's one-stage plan, or a plan and no grid")
        box = _box(self.bounds)
        object.__setattr__(self, "bounds", box)
        object.__setattr__(self, "optimizer", _boxed(self.optimizer, box))
        object.__setattr__(self, "seed", operator.index(self.seed))  # TypeError if not an integer
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.resolved_plan  # checks the plan's stages

    @cached_property
    def resolved_plan(self) -> Plan:
        """The plan as it runs: GRAPE's one stage when ``plan`` is None, and
        every stage on its model and in the box.
        """
        model = self.model
        plan = self.plan or Plan(
            (Stage((), self.grid, self.optimizer),),
            f"{len(model.site_dims)}-site {model.platform} model",
        )
        active, frozen_so_far, stages = list(range(len(model.site_dims))), [], []
        for i, stage in enumerate(plan.stages):
            if (stage.model is None) != (i == 0):
                raise ValueError(
                    f"stage {i} model: stage 0 runs on the problem's model, every later stage"
                    " on a model of its own"
                )
            if i and not _acts_as(model, stage.model, frozen_so_far):
                raise ValueError(
                    f"stage {i} model is not how the problem's model acts with sites"
                    f" {frozen_so_far} in |0...0>"
                )
            last = i == len(plan.stages) - 1
            if last == bool(stage.frozen) or not set(stage.frozen) < set(range(len(active))):
                raise ValueError(
                    f"stage {i} freezes sites {list(stage.frozen)} of {len(active)}: every stage"
                    " but the last must freeze some of its model's sites and leave one"
                )
            frozen_so_far += [active[j] for j in stage.frozen]
            active = [site for j, site in enumerate(active) if j not in stage.frozen]
            boxed = _boxed(stage.optimizer, self.bounds)
            stages.append(dataclasses.replace(stage, model=stage.model or model, optimizer=boxed))
        return dataclasses.replace(plan, stages=tuple(stages))


@dataclass(eq=False)
class GrapeResult:
    """What a run of a plan found.

    ``reports`` and ``stage_costs`` hold each stage's search record and its
    eps_i, the cost of its fresh play-out, in search order.  Played in
    order from |0...0>, the ``preparation``'s (full model, pulses) pairs
    prepare the target up to ``final_cost``.
    """

    plan: Plan
    reports: tuple[OptimizationReport, ...]
    stage_costs: tuple[float, ...]
    preparation: tuple[tuple[SystemModel, PulseSequence], ...]
    final_cost: float
    converged: bool
    seed: int

    @property
    def iterations(self) -> int:
        return sum(report.iterations for report in self.reports)

    @property
    def fidelity(self) -> float:
        return 1.0 - self.final_cost

    def to_dict(self) -> dict:
        """Plain fields, ready for ``json.dumps``; the models are left out."""
        return {
            "plan": self.plan.to_dict(),
            "stages": [
                {"cost": cost, "report": report.to_dict()}
                for cost, report in zip(self.stage_costs, self.reports)
            ],
            "final_cost": self.final_cost,
            "converged": self.converged,
            "seed": self.seed,
        }


def _search_stage(stage: Stage, cost, sign: str, initial: StateVector, spec, seed: int):
    """(pulses, report, final state): one seeded search of ``cost`` from
    ``initial``, and a fresh play-out of the pulses it returns.
    """
    model = stage.model
    guess = random_initial_pulses(
        stage.grid, model.channel_labels, stage.optimizer.bounds, seed, sign
    )
    shape = guess.amplitudes.shape

    def cost_and_grad(x: np.ndarray):
        value, grad, _ = cost(model, guess.with_amplitudes(x.reshape(shape)), initial, spec)
        return value, grad.reshape(-1)

    x_star, report = minimize(cost_and_grad, guess.amplitudes.reshape(-1), stage.optimizer)
    pulses = guess.with_amplitudes(x_star.reshape(shape))
    return pulses, report, propagate(model, pulses, initial)[0]


def _embedded(pulses: PulseSequence, channels: tuple[str, ...]) -> PulseSequence:
    """``pulses`` on ``channels`` by label, with zero amplitude on the channels it lacks."""
    amps = np.zeros((pulses.grid.segments, len(channels)))
    amps[:, [channels.index(label) for label in pulses.channels]] = pulses.amplitudes
    return dataclasses.replace(pulses, amplitudes=amps, channels=channels)


def run_grape(problem: GrapeProblem) -> GrapeResult:
    """Run the problem's plan, then play the preparation out afresh; flag
    rather than hide failures.
    """
    model, plan = problem.model, problem.resolved_plan
    stages, total = plan.stages, len(plan.stages)
    phi, searched, reports, costs = problem.target, [], [], []
    for i, stage in enumerate(stages):
        frozen = stage.frozen
        if frozen:
            pulses, report, final = _search_stage(
                stage, ground_leakage_value_and_gradient, SIGN_REVERSED, phi, frozen, problem.seed
            )
            cost = ground_leakage(final, frozen)
            row = _bipartition_matrix(final, frozen)[0][0]
            phi = StateVector(row / np.linalg.norm(row), stages[i + 1].model.site_dims)
        else:
            start = ground_state(stage.model.site_dims)
            pulses, report, final = _search_stage(
                stage, infidelity_value_and_gradient, SIGN_FORWARD, start, phi, problem.seed
            )
            cost = state_infidelity(final, phi)
        logger.debug(
            "stage %d of %d (%s): cost %.3e after %d iterations (%s)",
            i + 1, total, plan.sample, cost, report.iterations, report.termination,
        )
        searched.append(pulses)
        reports.append(report)
        costs.append(float(cost))

    labels = model.channel_labels
    *earlier, last = [_embedded(pulses, labels) for pulses in searched]
    sequences = [last, *(seq.reversed_play_order() for seq in reversed(earlier))]
    state = ground_state(model.site_dims)
    for seq in sequences:
        state, _ = propagate(model, seq, state)
    final_cost = float(state_infidelity(state, problem.target))
    converged = final_cost < problem.optimizer.tolerance
    if not converged:
        failed = next(
            (i for i, stage in enumerate(stages) if costs[i] >= stage.optimizer.tolerance),
            total - 1,
        )
        logger.info(
            "%s: preparation did not converge, honest cost %.3e; stage %d of %d ended at "
            "%.3e after %d iterations (%s)",
            plan.sample, final_cost, failed + 1, total, costs[failed],
            reports[failed].iterations, reports[failed].termination,
        )
    return GrapeResult(
        plan=plan,
        reports=tuple(reports),
        stage_costs=tuple(costs),
        preparation=tuple((model, seq) for seq in sequences),
        final_cost=final_cost,
        converged=converged,
        seed=problem.seed,
    )
