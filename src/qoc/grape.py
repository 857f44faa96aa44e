"""Staged pulse search for |0...0> -> target preparations: iGRAPE, and GRAPE
as its one-stage plan.

``run_grape`` runs a problem's ``Plan``, a list of stages, in order.  One
function, ``_search_stage``, runs every stage: a seeded start, one
box-bounded ``minimize`` of the stage's cost, and a fresh play-out of the
pulses it returns.  Only the cost, the sign and the start state differ.

* A disentangling stage freezes some of the sites still active.  From phi,
  the target at stage 0, its reversed-sign pulses drive the ground leakage
  1 - <0...0| rho_frozen |0...0> down.  The normalised |0...0> row of the
  frozen block of its fresh play-out is the next stage's phi.
* The last stage freezes nothing: the forward-sign transfer |0...0> -> phi.
  GRAPE is the plan of this stage alone, and that is the default plan.

Each stage searches how the problem's model acts on the block of states
with the sites frozen so far in |0...0> (``_block``), and plays on a
full-size model: its own, or the problem's.  That model must keep the block
and act on it as searched (``_acts_as``).  A spin sample's drift is
diagonal, so any block is kept.  A chain's hopping carries an excitation
across a coupler into a frozen |0>, so its stages switch off every coupler
next to a frozen site; the couplers left on are the block's own.

The preparation is then played out afresh from |0...0>: the last stage's
pulses, then each earlier stage's ``reversed_play_order`` back to the first,
each on its stage's model with zeros on the channels it did not search.  Its
infidelity to the target, the reported cost, is 1 - prod(1 - eps_i) up to
roundoff, with eps_i each disentangling stage's fresh leakage and the last
stage's fresh infidelity: each projection drops exactly the part orthogonal
to the frozen |0...0>, and each model acts on its block as searched, up to a
global phase.  So a plan whose stages all end below their share of the
tolerance meets it, and the result records each stage's part of the error.

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
from typing import Sequence

import numpy as np

from .hamiltonians import NmrSample, ScSample, SystemModel, _pattern, build_sc, sample_registry
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

    ``frozen`` lists the sites it drives into |0...0>, indexed among the
    sites no earlier stage froze; the last stage freezes none.  ``grid``
    sets its segments and ``optimizer`` its iteration cap and tolerance;
    the problem's box is its box.  ``model`` is the full-size model its
    pulses are played on, None for the problem's model.
    """

    frozen: tuple[int, ...]
    grid: PulseGrid
    optimizer: OptimizerConfig
    model: SystemModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "frozen", tuple(sorted({operator.index(s) for s in self.frozen})))

    def to_dict(self) -> dict:
        mask = None if self.model is None else self.model.coupling_mask
        return {
            "frozen": list(self.frozen),
            "dt": self.grid.dt,
            "segments": self.grid.segments,
            "max_iterations": self.optimizer.max_iterations,
            "tolerance": self.optimizer.tolerance,
            "coupling_mask": None if mask is None else list(mask),
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


def igrape_plan(
    sample: NmrSample | ScSample, optimizer: OptimizerConfig, sites: Sequence[int] | None = None
) -> Plan:
    """iGRAPE's default plan on a spin sample, or on the chain over ``sites``.

    A spin sample's stage 0 freezes every spin but spin 0, and its last stage
    prepares spin 0, both on the problem's model: its diagonal drift keeps
    any frozen block.  On a chain every stage but the last freezes its first
    active site, and stage i >= 1 plays on the chain over ``sites`` with the
    couplers of its first i sites off, so no hop leaves the frozen |0...0>.
    ``sites`` defaults to the whole chain, as in ``build_sc``, and a spin
    sample takes none.  Segment counts and dt are the catalogue's ``igrape``
    row.  Stage i stops after ``max_iterations`` or below
    1 - (1 - tolerance)^(d_i / sum(d)), d_i the dimension it searches: these
    shares meet the tolerance, and the largest search gets the most.
    """
    if optimizer.tolerance >= 1.0:
        raise ValueError(f"iGRAPE splits a tolerance below 1, got {optimizer.tolerance}")
    spins = isinstance(sample, NmrSample)
    if spins and sites is not None:
        raise ValueError(f"a spin plan takes no sites, got {sites}")
    sites = range(sample.size) if sites is None else sites
    n = len(sites)
    schedule = sample_registry().reference_schedule("nmr" if spins else "sc", n)
    count = len(schedule["igrape"])
    if spins:
        name, site_dim, frozen, models = sample.name, 2, [range(1, n), ()], [None, None]
    else:
        name = f"{sample.name}[{','.join(sample.labels[q] for q in sites)}]"
        site_dim, frozen = sample.truncation, [(0,)] * (count - 1) + [()]
        masks = [[b >= i for b in range(n - 1)] for i in range(1, count)]
        models = [None, *(build_sc(sample, mask, sites) for mask in masks)]
    dims = [site_dim ** (n - sum(map(len, frozen[:i]))) for i in range(count)]
    stages, rows = [], zip(frozen, schedule["igrape"], models, dims, strict=True)
    for stage_frozen, segments, model, dim in rows:
        share = -math.expm1(math.log1p(-optimizer.tolerance) * dim / sum(dims))
        stage_optimizer = dataclasses.replace(optimizer, tolerance=share)
        grid = PulseGrid(schedule["dt"], segments)
        stages.append(Stage(stage_frozen, grid, stage_optimizer, model))
    return Plan(tuple(stages), name)


def _boxed(optimizer: OptimizerConfig, box: tuple[float, float]) -> OptimizerConfig:
    if optimizer.bounds not in (None, box):
        raise ValueError(f"optimizer bounds {optimizer.bounds} conflict with bounds {box}")
    return dataclasses.replace(optimizer, bounds=box)


def _in_block(dims: tuple[int, ...], frozen: list[int]) -> np.ndarray:
    """(d,) bool: the basis states with the ``frozen`` sites in |0>."""
    block = np.zeros(dims, dtype=bool)
    block[tuple(0 if j in frozen else slice(None) for j in range(len(dims)))] = True
    return block.reshape(-1)


def _block(model: SystemModel, frozen: list[int]) -> SystemModel:
    """How ``model`` acts on the block of basis states with the ``frozen``
    sites in |0>: its drift there less its trace, which sums the whole
    diagonal as ``np.trace`` does, and the channels nonzero there, on the
    other sites; entries that end zero drop out.  With nothing frozen,
    ``model`` itself.
    """
    if not frozen:
        return model
    block = _in_block(model.site_dims, frozen)
    size, place = int(block.sum()), np.cumsum(block) - 1  # a block state's index in the block
    rows, cols, drift, driven, controls = model.pattern
    inside = block[rows] & block[cols]
    rows, cols, drift = place[rows[inside]], place[cols[inside]], drift[inside]
    keys, off = cols * size + rows, rows != cols
    diagonal = np.zeros(size, dtype=complex)
    diagonal[rows[~off]] = drift[~off]
    diagonal -= diagonal.sum() / size
    controls = controls[:, inside[driven]]
    keep = controls.any(axis=1)
    drift = [(keys[off], drift[off]), (np.arange(size) * (size + 1), diagonal)]
    pattern = _pattern(size, [drift, *([(keys[driven[inside]], c)] for c in controls[keep])])
    labels = [label for label, kept in zip(model.channel_labels, keep) if kept]
    dims = [d for j, d in enumerate(model.site_dims) if j not in frozen]
    return SystemModel(pattern, labels, dims, model.platform)


def _operators(model: SystemModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """(keys, values) of the drift and then of each control, keyed col * d + row."""
    rows, cols, drift, driven, controls = model.pattern
    keys = cols * model.dim + rows
    return [(keys, drift), *((keys[driven], values) for values in controls)]


def _acts_as(model: SystemModel, reduced: SystemModel, frozen: list[int]) -> bool:
    """Whether ``model`` keeps the block of basis states with the ``frozen``
    sites in |0> and acts on it as ``reduced`` does: ``_block`` finds the
    same sites and channels, and each operator within 1e-12 of its largest
    entry.  That is what the product identity rests on.
    """
    own, block = _block(model, frozen), _in_block(model.site_dims, frozen)
    if (own.site_dims, own.channel_labels) != (reduced.site_dims, reduced.channel_labels):
        return False
    fulls = _operators(model)
    fulls = [fulls[0], *(fulls[1 + model.channel_labels.index(c)] for c in own.channel_labels)]
    pairs = zip(_operators(own), _operators(reduced))
    gaps = _pattern(own.dim, [[mine, (keys, -values)] for mine, (keys, values) in pairs])
    return all(
        not full[block[keys // model.dim] & ~block[keys % model.dim]].any()  # leaves the block
        and np.abs(gap).max(initial=0.0) <= 1e-12 * np.abs(full).max(initial=0.0)
        for (keys, full), gap in zip(fulls, [gaps[2], *gaps[4]])
    )


@dataclass(frozen=True, eq=False)
class GrapeProblem:
    """|0...0> -> ``target`` on ``model``, with every channel inside ``bounds``.

    With ``plan`` None the run is GRAPE: one stage on ``model``, ``grid``
    and ``optimizer``.  A plan given in its place sets every stage's grid
    and model, so ``grid`` must then be None.  Whatever the plan,
    ``converged`` compares the honest cost with ``optimizer.tolerance``;
    with a plan, that tolerance and the box are all that is read of
    ``optimizer``.  ``bounds`` is a box as ``OptimizerConfig.bounds`` takes,
    but not None; every stage's optimizer bounds are None or equal to it.
    ``seed`` draws every stage's start.
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
    def resolved_plan(self) -> tuple[Plan, tuple[SystemModel, ...]]:
        """(plan, searched): the plan as it runs, GRAPE's one stage when
        ``plan`` is None and every stage in the box, and the model each stage
        searches, ``model``'s ``_block`` with the sites frozen so far.
        """
        model = self.model
        grape = Stage((), self.grid, self.optimizer)
        plan = self.plan or Plan((grape,), f"{len(model.site_dims)}-site {model.platform} model")
        frozen, stages, searched = [], [], []
        for i, stage in enumerate(plan.stages):
            active = [j for j in range(len(model.site_dims)) if j not in frozen]
            reduced, played = _block(model, frozen), stage.model or model
            if played is not reduced and not _acts_as(played, reduced, frozen):
                raise ValueError(f"stage {i} model must act as the problem's with {frozen} in |0>")
            last = i == len(plan.stages) - 1
            if last == bool(stage.frozen) or not set(stage.frozen) < set(range(len(active))):
                raise ValueError(
                    f"stage {i} freezes sites {list(stage.frozen)} of {len(active)}: every stage"
                    " but the last must freeze some of the sites left and leave one"
                )
            frozen += [active[j] for j in stage.frozen]
            boxed = _boxed(stage.optimizer, self.bounds)
            stages.append(dataclasses.replace(stage, optimizer=boxed))
            searched.append(reduced)
        return dataclasses.replace(plan, stages=tuple(stages)), tuple(searched)


@dataclass(eq=False)
class GrapeResult:
    """What a run of a plan found.

    ``reports`` and ``stage_costs`` hold each stage's search record and its
    eps_i, the cost of its fresh play-out, in search order.  Played in
    order from |0...0>, the ``preparation``'s (stage's model, pulses) pairs
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


def _search_stage(model: SystemModel, stage: Stage, cost, sign: str, initial, spec, seed: int):
    """(pulses, report, final state): one seeded search of ``cost`` on
    ``model`` from ``initial``, and a fresh play-out of the pulses it returns.
    """
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
    plan, searched = problem.resolved_plan
    stages, total, seed = plan.stages, len(plan.stages), problem.seed
    phi, found, reports, costs = problem.target, [], [], []
    for i, (stage, model) in enumerate(zip(stages, searched)):
        frozen = stage.frozen
        if frozen:
            pulses, report, final = _search_stage(
                model, stage, ground_leakage_value_and_gradient, SIGN_REVERSED, phi, frozen, seed
            )
            cost = ground_leakage(final, frozen)
            row = _bipartition_matrix(final, frozen)[0][0]
            phi = StateVector(row / np.linalg.norm(row), searched[i + 1].site_dims)
        else:
            start = ground_state(model.site_dims)
            pulses, report, final = _search_stage(
                model, stage, infidelity_value_and_gradient, SIGN_FORWARD, start, phi, seed
            )
            cost = state_infidelity(final, phi)
        logger.debug(
            "stage %d of %d (%s): cost %.3e after %d iterations (%s)",
            i + 1, total, plan.sample, cost, report.iterations, report.termination,
        )
        played = stage.model or problem.model
        found.append((played, _embedded(pulses, played.channel_labels)))
        reports.append(report)
        costs.append(float(cost))

    *earlier, last = found
    preparation = (last, *((model, seq.reversed_play_order()) for model, seq in reversed(earlier)))
    state = ground_state(problem.model.site_dims)
    for model, seq in preparation:
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
        preparation=preparation,
        final_cost=final_cost,
        converged=converged,
        seed=seed,
    )
