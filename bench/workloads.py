"""The qoc benchmark workloads; each runs in a process of its own.

    python3 bench/workloads.py --workload grape-nmr4 --seed 0 --seconds 20 --trace 0

``bench/run.py`` starts this script with ``PYTHONPATH=src``; run it
directly only to debug a workload.  Each finished operation prints one JSON
line ``{"op", "ok", "detail"}`` as soon as it ends, so a parent that sees
the process die still counts what was attempted.  The last line is the
summary.

A run sets up once, then runs whole units of work (one solve, one batch of
gradient calls, one set of disentangling runs) until the next unit would
overrun ``--seconds``; at least one unit runs.  With ``--trace 1`` the
window is split: untraced units first, for ``trace.overhead_s``, then
traced units for the per-layer metrics.
"""

import time

T0 = time.perf_counter()  # setup_s starts here, before qoc (and numpy) is imported

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys

import numpy as np

from qoc import grape, hamiltonians, linalg, optimize, pulses, targets

import spans
import speed

TOLERANCE = 1e-6
MAX_ITERATIONS = 500
NMR_BOUNDS = (-hamiltonians.NMR_AMPLITUDE_BOUND_HZ, hamiltonians.NMR_AMPLITUDE_BOUND_HZ)
SC_BOUNDS = (-hamiltonians.SC_AMPLITUDE_BOUND_RAD_PER_NS, hamiltonians.SC_AMPLITUDE_BOUND_RAD_PER_NS)

# The convergence workloads always solve the instance of seed 0; --seed
# sets only the batch of gradient-sc6.  Time to solution depends on the
# start far more than on the code: grape-nmr4 took 74 to 670 evaluations
# over problem seeds 0-4, disentangle-nmr4 119 to 187, and no regression
# bound could absorb that.  Seed 0 lies in the middle of both ranges.
INSTANCE_SEED = 0

# Reference gradient call of gradient-sc6: full-box pulses from this seed,
# gradient projected on a direction drawn from REFERENCE_SEED + 1.  The
# values were recorded at the commit that introduced this benchmark; a
# change to the propagation core must reproduce them to roundoff.
REFERENCE_SEED = 2212
REFERENCE_GRADIENT = {"norm": 0.40219444169318574, "projection": -0.33651734881390316}
REFERENCE_RTOL = 1e-8


def record(op: str, ok: bool, detail: str) -> None:
    """Report one finished operation at once; bench/run.py counts these lines."""
    print(json.dumps({"op": op, "ok": bool(ok), "detail": detail}), flush=True)


def _load(rec, name: str, platform_name: str, size: int):
    with rec.span("hamiltonians.registry"):
        registry = hamiltonians.sample_registry()
        return registry.get(name), registry.reference_schedule(platform_name, size)


def _built(rec, build):
    with rec.span("hamiltonians.build"):
        model = build()
        model.control_stack  # built lazily on first use; set-up pays for it
    return model


class GrapeNmr4:
    """run_grape to ghz(4) on iodotrifluoroethylene (d=16, K=1760)."""

    def __init__(self, seed: int, rec):
        sample, schedule = _load(rec, "iodotrifluoroethylene", "nmr", 4)
        self.model = model = _built(rec, lambda: hamiltonians.build_nmr(sample))
        with rec.span("targets.generate"):
            target = targets.ghz(4)
        self.problem = grape.GrapeProblem(
            model=model,
            target=target,
            grid=pulses.PulseGrid(schedule["dt"], schedule["grape"]),
            optimizer=optimize.OptimizerConfig(tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS),
            bounds=NMR_BOUNDS,
            seed=INSTANCE_SEED,
        )
        self.iterations = 0

    def unit(self) -> None:
        result = grape.run_grape(self.problem)
        self.iterations = result.iterations
        record(
            "run_grape",
            result.converged and result.final_cost < TOLERANCE,
            f"fresh play-out cost {result.final_cost:.3e} after {result.iterations} iterations",
        )

    def check(self) -> None:
        """run_grape's own fresh play-out is the gate; nothing is left to check."""


class GradientSc6:
    """A fixed batch of transfer gradients on 6 chain qubits (d=64, K=1400)."""

    BATCH = 8

    def __init__(self, seed: int, rec):
        sample, schedule = _load(rec, "sc-chain-12", "sc", 6)
        sample = sample.with_idle_frequencies(0.0)
        self.model = _built(rec, lambda: hamiltonians.build_sc(sample, sites=range(6)))
        with rec.span("targets.generate"):
            self.target = targets.ghz(6)
        self.initial = linalg.ground_state(self.model.site_dims)
        grid = pulses.PulseGrid(schedule["dt"], schedule["grape"])
        labels = self.model.channel_labels
        rng = np.random.default_rng(seed)
        self.batch = [
            pulses.random_initial_pulses(grid, labels, SC_BOUNDS, rng, pulses.SIGN_FORWARD, fraction=1.0)
            for _ in range(self.BATCH)
        ]
        self.reference = pulses.random_initial_pulses(
            grid, labels, SC_BOUNDS, REFERENCE_SEED, pulses.SIGN_FORWARD, fraction=1.0
        )
        self.first_cost = None
        self.iterations = 0

    def _gradient(self, seq):
        return pulses.infidelity_value_and_gradient(self.model, seq, self.initial, self.target)

    def unit(self) -> None:
        for seq in self.batch:
            cost, grad, ws = self._gradient(seq)
            if self.first_cost is None:
                self.first_cost = cost
            norm_error = abs(np.linalg.norm(ws.final_amplitudes) - 1.0)
            ok = norm_error <= 1e-10 and 0.0 <= cost <= 1.0 and bool(np.all(np.isfinite(grad)))
            record("gradient", ok, f"cost {cost:.6f}, final norm error {norm_error:.1e}")

    def _fresh_cost_error(self, seq, cost: float) -> tuple[float, float]:
        final, _ = pulses.propagate(self.model, seq, self.initial)
        return abs(pulses.state_infidelity(final, self.target) - cost), abs(final.norm - 1.0)

    def check(self) -> None:
        cost_error, norm_error = self._fresh_cost_error(self.batch[0], self.first_cost)
        record(
            "fresh-propagate",
            cost_error <= 1e-12 and norm_error <= 1e-10,
            f"batch call 0: cost error {cost_error:.1e}, norm error {norm_error:.1e}",
        )
        cost, grad, _ = self._gradient(self.reference)
        cost_error, norm_error = self._fresh_cost_error(self.reference, cost)
        direction = np.random.default_rng(REFERENCE_SEED + 1).standard_normal(grad.shape)
        found = {"norm": float(np.linalg.norm(grad)), "projection": float(np.sum(grad * direction))}
        rel = {
            key: abs(found[key] - REFERENCE_GRADIENT[key]) / abs(REFERENCE_GRADIENT[key])
            for key in found
        }
        ok = (
            cost_error <= 1e-12
            and norm_error <= 1e-10
            and bool(np.all(np.isfinite(grad)))
            and max(rel.values()) <= REFERENCE_RTOL
        )
        record(
            "reference-gradient",
            ok,
            f"norm {found['norm']!r}, projection {found['projection']!r}, "
            f"relative errors {rel['norm']:.1e}/{rel['projection']:.1e}, cost error {cost_error:.1e}",
        )


class DisentangleNmr4:
    """The first iGRAPE stage on iodotrifluoroethylene: reversed sign, K=1500.

    Impurity (keep site 0) and ground leakage (freeze site 0), each from
    ghz(4) and from a layered-circuit state.
    """

    COSTS = {
        "impurity": ("impurity_value_and_gradient", "subsystem_impurity"),
        "leakage": ("ground_leakage_value_and_gradient", "ground_leakage"),
    }

    def __init__(self, seed: int, rec):
        sample, schedule = _load(rec, "iodotrifluoroethylene", "nmr", 4)
        self.model = _built(rec, lambda: hamiltonians.build_nmr(sample))
        with rec.span("targets.generate"):
            self.starts = {
                "ghz": targets.ghz(4),
                "pqc": targets.pqc_state(targets.PqcSpec(4, 3, INSTANCE_SEED)),
            }
        grid = pulses.PulseGrid(schedule["dt"], schedule["igrape"][0])
        self.guess = pulses.random_initial_pulses(
            grid, self.model.channel_labels, NMR_BOUNDS, INSTANCE_SEED, pulses.SIGN_REVERSED
        )
        self.config = optimize.OptimizerConfig(
            tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS, bounds=NMR_BOUNDS
        )
        self.iterations = 0

    def _solve(self, cost_name: str, start) -> tuple[float, int]:
        gradient_name, value_name = self.COSTS[cost_name]
        shape = self.guess.amplitudes.shape

        def objective(x):
            seq = self.guess.with_amplitudes(x.reshape(shape))
            cost, grad, _ = getattr(pulses, gradient_name)(self.model, seq, start, [0])
            return cost, grad.reshape(-1)

        x, report = optimize.minimize(objective, self.guess.amplitudes.reshape(-1), self.config)
        final, _ = pulses.propagate(self.model, self.guess.with_amplitudes(x.reshape(shape)), start)
        return getattr(pulses, value_name)(final, [0]), report.iterations

    def unit(self) -> None:
        self.iterations = 0
        for cost_name in self.COSTS:
            for start_name, start in self.starts.items():
                value, iterations = self._solve(cost_name, start)
                self.iterations += iterations
                record(
                    f"{cost_name}/{start_name}",
                    value < TOLERANCE,
                    f"fresh play-out cost {value:.3e} after {iterations} iterations",
                )

    def check(self) -> None:
        """Each run's fresh play-out is its gate; nothing is left to check."""


WORKLOADS = {
    "grape-nmr4": GrapeNmr4,
    "gradient-sc6": GradientSc6,
    "disentangle-nmr4": DisentangleNmr4,
}


def run_units(workload, rec, window_s: float) -> list[tuple[float, float]]:
    """Whole units until the next one would overrun the window; at least one.

    Returns ``(reference_s, raw_s)`` for each unit, with the probe's own
    time taken out.
    """
    probe = rec.probe
    units = []
    begin = time.perf_counter()
    while True:
        mark = len(probe.factors)
        probe.sample()
        start, spent = time.perf_counter(), probe.spent_s
        with rec.span(spans.UNIT):
            workload.unit()
        took = time.perf_counter() - start
        raw = took - (probe.spent_s - spent)
        probe.sample()
        units.append((raw * probe.factor_since(mark), raw))
        if time.perf_counter() - begin + took > window_s:
            return units


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args()

    rec = spans.Recorder()
    rec.tracing = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, rec)
    setup_raw_s = time.perf_counter() - T0
    rec.probe = probe = speed.SpeedProbe(workload.model.dim)
    setup_factor = probe.sample()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_raw_s * setup_factor, "setup_raw_s": setup_raw_s}))
        return

    rec.tracing = False
    rec.time_evaluations()
    window_s = args.seconds / 2 if args.trace else args.seconds
    units = run_units(workload, rec, window_s)
    evals = [(dur * probe.factor_at(start + dur / 2), dur) for start, dur in rec.evals]
    iterations = workload.iterations
    layers = {}
    if args.trace:
        rec.trace_layers()
        rec.tracing = True
        first = len(probe.factors)
        run_units(workload, rec, window_s)
        rec.tracing = False
        rec.restore()
        untraced_s = statistics.fmean(ref for ref, _ in units)
        layers = rec.layer_metrics(untraced_s, setup_factor, probe.factor_since(first))
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": rec.spans}, fh)
    workload.check()

    print(json.dumps({
        "setup_s": setup_raw_s * setup_factor,
        "setup_raw_s": setup_raw_s,
        "units_s": [ref for ref, _ in units],
        "units_raw_s": [raw for _, raw in units],
        "eval_s": [ref for ref, _ in evals],
        "eval_raw_s": [raw for _, raw in evals],
        "speed_factors": probe.factors,
        "iterations_per_unit": iterations,
        "evaluations_per_unit": len(evals) / len(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "absent": rec.absent,
        "environment": environment(),
    }))


if __name__ == "__main__":
    main()
