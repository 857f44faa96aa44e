"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``qoc`` from outside, by replacing
module (or class) attributes, and keeps spans in memory:
``(name, start, end, parent)``.  A span's self time is its duration minus
the part of it that its child spans cover.  Calls are sequential, so child
spans never overlap and that part is the sum of their durations.

A wrapped function that no longer exists is reported as an absent layer;
its metrics then read 0 and the result file lists it under
``absent_layers``.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

# Cost-and-gradient functions: the unit of work the optimizer pays for.
GRADIENT_FUNCTIONS = (
    "infidelity_value_and_gradient",
    "impurity_value_and_gradient",
    "ground_leakage_value_and_gradient",
)

# (span name, home module, attribute path) for every wrapped layer boundary.
LAYER_FUNCTIONS = (
    ("pulses.assemble", "qoc.pulses", "segment_hamiltonians"),
    ("pulses.expm", "qoc.pulses", "segment_unitaries"),
    ("pulses.forward", "qoc.pulses", "propagate"),
    ("pulses.backward", "qoc.pulses", "Workspace.backward_adjoint"),
    *(("pulses.contract", "qoc.pulses", name) for name in GRADIENT_FUNCTIONS),
    ("optimize.minimize", "qoc.optimize", "minimize"),
    ("grape.run", "qoc.grape", "run_grape"),
)

UNIT = "unit"  # bench-level span around one unit of timed work
PROBE = "bench.probe"  # speed-probe samples; excluded from every layer

# Self time of these spans, summed, is the traced unit time once the
# probe samples are taken out.
SELF_TIME_METRICS = {
    "pulses.assemble_s": "pulses.assemble",
    "pulses.expm_s": "pulses.expm",
    "pulses.forward_s": "pulses.forward",
    "pulses.backward_s": "pulses.backward",
    "pulses.contract_s": "pulses.contract",
    "optimize.overhead_s": "optimize.minimize",
    "grape.self_s": "grape.run",
    "bench.self_s": UNIT,
}

SETUP_METRICS = {
    "hamiltonians.registry_s": "hamiltonians.registry",
    "hamiltonians.build_s": "hamiltonians.build",
    "targets.generate_s": "targets.generate",
}


def _workspace_mb(result) -> float:
    """Bytes of the ndarray fields of the Workspace that propagate returns."""
    try:
        ws = result[1]
        fields = vars(ws).values()
    except (TypeError, IndexError):
        return 0.0
    return sum(v.nbytes for v in fields if isinstance(v, np.ndarray)) / 2**20


class Recorder:
    """Spans and per-call hooks, kept in memory until the run ends."""

    def __init__(self):
        self.probe = None  # a speed.SpeedProbe, set before evaluations are timed
        self.tracing = False
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.evals: list[tuple[float, float]] = []  # (start, duration)
        self.iterations = 0
        self.workspace_mb = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Bench-level span around the benchmark's own calls (traced runs only)."""
        if not self.tracing:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- patching ------------------------------------------------------------

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        """Replace a function everywhere ``qoc`` holds it, or mark it absent."""
        owner = sys.modules.get(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{path}")
            return
        wrapper = make_wrapper(original)
        holders = [owner]
        if not outer:  # a module-level function may be imported by name elsewhere
            holders += [
                m for name, m in list(sys.modules.items())
                if name.startswith("qoc") and m is not owner
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._patched.append((holder, key, original))

    def restore(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def time_evaluations(self) -> None:
        """Wrap each cost-and-gradient function in a perf_counter timer.

        The speed probe samples after an evaluation when one is due, outside
        the timed call.
        """
        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                self.evals.append((start, time.perf_counter() - start))
                if self.probe.due():
                    with self.span(PROBE):
                        self.probe.sample()
                return out
            return timed

        for name in GRADIENT_FUNCTIONS:
            self._patch("qoc.pulses", name, make)

    def trace_layers(self) -> None:
        """Wrap every layer boundary in a span, on top of any evaluation timer."""
        hooks = {"pulses.forward": self._on_propagate, "optimize.minimize": self._on_minimize}

        def make(span_name):
            hook = hooks.get(span_name)

            def wrap(fn):
                @functools.wraps(fn)
                def traced(*args, **kwargs):
                    index = self._open(span_name)
                    try:
                        out = fn(*args, **kwargs)
                    finally:
                        self._close(index)
                    if hook is not None:
                        hook(out)
                    return out
                return traced
            return wrap

        for span_name, module_name, path in LAYER_FUNCTIONS:
            self._patch(module_name, path, make(span_name))

    def _on_propagate(self, result) -> None:
        self.workspace_mb = max(self.workspace_mb, _workspace_mb(result))

    def _on_minimize(self, result) -> None:
        self.iterations += int(getattr(result[1], "iterations", 0))

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, untraced_unit_s: float, setup_factor: float, factor: float) -> dict:
        """Per-layer metrics per unit of traced work, plus set-up layers.

        Times are in reference seconds: set-up layers are scaled by
        ``setup_factor`` and the traced units by ``factor`` (see speed.py).
        ``untraced_unit_s`` is in reference seconds already.
        """
        count = len(self.spans)
        child_s = [0.0] * count
        in_unit = [False] * count
        in_minimize = [False] * count
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += end - start
                in_unit[i] = in_unit[parent]
                in_minimize[i] = in_minimize[parent]
            in_unit[i] = in_unit[i] or name == UNIT
            in_minimize[i] = in_minimize[i] or name == "optimize.minimize"

        units = max(1, sum(1 for s in self.spans if s[0] == UNIT))
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        replay_s = 0.0
        evaluations = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if not in_unit[i]:
                total_s[name] = total_s.get(name, 0.0) + (end - start)
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "pulses.forward" and parent >= 0 and self.spans[parent][0] == "grape.run":
                replay_s += end - start
            if name == "pulses.contract" and in_minimize[i]:
                evaluations += 1

        per_unit = factor / units
        metrics = {key: total_s.get(span, 0.0) * setup_factor for key, span in SETUP_METRICS.items()}
        metrics.update({key: self_s.get(span, 0.0) * per_unit for key, span in SELF_TIME_METRICS.items()})
        unit_total_s = sum(end - start for name, start, end, _ in self.spans if name == UNIT)
        unit_s = (unit_total_s - self_s.get(PROBE, 0.0)) * per_unit
        metrics.update({
            "pulses.gradient_calls": calls.get("pulses.contract", 0) / units,
            "pulses.propagate_calls": calls.get("pulses.forward", 0) / units,
            "pulses.workspace_mb": self.workspace_mb,
            "optimize.iterations": self.iterations / units,
            "optimize.evaluations": evaluations / units,
            "optimize.useful_eval_ratio": self.iterations / evaluations if evaluations else 0.0,
            "grape.replay_s": replay_s * per_unit,
            "trace.wall_s": unit_s,
            "trace.overhead_s": unit_s - untraced_unit_s,
        })
        return metrics
