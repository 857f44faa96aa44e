import ast
import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import qoc

MODULES = sorted(info.name for info in pkgutil.iter_modules(qoc.__path__))


def test_modules_found():
    assert {"grape", "hamiltonians", "linalg", "optimize", "pulses", "targets"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qoc.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from qoc.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    repo = pathlib.Path(__file__).resolve().parents[1]
    imported = set()
    for path in (repo / "src" / "qoc").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    project = tomllib.loads((repo / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert third_party == declared


def test_every_function_the_benchmark_wraps_exists():
    # bench/spans.py times layers by replacing these attributes; one that is
    # renamed away only zeroes its layer metric in a traced benchmark run.
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = [*spans.LAYER_FUNCTIONS, *(("", "qoc.pulses", n) for n in spans.GRADIENT_FUNCTIONS)]
    assert len(wrapped) > len(spans.GRADIENT_FUNCTIONS) > 0
    missing = []
    for _, module_name, attribute_path in wrapped:
        owner = importlib.import_module(module_name)
        for attribute in attribute_path.split("."):
            owner = getattr(owner, attribute, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attribute_path}")
    assert missing == []


def test_every_benchmark_workload_sets_up():
    # The workloads call GrapeProblem(bounds=...), OptimizerConfig(bounds=...),
    # build_sc(sites=...) and model.control_stack; a change that breaks one of
    # those calls fails here, not only in a benchmark run.
    repo = pathlib.Path(__file__).resolve().parents[1]
    src = os.path.dirname(os.path.dirname(os.path.abspath(qoc.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    names = [w["name"] for w in json.loads((repo / "BENCHMARK.json").read_text())["workloads"]]
    runs = {
        name: subprocess.Popen(
            [sys.executable, str(repo / "bench" / "workloads.py"), "--workload", name,
             "--seed", "0", "--seconds", "1", "--setup-only"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name in names
    }
    failed = {}
    for name, run in runs.items():
        out, err = run.communicate()
        if run.returncode:
            failed[name] = err.strip().splitlines()[-1:]
        else:
            assert json.loads(out.splitlines()[-1])["setup_s"] > 0.0
    assert names and failed == {}


# Imports every qoc module and loads the catalogue, then runs one bounded
# search; prints what it saw.
_COLD_START = """
import importlib, json, sys
import numpy as np
for name in %r:
    importlib.import_module("qoc." + name)
from qoc.hamiltonians import sample_registry
sample_registry()
seen = {"after_import": "scipy.optimize" in sys.modules, "yaml": "yaml" in sys.modules}
from qoc.optimize import OptimizerConfig, minimize
x, report = minimize(
    lambda v: (float((v - 1.0) @ (v - 1.0)), 2.0 * (v - 1.0)),
    np.zeros(3),
    OptimizerConfig(tolerance=1e-12, bounds=(-2.0, 2.0)),
)
seen.update(termination=report.termination, x=x.tolist(),
            after_minimize=sorted(m for m in sys.modules
                                  if m.startswith(("scipy.optimize", "scipy.linalg", "scipy.sparse"))))
print(json.dumps(seen))
"""


def test_scipy_optimize_linalg_and_sparse_stay_unloaded_after_a_search():
    # A fresh process: this one has long since loaded scipy.optimize.  The
    # search runs setulb from scipy's _lbfgsb extension file, without the
    # scipy.optimize package and the scipy.linalg and scipy.sparse it loads.
    root = os.path.dirname(os.path.dirname(os.path.abspath(qoc.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _COLD_START % (MODULES,)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["after_import"] is False
    assert seen["yaml"] is False
    assert seen["termination"] == "tolerance"
    assert max(abs(v - 1.0) for v in seen["x"]) < 1e-5
    assert seen["after_minimize"] == []


# Imports every qoc module, then scipy.linalg.blas; prints what it saw.
_IMPORT_ONLY = """
import importlib, json, sys
for name in %r:
    importlib.import_module("qoc." + name)
seen = {"linalg": sorted(m for m in sys.modules if m.startswith("scipy.linalg")),
        "version": sys.modules["scipy"].__version__}
import qoc.pulses, scipy.linalg.blas
seen["same_zgemv"] = qoc.pulses.zgemv is scipy.linalg.blas.zgemv
print(json.dumps(seen))
"""


def test_scipy_linalg_stays_unloaded_after_import():
    # pulses loads zgemv from scipy's BLAS extension, not through the
    # scipy.linalg package, and leaves scipy itself loaded: the benchmark's
    # environment() reads sys.modules["scipy"].__version__.
    root = os.path.dirname(os.path.dirname(os.path.abspath(qoc.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_ONLY % (MODULES,)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["linalg"] == []
    assert seen["version"] == importlib.import_module("scipy").__version__
    assert seen["same_zgemv"] is True


# Puts an empty directory first on scipy's package path, so that
# optimize._load_extension finds no extension file and imports each module by
# name; then runs an sc6 transfer gradient and a one-iteration boxed search.
_BY_NAME = """
import json, sys, tempfile
import numpy as np
import scipy
with tempfile.TemporaryDirectory() as empty:
    scipy.__path__.insert(0, empty)
    from qoc import optimize, pulses
    by_name = sorted(m for m in ("scipy.linalg", "scipy.optimize") if m in sys.modules)
    from qoc.hamiltonians import SC_AMPLITUDE_BOUND_RAD_PER_NS as bound, build_sc, sample_registry
    from qoc.linalg import ground_state
    from qoc.targets import ghz
    import scipy.linalg.blas
    registry = sample_registry()
    schedule = registry.reference_schedule("sc", 6)
    model = build_sc(registry.get("sc-chain-12").with_idle_frequencies(0.0), sites=range(6))
    seq = pulses.random_initial_pulses(
        pulses.PulseGrid(schedule["dt"], schedule["grape"]), model.channel_labels,
        (-bound, bound), 0, pulses.SIGN_FORWARD, fraction=1.0,
    )
    value, grad, _ = pulses.infidelity_value_and_gradient(
        model, seq, ground_state(model.site_dims), ghz(6)
    )
    x, report = optimize.minimize(
        lambda v: (float((v - 1.0) @ (v - 1.0)), 2.0 * (v - 1.0)), np.zeros(3),
        optimize.OptimizerConfig(tolerance=1e-12, max_iterations=1, bounds=(-0.5, 2.0)),
    )
    print(json.dumps({
        "by_name": by_name, "zgemv": pulses.zgemv is scipy.linalg.blas.zgemv,
        "setulb": optimize.setulb is sys.modules["scipy.optimize._lbfgsb"].setulb,
        "value": value, "grad": grad.tolist(),
        "iterations": report.iterations, "x": x.tolist(),
    }))
"""


def test_extensions_load_by_name_where_scipy_has_no_file():
    # Where the loader finds no extension file it imports each module by name,
    # scipy.linalg and scipy.optimize with it: the same zgemv and setulb serve
    # the sweeps and the search.
    from qoc.hamiltonians import SC_AMPLITUDE_BOUND_RAD_PER_NS as bound, build_sc, sample_registry
    from qoc.linalg import ground_state
    from qoc.pulses import (
        SIGN_FORWARD, PulseGrid, infidelity_value_and_gradient, random_initial_pulses,
    )
    from qoc.targets import ghz

    root = os.path.dirname(os.path.dirname(os.path.abspath(qoc.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _BY_NAME],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["by_name"] == ["scipy.linalg", "scipy.optimize"]  # the packages came too
    assert seen["zgemv"] is True and seen["setulb"] is True
    assert seen["iterations"] == 1 and all(-0.5 <= v <= 2.0 for v in seen["x"])
    registry = sample_registry()
    schedule = registry.reference_schedule("sc", 6)
    model = build_sc(registry.get("sc-chain-12").with_idle_frequencies(0.0), sites=range(6))
    seq = random_initial_pulses(
        PulseGrid(schedule["dt"], schedule["grape"]), model.channel_labels,
        (-bound, bound), 0, SIGN_FORWARD, fraction=1.0,
    )
    value, grad, _ = infidelity_value_and_gradient(model, seq, ground_state(model.site_dims), ghz(6))
    assert abs(seen["value"] - value) <= 1e-12
    assert np.allclose(seen["grad"], grad, rtol=1e-10, atol=1e-14)
