"""Run one workload of the qoc benchmark and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload grape-nmr4 --seed 0 --seconds 20 --trace 0

Workloads: grape-nmr4, gradient-sc6, disentangle-nmr4 (see bench/README.md).
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` a traced run reports the per-layer metrics.  Each line
but the last names a metric, its value and its unit; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the environment, goes to ``.bench_results/``.

The workload runs in a child process under a time cap, with one BLAS
thread.  Set-up is timed in SETUP_RUNS fresh processes and ``setup_s`` is
their median.  A child that raises, times out or is killed counts as one
failed operation on top of the operations it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grape-nmr4", "gradient-sc6", "disentangle-nmr4")
SETUP_RUNS = 5
TIME_CAP_S = 170.0
SETUP_CAP_S = 30.0
RESULTS_DIR = ROOT / ".bench_results"
# A second OpenBLAS thread gives no speed-up at these sizes (d <= 64) and
# spins on the other core, which makes timings on a 2-core machine noisier.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _run_child(args, extra: list[str], deadline: float, cap_s: float):
    """(records, finished): JSON lines the child printed, and whether it exited cleanly."""
    cmd = [
        sys.executable, str(ROOT / "bench" / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    timeout = max(1.0, min(cap_s, deadline - time.monotonic()))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
        out, finished = done.stdout, done.returncode == 0
        if not finished:
            print(f"bench: workload process exited with {done.returncode}", file=sys.stderr)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        out, finished = exc.stdout or "", False
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        print(f"bench: workload process timed out after {timeout:.0f} s", file=sys.stderr)
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records, finished


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qoc" / "__init__.py").is_file():
        print(f"bench: no qoc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_CAP_S
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    spans_path = RESULTS_DIR / f"{name}-spans.json"

    attempted = failed = 0
    setups = []
    for _ in range(SETUP_RUNS - 1):
        records, finished = _run_child(args, ["--setup-only"], deadline, SETUP_CAP_S)
        if finished and records and "setup_s" in records[-1]:
            setups.append(records[-1])
        else:
            attempted, failed = attempted + 1, failed + 1

    extra = ["--spans", str(spans_path)] if args.trace else []
    records, finished = _run_child(args, extra, deadline, TIME_CAP_S)
    ops = [r for r in records if "op" in r]
    summary = records[-1] if finished and records and "units_s" in records[-1] else None
    attempted += len(ops) + (summary is None)
    failed += sum(not op["ok"] for op in ops) + (summary is None)

    values: dict[str, float | None] = {}
    extras: dict = {}
    if summary is not None:
        setups.append(summary)
        evals, units = summary["eval_s"], summary["units_s"]
        values = dict(summary["layers"])
        values.update({
            "setup_s": _median([r["setup_s"] for r in setups]),
            "wall_s": _median(units),
            "eval_p50_ms": 1e3 * _median(evals) if evals else None,
            "peak_rss_mb": summary["peak_rss_mb"],
        })
        extras = {
            "units": len(units),
            "eval_samples": len(evals),
            "iterations_per_unit": summary["iterations_per_unit"],
            "evaluations_per_unit": summary["evaluations_per_unit"],
            "raw_setup_s": _median([r["setup_raw_s"] for r in setups]),
            "raw_wall_s": _median(summary["units_raw_s"]),
            "raw_eval_p50_ms": 1e3 * _median(summary["eval_raw_s"]) if evals else None,
            "speed_factor": statistics.harmonic_mean(summary["speed_factors"]),
        }
        if len(evals) >= 100:  # ten samples lie beyond the 90th percentile
            extras["eval_p90_ms"] = 1e3 * statistics.quantiles(evals, n=10)[-1]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in spec[kind]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extras": extras,
        "absent_layers": summary["absent"] if summary else [],
        "setup_s_samples": [r["setup_s"] for r in setups],
        "units_s": summary["units_s"] if summary else [],
        "environment": {
            **(summary["environment"] if summary else {}),
            "git_commit": _git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "thread_env": THREAD_ENV,
            "seed": args.seed,
        },
        "operations": ops,
        "spans_file": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, metric in metrics.items():
        print(f"{key} {metric['value']} {metric['unit']}")
    for key, value in extras.items():
        print(f"# {key} {value}")
    for layer in record["absent_layers"]:
        print(f"# absent layer: {layer}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
