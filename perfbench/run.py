"""Repository benchmark: one command runs a workload, checks its answers and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is ``offline_panda``, ``fleet_poisson``, ``service_churn`` or
``all`` (each workload in its own process, one after another).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics listed in
``BENCHMARK.json`` when ``--trace 0``, its per-layer metrics when
``--trace 1``.  The full run report (operating point, environment, rung
table, exact work counters, checks) is written to ``perfbench/out/`` and,
in a traced run, every span as JSON lines beside it.  The exit code is 0
only when every checked answer matched brute force and every exact work
counter repeated.

The runner clears the ``REPRO_*`` switches and caps BLAS/OpenMP threads at
the CPUs this process may use before the program is imported, so no
environment leg silently changes what is measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("offline_panda", "fleet_poisson", "service_churn")
CLEARED_ENV = ("REPRO_DISPATCHER", "REPRO_PRECISION", "REPRO_OBS", "REPRO_PROFILE", "REPRO_ANALYSIS")
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def sanitize_environment() -> None:
    """Default program configuration; thread pools no wider than the CPUs."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for name in THREAD_ENV:
        value = os.environ.get(name, "")
        if not value.isdigit() or not 0 < int(value) <= cpus:
            os.environ[name] = str(cpus)


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv), spec


def run_all(args) -> int:
    """Every workload in its own process; prints each one's result line."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sanitize_environment()
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from common import environment

    run = workloads.Run(args.seed, args.seconds, traced=bool(args.trace))
    workloads.WORKLOADS[args.workload](run)

    run.layer["bench.speed_factor"] = run.speed.factor("measure")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = run.layer if args.trace else run.e2e
    unknown = sorted(set(produced) - {m["name"] for m in listed})
    if unknown:
        run.errors.append(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for metric in listed:
        name = metric["name"]
        if name not in produced and not args.trace:
            run.errors.append(f"end-to-end metric {name} was not measured")
        # A per-layer metric of a layer this workload bypasses reads 0.
        value = float(produced.get(name, 0.0))
        if not math.isfinite(value):
            run.errors.append(f"{name} is not finite")
            value = sys.float_info.max
        metrics[name] = {"value": value, "unit": metric["unit"]}

    correct = run.mismatches == 0 and not run.errors
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "environment": environment(args.seed),
        "end_to_end": run.e2e,
        "speed_canary_s": run.speed.samples,
        "per_layer": run.layer,
        **run.report,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=float))
    if run.traced:
        run.recorder.write(out_dir / f"{stem}-spans.jsonl")

    width = max(len(name) for name in metrics)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, row in metrics.items():
        print(f"{name:<{width}}  {row['value']:>16.6g}  {row['unit']}")
    print(f"# attempted={run.attempted} failed={run.failed} report={out_dir / (stem + '.json')}")
    for error in run.errors:
        print(f"# error: {error}")
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
