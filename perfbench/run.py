"""Run the join-service benchmark.

From the repository root::

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload chain-fanout --seed 3 --seconds 10
    python3 perfbench/run.py --workload churn-sharded --trace 1

A run prints the workload's rationale and parameters, a machine fingerprint,
and every metric by name with its unit; its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer split of a traced run (spans
are written to ``.perfbench/traces/``).  The exit code is 1 when a result
check failed and 2 when the repository's sources are not next to the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bootstrap() -> Optional[str]:
    """Make ``repro`` (from this checkout's ``src``) and ``perfbench``
    importable; returns a reason when that is impossible."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return f"no repro package under {src}; run from a checkout of the repository"
    for path in (ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        return f"repro was imported from {repro.__file__}, not from {src}"
    return None


def fingerprint() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def workload_names() -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all"] + workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    from perfbench import service, spec, workloads

    bench = spec.load()
    workload = bench.workloads[args.workload]
    workdir = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(workdir, exist_ok=True)
    machine = fingerprint()
    print(f"workload     {workload.name}: {workload.why}")
    print(f"parameters   {json.dumps(workload.params(), sort_keys=True)}")
    print(f"fingerprint  {json.dumps(machine, sort_keys=True)}")
    print(f"run          seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    sys.stdout.flush()

    runner = service.run if workload.kind == "service" else workloads.run
    tracer = None
    try:
        outcome, tracer = runner(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:  # the run must still report, as failed
        outcome = workloads.Outcome(attempted=1, failed=1)
        outcome.problems.append("run raised:\n" + traceback.format_exc())

    for key, value in sorted(outcome.report.items()):
        print(f"report       {key} = {value}")
    sections = [("end-to-end", bench.end_to_end)]
    if args.trace:
        sections.append(("per-layer", bench.per_layer))
    for title, table in sections:
        print(f"--- {title}")
        for metric in table:
            value = outcome.metrics.get(metric.name)
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{metric.name:32s} {shown:>14s} {metric.unit}")
    for problem in outcome.problems:
        print(f"CHECK FAILED {problem}")
    if tracer is not None:
        path = os.path.join(
            ROOT, ".perfbench", "traces", f"{workload.name}-seed{args.seed}.json"
        )
        tracer.dump(path, {"workload": workload.name, "seed": args.seed, "fingerprint": machine})
        print(f"trace        {os.path.relpath(path, ROOT)}")

    reported = bench.per_layer if args.trace else bench.end_to_end
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m.name: {"value": float(outcome.metrics[m.name]), "unit": m.unit}
            for m in reported
            if m.name in outcome.metrics
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (peak memory is per process)."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in workload_names():
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"=== {name}")
        sys.stdout.flush()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"  {line}")
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    problem = bootstrap()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
