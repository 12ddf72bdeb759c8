#!/usr/bin/env python3
"""Run one benchmark workload; the last stdout line is its JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {sweep,serve,pool} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run and writes its Chrome trace-event JSON
to ``.perfbench-out/``.  The program is imported from the checkout's
``src/``; without it the command fails.  ``--scale smoke`` shrinks every
input for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "serve", "pool")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input size; smoke is for the benchmark's own tests")
    return parser.parse_args(argv)


def _use_checkout() -> str:
    """Import the program from this checkout only; returns the scratch dir."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path[:0] = [ROOT, SRC]
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    from perfbench.common import out_dir

    scratch = out_dir(ROOT)
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    return scratch


def run_workload(args: argparse.Namespace, scratch: str):
    from perfbench import pool, serve, sweep

    trace = bool(args.trace)
    trace_path = os.path.join(scratch, f"trace-{args.workload}-seed{args.seed}.json")
    if args.workload == "sweep":
        return sweep.run(args.seed, args.seconds, trace, args.scale, trace_path)
    if args.workload == "serve":
        return serve.run(args.seed, args.seconds, trace, args.scale, trace_path, ROOT, scratch)
    return pool.run(args.seed, args.seconds, trace, args.scale, trace_path, scratch)


def report(result, trace: bool) -> dict:
    """The result object: every declared metric, by name, with its unit."""
    from perfbench.common import END_TO_END, PER_LAYER

    metrics = {}
    for name, unit in (PER_LAYER if trace else END_TO_END).items():
        if name in result.metrics:
            value = float(result.metrics[name])
        elif trace:
            value = 0.0  # a layer this workload does not exercise or cannot see
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is {value}")
        metrics[name] = {"value": value, "unit": unit}
    checks = result.checks
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = _use_checkout()
    t0 = time.perf_counter()
    result = run_workload(args, scratch)
    out = report(result, bool(args.trace))
    for note in result.notes:
        print(f"# {note}", file=sys.stderr)
    for problem in result.checks.problems:
        print(f"# FAILED: {problem}", file=sys.stderr)
    for name, m in out["metrics"].items():
        print(f"{args.workload:6s} {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"# {args.workload} run took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
