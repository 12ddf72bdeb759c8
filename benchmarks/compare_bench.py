"""Compare two perf snapshots; fail on a large geo-mean regression.

The scheduled CI job emits a fresh snapshot with
``benchmarks/emit_bench.py`` and runs this script against the latest
*committed* ``BENCH_<n>.json``; the job fails when the geometric mean of
the per-algorithm map-time ratios (new / baseline) exceeds the threshold
(default ``1.25`` — a >25% regression).  Only algorithms present in both
snapshots are compared, so adding a mapper never breaks the gate.

Snapshots from different hardware drift for non-code reasons; the gate
is deliberately coarse (geo-mean across all algorithms, generous
threshold) to catch real hot-path regressions, not scheduler noise.

With ``--gate-batch`` the ``batch_throughput`` section is gated too
(the scheduled CI perf job passes it, closing the ROADMAP's "once
multi-core snapshots exist" item):

* **Self-consistency** — every persistent-pool measurement's amortized
  per-batch time must beat the spawn-per-call backend of the same
  shape (the serving layer's raison d'être; hardware-independent, so
  it gates on every host).
* **Cross-snapshot** — when *both* snapshots were emitted on
  multi-core hosts (``cpus >= 2``), the geometric mean of the
  requests/sec ratios (baseline / new) over the backends both carry
  must not exceed the threshold.  Single-core baselines (like the
  build container's) skip this check with a note instead of gating on
  numbers that cannot show scaling.

With ``--gate-tail`` the ``serving`` section (the network front end's
tail-latency measurement from ``benchmarks/serve_load.py``) is gated on
its *structural* invariants, which hold on any hardware:

* **Nominal shed-free** — the nominal phase keeps fewer closed-loop
  clients in flight than the server's admission bound, so any shed
  there is an admission-control bug, not load.
* **Overload sheds** — the overload phase runs more clients than
  ``max_pending``; a server that never says ``overloaded`` there has
  stopped shedding.
* **Shedding is cheap** — the p95 of shed replies must be below the
  p50 of answered requests: the point of admission control is that
  "no" costs microseconds, not a mapping run.
* **Coalescing works** — the synchronized identical burst must fold
  into fewer dispatches than requests with exactly one grouping-stage
  cache miss (the planner deduped the rest).
* **Cross-snapshot p99** — when both snapshots carry a serving section
  and come from multi-core hosts, the geo-mean of the nominal/overload
  p99 ratios (new / baseline) must not exceed the threshold.

With ``--gate-dist`` the ``dist`` section (multi-host sharding over
loopback hosts) is gated, self-consistently within the new snapshot:
the sharded run's mappings must be byte-identical to the serial
reference, the batch must finish with zero errors and zero hosts lost,
and on multi-core snapshots the dispatch overhead must keep sharded
wall time within 3x of serial.  Snapshots predating the section skip
with a note, so the gate is safe to pass unconditionally.

Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py NEW.json [BASELINE.json]
        [--threshold 1.25] [--gate-batch] [--gate-tail] [--gate-dist]

With no explicit baseline, the highest-numbered ``BENCH_<n>.json`` in
the repository root that is not the new snapshot itself is used.
Exit codes: 0 ok, 1 regression past the threshold, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

__all__ = [
    "compare_snapshots",
    "gate_batch_throughput",
    "gate_dist",
    "gate_tail_latency",
    "latest_snapshot",
    "main",
]


def latest_snapshot(exclude: Optional[str] = None) -> Optional[str]:
    """Path of the highest-numbered committed ``BENCH_<n>.json``."""
    exclude_abs = os.path.abspath(exclude) if exclude else None
    best: Tuple[int, Optional[str]] = (-1, None)
    for name in os.listdir(REPO_ROOT):
        m = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if not m:
            continue
        path = os.path.join(REPO_ROOT, name)
        if exclude_abs and os.path.abspath(path) == exclude_abs:
            continue
        index = int(m.group(1))
        if index > best[0]:
            best = (index, path)
    return best[1]


def compare_snapshots(
    baseline: dict, new: dict, threshold: float = 1.25
) -> Tuple[bool, float, List[str]]:
    """``(ok, geo_mean_ratio, report_lines)`` of two snapshot payloads."""
    base_times: Dict[str, float] = baseline.get("geo_mean_map_time_s", {})
    new_times: Dict[str, float] = new.get("geo_mean_map_time_s", {})
    shared = [a for a in base_times if a in new_times and base_times[a] > 0]
    if not shared:
        raise ValueError("snapshots share no timed algorithms")

    lines = [f"{'algorithm':>10s} {'base(ms)':>10s} {'new(ms)':>10s} {'ratio':>7s}"]
    log_sum = 0.0
    import math

    for algo in shared:
        ratio = new_times[algo] / base_times[algo]
        log_sum += math.log(ratio)
        lines.append(
            f"{algo:>10s} {base_times[algo] * 1e3:10.2f} "
            f"{new_times[algo] * 1e3:10.2f} {ratio:7.3f}"
        )
    geo_ratio = math.exp(log_sum / len(shared))
    ok = geo_ratio <= threshold
    lines.append(
        f"geo-mean ratio {geo_ratio:.3f} "
        f"({'OK' if ok else 'REGRESSION'}, threshold {threshold:.2f})"
    )
    return ok, geo_ratio, lines


def _throughput_rps(section: dict) -> Dict[str, float]:
    """Flatten a ``batch_throughput`` section to ``label -> requests/sec``.

    Labels are ``serial``, ``thread@2``, ``process@4``,
    ``persistent-thread@2``, … — whatever the snapshot carries.
    """
    out: Dict[str, float] = {}
    serial = section.get("serial", {})
    if serial.get("requests_per_s"):
        out["serial"] = float(serial["requests_per_s"])
    for backend in ("thread", "process"):
        for workers, m in section.get(backend, {}).items():
            if m.get("requests_per_s"):
                out[f"{backend}@{workers}"] = float(m["requests_per_s"])
    for backend, widths in section.get("persistent", {}).items():
        for workers, m in widths.items():
            if m.get("requests_per_s"):
                out[f"persistent-{backend}@{workers}"] = float(m["requests_per_s"])
    return out


def gate_batch_throughput(
    baseline: dict, new: dict, threshold: float = 1.25
) -> Tuple[bool, List[str]]:
    """``(ok, report_lines)`` for the batch-throughput gates.

    See the module docstring: a hardware-independent self-consistency
    gate (persistent pools must beat spawn-per-call of the same shape)
    plus a cross-snapshot requests/sec gate that only arms when both
    snapshots come from multi-core hosts.
    """
    import math

    lines: List[str] = []
    ok = True
    section = new.get("batch_throughput")
    if not section:
        return False, ["batch gate: new snapshot has no batch_throughput section"]

    persistent = section.get("persistent", {})
    if not persistent:
        ok = False
        lines.append("batch gate: new snapshot has no persistent-pool block")
    compared = 0
    for backend, widths in persistent.items():
        for workers, m in widths.items():
            spawn = section.get(backend, {}).get(workers, {}).get("elapsed_s")
            amortized = m.get("amortized_elapsed_s")
            if spawn is None or amortized is None:
                ok = False
                lines.append(
                    f"batch gate: persistent-{backend}@{workers} has no "
                    "matching spawn-per-call measurement (MALFORMED)"
                )
                continue
            compared += 1
            good = amortized < spawn
            ok = ok and good
            lines.append(
                f"batch gate: persistent-{backend}@{workers} amortized "
                f"{amortized:.2f} s vs spawn-per-call {spawn:.2f} s "
                f"({'OK' if good else 'REGRESSION'})"
            )
    if persistent and not compared:
        # A green gate must mean the check actually ran.
        ok = False
        lines.append("batch gate: zero persistent/spawn pairs compared (MALFORMED)")

    base_section = baseline.get("batch_throughput")
    base_cpus = int(baseline.get("cpus", 1) or 1)
    new_cpus = int(new.get("cpus", 1) or 1)
    if not base_section:
        lines.append("batch gate: baseline has no batch_throughput; cross-check skipped")
    elif base_cpus < 2 or new_cpus < 2:
        lines.append(
            f"batch gate: cross-check skipped (baseline cpus={base_cpus}, "
            f"new cpus={new_cpus}; needs multi-core on both sides)"
        )
    else:
        base_rps = _throughput_rps(base_section)
        new_rps = _throughput_rps(section)
        shared = sorted(k for k in base_rps if k in new_rps)
        if not shared:
            lines.append("batch gate: snapshots share no throughput entries")
        else:
            log_sum = 0.0
            for label in shared:
                ratio = base_rps[label] / new_rps[label]
                log_sum += math.log(ratio)
                lines.append(
                    f"batch gate: {label:>22s} {base_rps[label]:8.2f} -> "
                    f"{new_rps[label]:8.2f} req/s (ratio {ratio:.3f})"
                )
            geo = math.exp(log_sum / len(shared))
            good = geo <= threshold
            ok = ok and good
            lines.append(
                f"batch gate: geo-mean throughput ratio {geo:.3f} "
                f"({'OK' if good else 'REGRESSION'}, threshold {threshold:.2f})"
            )
    return ok, lines


def gate_tail_latency(
    baseline: dict, new: dict, threshold: float = 1.25
) -> Tuple[bool, List[str]]:
    """``(ok, report_lines)`` for the serving tail-latency gates.

    See the module docstring: four hardware-independent structural
    invariants of the ``serving`` section, plus a cross-snapshot p99
    ratio that arms only when both snapshots carry the section and
    were emitted on multi-core hosts.
    """
    import math

    lines: List[str] = []
    ok = True
    section = new.get("serving")
    if not section:
        return False, ["tail gate: new snapshot has no serving section"]

    nominal = section.get("nominal") or {}
    overload = section.get("overload") or {}
    coalesce = section.get("coalesce") or {}

    shed = nominal.get("shed")
    good = shed == 0 and nominal.get("completed", 0) > 0
    ok = ok and good
    lines.append(
        f"tail gate: nominal shed={shed} "
        f"completed={nominal.get('completed')} "
        f"({'OK' if good else 'REGRESSION'}; must answer everything)"
    )

    good = overload.get("shed", 0) > 0
    ok = ok and good
    lines.append(
        f"tail gate: overload shed={overload.get('shed')} "
        f"({'OK' if good else 'REGRESSION'}; admission control must shed)"
    )

    shed_lat = overload.get("shed_latency") or {}
    ans_lat = overload.get("latency") or {}
    if shed_lat.get("count") and ans_lat.get("count"):
        good = shed_lat["p95_ms"] < ans_lat["p50_ms"]
        ok = ok and good
        lines.append(
            f"tail gate: shed reply p95 {shed_lat['p95_ms']:.2f} ms vs "
            f"answered p50 {ans_lat['p50_ms']:.2f} ms "
            f"({'OK' if good else 'REGRESSION'}; shedding must be cheap)"
        )
    else:
        lines.append(
            "tail gate: shed-cost check skipped (overload phase answered "
            "or shed nothing)"
        )

    requests = coalesce.get("requests", 0)
    dispatches = coalesce.get("dispatches")
    misses = coalesce.get("grouping_misses")
    good = (
        requests > 1
        and dispatches is not None
        and dispatches < requests
        and misses == 1
    )
    ok = ok and good
    lines.append(
        f"tail gate: coalesce {requests} identical requests -> "
        f"{dispatches} dispatch(es), grouping misses {misses} "
        f"({'OK' if good else 'REGRESSION'}; burst must fold and dedupe)"
    )

    base_section = baseline.get("serving")
    base_cpus = int(baseline.get("cpus", 1) or 1)
    new_cpus = int(new.get("cpus", 1) or 1)
    if not base_section:
        lines.append("tail gate: baseline has no serving section; p99 check skipped")
    elif base_cpus < 2 or new_cpus < 2:
        lines.append(
            f"tail gate: p99 check skipped (baseline cpus={base_cpus}, "
            f"new cpus={new_cpus}; needs multi-core on both sides)"
        )
    else:
        log_sum = 0.0
        compared = 0
        for name in ("nominal", "overload"):
            base_p99 = ((base_section.get(name) or {}).get("latency") or {}).get(
                "p99_ms"
            )
            new_p99 = ((section.get(name) or {}).get("latency") or {}).get("p99_ms")
            if not base_p99 or not new_p99:
                continue
            ratio = new_p99 / base_p99
            log_sum += math.log(ratio)
            compared += 1
            lines.append(
                f"tail gate: {name} p99 {base_p99:8.2f} -> {new_p99:8.2f} ms "
                f"(ratio {ratio:.3f})"
            )
        if not compared:
            lines.append("tail gate: snapshots share no p99 phases")
        else:
            geo = math.exp(log_sum / compared)
            good = geo <= threshold
            ok = ok and good
            lines.append(
                f"tail gate: geo-mean p99 ratio {geo:.3f} "
                f"({'OK' if good else 'REGRESSION'}, threshold {threshold:.2f})"
            )
    return ok, lines


def gate_dist(new: dict) -> Tuple[bool, List[str]]:
    """``(ok, report_lines)`` for the multi-host sharding gate.

    Self-consistency within the *new* snapshot only: the sharded run
    must be **byte-identical** to the serial reference (that is the
    sharding plane's headline claim), finish with zero request errors
    and zero hosts lost, and — on multi-core snapshots, where loopback
    hosts have CPUs to themselves — keep dispatch overhead bounded
    (sharded wall time no worse than 3x serial; loopback sharding
    cannot be expected to *win* on one machine, but an order-of-
    magnitude dispatch tax is a regression).  Snapshots predating the
    section skip with a note, so the gate is safe to pass
    unconditionally.
    """
    section = new.get("dist")
    if not section:
        return True, ["dist gate: new snapshot has no dist section; skipped"]
    sharded = section.get("sharded") or {}
    lines: List[str] = []
    ok = True

    identical = sharded.get("byte_identical")
    good = identical is True
    ok = ok and good
    lines.append(
        f"dist gate: byte_identical={identical} "
        f"({'OK' if good else 'REGRESSION'}; sharded mappings must match "
        "the serial reference exactly)"
    )

    errors = sharded.get("errors")
    hosts_lost = sharded.get("hosts_lost") or []
    good = errors == 0 and not hosts_lost
    ok = ok and good
    lines.append(
        f"dist gate: errors={errors}, hosts_lost={list(hosts_lost)} "
        f"({'OK' if good else 'REGRESSION'}; a healthy loopback cluster "
        "must finish clean)"
    )

    speedup = sharded.get("speedup_vs_serial")
    if new.get("cpus", 1) < 2:
        lines.append(
            f"dist gate: speedup_vs_serial={speedup:.2f} not gated "
            "(single-CPU snapshot; loopback hosts share one core)"
        )
    elif speedup is not None:
        good = speedup >= 1.0 / 3.0
        ok = ok and good
        lines.append(
            f"dist gate: speedup_vs_serial={speedup:.2f} "
            f"({'OK' if good else 'REGRESSION'}; dispatch overhead must "
            "keep sharded wall time within 3x of serial on loopback)"
        )
    return ok, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on a geo-mean map-time regression between snapshots."
    )
    parser.add_argument("new", help="freshly emitted snapshot JSON")
    parser.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help="committed snapshot (default: latest BENCH_<n>.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="maximum allowed geo-mean ratio new/baseline (default 1.25)",
    )
    parser.add_argument(
        "--gate-batch",
        action="store_true",
        help="also gate the batch_throughput section (persistent pools "
        "must beat spawn-per-call; multi-core snapshots gate requests/sec)",
    )
    parser.add_argument(
        "--gate-tail",
        action="store_true",
        help="also gate the serving section (nominal load must not shed, "
        "overload must shed cheaply, identical bursts must coalesce; "
        "multi-core snapshots gate the p99 ratio)",
    )
    parser.add_argument(
        "--gate-dist",
        action="store_true",
        help="also gate the dist section (sharded mappings must be "
        "byte-identical to serial with zero errors, and dispatch "
        "overhead bounded on multi-core snapshots; snapshots predating "
        "the section skip with a note)",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline or latest_snapshot(exclude=args.new)
    if baseline_path is None:
        print("error: no committed BENCH_<n>.json to compare against", file=sys.stderr)
        return 2
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        with open(args.new) as fh:
            new = json.load(fh)
        ok, _, lines = compare_snapshots(baseline, new, args.threshold)
        if args.gate_batch:
            batch_ok, batch_lines = gate_batch_throughput(
                baseline, new, args.threshold
            )
            ok = ok and batch_ok
            lines += batch_lines
        if args.gate_tail:
            tail_ok, tail_lines = gate_tail_latency(baseline, new, args.threshold)
            ok = ok and tail_ok
            lines += tail_lines
        if args.gate_dist:
            dist_ok, dist_lines = gate_dist(new)
            ok = ok and dist_ok
            lines += dist_lines
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"baseline: {baseline_path}")
    print(f"new:      {args.new}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
