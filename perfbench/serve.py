"""``serve``: the real ``repro-map serve`` process, driven closed-loop.

The server runs at its CLI defaults (serial engine, 5 ms coalescing
window, 2 plans in flight).  Two client connections, like a scheduler
with two launch slots that each wait for their reply, send single-entry
``UG,UWH`` map requests drawn by a seeded sequence from a catalogue of
7 ci matrices x {64, 128} procs.  Set-up starts the server and warms
the whole catalogue, which stays under the server's 32-entry workload
LRU.  Every reply is compared after the clock with a serial in-process
reference computed before the server starts.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    Checks,
    RunResult,
    geo_mean,
    min_samples,
    peak_rss_mb,
    percentile,
    total_volume,
    vm_hwm_kb,
)
from perfbench.calibrate import Calibration, scaled_timings
from perfbench.tracing import Tracer

#: Closed-loop client connections: one per CPU of the 2-CPU reference host.
CONNECTIONS = 2

#: The load phase runs in this many equal segments, with the host-speed
#: calibration kernel timed before each and after the last.
SEGMENTS = 5
ALGOS = "UG,UWH"


def catalogue(scale: str) -> List[dict]:
    """7 ci matrices x {64, 128} procs at 600 rows per unit (or a smoke stand-in)."""
    if scale == "full":
        from repro.experiments.profiles import get_profile

        names, procs, rows = get_profile("ci").corpus_names, (64, 128), 600
    else:
        names, procs, rows = ("cage15_like", "ecology_like"), (16,), 40
    return [
        {"matrix": m, "procs": p, "ppn": 4, "rows_per_unit": rows, "algos": ALGOS}
        for m in names
        for p in procs
    ]


def request_sequence(seed: int, client: int, size: int):
    """Catalogue indices client *client* sends, in order (endless)."""
    rng = random.Random(f"serve/{seed}/{client}")
    while True:
        yield rng.randrange(size)


def reference(entries: List[dict]) -> Tuple[List[List[dict]], List[dict], float]:
    """Serial in-process results per entry, DEF metrics per entry, volume."""
    from repro.api.service import MappingService
    from repro.serve.protocol import canonical_result, requests_from_entries, response_payload

    service = MappingService(backend="serial", workers=1)
    workloads: dict = {}
    want, def_metrics, requests = [], [], []
    for entry in entries:
        reqs = requests_from_entries([dict(entry, algos="DEF," + ALGOS)], {}, workloads)
        payloads = [response_payload(r) for r in service.map_batch(reqs)]
        def_metrics.append(payloads[0]["metrics"])
        want.append([canonical_result(p) for p in payloads[1:]])
        requests.extend(reqs)
    return want, def_metrics, total_volume(requests)


class Server:
    """A ``repro-map serve`` child process on an ephemeral port."""

    def __init__(self, root: str, log_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.api", "serve", "--listen", "127.0.0.1:0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self._first_line(timeout=60.0)
        try:
            self.host, self.port = json.loads(line)["listening"]
        except (ValueError, KeyError, TypeError) as exc:
            self.stop()
            raise RuntimeError(f"server did not report its address: {line!r}") from exc

    def _first_line(self, timeout: float) -> str:
        box: List[str] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()))
        reader.daemon = True
        reader.start()
        reader.join(timeout)
        return box[0] if box else ""

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.host, self.port, timeout=120.0)

    def stop(self) -> None:
        """Ask for a drain, then make sure the process is gone."""
        if self.proc.poll() is None:
            try:
                with self.client() as c:
                    c.shutdown()
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Sample:
    client: int
    entry: int
    latency: float
    reply: dict
    traced: bool


def drive(server: Server, entries: List[dict], seed: int, seconds: float,
          min_count: int, tracer: Optional[Tracer]) -> Tuple[List[Sample], float]:
    """Closed loop over :data:`CONNECTIONS` connections for *seconds*.

    With a tracer, each client alternates traced and untraced requests.
    Keeps going past *seconds* until *min_count* requests are answered.
    """
    samples: List[Sample] = []
    lock = threading.Lock()
    errors: List[BaseException] = []
    start = time.perf_counter()

    def client_loop(cid: int) -> None:
        sequence = request_sequence(seed, cid, len(entries))
        try:
            with server.client() as conn:
                for n, idx in enumerate(sequence):
                    with lock:
                        if time.perf_counter() - start >= seconds and len(samples) >= min_count:
                            return
                    traced = tracer is not None and (n + cid) % 2 == 1
                    t0 = time.perf_counter()
                    if traced:
                        with tracer.span("serve.request", request=cid * 1_000_000 + n):
                            reply = conn.map([entries[idx]])
                    else:
                        reply = conn.map([entries[idx]])
                    latency = time.perf_counter() - t0
                    with lock:
                        samples.append(Sample(cid, idx, latency, reply, traced))
        except BaseException as exc:  # recorded and re-raised by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return samples, time.perf_counter() - start


def check_reply(checks: Checks, want: List[dict], reply: dict, label: str) -> bool:
    from repro.serve.protocol import canonical_result

    if not reply.get("ok"):
        return checks.check(False, f"{label}: {reply.get('error')}")
    got = [canonical_result(r) for r in reply.get("results", [])]
    return checks.check(got == want, f"{label}: reply differs from the serial reference")


def run(seed: int, seconds: float, trace: bool, scale: str, trace_path: str,
        root: str, scratch: str) -> RunResult:
    entries = catalogue(scale)
    checks = Checks()
    want, def_metrics, volume = reference(entries)

    t0 = time.perf_counter()
    server = Server(root, os.path.join(scratch, f"serve-{os.getpid()}.log"))
    try:
        warm = []
        with server.client() as conn:
            for idx, entry in enumerate(entries):
                warm.append(conn.map([entry]))
        setup_s = time.perf_counter() - t0
        tracer = Tracer() if trace else None
        min_count = min_samples(0.9 if trace else 0.5)
        calibration = Calibration()
        samples: List[Sample] = []
        wall = 0.0
        for segment in range(SEGMENTS):
            calibration.measure(repeats=3)
            more, elapsed = drive(server, entries, seed * SEGMENTS + segment,
                                  seconds / SEGMENTS, min_count - len(samples), tracer)
            samples += more
            wall += elapsed
        calibration.measure(repeats=3)
        stats = server.client().stats() if trace else None
        rss = peak_rss_mb([server.proc.pid])
        server_hwm_mb = vm_hwm_kb(server.proc.pid) / 1024.0
    finally:
        server.stop()

    for idx, reply in enumerate(warm):
        check_reply(checks, want[idx], reply, f"warm-up entry {idx}")
    for s in samples:
        check_reply(checks, want[s.entry], s.reply, f"client {s.client} entry {s.entry}")
    latencies = [s.latency for s in samples]
    notes = [
        f"{len(samples)} requests in {wall:.2f} s over {CONNECTIONS} connections; "
        f"server peak RSS {server_hwm_mb:.0f} MB"
    ]
    if trace:
        tracer.write_chrome(trace_path)
        notes.append(f"trace written to {trace_path}")
        return RunResult(checks, _layer_metrics(samples, stats), notes)
    uwh = [
        next(r for r in reply["results"] if r["algorithm"] == "UWH")["metrics"]["WH"]
        / def_metrics[idx]["WH"]
        for idx, reply in enumerate(warm)
        if reply.get("ok")
    ]
    timings, note = scaled_timings(
        sum(len(s.reply.get("results", [])) for s in samples) / wall,
        percentile(latencies, 0.5) * 1e3, calibration)
    notes.append(note)
    metrics = {
        "setup_s": setup_s,
        **timings,
        "peak_rss_mb": rss,
        "quality.UWH_wh": geo_mean(uwh),
        "quality.partition_tv": volume,
    }
    return RunResult(checks, metrics, notes)


def _layer_metrics(samples: List[Sample], stats: dict) -> Dict[str, float]:
    """Server-side layers from the ``stats`` op, the rest from replies.

    A traced request's time is attributed to execution by the reply's
    ``elapsed_s``; the rest is queueing, coalescing, framing and the wire.
    """
    latency = stats["latency"]
    counters = stats["counters"]
    traced = [s.latency for s in samples if s.traced]
    plain = [s.latency for s in samples if not s.traced]
    executed = sum(s.reply.get("elapsed_s", 0.0) for s in samples if s.traced)
    out = {
        "serve.latency_p90_ms": percentile([s.latency for s in samples], 0.9) * 1e3,
        "serve.queue_wait_p50_ms": latency["queue_wait"].get("p50_ms", 0.0),
        "serve.execute_p50_ms": latency["execute"].get("p50_ms", 0.0),
        "serve.coalesce_mean_batch": stats["coalesce"]["mean_batch"],
        "serve.dispatches": float(counters.get("dispatches", 0)),
        "serve.shed": float(counters.get("shed", 0)),
        "serve.outside_execute_p50_ms": percentile(
            [s.latency - s.reply.get("elapsed_s", 0.0) for s in samples], 0.5) * 1e3,
        "trace.overhead_frac": (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0,
        "trace.unattributed_s": sum(traced) - executed,
        "trace.attributed_frac": executed / sum(traced),
    }
    for ns, s in stats["cache"].items():
        lookups = s["hits"] + s["misses"]
        out[f"cache.{ns}.hit_ratio"] = s["hits"] / lookups if lookups else 0.0
    fig3: Dict[str, List[float]] = {}
    for s in samples:
        for r in s.reply.get("results", []):
            fig3.setdefault(r["algorithm"], []).append(max(r["map_time_s"], 1e-6))
    out.update({f"fig3.{a}_ms": geo_mean(ts) * 1e3 for a, ts in fig3.items()})
    return out
