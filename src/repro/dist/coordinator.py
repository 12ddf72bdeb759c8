"""Multi-host plan sharding — shard hosts as one more worker set.

:func:`run_sharded` runs a planned batch on remote
:class:`~repro.dist.host.HostServer` processes through the engine's one
scheduler, :func:`repro.api.executor.drive_plan`, and returns the same
outcome list every local mode produces.  Retries, deadlines,
raise-vs-partial and error reporting are the scheduler's; this module
only decides where nodes run:

* the **batch payload** is published once to the coordinator's store —
  whose remote tier replicates it to the cluster's
  ``repro-map store-serve`` process — and each host pulls + LRU-caches
  it on the first node it executes, the same store-not-initargs channel
  the persistent process pool uses;
* a :class:`~repro.dist.router.ShardRouter` partitions nodes across
  hosts by workload fingerprint, so a workload's grouping, DEF
  baseline and consumers stay host-local; each host gets at most its
  advertised capacity in flight, and an idle host steals unpinned ready
  nodes from the deepest backlog once it exceeds the steal threshold;
* **host loss** (socket death, crash, kill) is worker loss: the host's
  queued nodes move to survivors, and each node it had in flight counts
  one failed attempt — retried on a survivor after backoff while the
  :class:`~repro.api.fault.RetryPolicy` allows, else failed with a
  ``kind="host_lost"`` :class:`~repro.api.fault.PlanError`.  With no
  host left the scheduler finishes the batch in-process.

Scheduling never affects results: each node's output is a pure
function of its request and declared artifacts, so a sharded batch is
byte-identical to a serial one (pinned by ``tests/test_dist.py``).
"""

from __future__ import annotations

import os
import tempfile
import uuid
from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.api.executor import HandOff, WorkerSet, drive_plan
from repro.api.fault import RetryPolicy
from repro.api.plan import Plan
from repro.api.store import make_store
from repro.dist.host import HostClient, HostLostError
from repro.dist.router import DEFAULT_STEAL_THRESHOLD, ShardRouter

__all__ = ["run_sharded"]


def run_sharded(
    plan: Plan,
    service,
    hosts: Sequence[str],
    *,
    store_remote: Optional[str] = None,
    store_dir: Optional[str] = None,
    store_tier: str = "auto",
    retry: Optional[RetryPolicy] = None,
    node_timeout: Optional[float] = None,
    partial: bool = False,
    steal_threshold: int = DEFAULT_STEAL_THRESHOLD,
    stats_out: Optional[dict] = None,
) -> List:
    """Run *plan* across *hosts*; returns ``_collect``-ready outcomes.

    Parameters
    ----------
    plan / service:
        As in :func:`repro.api.executor.execute_plan`; the service only
        runs nodes here once every host is lost.
    hosts:
        ``host:port`` addresses of ``repro-map shard-serve`` processes.
    store_remote:
        ``host:port`` of the shared ``store-serve`` process the batch
        payload replicates through.  Without it the hosts can only find
        the payload if they share *store_dir*'s filesystem.
    retry / node_timeout / partial:
        The engine's standard fault knobs.  Retry attempts also cover
        host loss: a node whose host died is rerouted to a survivor
        while attempts remain.  A node past its deadline fails with a
        ``timeout`` outcome (the host may still finish it; the reply is
        discarded).
    stats_out:
        Optional dict that receives router + per-host dispatch stats.
    """
    tmp: Optional[tempfile.TemporaryDirectory] = None
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-coord-")
        store_dir = tmp.name
    store = make_store(store_dir, tier=store_tier, owner=True, remote=store_remote)
    batch_key = f"coord-{os.getpid()}-{uuid.uuid4().hex[:8]}"

    clients: Dict[str, HostClient] = {}
    try:
        store.save("batch", batch_key, plan.requests)

        for address in hosts:
            client = HostClient(address)
            try:
                client.hello()
            except HostLostError:
                client.close()
                continue
            clients[client.name] = client
        workers = _HostWorkers(plan, clients, batch_key, steal_threshold)
        outcomes = drive_plan(
            plan,
            service,
            workers,
            retry=retry,
            node_timeout=node_timeout,
            partial=partial,
        )
        if stats_out is not None:
            stats_out.update(
                {
                    "router": workers.router.stats() if workers.router else None,
                    "hosts_lost": workers.hosts_lost,
                    "hosts": {
                        name: {"capacity": c.capacity, "host_id": c.host_id}
                        for name, c in clients.items()
                    },
                }
            )
        return outcomes
    finally:
        for client in clients.values():
            client.close()
        store.delete("batch", batch_key)
        if hasattr(store, "close"):
            store.close()
        if tmp is not None:
            tmp.cleanup()


class _HostWorkers(WorkerSet):
    """Shard hosts: router placement, per-host queues and capacity,
    stealing, and host loss.  The worker key is the host's name."""

    def __init__(
        self,
        plan: Plan,
        clients: Dict[str, HostClient],
        batch_key: str,
        steal_threshold: int,
    ) -> None:
        self.plan = plan
        self.clients = clients
        self.batch_key = batch_key
        self.live: List[str] = list(clients)
        self.router = (
            ShardRouter(plan, self.live, steal_threshold=steal_threshold)
            if self.live
            else None
        )
        self.queues: Dict[str, Deque[int]] = {h: deque() for h in self.live}
        self.orphans: List[int] = []  # ready while no host is left
        self.hosts_lost: List[str] = []

    @property
    def alive(self) -> bool:
        return bool(self.live)

    def put(self, index: int) -> None:
        if not self.live:
            self.orphans.append(index)
            return
        host = self.router.host_of(index)
        if host not in self.queues:
            host = self.router.reroute(index, self.live)
        self.queues[host].append(index)

    def take(self, inflight) -> List[HandOff]:
        busy = Counter(worker for _, worker in inflight.values())
        handed: List[HandOff] = []
        for host in self.live:
            client = self.clients[host]
            while busy[host] < client.capacity:
                index = self._next_for(host)
                if index is None:
                    break
                node = self.plan.nodes[index]
                future = client.submit(
                    self.batch_key,
                    node.index,
                    node.request_index,
                    node.kind,
                    node.algorithm,
                )
                handed.append((index, future, host))
                busy[host] += 1
        return handed

    def _next_for(self, host: str) -> Optional[int]:
        queue = self.queues[host]
        if queue:
            return queue.popleft()
        stolen = self.router.steal(
            host, {h: list(q) for h, q in self.queues.items()}
        )
        if stolen is None:
            return None
        for other in self.queues.values():
            try:
                other.remove(stolen)
                break
            except ValueError:
                continue
        return stolen

    def lost(self, exc: BaseException, worker) -> bool:
        if not isinstance(exc, HostLostError):
            return False
        if worker in self.queues:
            self.hosts_lost.append(worker)
            self.live.remove(worker)
            self.clients[worker].close()
            # Undispatched nodes never count an attempt — they just move.
            for index in self.queues.pop(worker):
                self.put(index)
        return True

    def drain(self) -> List[int]:
        nodes, self.orphans = self.orphans, []
        return nodes
