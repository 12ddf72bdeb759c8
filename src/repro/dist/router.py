"""ShardRouter — workload-fingerprint plan partitioning across hosts.

The router answers three questions for the coordinator:

* **Where does a node run?**  Rendezvous (highest-random-weight)
  hashing of the node's *workload fingerprint* — the content keys
  ``(tg_key, m_key)`` of its request's task graph and machine — over
  the registered hosts.  Hashing the workload rather than the node
  means every node of one workload (its grouping, its DEF baseline,
  its route chains, every consumer) lands on the same host by
  construction: the locality guarantee is structural, not best-effort.
  Rendezvous hashing also gives minimal disruption on host loss — only
  the dead host's workloads move.
* **What may be stolen?**  Grouping nodes and DEF-baseline producer
  nodes are *pinned*: they are the shared artifacts the paper's
  prep-time accounting (Fig. 3) amortizes across a workload's
  algorithms, and moving one to another host would force its consumers
  to re-read (or worse, recompute) it across the store.  Everything
  else is fair game once a shard's ready backlog exceeds
  ``steal_threshold`` while another host sits idle — the
  run-time-rebalancing idea of the spiral-mapping line of work applied
  to plan scheduling.
* **Where does a node go when its host dies?**  :meth:`reroute`
  re-runs the rendezvous over the surviving hosts, so all of a dead
  host's workloads migrate consistently (consumers follow their
  producers to the same survivor).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.api.config import EngineConfig
from repro.api.plan import Plan

__all__ = ["ShardRouter"]


def _score(host: str, workload: Tuple[int, int]) -> int:
    """Rendezvous weight of *host* for *workload* (stable across runs)."""
    raw = hashlib.sha256(
        f"{host}|{workload[0]:x}|{workload[1]:x}".encode()
    ).digest()
    return int.from_bytes(raw[:8], "big")


class ShardRouter:
    """Assigns one plan's nodes to hosts; pins shared-artifact producers.

    Parameters
    ----------
    plan:
        The planned batch (``build_plan`` output).
    hosts:
        Stable host identifiers (the coordinator uses ``host:port``
        addresses).  Order does not affect placement — rendezvous
        hashing is symmetric — so registering hosts in a different
        order yields the same shards.
    steal_threshold:
        Ready-queue backlog above which a hot shard's unpinned nodes
        may be stolen by an idle host.
    """

    def __init__(
        self,
        plan: Plan,
        hosts: Sequence[str],
        *,
        steal_threshold: int = EngineConfig.steal_threshold,
    ) -> None:
        if not hosts:
            raise ValueError("ShardRouter needs at least one host")
        if len(set(hosts)) != len(hosts):
            raise ValueError(f"duplicate host addresses: {list(hosts)}")
        self.plan = plan
        self.hosts: Tuple[str, ...] = tuple(hosts)
        self.steal_threshold = max(1, int(steal_threshold))
        self.steals = 0
        self.reroutes = 0
        #: node index -> assigned host (initial placement; stealing and
        #: rerouting update it so stats reflect where nodes actually ran)
        self.assignment: Dict[int, str] = {}
        self._pinned: Set[int] = set()
        baseline_nodes = set(plan.baseline_producers.values())
        for node in plan.nodes:
            workload = plan.workload_of(node.index)
            self.assignment[node.index] = self._place(workload, self.hosts)
            if node.kind == "grouping" or node.index in baseline_nodes:
                self._pinned.add(node.index)

    @staticmethod
    def _place(workload: Tuple[int, int], hosts: Sequence[str]) -> str:
        return max(hosts, key=lambda h: _score(h, workload))

    # ------------------------------------------------------------------
    def host_of(self, index: int) -> str:
        """The host currently assigned to run node *index*."""
        return self.assignment[index]

    def pinned(self, index: int) -> bool:
        """Whether node *index* must stay on its shard (never stolen)."""
        return index in self._pinned

    def shards(self) -> Dict[str, List[int]]:
        """Current node partition, host -> sorted node indices."""
        out: Dict[str, List[int]] = {h: [] for h in self.hosts}
        for index, host in self.assignment.items():
            out[host].append(index)
        for nodes in out.values():
            nodes.sort()
        return out

    # ------------------------------------------------------------------
    def steal(
        self,
        idle_host: str,
        ready_backlogs: Dict[str, List[int]],
    ) -> Optional[int]:
        """Pick one ready node for *idle_host* to steal, or ``None``.

        Victim selection: the live host with the deepest ready backlog,
        provided it exceeds :attr:`steal_threshold`.  The newest ready
        node that is not pinned is taken (tail stealing — the victim
        keeps the nodes it is about to run, preserving its locality
        streak).  The caller removes the node from the victim's queue;
        this method just updates the assignment and counters.
        """
        victim, backlog = None, None
        for host, queue in ready_backlogs.items():
            if host == idle_host or len(queue) <= self.steal_threshold:
                continue
            if backlog is None or len(queue) > len(backlog):
                victim, backlog = host, queue
        if backlog is None:
            return None
        for index in reversed(backlog):
            if not self.pinned(index):
                self.assignment[index] = idle_host
                self.steals += 1
                return index
        return None

    def reroute(self, index: int, live_hosts: Sequence[str]) -> str:
        """Re-place one node after host loss (rendezvous over survivors)."""
        if not live_hosts:
            raise ValueError("no live hosts to reroute onto")
        host = self._place(self.plan.workload_of(index), live_hosts)
        self.assignment[index] = host
        self.reroutes += 1
        return host

    def stats(self) -> dict:
        shards = self.shards()
        return {
            "hosts": len(self.hosts),
            "nodes": len(self.assignment),
            "pinned": len(self._pinned),
            "steals": self.steals,
            "reroutes": self.reroutes,
            "shard_sizes": {h: len(v) for h, v in shards.items()},
            "steal_threshold": self.steal_threshold,
        }
