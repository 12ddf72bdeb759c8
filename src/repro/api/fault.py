"""Fault-tolerance primitives of the execution engine.

Three pieces live here, shared by every backend and the serving layer:

:class:`RetryPolicy`
    Bounded retries with exponential backoff for *transient* node
    failures, plus the crash-quarantine knobs the self-healing pool
    consults (how many worker crashes a request may cause before it is
    quarantined, and what quarantine does — fail cleanly or re-run on
    the in-process serial path).  The healthy path never touches any of
    this: a node that succeeds on its first attempt pays one integer
    comparison.

:class:`PlanError`
    The structured outcome of a failed plan node.  A batch run with
    ``EngineConfig(on_error="partial")`` surfaces it on
    :attr:`MapResponse.error` instead of aborting the batch — unaffected
    requests still succeed.

:class:`FaultInjector`
    A deterministic chaos harness for tests: arm a bounded number of
    faults (``kill-worker`` — the worker process ``os._exit``\\ s while
    running a matching request; ``raise`` — a transient exception) and
    activate them via an environment variable that pool workers
    inherit.  Token files claimed by atomic rename guarantee each armed
    fault fires exactly once, however many workers race for it.
    ``corrupt_artifact`` garbles store files in place (the store's
    corruption-tolerant reads must treat them as misses), and
    ``drop_link`` masks a link dead on a machine (fault-avoiding
    rerouting must detour around it).
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "RetryPolicy",
    "PlanError",
    "FaultInjector",
    "InjectedFault",
    "maybe_inject",
    "FAULT_DIR_ENV",
]

#: Environment variable naming an active :class:`FaultInjector` root.
#: Process-pool workers inherit it at spawn, which is how a parent test
#: arms faults inside long-lived workers it never talks to directly.
FAULT_DIR_ENV = "REPRO_FAULT_DIR"

#: Exit code of an injected worker kill (distinguishable from real
#: segfaults in test assertions; the engine treats any worker death the
#: same way).
KILL_EXIT_CODE = 87


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/quarantine configuration of one plan execution.

    Parameters
    ----------
    max_attempts:
        Total attempts per node (1 = no retries).  Only ordinary
        exceptions are retried; a blown deadline is final, and worker
        crashes follow the quarantine rules below instead.
    backoff:
        Sleep before the second attempt, in seconds.
    backoff_factor:
        Multiplier applied per further attempt (exponential backoff).
    max_backoff:
        Upper bound of any single backoff sleep.
    max_crashes:
        How many times a node may be in flight during a worker-pool
        crash before it is quarantined as poison.  Crash attribution is
        conservative — every node in flight at break time is a suspect —
        so the default (2) means "killed the pool twice".
    poison:
        What quarantine does: ``"fail"`` returns a structured
        :class:`PlanError` of kind ``"crash"``; ``"serial"`` re-runs the
        node on the caller's in-process serial path (appropriate when
        crashes are suspected worker-environment flakes — a genuinely
        segfaulting request would take the caller down with it).
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    max_crashes: int = 2
    poison: str = "fail"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0 or self.max_backoff < 0 or self.backoff_factor <= 0:
            raise ValueError("backoff parameters must be non-negative")
        if self.max_crashes < 1:
            raise ValueError("max_crashes must be >= 1")
        if self.poison not in ("fail", "serial"):
            raise ValueError("poison must be 'fail' or 'serial'")

    def delay(self, failures: int) -> float:
        """Backoff before the next attempt after *failures* failures."""
        return min(
            self.backoff * self.backoff_factor ** max(failures - 1, 0),
            self.max_backoff,
        )


#: The engine's defaults when no policy is given: no retries, but the
#: crash-quarantine rules still protect the pool.
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass
class PlanError:
    """Structured outcome of a failed plan node.

    ``kind`` is one of ``"error"`` (the node raised), ``"timeout"``
    (per-node deadline blown), ``"crash"`` (the node was in flight when
    the worker pool died and was quarantined), ``"cancelled"`` (the
    batch was torn down around it) or ``"upstream"`` (a dependency
    failed first, so the node never ran).
    """

    kind: str
    message: str
    exception: str = ""
    attempts: int = 1
    node: str = ""
    tag: object = field(default=None)

    def as_dict(self) -> dict:
        """JSON-ready form (the CLI's error payload)."""
        return {
            "kind": self.kind,
            "message": self.message,
            "exception": self.exception,
            "attempts": self.attempts,
            "node": self.node,
        }

    def __str__(self) -> str:
        origin = f" [{self.exception}]" if self.exception else ""
        return f"{self.kind} at {self.node or 'node'}{origin}: {self.message}"


class InjectedFault(RuntimeError):
    """The transient exception the ``raise`` fault kind throws."""


class FaultInjector:
    """Deterministic fault harness driven through a token directory.

    Each armed fault is one token file; whoever claims it (atomic
    ``os.rename``) executes it, so an armed count of N fires exactly N
    times across any number of workers and retries.  Activation is by
    environment variable (:data:`FAULT_DIR_ENV`): spawn the worker pool
    *after* :meth:`activate` so workers inherit it.
    """

    KINDS = ("kill-worker", "raise")

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._counter = 0

    # -- arming --------------------------------------------------------
    def arm(self, kind: str, tag: object, count: int = 1, node: str = "algo") -> None:
        """Arm *count* faults of *kind* against requests tagged *tag*.

        *node* picks which plan node of the request trips the fault:
        ``"algo"`` (default — the request's own mapping run),
        ``"grouping"`` (the shared grouping stage; note a grouping is
        tagged with the *first* request that needs it and its failure
        cascades to every consumer), or ``"any"``.
        """
        if kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; choose from {self.KINDS}")
        if node not in ("algo", "grouping", "any"):
            raise ValueError("node must be 'algo', 'grouping' or 'any'")
        for _ in range(count):
            name = f"{kind}__{_token_tag(tag)}__{node}__{self._counter}.token"
            self._counter += 1
            path = os.path.join(self.root, name)
            with open(path, "w") as fh:
                fh.write(kind)

    def pending(self, kind: Optional[str] = None) -> int:
        """Unclaimed tokens (optionally of one kind)."""
        prefix = f"{kind}__" if kind else ""
        return len(
            [
                n
                for n in os.listdir(self.root)
                if n.endswith(".token") and n.startswith(prefix)
            ]
        )

    def disarm(self) -> None:
        """Remove every unclaimed token."""
        for name in os.listdir(self.root):
            if name.endswith(".token"):
                try:
                    os.unlink(os.path.join(self.root, name))
                except OSError:
                    pass

    # -- activation ----------------------------------------------------
    def activate(self) -> None:
        os.environ[FAULT_DIR_ENV] = self.root

    def deactivate(self) -> None:
        if os.environ.get(FAULT_DIR_ENV) == self.root:
            del os.environ[FAULT_DIR_ENV]

    def __enter__(self) -> "FaultInjector":
        self.activate()
        return self

    def __exit__(self, *exc) -> None:
        self.deactivate()

    # -- direct-action faults (no worker coordination needed) ----------
    @staticmethod
    def corrupt_artifact(store, namespace: Optional[str] = None) -> int:
        """Garble every stored artifact file in place; returns count.

        Overwrites each file's head with junk bytes — the store's
        corruption-tolerant reads must turn these into misses (and the
        engine must recompute), never into exceptions or wrong data.
        """
        corrupted = 0
        targets = [namespace] if namespace else store._namespace_dirs()
        for ns in targets:
            directory = os.path.join(store.root, ns)
            if not os.path.isdir(directory):
                continue
            for name in os.listdir(directory):
                if not name.endswith(".npz"):
                    continue
                path = os.path.join(directory, name)
                with open(path, "r+b") as fh:
                    fh.write(b"\xde\xad\xbe\xef" * 8)
                corrupted += 1
        return corrupted

    @staticmethod
    def drop_link(machine, link_id: int):
        """A degraded copy of *machine* with one directed link dead."""
        return machine.degrade(dead_links=[int(link_id)])


def _token_tag(tag: object) -> str:
    """Filesystem-safe token label of a request tag."""
    text = repr(tag)
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in text)


def maybe_inject(request, node_kind: str = "algo") -> None:
    """Fire an armed fault matching *request* + *node_kind*, if any.

    Called by :func:`repro.api.executor.run_plan_node` before the node
    executes.  When no injector is active (the environment variable is
    unset — always, outside chaos tests) this is a single dict lookup.
    """
    root = os.environ.get(FAULT_DIR_ENV)
    if not root:
        return
    label = _token_tag(getattr(request, "tag", None))
    for kind in FaultInjector.KINDS:
        for scope in (node_kind, "any"):
            pattern = os.path.join(root, f"{kind}__{label}__{scope}__*.token")
            for path in sorted(glob.glob(pattern)):
                try:
                    os.rename(path, path + ".claimed")
                except OSError:
                    continue  # another worker claimed it first
                if kind == "kill-worker":
                    os._exit(KILL_EXIT_CODE)
                raise InjectedFault(
                    f"injected transient fault for tag "
                    f"{getattr(request, 'tag', None)!r}"
                )
