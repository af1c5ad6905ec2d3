"""One tenant's live AXML system inside the server.

A session owns the tenant's :class:`~paxml.system.system.AXMLSystem`,
its :class:`~paxml.kernel.EvaluationKernel` and the
:class:`~paxml.runtime.engine.AsyncRuntime` that drives grafts — all on
the server's shared event loop.  The admission layer runs it in bounded
*slices* (:meth:`run_slice` leases attempts via the scheduler's
``grant``); clients inject external grafts (:meth:`inject`, flowing
through :meth:`~paxml.kernel.EvaluationKernel.apply_external` so they
log, replay and fan out like engine grafts), read consistent snapshots
(:meth:`read` — sound because all mutation happens in the single-writer
apply step between awaits) or historical states (:meth:`read_at`, a
seed + graft-log prefix replay), and subscribe to continuous queries
through the session's :class:`~paxml.serve.hub.SubscriptionHub`.

Lifecycle: :meth:`suspend` drains state to a PR 5 checkpoint bundle and
drops the heavy objects; :meth:`resume` rebuilds them from the bundle
and re-primes the hub (whose seen-filters keep streams duplicate-free
across the gap).  Theorem 2.1 (order-independence of ``[I]``) is what
makes slice-interleaved, suspend-punctuated execution converge to the
same limit as an uninterrupted run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..kernel import EvaluationKernel, RunResult
from ..kernel import resume as kernel_resume
from ..kernel.checkpoint import replay_prefix
from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..obs import trace as obs_trace
from ..obs.metrics import REGISTRY, Registry
from ..runtime.engine import AsyncRuntime
from ..runtime.faults import FaultInjector
from ..runtime.policy import RuntimeConfig
from ..system.loader import parse_system_text
from ..system.system import AXMLSystem
from ..tree.node import Node, current_stamp
from ..tree.serializer import to_canonical
from .hub import SubscriptionHub


class SessionError(ValueError):
    """A client request this session cannot honour."""


class TenantSession:
    """One tenant: system + kernel + runtime + subscription hub."""

    def __init__(self, name: str, system: Optional[AXMLSystem], *,
                 config: Optional[RuntimeConfig] = None,
                 injector: Optional[FaultInjector] = None,
                 registry: Optional[Registry] = None,
                 bundle_path: Optional[str] = None,
                 lazy: bool = False):
        if system is None and bundle_path is None:
            raise SessionError("a session needs a system or a bundle")
        self.name = name
        self.config = config or RuntimeConfig()
        self.injector = injector
        self.hub = SubscriptionHub(name)
        # Relevance-guided laziness: the tenant's registered continuous
        # queries ARE its goal set.  Subscribe/unsubscribe reseed the
        # kernel's tracker — new goals wake dormant subtrees, retired
        # goals let the next reseed demote what only they needed.  With
        # no subscriptions every call sits dormant: a lazy tenant does
        # no speculative work.
        self.lazy = lazy
        if lazy:
            self.hub.on_registry_change = self._reseed_lazy
        # ``system=None`` + ``bundle_path`` builds the session already
        # suspended (spool restore on server restart): the first client
        # touch resumes it from the bundle.
        self.suspended = system is None
        self.bundle_path = bundle_path
        self.busy = False               # a slice is currently running
        self.last_active = 0.0          # loop time of the last request/graft
        self.last_graft_trace: Optional[Dict[str, object]] = None
        self.stalled: Optional[Dict[str, object]] = None  # watchdog verdict
        self._attach(system=system, kernel=None, runtime=None)
        scope = (registry or REGISTRY).scoped(tenant=name)
        self._grafts = scope.counter(
            "paxml_grafts_applied_total", "Productive grafts by tenant")
        self._invocations = scope.counter(
            "paxml_serve_invocations_total", "Completed invocations by tenant")
        self._attempts = scope.counter(
            "paxml_serve_attempts_total", "Transport attempts by tenant")
        self._subscribers = scope.gauge(
            "paxml_serve_subscribers", "Open subscriptions by tenant")
        self._published: Dict[str, int] = {}
        if obs_bus.ACTIVE and system is not None:
            obs_bus.emit(obs_events.TENANT_CREATED, tenant=name,
                         documents=sorted(system.documents),
                         services=sorted(system.services))

    @classmethod
    def from_text(cls, name: str, system_text: str,
                  **kwargs) -> "TenantSession":
        """Build a session from ``.axml`` system text (the wire form)."""
        return cls(name, parse_system_text(system_text, f"<{name}>"), **kwargs)

    def _attach(self, *, system: Optional[AXMLSystem],
                kernel: Optional[EvaluationKernel],
                runtime: Optional[AsyncRuntime]) -> None:
        """Wire (or re-wire, on resume) the heavy run objects."""
        self.system = system
        if system is None:
            self.kernel = None
            self.runtime = None
            return
        if runtime is None:
            kernel = kernel or EvaluationKernel(system, promote_front=False,
                                                dedup_delivered=True)
            runtime = AsyncRuntime(system, kernel=kernel, config=self.config,
                                   injector=self.injector)
        self.kernel = runtime.kernel
        self.runtime = runtime
        # Slices reuse one runtime: the session publishes per-tenant
        # metric deltas itself instead of re-absorbing cumulative bags.
        self.runtime.absorb_metrics = False
        # Every bus event the kernel/runtime emits for this session gets
        # the tenant label — that is what keys flight-recorder rings and
        # Chrome-trace pids per tenant.
        self.kernel.obs_labels["tenant"] = self.name
        self.kernel.graft_hooks.append(self._on_graft)
        if self.lazy:
            self._reseed_lazy()

    def _reseed_lazy(self) -> None:
        """(Re)seed the kernel's relevance goals from the hub's query set."""
        if self.kernel is None:
            return
        self.kernel.reseed_lazy(self.hub.queries())

    # -- the graft fan-in -------------------------------------------------

    def _on_graft(self, document, node, inserted) -> None:
        # The hook runs inside the graft transaction, so the causing
        # trace (if any) is still active here: remember it for the
        # watchdog's "last known good graft" diagnostic.
        ctx = obs_trace.current()
        if ctx is not None:
            self.last_graft_trace = ctx.to_wire()
        self.hub.on_graft(self.environment())

    def environment(self) -> Dict[str, Node]:
        return dict(self.system.environment())

    # -- driving ----------------------------------------------------------

    def has_work(self) -> bool:
        if self.suspended:
            return False
        scheduler = self.kernel.scheduler
        return bool(scheduler.has_fresh() or scheduler.parked_count())

    def runnable_at(self, now: float) -> bool:
        """Work that could make progress *now* (parked cooldowns excluded)."""
        if self.suspended:
            return False
        scheduler = self.kernel.scheduler
        if scheduler.has_fresh():
            return True
        ready = scheduler.next_parked_ready()
        return ready is not None and ready <= now

    def idle(self) -> bool:
        return not self.busy and not self.has_work()

    async def run_slice(self, attempts: int) -> RunResult:
        """Run one admission slice: a bounded attempt lease.

        Fairness across tenants is the rotation of these leases; within
        a slice the kernel scheduler's own two-queue fairness applies.
        A slice ending ``BUDGET_EXHAUSTED`` simply means the lease ran
        out with work left — the tenant rejoins the rotation.
        """
        if self.suspended:
            raise SessionError(f"tenant {self.name!r} is suspended")
        self.kernel.scheduler.grant(attempts)
        self.busy = True
        try:
            result = await self.runtime.arun()
        finally:
            self.busy = False
        self.publish_metrics()
        return result

    def publish_metrics(self) -> None:
        """Push per-tenant counter *deltas* into the scoped registry."""
        for counter, key, value in (
                (self._grafts, "productive", self.kernel.productive),
                (self._invocations, "steps", self.kernel.steps),
                (self._attempts, "attempts", self.kernel.scheduler.attempts)):
            previous = self._published.get(key, 0)
            if value > previous:
                counter.labels().inc(value - previous)
                self._published[key] = value
        self._subscribers.labels().set(self.hub.subscriber_count())

    # -- client operations ------------------------------------------------

    def _document(self, name: str):
        document = self.system.documents.get(name)
        if document is None:
            raise SessionError(f"tenant {self.name!r} has no document "
                               f"{name!r}")
        return document

    def inject(self, document_name: str, trees: List[Node],
               parent_uid: Optional[int] = None) -> int:
        """Graft client-supplied ``trees`` into a document (external event).

        The target is the document root, or the node with ``parent_uid``.
        Calls inside the injected trees must name declared services —
        they are scheduled like any grafted call.  Returns the number of
        trees actually inserted (subsumed ones drop, as always).
        """
        document = self._document(document_name)
        for tree in trees:
            for node in tree.iter_nodes():
                if node.is_function and \
                        node.marking.name not in self.system.services:
                    raise SessionError(
                        f"injected tree calls undeclared service "
                        f"!{node.marking.name}")
        if parent_uid is None:
            parent = document.root
        else:
            parent = next((n for n in document.root.iter_nodes()
                           if n.uid == parent_uid), None)
            if parent is None:
                raise SessionError(
                    f"no node uid={parent_uid} in document {document_name!r}")
            if parent.is_value:
                raise SessionError("cannot graft under a value leaf")
        inserted = self.kernel.apply_external(document, parent, trees)
        return len(inserted)

    def read(self, document_name: str) -> Dict[str, object]:
        """A consistent snapshot of the current document state.

        Sound without locking: every mutation runs inside the kernel's
        synchronous graft transaction on this event loop, so between
        awaits the tree is never half-grafted.  The returned ``grafts``
        ordinal and ``stamp`` identify the version read.
        """
        document = self._document(document_name)
        return {"document": document_name,
                "tree": to_canonical(document.root),
                "grafts": self.kernel.productive,
                "stamp": current_stamp()}

    def read_at(self, document_name: str, grafts: int) -> Dict[str, object]:
        """Point-in-time read: the state after ``grafts`` productive grafts.

        Replays the graft-log prefix against the seed snapshot (both
        version-stamped, uid-stable wire trees).  Requires graft-log
        retention; the readable window starts at the log's base (a
        resume without replayable history re-bases it).
        """
        self._document(document_name)
        log = self.kernel.log
        if not log.retain:
            raise SessionError("point-in-time reads need graft-log "
                               "retention (perf.flags.graft_log)")
        records = list(log)
        base = log.base_step
        if grafts < 0 or grafts > len(records):
            raise SessionError(
                f"graft ordinal {grafts} outside the readable window "
                f"[0, {len(records)}] (log base {base})")
        seeds = self.kernel._seed_wire
        if seeds is None or not records[:grafts]:
            # Nothing has landed yet (or an empty prefix): the seed is
            # the current state or the seed snapshot respectively.
            if seeds is None:
                return self.read()
            documents = replay_prefix(seeds, [])
        else:
            documents = replay_prefix(seeds, records[:grafts])
        replayed = documents.get(document_name)
        if replayed is None:
            raise SessionError(
                f"document {document_name!r} has no seed snapshot")
        return {"document": document_name,
                "tree": to_canonical(replayed.root),
                "grafts": grafts, "historical": True}

    def subscribe(self, query_text: str):
        sub = self.hub.subscribe(query_text, self.environment())
        self._subscribers.labels().set(self.hub.subscriber_count())
        return sub

    def frontier(self) -> tuple:
        """A progress marker for the stall watchdog: any advance of the
        scheduler frontier (a step, a graft, an attempt, or queue motion)
        changes this tuple."""
        if self.suspended:
            return ("suspended",)
        scheduler = self.kernel.scheduler
        return (self.kernel.steps, self.kernel.productive,
                scheduler.attempts, scheduler.fresh_count(),
                scheduler.parked_count(), scheduler.tried_count())

    def open_breakers(self) -> List[str]:
        """Keys of circuits currently not CLOSED (watchdog diagnostics)."""
        if self.suspended or self.runtime is None:
            return []
        from ..runtime.policy import CircuitState
        return sorted(
            f"{peer}/{service}"
            for (peer, service), circuit
            in self.runtime.breaker._circuits.items()
            if circuit.state is not CircuitState.CLOSED)

    def stats(self) -> Dict[str, object]:
        scheduler = None if self.suspended else self.kernel.scheduler
        return {
            "tenant": self.name,
            "suspended": self.suspended,
            "steps": 0 if self.suspended else self.kernel.steps,
            "productive": 0 if self.suspended else self.kernel.productive,
            "attempts": 0 if scheduler is None else scheduler.attempts,
            "subscribers": self.hub.subscriber_count(),
            "pending": 0 if scheduler is None else (
                scheduler.fresh_count() + scheduler.parked_count()),
            "queues": {"fresh": 0, "parked": 0, "tried": 0}
            if scheduler is None else {
                "fresh": scheduler.fresh_count(),
                "parked": scheduler.parked_count(),
                "tried": scheduler.tried_count()},
            # Proven no-ops woken by a graft that fed them, and those left
            # asleep, summed over grafts since the tenant last resumed.
            "scheduler": {"tried_woken": 0, "tried_kept": 0}
            if scheduler is None else {
                "tried_woken": scheduler.tried_woken,
                "tried_kept": scheduler.tried_kept},
            "lazy": None if not self.lazy else {
                "queries": 0 if self.suspended else (
                    0 if self.kernel.relevance_tracker is None
                    else len(self.kernel.lazy_queries)),
                "dormant": 0 if scheduler is None
                else scheduler.dormant_count(),
                "retired": 0 if scheduler is None
                else scheduler.retired_count(),
                "skipped": 0 if scheduler is None
                else scheduler.skipped_unneeded},
            "open_breakers": self.open_breakers(),
            "stalled": self.stalled,
            "last_graft_trace": self.last_graft_trace,
        }

    # -- lifecycle --------------------------------------------------------

    def suspend(self, bundle_path: str) -> Dict[str, List[str]]:
        """Checkpoint to ``bundle_path`` and evict the heavy state.

        The caller (the server) guarantees no slice is running.  The hub
        survives in memory — answer logs and subscriber cursors intact —
        with its evaluator caches dropped; the returned ``{query:
        answers}`` map is what a spool manifest persists for server
        restarts.  Returns with the session in the suspended state.
        """
        if self.suspended:
            raise SessionError(f"tenant {self.name!r} is already suspended")
        if self.busy:
            raise SessionError("cannot suspend mid-slice")
        # Through the runtime, so cutoffs dirtied by earlier drained
        # slices stay excluded from the bundle.
        self.runtime.checkpoint(bundle_path)
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.TENANT_SUSPENDED, tenant=self.name,
                         bundle=bundle_path, steps=self.kernel.steps,
                         productive=self.kernel.productive)
        spooled = self.hub.detach()
        self._attach(system=None, kernel=None, runtime=None)
        self.suspended = True
        self.bundle_path = bundle_path
        return spooled

    def resume(self, bundle_path: Optional[str] = None) -> None:
        """Rebuild the live state from the bundle and re-prime the hub."""
        if not self.suspended:
            raise SessionError(f"tenant {self.name!r} is not suspended")
        path = bundle_path or self.bundle_path
        if path is None:
            raise SessionError(f"tenant {self.name!r} has no bundle to "
                               "resume from")
        runtime = kernel_resume(path, engine="async", config=self.config,
                                injector=self.injector)
        self._attach(system=runtime.system, kernel=runtime.kernel,
                     runtime=runtime)
        self.suspended = False
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.TENANT_RESUMED, tenant=self.name,
                         bundle=path, steps=self.kernel.steps,
                         productive=self.kernel.productive)
        self.hub.reattach(self.environment())

    async def drain(self, bundle_path: Optional[str] = None) -> None:
        """Graceful stop of a running slice (server shutdown path)."""
        if self.runtime is not None:
            if bundle_path is not None:
                self.runtime.checkpoint_path = bundle_path
            if self.busy:
                self.runtime.request_drain()
