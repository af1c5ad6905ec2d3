"""The concurrent asyncio evaluation engine.

Confluence (Lemma 2.1 / Theorem 2.1) says the limit ``[I]`` of a fair
rewriting sequence does not depend on the invocation order.  This engine
cashes that in: it keeps up to ``concurrency`` call invocations in flight
at once and grafts answer forests as they complete, and the result is
still ``[I]`` — the interleaving is just *one more fair order*.

Soundness is arranged by construction rather than by locking:

* **single-writer apply loop** — documents are mutated only inside
  :meth:`AsyncRuntime._apply`, which runs on the coordinator between
  ``asyncio.wait`` wake-ups.  In-flight coroutines only *read* trees, and
  only inside synchronous transport evaluation (no await between reading
  the environment and finishing the match), so no graft can interleave
  with a half-done read.
* **monotone snapshots** — an answer computed against an older (smaller)
  document state is still an answer against the newer state, so a late
  response grafts soundly no matter how much landed meanwhile; grafting
  dedupes by a per-site canonical-key set and by antichain insertion.
* **read-stamped no-op verdicts** — "this call added nothing" is only
  evidence for termination if nothing the call reads changed since it
  read its snapshot.  An invocation records the call's read stamp
  (:meth:`~paxml.kernel.EvaluationKernel.read_stamp`: the versions of
  the documents its service reads, plus its parameters for ``input``
  and its parent for ``context``) before it evaluates; a no-op whose
  stamp moved meanwhile goes back in the queue instead of the
  proven-no-op pool, while a graft into a document the call does not
  read leaves its verdict standing.  The run terminates exactly when
  every live call is a proven no-op *on the current state of what it
  reads* and nothing is in flight — the same certificate the
  sequential engine's two-queue scheduler produces.

Failures degrade gracefully: a call that exhausts its retry budget is
recorded in ``RunResult.failures`` (never silently dropped) and the
rest of the system still runs to its fixpoint (status ``DEGRADED``);
global budget or deadline exhaustion stops the run with the partial
prefix, every tree of which is in ``[I]`` by monotonicity.

Scheduling, counting, grafting and checkpointing live in the shared
:mod:`paxml.kernel` (this runtime and the sequential engine run on the
same :class:`~paxml.kernel.EvaluationKernel`); what remains here is the
concurrency layer — the coordinator loop, in-flight invocation
coroutines with retry/breaker/fault handling, and the single-writer
apply step.  ``RuntimeStatus``/``RuntimeResult``/``CallFailure`` are
deprecated aliases of the kernel's unified result types.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..kernel import CallFailure, EvaluationKernel, RunResult, RunStatus
from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..obs import trace as obs_trace
from ..obs.metrics import absorb_runtime
from ..peers.peer import Peer
from ..query.plan import warm_system
from ..system.invocation import (
    StaleCallError,
    build_input_tree,
    call_path,
)
from ..system.system import AXMLSystem
from ..tree.document import Document, Forest
from ..tree.node import Node
from .faults import Fault, FaultInjector, FaultKind, NO_FAULT
from .metrics import RuntimeMetrics
from .policy import CircuitBreaker, RetryPolicy, RuntimeConfig
from .transport import (
    CallRequest,
    LocalTransport,
    PeerTransport,
    Transport,
    TransportError,
    TransientServiceError,
)

Site = Tuple[Document, Node]

# Deprecated aliases of the unified kernel result types.
RuntimeStatus = RunStatus
RuntimeResult = RunResult


class TransportTimeout(RuntimeError):
    """One attempt exceeded the per-call deadline (retryable)."""


@dataclass
class _Outcome:
    """What one in-flight invocation coroutine reports back to the loop."""

    document: Document
    node: Node
    read_stamp: int = -1
    deliveries: List[Forest] = field(default_factory=list)
    attempts: int = 0
    error: Optional[BaseException] = None
    parked_for: Optional[float] = None
    stale: bool = False
    aborted: bool = False  # budget ran out mid-retry; site stays unresolved
    # The invocation's causal span (a child of the context the call node
    # was grafted under, if any): _apply re-activates it around the
    # graft so the kernel stamps the record and the new call sites.
    trace: Optional[obs_trace.TraceContext] = None


async def _never() -> None:
    await asyncio.Event().wait()


class AsyncRuntime:
    """Drive a system (or a peer federation) to ``[I]`` concurrently.

    ``checkpoint_every`` writes a resumable bundle to ``checkpoint_path``
    every N completed invocations; the snapshot is taken on the
    coordinator between apply steps, with in-flight sites folded back
    into the untried frontier (their outcomes would die with a crash
    anyway).  A bundle-constructed kernel (see
    :func:`paxml.kernel.resume`) continues a suspended run.
    """

    def __init__(self, system: Optional[AXMLSystem] = None, *,
                 transport: Optional[Transport] = None,
                 sites: Optional[Sequence[Site]] = None,
                 config: Optional[RuntimeConfig] = None,
                 injector: Optional[FaultInjector] = None,
                 kernel: Optional[EvaluationKernel] = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_path: Optional[str] = None,
                 lazy_for: Optional[Sequence] = None,
                 fire_once: bool = False):
        if transport is None:
            if system is None:
                raise ValueError("need a system or an explicit transport")
            transport = LocalTransport(system)
        self.system = system
        self.transport = transport
        self.config = config or RuntimeConfig()
        self.injector = injector
        self.retry = RetryPolicy(self.config)
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_cooldown)
        self.metrics = RuntimeMetrics()
        self.failures: List[CallFailure] = []
        if kernel is None:
            kernel = EvaluationKernel(system, sites=sites,
                                      promote_front=False,
                                      dedup_delivered=True,
                                      budget=self.config.max_invocations)
        else:
            # Adopting a resumed kernel: this runtime appends proven
            # no-ops behind the untried remainder, dedups deliveries per
            # site, and enforces its own attempt budget.
            kernel.scheduler.promote_front = False
            kernel.dedup_delivered = True
            kernel.scheduler.budget = self.config.max_invocations
        self.kernel = kernel
        self.scheduler = kernel.scheduler
        # Relevance-guided laziness (kernel no-ops when the perf flag is
        # off): sites unneeded for the goal queries go dormant and are
        # never launched.
        if lazy_for is not None and kernel.system is not None:
            kernel.enable_lazy(lazy_for)
        if fire_once and kernel.system is not None:
            kernel.enable_fire_once()
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self._site_attempts: Dict[int, int] = {}
        self._in_flight: Dict[asyncio.Task, Site] = {}
        self._last_checkpoint_steps = kernel.steps
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Graceful drain: requested via request_drain(), observed at the
        # top of the coordinator loop and mid-wait through _drain_event.
        self._drain_requested = False
        self._drain_event: Optional[asyncio.Event] = None
        # Call uids whose in-flight evaluation was cut short by a hard
        # stop: their incremental cutoffs stay excluded from every later
        # checkpoint of this run (an advanced cutoff without the graft
        # landing would lose answers on resume).
        self._dirty_cutoff_uids: Set[int] = set()
        # Per-slice serving reuses one runtime across many arun() calls;
        # pushing the cumulative metrics bag into the global registry on
        # every slice would multiply-count, so the serve layer absorbs
        # deltas itself and turns this off.
        self.absorb_metrics = True
        if system is not None:
            # Pre-compile positive services' match plans before the first
            # attempt launches (no-op when the planner is off).
            warm_system(system)

    # -- constructors ----------------------------------------------------

    @classmethod
    def for_peers(cls, peers: Sequence[Peer], *,
                  latency=None, **kwargs) -> "AsyncRuntime":
        """A runtime over a peer federation: each call runs at its owner."""
        transport = PeerTransport(peers, latency=latency)
        sites = [site for peer in peers for site in peer.call_sites()]
        return cls(transport=transport, sites=sites, **kwargs)

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self, path: Optional[str] = None) -> str:
        """Snapshot the run to a resumable bundle.

        In-flight sites re-enter the frontier untried, and their
        incremental cutoffs are withheld from the bundle — as are the
        cutoffs of sites a hard stop cancelled mid-evaluation earlier in
        the run: an evaluation that advanced a cutoff without its graft
        landing would otherwise lose those answers on resume.
        """
        target = path or self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        in_flight = list(self._in_flight.values())
        exclude = {node.uid for _, node in in_flight}
        exclude.update(self._dirty_cutoff_uids)
        return self.kernel.checkpoint(
            target, engine="async", extra_fresh=in_flight,
            exclude_sites=exclude)

    def request_drain(self) -> None:
        """Ask a running :meth:`arun` to stop gracefully.

        The coordinator stops launching new attempts, lets (or cancels
        and flushes) in-flight work, folds parked and cancelled sites
        back into the untried frontier, and — when a checkpoint path is
        configured — emits a final resumable bundle.  The run returns
        with :attr:`RunStatus.DRAINED`.  Safe to call from any task on
        the runtime's event loop; calling it before :meth:`arun` drains
        immediately on entry.
        """
        self._drain_requested = True
        if self._drain_event is not None:
            self._drain_event.set()

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_every is None:
            return
        if (self.kernel.steps - self._last_checkpoint_steps
                >= self.checkpoint_every):
            self._last_checkpoint_steps = self.kernel.steps
            self.checkpoint()

    # -- the coordinator loop -------------------------------------------

    def run(self) -> RunResult:
        """Synchronous entry point: own event loop, blocks until done."""
        return asyncio.run(self.arun())

    async def arun(self) -> RunResult:
        loop = asyncio.get_running_loop()
        self._loop = loop
        kernel = self.kernel
        scheduler = self.scheduler
        start = loop.time()
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.RUN_STARTED, engine="async",
                         concurrency=self.config.concurrency,
                         sites=scheduler.fresh_count(),
                         **kernel.obs_labels)
        deadline_at = (start + self.config.deadline
                       if self.config.deadline is not None else None)
        stop: Optional[RunStatus] = None
        cancelled = 0
        self._drain_event = asyncio.Event()
        if self._drain_requested:
            self._drain_event.set()
        drain_waiter = loop.create_task(self._drain_event.wait())

        while True:
            now = loop.time()
            scheduler.unpark(now)
            if self._drain_requested:
                stop = RunStatus.DRAINED
                break
            if deadline_at is not None and now >= deadline_at:
                stop = RunStatus.DEADLINE_EXHAUSTED
                break
            while (scheduler.has_fresh()
                   and len(self._in_flight) < self.config.concurrency
                   and not scheduler.budget_spent()):
                document, node = scheduler.pop()
                task = loop.create_task(self._invoke_site(document, node))
                self._in_flight[task] = (document, node)
            if not self._in_flight:
                if scheduler.budget_spent() and (scheduler.has_fresh()
                                                 or scheduler.parked_count()):
                    stop = RunStatus.BUDGET_EXHAUSTED
                    break
                if scheduler.parked_count():
                    next_ready = scheduler.next_parked_ready()
                    assert next_ready is not None
                    # Sleep until the cooldown, but wake early on drain.
                    try:
                        await asyncio.wait_for(
                            asyncio.shield(drain_waiter),
                            timeout=max(next_ready - now, 0.001))
                    except asyncio.TimeoutError:
                        pass
                    continue
                break  # fixpoint: nothing fresh, in flight, or parked
            wait_timeout = (None if deadline_at is None
                            else max(deadline_at - now, 0.0))
            done, _ = await asyncio.wait(
                set(self._in_flight) | {drain_waiter}, timeout=wait_timeout,
                return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                if task is drain_waiter:
                    continue
                self._in_flight.pop(task, None)
                self._apply(task.result())
            self._maybe_checkpoint()

        if stop in (RunStatus.DEADLINE_EXHAUSTED, RunStatus.DRAINED):
            # Hard stop: cancel what is still in flight — but *flush*
            # outcomes of tasks that completed before the cancel landed
            # (past their last await point cancellation is ineffective;
            # dropping a computed outcome would waste a delivered answer).
            # Truly cancelled sites re-enter the untried frontier and keep
            # their incremental cutoffs out of later checkpoints.
            pending = list(self._in_flight)
            for task in pending:
                task.cancel()
            results = await asyncio.gather(*pending, return_exceptions=True)
            for task, result in zip(pending, results):
                site = self._in_flight.pop(task, None)
                if isinstance(result, _Outcome):
                    self._apply(result)
                elif site is not None:
                    cancelled += 1
                    scheduler.requeue(site)
                    self._dirty_cutoff_uids.add(site[1].uid)
        else:
            # Soft stop (budget) or fixpoint: let in-flight work land.
            while self._in_flight:
                done, _ = await asyncio.wait(
                    set(self._in_flight), return_when=asyncio.FIRST_COMPLETED)
                for task in done:
                    self._in_flight.pop(task, None)
                    self._apply(task.result())
                self._maybe_checkpoint()
        drain_waiter.cancel()
        try:
            await drain_waiter
        except asyncio.CancelledError:
            pass
        # A drain is consumed by the run it stopped: the same runtime can
        # ``arun`` again afterwards and keep going from the frontier.
        self._drain_requested = False
        self._drain_event = None

        if stop is None:
            # A clean fixpoint with dormant sites remaining is weak
            # q-stability: every goal query is fully answered, but the
            # dormant calls were never proven no-ops.
            stop = (RunStatus.DEGRADED if self.failures
                    else RunStatus.STABILIZED if scheduler.dormant_count()
                    else RunStatus.TERMINATED)
        if (self.checkpoint_every is not None
                or (stop is RunStatus.DRAINED
                    and self.checkpoint_path is not None)):
            # Periodic checkpointing, or the drain contract: a graceful
            # stop flushes the graft-log tail and the full frontier
            # (parked and cancelled sites included) to a final bundle.
            self.checkpoint()
        if self.absorb_metrics:
            absorb_runtime(self.metrics,
                           invocations_by_service=kernel.invocations_by_service)
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.RUN_FINISHED, engine="async",
                         status=stop.value, steps=kernel.steps,
                         productive=kernel.productive,
                         seconds=loop.time() - start,
                         **kernel.obs_labels)
        return RunResult(
            status=stop,
            steps=kernel.steps,
            productive=kernel.productive,
            invocations_by_service=dict(kernel.invocations_by_service),
            attempts=scheduler.attempts,
            failures=list(self.failures),
            duration_seconds=loop.time() - start,
            cancelled_in_flight=cancelled,
            metrics=self.metrics,
            checkpoints=kernel.checkpoints,
            resumed_from=kernel.resumed_from,
        )

    # -- one in-flight invocation ---------------------------------------

    async def _invoke_site(self, document: Document, node: Node) -> _Outcome:
        service: str = node.marking.name  # type: ignore[union-attr]
        site = node.uid
        # Causal propagation: one dict.get on the (normally empty) tag
        # map; a hit means this call node was grafted under a sampled
        # request and the whole invocation becomes a child span of it.
        site_ctx = self.kernel.site_traces.get(site)
        ctx = site_ctx.child() if site_ctx is not None else None
        span_start = time.perf_counter() if ctx is not None else 0.0
        try:
            peer = self.transport.peer_of(service)
        except TransportError as exc:
            return _Outcome(document, node, error=exc, trace=ctx)
        key = (peer, service)
        attempts = self._site_attempts.get(site, 0)

        while True:
            assert self._loop is not None
            allowed, wait = self.breaker.allow(key, self._loop.time())
            if not allowed:
                self.metrics.short_circuits += 1
                if obs_bus.ACTIVE:
                    obs_bus.emit(obs_events.SHORT_CIRCUIT, service=service,
                                 site=site, wait=wait,
                                 **self.kernel.obs_labels)
                return _Outcome(document, node, parked_for=wait)
            try:
                path = call_path(document, node)
            except StaleCallError:
                return _Outcome(document, node, stale=True)
            read_stamp = self.kernel.read_stamp(node)
            request = CallRequest(
                service=service,
                site=site,
                input_tree=build_input_tree(node),
                context_tree=path[-2],
                caller_document=document.name,
            )
            attempts += 1
            self._site_attempts[site] = attempts
            self.scheduler.note_attempt()
            self.metrics.record_attempt(service)
            fault = (self.injector.decide(service, site, attempts)
                     if self.injector is not None else NO_FAULT)
            started = self._loop.time()
            if obs_bus.ACTIVE:
                obs_bus.emit(obs_events.ATTEMPT_STARTED,
                             document=document.name, service=service,
                             site=site, attempt=attempts,
                             **self.kernel.obs_labels)
            self.metrics.enter_flight()
            try:
                forest = await self._attempt_once(request, fault)
            except (TransportTimeout, TransientServiceError) as exc:
                self.metrics.exit_flight()
                timed_out = isinstance(exc, TransportTimeout)
                self.metrics.record_failure(service, timeout=timed_out)
                if obs_bus.ACTIVE:
                    obs_bus.emit(obs_events.ATTEMPT_FAILED,
                                 document=document.name, service=service,
                                 site=site, attempt=attempts,
                                 seconds=self._loop.time() - started,
                                 reason=str(exc), timeout=timed_out,
                                 **self.kernel.obs_labels)
                if self.breaker.record_failure(key, self._loop.time()):
                    self.metrics.record_trip()
                    if obs_bus.ACTIVE:
                        obs_bus.emit(obs_events.CIRCUIT_TRIP,
                                     peer=str(key[0]), service=service)
                if attempts >= self.config.max_attempts:
                    self.metrics.record_exhausted(service)
                    if ctx is not None:
                        obs_trace.emit_span(
                            ctx, f"invoke:!{service}", span_start,
                            time.perf_counter(), status="error",
                            site=site, attempts=attempts, reason=str(exc))
                    return _Outcome(document, node, error=exc,
                                    attempts=attempts, trace=ctx)
                if self.scheduler.budget_spent():
                    return _Outcome(document, node, aborted=True,
                                    attempts=attempts, trace=ctx)
                self.metrics.record_retry(service)
                delay = self.retry.delay(service, site, attempts)
                if obs_bus.ACTIVE:
                    obs_bus.emit(obs_events.RETRY, service=service, site=site,
                                 attempt=attempts, delay=delay,
                                 **self.kernel.obs_labels)
                await asyncio.sleep(delay)
                continue
            except TransportError as exc:
                self.metrics.exit_flight()
                if obs_bus.ACTIVE:
                    obs_bus.emit(obs_events.ATTEMPT_FAILED,
                                 document=document.name, service=service,
                                 site=site, attempt=attempts,
                                 seconds=self._loop.time() - started,
                                 reason=str(exc), timeout=False,
                                 **self.kernel.obs_labels)
                if ctx is not None:
                    obs_trace.emit_span(
                        ctx, f"invoke:!{service}", span_start,
                        time.perf_counter(), status="error",
                        site=site, attempts=attempts, reason=str(exc))
                return _Outcome(document, node, error=exc, attempts=attempts,
                                trace=ctx)
            self.metrics.exit_flight()
            self.metrics.record_success(service, self._loop.time() - started)
            if obs_bus.ACTIVE:
                obs_bus.emit(obs_events.ATTEMPT_FINISHED,
                             document=document.name, service=service,
                             site=site, attempt=attempts,
                             seconds=self._loop.time() - started,
                             answers=len(forest),
                             **self.kernel.obs_labels)
            self.breaker.record_success(key)
            self._site_attempts.pop(site, None)
            deliveries = ([forest, forest]
                          if fault.kind is FaultKind.DUPLICATE else [forest])
            if ctx is not None:
                obs_trace.emit_span(
                    ctx, f"invoke:!{service}", span_start,
                    time.perf_counter(), site=site, attempts=attempts,
                    answers=len(forest))
            return _Outcome(document, node, read_stamp=read_stamp,
                            deliveries=deliveries, attempts=attempts,
                            trace=ctx)

    async def _attempt_once(self, request: CallRequest, fault: Fault) -> Forest:
        timeout = self.config.call_timeout
        if timeout is None and fault.kind is FaultKind.DROP:
            # With no deadline nothing would ever cancel the wait for a
            # dropped response; surface the loss immediately instead.
            raise TransportTimeout(
                f"response for {request.service!r} dropped (no call timeout)")
        coroutine = self._faulted_call(request, fault)
        if timeout is None:
            return await coroutine
        try:
            return await asyncio.wait_for(coroutine, timeout)
        except asyncio.TimeoutError:
            raise TransportTimeout(
                f"call to {request.service!r} exceeded {timeout}s") from None

    async def _faulted_call(self, request: CallRequest, fault: Fault) -> Forest:
        if fault.kind is FaultKind.ERROR:
            raise TransientServiceError(
                f"injected transient error calling {request.service!r}")
        if fault.kind is FaultKind.DROP:
            await _never()
        if fault.kind is FaultKind.DELAY:
            await asyncio.sleep(fault.delay)
        return await self.transport.call(request)

    # -- the single-writer apply step -----------------------------------

    def _apply(self, out: _Outcome) -> None:
        assert self._loop is not None
        kernel = self.kernel
        scheduler = self.scheduler
        if out.parked_for is not None:
            scheduler.park((out.document, out.node),
                           self._loop.time() + out.parked_for)
            return
        if out.stale:
            self.metrics.stale_calls += 1
            if obs_bus.ACTIVE:
                obs_bus.emit(obs_events.STALE_CALL,
                             document=out.document.name,
                             service=out.node.marking.name,  # type: ignore[union-attr]
                             site=out.node.uid, **kernel.obs_labels)
            self._forget(out.node)
            return
        if out.aborted:
            # Unresolved: put the site back so the budget status is honest.
            scheduler.requeue((out.document, out.node))
            return
        service: str = out.node.marking.name  # type: ignore[union-attr]
        kernel.note_invocation(service)
        if out.error is not None:
            self.failures.append(CallFailure(
                document=out.document.name, service=service,
                site=out.node.uid, attempts=out.attempts,
                reason=str(out.error)))
            if obs_bus.ACTIVE:
                obs_bus.emit(obs_events.CALL_EXHAUSTED,
                             document=out.document.name, service=service,
                             site=out.node.uid, attempts=out.attempts,
                             reason=str(out.error), **kernel.obs_labels)
            self._forget(out.node)
            return
        try:
            path = call_path(out.document, out.node)
        except StaleCallError:
            self.metrics.stale_calls += 1
            self._forget(out.node)
            return
        fresh = out.read_stamp == kernel.read_stamp(out.node)
        if out.trace is not None:
            # Re-activate the invocation's span around the graft so the
            # kernel stamps the record (and the freshly grafted call
            # sites) with the causing chain.
            token = obs_trace.activate(out.trace)
            try:
                inserted = kernel.apply_graft(out.document, out.node, path,
                                              out.deliveries,
                                              metrics=self.metrics)
            finally:
                obs_trace.restore(token)
        else:
            inserted = kernel.apply_graft(out.document, out.node, path,
                                          out.deliveries,
                                          metrics=self.metrics)
        if fresh and kernel.maybe_retire(out.document, out.node):
            # Fire-once: the outcome reflects the pre-apply state (nothing
            # it reads grew since its snapshot), the site's feeders are
            # quiesced and its service is provably single-shot — it is
            # complete.
            return
        if inserted:
            scheduler.requeue((out.document, out.node))
        elif fresh:
            # Proven no-op on the current state: counts toward termination.
            scheduler.mark_tried((out.document, out.node))
        else:
            # The verdict is stale — something this call reads grew since
            # it read its snapshot; it must be re-examined (fairness).
            scheduler.requeue((out.document, out.node))

    def _forget(self, node: Node) -> None:
        self.scheduler.forget(node)
        self._site_attempts.pop(node.uid, None)
        self.kernel.site_traces.pop(node.uid, None)


def materialize_async(system: AXMLSystem, *,
                      transport: Optional[Transport] = None,
                      config: Optional[RuntimeConfig] = None,
                      injector: Optional[FaultInjector] = None,
                      lazy_for: Optional[Sequence] = None,
                      fire_once: bool = False,
                      **config_kwargs) -> RunResult:
    """Convenience wrapper: concurrently rewrite ``system`` toward ``[I]``.

    Keyword arguments other than ``transport``/``config``/``injector``/
    ``lazy_for``/``fire_once`` are forwarded to :class:`RuntimeConfig`
    (e.g. ``concurrency=8``, ``deadline=2.0``).  Must not be called from
    inside a running event loop — use :meth:`AsyncRuntime.arun` there.
    """
    if config is not None and config_kwargs:
        raise ValueError("pass either a config object or config kwargs")
    if config is None:
        config = RuntimeConfig(**config_kwargs)
    runtime = AsyncRuntime(system, transport=transport, config=config,
                           injector=injector, lazy_for=lazy_for,
                           fire_once=fire_once)
    return runtime.run()


def materialize_peers_async(peers: Sequence[Peer], *,
                            latency=None,
                            config: Optional[RuntimeConfig] = None,
                            injector: Optional[FaultInjector] = None,
                            **config_kwargs) -> RunResult:
    """Concurrently drive a peer federation to global quiescence."""
    if config is not None and config_kwargs:
        raise ValueError("pass either a config object or config kwargs")
    if config is None:
        config = RuntimeConfig(**config_kwargs)
    runtime = AsyncRuntime.for_peers(list(peers), latency=latency,
                                     config=config, injector=injector)
    return runtime.run()
