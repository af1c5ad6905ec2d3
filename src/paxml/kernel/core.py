"""The shared evaluation kernel both engines run on.

An :class:`EvaluationKernel` owns everything the sequential rewriting
engine and the concurrent async runtime used to duplicate:

* the two-queue fair :class:`~paxml.kernel.scheduler.CallScheduler`;
* the run counters — completed invocations (``steps``), productive
  grafts (``productive``) and the per-service invocation tally;
* :meth:`read_stamp`, the staleness test of no-op verdicts: a verdict
  computed when a call's read stamp was s is evidence for termination
  only while the stamp is still s (see :mod:`paxml.kernel.scheduler`).
  The stamp covers exactly what the call reads, so a graft into one
  document leaves the verdicts of calls that do not read it standing.
  A kernel without a system falls back to ``productive``, which every
  productive graft moves;
* :meth:`apply_graft`, the single choke point through which every
  document mutation of a run flows.  It grafts the delivered forests
  (optionally deduplicating per-site by canonical key, the async
  at-least-once path), emits the ``graft_applied`` event, appends the
  transactional :class:`~paxml.kernel.graft.GraftRecord`, wakes the
  no-op verdicts the graft can void and schedules freshly grafted
  calls — so event emission, graft logging and index maintenance can
  never drift apart between engines;
* :meth:`checkpoint` — snapshot the whole mid-run state (documents,
  scheduler frontier, graft-log tail, incremental per-site cutoffs) to a
  JSONL bundle that :func:`paxml.kernel.checkpoint.resume` can
  reconstruct *either* engine from.  Theorem 2.1 (order-independence of
  the limit ``[I]``) is what makes this sound: a checkpointed frontier
  is just the state after one fair prefix, and any fair continuation —
  sequential, concurrent, or replayed — converges to the same ``[I]``.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import perf
from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..obs import trace as obs_trace
from ..obs.provenance import graft_record
from ..system.invocation import find_path, graft_answers, graft_under
from ..system.system import AXMLSystem
from ..tree.document import Document, Forest
from ..tree import store as tree_store
from ..tree.node import Node, current_stamp
from ..tree.reduction import canonical_key
from ..tree.serializer import to_wire
from .graft import GraftLog, GraftRecord, encode_batch
from .scheduler import CallScheduler, ReadSets, Site

BUNDLE_FORMAT = 2

# The pseudo-service name graft records use for externally injected trees
# (the serve layer's client-driven document updates).  Replay resolves such
# records by grafting under the recorded *parent* uid instead of requiring
# a live call node.
EXTERNAL_SERVICE = "__external__"


class EvaluationKernel:
    """Shared scheduling, counting, grafting and checkpointing state.

    ``promote_front`` / ``dedup_delivered`` encode the two behavioural
    differences between the engines (promotion order of proven no-ops,
    and per-site canonical-key dedup for at-least-once transports); both
    are plain capabilities here, so either engine could opt into either.
    """

    def __init__(self, system: Optional[AXMLSystem] = None, *,
                 sites: Optional[Sequence[Site]] = None,
                 policy: str = "round_robin",
                 seed: Optional[int] = None,
                 suppressed: Optional[Iterable[Node]] = None,
                 budget: Optional[int] = None,
                 promote_front: bool = True,
                 dedup_delivered: bool = False):
        self.system = system
        self.scheduler = CallScheduler(policy, seed=seed, suppressed=suppressed,
                                       budget=budget,
                                       promote_front=promote_front)
        self.log = GraftLog(retain=perf.flags.graft_log)
        self.dedup_delivered = dedup_delivered
        self.steps = 0
        self.productive = 0
        self.invocations_by_service: Dict[str, int] = {}
        self.checkpoints = 0
        self.resumed_from: Optional[str] = None
        self._delivered: Dict[int, Set[object]] = {}
        # Documents the kernel can snapshot: the system's, or those behind
        # the explicit sites (an engine driving a transport without a
        # local system cannot be checkpointed).
        self.documents: Dict[str, Document] = {}
        if system is not None:
            self.documents = system.documents
            self.scheduler.read_sets = ReadSets(system)
            if sites is None:
                sites = list(system.call_sites())
        elif sites is not None:
            for document, _ in sites:
                self.documents.setdefault(document.name, document)
        if sites is None:
            raise ValueError("need a system or explicit call sites")
        for document, node in sites:
            self.scheduler.enqueue(document, node)
        # Seed snapshot for graft-log replay, captured lazily right before
        # the first mutation (documents are still the seed then); runs
        # that never graft pay nothing.
        self._seed_wire: Optional[Dict[str, dict]] = None
        # Post-graft observers, called as hook(document, node, inserted)
        # after every productive graft transaction commits (engine grafts
        # and external injections alike).  The serve layer's subscription
        # hub hangs off this; hooks run synchronously on the applying
        # thread/task, so they see a consistent post-graft state.
        self.graft_hooks: List = []
        # Causal-trace plumbing (paxml.obs.trace).  ``site_traces`` maps
        # call-node uid → the TraceContext active when that node was
        # grafted in: the runtime re-activates it when it later invokes
        # the node, so the chain continues transitively (inject → graft
        # → scheduled call → graft → ...).  Unsampled runs never insert,
        # so the per-invocation lookup is a dict.get on an empty dict.
        # ``obs_labels`` holds static identity labels (e.g. tenant) the
        # owning session wants stamped onto this kernel's events.
        self.site_traces: Dict[int, obs_trace.TraceContext] = {}
        self.obs_labels: Dict[str, str] = {}
        # Lazy scheduling (PR 10): the incremental weak-relevance tracker
        # seeded from the registered query set, and the fire-once policy's
        # per-service feeder sets.  Both stay None/empty until a caller
        # opts in via enable_lazy / enable_fire_once.
        self.relevance_tracker = None
        self.lazy_queries: List = []
        self.fire_once = False
        self._fire_once_feeders: Dict[str, frozenset] = {}

    # ------------------------------------------------------------------
    # lazy scheduling and fire-once (Section 4 as runtime policy)
    # ------------------------------------------------------------------

    def enable_lazy(self, queries: Sequence) -> bool:
        """Install (or reseed) relevance-guided scheduling for ``queries``.

        The goal set is the registered queries; call sites not weakly
        relevant to any of them are parked dormant and never invoked
        until a graft makes them relevant (the kernel's graft hook feeds
        the tracker incrementally).  Passing a new query set *reseeds*
        the tracker — the one operation that can shrink relevance — and
        reconciles the queues in both directions.

        No-op returning ``False`` when ``perf.flags.lazy_scheduling`` is
        off (the equivalence-oracle configuration: the run stays eager).
        """
        if not perf.flags.lazy_scheduling:
            return False
        if self.system is None:
            raise ValueError("lazy scheduling needs a local system")
        from ..analysis.relevance import RelevanceTracker
        self.lazy_queries = list(queries)
        if self.relevance_tracker is None:
            self.relevance_tracker = RelevanceTracker(self.system,
                                                      self.lazy_queries)
            self.scheduler.relevance = self._site_relevant
            self.graft_hooks.append(self._relevance_hook)
            self._reconcile_relevance("seed")
        else:
            self.relevance_tracker.reseed(self.lazy_queries)
            self._reconcile_relevance("reseed")
        return True

    # The serve layer's subscribe/unsubscribe path: same operation, the
    # name records the intent.
    reseed_lazy = enable_lazy

    def disable_lazy(self) -> int:
        """Tear lazy mode down; wakes and returns the dormant count."""
        self.relevance_tracker = None
        self.lazy_queries = []
        self.scheduler.relevance = None
        if self._relevance_hook in self.graft_hooks:
            self.graft_hooks.remove(self._relevance_hook)
        return self.scheduler.wake_all_dormant()

    def _site_relevant(self, node: Node) -> bool:
        tracker = self.relevance_tracker
        return tracker is None or tracker.is_relevant(node)

    def _relevance_hook(self, document: Document, node: Node,
                        inserted: Sequence[Node]) -> None:
        """Graft observer: absorb the delta, wake newly relevant sites."""
        tracker = self.relevance_tracker
        if tracker is None:
            return
        newly = tracker.on_graft(document, node, inserted)
        if not newly:
            return
        promoted = self.scheduler.promote(newly)
        if promoted and obs_bus.ACTIVE:
            obs_bus.emit(obs_events.RELEVANCE_CHANGED, reason="graft",
                         promoted=promoted, demoted=0,
                         relevant=len(tracker),
                         dormant=self.scheduler.dormant_count(),
                         **self.obs_labels)

    def refresh_relevance(self, document: Document, node: Node,
                          inserted: Sequence[Node]) -> None:
        """Absorb an out-of-band graft (e.g. a shard replica record).

        Shard workers apply replicated records below :meth:`apply_graft`
        (no hooks run), so they hand the delta to the tracker explicitly.
        ``node`` is the record's site: the call for an engine graft, the
        parent for an external one.
        """
        self._relevance_hook(document, node, inserted)

    def _reconcile_relevance(self, reason: str) -> None:
        """Two-way queue/tracker reconciliation after a (re)seed."""
        tracker = self.relevance_tracker
        promoted = self.scheduler.promote(tracker.relevant_uids)
        demoted = self.scheduler.demote_irrelevant()
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.RELEVANCE_CHANGED, reason=reason,
                         promoted=promoted, demoted=demoted,
                         relevant=len(tracker),
                         dormant=self.scheduler.dormant_count(),
                         **self.obs_labels)

    def enable_fire_once(self) -> bool:
        """Precompute the fire-once policy from the dependency graph.

        A service ``f`` is *eligible* when it cannot transitively reach a
        dependency cycle (Definition 3.2's graph): then no ``f`` site can
        feed itself or another ``f`` site.  A completed invocation of an
        eligible site may be retired for good once every function
        reachable from ``f`` — exactly the ones whose outputs could still
        feed ``f``'s reads — has no live site left (``live_count`` 0).
        Extra graph edges only enlarge reachable sets, so the test is
        conservative, hence sound.  External injections revive the whole
        retired set (:meth:`apply_external`): new outside data may feed
        anything.
        """
        if not perf.flags.lazy_scheduling or self.system is None:
            return False
        from ..system.dependency import dependency_graph
        graph = dependency_graph(self.system)
        recursive = graph.recursive_functions()
        feeders: Dict[str, frozenset] = {}
        for fname in self.system.services:
            if fname in recursive:
                continue
            seen: Set[str] = set()
            stack = [fname]
            while stack:
                vertex = stack.pop()
                for succ in graph.successors(vertex):
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
            feeders[fname] = frozenset(
                g for g in seen if g in graph.functions and g != fname)
        self._fire_once_feeders = feeders
        self.fire_once = bool(feeders)
        return self.fire_once

    def maybe_retire(self, document: Document, node: Node) -> bool:
        """Retire a just-completed site under the fire-once policy.

        Callers guarantee the completed verdict reflects the *current*
        state (the sequential engine trivially; the async runtime only
        calls this for outcomes whose read stamp has not moved).
        """
        if not self.fire_once:
            return False
        feeders = self._fire_once_feeders.get(
            node.marking.name)  # type: ignore[union-attr]
        if feeders is None:
            return False
        if any(self.scheduler.live_count(g) for g in feeders):
            return False
        self.scheduler.retire((document, node))
        return True

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------

    def read_stamp(self, node: Node) -> int:
        """The call's read stamp: it moves when something the call reads
        grows (``productive`` when the kernel has no system)."""
        reads = self.scheduler.read_sets
        return self.productive if reads is None else reads.stamp(node)

    def note_invocation(self, service: str) -> None:
        """Count one completed invocation (any verdict) of ``service``."""
        self.steps += 1
        self.invocations_by_service[service] = (
            self.invocations_by_service.get(service, 0) + 1)

    # ------------------------------------------------------------------
    # the graft choke point
    # ------------------------------------------------------------------

    def _capture_seed(self) -> None:
        if self._seed_wire is None and self.documents:
            self._seed_wire = {name: to_wire(doc.root)
                               for name, doc in self.documents.items()}

    def apply_graft(self, document: Document, node: Node, path: List[Node],
                    deliveries: Sequence[Forest],
                    metrics=None) -> List[Node]:
        """Apply one invocation's answer deliveries transactionally.

        Grafts every delivered forest at the call site (``path`` is the
        root-to-call path), then — iff anything was inserted — performs
        the whole productive-step transaction: counter bump, event
        emission, graft-log append, dropping the tried and dormant calls
        inside the subtrees the graft pruned, waking the no-op verdicts
        of calls that read what grew, and scheduling of freshly grafted
        calls.  Returns the inserted trees.

        ``deliveries`` may hold several forests (duplicate deliveries of
        an at-least-once transport); with ``dedup_delivered`` answer
        trees already delivered to this site are skipped by canonical
        key before grafting.  ``metrics`` is an optional
        :class:`~paxml.runtime.metrics.RuntimeMetrics` to tally
        duplicates/dedups/grafts on.
        """
        if self.log.retain:
            self._capture_seed()
        service: str = node.marking.name  # type: ignore[union-attr]
        delivered = (self._delivered.setdefault(node.uid, set())
                     if self.dedup_delivered else None)
        inserted_all: List[Node] = []
        pruned: List[Node] = []
        for index, forest in enumerate(deliveries):
            if index and metrics is not None:
                metrics.duplicate_deliveries += 1
            if delivered is None:
                novel = list(forest)
            else:
                novel = []
                for tree in forest:
                    tree_key = canonical_key(tree)
                    if tree_key in delivered:
                        if metrics is not None:
                            metrics.answers_deduplicated += 1
                        continue
                    delivered.add(tree_key)
                    novel.append(tree)
            if novel:
                inserted_all.extend(graft_answers(path, novel, pruned))
        if not inserted_all:
            return inserted_all

        self.productive += 1
        if metrics is not None:
            metrics.grafts_applied += 1
        trace_wire = self._stamp_trace(inserted_all)
        obs_records: Optional[List[dict]] = None
        if obs_bus.ACTIVE:
            obs_records = [graft_record(t) for t in inserted_all]
            obs_bus.emit(obs_events.GRAFT_APPLIED, document=document.name,
                         service=service, site=node.uid, step=self.steps - 1,
                         trees=obs_records, **self._event_labels(trace_wire))
        if self.log.retain:
            self.log.append(GraftRecord(
                step=self.steps - 1, document=document.name, service=service,
                site=node.uid, trees=[to_wire(t) for t in inserted_all],
                obs=obs_records, trace=trace_wire))
        self.scheduler.drop_pruned(pruned)
        self.scheduler.wake_tried(document.name)
        self.scheduler.enqueue_trees(document, inserted_all)
        self._notify_graft(document, node, inserted_all)
        return inserted_all

    def apply_external(self, document: Document, parent: Node,
                       trees: Sequence[Node]) -> List[Node]:
        """Graft externally supplied ``trees`` as children of ``parent``.

        The serve layer's injection path: a client pushes new subtrees
        into a live document (Genest et al.'s external events).  Runs the
        same productive-step transaction as :meth:`apply_graft` — counter
        bump, event emission, graft-log append (under the
        :data:`EXTERNAL_SERVICE` pseudo-service with the *parent* uid as
        the site), waking the no-op verdicts of calls that read what grew,
        scheduling of grafted calls,
        hook notification — so external updates replay, checkpoint and
        fan out exactly like engine grafts.  Trees are copied before
        grafting; returns the copies actually inserted.
        """
        if self.log.retain:
            self._capture_seed()
        path = find_path(document.root, parent)
        if path is None:
            raise ValueError(
                f"node uid={parent.uid} is not part of document "
                f"{document.name!r}")
        pruned: List[Node] = []
        inserted = graft_under(path, [tree.copy() for tree in trees], pruned)
        if not inserted:
            return inserted
        self.productive += 1
        trace_wire = self._stamp_trace(inserted)
        obs_records: Optional[List[dict]] = None
        if obs_bus.ACTIVE:
            obs_records = [graft_record(t) for t in inserted]
            obs_bus.emit(obs_events.GRAFT_APPLIED, document=document.name,
                         service=EXTERNAL_SERVICE, site=parent.uid,
                         step=self.steps, trees=obs_records,
                         **self._event_labels(trace_wire))
        if self.log.retain:
            self.log.append(GraftRecord(
                step=self.steps, document=document.name,
                service=EXTERNAL_SERVICE, site=parent.uid,
                trees=[to_wire(t) for t in inserted], obs=obs_records,
                trace=trace_wire))
        self.scheduler.drop_pruned(pruned)
        self.scheduler.wake_tried(document.name)
        self.scheduler.enqueue_trees(document, inserted)
        if self.fire_once:
            # Outside data invalidates every retirement proof: a retired
            # site's reads may now grow again, so the whole set revives.
            self.scheduler.unretire_all()
        self._notify_graft(document, parent, inserted)
        return inserted

    def _stamp_trace(self, inserted: List[Node]) -> Optional[dict]:
        """Stamp the active trace context onto a committed graft.

        Tags every call node inside the inserted trees with the context
        (so their later invocations continue the trace) and returns the
        wire dict for the GraftRecord/event.  ``None`` — one ContextVar
        read — on the untraced path.
        """
        ctx = obs_trace.current()
        if ctx is None:
            return None
        for tree in inserted:
            for tagged in tree.iter_nodes():
                if tagged.is_function:
                    self.site_traces[tagged.uid] = ctx
        return ctx.to_wire()

    def _event_labels(self, trace_wire: Optional[dict]) -> Dict[str, object]:
        """Identity labels merged into this kernel's bus events."""
        labels: Dict[str, object] = dict(self.obs_labels)
        if trace_wire is not None:
            labels["trace_id"] = trace_wire["trace_id"]
            labels["span_id"] = trace_wire["span_id"]
        return labels

    def _notify_graft(self, document: Document, node: Node,
                      inserted: List[Node]) -> None:
        """Run every graft hook as ``hook(document, node, inserted)``.

        ``node`` is the graft *site*, and its meaning depends on the path:
        the call node from :meth:`apply_graft`, the parent from
        :meth:`apply_external`, and either from a shard replica record
        (:meth:`refresh_relevance`).  A hook that needs the node the trees
        were grafted under must read each inserted tree's ``parent``.
        """
        for hook in self.graft_hooks:
            hook(document, node, inserted)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, path: str, *, engine: str = "sequential",
                   extra_fresh: Sequence[Site] = (),
                   exclude_sites: Iterable[int] = ()) -> str:
        """Write the full mid-run state to a JSONL bundle at ``path``.

        ``extra_fresh`` are in-flight sites (their outcomes die with the
        process, so they re-enter the frontier untried); ``exclude_sites``
        are the call uids whose incremental per-site cutoffs must *not*
        be persisted — an in-flight evaluation may have advanced the
        evaluator's cutoff past answers that never landed, and persisting
        it would lose them.  Excluded sites simply restart from a full
        evaluation on resume, which is always sound.

        The write is atomic (temp file + rename): a crash mid-checkpoint
        leaves the previous bundle intact.
        """
        if not self.documents:
            raise ValueError("this kernel has no local documents to snapshot")
        if self.log.retain:
            self._capture_seed()
        exclude = set(exclude_sites)
        records: List[dict] = [{
            "kind": "header",
            "format": BUNDLE_FORMAT,
            "engine": engine,
            "steps": self.steps,
            "productive": self.productive,
            "invocations_by_service": dict(self.invocations_by_service),
            "clock": current_stamp(),
            "graft_log": self.log.retain,
            "base_step": self.log.base_step,
            "checkpoints": self.checkpoints + 1,
            "resumed_from": self.resumed_from,
            "dedup_delivered": self.dedup_delivered,
            "promote_front": self.scheduler.promote_front,
            # Lazy-scheduling seed: the registered goal queries (resume
            # re-derives relevance from them) and the fire-once bit.
            "lazy_queries": ([str(q) for q in self.lazy_queries]
                             if self.relevance_tracker is not None else None),
            "fire_once": self.fire_once,
            # Snapshot of the marking intern table's size at checkpoint
            # time.  Node memos are derived data — restored trees derive
            # them when first read — so this is diagnostic, not restored
            # state.
            "store": tree_store.store_sizes(),
        }]
        if self.system is not None:
            for name, service in sorted(self.system.services.items()):
                if getattr(service, "is_positive", False):
                    records.append({"kind": "service", "name": name,
                                    "rules": [str(q) for q in service.queries]})
                else:
                    records.append({"kind": "service", "name": name,
                                    "opaque": True})
        for name in sorted(self.documents):
            records.append({"kind": "document", "name": name,
                            "tree": to_wire(self.documents[name].root)})
        if self._seed_wire is not None:
            for name in sorted(self._seed_wire):
                records.append({"kind": "seed", "name": name,
                                "tree": self._seed_wire[name]})
        records.append({"kind": "frontier",
                        **self.scheduler.frontier(extra_fresh)})
        for site_record in self._export_site_states(exclude):
            records.append(site_record)
        if len(self.log):
            # The graft tail dominates bundle size, so it rides as one
            # packed PXG1 batch (format 2).  Loaders still accept the
            # format-1 spelling — one readable ``graft`` record per line.
            packed = base64.b64encode(
                encode_batch(self.log.records)).decode("ascii")
            records.append({"kind": "grafts", "count": len(self.log),
                            "packed": packed})

        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                for record in records:
                    handle.write(json.dumps(record, separators=(",", ":")))
                    handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        self.checkpoints += 1
        perf.stats.checkpoints_written += 1
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.CHECKPOINT_SAVED, path=path, engine=engine,
                         steps=self.steps, productive=self.productive,
                         grafts=len(self.log))
        return path

    def _export_site_states(self, exclude: Set[int]) -> List[dict]:
        """Per-site incremental cutoffs worth persisting.

        Only the cutoff stamp is persisted — not the assignment or result
        caches.  Restoring ``(cutoff, empty caches)`` is sound: answers
        delivered before the checkpoint are already inside the restored
        documents (duplicates re-derived after resume drop by antichain
        subsumption), and because every restored node has
        ``version <= cutoff``, the first post-resume delta evaluation
        joins against an empty delta — re-verification is nearly free.
        Sites of services that read ``input`` are skipped: their cached
        environment includes the per-call input tree, whose identity does
        not survive the process boundary.
        """
        if self.system is None:
            return []
        records: List[dict] = []
        for name, service in sorted(self.system.services.items()):
            for rule_index, site, cutoff in service.export_site_cutoffs():
                if site in exclude or not isinstance(site, int):
                    continue
                records.append({"kind": "site", "service": name,
                                "rule": rule_index, "site": site,
                                "cutoff": cutoff})
        return records
