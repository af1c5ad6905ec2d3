"""The shared two-queue fair call scheduler.

Both engines used to carry their own copy of the same machinery —
``_fresh``/``_tried`` deques, an enqueued-uid set, ``_promote_tried`` —
plus async-only extras (parking for circuit-breaker cooldowns, an attempt
budget).  This class is that machinery extracted once, with the extras
folded in behind capabilities that the sequential engine simply never
uses.

Invariant (the termination certificate of both engines): ``_tried`` holds
exactly the live calls proven to be no-ops since the last growth of
anything they read.  A run terminates when ``_fresh`` is empty and
nothing is in flight or parked — every live call is then a proven no-op
on the current state, so no fair continuation can add data (Theorem 2.1
makes the limit order-independent, which is also what lets a
checkpointed frontier be resumed by *either* engine).

What a call reads is Definition 3.2's read set: the documents its service
reads (``Service.reads_documents()``), plus its own parameters if it
reads ``input`` and its parent's subtree if it reads ``context``.
:class:`ReadSets` folds the versions of those trees into one *read
stamp*.  ``Node.touch`` gives every ancestor of a grown node a fresh
global stamp and reduction never touches, so the stamp moves exactly
when something the call reads grows, and by monotonicity (Proposition
3.1) a no-op verdict holds until then.  A tried site keeps the stamp its
verdict was proven on and sits in one bucket per document it can be fed
through: the documents it reads, and the document it lives in when it
reads ``input`` or ``context``.  A productive graft into document ``D``
(:meth:`CallScheduler.wake_tried`) re-checks only ``D``'s bucket and
wakes the entries whose stamp moved; every other verdict stands.  A
scheduler without read sets (a kernel over a peer federation, whose
document names are per peer) and shard replica application wake every
tried site instead (:meth:`CallScheduler.promote_tried`).

Scheduling is O(1) amortised: a step pops from ``_fresh`` in O(1), the
termination test is ``not _fresh``, and a productive step scans one
bucket — each entry is woken at most once per productive step.
``promote_front`` controls whether woken entries re-enter ahead of the
untried remainder (the sequential engine's historical order) or behind
it (the async runtime's); both orders are fair.
"""

from __future__ import annotations

import random
from collections import deque
from typing import (Callable, Container, Deque, Dict, Iterable, List,
                    Optional, Sequence, Set, Tuple)

from .. import perf
from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..tree.document import CONTEXT, INPUT, Document
from ..tree.node import Node

Site = Tuple[Document, Node]

SchedulerPolicy = str  # "round_robin" | "random" | "lifo"

POLICIES = ("round_robin", "random", "lifo")

# A tried entry: the site, the read stamp its no-op verdict was proven
# on, and the buckets (document names) it is filed under.
_TriedEntry = Tuple[Site, int, Tuple[str, ...]]


class ReadSets:
    """What each call of a system reads, and its read stamp.

    Built by the kernel from its system.  Per service name it keeps the
    documents the service reads and whether it reads ``input`` and
    ``context``; a call whose service is not (or no longer) declared is
    taken to read everything.
    """

    def __init__(self, system):
        self.system = system
        # service name -> (service, documents read, their names,
        #                  reads input, reads context)
        self._plans: Dict[str, Tuple[object, Tuple[Document, ...],
                                     Tuple[str, ...], bool, bool]] = {}

    def _plan(self, node: Node) -> Tuple[object, Tuple[Document, ...],
                                          Tuple[str, ...], bool, bool]:
        name = node.marking.name  # type: ignore[union-attr]
        service = self.system.services.get(name)
        plan = self._plans.get(name)
        if plan is None or plan[0] is not service:
            reads = (service.reads_documents() if service is not None
                     else set(self.system.documents) | {INPUT, CONTEXT})
            documents = tuple(document for doc_name, document
                              in self.system.documents.items()
                              if doc_name in reads)
            plan = (service, documents, tuple(d.name for d in documents),
                    INPUT in reads, CONTEXT in reads)
            self._plans[name] = plan
        return plan

    def stamp(self, node: Node) -> int:
        """The largest version among the trees the call at ``node`` reads."""
        _, documents, _, reads_input, reads_context = self._plan(node)
        stamp = node.version if reads_input else -1
        if reads_context and node.parent is not None \
                and node.parent.version > stamp:
            stamp = node.parent.version
        for document in documents:
            if document.root.version > stamp:
                stamp = document.root.version
        return stamp

    def buckets(self, site: Site) -> Tuple[str, ...]:
        """The documents whose grafts can move the site's stamp."""
        document, node = site
        _, _, names, reads_input, reads_context = self._plan(node)
        if (reads_input or reads_context) and document.name not in names:
            return names + (document.name,)
        return names


class CallScheduler:
    """Two-queue fair scheduling over live call sites (see module docstring).

    Capabilities beyond the core two queues:

    * ``park(site, ready_at)`` / ``unpark(now)`` — a site held back until a
      circuit-breaker cooldown expires (async runtime);
    * ``budget`` / ``note_attempt()`` / ``budget_spent()`` — a global
      attempt budget (async runtime's ``max_invocations``);
    * ``suppressed`` — call nodes excluded from scheduling entirely, which
      is how ``[I↓N]`` runs are driven (sequential engine);
    * ``relevance`` — an optional predicate over call nodes (the lazy
      kernel installs the weak-relevance test): sites failing it are
      *dormant* — tracked but never popped — until :meth:`promote`
      wakes them.  Quiescence with dormant sites remaining is weak
      q-stability, not full termination;
    * ``retire(site)`` — the fire-once policy's terminal state: a retired
      site is never re-enqueued (but :meth:`unretire_all` can revive the
      whole set when external data arrives);
    * ``read_sets`` — installed by a kernel that owns a system: tried
      sites then carry read stamps and :meth:`wake_tried` wakes only
      those a graft can feed.
    """

    def __init__(self, policy: SchedulerPolicy = "round_robin",
                 seed: Optional[int] = None,
                 suppressed: Optional[Iterable[Node]] = None,
                 budget: Optional[int] = None,
                 promote_front: bool = True):
        if policy not in POLICIES:
            raise ValueError(f"unknown scheduler {policy!r}")
        self.policy = policy
        self.seed = seed
        self.rng = random.Random(seed)
        self.suppressed_uids: Set[int] = {n.uid for n in (suppressed or ())}
        self.budget = budget
        self.promote_front = promote_front
        self.attempts = 0
        self._fresh: Deque[Site] = deque()
        # Proven no-ops by uid, in the order they were tried, and the same
        # uids bucketed by the documents whose grafts can feed them.
        self._tried: Dict[int, _TriedEntry] = {}
        self._readers: Dict[str, Dict[int, None]] = {}
        # Installed by a kernel that owns a system; without it every
        # productive graft wakes every tried site.
        self.read_sets: Optional[ReadSets] = None
        self.tried_woken = 0
        self.tried_kept = 0
        self._parked: List[Tuple[float, Site]] = []
        self._enqueued: Set[int] = set()
        # -- lazy scheduling (PR 10) --
        self.relevance: Optional[Callable[[Node], bool]] = None
        self._dormant: Dict[int, Site] = {}
        self._retired: Dict[int, Site] = {}
        self._live: Dict[str, int] = {}
        self.skipped_unneeded = 0
        self.dormant_promotions = 0
        self.fire_once_retired = 0

    # ------------------------------------------------------------------
    # queue maintenance
    # ------------------------------------------------------------------

    def enqueue(self, document: Document, node: Node) -> bool:
        """Schedule a call site once; no-op for duplicates and suppressed.

        Retired sites are refused outright; sites failing the relevance
        predicate are tracked as dormant (returned ``False``: the site is
        known, but will not be popped until a graft promotes it).
        """
        if node.uid in self._enqueued or node.uid in self.suppressed_uids \
                or node.uid in self._retired:
            return False
        if self.relevance is not None and not self.relevance(node):
            self._enqueued.add(node.uid)
            self._note_live(node, +1)
            self._dormant[node.uid] = (document, node)
            self.skipped_unneeded += 1
            perf.stats.calls_skipped_unneeded += 1
            return False
        self._enqueued.add(node.uid)
        self._note_live(node, +1)
        self._fresh.append((document, node))
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.CALL_SCHEDULED, document=document.name,
                         service=node.marking.name,  # type: ignore[union-attr]
                         site=node.uid)
        return True

    def enqueue_trees(self, document: Document,
                      trees: Sequence[Node]) -> None:
        """Schedule every call node inside freshly grafted subtrees."""
        for tree in trees:
            for node in tree.iter_nodes():
                if node.is_function:
                    self.enqueue(document, node)

    def requeue(self, site: Site) -> None:
        """Put an already-enqueued site back in the untried queue."""
        if self._divert(site):
            return
        self._fresh.append(site)

    def mark_tried(self, site: Site) -> None:
        """Record a proven no-op verdict for the current state."""
        if self._divert(site):
            return
        self._add_tried(site)

    def _add_tried(self, site: Site) -> None:
        uid = site[1].uid
        reads = self.read_sets
        if reads is None:
            self._tried[uid] = (site, 0, ())
            return
        buckets = reads.buckets(site)
        self._tried[uid] = (site, reads.stamp(site[1]), buckets)
        for name in buckets:
            self._readers.setdefault(name, {})[uid] = None

    def _drop_tried(self, uid: int) -> Site:
        site, _, buckets = self._tried.pop(uid)
        for name in buckets:
            del self._readers[name][uid]
        return site

    def _divert(self, site: Site) -> bool:
        """Route a returning site to retired/dormant instead of a queue."""
        node = site[1]
        if node.uid in self._retired:
            return True
        if self.relevance is not None and not self.relevance(node):
            self._dormant[node.uid] = site
            return True
        return False

    def wake_tried(self, name: str) -> int:
        """After a productive graft into document ``name``, wake the tried
        sites whose read stamp moved; returns how many woke.

        Only that document's bucket can hold such sites (module
        docstring).  Without read sets every tried site wakes
        (:meth:`promote_tried`).
        """
        reads = self.read_sets
        if reads is None:
            return self.promote_tried()
        bucket = self._readers.get(name)
        woken: List[Site] = []
        if bucket:
            tried = self._tried
            moved = [uid for uid in bucket
                     if reads.stamp(tried[uid][0][1]) != tried[uid][1]]
            woken = [self._drop_tried(uid) for uid in moved]
            self._refill(woken)
        self._count_wake(len(woken))
        return len(woken)

    def promote_tried(self) -> int:
        """Void every no-op verdict (the conservative wake); returns count."""
        woken = [entry[0] for entry in self._tried.values()]
        self._tried.clear()
        self._readers.clear()
        self._refill(woken)
        self._count_wake(len(woken))
        return len(woken)

    def _refill(self, woken: List[Site]) -> None:
        if self.promote_front:
            self._fresh.extendleft(reversed(woken))
        else:
            self._fresh.extend(woken)

    def _count_wake(self, woken: int) -> None:
        kept = len(self._tried)
        self.tried_woken += woken
        self.tried_kept += kept
        perf.stats.tried_woken += woken
        perf.stats.tried_kept += kept

    def drop_pruned(self, trees: Sequence[Node]) -> None:
        """Forget the tried and dormant calls inside ``trees``, subtrees
        a graft just pruned from a document.

        A pruned call is no longer live, so no wake could reach it and
        it must not count toward ``live_count`` (which would hold off
        fire-once retirement of the services it feeds).  Untried calls
        stay queued; popping one raises ``StaleCallError`` and the
        engine forgets it.
        """
        if not (self._tried or self._dormant):
            return
        tried, dormant = self._tried, self._dormant
        for tree in trees:
            for node in tree.iter_nodes():
                if not node.is_function:
                    continue
                entry = tried.get(node.uid)
                if entry is not None and entry[0][1] is node:
                    self._drop_tried(node.uid)
                    self.forget(node)
                elif node.uid in dormant and dormant[node.uid][1] is node:
                    self.forget(node)

    def forget(self, node: Node) -> None:
        """Drop a stale/failed call from the enqueued set for good."""
        if node.uid in self._retired:
            return
        if node.uid in self._enqueued:
            self._enqueued.discard(node.uid)
            self._note_live(node, -1)
        self._dormant.pop(node.uid, None)

    def pop(self) -> Site:
        """Pick the next untried call in O(1) (O(1) expected for random).

        The caller guarantees ``_fresh`` is non-empty.  Round-robin pops
        the oldest untried entry, LIFO the newest; random swaps a uniform
        entry to the end first (order inside ``_fresh`` is irrelevant
        then).
        """
        if self.policy == "round_robin":
            return self._fresh.popleft()
        if self.policy == "lifo":
            return self._fresh.pop()
        index = self.rng.randrange(len(self._fresh))
        if index != len(self._fresh) - 1:
            self._fresh[index], self._fresh[-1] = (self._fresh[-1],
                                                   self._fresh[index])
        return self._fresh.pop()

    # ------------------------------------------------------------------
    # parking (circuit-breaker cooldowns)
    # ------------------------------------------------------------------

    def park(self, site: Site, ready_at: float) -> None:
        self._parked.append((ready_at, site))

    def unpark(self, now: float) -> int:
        """Move every cooled-down parked site back to ``fresh``."""
        if not self._parked:
            return 0
        still_parked = []
        moved = 0
        for ready_at, site in self._parked:
            if ready_at <= now:
                self._fresh.append(site)
                moved += 1
            else:
                still_parked.append((ready_at, site))
        self._parked = still_parked
        return moved

    def next_parked_ready(self) -> Optional[float]:
        if not self._parked:
            return None
        return min(ready for ready, _ in self._parked)

    # ------------------------------------------------------------------
    # lazy scheduling: the dormant queue and fire-once retirement
    # ------------------------------------------------------------------

    def _note_live(self, node: Node, delta: int) -> None:
        """Track live (enqueued, not retired) sites per service name."""
        name = node.marking.name  # type: ignore[union-attr]
        self._live[name] = self._live.get(name, 0) + delta

    def live_count(self, service: str) -> int:
        """Live sites of one service — fire-once's feeder-quiescence test."""
        return self._live.get(service, 0)

    def promote(self, uids: Container[int]) -> int:
        """Wake every dormant site whose uid is in ``uids``; returns count.

        Called when a graft (or a reseed) made sites weakly relevant
        again — the lazy counterpart of :meth:`wake_tried`.
        """
        ready = [uid for uid in self._dormant if uid in uids]
        for uid in ready:
            document, node = self._dormant.pop(uid)
            self._fresh.append((document, node))
            if obs_bus.ACTIVE:
                obs_bus.emit(obs_events.CALL_SCHEDULED,
                             document=document.name,
                             service=node.marking.name,  # type: ignore[union-attr]
                             site=node.uid)
        self.dormant_promotions += len(ready)
        perf.stats.dormant_promotions += len(ready)
        return len(ready)

    def wake_all_dormant(self) -> int:
        """Promote every dormant site (lazy mode switched off / torn down)."""
        woken = len(self._dormant)
        for site in self._dormant.values():
            self._fresh.append(site)
        self._dormant.clear()
        return woken

    def demote_irrelevant(self) -> int:
        """Move queued sites failing the relevance predicate to dormant.

        Only a *reseed* (goal-set shrink) needs this — graft deltas are
        monotone and never un-relevance a site.
        """
        if self.relevance is None:
            return 0
        moved = 0
        keep: Deque[Site] = deque()
        for site in self._fresh:
            if self.relevance(site[1]):
                keep.append(site)
            else:
                self._dormant[site[1].uid] = site
                moved += 1
        self._fresh = keep
        for uid in [uid for uid, entry in self._tried.items()
                    if not self.relevance(entry[0][1])]:
            self._dormant[uid] = self._drop_tried(uid)
            moved += 1
        still_parked = []
        for ready_at, site in self._parked:
            if self.relevance(site[1]):
                still_parked.append((ready_at, site))
            else:
                self._dormant[site[1].uid] = site
                moved += 1
        self._parked = still_parked
        if moved:
            self.skipped_unneeded += moved
            perf.stats.calls_skipped_unneeded += moved
        return moved

    def retire(self, site: Site) -> None:
        """Permanently drop a site (fire-once: provably complete).

        The site must not currently sit in a queue (engines retire right
        after the popped invocation's graft is applied).  The uid stays in
        ``_enqueued`` so duplicate enqueues keep bouncing, but it no
        longer counts as live.
        """
        node = site[1]
        if node.uid in self._retired:
            return
        self._retired[node.uid] = site
        self._dormant.pop(node.uid, None)
        if node.uid in self._enqueued:
            self._note_live(node, -1)
        else:
            self._enqueued.add(node.uid)
        self.fire_once_retired += 1
        perf.stats.fire_once_retired += 1

    def unretire_all(self) -> int:
        """Revive every retired site (external data may re-feed them)."""
        revived = len(self._retired)
        for site in self._retired.values():
            self._note_live(site[1], +1)
            if self.relevance is not None and not self.relevance(site[1]):
                self._dormant[site[1].uid] = site
            else:
                self._fresh.append(site)
        self._retired.clear()
        return revived

    def dormant_count(self) -> int:
        return len(self._dormant)

    def retired_count(self) -> int:
        return len(self._retired)

    def dormant_uids(self) -> Set[int]:
        return set(self._dormant)

    # ------------------------------------------------------------------
    # attempt budget
    # ------------------------------------------------------------------

    def note_attempt(self) -> None:
        self.attempts += 1

    def budget_spent(self) -> bool:
        return self.budget is not None and self.attempts >= self.budget

    def grant(self, extra: int) -> None:
        """Lease ``extra`` more attempts from the current position.

        Sets the budget to ``attempts + extra``: the admission layer's
        slice primitive — each tenant slice grants a bounded lease, runs
        until ``budget_spent()``, and fairness across tenants falls out
        of rotating the leases.
        """
        self.budget = self.attempts + extra

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------

    def has_fresh(self) -> bool:
        return bool(self._fresh)

    def fresh_count(self) -> int:
        return len(self._fresh)

    def tried_count(self) -> int:
        return len(self._tried)

    def parked_count(self) -> int:
        return len(self._parked)

    def is_enqueued(self, node: Node) -> bool:
        return node.uid in self._enqueued

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def frontier(self, extra_fresh: Sequence[Site] = ()) -> Dict[str, object]:
        """The scheduler state as a JSON-safe dict.

        Parked sites are folded into ``fresh`` (their cooldown clock does
        not survive a process boundary; retrying early is always sound),
        as are ``extra_fresh`` sites — the async runtime passes its
        in-flight sites here, since their outcomes die with the crash.
        """
        fresh = ([[d.name, n.uid] for d, n in extra_fresh]
                 + [[d.name, n.uid] for d, n in self._fresh]
                 + [[d.name, n.uid] for _, (d, n) in self._parked])
        frontier: Dict[str, object] = {
            "policy": self.policy,
            "seed": self.seed,
            "attempts": self.attempts,
            "suppressed": sorted(self.suppressed_uids),
            "fresh": fresh,
            "tried": [[d.name, n.uid]
                      for (d, n), _, _ in self._tried.values()],
        }
        if self._dormant:
            frontier["dormant"] = [[d.name, n.uid]
                                   for d, n in self._dormant.values()]
        if self._retired:
            frontier["retired"] = [[d.name, n.uid]
                                   for d, n in self._retired.values()]
        return frontier

    def restore_frontier(self, frontier: Dict[str, object],
                         resolve) -> None:
        """Rebuild the queues from a :meth:`frontier` dict.

        ``resolve(document_name, uid)`` maps a frontier entry back to a
        live ``(document, node)`` pair, or ``None`` when the node no
        longer exists (e.g. pruned by a replay divergence) — such entries
        are dropped, which is sound because a vanished call is subsumed.
        Tried sites take their read stamp here: the restored documents are
        the state their verdicts were proven on.
        """
        self.attempts = int(frontier.get("attempts", 0))
        self.suppressed_uids = set(frontier.get("suppressed", ()))
        for name, uid in frontier.get("retired", ()):
            site = resolve(name, uid)
            if site is None:
                continue
            if site[1].uid not in self._retired:
                self._retired[site[1].uid] = site
                self._enqueued.add(site[1].uid)
        for bucket, append in (("fresh", self._fresh.append),
                               ("tried", self._add_tried),
                               ("dormant",
                                lambda s: self._dormant.__setitem__(
                                    s[1].uid, s))):
            for name, uid in frontier.get(bucket, ()):
                site = resolve(name, uid)
                if site is None:
                    continue
                node = site[1]
                if node.uid in self._enqueued:
                    continue
                self._enqueued.add(node.uid)
                self._note_live(node, +1)
                append(site)
