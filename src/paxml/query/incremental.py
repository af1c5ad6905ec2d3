"""Per-call-site incremental snapshot evaluation (the engine's fast path).

Materialization invokes the same call sites over and over while the
documents they read grow monotonically.  The seed engine re-ran snapshot
evaluation from scratch on every invocation; this module caches, per call
site, the assignments found at document versions ``V`` and on re-invocation
joins only the *delta* — embeddings that touch data newer than ``V``
(:func:`paxml.query.matching.enumerate_assignments_delta`).  Monotonicity
(Proposition 3.1) guarantees cached assignments never have to be retracted:
documents only gain subtrees, and reduction replaces trees by equivalent
ones only.

The evaluator returns *delta forests*: answers not previously returned for
the site.  Grafting is idempotent up to subsumption (an already-delivered
answer is dropped by the antichain insertion), so delivering each answer
once yields byte-identical reduced documents while cutting the per-step
graft cost from O(all answers ever) to O(new answers).
"""

from __future__ import annotations

import weakref
from typing import Dict, Hashable, List, Mapping, Optional, Set

from .. import perf
from ..tree.antichain import BitsetAntichain
from ..tree.document import Forest
from ..tree.node import Node, current_stamp
from .matching import (
    answer_builder,
    binding_keyer,
    enumerate_assignments,
    enumerate_assignments_delta,
    evaluate_snapshot,
)
from .rule import PositiveQuery


class _SiteState:
    """What one call site remembers between invocations of one query."""

    __slots__ = ("cutoff", "seen", "results", "result_keys", "doc_uids")

    def __init__(self, cutoff: int, seen: set, results,
                 result_keys: set, doc_uids: Dict[str, int]):
        self.cutoff = cutoff          # stamp the cached assignments cover
        self.seen = seen              # binding keys of every assignment found
        self.results = results        # BitsetAntichain of all results so far
        self.result_keys = result_keys  # canonical keys of every answer seen
        self.doc_uids = doc_uids      # environment identity check


# Live evaluators, tracked weakly so perf.clear_caches() can reach their
# site caches without keeping garbage evaluators alive.
_live_evaluators: "weakref.WeakSet[IncrementalQueryEvaluator]" = weakref.WeakSet()
perf.register_cache(lambda: [e.reset() for e in _live_evaluators])


class IncrementalQueryEvaluator:
    """Incremental evaluation of one positive query across many call sites."""

    def __init__(self, query: PositiveQuery, rule_index: int = 0):
        self.query = query
        self.rule_index = rule_index  # position within a union service
        self._sites: Dict[Hashable, _SiteState] = {}
        self._builder = answer_builder(query)
        # Hash-consed answers: canonical key → answer tree.  Distinct call
        # sites of one service routinely derive the same answers; handing
        # out the *same* object keeps its uid/version stable, so the
        # persistent subsumption cache, the per-node canonical-key slot
        # and the subtree-bits memo all stay hot instead of being
        # defeated by fresh uids.  Sound because answers are never
        # mutated: grafting copies them (``graft_answers``) and antichain
        # membership is read-only.
        self._answers: Dict[tuple, Node] = {}
        _live_evaluators.add(self)

    # ------------------------------------------------------------------

    def _environment_uids(self, environment: Mapping[str, Node]) -> Dict[str, int]:
        return {name: environment[name].uid
                for name in self.query.document_names()}

    def evaluate_delta(self, environment: Mapping[str, Node],
                       site: Optional[Hashable]) -> Forest:
        """Answers not previously returned for ``site`` (all of them if new).

        Falls back to a full snapshot evaluation — returning the complete
        result — when no site identity is available.
        """
        if site is None:
            perf.stats.full_evaluations += 1
            return evaluate_snapshot(self.query, environment,
                                     self.rule_index)

        state = self._sites.get(site)
        doc_uids = self._environment_uids(environment)
        if state is not None and state.doc_uids != doc_uids:
            # A document root this site cached against was swapped (e.g. a
            # fresh input tree after the call's parameters grew).  Cached
            # results stay sound by monotonicity, but the assignment cache
            # is keyed to the old trees — start the site over.
            state = None

        if state is None:
            cutoff = current_stamp()
            perf.stats.full_evaluations += 1
            assignments = enumerate_assignments(self.query, environment)
            keyer = binding_keyer(self.query)
            seen = {keyer(binding) for binding in assignments}
            results = BitsetAntichain()
            result_keys: set = set()
            self._builder.insert(assignments, results, result_keys,
                                 environment, self.rule_index, self._answers)
            self._sites[site] = _SiteState(cutoff, seen, results, result_keys,
                                           doc_uids)
            return Forest(results.items())

        perf.stats.delta_evaluations += 1
        new_cutoff = current_stamp()
        new_assignments = enumerate_assignments_delta(
            self.query, environment, state.cutoff, state.seen)
        delta = self._builder.insert(new_assignments, state.results,
                                     state.result_keys, environment,
                                     self.rule_index, self._answers)
        state.cutoff = new_cutoff
        return Forest(delta)

    def reset(self) -> None:
        self._sites.clear()
        self._answers.clear()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def export_cutoffs(self) -> Dict[Hashable, int]:
        """Per-site cutoff stamps (the only state a checkpoint persists)."""
        return {site: state.cutoff for site, state in self._sites.items()}

    def restore_cutoff(self, site: Hashable, cutoff: int,
                       doc_uids: Dict[str, int]) -> None:
        """Re-seed a site from a checkpointed cutoff with empty caches.

        Sound because the answers delivered before the checkpoint are
        already inside the restored documents (anything re-derived drops
        by antichain subsumption at graft time), and cheap because every
        restored node has ``version <= cutoff`` — the next invocation
        joins only against data grafted *after* the resume.
        """
        self._sites[site] = _SiteState(cutoff, set(), BitsetAntichain(),
                                       set(), dict(doc_uids))
        perf.stats.site_cutoffs_restored += 1


class ContinuousQueryLog:
    """An append-only certain-answer log for one *continuous* query.

    The serve layer's fan-out core: one log per registered query, shared
    by every subscriber.  :meth:`refresh` runs one incremental delta
    evaluation (a synthetic site key makes the evaluator treat the
    continuous query as a single long-lived call site) and appends the
    genuinely new answers; subscribers each hold a plain integer cursor
    into the log and :meth:`read` from it independently.  The per-graft
    cost is therefore one delta join — independent of the subscriber
    count — and delivery to N subscribers is N cursor reads of the same
    list.

    Answers are stored as canonical text (:func:`~paxml.tree.serializer.
    to_canonical`), the form the wire protocol ships; by Proposition 3.1
    the log only ever grows, so a cursor never has to be invalidated.
    The concatenated log can be a strict superset of the *reduced*
    current result — a later answer may subsume an earlier one, which an
    append-only stream cannot retract — but their reductions coincide,
    which is the exactness contract the oracle suite checks.
    """

    def __init__(self, query: PositiveQuery, key: Hashable):
        self.query = query
        self.key = key
        self._evaluator = IncrementalQueryEvaluator(query)
        self._site = ("continuous", key)
        self.answers: List[str] = []
        # Parallel to ``answers``: the causal trace wire dict of the
        # graft whose refresh produced each answer (None when the graft
        # was untraced) and the perf_counter stamp of the append — the
        # serve layer's end-to-end inject→delta-push latency reads the
        # stamp back at push time.
        self.traces: List[Optional[dict]] = []
        self.stamps: List[float] = []
        self._seen: Set[str] = set()

    def __len__(self) -> int:
        return len(self.answers)

    def refresh(self, environment: Mapping[str, Node]) -> List[str]:
        """Evaluate the delta against ``environment``; append and return
        the new answers (canonical texts).

        Re-registering after a suspend/resume cycle replays the full
        snapshot through a fresh evaluator; the ``_seen`` filter keeps
        answers already streamed out of the log, so cursors stay valid
        across the gap.
        """
        import time
        from ..obs import trace as obs_trace  # local: avoid cycle
        from ..tree.serializer import to_canonical  # local: avoid cycle

        delta = self._evaluator.evaluate_delta(environment, self._site)
        fresh: List[str] = []
        ctx = obs_trace.current()
        trace_wire = ctx.to_wire() if ctx is not None else None
        stamp = time.perf_counter()
        for tree in delta:
            text = to_canonical(tree)
            if text in self._seen:
                continue
            self._seen.add(text)
            self.answers.append(text)
            self.traces.append(trace_wire)
            self.stamps.append(stamp)
            fresh.append(text)
        return fresh

    def read(self, cursor: int) -> tuple:
        """``(new_cursor, answers[cursor:])`` — one subscriber's catch-up."""
        return len(self.answers), self.answers[cursor:]

    def read_traced(self, cursor: int) -> tuple:
        """``(new_cursor, answers, traces, stamps)`` past the cursor."""
        return (len(self.answers), self.answers[cursor:],
                self.traces[cursor:], self.stamps[cursor:])

    def preload(self, answers) -> None:
        """Seed the log with already-streamed answers (spool restore)."""
        import time
        stamp = time.perf_counter()
        for text in answers:
            if text not in self._seen:
                self._seen.add(text)
                self.answers.append(text)
                self.traces.append(None)
                self.stamps.append(stamp)

    def reset_evaluator(self) -> None:
        """Drop the evaluator's caches (suspend path); the log survives."""
        self._evaluator = IncrementalQueryEvaluator(self.query)
