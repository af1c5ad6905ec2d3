"""Process-level performance switches and counters for the incremental engine.

The incremental materialization machinery (versioned nodes, the persistent
subsumption cache, cached canonical keys, delta-driven snapshot evaluation)
is soundness-preserving; a few of its paths keep a switch so that the
alternative can still be measured or chosen.  This module is that
switchboard:

* :data:`flags` — four process-wide enable bits, one per subsystem that
  keeps a measured or operator-chosen alternative path.  Turning a bit
  off restores the reference behaviour of that subsystem (no
  subsumption memo, no graft log, no tracing, an eager run).  Query
  evaluation has no bit: it always runs the compiled plan of
  :mod:`paxml.query.plan` and, per call site, the delta evaluator of
  :mod:`paxml.query.incremental`; the naive matcher of
  :mod:`paxml.query.matching` is a test oracle only.  Canonical keys are
  always memoised per node, and subsumption filtering always runs on the
  packed subtree bitsets of :mod:`paxml.tree.store`.  Writing an unknown
  flag name raises ``AttributeError``, so a stale script cannot silently
  measure the default path.
* :data:`stats` — cheap monotone counters (cache hits/misses, delta vs full
  evaluations), read by perfbench and the metrics registry.
* :func:`clear_caches` — drops every process-level cache.  Tests call this
  to check that cached and uncached computations agree.

The unified metrics registry (:mod:`paxml.obs.metrics`) absorbs these
counters by *pull* — it registers ``stats.snapshot`` as a collector — so
the ``stats.x += 1`` hot sites keep their cost and a registry scrape
always sees current values.  The observability bus mirrors its own
emission counts here (``obs_events`` / ``obs_dropped``), which is what
the registry↔perf mirror-consistency tests key on.

This module must stay import-light: ``paxml.tree`` imports it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, FrozenSet, List

# Flags named here (comma-separated) stay OFF even through set_all(True):
# the CI flag-matrix job uses this to run the whole tier-1 suite on the
# oracle paths without editing every fixture that resets the flags.
_ENV_DISABLED: FrozenSet[str] = frozenset(
    name.strip()
    for name in os.environ.get("PAXML_DISABLE_FLAGS", "").split(",")
    if name.strip())


@dataclass
class Flags:
    """Enable bits for the incremental subsystems (all on by default)."""

    subsumption_cache: bool = True   # persistent ((uid, ver), (uid, ver)) memo
    # Graft-log retention (paxml.kernel): with the flag off the kernel
    # appends no GraftRecords (PR 4 behaviour, for memory-constrained
    # runs); checkpoints then carry only the fresh document snapshot and
    # cannot be replay-validated.
    graft_log: bool = True
    # Causal tracing (paxml.obs.trace): with the flag off, request
    # admission never mints a TraceContext — the propagation machinery
    # (contextvar reads, site-tag lookups) stays on its None fast path
    # and no span is ever built.  The *rate* of head-based sampling is a
    # per-server knob (ServerOptions.trace_sample_rate, default
    # paxml.obs.trace.DEFAULT_SAMPLE_RATE); this bit is the process-wide
    # kill switch.
    tracing: bool = True
    # Relevance-guided lazy scheduling (paxml.analysis.relevance +
    # paxml.kernel): with the flag off, ``EvaluationKernel.enable_lazy``
    # and ``enable_fire_once`` become no-ops, so every run is eager even
    # when a caller passes ``lazy_for=...`` — the equivalence-oracle
    # configuration.  The bit only matters for callers that opt in; it
    # changes nothing for plain eager runs.
    lazy_scheduling: bool = True

    def __setattr__(self, name: str, value) -> None:
        # A typo or a deleted flag name must fail loudly: silently adding
        # an attribute would leave the real path untouched.
        if name not in self.__dataclass_fields__:
            raise AttributeError(f"perf.Flags has no flag {name!r}")
        object.__setattr__(self, name, value)

    def set_all(self, enabled: bool) -> None:
        for f in fields(self):
            setattr(self, f.name, enabled and f.name not in _ENV_DISABLED)

    def snapshot(self) -> Dict[str, bool]:
        """The current flag settings as a plain dict (worker-config safe)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def apply(self, settings: Dict[str, bool]) -> None:
        """Restore a :meth:`snapshot`, honouring ``PAXML_DISABLE_FLAGS``.

        Shard workers call this with the coordinator's snapshot so every
        process runs the same configuration *explicitly* — a spawned
        worker starts from a fresh module with default flags, and a
        forked one inherits whatever the parent had mid-run; neither
        ambient state is the contract.  Unknown keys are ignored
        (forward compatibility across mixed versions).
        """
        known = {f.name for f in fields(self)}
        for name, enabled in settings.items():
            if name in known:
                setattr(self, name, bool(enabled) and name not in _ENV_DISABLED)


@dataclass
class Stats:
    """Monotone counters; reset with :meth:`reset`, snapshot with :meth:`snapshot`."""

    subsumption_hits: int = 0
    subsumption_misses: int = 0
    canonical_key_hits: int = 0
    canonical_key_misses: int = 0
    delta_evaluations: int = 0
    full_evaluations: int = 0
    input_tree_hits: int = 0
    input_tree_misses: int = 0
    # Query-compiler counters (paxml.query.plan): plans built, evaluations
    # routed through a plan, and constant-subpattern subsumption shortcuts.
    plan_compilations: int = 0
    planned_evaluations: int = 0
    planned_delta_evaluations: int = 0
    const_subpattern_tests: int = 0
    # Child-index counters (paxml.tree.index): bucket lookups answered from
    # a live entry vs rebuilt, in-place patches on the graft path, and
    # value-probe lookups that narrowed a sibling join.
    index_hits: int = 0
    index_misses: int = 0
    index_graft_patches: int = 0
    probe_lookups: int = 0
    # Subsumption early rejects: recursive searches skipped because a child
    # marking of the candidate has no counterpart bucket in the target.
    subsumption_early_rejects: int = 0
    # Mirrored headline counters of the async runtime (paxml.runtime):
    # attempts started, retries scheduled, per-attempt timeouts, and
    # circuit-breaker trips, accumulated across runs in this process.
    async_attempts: int = 0
    async_retries: int = 0
    async_timeouts: int = 0
    async_circuit_trips: int = 0
    # Mirrored observability-bus counters (paxml.obs.bus): events emitted
    # while tracing was on, and subscriber errors swallowed.
    obs_events: int = 0
    obs_dropped: int = 0
    # Evaluation-kernel counters (paxml.kernel): graft-log records
    # retained, checkpoint bundles written, kernels resumed from a
    # bundle, and incremental site cutoffs restored on resume.
    graft_log_records: int = 0
    checkpoints_written: int = 0
    kernel_resumes: int = 0
    site_cutoffs_restored: int = 0
    # Shared-forest fast path of ``constant_service``: calls answered by
    # returning the frozen reduced forest without copying or re-reducing.
    constant_calls_shared: int = 0
    # Subtree-bits counters (paxml.tree.store): subtree walks forced by a
    # missing or stale entry (e.g. an untracked mutation healed at read
    # time), in-place graft-path patches, and candidate pairs rejected by
    # a packed-bitset subset test.
    store_rebuild_patches: int = 0
    store_graft_patches: int = 0
    bitset_rejects: int = 0
    # Closure-compilation counter (paxml.query.plan): plans lowered to
    # specialized closures (once per plan, on first closure execution).
    closure_compilations: int = 0
    # Causal-tracing counters (paxml.obs.trace): head-sampling decisions
    # at request admission, finished spans dispatched to sinks, and
    # sessions the serve watchdog flagged as stalled.
    trace_requests_sampled: int = 0
    trace_requests_unsampled: int = 0
    trace_spans: int = 0
    watchdog_stalls: int = 0
    # Shard-layer counters (paxml.shard): packed graft batches encoded and
    # their total bytes (the PXG1 codec, also used by checkpoint bundles),
    # records shipped to / applied from peers, cross-shard routed calls,
    # and BSP replication rounds driven to completion.
    graft_batches_encoded: int = 0
    graft_batch_bytes: int = 0
    shard_records_shipped: int = 0
    shard_records_applied: int = 0
    shard_remote_calls: int = 0
    shard_rounds: int = 0
    # Lazy-scheduling counters (paxml.kernel.scheduler): call sites parked
    # dormant because no registered query can benefit from them, dormant
    # sites promoted back to fresh by a graft or reseed, and sites retired
    # outright by the fire-once policy.
    calls_skipped_unneeded: int = 0
    dormant_promotions: int = 0
    fire_once_retired: int = 0
    # Per-graft wake accounting (paxml.kernel.scheduler): proven no-ops a
    # productive graft woke because something they read grew, and those
    # it left asleep.
    tried_woken: int = 0
    tried_kept: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


flags = Flags()
flags.set_all(True)  # apply any PAXML_DISABLE_FLAGS to the defaults
stats = Stats()

# Cache-clearing callbacks registered by the modules that own caches; kept as
# callbacks so this module never imports them (no cycles).
_cache_clearers: List[Callable[[], None]] = []


def register_cache(clearer: Callable[[], None]) -> None:
    _cache_clearers.append(clearer)


def clear_caches() -> None:
    """Drop every registered process-level cache (stats are kept)."""
    for clearer in _cache_clearers:
        clearer()
