"""Checkpoint bundles: loading, graft-log replay, and engine resumption.

A bundle (written by :meth:`EvaluationKernel.checkpoint`) is a JSONL file
of typed records — header, services (as rule text), documents and seed
documents (uid-stable wire trees), the scheduler frontier, incremental
per-site cutoffs, and the transactional graft log.  :func:`resume`
reconstructs *either* engine mid-run from it:

* documents come back with their original node uids and versions (the
  global stamp clock is advanced past the bundle's high-water mark so
  fresh nodes never collide with restored ones), which is what lets the
  frontier's and graft log's site references resolve;
* alternatively (``replay=True``) the documents are rebuilt by replaying
  the graft log against the seed snapshot — grafting is deterministic
  given identical prior state and the log carries the inserted trees
  with their original uids, so the replayed documents are node-for-node
  congruent with the snapshot; the two are validated to be
  subsumption-equivalent before the run continues;
* per-site incremental cutoffs are restored with empty caches (sound —
  everything delivered pre-checkpoint is already inside the restored
  documents — and cheap: restored nodes all have ``version <= cutoff``,
  so post-resume re-verification joins against empty deltas);
* ``graft_applied`` provenance payloads captured while tracing was on
  are re-emitted on resume, so a provenance index built from the event
  stream survives the crash.

Soundness of the whole scheme is Theorem 2.1: the checkpoint is the
state after one fair prefix of invocations, and the limit ``[I]`` does
not depend on which fair continuation — sequential, concurrent, or a
different scheduling policy — finishes the run.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import perf
from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..query.parser import parse_query
from ..system.invocation import find_path, graft_trees, graft_under
from ..system.service import QueryService, Service, UnionQueryService
from ..system.system import AXMLSystem
from ..tree.document import CONTEXT, Document
from ..tree.node import Node, advance_stamp_clock
from ..tree.serializer import from_wire, wire_max_stamp
from .core import BUNDLE_FORMAT, EXTERNAL_SERVICE, EvaluationKernel
from .graft import CodecError, GraftRecord, decode_batch


class BundleError(ValueError):
    """The bundle file is malformed or from an unsupported format."""


class ReplayDivergence(RuntimeError):
    """Replaying the graft log did not reproduce the checkpointed state."""


@dataclass
class CheckpointBundle:
    """A parsed checkpoint bundle (see the module docstring)."""

    path: str
    header: Dict[str, object]
    services: List[Dict[str, object]] = field(default_factory=list)
    documents: Dict[str, dict] = field(default_factory=dict)   # name -> wire
    seeds: Dict[str, dict] = field(default_factory=dict)       # name -> wire
    frontier: Dict[str, object] = field(default_factory=dict)
    site_states: List[Dict[str, object]] = field(default_factory=list)
    grafts: List[GraftRecord] = field(default_factory=list)

    @property
    def engine(self) -> str:
        return str(self.header.get("engine", "sequential"))

    @property
    def steps(self) -> int:
        return int(self.header.get("steps", 0))

    @property
    def replayable(self) -> bool:
        return bool(self.seeds)


def load_bundle(path: str) -> CheckpointBundle:
    """Parse a JSONL checkpoint bundle written by ``kernel.checkpoint``."""
    bundle: Optional[CheckpointBundle] = None
    with open(path, "r") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BundleError(f"{path}:{line_number}: {exc}") from None
            kind = record.get("kind")
            if kind == "header":
                if record.get("format", 0) > BUNDLE_FORMAT:
                    raise BundleError(
                        f"bundle format {record.get('format')} is newer than "
                        f"supported format {BUNDLE_FORMAT}")
                bundle = CheckpointBundle(path=path, header=record)
                continue
            if bundle is None:
                raise BundleError(f"{path}: first record must be the header")
            if kind == "service":
                bundle.services.append(record)
            elif kind == "document":
                bundle.documents[record["name"]] = record["tree"]
            elif kind == "seed":
                bundle.seeds[record["name"]] = record["tree"]
            elif kind == "frontier":
                bundle.frontier = record
            elif kind == "site":
                bundle.site_states.append(record)
            elif kind == "graft":
                # Format-1 spelling: one readable JSON record per graft.
                bundle.grafts.append(GraftRecord.from_json_dict(record))
            elif kind == "grafts":
                # Format-2 spelling: the whole tail as one packed batch.
                try:
                    bundle.grafts.extend(decode_batch(
                        base64.b64decode(record["packed"])))
                except (CodecError, ValueError) as exc:
                    raise BundleError(
                        f"{path}:{line_number}: bad graft batch: {exc}"
                    ) from None
            else:
                # Unknown record kinds are skipped (forward compatibility).
                continue
    if bundle is None:
        raise BundleError(f"{path}: no header record")
    if not bundle.documents:
        raise BundleError(f"{path}: no document records")
    return bundle


def _advance_clock(bundle: CheckpointBundle) -> None:
    """Push the global stamp clock past everything the bundle contains.

    The header's ``clock`` was read *after* every tree in the bundle was
    serialized, so when present it already bounds all their stamps; the
    per-wire scan is only the fallback for header-less partial bundles.
    """
    high = int(bundle.header.get("clock", 0))
    if not high:
        for wire in bundle.documents.values():
            high = max(high, wire_max_stamp(wire))
        for wire in bundle.seeds.values():
            high = max(high, wire_max_stamp(wire))
        for record in bundle.grafts:
            for wire in record.trees:
                high = max(high, wire_max_stamp(wire))
    advance_stamp_clock(high)


def build_services(bundle: CheckpointBundle,
                   services: Optional[Dict[str, Service]] = None
                   ) -> List[Service]:
    """Reconstruct the service set from the bundle's rule text.

    Positive services round-trip through their rule text; opaque
    (black-box) services cannot be serialised and must be supplied via
    ``services`` — a name-keyed override mapping that also takes
    precedence for positive services (e.g. to resume with a patched
    rule, at the caller's own risk).
    """
    overrides = services or {}
    rebuilt: List[Service] = []
    for record in bundle.services:
        name = str(record["name"])
        if name in overrides:
            rebuilt.append(overrides[name])
            continue
        if record.get("opaque"):
            raise BundleError(
                f"service {name!r} is opaque (black-box) and cannot be "
                "restored from the bundle; pass it via services={...}")
        rules = [str(rule) for rule in record["rules"]]
        if len(rules) == 1:
            rebuilt.append(QueryService.parse(name, rules[0]))
        else:
            rebuilt.append(UnionQueryService(
                name, [parse_query(rule, name=name) for rule in rules]))
    return rebuilt


def replay_documents(bundle: CheckpointBundle, *,
                     advance: bool = True) -> Dict[str, Document]:
    """Rebuild the checkpointed documents from seed snapshot + graft log.

    Applies every :class:`GraftRecord` in order through the same
    :func:`graft_trees` primitive the live run used.  Because wire trees
    keep their original uids and grafting is deterministic given
    identical prior state, the result is node-for-node congruent with
    the documents the checkpoint snapshotted.
    """
    if not bundle.replayable:
        raise BundleError(
            "bundle has no seed snapshot (graft-log retention was off); "
            "only the direct document snapshot can be restored")
    if advance:
        _advance_clock(bundle)
    documents = {name: Document(name, from_wire(wire))
                 for name, wire in bundle.seeds.items()}
    by_uid: Dict[str, Dict[int, Node]] = {
        name: {node.uid: node for node in doc.root.iter_nodes()}
        for name, doc in documents.items()}
    for record in bundle.grafts:
        apply_graft_record(documents, by_uid, record)
    return documents


def apply_graft_record(documents: Dict[str, Document],
                       by_uid: Dict[str, Dict[int, Node]],
                       record: GraftRecord) -> List[Node]:
    """Apply one logged graft to replayed documents, updating ``by_uid``.

    Engine grafts resolve ``record.site`` to a live call node and graft
    as its siblings; :data:`~paxml.kernel.core.EXTERNAL_SERVICE` records
    (client injections) resolve it to the *parent* node and graft under
    it directly — an injection target need not be (and usually is not)
    a function node.
    """
    document = documents.get(record.document)
    if document is None:
        raise ReplayDivergence(
            f"graft log names unknown document {record.document!r}")
    node = by_uid[record.document].get(record.site)
    if record.service == EXTERNAL_SERVICE:
        path = find_path(document.root, node) if node is not None else None
        if path is None:
            raise ReplayDivergence(
                f"replay step {record.step}: graft parent uid={record.site} "
                f"is not live in document {record.document!r}")
        inserted = graft_under(path, [from_wire(w) for w in record.trees])
    else:
        path = (find_path(document.root, node)
                if node is not None and node.is_function else None)
        if path is None or len(path) < 2:
            raise ReplayDivergence(
                f"replay step {record.step}: call site uid={record.site} is "
                f"not live in document {record.document!r}")
        inserted = graft_trees(path, [from_wire(w) for w in record.trees])
    index = by_uid[record.document]
    for tree in inserted:
        for new_node in tree.iter_nodes():
            index[new_node.uid] = new_node
    return inserted


def replay_prefix(seeds: Dict[str, dict],
                  grafts: List[GraftRecord]) -> Dict[str, Document]:
    """Point-in-time reconstruction: seed wires + a graft-log prefix.

    The serve layer's historical reads: the state a document had after
    exactly ``len(grafts)`` productive grafts.  The replayed trees are
    throwaway read-only copies living alongside the live run and reuse
    the live uids.  No derived structure needs a bypass: the index and
    bits memos live on the nodes, so a copy derives its own and never
    reads or patches a live node's.
    """
    documents = {name: Document(name, from_wire(wire))
                 for name, wire in seeds.items()}
    by_uid: Dict[str, Dict[int, Node]] = {
        name: {node.uid: node for node in doc.root.iter_nodes()}
        for name, doc in documents.items()}
    for record in grafts:
        apply_graft_record(documents, by_uid, record)
    return documents


def _restore_site_states(bundle: CheckpointBundle, system: AXMLSystem,
                         by_uid: Dict[str, Dict[int, Node]]) -> int:
    restored = 0
    for record in bundle.site_states:
        service = system.services.get(str(record["service"]))
        rule_index = int(record["rule"])
        queries = getattr(service, "queries", None)
        if service is None or queries is None or rule_index >= len(queries):
            continue
        site_uid = int(record["site"])
        node = None
        for index in by_uid.values():
            node = index.get(site_uid)
            if node is not None:
                break
        if node is None or node.parent is None:
            continue
        doc_uids: Dict[str, int] = {}
        resolvable = True
        for name in queries[rule_index].document_names():
            if name == CONTEXT:
                doc_uids[name] = node.parent.uid
            elif name in system.documents:
                doc_uids[name] = system.documents[name].root.uid
            else:
                resolvable = False  # e.g. ``input`` (never exported, but be safe)
                break
        if not resolvable:
            continue
        service.restore_site_cutoff(rule_index, site_uid,
                                    int(record["cutoff"]), doc_uids)
        restored += 1
    return restored


def resume(path: str, *, engine: Optional[str] = None,
           services: Optional[Dict[str, Service]] = None,
           replay: bool = False,
           config=None, injector=None, transport=None,
           record_trace: bool = False, on_step=None,
           checkpoint_every: Optional[int] = None,
           checkpoint_path: Optional[str] = None):
    """Reconstruct an engine mid-run from a checkpoint bundle.

    Returns a ready-to-``run()`` :class:`~paxml.system.rewriting.
    RewritingEngine` or :class:`~paxml.runtime.engine.AsyncRuntime`
    (``engine`` overrides the bundle's own engine kind — a sequential
    checkpoint can be finished concurrently and vice versa, by
    Theorem 2.1).  With ``replay=True`` the documents are rebuilt by
    replaying the graft log against the seed snapshot and validated to
    be subsumption-equivalent to the direct snapshot
    (:class:`ReplayDivergence` otherwise).
    """
    bundle = load_bundle(path)
    _advance_clock(bundle)
    if replay:
        documents = replay_documents(bundle, advance=False)
        snapshots = {name: Document(f"{name}#snapshot", from_wire(wire))
                     for name, wire in bundle.documents.items()}
        for name, replayed in documents.items():
            snapshot = snapshots.get(name)
            if snapshot is None or (replayed.canonical_key()
                                    != snapshot.canonical_key()):
                raise ReplayDivergence(
                    f"document {name!r}: replayed state is not equivalent to "
                    "the checkpoint snapshot")
    else:
        documents = {name: Document(name, from_wire(wire))
                     for name, wire in bundle.documents.items()}

    system = AXMLSystem(list(documents.values()),
                        build_services(bundle, services),
                        validate=True, reduce=False)

    frontier = bundle.frontier
    kernel = EvaluationKernel(
        system, sites=[],
        policy=str(frontier.get("policy", "round_robin")),
        seed=frontier.get("seed"),  # type: ignore[arg-type]
        promote_front=bool(bundle.header.get("promote_front", True)),
        dedup_delivered=bool(bundle.header.get("dedup_delivered", False)))
    kernel.steps = int(bundle.header.get("steps", 0))
    kernel.productive = int(bundle.header.get("productive", 0))
    kernel.invocations_by_service = dict(
        bundle.header.get("invocations_by_service", {}))  # type: ignore[arg-type]
    kernel.checkpoints = int(bundle.header.get("checkpoints", 0))
    kernel.resumed_from = path
    kernel.log.retain = (bool(bundle.header.get("graft_log", False))
                         and perf.flags.graft_log)
    if kernel.log.retain and bundle.replayable:
        # Carry the seed + full log forward so later checkpoints of the
        # resumed run stay replayable from the original seed.
        kernel.log.base_step = int(bundle.header.get("base_step", 0))
        kernel.log.records = list(bundle.grafts)
        kernel._seed_wire = dict(bundle.seeds)
    else:
        # No replayable history: the resumed snapshot is the new seed.
        kernel.log.base_step = kernel.steps

    by_uid: Dict[str, Dict[int, Node]] = {
        name: {node.uid: node for node in doc.root.iter_nodes()}
        for name, doc in system.documents.items()}

    def resolve(name: str, uid: int):
        document = system.documents.get(name)
        node = by_uid.get(name, {}).get(uid)
        if document is None or node is None or not node.is_function:
            return None
        return (document, node)

    kernel.scheduler.restore_frontier(frontier, resolve)
    # Lazy-scheduling seed: re-derive relevance from the persisted goal
    # queries *before* the safety-net enqueue, so uncovered sites land in
    # the right queue (dormant vs fresh) and retired sites stay retired.
    # The restored dormant bucket is a hint — enable_lazy reconciles both
    # directions against a freshly computed tracker.  When the perf flag
    # is off (enable_lazy no-ops) the whole frontier wakes eagerly, which
    # is always sound.
    lazy_queries = bundle.header.get("lazy_queries")
    if lazy_queries and not kernel.enable_lazy(
            [parse_query(text) for text in lazy_queries]):
        kernel.scheduler.wake_all_dormant()
    if bundle.header.get("fire_once") and not kernel.enable_fire_once():
        kernel.scheduler.unretire_all()
    # Safety net: any live call the frontier does not cover (e.g. one the
    # crashed run had written off after delivery failures) re-enters the
    # queue untried — retrying is always sound, and fairness demands it.
    for document, node in system.call_sites():
        kernel.scheduler.enqueue(document, node)

    restored_sites = _restore_site_states(bundle, system, by_uid)

    perf.stats.kernel_resumes += 1
    if obs_bus.ACTIVE:
        obs_bus.emit(obs_events.RUN_RESUMED, path=path, engine=bundle.engine,
                     steps=kernel.steps, productive=kernel.productive,
                     replayed=replay, site_cutoffs=restored_sites)
        # Re-emit the provenance payloads captured before the checkpoint
        # so an index fed from this process's event stream is complete.
        for record in bundle.grafts:
            if record.obs:
                obs_bus.emit(obs_events.GRAFT_APPLIED,
                             document=record.document, service=record.service,
                             site=record.site, step=record.step,
                             trees=record.obs, replayed=True)

    kind = engine or bundle.engine
    if kind == "sequential":
        from ..system.rewriting import RewritingEngine  # local: avoid cycle
        return RewritingEngine(system, kernel=kernel,
                               record_trace=record_trace, on_step=on_step,
                               checkpoint_every=checkpoint_every,
                               checkpoint_path=checkpoint_path or path)
    if kind == "async":
        from ..runtime.engine import AsyncRuntime  # local: avoid cycle
        return AsyncRuntime(system, kernel=kernel, config=config,
                            injector=injector, transport=transport,
                            checkpoint_every=checkpoint_every,
                            checkpoint_path=checkpoint_path or path)
    raise BundleError(f"unknown engine kind {kind!r}")
