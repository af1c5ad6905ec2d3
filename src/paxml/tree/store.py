"""Packed subtree marking bitsets: the subsumption filter's memo.

``t1 ⊑ t2`` needs ``markings(t1) ⊆ markings(t2)`` (Proposition 2.1(3):
a simulation maps every node onto a marking-equal node).  This module
keeps that necessary condition cheap: every marking gets a small
process-wide id, the id doubles as a bit position, and each node's
subtree is summarised by one int with bit ``1 << id`` set per marking
occurring in it.  The subset test is then ``b1 & ~b2 == 0``.

The memo is two plain ``uid → int`` dicts, ``_VERSIONS`` and ``_BITS``.
An entry answers for a node iff its recorded version equals the node's
current version: a node's ``(uid, version)`` fixes its subtree's marking
set.  Structural appends bump versions to the root (``Node.touch``), so
a stale entry is never read as current; equivalence-preserving pruning
(reduction, antichain eviction) does not bump versions, and the marking
set is invariant under document equivalence, so bits stay exact through
pruning.  Reads check versions, not node identity: wire restores copy
``(uid, version)`` together with the exact structure, so twins agree,
and a replayed copy that overwrites a live entry only makes the live
tree re-derive its bits at the next read.

Maintenance is incremental along the engines' single mutation choke
point: :func:`note_graft` (called by ``graft_under``) OR-merges the
inserted bits up the root-to-parent path, for the entries that were
current before the graft's ``touch``.  Any other mutation heals at read
time: a version mismatch re-walks the subtree, reusing every still-valid
descendant entry (``store_rebuild_patches`` counts these walks).

The entries are bounded crudely: past ``_ROWS_MAX`` they are dropped
wholesale, checked only before a walk so no walk loses its own
entries.  Overflow keeps the intern table — ids are bit positions held
by live antichains and head-bits masks — and only :func:`clear_store`
(registered with ``perf.clear_caches()``) resets the ids and bumps
:func:`generation`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .. import perf
from .node import Marking, Node

# Marking interning: ids are monotone and process-wide until clear_store.
_MARKING_IDS: Dict[Marking, int] = {}

# uid → version the bits were derived at, and uid → packed bits.
_VERSIONS: Dict[int, int] = {}
_BITS: Dict[int, int] = {}

_ROWS_MAX = 2_000_000

# Bumped on every clear_store; lets callers that cache interned ids
# (e.g. the evaluator's head-bits templates) notice their ids went stale.
_GENERATION = [0]


def intern_marking(marking: Marking) -> int:
    """The process-wide small-int id of ``marking`` (stable until clear)."""
    mid = _MARKING_IDS.get(marking)
    if mid is None:
        mid = _MARKING_IDS[marking] = len(_MARKING_IDS)
    return mid


def generation() -> int:
    return _GENERATION[0]


def clear_store() -> None:
    """Drop every entry *and* the intern table (ids are bit positions)."""
    _GENERATION[0] += 1
    _VERSIONS.clear()
    _BITS.clear()
    _MARKING_IDS.clear()


perf.register_cache(clear_store)


def store_sizes() -> Dict[str, int]:
    """Live memo sizes, for the CLI, checkpoints and the metrics registry."""
    return {"rows": len(_BITS), "interned_markings": len(_MARKING_IDS)}


def _walk(root: Node) -> int:
    """(Re)derive the bits of ``root``'s subtree, reusing valid entries.

    Iterative post-order: a node's bits are written only after all its
    children hold valid entries, and its version last.
    """
    perf.stats.store_rebuild_patches += 1
    if len(_BITS) >= _ROWS_MAX:
        # Between walks only: the stack below reads back its own entries.
        _VERSIONS.clear()
        _BITS.clear()
    versions = _VERSIONS
    all_bits = _BITS
    stack: List[tuple] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            if versions.get(node.uid) != node.version:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
            continue
        bits = 1 << intern_marking(node.marking)
        for child in node.children:
            bits |= all_bits[child.uid]
        all_bits[node.uid] = bits
        versions[node.uid] = node.version
    return all_bits[root.uid]


def subtree_bits(node: Node) -> int:
    """The packed marking bitset of ``node``'s subtree."""
    if _VERSIONS.get(node.uid) == node.version:
        return _BITS[node.uid]
    return _walk(node)


def warm(root: Node) -> None:
    """Derive the bits of every node under ``root`` (idempotent)."""
    subtree_bits(root)


def note_graft(path: List[Node], inserted: Sequence[Node],
               pre_versions: Sequence[int]) -> None:
    """OR the bits of ``inserted`` into every entry along ``path`` after
    the graft path appended them under ``path[-1]`` and ``touch`` bumped
    the path's versions.

    ``pre_versions`` are the path nodes' versions captured *before* the
    touch: an entry is patched only when it was current against the
    pre-touch state (otherwise an earlier untracked mutation left it
    stale, and marking it current here would launder wrong bits — such
    entries heal at the next read instead).  Siblings the insertion
    evicted need nothing: their markings are contained in the graft's
    (that is what subsumption means), so the merged bits stay exact.
    """
    ins_bits = 0
    for tree in inserted:
        ins_bits |= subtree_bits(tree)
    versions = _VERSIONS
    patched = False
    for node, pre in zip(path, pre_versions):
        if versions.get(node.uid) == pre:
            _BITS[node.uid] |= ins_bits
            versions[node.uid] = node.version
            patched = True
    if patched:
        perf.stats.store_graft_patches += 1
