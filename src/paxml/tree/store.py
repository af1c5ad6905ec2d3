"""Packed subtree marking bitsets: the subsumption filter's memo.

``t1 ⊑ t2`` needs ``markings(t1) ⊆ markings(t2)`` (Proposition 2.1(3):
a simulation maps every node onto a marking-equal node).  This module
keeps that necessary condition cheap: every marking gets a small
process-wide id, the id doubles as a bit position, and each node's
subtree is summarised by one int with bit ``1 << id`` set per marking
occurring in it.  The subset test is then ``b1 & ~b2 == 0``.

The memo lives on the node: ``_bits`` holds the packed set, stamped with
the version it was derived at (``_bits_version``) and the intern
generation (``_bits_gen``).  It answers iff both stamps are current.  A
node's version fixes its subtree's marking set: structural appends bump
versions to the root (``Node.touch``), so a stale memo is never read as
current; equivalence-preserving pruning (reduction, antichain eviction)
does not bump versions, and the marking set is invariant under document
equivalence, so bits stay exact through pruning.  The generation stamp
is there because :func:`clear_store` renumbers the bit positions.  A memo
dies with its node; a copy (``Node.copy``, a wire restore, a replayed
tree) starts without one and derives its bits at its first read.

Maintenance is incremental along the engines' single mutation choke
point: :func:`note_graft` (called by ``graft_under``) OR-merges the
inserted bits up the root-to-parent path, for the memos that were
current before the graft's ``touch``.  Any other mutation heals at read
time: a stale memo re-walks the subtree, reusing every still-valid
descendant memo (``store_rebuild_patches`` counts these walks).

Only the intern table is process-wide: its ids are bit positions held
by live antichains and head-bits masks.  :func:`clear_store` (registered
with ``perf.clear_caches()``) resets it and bumps :func:`generation`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .. import perf
from .node import Marking, Node

# Marking interning: ids are monotone and process-wide until clear_store.
_MARKING_IDS: Dict[Marking, int] = {}

# Bumped on every clear_store: node memos stamped with an older
# generation, and callers that cache interned ids (e.g. the evaluator's
# head-bits templates), hold stale bit positions.
_generation = 0


def intern_marking(marking: Marking) -> int:
    """The process-wide small-int id of ``marking`` (stable until clear)."""
    mid = _MARKING_IDS.get(marking)
    if mid is None:
        mid = _MARKING_IDS[marking] = len(_MARKING_IDS)
    return mid


def generation() -> int:
    return _generation


def clear_store() -> None:
    """Drop the intern table and thereby every node memo (ids are bit
    positions)."""
    global _generation
    _generation += 1
    _MARKING_IDS.clear()


perf.register_cache(clear_store)


def store_sizes() -> Dict[str, int]:
    """The intern table's size, for the CLI and checkpoint headers."""
    return {"interned_markings": len(_MARKING_IDS)}


def _walk(root: Node) -> int:
    """(Re)derive the bits of ``root``'s subtree, reusing valid memos.

    Iterative post-order: a node's bits are written only after all its
    children hold valid memos.
    """
    perf.stats.store_rebuild_patches += 1
    gen = _generation
    stack: List[tuple] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            if node._bits_version != node.version or node._bits_gen != gen:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
            continue
        bits = 1 << intern_marking(node.marking)
        for child in node.children:
            bits |= child._bits
        node._bits = bits
        node._bits_gen = gen
        node._bits_version = node.version
    return root._bits


def subtree_bits(node: Node) -> int:
    """The packed marking bitset of ``node``'s subtree."""
    if node._bits_version == node.version and node._bits_gen == _generation:
        return node._bits
    return _walk(node)


def note_graft(path: List[Node], inserted: Sequence[Node],
               pre_versions: Sequence[int]) -> None:
    """OR the bits of ``inserted`` into every memo along ``path`` after
    the graft path appended them under ``path[-1]`` and ``touch`` bumped
    the path's versions.

    ``pre_versions`` are the path nodes' versions captured *before* the
    touch: a memo is patched only when it was current against the
    pre-touch state (otherwise an earlier untracked mutation left it
    stale, and marking it current here would launder wrong bits — such
    memos heal at the next read instead).  Siblings the insertion
    evicted need nothing: their markings are contained in the graft's
    (that is what subsumption means), so the merged bits stay exact.
    """
    ins_bits = 0
    for tree in inserted:
        ins_bits |= subtree_bits(tree)
    gen = _generation
    patched = False
    for node, pre in zip(path, pre_versions):
        if node._bits_version == pre and node._bits_gen == gen:
            node._bits |= ins_bits
            node._bits_version = node.version
            patched = True
    if patched:
        perf.stats.store_graft_patches += 1
