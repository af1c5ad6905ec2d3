"""Per-node marking indexes (the query compiler's candidate source, and
the only child-list index in the library).

The matchers in :mod:`paxml.query` repeatedly ask two questions about a
document node: *which children carry marking m?* (constant sibling
patterns, subsumption's candidate pairing) and *which children carry
marking m and contain a given value one or two levels down?* (the probe
side of a sibling join).  The seed code answered both with a linear scan
of ``node.children`` per partial binding; this module answers them from
per-node buckets kept consistent with the versioned tree.

Each node keeps one index memo in its ``_index`` slot: its children
grouped by marking, the value probes built so far, and, on a document
root the planner reads, the census of its tree.  The memo is stamped
with the version it was built at and answers only while that equals
``node.version`` (the rule of the canonical-key slot, see the
version-stamp comment in :mod:`paxml.tree.node`):

* every structural *addition* to a node's child list bumps the node's
  version (``add_child`` / the graft path call ``touch``), so a memo that
  answers contains **every current child** — a stale memo is never read;
* equivalence-preserving *pruning* (reduction evicting a subsumed
  sibling) may leave a memo holding a pruned child.  That is sound for
  every consumer here: a pruned child is subsumed by a surviving
  sibling, and both matching and subsumption are invariant under
  document equivalence, so answers derived through the pruned copy are
  themselves subsumed by answers derived through the survivor and vanish
  in forest reduction.  (The graft path nevertheless patches the memo
  eagerly — see :func:`note_graft` — so in the engines' flows buckets
  are exact, not merely equivalent.)

A memo lives and dies with its node.  A copy that reuses a live node's
uid (checkpoint resume, point-in-time replay) is another object with a
memo of its own, so neither tree can read or patch the other's buckets.
``Node.copy()`` starts without a memo: the buckets hold the original's
children.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import perf
from .node import Marking, Node, Value

_Buckets = Dict[Marking, List[Node]]
# (p_marking, q_marking) → value marking → children
_ProbeMap = Dict[Tuple[Marking, Marking], Dict[Marking, List[Node]]]

_EMPTY: Tuple[Node, ...] = ()


class _IndexMemo:
    """One node's index, valid while ``version`` equals the node's."""

    __slots__ = ("version", "count", "buckets", "probes", "census")

    def __init__(self, node: Node):
        buckets: _Buckets = {}
        for child in node.children:
            buckets.setdefault(child.marking, []).append(child)
        self.version = node.version
        self.count = len(node.children)
        self.buckets = buckets
        self.probes: Optional[_ProbeMap] = None
        self.census: Optional[Tuple[Dict[Marking, int], int]] = None


def child_buckets(node: Node) -> _Buckets:
    """The children of ``node`` grouped by marking, from its index memo.

    Validated against ``node.version``: any append since the memo was
    built bumped the version, so returned buckets cover every current
    child (see the module docstring for why pruned leftovers are sound).
    """
    memo = node._index
    if memo is not None and memo.version == node.version:
        perf.stats.index_hits += 1
        return memo.buckets
    perf.stats.index_misses += 1
    memo = node._index = _IndexMemo(node)
    return memo.buckets


def child_bucket(node: Node, marking: Marking) -> Sequence[Node]:
    """Children of ``node`` carrying ``marking`` (possibly empty)."""
    return child_buckets(node).get(marking, _EMPTY)


def note_graft(parent: Node, inserted: Sequence[Node],
               pre_version: int) -> None:
    """Patch ``parent``'s index memo after the graft path appended
    ``inserted`` to its children and ``touch`` bumped its version from
    ``pre_version``.

    Appending to the live buckets is O(inserted).  A memo that was stale
    before the graft is left to be rebuilt at its next read; one whose
    child count no longer lines up (the antichain insertion also
    *evicted* siblings) is dropped, which keeps buckets exact — not
    merely equivalent — along the graft path.  The probes and the census
    are dropped.  Ancestor memos need no treatment: the same ``touch``
    bumped their versions, so they can never be read again.
    """
    memo = parent._index
    if memo is None or memo.version != pre_version:
        return
    if len(parent.children) != memo.count + len(inserted):
        parent._index = None
        return
    buckets = memo.buckets
    for child in inserted:
        buckets.setdefault(child.marking, []).append(child)
    memo.version = parent.version
    memo.count = len(parent.children)
    memo.probes = memo.census = None
    perf.stats.index_graft_patches += 1


# ----------------------------------------------------------------------
# Value probes: the indexed side of a sibling join.
#
# A sibling pattern shaped  p{q{$z}, …}  with p, q constant and $z bound
# admits candidates c only when c carries marking p and has a child d
# with marking q that has a value child equal to the binding of $z — a
# necessary condition of the embedding.  The probe map answers "children
# of n matching (p, q) with value v" in O(answer) once built; building
# is one pass over the p bucket and two levels below it, memoised in n's
# index memo.
# ----------------------------------------------------------------------


def probe_bucket(node: Node, p_marking: Marking, q_marking: Marking,
                 value: Marking) -> Sequence[Node]:
    """Children of ``node`` with ``p_marking`` owning a ``q_marking`` child
    that has a value leaf marked ``value``."""
    memo = node._index
    if memo is None or memo.version != node.version:
        memo = node._index = _IndexMemo(node)
    probes = memo.probes
    if probes is None:
        probes = memo.probes = {}
    key = (p_marking, q_marking)
    by_value = probes.get(key)
    if by_value is None:
        by_value = probes[key] = _build_probe(
            memo.buckets.get(p_marking, _EMPTY), q_marking)
    perf.stats.probe_lookups += 1
    return by_value.get(value, _EMPTY)


def _build_probe(candidates: Sequence[Node],
                 q_marking: Marking) -> Dict[Marking, List[Node]]:
    by_value: Dict[Marking, List[Node]] = {}
    for child in candidates:
        seen: set = set()
        for grand in child.children:
            if grand.marking != q_marking:
                continue
            for leaf in grand.children:
                marking = leaf.marking
                if isinstance(marking, Value) and marking not in seen:
                    seen.add(marking)
                    by_value.setdefault(marking, []).append(child)
    return by_value


# ----------------------------------------------------------------------
# Document census: marking → node count over a whole tree, the planner's
# selectivity estimate.  Kept in the root's index memo; a graft anywhere
# bumps the root's version, so the census follows growth without hooks.
# ----------------------------------------------------------------------


def marking_census(root: Node) -> Tuple[Dict[Marking, int], int]:
    """``(counts, total)``: occurrences per marking and the tree size."""
    memo = root._index
    if memo is None or memo.version != root.version:
        memo = root._index = _IndexMemo(root)
    census = memo.census
    if census is None:
        counts: Dict[Marking, int] = {}
        total = 0
        for node in root.iter_nodes():
            total += 1
            counts[node.marking] = counts.get(node.marking, 0) + 1
        census = memo.census = (counts, total)
    return census
