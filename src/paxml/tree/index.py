"""Inverted marking indexes over live documents (the query compiler's
candidate source, and the only child-list index in the library).

The matchers in :mod:`paxml.query` repeatedly ask two questions about a
document node: *which children carry marking m?* (constant sibling
patterns, subsumption's candidate pairing) and *which children carry
marking m and contain a given value one or two levels down?* (the probe
side of a sibling join).  The seed code answered both with a linear scan
of ``node.children`` per partial binding; this module answers them from
per-parent buckets kept consistent with the versioned tree.

Consistency contract (see the version-stamp comment in
:mod:`paxml.tree.node`):

* every structural *addition* to a node's child list bumps the node's
  version (``add_child`` / the graft path call ``touch``), so an entry
  validated against ``node.version`` always contains **every current
  child** — a stale entry is impossible to read;
* equivalence-preserving *pruning* (reduction evicting a subsumed
  sibling) may leave an entry holding a pruned child.  That is sound for
  every consumer here: a pruned child is subsumed by a surviving
  sibling, and both matching and subsumption are invariant under
  document equivalence, so answers derived through the pruned copy are
  themselves subsumed by answers derived through the survivor and vanish
  in forest reduction.  (The graft path nevertheless repairs entries
  eagerly — see :func:`note_graft` — so in the engines' flows entries
  are exact, not merely equivalent.)

Entries are keyed by node uid and record the node they were built from;
a lookup accepts an entry only for that very node object (``is``).
Uids are not unique across trees: point-in-time replay
(:func:`paxml.kernel.checkpoint.replay_prefix`) and checkpoint resume
rebuild copies that reuse live uids, and the identity check keeps such a
copy from reading — or, through :func:`note_graft`, patching — a live
entry.  (Subtree marking bitsets need no such check; they live in
:mod:`paxml.tree.store`, validated by version alone.)  Entries are
bounded crudely, like the persistent subsumption cache: cleared
wholesale on overflow, correct at any size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import perf
from .node import Marking, Node, Value

# uid → (node, version at build, child count at build, marking → children)
_Buckets = Dict[Marking, List[Node]]
_CHILD_INDEX: Dict[int, Tuple[Node, int, int, _Buckets]] = {}
_CHILD_INDEX_MAX = 500_000

# uid → (node, version at build,
#        (p_marking, q_marking) → value marking → children)
_ProbeMap = Dict[Tuple[Marking, Marking], Dict[Marking, List[Node]]]
_PROBE_INDEX: Dict[int, Tuple[Node, int, _ProbeMap]] = {}
_PROBE_INDEX_MAX = 100_000

_EMPTY: Tuple[Node, ...] = ()


def clear_index() -> None:
    _CHILD_INDEX.clear()
    _PROBE_INDEX.clear()


perf.register_cache(clear_index)


def child_buckets(node: Node) -> _Buckets:
    """The children of ``node`` grouped by marking, from the live index.

    Validated against ``node.version``: any append since the entry was
    built bumped the version, so a returned entry covers every current
    child (see the module docstring for why pruned leftovers are sound).
    """
    entry = _CHILD_INDEX.get(node.uid)
    if entry is not None and entry[0] is node and entry[1] == node.version:
        perf.stats.index_hits += 1
        return entry[3]
    perf.stats.index_misses += 1
    buckets: _Buckets = {}
    for child in node.children:
        buckets.setdefault(child.marking, []).append(child)
    if len(_CHILD_INDEX) >= _CHILD_INDEX_MAX:
        _CHILD_INDEX.clear()
    _CHILD_INDEX[node.uid] = (node, node.version, len(node.children), buckets)
    return buckets


def child_bucket(node: Node, marking: Marking) -> Sequence[Node]:
    """Children of ``node`` carrying ``marking`` (possibly empty)."""
    return child_buckets(node).get(marking, _EMPTY)


def note_graft(parent: Node, inserted: Sequence[Node]) -> None:
    """Patch ``parent``'s index entry after the graft path appended
    ``inserted`` to its children (and bumped versions via ``touch``).

    Appending to the live buckets is O(inserted); when the antichain
    insertion also *evicted* siblings the child count no longer lines up
    and the entry is dropped instead (the next lookup rebuilds it), which
    keeps entries exact — not merely equivalent — along the graft path.
    Ancestor entries need no treatment: the same ``touch`` bumped their
    versions, so their stale entries can never be read again.  An entry
    built from another node with the same uid (a replayed copy, or the
    live tree while a copy grafts) is left alone: patching it would mix
    the two trees' children.
    """
    _PROBE_INDEX.pop(parent.uid, None)
    entry = _CHILD_INDEX.get(parent.uid)
    if entry is None or entry[0] is not parent:
        return
    _node, _version, count, buckets = entry
    if len(parent.children) != count + len(inserted):
        del _CHILD_INDEX[parent.uid]
        return
    for child in inserted:
        buckets.setdefault(child.marking, []).append(child)
    _CHILD_INDEX[parent.uid] = (parent, parent.version, len(parent.children),
                                buckets)
    perf.stats.index_graft_patches += 1


# ----------------------------------------------------------------------
# Value probes: the indexed side of a sibling join.
#
# A sibling pattern shaped  p{q{$z}, …}  with p, q constant and $z bound
# admits candidates c only when c carries marking p and has a child d
# with marking q that has a value child equal to the binding of $z — a
# necessary condition of the embedding.  The probe map answers "children
# of n matching (p, q) with value v" in O(answer) once built; building
# is one pass over three levels of n's subtree, memoised against n's
# version.
# ----------------------------------------------------------------------


def probe_bucket(node: Node, p_marking: Marking, q_marking: Marking,
                 value: Marking) -> Sequence[Node]:
    """Children of ``node`` with ``p_marking`` owning a ``q_marking`` child
    that has a value leaf marked ``value``."""
    entry = _PROBE_INDEX.get(node.uid)
    if entry is None or entry[0] is not node or entry[1] != node.version:
        if len(_PROBE_INDEX) >= _PROBE_INDEX_MAX:
            _PROBE_INDEX.clear()
        entry = (node, node.version, {})
        _PROBE_INDEX[node.uid] = entry
    probes = entry[2]
    key = (p_marking, q_marking)
    by_value = probes.get(key)
    if by_value is None:
        by_value = probes[key] = _build_probe(node, p_marking, q_marking)
    perf.stats.probe_lookups += 1
    return by_value.get(value, _EMPTY)


def _build_probe(node: Node, p_marking: Marking,
                 q_marking: Marking) -> Dict[Marking, List[Node]]:
    by_value: Dict[Marking, List[Node]] = {}
    for child in node.children:
        if child.marking != p_marking:
            continue
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
# selectivity estimate.  Cached against the root's version; a graft
# anywhere bumps it, so the census follows growth without hooks.
# ----------------------------------------------------------------------

_CENSUS: Dict[int, Tuple[int, Dict[Marking, int], int]] = {}
_CENSUS_MAX = 10_000

perf.register_cache(_CENSUS.clear)


def marking_census(root: Node) -> Tuple[Dict[Marking, int], int]:
    """``(counts, total)``: occurrences per marking and the tree size."""
    entry = _CENSUS.get(root.uid)
    if entry is not None and entry[0] == root.version:
        return entry[1], entry[2]
    counts: Dict[Marking, int] = {}
    total = 0
    for node in root.iter_nodes():
        total += 1
        counts[node.marking] = counts.get(node.marking, 0) + 1
    if len(_CENSUS) >= _CENSUS_MAX:
        _CENSUS.clear()
    _CENSUS[root.uid] = (root.version, counts, total)
    return counts, total


def index_sizes() -> Dict[str, int]:
    """Live entry counts, for the CLI and the metrics registry."""
    return {
        "child_entries": len(_CHILD_INDEX),
        "probe_entries": len(_PROBE_INDEX),
        "census_entries": len(_CENSUS),
    }
