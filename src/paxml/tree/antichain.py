"""An inverted-index antichain over packed marking bitsets.

:func:`paxml.tree.reduction.antichain_insert` is linear in the kept set:
every insert compares the candidate's subtree bitset against every kept
tree.  For the incremental evaluator's per-site result sets — thousands
of pairwise-incomparable answer trees, inserted one by one — that scan
is the single hottest loop in the library, even with the comparisons
reduced to two int operations each.

This class replaces the scan with two posting lists over bit positions
(interned marking ids, :mod:`paxml.tree.store`):

* ``postings[b]``  — indexes of every kept tree whose subtree contains
  marking bit ``b``;
* ``anchored[b]``  — indexes of the kept trees *anchored* at ``b``: each
  tree is anchored at the rarest of its bits at insertion time, so each
  index appears in exactly one anchor list.

An insert then touches only the trees that could possibly be comparable:

* a kept tree subsuming the candidate must contain **all** candidate
  bits — in particular the candidate's rarest bit, so scanning
  ``postings[rarest]`` is complete for the drop direction;
* a kept tree subsumed by the candidate has all **its** bits among the
  candidate's — in particular its anchor bit, so scanning
  ``anchored[b]`` for the candidate's bits is complete for the eviction
  direction, and visits each potential evictee once.

On answer-tree workloads the rare bits are data values, so both scans
are a handful of entries where the flat loop visited the entire set.
Degenerate workloads (every tree over the same few markings) degrade
back to the linear scan — never below it.

The posting lists snapshot each kept tree's bitset at insertion.  A
kept tree may only *grow* afterwards, and only through
:meth:`SiblingIndex.regrow`, which posts the new bits and evicts the
siblings the grown tree now subsumes (its anchor stays one of its bits,
so both scans stay complete).  The evaluator's answer trees never
change at all: grafting copies them, antichain membership is read-only.

:class:`SiblingIndex` is the antichain a wide document node keeps over
its own children (:func:`paxml.tree.reduction.sibling_index`): it is
stamped with the node's version and the intern generation, so a reader
can tell whether it still holds exactly the node's current children.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from . import store as _store
from .node import Node
from .store import subtree_bits
from .subsumption import is_subsumed


# The slots posted under one bit.  A dict of ``slot -> None`` rather
# than a set: with only ints in it, CPython's garbage collector does not
# track it, and a wide node's kept index holds thousands of them
# (mostly of one slot, one per distinct data value).
_Slots = Dict[int, None]


def _bit_indexes(bits: int) -> List[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class BitsetAntichain:
    """A set of pairwise-incomparable trees with indexed insertion.

    Semantically identical to maintaining a list through
    :func:`~paxml.tree.reduction.antichain_insert`: a candidate subsumed
    by (or equivalent to) a kept tree is dropped, kept trees the
    candidate subsumes are evicted, ties keep the earlier tree.
    """

    __slots__ = ("_trees", "_bits", "_postings", "_anchored", "_anchor",
                 "_live")

    def __init__(self, trees: Optional[List[Node]] = None):
        self._trees: List[Optional[Node]] = []
        self._bits: List[int] = []
        self._postings: Dict[int, _Slots] = {}
        self._anchored: Dict[int, _Slots] = {}
        self._anchor: Dict[int, int] = {}
        self._live = 0
        if trees:
            for tree in trees:
                self.insert(tree)

    @classmethod
    def from_antichain(cls, trees) -> "BitsetAntichain":
        """Index an existing kept set without any comparisons.

        Mirrors the sequential contract of ``antichain_insert``: members
        already in the list are never re-compared against each other, so
        indexing them wholesale is exactly equivalent — and O(bits) per
        tree instead of O(n·bits).
        """
        index = cls()
        for tree in trees:
            tbits = subtree_bits(tree)
            index._add(tree, tbits, _bit_indexes(tbits))
        return index

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[Node]:
        return (tree for tree in self._trees if tree is not None)

    def items(self) -> List[Node]:
        return [tree for tree in self._trees if tree is not None]

    def insert(self, candidate: Node, cbits: Optional[int] = None,
               evicted: Optional[List[Node]] = None) -> bool:
        """Insert ``candidate``; True iff it entered the antichain.

        ``cbits`` may pass the candidate's packed subtree bits when the
        caller already knows them (the evaluator computes answer bits
        straight from the binding), saving the store walk for fresh trees.
        ``evicted``, when given, receives the kept trees the candidate
        evicted.
        """
        if cbits is None:
            cbits = subtree_bits(candidate)
        cand_bits = _bit_indexes(cbits)
        trees, bits, postings = self._trees, self._bits, self._postings
        # Drop direction: scan the candidate's rarest posting.  A bit
        # with no posting at all proves no kept tree can dominate.
        best: Optional[_Slots] = None
        best_len = -1
        for b in cand_bits:
            posting = postings.get(b)
            if not posting:
                best = None
                break
            if best_len < 0 or len(posting) < best_len:
                best, best_len = posting, len(posting)
        if best:
            for i in best:
                obits = bits[i]
                if cbits | obits == obits \
                        and is_subsumed(candidate, trees[i]):
                    return False
        # Eviction direction: every subsumable kept tree is anchored at
        # one of the candidate's bits.
        anchored = self._anchored
        evict: List[int] = []
        for b in cand_bits:
            anchor_list = anchored.get(b)
            if anchor_list:
                for i in anchor_list:
                    obits = bits[i]
                    if obits | cbits == cbits \
                            and is_subsumed(trees[i], candidate):
                        evict.append(i)
        for i in evict:
            if evicted is not None:
                evicted.append(trees[i])
            self._remove(i)
        self._add(candidate, cbits, cand_bits)
        return True

    # ------------------------------------------------------------------

    def _add(self, tree: Node, tbits: int, bit_list: List[int]) -> None:
        index = len(self._trees)
        self._trees.append(tree)
        self._bits.append(tbits)
        postings = self._postings
        anchor = bit_list[0]
        anchor_len = -1
        for b in bit_list:
            posting = postings.get(b)
            if posting is None:
                posting = postings[b] = {}
            if anchor_len < 0 or len(posting) < anchor_len:
                anchor, anchor_len = b, len(posting)
            posting[index] = None
        self._anchor[index] = anchor
        anchored = self._anchored.get(anchor)
        if anchored is None:
            anchored = self._anchored[anchor] = {}
        anchored[index] = None
        self._live += 1

    def _remove(self, index: int) -> None:
        tbits = self._bits[index]
        self._trees[index] = None
        for b in _bit_indexes(tbits):
            posting = self._postings.get(b)
            if posting is not None:
                posting.pop(index, None)
        anchor = self._anchor.pop(index)
        anchored = self._anchored.get(anchor)
        if anchored is not None:
            anchored.pop(index, None)
        self._live -= 1


class SiblingIndex(BitsetAntichain):
    """The kept antichain of one document node's children.

    ``version`` and ``gen`` record the node version and intern
    generation the index was last known exact at; :meth:`current` adds
    the child count.  Members are found by identity (``regrow``), so the
    index also maps each kept tree to its slot.  Evictions leave empty
    slots behind; once they outnumber the members the slots are
    renumbered, so a long-lived index stays proportional to the node.
    """

    __slots__ = ("_slot", "version", "gen")

    def __init__(self) -> None:
        super().__init__()
        self._slot: Dict[int, int] = {}
        self.version = -1
        self.gen = -1

    def current(self, node: Node, version: int) -> bool:
        """True iff the index holds exactly ``node``'s children, given
        that ``version`` is the node's version to check against."""
        return (self.version == version and self.gen == _store._generation
                and self._live == len(node.children))

    def stamp(self, node: Node) -> None:
        """Record that the index is exact for ``node`` as it is now.

        Slots freed by evictions are reclaimed here, between operations,
        once they outnumber the members.
        """
        self.version = node.version
        self.gen = _store._generation
        if len(self._trees) > 2 * self._live + 32:
            self._renumber()

    def regrow(self, tree: Node, evicted: List[Node]) -> None:
        """``tree``, a member, grew: post its new bits and evict (into
        ``evicted``) every member it now subsumes.

        A grown member cannot become subsumed (it was maximal and only
        gained content), and every member it subsumes is anchored at one
        of its bits, so the anchor lists of its bits are complete.
        """
        slot = self._slot[id(tree)]
        bits, postings = self._bits, self._postings
        old = bits[slot]
        grown = subtree_bits(tree)
        if grown != old:
            for b in _bit_indexes(grown & ~old):
                posting = postings.get(b)
                if posting is None:
                    posting = postings[b] = {}
                posting[slot] = None
            bits[slot] = grown
        trees, anchored = self._trees, self._anchored
        evict: List[int] = []
        for b in _bit_indexes(grown):
            anchor_list = anchored.get(b)
            if anchor_list:
                for i in anchor_list:
                    obits = bits[i]
                    if i != slot and obits | grown == grown \
                            and is_subsumed(trees[i], tree):
                        evict.append(i)
        for i in evict:
            evicted.append(trees[i])
            self._remove(i)

    def _add(self, tree: Node, tbits: int, bit_list: List[int]) -> None:
        self._slot[id(tree)] = len(self._trees)
        super()._add(tree, tbits, bit_list)

    def _remove(self, index: int) -> None:
        del self._slot[id(self._trees[index])]
        super()._remove(index)

    def _renumber(self) -> None:
        trees, bits = self._trees, self._bits
        kept = [(tree, bits[i]) for i, tree in enumerate(trees)
                if tree is not None]
        self._trees, self._bits = [], []
        self._postings, self._anchored, self._anchor = {}, {}, {}
        self._slot, self._live = {}, 0
        for tree, tbits in kept:
            self._add(tree, tbits, _bit_indexes(tbits))
