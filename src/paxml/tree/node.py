"""Core data model: unordered labeled trees with data and function nodes.

This module implements Definition 2.1 of the paper.  An AXML document is an
unordered tree whose nodes carry a *marking*: a label (inner structure), an
atomic value (leaves only), or a function name (an embedded service call).
Children of a function node are the parameters of the call.

Markings are represented by three small immutable classes so that the label
``"a"``, the atomic value ``"a"`` and the function name ``"a"`` never
collide:

* :class:`Label` — an element name, e.g. ``Label("cd")``;
* :class:`Value` — an atomic value, e.g. ``Value("Body and Soul")`` or
  ``Value(42)``;
* :class:`FunName` — the name of a Web service, e.g. ``FunName("GetRating")``.

Nodes are deliberately *mutable*: the rewriting semantics of Section 2.2
appends service answers in place.  All equivalence-sensitive machinery
(subsumption, reduction, canonical hashing) lives in sibling modules and
never relies on node identity.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Tuple, Union

AtomicValue = Union[str, int, float, bool]

# ----------------------------------------------------------------------
# Version stamps.
#
# Every node draws a globally unique, monotonically increasing *uid* at
# construction and carries a *version* — the stamp of the latest structural
# change anywhere in its subtree.  Appends bump the version of every node on
# the path to the root; since documents only ever gain subtrees (monotone
# growth, Section 2.2), a subtree with ``version <= cutoff`` is guaranteed
# to contain no node created after ``cutoff`` — the invariant behind the
# persistent subsumption/canonical-key caches and delta-driven matching.
#
# Equivalence-preserving edits (reduction pruning a subsumed sibling) do
# *not* bump versions: every cached judgment (subsumption, canonical keys,
# query assignments) is invariant under document equivalence, so those
# caches stay sound without invalidation.
# ----------------------------------------------------------------------

_stamp_counter = itertools.count(1)
# Residue-class partitioning of the stamp space for sharded execution
# (PR 9): shard i of N configures ``offset=i, stride=N`` and then only
# ever mints stamps ≡ i (mod N), so nodes created concurrently in
# different worker processes can never collide when their wire forms
# meet in a replica.  A single-process run keeps the default (0, 1) —
# the dense clock every earlier PR assumed.
_stamp_stride = 1
_stamp_offset = 0


def next_stamp() -> int:
    """Draw a fresh global stamp (uids and versions share one clock)."""
    return next(_stamp_counter)


def current_stamp() -> int:
    """The most recently issued stamp (a peek that burns one stamp).

    Every node existing now has ``uid <= current_stamp()`` and
    ``version <= current_stamp()``; anything created or grown later
    compares strictly greater.
    """
    return next(_stamp_counter)


def _aligned_start(start: int) -> int:
    """The smallest stamp ``>= start`` in this process's residue class."""
    return start + (_stamp_offset - start) % _stamp_stride


def configure_stamp_clock(offset: int = 0, stride: int = 1) -> int:
    """Restrict future stamps to the residue class ``offset (mod stride)``.

    Called once during shard-worker bootstrap, before any node of the
    run is built.  The clock continues from its current position (never
    backwards), aligned up to the class.  Returns the next stamp that
    will be issued.
    """
    global _stamp_counter, _stamp_stride, _stamp_offset
    if stride < 1 or not 0 <= offset < stride:
        raise ValueError(f"need 0 <= offset < stride, got ({offset}, {stride})")
    current = next(_stamp_counter)
    _stamp_stride, _stamp_offset = stride, offset
    start = _aligned_start(current + 1)
    _stamp_counter = itertools.count(start, stride)
    return start


def stamp_clock_config() -> Tuple[int, int]:
    """The active ``(offset, stride)`` residue class."""
    return _stamp_offset, _stamp_stride


def advance_stamp_clock(minimum: int) -> int:
    """Ensure every future stamp is strictly greater than ``minimum``.

    Checkpoint resume restores nodes with their original uids and
    versions; advancing the clock past the bundle's high-water mark keeps
    the global invariant that stamps are unique and monotone (a freshly
    created node must never collide with a restored one).  A sharded
    worker advancing past a replicated record's stamps stays inside its
    own residue class.  Returns the next stamp that will be issued.
    """
    global _stamp_counter
    current = next(_stamp_counter)
    start = _aligned_start(max(current, minimum) + 1)
    _stamp_counter = itertools.count(start, _stamp_stride)
    return start


class Label:
    """A data-node marking drawn from the label domain L."""

    __slots__ = ("name", "_h")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"label must be a non-empty string, got {name!r}")
        self.name = name
        self._h = hash(("L", name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Label) and other.name == self.name

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        return f"Label({self.name!r})"

    def __str__(self) -> str:
        return self.name


class FunName:
    """A function-node marking drawn from the function-name domain F.

    In the real AXML system a function name stands for a service URL plus an
    operation name; here it is an opaque identifier resolved by the enclosing
    :class:`~paxml.system.system.AXMLSystem`.
    """

    __slots__ = ("name", "_h")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"function name must be a non-empty string, got {name!r}")
        self.name = name
        self._h = hash(("F", name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FunName) and other.name == self.name

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        return f"FunName({self.name!r})"

    def __str__(self) -> str:
        return "!" + self.name


class Value:
    """A leaf marking drawn from the atomic-value domain V."""

    __slots__ = ("value", "_h")

    def __init__(self, value: AtomicValue):
        if not isinstance(value, (str, int, float, bool)):
            raise ValueError(f"atomic value must be str/int/float/bool, got {value!r}")
        self.value = value
        self._h = hash(("V", type(value).__name__, value))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Value)
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        return f"Value({self.value!r})"

    def __str__(self) -> str:
        return f'"{self.value}"'


Marking = Union[Label, FunName, Value]


def _coerce_marking(marking: Union[Marking, str, int, float, bool]) -> Marking:
    """Allow bare strings as labels and bare numbers as values in builders."""
    if isinstance(marking, (Label, FunName, Value)):
        return marking
    if isinstance(marking, str):
        return Label(marking)
    if isinstance(marking, (int, float, bool)):
        return Value(marking)
    raise TypeError(f"cannot interpret {marking!r} as a marking")


class Node:
    """A node of an AXML tree: a marking plus an unordered list of children.

    The children list is kept in insertion order purely for readable
    serialisation; no semantic operation depends on the order.

    Beyond the paper's ``(marking, children)`` data each node carries the
    incremental-engine bookkeeping: a ``parent`` pointer (makes locating a
    live call an O(depth) walk), a construction ``uid`` and a subtree
    ``version`` stamp (see the module comment on version stamps), plus
    memo slots for data derived from the subtree, each valid only while
    its recorded version equals ``version``: the canonical key
    (:mod:`paxml.tree.reduction`), the child/probe/census index
    (:mod:`paxml.tree.index`) and the packed marking bits
    (:mod:`paxml.tree.store`).  A wide node also keeps the antichain
    index of its children (``_sibs``, see
    :func:`paxml.tree.reduction.sibling_index`), which must hold exactly
    the current children and is checked against the child count and the
    intern generation as well.  A memo lives and dies with its node.
    ``_bits`` and ``_bits_gen`` are written together with
    ``_bits_version`` and read only once it matches, so only that one is
    initialised.
    """

    __slots__ = ("marking", "children", "parent", "uid", "version",
                 "_ckey", "_ckey_version", "_index", "_sibs",
                 "_bits", "_bits_version", "_bits_gen")

    def __init__(self, marking: Union[Marking, str, int, float, bool],
                 children: Iterable["Node"] = ()):
        self.marking: Marking = _coerce_marking(marking)
        self.children: List[Node] = list(children)
        if self.children and isinstance(self.marking, Value):
            raise ValueError("only leaf nodes may carry atomic values (Def. 2.1)")
        for child in self.children:
            if not isinstance(child, Node):
                raise TypeError(f"child {child!r} is not a Node")
            child.parent = self
        self.parent: Optional[Node] = None
        # Children are constructed before their parent, so drawing the stamp
        # last keeps the invariant version(parent) >= version(child).
        self.uid = self.version = next_stamp()
        self._ckey: Optional[object] = None
        self._ckey_version = -1
        self._index: Optional[object] = None
        self._sibs: Optional[object] = None
        self._bits_version = -1

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------

    @property
    def is_function(self) -> bool:
        """True iff this node is a service call (marking in F)."""
        return isinstance(self.marking, FunName)

    @property
    def is_value(self) -> bool:
        """True iff this node carries an atomic value (marking in V)."""
        return isinstance(self.marking, Value)

    @property
    def is_label(self) -> bool:
        """True iff this node is a plain data node (marking in L)."""
        return isinstance(self.marking, Label)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def iter_nodes(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_with_parents(self) -> Iterator[Tuple["Node", Optional["Node"]]]:
        """Yield ``(node, parent)`` pairs, pre-order; the root's parent is None."""
        stack: List[Tuple[Node, Optional[Node]]] = [(self, None)]
        while stack:
            node, parent = stack.pop()
            yield node, parent
            for child in reversed(node.children):
                stack.append((child, node))

    def function_nodes(self) -> List["Node"]:
        """All service-call nodes in this subtree, pre-order."""
        return [n for n in self.iter_nodes() if n.is_function]

    def size(self) -> int:
        """Number of nodes in the subtree."""
        return sum(1 for _ in self.iter_nodes())

    def depth(self) -> int:
        """Length (in edges) of the longest root-to-leaf path."""
        best = 0
        stack = [(self, 0)]
        while stack:
            node, d = stack.pop()
            if d > best:
                best = d
            for child in node.children:
                stack.append((child, d + 1))
        return best

    # ------------------------------------------------------------------
    # structural edits (used by invocation semantics and reduction)
    # ------------------------------------------------------------------

    def add_child(self, child: "Node") -> None:
        if self.is_value:
            raise ValueError("value nodes must remain leaves (Def. 2.1)")
        if not isinstance(child, Node):
            raise TypeError(f"child {child!r} is not a Node")
        self.children.append(child)
        child.parent = self
        self.touch()

    def remove_child(self, child: "Node") -> None:
        """Remove a child by identity."""
        for i, existing in enumerate(self.children):
            if existing is child:
                del self.children[i]
                child.parent = None
                self.touch()
                return
        raise ValueError("node is not a child (by identity)")

    def touch(self) -> None:
        """Stamp a structural change: bump versions from here to the root.

        Must be called after any content-changing edit of this subtree
        (appending or removing a subtree).  Equivalence-preserving pruning
        (reduction) deliberately does not call it — see the module comment.
        """
        stamp = next_stamp()
        node: Optional[Node] = self
        while node is not None:
            node.version = stamp
            node = node.parent

    def copy(self) -> "Node":
        """Deep, structure-sharing-free copy of the subtree.

        A current cached canonical key travels with the copy (the copy is
        structurally identical, hence has the same key).  The index memo
        and the sibling index do not: they hold this node's children, not
        the copy's.
        """
        duplicate = Node(self.marking, [child.copy() for child in self.children])
        if self._ckey is not None and self._ckey_version == self.version:
            duplicate._ckey = self._ckey
            duplicate._ckey_version = duplicate.version
        return duplicate

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        from .serializer import to_compact  # local import: avoid cycle

        return f"Node<{to_compact(self, max_nodes=40)}>"


# ----------------------------------------------------------------------
# Builders.  These are the main construction API:
#
#     label("directory", label("cd", label("title", val("L'amour"))))
#     fun("GetRating", val("Body and Soul"))
# ----------------------------------------------------------------------


def label(name: str, *children: Node) -> Node:
    """Build a data node with a label marking."""
    return Node(Label(name), children)


def val(value: AtomicValue) -> Node:
    """Build a leaf node carrying an atomic value."""
    return Node(Value(value))


def fun(name: str, *params: Node) -> Node:
    """Build a function node (a service call) with the given parameters."""
    return Node(FunName(name), params)


def validate_document_root(root: Node) -> None:
    """Enforce Definition 2.1(ii): the root carries a label or atomic value."""
    if root.is_function:
        raise ValueError("a document root must be a label or value node (Def. 2.1)")
