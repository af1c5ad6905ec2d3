"""Single service-call invocation semantics (Section 2.2).

Invoking a function node ``v`` marked ``f``:

1. bind the reserved names — ``θ(input)`` is a fresh ``input``-rooted tree
   over copies of ``v``'s parameter subtrees, ``θ(context)`` is the subtree
   rooted at ``v``'s parent — and bind each declared document name to its
   current tree;
2. evaluate ``I(f)`` on θ, obtaining a forest;
3. graft (copies of) the forest's trees as *siblings of v*, then reduce.

The grafting step keeps the "documents stay reduced" invariant
incrementally: each answer is inserted into the antichain of the parent's
children (dropping it when an existing sibling subsumes it, evicting
siblings it subsumes), and the parent's growth is propagated up the
ancestor chain.  A wide parent (at least ``WIDE_SIBLINGS`` children)
inserts through the sibling index it keeps
(``tree.reduction.sibling_index``), and so does every wide ancestor
the growth reaches; the subtrees either step evicts are reported to
the caller, whose scheduler drops the calls inside them.
The step is *productive* — ``I →v I'`` with ``I ≢ I'`` — exactly when
at least one answer strictly enlarged the parent's subtree, which the
antichain insertion detects for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import perf
from ..tree import index as tree_index
from ..tree import store as tree_store
from ..tree.document import CONTEXT, INPUT, Document, Forest
from ..tree.node import Label, Node
from ..tree.reduction import WIDE_SIBLINGS, antichain_insert, sibling_index
from ..tree.subsumption import is_subsumed
from .system import AXMLSystem


class StaleCallError(RuntimeError):
    """The call node is no longer part of its document.

    Reduction may prune a call node when a sibling subtree subsumes the
    subtree containing it; the rewriting engine treats such nodes as gone.
    """


@dataclass
class InvocationResult:
    """Outcome of one invocation.

    ``answers`` carries what the service *delivered* for this invocation —
    under the incremental engine that is the delta since the site's previous
    invocation (the full snapshot answer on a first invocation), which is
    exactly what grafting needs: answers delivered earlier are already in
    the document or subsumed by it.
    """

    changed: bool
    answers: Forest
    inserted: List[Node] = field(default_factory=list)

    @property
    def inserted_count(self) -> int:
        return len(self.inserted)


def find_path(root: Node, target: Node) -> Optional[List[Node]]:
    """The root-to-target node path (inclusive), or None if unreachable.

    An O(depth) walk up the target's parent pointers, verifying at each hop
    that the node is still among its recorded parent's children — reduction
    evicts pruned subtrees from the child list but leaves their (now stale)
    parent pointers behind, so the membership check is what detects a node
    that is no longer part of the tree.
    """
    path = [target]
    node = target
    while node is not root:
        parent = node.parent
        if parent is None or node not in parent.children:
            return None
        path.append(parent)
        node = parent
    path.reverse()
    return path


def build_input_tree(call_node: Node) -> Node:
    """``θ(input)``: an ``input``-rooted tree over copies of the parameters."""
    return Node(Label(INPUT), [child.copy() for child in call_node.children])


# ``θ(input)`` cache: the input tree depends only on the call's parameter
# subtrees, whose joint state the call node's version stamp captures.
# Reusing one tree object while the parameters are unchanged is what lets
# the incremental matcher see ``input``-atoms as *unchanged* across
# re-invocations (a rebuilt copy would consist of brand-new nodes and force
# a full re-match every time).
_INPUT_CACHE: Dict[int, Tuple[int, Node]] = {}
_INPUT_CACHE_MAX = 100_000


def _input_tree_for(call_node: Node) -> Node:
    entry = _INPUT_CACHE.get(call_node.uid)
    if entry is not None and entry[0] == call_node.version:
        perf.stats.input_tree_hits += 1
        return entry[1]
    perf.stats.input_tree_misses += 1
    tree = build_input_tree(call_node)
    if len(_INPUT_CACHE) >= _INPUT_CACHE_MAX:
        _INPUT_CACHE.clear()
    _INPUT_CACHE[call_node.uid] = (call_node.version, tree)
    return tree


perf.register_cache(_INPUT_CACHE.clear)


def call_path(document: Document, call_node: Node) -> List[Node]:
    """Locate a live call node; raises :class:`StaleCallError` otherwise."""
    if not call_node.is_function:
        raise TypeError(f"{call_node!r} is not a function node")
    path = find_path(document.root, call_node)
    if path is None:
        raise StaleCallError(
            f"call !{call_node.marking.name} is no longer part of "  # type: ignore[union-attr]
            f"document {document.name!r}"
        )
    if len(path) < 2:
        # Cannot happen for validated documents: roots are never function
        # nodes (Definition 2.1(ii)).
        raise StaleCallError("a document root cannot be invoked")
    return path


def evaluate_call(system: AXMLSystem, call_node: Node, parent: Node) -> Forest:
    """Steps 1–2 of an invocation: bind θ and evaluate the service."""
    service = system.services[call_node.marking.name]  # type: ignore[union-attr]
    environment: Dict[str, Node] = dict(system.environment())
    environment[INPUT] = build_input_tree(call_node)
    environment[CONTEXT] = parent
    answers = service.evaluate(environment)
    _validate_answers(service.name, answers)
    return answers


def evaluate_call_delta(system: AXMLSystem, call_node: Node,
                        parent: Node) -> Forest:
    """Like :func:`evaluate_call` but with *delta* semantics per call site.

    Returns only answers not previously delivered for this call node (all
    of them on the first invocation); see :meth:`Service.evaluate_delta`.
    """
    service = system.services[call_node.marking.name]  # type: ignore[union-attr]
    environment: Dict[str, Node] = dict(system.environment())
    environment[INPUT] = _input_tree_for(call_node)
    environment[CONTEXT] = parent
    answers = service.evaluate_delta(environment, site=call_node.uid)
    _validate_answers(service.name, answers)
    return answers


def _validate_answers(service_name: str, answers: Forest) -> None:
    for answer in answers:
        if answer.is_function:
            raise ValueError(
                f"service {service_name!r} returned a tree rooted at a call "
                "node; answers must be documents (Def. 2.1(ii))"
            )


def graft_trees(path: List[Node], trees: List[Node],
                evicted: Optional[List[Node]] = None) -> List[Node]:
    """Insert ``trees`` as siblings of the call at ``path[-1]``.

    Thin call-site spelling of :func:`graft_under`: the grafts become
    children of the call's parent, so the call node itself is sliced off
    the path before delegating.
    """
    return graft_under(path[:-1], trees, evicted)


def graft_under(parent_path: List[Node], trees: List[Node],
                evicted: Optional[List[Node]] = None) -> List[Node]:
    """The single graft mutation primitive: insert ``trees`` as children
    of ``parent_path[-1]``, *without copying them first*.

    ``parent_path`` is the root-to-parent node path (inclusive).  Every
    document mutation during a run flows through here — the engines via
    :meth:`paxml.kernel.EvaluationKernel.apply_graft` (which adds event
    emission and graft logging on top), external injections via
    :meth:`paxml.kernel.EvaluationKernel.apply_external` (the serve
    layer's client-driven grafts), checkpoint replay directly (its
    wire-restored trees must keep their original uids, so no copy).
    Owning the index-memo, bits-memo and sibling-index maintenance and
    the reduced-invariant restoration in one place is what keeps them
    wired exactly once.  ``evicted``, when given, receives every subtree
    the graft pruned, at the parent and at its ancestors.

    A parent with at least ``WIDE_SIBLINGS`` children inserts through
    its kept sibling index, which the graft re-stamps after ``touch``;
    a narrower one through the linear ``antichain_insert``, dropping any
    index kept from a time it was wider.
    """
    parent = parent_path[-1]
    inserted: List[Node] = []
    lost: List[Node] = []
    index = None
    if len(parent.children) >= WIDE_SIBLINGS:
        index = sibling_index(parent)
        for graft in trees:
            if index.insert(graft, evicted=lost):
                graft.parent = parent
                inserted.append(graft)
        if lost:
            parent.children[:] = index.items()
        else:
            parent.children.extend(inserted)
    else:
        parent._sibs = None
        for graft in trees:
            if antichain_insert(parent.children, graft, lost):
                graft.parent = parent
                inserted.append(graft)
    if inserted:
        # Pre-touch versions let the node memos tell those that were
        # current before this graft (patchable in place) from those an
        # earlier untracked mutation already staled (healed at read time).
        pre_versions = [node.version for node in parent_path]
        # One stamp for the whole graft batch: every ancestor's subtree
        # gained content, which is what delta matching keys on.
        parent.touch()
        if index is not None:
            index.stamp(parent)
        tree_index.note_graft(parent, inserted, pre_versions[-1])
        tree_store.note_graft(parent_path, inserted, pre_versions)
        _propagate_growth(parent_path, pre_versions, lost)
    if evicted is not None:
        evicted.extend(lost)
    return inserted


def graft_answers(path: List[Node], answers: Forest,
                  evicted: Optional[List[Node]] = None) -> List[Node]:
    """Step 3: graft answer copies as siblings of the call at ``path[-1]``.

    Returns the trees actually inserted (answers subsumed by existing
    siblings are dropped, exactly as reduction would drop them);
    ``evicted`` receives the subtrees the graft pruned.
    """
    return graft_trees(path, [answer.copy() for answer in answers], evicted)


def new_answers(parent: Node, answers: Forest) -> List[Node]:
    """The answers that *would* be inserted, without mutating anything."""
    return [
        answer for answer in answers
        if not any(is_subsumed(answer, sibling) for sibling in parent.children)
    ]


def invoke(system: AXMLSystem, document: Document, call_node: Node) -> InvocationResult:
    """Invoke one service call in place; see the module docstring.

    Raises :class:`StaleCallError` when the node was pruned away and
    :class:`KeyError` when the call names an undeclared service.
    """
    path = call_path(document, call_node)
    answers = evaluate_call_delta(system, call_node, path[-2])
    inserted = graft_answers(path, answers)
    return InvocationResult(changed=bool(inserted), answers=answers, inserted=inserted)


def _propagate_growth(parent_path: List[Node], pre_versions: List[int],
                      evicted: List[Node]) -> None:
    """Restore the reduced invariant along the ancestor chain.

    Exactly one child of each ancestor grew (the next node on the path;
    ``parent_path[-1]`` is the node that gained children).  A grown
    subtree can newly *dominate* siblings but can never become
    dominated (it was maximal among its siblings and only gained content),
    so at every level it suffices to delete siblings the grown child now
    subsumes.  Every ancestor must be checked — a subtree growing deep down
    can make siblings arbitrarily high up redundant.

    An ancestor goes through its sibling index if the index was current
    at the ancestor's pre-graft version (``pre_versions``, parallel to
    the path) or, indexed afresh from the children as they stand, if
    the ancestor is wide (at least ``WIDE_SIBLINGS`` children).  The
    index re-posts the grown child, evicts through its anchor lists and
    is re-stamped.  Any other ancestor scans its children and drops its
    stale index.  Pruned siblings go to ``evicted``.
    """
    for depth in range(len(parent_path) - 1, 0, -1):
        ancestor, grown = parent_path[depth - 1], parent_path[depth]
        pre, index = pre_versions[depth - 1], ancestor._sibs
        if len(ancestor.children) >= WIDE_SIBLINGS or (
                index is not None and index.current(ancestor, pre)):
            # A fresh index holds ``grown`` among siblings it may now
            # subsume; regrow evicts exactly those.
            index = sibling_index(ancestor, pre)
            lost: List[Node] = []
            index.regrow(grown, lost)
            if lost:
                ancestor.children = index.items()
                evicted.extend(lost)
            index.stamp(ancestor)
            continue
        ancestor._sibs = None
        survivors = []
        for child in ancestor.children:
            if child is grown or not is_subsumed(child, grown):
                survivors.append(child)
            else:
                evicted.append(child)
        if len(survivors) != len(ancestor.children):
            ancestor.children = survivors
