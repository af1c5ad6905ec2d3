"""Incremental weak-relevance tracking (Section 4, wired into the runtime).

The paper's *weak relevance* is a PTIME over-approximation of the calls
that can still change a query's answer.  :func:`~paxml.analysis.lazy.
weakly_relevant_calls` asks for it once; a lazy scheduler asks "did this
graft wake anything?" thousands of times per run.  :class:`RelevanceTracker`
serves both from one incrementally maintained fixpoint.

**Goal images.**  Every goal (a query body atom, or a body atom of a
relevant call's service) is a pattern over one document.  Its *relaxed
top-down embedding* maps each pattern node to the document nodes it could
ever map onto: sibling patterns and cross-pattern variable consistency are
ignored, and a regex-spec node may map to any label node on a downward
label path below its parent's images (the path can wander).  A node is a
*position* when it is an image of a pattern node that appended children
could still extend: one with children (a new sibling may begin a new
assignment), a regex node or a tree variable.  A call whose parent is a
position is relevant.  Each goal keeps the images of exactly those
positional pattern nodes, keyed by pattern node.

**The image invariant.**  Whether a node is an image of a pattern node
depends only on its own marking and its ancestors'.  A graft adds children
and never gives an existing node a new ancestor, so the images of existing
nodes never change; only the inserted trees need a look.
:meth:`RelevanceTracker._extend` descends into them from the pattern nodes
their graft point already serves, so a graft costs work proportional to
the inserted trees, not to the document.  Seeding a goal is the same
routine started at the document root.  Reduction may delete nodes; their
uids stay behind in the images and in the relevant set, which is harmless
because uids are never reused, and is bounded only by the next
:meth:`~RelevanceTracker.reseed`.  The relevant set shrinks only when the
*goal set* changes: ``reseed`` recomputes from scratch (query
unsubscribed, tenant retargeted).

**Positional relevance.**  Two registries catch calls no goal pattern
reaches:

* **param hosts** — every relevant call node: calls grafted anywhere under
  its parameter forest feed its ``input`` and are relevant;
* **context hosts** — the parent of every relevant call whose service
  reads ``context``: calls grafted anywhere under that parent feed the
  call's ``context`` and are relevant.

On a graft the tracker walks the inserted trees' ancestor chain against
these registries.  Every relevant call — including ones found positionally
inside parameters or context — contributes its service's body patterns as
goals.  More relevant calls can never make lazy evaluation unsound, only
slightly less lazy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..query.pattern import PatternNode, RegexSpec
from ..query.rule import PositiveQuery
from ..query.variables import FunVar, LabelVar, TreeVar, ValueVar
from ..tree.document import CONTEXT, INPUT, Document
from ..tree.node import Label, Node
from ..system.service import QueryService, UnionQueryService
from ..system.system import AXMLSystem


def spec_compatible(spec, marking) -> bool:
    """Relaxed node test: can this pattern node ever map onto this marking?"""
    if isinstance(spec, RegexSpec):
        # A path step lands only on label nodes; the regex itself is not
        # checked (the relaxation over-approximates every path).
        return isinstance(marking, Label)
    if isinstance(spec, TreeVar):
        return True
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        return spec.admits(marking)
    return spec == marking


def _positional(pnode: PatternNode) -> bool:
    """Could children appended under this node's images extend a match?"""
    return bool(pnode.children) or isinstance(pnode.spec, (RegexSpec, TreeVar))


def _below(pnodes: Iterable[PatternNode]) -> List[PatternNode]:
    """Candidates for the children of a node the ``pnodes`` map onto."""
    below: List[PatternNode] = []
    for pnode in pnodes:
        below.extend(pnode.children)
        if isinstance(pnode.spec, RegexSpec):
            below.append(pnode)  # the path may wander on
    return list(dict.fromkeys(below))


Site = Tuple[Document, Node]


class RelevanceTracker:
    """Incrementally maintained weakly-relevant call set for a goal set.

    ``seed``/``reseed`` run the full goal fixpoint; :meth:`on_graft` does
    the delta work for one graft and returns the uids of calls that just
    became relevant (so a scheduler can promote them out of dormancy).
    """

    def __init__(self, system: AXMLSystem,
                 queries: Sequence[PositiveQuery] = (),
                 use_service_bodies: bool = True):
        self.system = system
        self.use_service_bodies = use_service_bodies
        self.queries: List[PositiveQuery] = []
        self._goals: List[Tuple[str, PatternNode]] = []
        # Per goal: positional pattern node → the uids of its images.
        self._images: List[Dict[PatternNode, Set[int]]] = []
        self._goals_by_doc: Dict[str, List[int]] = {}
        self._processed_services: Set[str] = set()
        self._relevant: Dict[int, Site] = {}
        self._param_hosts: Set[int] = set()
        self._context_hosts: Set[int] = set()
        self.reseed(queries)

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._relevant)

    def is_relevant(self, node: Node) -> bool:
        return node.uid in self._relevant

    @property
    def relevant_uids(self) -> Dict[int, Site]:
        """uid → (document, node) view; supports ``in`` without copying."""
        return self._relevant

    @property
    def goal_count(self) -> int:
        return len(self._goals)

    def relevant_sites(self) -> List[Site]:
        return list(self._relevant.values())

    # -- (re)seeding -----------------------------------------------------

    def reseed(self, queries: Sequence[PositiveQuery]) -> Set[int]:
        """Full recompute for a new goal set; returns all relevant uids.

        The only operation that can *shrink* the relevant set — callers
        should diff against their previous view to demote sites.
        """
        self.queries = list(queries)
        self._goals = []
        self._images = []
        self._goals_by_doc = {}
        self._processed_services = set()
        self._relevant = {}
        self._param_hosts = set()
        self._context_hosts = set()
        pending = []
        for query in self.queries:
            for atom in query.body:
                pending.append(self._add_goal(atom.document, atom.pattern))
        self._drain(pending)
        return set(self._relevant)

    # -- the graft delta -------------------------------------------------

    def on_graft(self, document: Document, node: Optional[Node],
                 inserted: Sequence[Node] = ()) -> Set[int]:
        """Absorb one graft; returns uids of *newly* relevant calls.

        Each inserted tree's ``parent`` is its graft point.  ``node`` is
        the hook's site argument, whose meaning differs by graft path
        (see ``EvaluationKernel._notify_graft``), so it is never used.
        Per goal reading ``document`` the work is :meth:`_extend` over the
        inserted trees; service-body goals introduced by new relevance are
        seeded and drained to the usual fixpoint.
        """
        if not self._goals and not self._relevant:
            return set()
        new: Set[int] = set()
        queue: List[int] = []
        # Goals added while marking are queued, then seeded whole by _drain.
        goals = tuple(self._goals_by_doc.get(document.name, ()))
        # Positional relevance: new calls under a relevant call's params
        # or under a context host's subtree.
        for tree in inserted:
            if not self._hosted(tree):
                continue
            for call in self._tree_calls(tree):
                self._mark(document, call, new, queue)
        for index in goals:
            images = self._images[index]
            for tree in inserted:
                parent = tree.parent
                if tree.is_function and any(
                        parent.uid in uids for uids in images.values()):
                    self._mark(document, tree, new, queue)
                for position in self._extend(index, parent, tree):
                    self._mark_calls_under(document, position, new, queue)
        self._drain(queue, new)
        return new

    def _hosted(self, tree: Node) -> bool:
        """Is any ancestor of ``tree`` a param host or context host?"""
        ancestor = tree.parent
        while ancestor is not None:
            if ancestor.uid in self._param_hosts \
                    or ancestor.uid in self._context_hosts:
                return True
            ancestor = ancestor.parent
        return False

    @staticmethod
    def _tree_calls(tree: Node) -> List[Node]:
        calls = tree.function_nodes()
        if tree.is_function:
            calls = [tree] + calls
        return calls

    # -- goal images -----------------------------------------------------

    def _extend(self, index: int, parent: Optional[Node],
                tree: Node) -> List[Node]:
        """Grow goal ``index``'s images into ``tree``, a child of ``parent``.

        The descent starts from the pattern nodes ``parent`` serves: the
        children of those whose images hold it, plus regex nodes whose
        images hold it (the path may wander on).  ``parent=None`` seeds:
        the pattern root is the only candidate for ``tree`` (the document
        root).  Returns the nodes that became positions.
        """
        images = self._images[index]
        if parent is None:
            frontier = [self._goals[index][1]]
        else:
            frontier = _below(pnode for pnode, uids in images.items()
                              if parent.uid in uids)
        positions: List[Node] = []
        stack = [(tree, frontier)] if frontier else []
        while stack:
            node, candidates = stack.pop()
            matched = [pnode for pnode in candidates
                       if spec_compatible(pnode.spec, node.marking)]
            positional = False
            for pnode in matched:
                if _positional(pnode):
                    images.setdefault(pnode, set()).add(node.uid)
                    positional = True
            if positional:
                positions.append(node)
            below = _below(matched)
            if below:
                stack.extend((child, below) for child in node.children)
        return positions

    # -- the goal fixpoint -----------------------------------------------

    def _add_goal(self, doc_name: str, pattern: PatternNode) -> int:
        index = len(self._goals)
        self._goals.append((doc_name, pattern))
        self._images.append({})
        self._goals_by_doc.setdefault(doc_name, []).append(index)
        return index

    def _drain(self, queue: List[int],
               new: Optional[Set[int]] = None) -> Set[int]:
        if new is None:
            new = set()
        cursor = 0
        while cursor < len(queue):
            self._seed_goal(queue[cursor], new, queue)
            cursor += 1
        return new

    def _seed_goal(self, goal_index: int, new: Set[int],
                   queue: List[int]) -> None:
        document = self.system.documents.get(self._goals[goal_index][0])
        if document is None:
            return
        for position in self._extend(goal_index, None, document.root):
            self._mark_calls_under(document, position, new, queue)

    def _mark_calls_under(self, document: Document, position: Node,
                          new: Set[int], queue: List[int]) -> None:
        for call in position.children:
            if call.is_function:
                self._mark(document, call, new, queue)

    def _mark(self, document: Document, call: Node, new: Set[int],
              queue: List[int]) -> None:
        """Mark one call relevant and close over its positional/goal duties."""
        if call.uid in self._relevant:
            return
        self._relevant[call.uid] = (document, call)
        new.add(call.uid)
        self._param_hosts.add(call.uid)
        # Calls inside the parameters feed the service's ``input``.
        for param in call.children:
            for descendant in param.function_nodes():
                self._mark(document, descendant, new, queue)
        service = self.system.services.get(call.marking.name)
        if service is None:
            return
        reads = service.reads_documents()
        parent = call.parent
        # Calls inside the context subtree feed ``context``.
        if CONTEXT in reads and parent is not None:
            self._context_hosts.add(parent.uid)
            for descendant in parent.function_nodes():
                if descendant is not call:
                    self._mark(document, descendant, new, queue)
        if service.name in self._processed_services:
            return
        self._processed_services.add(service.name)
        if self.use_service_bodies and isinstance(
                service, (QueryService, UnionQueryService)):
            for rule in service.queries:
                for atom in rule.body:
                    if atom.document in (INPUT, CONTEXT):
                        continue  # handled positionally above
                    queue.append(self._add_goal(atom.document, atom.pattern))
        elif not self.use_service_bodies:
            # Fully black-box: anything the service reads may feed it, so
            # every call in those documents becomes relevant.
            for name in reads - {INPUT, CONTEXT}:
                target = self.system.documents.get(name)
                if target is None:
                    continue
                for node in target.root.function_nodes():
                    self._mark(target, node, new, queue)
