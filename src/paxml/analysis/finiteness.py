"""q-finiteness of systems (Propositions 3.2 and 3.3).

A system ``I`` is *q-finite* when the full query result ``[q](I)`` is
finite — the system itself may have infinite semantics.  The paper's
landscape, which this module implements:

* **simple query** — always q-finite: each variable ranges over the
  (finite) atom domain, so there are finitely many instantiations
  (Section 3.3);
* **acyclic system** — always q-finite: the system terminates, so ``[I]``
  and hence ``[q](I)`` are finite (Prop. 3.2(2));
* **simple system, arbitrary positive query** — decidable: match the body
  patterns against the finite graph representation of ``[I]``.  A tree
  variable binds the (possibly infinite) subtree unfolding from its image
  vertex; the result is finite iff no satisfying assignment puts a tree
  variable at a vertex that can reach a cycle (Prop. 3.2(3));
* **non-simple system, even with a simple query** — undecidable in
  general (Prop. 3.3: emptiness of ``[q](I)`` is undecidable); the
  implementation falls back to budgeted saturation and answers UNKNOWN
  when the budget runs out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..query.pattern import PatternNode, RegexSpec
from ..query.rule import PositiveQuery
from ..query.variables import FunVar, LabelVar, TreeVar, ValueVar
from ..query.matching import _inequalities_hold  # shared inequality logic
from ..tree.node import Label
from ..tree.regular import RegularTreeGraph
from ..system.dependency import is_acyclic
from ..system.system import AXMLSystem
from .graphrep import GraphRepresentation, build_graph_representation
from .termination import TerminationStatus, analyze_termination


class Finiteness(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    UNKNOWN = "unknown"


@dataclass
class QFinitenessReport:
    status: Finiteness
    reason: str
    #: for INFINITE on simple systems: (document, vertex) pairs where a
    #: tree variable grabs an infinite subtree
    witnesses: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def finite(self) -> bool:
        return self.status is Finiteness.FINITE


# ----------------------------------------------------------------------
# pattern matching over regular-tree graphs
# ----------------------------------------------------------------------

GraphBinding = Dict[object, object]  # Variable -> marking | ("vertex", doc, id)


def match_pattern_graph(pattern: PatternNode, graph: RegularTreeGraph,
                        vertex: int, doc_name: str,
                        binding: Optional[GraphBinding] = None
                        ) -> Iterator[GraphBinding]:
    """All embeddings of ``pattern`` into the *unfolding* of ``graph`` at
    ``vertex``.

    Patterns have finite depth, so an embedding into the (possibly
    infinite) unfolding is exactly an embedding into the graph that follows
    edges; tree variables bind vertices (standing for the whole unfolding
    below them).
    """
    yield from _match_vertex(pattern, graph, vertex, doc_name,
                             dict(binding or {}))


def _match_vertex(pattern: PatternNode, graph: RegularTreeGraph, vertex: int,
                  doc_name: str, binding: GraphBinding) -> Iterator[GraphBinding]:
    spec = pattern.spec
    marking = graph.marking[vertex]
    if isinstance(spec, RegexSpec):
        for end in _regex_end_vertices(spec, graph, vertex):
            yield from _match_children(pattern.children, graph, end,
                                       doc_name, binding)
        return
    if isinstance(spec, TreeVar):
        extended = dict(binding)
        extended[spec] = ("vertex", doc_name, vertex)
        yield extended
        return
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        if not spec.admits(marking):
            return
        bound = binding.get(spec)
        if bound is not None:
            if bound != marking:
                return
            yield from _match_children(pattern.children, graph, vertex,
                                       doc_name, binding)
        else:
            extended = dict(binding)
            extended[spec] = marking
            yield from _match_children(pattern.children, graph, vertex,
                                       doc_name, extended)
        return
    if spec == marking:
        yield from _match_children(pattern.children, graph, vertex,
                                   doc_name, binding)


def _match_children(patterns: List[PatternNode], graph: RegularTreeGraph,
                    vertex: int, doc_name: str,
                    binding: GraphBinding) -> Iterator[GraphBinding]:
    if not patterns:
        yield binding
        return
    first, rest = patterns[0], patterns[1:]
    for successor in sorted(graph.succ[vertex]):
        for extended in _match_vertex(first, graph, successor, doc_name, binding):
            yield from _match_children(rest, graph, vertex, doc_name, extended)


def _regex_end_vertices(spec: RegexSpec, graph: RegularTreeGraph,
                        start: int) -> Iterator[int]:
    """End vertices of accepted paths in the unfolding; cycle-safe.

    Unlike trees, graphs revisit (vertex, state-set) pairs, so the walk
    memoises them — the NFA product is finite even when the unfolding is
    infinite.
    """
    if not isinstance(graph.marking[start], Label):
        return
    nfa = spec.nfa
    initial = nfa.step([nfa.initial], graph.marking[start].name)  # type: ignore[union-attr]
    if not initial:
        return
    seen: Set[Tuple[int, frozenset]] = set()
    stack: List[Tuple[int, frozenset]] = [(start, initial)]
    yielded: Set[int] = set()
    while stack:
        vertex, states = stack.pop()
        if (vertex, states) in seen:
            continue
        seen.add((vertex, states))
        if states & nfa.accepting and vertex not in yielded:
            yielded.add(vertex)
            yield vertex
        for successor in graph.succ[vertex]:
            marking = graph.marking[successor]
            if isinstance(marking, Label):
                next_states = nfa.step(states, marking.name)
                if next_states:
                    stack.append((successor, next_states))


# ----------------------------------------------------------------------
# the decision procedure
# ----------------------------------------------------------------------


def _cycle_reaching_vertices(graph: RegularTreeGraph) -> Set[int]:
    """Vertices whose unfolding is infinite (a cycle is reachable)."""
    infinite: Set[int] = set()
    reachable = graph.reachable()
    # A vertex unfolds infinitely iff it reaches a vertex on a cycle.
    on_cycle = {
        vertex for vertex in reachable
        if _reaches(graph, vertex, vertex, strict=True)
    }
    for vertex in reachable:
        if any(_reaches(graph, vertex, target) for target in on_cycle):
            infinite.add(vertex)
    return infinite


def _reaches(graph: RegularTreeGraph, source: int, target: int,
             strict: bool = False) -> bool:
    stack = list(graph.succ[source]) if strict else [source]
    seen: Set[int] = set()
    while stack:
        vertex = stack.pop()
        if vertex == target:
            return True
        if vertex in seen:
            continue
        seen.add(vertex)
        stack.extend(graph.succ[vertex])
    return False


def snapshot_over_graphs(representation: "GraphRepresentation",
                         query: PositiveQuery) -> "Forest":
    """``[q](I)`` for a *simple* query over a simple system's representation.

    Simple queries bind only markings, and their patterns have finite
    depth, so matching over the graphs is exactly matching over the
    (possibly infinite) limit ``[I]`` — this is how the library evaluates
    full results over divergent simple systems.  The satisfying bindings
    go through the query's answer builder, as in ``evaluate_snapshot``.
    """
    from ..query.matching import answer_builder
    from ..tree.antichain import BitsetAntichain
    from ..tree.document import Forest

    if not query.is_simple:
        raise ValueError(
            "full results over infinite semantics are computed for simple "
            "queries only (tree variables may bind infinite subtrees — "
            "check is_q_finite first)"
        )
    bindings: List[GraphBinding] = [{}]
    for atom in query.body:
        graph = representation.graphs.get(atom.document)
        if graph is None or graph.root is None:
            return Forest.empty()
        extended: List[GraphBinding] = []
        seen: Set[frozenset] = set()
        for binding in bindings:
            for result in match_pattern_graph(atom.pattern, graph, graph.root,
                                              atom.document, binding):
                key = frozenset(result.items())
                if key not in seen:
                    seen.add(key)
                    extended.append(result)
        bindings = extended
        if not bindings:
            return Forest.empty()
    satisfying = [b for b in bindings if _inequalities_hold(query.inequalities, b)]
    # The answers are bound to graph vertices, not document nodes, and
    # are never grafted: no derivation is staged for them.
    results = BitsetAntichain()
    answer_builder(query).insert(satisfying, results, set(), {}, stage=False)
    return Forest(results.items())


def is_q_finite(system: AXMLSystem, query: PositiveQuery,
                max_steps: int = 200_000) -> QFinitenessReport:
    """Decide (or semi-decide) whether ``[q](I)`` is finite."""
    if query.is_simple:
        return QFinitenessReport(
            Finiteness.FINITE,
            "simple queries always have finite results: every variable "
            "ranges over the finite atom domain (Section 3.3)",
        )
    if is_acyclic(system):
        return QFinitenessReport(
            Finiteness.FINITE,
            "acyclic systems terminate, so [I] and [q](I) are finite "
            "(Prop. 3.2(2))",
        )
    if system.is_simple:
        return _decide_on_graph(system, query, max_steps)
    report = analyze_termination(system, max_steps=max_steps)
    if report.status is TerminationStatus.TERMINATES:
        return QFinitenessReport(
            Finiteness.FINITE,
            "the system terminates (verified by saturation), so [q](I) is "
            "the finite snapshot over the finite [I]",
        )
    return QFinitenessReport(
        Finiteness.UNKNOWN,
        "non-simple system without a reachable fixpoint: q-finiteness is "
        "undecidable in general (Prop. 3.2(1), Prop. 3.3)",
    )


def _decide_on_graph(system: AXMLSystem, query: PositiveQuery,
                     max_steps: int) -> QFinitenessReport:
    representation = build_graph_representation(system, max_steps=max_steps)
    dangerous: Dict[str, Set[int]] = {
        name: _cycle_reaching_vertices(graph)
        for name, graph in representation.graphs.items()
    }
    witnesses: List[Tuple[str, int]] = []
    bindings: List[GraphBinding] = [{}]
    for atom in query.body:
        if atom.document not in representation.graphs:
            return QFinitenessReport(
                Finiteness.FINITE,
                f"document {atom.document!r} does not exist in the system, "
                "so the body is unsatisfiable and [q](I) is empty",
            )
        graph = representation.graphs[atom.document]
        extended: List[GraphBinding] = []
        for binding in bindings:
            assert graph.root is not None
            extended.extend(
                match_pattern_graph(atom.pattern, graph, graph.root,
                                    atom.document, binding)
            )
        bindings = extended
        if not bindings:
            return QFinitenessReport(
                Finiteness.FINITE, "the body has no match in [I]; [q](I) is empty"
            )
    for binding in bindings:
        marks = {k: v for k, v in binding.items() if not isinstance(v, tuple)}
        if not _inequalities_hold(query.inequalities, marks):
            continue
        for value in binding.values():
            if isinstance(value, tuple) and value[0] == "vertex":
                _tag, doc_name, vertex = value
                if vertex in dangerous[doc_name]:
                    witnesses.append((doc_name, vertex))
    if witnesses:
        return QFinitenessReport(
            Finiteness.INFINITE,
            "a tree variable can bind a subtree of [I] that unfolds through "
            "a cycle of the graph representation — [q](I) contains trees of "
            "unbounded size",
            witnesses,
        )
    return QFinitenessReport(
        Finiteness.FINITE,
        "every tree-variable image in every satisfying assignment unfolds "
        "to a finite subtree of [I]",
    )
