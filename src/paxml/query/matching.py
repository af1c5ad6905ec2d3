"""Snapshot evaluation of positive queries (Section 3.1).

The *snapshot result* ``q(I)`` is the forest of all ``µ(r)`` for assignments
µ that respect typing, satisfy the inequalities, and embed every body
pattern into its document: ``µ(pi) ⊆ I(di)``.  Embeddings are subsumption
homomorphisms — root to root, parent-child preserving, non-injective — so
two pattern siblings may map onto the same document node.

Tree variables are enumerated over *actual document subtrees* only: any
other tree assigned to the variable is subsumed by the subtree at the image
node, so restricting to actual subtrees changes nothing after forest
reduction (the result is the same reduced forest).

The matcher also evaluates positive+reg patterns natively by walking
document paths and NFA states in lockstep; Proposition 5.1's translation ψ
(:mod:`paxml.analysis.translation`) is validated against this native
semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..obs import bus as obs_bus
from ..obs.provenance import stage_answer
from ..tree.antichain import BitsetAntichain
from ..tree.document import Forest
from ..tree.node import FunName, Label, Node, Value
from ..tree.reduction import canonical_key, reduce_in_place
from .pattern import (
    Assignment,
    PatternNode,
    RegexSpec,
    compile_head_bits,
    compile_head_key,
    instantiate,
)
from .rule import Inequality, PositiveQuery
from .variables import FunVar, LabelVar, TreeVar, ValueVar


class MissingDocumentError(KeyError):
    """A body atom refers to a document the environment does not provide."""

    def __init__(self, name: str, available: Iterable[str]):
        super().__init__(name)
        self.name = name
        self.available = sorted(available)

    def __str__(self) -> str:
        return (
            f"query reads document {self.name!r} but the environment only "
            f"provides {self.available}"
        )


def _regex_end_nodes(spec: RegexSpec, start: Node) -> Iterator[Node]:
    """All nodes ``nm`` with an accepted path ``start = n0 … nm``.

    The word includes both endpoints' labels, so only label nodes can lie on
    a path.  In a tree the path from ``start`` to any node is unique, hence
    each node is visited at most once and the walk is linear.
    """
    if not isinstance(start.marking, Label):
        return
    nfa = spec.nfa
    states = nfa.step([nfa.initial], start.marking.name)
    if not states:
        return
    stack: List[Tuple[Node, frozenset]] = [(start, states)]
    while stack:
        node, node_states = stack.pop()
        if node_states & nfa.accepting:
            yield node
        for child in node.children:
            if isinstance(child.marking, Label):
                next_states = nfa.step(node_states, child.marking.name)
                if next_states:
                    stack.append((child, next_states))


def _match_node(pattern: PatternNode, node: Node,
                binding: Assignment) -> Iterator[Assignment]:
    """All extensions of ``binding`` embedding ``pattern`` at ``node``."""
    spec = pattern.spec
    if isinstance(spec, RegexSpec):
        for end in _regex_end_nodes(spec, node):
            yield from _match_children(pattern.children, end, binding)
        return
    if isinstance(spec, TreeVar):
        extended = dict(binding)
        extended[spec] = node  # copied only at instantiation time
        yield extended
        return
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        if not spec.admits(node.marking):
            return
        bound = binding.get(spec)
        if bound is not None:
            if bound != node.marking:
                return
            yield from _match_children(pattern.children, node, binding)
        else:
            extended = dict(binding)
            extended[spec] = node.marking
            yield from _match_children(pattern.children, node, extended)
        return
    # Constant marking.
    if spec == node.marking:
        yield from _match_children(pattern.children, node, binding)


def _match_children(patterns: List[PatternNode], node: Node,
                    binding: Assignment) -> Iterator[Assignment]:
    """Embed each child pattern at *some* child of ``node`` (non-injectively)."""
    if not patterns:
        yield binding
        return
    first, rest = patterns[0], patterns[1:]
    candidates: Iterable[Node] = node.children
    spec = first.spec
    if isinstance(spec, (Label, FunName, Value)):
        candidates = [c for c in node.children if c.marking == spec]
    for child in candidates:
        for extended in _match_node(first, child, binding):
            yield from _match_children(rest, node, extended)


def match_pattern(pattern: PatternNode, root: Node,
                  binding: Optional[Assignment] = None) -> Iterator[Assignment]:
    """All assignments µ with ``µ(pattern) ⊆ root`` (root mapped to root)."""
    yield from _match_node(pattern, root, dict(binding or {}))


# ----------------------------------------------------------------------
# Delta-driven matching (the incremental engine's semi-naive evaluation).
#
# Documents grow monotonically: subtrees are only ever appended, and every
# append bumps the version stamp of each node on its root path (see
# ``paxml.tree.node``).  An embedding whose image nodes all predate a cutoff
# stamp — and whose tree-variable subtrees are unchanged since it — already
# existed at the cutoff, because old nodes never move and markings are
# immutable.  Contrapositively, every *new* embedding maps at least one
# pattern node to a node created after the cutoff (uid > cutoff) or binds a
# tree variable to a subtree grown since it (version > cutoff).  The
# matchers below enumerate exactly those embeddings, pruning every document
# subtree with ``version <= cutoff`` as soon as the remaining pattern can no
# longer reach new data.
# ----------------------------------------------------------------------


class _DeltaContext:
    """Per-evaluation state for one delta pass: cutoff + new-child lists.

    The new-children lists are memoised so a join re-visiting the same node
    for thousands of partial bindings filters its children once, not once
    per binding.
    """

    __slots__ = ("cutoff", "_new_children")

    def __init__(self, cutoff: int):
        self.cutoff = cutoff
        self._new_children: Dict[int, List[Node]] = {}

    def new_children(self, node: Node) -> List[Node]:
        cached = self._new_children.get(id(node))
        if cached is None:
            cutoff = self.cutoff
            cached = [c for c in node.children if c.version > cutoff]
            self._new_children[id(node)] = cached
        return cached


def _match_node_delta(pattern: PatternNode, node: Node, binding: Assignment,
                      ctx: _DeltaContext,
                      need_new: bool) -> Iterator[Tuple[Assignment, bool]]:
    """Extensions of ``binding`` embedding ``pattern`` at ``node``.

    Yields ``(assignment, used_new)``.  With ``need_new`` the embedding of
    this pattern subtree must itself touch post-cutoff data; since all its
    images lie inside ``node``'s subtree, an unchanged subtree is pruned
    outright.  Callers maintain ``need_new ⇒ newness not yet witnessed``.
    """
    if need_new and node.version <= ctx.cutoff:
        return
    spec = pattern.spec
    if isinstance(spec, RegexSpec):
        for end in _regex_end_nodes(spec, node):
            # A path ending at a pre-cutoff node consists of pre-cutoff
            # nodes only (descendants of new nodes are new), so the end
            # node's age decides the whole path's.
            end_new = end.uid > ctx.cutoff
            yield from _match_children_delta(pattern.children, end, binding,
                                             ctx, need_new and not end_new,
                                             end_new)
        return
    if isinstance(spec, TreeVar):
        # The entry prune already rejected unchanged subtrees under
        # need_new, so reaching here with need_new implies the subtree (and
        # hence the binding) is new.
        extended = dict(binding)
        extended[spec] = node
        yield extended, node.version > ctx.cutoff
        return
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        if not spec.admits(node.marking):
            return
        self_new = node.uid > ctx.cutoff
        bound = binding.get(spec)
        if bound is not None:
            if bound != node.marking:
                return
            yield from _match_children_delta(pattern.children, node, binding,
                                             ctx, need_new and not self_new,
                                             self_new)
        else:
            extended = dict(binding)
            extended[spec] = node.marking
            yield from _match_children_delta(pattern.children, node, extended,
                                             ctx, need_new and not self_new,
                                             self_new)
        return
    if spec == node.marking:
        self_new = node.uid > ctx.cutoff
        yield from _match_children_delta(pattern.children, node, binding,
                                         ctx, need_new and not self_new,
                                         self_new)


def _match_children_delta(patterns: List[PatternNode], node: Node,
                          binding: Assignment, ctx: _DeltaContext,
                          need_new: bool,
                          have_new: bool) -> Iterator[Tuple[Assignment, bool]]:
    """Embed the child patterns, threading the newness obligation.

    Only the *last* remaining sibling inherits a hard ``need_new``: earlier
    siblings may match old data as long as a later one reaches new data —
    that split is exactly the semi-naive ``Δ⋈full + full⋈Δ`` decomposition,
    applied inside a single pattern.
    """
    if not patterns:
        if need_new:
            return
        yield binding, have_new
        return
    first, rest = patterns[0], patterns[1:]
    first_need = need_new and not rest
    candidates: Iterable[Node] = (
        ctx.new_children(node) if first_need else node.children
    )
    spec = first.spec
    if isinstance(spec, (Label, FunName, Value)):
        candidates = [c for c in candidates if c.marking == spec]
    for child in candidates:
        for extended, sub_new in _match_node_delta(first, child, binding,
                                                   ctx, first_need):
            new_now = have_new or sub_new
            yield from _match_children_delta(rest, node, extended, ctx,
                                             need_new and not new_now,
                                             new_now)


def match_pattern_delta(pattern: PatternNode, root: Node, cutoff: int,
                        binding: Optional[Assignment] = None
                        ) -> Iterator[Assignment]:
    """Assignments embedding ``pattern`` at ``root`` that use post-cutoff data.

    The complement of the cached set: together with the assignments found at
    stamp ``cutoff`` this covers all current embeddings (monotone growth,
    Proposition 3.1).
    """
    if root.version <= cutoff:
        return
    ctx = _DeltaContext(cutoff)
    for assignment, _used_new in _match_node_delta(pattern, root,
                                                   dict(binding or {}),
                                                   ctx, True):
        yield assignment


def enumerate_assignments_delta(query: PositiveQuery,
                                documents: Mapping[str, Node],
                                cutoff: int,
                                seen: set) -> List[Assignment]:
    """Satisfying assignments not yet recorded in ``seen``.

    Semi-naive over body atoms: one pass per atom, restricting that atom's
    embeddings to the delta since ``cutoff`` while the other atoms match in
    full.  A pass is skipped when its atom's document is unchanged, so an
    invocation that grew a single document only pays for the atoms reading
    it.  ``seen`` is updated in place with the new assignments' keys.
    Runs the compiled plan (:meth:`QueryPlan.execute_delta`);
    :func:`naive_assignments_delta` is the oracle it is tested against.
    """
    from .plan import compile_query  # lazy: plan imports this module

    return compile_query(query).execute_delta(documents, cutoff, seen)


def naive_assignments_delta(query: PositiveQuery,
                            documents: Mapping[str, Node],
                            cutoff: int,
                            seen: set) -> List[Assignment]:
    """Test oracle for :func:`enumerate_assignments_delta`: the same
    semi-naive contract, as a naive backtracking join in author order."""
    body = query.body
    for atom in body:
        if atom.document not in documents:
            raise MissingDocumentError(atom.document, documents.keys())
    new_assignments: List[Assignment] = []
    for i, delta_atom in enumerate(body):
        if documents[delta_atom.document].version <= cutoff:
            continue
        bindings: List[Assignment] = [{}]
        for j, atom in enumerate(body):
            root = documents[atom.document]
            extended: List[Assignment] = []
            step_seen = set()
            for binding in bindings:
                matches = (
                    match_pattern_delta(atom.pattern, root, cutoff, binding)
                    if j == i else match_pattern(atom.pattern, root, binding)
                )
                for result in matches:
                    key = _binding_key(result)
                    if key not in step_seen:
                        step_seen.add(key)
                        extended.append(result)
            bindings = extended
            if not bindings:
                break
        keyer = binding_keyer(query)
        for binding in bindings:
            key = keyer(binding)
            if key in seen:
                continue
            seen.add(key)
            if _inequalities_hold(query.inequalities, binding):
                new_assignments.append(binding)
    return new_assignments


def _binding_key(binding: Assignment) -> frozenset:
    """Hashable identity of an assignment, for deduplication.

    Tree-variable images are compared by canonical key, so two embeddings
    binding a variable to equivalent subtrees count as one assignment.
    Works on *partial* bindings (mid-join dedup); complete assignments of
    a known query should use :func:`binding_keyer` instead.
    """
    items = []
    for variable, value in binding.items():
        if isinstance(value, Node):
            items.append((variable, ("tree", canonical_key(value))))
        else:
            items.append((variable, value))
    return frozenset(items)


def binding_keyer(query: PositiveQuery):
    """A compiled keyer for *complete* assignments of ``query``.

    Every satisfying assignment binds exactly the body variables, so a
    plain value tuple in one fixed variable order identifies it — no
    per-item variable hashing, no frozenset build.  The keyer is cached
    on the query and shared by every consumer (planner, naive matcher,
    incremental evaluator) so keys in persisted ``seen`` sets stay
    comparable whichever path produced them.
    """
    keyer = getattr(query, "_binding_keyer", None)
    if keyer is not None:
        return keyer
    from .variables import variable_sort_key  # local: tiny helper

    ordered = tuple(sorted(query.body_variables(), key=variable_sort_key))
    tree_vars = tuple(v for v in ordered if isinstance(v, TreeVar))
    if not tree_vars:
        def keyer(binding, _ordered=ordered):
            return tuple([binding[v] for v in _ordered])
    else:
        def keyer(binding, _ordered=ordered):
            return tuple([
                canonical_key(binding[v]) if isinstance(v, TreeVar)
                else binding[v]
                for v in _ordered])
    query._binding_keyer = keyer
    return keyer


def enumerate_assignments(query: PositiveQuery,
                          documents: Mapping[str, Node]) -> List[Assignment]:
    """All distinct satisfying assignments for the rule body.

    Runs the compiled plan of :mod:`paxml.query.plan`, the only
    production matcher; :func:`naive_assignments` is the oracle it is
    tested against.
    """
    from .plan import compile_query  # lazy: plan imports this module

    return compile_query(query).execute(documents)


def naive_assignments(query: PositiveQuery,
                      documents: Mapping[str, Node]) -> List[Assignment]:
    """Test oracle for :func:`enumerate_assignments`: the naive
    backtracking join, atoms in author order, inequalities checked on
    complete assignments only."""
    bindings: List[Assignment] = [{}]
    for atom in query.body:
        if atom.document not in documents:
            raise MissingDocumentError(atom.document, documents.keys())
        root = documents[atom.document]
        extended: List[Assignment] = []
        seen = set()
        for binding in bindings:
            for result in match_pattern(atom.pattern, root, binding):
                key = _binding_key(result)
                if key not in seen:
                    seen.add(key)
                    extended.append(result)
        bindings = extended
        if not bindings:
            return []
    return [b for b in bindings if _inequalities_hold(query.inequalities, b)]


# ----------------------------------------------------------------------
# Witness collection (provenance tracing).
#
# Given a *complete* assignment — one the matchers above already produced —
# re-walking the pattern cheaply recovers an embedding's image: the uids of
# the document nodes each pattern node mapped onto.  Only the provenance
# layer calls this, and only while tracing is on, so the enumeration
# matchers stay free of bookkeeping.
# ----------------------------------------------------------------------


def _match_node_witness(pattern: PatternNode, node: Node,
                        binding: Assignment, trail: Tuple[int, ...]
                        ) -> Iterator[Tuple[Assignment, Tuple[int, ...]]]:
    spec = pattern.spec
    if isinstance(spec, RegexSpec):
        for end in _regex_end_nodes(spec, node):
            yield from _match_children_witness(
                pattern.children, end, binding, trail + (node.uid, end.uid))
        return
    if isinstance(spec, TreeVar):
        bound = binding.get(spec)
        if (bound is None or bound is node
                or canonical_key(bound) == canonical_key(node)):
            yield binding, trail + (node.uid,)
        return
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        if not spec.admits(node.marking):
            return
        bound = binding.get(spec)
        if bound is not None and bound != node.marking:
            return
        yield from _match_children_witness(pattern.children, node, binding,
                                           trail + (node.uid,))
        return
    if spec == node.marking:
        yield from _match_children_witness(pattern.children, node, binding,
                                           trail + (node.uid,))


def _match_children_witness(patterns: List[PatternNode], node: Node,
                            binding: Assignment, trail: Tuple[int, ...]
                            ) -> Iterator[Tuple[Assignment, Tuple[int, ...]]]:
    if not patterns:
        yield binding, trail
        return
    first, rest = patterns[0], patterns[1:]
    candidates: Iterable[Node] = node.children
    spec = first.spec
    if isinstance(spec, (Label, FunName, Value)):
        candidates = [c for c in node.children if c.marking == spec]
    for child in candidates:
        for _extended, grown in _match_node_witness(first, child, binding,
                                                    trail):
            yield from _match_children_witness(rest, node, binding, grown)


def match_pattern_witness(pattern: PatternNode, root: Node,
                          binding: Assignment
                          ) -> Iterator[Tuple[Assignment, Tuple[int, ...]]]:
    """Embeddings of ``pattern`` at ``root`` consistent with ``binding``,
    paired with the uids of the image nodes (root first)."""
    yield from _match_node_witness(pattern, root, binding, ())


def witness_uids(query: PositiveQuery, documents: Mapping[str, Node],
                 binding: Assignment) -> List[int]:
    """Image-node uids of one embedding per body atom under ``binding``."""
    uids: set = set()
    for atom in query.body:
        root = documents.get(atom.document)
        if root is None:
            continue
        for _assignment, trail in match_pattern_witness(atom.pattern, root,
                                                        binding):
            uids.update(trail)
            break  # one witness per atom suffices for provenance
    return sorted(uids)


def valuation_summary(binding: Assignment) -> Dict[str, str]:
    """A JSON-safe rendering of an assignment for provenance events."""
    from ..tree.serializer import to_canonical

    summary: Dict[str, str] = {}
    for variable, value in binding.items():
        if isinstance(value, Node):
            text = to_canonical(value)
            summary[str(variable)] = (text if len(text) <= 60
                                      else text[:57] + "...")
        else:
            summary[str(variable)] = str(value)
    return summary


def _operand_value(operand, binding: Assignment):
    if isinstance(operand, (LabelVar, FunVar, ValueVar)):
        return binding[operand]
    return operand


def _inequalities_hold(inequalities: List[Inequality], binding: Assignment) -> bool:
    return all(
        _operand_value(ineq.left, binding) != _operand_value(ineq.right, binding)
        for ineq in inequalities
    )


class AnswerBuilder:
    """One query's answer pipeline: satisfying assignments → answer trees.

    Every evaluator runs this one loop — the snapshot result (one fresh
    antichain per call, :func:`evaluate_snapshot`) as well as the
    incremental evaluator's first and delta passes (one antichain per
    call site).  For each binding:

    * the answer's canonical key comes straight from the compiled head
      template (:func:`~paxml.query.pattern.compile_head_key`), so a
      binding whose answer is already known is skipped before anything
      is built; heads without a template (repeated or variable sibling
      markings) are instantiated and keyed instead;
    * each new key is instantiated once and reduced in place — the tree
      is the builder's own, so no copy is needed;
    * the answer enters the antichain with its marking bits computed
      from the binding (:func:`~paxml.query.pattern.compile_head_bits`).

    Equal keys mean equivalent answers, and once a key was inserted the
    antichain dominates that answer for good (it only ever gets
    stronger), so skipping repeats changes nothing: the result is the
    reduced forest of all the instantiations, first representative per
    equivalence class, in insertion order.  Compiled once per query
    (:func:`answer_builder`).
    """

    __slots__ = ("query", "head_key", "head_bits", "needs_reduce")

    def __init__(self, query: PositiveQuery):
        self.query = query
        self.head_key = compile_head_key(query.head)
        self.head_bits = compile_head_bits(query.head)
        # A template head without tree variables instantiates to a reduced
        # tree: each node's children carry pairwise distinct concrete
        # markings, so no sibling can subsume another.
        self.needs_reduce = (self.head_key is None
                             or query.head.has_tree_vars())

    def insert(self, bindings: Iterable[Assignment],
               results: BitsetAntichain, keys: set,
               documents: Mapping[str, Node], rule_index: int = 0,
               memo: Optional[Dict[tuple, Node]] = None,
               stage: bool = True) -> List[Node]:
        """Insert the answers of ``bindings`` whose keys are not in
        ``keys``; return those that entered ``results``.

        ``keys`` gains every new key.  ``memo`` (key → answer) lets a
        caller hand out one answer object per key across calls; without
        it every answer is a fresh tree sharing nothing with
        ``documents``.  While the bus is on and ``stage`` is set, each
        new key stages the derivation of the binding whose answer is
        kept.
        """
        head = self.query.head
        head_key, head_bits = self.head_key, self.head_bits
        entered: List[Node] = []
        for binding in bindings:
            answer = None
            if head_key is not None:
                key = head_key(binding)
                if key in keys:
                    continue
            else:
                answer = instantiate(head, binding)
                key = canonical_key(answer)
                if key in keys:
                    continue
            keys.add(key)
            cached = memo.get(key) if memo is not None else None
            if cached is not None:
                answer = cached
            else:
                if answer is None:
                    answer = instantiate(head, binding)
                if self.needs_reduce:
                    reduce_in_place(answer)
                if memo is not None:
                    memo[key] = answer
            if stage and obs_bus.ACTIVE:
                stage_answer(key, rule=str(self.query), rule_index=rule_index,
                             valuation=valuation_summary(binding),
                             matched=witness_uids(self.query, documents,
                                                  binding))
            if results.insert(answer,
                              head_bits(binding) if head_bits else None):
                entered.append(answer)
        return entered


def answer_builder(query: PositiveQuery) -> AnswerBuilder:
    """The query's :class:`AnswerBuilder`, compiled once and cached on it
    (like :func:`binding_keyer`)."""
    builder = getattr(query, "_answer_builder", None)
    if builder is None:
        builder = query._answer_builder = AnswerBuilder(query)
    return builder


def evaluate_snapshot(query: PositiveQuery,
                      documents: Mapping[str, Node],
                      rule_index: int = 0) -> Forest:
    """The snapshot result ``q(I)``, as a reduced forest.

    ``documents`` maps document names (including, when the query is a
    service body, the reserved names ``input`` and ``context``) to tree
    roots.  The input trees are never mutated; results are fresh trees.
    """
    results = BitsetAntichain()
    answer_builder(query).insert(enumerate_assignments(query, documents),
                                 results, set(), documents, rule_index)
    return Forest(results.items())


def evaluate_union_snapshot(queries: Iterable[PositiveQuery],
                            documents: Mapping[str, Node]) -> Forest:
    """The snapshot result of a union of rules, as a reduced forest.

    Every rule's answers go into one antichain, rule by rule: the same
    forest, in the same order, as folding :meth:`Forest.union` over the
    per-rule snapshots, without re-reducing the trees gathered so far.
    """
    results = BitsetAntichain()
    keys: set = set()
    for index, query in enumerate(queries):
        answer_builder(query).insert(enumerate_assignments(query, documents),
                                     results, keys, documents, index)
    return Forest(results.items())
