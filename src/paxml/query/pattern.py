"""Positive AXML tree patterns (Section 3.1) and their instantiation.

A tree pattern is a tree whose node specifications are markings (labels,
function names, atomic values), typed variables, or — in the positive+reg
extension of Section 5 — a :class:`RegexSpec` standing for a downward path
whose label word belongs to a regular language.

Given a typing-respecting assignment µ, :func:`instantiate` computes µ(p);
the matcher (:mod:`paxml.query.matching`) enumerates all µ with
``µ(p) ⊆ d``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from ..automata.nfa import NFA
from ..automata.regex import Regex, parse_regex
from ..tree import store as tree_store
from ..tree.node import FunName, Label, Marking, Node, Value
from ..tree.reduction import canonical_key
from .variables import FunVar, LabelVar, TreeVar, ValueVar, Variable, binds_marking


class RegexSpec:
    """A regular path expression used in place of a label (Section 5).

    The node carrying this spec matches document node ``n`` when there is a
    downward path ``n = n0 … nm`` whose label word is accepted; the pattern's
    children then have to match below the path's *end node* ``nm``.
    """

    __slots__ = ("regex", "nfa", "_text")

    def __init__(self, regex: Union[Regex, str]):
        if isinstance(regex, str):
            regex = parse_regex(regex)
        self.regex = regex
        self.nfa = NFA.from_regex(regex)
        self._text = str(regex)
        if self.nfa.accepts_empty():
            raise ValueError(
                f"regex {self._text!r} accepts the empty word; a zero-length "
                "path has no end node to anchor the pattern at (Section 5)"
            )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RegexSpec) and other._text == self._text

    def __hash__(self) -> int:
        return hash(("RegexSpec", self._text))

    def __repr__(self) -> str:
        return f"RegexSpec({self._text!r})"

    def __str__(self) -> str:
        return f"[{self._text}]"


NodeSpec = Union[Marking, Variable, RegexSpec]


class PatternNode:
    """One node of a tree pattern: a spec plus children patterns."""

    __slots__ = ("spec", "children")

    def __init__(self, spec: NodeSpec, children: Optional[List["PatternNode"]] = None):
        self.spec = spec
        self.children: List[PatternNode] = list(children or [])
        if isinstance(spec, (Value, ValueVar, TreeVar)) and self.children:
            raise ValueError(
                f"{spec} patterns must be leaves: values are leaves (Def. 2.1) "
                "and tree variables stand for whole subtrees"
            )

    def iter_nodes(self) -> Iterator["PatternNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def variables(self) -> List[Variable]:
        """All variables, in pre-order, possibly with repeats."""
        return [n.spec for n in self.iter_nodes()
                if isinstance(n.spec, (LabelVar, FunVar, ValueVar, TreeVar))]

    def has_tree_vars(self) -> bool:
        return any(isinstance(n.spec, TreeVar) for n in self.iter_nodes())

    def has_regex(self) -> bool:
        return any(isinstance(n.spec, RegexSpec) for n in self.iter_nodes())

    def size(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def depth(self) -> int:
        """Longest root-to-leaf path in edges — how deep matching inspects."""
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def copy(self) -> "PatternNode":
        return PatternNode(self.spec, [c.copy() for c in self.children])

    def __repr__(self) -> str:
        return f"PatternNode<{pattern_to_text(self)}>"


Assignment = Dict[Variable, Union[Marking, Node]]


def instantiate(pattern: PatternNode, assignment: Assignment) -> Node:
    """Compute µ(p): substitute every variable and build a plain tree.

    Tree-variable images are deep-copied so instantiations never share
    nodes with documents.  Raises :class:`KeyError` on unbound variables and
    :class:`ValueError` on regex specs (those denote path constraints, not
    trees; heads may not contain them).
    """
    spec = pattern.spec
    if isinstance(spec, RegexSpec):
        raise ValueError("regular path expressions cannot appear in rule heads")
    if isinstance(spec, TreeVar):
        image = assignment[spec]
        if not isinstance(image, Node):
            raise TypeError(f"tree variable {spec} bound to non-tree {image!r}")
        return image.copy()
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        image = assignment[spec]
        if isinstance(image, Node):
            raise TypeError(f"{spec.kind} variable {spec} bound to a tree")
        if not spec.admits(image):
            raise TypeError(f"{spec} cannot be bound to {image!r}")
        marking: Marking = image  # type: ignore[assignment]
    else:
        marking = spec  # a concrete marking
    return Node(marking, [instantiate(child, assignment) for child in pattern.children])


_EMPTY_KEYSET: frozenset = frozenset()


def compile_head_key(pattern: PatternNode):
    """A closure computing ``canonical_key(instantiate(pattern, µ))`` from µ.

    Canonical keys compose structurally — ``(marking, frozenset(maximal
    child keys))`` — so for most heads the key of an answer is computable
    straight from the binding, without building the answer tree at all.
    The answer builder uses this to recognise duplicate answers (many join
    valuations project to the same head) before paying for instantiation.

    The one non-compositional ingredient is the sibling-maximality filter:
    with several children it needs subsumption tests between the actual
    trees.  Sibling subsumption requires equal root markings, so the
    filter is statically vacuous when every child root is a concrete
    marking and no two are equal — the common shape for heads.  Returns
    ``None`` (caller falls back to instantiate-then-key) otherwise.
    """
    spec = pattern.spec
    if isinstance(spec, RegexSpec):
        return None
    if isinstance(spec, TreeVar):
        # The bound subtree is copied at instantiation; the copy is
        # structurally identical, so the document node's (cached) key is
        # the answer subtree's key.
        return lambda binding: canonical_key(binding[spec])
    children = pattern.children
    if len(children) > 1:
        markings = [child.spec for child in children]
        if any(isinstance(m, (LabelVar, FunVar, ValueVar, TreeVar, RegexSpec))
               for m in markings) or len(set(markings)) != len(markings):
            return None
    subkeys = [compile_head_key(child) for child in children]
    if any(sub is None for sub in subkeys):
        return None
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        if not children:
            return lambda binding: (binding[spec], _EMPTY_KEYSET)
        return lambda binding: (
            binding[spec], frozenset(sub(binding) for sub in subkeys))
    # Concrete marking; collapse to a constant when the whole subtree is.
    if not children:
        const_key = (spec, _EMPTY_KEYSET)
        return lambda binding: const_key
    return lambda binding: (
        spec, frozenset(sub(binding) for sub in subkeys))


def compile_head_bits(pattern: PatternNode):
    """A closure computing the packed subtree bits of µ(head) from µ.

    The bitset of an instantiated head is the union of one bit per
    marking in it: a constant mask for the concrete markings (re-interned
    lazily — intern ids are bit positions and die with ``clear_store``),
    one interned bit per bound node variable, and the store-cached bits
    of each bound subtree for tree variables.  Computing this from the
    binding spares the store from walking fresh answer trees that exist
    only to sit in a result antichain.  Reducing the answer keeps the
    bits: a pruned sibling's markings all occur in the sibling that
    subsumes it.
    """
    const_markings = []
    var_specs = []
    tree_specs = []
    for node in pattern.iter_nodes():
        spec = node.spec
        if isinstance(spec, RegexSpec):
            return None
        if isinstance(spec, TreeVar):
            tree_specs.append(spec)
        elif isinstance(spec, (LabelVar, FunVar, ValueVar)):
            var_specs.append(spec)
        else:
            const_markings.append(spec)
    intern = tree_store.intern_marking
    subtree_bits = tree_store.subtree_bits
    cache = {"generation": -1, "mask": 0}

    def head_bits(binding) -> int:
        generation = tree_store.generation()
        if cache["generation"] != generation:
            mask = 0
            for marking in const_markings:
                mask |= 1 << intern(marking)
            cache["generation"] = generation
            cache["mask"] = mask
        bits = cache["mask"]
        for spec in var_specs:
            bits |= 1 << intern(binding[spec])
        for spec in tree_specs:
            # Tree-variable images are document subtrees with memo entries;
            # the instantiated copy shares their marking content exactly.
            bits |= subtree_bits(binding[spec])
        return bits
    return head_bits


def pattern_to_text(pattern: PatternNode) -> str:
    """Concrete syntax for a pattern (round-trips with the query parser)."""
    spec = pattern.spec
    if isinstance(spec, Label):
        head = spec.name
    elif isinstance(spec, FunName):
        head = "!" + spec.name
    elif isinstance(spec, Value):
        if isinstance(spec.value, bool):
            head = "true" if spec.value else "false"
        elif isinstance(spec.value, (int, float)):
            head = repr(spec.value)
        else:
            escaped = spec.value.replace("\\", "\\\\").replace('"', '\\"')
            head = f'"{escaped}"'
    elif isinstance(spec, (LabelVar, FunVar, ValueVar, TreeVar)):
        head = str(spec)
    elif isinstance(spec, RegexSpec):
        head = str(spec)
    else:
        raise TypeError(f"unknown pattern spec {spec!r}")
    if not pattern.children:
        return head
    inner = ", ".join(pattern_to_text(child) for child in pattern.children)
    return f"{head}{{{inner}}}"


def from_tree(tree: Node) -> PatternNode:
    """Lift a plain tree to the (variable-free) pattern matching exactly it."""
    return PatternNode(tree.marking, [from_tree(child) for child in tree.children])
