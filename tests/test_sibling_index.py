"""The kept sibling index of wide nodes against the linear oracles.

A node with at least ``WIDE_SIBLINGS`` children is pruned, grafted into
and patched through one :class:`~paxml.tree.antichain.SiblingIndex`
that lives on the node (``paxml.tree.reduction.sibling_index``).  It is
pure acceleration: every sibling list must come out exactly as the
linear ``antichain_insert`` leaves it, tree for tree and in order, and
``canonical_key``/``is_reduced`` on wide nodes must agree with their
pairwise definitions.  The graft sequences below cover the ways an
index can go stale: grafts onto the wide node, deep grafts under its
children (the ancestor sweep patches the index in place), appends
outside the graft path, ``clear_store()``, ``Node.copy()``, a wire
round trip and a checkpoint resume.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paxml import perf
from paxml.kernel import RunStatus, resume
from paxml.system import RewritingEngine, materialize
from paxml.system.invocation import graft_under
from paxml.tree import canonical_key, is_subsumed, label, val
from paxml.tree import store as tree_store
from paxml.tree.node import Label, Node
from paxml.tree.reduction import (WIDE_SIBLINGS, antichain_insert,
                                  is_reduced, reduce_in_place, sibling_index)
from paxml.tree.serializer import from_wire, to_wire
from paxml.workloads import portal_system

from .test_tree_store import (assert_memos_consistent,
                              assert_sibling_index_consistent,
                              assert_store_consistent)


@pytest.fixture(autouse=True)
def _clean_perf():
    perf.flags.set_all(True)
    perf.stats.reset()
    yield
    perf.flags.set_all(True)
    perf.stats.reset()


def random_row(rng: random.Random, keys: int = 12) -> Node:
    """A small tree over a few markings, so sibling subsumption is common."""
    fields = [label("k", val(rng.randrange(keys)))]
    for name in ("t", "u"):
        if rng.random() < 0.6:
            fields.append(label(name, *[val(v) for v in
                                        rng.sample(range(4), rng.randint(0, 2))]))
    return label("row", *fields)


def linear_reduction(children) -> list:
    """The children ``antichain_insert`` keeps, each reduced first."""
    for child in children:
        reduce_in_place(child)
    keep: list = []
    for child in children:
        antichain_insert(keep, child)
    return keep


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), width=st.integers(2, 90))
def test_reduction_keeps_what_antichain_insert_keeps(seed, width):
    """Narrow and wide sibling lists alike: the same children, the same
    node objects, in the same order as the linear insert."""
    rng = random.Random(seed)
    children = [random_row(rng) for _ in range(width)]
    expected = [id(child) for child in linear_reduction(list(children))]
    parent = Node(Label("p"), children)
    reduce_in_place(parent)
    assert [id(child) for child in parent.children] == expected
    if width >= WIDE_SIBLINGS:
        assert parent._sibs.current(parent, parent.version)
        assert_memos_consistent(parent)


# ----------------------------------------------------------------------
# canonical_key and is_reduced against their pairwise definitions
# ----------------------------------------------------------------------


def pairwise_key(node: Node):
    """Canonical key by definition: keys of the maximal child classes,
    maximality tested over all pairs."""
    reps = {}
    for child in node.children:
        reps.setdefault(pairwise_key(child), child)
    maximal = [key for key, child in reps.items()
               if not any(other is not child and is_subsumed(child, other)
                          for other in reps.values())]
    return (node.marking, frozenset(maximal))


def pairwise_reduced(root: Node) -> bool:
    return not any(
        a is not b and is_subsumed(a, b)
        for node in root.iter_nodes()
        for a in node.children for b in node.children)


@pytest.mark.parametrize("seed", range(12))
def test_wide_canonical_key_and_is_reduced_match_pairwise(seed):
    rng = random.Random(seed)
    width = rng.randint(WIDE_SIBLINGS, 80)
    tree = label("f", *[random_row(rng) for _ in range(width)],
                 label("g", *[random_row(rng, 40) for _ in range(40)]))
    assert canonical_key(tree) == pairwise_key(tree)
    assert is_reduced(tree) == pairwise_reduced(tree)
    reduced = tree.copy()
    reduce_in_place(reduced)
    assert is_reduced(reduced) and pairwise_reduced(reduced)
    assert canonical_key(reduced) == canonical_key(tree)
    # One planted subsumed sibling is found wherever it sits.
    victim = reduced.children[rng.randrange(len(reduced.children))]
    if victim.children:
        reduced.children.insert(rng.randrange(len(reduced.children) + 1),
                                label(victim.marking.name, victim.children[0].copy()))
        assert not is_reduced(reduced)
        assert not pairwise_reduced(reduced)


# ----------------------------------------------------------------------
# random graft sequences onto wide parents
# ----------------------------------------------------------------------


def _path(root: Node, node: Node) -> list:
    path = [node]
    while path[-1] is not root:
        path.append(path[-1].parent)
    return path[::-1]


def _positions(root: Node, node: Node) -> list:
    """Child positions from ``root`` down to ``node``."""
    path = _path(root, node)
    return [parent.children.index(child)
            for parent, child in zip(path, path[1:])]


def _at(root: Node, positions: list) -> Node:
    for position in positions:
        root = root.children[position]
    return root


def _from_scratch(root: Node, target: Node, trees: list) -> Node:
    """The graft by definition: a copy with ``trees`` appended under
    ``target``, then reduced from scratch."""
    copy = root.copy()
    where = _at(copy, _positions(root, target))
    for tree in trees:
        where.add_child(tree.copy())
    reduce_in_place(copy)
    return copy


def _child_keys(node: Node) -> list:
    return [canonical_key(child) for child in node.children]


def _build(rng: random.Random) -> Node:
    wide = label("wide", *[random_row(rng, 60) for _ in range(44)])
    root = label("doc", wide, *[label("z", val(i), label("w", val(i % 3)))
                                for i in range(WIDE_SIBLINGS + 2)])
    reduce_in_place(root)
    return root


def _graft_step(rng: random.Random, root: Node, step: int) -> None:
    wide = next(child for child in root.children if child.marking == Label("wide"))
    op = rng.random()
    if op < 0.35:
        target, trees = wide, [random_row(rng, 60)
                               for _ in range(rng.randint(1, 3))]
    elif op < 0.65:
        target = rng.choice(wide.children)
        # Another row's key or fields: the grown row may now subsume it.
        trees = [rng.choice([label("t", val(rng.randrange(4))),
                             label("u", val(rng.randrange(4)))]),
                 *[field.copy() for field in rng.choice(wide.children).children]]
    elif op < 0.85:
        row = rng.choice(wide.children)
        target = rng.choice(row.children)
        trees = [val(rng.randrange(4))]
    else:
        target, trees = root, [label("z", val(rng.randrange(40)),
                                     label("w", val(rng.randrange(3))))]
    expected = _from_scratch(root, target, trees)
    patched = [node for node in _path(root, target)[:-1]
               if node._sibs is not None
               and node._sibs.current(node, node.version)]
    kept = {id(node): node._sibs for node in patched}
    path = _path(root, target)
    inserted = graft_under(path, trees)
    assert canonical_key(root) == canonical_key(expected)
    assert _child_keys(root) == _child_keys(expected)
    wide_expected = next(c for c in expected.children
                         if c.marking == Label("wide"))
    assert _child_keys(wide) == _child_keys(wide_expected)
    # An ancestor index that was current is patched, not rebuilt, and a
    # growing graft leaves every wide ancestor indexed.
    for node in patched:
        assert node._sibs is kept[id(node)]
        assert node._sibs.current(node, node.version)
    if inserted:
        for node in path[:-1]:
            if len(node.children) >= WIDE_SIBLINGS:
                assert node._sibs.current(node, node.version)


def _disturb(rng: random.Random, root: Node, step: int) -> Node:
    op = rng.random()
    wide = next(child for child in root.children if child.marking == Label("wide"))
    if op < 0.25:
        # Outside the graft path: a fresh key is incomparable with every
        # row, so the document stays reduced.
        wide.add_child(label("row", label("k", val(1000 + step))))
    elif op < 0.5:
        tree_store.clear_store()
    elif op < 0.75:
        root = root.copy()
    else:
        root = from_wire(to_wire(root))
    return root


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_graft_sequences_on_wide_parents_match_from_scratch(seed):
    rng = random.Random(seed)
    root = _build(rng)
    for step in range(16):
        if rng.random() < 0.25:
            root = _disturb(rng, root, step)
        else:
            _graft_step(rng, root, step)
        assert is_reduced(root)
        assert_store_consistent(root)
        for node in root.iter_nodes():
            assert_sibling_index_consistent(node)
    assert_memos_consistent(root)


def test_a_list_edit_without_a_version_bump_stales_the_index():
    """Reduction rewrites child lists without touching versions, so the
    child count must also be checked: an index that misses a child
    would drop it when a graft rewrites the list from the index."""
    wide = label("wide", *[label("row", val(i)) for i in range(40)])
    reduce_in_place(wide)
    index = wide._sibs
    assert index.current(wide, wide.version)
    extra = label("row", val(99))
    wide.children.append(extra)
    extra.parent = wide
    assert not index.current(wide, wide.version)
    assert list(sibling_index(wide)) == wide.children


def test_a_long_lived_index_reclaims_evicted_slots():
    """Every graft below evicts the row it extends; once the freed slots
    outnumber the members the index renumbers, keeping child order."""
    wide = label("wide", *[label("row", label("k", val(i)))
                           for i in range(40)])
    root = label("doc", wide)
    reduce_in_place(root)
    index = wide._sibs
    for rnd in range(3):
        for i in range(40):
            row = label("row", label("k", val(i)),
                        *[label("t", val(r)) for r in range(rnd + 1)])
            assert graft_under([root, wide], [row]) == [row]
    assert [child.children[0].children[0].marking.value
            for child in wide.children] == list(range(40))
    assert wide._sibs is index
    assert len(index._trees) <= 2 * len(index) + 32
    assert_memos_consistent(root)


def test_checkpoint_resume_with_wide_promos(tmp_path):
    """A resumed run rebuilds the kept index of the wide promos node and
    reaches the uninterrupted run's fixpoint."""
    def build():
        return portal_system(6, materialized_fraction=0.3, n_irrelevant=40,
                             seed=8)

    reference = build()
    assert materialize(reference).terminated
    expected = {name: canonical_key(doc.root)
                for name, doc in reference.documents.items()}
    engine = RewritingEngine(build())
    assert engine.run(max_steps=30).status is RunStatus.BUDGET_EXHAUSTED
    bundle = str(tmp_path / "wide.jsonl")
    engine.checkpoint(bundle)
    resumed = resume(bundle)
    assert resumed.run().status is RunStatus.TERMINATED
    for name, doc in resumed.system.documents.items():
        assert canonical_key(doc.root) == expected[name]
        assert is_reduced(doc.root)
        assert_memos_consistent(doc.root)
    widths = [len(node.children) for doc in resumed.system.documents.values()
              for node in doc.root.iter_nodes()]
    assert max(widths) >= WIDE_SIBLINGS


@pytest.mark.parametrize("narrow_path", ["graft", "reduce", "sweep"])
def test_a_node_narrowed_by_evictions_drops_its_index(narrow_path):
    """A wide node that evictions take below ``WIDE_SIBLINGS`` keeps a
    current index until its next narrow-path operation, which drops it:
    a linear graft onto it, a linear reduction of it, or an ancestor
    sweep that scans it."""
    wide = label("wide", *[label("row", label("k", val(i)))
                           for i in range(40)])
    root = label("doc", wide)
    reduce_in_place(root)
    # One row holding keys 0..31 subsumes 32 rows: 40 - 32 + 1 remain.
    big = label("row", *[label("k", val(i)) for i in range(32)])
    assert graft_under([root, wide], [big]) == [big]
    assert len(wide.children) == 9 < WIDE_SIBLINGS
    assert wide._sibs.current(wide, wide.version)
    if narrow_path == "graft":
        graft_under([root, wide], [label("row", label("k", val(99)))])
    elif narrow_path == "reduce":
        reduce_in_place(root)
    else:
        # An append outside the graft path stales the index; a graft
        # below one of the rows then sweeps the node by scanning it.
        wide.add_child(label("row", label("k", val(98))))
        graft_under([root, wide, big], [label("t", val(0))])
    assert wide._sibs is None
    assert is_reduced(root)
    assert_memos_consistent(root)
