"""The node memos and bitset antichain against their oracles.

The raw-speed layer (``paxml.tree.store``, ``paxml.tree.index``,
``paxml.tree.antichain`` and the evaluator's head templates) is pure
acceleration: every memoised bitset must equal a direct recomputation
from the object tree (:func:`oracle_bits`), every index memo must agree
with a fresh scan of the children (:func:`assert_index_consistent`), and
every antichain must keep the same set as ``antichain_insert``.  These
tests drive the memos through hundreds of random sequences of grafts,
untracked appends, reduction pruning and cache clears — clean,
batch-wide, fault-injected, across a checkpoint/resume boundary and
beside replayed copies that reuse the live uids — and check every node
against the oracles.  The memos live on the nodes, so a dropped tree
must be collectable with everything derived from it.
"""

from __future__ import annotations

import gc
import json
import random
from collections import Counter

import pytest

from paxml import perf
from paxml.kernel import RunStatus, resume
from paxml.kernel.checkpoint import replay_prefix
from paxml.obs.metrics import REGISTRY
from paxml.query.matching import enumerate_assignments, evaluate_snapshot
from paxml.query.parser import parse_query
from paxml.query.pattern import compile_head_bits, compile_head_key, instantiate
from paxml.runtime import AsyncRuntime, FaultInjector, RuntimeConfig, RuntimeStatus
from paxml.system import materialize
from paxml.system.invocation import graft_trees, graft_under
from paxml.system.rewriting import RewritingEngine
from paxml.tree import (
    canonical_key,
    child_buckets,
    is_subsumed,
    label,
    marking_census,
    probe_bucket,
    val,
)
from paxml.tree import store as tree_store
from paxml.tree.antichain import BitsetAntichain, SiblingIndex
from paxml.tree.node import Label, Node
from paxml.tree.reduction import antichain_insert, reduce_forest, reduce_in_place
from paxml.workloads import (
    chain_edges,
    portal_system,
    random_edges,
    random_tree,
    relation_tree,
    tc_system,
)


@pytest.fixture(autouse=True)
def _clean_perf():
    perf.flags.set_all(True)
    perf.stats.reset()
    yield
    perf.flags.set_all(True)
    perf.stats.reset()


# ----------------------------------------------------------------------
# the cell-by-cell oracle
# ----------------------------------------------------------------------


def oracle_bits(node: Node) -> int:
    """Recompute a subtree's packed marking bitset from the object tree."""
    bits = 0
    for sub in node.iter_nodes():
        bits |= 1 << tree_store.intern_marking(sub.marking)
    return bits


def assert_store_consistent(root: Node) -> None:
    """Every node's memoised bits under ``root`` must equal the oracle."""
    for node in root.iter_nodes():
        assert tree_store.subtree_bits(node) == oracle_bits(node)


def _ids(nodes) -> set:
    return {id(node) for node in nodes}


def _assert_covers(indexed, current, node: Node) -> None:
    """``indexed`` holds every node of ``current``; any other member is a
    child of ``node`` that pruning removed, subsumed by one of ``current``
    (the index contract: pruned leftovers are sound, stale reads are not).
    """
    assert _ids(indexed) >= _ids(current)
    live = _ids(current)
    for extra in indexed:
        if id(extra) not in live:
            assert extra.parent is node
            assert any(is_subsumed(extra, kept) for kept in current)


def _probe_scan(children, p_marking, q_marking, value) -> list:
    """The probe's candidate set by linear scan (the probe's oracle)."""
    return [
        child for child in children
        if child.marking == p_marking and any(
            grand.marking == q_marking and any(
                leaf.marking == value for leaf in grand.children)
            for grand in child.children)
    ]


def assert_index_consistent(node: Node) -> None:
    """``node``'s child buckets and every value probe it can answer must
    agree with a fresh scan of its current children."""
    buckets = child_buckets(node)
    current: dict = {}
    for child in node.children:
        current.setdefault(child.marking, []).append(child)
    assert set(buckets) >= set(current)
    for marking, bucket in buckets.items():
        _assert_covers(bucket, current.get(marking, []), node)
    probes = {(child.marking, grand.marking, leaf.marking)
              for child in node.children for grand in child.children
              for leaf in grand.children if leaf.is_value}
    for p_marking, q_marking, value in probes:
        _assert_covers(probe_bucket(node, p_marking, q_marking, value),
                       _probe_scan(node.children, p_marking, q_marking,
                                   value), node)


def assert_census_consistent(root: Node) -> None:
    """The root's census counts at least every current node, per marking
    (pruning may leave it counting removed copies, never missing any)."""
    counts, total = marking_census(root)
    fresh = Counter(node.marking for node in root.iter_nodes())
    assert set(counts) == set(fresh)
    assert all(counts[marking] >= n for marking, n in fresh.items())
    assert total >= sum(fresh.values())


def _postings_by_member(index) -> dict:
    """bit → ids of the members posted under it (slot numbers dropped:
    evictions leave holes a fresh index does not have)."""
    return {bit: {id(index._trees[slot]) for slot in slots}
            for bit, slots in index._postings.items() if slots}


def assert_sibling_index_consistent(node: Node) -> None:
    """A current kept sibling index holds exactly ``node``'s children, in
    order, with the postings a freshly built index has; every member is
    anchored at one of its own bits."""
    index = node._sibs
    if index is None or not index.current(node, node.version):
        return
    fresh = SiblingIndex.from_antichain(node.children)
    assert [id(tree) for tree in index] == [id(c) for c in node.children]
    assert _postings_by_member(index) == _postings_by_member(fresh)
    for slot, tree in enumerate(index._trees):
        if tree is not None:
            assert index._bits[slot] == oracle_bits(tree)
            assert index._bits[slot] >> index._anchor[slot] & 1
            assert index._slot[id(tree)] == slot


def assert_memos_consistent(root: Node) -> None:
    """Bits, child buckets, probes, sibling indexes and the census under
    ``root``."""
    assert_store_consistent(root)
    for node in root.iter_nodes():
        assert_index_consistent(node)
        assert_sibling_index_consistent(node)
    assert_census_consistent(root)


def path_to(root: Node, node: Node) -> list:
    path = []
    cursor = node
    while cursor is not None:
        path.append(cursor)
        cursor = cursor.parent
    path.reverse()
    assert path[0] is root
    return path


# ----------------------------------------------------------------------
# random graft sequences: memos vs oracles, warm vs cold memos
# ----------------------------------------------------------------------


def _run_graft_sequence(seed: int, warm: bool) -> Node:
    """One deterministic random sequence of grafts, untracked appends,
    reduction passes and cache clears; returns the final tree.

    ``warm`` keeps the memos across steps and checks every node against
    the oracles after each one; otherwise every step starts from an
    empty bits memo (the reference).
    """
    perf.clear_caches()
    rng = random.Random(seed)
    root = random_tree(18, seed)
    if warm:
        assert_memos_consistent(root)
    for step in range(8):
        targets = [n for n in root.iter_nodes()
                   if n is not root and not n.is_value]
        if not targets:
            break
        target = rng.choice(targets)
        forest = [random_tree(rng.randint(1, 6), seed * 977 + step * 13 + i)
                  for i in range(rng.randint(1, 3))]
        op = rng.random()
        if not warm:
            tree_store.clear_store()
        if op < 0.6:
            graft_trees(path_to(root, target), forest)
        elif op < 0.75:
            target.add_child(forest[0])  # untracked: no note_graft
        elif op < 0.9:
            reduce_in_place(root)  # pruning: no version bump
        else:
            perf.clear_caches()
        if warm:
            assert_memos_consistent(root)
    return root


@pytest.mark.parametrize("block", range(5))
def test_store_matches_object_tree_on_100_random_graft_sequences(block):
    """≥100 random sequences: bits, buckets, probes and census agree with
    the oracles on every node after every step, and the tree grown with
    warm memos is structurally identical to the one grown cold."""
    for seed in range(block * 20, block * 20 + 20):
        warm = _run_graft_sequence(seed, warm=True)
        cold = _run_graft_sequence(seed, warm=False)
        assert canonical_key(warm) == canonical_key(cold)


def test_untracked_mutations_heal_at_read_time():
    """``add_child`` outside the graft path stales memos; the next read
    must re-derive them (counted) instead of answering stale data."""
    root = random_tree(12, 3)
    assert_memos_consistent(root)
    inner = next(n for n in root.iter_nodes() if not n.is_value)
    inner.add_child(label("healed", label("c0", val("fresh"))))
    before = perf.stats.store_rebuild_patches
    misses = perf.stats.index_misses
    assert_memos_consistent(root)
    assert perf.stats.store_rebuild_patches > before
    assert perf.stats.index_misses > misses
    assert probe_bucket(inner, Label("healed"), Label("c0"),
                        val("fresh").marking) == [inner.children[-1]]


def test_batch_graft_on_wide_parent_matches_sequential():
    """Grafts onto a ≥32-sibling parent go through its kept sibling index,
    batched or one tree at a time; either way the children must be
    exactly what ``antichain_insert`` keeps on a plain list, in order."""
    def build():
        # 40 pairwise-incomparable siblings: distinct values.
        return label("wide", *[label("row", val(i)) for i in range(40)])

    grafts = (
        # one duplicate (subsumed), one dominator, one genuinely new
        [label("row", val(7)), label("row", val(3), val(900)), label("row", val(777))],
        [label("row", val(900)), label("row", val(901))],
    )

    reference = list(build().children)
    for batch in grafts:
        for tree in batch:
            antichain_insert(reference, tree.copy())
    expected = [canonical_key(tree) for tree in reference]

    for batched in (False, True):
        tree_store.clear_store()
        root = label("doc", build())
        wide = root.children[0]
        assert_memos_consistent(root)
        for batch in grafts:
            calls = [batch] if batched else [[t] for t in batch]
            inserted = []
            for trees in calls:
                inserted += graft_trees([root, wide, wide.children[0]],
                                        [t.copy() for t in trees])
            assert len(inserted) >= 1
        for child in wide.children:
            assert child.parent is wide
        assert wide._sibs.current(wide, wide.version)
        assert_memos_consistent(root)
        assert [canonical_key(child) for child in wide.children] == expected


# ----------------------------------------------------------------------
# whole-system runs: clean and fault-injected
# ----------------------------------------------------------------------


def _doc_keys(system):
    return {name: canonical_key(doc.root)
            for name, doc in system.documents.items()}


@pytest.mark.parametrize("seed", range(4))
def test_fault_injected_run_keeps_store_consistent(seed):
    reference = tc_system(random_edges(5, 8, seed=seed))
    materialize(reference)
    expected = _doc_keys(reference)

    tree_store.clear_store()
    subject = tc_system(random_edges(5, 8, seed=seed))
    injector = FaultInjector(seed=seed, drop_rate=0.2, error_rate=0.2,
                             duplicate_rate=0.2, max_attempt=2)
    runtime = AsyncRuntime(subject, injector=injector,
                           config=RuntimeConfig(concurrency=3, seed=seed,
                                                call_timeout=0.2,
                                                max_attempts=6))
    result = runtime.run()
    assert result.status is RuntimeStatus.TERMINATED
    assert _doc_keys(subject) == expected
    for doc in subject.documents.values():
        assert_memos_consistent(doc.root)


# ----------------------------------------------------------------------
# memos live and die with their nodes
# ----------------------------------------------------------------------


def _fixpoint_uids() -> set:
    """Run a system to its fixpoint, derive every memo on its documents,
    and return their uids; the system is dropped on return."""
    system = tc_system(random_edges(6, 12, seed=4))
    assert materialize(system).terminated
    uids = set()
    for document in system.documents.values():
        marking_census(document.root)
        for node in document.root.iter_nodes():
            uids.add(node.uid)
            tree_store.subtree_bits(node)
            child_buckets(node)
            for child in node.children:
                for grand in child.children:
                    for leaf in grand.children:
                        if leaf.is_value:
                            probe_bucket(node, child.marking, grand.marking,
                                         leaf.marking)
    return uids


def test_a_dropped_tree_is_collectable():
    """No process-global memo may keep a dropped tree's nodes alive."""
    uids = _fixpoint_uids()
    assert len(uids) > 100
    gc.collect()
    alive = [obj for obj in gc.get_objects()
             if isinstance(obj, Node) and obj.uid in uids]
    assert len(alive) == 0, f"{len(alive)} of {len(uids)} nodes alive"


def test_bits_derived_before_clear_store_are_not_read():
    """``clear_store()`` renumbers the bit positions.  Bits a node derived
    under the old numbering must be re-derived — by ``subtree_bits`` and
    by ``antichain_insert``'s inlined memo check alike — or equivalent
    trees would look incomparable."""
    kept = label("gen-x", label("gen-y"))
    old = tree_store.subtree_bits(kept)
    tree_store.clear_store()
    tree_store.intern_marking(Label("gen-other"))  # shift every id by one
    assert tree_store.subtree_bits(kept) != old
    assert tree_store.subtree_bits(kept) == oracle_bits(kept)

    keep = [label("gen-x", label("gen-y"))]
    tree_store.subtree_bits(keep[0])
    tree_store.clear_store()
    tree_store.intern_marking(Label("gen-other"))
    assert not antichain_insert(keep, label("gen-x", label("gen-y")))
    assert len(keep) == 1
    assert tree_store.subtree_bits(keep[0]) == oracle_bits(keep[0])


def test_replayed_copies_keep_their_own_memos():
    """Point-in-time replay rebuilds copies that reuse the live uids and
    versions.  Interleaved with live grafts, and with grafts into the
    copies, every memo of either tree must stay its own and exact."""
    def build():
        return portal_system(6, materialized_fraction=0.3, n_irrelevant=2,
                             seed=3)

    reference = build()
    assert materialize(reference).terminated
    expected = _doc_keys(reference)

    perf.clear_caches()
    system = build()
    engine = RewritingEngine(system)
    kernel = engine.kernel
    live_uids: set = set()
    shared = 0
    budget = 0
    while True:
        budget += 2
        result = engine.run(max_steps=budget)
        records = list(kernel.log)
        for count in (len(records) // 2, len(records)):
            replayed = replay_prefix(kernel._seed_wire, records[:count])
            for document in replayed.values():
                assert_memos_consistent(document.root)
                copy = document.root
                shared += len(live_uids & {n.uid for n in copy.iter_nodes()})
                graft_under([copy], [label("replayed", val(count))])
                assert_memos_consistent(copy)
        for document in system.documents.values():
            assert_memos_consistent(document.root)
            live_uids.update(n.uid for n in document.root.iter_nodes())
        if result.status is RunStatus.TERMINATED:
            break
    assert shared > 0
    assert _doc_keys(system) == expected


# ----------------------------------------------------------------------
# checkpoint → resume: the memos are derived data
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cleared", [True, False],
                         ids=["cleared", "stale-entries"])
def test_checkpoint_resume_after_clear_caches(tmp_path, cleared):
    """A bundle resumes to the uninterrupted run's fixpoint whether the
    intern table starts empty (``perf.clear_caches()``: fresh ids, a new
    generation) or still holds the checkpointing run's ids.  Either way
    the restored copies derive their own memos when first read: nothing
    the checkpointing run's nodes derived is shared with them."""
    reference = portal_system(6, materialized_fraction=0.3, n_irrelevant=2,
                              seed=3)
    assert materialize(reference).terminated
    expected = _doc_keys(reference)

    perf.clear_caches()
    system = portal_system(6, materialized_fraction=0.3, n_irrelevant=2,
                           seed=3)
    engine = RewritingEngine(system)
    partial = engine.run(max_steps=6)
    assert partial.status is RunStatus.BUDGET_EXHAUSTED
    bundle = str(tmp_path / "resume.jsonl")
    engine.checkpoint(bundle)
    # The header's store field is a diagnostic; older bundles carry more
    # keys (``rows`` from the uid-keyed bits memo, and before it
    # ``child_pool`` and ``overflow_rows``) and must still load.
    with open(bundle) as handle:
        lines = handle.read().splitlines()
    header = json.loads(lines[0])
    assert set(header["store"]) == {"interned_markings"}
    header["store"].update(rows=0, child_pool=0, overflow_rows=0)
    lines[0] = json.dumps(header)
    with open(bundle, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    if cleared:
        perf.clear_caches()
    resumed = resume(bundle)
    for doc in resumed.system.documents.values():
        assert_memos_consistent(doc.root)
    result = resumed.run()
    assert result.status is RunStatus.TERMINATED
    assert _doc_keys(resumed.system) == expected
    for doc in resumed.system.documents.values():
        assert_memos_consistent(doc.root)


# ----------------------------------------------------------------------
# BitsetAntichain against the object-set oracle
# ----------------------------------------------------------------------


def _keys(trees):
    return sorted(str(canonical_key(t)) for t in trees)


@pytest.mark.parametrize("seed", range(25))
def test_bitset_antichain_matches_antichain_insert(seed):
    rng = random.Random(seed)
    candidates = [random_tree(rng.randint(1, 7), seed * 131 + i)
                  for i in range(rng.randint(4, 14))]

    oracle: list = []
    index = BitsetAntichain()
    for tree in candidates:
        expected = antichain_insert(oracle, tree.copy())
        got = index.insert(tree)
        assert got == expected
    assert _keys(index) == _keys(oracle)
    assert len(index) == len(oracle)
    # the antichain invariant: pairwise incomparable
    kept = list(index)
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert not is_subsumed(a, b) and not is_subsumed(b, a)


@pytest.mark.parametrize("seed", range(10))
def test_from_antichain_indexes_without_comparisons(seed):
    """Indexing an existing kept set, then inserting more, must equal one
    sequential antichain_insert run over the concatenation."""
    rng = random.Random(seed)
    first = [random_tree(rng.randint(1, 6), seed * 31 + i) for i in range(6)]
    second = [random_tree(rng.randint(1, 6), seed * 31 + 100 + i)
              for i in range(6)]

    oracle: list = []
    for tree in first + second:
        antichain_insert(oracle, tree.copy())

    kept: list = []
    for tree in first:
        antichain_insert(kept, tree)
    index = BitsetAntichain.from_antichain(kept)
    assert list(index.items()) == kept
    for tree in second:
        index.insert(tree)
    assert _keys(index) == _keys(oracle)


# ----------------------------------------------------------------------
# head-key / head-bits templates against instantiate+canonical_key
# ----------------------------------------------------------------------

_TEMPLATE_RULES = [
    "p{c0{$x}, c1{$y}} :- d/r{t{c0{$x}, c1{$y}}}",
    "out{@l{$v}} :- d/r{t{c0{$v}}, @l{$v}}",
    "wrap{*T} :- d/r{box{*T}}",
    "pair{$x} :- d/r{t{c0{$x}, c1{$x}}}",
]


@pytest.mark.parametrize("rule", _TEMPLATE_RULES)
def test_head_templates_match_the_instantiating_oracle(rule):
    query = parse_query(rule)
    head_key = compile_head_key(query.head)
    head_bits = compile_head_bits(query.head)
    root = relation_tree(random_edges(4, 9, seed=5))
    root.add_child(label("fresh", val(1)))
    root.add_child(label("box", label("sub", val(1), val(2))))
    bindings = list(enumerate_assignments(query, {"d": root}))
    assert bindings, rule
    for binding in bindings:
        answer = instantiate(query.head, binding)
        if head_key is not None:
            assert head_key(binding) == canonical_key(answer)
        if head_bits is not None:
            assert head_bits(binding) == tree_store.subtree_bits(answer)


def test_head_key_template_declines_ambiguous_heads():
    """Sibling maximality is only statically vacuous when concrete child
    markings are pairwise distinct; variable markings must decline."""
    ambiguous = parse_query("p{c{$x}, c{$y}} :- d/r{t{c{$x}}, t{c{$y}}}")
    assert compile_head_key(ambiguous.head) is None
    variable = parse_query("p{@l{$x}, c{$y}} :- d/r{@l{$x}, c{$y}}")
    assert compile_head_key(variable.head) is None


def test_head_bits_survive_a_store_clear():
    """Interned ids die with clear_store(); the cached const mask must
    re-intern against the new generation, not answer with stale bits."""
    query = parse_query(_TEMPLATE_RULES[0])
    head_bits = compile_head_bits(query.head)
    documents = {"d": relation_tree(chain_edges(3))}
    binding = next(iter(enumerate_assignments(query, documents)))
    first = head_bits(binding)
    assert first == tree_store.subtree_bits(instantiate(query.head, binding))
    tree_store.clear_store()
    again = head_bits(binding)
    assert again == tree_store.subtree_bits(instantiate(query.head, binding))


# ----------------------------------------------------------------------
# the raw-speed counters
# ----------------------------------------------------------------------


def test_const_subpattern_fast_path_fires():
    """Regression for the dormant runtime-const fast path: a join whose
    second atom becomes fully constant once $z is bound must route
    through the hash-consed subpattern test (and count doing so)."""
    query = parse_query("p{c0{$x}, c1{$y}} :- "
                        "d/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}")
    root = relation_tree(chain_edges(6))
    perf.stats.reset()
    forest = evaluate_snapshot(query, {"d": root})
    assert len(list(forest)) > 0
    assert perf.stats.const_subpattern_tests > 0


def test_pr6_counters_reach_the_metrics_registry():
    """store/bitset/closure counters must flow through paxml.obs.metrics
    (the paxml_perf pull collector) without any extra wiring."""
    system = tc_system(chain_edges(4))
    perf.stats.reset()
    assert materialize(system).terminated
    scrape = REGISTRY.collect()
    for counter in ("paxml_perf_store_rebuild_patches",
                    "paxml_perf_store_graft_patches",
                    "paxml_perf_bitset_rejects",
                    "paxml_perf_closure_compilations",
                    "paxml_perf_const_subpattern_tests"):
        assert counter in scrape, counter
    assert perf.stats.closure_compilations > 0
    assert perf.stats.bitset_rejects >= 0
