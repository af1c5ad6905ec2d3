"""The subtree-bits memo and bitset antichain against their oracles.

The raw-speed layer (``paxml.tree.store``, ``paxml.tree.antichain`` and
the evaluator's head templates) is pure acceleration: every memoised
bitset must equal a direct recomputation from the object tree
(:func:`oracle_bits`), and every antichain the same kept set as
``antichain_insert``.  These tests drive the memo through hundreds of
random graft sequences — clean, batch-wide, fault-injected, across a
checkpoint/resume boundary and under a lowered entry ceiling — and
check every node's bits against the oracle.
"""

from __future__ import annotations

import json
import random

import pytest

from paxml import perf
from paxml.kernel import RunStatus, resume
from paxml.obs.metrics import REGISTRY
from paxml.query.incremental import (
    IncrementalQueryEvaluator,
    _compile_head_bits,
    _compile_head_key,
)
from paxml.query.matching import (
    enumerate_assignments,
    evaluate_snapshot,
    naive_assignments,
)
from paxml.query.parser import parse_query
from paxml.query.pattern import instantiate
from paxml.runtime import AsyncRuntime, FaultInjector, RuntimeConfig, RuntimeStatus
from paxml.system import materialize
from paxml.system.invocation import graft_trees
from paxml.system.rewriting import RewritingEngine
from paxml.tree import canonical_key, is_subsumed, label, val
from paxml.tree import store as tree_store
from paxml.tree.antichain import BitsetAntichain
from paxml.tree.node import Node
from paxml.tree.reduction import antichain_insert, reduce_forest
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
# random graft sequences: memo vs oracle, warm vs cold memo
# ----------------------------------------------------------------------


def _run_graft_sequence(seed: int, warm: bool) -> Node:
    """One deterministic random graft sequence; returns the final tree.

    ``warm`` keeps the memo across grafts and checks it after each one;
    otherwise every graft starts from an empty memo (the reference).
    """
    tree_store.clear_store()
    rng = random.Random(seed)
    root = random_tree(18, seed)
    if warm:
        tree_store.warm(root)
    for step in range(6):
        targets = [n for n in root.iter_nodes()
                   if n is not root and not n.is_value]
        if not targets:
            break
        target = rng.choice(targets)
        forest = [random_tree(rng.randint(1, 6), seed * 977 + step * 13 + i)
                  for i in range(rng.randint(1, 3))]
        if not warm:
            tree_store.clear_store()
        graft_trees(path_to(root, target), forest)
        if warm:
            assert_store_consistent(root)
    return root


@pytest.mark.parametrize("block", range(5))
def test_store_matches_object_tree_on_100_random_graft_sequences(block):
    """≥100 random graft sequences: bits equal the oracle on every node
    after every graft, and the tree grown with a warm memo is
    structurally identical to the one grown from a cold memo."""
    for seed in range(block * 20, block * 20 + 20):
        warm = _run_graft_sequence(seed, warm=True)
        cold = _run_graft_sequence(seed, warm=False)
        assert canonical_key(warm) == canonical_key(cold)


def test_untracked_mutations_heal_at_read_time():
    """``add_child`` outside the graft path stales entries; the next read
    must re-walk them (counted) instead of answering from stale bits."""
    root = random_tree(12, 3)
    tree_store.warm(root)
    inner = next(n for n in root.iter_nodes() if not n.is_value)
    inner.add_child(label("healed", val("fresh")))
    before = perf.stats.store_rebuild_patches
    assert_store_consistent(root)
    assert perf.stats.store_rebuild_patches > before


def test_batch_graft_on_wide_parent_matches_sequential():
    """The ≥32-sibling batch path (BitsetAntichain.from_antichain) must
    insert/evict exactly what per-tree antichain_insert would."""
    def build():
        # 40 pairwise-incomparable siblings: distinct values.
        return label("wide", *[label("row", val(i)) for i in range(40)])

    grafts = (
        # one duplicate (subsumed), one dominator, one genuinely new
        [label("row", val(7)), label("row", val(3), val(900)), label("row", val(777))],
        [label("row", val(900)), label("row", val(901))],
    )

    results = {}
    for batched in (False, True):
        tree_store.clear_store()
        root = label("doc", build())
        wide = root.children[0]
        tree_store.warm(root)
        for batch in grafts:
            # One tree per call never takes the batch path.
            calls = [batch] if batched else [[t] for t in batch]
            inserted = []
            for trees in calls:
                inserted += graft_trees([root, wide, wide.children[0]],
                                        [t.copy() for t in trees])
            assert len(inserted) >= 1
        for child in wide.children:
            assert child.parent is wide
        assert_store_consistent(root)
        results[batched] = canonical_key(root)
    assert results[True] == results[False]


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
        assert_store_consistent(doc.root)


# ----------------------------------------------------------------------
# the entry ceiling: overflow between walks, interned ids kept
# ----------------------------------------------------------------------

_CEILING_QUERY = ("p{c0{$x}, c1{$y}} :- "
                  "d/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}")


def test_memo_ceiling_overflows_only_between_walks(monkeypatch):
    """A ceiling far below one tree's size must not lose a walk's own
    entries, nor reset the interned ids live antichains hold."""
    probe = label("probe-marking")
    first_id = tree_store.intern_marking(probe.marking)
    generation = tree_store.generation()
    reference = tc_system(random_edges(5, 9, seed=4))
    assert materialize(reference).terminated
    expected = _doc_keys(reference)

    monkeypatch.setattr(tree_store, "_ROWS_MAX", 4)
    chain = label("a", label("b", label("c", label("d", label("e", label(
        "f", val(1)))))))
    flat = label("r", *[label(f"k{i}") for i in range(6)])
    trees = [chain, flat] + [random_tree(7 + seed, seed) for seed in range(20)]
    for tree in trees:
        assert_store_consistent(tree)

    # A whole run to fixpoint overflowing all the time.
    system = tc_system(random_edges(5, 9, seed=4))
    assert materialize(system).terminated
    assert _doc_keys(system) == expected

    # An incremental evaluator whose site antichain outlives overflows.
    query = parse_query(_CEILING_QUERY)
    root = relation_tree(random_edges(5, 10, seed=2))
    evaluator = IncrementalQueryEvaluator(query)
    delivered = list(evaluator.evaluate_delta({"d": root}, site=1))
    for a, b in ((0, 4), (4, 1), (2, 0), (3, 3)):
        root.add_child(label("t", label("c0", val(a)), label("c1", val(b))))
        delivered.extend(evaluator.evaluate_delta({"d": root}, site=1))
    naive = reduce_forest([instantiate(query.head, binding)
                           for binding in naive_assignments(query,
                                                            {"d": root})])
    assert naive
    assert _keys(reduce_forest(delivered)) == _keys(naive)
    kept = list(evaluator._sites[1].results)
    assert _keys(kept) == _keys(naive)

    assert tree_store.store_sizes()["rows"] < 4 + root.size()
    assert tree_store.intern_marking(probe.marking) == first_id
    assert tree_store.generation() == generation


# ----------------------------------------------------------------------
# checkpoint → resume: the memo is derived data
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cleared", [True, False],
                         ids=["cleared", "stale-entries"])
def test_checkpoint_resume_after_clear_caches(tmp_path, cleared):
    """A bundle resumes to the uninterrupted run's fixpoint whether the
    memo starts empty (``perf.clear_caches()``: fresh intern ids too) or
    still holds the checkpointing run's entries, which answer for the
    restored copies because they share ``(uid, version)``."""
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
    # The header's store field is a diagnostic; bundles from before the
    # memo lost its child lists carry more keys and must still load.
    with open(bundle) as handle:
        lines = handle.read().splitlines()
    header = json.loads(lines[0])
    assert set(header["store"]) == {"rows", "interned_markings"}
    header["store"].update(child_pool=0, overflow_rows=0)
    lines[0] = json.dumps(header)
    with open(bundle, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    if cleared:
        perf.clear_caches()
    resumed = resume(bundle)
    # resume() re-derives the memo from the restored documents
    for doc in resumed.system.documents.values():
        assert_store_consistent(doc.root)
    result = resumed.run()
    assert result.status is RunStatus.TERMINATED
    assert _doc_keys(resumed.system) == expected
    for doc in resumed.system.documents.values():
        assert_store_consistent(doc.root)


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
    head_key = _compile_head_key(query.head)
    head_bits = _compile_head_bits(query.head)
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
    assert _compile_head_key(ambiguous.head) is None
    variable = parse_query("p{@l{$x}, c{$y}} :- d/r{@l{$x}, c{$y}}")
    assert _compile_head_key(variable.head) is None


def test_head_bits_survive_a_store_clear():
    """Interned ids die with clear_store(); the cached const mask must
    re-intern against the new generation, not answer with stale bits."""
    query = parse_query(_TEMPLATE_RULES[0])
    head_bits = _compile_head_bits(query.head)
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
