"""The compiled query planner against the naive matcher as oracle.

The naive backtracking join of :mod:`paxml.query.matching`
(``naive_assignments`` / ``naive_assignments_delta``) is retained
precisely to serve as the oracle here: on randomized systems and
documents the planned evaluation (selectivity-ordered siblings, constant
subpattern hash-consing, indexed candidates, undo-log bindings, pushed
inequalities) must produce the same *reduced forests* for full and delta
evaluation — directly, through whole-system materialization, and through
the concurrent runtime under fault injection.  Whole-system runs reach
the oracle through the ``naive_matcher`` fixture, which patches the two
enumeration entry points; production code has no switch for it.

Reduced forests (not raw assignment lists) are the right equality: the
planner may enumerate embeddings in a different order and through index
entries holding pruned-but-subsumed leftovers, all of which collapses
under forest reduction — the paper's notion of "same answer".
"""

from __future__ import annotations

import contextlib

import pytest

from paxml import perf
from paxml.cli import main as cli_main
from paxml.query import compile_query, describe_plan, parse_query
from paxml.query import incremental, matching
from paxml.query.incremental import IncrementalQueryEvaluator
from paxml.query.matching import (
    answer_builder,
    enumerate_assignments,
    enumerate_assignments_delta,
    evaluate_snapshot,
    naive_assignments,
    naive_assignments_delta,
)
from paxml.query.pattern import RegexSpec, instantiate, pattern_to_text
from paxml.query.plan import _selectivity_rank
from paxml.query.variables import TreeVar, ValueVar
from paxml.runtime import AsyncRuntime, FaultInjector, RuntimeConfig, RuntimeStatus
from paxml.system import UnionQueryService, materialize
from paxml.system.invocation import find_path, graft_answers, graft_under
from paxml.tree import (
    Forest,
    child_bucket,
    child_buckets,
    is_reduced,
    is_subsumed,
    label,
    parse_tree,
    probe_bucket,
    val,
)
from paxml.tree.node import Label, Value, current_stamp
from paxml.tree.reduction import reduce_forest
from paxml.tree.serializer import from_wire, to_canonical, to_wire
from paxml.tree.store import intern_marking, subtree_bits
from paxml.workloads import (
    chain_edges,
    portal_system,
    random_acyclic_system,
    random_edges,
    random_tree,
    relation_tree,
    tc_system,
)

JOIN2 = "p{c0{$x}, c1{$y}} :- d/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}"


@pytest.fixture(autouse=True)
def _restore_perf_flags():
    """Each test may flip engine flags; leave the process as it found it."""
    yield
    perf.flags.set_all(True)
    perf.clear_caches()
    perf.stats.reset()


@pytest.fixture
def naive_matcher(monkeypatch):
    """A context manager routing every evaluation through the naive oracle.

    Patches the full and delta enumeration entry points where the
    snapshot evaluator and the incremental evaluator look them up.
    """
    @contextlib.contextmanager
    def active():
        with monkeypatch.context() as patch:
            patch.setattr(matching, "enumerate_assignments",
                          naive_assignments)
            patch.setattr(incremental, "enumerate_assignments",
                          naive_assignments)
            patch.setattr(incremental, "enumerate_assignments_delta",
                          naive_assignments_delta)
            yield
    return active


def _fresh() -> None:
    perf.flags.set_all(True)
    perf.clear_caches()
    perf.stats.reset()


def _reduced(query, documents) -> Forest:
    _fresh()
    return evaluate_snapshot(query, documents)


def _naive_reduced(query, documents) -> Forest:
    _fresh()
    answers = [instantiate(query.head, binding)
               for binding in naive_assignments(query, documents)]
    return Forest(reduce_forest(answers))


# ----------------------------------------------------------------------
# property: planned ≡ naive, full evaluation
# ----------------------------------------------------------------------

QUERIES = [
    JOIN2,
    "out{$x} :- d/@r{t{c0{$x}}}",
    "pair{$x, *T} :- d/r{t{c0{$x}, c1{*T}}}",
    "p{@l} :- d/r{@l{c0}}",
    "p{c0{$x}, c1{$y}} :- d/r{t{c0{$x}, c1{$y}}}, $x != $y",
    # repeated child markings: no key template, instantiate-then-key
    "p{c{$x}, c{$y}} :- d/r{t{c0{$x}, c1{$y}}}",
    # a tree variable bound to every root child, the unreduced one included
    "wrap{*T} :- d/r{*T}",
    # a label variable at the head's root
    "@l{$x} :- d/r{@l{c0{$x}}}",
]


def _relation_document(seed: int):
    """A random relation plus random trees and one unreduced subtree
    (``u{1}`` is subsumed by its sibling ``u{1, 2}``)."""
    document = relation_tree(random_edges(6 + seed % 5, 10 + seed, seed=seed))
    for extra in range(seed % 3):
        document.add_child(random_tree(5 + extra, seed=seed * 7 + extra))
    document.add_child(parse_tree("t{c0{9}, c1{u{1}, u{1, 2}}}"))
    return document


def _assert_fresh_reduced(forest: Forest, documents) -> None:
    """Every answer is reduced and shares no node with the documents."""
    document_nodes = {id(node) for root in documents.values()
                      for node in root.iter_nodes()}
    for tree in forest:
        assert is_reduced(tree), to_canonical(tree)
        assert document_nodes.isdisjoint(id(node)
                                         for node in tree.iter_nodes())


def test_queries_cover_both_answer_builder_branches():
    templates = [answer_builder(parse_query(rule)).head_key is not None
                 for rule in QUERIES]
    assert any(templates) and not all(templates)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("rule", QUERIES, ids=lambda r: r.split(" :- ")[0])
def test_planned_equals_naive_on_random_relations(rule, seed):
    query = parse_query(rule)
    documents = {"d": _relation_document(seed)}

    naive = _naive_reduced(query, documents)
    planned = _reduced(query, documents)
    assert planned.equivalent_to(naive)
    # Both forests are reduced, so equivalence makes them equal in size.
    assert len(planned) == len(naive)
    _assert_fresh_reduced(planned, documents)


@pytest.mark.parametrize("seed", range(6))
def test_union_service_equals_the_naive_union(seed):
    rules = [parse_query(rule) for rule in QUERIES]
    documents = {"d": _relation_document(seed)}
    naive = Forest.empty()
    for query in rules:
        naive = naive.union(_naive_reduced(query, documents))
    _fresh()
    served = UnionQueryService("u", rules).evaluate(documents)
    assert served.equivalent_to(naive)
    assert len(served) == len(naive)
    _assert_fresh_reduced(served, documents)


@pytest.mark.parametrize("seed", range(8))
def test_planned_equals_naive_on_random_trees(seed):
    query = parse_query("out{@l{$v}} :- d/@r{@l{$v}}")
    documents = {"d": random_tree(30 + seed * 5, seed=seed, label_pool=3)}
    naive = _naive_reduced(query, documents)
    planned = _reduced(query, documents)
    assert planned.equivalent_to(naive)


# ----------------------------------------------------------------------
# property: planned ≡ naive, delta evaluation over growing documents
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_planned_delta_equals_naive_delta(seed):
    edges = random_edges(6, 24 + seed, seed=seed)
    query = parse_query(JOIN2)

    def run(delta):
        """Grow the relation in batches, enumerating only new assignments
        after each (cutoff -1 makes the first pass a full one)."""
        _fresh()
        document = relation_tree(edges[:12])
        evaluator = IncrementalQueryEvaluator(query)
        seen: set = set()
        cutoff = -1
        accumulated, through_evaluator = [], []
        for batch in range(4):
            for a, b in edges[12 + batch * 3:12 + (batch + 1) * 3]:
                document.add_child(
                    label("t", label("c0", val(a)), label("c1", val(b))))
            stamp = current_stamp()
            accumulated.extend(
                instantiate(query.head, binding)
                for binding in delta(query, {"d": document}, cutoff, seen))
            cutoff = stamp
            through_evaluator.extend(
                evaluator.evaluate_delta({"d": document}, site="site"))
        return (Forest(reduce_forest(accumulated)),
                Forest(reduce_forest(through_evaluator)))

    naive, _ = run(naive_assignments_delta)
    planned, evaluated = run(enumerate_assignments_delta)
    assert planned.equivalent_to(naive)
    assert evaluated.equivalent_to(naive)


# ----------------------------------------------------------------------
# property: planned ≡ naive through whole-system materialization
# ----------------------------------------------------------------------

SYSTEM_CASES = (
    [("acyclic", seed) for seed in range(6)]
    + [("tc", seed) for seed in range(6)]
    + [("portal", seed) for seed in range(6)]
)


def _build_system(family: str, seed: int):
    if family == "acyclic":
        return random_acyclic_system(2 + seed % 3, seed=seed, values_per_doc=3)
    if family == "tc":
        return tc_system(random_edges(5, 6 + seed % 4, seed=seed))
    return portal_system(4 + seed % 3, materialized_fraction=0.4,
                         n_irrelevant=2, seed=seed)


def _naive_limit(naive_matcher, family: str, seed: int):
    """The system's limit under the naive matcher (no plan ever runs)."""
    _fresh()
    with naive_matcher():
        naive_system = _build_system(family, seed)
        assert materialize(naive_system).terminated
    assert perf.stats.planned_evaluations == 0
    assert perf.stats.planned_delta_evaluations == 0
    _fresh()
    return naive_system


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_materialized_limits_agree(case, naive_matcher):
    family, seed = case
    naive_system = _naive_limit(naive_matcher, family, seed)

    planned_system = _build_system(family, seed)
    assert materialize(planned_system).terminated
    assert planned_system.equivalent_to(naive_system)


FAULT_CASES = [("acyclic", 3), ("tc", 2), ("tc", 5), ("portal", 1)]


@pytest.mark.parametrize("case", FAULT_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_planned_limit_survives_fault_injection(case, naive_matcher):
    """The runtime oracle: planner + injected faults ≡ naive sequential."""
    family, seed = case
    naive_system = _naive_limit(naive_matcher, family, seed)

    planned_system = _build_system(family, seed)
    injector = FaultInjector(seed=seed, drop_rate=0.15, error_rate=0.2,
                             delay_rate=0.15, duplicate_rate=0.15,
                             delay_seconds=0.002, max_attempt=2)
    config = RuntimeConfig(concurrency=6, seed=seed, call_timeout=0.05,
                           max_attempts=5, backoff_base=0.001,
                           backoff_max=0.01, breaker_threshold=10_000)
    result = AsyncRuntime(planned_system, config=config,
                          injector=injector).run()
    assert result.status is RuntimeStatus.TERMINATED
    assert not result.failures
    assert planned_system.equivalent_to(naive_system)


# ----------------------------------------------------------------------
# compiler unit tests
# ----------------------------------------------------------------------


def test_sibling_order_puts_constants_before_variables():
    query = parse_query(
        "h{$v} :- d/r{*T, @l{x}, c{$v}, k{a{b}}, #f{y}, [a.b]{z}}")
    root = compile_query(query).atoms[0].root
    ranks = [_selectivity_rank(child)[0] for child in root.children]
    assert ranks == sorted(ranks), "children not in selectivity order"
    # Constant subpatterns lead, the tree variable trails.
    assert root.children[0].const_tree is not None
    assert isinstance(root.children[-1].spec, TreeVar)
    specs = [child.spec for child in root.children]
    assert any(isinstance(s, RegexSpec) for s in specs)
    # The constant-rooted-but-variable-bearing sibling c{$v} sorts after
    # the fully constant k{a{b}} and before the regex and variable specs.
    assert isinstance(root.children[1].spec, Label)
    assert root.children[1].const_tree is None


def test_constant_sibling_dedup_keeps_the_antichain():
    # a{b{c}} subsumes both duplicates and the bare a{b}; one conjunct stays.
    query = parse_query("h{x} :- d/r{a{b{c}}, a{b{c}}, a{b}, q{$v}}")
    root = compile_query(query).atoms[0].root
    consts = [c for c in root.children if c.const_tree is not None]
    assert len(consts) == 1
    assert pattern_to_text(consts[0].to_pattern()) == "a{b{c}}"
    # Dropping dominated conjuncts must not change answers.
    document = parse_tree('r{a{b{c}}, q{"1"}}')
    planned = _reduced(query, {"d": document})
    naive = _naive_reduced(query, {"d": document})
    assert planned.equivalent_to(naive)
    assert len(planned) == 1


def test_runtime_const_trees_survive_freed_queries():
    # Queries parsed, evaluated and dropped in turn free their plans, so
    # a later plan's runtime-const template can land at a freed one's
    # address; the cached instantiation must never cross shapes.
    document = parse_tree("a{b{1}, c{1}, b{2}, d{2}}")
    shapes = {"hit{$x} :- d/a{b{$x}, c{$x}}": {"hit{1}"},
              "hit{$x} :- d/a{b{$x}, d{$x}}": {"hit{2}"}}
    perf.stats.reset()
    for _ in range(100):
        for text, expected in shapes.items():
            forest = evaluate_snapshot(parse_query(text), {"d": document})
            assert {to_canonical(tree) for tree in forest} == expected
    assert perf.stats.const_subpattern_tests > 0


def test_inequalities_compiled_to_binding_sites():
    query = parse_query(
        'h{$x} :- d/r{a{$x}, b{$y}, c{$z}}, $x != $y, $y != "3"')
    plan = compile_query(query)
    by_var = {str(v): [str(o) for o in others]
              for v, others in plan.ineq_by_var.items()}
    assert by_var["$x"] == ["$y"]
    assert set(by_var["$y"]) == {"$x", '"3"'}
    assert "$z" not in by_var
    document = parse_tree('r{a{"1"}, a{"2"}, b{"1"}, b{"3"}, c{"9"}}')
    planned = _reduced(query, {"d": document})
    naive = _naive_reduced(query, {"d": document})
    assert planned.equivalent_to(naive)


def test_always_false_inequality_short_circuits():
    query = parse_query('h{x} :- d/r{a}, "1" != "1"')
    assert compile_query(query).always_false
    assert enumerate_assignments(query, {"d": parse_tree("r{a}")}) == []


def test_join2_uses_the_value_probe():
    query = parse_query(JOIN2)
    document = relation_tree(chain_edges(8))
    planned = _reduced(query, {"d": document})
    assert perf.stats.probe_lookups > 0
    assert len(planned) == 7  # chain of 8 edges has 7 length-2 paths


# ----------------------------------------------------------------------
# index unit tests
# ----------------------------------------------------------------------


def test_child_buckets_follow_appends():
    tree = parse_tree("r{a, a, b}")
    assert len(child_bucket(tree, Label("a"))) == 2
    tree.add_child(label("a"))
    assert len(child_bucket(tree, Label("a"))) == 3  # version bump invalidated
    assert child_bucket(tree, Label("zzz")) == ()


def _probe_scan(node, p_marking, q_marking, value):
    """The probe's candidate set by linear scan (the index's oracle)."""
    return [
        child for child in node.children
        if child.marking == p_marking and any(
            grand.marking == q_marking and any(
                leaf.marking == value for leaf in grand.children)
            for grand in child.children)
    ]


def test_probe_bucket_matches_linear_scan():
    for seed in range(6):
        tree = relation_tree(random_edges(4, 12, seed=seed))
        tree.add_child(random_tree(8, seed=seed))
        _fresh()
        for value in {leaf.marking for node in tree.iter_nodes()
                      for leaf in node.children
                      if isinstance(leaf.marking, Value)}:
            indexed = probe_bucket(tree, Label("t"), Label("c0"), value)
            scanned = _probe_scan(tree, Label("t"), Label("c0"), value)
            assert list(indexed) == scanned


def test_graft_path_patches_the_index_in_place():
    system = tc_system(chain_edges(4))
    document = system.documents["d1"]
    # Warm the parent's bucket entry, then graft through the real path.
    child_buckets(document.root)
    call = next(n for n in document.root.iter_nodes() if n.is_function)
    path = find_path(document.root, call)
    before = perf.stats.index_graft_patches
    inserted = graft_answers(
        path, Forest([label("t", label("c0", val(9)), label("c1", val(9)))]))
    assert inserted
    assert perf.stats.index_graft_patches == before + 1
    # The patched entry serves the post-graft child set.
    assert inserted[0] in child_bucket(document.root, inserted[0].marking)


def test_index_entries_belong_to_the_node_they_were_built_from():
    """A copy reusing a live node's uid (as checkpoint replay builds) must
    neither read nor patch the live node's index memo, nor the reverse."""
    live = relation_tree(chain_edges(3))
    copy = from_wire(to_wire(live))
    assert (copy.uid, copy.version) == (live.uid, live.version)
    row = Label("t")

    def ids(nodes):
        return set(map(id, nodes))

    # Same (uid, version), yet each node derives its own memo on itself.
    value = live.children[0].children[0].children[0].marking
    for root in (live, copy):
        probed = probe_bucket(root, row, Label("c0"), value)
        assert probed and ids(probed) <= ids(root.children)
        assert ids(child_bucket(root, row)) == ids(root.children)
    # Both memos are now current; a live graft patches only the live
    # node's memo and must leave the copy's alone (that would mix trees).
    edge = label("t", label("c0", val(7)), label("c1", val(8)))
    assert graft_under([live], [edge])
    assert ids(child_bucket(live, row)) == ids(live.children)
    # And back: a graft into the copy leaves the live memo whole.
    assert graft_under([copy], [label("t", label("c0", val(9)))])
    assert ids(child_bucket(live, row)) == ids(live.children)
    assert ids(child_bucket(copy, row)) == ids(copy.children)


def test_marking_set_reject_is_sound_for_non_injective_simulations():
    # a{b, b, b} ⊑ a{b}: counts must not matter, only marking presence.
    assert is_subsumed(parse_tree("a{b, b, b}"), parse_tree("a{b}"))
    # The entry reject is the packed subtree-bitset test: one bit per
    # marking present, whatever its count.
    assert subtree_bits(parse_tree("a{b{c}, b{c}}")) == sum(
        1 << intern_marking(Label(name)) for name in "abc")
    before = perf.stats.bitset_rejects
    assert not is_subsumed(parse_tree("a{x}"), parse_tree("a{y}"))
    assert perf.stats.bitset_rejects > before


# ----------------------------------------------------------------------
# plan display and CLI
# ----------------------------------------------------------------------


def test_describe_plan_mentions_order_and_probe():
    text = describe_plan(parse_query(JOIN2),
                         {"d": relation_tree(chain_edges(3))})
    assert "join order" in text
    assert "probe" in text


def test_cli_plan_subcommand(capsys):
    path = "examples/systems/transitive_closure.axml"
    assert cli_main(["plan", path]) == 0
    out = capsys.readouterr().out
    assert "service !f" in out and "join order" in out
    assert cli_main(["plan", path, JOIN2.replace("d/", "d1/")]) == 0
    assert "rule:" in capsys.readouterr().out


def test_cli_explain_prints_plan_order(capsys):
    path = "examples/systems/transitive_closure.axml"
    assert cli_main(["explain", path]) == 0
    out = capsys.readouterr().out
    assert "plan !f:" in out and "plan !g:" in out
