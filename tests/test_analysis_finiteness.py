"""Tests for q-finiteness (Propositions 3.2–3.3) and full results over
infinite regular semantics."""

import pytest

from paxml.analysis import (
    Finiteness,
    build_graph_representation,
    is_q_finite,
    snapshot_over_graphs,
)
from paxml.query import parse_query
from paxml.system import AXMLSystem
from paxml.tree import to_canonical
from paxml.workloads import nesting_chain_system


class TestQFiniteness:
    def test_simple_query_always_finite(self, example_2_1):
        report = is_q_finite(example_2_1, parse_query("out{@x} :- d/a{@x}"))
        assert report.finite
        assert "simple queries" in report.reason

    def test_acyclic_system_always_finite(self):
        system = AXMLSystem.build(
            documents={"d": "a{!g}", "e": "b{c{1}}"},
            services={"g": "x{*T} :- e/b{*T}"},
        )
        report = is_q_finite(system, parse_query("out{*X} :- d/a{*X}"))
        assert report.finite
        assert "acyclic" in report.reason

    def test_tree_var_over_divergent_subtree_is_infinite(self, example_2_1):
        report = is_q_finite(example_2_1, parse_query("out{*X} :- d/a{*X}"))
        assert report.status is Finiteness.INFINITE
        assert report.witnesses

    def test_tree_var_anchored_at_finite_part(self):
        system = AXMLSystem.build(
            documents={"d": "a{leaf{v{1}}, !f}"},
            services={"f": "a{!f} :- "},
        )
        report = is_q_finite(system, parse_query("out{*X} :- d/a{leaf{*X}}"))
        assert report.finite

    def test_unsatisfiable_body_is_finite(self, example_2_1):
        report = is_q_finite(example_2_1,
                             parse_query("out{*X} :- d/a{nothere{*X}}"))
        assert report.finite
        assert "empty" in report.reason

    def test_non_simple_system_terminating_is_finite(self, example_3_3):
        # Example 3.3 diverges ⇒ UNKNOWN; a terminating cousin is FINITE.
        report = is_q_finite(example_3_3, parse_query("out{*X} :- dp/a{*X}"),
                             max_steps=30)
        assert report.status is Finiteness.UNKNOWN

        terminating = AXMLSystem.build(
            documents={"dp": "a{a{b}, !g}"},
            services={"g": "c{*X} :- context/a{a{*X}}"},
        )
        report2 = is_q_finite(terminating, parse_query("out{*X} :- dp/a{*X}"))
        assert report2.finite

    def test_inequalities_respected(self, example_2_1):
        # The only satisfying assignments pin @x to 'a'; excluding it makes
        # the body unsatisfiable, hence finite despite the tree variable.
        query = parse_query("out{*X} :- d/a{@x{*X}}, @x != a")
        report = is_q_finite(example_2_1, query)
        assert report.finite


class TestSnapshotOverGraphs:
    def test_matches_infinite_structure(self, example_2_1):
        representation = build_graph_representation(example_2_1)
        # Depth-3 nesting exists in [I] although the saturated pre-limit
        # only materialises two levels.
        query = parse_query("deep :- d/a{a{a{a}}}")
        result = snapshot_over_graphs(representation, query)
        assert {to_canonical(t) for t in result} == {"deep"}

    def test_function_nodes_visible(self, example_2_1):
        representation = build_graph_representation(example_2_1)
        query = parse_query("call{#f} :- d/a{a{#f}}")
        result = snapshot_over_graphs(representation, query)
        assert {to_canonical(t) for t in result} == {"call{!f}"}

    def test_agrees_with_materialisation_when_finite(self, example_3_2):
        from paxml.query import evaluate_snapshot
        from paxml.system import materialize

        representation = build_graph_representation(example_3_2)
        query = parse_query("pair{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$y}}}")
        over_graphs = snapshot_over_graphs(representation, query)
        reference = example_3_2.copy()
        materialize(reference)
        direct = evaluate_snapshot(query, reference.environment())
        assert over_graphs.equivalent_to(direct)

    def test_non_simple_query_rejected(self, example_2_1):
        representation = build_graph_representation(example_2_1)
        with pytest.raises(ValueError):
            snapshot_over_graphs(representation,
                                 parse_query("out{*X} :- d/a{*X}"))

    def test_regex_over_graph(self, example_2_1):
        representation = build_graph_representation(example_2_1)
        # Arbitrarily deep a-paths exist in the infinite unfolding.
        query = parse_query("deep :- d/[a.a.a.a.a.a.a.a]")
        result = snapshot_over_graphs(representation, query)
        assert len(result) == 1

    def test_stages_no_provenance(self, example_3_2):
        """Graph answers are bound to graph vertices and never grafted, so
        evaluating over graphs with the bus on stages no derivation (a
        staged one could later be claimed by an injected tree with the
        same key); the document evaluator does stage its answers."""
        from paxml.obs import bus as obs_bus
        from paxml.obs import provenance
        from paxml.query import evaluate_snapshot

        representation = build_graph_representation(example_3_2)
        query = parse_query("pair{c0{$x}, c1{$y}} :- d0/r{t{c0{$x}, c1{$y}}}")
        provenance.clear_staged()
        obs_bus.enable()
        try:
            assert len(snapshot_over_graphs(representation, query)) == 3
            assert not provenance._STAGED
            evaluate_snapshot(query, example_3_2.environment())
            assert len(provenance._STAGED) == 3
        finally:
            obs_bus.disable()
            provenance.clear_staged()

    def test_nesting_chain_counts(self):
        system = nesting_chain_system(3, diverge=True)
        representation = build_graph_representation(system)
        query = parse_query("probe :- d/root{n0{n1{n2{n2}}}}")
        assert len(snapshot_over_graphs(representation, query)) == 1
