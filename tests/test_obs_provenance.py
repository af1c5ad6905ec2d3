"""Provenance: every grafted node is explainable back to initial data."""

import pytest

from paxml import materialize, obs
from paxml.obs.events import Event, GRAFT_APPLIED
from paxml.obs.provenance import (
    ProvenanceIndex,
    clear_staged,
    stage_answer,
    take_staged,
)
from paxml.query import parse_query
from paxml.query.matching import (
    enumerate_assignments,
    evaluate_snapshot,
    valuation_summary,
)
from paxml.query.pattern import instantiate
from paxml.runtime import AsyncRuntime, LocalTransport, RuntimeConfig
from paxml.tree import parse_tree, to_compact
from paxml.tree.reduction import canonical_key, reduce_in_place


def initial_uids(system):
    return {node.uid
            for document in system.documents.values()
            for node in document.root.iter_nodes()}


def current_uids(system):
    return initial_uids(system)


class TestStaging:
    def test_take_pops(self):
        stage_answer("k", rule="r", rule_index=1,
                     valuation={"$x": "1"}, matched=[3, 4])
        record = take_staged("k")
        assert record == {"rule": "r", "rule_index": 1,
                          "valuation": {"$x": "1"}, "matched": [3, 4]}
        assert take_staged("k") is None

    def test_clear(self):
        stage_answer("k", rule="r", rule_index=0, valuation={}, matched=[])
        clear_staged()
        assert take_staged("k") is None


class TestSnapshotStaging:
    """A snapshot answer's staged derivation is the binding it was built
    from: the first one with its key, not a later duplicate."""

    @pytest.mark.parametrize("rule,text", [
        # the head projects $y away: every b value has several derivations
        ("r{$x} :- d/a{b{$x}, c{$y}}", "a{b{1}, b{2}, c{3}, c{4}, c{5}}"),
        # no key template: $x=1,$y=3 and $x=3,$y=1 build equivalent
        # answers whose children come in opposite orders
        ("p{k{$x}, k{$y}} :- d/a{b{$x}, c{$y}}",
         "a{b{1}, b{3}, c{1}, c{3}}"),
    ])
    def test_staged_valuation_instantiates_to_the_answer(self, rule, text):
        query = parse_query(rule)
        documents = {"d": parse_tree(text)}
        clear_staged()
        with obs.tracing(obs.TraceRecorder()):
            forest = evaluate_snapshot(query, documents)
        first = {}
        bindings = enumerate_assignments(query, documents)
        for binding in bindings:
            first.setdefault(canonical_key(instantiate(query.head, binding)),
                             binding)
        assert len(bindings) > len(first), "no duplicate derivations"
        for answer in forest:
            staged = take_staged(canonical_key(answer))
            assert staged is not None
            binding = first[canonical_key(answer)]
            assert staged["valuation"] == valuation_summary(binding)
            assert staged["matched"]
            rebuilt = instantiate(query.head, binding)
            reduce_in_place(rebuilt)
            assert to_compact(rebuilt) == to_compact(answer)
        clear_staged()


class TestSequentialCompleteness:
    """The ISSUE acceptance criterion, on the E4 datalog scenario."""

    def test_every_grafted_node_has_a_derivation(self, example_3_2):
        before = initial_uids(example_3_2)
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            result = materialize(example_3_2)
        assert result.terminated
        index = recorder.provenance()
        grafted = current_uids(example_3_2) - before
        assert grafted, "the TC system must graft something"
        missing = {uid for uid in grafted if index.derivation_of(uid) is None}
        assert missing == set()
        # and nothing that was initial is claimed as derived
        assert index.derived_uids().isdisjoint(before)

    def test_derivations_carry_rule_and_matches(self, example_3_2):
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            materialize(example_3_2)
        index = recorder.provenance()
        for derivation in index.roots():
            assert derivation.service in ("f", "g")
            assert derivation.rule_index == 0
            assert ":-" in derivation.rule
            assert derivation.step >= 0
            assert derivation.matched, "query grafts must name their matches"
            assert derivation.valuation

    def test_chains_ground_out_in_initial_data(self, example_3_2):
        before = initial_uids(example_3_2)
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            materialize(example_3_2)
        index = recorder.provenance()
        for uid in sorted(index.derived_uids()):
            chain = index.explain(uid)
            assert chain[0].uid == uid
            assert any(entry.initial for entry in chain), (
                f"chain of {uid} never reaches initial data")
            for entry in chain:
                if entry.initial:
                    # anything the index can't derive must truly be initial
                    assert entry.uid in before

    def test_format_explain_mentions_rule_and_initial(self, example_3_2):
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            materialize(example_3_2)
        index = recorder.provenance()
        # the last graft of the TC run depends on earlier grafts
        text = index.format_explain(index.roots()[-1].root)
        assert "grafted by rule 0 of service" in text
        assert "initial data" in text
        assert "matched nodes" in text

    def test_explain_of_initial_node_is_single_initial_entry(
            self, example_3_2):
        uid = next(iter(initial_uids(example_3_2)))
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            materialize(example_3_2)
        chain = recorder.provenance().explain(uid)
        assert len(chain) == 1 and chain[0].initial


class TestAsyncCompleteness:
    def test_async_runs_emit_equivalent_provenance(self, example_3_2):
        before = initial_uids(example_3_2)
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            runtime = AsyncRuntime(
                example_3_2, transport=LocalTransport(example_3_2),
                config=RuntimeConfig(concurrency=4, seed=0))
            result = runtime.run()
        assert result.terminated
        index = recorder.provenance()
        grafted = current_uids(example_3_2) - before
        assert grafted
        missing = {uid for uid in grafted if index.derivation_of(uid) is None}
        assert missing == set()
        for derivation in index.roots():
            assert derivation.matched and derivation.rule


class TestIndexMechanics:
    def _two_tree_event(self):
        return Event(GRAFT_APPLIED, seq=9, ts=1.0, wall=2.0, data={
            "document": "d", "service": "s", "site": 0, "step": 3,
            "trees": [
                {"root": 10, "nodes": [10, 11], "parent": 1, "text": "a",
                 "rule": "a :- d/x", "rule_index": 0,
                 "valuation": {}, "matched": [1]},
                {"root": 20, "nodes": [20, 21], "parent": 1, "text": "b",
                 "rule": "b :- d/y", "rule_index": 1,
                 "valuation": {}, "matched": [2]},
            ]})

    def test_one_event_many_trees_are_distinct_derivations(self):
        # Both trees share the event's seq; they must still explain
        # independently (regression: the visited set used seq alone).
        index = ProvenanceIndex.from_events([self._two_tree_event()])
        assert len(index) == 2
        assert index.derivation_of(10) is not index.derivation_of(20)
        follow = Event(GRAFT_APPLIED, seq=10, ts=2.0, wall=3.0, data={
            "document": "d", "service": "t", "site": 0, "step": 4,
            "trees": [{"root": 30, "nodes": [30], "parent": 1, "text": "c",
                       "rule": "c :- d/a, d/b", "rule_index": 0,
                       "valuation": {}, "matched": [10, 20]}]})
        index.feed(follow)
        expanded = {entry.uid for entry in index.explain(30)
                    if entry.derivation is not None}
        assert {30, 10, 20} <= expanded
        text = index.format_explain(30)
        assert "rule 0 of service 's'" in text
        assert "rule 1 of service 's'" in text

    def test_shared_derivation_rendered_once(self):
        index = ProvenanceIndex.from_events([self._two_tree_event()])
        follow = Event(GRAFT_APPLIED, seq=10, ts=2.0, wall=3.0, data={
            "document": "d", "service": "t", "site": 0, "step": 4,
            "trees": [{"root": 30, "nodes": [30], "parent": 1, "text": "c",
                       "rule": "c :- d/a", "rule_index": 0,
                       "valuation": {}, "matched": [10, 11]}]})
        index.feed(follow)
        text = index.format_explain(30)
        assert text.count("same graft as node 10") == 1

    def test_feed_ignores_other_kinds(self):
        index = ProvenanceIndex()
        index.feed(Event("run_started", 0, 0.0, 0.0, {}))
        assert len(index) == 0

    def test_cycle_in_matched_terminates(self):
        # Defensive: a malformed log in which a node "matched" itself must
        # not hang explain().
        event = Event(GRAFT_APPLIED, seq=1, ts=0.0, wall=0.0, data={
            "document": "d", "service": "s", "site": 0, "step": 0,
            "trees": [{"root": 5, "nodes": [5], "parent": 1, "text": "x",
                       "rule": "r", "rule_index": 0, "valuation": {},
                       "matched": [5]}]})
        index = ProvenanceIndex.from_events([event])
        chain = index.explain(5)
        assert len(chain) == 2  # the node, then the visited set stops it

    def test_no_events_when_bus_disabled(self, example_3_2):
        recorder = obs.TraceRecorder()
        obs.subscribe(recorder)
        try:
            materialize(example_3_2)
        finally:
            obs.unsubscribe(recorder)
        assert recorder.events == []
