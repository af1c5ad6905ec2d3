"""The incremental relevance tracker against a fresh seed (Section 4).

:class:`RelevanceTracker` absorbs each graft by extending its goal images
into the inserted trees only.  The property under test: after *every*
graft, on every graft path, its relevant set restricted to live calls
equals the relevant set of a tracker freshly seeded on the same system.
The paths are the sequential engine, the async runtime, external
injections, shard replica application and a resumed checkpoint.  A cost
test pins the point of the exercise: a graft under one ``cd`` of a wide
portal never looks at the promos beside it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from types import SimpleNamespace
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paxml import AXMLSystem, perf
from paxml.analysis import RelevanceTracker
from paxml.analysis import relevance
from paxml.kernel import resume
from paxml.query import parse_query
from paxml.runtime import AsyncRuntime, FaultInjector, RuntimeConfig
from paxml.shard.wire import system_from_wire, system_to_wire
from paxml.shard.worker import ShardWorker
from paxml.system import RewritingEngine, materialize
from paxml.system.invocation import find_path, graft_under
from paxml.tree.node import fun, label, val
from paxml.workloads import portal_system

from .test_lazy_scheduling import (
    RATING_QUERY,
    answer_keys,
    build_system,
    goal_query,
)

@pytest.fixture(autouse=True, scope="module")
def _lazy_scheduling_on():
    """Only lazy kernels build a tracker: keep the flag on for this module,
    also when the suite runs with ``PAXML_DISABLE_FLAGS=lazy_scheduling``."""
    saved = perf.flags.lazy_scheduling
    perf.flags.lazy_scheduling = True
    yield
    perf.flags.lazy_scheduling = saved


REGEX_QUERY = "found{$n} :- archive/vault{[_*.disc]{name{$n}}}"


def wander_system(seed: int) -> AXMLSystem:
    """A portal whose ``!Rate`` reads ``context``, beside a regex archive.

    ``!Probe`` is relevant only through its ``cd``, the context host of a
    relevant ``!Rate``.  ``!Fetch`` lands under a nested ``box`` that only
    a regex node's own images reach.
    """
    rng = random.Random(seed)
    cds, entries = [], []
    for index in range(3 + seed % 3):
        title = f"song-{index}"
        entry = [label("title", val(title))]
        entry.append(fun("Rate") if rng.random() < 0.6
                     else label("rating", val("3")))
        if rng.random() < 0.5:
            entry.append(fun("Extra"))
        cds.append(label("cd", *entry))
        entries.append(label("entry", label("song", val(title)),
                             label("stars", val(str(1 + index % 5)))))
    promos = label("promos", *[fun("Free") for _ in range(2)])
    return AXMLSystem.build(
        documents={
            "portal": label("directory", *cds, promos),
            "ratingsdb": label("db", *entries),
            "musicdb": 'db{item{title{"free-0"}}}',
            "archive": 'vault{box{disc{name{"n0"}}}, !Grow}',
            "stock": f'db{{item{{"a{seed}"}}, item{{"b"}}, extra{{"c"}}}}',
        },
        services={
            "Rate": "rating{$s} :- context/cd{title{$t}}, "
                    "ratingsdb/db{entry{song{$t}, stars{$s}}}",
            "Extra": "extra{!Probe} :- ",
            "Probe": "probe{1} :- ",
            "Free": "cd{title{$t}} :- musicdb/db{item{title{$t}}}",
            "Grow": "box{box{disc{name{$n}}, !Fetch}} :- stock/db{item{$n}}",
            "Fetch": "disc{name{$n}} :- stock/db{extra{$n}}",
        })


FAMILIES = ("portal", "tc", "acyclic", "wander")


def build_case(family: str, seed: int):
    if family == "wander":
        return wander_system(seed), [parse_query(RATING_QUERY),
                                     parse_query(REGEX_QUERY)]
    return build_system(family, seed), [goal_query(family, seed)]


def live_relevant(tracker: RelevanceTracker) -> set:
    live = {node.uid for document in tracker.system.documents.values()
            for node in document.root.function_nodes()}
    return {uid for uid in tracker.relevant_uids if uid in live}


@contextmanager
def checked_grafts():
    """Compare every ``on_graft`` with a fresh seed; yields one verdict
    per graft.

    Verdicts are recorded, not asserted: the async runtime must not
    mistake an assertion inside its graft hook for a failed call.
    """
    verdicts: List[bool] = []
    original = RelevanceTracker.on_graft

    def on_graft(self, document, node, inserted=()):
        newly = original(self, document, node, inserted)
        fresh = RelevanceTracker(self.system, self.queries,
                                 use_service_bodies=self.use_service_bodies)
        verdicts.append(live_relevant(self) == set(fresh.relevant_uids))
        return newly

    RelevanceTracker.on_graft = on_graft
    try:
        yield verdicts
    finally:
        RelevanceTracker.on_graft = original


def assert_all_match(verdicts: List[bool]) -> None:
    assert verdicts, "no graft reached the tracker"
    failed = [index for index, ok in enumerate(verdicts) if not ok]
    assert not failed, f"diverged after grafts {failed} of {len(verdicts)}"


def injected_tree(service: str, shape: int):
    """A bare call, a call under a fresh label, or a fresh portal cd."""
    call = fun(service)
    if shape == 0:
        return call
    if shape == 1:
        return label("wrap", call)
    return label("cd", label("title", val("song-0")), call)


cases = st.tuples(st.sampled_from(FAMILIES), st.integers(0, 9))


@pytest.mark.parametrize("seed", range(4))
def test_wander_seed_covers_both_extend_cases(seed):
    """The images themselves are right, not just their maintenance: the
    regex path wanders down to ``!Fetch``, and ``!Probe`` is relevant
    exactly under a ``cd`` whose ``!Rate`` reads it as context."""
    eager, queries = build_case("wander", seed)
    materialize(eager)
    lazy, _ = build_case("wander", seed)
    engine = RewritingEngine(lazy, lazy_for=queries)
    engine.run()
    for query in queries:
        assert answer_keys(query, lazy) == answer_keys(query, eager)
    assert engine.kernel.invocations_by_service.get("Fetch")
    tracker = engine.kernel.relevance_tracker
    for cd in lazy.documents["portal"].root.children:
        rated = any(child.marking == fun("Rate").marking
                    for child in cd.children)
        for probe in cd.function_nodes():
            if probe.marking == fun("Probe").marking:
                assert tracker.is_relevant(probe) == rated


# ----------------------------------------------------------------------
# one test per graft path
# ----------------------------------------------------------------------


@settings(max_examples=16, deadline=None)
@given(cases)
def test_sequential_grafts_match_fresh_seed(case):
    system, queries = build_case(*case)
    with checked_grafts() as log:
        RewritingEngine(system, lazy_for=queries).run()
    assert_all_match(log)


@settings(max_examples=12, deadline=None)
@given(cases)
def test_async_grafts_match_fresh_seed(case):
    family, seed = case
    system, queries = build_case(family, seed)
    injector = FaultInjector(seed=seed, drop_rate=0.1, error_rate=0.1,
                             delay_rate=0.15, duplicate_rate=0.3,
                             delay_seconds=0.002, max_attempt=2)
    config = RuntimeConfig(concurrency=4, seed=seed, call_timeout=0.05,
                           max_attempts=5, backoff_base=0.001,
                           backoff_max=0.01, breaker_threshold=10_000)
    with checked_grafts() as log:
        result = AsyncRuntime(system, config=config, injector=injector,
                              lazy_for=queries).run()
    assert not result.failures
    assert_all_match(log)


@settings(max_examples=16, deadline=None)
@given(cases, st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10_000),
                                 st.integers(0, 2)),
                       min_size=1, max_size=4))
def test_external_grafts_match_fresh_seed(case, injections):
    system, queries = build_case(*case)
    engine = RewritingEngine(system, lazy_for=queries)
    services = sorted(system.services)
    with checked_grafts() as log:
        for steps, pick, shape in injections:
            engine.run(max_steps=steps)
            document = system.documents[sorted(system.documents)[
                pick % len(system.documents)]]
            parents = [node for node in document.root.iter_nodes()
                       if not node.is_function and not node.is_value]
            parent = parents[pick % len(parents)]
            tree = injected_tree(services[pick % len(services)], shape)
            engine.kernel.apply_external(document, parent, [tree])
        engine.run()
    assert_all_match(log)


@settings(max_examples=12, deadline=None)
@given(cases)
def test_shard_replica_grafts_match_fresh_seed(case):
    """Replay an eager owner's graft log into a lazy replica, record by
    record, through the shard worker's replica path."""
    system, queries = build_case(*case)
    wire = system_to_wire(system)
    owner = RewritingEngine(system_from_wire(wire))
    owner.kernel.log.retain = True
    owner.run(max_steps=60)
    replica_system = system_from_wire(wire)
    replica = RewritingEngine(replica_system, lazy_for=queries)
    worker = SimpleNamespace(
        shard=1, system=replica_system, kernel=replica.kernel,
        by_uid={name: {node.uid: node for node in doc.root.iter_nodes()}
                for name, doc in replica_system.documents.items()})
    with checked_grafts() as log:
        for record in owner.kernel.log.records:
            ShardWorker.apply_replica_record(worker, record)
    assert all(log)


@settings(max_examples=12, deadline=None)
@given(cases, st.integers(0, 4))
def test_resumed_grafts_match_fresh_seed(tmp_path_factory, case, steps):
    system, queries = build_case(*case)
    engine = RewritingEngine(system, lazy_for=queries)
    engine.run(max_steps=steps)
    bundle = str(tmp_path_factory.mktemp("ckpt") / "lazy.ckpt")
    engine.checkpoint(bundle)
    resumed = resume(bundle)
    with checked_grafts() as log:
        resumed.run()
    assert all(log)


# ----------------------------------------------------------------------
# cost: a graft pays for its inserted trees
# ----------------------------------------------------------------------


def test_graft_under_one_cd_does_not_visit_promos(monkeypatch):
    system = portal_system(4, materialized_fraction=0.0, n_irrelevant=2000,
                           seed=0)
    tracker = RelevanceTracker(system, [parse_query(RATING_QUERY)])
    portal = system.documents["portal"]
    cd = portal.root.children[0]
    call = next(child for child in cd.children if child.is_function)
    assert tracker.is_relevant(call)

    visited = []
    compatible = relevance.spec_compatible

    def counting(spec, marking):
        visited.append(marking)
        return compatible(spec, marking)

    monkeypatch.setattr(relevance, "spec_compatible", counting)
    inserted = graft_under(find_path(portal.root, cd),
                           [label("rating", val("5"))])
    tracker.on_graft(portal, call, inserted)
    assert 0 < len(visited) <= 4, visited
    assert label("promos").marking not in visited
