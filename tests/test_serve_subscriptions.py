"""Exactness of subscription delta streams, oracled per graft prefix.

The serving contract: for every subscriber, *initial answers + pushed
deltas* is exactly the certain answer set of its query — not eventually,
but at every graft prefix of the run.  Monotonicity (Proposition 3.1)
makes the append-only stream sufficient; these tests check the stream
against the from-scratch :func:`evaluate_snapshot` oracle after every
single graft, on randomized systems from the three generator families,
clean and under deterministic fault injection.

A reduced-forest comparison is the right equivalence: a later answer may
strictly subsume an earlier one (the subtree it captured grew), so the
raw stream can be a superset of the reduced snapshot result.
"""

from __future__ import annotations

import asyncio

import pytest

from paxml import perf
from paxml.query import evaluate_snapshot, parse_query
from paxml.query.incremental import ContinuousQueryLog
from paxml.runtime import FaultInjector, RuntimeConfig
from paxml.serve import TenantSession
from paxml.tree.document import Forest
from paxml.tree.parser import parse_tree
from paxml.workloads import (
    portal_system,
    random_acyclic_system,
    random_edges,
    tc_system,
)

CASES = (
    [("acyclic", seed) for seed in range(6)]
    + [("tc", seed) for seed in range(6)]
    + [("portal", seed) for seed in range(6)]
)


def build_system(family: str, seed: int):
    if family == "acyclic":
        return random_acyclic_system(2 + seed % 2, seed=seed, values_per_doc=3)
    if family == "tc":
        return tc_system(random_edges(4, 5 + seed % 3, seed=seed))
    return portal_system(3 + seed % 3, materialized_fraction=0.4,
                         n_irrelevant=2, seed=seed)


def case_id(case) -> str:
    return f"{case[0]}-{case[1]}"


def subscription_queries(system):
    """One subtree-capturing query per document of the system."""
    return {name: f"ans{{*T}} :- {name}/{doc.root.marking.name}{{*T}}"
            for name, doc in system.documents.items()}


def stream_forest(sub) -> Forest:
    """Everything the subscriber has been told so far, as a forest."""
    return Forest([parse_tree(text)
                   for text in sub.initial + sub.consumed])


class PrefixOracle:
    """A kernel graft hook checking every stream after every graft.

    Registered *after* the session's own hook, so by the time it runs the
    hub has already refreshed the logs for this graft — the stream it
    drains is the stream a subscriber could have observed at exactly this
    prefix.
    """

    def __init__(self, session, subscriptions):
        self.session = session
        self.subscriptions = subscriptions      # sub -> PositiveQuery
        self.checked = 0
        for sub in subscriptions:
            sub.consumed = list()
        session.kernel.graft_hooks.append(self.check)

    def check(self, document=None, node=None, inserted=None) -> None:
        environment = self.session.environment()
        for sub, query in self.subscriptions.items():
            sub.consumed.extend(sub.drain())
            expected = evaluate_snapshot(query, environment)
            got = stream_forest(sub)
            assert got.equivalent_to(expected), (
                f"stream for {query} diverged at graft prefix "
                f"{self.session.kernel.productive}:\n"
                f"  stream:   {got.pretty()}\n"
                f"  snapshot: {expected.pretty()}")
            self.checked += 1


def run_with_oracle(system, *, config=None, injector=None):
    session = TenantSession("oracle", system, config=config,
                            injector=injector)
    subscriptions = {}
    for name, text in subscription_queries(system).items():
        sub = session.subscribe(text)
        subscriptions[sub] = parse_query(text)
    oracle = PrefixOracle(session, subscriptions)
    oracle.check()      # prefix 0: the initial answers alone must be exact

    async def drive():
        while session.has_work():
            result = await session.run_slice(100_000)
            assert not result.failures
    asyncio.run(drive())
    oracle.check()      # and once more at the fixpoint
    return session, oracle


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_streams_exact_at_every_graft_prefix(case):
    family, seed = case
    system = build_system(family, seed)
    session, oracle = run_with_oracle(
        system, config=RuntimeConfig(concurrency=4 + seed % 4, seed=seed))
    assert oracle.checked > 0
    # The run actually grafted — the oracle saw real prefixes, not just
    # the two bookend checks.
    if session.kernel.productive:
        assert oracle.checked >= session.kernel.productive


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_streams_exact_under_fault_injection(case):
    family, seed = case
    system = build_system(family, seed)
    injector = FaultInjector(seed=seed, drop_rate=0.15, error_rate=0.2,
                             delay_rate=0.15, duplicate_rate=0.15,
                             delay_seconds=0.002, max_attempt=2)
    config = RuntimeConfig(concurrency=6, seed=seed, call_timeout=0.05,
                           max_attempts=5, backoff_base=0.001,
                           backoff_max=0.01, breaker_threshold=10_000)
    session, oracle = run_with_oracle(system, config=config,
                                      injector=injector)
    assert oracle.checked > 0
    assert not session.has_work()


def test_streams_follow_external_injections():
    """Injected grafts fan out through the same per-prefix contract."""
    system = tc_system([(1, 2), (2, 3)])
    session, oracle = run_with_oracle(system)
    before = oracle.checked
    # Extend the relation from outside the engine; the prefix oracle
    # fires on the injection itself and on every derived graft.
    session.inject("d0", [parse_tree("t{c0{3}, c1{4}}")])

    async def drive():
        while session.has_work():
            await session.run_slice(100_000)
    asyncio.run(drive())
    oracle.check()
    assert oracle.checked > before
    answers = {text for sub in oracle.subscriptions for text in
               (sub.initial + sub.consumed)}
    assert any("c1{4}" in text for text in answers)


def test_late_subscriber_gets_exact_initial():
    """A subscriber arriving mid-stream starts from the full current
    result, not from an empty stream."""
    system = tc_system(random_edges(4, 5, seed=7))

    async def drive(session):
        while session.has_work():
            await session.run_slice(100_000)

    session = TenantSession("late", system)
    asyncio.run(drive(session))
    text = subscription_queries(system)["d1"]
    sub = session.subscribe(text)
    expected = evaluate_snapshot(parse_query(text), session.environment())
    assert Forest([parse_tree(t) for t in sub.initial]
                  ).equivalent_to(expected)
    assert sub.drain() == []


def test_a_graft_refreshes_each_query_once_whatever_the_subscriber_count(
        monkeypatch):
    """The hub's cost contract: landing a graft refreshes each registered
    query once, independent of the subscriber count, and every subscriber
    still receives every delta.  One subscriber and a hundred on the same
    query, fed the same grafts, must cost the same refreshes and delta
    evaluations."""
    refreshed = []
    refresh = ContinuousQueryLog.refresh

    def counting_refresh(log, environment):
        refreshed.append(log)
        return refresh(log, environment)

    monkeypatch.setattr(ContinuousQueryLog, "refresh", counting_refresh)

    def fan_out(n_subscribers: int):
        session = TenantSession(f"fanout{n_subscribers}",
                                tc_system([(0, 1)]))
        subs = [session.subscribe("p{*T} :- d0/r{*T}")
                for _ in range(n_subscribers)]

        async def drive():
            while session.has_work():
                await session.run_slice(100_000)

        asyncio.run(drive())
        refreshed.clear()
        perf.stats.reset()
        for i in range(12):
            session.inject(
                "d0", [parse_tree(f"t{{c0{{{i + 10}}}, c1{{{i + 11}}}}}")])
            asyncio.run(drive())
            batches = [sub.drain() for sub in subs]
            assert len(batches[0]) == 1, "the graft's delta was not streamed"
            assert all(batch == batches[0] for batch in batches)
        assert len({id(log) for log in refreshed}) == 1
        return len(refreshed), perf.stats.delta_evaluations

    one = fan_out(1)
    hundred = fan_out(100)
    assert one[0] > 0
    assert hundred == one
