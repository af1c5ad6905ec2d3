"""Unit tests for the concurrent runtime (paxml.runtime).

Covers the robustness machinery piece by piece — retry policy, circuit
breaker, fault injector determinism — and the engine end to end: result
equivalence with the sequential engine, timeout/budget/deadline
degradation, duplicate idempotence, stale-call recovery mid-flight, and
the peer transport.  The confluence *property* test (≥50 randomized
systems) lives in test_runtime_equivalence.py.
"""

from __future__ import annotations

import asyncio

import pytest

from paxml.runtime import (
    AsyncRuntime,
    CircuitBreaker,
    CircuitState,
    FaultInjector,
    FaultKind,
    LocalTransport,
    PeerTransport,
    RetryPolicy,
    RuntimeConfig,
    RuntimeStatus,
    materialize_async,
    materialize_peers_async,
)
from paxml.peers import Mode, Network, Peer
from paxml.system import AXMLSystem, materialize
from paxml.system.invocation import StaleCallError, call_path
from paxml.tree.reduction import canonical_key
from paxml.workloads import chain_edges, portal_system, tc_system


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_growth_with_cap(self):
        config = RuntimeConfig(backoff_base=0.1, backoff_factor=2.0,
                               backoff_max=0.5, jitter=0.0)
        policy = RetryPolicy(config)
        delays = [policy.delay("f", 1, attempt) for attempt in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_per_coordinates(self):
        config = RuntimeConfig(jitter=0.5, seed=42)
        policy = RetryPolicy(config)
        first = policy.delay("f", 7, 2)
        assert policy.delay("f", 7, 2) == first           # pure function
        assert policy.delay("f", 8, 2) != first           # site matters
        other = RetryPolicy(RuntimeConfig(jitter=0.5, seed=43))
        assert other.delay("f", 7, 2) != first            # seed matters

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(concurrency=0)
        with pytest.raises(ValueError):
            RuntimeConfig(max_attempts=0)
        with pytest.raises(ValueError):
            RuntimeConfig(call_timeout=-1.0)


class TestCircuitBreaker:
    KEY = ("peer", "svc")

    def test_opens_after_threshold_and_recovers(self):
        breaker = CircuitBreaker(threshold=3, cooldown=10.0)
        for now in (0.0, 1.0):
            assert breaker.record_failure(self.KEY, now) is False
        assert breaker.record_failure(self.KEY, 2.0) is True
        assert breaker.trips == 1
        assert breaker.state_of(self.KEY) is CircuitState.OPEN
        allowed, retry_after = breaker.allow(self.KEY, 5.0)
        assert not allowed and retry_after == pytest.approx(7.0)
        # Cooldown elapsed: exactly one half-open probe is admitted.
        assert breaker.allow(self.KEY, 13.0) == (True, 0.0)
        assert breaker.allow(self.KEY, 13.0)[0] is False
        breaker.record_success(self.KEY)
        assert breaker.state_of(self.KEY) is CircuitState.CLOSED
        assert breaker.allow(self.KEY, 13.0) == (True, 0.0)

    def test_failed_probe_reopens_immediately(self):
        breaker = CircuitBreaker(threshold=2, cooldown=5.0)
        breaker.record_failure(self.KEY, 0.0)
        breaker.record_failure(self.KEY, 0.0)
        assert breaker.state_of(self.KEY) is CircuitState.OPEN
        assert breaker.allow(self.KEY, 6.0) == (True, 0.0)  # probe
        breaker.record_failure(self.KEY, 6.0)
        assert breaker.state_of(self.KEY) is CircuitState.OPEN
        assert breaker.allow(self.KEY, 7.0)[0] is False

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1, cooldown=5.0)
        breaker.record_failure(("p", "a"), 0.0)
        assert breaker.allow(("p", "a"), 1.0)[0] is False
        assert breaker.allow(("p", "b"), 1.0)[0] is True


class TestFaultInjector:
    def test_schedule_is_deterministic_and_order_independent(self):
        a = FaultInjector(seed=5, drop_rate=0.3, error_rate=0.3)
        b = FaultInjector(seed=5, drop_rate=0.3, error_rate=0.3)
        coords = [("f", site, attempt) for site in range(30)
                  for attempt in (1, 2)]
        forward = [a.decide(*c).kind for c in coords]
        backward = [b.decide(*c).kind for c in reversed(coords)]
        assert forward == list(reversed(backward))
        assert a.injected == b.injected

    def test_seed_changes_schedule(self):
        coords = [("f", site, 1) for site in range(50)]
        a = [FaultInjector(seed=1, drop_rate=0.5).peek(*c).kind for c in coords]
        b = [FaultInjector(seed=2, drop_rate=0.5).peek(*c).kind for c in coords]
        assert a != b

    def test_max_attempt_bounds_the_schedule(self):
        injector = FaultInjector(seed=0, drop_rate=1.0, max_attempt=2)
        assert injector.decide("f", 1, 1).kind is FaultKind.DROP
        assert injector.decide("f", 1, 2).kind is FaultKind.DROP
        assert injector.decide("f", 1, 3).kind is FaultKind.NONE

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(drop_rate=1.5)


# ----------------------------------------------------------------------
# engine: happy paths
# ----------------------------------------------------------------------


def _tc_pair(n=6):
    return tc_system(chain_edges(n)), tc_system(chain_edges(n))


class TestEngineEquivalence:
    def test_tc_matches_sequential_fixpoint(self):
        sequential, concurrent = _tc_pair()
        materialize(sequential)
        result = materialize_async(concurrent, concurrency=4, seed=0)
        assert result.status is RuntimeStatus.TERMINATED
        assert result.terminated
        assert sequential.equivalent_to(concurrent)

    def test_portal_matches_sequential_fixpoint(self):
        reference = portal_system(10, materialized_fraction=0.0, seed=1)
        subject = portal_system(10, materialized_fraction=0.0, seed=1)
        materialize(reference)
        result = materialize_async(subject, concurrency=8, seed=0)
        assert result.status is RuntimeStatus.TERMINATED
        assert reference.equivalent_to(subject)
        assert result.metrics.in_flight_peak <= 8
        assert result.invocations_by_service.get("GetRating", 0) > 0

    def test_empty_system_terminates(self):
        system = AXMLSystem.build(documents={"d": "a{b}"}, services={})
        result = materialize_async(system)
        assert result.status is RuntimeStatus.TERMINATED
        assert result.invocations == 0

    def test_concurrency_window_is_respected(self):
        system = portal_system(12, materialized_fraction=0.0, seed=2)
        transport = LocalTransport(system, latency=0.005)
        result = materialize_async(system, transport=transport, concurrency=3)
        assert result.metrics.in_flight_peak <= 3

    def test_latency_histograms_are_recorded(self):
        system = portal_system(6, materialized_fraction=0.0, seed=3)
        transport = LocalTransport(system, latency={"GetRating": 0.005})
        result = materialize_async(system, transport=transport, concurrency=4)
        summary = result.metrics.snapshot()["latency"]["GetRating"]
        assert summary["count"] > 0
        assert summary["p50"] >= 0.005

    def test_run_reports_wall_clock(self):
        system, _ = _tc_pair(4)
        result = materialize_async(system)
        assert result.duration_seconds > 0.0


# ----------------------------------------------------------------------
# engine: failure paths
# ----------------------------------------------------------------------


class TestEngineRobustness:
    def test_timeouts_degrade_but_report_every_failure(self):
        system = portal_system(4, materialized_fraction=0.0, seed=4)
        transport = LocalTransport(system, latency=0.5)
        result = materialize_async(
            system, transport=transport, concurrency=4,
            call_timeout=0.02, max_attempts=2, backoff_base=0.001,
            breaker_threshold=1000)
        assert result.status is RuntimeStatus.DEGRADED
        assert result.failures
        metrics = result.metrics
        assert metrics.timeouts == metrics.attempts_failed
        assert metrics.attempts_failed == metrics.retries + metrics.exhausted
        assert metrics.exhausted == len(result.failures)
        for failure in result.failures:
            assert failure.attempts == 2

    def test_transient_errors_are_retried_to_success(self):
        reference = portal_system(8, materialized_fraction=0.0, seed=5)
        subject = portal_system(8, materialized_fraction=0.0, seed=5)
        materialize(reference)
        injector = FaultInjector(seed=3, error_rate=1.0, max_attempt=1)
        result = materialize_async(
            subject, injector=injector, concurrency=4, max_attempts=3,
            backoff_base=0.001, breaker_threshold=1000)
        assert result.status is RuntimeStatus.TERMINATED
        assert reference.equivalent_to(subject)
        metrics = result.metrics
        assert metrics.retries > 0 and metrics.exhausted == 0
        # every injected failure was retried — none silently dropped
        assert metrics.attempts_failed == injector.injected_failures
        assert metrics.attempts_failed == metrics.retries

    def test_duplicate_deliveries_are_idempotent(self):
        reference = portal_system(8, materialized_fraction=0.0, seed=6)
        subject = portal_system(8, materialized_fraction=0.0, seed=6)
        materialize(reference)
        injector = FaultInjector(seed=1, duplicate_rate=1.0, max_attempt=1)
        result = materialize_async(subject, injector=injector, concurrency=4)
        assert result.status is RuntimeStatus.TERMINATED
        assert reference.equivalent_to(subject)
        assert result.metrics.duplicate_deliveries > 0

    def test_circuit_breaker_trips_and_short_circuits(self):
        system = portal_system(6, materialized_fraction=0.0, seed=7)
        injector = FaultInjector(seed=2, error_rate=1.0)  # every attempt fails
        result = materialize_async(
            system, injector=injector, concurrency=4, max_attempts=4,
            backoff_base=0.001, breaker_threshold=2, breaker_cooldown=0.01)
        assert result.status is RuntimeStatus.DEGRADED
        metrics = result.metrics
        assert metrics.circuit_trips >= 1
        assert metrics.short_circuits >= 1
        # all GetRating/FreeMusicDB sites exhausted and were reported
        assert len(result.failures) == result.invocations
        assert metrics.attempts_failed == metrics.retries + metrics.exhausted

    def test_budget_exhaustion_leaves_sound_prefix(self):
        fixpoint, subject = _tc_pair(7)
        materialize(fixpoint)
        result = materialize_async(subject, max_invocations=3, concurrency=2)
        assert result.status is RuntimeStatus.BUDGET_EXHAUSTED
        assert not result.terminated
        assert subject.subsumed_by(fixpoint)

    def test_deadline_exhaustion_cancels_in_flight(self):
        fixpoint = portal_system(6, materialized_fraction=0.0, seed=8)
        subject = portal_system(6, materialized_fraction=0.0, seed=8)
        materialize(fixpoint)
        transport = LocalTransport(subject, latency=0.2)
        result = materialize_async(subject, transport=transport,
                                   concurrency=2, deadline=0.05)
        assert result.status is RuntimeStatus.DEADLINE_EXHAUSTED
        assert subject.subsumed_by(fixpoint)

    def test_unknown_service_is_reported_not_raised(self):
        # Bypass validation: the document calls a service nobody declares.
        system = AXMLSystem.build(documents={"d": "a{!ghost}"},
                                  services={"ghost": "leaf :- "})
        del system.services["ghost"]
        result = materialize_async(system)
        assert result.status is RuntimeStatus.DEGRADED
        assert len(result.failures) == 1
        assert "ghost" in result.failures[0].reason

    def test_stale_call_recovered_mid_flight(self):
        """A slow call whose node is pruned while in flight is dropped
        cleanly (StaleCallError recovery), and the limit is unaffected."""
        def build():
            return AXMLSystem.build(
                documents={"d": "r{a{!f}, !g}"},
                services={"f": "leaf :- ", "g": "a{c, !f} :- "})

        sequential = build()
        materialize(sequential)
        subject = build()
        # g grafts a{c, !f} instantly, which subsumes (and evicts) a{!f}
        # while the original slow !f is still in flight.
        transport = LocalTransport(subject, latency={"f": 0.05, "g": 0.0})
        runtime = AsyncRuntime(subject, transport=transport,
                               config=RuntimeConfig(concurrency=2, seed=0))
        result = runtime.run()
        assert result.status is RuntimeStatus.TERMINATED
        assert result.metrics.stale_calls >= 1
        assert sequential.equivalent_to(subject)


# ----------------------------------------------------------------------
# peer transport
# ----------------------------------------------------------------------


def _music_peers():
    portal = Peer("portal")
    portal.add_document("directory", '''directory{
        cd{title{"Body and Soul"}, !GetRating{"Body and Soul"}},
        !FreeMusicDB{type{"Jazz"}}}''')
    ratings = Peer("ratings")
    ratings.add_document("ratingsdb",
                         'db{entry{song{"Body and Soul"}, stars{"4"}}}')
    ratings.offer_service((
        "GetRating",
        'rating{$s} :- input/input{$t}, ratingsdb/db{entry{song{$t}, stars{$s}}}',
    ))
    music = Peer("music")
    music.add_document("musicdb",
                       'db{item{title{"So What"}}, item{title{"Freddie"}}}')
    music.offer_service((
        "FreeMusicDB",
        'cd{title{$t}, !GetRating{$t}} :- musicdb/db{item{title{$t}}}',
    ))
    return [portal, ratings, music]


def _peer_signature(peers):
    return {
        peer.name: {name: canonical_key(doc.root)
                    for name, doc in peer.documents.items()}
        for peer in peers
    }


class TestPeerTransport:
    def test_async_runtime_matches_network_simulator(self):
        simulated = _music_peers()
        Network(simulated, mode=Mode.PULL, seed=0).run()
        concurrent = _music_peers()
        result = materialize_peers_async(concurrent, concurrency=4, seed=0)
        assert result.status is RuntimeStatus.TERMINATED
        assert _peer_signature(simulated) == _peer_signature(concurrent)

    def test_peer_breaker_keys_use_owner_names(self):
        peers = _music_peers()
        transport = PeerTransport(peers)
        assert transport.peer_of("GetRating") == "ratings"
        assert transport.peer_of("FreeMusicDB") == "music"

    def test_arun_composes_with_existing_event_loop(self):
        peers = _music_peers()
        runtime = AsyncRuntime.for_peers(peers,
                                         config=RuntimeConfig(concurrency=4))

        async def driver():
            return await asyncio.wait_for(runtime.arun(), timeout=30)

        result = asyncio.run(driver())
        assert result.status is RuntimeStatus.TERMINATED


def test_timed_drops_are_counted_once_each():
    """A dropped response surfaces through ``call_timeout`` (the
    ``asyncio.wait_for`` branch).  With a single call site nothing else
    evaluates on the loop while the deadline runs, so every timeout is
    an injected drop and each is counted exactly once."""
    def build():
        return AXMLSystem.build(documents={"d": "r{!F}",
                                           "src": "db{item{1}, item{2}}"},
                                services={"F": "v{$x} :- src/db{item{$x}}"})

    reference = build()
    materialize(reference)
    subject = build()
    injector = FaultInjector(seed=5, drop_rate=1.0, max_attempt=2)
    result = materialize_async(subject, injector=injector, concurrency=1,
                               call_timeout=0.02, max_attempts=4,
                               backoff_base=0.001, breaker_threshold=1000)
    assert result.status is RuntimeStatus.TERMINATED
    assert reference.equivalent_to(subject)
    metrics = result.metrics
    assert injector.injected_failures > 0
    assert metrics.attempts_failed == injector.injected_failures
    assert metrics.timeouts == metrics.attempts_failed == metrics.retries
