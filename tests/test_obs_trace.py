"""Unit tests for the PR 8 observability primitives.

Covers :mod:`paxml.obs.trace` (contexts, admission sampling, spans),
:mod:`paxml.obs.flight` (bounded rings, dumps), :mod:`paxml.obs.slo`
(sliding-window error budgets), the bus's kind-filtered subscriptions
including the off-path allocation-free regression, and the exporters /
metrics registry under concurrent emission.
"""

from __future__ import annotations

import io
import json
import threading
import tracemalloc

import pytest

from paxml import AXMLSystem, obs, perf
from paxml.obs import bus as obs_bus
from paxml.obs import events as obs_events
from paxml.obs import trace as obs_trace
from paxml.obs.events import Event
from paxml.obs.exporters import (prometheus_text, read_jsonl,
                                 to_chrome_trace, write_jsonl)
from paxml.obs.flight import GLOBAL, FlightRecorder
from paxml.obs.metrics import Registry
from paxml.obs.slo import DEFAULT_SLOS, SLOBoard, SLOSpec
from paxml.runtime import AsyncRuntime, LocalTransport, RuntimeConfig
from paxml.system import RewritingEngine
from paxml.tree.reduction import canonical_key
from paxml.workloads import chain_edges, tc_system


@pytest.fixture(autouse=True)
def _trace_isolation():
    obs_trace.seed_sampler(99)
    yield
    obs_trace.reset()
    obs_trace.seed_sampler(None)
    perf.flags.tracing = True


# ----------------------------------------------------------------------
# trace contexts and admission
# ----------------------------------------------------------------------


class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = obs_trace.TraceContext(trace_id="t1", span_id="s1",
                                     parent_span_id="s0", tenant="alpha")
        back = obs_trace.TraceContext.from_wire(ctx.to_wire())
        assert back == ctx

    def test_unsampled_envelope_drops_to_none(self):
        assert obs_trace.TraceContext.from_wire(None) is None
        assert obs_trace.TraceContext.from_wire({}) is None
        assert obs_trace.TraceContext.from_wire(
            {"trace_id": "t", "span_id": "s", "sampled": False}) is None
        assert obs_trace.TraceContext.from_wire({"trace_id": "t"}) is None

    def test_child_keeps_trace_and_tenant(self):
        ctx = obs_trace.TraceContext(trace_id="t1", span_id="s1",
                                     tenant="alpha")
        child = ctx.child()
        assert child.trace_id == "t1"
        assert child.parent_span_id == "s1"
        assert child.tenant == "alpha"
        assert child.span_id != ctx.span_id

    def test_activate_restore_and_use(self):
        assert obs_trace.current() is None
        ctx = obs_trace.TraceContext(trace_id="t", span_id="s")
        token = obs_trace.activate(ctx)
        assert obs_trace.current() is ctx
        obs_trace.restore(token)
        assert obs_trace.current() is None
        with obs_trace.use(ctx):
            assert obs_trace.current() is ctx
        assert obs_trace.current() is None


class TestAdmit:
    def test_rate_one_always_samples(self):
        ctx = obs_trace.admit("alpha", rate=1.0)
        assert ctx is not None and ctx.tenant == "alpha" and ctx.sampled

    def test_rate_zero_never_samples(self):
        before = perf.stats.trace_requests_unsampled
        assert obs_trace.admit("alpha", rate=0.0) is None
        assert perf.stats.trace_requests_unsampled == before + 1

    def test_flag_off_is_free(self):
        perf.flags.tracing = False
        assert obs_trace.admit("alpha", rate=1.0) is None

    def test_sampling_rate_is_respected(self):
        obs_trace.seed_sampler(7)
        hits = sum(obs_trace.admit(rate=0.1) is not None
                   for _ in range(2000))
        assert 120 <= hits <= 280   # ~200 expected

    def test_propagated_parent_is_adopted(self):
        parent = {"trace_id": "cafe", "span_id": "beef", "sampled": True}
        ctx = obs_trace.admit("alpha", rate=0.0, parent=parent)
        assert ctx is not None
        assert ctx.trace_id == "cafe"
        assert ctx.parent_span_id == "beef"   # fresh server-side span
        assert ctx.tenant == "alpha"


class TestSpans:
    def test_emit_span_reaches_sinks_and_bus(self):
        seen = []
        obs_trace.subscribe_spans(seen.append)
        events = []
        obs_bus.subscribe(events.append, kinds={obs_events.SPAN})
        obs_bus.enable()
        ctx = obs_trace.TraceContext(trace_id="t", span_id="s",
                                     tenant="alpha")
        obs_trace.emit_span(ctx, "op:inject", 1.0, 2.5, op="inject")
        assert len(seen) == 1 and seen[0].seconds == 1.5
        assert len(events) == 1 and events[0].data["trace_id"] == "t"

    def test_span_contextmanager_noop_without_context(self):
        seen = []
        obs_trace.subscribe_spans(seen.append)
        with obs_trace.span("op:read") as child:
            assert child is None
        assert seen == []

    def test_span_contextmanager_nests_and_flags_errors(self):
        seen = []
        obs_trace.subscribe_spans(seen.append)
        ctx = obs_trace.TraceContext(trace_id="t", span_id="s")
        with pytest.raises(RuntimeError):
            with obs_trace.use(ctx):
                with obs_trace.span("op:boom"):
                    raise RuntimeError("boom")
        assert len(seen) == 1
        assert seen[0].status == "error"
        assert seen[0].parent_span_id == "s"

    def test_failing_sink_does_not_break_emission(self):
        def bad(_span):
            raise ValueError("sink down")
        good = []
        obs_trace.subscribe_spans(bad)
        obs_trace.subscribe_spans(good.append)
        ctx = obs_trace.TraceContext(trace_id="t", span_id="s")
        obs_trace.emit_span(ctx, "x", 0.0, 1.0)
        assert len(good) == 1


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_rings_are_bounded_per_tenant(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight.record("alpha", "serve_op", op="run", i=i)
        snap = flight.snapshot("alpha")
        assert len(snap) == 4
        assert [row["data"]["i"] for row in snap] == [6, 7, 8, 9]
        assert flight.recorded == 10

    def test_tenant_stamped_into_payload(self):
        flight = FlightRecorder()
        flight.record("alpha", "serve_op", op="run")
        flight.record(None, "watchdog_stall", reason="frontier")
        assert flight.snapshot("alpha")[0]["data"]["tenant"] == "alpha"
        assert flight.tenants() == [GLOBAL, "alpha"]

    def test_merged_snapshot_orders_by_ts(self):
        flight = FlightRecorder()
        flight.record("beta", "serve_op", op="b")
        flight.record("alpha", "serve_op", op="a")
        ops = [row["data"]["op"] for row in flight.snapshot()]
        assert ops == ["b", "a"]

    def test_dump_round_trips_through_exporters(self, tmp_path):
        flight = FlightRecorder()
        flight.record("alpha", "serve_op", op="inject",
                      trace_id="t1", seconds=0.01)
        ctx = obs_trace.TraceContext(trace_id="t1", span_id="s1",
                                     tenant="alpha")
        flight.record_span(obs_trace.emit_span(ctx, "op:inject", 1.0, 2.0))
        path = tmp_path / "flight.jsonl"
        written = flight.dump(str(path))
        assert written == 2
        events = read_jsonl(str(path))
        assert {e.kind for e in events} == {"serve_op", "span"}
        chrome = to_chrome_trace(events)
        assert any(e.get("ph") == "X" for e in chrome["traceEvents"])

    def test_bus_attach_is_kind_filtered(self):
        flight = FlightRecorder()
        flight.attach()
        obs_bus.enable()
        try:
            obs_bus.emit(obs_events.GRAFT_APPLIED, tenant="alpha", step=1)
            obs_bus.emit(obs_events.ATTEMPT_STARTED, tenant="alpha")
        finally:
            flight.detach()
        kinds = [row["kind"] for row in flight.snapshot("alpha")]
        assert obs_events.GRAFT_APPLIED in kinds
        assert obs_events.ATTEMPT_STARTED not in kinds

    def test_clear(self):
        flight = FlightRecorder()
        flight.record("alpha", "x")
        flight.record("beta", "x")
        flight.clear("alpha")
        assert flight.tenants() == ["beta"]
        flight.clear()
        assert flight.tenants() == []


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------


class TestSLO:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", op="*", objective="vibes")
        with pytest.raises(ValueError):
            SLOSpec(name="x", op="*", budget=0.0)
        spec = SLOSpec(name="x", op="inject")
        assert SLOSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_latency_objective_burn_and_breach(self):
        registry = Registry()
        board = SLOBoard([SLOSpec(name="inj", op="inject",
                                  threshold=0.1, budget=0.1, window=10)],
                         registry=registry)
        for _ in range(8):
            board.observe("alpha", "inject", 0.01, True)
        board.observe("alpha", "inject", 0.5, True)    # slow → bad
        board.observe("alpha", "inject", 0.01, False)  # error → bad
        (row,) = board.report("alpha")
        assert row["bad_fraction"] == pytest.approx(0.2)
        assert row["burn_rate"] == pytest.approx(2.0)
        assert row["breached"]
        text = prometheus_text(registry)
        assert 'paxml_slo_burn_rate{slo="inj",tenant="alpha"} 2.0' in text

    def test_window_slides(self):
        board = SLOBoard([SLOSpec(name="inj", op="inject",
                                  threshold=0.1, budget=0.5, window=4)],
                         registry=Registry())
        board.observe("alpha", "inject", 9.0, True)
        for _ in range(4):
            board.observe("alpha", "inject", 0.01, True)
        (row,) = board.report()
        assert row["bad_fraction"] == 0.0     # the bad verdict slid out
        assert row["bad_total"] == 1          # lifetime count remains

    def test_op_filter_and_wildcard(self):
        board = SLOBoard([SLOSpec(name="errors", op="*",
                                  objective="errors", budget=0.5, window=10)],
                         registry=Registry())
        board.observe("alpha", "read", 0.0, False)
        board.observe("alpha", "inject", 0.0, True)
        (row,) = board.report()
        assert row["observed"] == 2 and row["bad_total"] == 1

    def test_default_slos_cover_inject_and_delta_push(self):
        assert {s.op for s in DEFAULT_SLOS} >= {"inject", "delta_push", "*"}


# ----------------------------------------------------------------------
# bus kind filtering + the off-path regression
# ----------------------------------------------------------------------


class TestBusKinds:
    def test_kind_filter_only_sees_its_kinds(self):
        filtered, everything = [], []
        obs_bus.subscribe(filtered.append, kinds={"span"})
        obs_bus.subscribe(everything.append)
        obs_bus.enable()
        obs_bus.emit("span", x=1)
        obs_bus.emit("graft_applied", x=2)
        assert [e.kind for e in filtered] == ["span"]
        assert [e.kind for e in everything] == ["span", "graft_applied"]

    def test_resubscribe_replaces_registration(self):
        seen = []
        obs_bus.subscribe(seen.append, kinds={"span", "serve_op"})
        obs_bus.subscribe(seen.append, kinds={"span"})   # tighten
        obs_bus.enable()
        obs_bus.emit("span")
        obs_bus.emit("serve_op")
        assert [e.kind for e in seen] == ["span"]
        assert obs_bus.subscriber_count() == 1
        obs_bus.unsubscribe(seen.append)
        assert obs_bus.subscriber_count() == 0

    def test_off_path_allocation_free_with_kind_subscribers(self):
        """Regression: a disabled bus with kind-filtered subscribers
        attached must not allocate on the instrumented hot path."""
        obs_bus.subscribe(lambda e: None, kinds={"span", "serve_op"})
        assert not obs_bus.ACTIVE

        def hot(n):
            # The instrumented call-site idiom: payload built only
            # inside the guard.
            for _ in range(n):
                if obs_bus.ACTIVE:
                    obs_bus.emit("graft_applied",
                                 trees=[{"big": "payload"}] * 50)

        hot(10)   # warm any lazy interpreter state
        emitted_before = obs_bus.emitted
        tracemalloc.start()
        try:
            hot(10_000)
            current, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert obs_bus.emitted == emitted_before
        assert current < 2048   # tracemalloc bookkeeping slack only


# ----------------------------------------------------------------------
# exporters and registry under concurrent emission
# ----------------------------------------------------------------------


class TestConcurrentEmit:
    N_THREADS = 8
    N_EVENTS = 200

    def test_bus_and_jsonl_under_concurrent_emit(self):
        seen = []
        obs_bus.subscribe(seen.append, kinds={"serve_op"})
        obs_bus.enable()

        def worker(tid):
            for i in range(self.N_EVENTS):
                obs_bus.emit("serve_op", tenant=f"t{tid}", op="inject", i=i)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(seen) == self.N_THREADS * self.N_EVENTS
        assert len({e.seq for e in seen}) == len(seen)   # unique seqs
        # Every event survives a JSONL round trip.
        buffer = io.StringIO()
        write_jsonl(seen, buffer)
        buffer.seek(0)
        back = read_jsonl(buffer)
        assert len(back) == len(seen)
        # The Chrome exporter buckets each tenant into its own pid.
        chrome = to_chrome_trace(back)
        tenant_pids = {e["pid"] for e in chrome["traceEvents"]
                       if e.get("ph") == "M" and e.get("name")
                       == "process_name"
                       and e["args"]["name"].startswith("tenant ")}
        assert len(tenant_pids) == self.N_THREADS

    def test_registry_under_concurrent_observation(self):
        registry = Registry()
        counter = registry.counter("ops_total", labelnames=("tenant",))
        histogram = registry.histogram("op_seconds",
                                       labelnames=("tenant",))

        def worker(tid):
            label = f"t{tid}"
            for i in range(self.N_EVENTS):
                counter.labels(tenant=label).inc()
                histogram.labels(tenant=label).observe(i / 1000.0)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for tid in range(self.N_THREADS):
            assert counter.labels(
                tenant=f"t{tid}").value == self.N_EVENTS
        text = prometheus_text(registry)
        for tid in range(self.N_THREADS):
            assert f'ops_total{{tenant="t{tid}"}} {float(self.N_EVENTS)}' \
                in text

    def test_span_sinks_under_concurrent_emit(self):
        flight = FlightRecorder(capacity=self.N_THREADS * self.N_EVENTS)
        obs_trace.subscribe_spans(flight.record_span)

        def worker(tid):
            ctx = obs_trace.TraceContext(trace_id=f"trace{tid}",
                                         span_id="s", tenant=f"t{tid}")
            for i in range(self.N_EVENTS):
                obs_trace.emit_span(ctx, f"op:{i}", 0.0, 1.0)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = sum(len(flight.snapshot(f"t{t}"))
                    for t in range(self.N_THREADS))
        assert total == self.N_THREADS * self.N_EVENTS


# ----------------------------------------------------------------------
# observing a run does not change what it computes
# ----------------------------------------------------------------------


def _nesting_system():
    """``f`` grafts a fresh call ``!g``: under a sampled trace the graft
    tags it, so the async engine runs its invocation as a child span."""
    return AXMLSystem.build(documents={"d": "a{!f}", "src": "s{1, 2}"},
                            services={"f": "b{!g} :- ",
                                      "g": "c{$v} :- src/s{$v}"})


def _run(system, engine):
    if engine == "sequential":
        return RewritingEngine(system).run()
    return AsyncRuntime(system, transport=LocalTransport(system),
                        config=RuntimeConfig(concurrency=4, seed=0)).run()


def _fixpoint(system):
    return {name: canonical_key(doc.root)
            for name, doc in system.documents.items()}


@pytest.mark.parametrize("engine", ["sequential", "async"])
@pytest.mark.parametrize("build", [lambda: tc_system(chain_edges(6)),
                                   _nesting_system],
                         ids=["tc", "nesting"])
def test_observed_run_reaches_the_unobserved_fixpoint(engine, build):
    """A run with the event bus on and its trace sampled at rate 1.0
    ends in the same documents as an unobserved run, and records its
    events and spans."""
    plain = build()
    plain_result = _run(plain, engine)

    observed = build()
    spans = []
    obs_trace.subscribe_spans(spans.append)
    ctx = obs_trace.admit("observed", rate=1.0)
    assert ctx is not None
    with obs.tracing() as recorder, obs_trace.span("run", ctx):
        observed_result = _run(observed, engine)

    assert plain_result.terminated and observed_result.terminated
    assert _fixpoint(observed) == _fixpoint(plain)
    if engine == "sequential":
        assert observed_result.steps == plain_result.steps
    assert recorder.of_kind(obs_events.GRAFT_APPLIED)
    assert [span.name for span in spans][-1] == "run"
    if engine == "async" and build is _nesting_system:
        assert "invoke:!g" in {span.name for span in spans}
