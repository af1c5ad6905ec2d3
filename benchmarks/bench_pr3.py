"""PR 3 benchmark: what the observability layer costs, on and off.

Produces ``BENCH_pr3.json`` (repo root by default) with two scenarios:

* ``e4_tracing_overhead`` — the PR 1 stress workload (transitive closure
  of a chain, latency-free, so instrumentation cost has nowhere to
  hide).  Off/on A/B medians, events/sec with tracing on, and the
  estimated tracing-off overhead.
* ``fanout_tracing_overhead`` — the PR 2 workload (jazz portal fan-out
  through the async runtime with simulated per-call latency) under the
  same A/B.  Requeued stale calls make the async invocation count depend
  on timing, so the traced and untraced runs are compared by their
  fixpoint documents (Theorem 2.1: the fixpoint is order-independent);
  the counts are reported, not gated.

The tracing-*off* budget (≤ 5 % of scenario wall-clock, the CI gate) is
estimated directly rather than read off the A/B delta: the off-path cost
of one instrumentation point is a single ``if obs_bus.ACTIVE:`` check,
so the benchmark times that check in isolation and multiplies by a
conservative estimate of how many times the run executes it (2× the
events a traced run emits — guards on unproductive paths emit nothing).
A/B medians are reported too, but for overheads this small they sit
inside run-to-run noise, which is exactly why the microbenchmark is the
gated number.

Run::

    PYTHONPATH=src python benchmarks/bench_pr3.py              # full
    PYTHONPATH=src python benchmarks/bench_pr3.py --smoke      # CI subset
    PYTHONPATH=src python benchmarks/bench_pr3.py --artifacts DIR
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(__file__))

from paxml import obs, perf
from paxml.obs import bus as obs_bus
from paxml.obs.provenance import clear_staged
from paxml.runtime import AsyncRuntime, LocalTransport, RuntimeConfig
from paxml.system import materialize
from paxml.tree.reduction import canonical_key
from paxml.workloads import chain_edges, portal_system, tc_system

from harness import timed, write_bench_json

OVERHEAD_BUDGET_PCT = 5.0
GUARDS_PER_EVENT = 2  # guard sites outnumber emitted events; 2× is generous


def _fresh_run_state() -> None:
    perf.flags.set_all(True)
    perf.clear_caches()
    perf.stats.reset()
    clear_staged()


def guard_cost_seconds(iterations: int = 2_000_000) -> float:
    """Wall-clock of one disabled ``if obs_bus.ACTIVE:`` check.

    Times a loop of guard checks against an empty loop of the same shape
    and returns the per-iteration difference (clamped at zero: the two
    loops can jitter past each other when the guard is this cheap).
    """
    obs_bus.disable()
    r = range(iterations)
    start = time.perf_counter()
    for _ in r:
        if obs_bus.ACTIVE:
            obs_bus.emit("never")
    guarded = time.perf_counter() - start
    start = time.perf_counter()
    for _ in r:
        pass
    empty = time.perf_counter() - start
    return max(guarded - empty, 0.0) / iterations


def _ab_rows(off_seconds, on_seconds, outcomes_off, outcomes_on, events,
             workload, guard_cost):
    off_median = statistics.median(off_seconds)
    on_median = statistics.median(on_seconds)
    guard_checks = events * GUARDS_PER_EVENT
    estimated_pct = (100.0 * guard_cost * guard_checks / off_median
                     if off_median else 0.0)
    return {
        "workload": workload,
        "tracing_off_seconds_median": round(off_median, 4),
        "tracing_on_seconds_median": round(on_median, 4),
        "on_off_ratio": round(on_median / off_median, 3) if off_median else 1.0,
        "events": events,
        "events_per_second": round(events / on_median) if on_median else 0,
        "guard_cost_ns": round(guard_cost * 1e9, 2),
        "guard_checks_estimate": guard_checks,
        "estimated_off_overhead_pct": round(estimated_pct, 4),
        "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
        "within_budget": estimated_pct <= OVERHEAD_BUDGET_PCT,
        # Every run, traced or not, must reach one and the same outcome.
        "outcomes_match": len(outcomes_off | outcomes_on) == 1,
    }


def bench_sequential(chain_n: int, repeats: int, guard_cost: float,
                     artifacts: str | None) -> dict:
    def build():
        return tc_system(chain_edges(chain_n))

    off_seconds, off_steps = [], set()
    for _ in range(repeats):
        _fresh_run_state()
        system = build()
        seconds, result = timed(
            lambda: materialize(system, max_steps=1_000_000))
        off_seconds.append(seconds)
        off_steps.add(result.steps)

    on_seconds, on_steps = [], set()
    recorder = None
    for _ in range(repeats):
        _fresh_run_state()
        system = build()
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            seconds, result = timed(
                lambda: materialize(system, max_steps=1_000_000))
        on_seconds.append(seconds)
        on_steps.add(result.steps)

    if artifacts and recorder is not None:
        obs.write_jsonl(recorder.events,
                        os.path.join(artifacts, "e4.events.jsonl"))
        obs.write_chrome_trace(recorder.events,
                               os.path.join(artifacts, "e4.trace.json"))
    row = _ab_rows(off_seconds, on_seconds, off_steps, on_steps,
                   len(recorder.events),
                   f"TC(chain-{chain_n}) sequential, latency-free",
                   guard_cost)
    index = recorder.provenance()
    row["grafts"] = len(index)
    row["derived_nodes"] = len(index.derived_uids())
    return row


def bench_fanout(n_cds: int, latency: float, repeats: int, guard_cost: float,
                 artifacts: str | None) -> dict:
    def build():
        return portal_system(n_cds, materialized_fraction=0.0,
                             n_irrelevant=max(n_cds // 4, 2), seed=0)

    def run(fixpoints, invocations):
        system = build()
        transport = LocalTransport(system, latency=latency)
        config = RuntimeConfig(concurrency=8, seed=0)
        runtime = AsyncRuntime(system, transport=transport, config=config)
        seconds, result = timed(runtime.run)
        fixpoints.add(tuple(sorted(
            (name, canonical_key(document.root))
            for name, document in system.documents.items())))
        invocations.append(result.invocations)
        return seconds

    off_seconds, off_fixpoints, off_invocations = [], set(), []
    for _ in range(repeats):
        _fresh_run_state()
        off_seconds.append(run(off_fixpoints, off_invocations))

    on_seconds, on_fixpoints, on_invocations = [], set(), []
    recorder = None
    for _ in range(repeats):
        _fresh_run_state()
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            on_seconds.append(run(on_fixpoints, on_invocations))

    if artifacts and recorder is not None:
        obs.write_jsonl(recorder.events,
                        os.path.join(artifacts, "fanout.events.jsonl"))
        obs.write_chrome_trace(recorder.events,
                               os.path.join(artifacts, "fanout.trace.json"))
    row = _ab_rows(off_seconds, on_seconds, off_fixpoints, on_fixpoints,
                   len(recorder.events),
                   f"portal({n_cds}) async fan-out, "
                   f"{latency * 1000:.0f}ms per call, concurrency 8",
                   guard_cost)
    row["invocations_off"] = off_invocations
    row["invocations_on"] = on_invocations
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument("--artifacts", default=None,
                        help="directory for Chrome traces + JSONL event logs")
    args = parser.parse_args(argv)

    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    out = args.out or os.path.join(root, "BENCH_pr3.json")
    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)

    guard_cost = guard_cost_seconds(
        iterations=300_000 if args.smoke else 2_000_000)

    if args.smoke:
        sequential = bench_sequential(chain_n=10, repeats=3,
                                      guard_cost=guard_cost,
                                      artifacts=args.artifacts)
        fanout = bench_fanout(n_cds=6, latency=0.003, repeats=2,
                              guard_cost=guard_cost, artifacts=args.artifacts)
    else:
        sequential = bench_sequential(chain_n=24, repeats=5,
                                      guard_cost=guard_cost,
                                      artifacts=args.artifacts)
        fanout = bench_fanout(n_cds=16, latency=0.005, repeats=3,
                              guard_cost=guard_cost, artifacts=args.artifacts)

    scenarios = {
        "e4_tracing_overhead": sequential,
        "fanout_tracing_overhead": fanout,
    }
    write_bench_json(out, scenarios)

    failures = []
    for name, row in scenarios.items():
        print(f"  {name}: off {row['tracing_off_seconds_median']}s, "
              f"on {row['tracing_on_seconds_median']}s "
              f"({row['events']} events, "
              f"{row['events_per_second']}/s on), "
              f"estimated off-overhead "
              f"{row['estimated_off_overhead_pct']}%")
        if not row["within_budget"]:
            failures.append(
                f"{name}: estimated off-overhead "
                f"{row['estimated_off_overhead_pct']}% exceeds "
                f"{OVERHEAD_BUDGET_PCT}%")
        if not row["outcomes_match"]:
            failures.append(f"{name}: traced and untraced runs disagree "
                            "(sequential: step counts; fan-out: fixpoints)")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
