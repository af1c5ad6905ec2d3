"""Confluence as an executable oracle for the concurrent runtime.

Theorem 2.1 (via Lemma 2.1) says every fair invocation order of a
monotone system converges to the same limit ``[I]``.  The concurrent
engine realizes one particular family of orders — whatever the event
loop interleaves under a bounded concurrency window — so its result must
be subsumption-equivalent to the sequential ``rewrite_to_fixpoint``
result on *every* terminating positive system.  This file checks that on
50+ randomized positive systems from three generator families, clean and
under deterministic fault injection (drops, transient errors, delays,
duplicates on early attempts).

The fault runs also assert the no-silent-loss accounting: every injected
failing fault produced a failed attempt, and every failed attempt was
either retried or reported (here: retried, since the injector only
faults attempts the retry budget can outlast).
"""

from __future__ import annotations

import random

import pytest

from paxml.kernel import resume
from paxml.runtime import (
    AsyncRuntime,
    FaultInjector,
    RuntimeConfig,
    RuntimeStatus,
)
from paxml.system import RewritingEngine, materialize
from paxml.workloads import (
    portal_system,
    random_acyclic_system,
    random_edges,
    tc_system,
)

# 52 randomized positive systems across three shapes: layered acyclic
# (depth / fan-out variety), transitive closure over random relations
# (heavy cross-site data flow), and the jazz portal (call-in-answer
# nesting: FreeMusicDB answers embed new GetRating calls).
CASES = (
    [("acyclic", seed) for seed in range(20)]
    + [("tc", seed) for seed in range(16)]
    + [("portal", seed) for seed in range(16)]
)
assert len(CASES) >= 50


def build_system(family: str, seed: int):
    if family == "acyclic":
        return random_acyclic_system(2 + seed % 3, seed=seed, values_per_doc=3)
    if family == "tc":
        return tc_system(random_edges(5, 6 + seed % 4, seed=seed))
    return portal_system(5 + seed % 3, materialized_fraction=0.4,
                         n_irrelevant=2, seed=seed)


def case_id(case) -> str:
    return f"{case[0]}-{case[1]}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_concurrent_limit_equals_sequential_fixpoint(case):
    family, seed = case
    sequential = build_system(family, seed)
    outcome = materialize(sequential)
    assert outcome.terminated, "generator produced a divergent system"

    concurrent = build_system(family, seed)
    config = RuntimeConfig(concurrency=4 + seed % 5, seed=seed)
    result = AsyncRuntime(concurrent, config=config).run()
    assert result.status is RuntimeStatus.TERMINATED
    assert sequential.equivalent_to(concurrent), (
        f"concurrent limit diverged from [I] on {family}-{seed}"
    )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_concurrent_limit_survives_fault_injection(case):
    family, seed = case
    sequential = build_system(family, seed)
    materialize(sequential)

    concurrent = build_system(family, seed)
    # Faults hit only attempts 1–2; with max_attempts=5 every call is
    # guaranteed two clean tries, so the run must fully converge.  No call
    # timeout: a drop then fails its attempt at once, and no deadline can
    # expire while the loop runs other calls' synchronous evaluation, so
    # every failed attempt is an injected one (the timed drop path is
    # covered in test_runtime_async.py).
    injector = FaultInjector(seed=seed, drop_rate=0.15, error_rate=0.2,
                             delay_rate=0.15, duplicate_rate=0.15,
                             delay_seconds=0.002, max_attempt=2)
    config = RuntimeConfig(concurrency=6, seed=seed, call_timeout=None,
                           max_attempts=5, backoff_base=0.001,
                           backoff_max=0.01, breaker_threshold=10_000)
    result = AsyncRuntime(concurrent, config=config, injector=injector).run()

    assert result.status is RuntimeStatus.TERMINATED
    assert not result.failures
    assert sequential.equivalent_to(concurrent), (
        f"fault-injected limit diverged from [I] on {family}-{seed}"
    )
    metrics = result.metrics
    # No injected fault is silently dropped: every failing fault (drop or
    # transient error) failed exactly one attempt, and every failed
    # attempt was retried (nothing exhausted, nothing unaccounted).
    assert metrics.attempts_failed == injector.injected_failures
    assert metrics.attempts_failed == metrics.retries + metrics.exhausted
    assert metrics.exhausted == 0


# ----------------------------------------------------------------------
# Checkpoint/resume as a fair continuation (paxml.kernel)
# ----------------------------------------------------------------------
#
# Theorem 2.1 again, now across a process boundary: the state after any
# fair prefix of invocations, snapshotted to a bundle and resumed by ANY
# fair continuation — the same engine, the other engine, or a graft-log
# replay — must still converge to the sequential ``[I]``.  The cut point
# is a per-case pseudo-random step, so over the 52 cases the suspension
# lands everywhere from the first invocation to just before fixpoint.


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_checkpoint_at_random_step_preserves_the_limit(case, tmp_path):
    family, seed = case
    sequential = build_system(family, seed)
    outcome = materialize(sequential)
    assert outcome.terminated

    cut = random.Random(seed).randrange(1, max(2, outcome.steps))
    suspended = build_system(family, seed)
    engine = RewritingEngine(suspended)
    engine.run(max_steps=cut)
    bundle = tmp_path / "cut.ckpt"
    engine.checkpoint(str(bundle))

    # Rotate the continuation: replayed-sequential, plain-sequential, or
    # concurrent — all three are fair, so all three must agree with [I].
    mode = seed % 3
    if mode == 0:
        resumed = resume(str(bundle), replay=True)
        result = resumed.run()
    elif mode == 1:
        resumed = resume(str(bundle))
        result = resumed.run()
    else:
        resumed = resume(str(bundle), engine="async",
                         config=RuntimeConfig(concurrency=3 + seed % 3,
                                              seed=seed))
        result = resumed.run()
    assert result.status is RuntimeStatus.TERMINATED
    assert result.resumed_from == str(bundle)
    assert sequential.equivalent_to(resumed.system), (
        f"resumed (mode {mode}) limit diverged from [I] on {family}-{seed} "
        f"cut at step {cut}"
    )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_crash_resume_survives_fault_injection(case, tmp_path):
    """Crash a fault-injected concurrent run, finish from its last bundle.

    The first run is cut by an invocation budget (standing in for the
    crash — in-flight outcomes are discarded exactly as ``kill -9``
    would); periodic checkpointing means the bundle may be several steps
    behind the crash point.  The continuation — again under fault
    injection — must still reach ``[I]``.
    """
    family, seed = case
    sequential = build_system(family, seed)
    materialize(sequential)

    concurrent = build_system(family, seed)
    injector = FaultInjector(seed=seed, drop_rate=0.15, error_rate=0.2,
                             delay_rate=0.1, duplicate_rate=0.15,
                             delay_seconds=0.002, max_attempt=2)
    config = RuntimeConfig(concurrency=4, seed=seed, call_timeout=0.05,
                           max_attempts=5, backoff_base=0.001,
                           backoff_max=0.01, breaker_threshold=10_000,
                           max_invocations=2 + seed % 5)
    bundle = tmp_path / "crash.ckpt"
    AsyncRuntime(concurrent, config=config, injector=injector,
                 checkpoint_every=2, checkpoint_path=str(bundle)).run()

    retry_config = RuntimeConfig(concurrency=4, seed=seed + 1,
                                 call_timeout=0.05, max_attempts=5,
                                 backoff_base=0.001, backoff_max=0.01,
                                 breaker_threshold=10_000)
    if seed % 2:
        resumed = resume(str(bundle), engine="sequential")
        result = resumed.run()
    else:
        resumed = resume(str(bundle), engine="async", config=retry_config,
                         injector=FaultInjector(seed=seed + 1, drop_rate=0.15,
                                                error_rate=0.2,
                                                duplicate_rate=0.15,
                                                max_attempt=2))
        result = resumed.run()
    assert result.status is RuntimeStatus.TERMINATED
    assert not result.failures
    assert sequential.equivalent_to(resumed.system), (
        f"crash-resumed limit diverged from [I] on {family}-{seed}"
    )


# ----------------------------------------------------------------------
# Sharded multi-process runs (paxml.shard)
# ----------------------------------------------------------------------
#
# Theorem 2.1 a third time, now across *process* boundaries: a sharded
# run realizes yet another family of fair orders — each worker drives
# its owned sites, replicas converge through graft-log replication in
# bulk-synchronous rounds — so the merged forest must equal the
# sequential ``[I]`` for every shard count, under fault injection, and
# across a worker crash resumed from the coordinator's shipped history.
# Every case also asserts replay-validation: each worker's final replica
# must be reproducible from its seed plus its (shard-tagged) graft log.

from paxml.shard import run_sharded  # noqa: E402

# A cross-family slice: sharded runs cost a process fleet each, so the
# oracle runs a representative subset rather than all 52 cases.
SHARD_CASES = [("acyclic", 3), ("acyclic", 11), ("tc", 5), ("portal", 2),
               ("portal", 7)]


@pytest.mark.parametrize("nshards", [1, 2, 4])
@pytest.mark.parametrize("case", SHARD_CASES, ids=case_id)
def test_sharded_limit_equals_sequential_fixpoint(case, nshards):
    family, seed = case
    sequential = build_system(family, seed)
    materialize(sequential)

    sharded = build_system(family, seed)
    result = run_sharded(sharded, nshards,
                         config={"concurrency": 4, "seed": seed})
    assert not result.failures
    assert result.replay_ok, result.replay_errors
    assert result.equivalent_to(sequential), (
        f"{nshards}-shard limit diverged from [I] on {family}-{seed}"
    )


@pytest.mark.parametrize("case", SHARD_CASES, ids=case_id)
def test_sharded_limit_survives_fault_injection(case):
    family, seed = case
    sequential = build_system(family, seed)
    materialize(sequential)

    sharded = build_system(family, seed)
    result = run_sharded(
        sharded, 2,
        injector={"seed": seed, "drop_rate": 0.15, "error_rate": 0.2,
                  "duplicate_rate": 0.15, "max_attempt": 2},
        config={"concurrency": 4, "seed": seed, "call_timeout": 0.05,
                "max_attempts": 5, "backoff_base": 0.001,
                "backoff_max": 0.01, "breaker_threshold": 10_000})
    assert not result.failures
    assert result.replay_ok, result.replay_errors
    assert result.equivalent_to(sequential), (
        f"fault-injected sharded limit diverged from [I] on {family}-{seed}"
    )


@pytest.mark.parametrize("case", SHARD_CASES, ids=case_id)
def test_sharded_run_survives_worker_crash(case):
    """Kill worker 1 before round 1; the respawn must resume from the
    shipped-log prefix and the fleet still reach ``[I]``."""
    family, seed = case
    sequential = build_system(family, seed)
    materialize(sequential)

    sharded = build_system(family, seed)
    result = run_sharded(sharded, 2, crash_round=1, crash_shard=1,
                         config={"concurrency": 4, "seed": seed})
    assert not result.failures
    assert result.replay_ok, result.replay_errors
    # Fixpoints found in round 0 never reach the injection point; every
    # case that goes a second round must actually have crashed.
    assert result.rounds == 1 or result.respawns == 1
    assert result.equivalent_to(sequential), (
        f"crash-resumed sharded limit diverged from [I] on {family}-{seed}"
    )


@pytest.mark.parametrize("case", SHARD_CASES[:2], ids=case_id)
def test_sharded_sequential_engine_matches(case):
    family, seed = case
    sequential = build_system(family, seed)
    materialize(sequential)

    sharded = build_system(family, seed)
    result = run_sharded(sharded, 2, engine="sequential")
    assert result.replay_ok, result.replay_errors
    assert result.equivalent_to(sequential)
