"""Checkpoint/resume bundles, graft-log replay, and the kernel refactor.

Exercises the transactional graft log and JSONL checkpoint bundles end to
end: roundtrip, mid-run resume by either engine (Theorem 2.1 makes
cross-engine resumption sound), replay validation against the seed
snapshot, the ``perf.flags.graft_log`` off switch (PR 4 behaviour), the
shared-forest ``constant_service`` fast path, and the deprecated result
aliases.
"""

from __future__ import annotations

import base64
import json

import pytest

from paxml import obs, perf
from paxml.kernel.graft import decode_batch, encode_batch
from paxml.kernel import (
    BundleError,
    EvaluationKernel,
    ReplayDivergence,
    RunResult,
    RunStatus,
    load_bundle,
    replay_documents,
    resume,
)
from paxml.obs import events as obs_events
from paxml.runtime import AsyncRuntime, RuntimeConfig, RuntimeResult, RuntimeStatus
from paxml.system import (
    AXMLSystem,
    RewriteResult,
    RewritingEngine,
    Status,
    constant_service,
    materialize,
)
from paxml.tree import Forest, parse_tree
from paxml.tree.node import current_stamp
from paxml.workloads import portal_system


@pytest.fixture(autouse=True)
def _clean_perf():
    perf.flags.set_all(True)
    perf.stats.reset()
    yield
    perf.flags.set_all(True)
    perf.stats.reset()


def build_workload(seed: int = 3) -> AXMLSystem:
    """A portal system whose fair run needs 11+ invocations — long enough
    to suspend at step 6 with real work left on the frontier."""
    return portal_system(6, materialized_fraction=0.3, n_irrelevant=2,
                         seed=seed)


def reference_fixpoint(seed: int = 3) -> AXMLSystem:
    system = build_workload(seed)
    outcome = materialize(system)
    assert outcome.terminated
    return system


def checkpoint_midway(path, seed: int = 3, steps: int = 6):
    """Run a sequential engine for ``steps`` invocations, then snapshot."""
    system = build_workload(seed)
    engine = RewritingEngine(system)
    partial = engine.run(max_steps=steps)
    assert partial.status is RunStatus.BUDGET_EXHAUSTED
    engine.checkpoint(str(path))
    return engine, partial


class TestBundleRoundtrip:
    def test_bundle_is_jsonl_with_header_first(self, tmp_path):
        bundle_path = tmp_path / "run.ckpt"
        checkpoint_midway(bundle_path)
        lines = bundle_path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "header"
        assert records[0]["engine"] == "sequential"
        assert records[0]["steps"] == 6
        kinds = {record["kind"] for record in records}
        assert {"header", "service", "document", "seed",
                "frontier", "grafts"} <= kinds
        packed = next(r for r in records if r["kind"] == "grafts")
        assert packed["count"] == len(
            decode_batch(base64.b64decode(packed["packed"])))

    def test_load_bundle_exposes_run_state(self, tmp_path):
        bundle_path = tmp_path / "run.ckpt"
        engine, partial = checkpoint_midway(bundle_path)
        bundle = load_bundle(str(bundle_path))
        assert bundle.steps == partial.steps == 6
        assert bundle.engine == "sequential"
        assert bundle.replayable
        assert len(bundle.grafts) == partial.productive
        assert set(bundle.documents) == set(engine.system.documents)

    def test_header_must_come_first(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text('{"kind":"document","name":"d","tree":{}}\n')
        with pytest.raises(BundleError):
            load_bundle(str(bad))

    def test_newer_format_rejected(self, tmp_path):
        bad = tmp_path / "future.ckpt"
        bad.write_text('{"kind":"header","format":999}\n')
        with pytest.raises(BundleError):
            load_bundle(str(bad))

    def test_checkpoint_restores_stamp_clock_past_bundle(self, tmp_path):
        bundle_path = tmp_path / "run.ckpt"
        checkpoint_midway(bundle_path)
        before = current_stamp()
        resume(str(bundle_path))
        assert current_stamp() >= before


class TestResume:
    @pytest.mark.parametrize("replay", [False, True],
                             ids=["snapshot", "replay"])
    def test_sequential_resume_reaches_the_fixpoint(self, tmp_path, replay):
        reference = reference_fixpoint()
        bundle_path = tmp_path / "run.ckpt"
        checkpoint_midway(bundle_path)

        engine = resume(str(bundle_path), replay=replay)
        assert isinstance(engine, RewritingEngine)
        assert engine.kernel.steps == 6
        assert engine.kernel.resumed_from == str(bundle_path)
        result = engine.run()
        assert result.status is RunStatus.TERMINATED
        assert result.resumed_from == str(bundle_path)
        assert result.steps > 6
        assert reference.equivalent_to(engine.system)

    def test_cross_engine_resume_sequential_to_async(self, tmp_path):
        reference = reference_fixpoint()
        bundle_path = tmp_path / "run.ckpt"
        checkpoint_midway(bundle_path)

        runtime = resume(str(bundle_path), engine="async",
                         config=RuntimeConfig(concurrency=4, seed=0))
        assert isinstance(runtime, AsyncRuntime)
        result = runtime.run()
        assert result.status is RunStatus.TERMINATED
        assert reference.equivalent_to(runtime.system)

    def test_cross_engine_resume_async_to_sequential(self, tmp_path):
        reference = reference_fixpoint()
        bundle_path = tmp_path / "run.ckpt"
        system = build_workload()
        runtime = AsyncRuntime(system,
                               config=RuntimeConfig(concurrency=3, seed=1,
                                                    max_invocations=5),
                               checkpoint_every=100,
                               checkpoint_path=str(bundle_path))
        partial = runtime.run()
        assert partial.status is RunStatus.BUDGET_EXHAUSTED
        assert partial.checkpoints >= 1  # the final snapshot at run end

        engine = resume(str(bundle_path), engine="sequential")
        assert isinstance(engine, RewritingEngine)
        result = engine.run()
        assert result.status is RunStatus.TERMINATED
        assert reference.equivalent_to(engine.system)

    def test_resume_of_a_finished_run_is_a_noop(self, tmp_path):
        bundle_path = tmp_path / "done.ckpt"
        system = build_workload()
        engine = RewritingEngine(system, checkpoint_every=1_000_000,
                                 checkpoint_path=str(bundle_path))
        finished = engine.run()
        assert finished.status is RunStatus.TERMINATED

        resumed = resume(str(bundle_path))
        result = resumed.run()
        assert result.status is RunStatus.TERMINATED
        assert result.productive == finished.productive
        assert system.equivalent_to(resumed.system)

    def test_periodic_checkpoints_resume_from_crash_point(self, tmp_path):
        """Kill the run mid-flight; the last periodic bundle finishes it."""
        reference = reference_fixpoint()
        bundle_path = tmp_path / "periodic.ckpt"
        system = build_workload()
        engine = RewritingEngine(system, checkpoint_every=2,
                                 checkpoint_path=str(bundle_path))

        class Crash(Exception):
            pass

        countdown = [7]

        def crash_soon(step):
            countdown[0] -= 1
            if countdown[0] == 0:
                raise Crash()

        engine.on_step = crash_soon
        with pytest.raises(Crash):
            engine.run()

        resumed = resume(str(bundle_path))
        assert resumed.kernel.steps == 6  # last multiple of checkpoint_every
        result = resumed.run()
        assert result.status is RunStatus.TERMINATED
        assert reference.equivalent_to(resumed.system)

    def test_resumed_run_checkpoints_again_and_chains(self, tmp_path):
        """checkpoint → resume → checkpoint → resume stays replayable."""
        reference = reference_fixpoint()
        first = tmp_path / "first.ckpt"
        checkpoint_midway(first, steps=4)

        middle = resume(str(first), replay=True)
        second = tmp_path / "second.ckpt"
        partial = middle.run(max_steps=8)
        assert partial.status is RunStatus.BUDGET_EXHAUSTED
        middle.checkpoint(str(second))

        final = resume(str(second), replay=True)  # replay from original seed
        result = final.run()
        assert result.status is RunStatus.TERMINATED
        assert reference.equivalent_to(final.system)

    def test_opaque_service_needs_override(self, tmp_path):
        system = AXMLSystem.build(
            documents={"d": "a{!c}"},
            services={"c": constant_service("c", Forest([parse_tree("k")]))})
        engine = RewritingEngine(system)
        engine.run(max_steps=0)
        bundle_path = tmp_path / "opaque.ckpt"
        engine.checkpoint(str(bundle_path))

        with pytest.raises(BundleError, match="opaque"):
            resume(str(bundle_path))

        override = constant_service("c", Forest([parse_tree("k")]))
        resumed = resume(str(bundle_path), services={"c": override})
        result = resumed.run()
        assert result.status is RunStatus.TERMINATED
        from paxml.tree import to_canonical
        assert "k" in to_canonical(resumed.system.documents["d"].root)


class TestReplay:
    def test_replay_documents_matches_snapshot(self, tmp_path):
        bundle_path = tmp_path / "run.ckpt"
        engine, _ = checkpoint_midway(bundle_path)
        bundle = load_bundle(str(bundle_path))
        replayed = replay_documents(bundle)
        for name, document in engine.system.documents.items():
            assert replayed[name].canonical_key() == document.canonical_key()

    def test_corrupted_log_raises_replay_divergence(self, tmp_path):
        bundle_path = tmp_path / "run.ckpt"
        checkpoint_midway(bundle_path)
        records = [json.loads(line) for line in
                   bundle_path.read_text().strip().splitlines()]
        for record in records:
            if record["kind"] == "grafts":
                grafts = decode_batch(base64.b64decode(record["packed"]))
                grafts[0].site = 999_999_999  # a node that never existed
                record["packed"] = base64.b64encode(
                    encode_batch(grafts)).decode("ascii")
                break
        bundle_path.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n")
        with pytest.raises(ReplayDivergence):
            resume(str(bundle_path), replay=True)

    def test_provenance_reemitted_on_resume(self, tmp_path):
        """A provenance index fed from the event stream survives the crash."""
        bundle_path = tmp_path / "run.ckpt"
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            checkpoint_midway(bundle_path)
        live_grafts = recorder.of_kind(obs_events.GRAFT_APPLIED)
        assert live_grafts

        resumed_recorder = obs.TraceRecorder()
        with obs.tracing(resumed_recorder):
            resume(str(bundle_path))
        replayed = resumed_recorder.of_kind(obs_events.GRAFT_APPLIED)
        assert [event.data["site"] for event in replayed] == [
            event.data["site"] for event in live_grafts]
        assert all(event.data["replayed"] for event in replayed)
        assert resumed_recorder.of_kind(obs_events.RUN_RESUMED)

    def test_checkpoint_event_emitted(self, tmp_path):
        bundle_path = tmp_path / "run.ckpt"
        recorder = obs.TraceRecorder()
        with obs.tracing(recorder):
            checkpoint_midway(bundle_path)
        saved = recorder.of_kind(obs_events.CHECKPOINT_SAVED)
        assert len(saved) == 1
        assert saved[0].data["path"] == str(bundle_path)
        assert saved[0].data["steps"] == 6


class TestGraftLogFlag:
    """perf.flags.graft_log=False restores PR 4 behaviour exactly."""

    def test_flag_off_run_matches_flag_on_run(self):
        on = build_workload()
        result_on = materialize(on)

        perf.flags.graft_log = False
        off = build_workload()
        result_off = materialize(off)

        assert result_off.status is result_on.status
        assert result_off.steps == result_on.steps
        assert result_off.productive == result_on.productive
        assert on.equivalent_to(off)

    def test_flag_off_retains_nothing(self):
        perf.flags.graft_log = False
        perf.stats.reset()
        system = build_workload()
        engine = RewritingEngine(system)
        result = engine.run()
        assert result.productive > 0
        assert len(engine.kernel.log) == 0
        assert engine.kernel._seed_wire is None
        assert perf.stats.graft_log_records == 0

    def test_flag_on_retains_every_productive_step(self):
        system = build_workload()
        engine = RewritingEngine(system)
        result = engine.run()
        assert len(engine.kernel.log) == result.productive
        assert perf.stats.graft_log_records == result.productive

    def test_flag_off_checkpoint_still_resumes_from_snapshot(self, tmp_path):
        reference = reference_fixpoint()
        perf.flags.graft_log = False
        bundle_path = tmp_path / "bare.ckpt"
        checkpoint_midway(bundle_path)

        bundle = load_bundle(str(bundle_path))
        assert not bundle.replayable
        with pytest.raises(BundleError):
            replay_documents(bundle)

        resumed = resume(str(bundle_path))
        result = resumed.run()
        assert result.status is RunStatus.TERMINATED
        assert reference.equivalent_to(resumed.system)


class TestConstantServiceSharing:
    """Satellite: constant_service shares one frozen forest across calls."""

    def test_calls_share_the_frozen_forest(self):
        service = constant_service("c", Forest([parse_tree("k{1, 1, 1}")]))
        first = service.evaluate({})
        second = service.evaluate({})
        assert first.trees[0] is second.trees[0]  # no per-call copy
        assert perf.stats.constant_calls_shared == 2

    def test_calls_allocate_no_nodes(self):
        service = constant_service("c", Forest([parse_tree("k{v}")]))
        service.evaluate({})  # warm anything lazy
        stamp = current_stamp()  # (peeking burns one stamp itself)
        for _ in range(50):
            service.evaluate({})
        # Zero Node allocations in 50 calls: only our own peek advanced it.
        assert current_stamp() == stamp + 1

    def test_sharing_is_safe_under_materialization(self):
        """Grafting copies answers, so the shared forest stays pristine."""
        forest = Forest([parse_tree("k{1}")])
        service = constant_service("c", forest)
        system = AXMLSystem.build(documents={"d": "a{!c}", "e": "b{!c}"},
                                  services={"c": service})
        result = materialize(system)
        assert result.status is RunStatus.TERMINATED
        frozen = service.evaluate({})
        assert frozen.canonical_keys() == forest.reduced().canonical_keys()


class TestDeprecatedAliases:
    def test_result_types_are_unified(self):
        assert Status is RunStatus
        assert RuntimeStatus is RunStatus
        assert RewriteResult is RunResult
        assert RuntimeResult is RunResult

    def test_status_wire_values_unchanged(self):
        assert RunStatus.TERMINATED.value == "terminated"
        assert RunStatus.STABILIZED.value == "stabilized"
        assert RunStatus.DEGRADED.value == "degraded"
        assert RunStatus.BUDGET_EXHAUSTED.value == "budget"
        assert RunStatus.DEADLINE_EXHAUSTED.value == "deadline"


class TestKernelDirect:
    def test_kernel_requires_system_or_sites(self):
        with pytest.raises(ValueError):
            EvaluationKernel()

    def test_checkpoint_without_documents_rejected(self, tmp_path):
        kernel = EvaluationKernel(sites=[])
        with pytest.raises(ValueError):
            kernel.checkpoint(str(tmp_path / "x.ckpt"))

    def test_read_stamp_tracks_what_the_call_reads(self):
        """A call's read stamp moves with the documents its service reads
        and with nothing else; without a system it is ``productive``."""
        system = build_workload()
        engine = RewritingEngine(system)
        engine.run()
        kernel = engine.kernel
        calls = {node.marking.name: node for _, node in system.call_sites()}
        rating, promo = calls["GetRating"], calls["FreeMusicDB"]
        ratings = system.documents["ratingsdb"]
        assert kernel.read_stamp(promo) == \
            system.documents["musicdb"].root.version
        before = kernel.read_stamp(rating), kernel.read_stamp(promo)
        kernel.apply_external(ratings, ratings.root,
                              [parse_tree('entry{song{"x"}, stars{"1"}}')])
        assert kernel.read_stamp(rating) == ratings.root.version > before[0]
        assert kernel.read_stamp(promo) == before[1]
        bare = EvaluationKernel(sites=[])
        assert bare.read_stamp(rating) == bare.productive == 0
