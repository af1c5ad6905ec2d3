"""Unit tests for the serve layer: sessions, admission, scoped metrics.

Covers the pieces the end-to-end suites exercise only implicitly:
per-tenant metric label scoping (and its clobber guard), admission
round-robin and budget arithmetic, injection validation, point-in-time
reads, and the suspend/resume lifecycle including subscription
continuity across the gap.
"""

from __future__ import annotations

import asyncio

import pytest

from paxml import perf
from paxml.obs.metrics import Registry
from paxml.runtime import RuntimeConfig
from paxml.serve import AdmissionController, TenantBudget, TenantSession
from paxml.serve.session import SessionError
from paxml.system import materialize
from paxml.tree import child_buckets
from paxml.tree.parser import parse_tree
from paxml.tree.serializer import to_canonical
from paxml.tree.store import intern_marking, subtree_bits
from paxml.workloads import portal_system, random_edges, tc_system


def drive(session):
    async def _run():
        while session.has_work():
            await session.run_slice(100_000)
    asyncio.run(_run())


# ----------------------------------------------------------------------
# scoped metrics (satellite: per-tenant labels without clobbering)
# ----------------------------------------------------------------------


class TestScopedMetrics:
    def test_two_tenants_share_one_family(self):
        registry = Registry()
        for name in ("alpha", "beta"):
            session = TenantSession(name, tc_system([(1, 2), (2, 3)]),
                                    registry=registry)
            drive(session)
        collected = registry.collect()
        samples = collected["paxml_grafts_applied_total"]["samples"]
        by_tenant = {tuple(labels.items()): value
                     for labels, value in
                     ((s["labels"], s["value"]) for s in samples)}
        assert by_tenant[(("tenant", "alpha"),)] > 0
        assert by_tenant[(("tenant", "beta"),)] > 0

    def test_scoped_registration_does_not_clobber(self):
        registry = Registry()
        plain = registry.counter("requests_total", labelnames=("route",))
        scoped = registry.scoped(tenant="t0")
        # Same name, tenant-scoped: distinct label schema must raise, not
        # silently rebind the existing family.
        with pytest.raises(ValueError):
            scoped.counter("requests_total", labelnames=("route",))
        plain.labels(route="/x").inc()

    def test_slice_metrics_are_deltas_not_cumulative(self):
        registry = Registry()
        session = TenantSession("gamma", tc_system(random_edges(4, 5, seed=3)),
                                registry=registry)
        drive(session)     # many slices, each republishing
        session.publish_metrics()
        samples = registry.collect()["paxml_grafts_applied_total"]["samples"]
        [value] = [s["value"] for s in samples]
        assert value == session.kernel.productive


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------


class TestAdmission:
    def test_round_robin_rotation(self):
        control = AdmissionController()
        for name in ("a", "b", "c"):
            control.register(name)
        picks = [control.next_tenant(lambda t: True) for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_rotation_skips_unrunnable(self):
        control = AdmissionController()
        for name in ("a", "b", "c"):
            control.register(name)
        picks = [control.next_tenant(lambda t: t != "b") for _ in range(4)]
        assert picks == ["a", "c", "a", "c"]
        assert control.next_tenant(lambda t: False) is None

    def test_total_budget_caps_the_lease(self):
        control = AdmissionController()
        control.register("a", TenantBudget(slice_attempts=10,
                                           total_attempts=25))
        assert control.lease("a") == 10
        control.settle("a", 10)
        control.settle("a", 10)
        assert control.lease("a") == 5
        control.settle("a", 5)
        assert control.lease("a") == 0
        assert control.exhausted("a")
        assert control.next_tenant(lambda t: True) is None

    def test_forget_keeps_rotation_sane(self):
        control = AdmissionController()
        for name in ("a", "b", "c"):
            control.register(name)
        assert control.next_tenant(lambda t: True) == "a"
        control.forget("a")
        picks = [control.next_tenant(lambda t: True) for _ in range(4)]
        assert picks == ["b", "c", "b", "c"]


# ----------------------------------------------------------------------
# session operations
# ----------------------------------------------------------------------


class TestSessionOps:
    def test_inject_rejects_undeclared_service(self):
        session = TenantSession("t", tc_system([(1, 2)]))
        with pytest.raises(SessionError, match="undeclared"):
            session.inject("d0", [parse_tree("x{!nosuch}")])

    def test_inject_rejects_unknown_targets(self):
        session = TenantSession("t", tc_system([(1, 2)]))
        with pytest.raises(SessionError, match="no document"):
            session.inject("nope", [parse_tree("x")])
        with pytest.raises(SessionError, match="no node uid"):
            session.inject("d0", [parse_tree("x")], parent_uid=10**9)

    def test_injected_graft_is_logged_and_replayable(self):
        session = TenantSession("t", tc_system([(1, 2), (2, 3)]))
        drive(session)
        session.inject("d0", [parse_tree("t{c0{3}, c1{4}}")])
        drive(session)
        # The external record went through the same log as engine grafts:
        # a prefix replay reconstructs the post-injection state exactly.
        final = session.read("d0")
        assert "c1{4}" in final["tree"]
        replayed = session.read_at("d0", final["grafts"])
        assert replayed["tree"] == final["tree"]

    def test_stats_show_woken_and_kept_tried_sites(self):
        """An injected rating wakes the four ``!GetRating`` sites, which
        read ``ratingsdb``; the three promos, which read only
        ``musicdb``, stay asleep."""
        session = TenantSession("t", portal_system(
            4, materialized_fraction=0.0, n_irrelevant=3, seed=1))
        drive(session)
        before = session.stats()["scheduler"]
        assert session.inject(
            "ratingsdb", [parse_tree('entry{song{"x"}, stars{"2"}}')]) == 1
        after = session.stats()["scheduler"]
        assert after["tried_woken"] - before["tried_woken"] == 4
        assert after["tried_kept"] - before["tried_kept"] == 3

    def test_read_at_walks_the_prefix_lattice(self):
        session = TenantSession("t", tc_system(random_edges(4, 5, seed=11)))
        drive(session)
        total = session.read("d1")["grafts"]
        assert total > 0
        sizes = [len(session.read_at("d1", k)["tree"])
                 for k in range(total + 1)]
        # Monotone growth: every later prefix includes the earlier ones.
        assert sizes == sorted(sizes)
        assert session.read_at("d1", total)["tree"] == \
            session.read("d1")["tree"]
        with pytest.raises(SessionError, match="outside the readable"):
            session.read_at("d1", total + 1)


# ----------------------------------------------------------------------
# replay isolation: point-in-time reads between live grafts
# ----------------------------------------------------------------------


class TestReplayIsolation:
    """``read_at`` replays copies that reuse the live uids.  Interleaved
    with further live grafts, the copies must never leak into the live
    tenant: not into its child-index entries, not into its subtree
    bits, not into later historical reads, and not into its limit."""

    # A cycle closes as the edges arrive, so most closure rows gain a
    # mirrored row later: replay then compares copies of earlier rows
    # (building their index entries) while inserting the mirrors.
    SEED_EDGES = [(0, 1), (1, 2), (2, 3)]
    INJECTED = [(3, 0), (1, 4), (4, 5), (5, 1), (2, 6)]
    EDGES = SEED_EDGES + INJECTED

    @staticmethod
    def _buckets_hold_live_children(nodes):
        for node in nodes:
            live = {id(child) for child in node.children}
            indexed = {id(child) for bucket in child_buckets(node).values()
                       for child in bucket}
            assert indexed == live, to_canonical(node)

    @staticmethod
    def _bits_match_oracle(nodes):
        for node in nodes:
            oracle = 0
            for sub in node.iter_nodes():
                oracle |= 1 << intern_marking(sub.marking)
            assert subtree_bits(node) == oracle, to_canonical(node)

    async def _script(self, session, check=None):
        """Inject the edges one by one, each also tagging a d1 row (a
        graft below the root, where replay builds index entries of its
        own); ``check`` runs between steps."""
        for step, (a, b) in enumerate(self.INJECTED):
            await session.run_slice(2)
            if check is not None:
                check()
            session.inject("d0", [parse_tree(f"t{{c0{{{a}}}, c1{{{b}}}}}")])
            x, y = self.EDGES[step]
            row = f"t{{c0{{{x}}}, c1{{{y}}}}}"
            target = next((node for node in
                           session.system.documents["d1"].root.children
                           if to_canonical(node) == row), None)
            if target is not None:
                session.inject("d1", [parse_tree(f"tag{{{step}}}")],
                               parent_uid=target.uid)
            if check is not None:
                check()
        while session.has_work():
            await session.run_slice(2)
            if check is not None:
                check()

    @pytest.mark.parametrize("sim_cache", [True, False],
                             ids=["sim-cache", "no-sim-cache"])
    def test_reads_at_interleaved_with_live_grafts(self, sim_cache,
                                                   monkeypatch):
        # Without the persistent subsumption cache, replay's antichain
        # inserts reach the child index for the copies they compare.
        monkeypatch.setattr(perf.flags, "subsumption_cache", sim_cache)
        perf.clear_caches()
        session = TenantSession("t", tc_system(self.SEED_EDGES))
        documents = session.system.documents
        history = {}

        def check():
            # Every live entry first: live grafts since the last replays
            # must not have patched (or read) an entry a copy built.
            self._buckets_hold_live_children(
                node for document in documents.values()
                for node in document.root.iter_nodes())
            for name in ("d0", "d1"):
                snapshot = session.read(name)
                history[(name, snapshot["grafts"])] = snapshot["tree"]
            for (name, grafts), tree in sorted(history.items()):
                assert session.read_at(name, grafts)["tree"] == tree
                self._buckets_hold_live_children(
                    document.root for document in documents.values())
                self._bits_match_oracle(
                    node for document in documents.values()
                    for node in document.root.iter_nodes())

        asyncio.run(self._script(session, check))
        assert len({grafts for _name, grafts in history}) > len(self.INJECTED)

        uninterrupted = TenantSession("u", tc_system(self.SEED_EDGES))
        asyncio.run(self._script(uninterrupted))
        for name, document in session.system.documents.items():
            assert document.canonical_key() == \
                uninterrupted.system.documents[name].canonical_key()


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_suspend_resume_preserves_the_limit(self, tmp_path):
        reference = tc_system(random_edges(4, 6, seed=5))
        materialize(reference)

        session = TenantSession("t", tc_system(random_edges(4, 6, seed=5)),
                                config=RuntimeConfig(concurrency=3))

        async def partial():
            await session.run_slice(3)
        asyncio.run(partial())

        bundle = tmp_path / "t.bundle.jsonl"
        session.suspend(str(bundle))
        assert session.suspended
        with pytest.raises(SessionError, match="suspended"):
            asyncio.run(session.run_slice(10))

        session.resume()
        drive(session)
        assert reference.equivalent_to(session.system)

    def test_subscription_survives_suspension_without_duplicates(
            self, tmp_path):
        session = TenantSession("t", tc_system([(1, 2), (2, 3)]))
        sub = session.subscribe("p{*T} :- d1/r{*T}")
        drive(session)
        streamed = list(sub.initial) + sub.drain()
        assert streamed

        session.suspend(str(tmp_path / "t.bundle.jsonl"))
        session.resume()
        # Nothing changed while down: the re-primed evaluator re-derives
        # every answer, and the seen-filter must swallow all of them.
        assert sub.drain() == []

        session.inject("d0", [parse_tree("t{c0{3}, c1{4}}")])
        drive(session)
        fresh = sub.drain()
        assert fresh and not set(fresh) & set(streamed)

    def test_restart_from_bundle_path(self, tmp_path):
        first = TenantSession("t", tc_system([(1, 2), (2, 3)]))
        drive(first)
        tree = first.read("d1")["tree"]
        bundle = tmp_path / "t.bundle.jsonl"
        first.suspend(str(bundle))

        # A cold start (fresh process in spirit): system=None + bundle.
        revived = TenantSession("t", None, bundle_path=str(bundle))
        assert revived.suspended and not revived.has_work()
        revived.resume()
        assert revived.read("d1")["tree"] == tree
