"""Unit tests for the shared two-queue fair scheduler (paxml.kernel).

Covers the properties both engines rely on: round-robin fairness, the
two promotion orders after a productive step, the read-stamped wake (a
graft wakes only the tried sites whose reads grew), park/unpark ordering
for circuit-breaker cooldowns, the attempt budget, suppression, and the
frontier snapshot/restore roundtrip.
"""

import pytest

from paxml import AXMLSystem, perf
from paxml.kernel import CallScheduler, EvaluationKernel, POLICIES
from paxml.tree.document import Document
from paxml.tree.node import fun, label, val
from paxml.tree.parser import parse_tree
from paxml.tree.reduction import reduce_in_place


def make_sites(count, name="d"):
    """One document with ``count`` sibling call sites, plus the sites."""
    calls = [fun(f"s{i}") for i in range(count)]
    document = Document(name, label("r", *calls))
    return document, [(document, node) for document, node in
                      ((document, call) for call in calls)]


class TestEnqueueAndPop:
    def test_round_robin_pops_in_fifo_order(self):
        document, sites = make_sites(4)
        scheduler = CallScheduler("round_robin")
        for _, node in sites:
            assert scheduler.enqueue(document, node)
        popped = [scheduler.pop() for _ in range(4)]
        assert popped == sites

    def test_lifo_pops_newest_first(self):
        document, sites = make_sites(3)
        scheduler = CallScheduler("lifo")
        for _, node in sites:
            scheduler.enqueue(document, node)
        popped = [scheduler.pop() for _ in range(3)]
        assert popped == list(reversed(sites))

    def test_random_is_seed_deterministic_and_complete(self):
        document, sites = make_sites(6)
        orders = []
        for _ in range(2):
            scheduler = CallScheduler("random", seed=7)
            for _, node in sites:
                scheduler.enqueue(document, node)
            orders.append([scheduler.pop() for _ in range(6)])
        assert orders[0] == orders[1]
        assert sorted(n.uid for _, n in orders[0]) == sorted(
            n.uid for _, n in sites)

    def test_duplicate_enqueue_is_dropped(self):
        document, sites = make_sites(1)
        scheduler = CallScheduler()
        assert scheduler.enqueue(*sites[0])
        assert not scheduler.enqueue(*sites[0])
        assert scheduler.fresh_count() == 1

    def test_suppressed_sites_never_enter(self):
        document, sites = make_sites(3)
        scheduler = CallScheduler(suppressed=[sites[1][1]])
        for site in sites:
            scheduler.enqueue(*site)
        assert scheduler.fresh_count() == 2
        popped = {node.uid for _, node in
                  (scheduler.pop() for _ in range(2))}
        assert sites[1][1].uid not in popped

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            CallScheduler("unfair")


class TestFairness:
    @pytest.mark.parametrize("policy", ["round_robin", "random"])
    def test_every_site_is_eventually_popped(self, policy):
        """Fair policies drain each site at least once per full cycle:
        popping n times from an n-site queue (requeueing each pop) must
        touch every site."""
        document, sites = make_sites(8)
        scheduler = CallScheduler(policy, seed=3)
        for site in sites:
            scheduler.enqueue(*site)
        seen = set()
        for _ in range(len(sites)):
            site = scheduler.pop()
            seen.add(site[1].uid)
            scheduler.mark_tried(site)
        assert seen == {node.uid for _, node in sites}

    def test_termination_certificate_is_empty_fresh(self):
        document, sites = make_sites(2)
        scheduler = CallScheduler()
        for site in sites:
            scheduler.enqueue(*site)
        while scheduler.has_fresh():
            scheduler.mark_tried(scheduler.pop())
        assert not scheduler.has_fresh()
        assert scheduler.tried_count() == 2


class TestPromotion:
    def test_promote_front_puts_tried_before_fresh(self):
        """The sequential engine's order: after a productive step, proven
        no-ops re-enter AHEAD of the untried remainder."""
        document, sites = make_sites(3)
        scheduler = CallScheduler(promote_front=True)
        for site in sites:
            scheduler.enqueue(*site)
        first = scheduler.pop()          # sites[0]
        scheduler.mark_tried(first)
        scheduler.promote_tried()        # productive step elsewhere
        assert scheduler.pop() == first  # tried re-enters at the front

    def test_promote_back_puts_tried_after_fresh(self):
        """The async runtime's order: proven no-ops re-enter BEHIND the
        untried remainder."""
        document, sites = make_sites(3)
        scheduler = CallScheduler(promote_front=False)
        for site in sites:
            scheduler.enqueue(*site)
        first = scheduler.pop()
        scheduler.mark_tried(first)
        scheduler.promote_tried()
        assert scheduler.pop() == sites[1]
        assert scheduler.pop() == sites[2]
        assert scheduler.pop() == first  # tried re-enters at the back

    def test_promotion_without_tried_is_noop(self):
        document, sites = make_sites(2)
        scheduler = CallScheduler()
        for site in sites:
            scheduler.enqueue(*site)
        scheduler.promote_tried()
        assert scheduler.pop() == sites[0]


class TestReadStampedWake:
    """A productive graft into a document wakes only the tried sites
    whose read stamp moved; every other no-op verdict stands."""

    @staticmethod
    def all_tried(documents, services):
        system = AXMLSystem.build(documents=documents, services=services)
        kernel = EvaluationKernel(system)
        scheduler = kernel.scheduler
        while scheduler.has_fresh():
            scheduler.mark_tried(scheduler.pop())
        return system, kernel

    @staticmethod
    def calls(system, document):
        return {node.marking.name: node for node
                in system.documents[document].root.function_nodes()}

    @staticmethod
    def inject(kernel, system, document, tree, parent=None):
        doc = system.documents[document]
        return kernel.apply_external(doc, parent or doc.root,
                                     [parse_tree(tree)])

    def test_graft_into_an_unread_document_wakes_nothing(self):
        system, kernel = self.all_tried(
            {"a": "r{!A, !B}", "b": "r{item{1}}", "c": "r{}"},
            {"A": "out{$v} :- b/r{item{$v}}", "B": "out{1} :- "})
        scheduler = kernel.scheduler
        before = perf.stats.tried_woken, perf.stats.tried_kept
        assert self.inject(kernel, system, "c", "item{2}")
        assert scheduler.tried_count() == 2
        assert not scheduler.has_fresh()
        assert (scheduler.tried_woken, scheduler.tried_kept) == (0, 2)
        assert (perf.stats.tried_woken - before[0],
                perf.stats.tried_kept - before[1]) == (0, 2)
        # A graft into the document !A reads wakes !A alone.
        assert self.inject(kernel, system, "b", "item{2}")
        assert scheduler.pop()[1] is self.calls(system, "a")["A"]
        assert not scheduler.has_fresh()
        assert (scheduler.tried_woken, scheduler.tried_kept) == (1, 3)

    def test_input_reader_wakes_only_when_its_call_subtree_grows(self):
        system, kernel = self.all_tried(
            {"d": "r{!In{p}, q}"},
            {"In": "out{$v} :- input/input{p{$v}}"})
        scheduler = kernel.scheduler
        root = system.documents["d"].root
        call = self.calls(system, "d")["In"]
        q = next(child for child in root.children if not child.is_function)
        assert self.inject(kernel, system, "d", "x", parent=q)
        assert self.inject(kernel, system, "d", "y")
        assert not scheduler.has_fresh()
        assert self.inject(kernel, system, "d", "z",
                           parent=call.children[0])
        assert scheduler.pop()[1] is call

    def test_context_reader_wakes_only_when_its_parent_grows(self):
        system, kernel = self.all_tried(
            {"d": "r{cd{!Ctx, t}, cd{u}}"},
            {"Ctx": "seen{$v} :- context/cd{t{$v}}"})
        scheduler = kernel.scheduler
        home, other = system.documents["d"].root.children
        call = self.calls(system, "d")["Ctx"]
        assert self.inject(kernel, system, "d", "v", parent=other)
        assert self.inject(kernel, system, "d", "w")
        assert not scheduler.has_fresh()
        t = next(child for child in home.children if not child.is_function)
        assert self.inject(kernel, system, "d", "1", parent=t)
        assert scheduler.pop()[1] is call

    def test_equivalence_only_prune_wakes_nothing(self):
        system, kernel = self.all_tried(
            {"a": "r{!A}", "b": "r{item{1}}"},
            {"A": "out{$v} :- b/r{item{$v}}"})
        scheduler = kernel.scheduler
        call = self.calls(system, "a")["A"]
        root = system.documents["b"].root
        stamp = kernel.read_stamp(call)
        # A duplicate sibling slipped in without a version bump; pruning
        # it is equivalence-preserving and must not move the stamp.
        root.children.append(label("item", val(1)))
        assert reduce_in_place(root)
        assert len(root.children) == 1
        assert kernel.read_stamp(call) == stamp
        assert scheduler.wake_tried("b") == 0
        assert scheduler.tried_count() == 1

    def test_kernel_without_a_system_wakes_everything(self):
        document = Document("d", parse_tree("r{!A, !B}"))
        other = Document("e", parse_tree("r{}"))
        sites = [(document, node) for node in document.root.children]
        kernel = EvaluationKernel(sites=sites)
        scheduler = kernel.scheduler
        assert scheduler.read_sets is None
        while scheduler.has_fresh():
            scheduler.mark_tried(scheduler.pop())
        kernel.apply_external(other, other.root, [parse_tree("x")])
        assert scheduler.tried_count() == 0
        assert scheduler.fresh_count() == 2
        assert (scheduler.tried_woken, scheduler.tried_kept) == (2, 0)


class TestParking:
    def test_unpark_respects_ready_times(self):
        document, sites = make_sites(3)
        scheduler = CallScheduler()
        scheduler.park(sites[0], ready_at=10.0)
        scheduler.park(sites[1], ready_at=20.0)
        scheduler.park(sites[2], ready_at=15.0)
        assert scheduler.parked_count() == 3
        assert scheduler.next_parked_ready() == 10.0
        assert scheduler.unpark(now=15.0) == 2      # sites 0 and 2
        assert scheduler.parked_count() == 1
        assert scheduler.next_parked_ready() == 20.0
        # Cooled-down sites re-enter fresh in park order.
        assert scheduler.pop() == sites[0]
        assert scheduler.pop() == sites[2]
        assert scheduler.unpark(now=25.0) == 1
        assert scheduler.pop() == sites[1]

    def test_unpark_before_ready_moves_nothing(self):
        document, sites = make_sites(1)
        scheduler = CallScheduler()
        scheduler.park(sites[0], ready_at=5.0)
        assert scheduler.unpark(now=1.0) == 0
        assert not scheduler.has_fresh()


class TestBudget:
    def test_budget_spent_after_enough_attempts(self):
        scheduler = CallScheduler(budget=2)
        assert not scheduler.budget_spent()
        scheduler.note_attempt()
        assert not scheduler.budget_spent()
        scheduler.note_attempt()
        assert scheduler.budget_spent()

    def test_no_budget_is_never_spent(self):
        scheduler = CallScheduler()
        for _ in range(100):
            scheduler.note_attempt()
        assert not scheduler.budget_spent()


class TestFrontierRoundtrip:
    def test_frontier_folds_parked_and_extra_into_fresh(self):
        document, sites = make_sites(4)
        scheduler = CallScheduler(seed=11, budget=50)
        scheduler.enqueue(*sites[0])
        scheduler.enqueue(*sites[1])
        scheduler.mark_tried(scheduler.pop())       # sites[0] -> tried
        scheduler.park(sites[2], ready_at=99.0)
        scheduler.note_attempt()
        frontier = scheduler.frontier(extra_fresh=[sites[3]])
        fresh_uids = [uid for _, uid in frontier["fresh"]]
        assert fresh_uids == [sites[3][1].uid, sites[1][1].uid,
                              sites[2][1].uid]
        assert [uid for _, uid in frontier["tried"]] == [sites[0][1].uid]
        assert frontier["attempts"] == 1

    def test_restore_rebuilds_queues_and_drops_unresolvable(self):
        document, sites = make_sites(3)
        scheduler = CallScheduler()
        for site in sites[:2]:
            scheduler.enqueue(*site)
        scheduler.mark_tried(scheduler.pop())
        frontier = scheduler.frontier()
        frontier["fresh"].append(["d", 999_999_999])  # vanished node

        by_uid = {node.uid: (document, node) for _, node in sites}
        restored = CallScheduler()
        restored.restore_frontier(frontier,
                                  lambda name, uid: by_uid.get(uid))
        assert restored.fresh_count() == 1
        assert restored.tried_count() == 1
        assert restored.pop() == sites[1]
        assert restored.is_enqueued(sites[0][1])

    def test_all_policies_snapshot_their_identity(self):
        for policy in POLICIES:
            scheduler = CallScheduler(policy, seed=5)
            frontier = scheduler.frontier()
            assert frontier["policy"] == policy
            assert frontier["seed"] == 5


# ----------------------------------------------------------------------
# calls pruned by reduction leave the frontier
# ----------------------------------------------------------------------


def _pruned_call_system() -> AXMLSystem:
    """``H`` grows the second ``c`` by ``k``; the first ``c`` is then
    subsumed and pruned, with the ``!F`` inside it.  ``F`` never answers."""
    return AXMLSystem.build(
        documents={"d": "r{c{k, !F}, c{!F, !H}}", "e": "src"},
        services={"F": "x :- e/src{y}", "H": "k :- e/src"})


@pytest.mark.parametrize("engine", ["sequential", "async"])
def test_pruned_tried_calls_are_dropped(engine):
    from paxml.runtime import AsyncRuntime
    from paxml.system import RewritingEngine

    system = _pruned_call_system()
    if engine == "sequential":
        runner = RewritingEngine(system)
    else:
        runner = AsyncRuntime(system)
    assert runner.run().status.value == "terminated"
    root = system.documents["d"].root
    assert len(root.children) == 1
    scheduler = runner.kernel.scheduler
    assert scheduler.live_count("F") == 1
    assert scheduler.tried_count() == 2
    live = {node.uid for node in root.function_nodes()}
    assert {entry[0][1].uid for entry in scheduler._tried.values()} == live
