"""Property tests for the incremental materialization engine.

Two families of guarantees:

* whole-engine agreement — materializing with the incremental machinery
  (persistent caches + per-site delta evaluation) yields documents
  equivalent to the naive snapshot fixpoint (``conftest.naive_fixpoint``),
  under every scheduler;
* cache coherence — the persistent ``canonical_key`` and ``is_subsumed``
  caches agree with uncached recomputation after arbitrary graft
  sequences (version stamps must invalidate exactly what changed).
"""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from paxml import perf
from paxml.system import RewritingEngine, materialize
from paxml.tree.node import Node
from paxml.tree.reduction import canonical_key, canonical_key_of_reduced, reduced_copy
from paxml.tree.subsumption import _simulates, is_equivalent, is_subsumed
from paxml.workloads import (
    chain_edges,
    portal_system,
    random_acyclic_system,
    random_tree,
    tc_system,
)

from .conftest import naive_fixpoint


@pytest.fixture(autouse=True)
def _restore_perf_flags():
    """Each test may flip engine flags; leave the process as it found it."""
    yield
    perf.flags.set_all(True)
    perf.clear_caches()
    perf.stats.reset()


def _materialize_with(factory, scheduler, seed):
    perf.clear_caches()
    system = factory()
    result = RewritingEngine(system, scheduler=scheduler, seed=seed).run()
    assert result.terminated
    return system


# ----------------------------------------------------------------------
# engine agreement
# ----------------------------------------------------------------------


@given(st.integers(0, 1000),
       st.sampled_from(["round_robin", "lifo", "random"]))
@settings(max_examples=25, deadline=None)
def test_incremental_engine_agrees_with_seed_engine(seed, scheduler):
    """Incremental and naive materialization reach equivalent fixpoints
    on random acyclic systems under every scheduler."""
    factory = lambda: random_acyclic_system(3, seed=seed)
    reference = naive_fixpoint(factory())
    subject = _materialize_with(factory, scheduler, seed)
    assert subject.equivalent_to(reference)


@pytest.mark.parametrize("scheduler", ["round_robin", "lifo", "random"])
def test_incremental_engine_agrees_on_tc(scheduler):
    factory = lambda: tc_system(chain_edges(8))
    reference = naive_fixpoint(factory())
    subject = _materialize_with(factory, scheduler, 11)
    assert subject.equivalent_to(reference)


@pytest.mark.parametrize("scheduler", ["round_robin", "lifo", "random"])
def test_incremental_engine_agrees_on_portal(scheduler):
    factory = lambda: portal_system(8, n_irrelevant=3, seed=2)
    reference = naive_fixpoint(factory())
    subject = _materialize_with(factory, scheduler, 7)
    assert subject.equivalent_to(reference)


@given(st.integers(0, 300))
@settings(max_examples=10, deadline=None)
def test_delta_invocations_deliver_monotone_growth(seed):
    """Re-running the engine on its own fixpoint must be a pure no-op —
    the delta caches may not manufacture or lose answers."""
    perf.flags.set_all(True)
    perf.clear_caches()
    system = random_acyclic_system(3, seed=seed)
    materialize(system)
    before = system.signature()
    again = materialize(system)
    assert again.productive_steps == 0
    assert system.signature() == before


# ----------------------------------------------------------------------
# cache coherence under graft sequences
# ----------------------------------------------------------------------


def _random_graft_sequence(root: Node, rng: random.Random, grafts: int) -> None:
    """Graft copies of random subtrees at random positions, as the engine
    does (always fresh copies, never re-parented existing nodes)."""
    for _ in range(grafts):
        nodes = list(root.iter_nodes())
        target = rng.choice([n for n in nodes if not n.is_value] or [root])
        donor = rng.choice(nodes)
        target.add_child(donor.copy())


@given(st.integers(0, 1000), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_cached_canonical_key_matches_uncached(seed, grafts):
    """After arbitrary grafts, the version-stamped key cache agrees with
    the seed's reduce-then-key recomputation."""
    rng = random.Random(seed)
    perf.flags.set_all(True)
    perf.clear_caches()
    tree = random_tree(20, seed=seed, label_pool=2, value_pool=2)
    assert canonical_key(tree) == canonical_key_of_reduced(reduced_copy(tree))
    for _ in range(3):
        _random_graft_sequence(tree, rng, grafts)
        cached = canonical_key(tree)
        assert cached == canonical_key_of_reduced(reduced_copy(tree))
        # And a second read must serve the memoised key unchanged.
        assert canonical_key(tree) == cached


@given(st.integers(0, 1000), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_cached_subsumption_matches_uncached(seed, grafts):
    """The persistent simulation cache agrees with a cold recomputation
    in both directions after both trees mutate."""
    rng = random.Random(seed)
    perf.flags.set_all(True)
    perf.clear_caches()
    left = random_tree(15, seed=seed, label_pool=2, value_pool=2)
    right = random_tree(15, seed=seed + 1, label_pool=2, value_pool=2)
    for _ in range(3):
        _random_graft_sequence(left, rng, grafts)
        _random_graft_sequence(right, rng, grafts)
        for t1, t2 in [(left, right), (right, left), (left, left)]:
            cached = is_subsumed(t1, t2)
            perf.flags.subsumption_cache = False
            cold = _simulates(t1, t2, {})
            perf.flags.subsumption_cache = True
            assert cached == cold


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_equal_keys_iff_equivalent_under_cache(seed):
    """Canonical keys still characterise equivalence with caching on."""
    perf.flags.set_all(True)
    perf.clear_caches()
    t1 = random_tree(12, seed=seed, label_pool=2, value_pool=2)
    t2 = random_tree(12, seed=seed + 17, label_pool=2, value_pool=2)
    assert (canonical_key(t1) == canonical_key(t2)) == is_equivalent(t1, t2)
    assert canonical_key(t1) == canonical_key(t1.copy())


# ----------------------------------------------------------------------
# version-stamp invariants
# ----------------------------------------------------------------------


@given(st.integers(0, 1000), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_version_stamps_and_parents_stay_consistent(seed, grafts):
    """After any graft sequence: parent pointers match the child lists,
    and every node's version bounds its descendants' versions."""
    rng = random.Random(seed)
    tree = random_tree(15, seed=seed)
    _random_graft_sequence(tree, rng, grafts)
    for node in tree.iter_nodes():
        for child in node.children:
            assert child.parent is node
            assert child.version <= node.version


def test_add_child_bumps_ancestors_only():
    from paxml.tree.node import label, val

    root = label("a", label("b"), label("c"))
    left, right = root.children
    v_root, v_left, v_right = root.version, left.version, right.version
    left.add_child(val(1))
    assert left.version > v_left
    assert root.version > v_root
    assert right.version == v_right
