"""Read-stamped wakes reach the same documents as waking everything.

A productive graft into a document wakes only the tried sites whose read
stamp moved: the documents their service reads, their parameters when
it reads ``input``, their parent's subtree when it reads ``context``
(``paxml.kernel.scheduler``).  By monotonicity (Proposition 3.1) every
other no-op verdict still holds, so every run must end in the documents
a run that wakes every tried site after every graft ends in.  The
reference is that wake-everything run: the same engine with its
scheduler's read sets removed, which is also what makes the async
runtime fall back to the kernel-wide ``productive`` counter as its
freshness stamp.

Each case runs to a fixpoint, takes an external injection into a
document some call reads, and runs to a fixpoint again.  The ``feeds``
family is built for the two wake cases no document name covers: an
``input`` reader whose parameters are filled by a call nested inside
them, and a ``context`` reader whose parent is filled by a sibling call.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paxml import AXMLSystem, perf
from paxml.kernel import resume
from paxml.query import parse_query
from paxml.runtime import AsyncRuntime, FaultInjector, RuntimeConfig
from paxml.system import RewritingEngine
from paxml.tree.parser import parse_tree
from paxml.workloads import (portal_system, random_acyclic_system,
                             random_edges, tc_system)


@pytest.fixture(autouse=True, scope="module")
def _lazy_scheduling_on():
    """Lazy and fire-once runs need the flag; keep it on for this module,
    also when the suite runs with ``PAXML_DISABLE_FLAGS=lazy_scheduling``."""
    saved = perf.flags.lazy_scheduling
    perf.flags.lazy_scheduling = True
    yield
    perf.flags.lazy_scheduling = saved


def feeds_system(seed: int) -> AXMLSystem:
    """``!Echo`` reads only ``input``, and the ``!Src`` nested in its
    parameters fills them; ``!Seen`` reads only ``context``, and the
    ``!Fill`` beside it fills its ``cd``."""
    rng = random.Random(seed)
    items = ", ".join(f"item{{{rng.randrange(20)}}}"
                      for _ in range(1 + seed % 3))
    echoes = ", ".join(f"!Echo{{k{{{index}}}, !Src}}"
                       for index in range(1 + seed % 2))
    cds = ", ".join(f"cd{{n{{{index}}}, !Seen, !Fill}}"
                    for index in range(1 + (seed // 2) % 3))
    return AXMLSystem.build(
        documents={"src": f"db{{{items}}}",
                   "d": f"r{{{echoes}, {cds}}}"},
        services={
            "Src": "v{$x} :- src/db{item{$x}}",
            "Echo": "out{$x} :- input/input{v{$x}}",
            "Fill": "t{$x} :- src/db{item{$x}}",
            "Seen": "seen{n{$n}, t{$x}} :- context/cd{n{$n}, t{$x}}",
        })


FAMILIES = ("acyclic", "tc", "portal", "feeds")


def build(family: str, seed: int) -> AXMLSystem:
    if family == "acyclic":
        return random_acyclic_system(2 + seed % 3, seed=seed,
                                     values_per_doc=3)
    if family == "tc":
        return tc_system(random_edges(5, 6 + seed % 4, seed=seed))
    if family == "portal":
        return portal_system(4 + seed % 3, materialized_fraction=0.4,
                             n_irrelevant=3, seed=seed)
    return feeds_system(seed)


def goal(family: str, seed: int):
    """The query a lazy run is asked to answer."""
    if family == "acyclic":
        top = (2 + seed % 3) - 1
        return parse_query(f"out{{$x}} :- doc{top}/layer{top}"
                           f"{{item{{w{top}{{$x}}}}}}")
    if family == "tc":
        return parse_query("pair{c0{$x}, c1{$y}} :- "
                           "d1/r{t{c0{$x}, c1{$y}}}")
    if family == "portal":
        return parse_query("res{title{$t}, rating{$r}} :- "
                           "portal/directory{cd{title{$t}, rating{$r}}}")
    return parse_query("got{$x} :- d/r{out{$x}}")


def injections(family: str, seed: int):
    """``(document, tree)`` facts injected after the first fixpoint."""
    if family == "acyclic":
        return [("doc0", f"item{{{100 + seed}}}")]
    if family == "tc":
        return [("d0", f"t{{c0{{{seed % 5}}}, c1{{{50 + seed}}}}}")]
    if family == "portal":
        return [("ratingsdb", 'entry{song{"new"}, stars{"4"}}'),
                ("portal", 'cd{title{"new"}, !GetRating{"new"}}')]
    return [("src", f"item{{{100 + seed}}}")]


def inject(kernel, system: AXMLSystem, family: str, seed: int) -> None:
    for name, text in injections(family, seed):
        document = system.documents[name]
        kernel.apply_external(document, document.root, [parse_tree(text)])


def final_keys(system: AXMLSystem):
    return {name: doc.canonical_key()
            for name, doc in system.documents.items()}


def wake_everything(engine):
    """The reference: drop the read sets, so every productive graft wakes
    every tried site and the async runtime stamps with ``productive``."""
    engine.kernel.scheduler.read_sets = None
    return engine


def run_twice(engine, family: str, seed: int):
    """Fixpoint, external injection, fixpoint; returns the final keys."""
    for round_index in range(2):
        result = engine.run()
        assert result.status.value in ("terminated", "stabilized")
        if round_index == 0:
            inject(engine.kernel, engine.system, family, seed)
    return final_keys(engine.system)


def reference(family: str, seed: int, **engine_kwargs):
    system = build(family, seed)
    engine = wake_everything(RewritingEngine(system, **engine_kwargs))
    return run_twice(engine, family, seed)


cases = st.tuples(st.sampled_from(FAMILIES), st.integers(0, 9))
policies = st.sampled_from(("round_robin", "random", "lifo"))


@settings(max_examples=30, deadline=None)
@given(cases, policies, st.integers(0, 1000))
def test_sequential_matches_wake_everything(case, policy, order_seed):
    family, seed = case
    system = build(family, seed)
    engine = RewritingEngine(system, scheduler=policy, seed=order_seed)
    assert engine.kernel.scheduler.read_sets is not None
    assert run_twice(engine, family, seed) == reference(family, seed)


@settings(max_examples=16, deadline=None)
@given(cases, st.integers(0, 1000))
def test_async_matches_wake_everything(case, fault_seed):
    family, seed = case
    system = build(family, seed)
    injector = FaultInjector(seed=fault_seed, error_rate=0.1,
                             delay_rate=0.2, duplicate_rate=0.3,
                             delay_seconds=0.002, max_attempt=2)
    config = RuntimeConfig(concurrency=4, seed=fault_seed,
                           backoff_base=0.001)
    runtime = AsyncRuntime(system, config=config, injector=injector)
    assert run_twice(runtime, family, seed) == reference(family, seed)


@settings(max_examples=16, deadline=None)
@given(cases, st.booleans())
def test_lazy_matches_wake_everything(case, on_async):
    family, seed = case
    system = build(family, seed)
    queries = [goal(family, seed)]
    engine = (AsyncRuntime(system, lazy_for=queries,
                           config=RuntimeConfig(concurrency=4))
              if on_async else RewritingEngine(system, lazy_for=queries))
    expected = reference(family, seed, lazy_for=queries)
    assert run_twice(engine, family, seed) == expected


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 9), st.booleans())
def test_fire_once_on_acyclic_matches_wake_everything(seed, on_async):
    system = build("acyclic", seed)
    engine = (AsyncRuntime(system, fire_once=True,
                           config=RuntimeConfig(concurrency=4))
              if on_async else RewritingEngine(system, fire_once=True))
    assert engine.kernel.fire_once
    expected = reference("acyclic", seed, fire_once=True)
    assert run_twice(engine, "acyclic", seed) == expected


@settings(max_examples=16, deadline=None)
@given(cases, st.integers(1, 12), st.sampled_from(("sequential", "async")))
def test_resume_from_mid_run_checkpoint_matches_wake_everything(
        tmp_path_factory, case, cut, engine_kind):
    family, seed = case
    bundle = str(tmp_path_factory.mktemp("wake") / "run.bundle")
    first = RewritingEngine(build(family, seed))
    first.run(max_steps=cut)
    first.checkpoint(bundle)
    resumed = resume(bundle, engine=engine_kind)
    assert resumed.kernel.scheduler.read_sets is not None
    assert run_twice(resumed, family, seed) == reference(family, seed)


def test_feeds_family_exercises_both_wake_cases():
    """``!Echo`` and ``!Seen`` are tried before the injection and must be
    woken by the grafts of ``!Src`` and ``!Fill`` into their own
    document, which they do not read by name."""
    system = build("feeds", 5)
    engine = RewritingEngine(system)
    engine.run()
    before = dict(engine.kernel.invocations_by_service)
    inject(engine.kernel, system, "feeds", 5)
    engine.run()
    after = engine.kernel.invocations_by_service
    assert after["Echo"] > before["Echo"]
    assert after["Seen"] > before["Seen"]
    text = system.pretty()
    assert "out{105}" in text and "seen{n{0}, t{105}}" in text
    assert final_keys(system) == reference("feeds", 5)
