"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from paxml import AXMLSystem, Node, fun, label, val
from paxml.system.invocation import (StaleCallError, call_path, evaluate_call,
                                     graft_answers)


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Leave the process-wide observability bus clean after every test."""
    yield
    from paxml.obs import bus
    from paxml.obs.provenance import clear_staged

    bus.reset()
    clear_staged()


# ----------------------------------------------------------------------
# the reference fixpoint
# ----------------------------------------------------------------------


def naive_fixpoint(system: AXMLSystem) -> AXMLSystem:
    """Materialize ``system`` in place the naive way: rounds of full
    snapshot evaluation (``evaluate_call``, never the per-site delta
    evaluator) plus ``graft_answers`` over every live call, until a round
    changes nothing.  No kernel, no scheduler, no delta state.

    The reference ``[I]`` the engines are checked against; only for
    systems that terminate (a round cap turns divergence into a failure).
    """
    for _ in range(10_000):
        changed = False
        for document, call in list(system.call_sites()):
            try:
                path = call_path(document, call)
            except StaleCallError:
                continue  # pruned by an earlier graft of this round
            if graft_answers(path, evaluate_call(system, call, path[-2])):
                changed = True
        if not changed:
            return system
    raise AssertionError("no fixpoint within 10,000 rounds")


# ----------------------------------------------------------------------
# hypothesis strategies for AXML trees
# ----------------------------------------------------------------------

_LABELS = ["a", "b", "c", "d"]
_VALUES = [0, 1, "x"]
_FUNCTIONS = ["f", "g"]


def tree_strategy(max_depth: int = 4, allow_functions: bool = False,
                  max_children: int = 3) -> st.SearchStrategy[Node]:
    """Random AXML trees: labels inside, values at leaves, optional calls."""

    def extend(children: st.SearchStrategy[Node]) -> st.SearchStrategy[Node]:
        inner = st.builds(
            lambda name, kids: Node(name, kids),
            st.sampled_from(_LABELS),
            st.lists(children, max_size=max_children),
        )
        if allow_functions:
            calls = st.builds(
                lambda name, kids: fun(name, *kids),
                st.sampled_from(_FUNCTIONS),
                st.lists(children, max_size=2),
            )
            inner = st.one_of(inner, calls)
        return inner

    leaves = st.one_of(
        st.sampled_from(_VALUES).map(val),
        st.sampled_from(_LABELS).map(label),
    )
    return st.recursive(leaves, extend, max_leaves=12).map(_labelled_root)


def _labelled_root(node: Node) -> Node:
    # Document roots must not be function nodes (Def. 2.1(ii)).
    if node.is_function:
        return label("root", node)
    return node


# ----------------------------------------------------------------------
# canonical example systems from the paper
# ----------------------------------------------------------------------


@pytest.fixture
def example_2_1() -> AXMLSystem:
    """d/a{f} with f returning a{f} — the divergent nesting loop."""
    return AXMLSystem.build(documents={"d": "a{!f}"},
                            services={"f": "a{!f} :- "})


@pytest.fixture
def example_3_2() -> AXMLSystem:
    """Transitive closure via a simple positive system."""
    return AXMLSystem.build(
        documents={
            "d0": "r{t{c0{1}, c1{2}}, t{c0{2}, c1{3}}, t{c0{3}, c1{4}}}",
            "d1": "r{!g, !f}",
        },
        services={
            "g": "t{c0{$x}, c1{$y}} :- d0/r{t{c0{$x}, c1{$y}}}",
            "f": "t{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}",
        },
    )


@pytest.fixture
def example_3_3() -> AXMLSystem:
    """The non-simple divergent system with a growing tree-variable copy."""
    return AXMLSystem.build(
        documents={"dp": "a{a{b}, !g}"},
        services={"g": "a{a{*X}} :- context/a{a{*X}}"},
    )


@pytest.fixture
def jazz_portal() -> AXMLSystem:
    """The introduction's music-portal scenario, concretised."""
    return AXMLSystem.build(
        documents={
            "portal": '''directory{
                cd{title{"L'amour"}, singer{"Carla Bruni"}, rating{"***"}},
                cd{title{"Body and Soul"}, singer{"Billie Holiday"},
                   !GetRating{"Body and Soul"}},
                promos{!FreeMusicDB{type{"Jazz"}}}}''',
            "ratingsdb": 'db{entry{song{"Body and Soul"}, stars{"****"}}}',
            "musicdb": 'db{item{title{"So What"}}}',
        },
        services={
            "GetRating": 'rating{$s} :- input/input{$t}, '
                         'ratingsdb/db{entry{song{$t}, stars{$s}}}',
            "FreeMusicDB": 'cd{title{$t}} :- musicdb/db{item{title{$t}}}',
        },
    )
