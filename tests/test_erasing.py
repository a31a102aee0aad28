"""The limited-erasing decision against an independent oracle, a
Bellman-Ford longest-path iteration over silent edges: `check_limited_erasing`
on the machine graph of every fixture, three preimages and random machines,
and `max_eps_run` on their configuration graphs explored at small horizons."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, load_machine
from nestedstack.config_graph import BuildHorizon, build, max_eps_run
from nestedstack.hom import parse_homomorphism, preimage
from nestedstack.machine import check_limited_erasing
from nestedstack.memory_tree import EPSILON
from test_successors import EDGE, FIXTURE_NAMES, random_machine


def longest_path(vertices, arcs):
    """The largest total weight of a path along (src, dst, weight) arcs, or
    None when some cycle has positive weight.  Every vertex starts at 0 and
    each round raises an arc's head to its tail's value plus the arc's
    weight.  Without a positive cycle the values settle within |V| - 1
    rounds; with one, some value rises in every round.  So after |V| + 1
    rounds a value that still rose in the last one means a positive cycle."""
    value = dict.fromkeys(vertices, 0)
    for _ in range(len(value) + 1):
        rose = False
        for u, v, w in arcs:
            if value[u] + w > value[v]:
                value[v] = value[u] + w
                rose = True
    return None if rose else max(value.values(), default=0)


def machines():
    named = {name: load_machine(name) for name in FIXTURE_NAMES}
    for base, hom in (("anbncndn.nsa", "block4.hom"), ("anbncndn.nsa", "collapse_pq.hom"), ("xyblock.nsa", "wsplit.hom")):
        named[hom] = preimage(named[base], parse_homomorphism((FIXTURES / hom).read_text()))
    return named


MACHINES = machines()


def assert_erasing_matches_oracle(machine):
    silent = [(e.src, e.dst, 1 if e.op.kind == "pop" else 0) for e in machine.edges if e.letter == EPSILON]
    want = longest_path(machine.states, silent)
    report = check_limited_erasing(machine)
    assert (report.bounded, report.bound) == (want is not None, want)
    if want is None:  # the witness is a closed walk of silent edges that starts with a pop
        cycle = report.cycle
        assert cycle[0].op.kind == "pop" and all(e.letter == EPSILON for e in cycle)
        assert all(a.dst == b.src for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def assert_max_eps_run_matches_oracle(machine, max_tree_edges):
    cg = build(machine, BuildHorizon(max_tree_edges=max_tree_edges))
    silent = [(src, dst, 1) for src, dst, label in cg.edges if label == EPSILON]
    assert max_eps_run(cg) == longest_path(range(len(cg.vertices)), silent)


def test_the_oracle_decides_small_graphs():
    assert longest_path([], []) == 0
    assert longest_path("pq", [("p", "q", 1), ("q", "p", 0)]) is None
    assert longest_path("pqr", [("p", "q", 0), ("q", "p", 0), ("q", "r", 2), ("p", "r", 1)]) == 2


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_check_limited_erasing_matches_the_oracle_on_fixtures(name):
    assert_erasing_matches_oracle(MACHINES[name])


@pytest.mark.parametrize("name", sorted(MACHINES))
@pytest.mark.parametrize("max_tree_edges", [0, 1, 2, 4])
def test_max_eps_run_matches_the_oracle_on_fixtures(name, max_tree_edges):
    assert_max_eps_run_matches_oracle(MACHINES[name], max_tree_edges)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(EDGE, max_size=12))
def test_check_limited_erasing_matches_the_oracle_on_random_machines(rows):
    assert_erasing_matches_oracle(random_machine(rows))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(EDGE, max_size=12), max_tree_edges=st.integers(0, 3))
def test_max_eps_run_matches_the_oracle_on_random_machines(rows, max_tree_edges):
    assert_max_eps_run_matches_oracle(random_machine(rows), max_tree_edges)
