from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, free_group_wp_machine, load_machine
from nestedstack.config_graph import BuildHorizon, build
from nestedstack.machine import Edge, Machine, parse_machine
from nestedstack.pda_quotient import (
    check_tree,
    is_pushdown,
    nonerasing_classes,
    quotient,
    quotient_dot,
    quotient_distortion,
)
from nestedstack.memory_tree import EPSILON, STAY, empty_tree, pop, push
from quotient_oracle import nonerasing_classes as union_find_classes


def classes_at(machine, cap):
    cg = build(machine, BuildHorizon(max_tree_edges=cap))
    classes = nonerasing_classes(cg)
    return cg, classes, quotient(cg, classes)


def test_is_pushdown(quad, anbn):
    assert not is_pushdown(quad)  # walks the pointer up and down
    assert is_pushdown(anbn)
    empty = parse_machine("states: 1\nstart: 1\nfinal: 1\ninput: a\nmemory: x\n")
    assert is_pushdown(empty)


def test_non_pushdown_rejected(quad):
    cg = build(quad, BuildHorizon(max_tree_edges=4))
    with pytest.raises(ValueError):
        nonerasing_classes(cg)


def test_push_pop_excursion_merges(anbn):
    # reading one a then one b pops back to the empty tree: the start and
    # the final popping state share a class
    cg, classes, _ = classes_at(anbn, 6)
    empty = empty_tree()
    merged = next(c for c in classes if any(cg.vertices[v].tree == empty for v in c))
    states = {cg.vertices[v].state for v in merged}
    assert states == {"1", "3"}


def test_classes_are_constant_tree(anbn, dyck2):
    for machine in (anbn, dyck2):
        cg, classes, _ = classes_at(machine, 8)
        for cls in classes:
            assert len({cg.vertices[v].tree for v in cls}) == 1


def test_different_stack_heights_never_merge(anbn):
    cg, classes, _ = classes_at(anbn, 8)
    for cls in classes:
        assert len({cg.vertices[v].tree.edge_count for v in cls}) == 1


def test_quotient_simple_and_connected(anbn):
    cg, classes, q = classes_at(anbn, 8)
    assert all(i != j for i, j in q.edges)
    # connected: explored graph is connected, so the quotient is too
    seen = {0}
    frontier = [0]
    adjacency = {}
    for i, j in q.edges:
        adjacency.setdefault(i, []).append(j)
        adjacency.setdefault(j, []).append(i)
    while frontier:
        x = frontier.pop()
        for y in adjacency.get(x, []):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert seen == set(range(len(classes)))


@pytest.mark.parametrize("cap", [6, 8, 10])
def test_quotients_are_trees(anbn, dyck2, cap):
    for machine in (anbn, dyck2):
        _, _, q = classes_at(machine, cap)
        assert check_tree(q) is None


def test_distortion_stabilizes_across_horizons(anbn, dyck2):
    values = {m: [] for m in ("anbn", "dyck")}
    for cap in (6, 8, 10):
        _, _, q = classes_at(anbn, cap)
        values["anbn"].append(quotient_distortion(q))
        _, _, q = classes_at(dyck2, cap)
        values["dyck"].append(quotient_distortion(q))
    assert values["anbn"] == [2, 2, 2]
    assert values["dyck"] == [0, 0, 0]


def test_trivial_single_state_machine_distortion_zero():
    machine = parse_machine("states: 1\nstart: 1\nfinal: 1\ninput: a\nmemory: x\n")
    _, _, q = classes_at(machine, 4)
    assert quotient_distortion(q) == 0
    assert check_tree(q) is None


def test_stack_machine_graph_is_not_treelike(quad):
    # the quotient only makes sense for pushdown machines; a machine that
    # walks the pointer keeps grid cycles in its explored graph
    from nestedstack.graphs import fundamental_cycle

    cg = build(quad, BuildHorizon(max_tree_edges=4))
    cycle = fundamental_cycle(cg.undirected_adjacency())
    assert cycle is not None and len(cycle) >= 4


def test_quotient_dot_deterministic(anbn):
    _, _, q1 = classes_at(anbn, 6)
    _, _, q2 = classes_at(anbn, 6)
    assert quotient_dot(q1) == quotient_dot(q2)
    assert "--" in quotient_dot(q1)


# `pda quotient --dot` files, byte for byte (the CLI goldens cover stdout only)
QUOTIENT_DOT = {"anbn": 6, "dyck2": 3, "xyblock": 5, "zcount": 6, "popcycle": 4}


@pytest.mark.parametrize("name", sorted(QUOTIENT_DOT))
def test_quotient_dot_matches_golden(name):
    _, _, q = classes_at(load_machine(f"{name}.nsa"), QUOTIENT_DOT[name])
    golden = Path(__file__).resolve().parent / "golden" / f"quotient_{name}.dot"
    assert quotient_dot(q).encode("utf-8") == golden.read_bytes()


# --- the classes against the union-find oracle ----------------------------------

FIXTURE_MACHINES = {p.name: load_machine(p.name) for p in sorted(FIXTURES.glob("*.nsa"))}
PUSHDOWN_MACHINES = {name: m for name, m in FIXTURE_MACHINES.items() if is_pushdown(m)}
PUSHDOWN_MACHINES["free2-word-problem"] = free_group_wp_machine(2)


@pytest.mark.parametrize("name", sorted(PUSHDOWN_MACHINES))
def test_classes_match_union_find_oracle_on_fixtures(name):
    machine = PUSHDOWN_MACHINES[name]
    for cap in range(13):
        cg = build(machine, BuildHorizon(max_tree_edges=cap, max_vertices=20_000))
        assert nonerasing_classes(cg) == union_find_classes(cg), cap


def test_every_pushdown_fixture_is_compared():
    assert {"anbn.nsa", "dyck2.nsa", "popcycle.nsa", "xyblock.nsa", "zcount.nsa"} <= set(PUSHDOWN_MACHINES)


PUSHDOWN_OPS = (push("x"), push("y"), pop("x"), pop("y"), STAY)


@settings(max_examples=150, deadline=None)
@given(
    states=st.integers(2, 3),
    rows=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(PUSHDOWN_OPS), st.sampled_from(["a", EPSILON])),
        max_size=10,
    ),
    cap=st.integers(0, 6),
)
def test_classes_match_union_find_oracle_on_random_machines(states, rows, cap):
    names = tuple(str(i) for i in range(states))
    edges = tuple(dict.fromkeys(Edge(names[a % states], names[b % states], op, x) for a, b, op, x in rows))
    machine = Machine(
        states=names,
        initial="0",
        finals=frozenset({names[-1]}),
        input_alphabet=frozenset({"a"}),
        memory_alphabet=frozenset({"x", "y"}),
        edges=edges,
    )
    cg = build(machine, BuildHorizon(max_tree_edges=cap))
    classes = nonerasing_classes(cg)
    assert classes == union_find_classes(cg)
    # a pushdown quotient is always a forest (see `check_tree`)
    assert check_tree(quotient(cg, classes)) is None
