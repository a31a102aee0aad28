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
from quotient_oracle import full_search_quotient, per_branch_classes, union_find_classes


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


def test_class_diameter_is_its_widest_pair():
    # one class on the empty tree, 1 - 0 - 2: its first member sits in the middle
    machine = parse_machine(
        "states: 0 1 2\nstart: 0\nfinal: 2\ninput: a\nmemory: x\nedge: 0 1 stay eps\nedge: 0 2 stay a\n"
    )
    _, classes, q = classes_at(machine, 0)
    assert classes == [[0, 1, 2]] and q.class_diameters == [2]


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


# --- the classes and the quotient against the oracles ---------------------------

FIXTURE_MACHINES = {p.name: load_machine(p.name) for p in sorted(FIXTURES.glob("*.nsa"))}
PUSHDOWN_MACHINES = {name: m for name, m in FIXTURE_MACHINES.items() if is_pushdown(m)}
PUSHDOWN_MACHINES["free2-word-problem"] = free_group_wp_machine(2)


def assert_matches_oracles(cg):
    """Classes, `class_of`, quotient edges, diameters, the tree verdict and
    the DOT text, each against the per-branch searches they replaced."""
    classes = nonerasing_classes(cg)
    assert classes == per_branch_classes(cg) == union_find_classes(cg)
    q, reference = quotient(cg, classes), full_search_quotient(cg, classes)
    assert q.class_of == reference.class_of
    assert q.edges == reference.edges
    assert q.class_diameters == reference.class_diameters
    assert check_tree(q) is None and check_tree(reference) is None  # a pushdown quotient is a forest
    assert quotient_dot(q) == quotient_dot(reference)


@pytest.mark.parametrize("name", sorted(PUSHDOWN_MACHINES))
def test_classes_match_union_find_oracle_on_fixtures(name):
    for cap in range(13):
        assert_matches_oracles(build(PUSHDOWN_MACHINES[name], BuildHorizon(max_tree_edges=cap, max_vertices=20_000)))


def test_every_pushdown_fixture_is_compared():
    assert {"anbn.nsa", "dyck2.nsa", "popcycle.nsa", "xyblock.nsa", "zcount.nsa"} <= set(PUSHDOWN_MACHINES)


def test_anbn_quotient_at_horizon_800_has_its_closed_form(anbn):
    # 2h+1 configurations; each a^k b^j excursion pairs two of them, so
    # h+1 classes on a path of h edges, each pair at distance 2
    cg, classes, q = classes_at(anbn, 800)
    assert (len(cg.vertices), len(classes), len(q.edges)) == (1601, 801, 800)
    assert quotient_distortion(q) == 2
    assert check_tree(q) is None


PUSHDOWN_OPS = (push("x"), push("y"), pop("x"), pop("y"), STAY)


def pushdown_machine(states, rows):
    names = tuple(str(i) for i in range(states))
    edges = tuple(dict.fromkeys(Edge(names[a % states], names[b % states], op, x) for a, b, op, x in rows))
    return Machine(
        states=names,
        initial="0",
        finals=frozenset({names[-1]}),
        input_alphabet=frozenset({"a"}),
        memory_alphabet=frozenset({"x", "y"}),
        edges=edges,
    )


PUSHDOWN_ROWS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(PUSHDOWN_OPS), st.sampled_from(["a", EPSILON])),
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(states=st.integers(2, 3), rows=PUSHDOWN_ROWS, cap=st.integers(0, 6))
def test_classes_match_union_find_oracle_on_random_machines(states, rows, cap):
    assert_matches_oracles(build(pushdown_machine(states, rows), BuildHorizon(max_tree_edges=cap)))


# --- the classes at neighbouring horizons ----------------------------------------


def assert_classes_nest(machine, cap):
    """Each class at tree cap `cap` lies inside one class at `cap + 1`, its
    members found there by (state, tree): the larger graph holds every path
    that joined them.  The vertex cap must not fire at `cap + 1`."""
    small, big = (build(machine, BuildHorizon(max_tree_edges=c, max_vertices=20_000)) for c in (cap, cap + 1))
    assert len(big.vertices) < big.horizon.max_vertices
    class_at = {big.vertices[v]: i for i, members in enumerate(nonerasing_classes(big)) for v in members}
    for members in nonerasing_classes(small):
        assert len({class_at[small.vertices[v]] for v in members}) == 1, members


@pytest.mark.parametrize("name", sorted(PUSHDOWN_MACHINES))
def test_classes_nest_across_horizons_on_fixtures(name):
    for cap in range(8):
        assert_classes_nest(PUSHDOWN_MACHINES[name], cap)


@settings(max_examples=100, deadline=None)
@given(states=st.integers(2, 3), rows=PUSHDOWN_ROWS, cap=st.integers(0, 5))
def test_classes_nest_across_horizons_on_random_machines(states, rows, cap):
    assert_classes_nest(pushdown_machine(states, rows), cap)
