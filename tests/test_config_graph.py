import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from nestedstack.config_graph import (
    BuildHorizon,
    Configuration,
    build,
    check_degrees,
    export_dot,
    lift_path,
    max_eps_run,
    project,
    vertex_name,
    vertex_namer,
)
from nestedstack.graphs import fundamental_cycle
from nestedstack.machine import Edge, Machine, NondeterminismDetected, ResourceCaps, parse_machine
from nestedstack.memory_tree import EPSILON, MemoryTree, StackOp, empty_tree, push

from conftest import apply_word, free_group_wp_machine
from nestedstack.group_geometry import make_oracle
from conftest import FIXTURES


def names(cg):
    return {vertex_name(v): i for i, v in enumerate(cg.vertices)}


def stay_loop_machine():
    return parse_machine(
        "states: 1\nstart: 1\nfinal: 1\ninput: a\nmemory: x\nedge: 1 1 stay eps"
    )


def all_words_machine():
    return parse_machine(
        "states: 1\nstart: 1\nfinal: 1\ninput: a A\nmemory: x\n"
        "edge: 1 1 stay a\nedge: 1 1 stay A"
    )


# --- building ---------------------------------------------------------------


def test_build_contains_push_chain(quad):
    cg = build(quad, BuildHorizon(max_tree_edges=4))
    by_name = names(cg)
    for vertex in ("ε1", "y2", "yx2", "yxx2"):
        assert vertex in by_name
    chain = [("ε1", "y2", EPSILON), ("y2", "yx2", "a"), ("yx2", "yxx2", "a")]
    for src, dst, label in chain:
        assert (by_name[src], by_name[dst], label) in set(cg.edges)


def test_build_respects_tree_cap(quad):
    cg = build(quad, BuildHorizon(max_tree_edges=2))
    present = names(cg)
    assert "yx2" in present
    assert "yxx2" not in present
    assert cg.truncated


def test_build_no_edges_machine():
    for final, expected in (("1", True), ("", False)):
        machine = parse_machine(
            f"states: 1\nstart: 1\nfinal: {final}\ninput: a\nmemory: x\n"
        )
        cg = build(machine, BuildHorizon())
        assert len(cg.vertices) == 1
        assert (0 in cg.coaccessible) is expected


def test_initial_coaccessible_in_quad(quad):
    cg = build(quad, BuildHorizon(max_tree_edges=4))
    assert 0 in cg.coaccessible


def test_vertex_name_conventions(quad):
    tree = apply_word([push("y"), push("x"), push("x")], empty_tree())
    assert vertex_name(Configuration("2", tree)) == "yxx2"
    deeper = tree.__class__(tree.parents, tree.labels, 2)
    assert vertex_name(Configuration("3", deeper)) == "yx3x"
    assert vertex_name(Configuration("1", empty_tree())) == "ε1"
    # ids longer than one character are bracketed, so they cannot run
    # into the branch letters
    assert vertex_name(Configuration("x1", tree)) == "yxx[x1]"
    assert vertex_name(Configuration("2@1", deeper)) == "yx[2@1]x"
    assert vertex_name(Configuration("x1", empty_tree())) == "ε[x1]"


def test_vertex_namer_styles(quad):
    tree = apply_word([push("y"), push("x")], empty_tree())
    deeper = tree.__class__(tree.parents, tree.labels, 1)
    # the fixtures keep the plain names
    assert vertex_namer(quad)(Configuration("3", deeper)) == "y3x"
    # a one-character state id that is also a memory symbol is bracketed
    xy = parse_machine("states: x y\nstart: x\nmemory: x y\nedge: x y push x eps\nedge: x x down y eps")
    name = vertex_namer(xy)
    assert name(Configuration("y", tree)) == "yx[y]"
    assert name(Configuration("x", deeper)) == "y[x]x"
    assert name(Configuration("x", empty_tree())) == "ε[x]"
    # memory symbols that run into each other are written as string literals
    prefixed = parse_machine("states: 1\nstart: 1\nmemory: x xy y\nedge: 1 1 push xy eps")
    assert vertex_namer(prefixed)(Configuration("1", deeper)) == "'y'['1']'x'"
    assert vertex_namer(prefixed)(Configuration("1", empty_tree())) == "ε['1']"
    # so are the labels of other trees, which `,` separates in the plain form
    commas = parse_machine("states: 1\nstart: 1\nmemory: x x,0-y y z\nedge: 1 1 push z eps")
    three = MemoryTree((-1, 0, 0, 0), ("", "x", "y", "z"), 0)
    two = MemoryTree((-1, 0, 0), ("", "x,0-y", "z"), 0)
    assert str(three) == str(two) == "[0-x,0-y,0-z]@0"
    name = vertex_namer(commas)
    assert name(Configuration("1", three)) != name(Configuration("1", two))


def test_vertex_names_reported_colliding_are_distinct():
    # states 1 and x1 (memory x y), and states x y on memory x y: each pair
    # of configurations below once got one name
    long_ids = parse_machine("states: 1 x1\nstart: 1\nmemory: x y\nedge: 1 x1 push y eps")
    name = vertex_namer(long_ids)
    assert name(Configuration("1", MemoryTree((-1, 0, 1), ("", "y", "x"), 2))) == "yx1"
    assert name(Configuration("x1", MemoryTree((-1, 0), ("", "y"), 1))) == "y[x1]"
    shared = parse_machine("states: x y\nstart: x\nmemory: x y\nedge: x y push x eps")
    name = vertex_namer(shared)
    assert name(Configuration("y", MemoryTree((-1, 0), ("", "x"), 1))) == "x[y]"
    assert name(Configuration("x", MemoryTree((-1, 0), ("", "y"), 0))) == "[x]y"


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.nsa")))
def test_vertex_names_are_injective_on_fixture_graphs(fixture):
    machine = parse_machine((FIXTURES / fixture).read_text())
    cg = build(machine, BuildHorizon(max_tree_edges=5, max_vertices=3000))
    name = vertex_namer(machine)
    assert len({name(v) for v in cg.vertices}) == len(cg.vertices)


# ids and symbols that collide in a plain splice: shared characters,
# prefixes of each other, and the characters names and trees use as markers
NAME_TOKENS = ["x", "y", "1", "xy", "yx", "x1", "11", "ε", "|", "[", "]", "[x]", "'", ",", "0-x", "@"]


@st.composite
def naming_machines(draw):
    states = draw(st.lists(st.sampled_from(NAME_TOKENS), min_size=1, max_size=3, unique=True))
    symbols = draw(st.lists(st.sampled_from(NAME_TOKENS), min_size=1, max_size=3, unique=True))
    edges = set()
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["push", "push", "pop", "down", "up"]))
        op = StackOp(kind, draw(st.sampled_from(symbols)))
        edges.add(Edge(draw(st.sampled_from(states)), draw(st.sampled_from(states)), op, EPSILON))
    return Machine(tuple(states), states[0], frozenset(), frozenset(), frozenset(symbols), tuple(edges))


@settings(max_examples=200, deadline=None)
@given(naming_machines())
def test_vertex_names_are_injective_on_generated_machines(machine):
    cg = build(machine, BuildHorizon(max_tree_edges=3, max_vertices=400))
    name = vertex_namer(machine)
    assert len({name(v) for v in cg.vertices}) == len(cg.vertices)


# --- structural checks --------------------------------------------------------


def test_check_degrees_quad(quad):
    for cap in (2, 4, 6):
        assert check_degrees(build(quad, BuildHorizon(max_tree_edges=cap))) is None


def test_check_degrees_flags_nondeterministic_machine():
    machine = parse_machine(
        "states: 1 2\nstart: 1\nfinal: 1\ninput: a\nmemory: x\n"
        "edge: 1 1 stay a\nedge: 1 2 stay a"
    )
    violation = check_degrees(build(machine, BuildHorizon()))
    assert violation is not None
    assert len(violation.edges) == 2


def test_check_degrees_allows_single_stay_loop():
    assert check_degrees(build(stay_loop_machine(), BuildHorizon())) is None


def test_max_eps_run_quad(quad):
    # pop-y back to the start, then the forced push-y: two silent edges
    cg = build(quad, BuildHorizon(max_tree_edges=4))
    assert max_eps_run(cg) == 2


def test_max_eps_run_unbounded_on_stay_loop():
    cg = build(stay_loop_machine(), BuildHorizon())
    assert max_eps_run(cg) is None


def test_max_eps_run_zero_without_silent_edges(anbn):
    cg = build(anbn, BuildHorizon(max_tree_edges=6))
    assert max_eps_run(cg) == 0


def test_quad_explored_graph_has_long_simple_cycle(quad):
    cg = build(quad, BuildHorizon(max_tree_edges=4))
    cycle = fundamental_cycle(cg.undirected_adjacency())
    assert cycle is not None
    assert len(cycle) >= 4
    assert len(set(cycle)) == len(cycle)


# --- projection -----------------------------------------------------------------


def test_project_trivial_group_consistent_and_deterministic(quad):
    oracle = make_oracle(f"finite {FIXTURES / 'trivial4.grp'}")
    cg = build(quad, BuildHorizon(max_tree_edges=4))
    first = project(cg, oracle)
    second = project(cg, oracle)
    assert first.consistent
    assert all(g == oracle.identity for g in first.images)
    assert [v.edge for v in first.violations] == [v.edge for v in second.violations]


def test_project_zcount_consistent(zcount):
    oracle = make_oracle("abelian 1")
    cg = build(zcount, BuildHorizon(max_tree_edges=10))
    report = project(cg, oracle)
    assert report.consistent
    # positive-mode configurations carry the branch length as the exponent
    for config, image in zip(cg.vertices, report.images):
        if config.state == "P":
            assert image == (config.tree.edge_count,)
        if config.state == "N":
            assert image == (-config.tree.edge_count,)


def test_projection_consistent_at_the_next_horizon_is_consistent_here(zcount):
    # an edge explored at h is explored at h + 1, so a projection consistent
    # there is consistent here, with the same image for each (state, tree)
    oracle = make_oracle("abelian 1")
    graphs = [build(zcount, BuildHorizon(max_tree_edges=h, max_vertices=20_000)) for h in range(13)]
    reports = [project(cg, oracle) for cg in graphs]
    for h in range(12):
        assert len(graphs[h + 1].vertices) < 20_000
        if reports[h + 1].consistent:
            assert reports[h].consistent
            image = dict(zip(graphs[h + 1].vertices, reports[h + 1].images))
            assert [image[config] for config in graphs[h].vertices] == reports[h].images
    assert all(report.consistent for report in reports)


def test_project_free_group_machine_consistent():
    machine = free_group_wp_machine(rank=2)
    oracle = make_oracle("free 2")
    cg = build(machine, BuildHorizon(max_tree_edges=5))
    report = project(cg, oracle)
    assert report.consistent
    assert len(report.images) > 100


def test_project_detects_word_problem_mismatch():
    # accepts every word, so two paths to the same configuration represent
    # different group elements
    report = project(build(all_words_machine(), BuildHorizon()), make_oracle("abelian 1"))
    assert not report.consistent
    violation = report.violations[0]
    assert violation.via_discovery != violation.via_edge


def test_project_requires_generators(quad):
    cg = build(quad, BuildHorizon(max_tree_edges=2))
    with pytest.raises(ValueError):
        project(cg, make_oracle("abelian 1"))


def test_initial_maps_to_identity(zcount):
    oracle = make_oracle("abelian 1")
    cg = build(zcount, BuildHorizon(max_tree_edges=6))
    report = project(cg, oracle)
    assert report.images[0] == oracle.identity


# --- lifting ----------------------------------------------------------------------


def test_lift_aa_ends_at_yxx2(quad):
    result = lift_path(quad, "aa")
    assert result.status == "ok"
    assert vertex_name(result.end) == "yxx2"
    assert [l or "ε" for l in result.labels] == ["ε", "a", "a"]


def test_lift_empty_word_is_trivial(quad):
    result = lift_path(quad, "")
    assert result.status == "ok"
    assert result.labels == []
    assert result.end == Configuration("1", empty_tree())


def test_lift_stuck_reports_position(quad):
    result = lift_path(quad, "ba")
    assert result.status == "stuck"
    assert result.stuck_at == 0


def test_lift_takes_at_most_max_steps_steps(anbn):
    capped = lift_path(anbn, "ab", ResourceCaps(max_steps=1))
    assert (capped.status, capped.labels, capped.consumed) == ("cap_exceeded", ["a"], 1)
    assert [vertex_name(c) for c in capped.configs] == ["ε1", "x2"]
    exact = lift_path(anbn, "ab", ResourceCaps(max_steps=2))
    assert (exact.status, exact.labels) == ("ok", ["a", "b"])
    # no further step exists, so the cap is not what ends the lift
    assert lift_path(anbn, "abb", ResourceCaps(max_steps=2)).status == "stuck"
    assert lift_path(anbn, "ab", ResourceCaps(max_steps=0)).labels == []


def test_lift_stops_once_the_tree_passes_its_cap(anbn):
    # the second `a` pushes a second edge, one over the cap: that step is
    # listed, and the lift stops before the `b`
    capped = lift_path(anbn, "aab", ResourceCaps(max_tree_edges=1))
    assert (capped.status, capped.labels, capped.consumed) == ("cap_exceeded", ["a", "a"], 2)
    assert [vertex_name(c) for c in capped.configs] == ["ε1", "x2", "xx2"]
    assert lift_path(anbn, "aabb", ResourceCaps(max_tree_edges=2)).status == "ok"


def test_lift_raises_on_nondeterminism():
    machine = parse_machine(
        "states: 1 2\nstart: 1\nfinal: 1\ninput: a\nmemory: x y\n"
        "edge: 1 1 push x a\nedge: 1 2 push y a"
    )
    with pytest.raises(NondeterminismDetected):
        lift_path(machine, "a")


def test_lift_prefixes_accepting_run(quad):
    from nestedstack.machine import ACCEPTED, accepts
    from nestedstack.memory_tree import UNDEFINED, apply

    for word in ["abcd", "aabbccdd", "abcdabcd"]:
        result = accepts(quad, word)
        assert result.verdict == ACCEPTED
        tree = empty_tree()
        state = quad.initial
        witness_configs = [Configuration(state, tree)]
        for edge in result.witness.path:
            tree = apply(edge.op, tree)
            assert tree is not UNDEFINED
            witness_configs.append(Configuration(edge.dst, tree))
        lift = lift_path(quad, word)
        assert lift.configs == witness_configs[: len(lift.configs)]


# --- DOT export ----------------------------------------------------------------


def test_export_dot_deterministic_and_named(quad):
    cg1 = build(quad, BuildHorizon(max_tree_edges=4))
    cg2 = build(quad, BuildHorizon(max_tree_edges=4))
    text1, text2 = export_dot(cg1), export_dot(cg2)
    assert text1 == text2
    assert '"yxx2"' in text1


def test_export_dot_single_node():
    machine = parse_machine("states: 1\nstart: 1\nfinal: 1\ninput: a\nmemory: x\n")
    text = export_dot(build(machine, BuildHorizon()))
    assert text.count("->") == 0
    assert '"ε1"' in text
