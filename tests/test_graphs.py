"""The searches in `nestedstack.graphs` against `networkx`, on random
digraphs: breadth-first distances with blocked vertices, depth and size
caps; breadth-first parent trees with an early stop; the max-weight path
bound with its positive-cycle witness, also on chains of dense blocks with
int or str vertices; and, on random undirected graphs, the fundamental
cycle."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from nestedstack.graphs import CapExceeded, bfs_distances, bfs_tree, fundamental_cycle, weighted_path_bound

nx = pytest.importorskip("networkx")


@st.composite
def digraphs(draw, max_vertices=9):
    """(n, edges): vertices 0..n-1 and a list of arcs, loops and parallel
    arcs included."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))


def successors(n, edges):
    succ = {v: [] for v in range(n)}
    for u, v in edges:
        succ[u].append(v)
    return succ


@st.composite
def block_chains(draw, max_blocks=5, max_block=8):
    """(n, arcs, inner): vertices 0..n-1 in up to 5 blocks of up to 8, each
    block closed by a ring and given random arcs inside, and random arcs
    from each block to the next, so the condensation has non-trivial
    components along a path.  `inner` is the set of arc positions inside a
    block."""
    sizes = draw(st.lists(st.integers(1, max_block), min_size=1, max_size=max_blocks))
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    arcs, inner = [], set()
    for i, size in enumerate(sizes):
        block = st.integers(starts[i], starts[i] + size - 1)
        ring = [(starts[i] + j, starts[i] + (j + 1) % size) for j in range(size)]
        inside = ring + draw(st.lists(st.tuples(block, block), max_size=2 * size))
        inner.update(range(len(arcs), len(arcs) + len(inside)))
        arcs += inside
        if i + 1 < len(sizes):
            later = st.integers(starts[i + 1], starts[i + 2] - 1)
            arcs += draw(st.lists(st.tuples(block, later), min_size=1, max_size=3))
    order = draw(st.permutations(range(len(arcs))))
    return starts[-1], [arcs[i] for i in order], {k for k, i in enumerate(order) if i in inner}


def to_networkx(vertices, edges):
    graph = nx.DiGraph()
    graph.add_nodes_from(vertices)
    graph.add_edges_from(edges)
    return graph


@settings(max_examples=300, deadline=None)
@given(
    graph=digraphs(),
    data=st.data(),
    max_depth=st.one_of(st.none(), st.integers(0, 4)),
)
def test_bfs_distances_match_networkx(graph, data, max_depth):
    n, edges = graph
    vertices = st.sets(st.integers(0, n - 1))
    sources, blocked = data.draw(vertices), data.draw(vertices)
    dist = bfs_distances(successors(n, edges).__getitem__, sorted(sources), blocked, max_depth)

    open_graph = to_networkx(range(n), edges).subgraph(set(range(n)) - blocked)
    starts = sources - blocked
    want = nx.multi_source_dijkstra_path_length(open_graph, starts, cutoff=max_depth) if starts else {}
    assert dist == want
    assert list(dist.values()) == sorted(dist.values())  # discovery order

    for cap in range(n + 1):
        if len(want) > cap:
            with pytest.raises(CapExceeded):
                bfs_distances(successors(n, edges).__getitem__, sorted(sources), blocked, max_depth, cap)
        else:
            assert bfs_distances(successors(n, edges).__getitem__, sorted(sources), blocked, max_depth, cap) == want


@settings(max_examples=300, deadline=None)
@given(graph=digraphs(), data=st.data())
def test_bfs_tree_parents_are_one_step_closer(graph, data):
    n, edges = graph
    sources = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    stop = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    succ = successors(n, edges)
    parent = bfs_tree(succ.__getitem__, sorted(sources), stop)
    dist = nx.multi_source_dijkstra_path_length(to_networkx(range(n), edges), sources)

    for v, p in parent.items():
        if p is None:
            assert v in sources
        else:
            assert v in succ[p] and dist[v] == dist[p] + 1
    if stop is None or stop not in dist:
        assert set(parent) == set(dist)
    else:
        # the search ends on reaching `stop`: nothing farther was found
        assert stop in parent
        assert all(dist[v] <= dist[stop] for v in parent)


def assert_bound_matches_networkx(vertices, edges):
    """`weighted_path_bound` on (u, v, weight, index) edges against the
    networkx condensation: the longest path when no positive edge lies in
    a strongly connected component, otherwise a witness that starts at the
    first such edge in edge order and returns along a shortest path."""
    bound, cycle = weighted_path_bound(edges)

    g = to_networkx(vertices, [e[:2] for e in edges])
    condensed = nx.condensation(g)
    comp = condensed.graph["mapping"]
    closing = [e for e in edges if e[2] > 0 and comp[e[0]] == comp[e[1]]]
    if closing:
        assert bound is None
        # a closed walk along real edges that starts with the first closing
        # edge and returns along a shortest path
        steps = [edges[i] for i in cycle]
        assert steps[0] == closing[0]
        assert all(a[1] == b[0] for a, b in zip(steps, steps[1:] + steps[:1]))
        assert len(steps) - 1 == nx.shortest_path_length(g, steps[0][1], steps[0][0])
    else:
        assert cycle is None
        for a, b in condensed.edges:
            condensed.edges[a, b]["weight"] = max(w for u, v, w, _ in edges if (comp[u], comp[v]) == (a, b))
        assert bound == nx.dag_longest_path_length(condensed, weight="weight")


@settings(max_examples=300, deadline=None)
@given(graph=digraphs(), data=st.data())
def test_weighted_path_bound_matches_networkx(graph, data):
    n, arcs = graph
    weights = data.draw(st.lists(st.integers(0, 2), min_size=len(arcs), max_size=len(arcs)))
    assert_bound_matches_networkx(range(n), [(u, v, w, i) for i, ((u, v), w) in enumerate(zip(arcs, weights))])


@pytest.mark.parametrize("label", [int, "q{}".format], ids=["int", "str"])
@settings(max_examples=200, deadline=None)
@given(graph=block_chains(), data=st.data())
def test_weighted_path_bound_matches_networkx_on_chains_of_blocks(label, graph, data):
    # arcs inside a block all weigh zero in about half the draws, so the
    # bound is also checked over non-trivial components
    n, arcs, inner = graph
    weight = st.integers(0, 2)
    inner_weight = weight if data.draw(st.booleans()) else st.just(0)
    weights = [data.draw(inner_weight if i in inner else weight) for i in range(len(arcs))]
    edges = [(label(u), label(v), w, i) for i, ((u, v), w) in enumerate(zip(arcs, weights))]
    assert_bound_matches_networkx([label(v) for v in range(n)], edges)


def test_positive_cycle_closes_in_linear_time():
    # one weight-1 edge on a ring: the cycle is the whole ring
    n = 16_000
    ring = [(i, (i + 1) % n, 1 if i == 0 else 0, i) for i in range(n)]
    start = time.perf_counter()
    bound, cycle = weighted_path_bound(ring)
    assert time.perf_counter() - start < 2.0
    assert bound is None and cycle == list(range(n))


def test_bound_counts_the_positive_arcs_along_a_chain_of_components():
    # 8000 silent two-vertex cycles in a row, each joined to the next by a
    # weight-1 arc, in shuffled edge order
    pairs = 8_000
    edges = [(2 * i + a, 2 * i + 1 - a, 0, None) for i in range(pairs) for a in (0, 1)]
    edges += [(2 * i + 1, 2 * i + 2, 1, None) for i in range(pairs - 1)]
    random.Random(0).shuffle(edges)
    assert weighted_path_bound(edges) == (pairs - 1, None)


@settings(max_examples=300, deadline=None)
@given(graph=digraphs(max_vertices=10), data=st.data())
def test_fundamental_cycle_matches_networkx(graph, data):
    # neighbour lists hold each edge from both ends, shuffled, some repeated
    n, arcs = graph
    edges = {frozenset(arc) for arc in arcs if arc[0] != arc[1]}
    adjacency = [[] for _ in range(n)]
    for u, v in map(tuple, edges):
        adjacency[u] += [v] * data.draw(st.integers(1, 2))
        adjacency[v] += [u] * data.draw(st.integers(1, 2))
    adjacency = [data.draw(st.permutations(ns)) for ns in adjacency]
    cycle = fundamental_cycle(adjacency)

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges))
    if nx.is_forest(g):
        assert cycle is None
    else:
        assert cycle is not None and len(cycle) >= 3 and len(set(cycle)) == len(cycle)
        assert all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))  # the closing step too
