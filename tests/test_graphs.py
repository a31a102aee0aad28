"""The searches in `nestedstack.graphs` against `networkx`, on random
digraphs: breadth-first distances with blocked vertices, depth and size
caps; breadth-first parent trees with an early stop; the max-weight path
bound with its positive-cycle witness; and, on random undirected graphs,
the fundamental cycle."""

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


def to_networkx(n, edges):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
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

    open_graph = to_networkx(n, edges).subgraph(set(range(n)) - blocked)
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
    dist = nx.multi_source_dijkstra_path_length(to_networkx(n, edges), sources)

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


@settings(max_examples=300, deadline=None)
@given(graph=digraphs(), data=st.data())
def test_weighted_path_bound_matches_networkx(graph, data):
    n, arcs = graph
    weights = data.draw(st.lists(st.integers(0, 2), min_size=len(arcs), max_size=len(arcs)))
    edges = [(u, v, w, i) for i, ((u, v), w) in enumerate(zip(arcs, weights))]
    bound, cycle = weighted_path_bound(edges)

    g = to_networkx(n, arcs)
    condensed = nx.condensation(g)
    comp = condensed.graph["mapping"]
    if any(w > 0 and comp[u] == comp[v] for u, v, w, _ in edges):
        assert bound is None
        # a closed walk along real edges that starts with a positive edge
        # and returns along a shortest path
        steps = [edges[i] for i in cycle]
        assert steps[0][2] > 0
        assert all(a[1] == b[0] for a, b in zip(steps, steps[1:] + steps[:1]))
        assert len(steps) - 1 == nx.shortest_path_length(g, steps[0][1], steps[0][0])
    else:
        assert cycle is None
        for a, b in condensed.edges:
            condensed.edges[a, b]["weight"] = max(w for u, v, w, _ in edges if (comp[u], comp[v]) == (a, b))
        assert bound == nx.dag_longest_path_length(condensed, weight="weight")


def test_positive_cycle_closes_in_linear_time():
    # one weight-1 edge on a ring: the cycle is the whole ring
    n = 16_000
    ring = [(i, (i + 1) % n, 1 if i == 0 else 0, i) for i in range(n)]
    start = time.perf_counter()
    bound, cycle = weighted_path_bound(ring)
    assert time.perf_counter() - start < 2.0
    assert bound is None and cycle == list(range(n))


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
