"""Every graph search of the package: breadth-first distances and parent
trees over a neighbours callable (`adj.__getitem__` for a list or dict,
or an implicit graph such as a Cayley graph), strongly connected components,
max-weight paths over edge-weighted digraphs, and fundamental cycles of
undirected graphs."""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Callable, Collection, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

Node = Hashable
Neighbors = Callable[[Node], Iterable[Node]]


class CapExceeded(RuntimeError):
    """A search reached more vertices than its cap allows."""


def strongly_connected_components(
    nodes: Iterable[Node], successors: Dict[Node, List[Node]]
) -> List[List[Node]]:
    """Tarjan's algorithm, iterative.  Components are emitted with all
    descendants of a component appearing before it (reverse topological
    order of the condensation)."""
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []

    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = lowlink[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            succ = successors.get(v, [])
            recurse = False
            while i < len(succ):
                w = succ[i]
                i += 1
                if w not in index:
                    work.append((v, i))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if recurse:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def weighted_path_bound(edges: Sequence[Tuple[Node, Node, int, object]]):
    """Maximum total weight over all directed paths in a digraph.

    Edges are (src, dst, weight, payload) with weights >= 0.  Returns
    (bound, None) when every cycle has total weight zero, otherwise
    (None, cycle_payloads) where the cycle contains a positive-weight edge.
    """
    nodes: Set[Node] = set()
    succ: Dict[Node, List[Node]] = {}
    first: Dict[Tuple[Node, Node], object] = {}  # payload of the first u->v edge
    for u, v, _, payload in edges:
        nodes.update((u, v))
        succ.setdefault(u, []).append(v)
        first.setdefault((u, v), payload)

    components = strongly_connected_components(nodes, succ)
    comp_of = {v: i for i, comp in enumerate(components) for v in comp}

    for u, v, w, payload in edges:
        if w > 0 and comp_of[u] == comp_of[v]:
            # close the cycle by a shortest path from v back to u
            parent = bfs_tree(lambda x: succ.get(x, ()), [v], stop=u)
            path = [u]
            while path[-1] != v:
                path.append(parent[path[-1]])
            path.reverse()
            return None, [payload] + [first[a, b] for a, b in zip(path, path[1:])]

    # condensation is acyclic; components arrive descendants-first, so a
    # single pass computes the best path weight starting in each component
    best = [0] * len(components)
    comp_edges: Dict[int, List[Tuple[int, int]]] = {}
    for u, v, w, _ in edges:
        cu, cv = comp_of[u], comp_of[v]
        if cu != cv:
            comp_edges.setdefault(cu, []).append((cv, w))
    for ci in range(len(components)):
        for cv, w in comp_edges.get(ci, []):
            best[ci] = max(best[ci], w + best[cv])
    return (max(best) if best else 0), None


def fundamental_cycle(adjacency: Sequence[Iterable[int]]) -> Optional[List[int]]:
    """A simple cycle of a loop-free undirected graph as a vertex list, or
    None when the graph is a forest.  The neighbours of vertex i are
    `adjacency[i]`, in any order and possibly repeated.

    Grows a breadth-first tree from each vertex not yet reached and closes
    each non-tree edge, taken once from the endpoint reached first, through
    the lowest common ancestor; the longest such cycle is returned, which
    gives informative witnesses on grid-like graphs."""
    parent: Dict[int, Optional[int]] = {}
    for root in range(len(adjacency)):
        if root not in parent:
            parent.update(bfs_tree(adjacency.__getitem__, [root]))
    rank = {v: i for i, v in enumerate(parent)}  # a parent ranks before its children

    best: Optional[List[int]] = None
    for v in parent:
        for w in adjacency[v]:
            if rank[v] >= rank[w] or parent[w] == v:
                continue
            left, right = [v], [w]
            while left[-1] != right[-1]:  # the later-reached end is never the LCA: lift it
                later = left if rank[left[-1]] > rank[right[-1]] else right
                later.append(parent[later[-1]])
            cycle = left + right[-2::-1]  # meet at the LCA once
            if best is None or len(cycle) > len(best):
                best = cycle
    return best


def bfs_distances(
    neighbors: Neighbors,
    sources: Iterable[Node],
    blocked: Collection[Node] = (),
    max_depth: Optional[int] = None,
    max_vertices: Optional[int] = None,
) -> Dict[Node, int]:
    """Unweighted distances from the nearest source, in discovery order.
    Blocked vertices are never entered, vertices at `max_depth` are not
    expanded, and CapExceeded is raised once more than `max_vertices`
    vertices are reached."""
    depth_limit = inf if max_depth is None else max_depth
    size_limit = inf if max_vertices is None else max_vertices
    dist = {s: 0 for s in sources if s not in blocked}
    queue = deque(dist)
    while queue:
        if len(dist) > size_limit:  # every reached vertex is queued, so this sees each growth
            raise CapExceeded(f"search exceeds {max_vertices} vertices")
        v = queue.popleft()
        d = dist[v] + 1
        if d > depth_limit:
            continue
        for w in neighbors(v):
            if w not in dist and w not in blocked:
                dist[w] = d
                queue.append(w)
    return dist


def bfs_tree(neighbors: Neighbors, sources: Iterable[Node], stop: Optional[Node] = None) -> Dict[Node, Optional[Node]]:
    """Breadth-first parent map: sources map to None, every other vertex
    reached to the vertex that discovered it.  The search ends as soon as
    `stop` is reached, so a path to it is read off by following parents."""
    parent: Dict[Node, Optional[Node]] = dict.fromkeys(sources)
    if stop in parent:
        return parent
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        for w in neighbors(v):
            if w not in parent:
                parent[w] = v
                if w == stop:
                    return parent
                queue.append(w)
    return parent
