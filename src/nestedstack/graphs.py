"""Every graph search of the package: breadth-first distances and parent
trees over a neighbours callable (`adj.__getitem__` for a list or dict,
or an implicit graph such as a Cayley graph), max-weight paths over
edge-weighted digraphs on a pass over their strongly connected components,
and fundamental cycles of undirected graphs."""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Callable, Collection, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

Node = Hashable
Neighbors = Callable[[Node], Iterable[Node]]


class CapExceeded(RuntimeError):
    """A search reached more vertices than its cap allows."""


def weighted_path_bound(edges: Sequence[Tuple[Node, Node, int, object]]):
    """Maximum total weight over all directed paths in a digraph.

    Edges are (src, dst, weight, payload) with weights >= 0.  Returns
    (bound, None) when every cycle has total weight zero, otherwise
    (None, cycle_payloads): the first positive edge, in edge order, whose
    ends share a strongly connected component, then a shortest path back.
    """
    succ: Dict[Node, List[Node]] = {}
    pred: Dict[Node, List[Node]] = {}
    first: Dict[Tuple[Node, Node], object] = {}  # payload of the first u->v edge
    for u, v, _, payload in edges:
        succ.setdefault(u, []).append(v)
        pred.setdefault(v, []).append(u)
        first.setdefault((u, v), payload)

    # Kosaraju: a depth-first pass over successors records the finishing order ...
    finished: List[Node] = []
    seen: Set[Node] = set()
    work = [(None, iter(succ))]  # a virtual root with an arc to every vertex that starts an edge
    while work:
        v, out = work[-1]
        for w in out:
            if w not in seen:
                seen.add(w)
                work.append((w, iter(succ.get(w, ()))))
                break
        else:
            finished.append(work.pop()[0])
    finished.pop()  # the virtual root, finished last
    # ... then each root, latest finished first, collects its component over
    # predecessors; components come numbered in topological order
    comp_of: Dict[Node, int] = {}
    count = 0
    for root in reversed(finished):
        if root not in comp_of:
            comp_of.update(dict.fromkeys(bfs_distances(lambda x: pred.get(x, ()), [root], blocked=comp_of), count))
            count += 1

    for u, v, w, payload in edges:
        if w > 0 and comp_of[u] == comp_of[v]:
            # close the cycle by a shortest path from v back to u
            parent = bfs_tree(lambda x: succ.get(x, ()), [v], stop=u)
            path = [u]
            while path[-1] != v:
                path.append(parent[path[-1]])
            path.reverse()
            return None, [payload] + [first[a, b] for a, b in zip(path, path[1:])]

    # every edge leads to the same or a later component, and inside one all
    # weigh zero: edges taken from the last component back give each its best path
    best = [0] * count
    for cu, cv, w in sorted(((comp_of[u], comp_of[v], w) for u, v, w, _ in edges), reverse=True):
        best[cu] = max(best[cu], w + best[cv])
    return max(best, default=0), None


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
