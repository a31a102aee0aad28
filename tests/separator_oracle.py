"""The element-keyed separator, ends and density searches, kept as
differential oracles for `nestedstack.group_geometry`, which runs them on
integer vertex ids.  The algorithms are the ones the package ran before;
only the neighbour memo moved from a window method into a closure:

- `window_neighbors`: a window's neighbour lists by group element,
  memoised per window, in generator order without repeats or loops;
- `vertex_max_flow`: augmenting-path max flow on the split graph over
  tagged states `("in", g)` / `("out", g)` and two sentinel states;
- `min_separator`, `ends_probe`: the reports computed over elements;
- `density_violations`: the part of `qi_check` that covers the target
  window with k-balls around the images."""

from typing import Dict, List, Set

from nestedstack.graphs import bfs_distances, bfs_tree
from nestedstack.group_geometry import EndsReport, QIViolation, SeparatorReport, ball


def window_neighbors(window):
    """The neighbours callable of a window, over group elements."""
    cache: Dict[object, List[object]] = {}

    def neighbors(v) -> List[object]:
        cached = cache.get(v)
        if cached is None:
            seen: List[object] = []
            for w in window.oracle._neighbors(v):
                if w in window.dist and w not in seen and w != v:
                    seen.append(w)
            cache[v] = cached = seen
        return cached

    return neighbors


_SOURCE = ("source",)
_SINK = ("sink",)


def vertex_max_flow(neighbors, interior: Set[object], source_side: Set[object], sink_side: Set[object]):
    """Maximum set of vertex-disjoint paths from the source block to the
    sink block through unit-capacity interior vertices, as
    (flow_value, cut_set, paths); the cut is in `interior`'s order."""
    flow_next: Dict[object, object] = {}  # v -> next interior vertex or _SINK
    flow_prev: Dict[object, object] = {}  # v -> previous interior vertex or _SOURCE
    used: Set[object] = set()

    source_adjacent = sorted(
        {w for v in source_side for w in neighbors(v) if w in interior},
        key=repr,
    )
    sink_side = set(sink_side)

    def sink_adjacent(v):
        return any(w in sink_side for w in neighbors(v))

    def residual_arcs(state):
        kind, v = state
        if kind == "in":
            arcs = [] if v in used else [("out", v)]
            u = flow_prev.get(v)
            if u is not None and u is not _SOURCE:
                arcs.append(("out", u))  # cancel the flow edge u -> v
            return arcs
        if sink_adjacent(v):
            return [_SINK]
        arcs = [("in", v)] if v in used else []  # cancel the unit through v
        arcs += [("in", w) for w in neighbors(v) if w in interior]
        return arcs

    sources = [("in", v) for v in source_adjacent]
    flow_value = 0
    while True:
        prev = bfs_tree(residual_arcs, sources, stop=_SINK)
        if _SINK not in prev:
            break
        states = [_SINK]
        while prev[states[-1]] is not None:
            states.append(prev[states[-1]])
        states.reverse()
        flow_prev[states[0][1]] = _SOURCE
        for a, b in zip(states, states[1:]):
            if b is _SINK:
                flow_next[a[1]] = _SINK
            elif a[1] == b[1]:
                if a[0] == "in":
                    used.add(a[1])
                else:
                    used.discard(a[1])
            elif a[0] == "out" and b[0] == "in":
                flow_next[a[1]] = b[1]
                flow_prev[b[1]] = a[1]
            else:  # ("in", w) -> ("out", v): cancel the flow edge v -> w
                v, w = b[1], a[1]
                if flow_next.get(v) == w:
                    del flow_next[v]
                if flow_prev.get(w) == v:
                    del flow_prev[w]
        flow_value += 1

    reachable = prev
    cut = tuple(v for v in interior if ("in", v) in reachable and ("out", v) not in reachable)

    paths = []
    for v in flow_prev:
        if flow_prev[v] is _SOURCE:
            path = []
            node = v
            while node is not _SINK:
                path.append(node)
                node = flow_next[node]
            paths.append(tuple(path))
    return flow_value, cut, tuple(paths)


def min_separator(oracle, center1, center2, radius, window_radius, max_vertices=500_000) -> SeparatorReport:
    if window_radius < 0:
        raise ValueError("window must be non-negative")
    window = ball(oracle, (), window_radius, max_vertices)
    neighbors = window_neighbors(window)
    ball1 = ball(oracle, center1, radius, max_vertices)
    ball2 = ball(oracle, center2, radius, max_vertices)
    for which, b in (("first", ball1), ("second", ball2)):
        outside = [v for v in b.dist if v not in window.dist]
        if outside:
            raise ValueError(f"window too small to contain the {which} ball")
    set1, set2 = set(ball1.dist), set(ball2.dist)
    if set1 & set2:
        raise ValueError("balls overlap")
    for v in set1:
        if any(w in set2 for w in neighbors(v)):
            raise ValueError("balls must be at distance at least 2 apart")

    interior = {v for v in window.dist if v not in set1 and v not in set2}
    flow_value, cut, paths = vertex_max_flow(neighbors, interior, set1, set2)

    if flow_value != len(paths):
        raise RuntimeError("flow decomposition lost a path")
    reach = bfs_distances(neighbors, set1, blocked=set(cut))
    if not set2.isdisjoint(reach):
        raise RuntimeError("cut fails to separate the balls")

    boundary = {v for v, d in window.dist.items() if d == window_radius}
    limited = any(v in boundary or any(w in boundary for w in neighbors(v)) for v in cut)
    order = {v: i for i, v in enumerate(window.dist)}
    return SeparatorReport(
        cut_size=flow_value,
        cut_set=tuple(sorted(cut, key=lambda v: order[v])),
        window_limited=limited,
        disjoint_paths=paths,
        window_radius=window_radius,
        ball_radius=radius,
    )


def ends_probe(oracle, radius, window_radius, max_vertices=500_000) -> EndsReport:
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if window_radius <= radius + 2:
        raise ValueError("window must exceed the removed ball by more than 2")
    window = ball(oracle, (), window_radius, max_vertices)
    neighbors = window_neighbors(window)
    removed = {v for v, d in window.dist.items() if d <= radius}
    seen = set(removed)
    components = []
    for start in window.dist:
        if start not in seen:
            components.append(bfs_distances(neighbors, [start], blocked=removed))
            seen.update(components[-1])
    boundary = {v for v, d in window.dist.items() if d == window_radius}
    finite = sum(boundary.isdisjoint(component) for component in components)
    return EndsReport(
        radius=radius,
        window_radius=window_radius,
        boundary_components=len(components) - finite,
        finite_components=finite,
        component_sizes=tuple(sorted(map(len, components), reverse=True)),
    )


def density_violations(target, samples, k, density_window) -> List[QIViolation]:
    """The density violations `qi_check` appends after the pairwise ones."""
    window = ball(target, (), density_window)
    images = {target.canonical(tuple(y)) for _, y in samples}
    covered = bfs_distances(window_neighbors(window), [g for g in images if g in window.dist], max_depth=int(k))
    return [
        QIViolation("density", f"window vertex {target.describe(v)} is farther than k from every image")
        for v in window.dist
        if v not in covered
    ]
