"""Cayley balls, minimum vertex separators, ends counting, and
sample-based quasi-isometry checks over the group oracles of `groups`.

Narrowness, wideness, and one-endedness are properties of infinite graphs.
Every probe here works inside an explicit finite window and says so:
results carry window-relative flags instead of pretending to decide the
infinite-graph property.  Generators always come with formal inverses, so
Cayley graphs are treated as undirected for metric purposes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .graphs import CapExceeded, bfs_distances, bfs_tree
from .groups import (  # re-exported: callers name the oracles through this module too
    DirectProduct, FiniteGroup, FreeAbelianGroup, FreeGroup, GroupOracle, Word, make_oracle, parse_finite_table,
)

# --- Cayley windows -------------------------------------------------------


class WindowCapExceeded(RuntimeError):
    pass


class _CayleyWindowFields(NamedTuple):
    oracle: GroupOracle
    center: object
    radius: int
    dist: Dict[object, int]


class CayleyWindow(_CayleyWindowFields):
    # no __slots__: each window keeps its own neighbour cache in the instance dict

    @cached_property
    def _neighbor_cache(self) -> Dict[object, List[object]]:
        return {}

    @property
    def vertices(self) -> List[object]:
        return list(self.dist)

    @property
    def boundary(self) -> Set[object]:
        return {v for v, d in self.dist.items() if d == self.radius}

    def neighbors(self, v) -> List[object]:
        # memoized: separator searches scan the window many times
        cached = self._neighbor_cache.get(v)
        if cached is None:
            seen: List[object] = []
            for w in self.oracle._neighbors(v):
                if w in self.dist and w not in seen and w != v:
                    seen.append(w)
            self._neighbor_cache[v] = cached = seen
        return cached


def ball(oracle: GroupOracle, center: Word, radius: int, max_vertices: int = 2_000_000) -> CayleyWindow:
    """The metric ball of the given radius in the Cayley graph; edges are
    derived lazily from the oracle."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    c = oracle.canonical(tuple(center))
    try:
        dist = bfs_distances(oracle._neighbors, [c], max_depth=radius, max_vertices=max_vertices)
    except CapExceeded:
        raise WindowCapExceeded(f"ball exceeds {max_vertices} vertices") from None
    return CayleyWindow(oracle, c, radius, dist)


# --- minimum vertex separators -------------------------------------------


class SeparatorReport(NamedTuple):
    cut_size: int
    cut_set: Tuple[object, ...]
    window_limited: bool
    disjoint_paths: Tuple[Tuple[object, ...], ...]
    window_radius: int
    ball_radius: int


_SOURCE = ("source",)
_SINK = ("sink",)


def _vertex_max_flow(neighbors, interior: Set[object], source_side: Set[object], sink_side: Set[object]):
    """Maximum set of vertex-disjoint paths from the source block to the
    sink block through unit-capacity interior vertices.

    Runs augmenting-path max flow on the split graph (each vertex an
    in/out pair joined by a unit arc) without materializing it: residual
    arcs are derived from the current flow, kept as successor/predecessor
    maps.  Returns (flow_value, cut_set, paths); the cut comes from
    residual reachability, the paths from following the final flow."""
    flow_next: Dict[object, object] = {}  # v -> next interior vertex or _SINK
    flow_prev: Dict[object, object] = {}  # v -> previous interior vertex or _SOURCE
    used: Set[object] = set()

    # the source block is small; the sink test is evaluated lazily per vertex
    source_adjacent = sorted(
        {w for v in source_side for w in neighbors(v) if w in interior},
        key=repr,
    )
    sink_side = set(sink_side)

    def sink_adjacent(v):
        return any(w in sink_side for w in neighbors(v))

    def residual_arcs(state):
        """Arcs out of an implicit residual state ("in", v) / ("out", v);
        an out-state next to the sink block has the arc to _SINK alone."""
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
            break  # `prev` is now the residual reachability from the source
        # collect the augmenting path, then apply it to the flow maps
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
    cut = tuple(
        v for v in interior if ("in", v) in reachable and ("out", v) not in reachable
    )

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


def min_separator(
    oracle: GroupOracle,
    center1: Word,
    center2: Word,
    radius: int,
    window_radius: int,
    max_vertices: int = 500_000,
) -> SeparatorReport:
    """Minimum vertex cut separating the two balls inside the window around
    the identity.  The report says when the cut leans on the window
    boundary, in which case a larger window could reveal more paths."""
    if window_radius < 0:
        raise ValueError("window must be non-negative")
    window = ball(oracle, (), window_radius, max_vertices)
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
        if any(w in set2 for w in window.neighbors(v)):
            raise ValueError("balls must be at distance at least 2 apart")

    interior = {v for v in window.dist if v not in set1 and v not in set2}
    flow_value, cut, paths = _vertex_max_flow(window.neighbors, interior, set1, set2)

    if flow_value != len(paths):
        raise RuntimeError("flow decomposition lost a path")
    # removing the cut must disconnect the balls inside the window
    reach = bfs_distances(window.neighbors, set1, blocked=set(cut))
    if not set2.isdisjoint(reach):
        raise RuntimeError("cut fails to separate the balls")

    boundary = window.boundary
    limited = any(
        v in boundary or any(w in boundary for w in window.neighbors(v)) for v in cut
    )
    order = {v: i for i, v in enumerate(window.vertices)}
    return SeparatorReport(
        cut_size=flow_value,
        cut_set=tuple(sorted(cut, key=lambda v: order[v])),
        window_limited=limited,
        disjoint_paths=paths,
        window_radius=window_radius,
        ball_radius=radius,
    )


class ProbeCell(NamedTuple):
    radius: int
    center: Tuple[str, ...]
    report: Optional[SeparatorReport] = None
    error: Optional[str] = None


class ProbeTable(NamedTuple):
    cells: List[ProbeCell]

    def max_cut(self, radius: int) -> Optional[int]:
        sizes = [c.report.cut_size for c in self.cells if c.radius == radius and c.report]
        return max(sizes) if sizes else None

    def trend(self) -> str:
        radii = sorted({c.radius for c in self.cells})
        maxima = [self.max_cut(r) for r in radii]
        if any(m is None for m in maxima) or len(maxima) < 2:
            return "insufficient data"
        if all(b > a for a, b in zip(maxima, maxima[1:])):
            return "increasing"
        if all(b == a for a, b in zip(maxima, maxima[1:])):
            return "constant"
        return "mixed"


def narrowness_probe(
    oracle: GroupOracle,
    radii: Iterable[int],
    centers: Iterable[Word],
    window_radius=None,
) -> ProbeTable:
    """Separator sizes of the ball around the identity against balls at the
    sample centers, across radii.  This is falsifiable evidence about
    narrowness, not a decision: the property quantifies over all but
    finitely many balls and no finite probe can certify that."""
    cells: List[ProbeCell] = []
    radii = sorted(set(radii))
    if radii and radii[0] < 0:
        raise ValueError("radius must be non-negative")
    if isinstance(window_radius, int) and window_radius < 0:
        raise ValueError("window must be non-negative")
    centers = [tuple(c) for c in centers]
    for c in centers:  # a letter that is not a generator raises ValueError
        oracle.canonical(c)
    for r in radii:
        for center in centers:
            if window_radius is None:
                w = oracle.distance((), center) + r + 2
            elif callable(window_radius):
                w = window_radius(r, center)
            else:
                w = window_radius
            try:
                cells.append(ProbeCell(r, center, report=min_separator(oracle, (), center, r, w)))
            except (ValueError, WindowCapExceeded, RuntimeError) as exc:
                cells.append(ProbeCell(r, center, error=str(exc)))
    return ProbeTable(cells)


# --- ends ------------------------------------------------------------------


class EndsReport(NamedTuple):
    radius: int
    window_radius: int
    boundary_components: int
    finite_components: int
    component_sizes: Tuple[int, ...]


def ends_probe(oracle: GroupOracle, radius: int, window_radius: int, max_vertices: int = 500_000) -> EndsReport:
    """Components of the window minus the ball around the identity.
    Components touching the window boundary look unbounded; the others are
    certainly finite."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if window_radius <= radius + 2:
        raise ValueError("window must exceed the removed ball by more than 2")
    window = ball(oracle, (), window_radius, max_vertices)
    removed = {v for v, d in window.dist.items() if d <= radius}
    seen = set(removed)
    components = []
    for start in window.vertices:
        if start not in seen:
            components.append(bfs_distances(window.neighbors, [start], blocked=removed))
            seen.update(components[-1])
    boundary = window.boundary
    finite = sum(boundary.isdisjoint(component) for component in components)
    return EndsReport(
        radius=radius,
        window_radius=window_radius,
        boundary_components=len(components) - finite,
        finite_components=finite,
        component_sizes=tuple(sorted(map(len, components), reverse=True)),
    )


# --- quasi-isometry checking ------------------------------------------------


class QIViolation(NamedTuple):
    kind: str  # "lower", "upper", or "density"
    detail: str


def qi_check(
    source: GroupOracle,
    target: GroupOracle,
    samples: Sequence[Tuple[Word, Word]],
    k: float,
    density_window: Optional[int] = None,
) -> List[QIViolation]:
    """Check the two-sided distortion inequality on every sample pair, and
    (optionally) that k-balls around the images cover the target window."""
    if not 0 < k < float("inf"):
        raise ValueError("the quasi-isometry constant must be positive and finite")
    if density_window is not None and density_window < 0:
        raise ValueError("window must be non-negative")
    samples = [(tuple(x), tuple(y)) for x, y in samples]
    for x, y in samples:  # a letter that is not a generator raises ValueError
        source.canonical(x)
        target.canonical(y)
    violations: List[QIViolation] = []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            x1, y1 = samples[i]
            x2, y2 = samples[j]
            d = source.distance(x1, x2)
            d_image = target.distance(y1, y2)
            lower = d / k - k
            upper = k * d + k
            if d_image < lower:
                violations.append(
                    QIViolation(
                        "lower",
                        f"d({''.join(x1) or 'ε'},{''.join(x2) or 'ε'})={d} but image distance {d_image} < {lower}",
                    )
                )
            if d_image > upper:
                violations.append(
                    QIViolation(
                        "upper",
                        f"d({''.join(x1) or 'ε'},{''.join(x2) or 'ε'})={d} but image distance {d_image} > {upper}",
                    )
                )
    if density_window is not None:
        window = ball(target, (), density_window)
        images = {target.canonical(y) for _, y in samples}
        covered = bfs_distances(window.neighbors, [g for g in images if g in window.dist], max_depth=int(k))
        for v in window.vertices:
            if v not in covered:
                violations.append(
                    QIViolation(
                        "density",
                        f"window vertex {target.describe(v)} is farther than k from every image",
                    )
                )
    return violations
