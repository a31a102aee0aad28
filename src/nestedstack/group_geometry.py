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
from typing import Collection, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

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
    """A ball of the Cayley graph.  Its vertices are numbered by their
    position in `dist`, which is breadth-first order, so the center is 0;
    the searches run on these ids and report group elements."""

    # no __slots__: each window keeps its cached views in the instance dict

    @property
    def boundary(self) -> Set[object]:
        return {v for v, d in self.dist.items() if d == self.radius}

    @cached_property
    def ids(self) -> Dict[object, int]:
        return {v: i for i, v in enumerate(self.dist)}

    @cached_property
    def adjacency(self) -> List[List[int]]:
        """The window neighbours of each id, in generator order, without
        repeats or self-loops."""
        ids = self.ids
        adjacency = []
        for i, v in enumerate(self.dist):
            neighbors: List[int] = []
            for w in self.oracle._neighbors(v):
                j = ids.get(w)
                if j is not None and j != i and j not in neighbors:
                    neighbors.append(j)
            adjacency.append(neighbors)
        return adjacency


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


_END = -1  # the source before a path's first vertex, the sink after its last


def _vertex_max_flow(adjacency: Sequence[List[int]], interior: Collection[int], sources: Sequence[int],
                     sink_side: Collection[int]):
    """Maximum set of vertex-disjoint paths from the source block to the
    sink block through unit-capacity interior vertices.  Vertices are ids
    into `adjacency`; `sources` are the interior vertices next to the
    source block, in the order the searches start from them.

    Runs augmenting-path max flow on the split graph (vertex v an in-state
    2v and an out-state 2v + 1 joined by a unit arc) without materializing
    it: residual arcs are derived from the current flow, kept as
    successor/predecessor maps.  Returns (flow_value, cut_set, paths); the
    cut comes from residual reachability, in id order, and the paths from
    following the final flow."""
    flow_next: Dict[int, int] = {}  # v -> next interior vertex or _END
    flow_prev: Dict[int, int] = {}  # v -> previous interior vertex or _END
    used: Set[int] = set()

    def residual_arcs(state):
        """Arcs out of an implicit residual state; an out-state next to
        the sink block has the arc to the sink (_END) alone."""
        v = state >> 1
        if not state & 1:
            arcs = [] if v in used else [state + 1]
            u = flow_prev.get(v, _END)
            if u != _END:
                arcs.append(2 * u + 1)  # cancel the flow edge u -> v
            return arcs
        if any(w in sink_side for w in adjacency[v]):
            return [_END]
        arcs = [state - 1] if v in used else []  # cancel the unit through v
        arcs += [2 * w for w in adjacency[v] if w in interior]
        return arcs

    flow_value = 0
    while True:
        prev = bfs_tree(residual_arcs, [2 * v for v in sources], stop=_END)
        if _END not in prev:
            break  # `prev` is now the residual reachability from the source
        # collect the augmenting path, then apply it to the flow maps
        states = [_END]
        while prev[states[-1]] is not None:
            states.append(prev[states[-1]])
        states.reverse()
        flow_prev[states[0] >> 1] = _END
        for a, b in zip(states, states[1:]):
            v, w = a >> 1, b >> 1
            if b == _END:
                flow_next[v] = _END
            elif v == w:
                if a < b:
                    used.add(v)
                else:
                    used.discard(v)
            elif a & 1 and not b & 1:  # out-state of v -> in-state of w: flow edge v -> w
                flow_next[v] = w
                flow_prev[w] = v
            else:  # in-state of v -> out-state of w: cancel the flow edge w -> v
                if flow_next.get(w) == v:
                    del flow_next[w]
                if flow_prev.get(v) == w:
                    del flow_prev[v]
        flow_value += 1

    cut = tuple(sorted(s >> 1 for s in prev if not s & 1 and s + 1 not in prev))

    paths = []
    for v in flow_prev:
        if flow_prev[v] == _END:
            path = []
            node = v
            while node != _END:
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
    ids, adjacency = window.ids, window.adjacency
    ball1 = ball(oracle, center1, radius, max_vertices)
    ball2 = ball(oracle, center2, radius, max_vertices)
    for which, b in (("first", ball1), ("second", ball2)):
        if any(v not in ids for v in b.dist):
            raise ValueError(f"window too small to contain the {which} ball")
    set1, set2 = {ids[v] for v in ball1.dist}, {ids[v] for v in ball2.dist}
    if set1 & set2:
        raise ValueError("balls overlap")
    for v in set1:
        if any(w in set2 for w in adjacency[v]):
            raise ValueError("balls must be at distance at least 2 apart")

    names = list(window.dist)
    interior = set(range(len(names))) - set1 - set2
    sources = sorted({w for v in set1 for w in adjacency[v] if w in interior}, key=lambda w: repr(names[w]))
    flow_value, cut, paths = _vertex_max_flow(adjacency, interior, sources, set2)

    if flow_value != len(paths):
        raise RuntimeError("flow decomposition lost a path")
    # removing the cut must disconnect the balls inside the window
    reach = bfs_distances(adjacency.__getitem__, set1, blocked=set(cut))
    if not set2.isdisjoint(reach):
        raise RuntimeError("cut fails to separate the balls")

    boundary = window.boundary
    limited = any(
        names[v] in boundary or any(names[w] in boundary for w in adjacency[v]) for v in cut
    )
    return SeparatorReport(
        cut_size=flow_value,
        cut_set=tuple(names[v] for v in cut),
        window_limited=limited,
        disjoint_paths=tuple(tuple(names[v] for v in path) for path in paths),
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
    window_radius: Optional[int] = None,
) -> ProbeTable:
    """Separator sizes of the ball around the identity against balls at the
    sample centers, across radii.  This is falsifiable evidence about
    narrowness, not a decision: the property quantifies over all but
    finitely many balls and no finite probe can certify that."""
    cells: List[ProbeCell] = []
    radii = sorted(set(radii))
    if radii and radii[0] < 0:
        raise ValueError("radius must be non-negative")
    if window_radius is not None and window_radius < 0:
        raise ValueError("window must be non-negative")
    centers = [tuple(c) for c in centers]
    for c in centers:  # a letter that is not a generator raises ValueError
        oracle.canonical(c)
    for r in radii:
        for center in centers:
            if window_radius is None:
                w = oracle.distance((), center) + r + 2
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
    depths = list(window.dist.values())
    removed = {v for v, d in enumerate(depths) if d <= radius}
    seen = set(removed)
    components = []
    for start in range(len(depths)):
        if start not in seen:
            components.append(bfs_distances(window.adjacency.__getitem__, [start], blocked=removed))
            seen.update(components[-1])
    boundary = {v for v, d in enumerate(depths) if d == window_radius}
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
        ids = window.ids
        images = {target.canonical(y) for _, y in samples}
        covered = bfs_distances(window.adjacency.__getitem__, [ids[g] for g in images if g in ids], max_depth=int(k))
        for v, i in ids.items():
            if i not in covered:
                violations.append(
                    QIViolation(
                        "density",
                        f"window vertex {target.describe(v)} is farther than k from every image",
                    )
                )
    return violations
