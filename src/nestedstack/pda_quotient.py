"""Pushdown machines (no up/down moves) and the tree quotient of their
configuration graphs.

Two configurations with the same memory tree are identified when an
undirected explored path connects them without ever erasing below that
tree.  The quotient of the explored graph by this relation is checked for
acyclicity; verdicts are horizon-relative, like everything built on the
explored configuration graph.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .config_graph import ConfigGraph, Configuration, dot_quote
from .graphs import bfs_distances, fundamental_cycle
from .machine import Machine


def is_pushdown(machine: Machine) -> bool:
    """True when no edge moves the pointer (no up or down operations); such
    machines keep a single branch with the pointer at its leaf."""
    return all(e.op.kind not in ("up", "down") for e in machine.edges)


def nonerasing_classes(cg: ConfigGraph) -> List[List[int]]:
    """Partition of the explored configuration ids: two configurations with
    tree T merge when an undirected explored path joins them along which
    every tree extends T.  Classes list their ids ascending and are ordered
    by their first id.

    One union-find sweep (Tarjan 1975), deepest configurations first.  A
    pushdown tree is one branch with the pointer at its leaf, so its depth
    is its edge count, and an explored edge changes only its last symbol.
    A path that starts at tree T and never drops below depth |T| therefore
    keeps T as a prefix: the paths the relation allows are exactly those
    within depth >= |T|, and the depth-|T| members of one component of that
    subgraph all have tree T.  So once every edge whose two ends both lie at
    depth >= d is joined, the depth-d configurations under one root form one
    class."""
    if not is_pushdown(cg.machine):
        raise ValueError("tree quotient is defined for pushdown machines only")
    depth = [v.tree.edge_count for v in cg.vertices]
    edges = sorted((min(depth[s], depth[t]), s, t) for s, t, _ in cg.edges)  # popped deepest first
    parent = list(range(len(depth)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    by_root: Dict[Tuple[int, int], List[int]] = {}
    for v in sorted(range(len(depth)), key=depth.__getitem__, reverse=True):  # ids ascend within a depth
        while edges and edges[-1][0] >= depth[v]:
            _, s, t = edges.pop()
            parent[find(s)] = find(t)
        by_root.setdefault((depth[v], find(v)), []).append(v)
    return sorted(by_root.values())  # disjoint classes: by first id


class QuotientGraph(NamedTuple):
    classes: List[List[int]]  # configuration ids
    class_of: List[int]  # the class index of each configuration id
    edges: Set[Tuple[int, int]]  # unordered, stored as (i, j) with i < j
    class_diameters: List[int]
    vertices: List[Configuration]  # the explored configurations, by id


def quotient(cg: ConfigGraph, classes: List[List[int]]) -> QuotientGraph:
    """Simple unoriented graph on the classes: distinct classes are joined
    when any explored edge joins their members; edges inside a class
    project onto its vertex and vanish."""
    class_of = [0] * len(cg.vertices)
    for i, cls in enumerate(classes):
        for v in cls:
            class_of[v] = i
    edges: Set[Tuple[int, int]] = set()
    for src, dst, _ in cg.edges:
        i, j = class_of[src], class_of[dst]
        if i != j:
            edges.add((min(i, j), max(i, j)))

    neighbors = cg.undirected_adjacency().__getitem__
    diameters = []
    for cls in classes:
        worst, r = 0, 1
        if len(cls) > 1:  # a lone member needs no search
            for v in cls:
                dist = bfs_distances(neighbors, [v], max_depth=r)
                while not all(w in dist for w in cls):  # a class is connected, so this ends
                    r *= 2
                    dist = bfs_distances(neighbors, [v], max_depth=r)
                worst = max(worst, max(dist[w] for w in cls))
        diameters.append(worst)
    return QuotientGraph(classes, class_of, edges, diameters, cg.vertices)


def check_tree(q: QuotientGraph) -> Optional[List[int]]:
    """None when the quotient is acyclic (a tree on each explored
    component), otherwise a simple cycle of class indices as witness.

    On a pushdown machine the quotient is always a forest.  On a cycle of
    classes, take a class C of deepest tree T.  An explored edge changes the
    tree by at most its last symbol, and one between two configurations of
    tree T would have put them in one class, so both neighbours of C on the
    cycle have tree P, the parent of T.  Through C their members are joined
    by a path along which every tree extends P, so they are one class, and
    the cycle cannot exist.  A witness here would mean a defect in the
    classes, which is what this check guards against."""
    adjacency: List[List[int]] = [[] for _ in q.classes]
    for i, j in sorted(q.edges):
        adjacency[i].append(j)
        adjacency[j].append(i)
    return fundamental_cycle(adjacency)


def quotient_distortion(q: QuotientGraph) -> int:
    """Largest undirected distance between same-class configurations within
    the horizon: the constant controlling how faithfully the quotient map
    preserves distances."""
    return max(q.class_diameters, default=0)


def quotient_dot(q: QuotientGraph) -> str:
    """Deterministic DOT rendering of the quotient graph."""
    lines = ["graph quotient {", "  rankdir=LR;"]
    for i, cls in enumerate(q.classes):
        states = ",".join(q.vertices[v].state for v in cls)
        tree = str(q.vertices[cls[0]].tree)
        lines.append(f"  c{i} [label={dot_quote(f'[{states}] {tree}')}];")
    for i, j in sorted(q.edges):
        lines.append(f"  c{i} -- c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
