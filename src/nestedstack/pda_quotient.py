"""Pushdown machines (no up/down moves) and the tree quotient of their
configuration graphs.

Two configurations with the same memory tree are identified when an
undirected explored path connects them without ever erasing below that
tree.  The quotient of the explored graph by this relation is checked for
acyclicity; verdicts are horizon-relative, like everything built on the
explored configuration graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .config_graph import ConfigGraph, Configuration
from .graphs import bfs_distances, fundamental_cycle
from .machine import Machine
from .memory_tree import MemoryTree


def is_pushdown(machine: Machine) -> bool:
    """True when no edge moves the pointer (no up or down operations); such
    machines keep a single branch with the pointer at its leaf."""
    return all(e.op.kind not in ("up", "down") for e in machine.edges)


def _branch(tree: MemoryTree) -> Tuple[str, ...]:
    labels = tree.branch_labels()
    if labels is None:
        raise ValueError("pushdown configuration has a branching memory tree")
    return labels


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def nonerasing_classes(cg: ConfigGraph) -> List[List[Configuration]]:
    """Partition of the explored configurations: two configurations with
    tree T merge when an undirected explored path joins them along which
    every tree extends T.

    Computed directly per tree value by filtered connectivity; the explored
    graph is the semantics here, so no symbolic shortcut is taken."""
    if not is_pushdown(cg.machine):
        raise ValueError("tree quotient is defined for pushdown machines only")
    by_branch: Dict[Tuple[str, ...], List[Configuration]] = {}
    for v in cg.vertices:
        by_branch.setdefault(_branch(v.tree), []).append(v)

    undirected = cg.undirected_adjacency()
    uf = _UnionFind(cg.vertices)
    for branch, members in by_branch.items():
        if len(members) < 2:
            continue
        k = len(branch)
        allowed = {v for v in cg.vertices if _branch(v.tree)[:k] == branch}
        seen: Set[Configuration] = set()
        for start in members:
            if start in seen:
                continue
            component = [start]
            seen.add(start)
            stack = [start]
            while stack:
                x = stack.pop()
                for y in undirected[x]:
                    if y in allowed and y not in seen:
                        seen.add(y)
                        stack.append(y)
                        component.append(y)
            reps = [v for v in component if v in members]
            for other in reps[1:]:
                uf.union(reps[0], other)

    groups: Dict[Configuration, List[Configuration]] = {}
    for v in cg.vertices:
        groups.setdefault(uf.find(v), []).append(v)
    order = {v: i for i, v in enumerate(cg.vertices)}
    classes = sorted(groups.values(), key=lambda c: min(order[v] for v in c))
    for cls in classes:
        cls.sort(key=lambda v: order[v])
    return classes


@dataclass
class QuotientGraph:
    classes: List[List[Configuration]]
    class_of: Dict[Configuration, int]
    edges: Set[Tuple[int, int]]  # unordered, stored as (i, j) with i < j
    class_diameters: List[int]


def quotient(cg: ConfigGraph, classes: List[List[Configuration]]) -> QuotientGraph:
    """Simple unoriented graph on the classes: distinct classes are joined
    when any explored edge joins their members; edges inside a class
    project onto its vertex and vanish."""
    class_of = {v: i for i, cls in enumerate(classes) for v in cls}
    edges: Set[Tuple[int, int]] = set()
    for src, dst, _ in cg.edges:
        i, j = class_of[src], class_of[dst]
        if i != j:
            edges.add((min(i, j), max(i, j)))

    undirected = cg.undirected_adjacency()
    diameters = []
    for cls in classes:
        if len(cls) == 1:
            diameters.append(0)
            continue
        worst = 0
        targets = set(cls)
        for v in cls:
            dist = bfs_distances(undirected, [v])
            worst = max(worst, max(dist.get(w, 0) for w in targets))
        diameters.append(worst)
    return QuotientGraph(classes, class_of, edges, diameters)


def check_tree(q: QuotientGraph) -> Optional[List[int]]:
    """None when the quotient is acyclic (a tree on each explored
    component), otherwise a simple cycle of class indices as witness."""
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(q.classes))}
    for i, j in q.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
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
        states = ",".join(v.state for v in cls)
        tree = str(cls[0].tree)
        lines.append(f'  c{i} [label="[{states}] {tree}"];')
    for i, j in sorted(q.edges):
        lines.append(f"  c{i} -- c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
