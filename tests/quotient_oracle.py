"""The tree-quotient classes as computed before `nonerasing_classes` used
one breadth-first search per class: a filtered depth-first search per
branch, merged by a union-find.  Kept unchanged as a differential oracle
for the classes `nestedstack.pda_quotient.nonerasing_classes` returns.
It works on configurations; ids are translated only on the way in and out."""

from typing import Dict, List, Set, Tuple

from nestedstack.config_graph import ConfigGraph, Configuration
from nestedstack.pda_quotient import _branch, is_pushdown


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


def nonerasing_classes(cg: ConfigGraph) -> List[List[int]]:
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

    undirected = {cg.vertices[i]: [cg.vertices[j] for j in ns] for i, ns in enumerate(cg.undirected_adjacency())}
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
    return [sorted(order[v] for v in cls) for cls in classes]
