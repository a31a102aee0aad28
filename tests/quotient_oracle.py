"""Two earlier computations of the tree-quotient classes, and the earlier
quotient, kept unchanged as differential oracles for
`nestedstack.pda_quotient`:

- `union_find_classes`: a filtered depth-first search per branch, merged by
  a union-find over configurations;
- `per_branch_classes`: one breadth-first search per class, filtered to the
  configurations whose branch extends the class's branch;
- `full_search_quotient`: the quotient with class diameters from one
  full-graph breadth-first search per member of every class."""

from typing import Dict, List, Set, Tuple

from nestedstack.config_graph import ConfigGraph, Configuration
from nestedstack.graphs import bfs_distances
from nestedstack.memory_tree import MemoryTree
from nestedstack.pda_quotient import QuotientGraph, is_pushdown


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


def union_find_classes(cg: ConfigGraph) -> List[List[int]]:
    """Partition of the explored configurations: two configurations with
    tree T merge when an undirected explored path joins them along which
    every tree extends T.

    Computed directly per tree value by filtered connectivity; the explored
    graph is the semantics here, so no symbolic shortcut is taken.  It works
    on configurations; ids are translated only on the way in and out."""
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


def per_branch_classes(cg: ConfigGraph) -> List[List[int]]:
    """The same partition by one filtered breadth-first search per class.
    Within a branch the relation is already transitive, so each filtered
    component holds exactly one class: the members of its branch that it
    reaches."""
    if not is_pushdown(cg.machine):
        raise ValueError("tree quotient is defined for pushdown machines only")
    branch_of = [_branch(v.tree) for v in cg.vertices]
    by_branch: Dict[Tuple[str, ...], List[int]] = {}
    for v, branch in enumerate(branch_of):
        by_branch.setdefault(branch, []).append(v)

    undirected = cg.undirected_adjacency()
    classes: List[List[int]] = []
    for branch, members in by_branch.items():
        if len(members) < 2:
            classes.append(members)
            continue
        k = len(branch)
        blocked = {v for v, b in enumerate(branch_of) if b[:k] != branch}
        placed: Set[int] = set()
        for start in members:
            if start not in placed:
                reached = bfs_distances(undirected.__getitem__, [start], blocked)
                cls = sorted(v for v in reached if branch_of[v] == branch)
                placed.update(cls)
                classes.append(cls)
    classes.sort()  # disjoint classes: by first id
    return classes


def full_search_quotient(cg: ConfigGraph, classes: List[List[int]]) -> QuotientGraph:
    """The quotient graph on the classes, with each class diameter the
    largest full-graph distance between two of its members."""
    class_of = [0] * len(cg.vertices)
    for i, cls in enumerate(classes):
        for v in cls:
            class_of[v] = i
    edges: Set[Tuple[int, int]] = set()
    for src, dst, _ in cg.edges:
        i, j = class_of[src], class_of[dst]
        if i != j:
            edges.add((min(i, j), max(i, j)))

    undirected = cg.undirected_adjacency()
    diameters = []
    for cls in classes:
        worst = 0
        if len(cls) > 1:  # a lone member needs no search
            for v in cls:
                dist = bfs_distances(undirected.__getitem__, [v])
                worst = max(worst, max(dist.get(w, 0) for w in cls))
        diameters.append(worst)
    return QuotientGraph(classes, class_of, edges, diameters, cg.vertices)
