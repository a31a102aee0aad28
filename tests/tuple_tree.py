"""The original tuple-based memory tree, kept as a test oracle.

A tree is a pair of tuples (parent and inedge label per vertex, in
creation order) plus the distinguished vertex index.  Every operation
copies or scans the tuples, so it costs O(tree size); it is simple enough
to check by eye, which is what makes it a useful reference for the
persistent representation in `nestedstack.memory_tree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from nestedstack.memory_tree import EPSILON, UNDEFINED, StackOp


@dataclass(frozen=True)
class TupleTree:
    parents: Tuple[int, ...] = (-1,)
    labels: Tuple[str, ...] = (EPSILON,)
    distinguished: int = 0

    def children(self, v: int) -> List[int]:
        return [i for i, p in enumerate(self.parents) if p == v]

    def spine(self) -> List[int]:
        path = []
        v = len(self.parents) - 1
        while v != -1:
            path.append(v)
            v = self.parents[v]
        path.reverse()
        return path

    def branch_labels(self) -> Optional[Tuple[str, ...]]:
        if any(self.parents[i] != i - 1 for i in range(1, len(self.parents))):
            return None
        return self.labels[1:]

    def __str__(self):
        branch = self.branch_labels()
        if branch is not None:
            word = "".join(branch) or "ε"
            return f"{word}@{self.distinguished}"
        pairs = ",".join(
            f"{p}-{lab}" for p, lab in zip(self.parents[1:], self.labels[1:])
        )
        return f"[{pairs}]@{self.distinguished}"


def apply(op: StackOp, tree: TupleTree):
    v = tree.distinguished
    cur = tree.labels[v]
    kind = op.kind
    if kind == "stay":
        return tree
    if kind == "push":
        return TupleTree(
            tree.parents + (v,), tree.labels + (op.symbol,), len(tree.parents)
        )
    if kind == "down":
        if v == 0 or cur != op.symbol:
            return UNDEFINED
        return TupleTree(tree.parents, tree.labels, tree.parents[v])
    if kind == "up":
        if cur != op.symbol:
            return UNDEFINED
        kids = tree.children(v)
        if not kids:
            return UNDEFINED
        return TupleTree(tree.parents, tree.labels, max(kids))
    if v != len(tree.parents) - 1 or v == 0 or cur != op.symbol:
        return UNDEFINED
    return TupleTree(tree.parents[:-1], tree.labels[:-1], tree.parents[v])


def validate(tree: TupleTree) -> List[str]:
    out = []
    n = len(tree.parents)
    if n == 0 or len(tree.labels) != n:
        return ["malformed: parents/labels length mismatch or no root"]
    if tree.parents[0] != -1:
        out.append("root must have parent -1")
    if tree.labels[0] != EPSILON:
        out.append("root must have an empty inedge label")
    for i in range(1, n):
        if not 0 <= tree.parents[i] < i:
            out.append(f"vertex {i}: parent must be an earlier vertex")
        if tree.labels[i] == EPSILON:
            out.append(f"vertex {i}: real edges need a non-empty label")
    if out:
        return out
    children = [[] for _ in range(n)]
    for i in range(1, n):
        children[tree.parents[i]].append(i)
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    if order != list(range(n)):
        out.append("creation order is not a depth-first order of the tree")
    if not 0 <= tree.distinguished < n:
        out.append("distinguished vertex out of range")
    elif tree.distinguished not in tree.spine():
        out.append("distinguished vertex off the root-to-latest path")
    return out
