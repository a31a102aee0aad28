"""Memory trees and the partial maps ("stack operations") acting on them.

A memory tree is a finite rooted tree with labeled edges, vertices numbered
in creation order, and one distinguished vertex on the path from the root to
the latest vertex.  The creation order is a depth-first order of the tree:
the operations keep it so, but the tuple constructor does not check it.

Stack operations are partial injective maps on memory trees.  Applying an
operation outside its domain yields the UNDEFINED sentinel, not an
exception: partiality here is semantics, not an error condition.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

# The root has no inedge; its "current memory symbol" is the empty word.
# Real edges are never labeled EPSILON.
EPSILON = ""


class _Undefined:
    """Result of applying a stack operation outside its domain."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()

OP_KINDS = ("down", "up", "push", "pop", "stay")


class _StackOpFields(NamedTuple):
    kind: str
    symbol: str = EPSILON


class StackOp(_StackOpFields):
    """A generator of the stack-operation monoid, or the identity `stay`.

    `up` accepts EPSILON as its symbol (meaning: distinguished vertex is the
    root); the other three symbol-carrying kinds require a real symbol.
    """

    __slots__ = ()

    def __new__(cls, kind: str, symbol: str = EPSILON):
        if kind not in OP_KINDS:
            raise ValueError(f"unknown stack operation kind {kind!r}")
        if kind in ("down", "push", "pop") and symbol == EPSILON:
            raise ValueError(f"{kind} requires a non-empty memory symbol")
        if kind == "stay" and symbol != EPSILON:
            raise ValueError("stay takes no symbol")
        return tuple.__new__(cls, (kind, symbol))

    def __str__(self):
        if self.kind == "stay":
            return "stay"
        return f"{self.kind} {self.symbol or 'eps'}"


def down(symbol: str) -> StackOp:
    return StackOp("down", symbol)


def up(symbol: str = EPSILON) -> StackOp:
    return StackOp("up", symbol)


def push(symbol: str) -> StackOp:
    return StackOp("push", symbol)


def pop(symbol: str) -> StackOp:
    return StackOp("pop", symbol)


STAY = StackOp("stay")


# Vertex nodes are plain tuples, immutable and shared by every tree that
# contains the vertex.  `prev` is the vertex created just before, so a
# node is also the whole creation-order history up to it; `saved` is the
# spine (see MemoryTree) from the parent down to `prev` at the moment the
# vertex was pushed, which is exactly what popping it has to restore.
_INDEX, _LABEL, _PARENT_INDEX, _PARENT, _PREV, _SAVED, _HASH = range(7)


def _node(index, label, parent_index, parent, prev, saved):
    h = hash((prev[_HASH] if prev is not None else 0, parent_index, label))
    return (index, label, parent_index, parent, prev, saved, h)


def _path(top, bottom):
    """Linked list `(node, rest)` of the vertices strictly below `top` on
    its path down to `bottom`, nearest to `top` first; None when they
    coincide, or when `top` is no ancestor of `bottom` (invalid trees)."""
    path = None
    node = bottom
    while node is not top:
        if node is None or top is None or node[_INDEX] < top[_INDEX]:
            return None
        path = (node, path)
        node = node[_PARENT]
    return path


def _column(latest, field):
    """One per-vertex field, in creation order, of the tree whose latest node is `latest`."""
    items = []
    while latest is not None:
        items.append(latest[field])
        latest = latest[_PREV]
    return tuple(reversed(items))


class MemoryTree:
    """Rooted labeled tree in creation order with a distinguished vertex.

    `parents[i]` is the parent of vertex i (-1 for the root), `labels[i]`
    the label of its inedge (EPSILON for the root); each read is O(size).
    Vertex len-1 is the latest.  Instances are immutable; operations return
    fresh trees.  The public attributes are read-only properties and
    `__slots__` admits no others; the private slots are written once, in
    `_tree`, by plain stores.

    Internally a tree is the latest vertex node, the distinguished vertex
    node, and the spine: a linked list of the vertices from the child of
    the distinguished vertex down to the latest one.  Trees share nodes, so
    every stack operation and the hash (from the latest node's) are O(1);
    equality walks the two creation histories until they meet at a shared node.
    """

    __slots__ = ("_latest", "_node", "_spine", "_distinguished")

    def __new__(cls, parents=(-1,), labels=(EPSILON,), distinguished: int = 0):
        parents, labels = tuple(parents), tuple(labels)
        if not parents or len(parents) != len(labels):
            raise ValueError("a memory tree needs one parent and one label per vertex")
        nodes = []
        prev = None
        for i, (p, label) in enumerate(zip(parents, labels)):
            parent = nodes[p] if 0 <= p < i else None
            prev = _node(i, label, p, parent, prev, _path(parent, prev))
            nodes.append(prev)
        node = nodes[distinguished] if 0 <= distinguished < len(nodes) else None
        return _tree(prev, node, _path(node, prev), distinguished)

    def __reduce__(self):
        return MemoryTree, (self.parents, self.labels, self._distinguished)

    def __hash__(self):
        return hash((self._latest[_HASH], self._distinguished))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not MemoryTree:
            return NotImplemented
        a, b = self._latest, other._latest
        if a[_HASH] != b[_HASH] or self._distinguished != other._distinguished:
            return False
        while a is not b:  # equal indices all the way, so both reach None together
            if a[:3] != b[:3] or a[_HASH] != b[_HASH]:
                return False
            a, b = a[_PREV], b[_PREV]
        return True

    def __repr__(self):
        return (
            f"MemoryTree(parents={self.parents!r}, "
            f"labels={self.labels!r}, distinguished={self._distinguished!r})"
        )

    @property
    def distinguished(self) -> int:
        return self._distinguished

    @property
    def parents(self) -> Tuple[int, ...]:
        return _column(self._latest, _PARENT_INDEX)

    @property
    def labels(self) -> Tuple[str, ...]:
        return _column(self._latest, _LABEL)

    def __len__(self):
        return self._latest[_INDEX] + 1

    @property
    def edge_count(self) -> int:
        return self._latest[_INDEX]

    @property
    def current_symbol(self) -> str:
        """Label of the inedge to the distinguished vertex; EPSILON at the root."""
        return self._node[_LABEL]

    def branch_labels(self) -> Optional[Tuple[str, ...]]:
        """Edge labels root-to-leaf when the tree is a single branch, else None."""
        labels = []
        node = self._latest
        while node[_INDEX] > 0:
            if node[_PARENT_INDEX] != node[_INDEX] - 1:
                return None
            labels.append(node[_LABEL])
            node = node[_PREV]
        labels.reverse()
        return tuple(labels)

    def __str__(self):
        branch = self.branch_labels()
        if branch is not None:
            word = "".join(branch) or "ε"
            return f"{word}@{self._distinguished}"
        pairs = ",".join(
            f"{p}-{lab}" for p, lab in zip(self.parents[1:], self.labels[1:])
        )
        return f"[{pairs}]@{self._distinguished}"


_new_object = object.__new__


def _tree(latest, node, spine, distinguished):
    tree = _new_object(MemoryTree)
    tree._latest = latest
    tree._node = node
    tree._spine = spine
    tree._distinguished = distinguished
    return tree


_EMPTY = MemoryTree()


def empty_tree() -> MemoryTree:
    """The tree consisting of just the root, which is also distinguished."""
    return _EMPTY


def apply(op: StackOp, tree: MemoryTree):
    """Apply one stack operation to a valid tree.

    Returns the resulting tree, or UNDEFINED when `tree` lies outside the
    operation's domain.
    """
    kind, symbol = op
    node = tree._node
    if kind == "push":
        latest = tree._latest
        index = latest[_INDEX] + 1
        v = node[_INDEX]
        # _node(index, symbol, v, node, latest, tree._spine), inlined: push is the hot path
        new = (index, symbol, v, node, latest, tree._spine, hash((latest[_HASH], v, symbol)))
        return _tree(new, new, None, index)
    if kind == "stay":
        return tree
    if node[_LABEL] != symbol:
        return UNDEFINED
    if kind == "down":
        # down's symbol is never EPSILON, so the label test above already rejected the root
        parent = node[_PARENT]
        return _tree(tree._latest, parent, (node, tree._spine), parent[_INDEX])
    if kind == "up":
        # the head of the spine is the latest child; none means a leaf
        if tree._spine is None:
            return UNDEFINED
        child, rest = tree._spine
        return _tree(tree._latest, child, rest, child[_INDEX])
    # pop: only the latest vertex is a deletable leaf, and its real symbol already rejected the root
    if node is not tree._latest:
        return UNDEFINED
    parent = node[_PARENT]
    return _tree(node[_PREV], parent, node[_SAVED], parent[_INDEX])

