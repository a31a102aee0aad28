"""The three breadth-first searches of the package, written again over the
tuple tree, as an independent model for differential tests.

Nothing here touches `nestedstack.memory_tree`'s persistent trees, the
successor table `Machine.moves` or the search drivers: successors come
from a scan of the machine's edge list, trees from `tuple_tree.apply`,
and configurations are deduplicated by the tuple tree's own equality.
What is shared with the package is the contract each search documents:
breadth-first order, outedges in machine edge order, and where each
resource cap is checked.  Trees come back as `(parents, labels,
distinguished)` triples, so results compare with the package's directly.
"""

from __future__ import annotations

from collections import deque

from nestedstack.memory_tree import EPSILON, UNDEFINED

import tuple_tree
from tuple_tree import TupleTree

EMPTY = TupleTree()


def plain(tree):
    """A tuple tree or a memory tree as a `(parents, labels, distinguished)` triple."""
    return tuple(tree.parents), tuple(tree.labels), tree.distinguished


def successors(machine, state, tree, letter):
    """Outedges of `state` reading `letter` or silent (all for None), in
    edge order, with the trees their operations give where defined."""
    out = []
    for e in machine.edges:
        if e.src == state and (letter is None or e.letter in (letter, EPSILON)):
            t2 = tuple_tree.apply(e.op, tree)
            if t2 is not UNDEFINED:
                out.append((e, t2))
    return out


def edge_count(tree):
    return len(tree.parents) - 1


def accepts(machine, word, caps):
    """`(verdict, witness edges or None, caps_hit)` as `machine.accepts` reports them."""
    word = tuple(word)
    start = (machine.initial, EMPTY, 0)
    parent = {start: None}
    queue = deque([start])
    caps_hit = []
    steps = 0
    while queue:
        if len(queue) > caps.max_frontier:
            caps_hit.append("max_frontier")
            break
        cfg = queue.popleft()
        state, tree, pos = cfg
        if pos == len(word) and state in machine.finals and tree == EMPTY:
            path = []
            while parent[cfg] is not None:
                cfg, e = parent[cfg]
                path.append(e)
            return "ACCEPTED", tuple(reversed(path)), ()
        steps += 1
        if steps > caps.max_steps:
            caps_hit.append("max_steps")
            break
        letter = word[pos] if pos < len(word) else EPSILON
        for e, t2 in successors(machine, state, tree, letter):
            if edge_count(t2) > caps.max_tree_edges:
                if "max_tree_edges" not in caps_hit:
                    caps_hit.append("max_tree_edges")
                continue
            nxt = (e.dst, t2, pos if e.letter == EPSILON else pos + 1)
            if nxt not in parent:
                parent[nxt] = (cfg, e)
                queue.append(nxt)
    return ("CAP_EXCEEDED" if caps_hit else "REJECTED"), None, tuple(caps_hit)


def enumerate_accepted(machine, max_len, caps):
    """The accepted words of length <= max_len, or the name of the first
    cap that fired (where `machine.enumerate_accepted` raises)."""
    start = (machine.initial, EMPTY, ())
    seen = {start}
    queue = deque([start])
    found = set()
    steps = 0
    while queue:
        if len(queue) > caps.max_frontier:
            return "max_frontier"
        state, tree, word = queue.popleft()
        if state in machine.finals and tree == EMPTY:
            found.add(word)
        steps += 1
        if steps > caps.max_steps:
            return "max_steps"
        letter = None if len(word) < max_len else EPSILON
        for e, t2 in successors(machine, state, tree, letter):
            if edge_count(t2) > caps.max_tree_edges:
                return "max_tree_edges"
            nxt = (e.dst, t2, word if e.letter == EPSILON else word + (e.letter,))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return found


def build(machine, horizon):
    """`(vertices, edges, truncated)` as `config_graph.build` explores them,
    vertices as `(state, parents, labels, distinguished)`."""
    vertices = [(machine.initial, EMPTY)]
    ids = {vertices[0]: 0}
    depth = [0]
    edges = []
    edge_set = set()
    truncated = False
    for v, (state, tree) in enumerate(vertices):  # reaches vertices as they are appended
        if horizon.max_depth is not None and depth[v] >= horizon.max_depth:
            truncated = True
            continue
        for e, t2 in successors(machine, state, tree, None):
            if edge_count(t2) > horizon.max_tree_edges:
                truncated = True
                continue
            nxt = (e.dst, t2)
            if nxt not in ids:
                if len(vertices) >= horizon.max_vertices:
                    truncated = True
                    continue
                ids[nxt] = len(vertices)
                vertices.append(nxt)
                depth.append(depth[v] + 1)
            edge = (v, ids[nxt], e.letter)
            if edge not in edge_set:
                edge_set.add(edge)
                edges.append(edge)
    return [(state, *plain(tree)) for state, tree in vertices], edges, truncated
