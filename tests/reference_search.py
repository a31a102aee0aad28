"""The three breadth-first searches of the package, its two deterministic
runs and its determinism check, written again over the tuple tree and the
edge list, as an independent model for differential tests.

Nothing here touches `nestedstack.memory_tree`'s persistent trees, the
step table `Machine.step_table` or the search drivers: successors come
from a scan of the machine's edge list, trees from `tuple_tree.apply`,
and configurations are deduplicated by the tuple tree's own equality.
What is shared with the package is the contract each search documents:
breadth-first order, outedges in machine edge order, where each resource
cap is checked, and the message a run raises when two edges apply.  Trees come back as `(parents, labels,
distinguished)` triples, so results compare with the package's directly.
The determinism check compares edges pair by pair, with `defined_on`
deciding each operation's domain from the two observations that
`Machine.step_table` files edges under.
"""

from __future__ import annotations

from collections import deque

from nestedstack.machine import DeterminismConflict, NondeterminismDetected
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
    """`(vertices, edges, parent, coaccessible, truncated)` as
    `config_graph.build` explores them, vertices as `(state, parents,
    labels, distinguished)`; co-accessibility by a fixpoint over the edges."""
    vertices = [(machine.initial, EMPTY)]
    ids = {vertices[0]: 0}
    depth = [0]
    parent = [None]
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
                parent.append((v, e.letter))
            edge = (v, ids[nxt], e.letter)
            if edge not in edge_set:
                edge_set.add(edge)
                edges.append(edge)
    coaccessible = {i for i, (state, tree) in enumerate(vertices) if state in machine.finals and tree == EMPTY}
    grown = True
    while grown:
        grown = False
        for src, dst, _ in edges:
            if dst in coaccessible and src not in coaccessible:
                coaccessible.add(src)
                grown = True
    return [(state, *plain(tree)) for state, tree in vertices], edges, parent, coaccessible, truncated


def only_step(machine, state, tree, letter):
    """The one `(edge, tree')` a deterministic run takes, or None when no
    edge applies; raises as the package does when two apply."""
    steps = successors(machine, state, tree, letter)
    if len(steps) > 1:
        raise NondeterminismDetected(f"state {state}, tree {tree}: edges {steps[0][0]} and {steps[1][0]} both apply")
    return steps[0] if steps else None


def run_trace(machine, word, caps):
    """`machine.run_trace`'s `Trace` as a tuple, trees as triples."""
    word = tuple(word)
    n, max_steps = len(word), max(caps.max_steps, 0)
    state, tree, pos = machine.initial, EMPTY, 0
    steps, accepted_at = [], [0] if n == 0 and state in machine.finals else []
    step = None
    while len(steps) < max_steps and not (steps and edge_count(tree) > caps.max_tree_edges):
        step = only_step(machine, state, tree, word[pos] if pos < n else EPSILON)
        if step is None:
            break
        e, tree = step
        state, pos = e.dst, pos + (e.letter != EPSILON)
        steps.append((e, plain(tree), pos))
        if pos == n and state in machine.finals and tree == EMPTY:
            accepted_at.append(len(steps))
    if edge_count(tree) > caps.max_tree_edges:
        stopped = "max_tree_edges"
    elif len(steps) == max_steps and successors(machine, state, tree, word[pos] if pos < n else EPSILON):
        stopped = "max_steps"
    else:
        stopped = "halted"
    return word, tuple(steps), pos, state, plain(tree), tuple(accepted_at), stopped


def lift_path(machine, word, caps):
    """`config_graph.lift_path`'s `LiftResult` as a tuple, trees as triples."""
    word = tuple(word)
    state, tree, pos = machine.initial, EMPTY, 0
    configs, labels = [(state, plain(tree))], []
    while pos < len(word):
        step = only_step(machine, state, tree, word[pos])
        if step is None:
            return "stuck", configs, labels, pos, pos
        if len(labels) >= caps.max_steps:
            return "cap_exceeded", configs, labels, pos, None
        e, tree = step
        state, pos = e.dst, pos + (e.letter != EPSILON)
        configs.append((state, plain(tree)))
        labels.append(e.letter)
        if edge_count(tree) > caps.max_tree_edges:
            return "cap_exceeded", configs, labels, pos, None
    return "ok", configs, labels, pos, None


def defined_on(op, symbol, at_leaf):
    """Whether `op` is defined on a tree whose distinguished vertex has the
    given current symbol and leaf status.

    These two observations determine each generator's domain exactly
    (symbol == EPSILON if and only if the distinguished vertex is the root),
    which is what makes the determinism check decidable symbolically.
    """
    if op.kind in ("push", "stay"):
        return True
    if op.kind == "down":
        return symbol == op.symbol  # a real symbol already rules out the root
    if op.kind == "up":
        return symbol == op.symbol and not at_leaf
    return symbol == op.symbol and at_leaf  # pop


def check_deterministic(machine):
    """`machine.check_deterministic`'s answer, pair by pair: two outedges of
    a state compete when their letters are equal or either is silent, and
    the first competing pair, by state and then by position in the machine,
    conflicts at the first symbol (sorted, EPSILON last) and leaf status (at
    a leaf first) where both operations are defined."""
    symbols = sorted(machine.memory_alphabet) + [EPSILON]
    for state in machine.states:
        outs = [e for e in machine.edges if e.src == state]
        for i, e1 in enumerate(outs):
            for e2 in outs[i + 1 :]:
                if e1.letter != e2.letter and EPSILON not in (e1.letter, e2.letter):
                    continue
                for sym in symbols:
                    for at_leaf in (True, False):
                        if defined_on(e1.op, sym, at_leaf) and defined_on(e2.op, sym, at_leaf):
                            return DeterminismConflict(state, e1, e2, sym, at_leaf)
    return None
