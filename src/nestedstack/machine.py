"""Nested stack automata as labeled directed graphs.

Covers the machine file format, bounded acceptance search, language
enumeration, and the determinism / limited-erasing decision procedures.
Acceptance search is three-valued: resource caps are part of the contract,
so a verdict is ACCEPTED, REJECTED (exhaustive search), or CAP_EXCEEDED.
"""

from __future__ import annotations

import gc
from collections import deque
from functools import cached_property, wraps
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .memory_tree import (
    # node fields and the tree constructor the search loops use directly: a property read is a Python call
    _EMPTY, _HASH, _INDEX, _LABEL, _PARENT, _PREV, _SAVED, _tree,
    EPSILON,
    MemoryTree,
    StackOp,
)

Word = Tuple[str, ...]

ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"
CAP_EXCEEDED = "CAP_EXCEEDED"


class MachineError(ValueError):
    """A machine violating its structural invariants."""


class MachineParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


class NondeterminismDetected(RuntimeError):
    """Two continuations applied where a deterministic run was promised."""


class Edge(NamedTuple):
    src: str
    dst: str
    op: StackOp
    letter: str  # EPSILON for silent moves

    def __str__(self):
        letter = self.letter or "eps"
        return f"{self.src} -({self.op}, {letter})-> {self.dst}"


class _MachineFields(NamedTuple):
    states: Tuple[str, ...]
    initial: str
    finals: frozenset
    input_alphabet: frozenset
    memory_alphabet: frozenset
    edges: Tuple[Edge, ...]


class Machine(_MachineFields):
    # no __slots__: the properties below are cached in the instance dict

    def __new__(cls, states, initial, finals, input_alphabet, memory_alphabet, edges):
        state_set = set(states)
        if len(state_set) != len(states):
            raise MachineError("duplicate state id")
        if initial not in state_set:
            raise MachineError(f"initial state {initial!r} not declared")
        for q in finals:
            if q not in state_set:
                raise MachineError(f"final state {q!r} not declared")
        for e in edges:
            if e.src not in state_set or e.dst not in state_set:
                raise MachineError(f"edge endpoint not declared: {e}")
            if e.op.symbol != EPSILON and e.op.symbol not in memory_alphabet:
                raise MachineError(f"edge uses undeclared memory symbol {e.op.symbol!r}")
            if e.letter != EPSILON and e.letter not in input_alphabet:
                raise MachineError(f"edge uses undeclared input letter {e.letter!r}")
        return tuple.__new__(cls, (states, initial, finals, input_alphabet, memory_alphabet, edges))

    @cached_property
    def step_table(self) -> Dict[str, Dict[Optional[str], Dict[Optional[str], Tuple[Tuple[tuple, ...], ...]]]]:
        """Outedges by state and input letter, in machine edge order: row[a]
        holds the edges reading `a` and the silent ones, row[EPSILON] the
        silent ones alone and row[None] all of them.  Each is split by the two
        observations that decide an operation's domain: row[a][s] is a pair,
        the edges defined when the current symbol is s (EPSILON at the root)
        and the distinguished vertex is not the latest one, then when it is.
        A cell holds one flat step record per edge, `(edge, dst, kind,
        symbol, letter)`, so a loop reads a step with one tuple unpack."""
        symbols = (*self.memory_alphabet, EPSILON)
        everywhere = [(s, leaf) for s in symbols for leaf in (0, 1)]
        table = {q: {a: {s: ([], []) for s in symbols} for a in (EPSILON, None)} for q in self.states}
        for e in self.edges:  # an edge's cells follow from its operation alone
            src, dst, (kind, symbol), letter = e
            row, step = table[src], (e, dst, kind, symbol, letter)
            if letter not in row:  # a letter's row starts with the silent edges before its first edge
                row[letter] = {s: (off[:], at[:]) for s, (off, at) in row[EPSILON].items()}
            cells = (everywhere if kind in ("push", "stay") else [(symbol, 0), (symbol, 1)] if kind == "down"
                     else [(symbol, kind == "pop")])
            for a, columns in row.items():
                if letter in (a, EPSILON) or a is None:
                    for s, leaf in cells:
                        columns[s][leaf].append(step)
        return {q: {a: {s: (tuple(off), tuple(at)) for s, (off, at) in columns.items()} for a, columns in row.items()}
                for q, row in table.items()}

    @cached_property
    def deterministic(self) -> bool:
        return check_deterministic(self) is None


# --- machine file format -----------------------------------------------
#
#   states: 1 2 3 4          # one line per section, `#` starts a comment
#   start: 1
#   final: 1
#   input: a b c d
#   memory: x y
#   edge: 1 2 push y eps     # push s | pop s | down s | up s | up eps | stay
#
# `eps` stands for the empty input or the empty up-symbol.  Tokens starting
# with `__` are reserved for generated machines and rejected here.

_SINGLE_SECTIONS = ("states", "start", "final", "input", "memory")


def _check_token(token: str, line_no: int, role: str) -> str:
    if token == "eps":
        raise MachineParseError(line_no, f"'eps' cannot be declared as a {role}")
    if token.startswith("__"):
        raise MachineParseError(
            line_no, f"{role} {token!r} uses the reserved '__' namespace"
        )
    return token


def parse_machine(text: str) -> Machine:
    sections: Dict[str, List[str]] = {}
    section_line: Dict[str, int] = {}
    edge_rows: List[Tuple[int, List[str]]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise MachineParseError(line_no, f"expected 'key: ...', got {line!r}")
        key, _, rest = line.partition(":")
        key = key.strip()
        tokens = rest.split()
        if key == "edge":
            edge_rows.append((line_no, tokens))
        elif key in _SINGLE_SECTIONS:
            if key in sections:
                raise MachineParseError(line_no, f"duplicate section {key!r}")
            sections[key] = tokens
            section_line[key] = line_no
        else:
            raise MachineParseError(line_no, f"unknown section {key!r}")

    for required in ("states", "start"):
        if required not in sections:
            raise MachineParseError(0, f"missing required section {required!r}")

    def declared(key: str, role: str) -> List[str]:
        tokens = sections.get(key, [])
        line_no = section_line.get(key, 0)
        seen = set()
        for t in tokens:
            _check_token(t, line_no, role)
            if t in seen:
                raise MachineParseError(line_no, f"duplicate {role} {t!r}")
            seen.add(t)
        return tokens

    states = declared("states", "state")
    input_alphabet = declared("input", "input letter")
    memory_alphabet = declared("memory", "memory symbol")
    start_tokens = sections["start"]
    if len(start_tokens) != 1:
        raise MachineParseError(section_line["start"], "start takes exactly one state")
    initial = start_tokens[0]
    finals = declared("final", "final state")

    state_set = set(states)
    if initial not in state_set:
        raise MachineParseError(section_line["start"], f"unknown start state {initial!r}")
    for q in finals:
        if q not in state_set:
            raise MachineParseError(section_line["final"], f"unknown final state {q!r}")

    edges: List[Edge] = []
    seen_edges: Set[Edge] = set()
    for line_no, tokens in edge_rows:
        if len(tokens) < 4:
            raise MachineParseError(line_no, "edge needs: SRC DST OP [SYMBOL] INPUT")
        src, dst, kind = tokens[0], tokens[1], tokens[2]
        if src not in state_set:
            raise MachineParseError(line_no, f"unknown state {src!r}")
        if dst not in state_set:
            raise MachineParseError(line_no, f"unknown state {dst!r}")
        if kind == "stay":
            if len(tokens) != 4:
                raise MachineParseError(line_no, "stay takes no memory symbol")
            op = StackOp("stay")
            letter_token = tokens[3]
        else:
            if kind not in ("push", "pop", "down", "up"):
                raise MachineParseError(line_no, f"unknown operation {kind!r}")
            if len(tokens) != 5:
                raise MachineParseError(line_no, f"{kind} needs: SRC DST {kind} SYMBOL INPUT")
            symbol = tokens[3]
            if symbol == "eps":
                if kind != "up":
                    raise MachineParseError(line_no, f"{kind} requires a real memory symbol")
                op = StackOp("up", EPSILON)
            else:
                if symbol not in memory_alphabet:
                    raise MachineParseError(line_no, f"undeclared memory symbol {symbol!r}")
                op = StackOp(kind, symbol)
            letter_token = tokens[4]
        if letter_token == "eps":
            letter = EPSILON
        elif letter_token in input_alphabet:
            letter = letter_token
        else:
            raise MachineParseError(line_no, f"undeclared input letter {letter_token!r}")
        edge = Edge(src, dst, op, letter)
        if edge not in seen_edges:  # identical rows collapse to one edge
            seen_edges.add(edge)
            edges.append(edge)

    return Machine(
        states=tuple(states),
        initial=initial,
        finals=frozenset(finals),
        input_alphabet=frozenset(input_alphabet),
        memory_alphabet=frozenset(memory_alphabet),
        edges=tuple(edges),
    )


def format_machine(machine: Machine) -> str:
    """Render in the machine file format; parse(format(m)) == m."""
    lines = [
        "states: " + " ".join(machine.states),
        "start: " + machine.initial,
        "final: " + " ".join(sorted(machine.finals)),
        "input: " + " ".join(sorted(machine.input_alphabet)),
        "memory: " + " ".join(sorted(machine.memory_alphabet)),
    ]
    for e in machine.edges:
        lines.append(f"edge: {e.src} {e.dst} {e.op} {e.letter or 'eps'}")
    return "\n".join(lines) + "\n"


# --- running machines ---------------------------------------------------


def _gc_paused(run):
    """`run` with the cyclic garbage collector paused for the length of each
    call, and restored on every exit; left alone when the caller had already
    paused it.  For calls that build only acyclic data (nodes point at older
    nodes, trees and configurations at nodes), which reference counting
    frees: there a collection reclaims nothing and only walks it again."""
    @wraps(run)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return run(*args, **kwargs)
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class ResourceCaps(NamedTuple):
    max_steps: int = 10**6
    max_tree_edges: int = 10**4
    max_frontier: int = 10**5


class Computation(NamedTuple):
    """A path from the initial state together with its input word and the
    memory tree it produces."""

    path: Tuple[Edge, ...]
    word: Word
    outcome: MemoryTree


class AcceptResult(NamedTuple):
    verdict: str
    witness: Optional[Computation] = None
    caps_hit: Tuple[str, ...] = ()


def _search(machine: Machine, letters: tuple, goal: Optional[int], caps: ResourceCaps):
    """Breadth-first search over configurations (state, latest, node, tag),
    in machine edge order, with deduplication.  Trees live in an arena
    private to the call, as numbered nodes: node 0 is the root, and a push
    of symbol s onto the tree with latest node l and distinguished node d
    makes the node interned under (l, d, s).  That fixes a node's whole
    creation history, so two trees are equal exactly when their latest and
    distinguished node numbers are, and `latest == 0` is the empty tree.
    A tree's spine (see `MemoryTree`) rides in the queue entry, outside the
    configuration.  With a `goal`, the tag is the position in `letters`
    (the word, then EPSILON), the search stops at the first configuration
    at the goal in a final state with empty memory, and successors over the
    tree cap are pruned.  With none, the tag is the word read,
    `letters[len(tag)]` says what to read next (None: any letter), and the
    first pruned successor ends the search.  Returns the parent map
    (configuration -> (predecessor, edge), None at the start), the goal
    configuration or None, and the caps that fired."""
    counting, finals, table = goal is not None, machine.finals, machine.step_table
    max_steps, max_tree_edges, max_frontier = caps
    advance = {a: 1 if counting else (a,) for a in machine.input_alphabet}
    advance[EPSILON] = 0 if counting else ()
    # node n: the label of its inedge, its parent, the latest node before it,
    # the spine from its parent down to that node, and its tree's edge count
    labels, parents, prevs, saved, sizes, interned = [EPSILON], [0], [0], [None], [0], {}
    start = (machine.initial, 0, 0, 0 if counting else ())
    parent: Dict[tuple, Optional[Tuple[tuple, Edge]]] = {start: None}
    queue = deque([(start, None)])
    pruned, stop, steps = False, None, 0
    while queue:
        if len(queue) > max_frontier:
            stop = "max_frontier"
            break
        cfg, spine = queue.popleft()
        state, latest, node, tag = cfg
        if tag == goal and not latest and state in finals:
            return parent, cfg, ()
        steps += 1
        if steps > max_steps:
            stop = "max_steps"
            break
        room = max_tree_edges - sizes[latest]  # a push needs one more edge, any other step none
        row = table[state]
        cell = row.get(letters[tag if counting else len(tag)], row[EPSILON])[labels[node]][spine is None]
        for e, dst, kind, symbol, letter in cell:  # the branches of `apply`, whose domain tests the table has made
            if room < (kind == "push"):
                pruned = True
                if counting:
                    continue
                queue.clear()  # an enumeration that missed a branch has no answer
                break
            if kind == "push":
                new = len(labels)
                latest2 = node2 = interned.setdefault((latest, node, symbol), new)
                spine2 = None
                if latest2 == new:  # the first push of its kind numbers a node
                    labels.append(symbol)
                    parents.append(node)
                    prevs.append(latest)
                    saved.append(spine)
                    sizes.append(sizes[latest] + 1)
            elif kind == "stay":
                latest2, node2, spine2 = latest, node, spine
            elif kind == "down":
                latest2, node2, spine2 = latest, parents[node], (node, spine)
            elif kind == "up":
                latest2 = latest
                node2, spine2 = spine
            else:  # pop
                latest2, node2, spine2 = prevs[node], parents[node], saved[node]
            nxt = (dst, latest2, node2, tag + advance[letter])
            if parent.setdefault(nxt, link := (cfg, e)) is link:  # one hash of nxt, new or not
                queue.append((nxt, spine2))
    return parent, None, (("max_tree_edges",) if pruned else ()) + ((stop,) if stop else ())


def _explore(machine: Machine, max_tree_edges: int, max_vertices: int, max_depth: Optional[int]):
    """`config_graph.build`'s breadth-first search, in edge order: the (state,
    tree) pairs found, the (src, dst, letter) edges between their indices
    without repeats, the (index, letter) step that found each pair (None for
    the first), and whether a cap cut anything off.  Steps apply inline, as in
    `_run`, and a push of s onto latest node l and distinguished node d is
    interned under (id(l), id(d), s): equal trees share both nodes, so a pair
    is keyed by its state and their ids, and its tree is made once."""
    table, root = machine.step_table, _EMPTY._latest
    found, parent, depth, edges, interned = [(machine.initial, _EMPTY)], [None], [0], [], {}
    ids, truncated = {(machine.initial, id(root), id(root)): 0}, False  # `interned` keeps every id's node alive
    for v, (state, tree) in enumerate(found):  # breadth-first: the loop reaches pairs as they are appended
        if max_depth is not None and depth[v] >= max_depth:
            truncated = True
            continue
        latest, node, spine, out = tree._latest, tree._node, tree._spine, []
        room = max_tree_edges - latest[_INDEX]  # a push needs one more edge, any other step none
        for e, dst, kind, symbol, letter in table[state][None][node[_LABEL]][spine is None]:  # as in `_search`
            if room < (kind == "push"):
                truncated = True
                continue
            latest2, node2, spine2 = latest, node, spine  # stay
            if kind == "push":
                if (new := interned.get(key := (id(latest), id(node), symbol))) is None:  # the first such push
                    i = node[_INDEX]
                    new = interned[key] = (latest[_INDEX] + 1, symbol, i, node, latest, spine, hash((latest[_HASH], i, symbol)))
                latest2, node2, spine2 = new, new, None
            elif kind == "down":
                node2, spine2 = node[_PARENT], (node, spine)
            elif kind == "up":
                node2, spine2 = spine
            elif kind == "pop":
                latest2, node2, spine2 = node[_PREV], node[_PARENT], node[_SAVED]
            if (w := ids.get(key := (dst, id(latest2), id(node2)))) is None:
                if len(found) >= max_vertices:
                    truncated = True
                    continue
                w = ids[key] = len(found)
                found.append((dst, _tree(latest2, node2, spine2, node2[_INDEX])))
                parent.append((v, letter))
                depth.append(depth[v] + 1)
            out.append((v, w, letter))
        edges += dict.fromkeys(out)  # every outedge of v arises here, so this drops all repeats
    return found, edges, parent, truncated


@_gc_paused
def accepts(machine: Machine, word: Iterable[str], caps: ResourceCaps = ResourceCaps()) -> AcceptResult:
    """Breadth-first search over (state, tree, position) with deduplication.

    ACCEPTED comes with a witness computation ending at a final state with
    empty memory.  REJECTED is only reported when the search exhausted the
    frontier without any cap pruning anything; otherwise CAP_EXCEEDED names
    the caps that fired.  On a deterministic machine the search is the run.
    """
    word = tuple(word)
    if machine.deterministic:
        return _accepts_deterministic(machine, word, caps)
    parent, goal, caps_hit = _search(machine, (*word, EPSILON), len(word), caps)
    if goal is not None:
        cfg, path = goal, []
        while (link := parent[cfg]) is not None:
            cfg, e = link
            path.append(e)
        path.reverse()
        return AcceptResult(ACCEPTED, witness=Computation(tuple(path), word, _EMPTY))
    return AcceptResult(CAP_EXCEEDED if caps_hit else REJECTED, caps_hit=caps_hit)


def _accepts_deterministic(machine: Machine, word: Word, caps: ResourceCaps) -> AcceptResult:
    """`accepts` along the unique run, one `step_table` cell per step.  The
    tree lives in the loop as its latest node, distinguished node and spine;
    only a silent step can revisit a configuration, so configurations are
    kept from the first silent step of each stretch on, as (latest, node)
    under the key (state, latest node's hash, distinguished index).  Equal
    trees have equal keys, so a tree is compared only on a key hit."""
    if caps.max_frontier < 1:
        return AcceptResult(CAP_EXCEEDED, caps_hit=("max_frontier",))
    n, finals, max_tree_edges = len(word), machine.finals, caps.max_tree_edges
    if n == 0 and machine.initial in finals:
        return AcceptResult(ACCEPTED, witness=Computation((), word, _EMPTY))
    letters, table, state = (*word, EPSILON), machine.step_table, machine.initial
    latest = node = _EMPTY._latest
    spine, pos, path, seen = None, 0, [], None
    for _ in range(caps.max_steps):
        row = table[state]
        cell = row.get(letters[pos], row[EPSILON])[node[_LABEL]][spine is None]
        if not cell:
            return AcceptResult(REJECTED)
        if len(cell) > 1:
            raise _both_apply(state, _tree(latest, node, spine, node[_INDEX]), cell)
        e, dst, kind, symbol, letter = cell[0]  # the branches of `apply`, whose domain tests the table has made
        if not letter and seen is None:
            seen = {(state, latest[_HASH], node[_INDEX]): (latest, node)}
        if kind == "push":
            v = node[_INDEX]
            latest = node = (latest[_INDEX] + 1, symbol, v, node, latest, spine, hash((latest[_HASH], v, symbol)))
            spine = None
        elif kind == "down":
            node, spine = node[_PARENT], (node, spine)
        elif kind == "up":
            node, spine = spine
        elif kind == "pop":
            latest, node, spine = node[_PREV], node[_PARENT], node[_SAVED]
        if latest[_INDEX] > max_tree_edges:
            return AcceptResult(CAP_EXCEEDED, caps_hit=("max_tree_edges",))
        path.append(e)
        state = dst
        if letter:
            pos += 1
            seen = None
        else:
            key, pair = (state, latest[_HASH], node[_INDEX]), (latest, node)
            while (old := seen.setdefault(key, pair)) is not pair:  # a key hit: the same tree, or a collision
                if _tree(*old, None, old[1][_INDEX]) == _tree(latest, node, None, node[_INDEX]):
                    return AcceptResult(REJECTED)
                key = (key,)  # a collision: probe on, keeping both trees
        if pos == n and state in finals and latest[_INDEX] == 0:
            return AcceptResult(ACCEPTED, witness=Computation(tuple(path), word, _EMPTY))
    return AcceptResult(CAP_EXCEEDED, caps_hit=("max_steps",))  # the search would examine one more configuration


class EnumerationCapExceeded(RuntimeError):
    """Enumeration would be unsound: a resource cap pruned live branches."""


@_gc_paused
def enumerate_accepted(
    machine: Machine, max_len: int, caps: ResourceCaps = ResourceCaps()
) -> Set[Word]:
    """Exactly the accepted words of length <= max_len.

    Searches (state, tree, consumed word) triples; skipping consuming edges
    at the length bound is sound, but any resource cap firing escalates,
    because a pruned search could miss members."""
    parent, _, caps_hit = _search(machine, (None,) * max_len + (EPSILON,), None, caps)
    if caps_hit:
        raise EnumerationCapExceeded(caps_hit[0])
    return {word for state, latest, _, word in parent if not latest and state in machine.finals}


# --- decision procedures -------------------------------------------------


class DeterminismConflict(NamedTuple):
    """Two outedges that compete on some input and whose operation domains
    share a tree (witnessed by a current symbol and leaf status)."""

    state: str
    first: Edge
    second: Edge
    symbol: str
    at_leaf: bool


def check_deterministic(machine: Machine) -> Optional[DeterminismConflict]:
    """None when deterministic, else the first conflicting pair of edges.

    Two outedges conflict exactly when they share a cell of
    `step_table[q][a]` for an input letter `a` (EPSILON included): they
    compete on that input, and both operations are defined on the trees
    with that cell's current symbol and leaf status.  The first conflict is
    taken by state, then by the two edges' positions in the machine, the
    symbol (sorted, EPSILON last) and the leaf status (at a leaf first)."""
    edges, symbols = machine.edges, sorted(machine.memory_alphabet) + [EPSILON]
    for state in machine.states:
        conflicts = []
        for a, cells in machine.step_table[state].items():
            if a is None:  # row[None] mixes letters
                continue
            for rank, s in enumerate(symbols):
                for at_leaf, cell in zip((False, True), cells[s]):
                    if len(cell) > 1:  # in machine order, so its first two edges are its first pair
                        i = edges.index(cell[0][0])
                        j = edges.index(cell[1][0], i + 1)  # a repeated edge is told apart by its position
                        conflicts.append(((i, j, rank, not at_leaf), DeterminismConflict(state, edges[i], edges[j], s, at_leaf)))
        if conflicts:
            return min(conflicts)[1]
    return None


class ErasingReport(NamedTuple):
    bounded: bool
    bound: Optional[int] = None
    cycle: Optional[Tuple[Edge, ...]] = None


def check_limited_erasing(machine: Machine) -> ErasingReport:
    """Bound on pop-edges along silent paths of the machine graph.

    This quantifies over graph paths (ignoring whether the stack could
    actually execute them), which is exactly the property being decided:
    restrict to silent edges, weight pops 1, and either find a cycle
    through a pop or take the max-weight path over the condensation."""
    from .graphs import weighted_path_bound  # the only use of graphs here: loaded on demand

    eps_edges = [
        (e.src, e.dst, 1 if e.op.kind == "pop" else 0, e)
        for e in machine.edges
        if e.letter == EPSILON
    ]
    bound, cycle = weighted_path_bound(eps_edges)
    if cycle is not None:
        return ErasingReport(bounded=False, cycle=tuple(cycle))
    return ErasingReport(bounded=True, bound=bound)


# --- deterministic traces -------------------------------------------------


class TraceStep(NamedTuple):
    edge: Edge
    tree: MemoryTree
    consumed: int


class Trace(NamedTuple):
    word: Word
    steps: Tuple[TraceStep, ...]
    consumed: int
    final_state: str
    final_tree: MemoryTree
    accepted_at: Tuple[int, ...]  # step counts after which (final, empty, done)
    stopped: str  # "halted", "max_steps" or "max_tree_edges"


def _both_apply(state: str, tree: MemoryTree, cell: Tuple[tuple, ...]) -> NondeterminismDetected:
    return NondeterminismDetected(f"state {state}, tree {tree}: edges {cell[0][0]} and {cell[1][0]} both apply")


def _run(machine: Machine, letters: tuple, end: int, caps: ResourceCaps):
    """The unique run of a deterministic machine on `letters`, one
    `step_table` cell per step, applied inline as in `_accepts_deterministic`.
    Returns the edges taken, the tree and the number of letters read after
    each step, and the cell in front of the run: empty at a dead end, and
    untaken at the step cap, where two edges are not checked.  The run also
    stops, returning (), right after a step over the tree cap or a step that
    reads letter number `end` (-1: none)."""
    max_steps, max_tree_edges, table = caps.max_steps, caps.max_tree_edges, machine.step_table
    state, pos, tree, spine, edges, trees, reads = machine.initial, 0, _EMPTY, None, [], [], []
    latest = node = _EMPTY._latest
    while True:
        row = table[state]
        cell = row.get(letters[pos], row[EPSILON])[node[_LABEL]][spine is None]
        if not cell or len(edges) >= max_steps:
            return edges, trees, reads, cell
        if len(cell) > 1:
            raise _both_apply(state, tree, cell)
        e, dst, kind, symbol, letter = cell[0]  # as in `_accepts_deterministic`
        if kind == "push":
            v = node[_INDEX]
            latest = node = (latest[_INDEX] + 1, symbol, v, node, latest, spine, hash((latest[_HASH], v, symbol)))
            spine = None
        elif kind == "down":
            node, spine = node[_PARENT], (node, spine)
        elif kind == "up":
            node, spine = spine
        elif kind == "pop":
            latest, node, spine = node[_PREV], node[_PARENT], node[_SAVED]
        tree, state = _tree(latest, node, spine, node[_INDEX]), dst
        edges.append(e)
        trees.append(tree)
        if letter:
            pos += 1
        reads.append(pos)
        if latest[_INDEX] > max_tree_edges or pos == end:
            return edges, trees, reads, ()


@_gc_paused
def run_trace(machine: Machine, word: Iterable[str], caps: ResourceCaps = ResourceCaps()) -> Trace:
    """The unique maximal computation of a deterministic machine reading a
    prefix of `word`, as a listing of at most `caps.max_steps` steps: each
    step is the edge taken, the tree after it and the number of letters
    consumed so far.  Silent edges fire anywhere; a consuming edge fires on
    the next unread letter.  The run ends when no edge applies, at the step
    cap, or right after the first step whose tree has more than
    `caps.max_tree_edges` edges; `stopped` names the cap that ended it.

    Raises NondeterminismDetected if two continuations apply before the
    step cap ends the run, naming the first two in machine edge order.  The
    cap ends it in front of the next cell, unchecked: where two edges apply
    at the start, a step cap of 0 stops with `max_steps` (there
    `config_graph.lift_path` raises), and a cap of 1 raises in both."""
    word = tuple(word)
    edges, trees, consumed, cell = _run(machine, (*word, EPSILON), -1, caps)
    first = len(consumed) - consumed.count(len(word))  # the steps from here on end with the whole word read
    finals, tree = machine.finals, trees[-1] if trees else _EMPTY
    accepted_at = [0] if not word and machine.initial in finals else []
    accepted_at += [i + 1 for i in range(first, len(edges)) if edges[i].dst in finals and trees[i]._latest[_INDEX] == 0]
    stopped = "max_tree_edges" if tree._latest[_INDEX] > caps.max_tree_edges else "max_steps" if cell else "halted"
    steps = tuple(map(tuple.__new__, repeat(TraceStep), zip(edges, trees, consumed)))  # NamedTuple.__new__ is a Python call
    return Trace(word=word, steps=steps, consumed=consumed[-1] if consumed else 0,
                 final_state=edges[-1].dst if edges else machine.initial, final_tree=tree,
                 accepted_at=tuple(accepted_at), stopped=stopped)
