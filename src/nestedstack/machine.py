"""Nested stack automata as labeled directed graphs.

Covers the machine file format, bounded acceptance search, language
enumeration, and the determinism / limited-erasing decision procedures.
Acceptance search is three-valued: resource caps are part of the contract,
so a verdict is ACCEPTED, REJECTED (exhaustive search), or CAP_EXCEEDED.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import islice
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from .memory_tree import (
    _INDEX, _LABEL,  # node fields the search loops read directly: a property read is a Python call
    EPSILON,
    UNDEFINED,
    MemoryTree,
    StackOp,
    apply,
    defined_on,
    empty_tree,
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
    def moves(self) -> Dict[str, Dict[Optional[str], Tuple[Edge, ...]]]:
        """Outedges by state and then by input letter, in machine edge order:
        row[a] holds the edges reading `a` and the silent ones, row[EPSILON]
        the silent ones alone and row[None] all of them."""
        outs: Dict[str, List[Edge]] = {q: [] for q in self.states}
        for e in self.edges:
            outs[e.src].append(e)
        table = {}
        for q, edges in outs.items():
            letters = {e.letter for e in edges} | {EPSILON}
            row = {a: tuple(e for e in edges if e.letter in (a, EPSILON)) for a in letters}
            row[None] = tuple(edges)
            table[q] = row
        return table

    @cached_property
    def moves_by_symbol(self) -> Dict[str, Dict[Optional[str], Dict[Optional[str], Tuple[Edge, ...]]]]:
        """`moves` split by the tree's current symbol s (EPSILON at the root):
        row[a][s] keeps the edges of row[a] whose operation can be defined
        there; row[a][None], the push and stay edges, serves other symbols."""
        symbols = (*self.memory_alphabet, EPSILON, None)
        return {q: {a: {s: tuple(e for e in edges if e.op.kind in ("push", "stay") or e.op.symbol == s)
                        for s in symbols} for a, edges in row.items()} for q, row in self.moves.items()}

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
        op = e.op
        if op.kind == "stay":
            op_part = "stay"
        else:
            op_part = f"{op.kind} {op.symbol or 'eps'}"
        lines.append(f"edge: {e.src} {e.dst} {op_part} {e.letter or 'eps'}")
    return "\n".join(lines) + "\n"


def parse_word(text: str) -> Word:
    """A word from CLI text: whitespace-separated tokens, or one letter per
    character when there is no whitespace."""
    if text.split() != [text]:
        return tuple(text.split())
    return tuple(text)


# --- running machines ---------------------------------------------------


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


def successors(
    machine: Machine, state: str, tree: MemoryTree, letter: Optional[str]
) -> List[Tuple[Edge, MemoryTree]]:
    """The one-step successor relation: `(edge, tree')` for every outedge of
    `state` that reads `letter` or is silent (every outedge when `letter` is
    None) and whose operation is defined on `tree`, in machine edge order.
    A letter that no outedge reads selects the silent edges alone."""
    row = machine.moves_by_symbol[state]
    cells = row.get(letter, row[EPSILON])
    out = []
    for e in cells.get(tree._node[_LABEL], cells[None]):
        t2 = apply(e.op, tree)
        if t2 is not UNDEFINED:
            out.append((e, t2))
    return out


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
    n, empty = len(word), empty_tree()
    max_steps, max_tree_edges, max_frontier = caps.max_steps, caps.max_tree_edges, caps.max_frontier
    start = (machine.initial, empty, 0)
    parent: Dict[tuple, Optional[Tuple[tuple, Edge]]] = {start: None}
    queue = deque([start])
    pruned = False  # max_tree_edges cut off a successor
    stop = None  # the cap that ended the search, after any pruning
    steps = 0

    goal = None
    while queue:
        if len(queue) > max_frontier:
            stop = "max_frontier"
            break
        state, tree, pos = cfg = queue.popleft()
        if pos == n and state in machine.finals and tree == empty:
            goal = cfg
            break
        steps += 1
        if steps > max_steps:
            stop = "max_steps"
            break
        for e, t2 in successors(machine, state, tree, word[pos] if pos < n else EPSILON):
            if t2._latest[_INDEX] > max_tree_edges:
                pruned = True
                continue
            nxt = (e.dst, t2, pos if e.letter == EPSILON else pos + 1)
            if parent.setdefault(nxt, link := (cfg, e)) is link:  # one hash of nxt, new or not
                queue.append(nxt)

    if goal is not None:
        cfg, path = goal, []
        while (link := parent[cfg]) is not None:
            cfg, e = link
            path.append(e)
        path.reverse()
        witness = Computation(tuple(path), word, goal[1])
        return AcceptResult(ACCEPTED, witness=witness)
    caps_hit = (("max_tree_edges",) if pruned else ()) + ((stop,) if stop else ())
    if caps_hit:
        return AcceptResult(CAP_EXCEEDED, caps_hit=caps_hit)
    return AcceptResult(REJECTED)


def _accepts_deterministic(machine: Machine, word: Word, caps: ResourceCaps) -> AcceptResult:
    """`accepts` along `deterministic_run`.  Only a silent step can revisit a
    configuration, so configurations are kept from the first silent step on."""
    if caps.max_frontier < 1:
        return AcceptResult(CAP_EXCEEDED, caps_hit=("max_frontier",))
    n, finals, empty, max_tree_edges = len(word), machine.finals, empty_tree(), caps.max_tree_edges
    if n == 0 and machine.initial in finals:
        return AcceptResult(ACCEPTED, witness=Computation((), word, empty))
    state, tree, path, seen = machine.initial, empty, [], None
    for e, t2, pos in islice(deterministic_run(machine, word, max_tree_edges), max(caps.max_steps, 0)):
        if t2._latest[_INDEX] > max_tree_edges:
            return AcceptResult(CAP_EXCEEDED, caps_hit=("max_tree_edges",))
        if e.letter != EPSILON:
            seen = None
        else:
            seen = seen or {(state, tree)}
            size = len(seen)
            seen.add((e.dst, t2))  # one hash of the new configuration, new or not
            if len(seen) == size:
                return AcceptResult(REJECTED)
        path.append(e)
        state, tree = e.dst, t2
        if pos == n and state in finals and tree == empty:
            return AcceptResult(ACCEPTED, witness=Computation(tuple(path), word, tree))
    if len(path) >= caps.max_steps:  # the search would examine one more configuration
        return AcceptResult(CAP_EXCEEDED, caps_hit=("max_steps",))
    return AcceptResult(REJECTED)


class EnumerationCapExceeded(RuntimeError):
    """Enumeration would be unsound: a resource cap pruned live branches."""


def enumerate_accepted(
    machine: Machine, max_len: int, caps: ResourceCaps = ResourceCaps()
) -> Set[Word]:
    """Exactly the accepted words of length <= max_len.

    Searches (state, tree, consumed word) triples; skipping consuming edges
    at the length bound is sound, but any resource cap firing escalates,
    because a pruned search could miss members."""
    empty, finals = empty_tree(), machine.finals
    max_steps, max_tree_edges, max_frontier = caps.max_steps, caps.max_tree_edges, caps.max_frontier
    start = (machine.initial, empty, ())
    seen = {start}
    queue = deque([start])
    found: Set[Word] = set()
    steps = 0
    while queue:
        if len(queue) > max_frontier:
            raise EnumerationCapExceeded("max_frontier")
        state, tree, word = queue.popleft()
        if state in finals and tree == empty:
            found.add(word)
        steps += 1
        if steps > max_steps:
            raise EnumerationCapExceeded("max_steps")
        letter = None if len(word) < max_len else EPSILON
        for e, t2 in successors(machine, state, tree, letter):
            if t2._latest[_INDEX] > max_tree_edges:
                raise EnumerationCapExceeded("max_tree_edges")
            nxt = (e.dst, t2, word if e.letter == EPSILON else word + (e.letter,))
            size = len(seen)
            seen.add(nxt)  # one hash of nxt, new or not
            if len(seen) > size:
                queue.append(nxt)
    return found


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

    Edges compete when their input letters are equal or either is silent.
    A conflict needs both operation domains satisfied at once; domains are
    determined by the current symbol and leaf status alone, so we enumerate
    those combinations over the machine's finite memory alphabet."""
    symbols = sorted(machine.memory_alphabet) + [EPSILON]
    for state in machine.states:
        outs = machine.moves[state][None]
        for i, e1 in enumerate(outs):
            for e2 in outs[i + 1 :]:
                if e1.letter != e2.letter and EPSILON not in (e1.letter, e2.letter):
                    continue
                for sym in symbols:
                    for at_leaf in (True, False):
                        if defined_on(e1.op, sym, at_leaf) and defined_on(
                            e2.op, sym, at_leaf
                        ):
                            return DeterminismConflict(state, e1, e2, sym, at_leaf)
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


def deterministic_run(
    machine: Machine, word: Iterable[str], max_tree_edges: int
) -> Iterator[Tuple[Edge, MemoryTree, int]]:
    """The unique maximal computation of a deterministic machine reading a
    prefix of `word`, one step at a time: each step is the edge taken, the
    tree after it and the number of letters consumed so far.  Silent edges
    fire anywhere; a consuming edge fires on the next unread letter.  The
    run ends when no edge applies, or right after the first step whose tree
    has more than `max_tree_edges` edges.

    Raises NondeterminismDetected if two continuations ever apply, naming
    the first two in machine edge order."""
    letters = (*word, EPSILON)  # the letter read at each position; EPSILON once all are read
    moves, state, tree, pos = machine.moves_by_symbol, machine.initial, empty_tree(), 0
    while True:
        row = moves[state]
        taken = None
        for e in row.get(letters[pos], row[EPSILON])[tree._node[_LABEL]]:
            t2 = apply(e.op, tree)
            if t2 is not UNDEFINED:
                if taken is not None:
                    raise NondeterminismDetected(f"state {state}, tree {tree}: edges {taken} and {e} both apply")
                taken, nxt = e, t2
        if taken is None:
            return
        state, tree = taken.dst, nxt
        if taken.letter != EPSILON:
            pos += 1
        yield taken, tree, pos
        if tree._latest[_INDEX] > max_tree_edges:
            return


def run_trace(machine: Machine, word: Iterable[str], caps: ResourceCaps = ResourceCaps()) -> Trace:
    """The deterministic run on `word` (see `deterministic_run`) as a
    step-by-step listing of at most `caps.max_steps` steps; `stopped` names
    the cap that ended it, if any."""
    word = tuple(word)
    n, finals, empty, new = len(word), machine.finals, empty_tree(), tuple.__new__
    max_steps, max_tree_edges = max(caps.max_steps, 0), caps.max_tree_edges  # a negative cap acts as 0
    state, tree, pos = machine.initial, empty, 0
    steps: List[TraceStep] = []
    accepted_at = [0] if not word and state in finals else []
    for step in islice(deterministic_run(machine, word, max_tree_edges), max_steps):
        e, tree, pos = step
        state = e.dst
        steps.append(new(TraceStep, step))  # NamedTuple.__new__ is a Python call
        if pos == n and state in finals and tree == empty:
            accepted_at.append(len(steps))
    if tree._latest[_INDEX] > max_tree_edges:
        stopped = "max_tree_edges"
    elif len(steps) == max_steps and successors(  # a run halting right at the cap is "halted"
            machine, state, tree, word[pos] if pos < n else EPSILON):
        stopped = "max_steps"
    else:
        stopped = "halted"
    return Trace(word=word, steps=tuple(steps), consumed=pos, final_state=state, final_tree=tree,
                 accepted_at=tuple(accepted_at), stopped=stopped)
