"""Bounded construction of configuration graphs and their structure checks.

A configuration is a (state, memory tree) pair; edges mirror machine edges
whose operation is defined on the tree.  True accessibility and
co-accessibility would require deciding emptiness, so everything here is
horizon-relative: the build explores breadth-first up to explicit caps and
every report carries that horizon.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import List, NamedTuple, Optional, Set, Tuple

from .graphs import bfs_distances, weighted_path_bound
from .machine import Machine, ResourceCaps, _both_apply, _gc_paused, _run, successors
from .memory_tree import _INDEX, EPSILON, MemoryTree, empty_tree


class Configuration(NamedTuple):
    state: str
    tree: MemoryTree

    def __str__(self):
        return vertex_name(self)


def vertex_name(config: Configuration, style: int = 0) -> str:
    """Display name: for a single-branch tree, the branch word with the
    state id spliced in at the pointer position (so `yx3x` is state 3 on
    branch yxx with the pointer two edges deep); anything else falls back
    to the serialized tree.  A state id longer than one character is put
    in brackets (`y[x1]`), so that it cannot run into the branch letters.
    Style 1 brackets every state id (`x[y]`).  Style 2 also writes state ids
    and memory symbols as Python string literals (`'x'['y']`) and other
    trees by their repr.  `vertex_namer` picks the style for a machine."""
    branch = config.tree.branch_labels()
    state, symbols = _name_tokens(config.state, branch or (), style)
    if branch is None:
        return f"{state}|{config.tree!r}" if style == 2 else f"{state}|{config.tree}"
    if not symbols:
        return f"ε{state}"
    d = config.tree.distinguished
    return "".join(symbols[:d]) + state + "".join(symbols[d:])


def _name_tokens(state: str, symbols, style: int):
    """The state id and the memory symbols as a name in `style` spells them."""
    if style == 2:
        state, symbols = repr(state), [repr(s) for s in symbols]
    return (state if style == 0 and len(state) == 1 else f"[{state}]"), symbols


def vertex_namer(machine: Machine):
    """`vertex_name` in the first style that gives the configurations of
    `machine` distinct names.  Names are strings of tokens (memory symbols,
    one state id, `ε` for the empty tree, `|` before any other tree); when no
    token is a prefix of another, they split into tokens one way only.
    Style 2 always does: a string literal ends at its closing quote."""
    def prefix_free(style):
        tokens = sorted([*machine.memory_alphabet, "ε", "|", *(_name_tokens(q, (), style)[0] for q in machine.states)])
        return not any(b.startswith(a) for a, b in zip(tokens, tokens[1:]))

    style = next(filter(prefix_free, (0, 1)), 2)
    return lambda config: vertex_name(config, style)


class BuildHorizon(NamedTuple):
    max_tree_edges: int = 16
    max_vertices: int = 200_000
    max_depth: Optional[int] = None


class ConfigGraph(NamedTuple):
    """The explored graph.  A configuration's id is its index in `vertices`
    (discovery order, so the initial configuration is 0); `edges` holds
    (src_id, dst_id, letter) triples without repeats, in discovery order;
    `parent[i]` is the (id, letter) step that discovered vertex i (None for
    0); `coaccessible` is a set of ids."""

    machine: Machine
    vertices: List[Configuration]
    edges: List[Tuple[int, int, str]]
    parent: List[Optional[Tuple[int, str]]]
    coaccessible: Set[int]
    horizon: BuildHorizon
    truncated: bool

    def discovery_word(self, v: int) -> Tuple[str, ...]:
        """Non-silent labels along the breadth-first discovery path to id `v`."""
        labels: List[str] = []
        while self.parent[v] is not None:
            v, label = self.parent[v]
            if label != EPSILON:
                labels.append(label)
        labels.reverse()
        return tuple(labels)

    def undirected_adjacency(self) -> List[List[int]]:
        """The neighbour ids of each vertex, ascending, without loops or repeats."""
        adj: List[Set[int]] = [set() for _ in self.vertices]
        for src, dst, _ in self.edges:
            if src != dst:
                adj[src].add(dst)
                adj[dst].add(src)
        return [sorted(ns) for ns in adj]


@_gc_paused
def build(machine: Machine, horizon: BuildHorizon = BuildHorizon()) -> ConfigGraph:
    """Breadth-first exploration from (initial, empty tree) up to the horizon.

    Stored vertices are exactly those reachable within the horizon;
    co-accessibility is backward reachability from explored accepting
    configurations, restricted to the explored graph.  The id map built
    here is the only place configurations are hashed."""
    max_tree_edges, max_vertices, max_depth, new = *horizon, tuple.__new__
    vertices = [Configuration(machine.initial, empty_tree())]
    ids = {vertices[0]: 0}
    parent: List[Optional[Tuple[int, str]]] = [None]
    depth = [0]
    edges: List[Tuple[int, int, str]] = []
    truncated = False

    for v, (state, tree) in enumerate(vertices):  # breadth-first: the loop reaches vertices as they are appended
        if max_depth is not None and depth[v] >= max_depth:
            truncated = True
            continue
        out = []
        for e, t2 in successors(machine, state, tree, None):
            if t2._latest[_INDEX] > max_tree_edges:
                truncated = True
                continue
            nxt = new(Configuration, (e.dst, t2))  # NamedTuple.__new__ is a Python call
            w = ids.setdefault(nxt, len(vertices))  # one hash of nxt, new or not
            if w == len(vertices):
                if w >= max_vertices:
                    del ids[nxt]  # ids maps stored vertices only
                    truncated = True
                    continue
                vertices.append(nxt)
                parent.append((v, e.letter))
                depth.append(depth[v] + 1)
            out.append((v, w, e.letter))
        edges += dict.fromkeys(out)  # every outedge of v arises here, so this drops all repeats

    empty = empty_tree()
    accepting = [i for i, v in enumerate(vertices) if v.state in machine.finals and v.tree == empty]
    back: List[List[int]] = [[] for _ in vertices]
    for src, dst, _ in edges:
        back[dst].append(src)
    coaccessible = set(bfs_distances(back.__getitem__, accepting))

    return ConfigGraph(machine, vertices, edges, parent, coaccessible, horizon, truncated)


class DegreeViolation(NamedTuple):
    config: Configuration
    edges: Tuple[Tuple[Configuration, Configuration, str], ...]


def check_degrees(cg: ConfigGraph) -> Optional[DegreeViolation]:
    """Every explored vertex must either have a single silent outedge and
    nothing else, or no silent outedge and at most one outedge per letter.

    For machines that passed the determinism check this must hold; a
    violation indicates a bug in that check, which is why this
    cross-validation runs on concrete configurations."""
    outs: List[List[Tuple[int, int, str]]] = [[] for _ in cg.vertices]
    for edge in cg.edges:
        outs[edge[0]].append(edge)
    for v, here in enumerate(outs):
        letters = [label for _, _, label in here]
        if (EPSILON in letters and len(here) > 1) or len(letters) != len(set(letters)):
            named = tuple((cg.vertices[a], cg.vertices[b], label) for a, b, label in here)
            return DegreeViolation(cg.vertices[v], named)
    return None


class _UnboundedWithinHorizon:
    def __repr__(self):
        return "UNBOUNDED_WITHIN_HORIZON"


UNBOUNDED_WITHIN_HORIZON = _UnboundedWithinHorizon()


def max_eps_run(cg: ConfigGraph):
    """Longest run of consecutive silent edges in the explored graph, or
    UNBOUNDED_WITHIN_HORIZON when the explored silent subgraph has a cycle."""
    eps_edges = [
        (src, dst, 1, (src, dst)) for src, dst, label in cg.edges if label == EPSILON
    ]
    bound, cycle = weighted_path_bound(eps_edges)
    if cycle is not None:
        return UNBOUNDED_WITHIN_HORIZON
    return bound


class ProjectionViolation(NamedTuple):
    """An explored edge whose group value disagrees with the discovery path
    of its target: two words reaching one configuration with different
    images, evidence that the machine does not accept this group's word
    problem."""

    edge: Tuple[Configuration, Configuration, str]
    via_discovery: Tuple[str, ...]
    via_edge: Tuple[str, ...]
    image_discovery: object
    image_edge: object


class ProjectionReport(NamedTuple):
    images: List[object]  # by configuration id
    violations: List[ProjectionViolation]

    @property
    def consistent(self) -> bool:
        return not self.violations


def project(cg: ConfigGraph, oracle) -> ProjectionReport:
    """Map every explored configuration to the group element spelled by its
    discovery path, then check every explored edge for consistency
    (silent edges must be loops on the image side)."""
    letters = {label for _, _, label in cg.edges if label != EPSILON}
    letters |= set(cg.machine.input_alphabet)
    unknown = letters - set(oracle.generators)
    if unknown:
        raise ValueError(f"machine letters are not group generators: {sorted(unknown)}")

    images: List[object] = [oracle.identity]
    for p, label in cg.parent[1:]:  # discovery order: parents come first
        images.append(images[p] if label == EPSILON else oracle.mult(images[p], label))

    violations: List[ProjectionViolation] = []
    for src, dst, label in cg.edges:
        expected = images[src] if label == EPSILON else oracle.mult(images[src], label)
        if expected != images[dst]:
            via_edge = cg.discovery_word(src) + ((label,) if label != EPSILON else ())
            violations.append(
                ProjectionViolation(
                    edge=(cg.vertices[src], cg.vertices[dst], label),
                    via_discovery=cg.discovery_word(dst),
                    via_edge=via_edge,
                    image_discovery=images[dst],
                    image_edge=expected,
                )
            )
    return ProjectionReport(images=images, violations=violations)


class LiftResult(NamedTuple):
    status: str  # "ok" | "stuck" | "cap_exceeded"
    configs: List[Configuration]
    labels: List[str]
    consumed: int
    stuck_at: Optional[int] = None

    @property
    def end(self) -> Configuration:
        return self.configs[-1]


@_gc_paused
def lift_path(machine: Machine, word, caps: ResourceCaps = ResourceCaps()) -> LiftResult:
    """The unique path of a deterministic machine from the initial
    configuration whose non-silent labels spell `word`, with forced silent
    moves interleaved.  The lift stops right after the last letter, before
    any trailing silent run, and takes at most `caps.max_steps` steps.
    Raises NondeterminismDetected if two continuations apply, also in front
    of the step cap: where two edges apply at the start, a step cap of 0
    raises here (`machine.run_trace` stops with `max_steps`), and a cap of 1
    raises in both."""
    word = tuple(word)
    configs = [Configuration(machine.initial, empty_tree())]
    if not word:
        return LiftResult("ok", configs, [], 0)
    edges, trees, reads, cell = _run(machine, word, len(word), caps)
    consumed = reads[-1] if reads else 0
    configs += map(tuple.__new__, repeat(Configuration), zip(map(attrgetter("dst"), edges), trees))  # NamedTuple.__new__ is a Python call
    labels = list(map(attrgetter("letter"), edges))
    if len(cell) > 1:
        raise _both_apply(*configs[-1], cell)  # the step cap stopped the run in front of two edges
    if cell or trees and trees[-1].edge_count > caps.max_tree_edges:
        return LiftResult("cap_exceeded", configs, labels, consumed)
    if consumed < len(word):
        return LiftResult("stuck", configs, labels, consumed, stuck_at=consumed)
    return LiftResult("ok", configs, labels, consumed)


def dot_quote(text: str) -> str:
    """`text` as a DOT double-quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(cg: ConfigGraph) -> str:
    """Deterministic DOT rendering of the explored configuration graph."""
    name = vertex_namer(cg.machine)
    lines = [
        "digraph config_graph {",
        "  rankdir=LR;",
        f"  // horizon: tree edges <= {cg.horizon.max_tree_edges},"
        f" vertices <= {cg.horizon.max_vertices}, truncated: {str(cg.truncated).lower()}",
    ]
    for i, v in enumerate(cg.vertices):
        attrs = [f"label={dot_quote(name(v))}"]
        if i == 0:
            attrs.append("penwidth=2")
        if i in cg.coaccessible:
            attrs.append('color="blue"')
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for src, dst, label in cg.edges:
        text = label or "ε"
        lines.append(f"  n{src} -> n{dst} [label={dot_quote(text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
