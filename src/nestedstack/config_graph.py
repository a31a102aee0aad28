"""Bounded construction of configuration graphs and their structure checks.

A configuration is a (state, memory tree) pair; edges mirror machine edges
whose operation is defined on the tree.  True accessibility and
co-accessibility would require deciding emptiness, so everything here is
horizon-relative: the build explores breadth-first up to explicit caps and
every report carries that horizon.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .graphs import bfs_distances, weighted_path_bound
from .machine import Machine, ResourceCaps, deterministic_run, successors
from .memory_tree import EPSILON, MemoryTree, empty_tree


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
    machine: Machine
    initial: Configuration
    vertices: List[Configuration]  # discovery order
    edges: List[Tuple[Configuration, Configuration, str]]
    discovery: Dict[Configuration, Optional[Tuple[Configuration, str]]]
    coaccessible: Set[Configuration]
    horizon: BuildHorizon
    truncated: bool

    def discovery_word(self, config: Configuration) -> Tuple[str, ...]:
        """Non-silent labels along the breadth-first discovery path."""
        labels: List[str] = []
        cur = config
        while True:
            prev = self.discovery[cur]
            if prev is None:
                break
            cur, label = prev
            if label != EPSILON:
                labels.append(label)
        labels.reverse()
        return tuple(labels)

    def undirected_adjacency(self) -> Dict[Configuration, Set[Configuration]]:
        adj: Dict[Configuration, Set[Configuration]] = {v: set() for v in self.vertices}
        for src, dst, _ in self.edges:
            if src != dst:
                adj[src].add(dst)
                adj[dst].add(src)
        return adj


def build(machine: Machine, horizon: BuildHorizon = BuildHorizon()) -> ConfigGraph:
    """Breadth-first exploration from (initial, empty tree) up to the horizon.

    Stored vertices are exactly those reachable within the horizon;
    co-accessibility is backward reachability from explored accepting
    configurations, restricted to the explored graph."""
    initial = Configuration(machine.initial, empty_tree())
    discovery: Dict[Configuration, Optional[Tuple[Configuration, str]]] = {initial: None}
    depth = {initial: 0}
    vertices = [initial]
    edges: List[Tuple[Configuration, Configuration, str]] = []
    edge_seen: Set[Tuple[Configuration, Configuration, str]] = set()
    truncated = False

    for cfg in vertices:  # breadth-first: the loop reaches vertices as they are appended
        if horizon.max_depth is not None and depth[cfg] >= horizon.max_depth:
            truncated = True
            continue
        for e, t2 in successors(machine, cfg.state, cfg.tree, None):
            if t2.edge_count > horizon.max_tree_edges:
                truncated = True
                continue
            nxt = Configuration(e.dst, t2)
            if nxt not in discovery:
                if len(vertices) >= horizon.max_vertices:
                    truncated = True
                    continue
                discovery[nxt] = (cfg, e.letter)
                depth[nxt] = depth[cfg] + 1
                vertices.append(nxt)
            key = (cfg, nxt, e.letter)
            if key not in edge_seen:
                edge_seen.add(key)
                edges.append(key)

    empty = empty_tree()
    accepting = [v for v in vertices if v.state in machine.finals and v.tree == empty]
    back: Dict[Configuration, List[Configuration]] = {v: [] for v in vertices}
    for src, dst, _ in edges:
        back[dst].append(src)
    coaccessible = set(bfs_distances(back.__getitem__, accepting))

    return ConfigGraph(machine, initial, vertices, edges, discovery, coaccessible, horizon, truncated)


class DegreeViolation(NamedTuple):
    config: Configuration
    edges: Tuple[Tuple[Configuration, Configuration, str], ...]


def check_degrees(cg: ConfigGraph) -> Optional[DegreeViolation]:
    """Every explored vertex must either have a single silent outedge and
    nothing else, or no silent outedge and at most one outedge per letter.

    For machines that passed the determinism check this must hold; a
    violation indicates a bug in that check, which is why this
    cross-validation runs on concrete configurations."""
    outs: Dict[Configuration, List[Tuple[Configuration, Configuration, str]]] = {}
    for edge in cg.edges:
        outs.setdefault(edge[0], []).append(edge)
    for v in cg.vertices:
        here = outs.get(v, [])
        eps = [e for e in here if e[2] == EPSILON]
        if eps and len(here) > 1:
            return DegreeViolation(v, tuple(here))
        letters = [e[2] for e in here if e[2] != EPSILON]
        if len(letters) != len(set(letters)):
            return DegreeViolation(v, tuple(here))
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
    images: Dict[Configuration, object]
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

    images: Dict[Configuration, object] = {}
    for v in cg.vertices:  # discovery order: parents come first
        prev = cg.discovery[v]
        if prev is None:
            images[v] = oracle.identity
        else:
            parent, label = prev
            g = images[parent]
            images[v] = g if label == EPSILON else oracle.mult(g, label)

    violations: List[ProjectionViolation] = []
    for src, dst, label in cg.edges:
        expected = images[src] if label == EPSILON else oracle.mult(images[src], label)
        if expected != images[dst]:
            via_edge = cg.discovery_word(src) + ((label,) if label != EPSILON else ())
            violations.append(
                ProjectionViolation(
                    edge=(src, dst, label),
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


def lift_path(machine: Machine, word, caps: ResourceCaps = ResourceCaps()) -> LiftResult:
    """The unique path of a deterministic machine from the initial
    configuration whose non-silent labels spell `word`, with forced silent
    moves interleaved.  The lift stops right after the last letter, before
    any trailing silent run.  Raises NondeterminismDetected if two
    continuations apply."""
    word = tuple(word)
    configs = [Configuration(machine.initial, empty_tree())]
    labels: List[str] = []
    pos = 0
    run = deterministic_run(machine, word, caps.max_tree_edges)
    while pos < len(word):
        step = next(run, None)
        if step is None:
            return LiftResult("stuck", configs, labels, pos, stuck_at=pos)
        e, tree, pos = step
        configs.append(Configuration(e.dst, tree))
        labels.append(e.letter)
        if len(labels) > caps.max_steps or tree.edge_count > caps.max_tree_edges:
            return LiftResult("cap_exceeded", configs, labels, pos)
    return LiftResult("ok", configs, labels, pos)


def dot_quote(text: str) -> str:
    """`text` as a DOT double-quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(cg: ConfigGraph) -> str:
    """Deterministic DOT rendering of the explored configuration graph."""
    index = {v: i for i, v in enumerate(cg.vertices)}
    name = vertex_namer(cg.machine)
    lines = [
        "digraph config_graph {",
        "  rankdir=LR;",
        f"  // horizon: tree edges <= {cg.horizon.max_tree_edges},"
        f" vertices <= {cg.horizon.max_vertices}, truncated: {str(cg.truncated).lower()}",
    ]
    for v in cg.vertices:
        attrs = [f"label={dot_quote(name(v))}"]
        if v == cg.initial:
            attrs.append("penwidth=2")
        if v in cg.coaccessible:
            attrs.append('color="blue"')
        lines.append(f"  n{index[v]} [{', '.join(attrs)}];")
    for src, dst, label in cg.edges:
        text = label or "ε"
        lines.append(f"  n{index[src]} -> n{index[dst]} [label={dot_quote(text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
