"""Bounded construction of configuration graphs and their structure checks.

A configuration is a (state, memory tree) pair; edges mirror machine edges
whose operation is defined on the tree.  True accessibility and
co-accessibility would require deciding emptiness, so everything here is
horizon-relative: the build explores breadth-first up to explicit caps and
every report carries that horizon.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .graphs import weighted_path_bound
from .machine import Machine, ResourceCaps, deterministic_run, successors
from .memory_tree import EPSILON, MemoryTree, empty_tree


@dataclass(frozen=True)
class Configuration:
    state: str
    tree: MemoryTree

    def __str__(self):
        return vertex_name(self)


def vertex_name(config: Configuration) -> str:
    """Display name: for a single-branch tree, the branch word with the
    state id spliced in at the pointer position (so `yx3x` is state 3 on
    branch yxx with the pointer two edges deep); anything else falls back
    to the serialized tree."""
    branch = config.tree.branch_labels()
    if branch is None:
        return f"{config.state}|{config.tree}"
    d = config.tree.distinguished
    prefix = "".join(branch[:d])
    suffix = "".join(branch[d:])
    if not prefix and not suffix:
        prefix = "ε"
    return f"{prefix}{config.state}{suffix}"


@dataclass(frozen=True)
class BuildHorizon:
    max_tree_edges: int = 16
    max_vertices: int = 200_000
    max_depth: Optional[int] = None


@dataclass
class ConfigGraph:
    machine: Machine
    initial: Configuration
    vertices: List[Configuration]  # discovery order
    edges: List[Tuple[Configuration, Configuration, str]]
    discovery: Dict[Configuration, Optional[Tuple[Configuration, str]]]
    coaccessible: Set[Configuration]
    horizon: BuildHorizon
    truncated: bool

    def is_coaccessible_within_horizon(self, config: Configuration) -> bool:
        return config in self.coaccessible

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
    queue = deque([initial])
    truncated = False

    while queue:
        cfg = queue.popleft()
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
                queue.append(nxt)
            key = (cfg, nxt, e.letter)
            if key not in edge_seen:
                edge_seen.add(key)
                edges.append(key)

    empty = empty_tree()
    accepting = [v for v in vertices if v.state in machine.finals and v.tree == empty]
    back: Dict[Configuration, List[Configuration]] = {v: [] for v in vertices}
    for src, dst, _ in edges:
        back[dst].append(src)
    coaccessible = set(accepting)
    stack = list(accepting)
    while stack:
        v = stack.pop()
        for u in back[v]:
            if u not in coaccessible:
                coaccessible.add(u)
                stack.append(u)

    return ConfigGraph(
        machine=machine,
        initial=initial,
        vertices=vertices,
        edges=edges,
        discovery=discovery,
        coaccessible=coaccessible,
        horizon=horizon,
        truncated=truncated,
    )


@dataclass(frozen=True)
class DegreeViolation:
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


@dataclass(frozen=True)
class ProjectionViolation:
    """An explored edge whose group value disagrees with the discovery path
    of its target: two words reaching one configuration with different
    images, evidence that the machine does not accept this group's word
    problem."""

    edge: Tuple[Configuration, Configuration, str]
    via_discovery: Tuple[str, ...]
    via_edge: Tuple[str, ...]
    image_discovery: object
    image_edge: object


@dataclass
class ProjectionReport:
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


@dataclass
class LiftResult:
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


def export_dot(cg: ConfigGraph) -> str:
    """Deterministic DOT rendering of the explored configuration graph."""
    index = {v: i for i, v in enumerate(cg.vertices)}
    lines = [
        "digraph config_graph {",
        "  rankdir=LR;",
        f"  // horizon: tree edges <= {cg.horizon.max_tree_edges},"
        f" vertices <= {cg.horizon.max_vertices}, truncated: {str(cg.truncated).lower()}",
    ]
    for v in cg.vertices:
        attrs = [f'label="{vertex_name(v)}"']
        if v == cg.initial:
            attrs.append("penwidth=2")
        if v in cg.coaccessible:
            attrs.append('color="blue"')
        lines.append(f"  n{index[v]} [{', '.join(attrs)}];")
    for src, dst, label in cg.edges:
        text = label or "ε"
        lines.append(f'  n{index[src]} -> n{index[dst]} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
