"""Group oracles, Cayley balls, minimum vertex separators, ends counting,
and sample-based quasi-isometry checks.

Narrowness, wideness, and one-endedness are properties of infinite graphs.
Every probe here works inside an explicit finite window and says so:
results carry window-relative flags instead of pretending to decide the
infinite-graph property.  Generators always come with formal inverses, so
Cayley graphs are treated as undirected for metric purposes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

Word = Sequence[str]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GroupOracle:
    """Canonical forms and letter multiplication for a finitely generated
    group; every derived notion (word problem, metric, Cayley graph) is
    built from `mult` and `norm`."""

    family: str = "?"
    generators: Tuple[str, ...] = ()
    identity = None

    def mult(self, element, letter: str):
        raise NotImplementedError

    def norm(self, element) -> int:
        """Word-metric distance from the identity."""
        raise NotImplementedError

    def inverse_letter(self, letter: str) -> str:
        raise NotImplementedError

    def canonical(self, word: Word):
        g = self.identity
        for a in word:
            if a not in self.generators:
                raise ValueError(f"{a!r} is not a generator of {self.family}")
            g = self.mult(g, a)
        return g

    def is_identity(self, word: Word) -> bool:
        return self.canonical(word) == self.identity

    def invert_word(self, word: Word) -> Tuple[str, ...]:
        return tuple(self.inverse_letter(a) for a in reversed(word))

    def distance(self, word1: Word, word2: Word) -> int:
        return self.norm(self.canonical(self.invert_word(word1) + tuple(word2)))

    def describe(self, element) -> str:
        return str(element)


def _paired_letters(rank: int) -> Tuple[Tuple[str, ...], Dict[str, str]]:
    if rank > len(_LETTERS):
        raise ValueError(f"rank {rank} exceeds the {len(_LETTERS)} naming letters")
    gens: List[str] = []
    inverse: Dict[str, str] = {}
    for i in range(rank):
        a, ainv = _LETTERS[i], _LETTERS[i].upper()
        gens.extend((a, ainv))
        inverse[a] = ainv
        inverse[ainv] = a
    return tuple(gens), inverse


class FreeGroup(GroupOracle):
    """Free group of the given rank; canonical form is the freely reduced
    word, generators a..z with uppercase formal inverses."""

    def __init__(self, rank: int):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self.rank = rank
        self.family = f"free({rank})"
        self.generators, self._inverse = _paired_letters(rank)
        self.identity = ()

    def mult(self, element, letter):
        if element and element[-1] == self._inverse[letter]:
            return element[:-1]
        return element + (letter,)

    def norm(self, element):
        return len(element)

    def inverse_letter(self, letter):
        return self._inverse[letter]

    def describe(self, element):
        return "".join(element) or "1"


class FreeAbelianGroup(GroupOracle):
    """Free abelian group of the given rank; canonical form is the exponent
    vector."""

    def __init__(self, rank: int):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self.rank = rank
        self.family = f"abelian({rank})"
        self.generators, self._inverse = _paired_letters(rank)
        self.identity = (0,) * rank
        self._index = {g: (i // 2, 1 if i % 2 == 0 else -1) for i, g in enumerate(self.generators)}

    def mult(self, element, letter):
        i, delta = self._index[letter]
        return element[:i] + (element[i] + delta,) + element[i + 1 :]

    def norm(self, element):
        return sum(abs(x) for x in element)

    def inverse_letter(self, letter):
        return self._inverse[letter]

    def describe(self, element):
        return "(" + ",".join(str(x) for x in element) + ")"


class FiniteGroup(GroupOracle):
    """Group given by a full multiplication table plus a map from generator
    letters to elements.  The table is validated: identity behavior,
    associativity, inverse-closed generators that generate everything."""

    def __init__(
        self,
        elements: Sequence[str],
        identity: str,
        table: Dict[Tuple[str, str], str],
        generator_map: Dict[str, str],
    ):
        self.family = f"finite({len(elements)})"
        self.elements = tuple(elements)
        self.identity = identity
        self.table = dict(table)
        self.generator_map = dict(generator_map)
        self.generators = tuple(generator_map)
        self._validate()
        self._inverse_letter = self._pair_letters()
        self._norms = self._bfs_norms()

    def _validate(self):
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError("duplicate element")
        if self.identity not in elems:
            raise ValueError("identity is not an element")
        for x in self.elements:
            for y in self.elements:
                if (x, y) not in self.table:
                    raise ValueError(f"multiplication table is missing {x} * {y}")
                if self.table[(x, y)] not in elems:
                    raise ValueError(f"{x} * {y} is not an element")
        for x in self.elements:
            if self.table[(self.identity, x)] != x or self.table[(x, self.identity)] != x:
                raise ValueError(f"identity law fails at {x}")
        for x in self.elements:
            for y in self.elements:
                for z in self.elements:
                    if self.table[(self.table[(x, y)], z)] != self.table[(x, self.table[(y, z)])]:
                        raise ValueError(f"associativity fails at ({x}, {y}, {z})")
        for x in self.elements:
            if all(self.table[(x, y)] != self.identity for y in self.elements):
                raise ValueError(f"element {x!r} has no inverse; not a group table")
        for letter, g in self.generator_map.items():
            if g not in elems:
                raise ValueError(f"generator {letter!r} maps to unknown element {g!r}")

    def _pair_letters(self) -> Dict[str, str]:
        # every generator letter needs a formal inverse among the letters
        value_of = self.generator_map
        inverse_elem = {}
        for x in self.elements:
            for y in self.elements:
                if self.table[(x, y)] == self.identity:
                    inverse_elem[x] = y
        pairing = {}
        for letter, g in value_of.items():
            want = inverse_elem[g]
            partner = next((l for l, h in value_of.items() if h == want), None)
            if partner is None:
                raise ValueError(f"generator {letter!r} has no formal inverse letter")
            pairing[letter] = partner
        return pairing

    def _bfs_norms(self) -> Dict[str, int]:
        norms = {self.identity: 0}
        queue = deque([self.identity])
        while queue:
            g = queue.popleft()
            for letter in self.generators:
                h = self.mult(g, letter)
                if h not in norms:
                    norms[h] = norms[g] + 1
                    queue.append(h)
        if len(norms) != len(self.elements):
            raise ValueError("generators do not generate the whole group")
        return norms

    def mult(self, element, letter):
        return self.table[(element, self.generator_map[letter])]

    def norm(self, element):
        return self._norms[element]

    def inverse_letter(self, letter):
        return self._inverse_letter[letter]


class DirectProduct(GroupOracle):
    """Direct product with componentwise generators, relabeled a, b, c, ...
    (uppercase inverses) so the two factors never clash."""

    def __init__(self, left: GroupOracle, right: GroupOracle):
        self.left = left
        self.right = right
        self.family = f"product({left.family}, {right.family})"
        self.identity = (left.identity, right.identity)
        gens: List[str] = []
        self._route: Dict[str, Tuple[int, str]] = {}
        self._inverse: Dict[str, str] = {}
        fresh = 0
        for side, oracle in ((0, left), (1, right)):
            seen: Set[str] = set()
            for a in oracle.generators:
                if a in seen:
                    continue
                partner = oracle.inverse_letter(a)
                seen.update((a, partner))
                if fresh >= len(_LETTERS):
                    raise ValueError("too many generators to relabel")
                name = _LETTERS[fresh]
                fresh += 1
                if partner == a:
                    gens.append(name)
                    self._route[name] = (side, a)
                    self._inverse[name] = name
                else:
                    inv_name = name.upper()
                    gens.extend((name, inv_name))
                    self._route[name] = (side, a)
                    self._route[inv_name] = (side, partner)
                    self._inverse[name] = inv_name
                    self._inverse[inv_name] = name
        self.generators = tuple(gens)

    def mult(self, element, letter):
        side, original = self._route[letter]
        if side == 0:
            return (self.left.mult(element[0], original), element[1])
        return (element[0], self.right.mult(element[1], original))

    def norm(self, element):
        return self.left.norm(element[0]) + self.right.norm(element[1])

    def inverse_letter(self, letter):
        return self._inverse[letter]

    def describe(self, element):
        return f"({self.left.describe(element[0])}, {self.right.describe(element[1])})"


def parse_finite_table(text: str) -> FiniteGroup:
    """Table file: `elements:`, `identity:`, `generators: a=g b=h ...`, and
    one `mul: x y z` line (x*y = z) per pair."""
    elements: List[str] = []
    identity = None
    generator_map: Dict[str, str] = {}
    table: Dict[Tuple[str, str], str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        tokens = rest.split()
        if key == "elements":
            elements = tokens
        elif key == "identity":
            if len(tokens) != 1:
                raise ValueError(f"line {line_no}: identity takes one element")
            identity = tokens[0]
        elif key == "generators":
            for tok in tokens:
                if "=" not in tok:
                    raise ValueError(f"line {line_no}: generators are LETTER=ELEMENT")
                letter, _, elem = tok.partition("=")
                generator_map[letter] = elem
        elif key == "mul":
            if len(tokens) != 3:
                raise ValueError(f"line {line_no}: mul takes three elements")
            table[(tokens[0], tokens[1])] = tokens[2]
        else:
            raise ValueError(f"line {line_no}: unknown section {key!r}")
    if identity is None or not elements or not generator_map:
        raise ValueError("table needs elements, identity, and generators")
    return FiniteGroup(elements, identity, table, generator_map)


def make_oracle(spec: str, read_file=None) -> GroupOracle:
    """Build an oracle from a spec such as `free 2`, `abelian 1`,
    `finite tables/z2.grp`, or `product free 1 abelian 2` (the optional
    `group:` prefix is accepted)."""
    if read_file is None:
        def read_file(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()

    tokens = spec.split()
    if tokens and tokens[0] in ("group:", "group"):
        tokens = tokens[1:]

    def parse(pos: int) -> Tuple[GroupOracle, int]:
        if pos >= len(tokens):
            raise ValueError(f"incomplete group spec: {spec!r}")
        head = tokens[pos]
        if head in ("free", "abelian"):
            if pos + 1 >= len(tokens):
                raise ValueError(f"{head} needs a rank")
            rank = int(tokens[pos + 1])
            oracle = FreeGroup(rank) if head == "free" else FreeAbelianGroup(rank)
            return oracle, pos + 2
        if head == "finite":
            if pos + 1 >= len(tokens):
                raise ValueError("finite needs a table file")
            return parse_finite_table(read_file(tokens[pos + 1])), pos + 2
        if head == "product":
            left, nxt = parse(pos + 1)
            right, nxt = parse(nxt)
            return DirectProduct(left, right), nxt
        raise ValueError(f"unknown group family {head!r}")

    try:
        oracle, end = parse(0)
    except RecursionError:
        raise ValueError("group spec nested too deeply") from None
    if end != len(tokens):
        raise ValueError(f"trailing tokens in group spec: {tokens[end:]}")
    return oracle


# --- Cayley windows -------------------------------------------------------


class WindowCapExceeded(RuntimeError):
    pass


@dataclass
class CayleyWindow:
    oracle: GroupOracle
    center: object
    radius: int
    dist: Dict[object, int]
    _neighbor_cache: Dict[object, List[object]] = field(default_factory=dict)

    @property
    def vertices(self) -> List[object]:
        return list(self.dist)

    @property
    def boundary(self) -> Set[object]:
        return {v for v, d in self.dist.items() if d == self.radius}

    def neighbors(self, v) -> List[object]:
        # memoized: separator searches scan the window many times
        cached = self._neighbor_cache.get(v)
        if cached is None:
            seen: List[object] = []
            for letter in self.oracle.generators:
                w = self.oracle.mult(v, letter)
                if w in self.dist and w not in seen and w != v:
                    seen.append(w)
            self._neighbor_cache[v] = cached = seen
        return cached


def ball(oracle: GroupOracle, center: Word, radius: int, max_vertices: int = 2_000_000) -> CayleyWindow:
    """The metric ball of the given radius in the Cayley graph; edges are
    derived lazily from the oracle."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    c = oracle.canonical(tuple(center))
    dist = {c: 0}
    queue = deque([c])
    while queue:
        g = queue.popleft()
        if dist[g] == radius:
            continue
        for letter in oracle.generators:
            h = oracle.mult(g, letter)
            if h not in dist:
                if len(dist) >= max_vertices:
                    raise WindowCapExceeded(f"ball exceeds {max_vertices} vertices")
                dist[h] = dist[g] + 1
                queue.append(h)
    return CayleyWindow(oracle, c, radius, dist)


# --- minimum vertex separators -------------------------------------------


@dataclass
class SeparatorReport:
    cut_size: int
    cut_set: Tuple[object, ...]
    window_limited: bool
    disjoint_paths: Tuple[Tuple[object, ...], ...]
    window_radius: int
    ball_radius: int


_SOURCE = ("source",)
_SINK = ("sink",)


def _vertex_max_flow(neighbors, interior: Set[object], source_side: Set[object], sink_side: Set[object]):
    """Maximum set of vertex-disjoint paths from the source block to the
    sink block through unit-capacity interior vertices.

    Runs augmenting-path max flow on the split graph (each vertex an
    in/out pair joined by a unit arc) without materializing it: residual
    arcs are derived from the current flow, kept as successor/predecessor
    maps.  Returns (flow_value, cut_set, paths); the cut comes from
    residual reachability, the paths from following the final flow."""
    flow_next: Dict[object, object] = {}  # v -> next interior vertex or _SINK
    flow_prev: Dict[object, object] = {}  # v -> previous interior vertex or _SOURCE
    used: Set[object] = set()

    # the source block is small; the sink test is evaluated lazily per vertex
    source_adjacent = sorted(
        {w for v in source_side for w in neighbors(v) if w in interior},
        key=repr,
    )
    sink_side = set(sink_side)

    def sink_adjacent(v):
        return any(w in sink_side for w in neighbors(v))

    def residual_search():
        """BFS over implicit residual states ("in", v) / ("out", v); returns
        the predecessor map, containing _SINK when an augmenting path exists."""
        prev = {}
        queue = deque()
        for v in source_adjacent:
            state = ("in", v)
            if state not in prev:
                prev[state] = _SOURCE
                queue.append(state)
        while queue:
            state = queue.popleft()
            kind, v = state
            outs = []
            if kind == "in":
                if v not in used:
                    outs.append(("out", v))
                u = flow_prev.get(v)
                if u is not None and u is not _SOURCE:
                    outs.append(("out", u))  # cancel the flow edge u -> v
            else:
                if v in used:
                    outs.append(("in", v))  # cancel the unit through v
                for w in neighbors(v):
                    if w in interior:
                        outs.append(("in", w))
                if sink_adjacent(v):
                    prev[_SINK] = state
                    return prev
            for nxt in outs:
                if nxt not in prev:
                    prev[nxt] = state
                    queue.append(nxt)
        return prev

    flow_value = 0
    while True:
        prev = residual_search()
        if _SINK not in prev:
            break  # `prev` is now the residual reachability from the source
        # collect the augmenting path, then apply it to the flow maps
        states = [_SINK]
        while states[-1] is not _SOURCE:
            states.append(prev[states[-1]])
        states.reverse()
        for a, b in zip(states, states[1:]):
            if a is _SOURCE:
                flow_prev[b[1]] = _SOURCE
            elif b is _SINK:
                flow_next[a[1]] = _SINK
            elif a[1] == b[1]:
                if a[0] == "in":
                    used.add(a[1])
                else:
                    used.discard(a[1])
            elif a[0] == "out" and b[0] == "in":
                flow_next[a[1]] = b[1]
                flow_prev[b[1]] = a[1]
            else:  # ("in", w) -> ("out", v): cancel the flow edge v -> w
                v, w = b[1], a[1]
                if flow_next.get(v) == w:
                    del flow_next[v]
                if flow_prev.get(w) == v:
                    del flow_prev[w]
        flow_value += 1

    reachable = prev
    cut = tuple(
        v for v in interior if ("in", v) in reachable and ("out", v) not in reachable
    )

    paths = []
    for v in flow_prev:
        if flow_prev[v] is _SOURCE:
            path = []
            node = v
            while node is not _SINK:
                path.append(node)
                node = flow_next[node]
            paths.append(tuple(path))
    return flow_value, cut, tuple(paths)


def min_separator(
    oracle: GroupOracle,
    center1: Word,
    center2: Word,
    radius: int,
    window_radius: int,
    max_vertices: int = 500_000,
) -> SeparatorReport:
    """Minimum vertex cut separating the two balls inside the window around
    the identity.  The report says when the cut leans on the window
    boundary, in which case a larger window could reveal more paths."""
    window = ball(oracle, (), window_radius, max_vertices)
    ball1 = ball(oracle, center1, radius, max_vertices)
    ball2 = ball(oracle, center2, radius, max_vertices)
    for which, b in (("first", ball1), ("second", ball2)):
        outside = [v for v in b.dist if v not in window.dist]
        if outside:
            raise ValueError(f"window too small to contain the {which} ball")
    set1, set2 = set(ball1.dist), set(ball2.dist)
    if set1 & set2:
        raise ValueError("balls overlap")
    for v in set1:
        if any(w in set2 for w in window.neighbors(v)):
            raise ValueError("balls must be at distance at least 2 apart")

    interior = {v for v in window.dist if v not in set1 and v not in set2}
    flow_value, cut, paths = _vertex_max_flow(window.neighbors, interior, set1, set2)

    if flow_value != len(paths):
        raise RuntimeError("flow decomposition lost a path")
    # removing the cut must disconnect the balls inside the window
    cut_set = set(cut)
    reach = set(set1)
    queue = deque(set1)
    while queue:
        v = queue.popleft()
        for w in window.neighbors(v):
            if w not in reach and w not in cut_set:
                reach.add(w)
                queue.append(w)
    if reach & set2:
        raise RuntimeError("cut fails to separate the balls")

    boundary = window.boundary
    limited = any(
        v in boundary or any(w in boundary for w in window.neighbors(v)) for v in cut
    )
    order = {v: i for i, v in enumerate(window.vertices)}
    return SeparatorReport(
        cut_size=flow_value,
        cut_set=tuple(sorted(cut, key=lambda v: order[v])),
        window_limited=limited,
        disjoint_paths=paths,
        window_radius=window_radius,
        ball_radius=radius,
    )


@dataclass
class ProbeCell:
    radius: int
    center: Tuple[str, ...]
    report: Optional[SeparatorReport] = None
    error: Optional[str] = None


@dataclass
class ProbeTable:
    cells: List[ProbeCell]

    def max_cut(self, radius: int) -> Optional[int]:
        sizes = [c.report.cut_size for c in self.cells if c.radius == radius and c.report]
        return max(sizes) if sizes else None

    def trend(self) -> str:
        radii = sorted({c.radius for c in self.cells})
        maxima = [self.max_cut(r) for r in radii]
        if any(m is None for m in maxima) or len(maxima) < 2:
            return "insufficient data"
        if all(b > a for a, b in zip(maxima, maxima[1:])):
            return "increasing"
        if all(b == a for a, b in zip(maxima, maxima[1:])):
            return "constant"
        return "mixed"


def narrowness_probe(
    oracle: GroupOracle,
    radii: Iterable[int],
    centers: Iterable[Word],
    window_radius=None,
) -> ProbeTable:
    """Separator sizes of the ball around the identity against balls at the
    sample centers, across radii.  This is falsifiable evidence about
    narrowness, not a decision: the property quantifies over all but
    finitely many balls and no finite probe can certify that."""
    cells: List[ProbeCell] = []
    centers = [tuple(c) for c in centers]
    for r in sorted(set(radii)):
        for center in centers:
            if window_radius is None:
                w = oracle.distance((), center) + r + 2
            elif callable(window_radius):
                w = window_radius(r, center)
            else:
                w = window_radius
            cell = ProbeCell(radius=r, center=center)
            try:
                cell.report = min_separator(oracle, (), center, r, w)
            except (ValueError, WindowCapExceeded, RuntimeError) as exc:
                cell.error = str(exc)
            cells.append(cell)
    return ProbeTable(cells)


# --- ends ------------------------------------------------------------------


@dataclass
class EndsReport:
    radius: int
    window_radius: int
    boundary_components: int
    finite_components: int
    component_sizes: Tuple[int, ...]


def ends_probe(oracle: GroupOracle, radius: int, window_radius: int, max_vertices: int = 500_000) -> EndsReport:
    """Components of the window minus the ball around the identity.
    Components touching the window boundary look unbounded; the others are
    certainly finite."""
    if window_radius <= radius + 2:
        raise ValueError("window must exceed the removed ball by more than 2")
    window = ball(oracle, (), window_radius, max_vertices)
    removed = {v for v, d in window.dist.items() if d <= radius}
    remaining = [v for v in window.vertices if v not in removed]
    seen: Set[object] = set()
    boundary = window.boundary
    touching = 0
    finite = 0
    sizes: List[int] = []
    for start in remaining:
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        stack = [start]
        touches = False
        while stack:
            v = stack.pop()
            if v in boundary:
                touches = True
            for w in window.neighbors(v):
                if w not in seen and w not in removed:
                    seen.add(w)
                    stack.append(w)
                    component.append(w)
        sizes.append(len(component))
        if touches:
            touching += 1
        else:
            finite += 1
    return EndsReport(
        radius=radius,
        window_radius=window_radius,
        boundary_components=touching,
        finite_components=finite,
        component_sizes=tuple(sorted(sizes, reverse=True)),
    )


# --- quasi-isometry checking ------------------------------------------------


@dataclass(frozen=True)
class QIViolation:
    kind: str  # "lower", "upper", or "density"
    detail: str


def qi_check(
    source: GroupOracle,
    target: GroupOracle,
    samples: Sequence[Tuple[Word, Word]],
    k: float,
    density_window: Optional[int] = None,
) -> List[QIViolation]:
    """Check the two-sided distortion inequality on every sample pair, and
    (optionally) that k-balls around the images cover the target window."""
    if not 0 < k < float("inf"):
        raise ValueError("the quasi-isometry constant must be positive and finite")
    samples = [(tuple(x), tuple(y)) for x, y in samples]
    for x, y in samples:  # a letter that is not a generator raises ValueError
        source.canonical(x)
        target.canonical(y)
    violations: List[QIViolation] = []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            x1, y1 = samples[i]
            x2, y2 = samples[j]
            d = source.distance(x1, x2)
            d_image = target.distance(y1, y2)
            lower = d / k - k
            upper = k * d + k
            if d_image < lower:
                violations.append(
                    QIViolation(
                        "lower",
                        f"d({''.join(x1) or 'ε'},{''.join(x2) or 'ε'})={d} but image distance {d_image} < {lower}",
                    )
                )
            if d_image > upper:
                violations.append(
                    QIViolation(
                        "upper",
                        f"d({''.join(x1) or 'ε'},{''.join(x2) or 'ε'})={d} but image distance {d_image} > {upper}",
                    )
                )
    if density_window is not None:
        window = ball(target, (), density_window)
        images = {target.canonical(y) for _, y in samples}
        frontier = set(images) & set(window.dist)
        covered = set(frontier)
        for _ in range(int(k)):
            if not frontier:
                break
            nxt = set()
            for g in frontier:
                for h in window.neighbors(g):
                    if h not in covered:
                        covered.add(h)
                        nxt.add(h)
            frontier = nxt
        for v in window.vertices:
            if v not in covered:
                violations.append(
                    QIViolation(
                        "density",
                        f"window vertex {target.describe(v)} is farther than k from every image",
                    )
                )
    return violations
