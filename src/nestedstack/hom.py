"""Preimages of machine languages under non-erasing homomorphisms.

`preimage` builds the machine for { w : f(w) accepted } in one pass: the
original machine plus one layer of state copies per position inside each
image word, the usual buffer construction for inverse homomorphisms of
pushdown automata.  The state copies live in the reserved `__` namespace,
which the machine-file parser rejects, so they can never capture names from
user files; `publish_reserved_names` renames them for output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from .machine import Edge, Machine, MachineParseError
from .memory_tree import EPSILON

Word = Tuple[str, ...]


@dataclass
class Homomorphism:
    """Monoid map determined by the images of the source letters.

    No letter may map to the empty word.
    """

    images: Dict[str, Word]
    target_alphabet: Tuple[str, ...] = ()

    def __post_init__(self):
        self.images = {a: tuple(w) for a, w in self.images.items()}
        for a, w in self.images.items():
            if len(w) == 0:
                raise ValueError(f"letter {a!r} maps to the empty word")
        if not self.target_alphabet:
            seen: List[str] = []
            for w in self.images.values():
                for b in w:
                    if b not in seen:
                        seen.append(b)
            self.target_alphabet = tuple(seen)
        else:
            self.target_alphabet = tuple(self.target_alphabet)
            missing = {
                b for w in self.images.values() for b in w
            } - set(self.target_alphabet)
            if missing:
                raise ValueError(f"image letters outside target alphabet: {sorted(missing)}")

    @property
    def source_alphabet(self) -> Tuple[str, ...]:
        return tuple(self.images)

    def __call__(self, word: Sequence[str]) -> Word:
        out: List[str] = []
        for a in word:
            out.extend(self.images[a])
        return tuple(out)


def parse_homomorphism(text: str) -> Homomorphism:
    """Lines `map: a -> b c d`; `#` starts a comment."""
    images: Dict[str, Word] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        if key.strip() != "map":
            raise MachineParseError(line_no, f"expected 'map: ...', got {line!r}")
        if "->" not in rest:
            raise MachineParseError(line_no, "expected 'map: LETTER -> WORD'")
        left, _, right = rest.partition("->")
        src = left.split()
        image = tuple(right.split())
        if len(src) != 1:
            raise MachineParseError(line_no, "exactly one source letter per map line")
        if src[0] in images:
            raise MachineParseError(line_no, f"duplicate image for {src[0]!r}")
        if not image:
            raise MachineParseError(line_no, f"letter {src[0]!r} maps to the empty word")
        for tok in src + list(image):
            if tok.startswith("__"):
                raise MachineParseError(
                    line_no, f"letter {tok!r} uses the reserved '__' namespace"
                )
        images[src[0]] = image
    if not images:
        raise MachineParseError(0, "no map lines found")
    return Homomorphism(images)


def preimage(machine: Machine, f: Homomorphism) -> Machine:
    """Machine accepting { w : f(w) is accepted by `machine` }.

    Reading a source letter `a` stands for reading its image f(a) = b0 b1
    ... b(n-1).  The original states and silent edges stay; every edge
    reading b0 is copied to read `a` instead.  Each position 1 <= i < n
    inside f(a) gets a layer, one copy of every state, holding a silent copy
    of every silent edge and of every edge reading b(i); the latter lead to
    the layer of position i + 1, and from the last position back to the
    original states.  Finals stay the original finals, so no run ends inside
    an image word.  Outedges that compete in a layer or at an original state
    already compete in the machine, so a deterministic machine gives a
    deterministic preimage; silent cycles stay inside one layer, so limited
    erasing is kept too.

    Layer states are named `__q@k` for state q in layer k, with two more
    leading underscores than any of the machine's state names has, so they
    cannot clash with its states.  When f maps letters to letters there are
    no layers and only the letters on the edges change."""
    unknown = set(f.target_alphabet) - set(machine.input_alphabet)
    if unknown:
        raise ValueError(f"image letters not in the machine's alphabet: {sorted(unknown)}")
    prefix = "_" * (2 + max(len(q) - len(q.lstrip("_")) for q in machine.states))

    def state(q: str, layer: int) -> str:
        return f"{prefix}{q}@{layer}" if layer else q

    # layer_of[a][i]: the layer reached after reading f(a)[:i], 0 meaning
    # the original states once the whole image has been read
    layer_of: Dict[str, List[int]] = {}
    layers = 0
    for a, w in f.images.items():
        layer_of[a] = [0] + list(range(layers + 1, layers + len(w))) + [0]
        layers += len(w) - 1

    edges: List[Edge] = []
    for e in machine.edges:
        if e.letter == EPSILON:
            edges.append(e)
            continue
        for a, w in f.images.items():
            if w[0] == e.letter:
                edges.append(Edge(e.src, state(e.dst, layer_of[a][1]), e.op, a))
    for a, w in f.images.items():
        for i in range(1, len(w)):
            here, after = layer_of[a][i], layer_of[a][i + 1]
            for e in machine.edges:
                if e.letter == EPSILON:
                    edges.append(Edge(state(e.src, here), state(e.dst, here), e.op, EPSILON))
                elif e.letter == w[i]:
                    edges.append(Edge(state(e.src, here), state(e.dst, after), e.op, EPSILON))
    return Machine(
        states=tuple(state(q, k) for k in range(layers + 1) for q in machine.states),
        initial=machine.initial,
        finals=machine.finals,
        input_alphabet=frozenset(f.source_alphabet),
        memory_alphabet=machine.memory_alphabet,
        edges=tuple(edges),
    )


def publish_reserved_names(machine: Machine) -> Machine:
    """Rename reserved `__` state ids to parser-legal fresh names so the
    emitted file can be loaded again.  Relabeling the state set never
    changes the accepted language."""
    taken = set(machine.states)
    renames = {}
    for name in sorted(q for q in machine.states if q.startswith("__")):
        base = name.strip("_") or "gen"
        candidate = base
        n = 0
        while candidate in taken or candidate == "eps":
            n += 1
            candidate = f"{base}{n}"
        renames[name] = candidate
        taken.add(candidate)
    if not renames:
        return machine

    def state(q):
        return renames.get(q, q)

    return replace(
        machine,
        states=tuple(state(q) for q in machine.states),
        initial=state(machine.initial),
        finals=frozenset(state(q) for q in machine.finals),
        edges=tuple(replace(e, src=state(e.src), dst=state(e.dst)) for e in machine.edges),
    )
