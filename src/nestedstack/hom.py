"""Preimages of machine languages under non-erasing homomorphisms.

A homomorphism between free monoids factors into single-letter expansions
(one letter becomes a two-letter word, everything else fixed) followed by a
letter-to-letter map.  Each elementary piece has a direct machine
construction; `preimage` folds a machine through the factorization.

Fresh letters and memory symbols introduced here live in the reserved
`__` namespace, which the machine-file parser rejects, so they can never
capture names from user files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from .machine import Edge, Machine, MachineParseError
from .memory_tree import EPSILON, pop, push

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

    def is_letter_to_letter(self) -> bool:
        return all(len(w) == 1 for w in self.images.values())

    def expansion_triple(self):
        """(letter, first, second) when this map expands exactly one letter
        into two fresh letters and fixes everything else, otherwise None."""
        expanded = [(a, w) for a, w in self.images.items() if len(w) != 1]
        if len(expanded) != 1:
            return None
        a, w = expanded[0]
        if len(w) != 2 or w[0] == w[1]:
            return None
        if any(self.images[b] != (b,) for b in self.images if b != a):
            return None
        if a in self.target_alphabet or w[0] in self.images or w[1] in self.images:
            return None
        return a, w[0], w[1]


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


def factor(f: Homomorphism) -> List[Homomorphism]:
    """Elementary factors of f: single-letter expansions, then one
    letter-to-letter map.  Applying the factors left to right agrees with f
    on every source letter (verified here)."""
    work: Dict[str, Word] = dict(f.images)
    alphabet: List[str] = list(f.source_alphabet)
    steps: List[Homomorphism] = []
    fresh = 0
    while True:
        long_letters = [a for a in alphabet if len(work[a]) >= 2]
        if not long_letters:
            break
        a = long_letters[0]
        head, tail = f"__exp_{fresh}", f"__exp_{fresh + 1}"
        fresh += 2
        target = [head if b == a else b for b in alphabet]
        target.insert(target.index(head) + 1, tail)
        images = {b: (b,) for b in alphabet if b != a}
        images[a] = (head, tail)
        steps.append(Homomorphism(images, tuple(target)))
        word = work.pop(a)
        work[head] = word[:1]
        work[tail] = word[1:]
        alphabet = target
    final = Homomorphism({a: work[a] for a in alphabet}, f.target_alphabet)
    steps.append(final)
    for a in f.source_alphabet:
        w: Word = (a,)
        for h in steps:
            w = h(w)
        if w != f.images[a]:
            raise RuntimeError(f"factorization does not compose back to f at {a!r}")
    return steps


def preimage_letter_map(machine: Machine, f: Homomorphism) -> Machine:
    """Machine for the preimage of the language under a letter-to-letter map.

    Each consuming edge is replaced by one copy per preimage letter (and
    deleted when the preimage is empty); silent edges are untouched."""
    if not f.is_letter_to_letter():
        raise ValueError("homomorphism does not map letters to letters")
    unknown = set(f.target_alphabet) - set(machine.input_alphabet)
    if unknown:
        raise ValueError(f"image letters not in the machine's alphabet: {sorted(unknown)}")
    preimages: Dict[str, List[str]] = {}
    for p in f.source_alphabet:
        preimages.setdefault(f.images[p][0], []).append(p)
    edges: List[Edge] = []
    for e in machine.edges:
        if e.letter == EPSILON:
            edges.append(e)
        else:
            for p in preimages.get(e.letter, ()):
                edges.append(Edge(e.src, e.dst, e.op, p))
    return Machine(
        states=machine.states,
        initial=machine.initial,
        finals=machine.finals,
        input_alphabet=frozenset(f.source_alphabet),
        memory_alphabet=machine.memory_alphabet,
        edges=tuple(edges),
    )


def copy_state(state: str, which: int) -> str:
    """Name of the copy of `state` in the two-copy expansion construction;
    the naming is the explicit bijection between the copies and the input."""
    return f"{state}@{which}"


EXPANSION_START = "__v0"
EXPANSION_FINAL = "__v1"


def preimage_expansion(
    machine: Machine, letter: str, first: str, second: str, marker: str
) -> Machine:
    """Machine for the preimage under `letter -> first second` (all other
    letters fixed).

    Two disjoint copies of the machine: reading `letter` jumps from copy 1
    into copy 2 (standing for `first`), and the silent return to copy 1
    stands for `second`.  Copy 2 keeps only its silent and `second` edges.
    A fresh marker symbol is pushed before the run and popped at copy-1
    final states, so the memory cannot empty while inside copy 2.  Edges
    whose letters fall outside the new alphabet are dropped, since the
    result must be a machine over that alphabet."""
    sigma = set(machine.input_alphabet)
    if first == second:
        raise ValueError("expansion needs two distinct target letters")
    if first not in sigma or second not in sigma:
        raise ValueError(f"{first!r} and {second!r} must be machine letters")
    if letter in sigma - {first, second}:
        raise ValueError(f"{letter!r} already occurs in the machine's alphabet")
    if marker in machine.memory_alphabet:
        raise ValueError(f"marker {marker!r} already occurs in the memory alphabet")

    delta = sorted(sigma - {first, second}) + [letter]
    edges: List[Edge] = []
    edges.append(Edge(EXPANSION_START, copy_state(machine.initial, 1), push(marker), EPSILON))
    for e in machine.edges:
        # copy 1: `first`-edges jump into copy 2 reading the expanded letter
        if e.letter == first:
            edges.append(Edge(copy_state(e.src, 1), copy_state(e.dst, 2), e.op, letter))
        elif e.letter != second:
            edges.append(Edge(copy_state(e.src, 1), copy_state(e.dst, 1), e.op, e.letter))
        # copy 2: only silent and `second`-edges survive; the latter return
        # to copy 1 silently
        if e.letter == EPSILON:
            edges.append(Edge(copy_state(e.src, 2), copy_state(e.dst, 2), e.op, EPSILON))
        elif e.letter == second:
            edges.append(Edge(copy_state(e.src, 2), copy_state(e.dst, 1), e.op, EPSILON))
    for q in sorted(machine.finals):
        edges.append(Edge(copy_state(q, 1), EXPANSION_FINAL, pop(marker), EPSILON))

    states = (
        [EXPANSION_START]
        + [copy_state(q, 1) for q in machine.states]
        + [copy_state(q, 2) for q in machine.states]
        + [EXPANSION_FINAL]
    )
    return Machine(
        states=tuple(states),
        initial=EXPANSION_START,
        finals=frozenset([EXPANSION_FINAL]),
        input_alphabet=frozenset(delta),
        memory_alphabet=machine.memory_alphabet | {marker},
        edges=tuple(edges),
    )


def preimage(machine: Machine, f: Homomorphism) -> Machine:
    """Machine accepting { w : f(w) is accepted by `machine` }.

    Folds the factorization of f through the two elementary constructions,
    letter map first (it is the last factor applied to words)."""
    unknown = set(f.target_alphabet) - set(machine.input_alphabet)
    if unknown:
        raise ValueError(f"image letters not in the machine's alphabet: {sorted(unknown)}")
    result = machine
    markers = 0
    for h in reversed(factor(f)):
        if h.is_letter_to_letter():
            result = preimage_letter_map(result, h)
            continue
        triple = h.expansion_triple()
        if triple is None:
            raise RuntimeError("factorization produced a non-elementary piece")
        a, a1, a2 = triple
        result = preimage_expansion(result, a, a1, a2, f"__z_{markers}")
        markers += 1
    assert set(result.input_alphabet) == set(f.source_alphabet)
    return result


def publish_reserved_names(machine: Machine) -> Machine:
    """Rename reserved `__` memory symbols and state ids to parser-legal
    fresh names so the emitted file can be loaded again.  Relabeling the
    memory alphabet or the state set never changes the accepted language."""
    def fresh_names(reserved, taken):
        renames = {}
        for name in sorted(reserved):
            base = name.strip("_") or "gen"
            candidate = base
            n = 0
            while candidate in taken or candidate == "eps" or candidate.startswith("__"):
                n += 1
                candidate = f"{base}{n}"
            renames[name] = candidate
            taken.add(candidate)
        return renames

    symbol_renames = fresh_names(
        [s for s in machine.memory_alphabet if s.startswith("__")],
        set(machine.memory_alphabet),
    )
    state_renames = fresh_names(
        [q for q in machine.states if q.startswith("__")], set(machine.states)
    )
    if not symbol_renames and not state_renames:
        return machine

    def state(q):
        return state_renames.get(q, q)

    new_edges = tuple(
        replace(
            e,
            src=state(e.src),
            dst=state(e.dst),
            op=replace(e.op, symbol=symbol_renames.get(e.op.symbol, e.op.symbol)),
        )
        for e in machine.edges
    )
    return replace(
        machine,
        states=tuple(state(q) for q in machine.states),
        initial=state(machine.initial),
        finals=frozenset(state(q) for q in machine.finals),
        memory_alphabet=frozenset(symbol_renames.get(s, s) for s in machine.memory_alphabet),
        edges=new_edges,
    )
