"""The original factor-and-fold preimage construction, kept as a test oracle.

A homomorphism between free monoids factors into single-letter expansions
(one letter becomes a two-letter word, everything else fixed) followed by a
letter-to-letter map.  Each elementary piece has a direct machine
construction; `preimage` folds a machine through the factorization.  The
machine doubles with every expansion and the marker-pop edge added at each
final state can compete with that state's own outedges, so the result is
large and often nondeterministic, but each step is simple enough to check
by eye, which is what makes it a useful reference for the one-pass
construction in `nestedstack.hom`.
"""

from __future__ import annotations

from typing import Dict, List

from nestedstack.hom import Homomorphism, Word
from nestedstack.machine import Edge, Machine
from nestedstack.memory_tree import EPSILON, pop, push


def is_letter_to_letter(f: Homomorphism) -> bool:
    return all(len(w) == 1 for w in f.images.values())


def expansion_triple(f: Homomorphism):
    """(letter, first, second) when f expands exactly one letter into two
    fresh letters and fixes everything else, otherwise None."""
    expanded = [(a, w) for a, w in f.images.items() if len(w) != 1]
    if len(expanded) != 1:
        return None
    a, w = expanded[0]
    if len(w) != 2 or w[0] == w[1]:
        return None
    if any(f.images[b] != (b,) for b in f.images if b != a):
        return None
    if a in f.target_alphabet or w[0] in f.images or w[1] in f.images:
        return None
    return a, w[0], w[1]


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
    if not is_letter_to_letter(f):
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
        if is_letter_to_letter(h):
            result = preimage_letter_map(result, h)
            continue
        triple = expansion_triple(h)
        if triple is None:
            raise RuntimeError("factorization produced a non-elementary piece")
        a, a1, a2 = triple
        result = preimage_expansion(result, a, a1, a2, f"__z_{markers}")
        markers += 1
    assert set(result.input_alphabet) == set(f.source_alphabet)
    return result
