"""Group oracles (free, free abelian, finite table, direct product) and
`make_oracle`, which builds one from a spec such as `free 2`.  The
Cayley-graph probes on them live in `group_geometry`."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .graphs import bfs_distances

Word = Sequence[str]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class LineError(ValueError):
    """A malformed line of an input file, which the CLI reports as
    `path:line: message`."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no, self.message = line_no, message


class GroupOracle:
    """Canonical forms and letter multiplication for a finitely generated
    group; every derived notion (word problem, metric, Cayley graph) is
    built from `mult(element, letter)` and `norm(element)`, the word-metric
    distance from the identity, which each subclass defines."""

    family: str = "?"
    generators: Tuple[str, ...] = ()
    identity = None
    _inverse: Dict[str, str]  # each generator letter's formal inverse letter

    def inverse_letter(self, letter: str) -> str:
        return self._inverse[letter]

    def canonical(self, word: Word):
        g = self.identity
        for a in word:
            if a not in self.generators:
                raise ValueError(f"{a!r} is not a generator of {self.family}")
            g = self.mult(g, a)
        return g

    def _neighbors(self, element) -> List[object]:
        """Cayley-graph neighbours: `element` times each generator."""
        return [self.mult(element, a) for a in self.generators]

    def invert_word(self, word: Word) -> Tuple[str, ...]:
        return tuple(self.inverse_letter(a) for a in reversed(word))

    def distance(self, word1: Word, word2: Word) -> int:
        return self.norm(self.canonical(self.invert_word(word1) + tuple(word2)))

    def describe(self, element) -> str:
        return str(element)


def _paired_letters(rank: int) -> Tuple[Tuple[str, ...], Dict[str, str]]:
    if rank < 0:
        raise ValueError("rank must be non-negative")
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

    def describe(self, element):
        return "".join(element) or "1"


class FreeAbelianGroup(GroupOracle):
    """Free abelian group of the given rank; canonical form is the exponent
    vector."""

    def __init__(self, rank: int):
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
        self._inverse = self._pair_letters()
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
        norms = bfs_distances(self._neighbors, [self.identity])
        if len(norms) != len(self.elements):
            raise ValueError("generators do not generate the whole group")
        return norms

    def mult(self, element, letter):
        return self.table[(element, self.generator_map[letter])]

    def norm(self, element):
        return self._norms[element]


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

    def describe(self, element):
        return f"({self.left.describe(element[0])}, {self.right.describe(element[1])})"


def parse_finite_table(text: str) -> FiniteGroup:
    """Table file: `elements:` and `identity:` once each, `generators: a=g
    b=h ...` with each letter once, and one `mul: x y z` line (x*y = z) per pair."""
    elements: Optional[List[str]] = None
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
        if (key == "elements" and elements is not None) or (key == "identity" and identity is not None):
            raise LineError(line_no, f"duplicate section {key!r}")
        if key == "elements":
            elements = tokens
        elif key == "identity":
            if len(tokens) != 1:
                raise LineError(line_no, "identity takes one element")
            identity = tokens[0]
        elif key == "generators":
            for tok in tokens:
                if "=" not in tok:
                    raise LineError(line_no, "generators are LETTER=ELEMENT")
                letter, _, elem = tok.partition("=")
                if letter in generator_map:
                    raise LineError(line_no, f"duplicate generator {letter!r}")
                generator_map[letter] = elem
        elif key == "mul":
            if len(tokens) != 3:
                raise LineError(line_no, "mul takes three elements")
            x, y, z = tokens
            if (x, y) in table:
                raise LineError(line_no, f"duplicate product {x} * {y}")
            table[(x, y)] = z
        else:
            raise LineError(line_no, f"unknown section {key!r}")
    if identity is None or not elements or not generator_map:
        raise ValueError("table needs elements, identity, and generators")
    return FiniteGroup(elements, identity, table, generator_map)


def _read_table(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_finite_table(fh.read())


def make_oracle(spec: str, load_table: Callable[[str], GroupOracle] = _read_table) -> GroupOracle:
    """Build an oracle from a spec such as `free 2`, `abelian 1`,
    `finite tables/z2.grp`, or `product free 1 abelian 2` (the optional
    `group:` prefix is accepted).  A `finite` table is `load_table(path)`."""
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
            return load_table(tokens[pos + 1]), pos + 2
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
