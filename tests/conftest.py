import random
from pathlib import Path

import pytest

import tuple_tree
from nestedstack.machine import Edge, Machine, parse_machine
from nestedstack.memory_tree import UNDEFINED, apply, down, empty_tree, pop, push, up

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_machine(name: str) -> Machine:
    return parse_machine((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def quad():
    return load_machine("anbncndn.nsa")


@pytest.fixture(scope="session")
def anbn():
    return load_machine("anbn.nsa")


@pytest.fixture(scope="session")
def dyck2():
    return load_machine("dyck2.nsa")


@pytest.fixture(scope="session")
def zcount():
    return load_machine("zcount.nsa")


@pytest.fixture(scope="session")
def xyblock():
    return load_machine("xyblock.nsa")


def free_group_wp_machine(rank: int = 2) -> Machine:
    """Deterministic pushdown acceptor for the free-group word problem:
    the stack holds the freely reduced word, one cell per letter, and each
    cell remembers the cell beneath it so pops can route on what they
    reveal ('-' marks the bottom)."""
    letters = []
    for i in range(rank):
        low = chr(ord("a") + i)
        letters += [low, low.upper()]
    inverse = {l: (l.lower() if l.isupper() else l.upper()) for l in letters}
    bottom = "-"

    def cell(top, below):
        return f"{top}{below}"

    states = ["F"] + [f"S{g}" for g in letters]
    symbols = [cell(g, b) for g in letters for b in letters + [bottom]]
    edges = []
    for g in letters:
        edges.append(Edge("F", f"S{g}", push(cell(g, bottom)), g))
    for t in letters:
        for g in letters:
            if g == inverse[t]:
                for b in letters + [bottom]:
                    target = "F" if b == bottom else f"S{b}"
                    edges.append(Edge(f"S{t}", target, pop(cell(t, b)), g))
            else:
                edges.append(Edge(f"S{t}", f"S{g}", push(cell(g, t)), g))
    return Machine(
        states=tuple(states),
        initial="F",
        finals=frozenset(["F"]),
        input_alphabet=frozenset(letters),
        memory_alphabet=frozenset(symbols),
        edges=tuple(edges),
    )


def apply_word(ops, tree):
    """Left-to-right composition; UNDEFINED as soon as any step is undefined."""
    for op in ops:
        tree = apply(op, tree)
        if tree is UNDEFINED:
            return UNDEFINED
    return tree


def validate(tree):
    """Invariant violations of a memory tree, by the tuple oracle's check."""
    return tuple_tree.validate(tuple_tree.TupleTree(tree.parents, tree.labels, tree.distinguished))


def tree_ops(alphabet=("x", "y")):
    """Every generator over `alphabet`, plus `up` at the root."""
    return (
        [push(s) for s in alphabet]
        + [pop(s) for s in alphabet]
        + [down(s) for s in alphabet]
        + [up(s) for s in alphabet]
        + [up()]
    )


def random_trees(count: int, seed: int, alphabet=("x", "y"), walk_len: int = 40):
    """Distinct valid memory trees collected from seeded random op walks."""
    rng = random.Random(seed)
    ops = tree_ops(alphabet)
    seen = {empty_tree(): None}
    while len(seen) < count:
        t = empty_tree()
        for _ in range(walk_len):
            result = apply(rng.choice(ops), t)
            if result is not UNDEFINED:
                t = result
                seen.setdefault(t, None)
                if len(seen) >= count:
                    break
    return list(seen)
