"""The successor kernel against a brute-force scan of the edge list, and the
searches built on it against each other."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, free_group_wp_machine, load_machine, random_trees, tree_ops
from nestedstack.hom import parse_homomorphism, preimage
from nestedstack.machine import (
    ACCEPTED,
    Edge,
    Machine,
    accepts,
    enumerate_accepted,
    successors,
)
from nestedstack.memory_tree import EPSILON, UNDEFINED, STAY, apply

FOREIGN = "zz"  # a letter no machine reads
FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.nsa"))


def brute_force(machine, state, tree, letter):
    """The successor loop as `step` used to write it: scan every edge, keep
    those leaving `state` that read `letter` or are silent (all of them for
    None), and drop the ones whose operation is undefined on `tree`."""
    out = []
    for e in machine.edges:
        if e.src == state and (letter is None or e.letter in (letter, EPSILON)):
            t2 = apply(e.op, tree)
            if t2 is not UNDEFINED:
                out.append((e, t2))
    return out


def letters(machine):
    return [*sorted(machine.input_alphabet), EPSILON, None, FOREIGN]


def trees_for(machine, seed):
    alphabet = tuple(sorted(machine.memory_alphabet)) or ("x",)
    return random_trees(40, seed=seed, alphabet=alphabet)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_successors_match_brute_force_on_fixtures(name):
    machine = load_machine(name)
    for tree in trees_for(machine, seed=len(name)):
        for state in machine.states:
            for letter in letters(machine):
                assert successors(machine, state, tree, letter) == brute_force(machine, state, tree, letter)


STATES = ("1", "2", "3")
OPS = tree_ops(("x", "y")) + [STAY]
EDGE = st.tuples(
    st.sampled_from(STATES),
    st.sampled_from(STATES),
    st.integers(0, len(OPS) - 1),
    st.sampled_from(["a", "b", EPSILON]),
)
RANDOM_TREES = random_trees(40, seed=11)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(EDGE, max_size=12),
    tree_index=st.integers(0, 39),
    state=st.sampled_from(STATES),
    letter=st.sampled_from(["a", "b", EPSILON, None, FOREIGN]),
)
def test_successors_match_brute_force_on_random_machines(rows, tree_index, state, letter):
    edges = tuple(dict.fromkeys(Edge(src, dst, OPS[i], a) for src, dst, i, a in rows))
    machine = Machine(
        states=STATES,
        initial="1",
        finals=frozenset({"1"}),
        input_alphabet=frozenset({"a", "b"}),
        memory_alphabet=frozenset({"x", "y"}),
        edges=edges,
    )
    tree = RANDOM_TREES[tree_index]
    assert successors(machine, state, tree, letter) == brute_force(machine, state, tree, letter)


def _membership_machines():
    quad = load_machine("anbncndn.nsa")
    block4 = parse_homomorphism((FIXTURES / "block4.hom").read_text())
    # popcycle.nsa is left out: its silent push loop makes every bounded
    # search hit a cap, so neither search has an exact answer to compare.
    names = [n for n in FIXTURE_NAMES if n != "popcycle.nsa"]
    machines = [(n, load_machine(n)) for n in names]
    return [(n, m, 8 if len(m.input_alphabet) <= 2 else 4) for n, m in machines] + [
        ("free2-word-problem", free_group_wp_machine(2), 4),
        ("anbncndn-block4-preimage", preimage(quad, block4), 5),
    ]


MEMBERSHIP = _membership_machines()


@pytest.mark.parametrize("name,machine,max_len", MEMBERSHIP, ids=[name for name, _, _ in MEMBERSHIP])
def test_accepts_agrees_with_enumeration(name, machine, max_len):
    accepted = enumerate_accepted(machine, max_len)
    alphabet = sorted(machine.input_alphabet)
    for n in range(max_len + 1):
        for word in product(alphabet, repeat=n):
            verdict = accepts(machine, word).verdict
            assert (verdict == ACCEPTED) == (word in accepted), (name, word, verdict)
