"""Differential tests: the persistent memory trees against the original
tuple-based implementation (`tuple_tree`), which is kept as an oracle."""

import gc
import random

from hypothesis import given, settings, strategies as st

import tuple_tree as old
from conftest import random_trees, tree_ops
from nestedstack.memory_tree import (
    EPSILON,
    UNDEFINED,
    MemoryTree,
    apply,
    apply_word,
    down,
    empty_tree,
    pop,
    push,
    up,
    validate,
)

OPS = tree_ops()


def assert_same(new, ref):
    """`new` (persistent) and `ref` (tuple oracle) are the same tree."""
    assert tuple(new.parents) == ref.parents
    assert tuple(new.labels) == ref.labels
    assert new.distinguished == ref.distinguished
    assert len(new) == len(new.parents) == len(ref.parents)
    assert new.edge_count == len(ref.parents) - 1
    assert new.current_symbol == ref.labels[ref.distinguished]
    assert new.spine() == ref.spine()
    assert new.branch_labels() == ref.branch_labels()
    assert str(new) == str(ref)
    assert validate(new) == old.validate(ref)


def rebuilt(ref):
    return MemoryTree(ref.parents, ref.labels, ref.distinguished)


def walk(indices):
    """(op, persistent tree, oracle tree) after each step of an op walk
    that keeps the current tree whenever a step is undefined."""
    new, ref = empty_tree(), old.TupleTree()
    out = [(None, new, ref)]
    for i in indices:
        op = OPS[i]
        new2, ref2 = apply(op, new), old.apply(op, ref)
        assert (new2 is UNDEFINED) == (ref2 is UNDEFINED), op
        if new2 is not UNDEFINED:
            new, ref = new2, ref2
            out.append((op, new, ref))
    return out


walks = st.lists(st.integers(0, len(OPS) - 1), max_size=60)


@given(walks)
@settings(max_examples=300, deadline=None)
def test_op_walks_agree_with_tuple_oracle(indices):
    for _, new, ref in walk(indices):
        assert_same(new, ref)
        for op in OPS:  # definedness of every generator, not just the drawn one
            assert (apply(op, new) is UNDEFINED) == (old.apply(op, ref) is UNDEFINED)


@given(walks)
@settings(max_examples=150, deadline=None)
def test_equality_and_hash_agree_across_routes(indices):
    steps = walk(indices)
    for _, new, ref in steps:
        # the tuple constructor reaches the same value by another route
        same = rebuilt(ref)
        assert_same(same, ref)
        assert same == new and new == same and hash(same) == hash(new)
        # pop after push, and up after down, give back an equal tree
        for s in ("x", "y"):
            back = apply(pop(s), apply(push(s), new))
            assert back == new and hash(back) == hash(new)
        if new.distinguished != 0:
            lower = apply(down(new.current_symbol), new)
            back = apply(up(lower.current_symbol), lower)
            assert back == new and hash(back) == hash(new)
    # equal as persistent trees exactly when equal as tuple trees
    for _, a, ra in steps:
        for _, b, rb in steps:
            assert (a == b) == (ra == rb)
            if ra == rb:
                assert hash(a) == hash(b)


def test_random_trees_round_trip_through_the_tuple_constructor():
    rng = random.Random(5)
    for t in random_trees(300, seed=3):
        copy = MemoryTree(t.parents, t.labels, t.distinguished)
        assert copy == t and hash(copy) == hash(t) and str(copy) == str(t)
        # the copy must also behave like the original under further ops
        for _ in range(30):
            op = rng.choice(OPS)
            a, b = apply(op, t), apply(op, copy)
            assert (a is UNDEFINED) == (b is UNDEFINED)
            if a is not UNDEFINED:
                assert a == b and hash(a) == hash(b)
                t, copy = a, b


def test_equality_does_not_trust_equal_hashes():
    a = apply_word([push("x"), push("y")], empty_tree())
    b = apply_word([push("x"), push("x")], empty_tree())
    c = MemoryTree(a.parents, a.labels, a.distinguished)
    for t in (a, b, c):  # force a hash collision past the immutability guard:
        # the tree hash comes from the latest node's stored hash, its last field
        object.__setattr__(t, "_latest", t._latest[:-1] + (0,))
    assert hash(a) == hash(b) == hash(c)
    assert a != b and b != a
    assert a == c


@st.composite
def raw_trees(draw):
    n = draw(st.integers(1, 7))
    parents = draw(st.lists(st.integers(-2, n), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([EPSILON, "x", "y"]), min_size=n, max_size=n))
    return tuple(parents), tuple(labels), draw(st.integers(-1, n))


@given(raw_trees())
@settings(max_examples=300, deadline=None)
def test_tuple_constructor_keeps_invalid_trees_for_validate(raw):
    parents, labels, d = raw
    t = MemoryTree(parents, labels, d)
    assert tuple(t.parents) == parents and tuple(t.labels) == labels
    assert t.distinguished == d
    assert validate(t) == old.validate(old.TupleTree(parents, labels, d))
    assert t == MemoryTree(parents, labels, d)


def test_million_edge_branch_builds_and_frees():
    x = push("x")
    t = empty_tree()
    for _ in range(10**6):
        t = apply(x, t)
    assert t.edge_count == 10**6 and len(t.parents) == 10**6 + 1
    assert apply(pop("x"), apply(x, t)) == t
    for _ in range(3):
        t = apply(down("x"), t)
    assert t.distinguished == 10**6 - 3
    del t, x
    gc.collect()
