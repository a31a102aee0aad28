import pytest
from hypothesis import given, settings, strategies as st

from nestedstack.memory_tree import (
    EPSILON,
    STAY,
    UNDEFINED,
    MemoryTree,
    StackOp,
    apply,
    down,
    empty_tree,
    pop,
    push,
    up,
)

from conftest import apply_word, random_trees, validate


def test_empty_tree():
    t = empty_tree()
    assert len(t) == 1
    assert t.edge_count == 0
    assert t.current_symbol == EPSILON
    assert validate(t) == []


def test_ops_undefined_on_empty_tree():
    t = empty_tree()
    assert apply(down("x"), t) is UNDEFINED
    assert apply(up(), t) is UNDEFINED  # the root of the empty tree is a leaf
    assert apply_word([pop("x")], t) is UNDEFINED  # the root is never deleted
    # callers (the perfbench tracer among them) count defined results by truth value
    assert bool(UNDEFINED) is False and repr(UNDEFINED) == "UNDEFINED"


def test_stay_is_identity():
    t = apply(push("x"), empty_tree())
    assert apply(STAY, t) is t


def test_push_then_pop_restores():
    t = apply_word([push("y"), push("x")], empty_tree())
    assert apply(pop("z"), apply(push("z"), t)) == t


def test_pop_then_push_restores_where_defined():
    t = apply_word([push("y"), push("x")], empty_tree())
    popped = apply(pop("x"), t)
    assert popped is not UNDEFINED
    assert apply(push("x"), popped) == t


def test_branch_with_pointer_below_leaf():
    # build the single branch y x x, then walk the pointer down twice
    t = apply_word([push("y"), push("x"), push("x"), down("x"), down("x")], empty_tree())
    assert t.branch_labels() == ("y", "x", "x")
    assert t.distinguished == 1  # the child of the root
    assert t.current_symbol == "y"


def test_apply_word_identity_sequence():
    # push two, walk down, walk back up, erase both
    seq = [push("y"), push("x"), down("x"), up("y"), pop("x"), pop("y")]
    assert apply_word(seq, empty_tree()) == empty_tree()


def test_up_reads_the_inedge_of_the_current_vertex():
    # after down(x) the pointer sits on the y-vertex, so up must name y;
    # naming x instead is outside the domain
    seq = [push("y"), push("x"), down("x"), up("x")]
    assert apply_word(seq, empty_tree()) is UNDEFINED


def test_apply_word_empty_is_identity():
    t = apply_word([push("x")], empty_tree())
    assert apply_word([], t) == t


def test_up_moves_to_latest_child():
    # root gets two children: x first, then z pushed later from the root
    t = apply_word([push("x"), down("x"), push("z"), down("z")], empty_tree())
    assert t.distinguished == 0
    t2 = apply(up(), t)
    assert t2 is not UNDEFINED
    assert t2.distinguished == 2  # the later child
    assert t2.current_symbol == "z"


@pytest.mark.parametrize("make", [
    lambda: StackOp("push", EPSILON),
    lambda: StackOp("stay", "x"),
    lambda: StackOp("sideways", "x"),
    lambda: MemoryTree((), ()),  # no root
    lambda: MemoryTree((-1, 0), (EPSILON,)),  # one label short
    lambda: MemoryTree((-1,), (EPSILON, "x")),  # one parent short
], ids=["push_eps", "stay_symbol", "unknown_kind", "no_vertices", "labels_short", "parents_short"])
def test_constructors_reject_bad_arguments(make):
    with pytest.raises(ValueError):
        make()


def test_validate_flags_distinguished_off_spine():
    bad = MemoryTree(parents=(-1, 0, 0), labels=(EPSILON, "x", "y"), distinguished=1)
    assert any("off the root-to-latest path" in v for v in validate(bad))


def test_validate_flags_non_dfs_order():
    # vertex 3 is a child of 1, but 2 (a child of the root) was created
    # between them: subtree blocks are interleaved
    bad = MemoryTree(parents=(-1, 0, 0, 1), labels=(EPSILON, "x", "y", "z"), distinguished=3)
    assert any("depth-first" in v for v in validate(bad))


def test_validate_flags_label_problems():
    assert validate(MemoryTree((-1, 0), (EPSILON, EPSILON), 1))
    assert validate(MemoryTree((-1, 0), ("x", "y"), 1))


# --- properties over random trees ---------------------------------------

ALPHABET = ("x", "y")


def op_strategy():
    kinds = st.sampled_from(["push", "pop", "down", "up", "up_eps"])
    symbols = st.sampled_from(ALPHABET)
    return st.tuples(kinds, symbols).map(
        lambda ks: up() if ks[0] == "up_eps" else StackOp(ks[0].replace("_eps", ""), ks[1])
    )


@st.composite
def tree_strategy(draw):
    ops = draw(st.lists(op_strategy(), max_size=30))
    t = empty_tree()
    for op in ops:
        result = apply(op, t)
        if result is not UNDEFINED:
            t = result
    return t


@given(tree_strategy())
@settings(max_examples=200, deadline=None)
def test_apply_preserves_validity(t):
    assert validate(t) == []
    for symbol in ALPHABET:
        for op in (push(symbol), pop(symbol), down(symbol), up(symbol), up(), STAY):
            result = apply(op, t)
            if result is not UNDEFINED:
                assert validate(result) == []


@given(tree_strategy(), st.sampled_from(ALPHABET))
@settings(max_examples=200, deadline=None)
def test_push_pop_inverse(t, symbol):
    assert apply(pop(symbol), apply(push(symbol), t)) == t


@given(tree_strategy(), st.sampled_from(ALPHABET))
@settings(max_examples=200, deadline=None)
def test_up_undefined_after_pop_on_single_branches(t, symbol):
    # on single-branch trees the parent of a popped leaf becomes a leaf
    # itself, so moving up is impossible right after erasing
    if t.branch_labels() is None:
        return
    popped = apply(pop(symbol), t)
    if popped is not UNDEFINED:
        assert apply(up(symbol), popped) is UNDEFINED


def test_generators_act_injectively_on_samples():
    trees = random_trees(2000, seed=7)
    generators = [push("x"), pop("x"), down("x"), up("x"), up()]
    for op in generators:
        image = {}
        for t in trees:
            result = apply(op, t)
            if result is UNDEFINED:
                continue
            assert image.setdefault(result, t) == t, f"{op} merged two trees"


@pytest.mark.parametrize("name", ["distinguished", "parents", "labels", "edge_count", "current_symbol"])
def test_public_attributes_are_read_only(name):
    t = apply_word([push("x"), push("y")], empty_tree())
    before = getattr(t, name)
    with pytest.raises(AttributeError):
        setattr(t, name, before)
    with pytest.raises(AttributeError):
        delattr(t, name)
    assert getattr(t, name) == before


def test_trees_take_no_new_attributes():
    t = empty_tree()
    with pytest.raises(AttributeError):
        t.color = "red"
    assert not hasattr(t, "__dict__")
