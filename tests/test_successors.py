"""The successor kernel against a brute-force scan of the edge list, the
searches built on it against each other and against a model over tuple
trees, the relations between verdicts under different caps and between
searches at neighbouring horizons, and the work the searches do, counted
at the kernel, and the collector pause around every public search and run."""

import dis
import gc
import inspect
import sys
from collections import deque
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_search
from conftest import FIXTURES, free_group_wp_machine, load_machine, random_trees, tree_ops
from nestedstack import config_graph, machine as machine_module
from nestedstack.cli import main
from nestedstack.config_graph import BuildHorizon, build, lift_path
from nestedstack.hom import parse_homomorphism, preimage
from nestedstack.machine import (
    ACCEPTED,
    CAP_EXCEEDED,
    REJECTED,
    Edge,
    EnumerationCapExceeded,
    Machine,
    NondeterminismDetected,
    ResourceCaps,
    accepts,
    enumerate_accepted,
    parse_machine,
    run_trace,
    successors,
)
from nestedstack.memory_tree import EPSILON, UNDEFINED, STAY, MemoryTree, apply, down, empty_tree, pop, push, up

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


def random_machine(rows, finals=("1",)):
    """A machine over the states 1 2 3, input a b and memory x y, with the
    edges `rows` (as EDGE draws them), duplicates dropped."""
    return Machine(
        states=STATES,
        initial="1",
        finals=frozenset(finals),
        input_alphabet=frozenset({"a", "b"}),
        memory_alphabet=frozenset({"x", "y"}),
        edges=tuple(dict.fromkeys(Edge(src, dst, OPS[i], a) for src, dst, i, a in rows)),
    )


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(EDGE, max_size=12),
    tree_index=st.integers(0, 39),
    state=st.sampled_from(STATES),
    letter=st.sampled_from(["a", "b", EPSILON, None, FOREIGN]),
)
def test_successors_match_brute_force_on_random_machines(rows, tree_index, state, letter):
    machine = random_machine(rows)
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


# --- the search drivers against the model in reference_search ---------------


def assert_searches_match_reference(machine, words, max_len, caps, horizons):
    for word in words:
        result = accepts(machine, word, caps)
        got = (result.verdict, result.witness and result.witness.path, result.caps_hit)
        assert got == reference_search.accepts(machine, word, caps), word
        assert (result.verdict == REJECTED) == (result.verdict != ACCEPTED and not result.caps_hit)
    try:
        words_or_cap = enumerate_accepted(machine, max_len, caps)
    except EnumerationCapExceeded as exc:
        words_or_cap = str(exc)
    assert words_or_cap == reference_search.enumerate_accepted(machine, max_len, caps)
    for horizon in horizons:
        cg = build(machine, horizon)
        vertices = [(c.state, *reference_search.plain(c.tree)) for c in cg.vertices]
        assert (vertices, cg.edges, cg.truncated) == reference_search.build(machine, horizon), horizon


def words_up_to(alphabet, n):
    return [w for k in range(n + 1) for w in product(sorted(alphabet), repeat=k)]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_searches_match_reference_on_fixtures(name):
    machine = load_machine(name)
    assert_searches_match_reference(
        machine,
        words_up_to(machine.input_alphabet, 4),
        max_len=4,
        caps=ResourceCaps(max_steps=400, max_tree_edges=6, max_frontier=80),
        horizons=[BuildHorizon(max_tree_edges=4, max_vertices=400),
                  BuildHorizon(max_tree_edges=6, max_vertices=40, max_depth=4)],
    )


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(EDGE, max_size=12),
    finals=st.sets(st.sampled_from(STATES)),
    caps=st.builds(ResourceCaps, st.integers(0, 40), st.integers(0, 3), st.integers(0, 12)),
    horizon=st.builds(BuildHorizon, st.integers(0, 3), st.integers(1, 40), st.none() | st.integers(0, 4)),
)
def test_searches_match_reference_on_random_machines(rows, finals, caps, horizon):
    machine = random_machine(rows, finals)
    assert_searches_match_reference(machine, words_up_to("ab", 2), 2, caps, [horizon])


def assert_accepts_matches_reference(machine, words, caps):
    for word in words:
        result = accepts(machine, word, caps)
        got = (result.verdict, result.witness and result.witness.path, result.caps_hit)
        assert got == reference_search.accepts(machine, word, caps), word


# Small caps, so that every cap fires somewhere, at 0 and below included.
SMALL_CAPS = st.builds(ResourceCaps, st.integers(-1, 30), st.integers(-1, 2), st.integers(-1, 2))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES), caps=SMALL_CAPS)
def test_accepts_matches_reference_on_fixtures_under_small_caps(name, caps):
    machine = load_machine(name)
    assert_accepts_matches_reference(machine, words_up_to(machine.input_alphabet, 3), caps)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(EDGE, max_size=8), finals=st.sets(st.sampled_from(STATES)), caps=SMALL_CAPS)
def test_deterministic_accepts_matches_reference_on_random_machines(rows, finals, caps):
    machine = random_machine(rows, finals)
    assume(machine.deterministic)
    assert_accepts_matches_reference(machine, words_up_to("ab", 3), caps)


# --- the deterministic runs and the step table against the model ------------------


def run_outcome(run, *args):
    """What a run returns, or the message of the NondeterminismDetected it raises."""
    try:
        return run(*args)
    except NondeterminismDetected as exc:
        return "raises", str(exc)


def plain(tree):
    """`reference_search.plain`, once the tree is checked to equal, and hash
    as, the same tree built from scratch."""
    triple = reference_search.plain(tree)
    rebuilt = MemoryTree(*triple)
    assert tree == rebuilt and hash(tree) == hash(rebuilt)
    return triple


def traced(machine, word, caps, view=plain):
    t = run_trace(machine, word, caps)
    steps = tuple((e, view(tree), consumed) for e, tree, consumed in t.steps)
    return t.word, steps, t.consumed, t.final_state, view(t.final_tree), t.accepted_at, t.stopped


def lifted(machine, word, caps, view=plain):
    lift = lift_path(machine, word, caps)
    return lift.status, [(c.state, view(c.tree)) for c in lift.configs], lift.labels, lift.consumed, lift.stuck_at


def assert_runs_match_reference(machine, word, caps):
    assert run_outcome(traced, machine, word, caps) == run_outcome(reference_search.run_trace, machine, word, caps)
    assert run_outcome(lifted, machine, word, caps) == run_outcome(reference_search.lift_path, machine, word, caps)


# Step caps -1 to 3 stop runs early, larger ones let most runs halt; tree caps -1 to 3.
RUN_CAPS = st.builds(ResourceCaps, st.integers(-1, 3) | st.integers(4, 40), st.integers(-1, 3))
FIXTURE_MEMBERS = {name: sorted(enumerate_accepted(load_machine(name), 6))
                   for name in FIXTURE_NAMES if load_machine(name).deterministic}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES), data=st.data(), caps=RUN_CAPS)
def test_runs_match_reference_on_fixtures(name, data, caps):
    machine = load_machine(name)
    words = st.lists(st.sampled_from([*sorted(machine.input_alphabet), FOREIGN]), max_size=8)
    word = data.draw(words | st.sampled_from(FIXTURE_MEMBERS[name]) if FIXTURE_MEMBERS.get(name) else words)
    assert_runs_match_reference(machine, word, caps)


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "nondeterministic"])
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(EDGE, max_size=8), finals=st.sets(st.sampled_from(STATES)),
       word=st.lists(st.sampled_from(["a", "b", FOREIGN]), max_size=5), caps=RUN_CAPS)
def test_runs_match_reference_on_random_machines(deterministic, rows, finals, word, caps):
    machine = random_machine(rows, finals)
    assume(machine.deterministic is deterministic)
    assert_runs_match_reference(machine, word, caps)


# Pops a vertex pushed beside an older child of the root, so that the spine
# `pop` restores is not empty, and then goes up that spine.
SPINE_AFTER_POP = parse_machine(
    "states: 1 2 3 4 5 6 7\nstart: 1\nfinal: 7\ninput: a\nmemory: x y\n"
    "edge: 1 2 push x a\nedge: 2 3 down x eps\nedge: 3 4 push y eps\nedge: 4 5 pop y eps\n"
    "edge: 5 6 up eps eps\nedge: 6 7 pop x eps\n"
)


@pytest.mark.parametrize("max_steps", [-1, 0, 3, 5, 6, 40])
def test_runs_follow_the_spine_a_pop_restores(max_steps):
    caps = ResourceCaps(max_steps=max_steps, max_tree_edges=2)
    for word in ["", "a", "aa"]:
        assert_runs_match_reference(SPINE_AFTER_POP, word, caps)
        assert_accepts_matches_reference(SPINE_AFTER_POP, [word], caps)
    assert run_trace(SPINE_AFTER_POP, "a").stopped == "halted"
    assert accepts(SPINE_AFTER_POP, "a").witness.path == SPINE_AFTER_POP.edges


def concrete_trees(alphabet):
    """Random trees over `alphabet`, plus for each symbol of it and the root
    one tree whose distinguished vertex is the latest and one where it is not."""
    trees = random_trees(40, seed=3, alphabet=alphabet)
    for s in alphabet:
        leaf = apply(push(s), empty_tree())
        trees += [leaf, apply(down(alphabet[0]), apply(push(alphabet[0]), leaf))]
    return trees + [apply(down(alphabet[0]), apply(push(alphabet[0]), empty_tree()))]


def assert_step_table_matches_apply(machine):
    """Each cell holds the step records `(edge, dst, kind, symbol, letter)`,
    plain tuples, of the edges of its row whose `apply` is defined on a
    concrete tree with the cell's current symbol and leaf status; a symbol
    no edge names (here one outside the memory alphabet) reads the None
    column.  Every cell is checked on at least one tree."""
    alphabet = (*sorted(machine.memory_alphabet), "zz")
    covered = set()
    for tree in concrete_trees(alphabet):
        symbol = tree.current_symbol if tree.current_symbol in {*machine.memory_alphabet, EPSILON} else None
        leaf = tree.distinguished == len(tree) - 1
        covered.add((symbol, leaf))
        for state, row in machine.step_table.items():
            for letter, cells in row.items():
                want = tuple((e, e.dst, *e.op, e.letter) for e, _ in brute_force(machine, state, tree, letter))
                assert cells[symbol][leaf] == want, (state, letter, symbol, leaf)
                assert all(type(step) is tuple for step in cells[symbol][leaf])
    assert covered == set(product([*machine.memory_alphabet, EPSILON, None], [False, True]))


@pytest.mark.parametrize("name,machine,_", MEMBERSHIP + [("popcycle.nsa", load_machine("popcycle.nsa"), 0)],
                         ids=[name for name, _, _ in MEMBERSHIP] + ["popcycle.nsa"])
def test_step_table_matches_apply_on_fixtures(name, machine, _):
    assert_step_table_matches_apply(machine)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(EDGE, max_size=12))
def test_step_table_matches_apply_on_random_machines(rows):
    assert_step_table_matches_apply(random_machine(rows))


# --- the determinism check against the pairwise model in reference_search -------

PREIMAGES = [(f"{base}-{hom}-preimage", preimage(load_machine(base), parse_homomorphism((FIXTURES / hom).read_text())))
             for base, hom in [("anbncndn.nsa", "block4.hom"), ("anbncndn.nsa", "collapse_pq.hom"),
                               ("xyblock.nsa", "wsplit.hom")]]


def assert_determinism_matches_reference(machine):
    conflict = machine_module.check_deterministic(machine)
    assert conflict == reference_search.check_deterministic(machine)
    assert machine.deterministic == (conflict is None)


@pytest.mark.parametrize("name,machine", [(n, load_machine(n)) for n in FIXTURE_NAMES] + PREIMAGES,
                         ids=FIXTURE_NAMES + [name for name, _ in PREIMAGES])
def test_check_deterministic_matches_reference_on_fixtures(name, machine):
    assert_determinism_matches_reference(machine)


OPS3 = tree_ops(("x", "y", "z")) + [STAY]  # `up eps` included
EDGE3 = st.builds(Edge, st.sampled_from(STATES), st.sampled_from(STATES), st.sampled_from(OPS3),
                  st.sampled_from(["a", "b", EPSILON]))


@settings(max_examples=400, deadline=None)
@given(states=st.permutations(STATES), pool=st.lists(EDGE3, min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=10))
# the first copy of `push x a` meets `pop y a` (at a y leaf) before it meets
# its own second copy (at an x leaf already, an earlier symbol)
@example(states=STATES, pool=[Edge("1", "2", push("x"), "a"), Edge("1", "2", pop("y"), "a")], picks=[0, 1, 0])
def test_check_deterministic_matches_reference_on_random_machines(states, pool, picks):
    # edges drawn from a small pool, so that an edge often appears more than
    # once (the constructor allows it) and states are listed in any order
    machine = Machine(states=tuple(states), initial="1", finals=frozenset(), input_alphabet=frozenset({"a", "b"}),
                      memory_alphabet=frozenset({"x", "y", "z"}), edges=tuple(pool[i % len(pool)] for i in picks))
    assert_determinism_matches_reference(machine)


# --- verdicts under different caps -------------------------------------------------

CAPS = st.builds(ResourceCaps, st.integers(0, 60), st.integers(0, 4), st.integers(0, 6))
MACHINES = st.sampled_from([load_machine(name) for name in FIXTURE_NAMES]) | st.builds(
    random_machine, st.lists(EDGE, max_size=10), st.sets(st.sampled_from(STATES))
)


def larger(caps, more):
    return ResourceCaps(*(a + b for a, b in zip(caps, more)))


@pytest.mark.parametrize("deterministic", [True, False], ids=["run", "search"])
@settings(max_examples=80, deadline=None)
@given(machine=MACHINES, data=st.data(), caps=CAPS, other=CAPS, more=CAPS)
def test_verdicts_keep_their_order_under_caps(deterministic, machine, data, caps, other, more):
    """ACCEPTED and REJECTED are never both reported for one word.  Larger
    caps keep REJECTED, and larger step and frontier caps keep ACCEPTED
    with its witness.  A larger tree cap keeps ACCEPTED on the run only:
    it can widen the search past the other caps.  It never lengthens a
    witness."""
    assume(machine.deterministic is deterministic)
    word = data.draw(st.lists(st.sampled_from(sorted(machine.input_alphabet)), max_size=6))
    first, second, wider, longer = (
        accepts(machine, word, c)
        for c in (caps, other, larger(caps, more), larger(caps, more._replace(max_tree_edges=0)))
    )
    assert not {ACCEPTED, REJECTED} <= {r.verdict for r in (first, second, wider, longer)}
    if first.verdict == REJECTED:
        assert wider == longer == first
    if first.verdict == ACCEPTED:
        assert longer == first
        if deterministic:
            assert wider == first
        if wider.verdict == ACCEPTED:
            assert len(wider.witness.path) <= len(first.witness.path)


@settings(max_examples=80, deadline=None)
@given(machine=MACHINES, data=st.data(), caps=CAPS)
def test_deterministic_accepts_is_the_run_accepting(machine, data, caps):
    assume(machine.deterministic)
    word = data.draw(st.lists(st.sampled_from(sorted(machine.input_alphabet)), max_size=6))
    result = accepts(machine, word, caps)
    assume(result.verdict != CAP_EXCEEDED)
    assert (result.verdict == ACCEPTED) == bool(run_trace(machine, word, caps).accepted_at)


def test_a_silent_cycle_back_to_the_start_of_its_stretch_is_a_revisit():
    # 1 -> 2 -> 1 on silent stays: the search examines two configurations,
    # finds the third already seen and rejects within two steps
    cycle = random_machine([("1", "2", OPS.index(STAY), EPSILON), ("2", "1", OPS.index(STAY), EPSILON)], finals=())
    assert cycle.deterministic
    for word in ["", "a"]:
        assert accepts(cycle, word, ResourceCaps(max_steps=2)) == (REJECTED, None, ())


@pytest.mark.parametrize("max_steps", [-1, 0])
def test_a_step_cap_below_one_stops_every_search_before_its_first_step(max_steps):
    caps = ResourceCaps(max_steps=max_steps)
    anbn = load_machine("anbn.nsa")
    assert accepts(anbn, "ab", caps) == (CAP_EXCEEDED, None, ("max_steps",))
    assert accepts(EVEN_PALINDROMES, "aa", caps) == (CAP_EXCEEDED, None, ("max_steps",))
    trace = run_trace(anbn, "ab", caps)
    assert (trace.stopped, trace.steps, trace.consumed, trace.accepted_at) == ("max_steps", (), 0, ())
    lift = lift_path(anbn, "ab", caps)
    assert (lift.status, lift.labels, lift.consumed, len(lift.configs)) == ("cap_exceeded", [], 0, 1)
    with pytest.raises(EnumerationCapExceeded, match="max_steps"):
        enumerate_accepted(anbn, 2, caps)


# Two edges apply at the start.
TWO_PUSHES = parse_machine(
    "states: 1 2\nstart: 1\nfinal: 2\ninput: a\nmemory: x y\nedge: 1 2 push x a\nedge: 1 2 push y a\n"
)


def test_a_trace_stops_at_the_step_cap_where_a_lift_raises():
    # at a step cap of 0 the trace stops in front of the two edges, and the
    # lift checks them first; at 1 both may take a step, so both check them
    message = r"state 1, tree .*: edges 1 -\(push x, a\)-> 2 and 1 -\(push y, a\)-> 2 both apply"
    zero, one = ResourceCaps(max_steps=0), ResourceCaps(max_steps=1)
    trace = run_trace(TWO_PUSHES, "a", zero)
    assert (trace.stopped, trace.steps, trace.consumed) == ("max_steps", (), 0)
    with pytest.raises(NondeterminismDetected, match=message):
        lift_path(TWO_PUSHES, "a", zero)
    for run in (run_trace, lift_path):
        with pytest.raises(NondeterminismDetected, match=message):
            run(TWO_PUSHES, "a", one)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_negative_step_cap_acts_as_zero(name):
    machine = load_machine(name)
    below, zero = ResourceCaps(max_steps=-1), ResourceCaps(max_steps=0)
    for word in words_up_to(machine.input_alphabet, 2):
        assert accepts(machine, word, below) == accepts(machine, word, zero)
        assert run_trace(machine, word, below) == run_trace(machine, word, zero)
        if machine.deterministic:  # a lift draws one step, which may be nondeterministic
            assert lift_path(machine, word, below) == lift_path(machine, word, zero)
    with pytest.raises(EnumerationCapExceeded, match="max_steps"):
        enumerate_accepted(machine, 1, below)


def test_a_machine_wrongly_marked_deterministic_raises(monkeypatch):
    popcycle = load_machine("popcycle.nsa")
    assert accepts(popcycle, "aa").verdict == ACCEPTED  # by the search
    popcycle.__dict__["deterministic"] = True
    with pytest.raises(NondeterminismDetected):
        accepts(popcycle, "aa")
    monkeypatch.setattr(Machine, "deterministic", True)
    monkeypatch.chdir(FIXTURES.parent)
    assert main(["accept", "fixtures/popcycle.nsa", "--word", "aa"]) == 4


# --- searches at neighbouring horizons ------------------------------------------
#
# No oracle gives the "true" answer at a horizon, but a search one step
# further must extend the search at the horizon.  Configurations compare by
# value here, so these relations also exercise the trees' hash and equality.

HORIZONS = st.builds(BuildHorizon, st.integers(0, 4), st.integers(1, 400), st.none() | st.integers(0, 6))


def build_relations(machine, horizon, field):
    """`build` at `horizon` against the horizon one further along `field`."""
    small = build(machine, horizon)
    big = build(machine, horizon._replace(**{field: getattr(horizon, field) + 1}))
    if field != "max_vertices" and len(big.vertices) >= big.horizon.max_vertices:
        return False  # the vertex cap may have cut `big` short: nothing to compare
    assert set(small.vertices) <= set(big.vertices)
    assert {small.vertices[v] for v in small.coaccessible} <= {big.vertices[v] for v in big.coaccessible}
    if not small.truncated:
        assert big._replace(horizon=None) == small._replace(horizon=None)
    return True


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_build_extends_to_the_next_horizon_on_fixtures(name):
    machine = load_machine(name)
    compared = 0
    for tree_edges, depth in product(range(4), (None, 0, 1, 3)):
        for field in ("max_tree_edges", "max_vertices") + (("max_depth",) if depth is not None else ()):
            compared += build_relations(machine, BuildHorizon(tree_edges, 300, depth), field)
    assert compared


@settings(max_examples=150, deadline=None)
@given(machine=MACHINES, horizon=HORIZONS, field=st.sampled_from(["max_tree_edges", "max_vertices", "max_depth"]))
def test_build_extends_to_the_next_horizon(machine, horizon, field):
    assume(field != "max_depth" or horizon.max_depth is not None)
    build_relations(machine, horizon, field)


ENUMERATION_CAPS = st.builds(ResourceCaps, st.integers(0, 400), st.integers(0, 4), st.integers(0, 60))


@settings(max_examples=150, deadline=None)
@given(machine=MACHINES, n=st.integers(0, 4), caps=ENUMERATION_CAPS)
def test_enumeration_extends_to_the_next_length(machine, n, caps):
    try:
        shorter, longer = enumerate_accepted(machine, n, caps), enumerate_accepted(machine, n + 1, caps)
    except EnumerationCapExceeded:
        assume(False)
    assert shorter == {w for w in longer if len(w) <= n}


# --- the work the searches do --------------------------------------------------


# The loops that step on `step_table` records; each reads a record's `dst`
# once per edge it takes, on lines a line tracer sees.
LOOPS = {f.__code__: {i.positions.lineno for i in dis.get_instructions(f) if (i.opname, i.argval) == ("LOAD_FAST", "dst")}
         for f in (machine_module._search, machine_module._accepts_deterministic, machine_module._run)}


@pytest.fixture
def counted(monkeypatch):
    """Counts of `apply` calls made through `machine.apply`, where the
    benchmark tracer patches it, of edges taken (every search reads an
    edge's `dst` once per successor it goes on to: a record's in the loops
    of `machine`, an `Edge`'s elsewhere) and of memory-tree hashes and
    equality tests."""
    counts = {"apply": 0, "defined": 0, "taken": 0, "hash": 0, "eq": 0}
    original_apply, original_hash = machine_module.apply, MemoryTree.__dict__["__hash__"]
    original_eq = MemoryTree.__dict__["__eq__"]

    def counting_apply(op, tree):
        counts["apply"] += 1
        result = original_apply(op, tree)
        counts["defined"] += result is not UNDEFINED
        return result

    def counting_dst(edge):
        counts["taken"] += 1
        return tuple.__getitem__(edge, 1)

    def counting_hash(tree):
        counts["hash"] += 1
        return original_hash(tree)

    def counting_eq(tree, other):
        counts["eq"] += 1
        return original_eq(tree, other)

    monkeypatch.setattr(machine_module, "apply", counting_apply)
    monkeypatch.setattr(Edge, "dst", property(counting_dst))
    monkeypatch.setattr(MemoryTree, "__hash__", counting_hash)
    monkeypatch.setattr(MemoryTree, "__eq__", counting_eq)

    def in_loop(frame, event, arg):
        counts["taken"] += event == "line" and frame.f_lineno in LOOPS[frame.f_code]
        return in_loop

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_loop if frame.f_code in LOOPS else None)
    yield counts
    sys.settrace(previous)


# Per query: `apply` calls, the defined ones among them, and edges taken.
# `step_table` offers only edges whose operation is defined, so every
# `apply` call is defined; a count that moves means a search explores
# something else, or bypasses the `machine.apply` the tracer patches.  The
# deterministic run and the breadth-first search apply their steps inline
# and call `apply` not at all: their edges taken are their steps.
SEARCH_WORK = [
    ("accepts-member", lambda quad: accepts(quad, "aabbccddabcd"), 0, 0, 16),
    ("accepts-nonmember", lambda quad: accepts(quad, "aabbccdda"), 0, 0, 12),
    ("enumerate", lambda quad: enumerate_accepted(quad, 12), 0, 0, 133),
    ("build", lambda quad: build(quad, BuildHorizon(max_tree_edges=6)), 43, 43, 42),
    ("build-truncated", lambda quad: build(quad, BuildHorizon(max_tree_edges=6, max_vertices=20)), 25, 25, 24),
]


@pytest.mark.parametrize("query,applies,defined,taken", [row[:1] + row[2:] for row in SEARCH_WORK],
                         ids=[row[0] for row in SEARCH_WORK])
def test_search_work_is_pinned(quad, counted, query, applies, defined, taken):
    run = {row[0]: row[1] for row in SEARCH_WORK}[query]
    run(quad)
    assert (counted["apply"], counted["defined"], counted["taken"]) == (applies, defined, taken)


def test_enumeration_stops_at_the_first_pruned_successor(quad, counted):
    # the start's successor and its successor are taken; a successor of the
    # third configuration popped has a third edge, and a search that went on
    # past it would take 17 more edges before its queue ran dry
    with pytest.raises(EnumerationCapExceeded, match="^max_tree_edges$"):
        enumerate_accepted(quad, 12, ResourceCaps(max_steps=50, max_tree_edges=2))
    assert counted["taken"] == 2


EVEN_PALINDROMES = parse_machine(
    "states: P Q\nstart: P\nfinal: Q\ninput: a b\nmemory: sa sb\n"
    "edge: P P push sa a\nedge: P P push sb b\nedge: P Q stay eps\n"
    "edge: Q Q pop sa a\nedge: Q Q pop sb b\n"
)


def test_searches_hash_no_memory_tree(quad, counted):
    # the breadth-first search keeps its trees as node numbers, so it
    # neither builds, hashes nor compares a `MemoryTree`, also on a witness
    assert not EVEN_PALINDROMES.deterministic
    assert accepts(EVEN_PALINDROMES, "abbab").verdict == REJECTED
    assert accepts(EVEN_PALINDROMES, "abba").witness.outcome is empty_tree()
    assert counted["taken"] > 1
    enumerate_accepted(quad, 12)
    assert (counted["apply"], counted["hash"], counted["eq"]) == (0, 0, 0)


# Each reads a and then loops silently, so that its run comes back to a
# configuration: it pops the x it pushed and pushes it again, or steps down
# from it and up again.
SILENT_LOOPS = [(name, parse_machine("states: 1 2 3\nstart: 1\nfinal: 1\ninput: a\nmemory: x\n"
                                     f"edge: 1 2 push x a\nedge: 2 3 {there} eps\nedge: 3 2 {back} eps\n"))
                for name, there, back in [("silent-pop-push", "pop x", "push x"), ("silent-down-up", "down x", "up eps")]]
# Silently: [x,y] at y in state 4 and [x] at x in state 3, then [x,x] at its
# second x in 4 and at its first in 3, and back in 4: a tree kept under a
# key a different tree took first is revisited.
COLLIDE_THEN_REVISIT = parse_machine(
    "states: 1 2 3 4 5 6\nstart: 1\nfinal: 1\ninput: a\nmemory: x y\nedge: 1 2 push x a\nedge: 2 4 push y eps\n"
    "edge: 4 3 pop y eps\nedge: 3 5 pop x eps\nedge: 5 6 push x eps\nedge: 6 4 push x eps\n"
    "edge: 4 3 down x eps\nedge: 3 4 up x eps\n")
# Pushes x and steps down from it, silently and without end: state 1 sees the
# root distinguished in ever larger trees, so its keys differ only in their hash.
PUSH_DOWN = parse_machine("states: 1 2\nstart: 1\nfinal: 2\ninput: a\nmemory: x\nedge: 1 2 push x eps\nedge: 2 1 down x eps\n")


def colliding(patch):
    """Every node a run pushes hashes to 0, so that the silent configurations
    of a stretch collide on their key whenever state and distinguished index
    agree."""
    patch.setattr(machine_module, "hash", lambda _: 0, raising=False)


def test_the_deterministic_run_hashes_no_memory_tree(quad, counted, monkeypatch):
    # a silent stretch keys its configurations by state, the latest node's
    # hash and the distinguished index, and compares two trees only on a key
    # hit: once per revisit, and never on anbncndn, whose stretches revisit none
    assert accepts(quad, "aabbccdda").verdict == REJECTED
    assert accepts(quad, "aabbccddabcd").verdict == ACCEPTED
    assert (counted["hash"], counted["eq"]) == (0, 0)
    for _, loop in SILENT_LOOPS:
        assert accepts(loop, "a") == (REJECTED, None, ())
    assert (counted["hash"], counted["eq"]) == (0, 2)
    caps = ResourceCaps(max_tree_edges=5)
    assert accepts(PUSH_DOWN, "", caps) == (CAP_EXCEEDED, None, ("max_tree_edges",))
    assert counted["eq"] == 2
    # forced collisions: state 1's later trees (1 to 5 edges) share one key,
    # and each is compared with every tree kept before it, all unequal
    colliding(monkeypatch)
    assert accepts(PUSH_DOWN, "", caps) == (CAP_EXCEEDED, None, ("max_tree_edges",))
    assert counted["eq"] == 2 + 0 + 1 + 2 + 3 + 4


# --- the silent-stretch key under forced collisions ------------------------------


def answers(machine, word, caps):
    """What `accepts`, `run_trace` and `lift_path` answer, with trees as
    plain triples: trees built under another node hash compare unequal."""
    result = accepts(machine, word, caps)
    return ((result.verdict, result.caps_hit, result.witness and result.witness.path),
            run_outcome(traced, machine, word, caps, reference_search.plain),
            run_outcome(lifted, machine, word, caps, reference_search.plain))


def assert_collisions_change_no_answer(machine, words, caps):
    want = [answers(machine, word, caps) for word in words]
    with pytest.MonkeyPatch.context() as patch:
        colliding(patch)
        assert [answers(machine, word, caps) for word in words] == want


COLLIDING = [(name, load_machine(name), FIXTURE_MEMBERS.get(name, [])) for name in FIXTURE_NAMES] + [
    (name, machine, sorted(enumerate_accepted(machine, 8))) for name, machine in PREIMAGES[:2]] + [
    (name, machine, ["aa"]) for name, machine in SILENT_LOOPS] + [
    ("silent-collide-then-revisit", COLLIDE_THEN_REVISIT, []), ("silent-push-down", PUSH_DOWN, [])]


@pytest.mark.parametrize("name,machine,members", COLLIDING, ids=[name for name, _, _ in COLLIDING])
@pytest.mark.parametrize("caps", [ResourceCaps(2000, 40, 80), ResourceCaps(12, 3, 80)], ids=["wide", "small"])
def test_colliding_keys_change_no_answer(name, machine, members, caps):
    assert_collisions_change_no_answer(machine, words_up_to(machine.input_alphabet, 3) + members, caps)


ENTER_AND_LOOP = [[("1", "2", OPS.index(push("x")), "a"), ("2", "3", OPS.index(there), EPSILON),
                   ("3", "2", OPS.index(back), EPSILON)]
                  for there, back in [(pop("x"), push("x")), (down("x"), up()), (push("y"), down("y"))]]


@settings(max_examples=150, deadline=None)
@given(loop=st.sampled_from(ENTER_AND_LOOP), rows=st.lists(EDGE, max_size=6),
       finals=st.sets(st.sampled_from(STATES)), caps=RUN_CAPS)
def test_colliding_keys_change_no_answer_on_random_machines(loop, rows, finals, caps):
    machine = random_machine(loop + rows, finals)
    assume(machine.deterministic)
    assert_collisions_change_no_answer(machine, words_up_to("ab", 3), caps)


# --- the search's node arena against the model --------------------------------------


def reached(search, *args):
    """How many configurations a search of `reference_search` reaches: its
    start and each configuration it queues, each once."""
    queued = []

    class Recording(deque):
        def __init__(self, items):
            super().__init__(items)
            queued.extend(items)

        def append(self, item):
            super().append(item)
            queued.append(item)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference_search, "deque", Recording)
        search(*args)
    assert len(set(queued)) == len(queued)
    return len(queued)


def assert_search_reaches_as_reference(machine, words, max_len, caps):
    """`_search` numbers a tree by its creation history, so its parent map
    holds as many configurations as the model reaches comparing tuple trees
    by value: a tree pushed again after a pop is found again, not made anew."""
    for word in words:
        parent, _, _ = machine_module._search(machine, (*word, EPSILON), len(word), caps)
        assert len(parent) == reached(reference_search.accepts, machine, word, caps), word
    parent, _, _ = machine_module._search(machine, (None,) * max_len + (EPSILON,), None, caps)
    assert len(parent) == reached(reference_search.enumerate_accepted, machine, max_len, caps)


POPCYCLE = load_machine("popcycle.nsa")


def test_the_search_interns_trees_across_pop_and_push_cycles():
    caps = ResourceCaps(max_steps=400, max_tree_edges=4, max_frontier=200)
    assert_search_reaches_as_reference(POPCYCLE, words_up_to("a", 4), 4, caps)
    # verdicts are not monotone in the tree cap: a larger one widens the search past the goal
    assert accepts(POPCYCLE, "aa", ResourceCaps(3, 1, 2)).verdict == ACCEPTED
    assert accepts(POPCYCLE, "aa", ResourceCaps(3, 2, 2)).verdict == CAP_EXCEEDED


# pushes an x on reading a, then pops it and pushes it again silently
POP_PUSH_CYCLE = [("1", "2", OPS.index(push("x")), "a"), ("2", "3", OPS.index(pop("x")), EPSILON),
                  ("3", "2", OPS.index(push("x")), EPSILON)]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(EDGE, max_size=10), finals=st.sets(st.sampled_from(STATES)),
       caps=st.builds(ResourceCaps, st.integers(0, 60), st.integers(0, 3), st.integers(0, 20)))
# after the push of x, y is pushed under x, and under the root after a down:
# two trees whose latest node before the push is the same
@example(rows=[("2", "3", OPS.index(push("y")), EPSILON), ("2", "2", OPS.index(down("x")), EPSILON)],
         finals=set(), caps=ResourceCaps(60, 3, 20))
def test_the_search_interns_trees_on_random_machines(rows, finals, caps):
    machine = random_machine(rows + POP_PUSH_CYCLE, finals)
    assert_search_reaches_as_reference(machine, words_up_to("ab", 2), 2, caps)


# --- the collector pause ------------------------------------------------------------

PAUSED = [accepts, enumerate_accepted, run_trace, lift_path, build]


def test_the_collector_is_paused_for_each_call_and_then_restored(monkeypatch):
    inside = []
    for module, name in [(machine_module, "_search"), (machine_module, "_accepts_deterministic"),
                         (machine_module, "_run"), (config_graph, "_run"), (config_graph, "successors")]:
        monkeypatch.setattr(module, name, lambda *args, _run=getattr(module, name): inside.append(gc.isenabled())
                            or _run(*args))
    anbn = load_machine("anbn.nsa")
    returning = [lambda: accepts(anbn, "ab"), lambda: accepts(EVEN_PALINDROMES, "abba"),
                 lambda: enumerate_accepted(anbn, 4), lambda: run_trace(anbn, "ab"), lambda: lift_path(anbn, "ab"),
                 lambda: build(anbn, BuildHorizon(max_tree_edges=3))]
    raising = [lambda: run_trace(TWO_PUSHES, "a"), lambda: lift_path(TWO_PUSHES, "a")]
    was = gc.isenabled()
    try:
        for enabled in (True, False):  # the caller's collector: running, then already paused
            gc.enable() if enabled else gc.disable()
            for call in returning + raising:
                inside.clear()
                if call in raising:
                    with pytest.raises(NondeterminismDetected):
                        call()
                else:
                    call()
                assert inside and not any(inside)
                assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    for run in PAUSED:  # the pause adds no parameter and keeps the docstring
        assert inspect.signature(run) == inspect.signature(run.__wrapped__) and run.__doc__ == run.__wrapped__.__doc__
