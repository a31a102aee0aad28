import pytest

from nestedstack.machine import (
    ACCEPTED,
    CAP_EXCEEDED,
    REJECTED,
    Edge,
    EnumerationCapExceeded,
    Machine,
    MachineError,
    MachineParseError,
    NondeterminismDetected,
    ResourceCaps,
    accepts,
    check_deterministic,
    check_limited_erasing,
    enumerate_accepted,
    format_machine,
    parse_machine,
    parse_word,
    run_trace,
    successors,
)
from nestedstack.memory_tree import (
    EPSILON,
    STAY,
    apply_word,
    down,
    empty_tree,
    pop,
    push,
    up,
)

from conftest import load_machine


def small_machine(edges, states="1 2", start="1", final="1", inputs="a b", memory="x y"):
    lines = [
        f"states: {states}",
        f"start: {start}",
        f"final: {final}",
        f"input: {inputs}",
        f"memory: {memory}",
    ] + [f"edge: {e}" for e in edges]
    return parse_machine("\n".join(lines))


# --- parsing -----------------------------------------------------------------


def test_parse_quad(quad):
    assert len(quad.states) == 4
    assert quad.initial == "1"
    assert quad.finals == frozenset({"1"})
    assert len(quad.edges) == 8
    kinds = sorted(e.op.kind for e in quad.edges)
    assert kinds == ["down", "down", "pop", "pop", "push", "push", "up", "up"]


def test_parse_empty_edge_section_accepts_epsilon_iff_final():
    yes = small_machine([], final="1")
    no = small_machine([], final="2")
    assert accepts(yes, "").verdict == ACCEPTED
    assert accepts(no, "").verdict == REJECTED


def test_parse_error_names_unknown_symbol():
    with pytest.raises(MachineParseError) as err:
        small_machine(["1 2 push z a"])
    assert "z" in str(err.value)
    assert err.value.line_no == 6


def test_parse_error_duplicate_state():
    with pytest.raises(MachineParseError) as err:
        small_machine([], states="1 2 1")
    assert "duplicate" in str(err.value)


def test_parse_rejects_reserved_namespace():
    with pytest.raises(MachineParseError) as err:
        small_machine([], memory="__z_0")
    assert "reserved" in str(err.value)


def test_parse_rejects_eps_as_token():
    with pytest.raises(MachineParseError):
        small_machine([], inputs="a eps")


def test_parse_errors_on_unknown_section():
    with pytest.raises(MachineParseError):
        parse_machine("states: 1\nstart: 1\nweird: x")


def test_parse_collapses_duplicate_edge_rows():
    m = small_machine(["1 2 push x a", "1 2 push x a"])
    assert len(m.edges) == 1


def test_machine_invariants_checked_on_construction():
    with pytest.raises(MachineError):
        Machine(("1",), "2", frozenset(), frozenset(), frozenset(), ())


def test_format_round_trip_all_fixtures():
    for name in ("anbncndn.nsa", "anbn.nsa", "dyck2.nsa", "zcount.nsa", "xyblock.nsa"):
        machine = load_machine(name)
        assert parse_machine(format_machine(machine)) == machine


def test_parse_word_forms():
    assert parse_word("abcd") == ("a", "b", "c", "d")
    assert parse_word("aa bb") == ("aa", "bb")
    assert parse_word("") == ()


# --- stepping and acceptance ---------------------------------------------------


def test_step_silent_edge_from_start(quad):
    (edge, tree), = successors(quad, "1", empty_tree(), EPSILON)
    assert edge.dst == "2"
    assert tree.branch_labels() == ("y",)


def test_step_empty_when_pop_precondition_fails(quad):
    tree_y = apply_word([push("y")], empty_tree())
    # pop x is undefined on a y leaf: only the silent pop y is left
    assert [e.letter for e, _ in successors(quad, "4", tree_y, "d")] == [EPSILON]


def test_step_empty_on_foreign_letter(quad):
    # no edge reads z, so only the silent edges apply
    assert [e.letter for e, _ in successors(quad, "1", empty_tree(), "z")] == [EPSILON]


@pytest.mark.parametrize(
    "word,verdict",
    [
        ("abcd", ACCEPTED),
        ("", ACCEPTED),
        ("aabcd", REJECTED),
        ("abcdabcd", ACCEPTED),
        ("aabbccdd", ACCEPTED),
        ("abdc", REJECTED),
        ("ba", REJECTED),
    ],
)
def test_accepts_quad(quad, word, verdict):
    assert accepts(quad, word).verdict == verdict


def test_accept_witness_replays(quad):
    result = accepts(quad, "aabbccdd")
    w = result.witness
    assert w is not None
    assert w.path[-1].dst in quad.finals
    assert tuple(e.letter for e in w.path if e.letter != EPSILON) == tuple("aabbccdd")
    assert apply_word([e.op for e in w.path], empty_tree()) == w.outcome == empty_tree()


def test_accepts_cap_exceeded(quad):
    tight = ResourceCaps(max_steps=2)
    result = accepts(quad, "abcd", tight)
    assert result.verdict == CAP_EXCEEDED
    assert "max_steps" in result.caps_hit


def test_accepts_tree_cap_prunes_honestly(quad):
    # the only way to check a^6... needs six pushes; with three tree edges
    # allowed the search cannot be exhaustive, so the verdict must not
    # pretend to be a rejection
    result = accepts(quad, "aaaaaabbbbbbccccccdddddd", ResourceCaps(max_tree_edges=3))
    assert result.verdict == CAP_EXCEEDED
    assert "max_tree_edges" in result.caps_hit


def fan_machine():
    """A finite search from which each cap can be made to fire alone or
    after the tree cap: state 2 pushes a second edge onto the tree, state 3
    fans out to three configurations, and the final state is unreachable."""
    return small_machine(
        ["1 2 push x eps", "2 6 push x eps", "1 3 stay eps", "3 4 stay eps", "3 5 stay eps", "3 6 stay eps"],
        states="1 2 3 4 5 6 7",
        final="7",
        inputs="a",
    )


# Breadth-first, the search pops (1,ε), then (2,x), whose push makes a tree
# of two edges, then (3,ε), after which the frontier holds three or four
# configurations.
CAP_CASES = [
    (ResourceCaps(max_steps=2), ("max_steps",)),
    (ResourceCaps(max_tree_edges=1), ("max_tree_edges",)),
    (ResourceCaps(max_frontier=2), ("max_frontier",)),
    (ResourceCaps(max_steps=2, max_tree_edges=1), ("max_tree_edges", "max_steps")),
    (ResourceCaps(max_tree_edges=1, max_frontier=2), ("max_tree_edges", "max_frontier")),
    (ResourceCaps(max_steps=2, max_frontier=2), ("max_steps",)),  # both stop the search; steps fires first
    (ResourceCaps(max_steps=3, max_frontier=2), ("max_frontier",)),
]


@pytest.mark.parametrize("caps,hit", CAP_CASES, ids=[",".join(h) + f"-{i}" for i, (_, h) in enumerate(CAP_CASES)])
def test_accepts_reports_each_cap_in_firing_order(caps, hit):
    result = accepts(fan_machine(), "a", caps)
    assert result == (CAP_EXCEEDED, None, hit)


def test_accepts_rejects_only_when_no_cap_fired():
    assert accepts(fan_machine(), "a") == (REJECTED, None, ())
    assert accepts(fan_machine(), "a", ResourceCaps(max_steps=7, max_tree_edges=2, max_frontier=4)) == (
        REJECTED, None, ())


@pytest.mark.parametrize(
    "caps,name",
    [
        (ResourceCaps(max_steps=2), "max_steps"),
        (ResourceCaps(max_tree_edges=1), "max_tree_edges"),
        (ResourceCaps(max_frontier=2), "max_frontier"),
        (ResourceCaps(max_tree_edges=1, max_frontier=2), "max_tree_edges"),
        (ResourceCaps(max_steps=1, max_tree_edges=1), "max_steps"),  # step 2 is refused before its push is tried
    ],
)
def test_enumerate_names_the_cap_that_fired(caps, name):
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_accepted(fan_machine(), 0, caps)
    assert str(exc.value) == name


def test_enumerate_without_caps_firing_is_exact():
    assert enumerate_accepted(fan_machine(), 0, ResourceCaps(max_steps=7, max_tree_edges=2, max_frontier=4)) == set()


def test_enumerate_quad_short(quad):
    words = enumerate_accepted(quad, 8)
    assert words == {(), tuple("abcd"), tuple("abcdabcd"), tuple("aabbccdd")}
    assert enumerate_accepted(quad, 3) == {()}


def test_enumerate_no_finals():
    m = small_machine(["1 2 push x a"], final="")
    assert enumerate_accepted(m, 4) == set()


def test_enumerate_escalates_on_cap():
    m = small_machine(["1 1 push x eps"])
    with pytest.raises(EnumerationCapExceeded):
        enumerate_accepted(m, 2, ResourceCaps(max_tree_edges=20))


def test_enumerated_words_individually_accepted(quad, anbn, dyck2, zcount):
    import random

    rng = random.Random(11)
    for machine in (quad, anbn, dyck2, zcount):
        members = enumerate_accepted(machine, 8)
        for w in members:
            assert accepts(machine, w).verdict == ACCEPTED
        letters = sorted(machine.input_alphabet)
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(9)))
            expected = ACCEPTED if w in members else REJECTED
            assert accepts(machine, w).verdict == expected


# --- determinism ---------------------------------------------------------------


def test_quad_deterministic(quad):
    assert check_deterministic(quad) is None


def test_two_pushes_on_same_letter_conflict():
    m = small_machine(["1 2 push x a", "1 1 push y a"])
    conflict = check_deterministic(m)
    assert conflict is not None
    assert conflict.state == "1"


def test_down_vs_pop_conflict_on_shared_symbol():
    # both domains contain a leaf labeled x below the root
    m = small_machine(["1 2 down x a", "1 1 pop x a"])
    conflict = check_deterministic(m)
    assert conflict is not None
    assert conflict.symbol == "x"
    assert conflict.at_leaf is True


def test_disjoint_pops_are_deterministic():
    m = small_machine(["1 2 pop x a", "1 1 pop y a"])
    assert check_deterministic(m) is None


def test_up_eps_vs_pop_disjoint():
    # at the root vs. at a real leaf: never both
    m = small_machine(["1 2 up eps a", "1 1 pop x a"])
    assert check_deterministic(m) is None


def test_silent_edge_competes_with_every_letter():
    m = small_machine(["1 2 push x eps", "1 1 push y a"])
    assert check_deterministic(m) is not None


# --- limited erasing -------------------------------------------------------------


def test_quad_limited_erasing(quad):
    report = check_limited_erasing(quad)
    assert report.bounded and report.bound == 1


def test_push_only_silent_edges_bound_zero():
    m = small_machine(["1 2 push x eps", "2 1 push y eps"])
    report = check_limited_erasing(m)
    assert report.bounded and report.bound == 0


def test_silent_pop_loop_unbounded():
    m = small_machine(["1 1 pop x eps"])
    report = check_limited_erasing(m)
    assert not report.bounded
    assert any(e.op.kind == "pop" for e in report.cycle)


def test_no_silent_edges_bound_zero(anbn):
    report = check_limited_erasing(anbn)
    assert report.bounded and report.bound == 0


# --- deterministic traces ---------------------------------------------------------


def test_trace_abcd(quad):
    trace = run_trace(quad, "abcd")
    # the maximal run continues past the accepting configuration: it pops
    # back to the start, accepts, then pushes one more y and halts
    assert len(trace.steps) == 7
    assert trace.consumed == 4
    assert trace.accepted_at == (6,)
    assert trace.final_state == "2"
    assert trace.final_tree.branch_labels() == ("y",)
    assert trace.stopped == "halted"


def test_trace_empty_word(quad):
    trace = run_trace(quad, "")
    assert trace.accepted_at == (0,)  # the initial configuration accepts ε
    assert [s.edge.op.kind for s in trace.steps] == ["push"]


def test_trace_stops_before_foreign_letter(quad):
    trace = run_trace(quad, "abz")
    assert trace.consumed == 2


def test_trace_detects_nondeterminism():
    m = small_machine(["1 2 push x a", "1 1 push y a"])
    with pytest.raises(NondeterminismDetected):
        run_trace(m, "a")


def test_trace_cap(quad):
    trace = run_trace(quad, "abcd", ResourceCaps(max_steps=3))
    assert trace.stopped == "max_steps"
    assert len(trace.steps) == 3


def test_trace_halting_at_the_step_cap_is_halted(anbn):
    trace = run_trace(anbn, "ab", ResourceCaps(max_steps=2))
    assert (trace.stopped, len(trace.steps), trace.accepted_at) == ("halted", 2, (2,))
    assert run_trace(anbn, "ab", ResourceCaps(max_steps=1)).stopped == "max_steps"
    assert run_trace(anbn, "b", ResourceCaps(max_steps=0)).stopped == "halted"
    assert run_trace(anbn, "a", ResourceCaps(max_steps=0)).stopped == "max_steps"


def test_trace_cap_before_a_nondeterministic_step():
    # two further steps still mean the cap stopped the run; only running
    # into them raises
    m = small_machine(["1 2 push x a", "1 1 push y a"])
    assert run_trace(m, "a", ResourceCaps(max_steps=0)).stopped == "max_steps"


def test_fixture_languages_against_independent_predicates(anbn, dyck2, zcount, xyblock):
    import itertools

    def expect(alphabet, max_len, predicate):
        return {
            w
            for n in range(max_len + 1)
            for w in itertools.product(alphabet, repeat=n)
            if predicate(w)
        }

    def balanced(w):
        closers = {"b": "a", "d": "c"}
        stack = []
        for ch in w:
            if ch in ("a", "c"):
                stack.append(ch)
            elif not stack or stack.pop() != closers[ch]:
                return False
        return not stack

    assert enumerate_accepted(anbn, 8) == expect(
        "ab", 8, lambda w: w == tuple("a" * (len(w) // 2) + "b" * (len(w) // 2))
    )
    assert enumerate_accepted(dyck2, 6) == expect("abcd", 6, balanced)
    assert enumerate_accepted(zcount, 6) == expect(
        "aA", 6, lambda w: w.count("a") == w.count("A")
    )
    assert enumerate_accepted(xyblock, 8) == {
        tuple("p" * n + "q" * n) for n in range(1, 5)
    }


def test_free_group_machine_accepts_reduced_identity_words():
    import itertools

    from conftest import free_group_wp_machine
    from nestedstack.group_geometry import make_oracle

    machine = free_group_wp_machine(rank=2)
    assert check_deterministic(machine) is None
    oracle = make_oracle("free 2")
    words = enumerate_accepted(machine, 4)
    expected = {
        w
        for n in range(5)
        for w in itertools.product("aAbB", repeat=n)
        if oracle.canonical(w) == oracle.identity
    }
    assert words == expected


def test_quad_language_equivalence_up_to_24(quad):
    def block_words(max_len):
        out = set()

        def extend(acc):
            out.add(acc)
            k = 1
            while len(acc) + 4 * k <= max_len:
                extend(acc + tuple("a" * k + "b" * k + "c" * k + "d" * k))
                k += 1

        extend(())
        return out

    assert enumerate_accepted(quad, 24) == block_words(24)


def test_quad_traces_pop_at_most_once_between_letters(quad):
    # the silent erasing bound k=1 shows up in runs: never two silent pops
    # between consecutive consumed letters
    for word in enumerate_accepted(quad, 16):
        trace = run_trace(quad, word)
        silent_pops = 0
        worst = 0
        for s in trace.steps:
            if s.edge.letter != EPSILON:
                silent_pops = 0
            elif s.edge.op.kind == "pop":
                silent_pops += 1
                worst = max(worst, silent_pops)
        assert worst <= 1


def test_trace_tree_cap_lists_the_crossing_step(quad):
    trace = run_trace(quad, "aaaabbbbccccdddd", ResourceCaps(max_tree_edges=1))
    assert trace.stopped == "max_tree_edges"
    assert len(trace.steps) == 2  # push y (1 edge), then push x crosses the cap
    assert trace.steps[-1].tree.edge_count == 2
    assert trace.final_tree.edge_count == 2
    assert trace.consumed == 1
    assert trace.accepted_at == ()


def test_trace_tree_cap_not_hit_by_small_trees(quad):
    assert run_trace(quad, "abcd", ResourceCaps(max_tree_edges=2)).stopped == "halted"
