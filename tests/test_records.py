"""Record semantics: the result and input records are immutable value
objects.  Each one builds positionally and by keyword, compares and hashes
by value, refuses assignment, and prints as `Name(field=value, ...)`: the
repr strings below are pinned, so that a change to a record's fields, their
order or their defaults shows up here.
"""

import pytest

from nestedstack import config_graph as cgm
from nestedstack import group_geometry as geo
from nestedstack import machine as mm
from nestedstack import pda_quotient as pq
from nestedstack.groups import parse_finite_table
from nestedstack.hom import Homomorphism
from nestedstack.memory_tree import StackOp, apply, empty_tree, push


def _tree():
    return apply(push("x"), empty_tree())


PUSH = StackOp("push", "x")
EDGE = mm.Edge("1", "2", PUSH, "a")
CONFIG = cgm.Configuration("2", _tree())
ORACLE = geo.make_oracle("abelian 1")

# record -> (positional arguments, the repr they print)
SAMPLES = {
    StackOp: (("pop", "y"), "StackOp(kind='pop', symbol='y')"),
    mm.Edge: (("1", "2", PUSH, "a"),
              "Edge(src='1', dst='2', op=StackOp(kind='push', symbol='x'), letter='a')"),
    mm.Machine: ((("1", "2"), "1", frozenset({"1"}), frozenset({"a"}), frozenset({"x"}), (EDGE,)),
                 "Machine(states=('1', '2'), initial='1', finals=frozenset({'1'}), input_alphabet=frozenset({'a'}), "
                 "memory_alphabet=frozenset({'x'}), edges=(Edge(src='1', dst='2', "
                 "op=StackOp(kind='push', symbol='x'), letter='a'),))"),
    mm.ResourceCaps: ((5, 6, 7), "ResourceCaps(max_steps=5, max_tree_edges=6, max_frontier=7)"),
    mm.Computation: (((EDGE,), ("a",), _tree()),
                     "Computation(path=(Edge(src='1', dst='2', op=StackOp(kind='push', symbol='x'), letter='a'),), "
                     "word=('a',), outcome=MemoryTree(parents=(-1, 0), labels=('', 'x'), distinguished=1))"),
    mm.AcceptResult: (("REJECTED", None, ("max_steps",)),
                      "AcceptResult(verdict='REJECTED', witness=None, caps_hit=('max_steps',))"),
    mm.DeterminismConflict: (("1", EDGE, EDGE, "x", True),
                             "DeterminismConflict(state='1', first=Edge(src='1', dst='2', op=StackOp(kind='push', "
                             "symbol='x'), letter='a'), second=Edge(src='1', dst='2', op=StackOp(kind='push', "
                             "symbol='x'), letter='a'), symbol='x', at_leaf=True)"),
    mm.ErasingReport: ((True, 3, None), "ErasingReport(bounded=True, bound=3, cycle=None)"),
    mm.TraceStep: ((EDGE, _tree(), 1),
                   "TraceStep(edge=Edge(src='1', dst='2', op=StackOp(kind='push', symbol='x'), letter='a'), "
                   "tree=MemoryTree(parents=(-1, 0), labels=('', 'x'), distinguished=1), consumed=1)"),
    mm.Trace: ((("a",), (), 0, "1", empty_tree(), (0,), "halted"),
               "Trace(word=('a',), steps=(), consumed=0, final_state='1', "
               "final_tree=MemoryTree(parents=(-1,), labels=('',), distinguished=0), accepted_at=(0,), "
               "stopped='halted')"),
    cgm.Configuration: (("2", _tree()),
                        "Configuration(state='2', tree=MemoryTree(parents=(-1, 0), labels=('', 'x'), "
                        "distinguished=1))"),
    cgm.BuildHorizon: ((4, 10, 2), "BuildHorizon(max_tree_edges=4, max_vertices=10, max_depth=2)"),
    cgm.ConfigGraph: ((None, [CONFIG], [], [None], {0}, cgm.BuildHorizon(), False),
                      "ConfigGraph(machine=None, vertices=[Configuration(state='2', "
                      "tree=MemoryTree(parents=(-1, 0), labels=('', 'x'), distinguished=1))], edges=[], "
                      "parent=[None], coaccessible={0}, "
                      "horizon=BuildHorizon(max_tree_edges=16, max_vertices=200000, max_depth=None), "
                      "truncated=False)"),
    cgm.DegreeViolation: ((CONFIG, ()),
                          "DegreeViolation(config=Configuration(state='2', tree=MemoryTree(parents=(-1, 0), "
                          "labels=('', 'x'), distinguished=1)), edges=())"),
    cgm.ProjectionViolation: (((CONFIG, CONFIG, "a"), ("a",), (), (1,), (0,)),
                              "ProjectionViolation(edge=(Configuration(state='2', tree=MemoryTree(parents=(-1, 0), "
                              "labels=('', 'x'), distinguished=1)), Configuration(state='2', "
                              "tree=MemoryTree(parents=(-1, 0), labels=('', 'x'), distinguished=1)), 'a'), "
                              "via_discovery=('a',), via_edge=(), image_discovery=(1,), image_edge=(0,))"),
    cgm.ProjectionReport: (([], []), "ProjectionReport(images=[], violations=[])"),
    cgm.LiftResult: (("stuck", [], [], 0, 0),
                     "LiftResult(status='stuck', configs=[], labels=[], consumed=0, stuck_at=0)"),
    pq.QuotientGraph: (([[0]], [0], set(), [0], [CONFIG]),
                       "QuotientGraph(classes=[[0]], class_of=[0], edges=set(), class_diameters=[0], "
                       "vertices=[Configuration(state='2', tree=MemoryTree(parents=(-1, 0), labels=('', 'x'), "
                       "distinguished=1))])"),
    Homomorphism: (({"a": ("b", "c")}, ("b", "c")),
                   "Homomorphism(images={'a': ('b', 'c')}, target_alphabet=('b', 'c'))"),
    geo.SeparatorReport: ((1, ((1,),), False, (((0,), (1,)),), 3, 1),
                          "SeparatorReport(cut_size=1, cut_set=((1,),), window_limited=False, "
                          "disjoint_paths=(((0,), (1,)),), window_radius=3, ball_radius=1)"),
    geo.ProbeCell: ((1, ("a",), None, "boom"), "ProbeCell(radius=1, center=('a',), report=None, error='boom')"),
    geo.ProbeTable: (([],), "ProbeTable(cells=[])"),
    geo.EndsReport: ((1, 4, 2, 0, (3, 3)),
                     "EndsReport(radius=1, window_radius=4, boundary_components=2, finite_components=0, "
                     "component_sizes=(3, 3))"),
    geo.QIViolation: (("lower", "d too small"), "QIViolation(kind='lower', detail='d too small')"),
}

# the defaults of the fields that have one
DEFAULTS = {
    StackOp: {"symbol": ""},
    mm.ResourceCaps: {"max_steps": 10**6, "max_tree_edges": 10**4, "max_frontier": 10**5},
    mm.AcceptResult: {"witness": None, "caps_hit": ()},
    mm.ErasingReport: {"bound": None, "cycle": None},
    cgm.BuildHorizon: {"max_tree_edges": 16, "max_vertices": 200_000, "max_depth": None},
    cgm.LiftResult: {"stuck_at": None},
    Homomorphism: {"target_alphabet": ()},
    geo.ProbeCell: {"report": None, "error": None},
}

# records holding a list, dict or set, which (as before) cannot be hashed
UNHASHABLE = {cgm.ConfigGraph, cgm.ProjectionReport, cgm.LiftResult, pq.QuotientGraph, Homomorphism,
              geo.ProbeTable}

IDS = [cls.__name__ for cls in SAMPLES]


@pytest.mark.parametrize("cls", SAMPLES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    args, _ = SAMPLES[cls]
    record = cls(*args)
    assert record == cls(**dict(zip(cls._fields, args)))
    assert tuple(getattr(record, name) for name in cls._fields) == tuple(args)


@pytest.mark.parametrize("cls", SAMPLES, ids=IDS)
def test_defaults(cls):
    assert cls._field_defaults == DEFAULTS.get(cls, {})
    if cls in (StackOp, Homomorphism):  # validated: see the tests below
        return
    record = cls(*SAMPLES[cls][0][: len(cls._fields) - len(cls._field_defaults)])
    for name, value in DEFAULTS.get(cls, {}).items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls", SAMPLES, ids=IDS)
def test_repr_is_pinned(cls):
    args, text = SAMPLES[cls]
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned(cls):
    record = cls(*SAMPLES[cls][0])
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("cls", SAMPLES, ids=IDS)
def test_equality_and_hash_by_value(cls):
    args = SAMPLES[cls][0]
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert a != a._replace(**{cls._fields[-1]: "other"})


def test_stack_op_validation_messages():
    with pytest.raises(ValueError, match=r"^unknown stack operation kind 'jump'$"):
        StackOp("jump")
    with pytest.raises(ValueError, match=r"^push requires a non-empty memory symbol$"):
        StackOp("push")
    with pytest.raises(ValueError, match=r"^pop requires a non-empty memory symbol$"):
        StackOp(kind="pop", symbol="")
    with pytest.raises(ValueError, match=r"^stay takes no symbol$"):
        StackOp("stay", "x")
    assert StackOp("stay").symbol == StackOp("up").symbol == ""


def test_machine_validation_messages():
    args = dict(states=("1", "2"), initial="1", finals=frozenset({"1"}), input_alphabet=frozenset({"a"}),
                memory_alphabet=frozenset({"x"}), edges=(EDGE,))
    cases = [
        (dict(states=("1", "1")), r"^duplicate state id$"),
        (dict(initial="3"), r"^initial state '3' not declared$"),
        (dict(finals=frozenset({"9"})), r"^final state '9' not declared$"),
        (dict(edges=(mm.Edge("1", "5", PUSH, "a"),)),
         r"^edge endpoint not declared: 1 -\(push x, a\)-> 5$"),
        (dict(memory_alphabet=frozenset()), r"^edge uses undeclared memory symbol 'x'$"),
        (dict(input_alphabet=frozenset()), r"^edge uses undeclared input letter 'a'$"),
    ]
    for change, message in cases:
        with pytest.raises(mm.MachineError, match=message):
            mm.Machine(**{**args, **change})


def test_homomorphism_normalizes_and_validates():
    f = Homomorphism({"a": ["b", "c"], "d": "c"})
    assert f.images == {"a": ("b", "c"), "d": ("c",)}
    assert f.target_alphabet == ("b", "c")  # the default: image letters in order of appearance
    with pytest.raises(ValueError, match=r"^letter 'a' maps to the empty word$"):
        Homomorphism({"a": ()})
    with pytest.raises(ValueError, match=r"^image letters outside target alphabet: \['c'\]$"):
        Homomorphism({"a": "bc"}, ("b",))


def test_machine_step_table_is_cached_per_machine():
    m = mm.Machine(*SAMPLES[mm.Machine][0])
    assert m.step_table is m.step_table
    # a push is defined whatever the current symbol and leaf status; a cell
    # holds one flat record per edge, (edge, dst, kind, symbol, letter)
    assert {cell for cells in m.step_table["1"]["a"].values() for cell in cells} == {((EDGE, "2", "push", "x", "a"),)}
    assert m.step_table["2"][""] == {"x": ((), ()), "": ((), ())}  # a column per memory symbol and EPSILON, no other
    assert mm.Machine(*SAMPLES[mm.Machine][0]).step_table is not m.step_table


def test_cayley_windows_do_not_share_an_adjacency():
    w1 = geo.ball(ORACLE, (), 1)
    w2 = geo.ball(ORACLE, ("a",), 1)
    assert w1.ids == {(0,): 0, (1,): 1, (-1,): 2}
    assert w2.ids == {(1,): 0, (2,): 1, (0,): 2}
    assert w1.adjacency[0] == [1, 2]  # (1,), (-1,): generator order
    assert w2.adjacency[0] == [1, 2]  # (2,), (0,)
    assert w1.adjacency[w1.ids[(1,)]] == [0]  # (2,) lies outside w1
    assert w1.adjacency is w1.adjacency and w1.ids is w1.ids
    assert w1.adjacency is not w2.adjacency
    assert geo.CayleyWindow(ORACLE, (0,), 0, {(0,): 0}).adjacency == [[]]
    # b is the identity (a self-loop) and c repeats a: both are dropped
    z2 = parse_finite_table("elements: e a\nidentity: e\ngenerators: a=a b=e c=a\n"
                            "mul: e e e\nmul: e a a\nmul: a e a\nmul: a a e\n")
    assert z2._neighbors(z2.identity) == ["a", "e", "a"]
    assert geo.ball(z2, (), 1).adjacency == [[1], [0]]
