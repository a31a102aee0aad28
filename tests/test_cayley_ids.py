"""The Cayley-window searches of `nestedstack.group_geometry`, which run on
integer vertex ids, against the element-keyed searches they replaced
(`separator_oracle`): whole reports, error messages included, on free,
free abelian, finite and product groups; and the separator's cut size
against `networkx.minimum_node_cut`."""

import random

import pytest

import separator_oracle as ref
from conftest import FIXTURES
from nestedstack import group_geometry
from nestedstack.group_geometry import (
    SeparatorReport,
    WindowCapExceeded,
    ball,
    ends_probe,
    make_oracle,
    min_separator,
    narrowness_probe,
    qi_check,
)


def cyclic_table(n):
    """The table of Z/n generated by a = 1 and its inverse A = n - 1."""
    names = ["e"] + [f"x{i}" for i in range(1, n)]
    muls = [f"{names[i]} {names[j]} {names[(i + j) % n]}" for i in range(n) for j in range(n)]
    head = f"elements: {' '.join(names)}\nidentity: e\ngenerators: a={names[1]} A={names[-1]}\n"
    return head + "".join(f"mul: {m}\n" for m in muls)


GROUP_SPECS = ["free 1", "free 2", "abelian 1", "abelian 2", "finite Z2", "finite Z5", "finite trivial4",
               "product abelian 1 finite Z2", "product free 1 abelian 1", "product free 1 finite Z5"]
TOUCHING = ("finite Z2", "finite trivial4")  # any two balls overlap or touch: no separator exists


@pytest.fixture(scope="module")
def groups(tmp_path_factory):
    tables = tmp_path_factory.mktemp("tables")
    (tables / "Z5.grp").write_text(cyclic_table(5))
    paths = {"Z2": FIXTURES / "z2.grp", "Z5": tables / "Z5.grp", "trivial4": FIXTURES / "trivial4.grp"}
    specs = {spec: " ".join(str(paths.get(word, word)) for word in spec.split()) for spec in GROUP_SPECS}
    return {spec: make_oracle(text) for spec, text in specs.items()}


def outcome(call, *args):
    """A call's result, or its exception as (type name, message)."""
    try:
        return call(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def random_word(rng, oracle, longest):
    """Up to `longest` letters, none followed by its inverse where another letter is left."""
    word = []
    for _ in range(rng.randrange(longest + 1)):
        letters = [a for a in oracle.generators if not word or oracle.inverse_letter(a) != word[-1]]
        word.append(rng.choice(letters or oracle.generators))
    return tuple(word)


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_separator_matches_the_element_keyed_oracle(groups, spec):
    # whole reports, disjoint paths in order included, or the same error:
    # touching and overlapping balls, windows too small, windows over the cap
    oracle, rng = groups[spec], random.Random(spec)
    reports = 0
    for _ in range(60):
        c1 = random_word(rng, oracle, 2)
        args = (oracle, c1, c1 + random_word(rng, oracle, 8), rng.randrange(3), rng.randrange(2, 11), 5000)
        got = outcome(min_separator, *args)
        assert got == outcome(ref.min_separator, *args), args
        reports += isinstance(got, SeparatorReport)
    assert reports or spec in TOUCHING


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_ends_match_the_element_keyed_oracle(groups, spec):
    oracle, rng = groups[spec], random.Random(spec)
    for _ in range(15):
        radius = rng.randrange(4)
        args = (oracle, radius, radius + rng.randrange(8), 3000)
        assert outcome(ends_probe, *args) == outcome(ref.ends_probe, *args), args


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_probe_tables_match_the_element_keyed_oracle(groups, spec, monkeypatch):
    oracle, rng = groups[spec], random.Random(spec)
    cases = [((0, 1, 2), [random_word(rng, oracle, 4) for _ in range(3)], window) for window in (None, 3, 7)]
    got = [narrowness_probe(oracle, *case) for case in cases]
    monkeypatch.setattr(group_geometry, "min_separator", ref.min_separator)
    assert got == [narrowness_probe(oracle, *case) for case in cases]


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_qi_density_matches_the_element_keyed_oracle(groups, spec):
    target, rng = groups[spec], random.Random(spec)
    source = groups["abelian 1"]
    for _ in range(10):
        samples = [(random_word(rng, source, 4), random_word(rng, target, 4)) for _ in range(rng.randrange(1, 5))]
        k, window = rng.choice((1, 1.5, 2, 3)), rng.randrange(7)
        expected = qi_check(source, target, samples, k) + ref.density_violations(target, samples, k, window)
        assert qi_check(source, target, samples, k, window) == expected


@pytest.mark.parametrize("spec", [spec for spec in GROUP_SPECS if spec not in TOUCHING])
def test_cut_size_matches_networkx_minimum_node_cut(groups, spec):
    # the window graph built from the oracle alone, each ball contracted to
    # one vertex; the reported cut is a minimum cut of it
    nx = pytest.importorskip("networkx")
    oracle, rng = groups[spec], random.Random(spec)
    checked = 0
    for _ in range(20):
        c2, radius, window = random_word(rng, oracle, 6), rng.randrange(2), rng.randrange(2, 7)
        try:
            report = min_separator(oracle, (), c2, radius, window, 3000)
        except (ValueError, WindowCapExceeded):
            continue
        w = ball(oracle, (), window)
        s, t = ("source",), ("sink",)
        block = dict.fromkeys(ball(oracle, (), radius).dist, s) | dict.fromkeys(ball(oracle, c2, radius).dist, t)
        graph = nx.Graph()
        graph.add_nodes_from([s, t, *(v for v in w.dist if v not in block)])
        graph.add_edges_from(
            (block.get(v, v), block.get(u, u)) for v in w.dist for u in oracle._neighbors(v) if u in w.dist
        )
        graph.remove_edges_from(list(nx.selfloop_edges(graph)))
        assert report.cut_size == len(nx.minimum_node_cut(graph, s, t)) == len(report.cut_set)
        assert not nx.has_path(graph.subgraph(set(graph) - set(report.cut_set)), s, t)
        checked += 1
    assert checked
