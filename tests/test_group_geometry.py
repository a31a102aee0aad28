import pytest

from nestedstack.cli_common import _oracle, _UsageError
from nestedstack.group_geometry import (
    WindowCapExceeded,
    ball,
    ends_probe,
    min_separator,
    narrowness_probe,
    qi_check,
)
from nestedstack.groups import DirectProduct, FiniteGroup, FreeAbelianGroup, FreeGroup, make_oracle, parse_finite_table

from conftest import FIXTURES


@pytest.fixture(scope="module")
def free2():
    return make_oracle("free 2")


@pytest.fixture(scope="module")
def grid2():
    return make_oracle("abelian 2")


@pytest.fixture(scope="module")
def line():
    return make_oracle("abelian 1")


# --- oracles -------------------------------------------------------------------


def test_free_reduction(free2):
    assert free2.canonical("aA") == free2.identity
    assert free2.canonical("abBA") == free2.identity
    assert free2.canonical("ab") != free2.identity
    assert free2.canonical("abBa") == ("a", "a")


def test_abelian_canonical(grid2):
    assert grid2.canonical("abA") == grid2.canonical("b")
    assert grid2.norm(grid2.canonical("aabB")) == 2


def test_finite_table(free2):
    z2 = make_oracle(f"finite {FIXTURES / 'z2.grp'}")
    assert z2.canonical("aa") == z2.identity
    assert z2.canonical("a") != z2.identity
    assert z2.inverse_letter("a") == "a"


def test_finite_table_validation():
    bad = """
elements: e a
identity: e
generators: a=a
mul: e e e
mul: e a a
mul: a e a
mul: a a a
"""
    with pytest.raises(ValueError):
        parse_finite_table(bad)  # a has no inverse


def table_text(elements="e a", identity="e", generators="a=a", muls=("e e e", "e a a", "a e a", "a a e")):
    """A table file, by default the one of Z/2 in `fixtures/z2.grp`."""
    head = f"elements: {elements}\nidentity: {identity}\ngenerators: {generators}\n"
    return head + "".join(f"mul: {m}\n" for m in muls)


Z3 = ("e e e", "e a a", "e b b", "a e a", "b e b", "a a b", "a b e", "b a e", "b b a")
NOT_ASSOCIATIVE = ("e e e", "e a a", "e b b", "a e a", "b e b", "a a b", "a b b", "b a a", "b b a")


@pytest.mark.parametrize("text,where,message", [
    (table_text(identity="e a"), ":2", "identity takes one element"),
    (table_text(generators="a"), ":3", "generators are LETTER=ELEMENT"),
    (table_text(muls=("e e",)), ":4", "mul takes three elements"),
    (table_text() + "order: 2\n", ":8", "unknown section 'order'"),
    (table_text(generators=""), "", "table needs elements, identity, and generators"),
    (table_text(elements="e a a"), "", "duplicate element"),
    (table_text(identity="x"), "", "identity is not an element"),
    (table_text(muls=("e e e", "e a a", "a e a")), "", "multiplication table is missing a * a"),
    (table_text(muls=("e e e", "e a a", "a e a", "a a z")), "", "a * a is not an element"),
    (table_text(muls=("e e e", "e a e", "a e a", "a a e")), "", "identity law fails at a"),
    (table_text("e a b", generators="a=a b=b", muls=NOT_ASSOCIATIVE), "", "associativity fails at (a, a, a)"),
    (table_text(muls=("e e e", "e a a", "a e a", "a a a")), "", "element 'a' has no inverse; not a group table"),
    (table_text(generators="a=z"), "", "generator 'a' maps to unknown element 'z'"),
    (table_text("e a b", generators="x=a", muls=Z3), "", "generator 'x' has no formal inverse letter"),
    (table_text(generators="x=e"), "", "generators do not generate the whole group"),
])
def test_malformed_table_errors_name_the_file(tmp_path, text, where, message):
    path = tmp_path / "t.grp"
    path.write_text(text)
    with pytest.raises(ValueError):
        make_oracle(f"finite {path}")
    with pytest.raises(_UsageError) as caught:  # the CLI's loader names the file
        _oracle(f"finite {path}")
    assert str(caught.value) == f"{path}{where}: {message}"


def test_missing_table_names_the_file(tmp_path):
    path = tmp_path / "missing.grp"
    with pytest.raises(OSError):
        make_oracle(f"product abelian 1 finite {path}")
    with pytest.raises(_UsageError) as caught:
        _oracle(f"product abelian 1 finite {path}")
    assert str(caught.value) == f"{path}: [Errno 2] No such file or directory: '{path}'"


def test_finite_table_norm_and_product_with_a_self_inverse_generator():
    z2 = make_oracle(f"finite {FIXTURES / 'z2.grp'}")
    assert (z2.norm(z2.identity), z2.norm(z2.canonical("a"))) == (0, 1)
    product = make_oracle(f"product abelian 1 finite {FIXTURES / 'z2.grp'}")
    assert product.generators == ("a", "A", "b")  # z2's `a` is its own inverse: one letter
    assert [product.inverse_letter(x) for x in product.generators] == ["A", "a", "b"]
    assert product.describe(product.canonical("aab")) == "((2), a)"
    assert product.distance("", "aab") == 3
    assert product.distance("b", "Ab") == 1
    assert product.canonical("bb") == product.identity


def test_product_relabels_generators():
    product = make_oracle("product abelian 1 abelian 1")
    assert product.generators == ("a", "A", "b", "B")
    assert product.norm(product.canonical("ab")) == 2
    assert product.canonical("abAB") == product.identity


def test_rank_zero_is_trivial():
    trivial = make_oracle("free 0")
    assert trivial.generators == ()
    assert trivial.canonical("") == trivial.identity


def test_make_oracle_rejects_garbage():
    for spec in ("", "free", "octonion 2", "free 1 extra"):
        with pytest.raises(ValueError):
            make_oracle(spec)


def test_distance_via_formal_inverses(free2, grid2):
    assert free2.distance("a", "ab") == 1
    assert free2.distance("", "abab") == 4
    assert grid2.distance("a", "b") == 2


# --- balls ----------------------------------------------------------------------


def test_ball_sizes(free2, grid2):
    assert len(ball(free2, (), 1).dist) == 5
    assert len(ball(grid2, (), 2).dist) == 13
    assert len(ball(free2, (), 0).dist) == 1


def test_ball_boundary(grid2):
    window = ball(grid2, (), 2)
    assert {window.dist[v] for v in window.boundary} == {2}
    assert len(window.boundary) == 8


def test_ball_window_cap(free2):
    with pytest.raises(WindowCapExceeded):
        ball(free2, (), 10, max_vertices=100)


# --- separators --------------------------------------------------------------------


def test_tree_separator_is_one_vertex(free2):
    report = min_separator(free2, (), "aaaaaa", 2, 8)
    assert report.cut_size == 1
    assert len(report.disjoint_paths) == 1
    assert not report.window_limited


def test_grid_separator_grows(grid2):
    sizes = []
    for r in (1, 2, 3):
        report = min_separator(grid2, (), "a" * (4 * r), r, 5 * r + 2)
        assert report.cut_size == len(report.disjoint_paths)
        sizes.append(report.cut_size)
    assert sizes[0] < sizes[1] < sizes[2]


def test_grid_separator_spec_example(grid2):
    report = min_separator(grid2, (), "a" * 10, 2, 16)
    assert report.cut_size >= 5


def test_separator_rejects_touching_balls(grid2):
    with pytest.raises(ValueError):
        min_separator(grid2, (), "a", 0, 6)  # adjacent centers
    with pytest.raises(ValueError):
        min_separator(grid2, (), "aa", 1, 8)  # balls touch


def test_separator_rejects_small_window(grid2):
    with pytest.raises(ValueError):
        min_separator(grid2, (), "a" * 6, 2, 5)


def test_window_growth_monotonicity(free2, grid2):
    stable = min_separator(free2, (), "aaaaaa", 2, 8)
    grown = min_separator(free2, (), "aaaaaa", 2, 10)
    assert not stable.window_limited
    assert grown.cut_size == stable.cut_size
    limited = min_separator(grid2, (), "a" * 8, 2, 12)
    wider = min_separator(grid2, (), "a" * 8, 2, 14)
    assert limited.window_limited
    assert wider.cut_size >= limited.cut_size


def test_probe_trends(free2, grid2):
    tree_probe = narrowness_probe(free2, (1, 2), [("a",) * 6], window_radius=8)
    assert tree_probe.trend() == "constant"
    assert tree_probe.max_cut(1) == tree_probe.max_cut(2) == 1
    grid_probe = narrowness_probe(grid2, (1, 2, 3), ["a" * 8])
    assert grid_probe.trend() == "increasing"


def test_probe_trend_mixed(grid2):
    # a fixed window of radius 8: the cut grows from r=0 to r=1, then the
    # window stops it growing
    table = narrowness_probe(grid2, (0, 1, 2), ["a" * 6], window_radius=8)
    assert [table.max_cut(r) for r in (0, 1, 2)] == [3, 5, 5]
    assert table.trend() == "mixed"


def test_probe_refuses_a_negative_radius_or_window(line):
    with pytest.raises(ValueError, match="radius must be non-negative"):
        narrowness_probe(line, (1, -1), ["aaaa"])
    with pytest.raises(ValueError, match="window must be non-negative"):
        narrowness_probe(line, (1,), ["aaaa"], window_radius=-1)


def test_probe_records_errors_per_cell(grid2):
    table = narrowness_probe(grid2, (1, 2), ["aa"])  # balls collide at r=2
    errors = [c for c in table.cells if c.error]
    assert errors
    assert table.trend() == "insufficient data"


# --- ends -----------------------------------------------------------------------


def test_ends_counts(line, grid2, free2):
    assert ends_probe(line, 3, 10).boundary_components == 2
    assert ends_probe(grid2, 3, 10).boundary_components == 1
    report = ends_probe(free2, 2, 8)
    # one component per vertex just outside the removed closed ball
    assert report.boundary_components == 4 * 3**2
    assert report.finite_components == 0


def test_ends_window_precondition(line):
    with pytest.raises(ValueError):
        ends_probe(line, 3, 5)


def test_negative_radius_and_window_are_named(line):
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        ends_probe(line, -1, 3)
    with pytest.raises(ValueError, match="^window must be non-negative$"):
        min_separator(line, (), "aaa", 0, -1)
    with pytest.raises(ValueError, match="^window must be non-negative$"):
        qi_check(line, line, [("", "")], 1, density_window=-1)


# --- quasi-isometry ----------------------------------------------------------------


def test_qi_identity_clean(free2):
    samples = [(w, w) for w in ("", "a", "ab", "abab")]
    assert qi_check(free2, free2, samples, 1) == []


def test_qi_collapse_violates_lower_bound(free2):
    trivial = make_oracle("free 0")
    violations = qi_check(free2, trivial, [("", ""), ("aaaa", "")], 1)
    assert [v.kind for v in violations] == ["lower"]


def test_qi_doubling_within_k2(line):
    samples = [(("a",) * n, ("a",) * (2 * n)) for n in range(4)]
    assert qi_check(line, line, samples, 2) == []


def test_vertex_flow_matches_brute_force_min_cut():
    # differential check of the implicit split-graph flow on random small
    # graphs: flow value == smallest vertex set whose removal disconnects
    # the blocks, paths are vertex-disjoint paths between the blocks, the
    # cut really cuts
    import itertools
    import random

    from nestedstack.group_geometry import _vertex_max_flow

    rng = random.Random(99)
    for trial in range(60):
        n = rng.randrange(6, 13)
        vertices = list(range(n))
        adjacency = {v: set() for v in vertices}
        for u in vertices:
            for w in vertices:
                if u < w and rng.random() < 0.35:
                    adjacency[u].add(w)
                    adjacency[w].add(u)
        src_attached = rng.sample(vertices, k=rng.randrange(1, 3))
        snk_attached = set(rng.sample(vertices, k=rng.randrange(1, 3)))
        if snk_attached.intersection(src_attached):
            continue  # blocks must not share a neighbor edge-for-edge here

        # ids 0..n-1 are interior; n is the source block, n + 1 the sink block
        ids = [sorted(adjacency[v]) + [n] * (v in src_attached) + [n + 1] * (v in snk_attached) for v in vertices]
        ids += [list(src_attached), sorted(snk_attached)]
        flow, cut, paths = _vertex_max_flow(ids, set(vertices), src_attached, {n + 1})

        assert len(paths) == flow == len(cut)
        seen = set()
        for path in paths:
            assert not (set(path) & seen)
            seen.update(path)
            assert path[0] in src_attached and path[-1] in snk_attached
            assert all(b in adjacency[a] for a, b in zip(path, path[1:]))

        def disconnects(removed):
            frontier = set(src_attached) - removed
            visited = set(frontier)
            while frontier:
                v = frontier.pop()
                if v in snk_attached:
                    return False
                for w in adjacency[v]:
                    if w not in visited and w not in removed:
                        visited.add(w)
                        frontier.add(w)
            return True

        assert disconnects(set(cut))
        brute = None
        for size in range(0, flow + 1):
            for subset in itertools.combinations(vertices, size):
                if disconnects(set(subset)):
                    brute = size
                    break
            if brute is not None:
                break
        assert brute == flow, f"trial {trial}: flow {flow} vs brute {brute}"


# The reroute graph: interior ids 0-6, source block 7, sink block 8.  The
# first augmenting path is 0 -> 1 -> 2.  The second enters at 3, reaches 2
# through 6, cancels the flow through vertex 1 and sends 0's unit by 4 and 5.
REROUTE = [[1, 4, 7], [0, 2], [1, 6, 8], [6, 7], [0, 5], [4, 8], [3, 2], [0, 3], [2, 5]]


def oracle_flow(adjacency, interior, source_block, sink_block):
    """`_vertex_max_flow`'s answer and the element-keyed oracle's on one
    graph; the sources are sorted by repr, as `min_separator` sorts them,
    and the oracle's cut is sorted."""
    import separator_oracle

    from nestedstack.group_geometry import _vertex_max_flow

    sources = sorted({w for w in adjacency[source_block] if w in interior}, key=repr)
    got = _vertex_max_flow(adjacency, interior, sources, {sink_block})
    flow, cut, paths = separator_oracle.vertex_max_flow(adjacency.__getitem__, interior, {source_block}, {sink_block})
    return got, (flow, tuple(sorted(cut)), paths)


def test_vertex_flow_reroutes_through_a_used_vertex():
    from nestedstack.group_geometry import _vertex_max_flow

    assert _vertex_max_flow(REROUTE, set(range(7)), [0, 3], {8}) == (2, (0, 3), ((0, 4, 5), (3, 6, 2)))
    got, expected = oracle_flow(REROUTE, set(range(7)), 7, 8)
    assert got == expected


def test_vertex_flow_matches_the_element_keyed_oracle():
    import random

    rng = random.Random(17)
    for _ in range(1000):
        n = rng.randrange(8, 31)
        adjacency = [[] for _ in range(n + 2)]
        for u in range(n):
            for w in range(u + 1, n):
                if rng.random() < 0.15:
                    adjacency[u].append(w)
                    adjacency[w].append(u)
        k = rng.randrange(2, 5)
        attached = rng.sample(range(n), k + rng.randrange(2, 5))
        for block, vertices in ((n, attached[:k]), (n + 1, attached[k:])):
            for v in vertices:
                adjacency[v].append(block)
                adjacency[block].append(v)
        got, expected = oracle_flow(adjacency, set(range(n)), n, n + 1)
        assert got == expected


def test_vertex_flow_stops_a_never_ending_augmentation(monkeypatch):
    from nestedstack import group_geometry
    from nestedstack.group_geometry import _END, _vertex_max_flow

    # every search finds in(0) -> out(0) -> sink, as a residual update that
    # never takes effect would
    monkeypatch.setattr(group_geometry, "bfs_tree", lambda *args, **kwargs: {0: None, 1: 0, _END: 1})
    with pytest.raises(RuntimeError, match="augmenting paths outnumber the source vertices"):
        _vertex_max_flow([[1, 2], [0], [0]], {0}, [0], {2})


def test_qi_density_window(line):
    def point(n):
        return ("a",) * n if n >= 0 else ("A",) * (-n)

    dense = [(point(n), point(n)) for n in range(-3, 4)]
    sparse = [(point(n), point(3 * n)) for n in range(3)]
    assert qi_check(line, line, dense, 1, density_window=3) == []
    gaps = [v for v in qi_check(line, line, sparse, 1, density_window=4) if v.kind == "density"]
    assert gaps


def test_make_oracle_rejects_deep_nesting():
    spec = "product free 0 " * 1000 + "free 0"
    with pytest.raises(ValueError, match="nested too deeply"):
        make_oracle(spec)
    shallow = make_oracle("product free 0 " * 50 + "free 1")
    assert shallow.generators == ("a", "A")


@pytest.mark.parametrize("k", [float("inf"), float("nan"), -float("inf"), 0.0])
def test_qi_rejects_non_finite_or_non_positive_k(line, k):
    with pytest.raises(ValueError, match="positive and finite"):
        qi_check(line, line, [((), ())], k, density_window=1)

