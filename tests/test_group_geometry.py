import pytest

from nestedstack.group_geometry import (
    DirectProduct,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    WindowCapExceeded,
    ball,
    ends_probe,
    make_oracle,
    min_separator,
    narrowness_probe,
    parse_finite_table,
    qi_check,
)

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
    tree_probe = narrowness_probe(
        free2, (1, 2), [("a",) * 6], window_radius=lambda r, c: len(c) + r + 1
    )
    assert tree_probe.trend() == "constant"
    assert tree_probe.max_cut(1) == tree_probe.max_cut(2) == 1
    grid_probe = narrowness_probe(grid2, (1, 2, 3), ["a" * 8])
    assert grid_probe.trend() == "increasing"


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
    # the blocks, paths are vertex-disjoint, the cut really cuts
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
        source_side = {("s", 0)}
        sink_side = {("t", 0)}
        src_attached = set(rng.sample(vertices, k=rng.randrange(1, 3)))
        snk_attached = set(rng.sample(vertices, k=rng.randrange(1, 3)))
        if src_attached & snk_attached:
            continue  # blocks must not share a neighbor edge-for-edge here

        def neighbors(v, _adj=adjacency, _src=src_attached, _snk=snk_attached):
            if v in source_side:
                return list(_src)
            if v in sink_side:
                return list(_snk)
            out = list(_adj[v])
            if v in _src:
                out.append(("s", 0))
            if v in _snk:
                out.append(("t", 0))
            return out

        interior = set(vertices)
        flow, cut, paths = _vertex_max_flow(neighbors, interior, source_side, sink_side)

        assert len(paths) == flow
        seen = set()
        for path in paths:
            assert not (set(path) & seen)
            seen.update(path)

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

