"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
happen.  Expected values marked as derived were computed with the
independent oracles defined in this file (pattern generators, brute-force
membership, hand-simulation) and frozen here.
"""

import itertools
import random
import time

from nestedstack.config_graph import (
    BuildHorizon,
    build,
    check_degrees,
    max_eps_run,
    project,
    vertex_name,
)
from nestedstack.graphs import fundamental_cycle
from nestedstack.group_geometry import ends_probe, make_oracle, min_separator
from nestedstack.hom import parse_homomorphism, preimage
from nestedstack.machine import (
    ACCEPTED,
    accepts,
    check_deterministic,
    check_limited_erasing,
    enumerate_accepted,
)
from nestedstack.memory_tree import (
    EPSILON,
    UNDEFINED,
    apply,
    down,
    empty_tree,
    pop,
    push,
    up,
)
from nestedstack.pda_quotient import (
    check_tree,
    nonerasing_classes,
    quotient,
    quotient_distortion,
)

from conftest import FIXTURES, random_trees, validate


def report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {description}")
    assert ok, f"criterion {number} failed: {description}"


# --- 1: the block language, against an independent pattern generator ---------


def block_pattern_words(max_len: int):
    """Concatenations of blocks a^k b^k c^k d^k, generated recursively."""
    out = set()

    def extend(acc):
        out.add(acc)
        k = 1
        while len(acc) + 4 * k <= max_len:
            extend(acc + tuple("a" * k + "b" * k + "c" * k + "d" * k))
            k += 1

    extend(())
    return out


def test_criterion_1_block_language(quad):
    start = time.perf_counter()
    got = enumerate_accepted(quad, 16)
    expected = block_pattern_words(16)
    elapsed = time.perf_counter() - start
    report(
        1,
        f"enumerate(quad, 16) matches the pattern generator "
        f"({len(got)} words, {elapsed:.2f}s)",
        got == expected and elapsed < 10.0,
    )


# --- 2: decision procedures on the fixture ------------------------------------


def test_criterion_2_decision_procedures(quad):
    det = check_deterministic(quad)
    erasing = check_limited_erasing(quad)
    report(
        2,
        f"quad deterministic and erasing bounded with k={erasing.bound}",
        det is None and erasing.bounded and erasing.bound == 1,
    )


# --- 3: monoid laws over ten thousand seeded trees -----------------------------


def test_criterion_3_monoid_laws():
    trees = random_trees(10_000, seed=20260810)
    alphabet = ("x", "y")
    generators = (
        [push(s) for s in alphabet]
        + [pop(s) for s in alphabet]
        + [down(s) for s in alphabet]
        + [up(s) for s in alphabet]
        + [up()]
    )
    violations = 0
    for op in generators:
        image = {}
        for t in trees:
            result = apply(op, t)
            if result is UNDEFINED:
                continue
            if validate(result):
                violations += 1
            if image.setdefault(result, t) != t:
                violations += 1
    for t in trees:
        for s in alphabet:
            if apply(pop(s), apply(push(s), t)) != t:
                violations += 1
    report(
        3,
        f"{len(trees)} trees: generator injectivity, pop∘push identity, "
        f"validity closure ({violations} violations)",
        len(trees) >= 10_000 and violations == 0,
    )


# --- 4: inverse homomorphisms ----------------------------------------------------


def words_up_to(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(sorted(alphabet), repeat=n)


def test_criterion_4_inverse_homomorphism(quad, xyblock):
    start = time.perf_counter()
    pairs = [
        ("letter map", quad, parse_homomorphism((FIXTURES / "collapse_pq.hom").read_text())),
        ("expansion", xyblock, parse_homomorphism((FIXTURES / "wsplit.hom").read_text())),
        ("4-letter block", quad, parse_homomorphism((FIXTURES / "block4.hom").read_text())),
    ]
    assert any(max(len(w) for w in f.images.values()) == 4 for _, _, f in pairs)
    rng = random.Random(4)
    ok = True
    for label, base, f in pairs:
        machine = preimage(base, f)
        got = enumerate_accepted(machine, 8)
        image_bound = 8 * max(len(w) for w in f.images.values())
        image_language = enumerate_accepted(base, image_bound)
        expected = {
            w for w in words_up_to(f.source_alphabet, 8) if f(w) in image_language
        }
        ok = ok and got == expected
        # the membership set is itself cross-checked against direct accepts()
        letters = sorted(f.source_alphabet)
        sample = {
            tuple(rng.choice(letters) for _ in range(rng.randrange(9)))
            for _ in range(150)
        } | set(list(expected)[:25])
        for w in sample:
            direct = accepts(base, f(w)).verdict == ACCEPTED
            ok = ok and ((w in expected) == direct)
    elapsed = time.perf_counter() - start
    report(
        4,
        f"three preimage fixtures match brute-force membership up to length 8 "
        f"({elapsed:.1f}s)",
        ok and elapsed < 60.0,
    )


# --- 5: configuration-graph structure ---------------------------------------------


def test_criterion_5_configuration_graph(quad):
    cg = build(quad, BuildHorizon(max_tree_edges=4))
    by_name = {vertex_name(v): i for i, v in enumerate(cg.vertices)}
    chain_ok = all(name in by_name for name in ("ε1", "y2", "yx2", "yxx2"))
    edges = set(cg.edges)
    for src, dst, label in (
        ("ε1", "y2", EPSILON),
        ("y2", "yx2", "a"),
        ("yx2", "yxx2", "a"),
    ):
        chain_ok = chain_ok and (by_name[src], by_name[dst], label) in edges
    degrees_ok = check_degrees(cg) is None
    run = max_eps_run(cg)
    run_ok = run == 2
    report(
        5,
        f"quad explored graph: push chain with labels ε,a,a; degree "
        f"discipline; silent runs bounded (longest = {run})",
        chain_ok and degrees_ok and run_ok,
    )


# --- 6: tree quotients ---------------------------------------------------------------


def test_criterion_6_tree_quotient(quad, anbn, dyck2):
    ok = True
    distortions = {}
    for name, machine in (("anbn", anbn), ("dyck", dyck2)):
        distortions[name] = []
        for cap in (6, 8, 10):
            cg = build(machine, BuildHorizon(max_tree_edges=cap))
            q = quotient(cg, nonerasing_classes(cg))
            ok = ok and check_tree(q) is None
            distortions[name].append(quotient_distortion(q))
        ok = ok and len(set(distortions[name])) == 1  # stable across horizons
    cycle = fundamental_cycle(build(quad, BuildHorizon(max_tree_edges=4)).undirected_adjacency())
    ok = ok and cycle is not None and len(cycle) >= 4
    report(
        6,
        f"pushdown quotients are trees at horizons 6/8/10 with stable "
        f"distortion {distortions}; quad explored graph has a simple cycle "
        f"of length {len(cycle) if cycle else 0}",
        ok,
    )


# --- 7: covering consistency -----------------------------------------------------------


def test_criterion_7_covering(zcount):
    oracle = make_oracle("abelian 1")
    cg = build(zcount, BuildHorizon(max_tree_edges=10))
    result = project(cg, oracle)
    report(
        7,
        f"projection of the counter machine onto the infinite cyclic group: "
        f"{len(result.violations)} edge inconsistencies over "
        f"{len(result.images)} configurations",
        result.consistent,
    )


# --- 8: geometry probes -----------------------------------------------------------------


def test_criterion_8_geometry_probes():
    start = time.perf_counter()
    free2 = make_oracle("free 2")
    grid2 = make_oracle("abelian 2")
    line = make_oracle("abelian 1")

    tree_cuts = [
        min_separator(free2, (), "a" * (2 * r + 2), r, 3 * r + 2).cut_size
        for r in (1, 2, 3)
    ]
    grid_cuts = [
        min_separator(grid2, (), "a" * (4 * r), r, 5 * r + 2).cut_size
        for r in (1, 2, 3)
    ]
    ends_line = ends_probe(line, 3, 10).boundary_components
    ends_grid = ends_probe(grid2, 3, 10).boundary_components
    elapsed = time.perf_counter() - start
    report(
        8,
        f"free-group cuts {tree_cuts} constant at 1; grid cuts {grid_cuts} "
        f"strictly increasing; ends {ends_line} (line) / {ends_grid} (grid) "
        f"({elapsed:.1f}s)",
        tree_cuts == [1, 1, 1]
        and grid_cuts[0] < grid_cuts[1] < grid_cuts[2]
        and ends_line == 2
        and ends_grid == 1
        and elapsed < 30.0,
    )
