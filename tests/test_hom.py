import itertools
import random

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nestedstack.hom import Homomorphism, parse_homomorphism, preimage
from nestedstack.machine import (
    ACCEPTED,
    REJECTED,
    accepts,
    check_deterministic,
    check_limited_erasing,
    enumerate_accepted,
)

import factor_preimage as old
from conftest import FIXTURES, load_machine
from factor_preimage import (
    EXPANSION_FINAL,
    copy_state,
    expansion_triple,
    factor,
    is_letter_to_letter,
    preimage_expansion,
    preimage_letter_map,
)


def hom(name):
    return parse_homomorphism((FIXTURES / name).read_text())


def words_up_to(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(sorted(alphabet), repeat=n)


def brute_preimage_words(machine, f, max_len):
    """Oracle side: enumerate the machine's language far enough out, then
    pull every short source word through f."""
    image_bound = max_len * max(len(w) for w in f.images.values())
    image = enumerate_accepted(machine, image_bound)
    return {w for w in words_up_to(f.source_alphabet, max_len) if f(w) in image}


# --- homomorphism basics -------------------------------------------------------


def test_parse_homomorphism():
    f = hom("collapse_pq.hom")
    assert f.images["p"] == ("a",)
    assert set(f.source_alphabet) == {"p", "q", "b", "c", "d"}
    assert f(("p", "q", "b")) == ("a", "a", "b")


def test_empty_image_rejected():
    with pytest.raises(Exception):
        parse_homomorphism("map: a ->")
    with pytest.raises(ValueError):
        Homomorphism({"a": ()})


# --- the factorization route, kept as the oracle in factor_preimage.py ----------


def test_factor_identity_is_single_letter_map():
    ident = Homomorphism({a: (a,) for a in "abcd"})
    steps = factor(ident)
    assert len(steps) == 1 and is_letter_to_letter(steps[0])


def test_factor_two_letter_image():
    f = Homomorphism({"a": ("b", "c"), "b": ("b",), "c": ("c",)})
    steps = factor(f)
    assert [is_letter_to_letter(s) for s in steps] == [False, True]
    assert expansion_triple(steps[0]) is not None


def test_factor_three_letter_image():
    f = Homomorphism({"a": ("b", "c", "d"), "b": ("b",), "c": ("c",), "d": ("d",)})
    steps = factor(f)
    assert [is_letter_to_letter(s) for s in steps] == [False, False, True]


def test_factor_composes_back():
    # factor() verifies composition internally; exercise it on assorted maps
    for images in (
        {"a": ("a", "b", "a", "b"), "b": ("b",)},
        {"p": ("a",), "q": ("a",)},
        {"x": ("c", "d", "c")},
    ):
        factor(Homomorphism(images))


# --- letter-to-letter preimage ---------------------------------------------------


def test_letter_map_identity_preserves_language(quad):
    ident = Homomorphism({a: (a,) for a in sorted(quad.input_alphabet)})
    same = preimage_letter_map(quad, ident)
    assert enumerate_accepted(same, 12) == enumerate_accepted(quad, 12)


def test_letter_map_collapse(quad):
    f = hom("collapse_pq.hom")
    machine = preimage_letter_map(quad, f)
    assert check_deterministic(machine) is None
    assert accepts(machine, "pqbbccdd").verdict == ACCEPTED
    assert accepts(machine, "pbcd").verdict == ACCEPTED
    assert enumerate_accepted(machine, 8) == brute_preimage_words(quad, f, 8)


def test_letter_map_empty_preimage_deletes_edges(quad):
    # nothing maps to a, so every a-edge disappears and only ε survives
    f = Homomorphism({a: (a,) for a in "bcd"}, target_alphabet=tuple("abcd"))
    machine = preimage_letter_map(quad, f)
    assert enumerate_accepted(machine, 6) == {()}


def test_letter_map_requires_letters_of_the_machine(quad):
    with pytest.raises(ValueError):
        preimage_letter_map(quad, Homomorphism({"p": ("z",)}))


# --- single-letter expansion -------------------------------------------------------


def test_expansion_direct_language(xyblock):
    machine = preimage_expansion(xyblock, "w", "p", "q", "zz")
    assert enumerate_accepted(machine, 8) == {("w",)}
    assert accepts(machine, ("w",)).verdict == ACCEPTED


def test_expansion_preserves_determinism_when_finals_have_no_outedges(xyblock):
    machine = preimage_expansion(xyblock, "w", "p", "q", "zz")
    assert check_deterministic(machine) is None
    report = check_limited_erasing(machine)
    assert report.bounded and report.bound == 2


def test_expansion_preserves_epsilon_acceptance(anbn):
    machine = preimage_expansion(anbn, "g", "a", "b", "zz")
    assert accepts(machine, "").verdict == ACCEPTED
    assert enumerate_accepted(machine, 4) == {(), ("g",)}


def test_expansion_conflict_reported_when_final_has_outedges(anbn):
    # the added silent marker-pop at an accepting state competes with the
    # state's own outedges; the checker reports the witness, the language
    # is still the preimage
    machine = preimage_expansion(anbn, "g", "a", "b", "zz")
    conflict = check_deterministic(machine)
    assert conflict is not None
    assert conflict.state == copy_state("1", 1)


def test_expansion_cannot_end_inside_second_copy(xyblock):
    machine = preimage_expansion(xyblock, "w", "p", "q", "zz")
    assert machine.finals == frozenset({EXPANSION_FINAL})
    second_copy = {copy_state(q, 2) for q in xyblock.states}
    assert not (machine.finals & second_copy)


def test_expansion_preconditions(xyblock):
    with pytest.raises(ValueError):
        preimage_expansion(xyblock, "w", "p", "p", "zz")
    with pytest.raises(ValueError):
        preimage_expansion(xyblock, "w", "p", "missing", "zz")
    with pytest.raises(ValueError):
        preimage_expansion(xyblock, "w", "p", "q", "bz")  # marker collides


# --- full preimage -----------------------------------------------------------------


def test_preimage_identity(quad):
    ident = Homomorphism({a: (a,) for a in sorted(quad.input_alphabet)})
    machine = preimage(quad, ident)
    assert enumerate_accepted(machine, 12) == enumerate_accepted(quad, 12)


def test_preimage_two_letter_expansion(quad):
    # g stands for ab; gcd expands to abcd
    f = Homomorphism(
        {"g": ("a", "b"), "b": ("b",), "c": ("c",), "d": ("d",)},
        target_alphabet=tuple("abcd"),
    )
    machine = preimage(quad, f)
    assert accepts(machine, "gcd").verdict == ACCEPTED
    assert enumerate_accepted(machine, 6) == brute_preimage_words(quad, f, 6)


def test_preimage_four_letter_block(quad):
    f = hom("block4.hom")
    machine = preimage(quad, f)
    got = enumerate_accepted(machine, 8)
    assert got == {("p",) * k for k in range(9)}
    assert check_limited_erasing(machine).bounded


def test_preimage_enumeration_matches_accepts_on_samples(quad, xyblock):
    rng = random.Random(23)
    cases = [
        (quad, hom("collapse_pq.hom")),
        (xyblock, hom("wsplit.hom")),
        (quad, hom("block4.hom")),
    ]
    for base, f in cases:
        machine = preimage(base, f)
        members = enumerate_accepted(machine, 6)
        letters = sorted(f.source_alphabet)
        sample = {tuple(rng.choice(letters) for _ in range(rng.randrange(7))) for _ in range(60)}
        sample |= set(list(members)[:20])
        for w in sample:
            direct = accepts(base, f(w)).verdict == ACCEPTED
            assert (w in members) == direct


def test_preimage_preserves_erasing_verdict(quad, xyblock):
    for base, f in (
        (quad, hom("collapse_pq.hom")),
        (xyblock, hom("wsplit.hom")),
        (quad, hom("block4.hom")),
    ):
        machine = preimage(base, f)
        assert check_limited_erasing(machine).bounded


def test_preimage_letter_map_preserves_determinism(quad, zcount, xyblock):
    for base in (quad, zcount, xyblock):
        letters = sorted(base.input_alphabet)
        images = {f"t{i}": (a,) for i, a in enumerate(letters)}
        images.update({f"u{i}": (a,) for i, a in enumerate(letters)})
        machine = preimage(base, Homomorphism(images, tuple(letters)))
        assert check_deterministic(machine) is None


# --- the one-pass construction against the factorization route and brute force ---

DETERMINISTIC = ("anbn.nsa", "anbncndn.nsa", "dyck2.nsa", "xyblock.nsa", "zcount.nsa")
MACHINES = {p.name: load_machine(p.name) for p in sorted(FIXTURES.glob("*.nsa"))}
HOMS = {p.name: hom(p.name) for p in sorted(FIXTURES.glob("*.hom"))}
FIXTURE_PAIRS = [
    (m, h)
    for m, base in MACHINES.items()
    for h, f in HOMS.items()
    if set(f.target_alphabet) <= set(base.input_alphabet)
]


def check_against_oracles(base, f, max_len=5):
    """The preimage's words up to `max_len` equal the factorization route's
    and brute force's; determinism and limited erasing carry over."""
    machine = preimage(base, f)
    got = enumerate_accepted(machine, max_len)
    assert got == enumerate_accepted(old.preimage(base, f), max_len)
    verdicts = {w: accepts(base, f(w)).verdict for w in words_up_to(f.source_alphabet, max_len)}
    assert got == {w for w, verdict in verdicts.items() if verdict == ACCEPTED}
    assert all(verdict in (ACCEPTED, REJECTED) for verdict in verdicts.values())
    if check_deterministic(base) is None:
        assert check_deterministic(machine) is None
    erasing = check_limited_erasing(base)
    if erasing.bounded:
        # a silent path crosses at most the layers of one image word, each
        # segment erasing at most the base bound, plus one edge per crossing
        longest = max(len(w) for w in f.images.values())
        report = check_limited_erasing(machine)
        assert report.bounded and report.bound <= longest * (erasing.bound + 1) - 1


def test_fixture_pairs_cover_every_hom():
    assert {h for _, h in FIXTURE_PAIRS} == set(HOMS)
    assert all(m in DETERMINISTIC for m, _ in FIXTURE_PAIRS)


@pytest.mark.parametrize("machine_name,hom_name", FIXTURE_PAIRS)
def test_preimage_matches_factor_route_and_brute_force(machine_name, hom_name):
    check_against_oracles(MACHINES[machine_name], HOMS[hom_name])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_random_preimages_match_factor_route_and_brute_force(data):
    base = MACHINES[data.draw(st.sampled_from(DETERMINISTIC))]
    letters = sorted(base.input_alphabet)
    image = st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(tuple)
    images = {f"s{i}": data.draw(image) for i in range(data.draw(st.integers(1, 3)))}
    check_against_oracles(base, Homomorphism(images, tuple(letters)))


def test_letter_to_letter_preimage_is_the_letter_map(quad, zcount):
    f = hom("collapse_pq.hom")
    assert preimage(quad, f) == preimage_letter_map(quad, f)
    swap = Homomorphism({"a": ("A",), "A": ("a",), "b": ("a",)})
    assert preimage(zcount, swap) == preimage_letter_map(zcount, swap)


def test_preimage_adds_one_layer_per_inner_position(quad, xyblock):
    machine = preimage(quad, hom("block4.hom"))
    assert len(machine.states) == 4 * (1 + 3)
    assert machine.states[:4] == quad.states
    assert machine.initial == quad.initial and machine.finals == quad.finals
    assert machine.memory_alphabet == quad.memory_alphabet
    assert all(q.startswith("__") for q in machine.states[4:])
    assert len(preimage(xyblock, hom("wsplit.hom")).states) == 8


def test_preimage_of_a_preimage_keeps_names_apart(dyck2):
    # the inner preimage already has `__` states; the outer layers must not
    # reuse their names
    inner = preimage(dyck2, hom("block4.hom"))
    g = Homomorphism({"r": ("p", "p"), "s": ("b", "p")})
    outer = preimage(inner, g)
    assert len(set(outer.states)) == len(outer.states) == 3 * len(inner.states)
    composed = Homomorphism({a: hom("block4.hom")(w) for a, w in g.images.items()})
    assert enumerate_accepted(outer, 4) == enumerate_accepted(preimage(dyck2, composed), 4)
    assert check_deterministic(outer) is None
