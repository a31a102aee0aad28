"""Seeded input generation.  Nothing here imports `nestedstack`.

Sizes (word lengths, horizons, windows, radii) sit on fixed logarithmic
ladders with a seeded jitter of at most 2%, so every seed yields the same
mix of query costs and the end-to-end figures compare across seeds.  The
seed draws what the sizes leave open: the letters of every word, which
letter a near miss changes, drops or swaps, the block structure of
members, group centres, sample points and the order of the queries.
"""

import math

import oracles

ALPHABETS = {
    "anbn": "ab",
    "anbncndn": "abcd",
    "dyck2": "abcd",
    "zcount": "aA",
    "free2": "aAbB",
    "palindrome": "ab",
    "block4": "pbcd",
    "collapse_pq": "pqbcd",
}


def ladder(rng, lo, hi, steps):
    """`steps` sizes at the midpoints of equal log-width strata of [lo, hi],
    each jittered by at most 2%, rounded to integers."""
    out = []
    for i in range(steps):
        x = math.exp(math.log(lo) + (i + 0.5) / steps * math.log(hi / lo))
        out.append(max(1, round(x * (1 + rng.uniform(-0.02, 0.02)))))
    return out


# --- generated machines -------------------------------------------------------


def free2_machine():
    """Deterministic pushdown acceptor for the word problem of the free group
    on a, b (inverses A, B).  The state names the top letter of the freely
    reduced prefix (`e` when it is empty); each cell `c_xy` stores its letter
    x and the letter y beneath it (z = bottom), so a pop knows the next top."""
    letters = "aAbB"
    cells = [f"c_{x}{y}" for x in letters for y in "z" + letters if y != x.swapcase()]
    states = ["e"] + [f"t{x}" for x in letters]
    edges = []
    for x in letters:
        edges.append(f"edge: e t{x} push c_{x}z {x}")
    for t in letters:
        for x in letters:
            if x != t.swapcase():
                edges.append(f"edge: t{t} t{x} push c_{x}{t} {x}")
        for y in "z" + letters:
            if y != t.swapcase():
                dst = "e" if y == "z" else f"t{y}"
                edges.append(f"edge: t{t} {dst} pop c_{t}{y} {t.swapcase()}")
    return "\n".join(
        [
            "# word problem of the free group of rank 2",
            "states: " + " ".join(states),
            "start: e",
            "final: e",
            "input: " + " ".join(letters),
            "memory: " + " ".join(cells),
            *edges,
        ]
    ) + "\n"


def palindrome_machine():
    """Nondeterministic acceptor for even palindromes over {a, b}: push the
    first half, guess the middle with a silent `stay`, pop the second half."""
    return (
        "# even palindromes over a, b\n"
        "states: P Q\n"
        "start: P\n"
        "final: Q\n"
        "input: a b\n"
        "memory: sa sb\n"
        "edge: P P push sa a\n"
        "edge: P P push sb b\n"
        "edge: P Q stay eps\n"
        "edge: Q Q pop sa a\n"
        "edge: Q Q pop sb b\n"
    )


# --- words -------------------------------------------------------------------


def _mountains(length):
    """Shape shared by the bracket-like languages: climbs to about
    sqrt(length)/2 and back, repeated to about `length` letters, so the
    tree depth along the word, and with it the cost of a query, depends on
    the length only.  True marks an opening letter."""
    height = max(1, round(length**0.5 / 2))
    return ([True] * height + [False] * height) * max(1, round(length / (2 * height)))


def member(rng, lang, length):
    """A member of `lang` with about `length` letters.  The shape (tree
    depth along the word) is fixed by the length; the seed picks letters."""
    if lang == "anbn":
        n = max(1, length // 2)
        return ("a",) * n + ("b",) * n
    if lang in ("anbncndn", "collapse_pq"):
        n = max(1, length // 4)
        word = ["a"] * n + ["b"] * n + ["c"] * n + ["d"] * n
        if lang == "collapse_pq":
            word = [rng.choice("pq") if x == "a" else x for x in word]
        return tuple(word)
    if lang in ("dyck2", "zcount"):
        word, stack = [], []
        for up in _mountains(length):
            if up:
                if lang == "zcount" and not stack:
                    sign = rng.choice((("a", "A"), ("A", "a")))
                opener, closer = rng.choice((("a", "b"), ("c", "d"))) if lang == "dyck2" else sign
                stack.append(closer)
                word.append(opener)
            else:
                word.append(stack.pop())
        return tuple(word)
    if lang == "free2":
        half = []
        while len(half) < max(1, length // 2):
            x = rng.choice("aAbB")
            if not half or x != half[-1].swapcase():
                half.append(x)
        return tuple(half) + tuple(x.swapcase() for x in reversed(half))
    if lang == "palindrome":
        half = [rng.choice("ab") for _ in range(max(1, length // 2))]
        return tuple(half + half[::-1])
    if lang == "block4":
        return ("p",) * max(1, length)
    raise ValueError(lang)


def near_miss(rng, lang, word):
    """A non-member one edit away from `word`: a letter in the middle fifth
    of the word changed, dropped, or swapped with its neighbour.  Searches
    die near the edit, so keeping it central keeps the cost steady."""
    accepts = oracles.LANGUAGES[lang]
    letters = ALPHABETS[lang]
    lo, hi = (2 * len(word)) // 5, max((3 * len(word)) // 5, (2 * len(word)) // 5 + 1)
    while True:
        edit = rng.choice(("change", "drop", "swap"))
        i = rng.randrange(lo, hi)
        w = list(word)
        if edit == "change":
            w[i] = rng.choice([x for x in letters if x != w[i]])
        elif edit == "drop":
            del w[i]
        elif i + 1 < len(w):
            w[i], w[i + 1] = w[i + 1], w[i]
        if not accepts(w):
            return tuple(w)


# --- workload inputs --------------------------------------------------------------

ACCEPT_LANGS = ("anbn", "anbncndn", "dyck2", "zcount", "free2", "palindrome", "block4", "collapse_pq")
DETERMINISTIC_LANGS = ("anbn", "anbncndn", "dyck2", "zcount", "free2")


def membership(rng):
    """(call, language, word) rows: every call and language over a
    word-length ladder from 8 to ~2000, one member and one near miss per
    rung."""
    rows = []
    calls = [("accepts", lang) for lang in ACCEPT_LANGS]
    calls += [(call, lang) for call in ("run_trace", "lift_path") for lang in DETERMINISTIC_LANGS]
    for call, lang in calls:
        hi = 600 if lang == "block4" else 2200
        for length in ladder(rng, 8, hi, 8):
            rows.append((call, lang, member(rng, lang, length)))
            rows.append((call, lang, near_miss(rng, lang, member(rng, lang, length))))
    rng.shuffle(rows)
    return rows


def exploration(rng):
    """(job, machine, size) rows: graph builds over horizon ladders and
    language enumerations over length ladders, dense enough that the
    latency quantiles fall among many queries of similar cost."""
    rows = [("graph", "anbncndn", h) for h in ladder(rng, 16, 64, 12)]
    rows += [("project", "zcount", h) for h in ladder(rng, 20, 200, 12)]
    rows += [("quotient", "anbn", h) for h in ladder(rng, 25, 100, 12)]
    rows += [("enumerate", "dyck2", n) for n in range(4, 11)]
    rows += [("enumerate", "anbncndn", n) for n in ladder(rng, 8, 28, 8)]
    rng.shuffle(rows)
    return rows


def _abelian2_center(rng, norm):
    """A word for a point at l1-distance `norm` from the identity."""
    i = rng.randint(0, norm)
    return rng.choice("aA") * i + rng.choice("bB") * (norm - i)


GROUP_SPECS = {
    "abelian 1": "abelian 1",
    "abelian 2": "abelian 2",
    "free 2": "free 2",
    "free1xZ": "product free 1 abelian 1",
    "Z2xC2": "product abelian 2 finite fixtures/z2.grp",
    "ZxC2": "product abelian 1 finite fixtures/z2.grp",
}


def _free2_word(rng, length):
    word = ""
    while len(word) < length:
        x = rng.choice("aAbB")
        if not word or x != word[-1].swapcase():
            word += x
    return word


def geometry(rng):
    """(probe, group key, params) rows over window and radius ladders.
    Free-group separator windows stay at 8 and 9: each step triples the
    window, and window 11 costs seconds per query."""
    rows = []
    for w in ladder(rng, 12, 32, 10):
        rows.append(("separator", "abelian 2", ("", _abelian2_center(rng, 8), 2, w)))
    for w in (8, 8, 9, 9):
        rows.append(("separator", "free 2", ("", _free2_word(rng, 6), 2, w)))
    for w in ladder(rng, 12, 24, 6):
        rows.append(("separator", "free1xZ", ("", _abelian2_center(rng, 8), 2, w)))
    for w in ladder(rng, 12, 20, 6):
        rows.append(("separator", "Z2xC2", ("", _abelian2_center(rng, 8), 2, w)))
    for r in ladder(rng, 2, 8, 6):
        rows.append(("ends", "abelian 1", (r, r + 3 + rng.randint(0, 20))))
        rows.append(("ends", "abelian 2", (r, r + 12 + rng.randint(0, 4))))
    for r in (1, 2, 3):
        rows.append(("ends", "free 2", (r, r + 4)))
    for _ in range(2):
        centers = (_abelian2_center(rng, 10), _abelian2_center(rng, 12))
        rows.append(("probe", "abelian 2", ((1, 2, 3), centers)))
    for r in (4, 5, 6, 7, 8, 9):
        rows.append(("ball", "free 2", (r,)))
    for r in ladder(rng, 10, 60, 6):
        rows.append(("ball", "abelian 2", (r,)))
        rows.append(("ball", "ZxC2", (r,)))
    for _ in range(4):
        points = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(24)]
        samples = [(_vector_word(p), _vector_word(p[:1])) for p in points]
        rows.append(("qi", "abelian 2", (samples, 3, rng.randint(28, 32))))
    rng.shuffle(rows)
    return rows


def _vector_word(vector):
    word = ""
    for letter, x in zip("ab", vector):
        word += (letter if x >= 0 else letter.upper()) * abs(x)
    return word


# --- command-line script ---------------------------------------------------------


def cli_script(rng, tmp):
    """(argv, expectation) rows covering every quick-start command, each in
    text and --json form.  `tmp` is the directory for the files commands
    write."""
    member_word = "".join(member(rng, "anbncndn", 4 * rng.randint(2, 6)))
    miss = "".join(near_miss(rng, "anbncndn", tuple(member_word)))
    lift_word = rng.choice((member_word, miss))
    quad = "fixtures/anbncndn.nsa"
    h = rng.randint(3, 6)
    samples = [_vector_word((rng.randint(-8, 8),)) for _ in range(6)]
    qi_window = rng.randint(8, 14)
    free_center = rng.choice("aAbB") * 4
    rows = [
        (["accept", quad, "--word", member_word], ("accept", True)),
        (["accept", quad, "--word", miss], ("accept", False)),
        (["enumerate", quad, "--max-len", str(4 * h)], ("enumerate", 4 * h)),
        (["check-det", quad], ("check-det",)),
        (["check-erasing", quad], ("check-erasing",)),
        (["trace", quad, "--word", lift_word], ("trace", lift_word)),
        (["run", quad, "--word", member_word], ("accept", True)),
        (["preimage", quad, "--hom", "fixtures/collapse_pq.hom", "-o", f"{tmp}/out.nsa"], ("preimage",)),
        (["cg", "build", "--machine", quad, "--horizon", str(h)], ("cg-build", h)),
        (["cg", "dot", "--machine", quad, "--horizon", str(h)], ("cg-dot", h)),
        (["cg", "lift", "--machine", quad, "--word", lift_word], ("cg-lift", lift_word)),
        (["cg", "project", "--machine", "fixtures/zcount.nsa", "--group", "abelian 1", "--horizon", str(2 * h)], ("cg-project", 2 * h)),
        (["pda", "quotient", "--machine", "fixtures/anbn.nsa", "--horizon", str(2 * h), "--dot", f"{tmp}/quotient.dot"], ("pda-quotient", 2 * h)),
        (["group", "ball", "--group", "free 2", "--radius", str(h - 1)], ("ball", h - 1)),
        (["group", "separator", "--group", "free 2", "--radius", "1", "--window", "6", "--centers", "", free_center], ("separator",)),
        (["group", "probe", "--group", "free 2", "--radius", "1", "--centers", free_center], ("probe",)),
        (["group", "ends", "--group", "abelian 1", "--radius", str(h), "--window", str(h + 5)], ("ends",)),
        (["group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "2", "--samples", f"{tmp}/samples.txt", "--window", str(qi_window)],
         ("qi", samples, qi_window)),
    ]
    script = []
    for argv, expect in rows:
        script.append((argv, expect))
        script.append((argv + ["--json"], expect))
    return script, {"samples.txt": "".join(f"{w} -> {w}\n" for w in samples)}
