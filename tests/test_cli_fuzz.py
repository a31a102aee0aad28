"""The CLI exit-code contract on malformed input: fixture files with bytes
cut, inserted or replaced, and command lines with flags dropped,
duplicated, garbled or set to other numbers, must give exit 0-3 (never 4,
an internal error), no traceback, and an answer within a few seconds.
Exit 1 must come with the command's negative verdict."""

import contextlib
import io
import re
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nestedstack.cli import _OPTIONS, COMMANDS, main

from conftest import FIXTURES

QUAD = str(FIXTURES / "anbncndn.nsa")

# (fixture to mutate, argv around the mutated file)
TARGETS = [
    ("anbncndn.nsa", lambda path: ["validate", path]),
    ("zcount.nsa", lambda path: ["validate", path, "--json"]),
    ("block4.hom", lambda path: ["preimage", QUAD, "--hom", path]),
    ("wsplit.hom", lambda path: ["preimage", str(FIXTURES / "xyblock.nsa"), "--hom", path]),
    ("anbncndn.nsa", lambda path: ["trace", path, "--word", "aabbccdd", "--max-steps", "5000"]),
    ("popcycle.nsa", lambda path: ["trace", path, "--word", "aa", "--max-steps", "5000"]),
    ("double.qi", lambda path: ["group", "qi", "--group", "abelian 1", "--target", "abelian 1",
                                "--k", "2", "--samples", path]),
    ("double.qi", lambda path: ["group", "qi", "--group", "free 1", "--target", "abelian 2",
                                "--k", "2", "--samples", path, "--window", "2"]),
]

# Fragments that mean something to one of the file formats.
TOKENS = [
    b"\n", b" ", b"#", b":", b"->", b"eps", b"__x", b"\xff", b"\xe2\x80\xa8",
    b"states: 1", b"start: 9", b"final: 1", b"input: a", b"memory: x",
    b"edge: 1 1 stay eps\n", b"edge: 1 2 up eps a\n", b"push x", b"pop y",
    b"map: p -> p p\n", b"map: q ->\n", b"a -> aa\n", b"b -> A\n", b"aaaa", b"B",
    b"p", b"1", b"Z", b"h", b"x",
]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 8))
        data[at:at + cut] = draw(st.sampled_from(TOKENS) | st.binary(max_size=6))
    return bytes(data)


@st.composite
def cases(draw):
    index = draw(st.integers(0, len(TARGETS) - 1))
    name, argv = TARGETS[index]
    return argv, draw(mutated((FIXTURES / name).read_bytes()))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cases())
def test_mutated_inputs_keep_the_exit_contract(tmp_path, case):
    argv, data = case
    path = tmp_path / "input"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv(str(path)))
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert elapsed < 5.0


# --- argv mutations -------------------------------------------------------------

ANBN = str(FIXTURES / "anbn.nsa")
POP = str(FIXTURES / "popcycle.nsa")

# One valid invocation per command.  Every run stays within milliseconds for
# these inputs whatever the flags below set in -2..20, or drop.
BASES = {
    ("validate",): ["validate", QUAD],
    ("accept",): ["accept", QUAD, "--word", "aabbccd", "--max-steps", "20"],
    ("run",): ["run", ANBN, "--word", "aabb", "--max-tree-edges", "3"],
    ("enumerate",): ["enumerate", ANBN, "--max-len", "6", "--max-frontier", "20"],
    ("check-det",): ["check-det", POP],
    ("check-erasing",): ["check-erasing", POP, "--json"],
    ("trace",): ["trace", POP, "--word", "aa", "--max-steps", "20"],
    ("preimage",): ["preimage", QUAD, "--hom", str(FIXTURES / "block4.hom")],
    ("cg", "build"): ["cg", "build", "--machine", QUAD, "--horizon", "4", "--max-depth", "3"],
    ("cg", "dot"): ["cg", "dot", "--machine", ANBN, "--horizon", "4", "--max-vertices", "20"],
    ("cg", "lift"): ["cg", "lift", "--machine", QUAD, "--word", "abd", "--max-steps", "20"],
    ("cg", "project"): ["cg", "project", "--machine", ANBN, "--group", "abelian 2", "--horizon", "6"],
    ("pda", "quotient"): ["pda", "quotient", "--machine", str(FIXTURES / "zcount.nsa"), "--horizon", "6"],
    ("group", "ball"): ["group", "ball", "--group", "abelian 1", "--radius", "3", "--center", "aa"],
    ("group", "separator"): ["group", "separator", "--group", "abelian 1", "--radius", "1", "--window", "5",
                             "--centers", "", "aaaa"],
    ("group", "probe"): ["group", "probe", "--group", "abelian 1", "--radius", "1", "2",
                         "--centers", "aaaaaa", "--window", "9"],
    ("group", "ends"): ["group", "ends", "--group", "abelian 1", "--radius", "3", "--window", "10", "--json"],
    ("group", "qi"): ["group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "1",
                      "--samples", str(FIXTURES / "double.qi"), "--window", "3"],
}

# Exit 1 is a negative verdict: the stream and the pattern (text or --json
# form) that must come with it.  Commands not listed never exit 1.
VERDICTS = {
    ("accept",): ("out", r"REJECTED"),
    ("run",): ("out", r"REJECTED"),
    ("check-det",): ("out", r'^nondeterministic$|"deterministic": false'),
    ("check-erasing",): ("out", r'^unbounded erasing|"bounded": false'),
    ("trace",): ("err", r"^nondeterminism detected: "),
    ("cg", "lift"): ("out", r'^status: stuck$|"status": "stuck"'),
    ("cg", "project"): ("out", r'^edge inconsistencies: [1-9]|"consistent_within_horizon": false'),
    ("pda", "quotient"): ("out", r'^verdict: CYCLE|"verdict": "CYCLE"'),
    ("group", "qi"): ("out", r': [1-9]\d* violations$|"violations": \[\{'),
}


def numeric_flags(command):
    specs = [*(a for group in command.groups for a in _OPTIONS[group]), *command.arguments]
    return [flags[-1] for flags, kwargs in specs if kwargs.get("type") in (int, float)]


@st.composite
def argv_cases(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = list(BASES[command.path])
    numbers = st.integers(-2, 20).map(str)
    for _ in range(draw(st.integers(1, 3))):
        # numbers twice as often: most other edits end in a usage error
        op = draw(st.sampled_from(["drop", "duplicate", "garble", "number", "number", "json"]))
        at = draw(st.integers(0, len(argv) - 1)) if argv else 0
        if op == "drop" and argv:
            del argv[at]
        elif op == "duplicate" and argv:
            argv[draw(st.integers(0, len(argv))):0] = argv[at:at + draw(st.integers(1, 2))]
        elif op == "garble":
            flags = [i for i, token in enumerate(argv) if token.startswith("-")]
            if flags:
                i = draw(st.sampled_from(flags))
                cut = draw(st.integers(0, len(argv[i])))
                argv[i] = draw(st.sampled_from([
                    argv[i][:cut],
                    argv[i][:cut] + draw(st.sampled_from("-=x1 ")) + argv[i][cut + 1:],
                    argv[i] + "=" + draw(numbers),
                ]))
        elif op == "number" and numeric_flags(command):
            argv += [draw(st.sampled_from(numeric_flags(command))), draw(numbers)]
        elif op == "json":
            argv.append("--json")
    return command.path, argv


def test_command_table_covers_every_command():
    assert set(BASES) == {c.path for c in COMMANDS}
    assert set(VERDICTS) <= set(BASES)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv_cases())
def test_mutated_argv_keeps_the_exit_contract(tmp_path, monkeypatch, case):
    path, argv = case
    monkeypatch.chdir(tmp_path)  # whatever a mutated command line writes lands here
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert path in VERDICTS, argv
        stream, pattern = VERDICTS[path]
        text = (out if stream == "out" else err).getvalue()
        assert re.search(pattern, text, re.MULTILINE), (argv, text)
    assert elapsed < 5.0
