"""The CLI exit-code contract on malformed input: fixture files with bytes
cut, inserted or replaced must give exit 0-3 (never 4, an internal error),
no traceback, and an answer within a few seconds."""

import contextlib
import io
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nestedstack.cli import main

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
