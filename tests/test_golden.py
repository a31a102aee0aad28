"""Golden CLI outputs: stdout of the tree-printing commands on the fixtures,
byte for byte, in text and --json form.

Memory trees reach stdout through `MemoryTree.__str__` (trace and run
listings) and `vertex_name` (DOT, lifts), so any change to the tree
representation that alters a rendering shows up here.

Regenerate the files after an intended output change with

    PYTHONPATH=src python tests/test_golden.py

run from the repository root.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from nestedstack.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

QUAD = "fixtures/anbncndn.nsa"
ANBN = "fixtures/anbn.nsa"
DYCK = "fixtures/dyck2.nsa"
XY = "fixtures/xyblock.nsa"
Z = "fixtures/zcount.nsa"

_BASE = [
    ("trace_quad_abcd", ["trace", QUAD, "--word", "abcd"]),
    ("trace_quad_aabbccdd", ["trace", QUAD, "--word", "aabbccddabcd"]),
    ("trace_quad_partial", ["trace", QUAD, "--word", "aaabbbcc"]),
    ("trace_quad_capped", ["trace", QUAD, "--word", "aabbccdd", "--max-steps", "4"]),
    ("trace_zcount", ["trace", Z, "--word", "aAAAaaaA"]),
    ("trace_xyblock", ["trace", XY, "--word", "pppqqq"]),
    ("trace_dyck2", ["trace", DYCK, "--word", "acdbab"]),
    ("trace_anbn_nondet", ["trace", ANBN, "--word", "aabb"]),
    ("run_quad", ["run", QUAD, "--word", "aabbccdd"]),
    ("run_quad_rejected", ["run", QUAD, "--word", "aabbccd"]),
    ("run_quad_capped", ["run", QUAD, "--word", "aaabbbcccddd", "--max-tree-edges", "2"]),
    ("run_anbn", ["run", ANBN, "--word", "aaabbb"]),
    ("run_dyck2", ["run", DYCK, "--word", "acdbcd"]),
    ("run_zcount", ["run", Z, "--word", "AaaA"]),
    ("run_xyblock", ["run", XY, "--word", "ppqq"]),
    ("cg_build_quad", ["cg", "build", "--machine", QUAD, "--horizon", "4"]),
    ("cg_build_anbn", ["cg", "build", "--machine", ANBN, "--horizon", "6"]),
    ("cg_build_dyck2", ["cg", "build", "--machine", DYCK, "--horizon", "3"]),
    ("cg_build_zcount_depth", ["cg", "build", "--machine", Z, "--horizon", "8", "--max-depth", "5"]),
    ("cg_build_quad_truncated", ["cg", "build", "--machine", QUAD, "--horizon", "6", "--max-vertices", "20"]),
    ("cg_dot_quad", ["cg", "dot", "--machine", QUAD, "--horizon", "7"]),
    ("cg_dot_anbn", ["cg", "dot", "--machine", ANBN, "--horizon", "4"]),
    ("cg_dot_dyck2", ["cg", "dot", "--machine", DYCK, "--horizon", "2"]),
    ("cg_dot_xyblock", ["cg", "dot", "--machine", XY, "--horizon", "3"]),
    ("cg_lift_quad", ["cg", "lift", "--machine", QUAD, "--word", "aabbccdd"]),
    ("cg_lift_quad_stuck", ["cg", "lift", "--machine", QUAD, "--word", "abd"]),
    ("cg_lift_zcount", ["cg", "lift", "--machine", Z, "--word", "aaAAA"]),
    ("cg_lift_xyblock", ["cg", "lift", "--machine", XY, "--word", "ppq"]),
    ("pda_quotient_anbn", ["pda", "quotient", "--machine", ANBN, "--horizon", "8"]),
    ("pda_quotient_zcount", ["pda", "quotient", "--machine", Z, "--horizon", "6"]),
    ("pda_quotient_dyck2", ["pda", "quotient", "--machine", DYCK, "--horizon", "3"]),
    ("pda_quotient_xyblock", ["pda", "quotient", "--machine", XY, "--horizon", "5"]),
    ("pda_quotient_quad", ["pda", "quotient", "--machine", QUAD, "--horizon", "4"]),
]

CASES = _BASE + [(name + "_json", argv + ["--json"]) for name, argv in _BASE]


def run_case(argv):
    """Exit code and stdout of one in-process CLI run from the repo root."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run_case(argv)
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    assert code == _exit_codes()[name]


def test_golden_files_match_cases():
    recorded = {p.stem for p in GOLDEN.glob("*.out")}
    assert recorded == {name for name, _ in CASES}
    assert set(_exit_codes()) == recorded


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    codes = {}
    for name, argv in CASES:
        code, out = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        codes[name] = code
    text = json.dumps(codes, indent=1, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    regenerate()
    sys.exit(0)
