"""Golden CLI outputs: stdout, stderr and exit code of every `nsa` command
on the fixtures, byte for byte, in text and --json form, usage errors
included.  No case may end in an internal error (exit 4).

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
POP = "fixtures/popcycle.nsa"
QI = "fixtures/double.qi"
MISSING = "fixtures/missing.nsa"

_BASE = [
    ("trace_quad_abcd", ["trace", QUAD, "--word", "abcd"]),
    ("trace_quad_aabbccdd", ["trace", QUAD, "--word", "aabbccddabcd"]),
    ("trace_quad_partial", ["trace", QUAD, "--word", "aaabbbcc"]),
    ("trace_quad_capped", ["trace", QUAD, "--word", "aabbccdd", "--max-steps", "4"]),
    ("trace_quad_tree_capped", ["trace", QUAD, "--word", "aaaabbbbccccdddd", "--max-tree-edges", "1"]),
    ("trace_zcount", ["trace", Z, "--word", "aAAAaaaA"]),
    ("trace_xyblock", ["trace", XY, "--word", "pppqqq"]),
    ("trace_dyck2", ["trace", DYCK, "--word", "acdbab"]),
    ("trace_anbn_nondet", ["trace", ANBN, "--word", "aabb"]),
    ("trace_anbn_halts_at_cap", ["trace", ANBN, "--word", "ab", "--max-steps", "2"]),
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
    ("cg_lift_anbn_capped", ["cg", "lift", "--machine", ANBN, "--word", "ab", "--max-steps", "1"]),
    ("pda_quotient_anbn", ["pda", "quotient", "--machine", ANBN, "--horizon", "8"]),
    ("pda_quotient_zcount", ["pda", "quotient", "--machine", Z, "--horizon", "6"]),
    ("pda_quotient_dyck2", ["pda", "quotient", "--machine", DYCK, "--horizon", "3"]),
    ("pda_quotient_xyblock", ["pda", "quotient", "--machine", XY, "--horizon", "5"]),
    ("pda_quotient_quad", ["pda", "quotient", "--machine", QUAD, "--horizon", "4"]),
    ("validate_quad", ["validate", QUAD]),
    ("accept_quad", ["accept", QUAD, "--word", "abcd"]),
    ("accept_quad_rejected", ["accept", QUAD, "--word", "abc"]),
    ("accept_quad_capped", ["accept", QUAD, "--word", "aabbccdd", "--max-steps", "5"]),
    ("enumerate_quad", ["enumerate", QUAD, "--max-len", "8"]),
    ("enumerate_anbn", ["enumerate", ANBN, "--max-len", "6"]),
    ("enumerate_quad_capped", ["enumerate", QUAD, "--max-len", "8", "--max-steps", "10"]),
    ("check_det_quad", ["check-det", QUAD]),
    ("check_det_popcycle", ["check-det", POP]),
    ("check_erasing_quad", ["check-erasing", QUAD]),
    ("check_erasing_popcycle", ["check-erasing", POP]),
    ("trace_popcycle_nondet", ["trace", POP, "--word", "aa"]),
    ("trace_popcycle_nondet_at_end", ["trace", POP, "--word", "a"]),
    ("preimage_quad_block4", ["preimage", QUAD, "--hom", "fixtures/block4.hom"]),
    ("cg_project_zcount", ["cg", "project", "--machine", Z, "--group", "abelian 1", "--horizon", "6"]),
    ("cg_project_anbn_inconsistent", ["cg", "project", "--machine", ANBN, "--group", "abelian 2", "--horizon", "6"]),
    ("group_ball_free2", ["group", "ball", "--group", "free 2", "--radius", "2"]),
    ("group_separator_free2", ["group", "separator", "--group", "free 2", "--radius", "1", "--window", "5",
                               "--centers", "", "aaaa"]),
    ("group_probe_abelian2", ["group", "probe", "--group", "abelian 2", "--radius", "1", "2",
                              "--centers", "aaaaaa"]),
    ("group_ends_abelian1", ["group", "ends", "--group", "abelian 1", "--radius", "3", "--window", "10"]),
    ("group_qi_double", ["group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "2",
                         "--samples", QI]),
    ("group_qi_double_density", ["group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "2",
                                 "--samples", QI, "--window", "3"]),
    ("group_qi_double_k1", ["group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "1",
                            "--samples", QI]),
    # usage errors: nothing on stdout, exit 2
    ("usage_validate_missing", ["validate", MISSING]),
    ("usage_validate_parse", ["validate", "fixtures/block4.hom"]),
    ("usage_accept_word_file", ["accept", QUAD, "--word-file", "fixtures/missing.txt"]),
    ("usage_trace_missing", ["trace", MISSING, "--word", "ab"]),
    ("usage_enumerate_negative", ["enumerate", QUAD, "--max-len", "-1"]),
    ("usage_preimage_missing_hom", ["preimage", QUAD, "--hom", "fixtures/missing.hom"]),
    ("usage_preimage_letters", ["preimage", ANBN, "--hom", "fixtures/block4.hom"]),
    ("usage_cg_build_missing", ["cg", "build", "--machine", MISSING]),
    ("usage_cg_build_negative", ["cg", "build", "--machine", QUAD, "--horizon", "-1"]),
    ("usage_cg_lift_nondet", ["cg", "lift", "--machine", POP, "--word", "a"]),
    ("usage_cg_project_letters", ["cg", "project", "--machine", DYCK, "--group", "free 2", "--horizon", "2"]),
    ("usage_cg_project_spec", ["cg", "project", "--machine", Z, "--group", "bogus 1"]),
    ("usage_pda_quotient_missing", ["pda", "quotient", "--machine", MISSING]),
    ("usage_group_ball_spec", ["group", "ball", "--group", "bogus", "--radius", "1"]),
    ("usage_group_ball_radius", ["group", "ball", "--group", "free 2", "--radius", "-1"]),
    ("usage_group_separator_spec", ["group", "separator", "--group", "free", "--radius", "1", "--window", "3",
                                    "--centers", "", "a"]),
    ("usage_group_probe_spec", ["group", "probe", "--group", "product free 1", "--radius", "1",
                                "--centers", "a"]),
    ("usage_group_probe_center", ["group", "probe", "--group", "abelian 1", "--radius", "1", "--centers", "9"]),
    ("usage_group_ends_spec", ["group", "ends", "--group", "abelian x", "--radius", "1", "--window", "3"]),
    ("usage_group_qi_k", ["group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "0",
                          "--samples", QI]),
    ("usage_group_qi_samples", ["group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "2",
                                "--samples", "fixtures/missing.qi"]),
    ("usage_group_qi_sample_letters", ["group", "qi", "--group", "abelian 1", "--target", "abelian 1",
                                       "--k", "2", "--samples", "fixtures/block4.hom"]),
]

CASES = _BASE + [(name + "_json", argv + ["--json"]) for name, argv in _BASE]


def run_case(argv):
    """Exit code, stdout and stderr of one in-process CLI run from the repo root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = run_case(argv)
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    assert err.encode("utf-8") == (GOLDEN / f"{name}.err").read_bytes()
    assert code == _exit_codes()[name]


def test_golden_files_match_cases():
    for suffix in ("*.out", "*.err"):
        assert {p.stem for p in GOLDEN.glob(suffix)} == {name for name, _ in CASES}
    assert set(_exit_codes()) == {name for name, _ in CASES}


def test_no_golden_case_is_an_internal_error():
    assert 4 not in _exit_codes().values()


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for stale in [*GOLDEN.glob("*.out"), *GOLDEN.glob("*.err")]:
        stale.unlink()
    codes = {}
    for name, argv in CASES:
        code, out, err = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        (GOLDEN / f"{name}.err").write_bytes(err.encode("utf-8"))
        codes[name] = code
    text = json.dumps(codes, indent=1, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    regenerate()
    sys.exit(0)
