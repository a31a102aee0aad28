import json
import os
import subprocess
import sys

import pytest

from nestedstack.cli import COMMANDS, main
from nestedstack.machine import format_machine, parse_machine

from conftest import FIXTURES, load_machine

ROOT = FIXTURES.parent

QUAD = str(FIXTURES / "anbncndn.nsa")
ANBN = str(FIXTURES / "anbn.nsa")
ZCOUNT = str(FIXTURES / "zcount.nsa")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_accept_verdicts_and_exit_codes(capsys):
    code, out, _ = run(capsys, "accept", QUAD, "--word", "abcd")
    assert code == 0 and out.strip() == "ACCEPTED"
    code, out, _ = run(capsys, "accept", QUAD, "--word", "abc")
    assert code == 1 and out.strip() == "REJECTED"


def test_accept_cap_exit_code(capsys):
    code, out, _ = run(capsys, "accept", QUAD, "--word", "abcd", "--max-steps", "1")
    assert code == 3
    assert "CAP_EXCEEDED" in out


def test_run_prints_witness(capsys):
    code, out, _ = run(capsys, "run", QUAD, "--word", "abcd")
    assert code == 0
    assert "push y" in out and "pop y" in out


def test_check_erasing_output(capsys):
    code, out, _ = run(capsys, "check-erasing", QUAD)
    assert code == 0
    assert out.strip() == "bounded, k = 1"


def test_check_det_output(capsys):
    code, out, _ = run(capsys, "check-det", QUAD)
    assert code == 0 and out.strip() == "deterministic"


def test_check_det_negative_exit(capsys, tmp_path):
    bad = tmp_path / "bad.nsa"
    bad.write_text(
        "states: 1\nstart: 1\nfinal: 1\ninput: a\nmemory: x y\n"
        "edge: 1 1 push x a\nedge: 1 1 push y a\n"
    )
    code, out, _ = run(capsys, "check-det", str(bad))
    assert code == 1
    assert "nondeterministic" in out


def test_enumerate_sorted_and_json(capsys):
    code, out, _ = run(capsys, "enumerate", QUAD, "--max-len", "8")
    assert code == 0
    assert out.splitlines() == ["ε", "abcd", "aabbccdd", "abcdabcd"]
    code, out, _ = run(capsys, "enumerate", QUAD, "--max-len", "8", "--json")
    payload = json.loads(out)
    assert payload["schema"] == "nestedstack/1"
    assert ["a", "b", "c", "d"] in payload["words"]


def test_parse_error_exit_code_and_diagnostic(capsys, tmp_path):
    bad = tmp_path / "broken.nsa"
    bad.write_text("states: 1\nstart: 1\nfinal: 1\ninput: a\nmemory: x\nedge: 1 1 push z a\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert f"{bad}:6" in err and "z" in err
    assert err == f"{bad}:6: undeclared memory symbol 'z'\n"


def test_parse_errors_name_the_line_once(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, "validate", "fixtures/block4.hom")
    assert (code, out, err) == (2, "", "fixtures/block4.hom:2: unknown section 'map'\n")
    empty = tmp_path / "empty.hom"
    empty.write_text("# no maps\n")
    code, out, err = run(capsys, "preimage", QUAD, "--hom", str(empty))
    assert (code, out, err) == (2, "", f"{empty}: no map lines found\n")
    samples = tmp_path / "bad.qi"
    samples.write_text("a -> aa\nb\n")
    code, out, err = run(capsys, "group", "qi", "--group", "abelian 1", "--target", "abelian 1",
                         "--k", "2", "--samples", str(samples))
    assert (code, out, err) == (2, "", f"{samples}:2: expected 'WORD -> WORD'\n")


def test_trace_marks_accept(capsys):
    code, out, _ = run(capsys, "trace", QUAD, "--word", "abcd")
    assert code == 0
    assert "*accept*" in out
    assert "consumed 4/4" in out


def test_preimage_output_reloadable(capsys, tmp_path):
    out_path = tmp_path / "preimage.nsa"
    code, _, _ = run(
        capsys, "preimage", QUAD,
        "--hom", str(FIXTURES / "block4.hom"),
        "-o", str(out_path),
    )
    assert code == 0
    machine = parse_machine(out_path.read_text())
    # generated marker symbols were renamed out of the reserved namespace
    assert all(not s.startswith("__") for s in machine.memory_alphabet)
    assert all(not q.startswith("__") for q in machine.states)


def test_block4_preimage_stays_deterministic(capsys, tmp_path):
    out_path = str(tmp_path / "block4.nsa")
    code, out, _ = run(capsys, "preimage", QUAD, "--hom", str(FIXTURES / "block4.hom"), "-o", out_path)
    assert code == 0 and out == f"wrote {out_path}: 16 states, 19 edges\n"
    code, out, _ = run(capsys, "check-det", out_path)
    assert code == 0 and out == "deterministic\n"
    code, out, _ = run(capsys, "check-erasing", out_path)
    assert code == 0 and out.startswith("bounded, k = ")
    code, out, _ = run(capsys, "cg", "lift", "--machine", out_path, "--word", "ppp")
    assert code == 0 and out.splitlines()[-1] == "status: ok"
    code, out, _ = run(capsys, "trace", out_path, "--word", "pp")
    assert code == 0 and "*accept*" in out
    assert out.splitlines()[-1].startswith("halted at state ")


def test_cg_build_and_dot_reproducible(capsys):
    code, out1, _ = run(capsys, "cg", "dot", "--machine", QUAD, "--horizon", "4")
    code2, out2, _ = run(capsys, "cg", "dot", "--machine", QUAD, "--horizon", "4")
    assert code == code2 == 0
    assert out1 == out2
    assert "yxx2" in out1


def test_cg_lift(capsys):
    code, out, _ = run(capsys, "cg", "lift", "--machine", QUAD, "--word", "aa")
    assert code == 0
    assert "yxx2" in out
    code, _, _ = run(capsys, "cg", "lift", "--machine", QUAD, "--word", "ba")
    assert code == 1


def test_cg_project_consistent(capsys):
    code, out, _ = run(
        capsys, "cg", "project", "--machine", ZCOUNT, "--group", "abelian 1", "--horizon", "8"
    )
    assert code == 0
    assert "edge inconsistencies: 0" in out


def test_pda_quotient_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "pda", "quotient", "--machine", ANBN, "--horizon", "8")
    assert code == 0
    assert "TREE" in out
    code, _, err = run(capsys, "pda", "quotient", "--machine", QUAD, "--horizon", "4")
    assert code == 2
    assert "not a pushdown" in err


def test_pda_quotient_writes_dot(capsys, tmp_path):
    dot = tmp_path / "q.dot"
    code, _, _ = run(
        capsys, "pda", "quotient", "--machine", ANBN, "--horizon", "6", "--dot", str(dot)
    )
    assert code == 0
    assert dot.read_text().startswith("graph quotient")


def test_group_commands(capsys):
    code, out, _ = run(capsys, "group", "ends", "--group", "abelian 1", "--radius", "3", "--window", "10")
    assert code == 0
    assert "unbounded-looking): 2" in out

    code, out, _ = run(
        capsys, "group", "separator", "--group", "free 2",
        "--radius", "1", "--window", "5", "--centers", "", "aaaa",
    )
    assert code == 0
    assert "minimum separator size: 1" in out

    code, out, _ = run(capsys, "group", "ball", "--group", "free 2", "--radius", "1", "--json")
    payload = json.loads(out)
    assert payload["vertices"] == 5


def test_group_probe_mentions_sampling_limitation(capsys):
    code, out, _ = run(
        capsys, "group", "probe", "--group", "abelian 2",
        "--radius", "1", "2", "--centers", "aaaaaa",
    )
    assert code == 0
    assert "sampled evidence" in out
    assert "trend across radii: increasing" in out


def test_group_qi(capsys, tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text("a -> aa\naa -> aaaa\n -> \n")
    code, out, _ = run(
        capsys, "group", "qi", "--group", "abelian 1", "--target", "abelian 1",
        "--k", "2", "--samples", str(samples),
    )
    assert code == 0 and "0 violations" in out
    code, _, _ = run(
        capsys, "group", "qi", "--group", "abelian 1", "--target", "abelian 1",
        "--k", "1", "--samples", str(samples),
    )
    assert code == 1


def test_round_trip_via_format(capsys):
    for name in ("anbncndn.nsa", "anbn.nsa", "dyck2.nsa", "zcount.nsa", "xyblock.nsa"):
        machine = load_machine(name)
        assert parse_machine(format_machine(machine)) == machine


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["accept"])  # missing machine file
    assert exc.value.code == 2


# --- robustness: malformed input exits 2 on one line, crashes exit 4 ---------


def assert_one_line_error(err):
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_missing_word_file_exits_usage(capsys, tmp_path):
    missing = str(tmp_path / "missing.txt")
    for command in ("accept", "run", "trace"):
        code, out, err = run(capsys, command, QUAD, "--word-file", missing)
        assert code == 2 and out == ""
        assert_one_line_error(err)
        assert missing in err
    code, _, err = run(capsys, "cg", "lift", "--machine", QUAD, "--word-file", missing)
    assert code == 2
    assert_one_line_error(err)


def test_non_utf8_files_exit_usage(capsys, tmp_path):
    machine = tmp_path / "latin1.nsa"
    machine.write_bytes("# caf\xe9\nstates: 1\nstart: 1\nfinal: 1\ninput: a\nmemory: x\n".encode("latin-1"))
    for argv in (["validate", str(machine)], ["accept", str(machine), "--word", "a"],
                 ["cg", "build", "--machine", str(machine)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert_one_line_error(err)
        assert "not UTF-8" in err
    word = tmp_path / "word.txt"
    word.write_bytes(b"a \xff b")
    code, _, err = run(capsys, "accept", QUAD, "--word-file", str(word))
    assert code == 2
    assert_one_line_error(err)


def test_negative_counts_exit_usage(capsys):
    for argv in (
        ["cg", "build", "--machine", QUAD, "--horizon", "-1"],
        ["pda", "quotient", "--machine", ANBN, "--horizon", "-3"],
        ["accept", QUAD, "--word", "abcd", "--max-tree-edges", "-1"],
        ["enumerate", QUAD, "--max-len", "-2"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert_one_line_error(err)
        assert "must be non-negative" in err
    code, out, _ = run(capsys, "cg", "build", "--machine", QUAD, "--horizon", "0")
    assert code == 0 and out.startswith("1 configurations")


def test_unexpected_exception_exits_internal(capsys, monkeypatch):
    import nestedstack.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("line one\nline two")

    monkeypatch.setattr(cli, "accepts", boom)
    code, out, err = run(capsys, "accept", QUAD, "--word", "abcd")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert_one_line_error(err)
    assert err.strip() == "internal error: RuntimeError: line one line two"


def test_trace_tree_cap_exits_capped(capsys):
    argv = ["trace", QUAD, "--word", "aaaabbbbccccdddd", "--max-tree-edges", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.splitlines()[1].startswith("  2. 2 -(push x, a)-> 2")
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 3 and payload["stopped"] == "max_tree_edges" and len(payload["steps"]) == 2


@pytest.mark.parametrize("cap,value", [("--max-steps", "4"), ("--max-tree-edges", "1")])
def test_capped_trace_says_which_cap_stopped_it(capsys, cap, value):
    code, out, _ = run(capsys, "trace", QUAD, "--word", "aabbccdd", cap, value)
    last = out.splitlines()[-1]
    assert code == 3
    assert last.startswith(f"stopped by {cap[2:].replace('-', '_')} at state ")
    assert last.endswith("letters") and "consumed " in last


def test_qi_sample_letters_must_be_generators(capsys, tmp_path):
    samples = tmp_path / "letters.qi"
    for line in ("p -> a", "a -> x", "1 -> aa"):
        samples.write_text(f"a -> aa\n{line}\n")
        code, out, err = run(capsys, "group", "qi", "--group", "abelian 1", "--target", "abelian 1",
                             "--k", "2", "--samples", str(samples))
        assert code == 2 and out == ""
        assert_one_line_error(err)
        assert "is not a generator of abelian(1)" in err


def test_closed_stdout_keeps_the_exit_code():
    """The output is larger than a pipe holds, so the writer is still
    writing when the reader closes its end after one line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "nestedstack.cli", "cg", "dot", "--machine", QUAD, "--horizon", "48"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 0
    assert first == b"digraph config_graph {\n"
    assert err == b""


def test_deeply_nested_group_spec_exits_usage(capsys):
    spec = "product free 0 " * 1000 + "free 0"
    code, out, err = run(capsys, "group", "ball", "--group", spec, "--radius", "1")
    assert code == 2 and out == ""
    assert_one_line_error(err)
    assert "nested too deeply" in err


@pytest.mark.parametrize("k,expected", [("inf", 2), ("nan", 2), ("-inf", 2), ("1e308", 0)])
def test_qi_extreme_constants_end_quickly(tmp_path, k, expected):
    """A fresh interpreter, so that a density loop that never ends fails the
    test by its timeout instead of hanging the suite."""
    samples = tmp_path / "samples.txt"
    samples.write_text("a -> aa\naa -> aaaa\n -> \n")
    proc = subprocess.run(
        [sys.executable, "-m", "nestedstack.cli", "group", "qi", "--group", "abelian 1",
         "--target", "abelian 1", f"--k={k}", "--samples", str(samples), "--window", "1"],
        capture_output=True, text=True, timeout=30, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == expected
    if expected == 2:
        assert proc.stdout == ""
        assert_one_line_error(proc.stderr)
        assert "positive and finite" in proc.stderr
    else:
        assert "0 violations" in proc.stdout


# The arguments each command of the table needs besides its input.
REQUIRED = {
    ("validate",): [],
    ("accept",): ["--word", "ab"],
    ("run",): ["--word", "ab"],
    ("enumerate",): ["--max-len", "2"],
    ("check-det",): [],
    ("check-erasing",): [],
    ("trace",): ["--word", "ab"],
    ("preimage",): ["--hom", str(FIXTURES / "block4.hom")],
    ("cg", "build"): [],
    ("cg", "dot"): [],
    ("cg", "lift"): ["--word", "ab"],
    ("cg", "project"): ["--group", "abelian 2"],
    ("pda", "quotient"): [],
    ("group", "ball"): ["--radius", "1"],
    ("group", "separator"): ["--radius", "1", "--window", "4", "--centers", "", "aaa"],
    ("group", "probe"): ["--radius", "1", "--centers", "aaa"],
    ("group", "ends"): ["--radius", "1", "--window", "3"],
    ("group", "qi"): ["--target", "abelian 1", "--k", "2", "--samples", str(FIXTURES / "double.qi")],
}


@pytest.mark.parametrize("command", COMMANDS, ids=[" ".join(c.path) for c in COMMANDS])
def test_missing_input_file_exits_usage(capsys, tmp_path, command):
    missing = str(tmp_path / "missing")
    source = {
        "machine": [missing],
        "--machine": ["--machine", missing],
        "--group": ["--group", f"finite {missing}"],
    }[command.source]
    code, out, err = run(capsys, *command.path, *source, *REQUIRED[command.path])
    assert code == 2 and out == ""
    assert_one_line_error(err)
    assert missing in err


def test_command_table_covers_the_parser():
    assert set(REQUIRED) == {c.path for c in COMMANDS}
