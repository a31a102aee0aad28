import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from nestedstack.cli import _FAMILIES, COMMANDS, _named_command, build_parser, main
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


def test_check_erasing_bounded_through_a_silent_cycle(capsys, tmp_path):
    # states 1 and 2 form a silent cycle of stays; the one pop leaves it
    machine = tmp_path / "silent_cycle.nsa"
    machine.write_text(
        "states: 1 2 3\nstart: 1\nfinal: 3\ninput: a\nmemory: x\n"
        "edge: 1 1 push x a\nedge: 1 2 stay eps\nedge: 2 1 stay eps\nedge: 2 3 pop x eps\n"
    )
    assert run(capsys, "check-erasing", str(machine)) == (0, "bounded, k = 1\n", "")
    code, out, _ = run(capsys, "check-erasing", str(machine), "--json")
    assert code == 0
    assert json.loads(out) == {"bounded": True, "command": "check-erasing", "k": 1, "schema": "nestedstack/1"}


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


def test_words_of_multi_character_letters(capsys, tmp_path):
    machine = tmp_path / "long_letters.nsa"
    machine.write_text(
        "states: 1 2 3\nstart: 1\nfinal: 1 3\ninput: ab cd\nmemory: x\n"
        "edge: 1 2 push x ab\nedge: 2 2 push x ab\nedge: 2 3 pop x cd\nedge: 3 3 pop x cd\n"
    )
    code, out, _ = run(capsys, "enumerate", str(machine), "--max-len", "4")
    assert code == 0 and out.splitlines() == ["ε", "ab cd", "ab ab cd cd"]
    code, out, _ = run(capsys, "enumerate", str(machine), "--max-len", "4", "--json")
    assert json.loads(out)["words"] == [[], ["ab", "cd"], ["ab", "ab", "cd", "cd"]]
    code, out, _ = run(capsys, "accept", str(machine), "--word", "ab cd")
    assert code == 0 and out.strip() == "ACCEPTED"
    code, out, _ = run(capsys, "accept", str(machine), "--word", "ab ab cd", "--json")
    assert code == 1 and json.loads(out)["verdict"] == "REJECTED"
    assert json.loads(out)["word"] == ["ab", "ab", "cd"]


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


def test_preimage_rejects_an_eps_letter_and_writes_nothing(capsys, tmp_path, monkeypatch):
    # `eps` on a written edge would read back as a silent edge
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.hom").write_text("map: eps -> a\n")
    code, out, err = run(capsys, "preimage", QUAD, "--hom", "h.hom", "-o", "out.nsa")
    assert (code, out, err) == (2, "", "h.hom:1: 'eps' cannot be declared as a letter\n")
    assert not (tmp_path / "out.nsa").exists()


Z2_TABLE = "elements: e t\nidentity: e\ngenerators: a=t\nmul: e e e\nmul: e t t\nmul: t e t\nmul: t t e\n"


@pytest.mark.parametrize("text,line_no,message", [
    (Z2_TABLE.replace("mul: t t e\n", "mul: t t t\nmul: t t e\n"), 8, "duplicate product t * t"),
    (Z2_TABLE + "mul: t t e\n", 8, "duplicate product t * t"),
    (Z2_TABLE.replace("a=t", "a=t a=e"), 3, "duplicate generator 'a'"),
    (Z2_TABLE + "generators: a=t\n", 8, "duplicate generator 'a'"),
    (Z2_TABLE + "elements: e t\n", 8, "duplicate section 'elements'"),
    (Z2_TABLE.replace("identity: e\n", "identity: e\nidentity: t\n"), 3, "duplicate section 'identity'"),
], ids=["mul pair", "mul line repeated", "generator letter", "generator on a second line", "elements", "identity"])
def test_group_table_rejects_repeated_lines(capsys, tmp_path, text, line_no, message):
    table = tmp_path / "z2.grp"
    table.write_text(Z2_TABLE)
    code, _, err = run(capsys, "group", "ball", "--group", f"finite {table}", "--radius", "1")
    assert (code, err) == (0, "")
    table.write_text(text)
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "group", "ball", "--group", f"finite {table}", "--radius", "1", *json_flag)
        assert (code, out, err) == (2, "", f"{table}:{line_no}: {message}\n")


def test_group_table_errors_name_the_file(capsys, tmp_path):
    table = tmp_path / "bad.grp"
    table.write_text("elements: e a\nidentity: e\ngenerators: a=a\nmul: e e\n")
    code, out, err = run(capsys, "group", "ball", "--group", f"finite {table}", "--radius", "1")
    assert (code, out, err) == (2, "", f"{table}:4: mul takes three elements\n")
    code, out, err = run(capsys, "cg", "project", "--machine", ANBN, "--group", f"finite {table}")
    assert (code, out, err) == (2, "", f"{table}:4: mul takes three elements\n")
    missing = tmp_path / "missing.grp"
    code, out, err = run(capsys, "group", "ends", "--group", f"finite {missing}", "--radius", "1", "--window", "4")
    assert (code, out) == (2, "")
    assert err == f"{missing}: [Errno 2] No such file or directory: '{missing}'\n"
    binary = tmp_path / "binary.grp"
    binary.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "group", "qi", "--group", "abelian 1", "--target", f"finite {binary}",
                         "--k", "2", "--samples", str(missing))
    assert (code, out, err) == (2, "", f"{binary}: not UTF-8 text (invalid start byte at byte 0)\n")


def test_trace_marks_accept(capsys):
    code, out, _ = run(capsys, "trace", QUAD, "--word", "abcd")
    assert code == 0
    assert "*accept*" in out
    assert "consumed 4/4" in out


def test_trace_marks_an_accepting_initial_configuration(capsys):
    code, out, _ = run(capsys, "trace", ANBN, "--word", "")
    assert code == 0
    assert out == "  0. (initial configuration) *accept*\nhalted at state 1, tree ε@0, consumed 0/0 letters\n"


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


def test_cg_dot_writes_the_file_it_names(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, err = run(capsys, "cg", "dot", "--machine", QUAD, "--horizon", "4", "-o", str(target))
    assert (code, out, err) == (0, "", "")
    _, printed, _ = run(capsys, "cg", "dot", "--machine", QUAD, "--horizon", "4")
    assert target.read_text(encoding="utf-8") == printed


def test_cg_dot_labels_are_distinct_for_long_state_ids(capsys, tmp_path):
    # state 1 on branch yx and state x1 on branch y both read `yx1` when the
    # id is spliced into the branch word without brackets
    machine = tmp_path / "x1.nsa"
    machine.write_text(
        "states: 1 x1\nstart: 1\nfinal: 1\ninput: a b\nmemory: x y\n"
        "edge: 1 1 push y a\nedge: 1 1 push x b\nedge: 1 x1 push y b\n"
    )
    code, out, _ = run(capsys, "cg", "dot", "--machine", str(machine), "--horizon", "2")
    assert code == 0
    labels = re.findall(r'^  n\d+ \[label="([^"]*)"', out, re.MULTILINE)
    assert "yx1" in labels and "y[x1]" in labels
    assert len(labels) == len(set(labels))


def test_cg_dot_labels_are_distinct_when_state_ids_are_memory_symbols(capsys, tmp_path):
    # state y on branch x and state x on branch y with the pointer at the
    # root both read `xy` when the ids are spliced in bare
    machine = tmp_path / "xy.nsa"
    machine.write_text(
        "states: x y\nstart: x\nfinal: x\ninput: a b\nmemory: x y\n"
        "edge: x y push x a\nedge: x x push y b\nedge: x x down y eps\n"
    )
    code, out, _ = run(capsys, "cg", "dot", "--machine", str(machine), "--horizon", "1")
    assert code == 0
    labels = re.findall(r'^  n\d+ \[label="([^"]*)"', out, re.MULTILINE)
    assert labels == ["ε[x]", "x[y]", "y[x]", "[x]y"]


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


def test_pda_quotient_reports_a_cycle(capsys, monkeypatch):
    # no pushdown machine gets here (`check_tree`'s docstring proves the
    # quotient a forest), so a stub stands in for a broken check
    import nestedstack.pda_quotient as pda_quotient

    monkeypatch.setattr(pda_quotient, "check_tree", lambda q: [0, 1, 2])
    code, out, _ = run(capsys, "pda", "quotient", "--machine", ANBN, "--horizon", "4")
    assert code == 1
    assert "verdict: CYCLE (horizon-relative)" in out.splitlines()
    assert out.splitlines()[-1] == "cycle through classes: 0 - 1 - 2"
    code, out, _ = run(capsys, "pda", "quotient", "--machine", ANBN, "--horizon", "4", "--json")
    assert code == 1 and json.loads(out)["verdict"] == "CYCLE"


def test_pda_quotient_writes_dot(capsys, tmp_path):
    dot = tmp_path / "q.dot"
    code, _, _ = run(
        capsys, "pda", "quotient", "--machine", ANBN, "--horizon", "6", "--dot", str(dot)
    )
    assert code == 0
    assert dot.read_text().startswith("graph quotient")


# a quote and a backslash in a state id, an input letter and a memory symbol
SPECIAL = [
    'states: 1\nstart: 1\nfinal: 1\ninput: a"b\nmemory: x"y\nedge: 1 1 push x"y a"b\n',
    'states: 1 q\\\nstart: 1\nfinal: 1\ninput: a\\"\nmemory: \\x y"\n'
    'edge: 1 q\\ push \\x a\\"\nedge: q\\ 1 push y" a\\"\nedge: q\\ 1 pop \\x eps\n',
]


def dot_labels(text):
    """Every `label=` value in `text`, unescaped; each must be one DOT
    double-quoted string."""
    labels = []
    for line in text.splitlines():
        if "label=" in line:
            match = re.search(r'\[label=("(?:[^"\\]|\\.)*")[,\]]', line)
            assert match, line
            labels.append(re.sub(r"\\(.)", r"\1", match.group(1)[1:-1]))
    return labels


@pytest.mark.parametrize("text", SPECIAL, ids=["quote", "backslash"])
def test_dot_labels_are_escaped(capsys, tmp_path, text):
    from nestedstack.config_graph import BuildHorizon, build, vertex_namer
    from nestedstack.pda_quotient import nonerasing_classes

    path = tmp_path / "special.nsa"
    path.write_text(text)
    machine = parse_machine(text)
    cg = build(machine, BuildHorizon(max_tree_edges=1))
    name = vertex_namer(machine)
    code, out, _ = run(capsys, "cg", "dot", "--machine", str(path), "--horizon", "1")
    assert code == 0
    assert dot_labels(out) == [name(v) for v in cg.vertices] + [label or "ε" for _, _, label in cg.edges]

    dot = tmp_path / "q.dot"
    code, _, _ = run(capsys, "pda", "quotient", "--machine", str(path), "--horizon", "1", "--dot", str(dot))
    assert code == 0
    classes = nonerasing_classes(cg)
    at = cg.vertices
    assert dot_labels(dot.read_text()) == [f"[{','.join(at[v].state for v in c)}] {at[c[0]].tree}" for c in classes]


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


@pytest.mark.parametrize("window", [[], ["--window", "4"]], ids=["default window", "fixed window"])
def test_group_probe_center_outside_the_generators_exits_usage(capsys, window):
    # as `group separator` and `group ball` do for the same center
    code, out, err = run(capsys, "group", "probe", "--group", "abelian 1", "--radius", "1",
                         "--centers", "9", *window)
    assert code == 2 and out == ""
    assert err == "error: '9' is not a generator of abelian(1)\n"


def test_group_probe_reports_a_capped_window_in_its_cell_and_a_flow_defect_as_internal(capsys, monkeypatch):
    # a window past the vertex cap is one cell's error; a defect in the
    # flow is not input-dependent and must not read as a probe result
    from nestedstack import group_geometry

    real_ball = group_geometry.ball
    monkeypatch.setattr(group_geometry, "ball",
                        lambda oracle, center, radius, max_vertices=0: real_ball(oracle, center, radius, 100))
    argv = ["group", "probe", "--group", "abelian 2", "--radius", "1", "--centers", "aaaaaa"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "  r=1 center=aaaaaa: error: ball exceeds 100 vertices" in out.splitlines()

    def defect(*args):
        raise RuntimeError("cut fails\nto separate the balls")

    monkeypatch.setattr(group_geometry, "min_separator", defect)
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert_one_line_error(err)
    assert err == "internal error: RuntimeError: cut fails to separate the balls\n"


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


def test_group_qi_window_past_the_vertex_cap_exits_usage(capsys, tmp_path, monkeypatch):
    # as `group ball`, `separator` and `ends` do; a small cap keeps the ball small
    from functools import partial

    from nestedstack import group_geometry

    monkeypatch.setattr(group_geometry, "ball", partial(group_geometry.ball, max_vertices=100))
    samples = tmp_path / "samples.txt"
    samples.write_text("a -> aa\n")
    code, out, err = run(capsys, "group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "2",
                         "--samples", str(samples), "--window", "50")
    assert code == 2 and out == ""
    assert err == "error: ball exceeds 100 vertices\n"


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


@pytest.mark.parametrize("argv", [
    ["cg", "dot", "--machine", ANBN, "-o"],
    ["pda", "quotient", "--machine", ANBN, "--horizon", "4", "--dot"],
    ["preimage", QUAD, "--hom", str(FIXTURES / "collapse_pq.hom"), "-o"],
], ids=["cg dot", "pda quotient", "preimage"])
def test_unwritable_output_exits_usage(capsys, tmp_path, argv):
    target = str(tmp_path / "missing" / "out")
    code, out, err = run(capsys, *argv, target)
    assert code == 2 and out == ""
    assert_one_line_error(err)
    assert err.startswith(f"{target}: [Errno 2] No such file or directory")


@pytest.mark.parametrize("argv,message", [
    (["group", "ends", "--group", "abelian 1", "--radius", "-1", "--window", "3"], "radius must be"),
    (["group", "separator", "--group", "abelian 1", "--radius", "0", "--window", "-1", "--centers", "", "aaa"],
     "window must be"),
    (["group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "2",
      "--samples", str(FIXTURES / "double.qi"), "--window", "-1"], "window must be"),
    (["group", "probe", "--group", "abelian 1", "--radius", "1", "--centers", "aaaa", "--window", "-1"],
     "window must be"),
    (["group", "probe", "--group", "abelian 1", "--radius", "2", "-1", "--centers", "aaaa"], "radius must be"),
], ids=["ends radius", "separator window", "qi window", "probe window", "probe radius"])
def test_negative_radius_or_window_exits_usage(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert_one_line_error(err)
    assert err == f"error: {message} non-negative\n"


def test_unexpected_exception_exits_internal(capsys, monkeypatch):
    import nestedstack.cli as cli
    import nestedstack.cli_machine as cli_machine

    def boom(*args, **kwargs):
        raise RuntimeError("line one\nline two")

    monkeypatch.setattr(cli_machine, "accepts", boom)
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


@pytest.mark.parametrize("spec,message", [
    ("product free 0 " * 1000 + "free 0", "group spec nested too deeply"),
    ("free -1", "rank must be non-negative"),
    ("abelian -1", "rank must be non-negative"),
    ("free 27", "rank 27 exceeds the 26 naming letters"),
    ("product free 26 free 1", "too many generators to relabel"),
    ("finite", "finite needs a table file"),
], ids=["deep nesting", "free rank", "abelian rank", "too many letters", "too many product letters", "bare finite"])
def test_bad_group_spec_exits_usage(capsys, spec, message):
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "group", "ball", "--group", spec, "--radius", "1", *json_flag)
        assert (code, out) == (2, "")
        assert_one_line_error(err)
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("prefix", ["group: ", "group "])
def test_group_spec_prefix_is_ignored(capsys, prefix):
    for json_flag in ([], ["--json"]):
        expected = run(capsys, "group", "ball", "--group", "free 1", "--radius", "1", *json_flag)
        assert expected[0] == 0
        assert run(capsys, "group", "ball", "--group", prefix + "free 1", "--radius", "1", *json_flag) == expected


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


# --- the parser built for the named command alone ------------------------------


def _parse(parser, argv):
    """Parsed arguments (None on exit), stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parser.parse_args(argv)), 0
        except SystemExit as exc:
            parsed, code = None, exc.code
    return parsed, out.getvalue(), err.getvalue(), code


def _parser_corpus():
    yield from ([], ["-h"], ["--help"], ["-h", "accept"], ["bogus"], ["cg", "bogus"], ["cg", "-h"])
    yield from ([family] for family in _FAMILIES)
    for command in COMMANDS:
        source = {"machine": [ANBN], "--machine": ["--machine", ANBN], "--group": ["--group", "free 2"]}
        full = [*command.path, *source[command.source], *REQUIRED[command.path]]
        yield [*command.path]  # no input
        yield [*command.path, "-h"]
        yield full
        yield full + ["--json"]
        yield full[:-1]  # an option without its value, or a missing required option
        yield full + ["--bogus", "x"]  # unrecognized trailing arguments
        yield full + ["--json", "--horizon", "x"]


@pytest.mark.parametrize("argv", list(_parser_corpus()), ids=" ".join)
def test_chosen_parser_matches_the_full_parser(argv):
    assert _parse(build_parser(_named_command(argv)), argv) == _parse(build_parser(), argv)


def test_only_a_command_path_chooses_a_parser():
    for command in COMMANDS:
        assert _named_command([*command.path, "-h"]) is command
    for argv in ([], ["-h"], ["-h", "accept"], ["bogus"], ["cg"], ["cg", "bogus"], ["cg", "-h"], ["build"]):
        assert _named_command(argv) is None
