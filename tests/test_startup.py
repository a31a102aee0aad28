"""Start-up: a command loads only the modules on its own path, and
`import nestedstack` resolves its public names on first use.  No command
loads `dataclasses` (or `inspect`, which it pulls in): records are
`typing.NamedTuple` classes.

These run fresh interpreters.  In-process tests cannot see a broken lazy
import, because earlier tests have already loaded every module.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import nestedstack
from nestedstack.cli import COMMANDS
from nestedstack.memory_tree import MemoryTree

from test_golden import CASES, GOLDEN, ROOT, _exit_codes

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# `cli` itself never shows up in a `-m` run: it runs as `__main__`, and a
# handler module that imported it would compile it a second time.
MACHINE = {"machine", "memory_tree"}
COMMAND = MACHINE | {"cli_common", "cli_machine"}
GRAPH = MACHINE | {"cli_common", "cli_graph", "config_graph", "graphs"}
GROUP = {"cli_common", "cli_group", "group_geometry", "groups", "graphs"}

# command -> (golden case, the nestedstack submodules it may load)
STARTUP = {
    ("validate",): ("validate_quad", COMMAND),
    ("accept",): ("accept_quad", COMMAND),
    ("run",): ("run_quad_json", COMMAND),
    ("enumerate",): ("enumerate_anbn", COMMAND),
    ("check-det",): ("check_det_popcycle", COMMAND),
    ("check-erasing",): ("check_erasing_quad", COMMAND | {"graphs"}),
    ("trace",): ("trace_quad_abcd", COMMAND),
    ("preimage",): ("preimage_quad_block4", COMMAND | {"hom"}),
    ("cg", "build"): ("cg_build_anbn_json", GRAPH),
    ("cg", "dot"): ("cg_dot_anbn", GRAPH),
    ("cg", "lift"): ("cg_lift_quad_stuck", GRAPH),
    ("cg", "project"): ("cg_project_zcount", GRAPH | {"groups"}),
    ("pda", "quotient"): ("pda_quotient_anbn", GRAPH | {"pda_quotient"}),
    ("group", "ball"): ("group_ball_free2", GROUP),
    ("group", "separator"): ("group_separator_free2_json", GROUP),
    ("group", "probe"): ("group_probe_abelian2", GROUP),
    ("group", "ends"): ("group_ends_abelian1", GROUP),
    ("group", "qi"): ("group_qi_double_k1", GROUP),
}

# the public names, by the submodule that defines them
PUBLIC = {
    "memory_tree": "EPSILON STAY UNDEFINED MemoryTree StackOp apply down empty_tree pop push up",
    "machine": "ACCEPTED CAP_EXCEEDED REJECTED AcceptResult Computation Edge Machine MachineError "
               "MachineParseError ResourceCaps accepts check_deterministic check_limited_erasing "
               "enumerate_accepted format_machine parse_machine run_trace",
    "hom": "Homomorphism parse_homomorphism preimage publish_reserved_names",
    "config_graph": "BuildHorizon ConfigGraph Configuration build check_degrees export_dot lift_path "
                    "max_eps_run project vertex_name",
    "pda_quotient": "QuotientGraph check_tree is_pushdown nonerasing_classes quotient quotient_distortion",
    "groups": "GroupOracle make_oracle",
    "group_geometry": "CayleyWindow ball ends_probe min_separator narrowness_probe qi_check",
    "cli_common": "parse_word",
}


# standard modules that no command may load
HEAVY = {"dataclasses", "inspect"}

# Names the loaded nestedstack submodules, and any HEAVY module, on one
# line of stderr.
REPORT = ('print(*sorted(m.removeprefix("nestedstack.") for m in sys.modules'
          f' if m.startswith("nestedstack.") or m in {sorted(HEAVY)}), file=sys.stderr)')

# `python -m nestedstack.cli ARGS` as `-m` runs it, reporting at exit.
# (`-X importtime` would miss modules loaded through `importlib`.)
RUN_CLI = ("import atexit, runpy, sys; atexit.register(lambda: " + REPORT + "); "
           "runpy.run_module('nestedstack.cli', run_name='__main__', alter_sys=True)")


def fresh(code, *args):
    """A fresh interpreter running `code`: exit code, stdout bytes, and the
    last line of stderr split into words."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=ENV, capture_output=True, timeout=60)
    last = (proc.stderr.decode().splitlines() or [""])[-1]
    return proc.returncode, proc.stdout, set(last.split())


def test_startup_table_covers_every_command():
    assert set(STARTUP) == {c.path for c in COMMANDS}


@pytest.mark.parametrize("path", list(STARTUP), ids=[" ".join(p) for p in STARTUP])
def test_command_loads_only_its_modules(path):
    case, modules = STARTUP[path]
    argv = dict(CASES)[case]
    assert tuple(argv[:len(path)]) == path
    code, out, loaded = fresh(RUN_CLI, *argv)
    assert out == (GOLDEN / f"{case}.out").read_bytes()
    assert code == _exit_codes()[case]
    assert not loaded & HEAVY
    assert loaded == modules


def test_import_loads_no_submodule():
    code, _, loaded = fresh("import sys, nestedstack; " + REPORT)
    assert code == 0 and loaded == set()
    code, _, loaded = fresh("import sys, nestedstack; nestedstack.accepts; " + REPORT)
    assert code == 0 and loaded == MACHINE


def test_cli_import_loads_no_dataclasses():
    code, _, loaded = fresh("import sys, nestedstack.cli; " + REPORT)
    assert code == 0 and loaded == {"cli", "cli_common"}


def run_module(*argv):
    """`python -m nestedstack.cli ARGV`: exit code, stdout and stderr bytes."""
    proc = subprocess.run([sys.executable, "-m", "nestedstack.cli", *argv], cwd=ROOT, env=ENV,
                          capture_output=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


# A usage error raised in a handler module exits 2 under `-m` only while
# that module shares `cli`'s `_UsageError` class; a handler module that
# imported `nestedstack.cli` would get a second copy, and the error would
# exit 4 as an internal error.
@pytest.mark.parametrize("case", ["usage_group_qi_k", "usage_cg_lift_nondet"])
def test_usage_error_in_a_handler_exits_usage(case):
    assert run_module(*dict(CASES)[case]) == (2, b"", (GOLDEN / f"{case}.err").read_bytes())
    assert _exit_codes()[case] == 2


def test_malformed_samples_exit_usage(tmp_path):
    samples = tmp_path / "bad.qi"
    samples.write_text("a -> a\nbogus\n", encoding="utf-8")
    argv = ["group", "qi", "--group", "abelian 1", "--target", "abelian 1", "--k", "2", "--samples", str(samples)]
    assert run_module(*argv) == (2, b"", f"{samples}:2: expected 'WORD -> WORD'\n".encode())


def test_no_source_module_imports_dataclasses():
    for path in sorted((ROOT / "src" / "nestedstack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not {n.split(".")[0] for n in names} & HEAVY, f"{path.name}:{node.lineno}"


def test_only_graphs_and_machine_import_deque():
    # every graph search goes through `graphs`; `machine` keeps its own
    # search drivers, which track their own keys and caps
    users = set()
    for path in sorted((ROOT / "src" / "nestedstack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "collections":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}  # `collections.deque` counts too
            else:
                continue
            if names & {"deque", "collections"}:
                users.add(path.name)
    assert "graphs.py" in users and users <= {"graphs.py", "machine.py"}


# the node fields and the tree constructor of `memory_tree` that a run
# needs to step a tree inline
NODE_LAYOUT = {"_EMPTY", "_HASH", "_LABEL", "_PARENT", "_PREV", "_SAVED", "_tree"}


def test_only_machine_steps_memory_tree_nodes():
    # `machine` walks every run, so it alone knows the node layout, reads a
    # tree's private slots and reads `Machine.step_table`; every other module,
    # `config_graph` included, uses only a tree's public surface (`build`
    # finds the empty trees by `edge_count`)
    private, slot_readers, table_readers = {}, set(), set()
    for path in sorted((ROOT / "src" / "nestedstack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("memory_tree", "nestedstack.memory_tree"):
                private.setdefault(path.name, set()).update(a.name for a in node.names if a.name.startswith("_"))
            elif isinstance(node, ast.Attribute) and node.attr == "step_table":
                table_readers.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr in MemoryTree.__slots__:
                slot_readers.add(path.name)
    assert {name for name, names in private.items() if names & NODE_LAYOUT} == {"machine.py"}
    assert "config_graph.py" in private and not private["config_graph.py"]
    assert slot_readers == {"machine.py", "memory_tree.py"}
    assert table_readers == {"machine.py"}


def test_no_source_module_but_memory_tree_names_apply():
    # every search and run steps its trees inline on `Machine.step_table`
    # records; `apply` stays public as the reference semantics
    for path in sorted((ROOT / "src" / "nestedstack").glob("*.py")):
        if path.name != "memory_tree.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                assert getattr(node, "id", getattr(node, "name", None)) != "apply", f"{path.name}:{node.lineno}"


def test_public_names_resolve_to_the_submodule_objects():
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"nestedstack.{module}")
        for name in names.split():
            assert getattr(nestedstack, name) is getattr(sub, name), name
    assert set(nestedstack.__all__) == {n for names in PUBLIC.values() for n in names.split()}


def test_dir_lists_every_public_name():
    assert set(nestedstack.__all__) <= set(dir(nestedstack))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nestedstack import *", namespace)
    for names in PUBLIC.values():
        for name in names.split():
            assert namespace[name] is getattr(nestedstack, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nestedstack.no_such_name
    for name in ("weighted_path_bound", "apply_word", "validate", "UNBOUNDED_WITHIN_HORIZON", "successors"):
        assert not hasattr(nestedstack, name), name
    with pytest.raises(AttributeError, match="successors"):
        nestedstack.successors  # the searches read `Machine.step_table` records instead
