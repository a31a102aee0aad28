"""List the statements of `src/nestedstack/` that the test suite never runs.

Run from the repository root:

    PYTHONPATH=src python tests/uncovered.py [pytest options]

It runs the whole suite in this process, with the options given, under a
`sys.settrace` line tracer that watches only the package's own files.
Without a `--hypothesis-seed` option the seed is 0, so that hypothesis
draws the same examples and the list repeats from run to run.  It prints
`file:line: statement` for every statement no test executed, leaving out
docstrings, `def` and `class` lines and imports.  Code that runs in a
subprocess (`python -m nestedstack.cli` from a test) is not traced, so
its statements count as unexecuted unless an in-process test also runs
them.  It also names each test that failed under the tracer: a test with
a wall-clock bound can fail there only because tracing slows it down.
Uses the standard library only, besides pytest itself; pytest does not
collect this file.  It takes about four times as long as the suite.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nestedstack"

_lines = {}  # code object -> its line numbers; None for code outside the package
_pending = {}  # code object -> the lines of it not executed yet
_ours = {}  # co_filename -> whether it is a file of the package


def _local(frame, event, arg):
    pending = _pending[frame.f_code]
    pending.discard(frame.f_lineno)
    return _local if pending else None  # a code object whose every line ran is traced no further


def _global(frame, event, arg):
    code = frame.f_code
    if code not in _lines:
        name = code.co_filename
        if name not in _ours:
            _ours[name] = Path(name).resolve().parent == PACKAGE
        _lines[code] = {line for _, _, line in code.co_lines() if line is not None} if _ours[name] else None
        if _lines[code]:
            _pending[code] = set(_lines[code])
    return _local if _pending.get(code) else None


class _Retrace:
    """Installs the tracer again before each test, so that a test that
    installs a tracer of its own, as hypothesis does to explain a failing
    example, does not end the tracing of every later test.  Keeps the ids
    of the tests that failed."""

    def __init__(self):
        self.failed = {}  # node id -> None, in the order the tests failed

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_global)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed[report.nodeid] = None


def executed():
    """File path -> the line numbers executed in it."""
    lines = {}
    for code, all_lines in _lines.items():
        if all_lines:
            lines.setdefault(Path(code.co_filename).resolve(), set()).update(all_lines - _pending[code])
    return lines


def statements(path: Path):
    """(line, source text) of each statement that does work when run."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    skipped = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
               ast.Global, ast.Nonlocal)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, skipped):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        yield node.lineno, text[node.lineno - 1].strip()


def main(argv) -> int:
    # the statements of the files as the run loads them: a file edited during the run is not read again
    listed = {path: sorted(set(statements(path))) for path in sorted(PACKAGE.glob("*.py"))}
    seeded = any(arg.split("=", 1)[0] == "--hypothesis-seed" for arg in argv)
    retrace = _Retrace()
    sys.settrace(_global)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *([] if seeded else ["--hypothesis-seed=0"]), *argv, str(ROOT / "tests")], plugins=[retrace])
    finally:
        sys.settrace(None)
    ran = executed()
    missed = 0
    for path, stmts in listed.items():
        hit = ran.get(path.resolve(), set())
        for line, text in stmts:
            if line not in hit:
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
                missed += 1
    for nodeid in retrace.failed:
        print(f"failed under the tracer: {nodeid}")
    print(f"{missed} statements never executed in-process (pytest exit code {code})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
