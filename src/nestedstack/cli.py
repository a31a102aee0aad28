"""Command-line entry point.

Exit codes: 0 success or positive verdict, 1 negative verdict (rejected,
nondeterministic, unbounded erasing, cycle found, inconsistency), 2 usage
or parse error, 3 resource cap exceeded, 4 internal error (an unexpected
exception, reported on one line).  Identical inputs and flags produce
byte-identical output.

One table, `COMMANDS`, drives both the argument parser and dispatch.  A
row names the command, its handler (as `module.function`), where its
input comes from (a positional machine file, `--machine` or `--group`)
and the option groups it takes.  `main` parses with a parser built for
the command that argv names alone, loads that input once and hands it to
the handler, which returns `(payload, lines, exit_code)` for `_emit` to
print.

The handlers live in one module per family (`cli_machine`, `cli_graph`,
`cli_group`), and `main` imports the chosen command's module alone.  So
one command in a fresh interpreter loads and compiles only its own part
of the package: a group command loads neither `machine` nor `memory_tree`.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, NamedTuple, Optional, Tuple

from .cli_common import EXIT_INTERNAL, EXIT_USAGE, _oracle, _read, _UsageError

SCHEMA = "nestedstack/1"

# Count-valued options that make no sense below zero.
_NON_NEGATIVE = (
    "horizon", "max_tree_edges", "max_steps", "max_frontier",
    "max_vertices", "max_depth", "max_len",
)


def _emit(args, payload: Optional[dict], text_lines: List[str]) -> None:
    """The payload as JSON under --json; otherwise, or when the command has
    no JSON form (payload None), the text lines.  A reader that closes
    stdout early (`nsa ... | head -1`) is not a failure: the answer was
    computed, so the rest of the output is dropped."""
    try:
        if args.json and payload is not None:
            import json

            payload = {"schema": SCHEMA, **payload}
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
    except BrokenPipeError:
        # the null device takes what is still buffered, so that the flush
        # at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# --- the command table ----------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


class Command(NamedTuple):
    path: Tuple[str, ...]  # e.g. ("cg", "build")
    handler: str  # "module.function": (args, machine or group oracle) -> (payload, lines, exit code)
    source: str  # "machine" (positional file), "--machine" or "--group"
    groups: Tuple[str, ...] = ()  # option groups, keys of _OPTIONS
    arguments: tuple = ()  # the command's own arguments, as _arg(...)
    help: Optional[str] = None


_SOURCES = {
    "machine": _arg("machine", help="machine file"),
    "--machine": _arg("--machine", required=True),
    "--group": _arg("--group", required=True, help="group spec, e.g. 'free 2' or 'finite table.grp'"),
}

_OPTIONS = {
    "word": (
        _arg("--word", default="", help="letters concatenated (single-char) or space-separated"),
        _arg("--word-file", default=None, help="file with space-separated letters"),
    ),
    "caps": (
        # None: `_caps` fills in the `ResourceCaps` default
        _arg("--max-steps", type=int),
        _arg("--max-tree-edges", type=int),
        _arg("--max-frontier", type=int),
    ),
    "horizon": (
        _arg("--horizon", type=int, default=16, help="max memory-tree edges"),
        _arg("--max-vertices", type=int, default=200_000),
        _arg("--max-depth", type=int, default=None),
    ),
    "out": (_arg("-o", "--out", default=None),),
}

_FAMILIES = {
    "cg": "configuration graph commands",
    "pda": "pushdown quotient commands",
    "group": "Cayley-graph geometry probes",
}

_RADIUS = _arg("--radius", type=int, required=True)

COMMANDS = (
    Command(("validate",), "cli_machine.cmd_validate", "machine", help="parse and validate a machine file"),
    Command(("accept",), "cli_machine.cmd_accept", "machine", ("word", "caps"),
            help="membership verdict for a word"),
    Command(("run",), "cli_machine.cmd_run", "machine", ("word", "caps"),
            help="membership verdict plus an accepting computation"),
    Command(("enumerate",), "cli_machine.cmd_enumerate", "machine", ("caps",),
            (_arg("--max-len", type=int, required=True),), help="all accepted words up to a length"),
    Command(("check-det",), "cli_machine.cmd_check_det", "machine", help="decide determinism"),
    Command(("check-erasing",), "cli_machine.cmd_check_erasing", "machine", help="decide limited erasing"),
    Command(("trace",), "cli_machine.cmd_trace", "machine", ("word", "caps"),
            help="step-by-step deterministic run"),
    Command(("preimage",), "cli_machine.cmd_preimage", "machine", ("out",),
            (_arg("--hom", required=True, help="homomorphism file"),),
            help="machine for the preimage under a homomorphism"),
    Command(("cg", "build"), "cli_graph.cmd_cg_build", "--machine", ("horizon",)),
    Command(("cg", "dot"), "cli_graph.cmd_cg_dot", "--machine", ("horizon", "out")),
    Command(("cg", "lift"), "cli_graph.cmd_cg_lift", "--machine", ("horizon", "word", "caps")),
    Command(("cg", "project"), "cli_graph.cmd_cg_project", "--machine", ("horizon",), (_SOURCES["--group"],)),
    Command(("pda", "quotient"), "cli_graph.cmd_pda_quotient", "--machine", ("horizon",),
            (_arg("--dot", default=None, help="write the quotient graph as DOT"),)),
    Command(("group", "ball"), "cli_group.cmd_group_ball", "--group", (),
            (_RADIUS, _arg("--center", default=""))),
    Command(("group", "separator"), "cli_group.cmd_group_separator", "--group", (), (
        _RADIUS,
        _arg("--window", type=int, required=True),
        _arg("--centers", nargs=2, required=True),
    )),
    Command(("group", "probe"), "cli_group.cmd_group_probe", "--group", (), (
        _arg("--radius", type=int, nargs="+", required=True),
        _arg("--centers", nargs="+", required=True),
        _arg("--window", type=int, default=None),
    )),
    Command(("group", "ends"), "cli_group.cmd_group_ends", "--group", (), (
        _RADIUS,
        _arg("--window", type=int, required=True),
    )),
    Command(("group", "qi"), "cli_group.cmd_group_qi", "--group", (), (
        _arg("--target", required=True, help="target group spec"),
        _arg("--k", type=float, required=True),
        _arg("--samples", required=True, help="file of 'WORD -> WORD' lines"),
        _arg("--window", type=int, default=None, help="check image density in this window"),
    )),
)


def _add_subparsers(parser, family: Tuple[str, ...], one_command: bool):
    """The subcommand slot after `family` (`nsa cg ...`).  In a parser built
    for one command it still names every choice, so usage lines read the
    same as the full parser's."""
    names = dict.fromkeys(c.path[len(family)] for c in COMMANDS if c.path[:len(family)] == family)
    metavar = "{" + ",".join(names) + "}" if one_command else None
    return parser.add_subparsers(dest="_".join(family + ("command",)), required=True, metavar=metavar)


def build_parser(chosen: Optional[Command] = None) -> argparse.ArgumentParser:
    """The parser for every command in `COMMANDS`, or only for `chosen`."""
    parser = argparse.ArgumentParser(prog="nsa", description="Nested stack automata toolkit")
    subparsers = {(): _add_subparsers(parser, (), chosen is not None)}
    for command in COMMANDS if chosen is None else (chosen,):
        family, name = command.path[:-1], command.path[-1]
        if family not in subparsers:
            p = subparsers[()].add_parser(family[0], help=_FAMILIES[family[0]])
            subparsers[family] = _add_subparsers(p, family, chosen is not None)
        p = subparsers[family].add_parser(name, help=command.help)
        options = [a for group in command.groups for a in _OPTIONS[group]]
        for flags, kwargs in [_SOURCES[command.source], _arg("--json", action="store_true"),
                              *options, *command.arguments]:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(entry=command)
    return parser


def _named_command(argv: List[str]) -> Optional[Command]:
    """The command that `argv` names in its leading words, if any."""
    return next((c for c in COMMANDS if tuple(argv[:len(c.path)]) == c.path), None)


def _load(args, source: str):
    """The command's input: a group oracle, or a parsed machine file."""
    if source == "--group":
        return _oracle(args.group)
    from .machine import parse_machine

    return _read(args.machine, parse_machine)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_named_command(argv)).parse_args(argv)
    for name in _NON_NEGATIVE:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be non-negative, got {value}", file=sys.stderr)
            return EXIT_USAGE
    command = args.entry
    try:
        loaded = _load(args, command.source)
        module, _, name = command.handler.partition(".")
        handler = getattr(importlib.import_module("." + module, __package__), name)
        payload, lines, code = handler(args, loaded)
        _emit(args, payload, lines)
        return code
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must never read as a negative verdict
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
