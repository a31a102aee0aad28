"""Command-line entry point.

Exit codes: 0 success or positive verdict, 1 negative verdict (rejected,
nondeterministic, unbounded erasing, cycle found, inconsistency), 2 usage
or parse error, 3 resource cap exceeded, 4 internal error (an unexpected
exception, reported on one line).  Identical inputs and flags produce
byte-identical output.

One table, `COMMANDS`, drives both the argument parser and dispatch.  A
row names the command, its handler, where its input comes from (a
positional machine file, `--machine` or `--group`) and the option groups
it takes.  `main` loads that input once and hands it to the handler, which
returns `(payload, lines, exit_code)` for `_emit` to print.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import config_graph as cgmod
from . import group_geometry as geo
from . import pda_quotient as pda
from .hom import parse_homomorphism, preimage, publish_reserved_names
from .machine import (
    ACCEPTED,
    CAP_EXCEEDED,
    REJECTED,
    EnumerationCapExceeded,
    MachineParseError,
    NondeterminismDetected,
    ResourceCaps,
    accepts,
    check_deterministic,
    check_limited_erasing,
    enumerate_accepted,
    format_machine,
    parse_machine,
    parse_word,
    run_trace,
)

SCHEMA = "nestedstack/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3
EXIT_INTERNAL = 4

# Count-valued options that make no sense below zero.
_NON_NEGATIVE = (
    "horizon", "max_tree_edges", "max_steps", "max_frontier",
    "max_vertices", "max_depth", "max_len",
)

# Failures of the window-based geometry probes that are the caller's doing.
_WINDOW_ERRORS = (ValueError, geo.WindowCapExceeded)


class _UsageError(Exception):
    """Bad input found after parsing: `main` prints the message as the one
    stderr line and exits with EXIT_USAGE."""


def _as_usage(errors, call, *args, prefix: str = "error"):
    """`call(*args)`, reporting the exceptions in `errors` as usage errors."""
    try:
        return call(*args)
    except errors as exc:
        raise _UsageError(f"{prefix}: {exc}") from None


def _read(path: str, parse):
    """`parse` applied to the text of a UTF-8 file.  A missing, unreadable
    or malformed file is a usage error reported as `path[:line]: message`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except MachineParseError as exc:
        where = f"{path}:{exc.line_no}" if exc.line_no else path
        raise _UsageError(f"{where}: {exc.message}") from None
    except (OSError, ValueError) as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _format_word(word: Tuple[str, ...]) -> str:
    if not word:
        return "ε"
    if all(len(a) == 1 for a in word):
        return "".join(word)
    return " ".join(word)


def _caps(args) -> ResourceCaps:
    return ResourceCaps(
        max_steps=args.max_steps,
        max_tree_edges=args.max_tree_edges,
        max_frontier=args.max_frontier,
    )


def _horizon(args) -> cgmod.BuildHorizon:
    return cgmod.BuildHorizon(
        max_tree_edges=args.horizon,
        max_vertices=args.max_vertices,
        max_depth=args.max_depth,
    )


def _emit(args, payload: Optional[dict], text_lines: List[str]) -> None:
    """The payload as JSON under --json; otherwise, or when the command has
    no JSON form (payload None), the text lines.  A reader that closes
    stdout early (`nsa ... | head -1`) is not a failure: the answer was
    computed, so the rest of the output is dropped."""
    try:
        if args.json and payload is not None:
            payload = {"schema": SCHEMA, **payload}
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
    except BrokenPipeError:
        # the null device takes what is still buffered, so that the flush
        # at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _read_word(args) -> Tuple[str, ...]:
    if args.word_file:
        return _read(args.word_file, lambda text: tuple(text.split()))
    return parse_word(args.word)


# --- machine-level commands -------------------------------------------------


def cmd_validate(args, machine):
    payload = {
        "command": "validate",
        "states": len(machine.states),
        "edges": len(machine.edges),
        "initial": machine.initial,
        "finals": sorted(machine.finals),
    }
    return payload, [f"ok: {len(machine.states)} states, {len(machine.edges)} edges"], EXIT_OK


def cmd_accept(args, machine, with_witness: bool = False):
    word = _read_word(args)
    result = accepts(machine, word, _caps(args))
    lines = [result.verdict]
    payload = {"command": "accept", "word": list(word), "verdict": result.verdict}
    if result.verdict == CAP_EXCEEDED:
        payload["caps_hit"] = list(result.caps_hit)
        lines.append("caps hit: " + ", ".join(result.caps_hit))
    if with_witness and result.witness is not None:
        steps = [str(e) for e in result.witness.path]
        payload["witness"] = steps
        lines.extend("  " + s for s in steps)
    code = {ACCEPTED: EXIT_OK, REJECTED: EXIT_NEGATIVE}.get(result.verdict, EXIT_CAPPED)
    return payload, lines, code


def cmd_run(args, machine):
    return cmd_accept(args, machine, with_witness=True)


def cmd_enumerate(args, machine):
    try:
        words = enumerate_accepted(machine, args.max_len, _caps(args))
    except EnumerationCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return None, [], EXIT_CAPPED
    ordered = sorted(words, key=lambda w: (len(w), w))
    payload = {"command": "enumerate", "max_len": args.max_len, "words": [list(w) for w in ordered]}
    return payload, [_format_word(w) for w in ordered], EXIT_OK


def cmd_check_det(args, machine):
    conflict = check_deterministic(machine)
    if conflict is None:
        return {"command": "check-det", "deterministic": True}, ["deterministic"], EXIT_OK
    witness = {
        "state": conflict.state,
        "first": str(conflict.first),
        "second": str(conflict.second),
        "symbol": conflict.symbol or "eps",
        "at_leaf": conflict.at_leaf,
    }
    lines = [
        "nondeterministic",
        f"  state {conflict.state}: {conflict.first} conflicts with {conflict.second}",
        f"  joint domain witness: symbol={witness['symbol']} at_leaf={conflict.at_leaf}",
    ]
    return {"command": "check-det", "deterministic": False, "witness": witness}, lines, EXIT_NEGATIVE


def cmd_check_erasing(args, machine):
    report = check_limited_erasing(machine)
    if report.bounded:
        payload = {"command": "check-erasing", "bounded": True, "k": report.bound}
        return payload, [f"bounded, k = {report.bound}"], EXIT_OK
    cycle = [str(e) for e in report.cycle]
    lines = ["unbounded erasing; silent cycle with a pop:"] + ["  " + c for c in cycle]
    return {"command": "check-erasing", "bounded": False, "cycle": cycle}, lines, EXIT_NEGATIVE


def cmd_trace(args, machine):
    word = _read_word(args)
    try:
        trace = run_trace(machine, word, _caps(args))
    except NondeterminismDetected as exc:
        print(f"nondeterminism detected: {exc}", file=sys.stderr)
        return None, [], EXIT_NEGATIVE
    lines = []
    payload_steps = []
    for i, step in enumerate(trace.steps, start=1):
        mark = " *accept*" if i in trace.accepted_at else ""
        lines.append(f"{i:3d}. {step.edge}  tree {step.tree}{mark}")
        payload_steps.append(
            {"edge": str(step.edge), "tree": str(step.tree), "consumed": step.consumed}
        )
    if 0 in trace.accepted_at:
        lines.insert(0, "  0. (initial configuration) *accept*")
    end = "halted" if trace.stopped == "halted" else f"stopped by {trace.stopped}"
    lines.append(
        f"{end} at state {trace.final_state}, tree {trace.final_tree}, "
        f"consumed {trace.consumed}/{len(word)} letters"
    )
    payload = {
        "command": "trace",
        "word": list(word),
        "steps": payload_steps,
        "consumed": trace.consumed,
        "final_state": trace.final_state,
        "accepted_at": list(trace.accepted_at),
        "stopped": trace.stopped,
    }
    return payload, lines, EXIT_OK if trace.stopped == "halted" else EXIT_CAPPED


def cmd_preimage(args, machine):
    hom = _read(args.hom, parse_homomorphism)
    result = publish_reserved_names(_as_usage(ValueError, preimage, machine, hom))
    text = format_machine(result)
    if not args.out:
        return None, [text.removesuffix("\n")], EXIT_OK
    _write(args.out, text)
    payload = {"command": "preimage", "out": args.out, "states": len(result.states)}
    return payload, [f"wrote {args.out}: {len(result.states)} states, {len(result.edges)} edges"], EXIT_OK


# --- configuration-graph commands -------------------------------------------


def cmd_cg_build(args, machine):
    cg = cgmod.build(machine, _horizon(args))
    co = sum(1 for v in cg.vertices if v in cg.coaccessible)
    payload = {
        "command": "cg build",
        "vertices": len(cg.vertices),
        "edges": len(cg.edges),
        "coaccessible_within_horizon": co,
        "truncated": cg.truncated,
    }
    lines = [
        f"{len(cg.vertices)} configurations, {len(cg.edges)} edges",
        f"coaccessible within horizon: {co}",
        f"truncated: {str(cg.truncated).lower()}",
    ]
    return payload, lines, EXIT_OK


def cmd_cg_dot(args, machine):
    text = cgmod.export_dot(cgmod.build(machine, _horizon(args)))
    if args.out:
        _write(args.out, text)
        return None, [], EXIT_OK
    return None, [text.removesuffix("\n")], EXIT_OK


def cmd_cg_lift(args, machine):
    if check_deterministic(machine) is not None:
        raise _UsageError("error: lift requires a deterministic machine")
    word = _read_word(args)
    result = cgmod.lift_path(machine, word, _caps(args))
    names = [cgmod.vertex_name(c) for c in result.configs]
    lines = [" -> ".join(names), f"status: {result.status}"]
    if result.status == "stuck":
        lines.append(f"no continuation consumes letter {result.stuck_at}")
    payload = {
        "command": "cg lift",
        "word": list(word),
        "status": result.status,
        "path": names,
        "labels": [l or "ε" for l in result.labels],
        "stuck_at": result.stuck_at,
    }
    code = {"ok": EXIT_OK, "cap_exceeded": EXIT_CAPPED}.get(result.status, EXIT_NEGATIVE)
    return payload, lines, code


def cmd_cg_project(args, machine):
    oracle = _as_usage((ValueError, OSError), geo.make_oracle, args.group, prefix="group spec error")
    cg = cgmod.build(machine, _horizon(args))
    report = _as_usage(ValueError, cgmod.project, cg, oracle)
    lines = [
        f"projected {len(report.images)} configurations onto {oracle.family}",
        f"edge inconsistencies: {len(report.violations)}",
    ]
    payload_violations = []
    for v in report.violations[:20]:
        lines.append(
            f"  at {cgmod.vertex_name(v.edge[1])}: "
            f"{_format_word(v.via_discovery)} vs {_format_word(v.via_edge)}"
        )
        payload_violations.append(
            {
                "config": cgmod.vertex_name(v.edge[1]),
                "via_discovery": list(v.via_discovery),
                "via_edge": list(v.via_edge),
            }
        )
    payload = {
        "command": "cg project",
        "group": oracle.family,
        "configurations": len(report.images),
        "violations": payload_violations,
        "consistent_within_horizon": report.consistent,
        "truncated": cg.truncated,
    }
    return payload, lines, EXIT_OK if report.consistent else EXIT_NEGATIVE


# --- quotient command --------------------------------------------------------


def cmd_pda_quotient(args, machine):
    if not pda.is_pushdown(machine):
        raise _UsageError("error: machine has up/down moves; not a pushdown machine")
    cg = cgmod.build(machine, _horizon(args))
    classes = pda.nonerasing_classes(cg)
    q = pda.quotient(cg, classes)
    cycle = pda.check_tree(q)
    distortion = pda.quotient_distortion(q)
    if args.dot:
        _write(args.dot, pda.quotient_dot(q))
    verdict = "TREE" if cycle is None else "CYCLE"
    lines = [
        f"{len(q.classes)} classes, {len(q.edges)} quotient edges (within horizon)",
        f"max class diameter: {distortion}",
        f"verdict: {verdict} (horizon-relative)",
    ]
    if cycle is not None:
        lines.append("cycle through classes: " + " - ".join(str(i) for i in cycle))
    payload = {
        "command": "pda quotient",
        "classes": len(q.classes),
        "edges": len(q.edges),
        "distortion": distortion,
        "verdict": verdict,
        "truncated": cg.truncated,
    }
    return payload, lines, EXIT_OK if cycle is None else EXIT_NEGATIVE


# --- group commands -----------------------------------------------------------


def cmd_group_ball(args, oracle):
    window = _as_usage(_WINDOW_ERRORS, geo.ball, oracle, parse_word(args.center), args.radius)
    by_dist: dict = {}
    for v, d in window.dist.items():
        by_dist.setdefault(d, []).append(oracle.describe(v))
    lines = [f"{oracle.family}: ball of radius {args.radius}, {len(window.dist)} vertices"]
    for d in sorted(by_dist):
        lines.append(f"  d={d}: " + " ".join(sorted(by_dist[d])))
    payload = {
        "command": "group ball",
        "group": oracle.family,
        "radius": args.radius,
        "vertices": len(window.dist),
        "sphere_sizes": {str(d): len(vs) for d, vs in sorted(by_dist.items())},
    }
    return payload, lines, EXIT_OK


def cmd_group_separator(args, oracle):
    c1, c2 = (parse_word(c) for c in args.centers)
    report = _as_usage(_WINDOW_ERRORS, geo.min_separator, oracle, c1, c2, args.radius, args.window)
    cut = [oracle.describe(v) for v in report.cut_set]
    lines = [
        f"minimum separator size: {report.cut_size}",
        f"window-limited: {str(report.window_limited).lower()}",
        "cut: " + " ".join(cut),
    ]
    payload = {
        "command": "group separator",
        "group": oracle.family,
        "radius": args.radius,
        "window": args.window,
        "cut_size": report.cut_size,
        "window_limited": report.window_limited,
        "cut": cut,
    }
    return payload, lines, EXIT_OK


def cmd_group_probe(args, oracle):
    centers = [parse_word(c) for c in args.centers]
    table = geo.narrowness_probe(oracle, args.radius, centers, args.window)
    lines = [
        "narrowness probe (sampled evidence only; the property quantifies",
        "over all but finitely many balls and cannot be certified here)",
    ]
    cells_payload = []
    for cell in table.cells:
        center = _format_word(cell.center)
        if cell.report:
            lines.append(
                f"  r={cell.radius} center={center}: cut {cell.report.cut_size}"
                f" (window-limited: {str(cell.report.window_limited).lower()})"
            )
            cells_payload.append(
                {
                    "radius": cell.radius,
                    "center": center,
                    "cut_size": cell.report.cut_size,
                    "window_limited": cell.report.window_limited,
                }
            )
        else:
            lines.append(f"  r={cell.radius} center={center}: error: {cell.error}")
            cells_payload.append({"radius": cell.radius, "center": center, "error": cell.error})
    lines.append(f"trend across radii: {table.trend()}")
    payload = {"command": "group probe", "group": oracle.family, "cells": cells_payload, "trend": table.trend()}
    return payload, lines, EXIT_OK


def cmd_group_ends(args, oracle):
    report = _as_usage(_WINDOW_ERRORS, geo.ends_probe, oracle, args.radius, args.window)
    lines = [
        f"components of the window minus the radius-{args.radius} ball:",
        f"  touching the window boundary (unbounded-looking): {report.boundary_components}",
        f"  interior (certainly finite): {report.finite_components}",
    ]
    payload = {
        "command": "group ends",
        "group": oracle.family,
        "radius": args.radius,
        "window": args.window,
        "boundary_components": report.boundary_components,
        "finite_components": report.finite_components,
    }
    return payload, lines, EXIT_OK


def _parse_samples(text: str) -> List[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """QI sample lines `WORD -> WORD`; `#` starts a comment."""
    samples = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise MachineParseError(line_no, "expected 'WORD -> WORD'")
        left, _, right = line.partition("->")
        samples.append((parse_word(left.strip()), parse_word(right.strip())))
    return samples


def cmd_group_qi(args, oracle):
    target = _as_usage((ValueError, OSError), geo.make_oracle, args.target)
    samples = _read(args.samples, _parse_samples)
    violations = _as_usage(ValueError, geo.qi_check, oracle, target, samples, args.k, args.window)
    lines = [f"checked {len(samples)} samples with k={args.k}: {len(violations)} violations"]
    lines += [f"  [{v.kind}] {v.detail}" for v in violations]
    payload = {
        "command": "group qi",
        "k": args.k,
        "violations": [{"kind": v.kind, "detail": v.detail} for v in violations],
    }
    return payload, lines, EXIT_OK if not violations else EXIT_NEGATIVE


# --- the command table ----------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


class Command(NamedTuple):
    path: Tuple[str, ...]  # e.g. ("cg", "build")
    handler: Callable  # (args, machine or group oracle) -> (payload, lines, exit code)
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
        _arg("--max-steps", type=int, default=ResourceCaps.max_steps),
        _arg("--max-tree-edges", type=int, default=ResourceCaps.max_tree_edges),
        _arg("--max-frontier", type=int, default=ResourceCaps.max_frontier),
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
    Command(("validate",), cmd_validate, "machine", help="parse and validate a machine file"),
    Command(("accept",), cmd_accept, "machine", ("word", "caps"), help="membership verdict for a word"),
    Command(("run",), cmd_run, "machine", ("word", "caps"),
            help="membership verdict plus an accepting computation"),
    Command(("enumerate",), cmd_enumerate, "machine", ("caps",),
            (_arg("--max-len", type=int, required=True),), help="all accepted words up to a length"),
    Command(("check-det",), cmd_check_det, "machine", help="decide determinism"),
    Command(("check-erasing",), cmd_check_erasing, "machine", help="decide limited erasing"),
    Command(("trace",), cmd_trace, "machine", ("word", "caps"), help="step-by-step deterministic run"),
    Command(("preimage",), cmd_preimage, "machine", ("out",),
            (_arg("--hom", required=True, help="homomorphism file"),),
            help="machine for the preimage under a homomorphism"),
    Command(("cg", "build"), cmd_cg_build, "--machine", ("horizon",)),
    Command(("cg", "dot"), cmd_cg_dot, "--machine", ("horizon", "out")),
    Command(("cg", "lift"), cmd_cg_lift, "--machine", ("horizon", "word", "caps")),
    Command(("cg", "project"), cmd_cg_project, "--machine", ("horizon",), (_SOURCES["--group"],)),
    Command(("pda", "quotient"), cmd_pda_quotient, "--machine", ("horizon",),
            (_arg("--dot", default=None, help="write the quotient graph as DOT"),)),
    Command(("group", "ball"), cmd_group_ball, "--group", (), (_RADIUS, _arg("--center", default=""))),
    Command(("group", "separator"), cmd_group_separator, "--group", (), (
        _RADIUS,
        _arg("--window", type=int, required=True),
        _arg("--centers", nargs=2, required=True),
    )),
    Command(("group", "probe"), cmd_group_probe, "--group", (), (
        _arg("--radius", type=int, nargs="+", required=True),
        _arg("--centers", nargs="+", required=True),
        _arg("--window", type=int, default=None),
    )),
    Command(("group", "ends"), cmd_group_ends, "--group", (), (
        _RADIUS,
        _arg("--window", type=int, required=True),
    )),
    Command(("group", "qi"), cmd_group_qi, "--group", (), (
        _arg("--target", required=True, help="target group spec"),
        _arg("--k", type=float, required=True),
        _arg("--samples", required=True, help="file of 'WORD -> WORD' lines"),
        _arg("--window", type=int, default=None, help="check image density in this window"),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nsa", description="Nested stack automata toolkit")
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for command in COMMANDS:
        family, name = command.path[:-1], command.path[-1]
        if family not in subparsers:
            p = subparsers[()].add_parser(family[0], help=_FAMILIES[family[0]])
            subparsers[family] = p.add_subparsers(dest=f"{family[0]}_command", required=True)
        p = subparsers[family].add_parser(name, help=command.help)
        options = [a for group in command.groups for a in _OPTIONS[group]]
        for flags, kwargs in [_SOURCES[command.source], _arg("--json", action="store_true"),
                              *options, *command.arguments]:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(entry=command)
    return parser


def _load(args, source: str):
    """The command's input: a group oracle, or a parsed machine file."""
    if source == "--group":
        return _as_usage((ValueError, OSError), geo.make_oracle, args.group)
    return _read(args.machine, parse_machine)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for name in _NON_NEGATIVE:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be non-negative, got {value}", file=sys.stderr)
            return EXIT_USAGE
    command = args.entry
    try:
        payload, lines, code = command.handler(args, _load(args, command.source))
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
