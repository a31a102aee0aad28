"""Command-line entry point.

Exit codes: 0 success or positive verdict, 1 negative verdict (rejected,
nondeterministic, unbounded erasing, cycle found, inconsistency), 2 usage
or parse error, 3 resource cap exceeded, 4 internal error (an unexpected
exception, reported on one line).  Identical inputs and flags produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from . import config_graph as cgmod
from . import group_geometry as geo
from . import pda_quotient as pda
from .hom import parse_homomorphism, preimage
from .machine import (
    ACCEPTED,
    CAP_EXCEEDED,
    REJECTED,
    EnumerationCapExceeded,
    Machine,
    MachineError,
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


class _UsageError(Exception):
    """Bad command-line input found after parsing; exits with EXIT_USAGE."""


def _fail(path: str, exc: Exception) -> int:
    line = getattr(exc, "line_no", None)
    where = f"{path}:{line}" if line else path
    print(f"{where}: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _load_machine(path: str) -> Machine:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MachineError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_machine(text)


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


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if getattr(args, "json", False):
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_word(args) -> Tuple[str, ...]:
    if getattr(args, "word_file", None):
        try:
            with open(args.word_file, "r", encoding="utf-8") as fh:
                return tuple(fh.read().split())
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"{args.word_file}: {exc}") from None
    return parse_word(args.word or "")


# --- machine-level commands -------------------------------------------------


def cmd_validate(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    _emit(
        args,
        {
            "command": "validate",
            "states": len(machine.states),
            "edges": len(machine.edges),
            "initial": machine.initial,
            "finals": sorted(machine.finals),
        },
        [f"ok: {len(machine.states)} states, {len(machine.edges)} edges"],
    )
    return EXIT_OK


def cmd_accept(args, with_witness: bool = False) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
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
    _emit(args, payload, lines)
    if result.verdict == ACCEPTED:
        return EXIT_OK
    if result.verdict == REJECTED:
        return EXIT_NEGATIVE
    return EXIT_CAPPED


def cmd_enumerate(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    try:
        words = enumerate_accepted(machine, args.max_len, _caps(args))
    except EnumerationCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    ordered = sorted(words, key=lambda w: (len(w), w))
    _emit(
        args,
        {"command": "enumerate", "max_len": args.max_len, "words": [list(w) for w in ordered]},
        [_format_word(w) for w in ordered],
    )
    return EXIT_OK


def cmd_check_det(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    conflict = check_deterministic(machine)
    if conflict is None:
        _emit(args, {"command": "check-det", "deterministic": True}, ["deterministic"])
        return EXIT_OK
    witness = {
        "state": conflict.state,
        "first": str(conflict.first),
        "second": str(conflict.second),
        "symbol": conflict.symbol or "eps",
        "at_leaf": conflict.at_leaf,
    }
    _emit(
        args,
        {"command": "check-det", "deterministic": False, "witness": witness},
        [
            "nondeterministic",
            f"  state {conflict.state}: {conflict.first} conflicts with {conflict.second}",
            f"  joint domain witness: symbol={witness['symbol']} at_leaf={conflict.at_leaf}",
        ],
    )
    return EXIT_NEGATIVE


def cmd_check_erasing(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    report = check_limited_erasing(machine)
    if report.bounded:
        _emit(
            args,
            {"command": "check-erasing", "bounded": True, "k": report.bound},
            [f"bounded, k = {report.bound}"],
        )
        return EXIT_OK
    cycle = [str(e) for e in report.cycle]
    _emit(
        args,
        {"command": "check-erasing", "bounded": False, "cycle": cycle},
        ["unbounded erasing; silent cycle with a pop:"] + ["  " + c for c in cycle],
    )
    return EXIT_NEGATIVE


def cmd_trace(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    word = _read_word(args)
    try:
        trace = run_trace(machine, word, _caps(args))
    except NondeterminismDetected as exc:
        print(f"nondeterminism detected: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
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
    lines.append(
        f"halted at state {trace.final_state}, tree {trace.final_tree}, "
        f"consumed {trace.consumed}/{len(word)} letters"
    )
    _emit(
        args,
        {
            "command": "trace",
            "word": list(word),
            "steps": payload_steps,
            "consumed": trace.consumed,
            "final_state": trace.final_state,
            "accepted_at": list(trace.accepted_at),
            "stopped": trace.stopped,
        },
        lines,
    )
    return EXIT_OK if trace.stopped == "halted" else EXIT_CAPPED


def cmd_preimage(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    try:
        with open(args.hom, "r", encoding="utf-8") as fh:
            hom = parse_homomorphism(fh.read())
    except (MachineParseError, ValueError, OSError) as exc:
        return _fail(args.hom, exc)
    try:
        result = preimage(machine, hom)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = _publish_reserved_names(result)
    text = format_machine(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(
            args,
            {"command": "preimage", "out": args.out, "states": len(result.states)},
            [f"wrote {args.out}: {len(result.states)} states, {len(result.edges)} edges"],
        )
    else:
        print(text, end="")
    return EXIT_OK


def _publish_reserved_names(machine: Machine) -> Machine:
    """Rename reserved `__` memory symbols and state ids to parser-legal
    fresh names so the emitted file can be loaded again.  Relabeling the
    memory alphabet or the state set never changes the accepted language."""
    from dataclasses import replace

    def fresh_names(reserved, taken):
        renames = {}
        for name in sorted(reserved):
            base = name.strip("_") or "gen"
            candidate = base
            n = 0
            while candidate in taken or candidate == "eps" or candidate.startswith("__"):
                n += 1
                candidate = f"{base}{n}"
            renames[name] = candidate
            taken.add(candidate)
        return renames

    symbol_renames = fresh_names(
        [s for s in machine.memory_alphabet if s.startswith("__")],
        set(machine.memory_alphabet),
    )
    state_renames = fresh_names(
        [q for q in machine.states if q.startswith("__")], set(machine.states)
    )
    if not symbol_renames and not state_renames:
        return machine

    def state(q):
        return state_renames.get(q, q)

    new_edges = tuple(
        replace(
            e,
            src=state(e.src),
            dst=state(e.dst),
            op=replace(e.op, symbol=symbol_renames.get(e.op.symbol, e.op.symbol)),
        )
        for e in machine.edges
    )
    return replace(
        machine,
        states=tuple(state(q) for q in machine.states),
        initial=state(machine.initial),
        finals=frozenset(state(q) for q in machine.finals),
        memory_alphabet=frozenset(symbol_renames.get(s, s) for s in machine.memory_alphabet),
        edges=new_edges,
    )


# --- configuration-graph commands -------------------------------------------


def cmd_cg_build(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    cg = cgmod.build(machine, _horizon(args))
    co = sum(1 for v in cg.vertices if v in cg.coaccessible)
    _emit(
        args,
        {
            "command": "cg build",
            "vertices": len(cg.vertices),
            "edges": len(cg.edges),
            "coaccessible_within_horizon": co,
            "truncated": cg.truncated,
        },
        [
            f"{len(cg.vertices)} configurations, {len(cg.edges)} edges",
            f"coaccessible within horizon: {co}",
            f"truncated: {str(cg.truncated).lower()}",
        ],
    )
    return EXIT_OK


def cmd_cg_dot(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    cg = cgmod.build(machine, _horizon(args))
    text = cgmod.export_dot(cg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_cg_lift(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    if check_deterministic(machine) is not None:
        print("error: lift requires a deterministic machine", file=sys.stderr)
        return EXIT_USAGE
    word = _read_word(args)
    result = cgmod.lift_path(machine, word, _caps(args))
    names = [cgmod.vertex_name(c) for c in result.configs]
    lines = [" -> ".join(names), f"status: {result.status}"]
    if result.status == "stuck":
        lines.append(f"no continuation consumes letter {result.stuck_at}")
    _emit(
        args,
        {
            "command": "cg lift",
            "word": list(word),
            "status": result.status,
            "path": names,
            "labels": [l or "ε" for l in result.labels],
            "stuck_at": result.stuck_at,
        },
        lines,
    )
    if result.status == "ok":
        return EXIT_OK
    return EXIT_CAPPED if result.status == "cap_exceeded" else EXIT_NEGATIVE


def cmd_cg_project(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    try:
        oracle = geo.make_oracle(args.group)
    except (ValueError, OSError) as exc:
        print(f"group spec error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cg = cgmod.build(machine, _horizon(args))
    try:
        report = cgmod.project(cg, oracle)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    _emit(
        args,
        {
            "command": "cg project",
            "group": oracle.family,
            "configurations": len(report.images),
            "violations": payload_violations,
            "consistent_within_horizon": report.consistent,
            "truncated": cg.truncated,
        },
        lines,
    )
    return EXIT_OK if report.consistent else EXIT_NEGATIVE


# --- quotient command --------------------------------------------------------


def cmd_pda_quotient(args) -> int:
    try:
        machine = _load_machine(args.machine)
    except (MachineParseError, MachineError, OSError) as exc:
        return _fail(args.machine, exc)
    if not pda.is_pushdown(machine):
        print("error: machine has up/down moves; not a pushdown machine", file=sys.stderr)
        return EXIT_USAGE
    cg = cgmod.build(machine, _horizon(args))
    classes = pda.nonerasing_classes(cg)
    q = pda.quotient(cg, classes)
    cycle = pda.check_tree(q)
    distortion = pda.quotient_distortion(q)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(pda.quotient_dot(q))
    verdict = "TREE" if cycle is None else "CYCLE"
    lines = [
        f"{len(q.classes)} classes, {len(q.edges)} quotient edges (within horizon)",
        f"max class diameter: {distortion}",
        f"verdict: {verdict} (horizon-relative)",
    ]
    if cycle is not None:
        lines.append("cycle through classes: " + " - ".join(str(i) for i in cycle))
    _emit(
        args,
        {
            "command": "pda quotient",
            "classes": len(q.classes),
            "edges": len(q.edges),
            "distortion": distortion,
            "verdict": verdict,
            "truncated": cg.truncated,
        },
        lines,
    )
    return EXIT_OK if cycle is None else EXIT_NEGATIVE


# --- group commands -----------------------------------------------------------


def _load_oracle(args) -> geo.GroupOracle:
    return geo.make_oracle(args.group)


def cmd_group_ball(args) -> int:
    try:
        oracle = _load_oracle(args)
        window = geo.ball(oracle, parse_word(args.center or ""), args.radius)
    except (ValueError, OSError, geo.WindowCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    by_dist: dict = {}
    for v, d in window.dist.items():
        by_dist.setdefault(d, []).append(oracle.describe(v))
    lines = [f"{oracle.family}: ball of radius {args.radius}, {len(window.dist)} vertices"]
    for d in sorted(by_dist):
        lines.append(f"  d={d}: " + " ".join(sorted(by_dist[d])))
    _emit(
        args,
        {
            "command": "group ball",
            "group": oracle.family,
            "radius": args.radius,
            "vertices": len(window.dist),
            "sphere_sizes": {str(d): len(vs) for d, vs in sorted(by_dist.items())},
        },
        lines,
    )
    return EXIT_OK


def cmd_group_separator(args) -> int:
    try:
        oracle = _load_oracle(args)
        c1, c2 = args.centers
        report = geo.min_separator(
            oracle, parse_word(c1), parse_word(c2), args.radius, args.window
        )
    except (ValueError, OSError, geo.WindowCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lines = [
        f"minimum separator size: {report.cut_size}",
        f"window-limited: {str(report.window_limited).lower()}",
        "cut: " + " ".join(oracle.describe(v) for v in report.cut_set),
    ]
    _emit(
        args,
        {
            "command": "group separator",
            "group": oracle.family,
            "radius": args.radius,
            "window": args.window,
            "cut_size": report.cut_size,
            "window_limited": report.window_limited,
            "cut": [oracle.describe(v) for v in report.cut_set],
        },
        lines,
    )
    return EXIT_OK


def cmd_group_probe(args) -> int:
    try:
        oracle = _load_oracle(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    _emit(
        args,
        {"command": "group probe", "group": oracle.family, "cells": cells_payload, "trend": table.trend()},
        lines,
    )
    return EXIT_OK


def cmd_group_ends(args) -> int:
    try:
        oracle = _load_oracle(args)
        report = geo.ends_probe(oracle, args.radius, args.window)
    except (ValueError, OSError, geo.WindowCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lines = [
        f"components of the window minus the radius-{args.radius} ball:",
        f"  touching the window boundary (unbounded-looking): {report.boundary_components}",
        f"  interior (certainly finite): {report.finite_components}",
    ]
    _emit(
        args,
        {
            "command": "group ends",
            "group": oracle.family,
            "radius": args.radius,
            "window": args.window,
            "boundary_components": report.boundary_components,
            "finite_components": report.finite_components,
        },
        lines,
    )
    return EXIT_OK


def cmd_group_qi(args) -> int:
    try:
        oracle = _load_oracle(args)
        target = geo.make_oracle(args.target)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    samples = []
    try:
        with open(args.samples, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "->" not in line:
                    raise ValueError(f"line {line_no}: expected 'WORD -> WORD'")
                left, _, right = line.partition("->")
                samples.append((parse_word(left.strip()), parse_word(right.strip())))
    except (OSError, ValueError) as exc:
        return _fail(args.samples, exc)
    try:
        violations = geo.qi_check(oracle, target, samples, args.k, args.window)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lines = [f"checked {len(samples)} samples with k={args.k}: {len(violations)} violations"]
    lines += [f"  [{v.kind}] {v.detail}" for v in violations]
    _emit(
        args,
        {
            "command": "group qi",
            "k": args.k,
            "violations": [{"kind": v.kind, "detail": v.detail} for v in violations],
        },
        lines,
    )
    return EXIT_OK if not violations else EXIT_NEGATIVE


# --- parser wiring ------------------------------------------------------------


def _add_caps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-steps", type=int, default=ResourceCaps.max_steps)
    p.add_argument("--max-tree-edges", type=int, default=ResourceCaps.max_tree_edges)
    p.add_argument("--max-frontier", type=int, default=ResourceCaps.max_frontier)


def _add_horizon(p: argparse.ArgumentParser) -> None:
    p.add_argument("--horizon", type=int, default=16, help="max memory-tree edges")
    p.add_argument("--max-vertices", type=int, default=200_000)
    p.add_argument("--max-depth", type=int, default=None)


def _add_word(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", default="", help="letters concatenated (single-char) or space-separated")
    p.add_argument("--word-file", default=None, help="file with space-separated letters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsa", description="Nested stack automata toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def machine_command(name, func, word=False, caps=False, help=""):
        p = sub.add_parser(name, help=help)
        p.add_argument("machine", help="machine file")
        p.add_argument("--json", action="store_true")
        if word:
            _add_word(p)
        if caps:
            _add_caps(p)
        p.set_defaults(func=func)
        return p

    machine_command("validate", cmd_validate, help="parse and validate a machine file")
    machine_command("accept", lambda a: cmd_accept(a, False), word=True, caps=True,
                    help="membership verdict for a word")
    machine_command("run", lambda a: cmd_accept(a, True), word=True, caps=True,
                    help="membership verdict plus an accepting computation")
    p = machine_command("enumerate", cmd_enumerate, caps=True,
                        help="all accepted words up to a length")
    p.add_argument("--max-len", type=int, required=True)
    machine_command("check-det", cmd_check_det, help="decide determinism")
    machine_command("check-erasing", cmd_check_erasing, help="decide limited erasing")
    machine_command("trace", cmd_trace, word=True, caps=True,
                    help="step-by-step deterministic run")
    p = machine_command("preimage", cmd_preimage,
                        help="machine for the preimage under a homomorphism")
    p.add_argument("--hom", required=True, help="homomorphism file")
    p.add_argument("-o", "--out", default=None)

    cg = sub.add_parser("cg", help="configuration graph commands")
    cg_sub = cg.add_subparsers(dest="cg_command", required=True)
    for name, func, extra in (
        ("build", cmd_cg_build, ()),
        ("dot", cmd_cg_dot, ("out",)),
        ("lift", cmd_cg_lift, ("word",)),
        ("project", cmd_cg_project, ("group",)),
    ):
        p = cg_sub.add_parser(name)
        p.add_argument("--machine", required=True)
        p.add_argument("--json", action="store_true")
        _add_horizon(p)
        if "word" in extra:
            _add_word(p)
            _add_caps(p)
        if "out" in extra:
            p.add_argument("-o", "--out", default=None)
        if "group" in extra:
            p.add_argument("--group", required=True, help="e.g. 'free 2' or 'finite table.grp'")
        p.set_defaults(func=func)

    pda_p = sub.add_parser("pda", help="pushdown quotient commands")
    pda_sub = pda_p.add_subparsers(dest="pda_command", required=True)
    p = pda_sub.add_parser("quotient")
    p.add_argument("--machine", required=True)
    p.add_argument("--json", action="store_true")
    _add_horizon(p)
    p.add_argument("--dot", default=None, help="write the quotient graph as DOT")
    p.set_defaults(func=cmd_pda_quotient)

    grp = sub.add_parser("group", help="Cayley-graph geometry probes")
    grp_sub = grp.add_subparsers(dest="group_command", required=True)

    p = grp_sub.add_parser("ball")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--center", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_group_ball)

    p = grp_sub.add_parser("separator")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--centers", nargs=2, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_group_separator)

    p = grp_sub.add_parser("probe")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, nargs="+", required=True)
    p.add_argument("--centers", nargs="+", required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_group_probe)

    p = grp_sub.add_parser("ends")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_group_ends)

    p = grp_sub.add_parser("qi")
    p.add_argument("--group", required=True, help="source group spec")
    p.add_argument("--target", required=True, help="target group spec")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--samples", required=True, help="file of 'WORD -> WORD' lines")
    p.add_argument("--window", type=int, default=None, help="check image density in this window")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_group_qi)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in _NON_NEGATIVE:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be non-negative, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must never read as a negative verdict
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
