"""Handlers of the `cg` and `pda` commands, on the configuration graph;
`cli.main` imports this module for those commands alone."""

from __future__ import annotations

from . import config_graph as cgmod
from .cli_common import (
    EXIT_CAPPED, EXIT_NEGATIVE, EXIT_OK, _as_usage, _caps, _format_word, _horizon, _read_word, _UsageError, _write,
)
from .machine import check_deterministic


def cmd_cg_build(args, machine):
    cg = cgmod.build(machine, _horizon(args))
    co = len(cg.coaccessible)
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
    names = list(map(cgmod.vertex_namer(machine), result.configs))
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
    from .groups import make_oracle

    oracle = _as_usage((ValueError, OSError), make_oracle, args.group, prefix="group spec error")
    cg = cgmod.build(machine, _horizon(args))
    report = _as_usage(ValueError, cgmod.project, cg, oracle)
    lines = [
        f"projected {len(report.images)} configurations onto {oracle.family}",
        f"edge inconsistencies: {len(report.violations)}",
    ]
    payload_violations = []
    name = cgmod.vertex_namer(machine)
    for v in report.violations[:20]:
        lines.append(
            f"  at {name(v.edge[1])}: "
            f"{_format_word(v.via_discovery)} vs {_format_word(v.via_edge)}"
        )
        payload_violations.append(
            {
                "config": name(v.edge[1]),
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


def cmd_pda_quotient(args, machine):
    from . import pda_quotient as pda

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
