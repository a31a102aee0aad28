"""Handlers of the commands on one machine file, from `validate` to
`preimage`; `cli.main` imports this module for those commands alone."""

from __future__ import annotations

import sys

from .cli_common import EXIT_CAPPED, EXIT_NEGATIVE, EXIT_OK, _as_usage, _caps, _format_word, _read, _read_word, _write
from .machine import (
    ACCEPTED, CAP_EXCEEDED, REJECTED, EnumerationCapExceeded, NondeterminismDetected, accepts,
    check_deterministic, check_limited_erasing, enumerate_accepted, format_machine, run_trace,
)


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
    from .hom import parse_homomorphism, preimage, publish_reserved_names

    hom = _read(args.hom, parse_homomorphism)
    result = publish_reserved_names(_as_usage(ValueError, preimage, machine, hom))
    text = format_machine(result)
    if not args.out:
        return None, [text.removesuffix("\n")], EXIT_OK
    _write(args.out, text)
    payload = {"command": "preimage", "out": args.out, "states": len(result.states)}
    return payload, [f"wrote {args.out}: {len(result.states)} states, {len(result.edges)} edges"], EXIT_OK
