"""Handlers of the `group` commands, on a group oracle; `cli.main` imports
this module for those commands alone, which load no `machine`."""

from __future__ import annotations

from typing import List, Tuple

from .cli_common import EXIT_NEGATIVE, EXIT_OK, _as_usage, _format_word, _oracle, _read, parse_word
from .group_geometry import WindowCapExceeded, ball, ends_probe, min_separator, narrowness_probe, qi_check
from .groups import LineError


def cmd_group_ball(args, oracle):
    window = _as_usage((ValueError, WindowCapExceeded), ball, oracle, parse_word(args.center), args.radius)
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
    report = _as_usage((ValueError, WindowCapExceeded), min_separator, oracle, c1, c2, args.radius, args.window)
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
    table = _as_usage(ValueError, narrowness_probe, oracle, args.radius, centers, args.window)
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
    report = _as_usage((ValueError, WindowCapExceeded), ends_probe, oracle, args.radius, args.window)
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
            raise LineError(line_no, "expected 'WORD -> WORD'")
        left, _, right = line.partition("->")
        samples.append((parse_word(left.strip()), parse_word(right.strip())))
    return samples


def cmd_group_qi(args, oracle):
    target = _oracle(args.target)
    samples = _read(args.samples, _parse_samples)
    violations = _as_usage((ValueError, WindowCapExceeded), qi_check, oracle, target, samples, args.k, args.window)
    lines = [f"checked {len(samples)} samples with k={args.k}: {len(violations)} violations"]
    lines += [f"  [{v.kind}] {v.detail}" for v in violations]
    payload = {
        "command": "group qi",
        "k": args.k,
        "violations": [{"kind": v.kind, "detail": v.detail} for v in violations],
    }
    return payload, lines, EXIT_OK if not violations else EXIT_NEGATIVE
