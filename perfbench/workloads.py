"""Workload set-up and queries.

Each workload turns its seeded inputs into a list of `Query` objects.  A
query's `run` calls into the package through module attributes (so the
traced run can wrap them), `check` compares the answer with an oracle
from `oracles`, and `summary` is a cheap fingerprint that must repeat
whenever the same query runs again.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from functools import partial
from types import SimpleNamespace

import inputs
import oracles

MODULES = ("memory_tree", "machine", "hom", "config_graph", "pda_quotient", "graphs", "group_geometry")


class Query:
    """`run()` returns the answer, `check(answer)` an error string or None,
    `summary(answer)` the fingerprint that repeats must reproduce; `fit`
    names the scaling ladder the query's `size` belongs to.  A plain class,
    so that the set-up probe imports nothing the package imports itself."""

    __slots__ = ("kind", "size", "run", "check", "summary", "fit")

    def __init__(self, kind, size, run, check, summary, fit=None):
        self.kind, self.size, self.run, self.check, self.summary, self.fit = kind, size, run, check, summary, fit


def import_package(with_cli=False):
    import importlib

    names = MODULES + (("cli",) if with_cli else ())
    return SimpleNamespace(**{n: importlib.import_module(f"nestedstack.{n}") for n in names})


def _read(root, name):
    with open(os.path.join(root, "fixtures", name), encoding="utf-8") as fh:
        return fh.read()


# --- membership -------------------------------------------------------------------


def setup_membership(ns, root):
    parse = ns.machine.parse_machine
    machines = {n: parse(_read(root, f"{n}.nsa")) for n in ("anbn", "anbncndn", "dyck2", "zcount")}
    machines["free2"] = parse(inputs.free2_machine())
    machines["palindrome"] = parse(inputs.palindrome_machine())
    for name in ("block4", "collapse_pq"):
        f = ns.hom.parse_homomorphism(_read(root, f"{name}.hom"))
        machines[name] = ns.hom.preimage(machines["anbncndn"], f)
    return machines


def _check_accepts(ns, word, member, result):
    if result.verdict == ns.machine.CAP_EXCEEDED:
        return f"cap exceeded ({', '.join(result.caps_hit)})"
    want = ns.machine.ACCEPTED if member else ns.machine.REJECTED
    if result.verdict != want:
        return f"verdict {result.verdict}, oracle says {want}"
    if member and tuple(e.letter for e in result.witness.path if e.letter) != word:
        return "witness does not spell the word"
    return None


def _check_trace(word, member, viable, trace):
    if trace.stopped != "halted":
        return f"trace stopped by {trace.stopped}"
    if trace.consumed != viable:
        return f"consumed {trace.consumed}, oracle says {viable}"
    if bool(trace.accepted_at) != member:
        return f"accepted_at {trace.accepted_at}, oracle membership {member}"
    return None


def _check_lift(word, viable, lift):
    want = "ok" if viable == len(word) else "stuck"
    if lift.status != want or lift.consumed != viable:
        return f"lift {lift.status} after {lift.consumed}, oracle says {want} after {viable}"
    return None


def membership_queries(ns, machines, data):
    out = []
    for call, lang, word in data:
        m = machines[lang]
        member = oracles.LANGUAGES[lang](word)
        if call == "accepts":
            out.append(Query(
                f"accepts/{lang}", len(word),
                partial(lambda m, w: ns.machine.accepts(m, w), m, word),
                partial(_check_accepts, ns, word, member),
                lambda r: (r.verdict, r.witness and len(r.witness.path)),
                fit="accepts" if member and len(word) >= 64 else None,
            ))
            continue
        viable = oracles.PREFIXES[lang](word)
        if call == "run_trace":
            out.append(Query(
                f"run_trace/{lang}", len(word),
                partial(lambda m, w: ns.machine.run_trace(m, w), m, word),
                partial(_check_trace, word, member, viable),
                lambda t: (t.consumed, t.accepted_at, len(t.steps)),
            ))
        else:
            out.append(Query(
                f"lift_path/{lang}", len(word),
                partial(lambda m, w: ns.config_graph.lift_path(m, w), m, word),
                partial(_check_lift, word, viable),
                lambda r: (r.status, r.consumed, len(r.configs)),
            ))
    return out


# --- exploration -------------------------------------------------------------------


def setup_exploration(ns, root):
    parse = ns.machine.parse_machine
    machines = {n: parse(_read(root, f"{n}.nsa")) for n in ("anbn", "anbncndn", "dyck2", "zcount")}
    return machines, ns.group_geometry.make_oracle("abelian 1")


def _check_counts(cg, want):
    got = (len(cg.vertices), len(cg.edges))
    return None if got == want else f"graph has {got[0]} vertices, {got[1]} edges; closed form {want}"


def _graph_job(ns, m, h):
    cgm = ns.config_graph
    cg = cgm.build(m, cgm.BuildHorizon(max_tree_edges=h))
    return cg, cgm.check_degrees(cg), cgm.max_eps_run(cg), ns.graphs.fundamental_cycle(cg.undirected_adjacency()), cgm.export_dot(cg)


def _check_graph(h, answer):
    cg, degree_violation, eps_run, cycle, dot = answer
    err = _check_counts(cg, oracles.quad_graph(h))
    if err:
        return err
    if degree_violation is not None:
        return "deterministic machine reported a degree violation"
    if eps_run != 2:
        return f"longest silent run {eps_run}, closed form 2"
    adjacent = {(s, d) for s, d, _ in cg.edges} | {(d, s) for s, d, _ in cg.edges}
    if cycle is None or len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return "no simple cycle in a graph with cycles"
    if any((u, v) not in adjacent for u, v in zip(cycle, cycle[1:] + cycle[:1])):
        return "cycle steps along a non-edge"
    lines = dot.splitlines()
    nodes = sum(1 for x in lines if x.startswith("  n") and "->" not in x)
    arcs = sum(1 for x in lines if "->" in x)
    if (nodes, arcs) != (len(cg.vertices), len(cg.edges)):
        return f"DOT has {nodes} nodes and {arcs} edges"
    return None


def _project_job(ns, m, oracle, h):
    cgm = ns.config_graph
    cg = cgm.build(m, cgm.BuildHorizon(max_tree_edges=h))
    return cg, cgm.project(cg, oracle)


def _check_project(h, answer):
    cg, report = answer
    err = _check_counts(cg, oracles.zcount_graph(h))
    if err:
        return err
    if len(report.images) != len(cg.vertices) or report.violations:
        return f"{len(report.violations)} projection violations"
    return None


def _quotient_job(ns, m, h):
    cgm, pq = ns.config_graph, ns.pda_quotient
    cg = cgm.build(m, cgm.BuildHorizon(max_tree_edges=h))
    classes = pq.nonerasing_classes(cg)
    q = pq.quotient(cg, classes)
    return cg, q, pq.check_tree(q), pq.quotient_distortion(q)


def _check_quotient(h, answer):
    cg, q, cycle, distortion = answer
    err = _check_counts(cg, oracles.anbn_graph(h))
    if err:
        return err
    if cycle is not None:
        return "quotient verdict CYCLE, closed form TREE"
    if (len(q.classes), len(q.edges), distortion) != (h + 1, h, 2):
        return f"{len(q.classes)} classes, {len(q.edges)} edges, distortion {distortion}; closed form {(h + 1, h, 2)}"
    return None


def _check_enumerate(lang, n, words):
    count = oracles.dyck2_count(n) if lang == "dyck2" else oracles.quad_count(n)
    if len(words) != count:
        return f"{len(words)} words, closed form {count}"
    if not all(len(w) <= n and oracles.LANGUAGES[lang](w) for w in words):
        return "enumerated a non-member"
    return None


def exploration_queries(ns, state, data):
    machines, abelian1 = state
    out = []
    for job, lang, n in data:
        m = machines[lang]
        if job == "graph":
            out.append(Query(f"graph/{lang}", n, partial(_graph_job, ns, m, n), partial(_check_graph, n),
                             lambda a: (len(a[0].vertices), len(a[0].edges), a[2], len(a[3]), len(a[4]))))
        elif job == "project":
            out.append(Query(f"project/{lang}", n, partial(_project_job, ns, m, abelian1, n), partial(_check_project, n),
                             lambda a: (len(a[0].vertices), len(a[1].violations))))
        elif job == "quotient":
            out.append(Query(f"quotient/{lang}", n, partial(_quotient_job, ns, m, n), partial(_check_quotient, n),
                             lambda a: (len(a[1].classes), len(a[1].edges), a[2], a[3]), fit="quotient"))
        else:
            out.append(Query(f"enumerate/{lang}", n, partial(lambda m, n: ns.machine.enumerate_accepted(m, n), m, n),
                             partial(_check_enumerate, lang, n), lambda w: tuple(sorted(w))))
    return out


# --- geometry ------------------------------------------------------------------------


def setup_geometry(ns, root):
    return {key: ns.group_geometry.make_oracle(spec) for key, spec in inputs.GROUP_SPECS.items()}


def _check_ends(group, r, w, report):
    want = oracles.ends_count(group, r)
    if (report.boundary_components, report.finite_components) != (want, 0):
        return f"{report.boundary_components} unbounded, {report.finite_components} finite; closed form {want}, 0"
    if sum(report.component_sizes) != group.ball_size(w) - group.ball_size(r):
        return "components do not cover the window minus the ball"
    return None


def _check_probe(group, table):
    for cell in table.cells:
        if cell.report is None:
            return f"probe cell failed: {cell.error}"
        window = group.distance(group.identity(), group.element(cell.center)) + cell.radius + 2
        err = oracles.check_separator(group, cell.report, "", cell.center, cell.radius, window)
        if err:
            return err
    return None


def _check_ball(group, r, window):
    if len(window.dist) != group.ball_size(r) or max(window.dist.values()) != r:
        return f"ball has {len(window.dist)} vertices, closed form {group.ball_size(r)}"
    return None


def _check_qi(source, target, samples, k, density, violations):
    kinds = [v.kind for v in violations]
    got = (kinds.count("lower"), kinds.count("upper"), kinds.count("density"))
    want = oracles.qi_violations(source, target, samples, k, density)
    return None if got == want else f"violations {got}, oracle {want}"


def _separator_summary(r):
    return r.cut_size, r.cut_set, r.window_limited


def geometry_queries(ns, groups, data):
    geo = ns.group_geometry
    out = []
    for probe, key, params in data:
        oracle, group = groups[key], oracles.parse_group(inputs.GROUP_SPECS[key])
        if probe == "separator":
            c1, c2, r, w = params
            out.append(Query(
                f"separator/{key}", group.ball_size(w),
                partial(lambda o, *a: geo.min_separator(o, *a), oracle, tuple(c1), tuple(c2), r, w),
                partial(oracles.check_separator, group, center1=c1, center2=c2, radius=r, window=w),
                _separator_summary, fit="separator",
            ))
        elif probe == "ends":
            r, w = params
            out.append(Query(f"ends/{key}", w, partial(lambda o, r, w: geo.ends_probe(o, r, w), oracle, r, w),
                             partial(_check_ends, group, r, w), lambda e: (e.boundary_components, e.component_sizes)))
        elif probe == "probe":
            radii, centers = params
            out.append(Query(
                f"probe/{key}", len(centers),
                partial(lambda o, r, c: geo.narrowness_probe(o, r, c), oracle, radii, [tuple(c) for c in centers]),
                partial(_check_probe, group),
                lambda t: tuple((c.radius, c.report and _separator_summary(c.report)) for c in t.cells),
            ))
        elif probe == "ball":
            (r,) = params
            out.append(Query(f"ball/{key}", r, partial(lambda o, r: geo.ball(o, (), r), oracle, r),
                             partial(_check_ball, group, r), lambda b: len(b.dist)))
        else:
            samples, k, density = params
            target = oracles.parse_group("abelian 1")
            pairs = [(tuple(x), tuple(y)) for x, y in samples]
            out.append(Query(
                f"qi/{key}", len(samples),
                partial(lambda s, t, p, k, d: geo.qi_check(s, t, p, k, d), oracle, groups["abelian 1"], pairs, k, density),
                partial(_check_qi, group, target, samples, k, density),
                lambda v: tuple((x.kind, x.detail) for x in v),
            ))
    return out


# --- command line -----------------------------------------------------------------------

CLI_TMP = os.path.join(".perfbench", "cli")


def setup_cli(root, data):
    script, files = data
    os.makedirs(os.path.join(root, CLI_TMP), exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(root, CLI_TMP, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return script


def _expected_cli(expect, argv):
    """What one invocation must produce, from the oracles: (exit code,
    JSON fields by path, substrings the text output must contain,
    substrings it must not contain)."""
    kind = expect[0]
    if kind == "accept":
        verdict = "ACCEPTED" if expect[1] else "REJECTED"
        return int(not expect[1]), {("verdict",): verdict}, [verdict + "\n"], []
    if kind == "enumerate":
        words = oracles.quad_members(expect[1])
        text = "".join(("".join(w) or "ε") + "\n" for w in words)
        return 0, {("words",): [list(w) for w in words]}, [text], []
    if kind == "check-det":
        return 0, {("deterministic",): True}, ["deterministic\n"], []
    if kind == "check-erasing":
        return 0, {("bounded",): True, ("k",): 1}, ["bounded, k = 1\n"], []
    if kind == "trace":
        word = tuple(expect[1])
        viable, member = oracles.quad_prefix(word), oracles.quad(word)
        marks = (["*accept*"], []) if member else ([], ["*accept*"])
        return (0, {("consumed",): viable, ("stopped",): "halted", ("accepted_at", bool): member},
                [f"consumed {viable}/{len(word)} letters\n"] + marks[0], marks[1])
    if kind == "preimage":
        out = argv[argv.index("-o") + 1]
        return 0, {("states",): 4, ("out",): out}, [f"wrote {out}: 4 states, 9 edges\n"], []
    if kind == "cg-build":
        v, e = oracles.quad_graph(expect[1])
        return 0, {("vertices",): v, ("edges",): e}, [f"{v} configurations, {e} edges\n"], []
    if kind == "cg-lift":
        status = "ok" if oracles.quad_prefix(tuple(expect[1])) == len(expect[1]) else "stuck"
        return int(status != "ok"), {("status",): status}, [f"status: {status}\n"], []
    if kind == "cg-project":
        v = oracles.zcount_graph(expect[1])[0]
        return (0, {("configurations",): v, ("violations",): [], ("consistent_within_horizon",): True},
                [f"projected {v} configurations onto abelian(1)\n", "edge inconsistencies: 0\n"], [])
    if kind == "pda-quotient":
        h = expect[1]
        return (0, {("classes",): h + 1, ("edges",): h, ("distortion",): 2, ("verdict",): "TREE"},
                [f"{h + 1} classes, {h} quotient edges (within horizon)\n", "max class diameter: 2\n",
                 "verdict: TREE (horizon-relative)\n"], [])
    if kind == "ball":
        r = expect[1]
        n = oracles.parse_group("free 2").ball_size(r)
        return 0, {("vertices",): n}, [f"free(2): ball of radius {r}, {n} vertices\n"], []
    if kind == "separator":  # two balls in a tree are cut by one vertex
        return 0, {("cut_size",): 1}, ["minimum separator size: 1\n"], []
    if kind == "probe":
        return 0, {("cells", 0, "cut_size"): 1}, [": cut 1 ("], []
    if kind == "ends":
        return (0, {("boundary_components",): 2, ("finite_components",): 0},
                ["(unbounded-looking): 2\n", "(certainly finite): 0\n"], [])
    if kind == "qi":
        words, window = expect[1], expect[2]
        z = oracles.parse_group("abelian 1")
        n = sum(oracles.qi_violations(z, z, list(zip(words, words)), 2.0, window))
        return int(n > 0), {("violations", len): n}, [f"checked {len(words)} samples with k=2.0: {n} violations\n"], []
    raise ValueError(kind)


def _field(data, path):
    for step in path:
        data = step(data) if callable(step) else data[step]
    return data


def check_cli(expect, argv, code, stdout):
    """Exit code and verdict lines of one invocation against the oracles."""
    text = stdout.decode("utf-8", errors="replace")
    if expect[0] == "cg-dot":  # DOT with or without --json
        v, e = oracles.quad_graph(expect[1])
        lines = text.splitlines()
        nodes = sum(1 for x in lines if x.startswith("  n") and "->" not in x)
        arcs = sum(1 for x in lines if "->" in x)
        if code or (nodes, arcs) != (v, e):
            return f"exit {code}, DOT has {nodes} nodes and {arcs} edges; closed form {v}, {e}"
        return None
    want_code, fields, present, absent = _expected_cli(expect, argv)
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if "--json" in argv:
        try:
            data = json.loads(text)
            for path, want in fields.items():
                if _field(data, path) != want:
                    return f"JSON {path}: {_field(data, path)!r}, oracle {want!r}"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"JSON output unreadable: {exc!r}"
        return None
    for s in present:
        if s not in text:
            return f"missing {s.strip()!r}"
    for s in absent:
        if s in text:
            return f"unexpected {s.strip()!r}"
    return None


def cli_queries(root, script, in_process_ns):
    """One query per invocation.  Out of process each runs a fresh
    interpreter on `python -m nestedstack.cli` against the checkout's
    `src/`, with its own random string-hash seed, so that the repeat check
    catches output that depends on it; in process (traced run) it calls
    `nestedstack.cli.main`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONHASHSEED", None)
    out = []
    for argv, expect in script:
        if in_process_ns is None:
            run = partial(_run_subprocess, root, env, argv)
        else:
            run = partial(_run_in_process, in_process_ns, argv)
        out.append(Query(
            f"cli/{expect[0]}{'/json' if '--json' in argv else ''}", 1, run,
            lambda res, e=expect, a=argv: check_cli(e, a, *res),
            lambda res: res,
        ))
    return out


def _run_subprocess(root, env, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "nestedstack.cli", *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120,
    )
    return proc.returncode, proc.stdout


def _run_in_process(ns, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = ns.cli.main(list(argv))
    return code, buf.getvalue().encode("utf-8")
