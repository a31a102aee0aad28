"""Spans around the package's public functions, recorded from outside.

`Tracer.instrument` replaces each traced function in every loaded
`nestedstack` module namespace that holds it, so calls resolve to the
wrapper whether a caller names `machine.accepts` or the `accepts` that
`cli` imported.  Nothing in the package's source changes; `restore` puts
the originals back.

`memory_tree.apply` and the memory tree's `__hash__`/`__eq__` (every
dict or set probe on a configuration) run millions of times, so they get
counters and a summed time instead of spans: each call's time is charged
to the innermost open span as child time, and per-query counts go into
the query's root span.  Spans (name, start, end, parent, query id, self time,
counts) stay in memory and are written once the run ends.
"""

import sys
import time
from math import log2

# Public functions (and one method, as Class.method) traced as spans, by
# layer (module name).
SPANS = {
    "machine": ("parse_machine", "format_machine", "accepts", "run_trace", "enumerate_accepted",
                "check_deterministic", "check_limited_erasing"),
    "hom": ("parse_homomorphism", "preimage"),
    "config_graph": ("build", "project", "check_degrees", "max_eps_run", "export_dot", "lift_path",
                     "ConfigGraph.undirected_adjacency"),
    "pda_quotient": ("nonerasing_classes", "quotient", "check_tree", "quotient_distortion", "quotient_dot"),
    "graphs": ("bfs_distances", "fundamental_cycle", "weighted_path_bound"),
    "group_geometry": ("make_oracle", "ball", "min_separator", "narrowness_probe", "ends_probe", "qi_check"),
    "cli": ("main",),
}
LAYERS = ("memory_tree",) + tuple(SPANS)
DEEP_EDGES = 256  # a tree with at least this many edges counts as deep


class Span:
    __slots__ = ("sid", "name", "query", "parent", "start", "end", "child", "apply0", "attrs")

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.end - self.start - self.child


def _annotate(name, result, attrs):
    """Work counts read off a traced call's result."""
    if name == "config_graph.build":
        attrs["vertices"] = len(result.vertices)
    elif name == "group_geometry.ball":
        attrs["vertices"] = len(result.dist)
    elif name == "hom.preimage":
        attrs["states"] = len(result.states)
        attrs["edges"] = len(result.edges)
    elif name == "config_graph.export_dot":
        attrs["bytes"] = len(result.encode("utf-8"))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = None
        # memory_tree.apply: calls, defined results, calls on deep trees,
        # summed seconds, largest tree seen (edges)
        self.apply = [0, 0, 0, 0.0, 0]
        self.hash_eq = [0, 0.0]  # calls, summed seconds
        self.mult_calls = [0]
        self._patches = []

    # --- spans ---

    def open(self, name):
        span = Span()
        span.sid = len(self.spans)
        span.name = name
        span.query = self.query
        span.parent = self.stack[-1].sid if self.stack else None
        span.child = 0.0
        span.attrs = {}
        span.apply0 = self.apply[0]
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.end - span.start
        span.attrs["apply"] = self.apply[0] - span.apply0

    def run_query(self, qid, kind, fn):
        """Run one query under a root span; returns its result."""
        self.query = qid
        before = list(self.apply)
        hash_before = self.hash_eq[1]
        root = self.open("query")
        root.attrs["kind"] = kind
        try:
            return fn()
        finally:
            self.close(root)
            root.attrs["apply_defined"] = self.apply[1] - before[1]
            root.attrs["apply_deep"] = self.apply[2] - before[2]
            root.attrs["apply_s"] = self.apply[3] - before[3]
            root.attrs["hash_eq_s"] = self.hash_eq[1] - hash_before
            self.query = None

    # --- instrumentation ---

    def instrument(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "nestedstack" or n.startswith("nestedstack.")]
        for layer, names in SPANS.items():
            mod = sys.modules.get(f"nestedstack.{layer}")
            if mod is None:
                continue
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[attr]
                    setattr(cls, attr, self._span_wrapper(f"{layer}.{name}", fn))
                    self._patches.append((cls, attr, fn))
                else:
                    fn = getattr(mod, name)
                    self._replace(modules, fn, self._span_wrapper(f"{layer}.{name}", fn))
        memory_tree = sys.modules["nestedstack.memory_tree"]
        self._replace(modules, memory_tree.apply, self._apply_wrapper(memory_tree.apply))
        tree = memory_tree.MemoryTree
        for attr in ("__hash__", "__eq__"):
            original = tree.__dict__[attr]
            setattr(tree, attr, self._timed(original))
            self._patches.append((tree, attr, original))

    def count_mult(self, oracles):
        """Count `mult` calls on the given group oracles (instance attribute
        shadows the method; `restore` removes it)."""
        counter = self.mult_calls
        for oracle in oracles:
            def mult(element, letter, _orig=oracle.mult):
                counter[0] += 1
                return _orig(element, letter)
            oracle.mult = mult
            self._patches.append((oracle, "mult", None))

    def restore(self):
        for owner, attr, old in reversed(self._patches):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches = []

    def _replace(self, modules, old, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)
                    self._patches.append((mod, attr, old))

    def _span_wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            _annotate(name, result, span.attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _timed(self, fn):
        clock = time.perf_counter
        stats = self.hash_eq
        stack = self.stack

        def timed(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            stats[0] += 1
            stats[1] += dt
            if stack:
                stack[-1].child += dt
            return out

        return timed

    def _apply_wrapper(self, fn):
        clock = time.perf_counter
        stats = self.apply
        stack = self.stack

        def apply(op, tree):
            t0 = clock()
            out = fn(op, tree)
            dt = clock() - t0
            edges = len(tree.parents) - 1
            stats[0] += 1
            if edges >= DEEP_EDGES:
                stats[2] += 1
            if out:  # UNDEFINED is falsy, trees are not
                stats[1] += 1
                edges = max(edges, len(out.parents) - 1)
            if edges > stats[4]:
                stats[4] = edges
            stats[3] += dt
            if stack:
                stack[-1].child += dt
            return out

        return apply

    # --- output ---

    def records(self):
        return [
            {
                "id": s.sid, "name": s.name, "query": s.query, "parent": s.parent,
                "start": s.start, "end": s.end, "self": s.self_time, **s.attrs,
            }
            for s in self.spans
        ]


# --- per-layer metrics ----------------------------------------------------------

# (name, unit); every traced run reports all of them, zero where a layer
# does no work on the workload.
PER_LAYER = [
    ("memory_tree.apply.calls", "count"),
    ("memory_tree.apply.self_s", "s"),
    ("memory_tree.apply.us_per_call", "us"),
    ("memory_tree.apply.defined_ratio", "ratio"),
    ("memory_tree.apply.deep_share", "ratio"),
    ("memory_tree.max_tree_edges", "count"),
    ("memory_tree.hash_eq.calls", "count"),
    ("memory_tree.hash_eq.self_s", "s"),
    *[(f"memory_tree.{op}_us.e{n}", "us") for op in ("push", "up", "hash") for n in (1, 250, 2000)],
    ("machine.accepts.calls", "count"),
    ("machine.accepts.self_s", "s"),
    ("machine.accepts.edges_tried", "count"),
    ("machine.accepts.per_doubling", "x"),
    ("machine.run_trace.self_s", "s"),
    ("machine.enumerate_accepted.self_s", "s"),
    ("machine.parse_machine.self_s", "s"),
    ("hom.preimage.self_s", "s"),
    ("hom.preimage.states", "count"),
    ("hom.preimage.edges", "count"),
    ("config_graph.build.calls", "count"),
    ("config_graph.build.self_s", "s"),
    ("config_graph.build.vertices", "count"),
    ("config_graph.build.us_per_vertex", "us"),
    ("config_graph.project.self_s", "s"),
    ("config_graph.check_degrees.self_s", "s"),
    ("config_graph.export_dot.self_s", "s"),
    ("config_graph.export_dot.bytes", "bytes"),
    ("config_graph.lift_path.self_s", "s"),
    ("pda_quotient.nonerasing_classes.self_s", "s"),
    ("pda_quotient.quotient.self_s", "s"),
    ("pda_quotient.check_tree.self_s", "s"),
    ("pda_quotient.per_doubling", "x"),
    ("graphs.bfs_distances.calls", "count"),
    ("graphs.bfs_distances.self_s", "s"),
    ("graphs.fundamental_cycle.self_s", "s"),
    ("graphs.weighted_path_bound.self_s", "s"),
    ("group_geometry.ball.calls", "count"),
    ("group_geometry.ball.self_s", "s"),
    ("group_geometry.ball.vertices", "count"),
    ("group_geometry.oracle_mult.calls", "count"),
    ("group_geometry.min_separator.self_s", "s"),
    ("group_geometry.min_separator.per_doubling", "x"),
    ("group_geometry.ends_probe.self_s", "s"),
    ("group_geometry.qi_check.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    *[(f"{layer}.share", "ratio") for layer in LAYERS],
    ("trace.query_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def per_doubling(points):
    """2^slope of a log-log least-squares fit of time against size: the
    factor by which time grows when the size doubles.  Points are (group,
    size, seconds); each group (language, group family) gets its own
    intercept, so constant factors between groups do not bend the slope.
    0 when fewer than three distinct sizes were measured."""
    groups = {}
    for g, x, y in points:
        if x > 0 and y > 0:
            groups.setdefault(g, []).append((log2(x), log2(y)))
    num = den = 0.0
    sizes = set()
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        num += sum((x - mx) * (y - my) for x, y in pts)
        den += sum((x - mx) ** 2 for x, _ in pts)
        sizes.update(x for x, _ in pts)
    return 2.0 ** (num / den) if len(sizes) >= 3 and den else 0.0


def layer_metrics(tracer, queries):
    """Per-layer figures from the spans of one traced pass (plus its set-up
    spans).  Shares divide a layer's self time inside queries by
    `trace.query_s`, the summed duration of the traced queries."""
    spans = tracer.spans
    by_name, by_query = {}, {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if isinstance(s.query, int):
            by_query.setdefault(s.query, []).append(s)
    roots = by_name.get("query", [])
    query_s = sum(s.duration for s in roots)

    def total(name, key):
        return sum(key(s) for s in by_name.get(name, ()))

    def self_s(name):
        return total(name, lambda s: s.self_time)

    def attr(name, key):
        return total(name, lambda s: s.attrs.get(key, 0))

    calls, defined, deep, apply_s, max_edges = tracer.apply
    m = {
        "memory_tree.apply.calls": calls,
        "memory_tree.apply.self_s": apply_s,
        "memory_tree.apply.us_per_call": apply_s / calls * 1e6 if calls else 0.0,
        "memory_tree.apply.defined_ratio": defined / calls if calls else 0.0,
        "memory_tree.apply.deep_share": deep / calls if calls else 0.0,
        "memory_tree.max_tree_edges": max_edges,
        "memory_tree.hash_eq.calls": tracer.hash_eq[0],
        "memory_tree.hash_eq.self_s": tracer.hash_eq[1],
        "machine.accepts.calls": len(by_name.get("machine.accepts", ())),
        "machine.accepts.edges_tried": attr("machine.accepts", "apply"),
        "hom.preimage.states": attr("hom.preimage", "states"),
        "hom.preimage.edges": attr("hom.preimage", "edges"),
        "config_graph.build.calls": len(by_name.get("config_graph.build", ())),
        "config_graph.build.vertices": attr("config_graph.build", "vertices"),
        "config_graph.export_dot.bytes": attr("config_graph.export_dot", "bytes"),
        "graphs.bfs_distances.calls": len(by_name.get("graphs.bfs_distances", ())),
        "group_geometry.ball.calls": len(by_name.get("group_geometry.ball", ())),
        "group_geometry.ball.vertices": attr("group_geometry.ball", "vertices"),
        "group_geometry.oracle_mult.calls": tracer.mult_calls[0],
        "trace.query_s": query_s,
    }
    for name, _ in PER_LAYER:
        if name.endswith(".self_s") and name not in m:
            m[name] = self_s(name[: -len(".self_s")])
    vertices = m["config_graph.build.vertices"]
    m["config_graph.build.us_per_vertex"] = (
        total("config_graph.build", lambda s: s.duration) / vertices * 1e6 if vertices else 0.0
    )

    # scaling over each workload's own size ladder
    ladders = {"accepts": [], "quotient": [], "separator": []}
    for qid, q in enumerate(queries):
        if q.fit is None or qid not in by_query:
            continue
        root = next(s for s in by_query[qid] if s.name == "query")
        top = [s for s in by_query[qid] if s.parent == root.sid]
        prefix = {"accepts": "machine.accepts", "quotient": "pda_quotient.",
                  "separator": "group_geometry.min_separator"}[q.fit]
        ladders[q.fit].append((q.kind, q.size, sum(s.duration for s in top if s.name.startswith(prefix))))
    m["machine.accepts.per_doubling"] = per_doubling(ladders["accepts"])
    m["pda_quotient.per_doubling"] = per_doubling(ladders["quotient"])
    m["group_geometry.min_separator.per_doubling"] = per_doubling(ladders["separator"])

    for layer in LAYERS:
        if layer == "memory_tree":
            busy = sum(s.attrs.get("apply_s", 0.0) + s.attrs.get("hash_eq_s", 0.0) for s in roots)
        else:
            busy = sum(s.self_time for s in spans if isinstance(s.query, int) and s.name.startswith(layer + "."))
        m[f"{layer}.share"] = busy / query_s if query_s else 0.0
    return m
