"""Benchmark for the nestedstack package: four seeded workloads.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 1

Run from the root of a checkout; the package is imported from its `src/`.
`BENCHMARK.json` gates the `membership` and `cli` workloads; `exploration`
and `geometry` run the same way when named (or with `--workload all`).
Every workload is a closed loop with one client (one process, one thread,
the next query starts when the previous one returned) over queries
generated from `--seed`.  Every answer is checked against an oracle in
`oracles.py` that does not use the package.

`--trace 0` prints the end-to-end metrics.  The timed loop repeats whole
passes over the queries until `--seconds` have passed and at least 100
queries ran, and reports throughput, p50 and p90 latency, the failed share
and peak RSS.  `setup_s` is the median over nine fresh interpreters, run
between the passes, of the time from just before `import nestedstack`
until the workload's machines, preimages and group oracles exist (for
`cli`: the wall time of a fresh interpreter that only imports
`nestedstack.cli`).

`--trace 1` runs one untraced and one traced pass over the same queries
and prints the per-layer metrics: self time and work counts per module,
scaling per doubling over each workload's size ladder, a ladder of single
memory-tree operations, and the tracing overhead.  Spans and the run record
go to `.perfbench/` in the checkout.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import inputs
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("membership", "exploration", "geometry", "cli")
MIN_QUERIES = 100
SETUP_PROBES = 9
NOTE = "shared {}-core box, no CPU pinning, medians reported"
END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
# ROADMAP item 1 baseline (Python 3.11.7, one run each), printed beside
# the traced run's own scaling figures.
BASELINE = {
    "machine.accepts.per_doubling": "accepts(anbn) 0.094 -> 0.347 s for n 1000 -> 2000: x3.7, quadratic",
    "pda_quotient.per_doubling": "anbn quotient x6-10 per doubling of the horizon, ~cubic",
    "group_geometry.min_separator.per_doubling": "separator time 80% in residual_search + neighbors",
    "memory_tree.hash_us.e2000": "18 us at 2000 edges (0.2 us at 1)",
    "memory_tree.push_us.e2000": "19 us at 2000 edges",
    "memory_tree.up_us.e2000": "91 us at 2000 edges",
}

SETUP = {
    "membership": workloads.setup_membership,
    "exploration": workloads.setup_exploration,
    "geometry": workloads.setup_geometry,
}
QUERIES = {
    "membership": workloads.membership_queries,
    "exploration": workloads.exploration_queries,
    "geometry": workloads.geometry_queries,
}


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return inputs.cli_script(rng, workloads.CLI_TMP)
    return getattr(inputs, workload)(rng)


def package_env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def pin_hash_seed():
    """Re-execute under PYTHONHASHSEED=0, so that set and dict orders, and
    with them every traced count, repeat exactly from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))


# --- set-up time ----------------------------------------------------------------


def setup_probe(workload):
    """Runs in a fresh interpreter: time import plus set-up, print seconds."""
    t0 = time.perf_counter()
    ns = workloads.import_package()
    SETUP[workload](ns, ROOT)
    print(repr(time.perf_counter() - t0))


def setup_time(workload):
    """Set-up seconds of one fresh interpreter (see the module docstring)."""
    if workload == "cli":
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nestedstack.cli"], cwd=ROOT, env=package_env(),
                       check=True, timeout=60)
        return time.perf_counter() - t0
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", "0"],
        cwd=ROOT, env=package_env(), check=True, timeout=120, stdout=subprocess.PIPE, text=True,
    )
    return float(out.stdout.split()[-1])


# --- running queries ------------------------------------------------------------------


class Outcome:
    """Attempts, failures (first few kept with reasons) and latencies."""

    def __init__(self, queries):
        self.queries = queries
        self.first = [None] * len(queries)
        self.latencies = []
        self.failed = 0
        self.reasons = []

    def fail(self, q, reason):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{q.kind} (size {q.size}): {reason}")

    def run(self, i, call=None):
        """Run query i (through `call` when given), check it, record time.
        The full oracle check runs on the first answer; repeats must
        reproduce its summary."""
        q = self.queries[i]
        t0 = time.perf_counter()
        try:
            answer = call(i, q) if call else q.run()
        except Exception as exc:  # a raising query is a failed query; keep going
            self.latencies.append(time.perf_counter() - t0)
            self.fail(q, f"raised {exc!r}")
            return
        self.latencies.append(time.perf_counter() - t0)
        if self.first[i] is None:
            err = q.check(answer)
            self.first[i] = (q.summary(answer), err)
        elif q.summary(answer) != self.first[i][0]:
            err = "answer differs from the first run of the same query"
        else:
            err = self.first[i][1]  # the same answer again: as right or wrong as before
        if err:
            self.fail(q, err)

    def one_pass(self, call=None):
        """Run every query once; returns the summed query time."""
        start = len(self.latencies)
        for i in range(len(self.queries)):
            self.run(i, call)
        return sum(self.latencies[start:])


def timed_loop(outcome, seconds, between):
    """Whole passes over the queries, so every run has the same query mix:
    as many as fit in `seconds` judging by the first, and enough for at
    least MIN_QUERIES queries.  `between(done, total)` runs after each
    pass, outside the query timings."""
    first = outcome.one_pass()
    passes = max(round(seconds / first), -(-MIN_QUERIES // len(outcome.queries)), 1)
    between(1, passes)
    for done in range(2, passes + 1):
        outcome.one_pass()
        between(done, passes)
    return passes


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- memory-tree ladder ------------------------------------------------------------------


def tree_ladder(ns, repeats=5, loops=400):
    """Median microseconds of one push, up and hash on single-branch trees
    of 1, 250 and 2000 edges, calling `apply` and `hash` directly."""
    mt = ns.memory_tree
    x = mt.push("x")
    out = {}
    for n in (1, 250, 2000):
        leaf = mt.empty_tree()
        for _ in range(n):
            leaf = mt.apply(x, leaf)
        below = mt.apply(mt.down("x"), leaf)  # pointer one edge above the leaf
        up = mt.up(below.current_symbol)
        for op, fn in (("push", lambda: mt.apply(x, leaf)), ("up", lambda: mt.apply(up, below)),
                       ("hash", lambda: hash(leaf))):
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(loops):
                    fn()
                samples.append((time.perf_counter() - t0) / loops * 1e6)
            out[f"memory_tree.{op}_us.e{n}"] = statistics.median(samples)
    return out


# --- run record ---------------------------------------------------------------------------


def commit_id():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest():
    """sha256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nestedstack")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def run_record(args):
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "load_model": "closed loop, one client, one process, no threads",
        "note": NOTE.format(nproc),
    }


def write_out(args, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


# --- the two kinds of run ----------------------------------------------------------------


def build(workload, data, in_process_cli=False):
    """Import the package and set the workload up; returns (package
    namespace, set-up state, queries).  `cli` queries run `nsa` in fresh
    interpreters unless `in_process_cli` asks for `nestedstack.cli.main`."""
    ns = workloads.import_package(with_cli=in_process_cli)
    if workload == "cli":
        script = workloads.setup_cli(ROOT, data)
        return ns, script, workloads.cli_queries(ROOT, script, ns if in_process_cli else None)
    state = SETUP[workload](ns, ROOT)
    return ns, state, QUERIES[workload](ns, state, data)


def group_oracles(workload, state):
    """The group oracles a workload's set-up built."""
    if workload == "geometry":
        return list(state.values())
    if workload == "exploration":
        return [state[1]]
    return []


def end_to_end(args):
    data = generate(args.workload, args.seed)
    _, _, queries = build(args.workload, data)
    outcome = Outcome(queries)
    setups = []

    def probe(done, total):
        # spread the set-up probes over the run, so that they meet the same
        # load on the shared host as the queries do
        while len(setups) < SETUP_PROBES * done / total:
            setups.append(setup_time(args.workload))

    passes = timed_loop(outcome, args.seconds, probe)
    lat = outcome.latencies
    n = len(lat)
    tail = p90(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": n / sum(lat),
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p90_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(children=args.workload == "cli"),
    }
    bases = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "queries_per_s": f"n={n} queries, {passes} passes of {len(queries)}",
        "query_p50_ms": f"n={n}",
        "query_p90_ms": f"n={n}, {sum(x > tail for x in lat)} beyond",
        "peak_rss_mb": "ru_maxrss of the " + ("largest nsa process" if args.workload == "cli" else "workload process"),
    }
    print(f"{args.workload}: seed {args.seed}, closed loop, one client")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {metrics[name]:12.4f} {unit:<4} ({bases[name]})")
    print(f"  {'failed_share':<16} {outcome.failed / n:12.4f} {'':<4} ({outcome.failed}/{n} queries failed)")
    for reason in outcome.reasons:
        print(f"  failure: {reason}", file=sys.stderr)
    record = run_record(args)
    write_out(args, {"record": record, "metrics": metrics, "failed": outcome.failed, "attempted": n,
                     "setup_samples": setups, "failures": outcome.reasons})
    print("# run record: " + json.dumps(record, sort_keys=True))
    return outcome.failed == 0, n, outcome.failed, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def traced(args):
    data = generate(args.workload, args.seed)
    tr = tracing.Tracer()
    is_cli = args.workload == "cli"
    ns = workloads.import_package(with_cli=is_cli)
    tr.instrument()
    tr.query = "setup"
    root = tr.open("setup")
    try:
        _, state, queries = build(args.workload, data, in_process_cli=is_cli)
    finally:
        tr.close(root)
        tr.query = None
        tr.restore()

    outcome = Outcome(queries)
    untraced_s = outcome.one_pass()
    tr.instrument()
    tr.count_mult(group_oracles(args.workload, state))
    try:
        traced_s = outcome.one_pass(call=lambda i, q: tr.run_query(i, q.kind, q.run))
    finally:
        tr.restore()

    metrics = tracing.layer_metrics(tr, queries)
    metrics.update(tree_ladder(ns))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["cli.import_s"] = statistics.median(setup_time("cli") for _ in range(5)) if is_cli else 0.0
    metrics["cli.output_bytes"] = sum(len(summary[1]) for summary, _ in outcome.first) if is_cli else 0

    print(f"{args.workload}: seed {args.seed}, traced pass over {len(queries)} queries "
          f"(untraced {untraced_s:.3f} s, traced {traced_s:.3f} s)")
    for name, unit in tracing.PER_LAYER:
        note = f"   baseline: {BASELINE[name]}" if name in BASELINE else ""
        print(f"  {name:<44} {metrics[name]:14.6g} {unit}{note}")
    for reason in outcome.reasons:
        print(f"  failure: {reason}", file=sys.stderr)
    record = run_record(args)
    path = write_out(args, {"record": record, "metrics": metrics, "baseline": BASELINE, "spans": tr.records()})
    print(f"# spans: {len(tr.spans)} written to {os.path.relpath(path, ROOT)}")
    print("# run record: " + json.dumps(record, sort_keys=True))
    attempted = 2 * len(queries)
    return outcome.failed == 0, attempted, outcome.failed, {
        name: {"value": metrics[name], "unit": unit} for name, unit in tracing.PER_LAYER
    }


def run_all(args):
    """Each workload in its own fresh process; prints their lines and one
    combined result with metric names prefixed by the workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{w}: exited {proc.returncode}", file=sys.stderr)
            return False, max(attempted, 1), failed + 1, metrics
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w}/{k}": v for k, v in result["metrics"].items()})
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nestedstack", "__init__.py")) or not os.path.isdir(
        os.path.join(ROOT, "fixtures")
    ):
        print(f"error: no package sources under {src} or no fixtures/; run from a full checkout", file=sys.stderr)
        return 2
    pin_hash_seed()
    sys.path.insert(0, src)
    os.chdir(ROOT)

    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        correct, attempted, failed, metrics = run_all(args)
    elif args.trace:
        correct, attempted, failed, metrics = traced(args)
    else:
        correct, attempted, failed, metrics = end_to_end(args)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
