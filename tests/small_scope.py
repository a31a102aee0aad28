"""Every machine of a small scope, built at a few horizons and compared
with the model in `reference_search`.

The scope: states 1 and 2 (1 initial), input {a}, memory {x}, any set of
final states, and at most two of the 48 edges that these allow (six
operations, two letters with eps, two sources, two targets): 4 708
machines.  At each horizon, `config_graph.build` must give the model's
vertices, edges, discovery steps, co-accessible set and truncation, and
vertices with equal trees must share their latest and distinguished node
objects.

`tests/test_successors.py` runs the scope in tier-1; run it by hand with

    PYTHONPATH=src python tests/small_scope.py

which prints the number of machines and of mismatches, and exits 1 on any.
"""

import sys
from itertools import combinations, product

import reference_search
from nestedstack.config_graph import BuildHorizon, build
from nestedstack.machine import Edge, Machine
from nestedstack.memory_tree import EPSILON, STAY, down, pop, push, up

STATES = ("1", "2")
EDGES = [Edge(src, dst, op, letter) for src, dst, op, letter
         in product(STATES, STATES, (push("x"), pop("x"), down("x"), up("x"), up(), STAY), ("a", EPSILON))]
FINALS = [frozenset(finals) for finals in ((), ("1",), ("2",), STATES)]
# the tree caps 0 to 3 and two depth caps, all under a vertex cap of 6: each cap fires somewhere
HORIZONS = [BuildHorizon(cap, 6) for cap in range(4)] + [BuildHorizon(3, 6, depth) for depth in (0, 2)]


def machines():
    for k in range(3):
        for edges in combinations(EDGES, k):
            for finals in FINALS:
                yield Machine(STATES, "1", finals, frozenset({"a"}), frozenset({"x"}), edges)


def shares_nodes(configs):
    """Whether every two configurations with equal trees hold the same
    latest and distinguished node objects."""
    first = {}
    for config in configs:
        tree = first.setdefault(config.tree, config.tree)
        if tree._latest is not config.tree._latest or tree._node is not config.tree._node:
            return False
    return True


def mismatches(machine):
    """The horizons at which `build` on `machine` differs from the model or
    builds an equal tree twice."""
    found = []
    for horizon in HORIZONS:
        cg = build(machine, horizon)
        vertices = [(c.state, *reference_search.plain(c.tree)) for c in cg.vertices]
        got = (vertices, cg.edges, cg.parent, cg.coaccessible, cg.truncated)
        if got != reference_search.build(machine, horizon) or not shares_nodes(cg.vertices):
            found.append(horizon)
    return found


def main():
    count = bad = 0
    for machine in machines():
        count += 1
        if mismatches(machine):
            bad += 1
            print("mismatch:", machine.edges, sorted(machine.finals))
    print(f"{count} machines, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
