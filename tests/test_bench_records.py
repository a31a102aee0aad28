"""The committed perf records (`BENCH_*.json` at the repository root) are
consistent with themselves: every summary figure recomputes from the
records it summarises, and every pair is one parent run and one change run
of a correct benchmark."""

import json
import statistics
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def runs():
    for path in RECORDS:
        for run in json.loads(path.read_text())["runs"]:
            yield pytest.param(run, id=f"{path.stem}-{run['workload']}-seed{run['seed']}")


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("run", runs())
def test_each_pair_is_one_parent_and_one_change_run(run):
    sides = Counter((r["pair"], r["side"]) for r in run["records"])
    pairs = {pair for pair, _ in sides}
    assert pairs == set(range(1, run["pairs"] + 1))
    assert sides == Counter({(pair, side): 1 for pair in pairs for side in ("parent", "change")})


@pytest.mark.parametrize("run", runs())
def test_every_run_is_correct(run):
    for record in run["records"]:
        assert record["correct"] is True and record["failed"] == 0, record


@pytest.mark.parametrize("run", runs())
def test_summaries_recompute_from_the_records(run):
    for metric, by_side in run["summary"].items():
        for side, summary in by_side.items():
            values = [r[metric] for r in run["records"] if r["side"] == side]
            assert summary["median"] == pytest.approx(statistics.median(values), abs=1e-6), (metric, side)
            if run["pairs"] > 1:  # a single pair has no quartiles to speak of
                q1, _, q3 = statistics.quantiles(values, n=4)
                assert (summary["q1"], summary["q3"]) == (pytest.approx(q1, abs=1e-6), pytest.approx(q3, abs=1e-6))
