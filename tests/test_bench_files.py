"""Every committed BENCH_*.json is a well-formed paired record.

A BENCH file holds the runs behind a performance claim: records of
`bench/run.py` (the last line of its standard output), in pairs of a
parent run and a change run. Its top-level "workload" names the claimed
workload; a run may name another one in its own "workload" key (a side
check of a workload the change should leave alone).
"""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file(path):
    doc = json.loads(path.read_text())
    assert doc["workload"] in WORKLOADS
    assert doc["runs"]
    sides = Counter()
    for run in doc["runs"]:
        workload = run.get("workload", doc["workload"])
        assert workload in WORKLOADS, run
        assert run["side"] in ("parent", "change"), run
        sides[workload, run["side"]] += 1
        record = run["record"]
        assert record["correct"] is True, run
        for name in END_TO_END:
            value = record["metrics"][name]["value"]
            assert isinstance(value, (int, float)) and value >= 0, (run, name)
    for workload in {w for w, _ in sides}:
        assert sides[workload, "parent"] == sides[workload, "change"], workload
