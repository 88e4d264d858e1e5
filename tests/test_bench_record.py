"""Schema of the committed BENCH_*.json files that tools/bench_pairs.py writes.

Only the layout is checked, never the timings: each file must carry, for every
workload, the per-side median and quartiles of each gated metric of
BENCHMARK.json, the wins per pair, the runs themselves, the --trace 1 split
and the machine facts.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
SIDES = ("parent", "change")
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_schema(path):
    doc = json.loads(path.read_text())
    assert path.name == f"BENCH_{doc['label']}.json"
    settings = doc["settings"]
    pairs = settings["pairs"]
    assert pairs >= 1 and settings["seconds"] > 0
    assert set(doc["workloads"]) == set(settings["workloads"]) == set(doc["trace"])
    for key in ("nproc", "python", "numpy", "scipy", "blas_name", "blas_env", "cholesky400_ms"):
        assert key in doc["machine"], key
    # records made before the key was added lack it
    assert isinstance(doc["machine"].get("dont_write_bytecode", False), bool)
    assert set(doc["revisions"]) == set(SIDES)

    for name, workload in doc["workloads"].items():
        runs = workload["runs"]
        assert [r["pair"] for r in runs] == list(range(pairs)), name
        assert [r["first"] for r in runs] == [SIDES[i % 2] for i in range(pairs)], name
        for run in runs:
            for side in SIDES:
                assert set(GATED) <= set(run[side]["metrics"]), (name, side)
                assert isinstance(run[side]["correct"], bool)
        assert isinstance(workload["all_correct"], bool)
        assert set(workload["failed"]) == set(SIDES)

        assert set(workload["metrics"]) == set(GATED), name
        for metric, summary in workload["metrics"].items():
            spec = GATED[metric]
            assert (summary["unit"], summary["better"], summary["bound"]) == (
                spec["unit"], spec["better"], spec["bound"])
            for side in SIDES:
                q = summary[side]
                assert q["q1"] <= q["median"] <= q["q3"], (name, metric, side)
                assert summary["values"][side] == [r[side]["metrics"][metric] for r in runs]
            assert summary["pairs"] == pairs
            assert 0 <= summary["change_wins"] + summary["ties"] <= pairs
            assert isinstance(summary["gain_shown"], bool)
            assert isinstance(summary["worse_beyond_bound"], bool)

        for side in SIDES:
            assert set(PER_LAYER) <= set(doc["trace"][name][side]["metrics"]), (name, side)
