"""The benchmark records: every BENCH_*.json at the repository root is a list
of perfbench/run.py runs, each with its revision, side, workload, seed,
window and the three JSON lines that run.py printed, verbatim."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_records_are_complete_runs_of_the_benchmark():
    """Each record parses, names a workload of BENCHMARK.json, passed its
    gates (correct is true) and reports exactly BENCHMARK.json's end-to-end
    metrics.  In a change's record every (workload, seed) was run on both
    sides; BENCH_baseline.json holds parent runs alone."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json records"
    for path in paths:
        runs = json.loads(path.read_text())
        assert isinstance(runs, list) and runs, path.name
        sides = {}
        for run in runs:
            assert run["side"] in ("parent", "change"), path.name
            assert run["workload"] in workloads, path.name
            assert isinstance(run["revision"], str) and run["revision"], path.name
            assert len(run["lines"]) == 3, path.name
            env, samples, result = (json.loads(line) for line in run["lines"])
            assert env["environment"]["workload"] == run["workload"], path.name
            assert samples["unit_cpu_s"], path.name
            assert result["correct"] is True, (path.name, run["workload"], run["seed"], run["side"])
            assert set(result["metrics"]) == metrics, path.name
            sides.setdefault((run["workload"], run["seed"]), set()).add(run["side"])
        expected = {"parent"} if path.name == "BENCH_baseline.json" else {"parent", "change"}
        assert all(s == expected for s in sides.values()), path.name
