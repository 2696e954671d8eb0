"""The benchmark's own checks.  Run from the repository root:

    python3 perfbench/selftest.py

1. Gate self-test: each workload's verifier passes a real unit, and flags a
   deliberately perturbed one (a final state off by 1e-5 relative, or one
   non-finite lemma ratio) with failed operations, so it reaches error_rate.
2. Exact-count self-check: two traced runs of one seed report identical
   counts (*.calls, *.calls_per_step, bytes, cache counts).
3. The metrics run.py emits are exactly those BENCHMARK.json lists.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bytes", "calls/op")


def perturbations():
    """(workload, how the result is corrupted) pairs."""

    def final_state(res):        # pe_oracle_32: the direct trajectory's end state
        res.v_dir = res.v_dir * (1.0 + 1e-5)

    def member_state(res):       # omega_ensemble_24: one member's V+ component
        res.members[0].vplus = res.members[0].vplus * (1.0 + 1e-5)

    def lemma_ratio(res):        # lemma_ensemble: one ratio
        key = next(iter(res.ensemble))
        res.ensemble[key][0] = math.nan

    return [("pe_oracle_32", final_state), ("omega_ensemble_24", member_state),
            ("lemma_ensemble", lemma_ratio)]


def gate_selftest() -> list[str]:
    problems = []
    for name, corrupt in perturbations():
        wl = workloads.WORKLOADS[name]
        out = run.OUT / f"selftest-{name}"
        out.mkdir(parents=True, exist_ok=True)
        try:
            res = wl.run(wl.inputs(0, 1), out)
            attempted, failed, reasons = wl.verify(res)
            if failed or reasons:
                problems.append(f"{name}: clean unit failed its gate: {reasons}")
            corrupt(res)
            attempted, failed, reasons = wl.verify(res)
            rate = failed / attempted
            print(f"gate {name}: perturbed result -> failed {failed}/{attempted} "
                  f"(error_rate {rate:.3f}): {reasons}")
            if not (failed > 0 and reasons):
                problems.append(f"{name}: perturbed result passed the gate")
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return problems


def traced_counts(name: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}


def count_selftest() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        a, b = traced_counts(name, 7), traced_counts(name, 7)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        print(f"counts {name}: {len(a)} count metrics, {len(diff)} differ")
        if diff:
            problems.append(f"{name}: counts differ between traced runs: {diff}")
    return problems


def names_selftest() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, emitted in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != emitted:
            problems.append(f"{key}: BENCHMARK.json {sorted(set(listed) ^ set(emitted))} or units differ")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    return problems


def main() -> int:
    problems = names_selftest() + gate_selftest() + count_selftest()
    try:
        run.OUT.rmdir()
    except OSError:
        pass
    for p in problems:
        print(f"SELFTEST FAIL: {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
