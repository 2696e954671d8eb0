"""The benchmark's own gate self-test, run with the suite.

perfbench/selftest.py checks that each workload's verifier passes a real unit
and flags a deliberately perturbed one, and that the metrics run.py emits are
those BENCHMARK.json lists.  A change to the package that silences a gate
(say, one that makes a perturbed state pass the oracle) then fails here.
The traced-count check is left to `python3 perfbench/selftest.py`: it starts
traced subprocesses of the benchmark.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_gates_pass_real_units_and_flag_perturbed_ones(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    monkeypatch.setattr(selftest.run, "OUT", tmp_path)
    assert selftest.names_selftest() == []
    assert selftest.gate_selftest() == []
