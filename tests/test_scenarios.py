"""Fast scenario-harness behaviors (full runs live in test_acceptance)."""

import json

import numpy as np
import pytest

from rotape.config import RunConfig
from rotape.grid import GridSpec
from rotape.io import read_diagnostics_csv, read_snapshot
from rotape.scenarios import SCENARIOS, formulation_equivalence, run_scenario


def tiny_config(**kw):
    cfg = RunConfig()
    cfg.grid = GridSpec(nh=16, nz=8)
    cfg.nu, cfg.omega, cfg.dt, cfg.t_end = 0.2, 3.0, 2e-3, 0.04
    cfg.init.seed = 9
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_scenario_registry_names():
    assert set(SCENARIOS) == {
        "verify_projections", "formulation_equivalence", "local_clock_vs_omega",
        "vertical_gain", "limit_convergence", "lifespan_vs_omega", "small_data_2d",
        "lemma_ratios", "continuous_dependence",
    }


def test_unknown_scenario_rejected(tmp_path):
    cfg = tiny_config()
    cfg.scenario.name = "bogus"
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario(cfg, tmp_path)


def test_run_writes_artifacts(tmp_path):
    cfg = tiny_config()
    summary = formulation_equivalence(cfg, tmp_path)
    assert (tmp_path / "config.json").exists()
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "diagnostics.csv").exists()
    rows = read_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert len(rows) == int(round(cfg.t_end / cfg.dt)) + 1
    assert rows[-1].termination == "completed"
    echoed = json.loads((tmp_path / "config.json").read_text())
    assert echoed["schema"] == "rotape-config/1"
    assert summary["pass"] is True


def test_snapshots_written_and_reloadable(tmp_path):
    cfg = tiny_config()
    cfg.output.snapshot_every = 10
    formulation_equivalence(cfg, tmp_path)
    snaps = sorted(tmp_path.glob("snapshot_*.pesp1"))
    assert len(snaps) == 3  # steps 0, 10, 20 of 20
    coeffs, grid, t = read_snapshot(snaps[-1])
    assert grid.nh == 16
    assert t == pytest.approx(0.04)
    assert np.isfinite(coeffs).all()


def test_t_end_zero_gives_initial_diagnostics_only(tmp_path):
    cfg = tiny_config(t_end=0.0)
    formulation_equivalence(cfg, tmp_path)
    rows = read_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert len(rows) == 1
    assert rows[0].t == 0.0


def test_file_init_round_trip(tmp_path):
    from rotape.io import write_snapshot
    from rotape.initial_data import random_state
    from rotape.scenarios import _initial_state

    grid = GridSpec(nh=16, nz=8)
    rng = np.random.default_rng(2)
    vbar, vt = random_state(grid, rng)
    v = vt.coeffs.copy()
    v[..., 0] += vbar
    write_snapshot(tmp_path / "ic.pesp1", v, grid, 0.0)
    cfg = tiny_config()
    cfg.init.kind = "file"
    cfg.init.path = str(tmp_path / "ic.pesp1")
    vbar2, vt2 = _initial_state(cfg)
    assert np.allclose(vbar2, vbar)
    assert np.allclose(vt2.coeffs, vt.coeffs)


def test_sweep_verb(tmp_path):
    from rotape.cli import main

    doc = {
        "schema": "rotape-config/1",
        "grid": {"nh": 16, "nz": 8},
        "physics": {"nu": 0.2, "omega": 0.0},
        "time": {"dt": 2e-3, "t_end": 0.02},
        "init": {"seed": 3},
        "scenario": {"name": "formulation_equivalence", "sweep": [2.0, 4.0]},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    code = main(["sweep", "--config", str(p), "--out", str(tmp_path / "sw")])
    assert code == 0
    combined = json.loads((tmp_path / "sw" / "sweep_summary.json").read_text())
    assert combined["pass"] is True
    assert len(combined["members"]) == 2
    assert (tmp_path / "sw" / "member_00" / "summary.json").exists()


@pytest.fixture(scope="module")
def short_summaries(tmp_path_factory):
    """summary.json of the three scenarios that record why a run stopped, on shortened runs."""
    from rotape.config import InitSpec, ScenarioSpec
    from rotape.scenarios import lifespan_vs_omega, vertical_gain

    tmp_path = tmp_path_factory.mktemp("short")
    short = {"grid": GridSpec(nh=16, nz=8), "t_end": 0.004}
    runs = {
        formulation_equivalence: tiny_config(),
        vertical_gain: tiny_config(nu=0.5, **short),
        lifespan_vs_omega: RunConfig(**short, init=InitSpec(seed=9), scenario=ScenarioSpec(sweep=[0.0, 20.0])),
    }
    docs = {}
    for fn, cfg in runs.items():
        fn(cfg, tmp_path / fn.__name__)
        docs[fn.__name__] = json.loads((tmp_path / fn.__name__ / "summary.json").read_text())
    return docs


def test_summaries_record_radius_collapse_time(short_summaries):
    docs = short_summaries
    assert docs["formulation_equivalence"]["radius_collapse_t"] is None
    assert docs["vertical_gain"]["radius_collapse_t"] is None
    assert docs["lifespan_vs_omega"]["radius_collapse_t"] == {"0.0": None, "20.0": None}


def test_summaries_record_cfl_margin_and_fit_failures(short_summaries):
    docs = short_summaries
    per_run = [docs["formulation_equivalence"], docs["vertical_gain"]]
    margins = [d["cfl_margin_min"] for d in per_run]
    failures = [d["fit_failures"] for d in per_run]
    lifespan = docs["lifespan_vs_omega"]
    assert set(lifespan["cfl_margin_min"]) == set(lifespan["fit_failures"]) == {"0.0", "20.0"}
    margins += list(lifespan["cfl_margin_min"].values())
    failures += list(lifespan["fit_failures"].values())
    # every run completed its steps: each took one, and the checked ones stayed under the limit
    assert all(isinstance(m, float) and m > 1.0 for m in margins)
    assert all(isinstance(n, int) and n >= 0 for n in failures)


def test_small_data_2d_builds_one_table_per_recorded_state(tmp_path, monkeypatch):
    """The row and the tau tracker of each recorded state read one shell-power
    table; the datum's scaling to the threshold reads one more."""
    from rotape.config import parse_config
    from rotape.norms import ShellPower
    from rotape.scenarios import small_data_2d

    of = ShellPower.of
    calls = []

    def counted(cls, coeffs, grid):
        calls.append(coeffs.shape)
        return of(coeffs, grid)

    monkeypatch.setattr(ShellPower, "of", classmethod(counted))
    cfg = parse_config({"scenario": {"name": "small_data_2d"}, "grid": {"nh": 16, "nz": 8},
                        "time": {"dt": 2.5e-3, "t_end": 0.01}})
    summary = small_data_2d(cfg, tmp_path)
    steps = 4
    assert len(read_diagnostics_csv(tmp_path / "diagnostics.csv")) == steps + 1
    assert calls == [(1, 16, 1, 8)] * (steps + 2)
    assert summary["worst_envelope_ratio"] == pytest.approx(1 / 1.1, rel=1e-15)


def test_small_data_2d_fails_on_a_failed_tracker(tmp_path, monkeypatch):
    """A NaN tau rate stops the tracker as failed, and the run fails with it."""
    import math

    import rotape.scenarios as scenarios
    from rotape.config import parse_config

    monkeypatch.setattr(scenarios, "decay_2d_rate", lambda c_r: lambda norms: float("nan"))
    cfg = parse_config({"scenario": {"name": "small_data_2d"}, "grid": {"nh": 16, "nz": 8},
                        "time": {"dt": 2.5e-3, "t_end": 0.01}})
    summary = scenarios.small_data_2d(cfg, tmp_path)
    assert summary["pass"] is False
    assert math.isnan(summary["tau_final"])


def test_local_clock_summary_counts_nan_tau_fallbacks(tmp_path, monkeypatch):
    """Each member's rows whose NaN tracked radius fell back to the report
    radius are counted in the summary."""
    import rotape.scenarios as scenarios
    from rotape.config import parse_config

    monkeypatch.setattr(scenarios, "local_rate", lambda c_r: lambda norms: float("nan"))
    cfg = parse_config({"scenario": {"name": "local_clock_vs_omega", "sweep": [0.0, 10.0]},
                        "grid": {"nh": 16, "nz": 8}, "time": {"dt": 2e-3, "t_end": 0.006}})
    summary = scenarios.local_clock_vs_omega(cfg, tmp_path)
    assert summary["tau_fallbacks"] == {"0.0": 3, "10.0": 3}


def test_lemma_ratios_fails_on_a_nan_ratio(tmp_path, monkeypatch):
    """A NaN ratio anywhere in an ensemble fails the run, not only a NaN maximum:
    Python's max skips a NaN that is not the first sample."""
    import math

    import rotape.scenarios as scenarios
    from rotape.config import parse_config
    from rotape.lemmas import CheckResult

    def ensemble(kind, grid, n_samples, seed):
        return [CheckResult(kind, ratio, 1.0, ratio, False) for ratio in (0.5, float("nan"), 0.4)]

    monkeypatch.setattr(scenarios, "run_ensemble", ensemble)
    summary = scenarios.lemma_ratios(parse_config({"scenario": {"name": "lemma_ratios"}}), tmp_path)
    assert summary["pass"] is False
    for entry in summary["kinds"].values():
        assert entry["finite"] is False
        assert all(math.isnan(m) for m in entry["maxima"].values())
    assert json.loads((tmp_path / "summary.json").read_text())["pass"] is False
