"""Config schema validation and CLI behavior."""

import json

import pytest

from rotape.cli import main
from rotape.config import (
    DEFAULT_SCENARIO,
    SCHEMA,
    ConfigError,
    RunConfig,
    parse_config,
    read_document,
    resolve,
)
from rotape.scenarios import SCENARIOS


def minimal_doc(**overrides):
    doc = {
        "schema": SCHEMA,
        "grid": {"nh": 16, "nz": 8},
        "physics": {"nu": 0.2, "omega": 5.0},
        "time": {"dt": 1e-3, "t_end": 0.1},
        "init": {"kind": "random_analytic", "tau0": 0.5, "seed": 1},
        "norms": {"r": 2.0, "s": 0, "tau_report": 0.1},
        "scenario": {"name": "formulation_equivalence"},
        "output": {"dir": "out", "snapshot_every": 0, "csv": True},
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_parse_full_document(self):
        cfg = parse_config(minimal_doc())
        assert cfg.grid.nh == 16
        assert cfg.nu == 0.2
        assert cfg.scenario.name == "formulation_equivalence"

    def test_defaults_applied(self):
        # no scenario named: the default scenario's defaults, unread keys unset
        cfg = parse_config({"schema": SCHEMA})
        assert cfg.scenario.name == DEFAULT_SCENARIO == "verify_projections"
        assert (cfg.grid.nh, cfg.grid.nz) == (16, 8)
        assert cfg.norms.r == 1.5
        assert cfg.nu is None and cfg.scenario.sweep is None

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(minimal_doc(extra={"x": 1}))

    @pytest.mark.parametrize(
        "section, key, value",
        [("physics", "viscosity", 1.0), ("time", "scheme", "rk4_if")],
        ids=["physics.viscosity", "time.scheme"],
    )
    def test_unknown_section_key_rejected(self, section, key, value):
        doc = minimal_doc()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=key):
            parse_config(doc)

    def test_bad_schema_rejected(self):
        with pytest.raises(ConfigError, match="schema"):
            parse_config(minimal_doc(schema="rotape-config/2"))

    def test_bad_values_rejected(self):
        cases = [
            (minimal_doc(time={"dt": -1.0}), "time.dt"),
            (minimal_doc(init={"kind": "bogus"}), "init.kind"),
            ({"scenario": {"name": "local_clock_vs_omega", "sweep": ["a"]}}, "scenario.sweep"),
            ({"grid": {"dealias": True}}, "grid.dealias"),
            ({"grid": {"dealias": "2/3"}}, "grid.dealias"),
            ({"grid": {"dealias": 0.0}}, "grid.dealias"),
            ({"grid": {"dealias": 1.5}}, "grid.dealias"),
            ({"init": {"seed": -1}}, "init.seed"),
            ({"scenario": {"name": "lifespan_vs_omega", "sweep": [20.0]}}, "scenario.sweep"),
            ({"scenario": {"name": "lifespan_vs_omega", "sweep": [10.0, 10.0]}}, "scenario.sweep"),
        ]
        for doc, key in cases:
            with pytest.raises(ConfigError, match=key):
                parse_config(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [("physics", "nu"), ("physics", "omega"), ("init", "amplitude"),
                                              ("norms", "r"), ("time", "t_end")])
    def test_non_finite_numbers_rejected(self, section, key, value):
        # Python's json reads NaN and Infinity; a run must not start from them
        doc = json.loads(json.dumps(minimal_doc()))
        doc[section][key] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be a finite number"):
            parse_config(doc)

    def test_non_finite_sweep_rejected(self):
        with pytest.raises(ConfigError, match="scenario.sweep"):
            parse_config({"scenario": {"name": "lifespan_vs_omega", "sweep": [10.0, float("nan")]}})

    def test_t_end_off_the_step_grid_rejected(self):
        # dt = 3e-3 would run round(0.005 / 3e-3) = 2 steps and end at t = 0.006
        with pytest.raises(ConfigError, match=r"time\.t_end .* time\.dt"):
            parse_config(minimal_doc(time={"dt": 3e-3, "t_end": 0.005}))
        assert parse_config(minimal_doc(time={"dt": 3e-3, "t_end": 0.006})).t_end == 0.006

    @pytest.mark.parametrize("nh", [12, 20])
    def test_lemma_grids_checked_at_parse_time(self, nh):
        # lemma_ratios also runs nh/4 and nh/2: 3 and 6, or 5 and 10, where nh = 3 or 5 is no grid
        with pytest.raises(ConfigError, match=r"^grid\.nh: .* nh must be even"):
            parse_config({"scenario": {"name": "lemma_ratios"}, "grid": {"nh": nh}})
        assert parse_config({"scenario": {"name": "lemma_ratios"}, "grid": {"nh": 64}}).grid.nh == 64

    def test_lemma_grids_name_the_dealias_fraction(self):
        # nh/4 = 4 keeps fewer than 2 modes at dealias 0.3
        with pytest.raises(ConfigError, match=r"^grid\.dealias: "):
            parse_config({"scenario": {"name": "lemma_ratios"}, "grid": {"nh": 16, "dealias": 0.3}})

    def test_dealias_one_keeps_every_mode(self):
        cfg = parse_config({"grid": {"dealias": 1}})
        assert cfg.grid.dealias_fraction == 1

    def test_file_kind_requires_path(self):
        doc = minimal_doc()
        doc["init"] = {"kind": "file"}  # the file kind reads only init.path
        with pytest.raises(ConfigError, match="path"):
            parse_config(doc)

    def test_load_from_disk(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_doc()))
        cfg = parse_config(read_document(p))
        assert cfg.omega == 5.0

    def test_echo_round_trips(self):
        cfg = parse_config(minimal_doc())
        again = parse_config(cfg.echo())
        assert again.echo() == cfg.echo()


class TestCli:
    def test_list_verb(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        assert "verify_projections" in capsys.readouterr().out

    def test_verify_verb_exit_zero(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path / "v"), "--seed", "5"])
        assert code == 0
        assert (tmp_path / "v" / "summary.json").exists()

    def test_run_requires_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_unknown_scenario_errors(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["scenario"]["name"] = "not_a_scenario"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1

    def test_config_error_exit_one(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == 1

    def test_non_finite_config_rejected_before_the_run(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_doc()).replace('"nu": 0.2', '"nu": NaN'))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "physics.nu must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o" / "config.json").exists()

    def test_run_scenario_via_cli(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_doc()))
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["pass"] is True

    def test_failing_scenario_maps_to_exit_two(self, capsys):
        from rotape.cli import _finish

        assert _finish({"pass": False, "scenario": "x"}) == 2
        assert _finish({"pass": True, "scenario": "x"}) == 0


# The parameters each scenario ran with before its defaults moved into the
# config (grid, physics, time, init, norms, Omega list and output keys), pinned
# here independently of config.SCENARIO_DEFAULTS.  One default has moved
# since: formulation_equivalence steps at dt = 1e-3, because 2e-3 failed the
# advective CFL check at 32 x 16.
_DIR = {"output.dir": "rotape_out"}
PARENT_PARAMETERS = {
    "verify_projections": {
        "grid.nh": 16, "grid.nz": 8, "grid.dealias": 2 / 3,
        "init.tau0": 0.4, "init.eta0": 0.3, "init.seed": 0,
        "norms.r": 1.5, "norms.s": 0, "norms.tau_report": 0.2, **_DIR,
    },
    "formulation_equivalence": {
        "grid.nh": 32, "grid.nz": 16, "grid.dealias": 2 / 3,
        "physics.nu": 0.1, "physics.omega": 0.0, "time.dt": 1e-3, "time.t_end": 0.5,
        "init.kind": "random_analytic", "init.tau0": 0.5, "init.eta0": 0.3,
        "init.amplitude": 1.0, "init.seed": 0,
        "norms.r": 2.0, "norms.s": 0, "norms.tau_report": 0.1,
        "output.snapshot_every": 0, "output.csv": True, **_DIR,
    },
    "local_clock_vs_omega": {
        "grid.nh": 24, "grid.nz": 12, "grid.dealias": 2 / 3,
        "physics.nu": 0.1, "time.dt": 2e-3, "time.t_end": 0.4,
        "init.tau0": 0.8, "init.eta0": 0.4, "init.amplitude": 1.2, "init.seed": 0,
        "norms.r": 2.0, "norms.s": 0, "norms.tau_report": 0.35,
        "scenario.sweep": [0.0, 10.0, 100.0], **_DIR,
    },
    "vertical_gain": {
        "grid.nh": 32, "grid.nz": 32, "grid.dealias": 2 / 3,
        "physics.nu": 0.5, "physics.omega": 0.0, "time.dt": 2e-3, "time.t_end": 1.0,
        "init.tau0": 0.6, "init.eta0": 0.0, "init.amplitude": 1.0, "init.seed": 0,
        "norms.r": 2.0, "norms.s": 0, "norms.tau_report": 0.1,
        "output.csv": True, **_DIR,
    },
    "limit_convergence": {
        "grid.nh": 24, "grid.nz": 12, "grid.dealias": 2 / 3,
        "physics.nu": 0.3, "time.dt": 2e-3, "time.t_end": 0.5,
        "init.tau0": 0.6, "init.eta0": 0.3, "init.amplitude": 0.5,
        "init.baroclinic_sobolev_target": 0.12, "init.seed": 0,
        "norms.r": 2.0, "norms.s": 0, "norms.tau_report": 0.1,
        "scenario.sweep": [10.0, 20.0, 40.0, 80.0], **_DIR,
    },
    "lifespan_vs_omega": {
        "grid.nh": 24, "grid.nz": 12, "grid.dealias": 2 / 3,
        "physics.nu": 0.03, "time.dt": 2e-3, "time.t_end": 1.5,
        "init.tau0": 0.5, "init.eta0": 0.4, "init.amplitude": 1.0, "init.seed": 0,
        "norms.r": 2.0, "norms.s": 0, "norms.tau_report": 0.3,
        "scenario.sweep": [0.0, 20.0, 80.0], **_DIR,
    },
    "small_data_2d": {
        "grid.nh": 32, "grid.nz": 16, "grid.dealias": 2 / 3,
        "physics.nu": 1.0, "time.dt": 2.5e-3, "time.t_end": 5.0,
        "init.tau0": 1.0, "init.eta0": 0.2, "init.amplitude": 0.2, "init.seed": 0,
        "norms.r": 2.0, "norms.s": 0, "output.csv": True, **_DIR,
    },
    "lemma_ratios": {
        "grid.nh": 64, "grid.nz": 8, "grid.dealias": 2 / 3, "init.seed": 0, **_DIR,
    },
    "continuous_dependence": {
        "grid.nh": 24, "grid.nz": 12, "grid.dealias": 2 / 3,
        "physics.nu": 0.2, "physics.omega": 0.0, "time.dt": 2e-3, "time.t_end": 0.5,
        "init.tau0": 0.6, "init.eta0": 0.3, "init.amplitude": 1.0, "init.seed": 0,
        "norms.r": 1.5, "norms.s": 0, "norms.tau_report": 0.1, **_DIR,
    },
}

# a valid value different from every default, per key
OTHER_VALUE = {
    "grid.nh": 48, "grid.nz": 10, "grid.dealias": 0.5,
    "physics.nu": 0.7, "physics.omega": 3.0, "time.dt": 5e-4, "time.t_end": 0.25,
    "init.kind": "shear_plus_baroclinic", "init.tau0": 0.55, "init.eta0": 0.25,
    "init.amplitude": 0.9, "init.baroclinic_sobolev_target": 0.5, "init.seed": 5,
    "init.path": "ic.pesp1",
    "norms.r": 1.0, "norms.s": 1, "norms.tau_report": 0.05,
    "scenario.sweep": [1.0, 2.0], "output.dir": "elsewhere", "output.snapshot_every": 3,
    "output.csv": False,
}
# init keys that scenarios reading init.kind read only for one kind
KIND_OF = {"init.baroclinic_sobolev_target": "well_prepared", "init.path": "file"}


def _flat(doc: dict) -> dict:
    return {f"{sec}.{k}": v for sec, body in doc.items() if sec != "schema"
            for k, v in body.items() if (sec, k) != ("scenario", "name")}


def _doc(name: str, flat: dict) -> dict:
    doc = {"scenario": {"name": name}}
    for dotted, value in flat.items():
        sec, key = dotted.split(".")
        doc.setdefault(sec, {})[key] = value
    return doc


@pytest.mark.parametrize("name", SCENARIOS)
def test_default_resolution_is_parent_parameters(name):
    from_doc = parse_config({"scenario": {"name": name}})
    from_code = resolve(RunConfig(), name)
    assert _flat(from_doc.echo()) == PARENT_PARAMETERS[name]
    assert from_code.echo() == from_doc.echo()


@pytest.mark.parametrize("name", SCENARIOS)
def test_unread_key_rejected_naming_key_and_scenario(name):
    unread = [k for k in OTHER_VALUE if k not in PARENT_PARAMETERS[name] and k not in KIND_OF]
    assert unread
    for dotted in unread:
        with pytest.raises(ConfigError, match=rf"{dotted} is not read by .*'{name}'"):
            parse_config(_doc(name, {dotted: OTHER_VALUE[dotted]}))


@pytest.mark.parametrize("name", SCENARIOS)
def test_read_key_changes_resolution(name):
    reads_kind = "init.kind" in PARENT_PARAMETERS[name]
    read = [k for k in OTHER_VALUE if k in PARENT_PARAMETERS[name] or (reads_kind and k in KIND_OF)]
    for dotted in read:
        flat = {dotted: OTHER_VALUE[dotted]}
        if reads_kind and dotted in KIND_OF:
            flat["init.kind"] = KIND_OF[dotted]
        resolved = _flat(parse_config(_doc(name, flat)).echo())
        for key, value in flat.items():
            assert resolved[key] == value, (name, key)


def test_init_kind_limits_the_init_keys_read():
    name = "formulation_equivalence"
    with pytest.raises(ConfigError, match="init.path is not read by init.kind 'random_analytic'"):
        parse_config(_doc(name, {"init.path": "ic.pesp1"}))
    with pytest.raises(ConfigError, match="init.kind is not read by scenario 'vertical_gain'"):
        parse_config(_doc("vertical_gain", {"init.kind": "random_analytic"}))
    resolved = _flat(parse_config(_doc(name, {"init.kind": "file", "init.path": "ic.pesp1"})).echo())
    assert "init.seed" not in resolved and "init.tau0" not in resolved


@pytest.mark.parametrize("name", SCENARIOS)
def test_config_json_reloads_to_the_same_echo(tmp_path, name):
    from rotape.scenarios import _setup

    # every scenario resolves its config and writes it through _setup first
    _setup(resolve(RunConfig(), name), tmp_path)
    written = json.loads((tmp_path / "config.json").read_text())
    assert parse_config(read_document(tmp_path / "config.json")).echo() == written
    assert written["scenario"]["name"] == name


def test_rerun_from_config_json_reproduces_the_summary(tmp_path, capsys):
    doc = minimal_doc(time={"dt": 2e-3, "t_end": 0.02})
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "a")]) == 0
    again = tmp_path / "a" / "config.json"
    assert main(["run", "--config", str(again), "--out", str(tmp_path / "b")]) == 0
    for artifact in ("summary.json", "diagnostics.csv", "config.json"):
        assert (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()


class TestCliRejects:
    def _write(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("name", ["local_clock_vs_omega", "limit_convergence", "lifespan_vs_omega"])
    def test_sweep_needs_a_scenario_reading_omega(self, tmp_path, capsys, name):
        cfg = self._write(tmp_path, {"scenario": {"name": name, "sweep": [10.0, 20.0]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "physics.omega" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sweep", [[None, 5.0], [5.0, 5.0], [5.0], None])
    def test_sweep_values_follow_the_scenario_sweep_rule(self, tmp_path, capsys, sweep):
        """A null value would run at the scenario's default Omega, not be skipped."""
        doc = {"scenario": {"name": "continuous_dependence", "sweep": sweep}, "physics": {"omega": 3.0}}
        assert main(["sweep", "--config", self._write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "scenario.sweep" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb, other", [("verify", "lemma_ratios"), ("lemmas", "verify_projections")])
    def test_verb_rejects_config_naming_another_scenario(self, tmp_path, capsys, verb, other):
        cfg = self._write(tmp_path, {"scenario": {"name": other}})
        assert main([verb, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert other in capsys.readouterr().err

    def test_run_rejects_unread_key(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"scenario": {"name": "lifespan_vs_omega"}, "physics": {"omega": 7.0}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "physics.omega" in err and "lifespan_vs_omega" in err

    def test_lemmas_rejects_an_nh_without_lemma_grids(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"scenario": {"name": "lemma_ratios"}, "grid": {"nh": 12}})
        assert main(["lemmas", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "grid.nh" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
        assert "init.seed" in capsys.readouterr().err
