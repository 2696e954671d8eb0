"""Config schema validation and CLI behavior."""

import json

import pytest

from rotape.cli import main
from rotape.config import SCHEMA, ConfigError, load_config, parse_config
from rotape.scenarios import SCENARIOS


def minimal_doc(**overrides):
    doc = {
        "schema": SCHEMA,
        "grid": {"nh": 16, "nz": 8},
        "physics": {"nu": 0.2, "omega": 5.0},
        "time": {"dt": 1e-3, "t_end": 0.1},
        "init": {"kind": "random_analytic", "tau0": 0.5, "seed": 1},
        "norms": {"r": 2.0, "s": 0, "tau_report": 0.1},
        "scenario": {"name": "verify_projections", "sweep": []},
        "output": {"dir": "out", "snapshot_every": 0, "csv": True},
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_parse_full_document(self):
        cfg = parse_config(minimal_doc())
        assert cfg.grid.nh == 16
        assert cfg.nu == 0.2
        assert cfg.scenario.name == "verify_projections"

    def test_defaults_applied(self):
        cfg = parse_config({"schema": SCHEMA})
        assert cfg.grid.nh == 32
        assert cfg.norms.r == 2.0

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
        doc = minimal_doc()
        doc["time"]["dt"] = -1.0
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc = minimal_doc()
        doc["init"]["kind"] = "bogus"
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc = minimal_doc()
        doc["scenario"]["sweep"] = ["a"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_file_kind_requires_path(self):
        doc = minimal_doc()
        doc["init"]["kind"] = "file"
        with pytest.raises(ConfigError, match="path"):
            parse_config(doc)

    def test_load_from_disk(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_doc()))
        cfg = load_config(p)
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
