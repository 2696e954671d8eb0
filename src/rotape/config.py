"""JSON run configuration, schema "rotape-config/1".

Strict validation: unknown keys are rejected at every level, and values are
type/range checked with the offending path in the error message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .grid import GridSpec

SCHEMA = "rotape-config/1"

INIT_KINDS = ("random_analytic", "well_prepared", "shear_plus_baroclinic", "file")


class ConfigError(ValueError):
    pass


@dataclass
class InitSpec:
    kind: str = "random_analytic"
    tau0: float = 0.5
    eta0: float = 0.3
    amplitude: float = 1.0
    baroclinic_sobolev_target: float | None = None
    seed: int = 0
    path: str | None = None


@dataclass
class NormsSpec:
    r: float = 2.0
    s: int = 0
    tau_report: float = 0.1


@dataclass
class ScenarioSpec:
    name: str = "verify_projections"
    sweep: list = field(default_factory=list)


@dataclass
class OutputSpec:
    dir: str = "rotape_out"
    snapshot_every: int = 0
    csv: bool = True


@dataclass
class RunConfig:
    grid: GridSpec = field(default_factory=lambda: GridSpec(nh=32, nz=16))
    nu: float = 0.1
    omega: float = 0.0
    dt: float = 2e-3
    t_end: float = 0.5
    init: InitSpec = field(default_factory=InitSpec)
    norms: NormsSpec = field(default_factory=NormsSpec)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def echo(self) -> dict:
        return {
            "schema": SCHEMA,
            "grid": {
                "nh": self.grid.nh,
                "nz": self.grid.nz,
                "dealias": float(self.grid.dealias_fraction),
            },
            "physics": {"nu": self.nu, "omega": self.omega},
            "time": {"dt": self.dt, "t_end": self.t_end},
            "init": {
                "kind": self.init.kind,
                "tau0": self.init.tau0,
                "eta0": self.init.eta0,
                "amplitude": self.init.amplitude,
                "baroclinic_sobolev_target": self.init.baroclinic_sobolev_target,
                "seed": self.init.seed,
                "path": self.init.path,
            },
            "norms": {"r": self.norms.r, "s": self.norms.s, "tau_report": self.norms.tau_report},
            "scenario": {"name": self.scenario.name, "sweep": list(self.scenario.sweep)},
            "output": {
                "dir": self.output.dir,
                "snapshot_every": self.output.snapshot_every,
                "csv": self.output.csv,
            },
        }


def _expect_keys(doc: dict, allowed: set, path: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path}")


def _number(doc, key, path, default, lo=None, hi=None, integer=False):
    val = doc.get(key, default)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {val!r}")
    if integer and int(val) != val:
        raise ConfigError(f"{path}.{key} must be an integer, got {val!r}")
    if lo is not None and val < lo:
        raise ConfigError(f"{path}.{key} must be >= {lo}, got {val!r}")
    if hi is not None and val > hi:
        raise ConfigError(f"{path}.{key} must be <= {hi}, got {val!r}")
    return int(val) if integer else float(val)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _expect_keys(
        doc, {"schema", "grid", "physics", "time", "init", "norms", "scenario", "output"}, "<root>"
    )
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise ConfigError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")

    gd = doc.get("grid", {})
    _expect_keys(gd, {"nh", "nz", "dealias"}, "grid")
    dealias = gd.get("dealias", 2.0 / 3.0)
    frac = Fraction(dealias).limit_denominator(64) if not isinstance(dealias, Fraction) else dealias
    try:
        grid = GridSpec(
            nh=_number(gd, "nh", "grid", 32, lo=4, integer=True),
            nz=_number(gd, "nz", "grid", 16, lo=2, integer=True),
            dealias_fraction=frac,
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    ph = doc.get("physics", {})
    _expect_keys(ph, {"nu", "omega"}, "physics")
    nu = _number(ph, "nu", "physics", 0.1)
    omega = _number(ph, "omega", "physics", 0.0)
    if nu is None or nu <= 0:
        raise ConfigError("physics.nu must be positive")

    tm = doc.get("time", {})
    _expect_keys(tm, {"dt", "t_end"}, "time")
    dt = _number(tm, "dt", "time", 2e-3)
    t_end = _number(tm, "t_end", "time", 0.5, lo=0.0)
    if dt is None or dt <= 0:
        raise ConfigError("time.dt must be positive")

    it = doc.get("init", {})
    _expect_keys(
        it,
        {"kind", "tau0", "eta0", "amplitude", "baroclinic_sobolev_target", "seed", "path"},
        "init",
    )
    kind = it.get("kind", "random_analytic")
    if kind not in INIT_KINDS:
        raise ConfigError(f"init.kind must be one of {INIT_KINDS}, got {kind!r}")
    init = InitSpec(
        kind=kind,
        tau0=_number(it, "tau0", "init", 0.5, lo=0.0),
        eta0=_number(it, "eta0", "init", 0.3, lo=0.0),
        amplitude=_number(it, "amplitude", "init", 1.0, lo=0.0),
        baroclinic_sobolev_target=_number(it, "baroclinic_sobolev_target", "init", None, lo=0.0),
        seed=_number(it, "seed", "init", 0, integer=True),
        path=it.get("path"),
    )
    if init.path is not None and not isinstance(init.path, str):
        raise ConfigError("init.path must be a string")
    if kind == "file" and not init.path:
        raise ConfigError("init.kind 'file' requires init.path")

    nm = doc.get("norms", {})
    _expect_keys(nm, {"r", "s", "tau_report"}, "norms")
    norms = NormsSpec(
        r=_number(nm, "r", "norms", 2.0, lo=0.0),
        s=_number(nm, "s", "norms", 0, lo=0, hi=2, integer=True),
        tau_report=_number(nm, "tau_report", "norms", 0.1, lo=0.0),
    )

    sc = doc.get("scenario", {})
    _expect_keys(sc, {"name", "sweep"}, "scenario")
    sweep = sc.get("sweep", [])
    if not isinstance(sweep, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in sweep
    ):
        raise ConfigError("scenario.sweep must be a list of numbers")
    scenario = ScenarioSpec(name=sc.get("name", "verify_projections"), sweep=[float(x) for x in sweep])

    ot = doc.get("output", {})
    _expect_keys(ot, {"dir", "snapshot_every", "csv"}, "output")
    if not isinstance(ot.get("csv", True), bool):
        raise ConfigError("output.csv must be a boolean")
    output = OutputSpec(
        dir=str(ot.get("dir", "rotape_out")),
        snapshot_every=_number(ot, "snapshot_every", "output", 0, lo=0, integer=True),
        csv=ot.get("csv", True),
    )

    return RunConfig(
        grid=grid, nu=nu, omega=omega, dt=dt, t_end=t_end,
        init=init, norms=norms, scenario=scenario, output=output,
    )


def load_config(path) -> RunConfig:
    with Path(path).open() as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc)
