"""JSON run configuration, schema "rotape-config/1".

Strict validation: unknown keys are rejected at every level, and values are
type/range checked with the offending path in the error message.

Every scenario has one default document, `SCENARIO_DEFAULTS[name]`, in the
same schema.  Its keys are exactly the keys the scenario reads: a config
that sets any other key is rejected, naming the key and the scenario.
`parse_config` merges a document over its scenario's defaults, so a parsed
`RunConfig` is resolved: the keys the scenario reads are set and the others
are None.  A `RunConfig` built in code starts with every field None (unset);
`resolve` fills it the same way, and every scenario resolves its config
before reading it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .grid import GridSpec
from .pe_solver import step_count

SCHEMA = "rotape-config/1"

DEFAULT_SCENARIO = "verify_projections"

_SECTIONS = {
    "grid": ("nh", "nz", "dealias"),
    "physics": ("nu", "omega"),
    "time": ("dt", "t_end"),
    "init": ("kind", "tau0", "eta0", "amplitude", "baroclinic_sobolev_target", "seed", "path"),
    "norms": ("r", "s", "tau_report"),
    "scenario": ("name", "sweep"),
    "output": ("dir", "snapshot_every", "csv"),
}

# init keys each init.kind reads, for the scenarios that read init.kind
_INIT_KIND_KEYS = {
    "random_analytic": {"tau0", "eta0", "amplitude", "seed"},
    "well_prepared": {"tau0", "eta0", "amplitude", "baroclinic_sobolev_target", "seed"},
    "shear_plus_baroclinic": {"tau0", "eta0", "amplitude", "seed"},
    "file": {"path"},
}
INIT_KINDS = tuple(_INIT_KIND_KEYS)

_GRID_2_3 = 2.0 / 3.0

# Per-scenario defaults.  Every document sets the three grid keys, init.seed
# and output.dir, which parse_config relies on.  What each value means in its
# scenario is listed in the README's config section; the Omega list of the
# scenarios that compare rotation rates is scenario.sweep.
SCENARIO_DEFAULTS = {
    "verify_projections": {
        "grid": {"nh": 16, "nz": 8, "dealias": _GRID_2_3},
        "init": {"tau0": 0.4, "eta0": 0.3, "seed": 0},
        "norms": {"r": 1.5, "s": 0, "tau_report": 0.2},
        "output": {"dir": "rotape_out"},
    },
    "formulation_equivalence": {
        "grid": {"nh": 32, "nz": 16, "dealias": _GRID_2_3},
        "physics": {"nu": 0.1, "omega": 0.0},
        "time": {"dt": 1e-3, "t_end": 0.5},
        "init": {"kind": "random_analytic", "tau0": 0.5, "eta0": 0.3, "amplitude": 1.0,
                 "baroclinic_sobolev_target": 0.25, "seed": 0, "path": None},
        "norms": {"r": 2.0, "s": 0, "tau_report": 0.1},
        "output": {"dir": "rotape_out", "snapshot_every": 0, "csv": True},
    },
    "local_clock_vs_omega": {
        "grid": {"nh": 24, "nz": 12, "dealias": _GRID_2_3},
        "physics": {"nu": 0.1},
        "time": {"dt": 2e-3, "t_end": 0.4},
        "init": {"tau0": 0.8, "eta0": 0.4, "amplitude": 1.2, "seed": 0},
        "norms": {"r": 2.0, "s": 0, "tau_report": 0.35},
        "scenario": {"sweep": [0.0, 10.0, 100.0]},
        "output": {"dir": "rotape_out"},
    },
    "vertical_gain": {
        "grid": {"nh": 32, "nz": 32, "dealias": _GRID_2_3},
        "physics": {"nu": 0.5, "omega": 0.0},
        "time": {"dt": 2e-3, "t_end": 1.0},
        "init": {"tau0": 0.6, "eta0": 0.0, "amplitude": 1.0, "seed": 0},
        "norms": {"r": 2.0, "s": 0, "tau_report": 0.1},
        "output": {"dir": "rotape_out", "csv": True},
    },
    "limit_convergence": {
        "grid": {"nh": 24, "nz": 12, "dealias": _GRID_2_3},
        "physics": {"nu": 0.3},
        "time": {"dt": 2e-3, "t_end": 0.5},
        "init": {"tau0": 0.6, "eta0": 0.3, "amplitude": 0.5,
                 "baroclinic_sobolev_target": 0.12, "seed": 0},
        "norms": {"r": 2.0, "s": 0, "tau_report": 0.1},
        "scenario": {"sweep": [10.0, 20.0, 40.0, 80.0]},
        "output": {"dir": "rotape_out"},
    },
    "lifespan_vs_omega": {
        "grid": {"nh": 24, "nz": 12, "dealias": _GRID_2_3},
        "physics": {"nu": 0.03},
        "time": {"dt": 2e-3, "t_end": 1.5},
        "init": {"tau0": 0.5, "eta0": 0.4, "amplitude": 1.0, "seed": 0},
        "norms": {"r": 2.0, "s": 0, "tau_report": 0.3},
        "scenario": {"sweep": [0.0, 20.0, 80.0]},
        "output": {"dir": "rotape_out"},
    },
    "small_data_2d": {
        "grid": {"nh": 32, "nz": 16, "dealias": _GRID_2_3},
        "physics": {"nu": 1.0},
        "time": {"dt": 2.5e-3, "t_end": 5.0},
        "init": {"tau0": 1.0, "eta0": 0.2, "amplitude": 0.2, "seed": 0},
        "norms": {"r": 2.0, "s": 0},
        "output": {"dir": "rotape_out", "csv": True},
    },
    "lemma_ratios": {
        "grid": {"nh": 64, "nz": 8, "dealias": _GRID_2_3},
        "init": {"seed": 0},
        "output": {"dir": "rotape_out"},
    },
    "continuous_dependence": {
        "grid": {"nh": 24, "nz": 12, "dealias": _GRID_2_3},
        "physics": {"nu": 0.2, "omega": 0.0},
        "time": {"dt": 2e-3, "t_end": 0.5},
        "init": {"tau0": 0.6, "eta0": 0.3, "amplitude": 1.0, "seed": 0},
        "norms": {"r": 1.5, "s": 0, "tau_report": 0.1},
        "output": {"dir": "rotape_out"},
    },
}


class ConfigError(ValueError):
    pass


@dataclass
class InitSpec:
    kind: str | None = None
    tau0: float | None = None
    eta0: float | None = None
    amplitude: float | None = None
    baroclinic_sobolev_target: float | None = None
    seed: int | None = None
    path: str | None = None


@dataclass
class NormsSpec:
    r: float | None = None
    s: int | None = None
    tau_report: float | None = None


@dataclass
class ScenarioSpec:
    name: str | None = None
    sweep: list | None = None


@dataclass
class OutputSpec:
    dir: str | None = None
    snapshot_every: int | None = None
    csv: bool | None = None


@dataclass
class RunConfig:
    """Run parameters; a None field is unset (see the module docstring)."""

    grid: GridSpec | None = None
    nu: float | None = None
    omega: float | None = None
    dt: float | None = None
    t_end: float | None = None
    init: InitSpec = field(default_factory=InitSpec)
    norms: NormsSpec = field(default_factory=NormsSpec)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def echo(self) -> dict:
        """The set keys as a config document; a resolved config's echo reloads to itself."""
        grid = self.grid
        sections = {
            "grid": {} if grid is None else {
                "nh": grid.nh, "nz": grid.nz, "dealias": float(grid.dealias_fraction),
            },
            "physics": {"nu": self.nu, "omega": self.omega},
            "time": {"dt": self.dt, "t_end": self.t_end},
            "init": vars(self.init),
            "norms": vars(self.norms),
            "scenario": vars(self.scenario),
            "output": vars(self.output),
        }
        doc = {"schema": SCHEMA}
        for name, body in sections.items():
            body = {k: v for k, v in body.items() if v is not None}
            if body:
                doc[name] = body
        return doc


def resolve(cfg: RunConfig, scenario: str) -> RunConfig:
    """cfg resolved against the defaults of `scenario`, which it must not contradict."""
    doc = cfg.echo()
    named = doc.setdefault("scenario", {}).setdefault("name", scenario)
    if named != scenario:
        raise ConfigError(f"config names scenario {named!r}, not {scenario!r}")
    return parse_config(doc)


def _expect_keys(doc: dict, allowed, path: str):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path}")


def _number(doc, key, path, lo=None, hi=None, integer=False):
    val = doc.get(key)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {val!r}")
    if not math.isfinite(val):
        raise ConfigError(f"{path}.{key} must be a finite number, got {val!r}")
    if integer and int(val) != val:
        raise ConfigError(f"{path}.{key} must be an integer, got {val!r}")
    if lo is not None and val < lo:
        raise ConfigError(f"{path}.{key} must be >= {lo}, got {val!r}")
    if hi is not None and val > hi:
        raise ConfigError(f"{path}.{key} must be <= {hi}, got {val!r}")
    return int(val) if integer else float(val)


def _merge_over_defaults(doc) -> dict:
    """The document's sections merged over its scenario's defaults.

    Rejects unknown keys, and keys the scenario (or, where the scenario reads
    init.kind, the init kind) does not read.  A null value leaves the default.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _expect_keys(doc, {"schema", *_SECTIONS}, "<root>")
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise ConfigError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")
    for section, keys in _SECTIONS.items():
        if not isinstance(doc.get(section, {}), dict):
            raise ConfigError(f"{section} must be a JSON object")
        _expect_keys(doc.get(section, {}), keys, section)

    name = doc.get("scenario", {}).get("name", DEFAULT_SCENARIO)
    if name not in SCENARIO_DEFAULTS:
        raise ConfigError(f"unknown scenario {name!r}; available: {sorted(SCENARIO_DEFAULTS)}")
    defaults = SCENARIO_DEFAULTS[name]
    reads = {section: set(defaults.get(section, {})) for section in _SECTIONS}
    reads["scenario"].add("name")
    merged = {
        section: {**defaults.get(section, {}),
                  **{k: v for k, v in doc.get(section, {}).items() if v is not None}}
        for section in _SECTIONS
    }
    merged["scenario"]["name"] = name
    reader = f"scenario {name!r}"
    if "kind" in reads["init"]:
        kind = merged["init"]["kind"]
        if kind not in INIT_KINDS:
            raise ConfigError(f"init.kind must be one of {INIT_KINDS}, got {kind!r}")
        reads["init"] &= _INIT_KIND_KEYS[kind] | {"kind"}
        merged["init"] = {k: v for k, v in merged["init"].items() if k in reads["init"]}
        reader = f"init.kind {kind!r} of scenario {name!r}"
    for section in _SECTIONS:
        for key in doc.get(section, {}):
            if key not in reads[section]:
                by = reader if section == "init" else f"scenario {name!r}"
                raise ConfigError(f"{section}.{key} is not read by {by}")
    return merged


def lemma_grid(grid: GridSpec, nh: int) -> GridSpec:
    """The grid of lemma_ratios' ensemble at nh, with grid's nz and dealias
    fraction (the scenario runs nh/4, nh/2 and nh = grid.nh)."""
    return GridSpec(nh=nh, nz=grid.nz, dealias_fraction=grid.dealias_fraction)


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and resolve it against its scenario's defaults."""
    m = _merge_over_defaults(doc)

    gd = m["grid"]
    dealias = _number(gd, "dealias", "grid")
    if not 0.0 < dealias <= 1.0:
        raise ConfigError(f"grid.dealias must lie in (0, 1], got {dealias!r}")
    try:
        grid = GridSpec(
            nh=_number(gd, "nh", "grid", lo=4, integer=True),
            nz=_number(gd, "nz", "grid", lo=2, integer=True),
            dealias_fraction=Fraction(dealias).limit_denominator(64),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    if m["scenario"]["name"] == "lemma_ratios":
        for n in (grid.nh // 4, grid.nh // 2):
            try:
                lemma_grid(grid, n)
            except ValueError as exc:
                key = "dealias" if "dealias" in str(exc) else "nh"
                raise ConfigError(f"grid.{key}: lemma_ratios also runs on nh/4 and nh/2 = {n}, and there {exc}") from exc

    nu = _number(m["physics"], "nu", "physics")
    if nu is not None and nu <= 0:
        raise ConfigError("physics.nu must be positive")
    dt = _number(m["time"], "dt", "time")
    if dt is not None and dt <= 0:
        raise ConfigError("time.dt must be positive")
    t_end = _number(m["time"], "t_end", "time", lo=0.0)
    if t_end is not None:
        try:
            step_count(t_end, dt)
        except ValueError:
            raise ConfigError(f"time.t_end ({t_end!r}) must be a whole number of steps of time.dt ({dt!r})") from None

    it = m["init"]
    init = InitSpec(
        kind=it.get("kind"),
        tau0=_number(it, "tau0", "init", lo=0.0),
        eta0=_number(it, "eta0", "init", lo=0.0),
        amplitude=_number(it, "amplitude", "init", lo=0.0),
        baroclinic_sobolev_target=_number(it, "baroclinic_sobolev_target", "init", lo=0.0),
        seed=_number(it, "seed", "init", lo=0, integer=True),
        path=it.get("path"),
    )
    if init.path is not None and not isinstance(init.path, str):
        raise ConfigError("init.path must be a string")
    if init.kind == "file" and not init.path:
        raise ConfigError("init.kind 'file' requires init.path")

    nm = m["norms"]
    norms = NormsSpec(
        r=_number(nm, "r", "norms", lo=0.0),
        s=_number(nm, "s", "norms", lo=0, hi=2, integer=True),
        tau_report=_number(nm, "tau_report", "norms", lo=0.0),
    )

    sweep = m["scenario"].get("sweep")
    if sweep is not None:
        if not isinstance(sweep, list) or any(
            isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x) for x in sweep
        ):
            raise ConfigError("scenario.sweep must be a list of finite numbers")
        if len(sweep) < 2 or len(set(sweep)) != len(sweep):
            raise ConfigError("scenario.sweep must hold at least two distinct Omega values")
        sweep = [float(x) for x in sweep]

    ot = m["output"]
    if not isinstance(ot.get("csv", True), bool):
        raise ConfigError("output.csv must be a boolean")
    output = OutputSpec(
        dir=str(ot["dir"]),
        snapshot_every=_number(ot, "snapshot_every", "output", lo=0, integer=True),
        csv=ot.get("csv"),
    )

    return RunConfig(
        grid=grid,
        nu=nu,
        omega=_number(m["physics"], "omega", "physics"),
        dt=dt,
        t_end=t_end,
        init=init,
        norms=norms,
        scenario=ScenarioSpec(name=m["scenario"]["name"], sweep=sweep),
        output=output,
    )


def read_document(path) -> dict:
    with Path(path).open() as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc

