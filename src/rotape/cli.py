"""Command-line entry point.

Verbs:
  run    --config PATH [--out DIR] [--seed N]   one scenario
  sweep  --config PATH ...                      scenario once per scenario.sweep value as
                                                physics.omega, the members in sequence
  verify [--config PATH] ...                    projection/norm identity table
  lemmas [--config PATH] ...                    lemma-ratio ensemble
  list                                          print available scenario names

A config sets only keys its scenario reads (see the README); verify and
lemmas reject a config that names another scenario, and sweep requires a
scenario that reads physics.omega.

Exit codes: 0 pass, 2 scenario assertion failure, 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, parse_config, read_document
from .scenarios import SCENARIOS, run_scenario


def _base_parser(sub, name, help_, needs_config):
    p = sub.add_parser(name, help=help_)
    p.add_argument("--config", type=Path, required=needs_config, help="JSON run configuration")
    p.add_argument("--out", type=Path, default=None, help="output directory (default: config output.dir)")
    p.add_argument("--seed", type=int, default=None, help="override init.seed")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rotape", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--list", action="store_true", help="print scenario names and exit")
    sub = ap.add_subparsers(dest="verb")
    _base_parser(sub, "run", "run one scenario from a config", True)
    _base_parser(sub, "sweep", "run the scenario once per sweep value", True)
    _base_parser(sub, "verify", "run the projection/norm verification table", False)
    _base_parser(sub, "lemmas", "run the lemma-ratio ensemble", False)
    sub.add_parser("list", help="print scenario names")
    return ap


_VERB_SCENARIO = {"verify": "verify_projections", "lemmas": "lemma_ratios"}


def _document(args) -> dict:
    """The --config document (empty without one), with the verb's scenario and --seed applied."""
    doc = read_document(args.config) if args.config is not None else {}
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    scenario = _VERB_SCENARIO.get(args.verb)
    if scenario is not None:
        section = dict(doc.get("scenario", {}))
        named = section.setdefault("name", scenario)
        if named != scenario:
            raise ConfigError(f"'{args.verb}' runs scenario {scenario!r}, but the config names {named!r}")
        doc = {**doc, "scenario": section}
    if args.seed is not None:
        doc = {**doc, "init": {**doc.get("init", {}), "seed": args.seed}}
    return doc


def _finish(summary: dict) -> int:
    print(json.dumps({k: v for k, v in summary.items() if k != "table"}, indent=2, default=float))
    return 0 if summary.get("pass", False) else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list or args.verb == "list":
        for name in SCENARIOS:
            print(name)
        return 0
    if args.verb is None:
        build_parser().print_help()
        return 1
    try:
        if args.verb == "sweep":
            return _sweep(_document(args), args.out)
        return _finish(run_scenario(parse_config(_document(args)), args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 1


def _sweep(doc: dict, out: Path | None) -> int:
    """Run the configured scenario once per scenario.sweep value, one member after another.

    Each value overrides physics.omega, so the scenario must read that key;
    each member gets its own member_<i> output directory.
    """
    section = dict(doc.get("scenario", {}))
    values = section.pop("sweep", None)
    base = {**doc, "scenario": section}
    cfg = parse_config(base)
    if cfg.omega is None:
        raise ConfigError(
            f"sweep overrides physics.omega, which scenario {cfg.scenario.name!r} does not read"
        )
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep requires a nonempty scenario.sweep list")
    members = [parse_config({**base, "physics": {**base.get("physics", {}), "omega": v}}) for v in values]
    out = Path(out or cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = [run_scenario(m, str(out / f"member_{i:02d}")) for i, m in enumerate(members)]
    combined = {
        "scenario": cfg.scenario.name,
        "sweep": values,
        "pass": all(s.get("pass", False) for s in summaries),
        "members": summaries,
    }
    (out / "sweep_summary.json").write_text(json.dumps(combined, indent=2, default=float) + "\n")
    print(json.dumps({k: combined[k] for k in ("scenario", "sweep", "pass")}, indent=2))
    return 0 if combined["pass"] else 2


if __name__ == "__main__":
    sys.exit(main())
