"""Command-line entry point.

Verbs:
  run    --config PATH [--out DIR] [--seed N]   one scenario
  sweep  --config PATH ... [--threads N]        scenario once per scenario.sweep value,
                                                in a pool of N processes
  verify [--config PATH] ...                    projection/norm identity table
  lemmas [--config PATH] ...                    lemma-ratio ensemble
  list                                          print available scenario names

Exit codes: 0 pass, 2 scenario assertion failure, 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
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
    sweep = _base_parser(sub, "sweep", "run the scenario once per sweep value", True)
    sweep.add_argument("--threads", type=int, default=1, help="worker pool size for sweeps")
    _base_parser(sub, "verify", "run the projection/norm verification table", False)
    _base_parser(sub, "lemmas", "run the lemma-ratio ensemble", False)
    sub.add_parser("list", help="print scenario names")
    return ap


def _load(args, default_scenario=None) -> RunConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = RunConfig()
    if default_scenario is not None:
        cfg.scenario.name = default_scenario
    if args.seed is not None:
        cfg.init.seed = args.seed
    return cfg


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
        if args.verb == "run":
            cfg = _load(args)
            out = args.out or Path(cfg.output.dir)
            return _finish(run_scenario(cfg, out))
        if args.verb == "verify":
            cfg = _load(args, default_scenario="verify_projections")
            out = args.out or Path(cfg.output.dir)
            return _finish(run_scenario(cfg, out))
        if args.verb == "lemmas":
            cfg = _load(args, default_scenario="lemma_ratios")
            out = args.out or Path(cfg.output.dir)
            return _finish(run_scenario(cfg, out))
        if args.verb == "sweep":
            cfg = _load(args)
            out = args.out or Path(cfg.output.dir)
            return _sweep(cfg, out, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 1


def _run_member(payload) -> dict:
    cfg_doc, out_dir, value = payload
    from .config import parse_config

    cfg = parse_config(cfg_doc)
    cfg.omega = value
    cfg.scenario.sweep = [value]
    return run_scenario(cfg, out_dir)


def _sweep(cfg: RunConfig, out: Path, threads: int = 1) -> int:
    """Run the configured scenario once per sweep value (parallel over members).

    Each member overrides physics.omega with the sweep value and gets its own
    member_<i> output directory.
    """
    values = cfg.scenario.sweep
    if not values:
        print("sweep requires a nonempty scenario.sweep list", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    payloads = [
        (cfg.echo(), str(out / f"member_{i:02d}"), v) for i, v in enumerate(values)
    ]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            summaries = list(pool.map(_run_member, payloads))
    else:
        summaries = [_run_member(p) for p in payloads]
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
