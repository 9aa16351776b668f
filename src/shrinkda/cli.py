"""Command-line front end: ``dacli run | compare | validate``."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import validation
from .harness import (ExperimentConfig, compare_filters, configs_for_filters,
                      parse_config_file, run_twin_experiment, write_comparison_csv,
                      write_metadata)
from .models import get_model


def _load(path: str):
    """Config and ``filters`` list; ``filter`` defaults to the first listed."""
    mapping = parse_config_file(path)
    filters_value = mapping.get("filters")
    keys = [k.strip() for k in filters_value.split(",")] if filters_value else None
    if keys:
        mapping.setdefault("filter", keys[0])
    return ExperimentConfig.from_mapping(mapping), keys


def _cmd_run(args) -> int:
    cfg, _ = _load(args.config)
    if args.filter:
        cfg = replace(cfg, filter=args.filter)
    if args.synthetic_ratio is not None:
        cfg = replace(cfg, synthetic_ratio=args.synthetic_ratio)
    result = run_twin_experiment(cfg)
    print(f"{cfg.filter} on {cfg.model}: total RMSE {result.total_rmse:.6g}, "
          f"analysis time {result.total_analysis_seconds:.3f} s over {cfg.n_cycles} cycles")
    if cfg.output:
        print(f"wrote {cfg.output} and {cfg.output}.meta")
    return 0


def _cmd_compare(args) -> int:
    cfg, keys = _load(args.config)
    if not keys:
        raise ValueError("compare config needs a 'filters = a,b,c' line")
    rows = compare_filters(configs_for_filters(cfg, keys))
    width = max(len(k) for k, _, _ in rows)
    for name, value, seconds in rows:
        print(f"{name:<{width}}  rmse {value:10.6f}  analysis {seconds:8.3f} s")
    if cfg.output:
        write_comparison_csv(rows, cfg.output)
        write_metadata(cfg, cfg.output + ".meta",
                       get_model(cfg.model, cfg.model_overrides), filters=keys)
        print(f"wrote {cfg.output} and {cfg.output}.meta")
    return 0


def _cmd_validate(_args) -> int:
    results = validation.run_all()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f" - {res.detail}" if res.detail else ""
        print(f"{status} {res.name}{detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacli",
        description="Twin-experiment benchmarks for shrinkage-based ensemble filters")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one twin experiment from a config file")
    run.add_argument("--config", required=True, help="flat key = value config file")
    run.add_argument("--filter", help="override the filter key from the config")
    run.add_argument("--synthetic-ratio", type=float, default=None,
                     help="override synthetic-member ratio C (shrinkage filters only)")
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare",
                             help="run several filters against one shared truth")
    compare.add_argument("--config", required=True)
    compare.set_defaults(func=_cmd_compare)

    validate = sub.add_parser("validate", help="run the property suite")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
